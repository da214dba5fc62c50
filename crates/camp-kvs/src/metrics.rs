//! The server's telemetry surface: per-command latency histograms and the
//! snapshot/rendering layer behind `stats`, `stats detail`, `stats
//! profile` and the `--metrics-addr` Prometheus exposition.
//!
//! Recording sits on the per-request hot path, so [`ServerMetrics`] is
//! atomics all the way down: each command's latency goes into a lock-free
//! [`Histogram`] and the connection counters are plain `AtomicU64`s — no
//! mutex is taken that the seed server did not already take. Reading is the
//! cold path: [`TelemetryReport`] gathers a point-in-time copy of
//! everything (store counters, per-shard rows, policy internals, IQ
//! registry gauges) and renders it through one table of metric
//! descriptors, `METRICS`, in which each metric names its STAT row, its
//! Prometheus family, help text, type and reader once. Two walkers over
//! that table produce the `STAT` lines and the Prometheus text, so both
//! protocols speak one vocabulary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use camp_policies::{PolicyEvent, PolicyEventKind, ShadowEstimate, TraceSink};
use camp_telemetry::{
    EvictionTrace, Exposition, FlightRecorder, Histogram, HistogramSnapshot, MetricKind,
};

use crate::persist::PersistSnapshot;
use crate::protocol::StatsScope;
use crate::shard::ShardSnapshot;
use crate::store::StoreStats;

/// The command classes that get their own latency histogram. The
/// discriminant indexes the per-class counters and stamps request spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CmdKind {
    /// `get`/`gets`.
    Get = 0,
    /// `iqget`.
    IqGet = 1,
    /// `set`/`add`/`replace`.
    Set = 2,
    /// `iqset`.
    IqSet = 3,
    /// `delete`.
    Delete = 4,
    /// Everything else (`incr`, `touch`, `flush_all`, `stats`, ...).
    Other = 5,
}

impl CmdKind {
    /// Every kind, in discriminant (and display) order.
    pub const ALL: [CmdKind; 6] = [
        CmdKind::Get,
        CmdKind::IqGet,
        CmdKind::Set,
        CmdKind::IqSet,
        CmdKind::Delete,
        CmdKind::Other,
    ];

    /// The command name used in `STAT latency:<name>:*` lines and
    /// `camp_<name>_latency_us` metric families.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CmdKind::Get => "get",
            CmdKind::IqGet => "iqget",
            CmdKind::Set => "set",
            CmdKind::IqSet => "iqset",
            CmdKind::Delete => "delete",
            CmdKind::Other => "other",
        }
    }

    /// A stable one-byte discriminant, used to stamp request spans in the
    /// flight recorder (which stores fixed-width words, not enums).
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`CmdKind::code`]; unknown bytes decode as `Other`.
    #[must_use]
    pub fn from_code(code: u8) -> CmdKind {
        CmdKind::ALL
            .get(usize::from(code))
            .copied()
            .unwrap_or(CmdKind::Other)
    }
}

/// Why the server refused or severed a connection (the overload /
/// input-hardening surface). Each cause has its own counter, exported as
/// `camp_conn_rejected_total{cause=...}` and `STAT conn_rejected:<cause>`.
/// The discriminant indexes the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectCause {
    /// Accept-time rejection: the `max_conns` cap was reached.
    MaxConns = 0,
    /// A connection idle (or trickling without completing a command —
    /// slowloris) past the idle timeout was evicted.
    IdleTimeout = 1,
    /// A storage command declared a data block over `max_value_len`.
    ValueTooLarge = 2,
}

impl RejectCause {
    /// Every cause, in discriminant (and display) order.
    pub const ALL: [RejectCause; 3] = [
        RejectCause::MaxConns,
        RejectCause::IdleTimeout,
        RejectCause::ValueTooLarge,
    ];

    /// The label value used in STAT lines and the Prometheus exposition.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RejectCause::MaxConns => "max_conns",
            RejectCause::IdleTimeout => "idle_timeout",
            RejectCause::ValueTooLarge => "value_too_large",
        }
    }
}

/// Which fault a chaos plan injected (see [`crate::fault`]), exported as
/// `camp_faults_injected_total{kind=...}`. The discriminant indexes the
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultKind {
    /// Pre-response connection drop.
    Drop = 0,
    /// Injected response delay.
    Delay = 1,
    /// Forced `SERVER_ERROR injected fault` reply.
    Error = 2,
}

impl FaultKind {
    /// Every kind, in discriminant (and display) order.
    pub const ALL: [FaultKind; 3] = [FaultKind::Drop, FaultKind::Delay, FaultKind::Error];

    /// The label value used in STAT lines and the Prometheus exposition.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Error => "error",
        }
    }
}

/// Lock-free server-side counters and latency histograms.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    latency: [Histogram; CmdKind::ALL.len()],
    /// Wire bytes consumed per command class (command line plus any data
    /// block, terminators included).
    bytes_read: [AtomicU64; CmdKind::ALL.len()],
    /// Connections refused or severed, indexed by [`RejectCause`].
    rejected: [AtomicU64; RejectCause::ALL.len()],
    /// Faults injected by the active chaos plan, indexed by [`FaultKind`].
    faults: [AtomicU64; FaultKind::ALL.len()],
    /// Connections accepted.
    pub connections_opened: AtomicU64,
    /// Connections that have ended.
    pub connections_closed: AtomicU64,
    /// Lines rejected with `CLIENT_ERROR`.
    pub protocol_errors: AtomicU64,
    /// Segments batched into each scatter-gather (`writev`) flush call —
    /// the distribution proves how deep the iovec batching runs.
    pub flush_segments: Histogram,
}

impl ServerMetrics {
    /// Fresh, zeroed metrics.
    #[must_use]
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Records one command's handling latency in microseconds. Wait-free.
    pub fn record_latency(&self, kind: CmdKind, micros: u64) {
        self.latency[kind as usize].record(micros);
    }

    /// The histogram backing `kind` (snapshots, merges, tests).
    #[must_use]
    pub fn latency(&self, kind: CmdKind) -> &Histogram {
        &self.latency[kind as usize]
    }

    /// Adds wire bytes consumed by one command of class `kind`. Wait-free.
    pub fn record_bytes(&self, kind: CmdKind, bytes: u64) {
        // ordering: Relaxed — statistics counter.
        self.bytes_read[kind as usize].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Wire bytes consumed so far by commands of class `kind`.
    #[must_use]
    pub fn bytes_read(&self, kind: CmdKind) -> u64 {
        // ordering: Relaxed — statistics counter.
        self.bytes_read[kind as usize].load(Ordering::Relaxed)
    }

    /// Per-command byte counters, in [`CmdKind::ALL`] order.
    #[must_use]
    pub fn bytes_read_snapshot(&self) -> Vec<(&'static str, u64)> {
        CmdKind::ALL
            .iter()
            .map(|&kind| (kind.name(), self.bytes_read(kind)))
            .collect()
    }

    /// Counts one refused or severed connection.
    pub fn record_rejected(&self, cause: RejectCause) {
        // ordering: Relaxed — statistics counter.
        self.rejected[cause as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Connections refused or severed for `cause` so far.
    #[must_use]
    pub fn rejected(&self, cause: RejectCause) -> u64 {
        // ordering: Relaxed — statistics counter.
        self.rejected[cause as usize].load(Ordering::Relaxed)
    }

    /// Per-cause rejection counters, in [`RejectCause::ALL`] order.
    #[must_use]
    pub fn rejected_snapshot(&self) -> Vec<(&'static str, u64)> {
        RejectCause::ALL
            .iter()
            .map(|&cause| (cause.name(), self.rejected(cause)))
            .collect()
    }

    /// Counts one injected fault.
    pub fn record_fault(&self, kind: FaultKind) {
        // ordering: Relaxed — statistics counter.
        self.faults[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Per-kind injected-fault counters, in [`FaultKind::ALL`] order.
    #[must_use]
    pub fn faults_snapshot(&self) -> Vec<(&'static str, u64)> {
        FaultKind::ALL
            .iter()
            .zip(&self.faults)
            // ordering: Relaxed — statistics counter.
            .map(|(&kind, counter)| (kind.name(), counter.load(Ordering::Relaxed)))
            .collect()
    }

    /// Total commands timed so far, across every class — the denominator
    /// a drain report uses to count requests completed while draining.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.latency.iter().map(Histogram::count).sum()
    }

    /// Zeroes every histogram and counter (the `stats reset` command).
    pub fn reset(&self) {
        for histogram in &self.latency {
            histogram.reset();
        }
        // ordering: Relaxed(x6) — statistics counters; a racing
        // recorder landing just after the zeroing is a normal race
        // between `stats reset` and live traffic.
        for counter in &self.bytes_read {
            counter.store(0, Ordering::Relaxed);
        }
        for counter in &self.rejected {
            counter.store(0, Ordering::Relaxed);
        }
        for counter in &self.faults {
            counter.store(0, Ordering::Relaxed);
        }
        self.connections_opened.store(0, Ordering::Relaxed);
        self.connections_closed.store(0, Ordering::Relaxed);
        self.protocol_errors.store(0, Ordering::Relaxed);
        self.flush_segments.reset();
    }

    /// Snapshots every per-command histogram, in [`CmdKind::ALL`] order.
    #[must_use]
    pub fn latency_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        CmdKind::ALL
            .iter()
            .map(|&kind| (kind.name(), self.latency(kind).snapshot()))
            .collect()
    }
}

/// Live per-worker reactor counters (one row per event-loop worker).
/// Incremented with relaxed atomics from inside each worker's loop, read
/// by `stats detail` and the Prometheus exposition.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Connections currently owned by this worker.
    pub live_connections: AtomicU64,
    /// `epoll_wait` returns that delivered at least one event.
    pub epoll_wakeups: AtomicU64,
    /// Timer-wheel timers fired (idle sweeps, fault resumes, drain ticks).
    pub timer_fires: AtomicU64,
    /// Times backpressure paused reads (pending output over the
    /// high-water mark caused `EPOLLIN` to be withheld).
    pub write_pauses: AtomicU64,
    /// Sockets accepted by this worker's own `SO_REUSEPORT` listener,
    /// including those rejected at the `--max-conns` cap.
    pub accepts: AtomicU64,
    /// Connection events drained from `epoll_wait` into the batched run
    /// queue.
    pub events_dispatched: AtomicU64,
}

/// A point-in-time copy of one worker's [`WorkerStats`] row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStatsSnapshot {
    /// Connections currently owned by this worker.
    pub live_connections: u64,
    /// `epoll_wait` returns that delivered at least one event.
    pub epoll_wakeups: u64,
    /// Timer-wheel timers fired.
    pub timer_fires: u64,
    /// Reads paused by output backpressure.
    pub write_pauses: u64,
    /// Sockets accepted by this worker's own listener.
    pub accepts: u64,
    /// Connection events drained into the batched run queue.
    pub events_dispatched: u64,
}

/// The per-worker reactor counter registry, sized once at startup for the
/// resolved worker count.
#[derive(Debug)]
pub struct ReactorStats {
    workers: Vec<WorkerStats>,
}

impl ReactorStats {
    /// A registry with `workers` zeroed rows (at least one, so the
    /// schema is stable).
    #[must_use]
    pub fn new(workers: usize) -> ReactorStats {
        ReactorStats {
            workers: (0..workers.max(1))
                .map(|_| WorkerStats::default())
                .collect(),
        }
    }

    /// The counter row for worker `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range — worker indices are assigned from
    /// the same count the registry was sized with.
    #[must_use]
    pub fn worker(&self, index: usize) -> &WorkerStats {
        &self.workers[index]
    }

    /// Point-in-time copies of every row, in worker order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<WorkerStatsSnapshot> {
        self.workers
            .iter()
            // ordering: Relaxed(x6) — statistics counters; the snapshot
            // is advisory and never gates an operation.
            .map(|w| WorkerStatsSnapshot {
                live_connections: w.live_connections.load(Ordering::Relaxed),
                epoll_wakeups: w.epoll_wakeups.load(Ordering::Relaxed),
                timer_fires: w.timer_fires.load(Ordering::Relaxed),
                write_pauses: w.write_pauses.load(Ordering::Relaxed),
                accepts: w.accepts.load(Ordering::Relaxed),
                events_dispatched: w.events_dispatched.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Zeroes the event counters (`stats reset`). Live-connection gauges
    /// are left alone — they track reality, not history.
    pub fn reset(&self) {
        for w in &self.workers {
            // ordering: Relaxed(x5) — statistics counters; see `snapshot`.
            w.epoll_wakeups.store(0, Ordering::Relaxed);
            w.timer_fires.store(0, Ordering::Relaxed);
            w.write_pauses.store(0, Ordering::Relaxed);
            w.accepts.store(0, Ordering::Relaxed);
            w.events_dispatched.store(0, Ordering::Relaxed);
        }
    }
}

/// Adapts policy-layer [`PolicyEvent`]s into the flight recorder's
/// [`EvictionTrace`] ring. This is the glue the store attaches to every
/// shard's policy: policies stay clock- and telemetry-free, the recorder
/// stays policy-agnostic.
#[derive(Debug, Clone)]
pub struct RecorderSink {
    recorder: Arc<FlightRecorder>,
}

impl RecorderSink {
    /// A sink feeding `recorder`.
    #[must_use]
    pub fn new(recorder: Arc<FlightRecorder>) -> RecorderSink {
        RecorderSink { recorder }
    }
}

impl TraceSink for RecorderSink {
    fn record(&self, event: &PolicyEvent) {
        self.recorder.record_eviction(&EvictionTrace {
            admit: event.kind == PolicyEventKind::Admit,
            key_hash: event.key_hash,
            size: event.size,
            cost: event.cost,
            ratio: event.ratio,
            queue: event.queue,
            l_value: event.l_value,
        });
    }
}

/// A point-in-time copy of every telemetry surface the server exposes,
/// assembled under no long-held lock and rendered to either protocol.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TelemetryReport {
    /// Server version string.
    pub version: &'static str,
    /// The (first shard's) policy name.
    pub policy: String,
    /// Per-shard telemetry rows, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// Cross-shard aggregate counters.
    pub totals: StoreStats,
    /// Aggregate live items.
    pub curr_items: usize,
    /// Aggregate slab census `(chunk_size, slabs, items)`.
    pub slab_census: Vec<(u32, usize, u64)>,
    /// Per-command latency snapshots `(command, histogram)`.
    pub latencies: Vec<(&'static str, HistogramSnapshot)>,
    /// Wire bytes consumed per command class `(command, bytes)`.
    pub bytes_read: Vec<(&'static str, u64)>,
    /// Connections accepted so far.
    pub connections_opened: u64,
    /// Connections ended so far.
    pub connections_closed: u64,
    /// Protocol parse errors so far.
    pub protocol_errors: u64,
    /// Connections refused or severed `(cause, count)`, in
    /// [`RejectCause::ALL`] order.
    pub conn_rejected: Vec<(&'static str, u64)>,
    /// Chaos faults injected `(kind, count)`, in [`FaultKind::ALL`] order.
    pub faults_injected: Vec<(&'static str, u64)>,
    /// Poisoned-mutex recoveries since process start.
    pub lock_poison_recovered: u64,
    /// Unmatched `iqget` misses currently registered.
    pub iq_miss_registry_size: u64,
    /// Registry entries dropped by the TTL sweep so far.
    pub iq_sweep_reclaimed: u64,
    /// Merged shadow-cache estimates (0.5×/1×/2× capacity), across shards.
    pub shadow: Vec<ShadowEstimate>,
    /// The shadow profiler's spatial sampling modulus (1-in-N keys).
    pub shadow_sample_modulus: u64,
    /// Request spans recorded by the flight recorder so far.
    pub spans_recorded: u64,
    /// Spans promoted to the slow-request log so far.
    pub slow_recorded: u64,
    /// The active `--slow-log` threshold, if one is set.
    pub slow_threshold_us: Option<u64>,
    /// Policy admissions traced so far.
    pub trace_admits: u64,
    /// Policy evictions traced so far.
    pub trace_evicts: u64,
    /// Distribution of miss costs over traced evictions.
    pub eviction_costs: HistogramSnapshot,
    /// Trajectory of CAMP's `L` term as sampled at eviction decisions.
    pub l_values: HistogramSnapshot,
    /// Per-worker reactor internals, in worker order.
    pub reactor_workers: Vec<WorkerStatsSnapshot>,
    /// Distribution of segments batched per scatter-gather flush call.
    pub flush_segments: HistogramSnapshot,
    /// Durability engine counters; `None` when `--data-dir` is unset.
    pub persist: Option<PersistSnapshot>,
}

impl TelemetryReport {
    /// Aggregate logical bytes resident.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.used_bytes).sum()
    }

    /// The `STAT` rows of one `stats` listing: `Summary` for bare `stats`,
    /// `Profile` for `stats profile`, and every row for `Detail` (`stats
    /// detail`). `Reset` lists nothing.
    #[must_use]
    pub fn stat_lines(&self, scope: StatsScope) -> Vec<String> {
        let mut lines = Vec::new();
        let shown = METRICS
            .iter()
            .filter(|s| scope == StatsScope::Detail || s.scope == scope);
        for section in shown {
            let series: Vec<(&Metric, Series<'_>)> = section
                .metrics
                .iter()
                .map(|metric| (metric, metric.read.series(self)))
                .collect();
            let labels = series.first().map_or(0, |(_, values)| values.len());
            match section.layout {
                Layout::Rows => {
                    for (metric, values) in &series {
                        for (label, value) in values {
                            metric.stat_rows(label, value, &mut lines);
                        }
                    }
                }
                Layout::ByLabel => {
                    for at in 0..labels {
                        for (metric, values) in &series {
                            if let Some((label, value)) = values.get(at) {
                                metric.stat_rows(label, value, &mut lines);
                            }
                        }
                    }
                }
                Layout::Line(row) => {
                    for at in 0..labels {
                        let mut fields = series.iter().filter_map(|(metric, values)| {
                            let (label, value) = values.get(at)?;
                            Some((metric.names.stat, label, value.stat_text()?))
                        });
                        let Some((key, label, text)) = fields.next() else {
                            continue;
                        };
                        let mut line = format!("STAT {} {key}={text}", row.replace("{}", label));
                        for (key, _, text) in fields {
                            line.push_str(&format!(" {key}={text}"));
                        }
                        lines.push(line);
                    }
                }
            }
        }
        lines
    }

    /// The Prometheus text exposition served on `--metrics-addr`: every
    /// descriptor with a family, in table order. Every family is emitted
    /// even at zero so scrapers and the CI smoke test see a stable schema
    /// from the first scrape.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut exp = Exposition::new();
        let exposed = METRICS
            .iter()
            .flat_map(|s| s.metrics)
            .filter(|m| !m.names.family.is_empty());
        for metric in exposed {
            let Names {
                family, help, kind, ..
            } = metric.names;
            match metric.read {
                // One family per gauge name, in first-seen order, sampled
                // per shard plus any sub-dimension label the gauge carries
                // (e.g. CAMP's per-queue lengths by ratio).
                Read::PolicyGauges => {
                    let mut names: Vec<&'static str> = Vec::new();
                    for gauge in self.shards.iter().flat_map(|s| &s.policy_stats.gauges) {
                        if !names.contains(&gauge.name) {
                            names.push(gauge.name);
                        }
                    }
                    for name in names {
                        let family = family.replace("{}", name);
                        exp.family(&family, help, kind);
                        for (i, shard) in self.shards.iter().enumerate() {
                            let shard_label = i.to_string();
                            for gauge in shard.policy_stats.gauges.iter().filter(|g| g.name == name)
                            {
                                let mut labels = vec![("shard", shard_label.as_str())];
                                if let Some((key, value)) = &gauge.label {
                                    labels.push((key, value));
                                }
                                exp.int_value(&family, &labels, gauge.value);
                            }
                        }
                    }
                }
                // The label value fills the family name: one unlabelled
                // family per value.
                _ if family.contains("{}") => {
                    for (label, value) in metric.read.series(self) {
                        let family = family.replace("{}", &label);
                        exp.family(&family, help, kind);
                        value.sample(&mut exp, &family, &[]);
                    }
                }
                _ => {
                    exp.family(family, help, kind);
                    let key = metric.read.label();
                    for (label, value) in metric.read.series(self) {
                        let labels = [(key, label.as_str())];
                        value.sample(&mut exp, family, if key.is_empty() { &[] } else { &labels });
                    }
                }
            }
        }
        exp.render()
    }
}

/// One value read from a [`TelemetryReport`].
#[derive(Debug)]
enum Value<'a> {
    /// A counter or gauge reading.
    Int(u64),
    /// A ratio: four decimals on STAT, shortest round-trip form on
    /// Prometheus.
    Ratio(f64),
    /// Free text, shown on STAT only.
    Text(String),
    /// A state word on STAT, its numeric code on Prometheus.
    State(&'a str, u64),
    /// A distribution: one STAT row per `(suffix, part)`, the suffix
    /// appended to the row name, and a summary on Prometheus.
    Dist(&'a HistogramSnapshot, &'static [(&'static str, Part)]),
    /// Nothing to show (persistence off, a slab class without slabs): no
    /// STAT row, and 0 on Prometheus so the schema stays stable.
    Off,
    /// Constant 1 carrying these labels, on Prometheus only.
    Info(Vec<(&'static str, String)>),
}

/// A descriptor's values as `(label value, value)` pairs in display order;
/// an unlabelled descriptor yields one pair with an empty label.
type Series<'a> = Vec<(String, Value<'a>)>;

impl Value<'_> {
    /// The value as a STAT row prints it, if it has a row of its own.
    fn stat_text(&self) -> Option<String> {
        match self {
            Value::Int(v) => Some(v.to_string()),
            Value::Ratio(v) => Some(format!("{v:.4}")),
            Value::Text(text) => Some(text.clone()),
            Value::State(word, _) => Some((*word).to_owned()),
            Value::Dist(..) | Value::Off | Value::Info(_) => None,
        }
    }

    /// Emits the value as samples of `family`.
    fn sample(&self, exp: &mut Exposition, family: &str, labels: &[(&str, &str)]) {
        match self {
            Value::Int(v) | Value::State(_, v) => exp.int_value(family, labels, *v),
            Value::Off => exp.int_value(family, labels, 0),
            Value::Ratio(v) => exp.value(family, labels, *v),
            Value::Dist(snap, _) => exp.summary(family, labels, snap),
            Value::Info(info) => {
                let info: Vec<(&str, &str)> = info.iter().map(|(k, v)| (*k, v.as_str())).collect();
                exp.int_value(family, &info, 1);
            }
            Value::Text(_) => {}
        }
    }
}

/// One statistic of a distribution, shown as its own STAT row.
#[derive(Debug, Clone, Copy)]
enum Part {
    Count,
    Quantile(f64),
    Max,
}

/// How a descriptor reads its values, and so its label dimension.
#[derive(Debug, Clone, Copy)]
enum Read {
    /// One unlabelled integer.
    Int(fn(&TelemetryReport) -> u64),
    /// One unlabelled value.
    One(fn(&TelemetryReport) -> Value<'_>),
    /// One value per value of the named label.
    Each(&'static str, fn(&TelemetryReport) -> Series<'_>),
    /// Named counters, labelled with the named label.
    Named(&'static str, fn(&TelemetryReport) -> &[(&'static str, u64)]),
    /// One value per shard, labelled `shard`.
    Shard(fn(&ShardSnapshot) -> Value<'_>),
    /// One value per reactor worker, labelled `worker`.
    Worker(fn(&WorkerStatsSnapshot) -> u64),
    /// One value per shadow-cache scale (`0.5x`, `1x`, `2x`), labelled
    /// `scale`.
    Scale(fn(&ShadowEstimate) -> Value<'_>),
    /// One value per slab class from its `(slabs, items)`, labelled
    /// `chunk_size`. A class without slabs reads [`Value::Off`], so it
    /// gets no STAT row.
    Class(fn(u64, u64) -> u64),
    /// A durability counter; [`Value::Off`] without `--data-dir`.
    Persist(fn(&PersistSnapshot) -> u64),
    /// Every shard's policy gauges. On STAT the `{}` of the row name takes
    /// `<shard>:<gauge>[:<gauge label>]`; on Prometheus the `{}` of the
    /// family takes the gauge name, and samples are labelled `shard` plus
    /// the gauge's own label.
    PolicyGauges,
}

impl Read {
    /// The Prometheus label key of the series (empty when unlabelled).
    fn label(self) -> &'static str {
        match self {
            Read::Each(key, _) | Read::Named(key, _) => key,
            Read::Shard(_) | Read::PolicyGauges => "shard",
            Read::Worker(_) => "worker",
            Read::Scale(_) => "scale",
            Read::Class(_) => "chunk_size",
            Read::Int(_) | Read::One(_) | Read::Persist(_) => "",
        }
    }

    fn series(self, r: &TelemetryReport) -> Series<'_> {
        let one = |value| vec![(String::new(), value)];
        match self {
            Read::Int(read) => one(Value::Int(read(r))),
            Read::One(read) => one(read(r)),
            Read::Persist(read) => one(r
                .persist
                .as_ref()
                .map_or(Value::Off, |p| Value::Int(read(p)))),
            Read::Each(_, read) => read(r),
            Read::Named(_, read) => read(r)
                .iter()
                .map(|&(name, v)| (name.to_owned(), Value::Int(v)))
                .collect(),
            Read::Shard(read) => r
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| (i.to_string(), read(s)))
                .collect(),
            Read::Worker(read) => r
                .reactor_workers
                .iter()
                .enumerate()
                .map(|(i, w)| (i.to_string(), Value::Int(read(w))))
                .collect(),
            Read::Scale(read) => r
                .shadow
                .iter()
                .map(|est| (est.scale_label(), read(est)))
                .collect(),
            Read::Class(read) => r
                .slab_census
                .iter()
                .map(|&(chunk, slabs, items)| {
                    let value = match slabs {
                        0 => Value::Off,
                        _ => Value::Int(read(slabs as u64, items)),
                    };
                    (chunk.to_string(), value)
                })
                .collect(),
            Read::PolicyGauges => r
                .shards
                .iter()
                .enumerate()
                .flat_map(|(i, shard)| {
                    shard.policy_stats.gauges.iter().map(move |gauge| {
                        let at = match &gauge.label {
                            Some((_, label)) => format!("{i}:{}:{label}", gauge.name),
                            None => format!("{i}:{}", gauge.name),
                        };
                        (at, Value::Int(gauge.value))
                    })
                })
                .collect(),
        }
    }
}

/// A descriptor's names, help text and type; `.help(..)` and then
/// `.read(..)` complete it into a [`Metric`].
#[derive(Debug, Clone, Copy)]
struct Names {
    /// The STAT row name (the `key` of a `key=value` field inside a
    /// [`Layout::Line`]); a `{}` takes the label value. Empty for a
    /// Prometheus-only family.
    stat: &'static str,
    /// The Prometheus family; a `{}` takes the label value, making one
    /// family per value instead of a label. Empty for a STAT-only row.
    family: &'static str,
    /// The `# HELP` text, also the metric reference's description.
    help: &'static str,
    kind: MetricKind,
}

impl Names {
    const fn help(self, help: &'static str) -> Names {
        Names { help, ..self }
    }

    const fn read(self, read: Read) -> Metric {
        Metric { names: self, read }
    }
}

/// One metric descriptor: every name the metric is known by, and how to
/// read it from a [`TelemetryReport`].
#[derive(Debug)]
struct Metric {
    names: Names,
    read: Read,
}

impl Metric {
    /// Appends the STAT rows of one `(label, value)` pair.
    fn stat_rows(&self, label: &str, value: &Value<'_>, lines: &mut Vec<String>) {
        if self.names.stat.is_empty() {
            return;
        }
        let name = self.names.stat.replace("{}", label);
        if let Value::Dist(snap, parts) = value {
            for (suffix, part) in *parts {
                let reading = match part {
                    Part::Count => snap.count,
                    Part::Quantile(q) => snap.quantile(*q),
                    Part::Max => snap.max,
                };
                lines.push(format!("STAT {name}{suffix} {reading}"));
            }
        } else if let Some(text) = value.stat_text() {
            lines.push(format!("STAT {name} {text}"));
        }
    }
}

const fn names(stat: &'static str, family: &'static str, kind: MetricKind) -> Names {
    Names {
        stat,
        family,
        help: "",
        kind,
    }
}

const fn counter(stat: &'static str, family: &'static str) -> Names {
    names(stat, family, MetricKind::Counter)
}

const fn gauge(stat: &'static str, family: &'static str) -> Names {
    names(stat, family, MetricKind::Gauge)
}

const fn summary(stat: &'static str, family: &'static str) -> Names {
    names(stat, family, MetricKind::Summary)
}

/// A STAT row with no Prometheus family of its own.
const fn stat_only(stat: &'static str) -> Names {
    names(stat, "", MetricKind::Gauge)
}

/// How a section's descriptors lay out as STAT rows.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Descriptor by descriptor: every row of one, then the next's.
    Rows,
    /// Label by label: each descriptor's row for one label value, then the
    /// next label value's.
    ByLabel,
    /// Label by label on one row, `STAT <row> key=value key=value ...`,
    /// the `{}` of the row name taking the label value.
    Line(&'static str),
}

/// A run of descriptors shown by one `stats` listing in one layout.
#[derive(Debug)]
struct Section {
    /// The listing that shows these rows (`stats detail` shows them all).
    scope: StatsScope,
    layout: Layout,
    metrics: &'static [Metric],
}

const LATENCY_PARTS: &[(&str, Part)] = &[
    (":count", Part::Count),
    (":p50_us", Part::Quantile(0.5)),
    (":p90_us", Part::Quantile(0.9)),
    (":p99_us", Part::Quantile(0.99)),
    (":p999_us", Part::Quantile(0.999)),
    (":max_us", Part::Max),
];
const FLUSH_PARTS: &[(&str, Part)] = &[
    (":count", Part::Count),
    (":p50", Part::Quantile(0.5)),
    (":max", Part::Max),
];
const P50_PART: &[(&str, Part)] = &[("_p50", Part::Quantile(0.5))];

/// The metric table: every STAT row and Prometheus family the server
/// exposes, each named once. [`TelemetryReport::stat_lines`] and
/// [`TelemetryReport::render_prometheus`] walk it in order.
static METRICS: &[Section] = &[
    Section {
        scope: StatsScope::Summary,
        layout: Layout::Rows,
        metrics: &[
            gauge("", "camp_build_info")
                .help("server version and configuration (constant 1)")
                .read(Read::One(|r| {
                    Value::Info(vec![
                        ("version", r.version.to_owned()),
                        ("policy", r.policy.clone()),
                        ("shards", r.shards.len().to_string()),
                    ])
                })),
            stat_only("policy")
                .help("the first shard's eviction policy")
                .read(Read::One(|r| Value::Text(r.policy.clone()))),
            stat_only("shards")
                .help("shard count (the build-info family's `shards` label)")
                .read(Read::Int(|r| r.shards.len() as u64)),
            stat_only("shard:{}:policy")
                .help("each shard's eviction policy")
                .read(Read::Shard(|s| Value::Text(s.policy.clone()))),
            gauge("curr_items", "camp_items")
                .help("live items")
                .read(Read::Int(|r| r.curr_items as u64)),
            gauge("bytes", "camp_used_bytes")
                .help("logical bytes resident")
                .read(Read::Int(TelemetryReport::used_bytes)),
            counter("get_hits", "camp_get_hits_total")
                .help("get/iqget hits")
                .read(Read::Int(|r| r.totals.get_hits)),
            counter("get_misses", "camp_get_misses_total")
                .help("get/iqget misses")
                .read(Read::Int(|r| r.totals.get_misses)),
            counter("cmd_set", "camp_cmd_set_total")
                .help("successful stores")
                .read(Read::Int(|r| r.totals.sets)),
            stat_only("evictions")
                .help("items evicted by the policy (the eviction counter's capacity cause)")
                .read(Read::Int(|r| r.totals.evictions)),
            stat_only("slab_evictions")
                .help("items evicted by slab reassignment (its slab_reassign cause)")
                .read(Read::Int(|r| r.totals.slab_evictions)),
            counter("slab_reassignments", "camp_slab_reassignments_total")
                .help("random slab evictions forced by calcification")
                .read(Read::Int(|r| r.totals.slab_reassignments)),
            counter("slab_reclaims", "camp_slab_reclaims_total")
                .help("slabs reclaimed after emptying naturally")
                .read(Read::Int(|r| r.totals.slab_reclaims)),
            stat_only("expired")
                .help("items dropped at expiry (its expired cause)")
                .read(Read::Int(|r| r.totals.expired)),
        ],
    },
    Section {
        scope: StatsScope::Summary,
        layout: Layout::Line("shard:{}"),
        metrics: &[
            gauge("items", "camp_shard_items")
                .help("live items per shard")
                .read(Read::Shard(|s| Value::Int(s.items as u64))),
            gauge("bytes", "camp_shard_used_bytes")
                .help("logical bytes resident per shard")
                .read(Read::Shard(|s| Value::Int(s.used_bytes))),
            counter("hits", "camp_shard_hits_total")
                .help("get/iqget hits per shard")
                .read(Read::Shard(|s| Value::Int(s.stats.get_hits))),
            counter("misses", "camp_shard_misses_total")
                .help("get/iqget misses per shard")
                .read(Read::Shard(|s| Value::Int(s.stats.get_misses))),
            counter("evictions", "camp_shard_evictions_total")
                .help("evictions per shard (all causes)")
                .read(Read::Shard(|s| {
                    Value::Int(s.stats.evictions + s.stats.slab_evictions)
                })),
        ],
    },
    Section {
        scope: StatsScope::Summary,
        layout: Layout::Line("slab_class:{}"),
        metrics: &[
            gauge("slabs", "camp_slab_class_slabs")
                .help("slabs assigned per chunk-size class")
                .read(Read::Class(|slabs, _| slabs)),
            gauge("items", "camp_slab_class_items")
                .help("items resident per chunk-size class")
                .read(Read::Class(|_, items| items)),
        ],
    },
    Section {
        scope: StatsScope::Detail,
        layout: Layout::Rows,
        metrics: &[
            counter("deletes", "camp_deletes_total")
                .help("successful deletes")
                .read(Read::Int(|r| r.totals.deletes)),
            counter("evictions:{}", "camp_evictions_total")
                .help("items dropped, by cause")
                .read(Read::Each("cause", |r| {
                    let t = &r.totals;
                    [
                        ("capacity", t.evictions),
                        ("slab_reassign", t.slab_evictions),
                        ("expired", t.expired),
                    ]
                    .map(|(cause, n)| (cause.to_owned(), Value::Int(n)))
                    .into()
                })),
            summary("latency:{}", "camp_{}_latency_us")
                .help("command handling latency in microseconds")
                .read(Read::Each("cmd", |r| {
                    r.latencies
                        .iter()
                        .map(|(cmd, snap)| ((*cmd).to_owned(), Value::Dist(snap, LATENCY_PARTS)))
                        .collect()
                })),
            counter("bytes_read:{}", "camp_bytes_read_total")
                .help("wire bytes consumed per command class")
                .read(Read::Named("cmd", |r| &r.bytes_read)),
            gauge("policy:{}", "camp_policy_{}")
                .help("policy-internal gauge")
                .read(Read::PolicyGauges),
            counter("connections_opened", "camp_connections_opened_total")
                .help("connections accepted")
                .read(Read::Int(|r| r.connections_opened)),
            counter("connections_closed", "camp_connections_closed_total")
                .help("connections ended")
                .read(Read::Int(|r| r.connections_closed)),
            counter("protocol_errors", "camp_protocol_errors_total")
                .help("lines rejected with CLIENT_ERROR")
                .read(Read::Int(|r| r.protocol_errors)),
            counter("conn_rejected:{}", "camp_conn_rejected_total")
                .help("connections refused or severed, by cause")
                .read(Read::Named("cause", |r| &r.conn_rejected)),
            counter("faults_injected:{}", "camp_faults_injected_total")
                .help("chaos faults injected, by kind")
                .read(Read::Named("kind", |r| &r.faults_injected)),
            counter("lock_poison_recovered", "camp_lock_poison_recovered_total")
                .help("poisoned mutexes recovered after a panicking holder")
                .read(Read::Int(|r| r.lock_poison_recovered)),
            gauge("iq_miss_registry_size", "camp_iq_miss_registry_size")
                .help("unmatched iqget misses currently registered")
                .read(Read::Int(|r| r.iq_miss_registry_size)),
            counter("iq_sweep_reclaimed", "camp_iq_sweep_reclaimed_total")
                .help("iq miss-registry entries dropped by the TTL sweep")
                .read(Read::Int(|r| r.iq_sweep_reclaimed)),
        ],
    },
    Section {
        scope: StatsScope::Detail,
        layout: Layout::Line("reactor:worker{}"),
        metrics: &[
            gauge("live", "camp_reactor_live_connections")
                .help("connections currently owned per reactor worker")
                .read(Read::Worker(|w| w.live_connections)),
            counter("wakeups", "camp_reactor_epoll_wakeups_total")
                .help("epoll_wait returns that delivered events, per worker")
                .read(Read::Worker(|w| w.epoll_wakeups)),
            counter("timer_fires", "camp_reactor_timer_fires_total")
                .help("timer-wheel timers fired, per worker")
                .read(Read::Worker(|w| w.timer_fires)),
            counter("write_pauses", "camp_reactor_write_pauses_total")
                .help("reads paused by output backpressure, per worker")
                .read(Read::Worker(|w| w.write_pauses)),
            counter("accepts", "camp_reactor_accepts_total")
                .help("sockets accepted by each worker's own SO_REUSEPORT listener")
                .read(Read::Worker(|w| w.accepts)),
            counter("events", "camp_reactor_events_dispatched_total")
                .help("connection events drained into the batched run queue, per worker")
                .read(Read::Worker(|w| w.events_dispatched)),
        ],
    },
    Section {
        scope: StatsScope::Detail,
        layout: Layout::Rows,
        metrics: &[
            summary(
                "reactor:flush_segments",
                "camp_reactor_flush_writev_segments",
            )
            .help("segments batched per scatter-gather (writev) flush call")
            .read(Read::One(|r| Value::Dist(&r.flush_segments, FLUSH_PARTS))),
            counter("trace:spans_recorded", "camp_trace_spans_total")
                .help("request spans recorded by the flight recorder")
                .read(Read::Int(|r| r.spans_recorded)),
            counter("trace:slow_recorded", "camp_trace_slow_total")
                .help("spans promoted to the slow-request log")
                .read(Read::Int(|r| r.slow_recorded)),
            stat_only("trace:slow_threshold_us")
                .help("the --slow-log threshold in microseconds, or `disabled`")
                .read(Read::One(|r| {
                    Value::Text(
                        r.slow_threshold_us
                            .map_or_else(|| "disabled".to_owned(), |us| us.to_string()),
                    )
                })),
            counter("trace:admits", "camp_trace_admits_total")
                .help("policy admissions traced")
                .read(Read::Int(|r| r.trace_admits)),
            counter("trace:evictions", "camp_trace_evictions_total")
                .help("policy evictions traced")
                .read(Read::Int(|r| r.trace_evicts)),
            summary("trace:eviction_cost", "camp_eviction_cost")
                .help("miss cost of traced eviction victims")
                .read(Read::One(|r| Value::Dist(&r.eviction_costs, P50_PART))),
            summary("trace:l_value", "camp_l_value")
                .help("CAMP L term sampled at eviction decisions")
                .read(Read::One(|r| Value::Dist(&r.l_values, P50_PART))),
            gauge("persist:state", "camp_persist_state")
                .help("durability engine state (0=disabled, 1=active, 2=degraded)")
                .read(Read::One(|r| match &r.persist {
                    None => Value::State("disabled", 0),
                    Some(p) => Value::State(p.state, if p.state == "degraded" { 2 } else { 1 }),
                })),
            counter("persist:errors", "camp_persist_errors_total")
                .help("append-log I/O errors (append, fsync, repair)")
                .read(Read::Persist(|p| p.errors)),
            counter("persist:bytes", "camp_persist_bytes_total")
                .help("bytes appended to the durability log")
                .read(Read::Persist(|p| p.bytes)),
            counter("persist:fsyncs", "camp_persist_fsyncs_total")
                .help("successful fsyncs of the active segment")
                .read(Read::Persist(|p| p.fsyncs)),
            counter("persist:records", "camp_persist_records_total")
                .help("records appended to the durability log")
                .read(Read::Persist(|p| p.records)),
            counter("persist:dropped", "camp_persist_dropped_total")
                .help("mutations not persisted while degraded")
                .read(Read::Persist(|p| p.dropped)),
            counter("persist:recovered", "camp_persist_recovered_total")
                .help("records replayed by boot-time recovery")
                .read(Read::Persist(|p| p.recovered)),
            counter("persist:quarantined", "camp_persist_quarantined_total")
                .help("corrupt records skipped by boot-time recovery")
                .read(Read::Persist(|p| p.quarantined)),
            counter("persist:torn_bytes", "camp_persist_torn_bytes_total")
                .help("torn-tail bytes found by boot-time recovery")
                .read(Read::Persist(|p| p.torn_bytes)),
            counter("persist:snapshots", "camp_persist_snapshots_total")
                .help("compaction snapshots taken, re-arms included")
                .read(Read::Persist(|p| p.snapshots)),
            counter("persist:trips", "camp_persist_trips_total")
                .help("active-to-degraded transitions of the durability engine")
                .read(Read::Persist(|p| p.trips)),
            counter("persist:rearms", "camp_persist_rearms_total")
                .help("degraded-to-active recoveries of the durability engine")
                .read(Read::Persist(|p| p.rearms)),
            gauge("persist:segments", "camp_persist_segments")
                .help("segment files currently in the durability log")
                .read(Read::Persist(|p| p.segments)),
        ],
    },
    Section {
        scope: StatsScope::Profile,
        layout: Layout::Rows,
        metrics: &[
            gauge("profile:sample_modulus", "camp_shadow_sample_modulus")
                .help("the shadow profiler's spatial sampling modulus (1-in-N keys)")
                .read(Read::Int(|r| r.shadow_sample_modulus)),
        ],
    },
    Section {
        scope: StatsScope::Profile,
        layout: Layout::ByLabel,
        metrics: &[
            gauge("profile:{}:capacity", "camp_shadow_capacity_bytes")
                .help("byte capacity of each shadow cache")
                .read(Read::Scale(|est| Value::Int(est.capacity))),
            counter("profile:{}:sampled_gets", "camp_shadow_sampled_gets_total")
                .help("lookups that fell in the shadow profiler's key sample")
                .read(Read::Scale(|est| Value::Int(est.sampled_gets))),
            counter("profile:{}:sampled_hits", "camp_shadow_sampled_hits_total")
                .help("sampled lookups that hit the shadow cache")
                .read(Read::Scale(|est| Value::Int(est.sampled_hits))),
            gauge("profile:{}:hit_ratio", "camp_shadow_hit_ratio")
                .help("estimated hit ratio at fractional capacities (sampled shadow caches)")
                .read(Read::Scale(|est| Value::Ratio(est.hit_ratio))),
            counter(
                "profile:{}:est_miss_cost",
                "camp_shadow_est_miss_cost_total",
            )
            .help("estimated cumulative miss cost at fractional capacities")
            .read(Read::Scale(|est| Value::Int(est.est_miss_cost))),
        ],
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use camp_policies::PolicyStats;

    fn histogram(values: &[u64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    fn shard_stats(base: u64) -> StoreStats {
        StoreStats {
            get_hits: base + 5,
            get_misses: base + 2,
            sets: base + 7,
            deletes: base + 1,
            evictions: base + 3,
            slab_evictions: base + 1,
            slab_reassignments: base,
            slab_reclaims: base + 2,
            expired: base + 4,
        }
    }

    /// Every surface populated: two shards (the second with a gauge the
    /// first lacks), two reactor workers, two populated slab classes and
    /// one empty one, two latency classes, two shadow scales, persistence
    /// on and the slow log armed.
    fn sample_report() -> TelemetryReport {
        let mut policy_stats = PolicyStats::default();
        policy_stats.push("l_value", 17);
        policy_stats.push("queue_count", 3);
        policy_stats.push("heap_visits", 44);
        policy_stats.push_labelled("queue_len", "ratio", "8", 2);
        let mut second_policy_stats = PolicyStats::default();
        second_policy_stats.push("l_value", 9);
        second_policy_stats.push("queue_count", 2);
        second_policy_stats.push("heap_visits", 10);
        second_policy_stats.push_labelled("queue_len", "ratio", "8", 1);
        second_policy_stats.push_labelled("queue_len", "ratio", "16", 1);
        second_policy_stats.push("ratio_multiplier", 4);
        let (first, second) = (shard_stats(0), shard_stats(10));
        let mut totals = first;
        totals.get_hits += second.get_hits;
        totals.get_misses += second.get_misses;
        totals.sets += second.sets;
        totals.deletes += second.deletes;
        totals.evictions += second.evictions;
        totals.slab_evictions += second.slab_evictions;
        totals.slab_reassignments += second.slab_reassignments;
        totals.slab_reclaims += second.slab_reclaims;
        totals.expired += second.expired;
        TelemetryReport {
            version: "test",
            policy: "camp(p=5)".to_owned(),
            shards: vec![
                ShardSnapshot {
                    stats: first,
                    items: 2,
                    used_bytes: 128,
                    policy: "camp(p=5)".to_owned(),
                    policy_stats,
                },
                ShardSnapshot {
                    stats: second,
                    items: 3,
                    used_bytes: 384,
                    policy: "camp(p=5)".to_owned(),
                    policy_stats: second_policy_stats,
                },
            ],
            totals,
            curr_items: 5,
            slab_census: vec![(120, 1, 2), (240, 0, 0), (480, 2, 3)],
            latencies: vec![
                ("get", histogram(&[10, 20, 3000])),
                ("set", histogram(&[40, 50])),
            ],
            bytes_read: vec![("get", 640), ("set", 1280)],
            connections_opened: 3,
            connections_closed: 1,
            protocol_errors: 2,
            conn_rejected: vec![
                ("max_conns", 4),
                ("idle_timeout", 1),
                ("value_too_large", 3),
            ],
            faults_injected: vec![("drop", 7), ("delay", 8), ("error", 9)],
            lock_poison_recovered: 1,
            iq_miss_registry_size: 5,
            iq_sweep_reclaimed: 2,
            shadow: vec![
                ShadowEstimate {
                    scale: (1, 2),
                    capacity: 512,
                    sampled_gets: 40,
                    sampled_hits: 30,
                    hit_ratio: 0.75,
                    est_miss_cost: 640,
                },
                ShadowEstimate {
                    scale: (2, 1),
                    capacity: 2048,
                    sampled_gets: 40,
                    sampled_hits: 36,
                    hit_ratio: 0.9,
                    est_miss_cost: 256,
                },
            ],
            shadow_sample_modulus: 64,
            spans_recorded: 11,
            slow_recorded: 2,
            slow_threshold_us: Some(500),
            trace_admits: 9,
            trace_evicts: 4,
            eviction_costs: histogram(&[8, 16]),
            l_values: histogram(&[3, 5, 7]),
            reactor_workers: vec![
                WorkerStatsSnapshot {
                    live_connections: 3,
                    epoll_wakeups: 100,
                    timer_fires: 6,
                    write_pauses: 1,
                    accepts: 12,
                    events_dispatched: 150,
                },
                WorkerStatsSnapshot {
                    live_connections: 1,
                    epoll_wakeups: 70,
                    timer_fires: 5,
                    write_pauses: 0,
                    accepts: 8,
                    events_dispatched: 90,
                },
            ],
            flush_segments: histogram(&[1, 4]),
            persist: Some(PersistSnapshot {
                state: "active",
                errors: 1,
                bytes: 4096,
                fsyncs: 12,
                records: 57,
                dropped: 2,
                recovered: 31,
                quarantined: 3,
                torn_bytes: 17,
                snapshots: 4,
                trips: 1,
                rearms: 1,
                segments: 2,
            }),
        }
    }

    /// The twin of [`sample_report`] on a server without `--data-dir` and
    /// without a slow-log threshold.
    fn sample_report_without_persist() -> TelemetryReport {
        TelemetryReport {
            persist: None,
            slow_threshold_us: None,
            ..sample_report()
        }
    }

    /// The two golden reports with the surfaces rendered from them when
    /// the renderers were first pinned: `(report, summary, detail,
    /// profile, prometheus)`.
    fn golden() -> [(TelemetryReport, [&'static str; 4]); 2] {
        [
            (
                sample_report(),
                [
                    include_str!("../testdata/metrics/full_summary.txt"),
                    include_str!("../testdata/metrics/full_detail.txt"),
                    include_str!("../testdata/metrics/full_profile.txt"),
                    include_str!("../testdata/metrics/full_prometheus.txt"),
                ],
            ),
            (
                sample_report_without_persist(),
                [
                    include_str!("../testdata/metrics/no_persist_summary.txt"),
                    include_str!("../testdata/metrics/no_persist_detail.txt"),
                    include_str!("../testdata/metrics/no_persist_profile.txt"),
                    include_str!("../testdata/metrics/no_persist_prometheus.txt"),
                ],
            ),
        ]
    }

    /// Families the golden Prometheus text lacks because their STAT rows
    /// had no Prometheus twin when it was pinned; the only lines a
    /// rendering may add.
    const ADDED_FAMILIES: [&str; 8] = [
        "camp_connections_closed_total",
        "camp_persist_recovered_total",
        "camp_persist_torn_bytes_total",
        "camp_persist_snapshots_total",
        "camp_persist_rearms_total",
        "camp_shadow_sample_modulus",
        "camp_shadow_capacity_bytes",
        "camp_shadow_sampled_hits_total",
    ];

    fn text(lines: &[String]) -> String {
        lines.iter().map(|line| format!("{line}\n")).collect()
    }

    /// Splits an exposition into `(family, lines)` blocks, asserting that
    /// every family opens with `# HELP` then `# TYPE`, that its samples
    /// follow contiguously, and that no family is declared twice.
    fn families(exposition: &str) -> Vec<(String, Vec<&str>)> {
        let mut blocks: Vec<(String, Vec<&str>)> = Vec::new();
        let mut lines = exposition.lines().peekable();
        while let Some(line) = lines.next() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap_or_default().to_owned();
                assert!(
                    blocks.iter().all(|(seen, _)| *seen != name),
                    "family {name} declared twice"
                );
                let kind = lines.next().unwrap_or_default();
                assert!(
                    kind.starts_with(&format!("# TYPE {name} ")),
                    "# HELP {name} not followed by its # TYPE: {kind}"
                );
                blocks.push((name, vec![line, kind]));
                continue;
            }
            let (name, block) = blocks
                .last_mut()
                .unwrap_or_else(|| panic!("sample before any family: {line}"));
            let sample = line.split(['{', ' ']).next().unwrap_or_default();
            let base = sample
                .strip_suffix("_sum")
                .or_else(|| sample.strip_suffix("_count"))
                .unwrap_or(sample);
            assert!(
                sample == name.as_str() || base == name.as_str(),
                "sample {line} outside its family's block (inside {name})"
            );
            block.push(line);
        }
        blocks
    }

    #[test]
    fn stat_surfaces_match_the_golden_fixture() {
        for (report, [summary, detail, profile, _]) in golden() {
            assert_eq!(text(&report.stat_lines(StatsScope::Summary)), summary);
            assert_eq!(text(&report.stat_lines(StatsScope::Detail)), detail);
            assert_eq!(text(&report.stat_lines(StatsScope::Profile)), profile);
        }
    }

    #[test]
    fn prometheus_keeps_every_golden_line() {
        for (report, [_, _, _, golden]) in golden() {
            let rendered = report.render_prometheus();
            let lines: std::collections::HashSet<&str> = rendered.lines().collect();
            for line in golden.lines() {
                assert!(lines.contains(line), "lost {line} in:\n{rendered}");
            }
            let golden_lines: std::collections::HashSet<&str> = golden.lines().collect();
            for (family, block) in families(&rendered) {
                if !ADDED_FAMILIES.contains(&family.as_str()) {
                    for line in block {
                        assert!(golden_lines.contains(line), "unexpected {line}");
                    }
                }
            }
        }
    }

    /// Rows with no Prometheus family of their own: the text rows, and the
    /// numeric rows that repeat a labelled sample (pinned by
    /// `stat_only_numbers_repeat_a_prometheus_sample`).
    const STAT_ONLY: [&str; 7] = [
        "policy",
        "shard:{}:policy",
        "trace:slow_threshold_us",
        "shards",
        "evictions",
        "slab_evictions",
        "expired",
    ];

    fn all_metrics() -> impl Iterator<Item = (&'static Section, &'static Metric)> {
        METRICS
            .iter()
            .flat_map(|section| section.metrics.iter().map(move |metric| (section, metric)))
    }

    #[test]
    fn every_numeric_row_has_a_prometheus_family() {
        let report = sample_report();
        let detail = report.stat_lines(StatsScope::Detail);
        let scrape = report.render_prometheus();
        // `families` also fails on any family declared twice.
        let declared: Vec<String> = families(&scrape).into_iter().map(|(f, _)| f).collect();
        for (section, metric) in all_metrics() {
            let Names {
                stat, family, help, ..
            } = metric.names;
            assert!(!help.is_empty(), "{stat} {family} has no help text");
            let series = metric.read.series(&report);
            let Some((label, value)) = series.first() else {
                panic!("the sample report leaves {stat} {family} empty");
            };
            let row = stat.replace("{}", label);
            let on_stat = detail.iter().any(|line| match (section.layout, value) {
                (Layout::Line(line_row), _) => {
                    let head = format!("STAT {} ", line_row.replace("{}", label));
                    line.starts_with(&head) && line.contains(&format!(" {stat}="))
                }
                (_, Value::Dist(_, parts)) => {
                    line.starts_with(&format!("STAT {row}{} ", parts[0].0))
                }
                _ => line.starts_with(&format!("STAT {row} ")),
            });
            let family = match metric.read {
                Read::PolicyGauges => {
                    family.replace("{}", label.split(':').nth(1).unwrap_or_default())
                }
                _ => family.replace("{}", label),
            };
            if family.is_empty() {
                assert!(
                    STAT_ONLY.contains(&stat),
                    "STAT {stat} has no Prometheus family"
                );
                assert!(on_stat, "STAT {row} missing from stats detail");
            } else if stat.is_empty() {
                assert_eq!(
                    family, "camp_build_info",
                    "only build info is Prometheus-only"
                );
            } else {
                assert!(on_stat, "STAT {row} missing from stats detail");
                assert!(
                    declared.contains(&family),
                    "{family} missing from the scrape"
                );
            }
        }
        let mut names: Vec<&str> = all_metrics()
            .map(|(_, m)| m.names.family)
            .filter(|f| !f.is_empty())
            .collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            count,
            "a family is declared twice in the table"
        );
    }

    #[test]
    fn stat_only_numbers_repeat_a_prometheus_sample() {
        let report = sample_report();
        let detail = report.stat_lines(StatsScope::Detail);
        let scrape = report.render_prometheus();
        let stat = |row: &str| {
            let prefix = format!("STAT {row} ");
            detail
                .iter()
                .find_map(|line| line.strip_prefix(&prefix).map(str::to_owned))
                .unwrap_or_else(|| panic!("no STAT {row}"))
        };
        for (row, cause) in [
            ("evictions", "capacity"),
            ("slab_evictions", "slab_reassign"),
            ("expired", "expired"),
        ] {
            let sample = format!("camp_evictions_total{{cause=\"{cause}\"}} {}", stat(row));
            assert!(scrape.lines().any(|line| line == sample), "{sample}");
        }
        let shards = format!("shards=\"{}\"", stat("shards"));
        assert!(
            scrape
                .lines()
                .any(|line| line.starts_with("camp_build_info{") && line.contains(&shards)),
            "{shards}"
        );
    }

    /// The metric reference in DESIGN.md §7, rendered from the table.
    fn reference() -> String {
        let report = sample_report();
        let mut out = String::from(
            "| STAT row | Prometheus family | type | listing | description |\n\
             |---|---|---|---|---|\n",
        );
        for (section, metric) in all_metrics() {
            let Names {
                stat,
                family,
                help,
                kind,
            } = metric.names;
            let label = metric.read.label();
            let (stat, family) = match metric.read {
                Read::PolicyGauges => (
                    stat.replace("{}", "<shard>:<gauge>[:<label>]"),
                    format!("{}{{shard,<label>}}", family.replace("{}", "<gauge>")),
                ),
                _ => {
                    let placeholder = format!("<{label}>");
                    let family = if family.is_empty() || family.contains("{}") || label.is_empty() {
                        family.replace("{}", &placeholder)
                    } else {
                        format!("{family}{{{label}}}")
                    };
                    (stat.replace("{}", &placeholder), family)
                }
            };
            let stat = match (section.layout, metric.read.series(&report).first()) {
                _ if stat.is_empty() => "—".to_owned(),
                (Layout::Line(row), _) => {
                    format!("`{} {stat}=`", row.replace("{}", &format!("<{label}>")))
                }
                (_, Some((_, Value::Dist(_, parts)))) => {
                    let suffixes: Vec<String> =
                        parts.iter().map(|(s, _)| format!("`{s}`")).collect();
                    format!("`{stat}` + {}", suffixes.join(" "))
                }
                _ => format!("`{stat}`"),
            };
            let (family, kind) = if family.is_empty() {
                ("—".to_owned(), "—")
            } else {
                let kind = match kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                    MetricKind::Summary => "summary",
                };
                (format!("`{family}`"), kind)
            };
            let listing = match section.scope {
                StatsScope::Summary => "`stats`",
                StatsScope::Profile => "`stats profile`",
                StatsScope::Detail | StatsScope::Reset => "`stats detail`",
            };
            out.push_str(&format!(
                "| {stat} | {family} | {kind} | {listing} | {help} |\n"
            ));
        }
        out
    }

    #[test]
    fn design_doc_carries_the_generated_metric_reference() {
        let reference = reference();
        let design = include_str!("../../../DESIGN.md");
        assert!(
            design.contains(&reference),
            "DESIGN.md §7 must carry this metric reference verbatim:\n{reference}"
        );
    }

    #[test]
    fn detail_lines_cover_every_surface() {
        let text = sample_report().stat_lines(StatsScope::Detail).join("\n");
        for needle in [
            "STAT latency:get:p50_us",
            "STAT latency:get:p99_us",
            "STAT policy:0:l_value 17",
            "STAT policy:0:queue_count 3",
            "STAT policy:0:heap_visits 44",
            "STAT policy:0:queue_len:8 2",
            "STAT evictions:capacity",
            "STAT evictions:slab_reassign",
            "STAT evictions:expired",
            "STAT iq_miss_registry_size 5",
            "STAT iq_sweep_reclaimed 2",
            "STAT shard:0 items=2",
            "STAT bytes_read:get 640",
            "STAT bytes_read:set 1280",
            "STAT conn_rejected:max_conns 4",
            "STAT conn_rejected:idle_timeout 1",
            "STAT conn_rejected:value_too_large 3",
            "STAT faults_injected:drop 7",
            "STAT lock_poison_recovered 1",
            "STAT reactor:worker0 live=3 wakeups=100 timer_fires=6 write_pauses=1 accepts=12 events=150",
            "STAT reactor:flush_segments:count 2",
            "STAT trace:spans_recorded 11",
            "STAT trace:slow_recorded 2",
            "STAT trace:slow_threshold_us 500",
            "STAT trace:admits 9",
            "STAT trace:evictions 4",
            "STAT persist:state active",
            "STAT persist:errors 1",
            "STAT persist:bytes 4096",
            "STAT persist:fsyncs 12",
            "STAT persist:recovered 31",
            "STAT persist:quarantined 3",
            "STAT persist:segments 2",
            "STAT profile:sample_modulus 64",
            "STAT profile:0.5x:hit_ratio 0.7500",
            "STAT profile:0.5x:est_miss_cost 640",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn profile_lines_stand_alone() {
        let text = sample_report().stat_lines(StatsScope::Profile).join("\n");
        assert!(text.contains("STAT profile:0.5x:capacity 512"), "{text}");
        assert!(text.contains("STAT profile:0.5x:sampled_gets 40"), "{text}");
        assert!(text.contains("STAT profile:0.5x:sampled_hits 30"), "{text}");
    }

    #[test]
    fn cmd_kind_codes_round_trip() {
        for kind in CmdKind::ALL {
            assert_eq!(CmdKind::from_code(kind.code()), kind);
        }
        assert_eq!(CmdKind::from_code(200), CmdKind::Other);
    }

    #[test]
    fn reactor_stats_snapshot_and_reset() {
        let stats = ReactorStats::new(2);
        stats
            .worker(0)
            .epoll_wakeups
            .fetch_add(5, Ordering::Relaxed);
        stats.worker(1).live_connections.store(2, Ordering::Relaxed);
        stats.worker(1).write_pauses.fetch_add(1, Ordering::Relaxed);
        stats.worker(0).accepts.fetch_add(3, Ordering::Relaxed);
        stats
            .worker(0)
            .events_dispatched
            .fetch_add(9, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].epoll_wakeups, 5);
        assert_eq!(snap[0].accepts, 3);
        assert_eq!(snap[0].events_dispatched, 9);
        assert_eq!(snap[1].live_connections, 2);
        assert_eq!(snap[1].write_pauses, 1);
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(snap[0].epoll_wakeups, 0);
        assert_eq!(snap[0].accepts, 0);
        assert_eq!(snap[0].events_dispatched, 0);
        assert_eq!(snap[1].write_pauses, 0);
        // Gauges survive a reset.
        assert_eq!(snap[1].live_connections, 2);
    }

    #[test]
    fn recorder_sink_forwards_policy_events() {
        let recorder = Arc::new(FlightRecorder::new(1, None));
        let sink = RecorderSink::new(recorder.clone());
        sink.record(&PolicyEvent::basic(PolicyEventKind::Admit, 1, 10, 2));
        sink.record(&PolicyEvent {
            kind: PolicyEventKind::Evict,
            key_hash: 2,
            size: 20,
            cost: 5,
            ratio: 1,
            queue: 0,
            l_value: 3,
        });
        assert_eq!(recorder.admits_recorded(), 1);
        assert_eq!(recorder.evicts_recorded(), 1);
        assert_eq!(recorder.eviction_cost_snapshot().count, 1);
    }

    #[test]
    fn prometheus_rendering_names_every_family() {
        let text = sample_report().render_prometheus();
        for needle in [
            "# TYPE camp_get_latency_us summary",
            "camp_get_latency_us{quantile=\"0.5\"}",
            "camp_get_latency_us_count 3",
            "camp_policy_l_value{shard=\"0\"} 17",
            "camp_policy_heap_visits{shard=\"0\"} 44",
            "camp_policy_queue_len{shard=\"0\",ratio=\"8\"} 2",
            "camp_evictions_total{cause=\"capacity\"}",
            "camp_iq_miss_registry_size 5",
            "camp_build_info{version=\"test\",policy=\"camp(p=5)\",shards=\"2\"} 1",
            "camp_slab_class_items{chunk_size=\"120\"} 2",
            "camp_bytes_read_total{cmd=\"get\"} 640",
            "camp_bytes_read_total{cmd=\"set\"} 1280",
            "camp_conn_rejected_total{cause=\"max_conns\"} 4",
            "camp_conn_rejected_total{cause=\"value_too_large\"} 3",
            "camp_faults_injected_total{kind=\"drop\"} 7",
            "camp_lock_poison_recovered_total 1",
            "camp_shadow_hit_ratio{scale=\"0.5x\"} 0.75",
            "camp_shadow_est_miss_cost_total{scale=\"0.5x\"} 640",
            "camp_shadow_sampled_gets_total{scale=\"0.5x\"} 40",
            "# TYPE camp_eviction_cost summary",
            "camp_eviction_cost_count 2",
            "# TYPE camp_l_value summary",
            "camp_trace_spans_total 11",
            "camp_trace_slow_total 2",
            "camp_trace_admits_total 9",
            "camp_trace_evictions_total 4",
            "camp_reactor_live_connections{worker=\"0\"} 3",
            "camp_reactor_epoll_wakeups_total{worker=\"0\"} 100",
            "camp_reactor_timer_fires_total{worker=\"0\"} 6",
            "camp_reactor_write_pauses_total{worker=\"0\"} 1",
            "camp_reactor_accepts_total{worker=\"0\"} 12",
            "camp_reactor_events_dispatched_total{worker=\"0\"} 150",
            "# TYPE camp_reactor_flush_writev_segments summary",
            "camp_reactor_flush_writev_segments_count 2",
            "camp_persist_state 1",
            "camp_persist_errors_total 1",
            "camp_persist_bytes_total 4096",
            "camp_persist_fsyncs_total 12",
            "camp_persist_records_total 57",
            "camp_persist_dropped_total 2",
            "camp_persist_quarantined_total 3",
            "camp_persist_segments 2",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn metrics_record_and_reset() {
        let metrics = ServerMetrics::new();
        metrics.record_latency(CmdKind::Get, 100);
        metrics.record_latency(CmdKind::Set, 200);
        metrics.record_bytes(CmdKind::Get, 10);
        metrics.record_bytes(CmdKind::Get, 15);
        metrics.connections_opened.fetch_add(1, Ordering::Relaxed);
        metrics.record_rejected(RejectCause::MaxConns);
        metrics.record_rejected(RejectCause::MaxConns);
        metrics.record_rejected(RejectCause::ValueTooLarge);
        metrics.record_fault(FaultKind::Drop);
        assert_eq!(metrics.rejected(RejectCause::MaxConns), 2);
        assert_eq!(metrics.rejected(RejectCause::IdleTimeout), 0);
        assert_eq!(
            metrics.rejected_snapshot(),
            vec![
                ("max_conns", 2),
                ("idle_timeout", 0),
                ("value_too_large", 1)
            ]
        );
        assert_eq!(
            metrics.faults_snapshot(),
            vec![("drop", 1), ("delay", 0), ("error", 0)]
        );
        assert_eq!(metrics.total_requests(), 2);
        assert_eq!(metrics.latency(CmdKind::Get).count(), 1);
        assert_eq!(metrics.latency(CmdKind::Set).count(), 1);
        assert_eq!(metrics.latency(CmdKind::Delete).count(), 0);
        assert_eq!(metrics.bytes_read(CmdKind::Get), 25);
        assert_eq!(metrics.bytes_read(CmdKind::Set), 0);
        let bytes = metrics.bytes_read_snapshot();
        assert_eq!(bytes.len(), 6);
        assert_eq!(bytes[0], ("get", 25));
        metrics.reset();
        assert_eq!(metrics.latency(CmdKind::Get).count(), 0);
        assert_eq!(metrics.bytes_read(CmdKind::Get), 0);
        assert_eq!(metrics.rejected(RejectCause::MaxConns), 0);
        assert_eq!(metrics.faults_snapshot()[0], ("drop", 0));
        assert_eq!(metrics.connections_opened.load(Ordering::Relaxed), 0);
        let snaps = metrics.latency_snapshots();
        assert_eq!(snaps.len(), 6);
        assert_eq!(snaps[0].0, "get");
    }
}
