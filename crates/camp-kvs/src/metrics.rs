//! The server's telemetry surface: per-command latency histograms and the
//! snapshot/rendering layer behind `stats`, `stats detail`, and the
//! `--metrics-addr` Prometheus exposition.
//!
//! Recording sits on the per-request hot path, so [`ServerMetrics`] is
//! atomics all the way down: each command's latency goes into a lock-free
//! [`Histogram`] and the connection counters are plain `AtomicU64`s — no
//! mutex is taken that the seed server did not already take. Reading is the
//! cold path: [`TelemetryReport`] gathers a point-in-time copy of
//! everything (store counters, per-shard rows, policy internals, IQ
//! registry gauges) and renders it as either memcached `STAT` lines or
//! Prometheus text, so both protocols speak one vocabulary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use camp_policies::{PolicyEvent, PolicyEventKind, ShadowEstimate, TraceSink};
use camp_telemetry::{
    EvictionTrace, Exposition, FlightRecorder, Histogram, HistogramSnapshot, MetricKind,
};

use crate::persist::PersistSnapshot;
use crate::shard::ShardSnapshot;
use crate::store::StoreStats;

/// The command classes that get their own latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// `get`/`gets`.
    Get,
    /// `iqget`.
    IqGet,
    /// `set`/`add`/`replace`.
    Set,
    /// `iqset`.
    IqSet,
    /// `delete`.
    Delete,
    /// Everything else (`incr`, `touch`, `flush_all`, `stats`, ...).
    Other,
}

impl CmdKind {
    /// Every kind, in display order.
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
        CmdKind::ALL.iter().position(|&k| k == self).unwrap_or(5) as u8
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCause {
    /// Accept-time rejection: the `max_conns` cap was reached.
    MaxConns,
    /// A connection idle (or trickling without completing a command —
    /// slowloris) past the idle timeout was evicted.
    IdleTimeout,
    /// A storage command declared a data block over `max_value_len`.
    ValueTooLarge,
}

impl RejectCause {
    /// Every cause, in display order.
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
/// `camp_faults_injected_total{kind=...}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Pre-response connection drop.
    Drop,
    /// Injected response delay.
    Delay,
    /// Forced `SERVER_ERROR injected fault` reply.
    Error,
}

impl FaultKind {
    /// Every kind, in display order.
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
    latency: [Histogram; 6],
    /// Wire bytes consumed per command class (command line plus any data
    /// block, terminators included).
    bytes_read: [AtomicU64; 6],
    /// Connections refused or severed, by cause ([`RejectCause::ALL`]
    /// order).
    rejected: [AtomicU64; 3],
    /// Faults injected by the active chaos plan ([`FaultKind::ALL`]
    /// order).
    faults: [AtomicU64; 3],
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

    fn index(kind: CmdKind) -> usize {
        CmdKind::ALL.iter().position(|&k| k == kind).unwrap_or(5)
    }

    /// Records one command's handling latency in microseconds. Wait-free.
    pub fn record_latency(&self, kind: CmdKind, micros: u64) {
        self.latency[Self::index(kind)].record(micros);
    }

    /// The histogram backing `kind` (snapshots, merges, tests).
    #[must_use]
    pub fn latency(&self, kind: CmdKind) -> &Histogram {
        &self.latency[Self::index(kind)]
    }

    /// Adds wire bytes consumed by one command of class `kind`. Wait-free.
    pub fn record_bytes(&self, kind: CmdKind, bytes: u64) {
        // ordering: Relaxed — statistics counter.
        self.bytes_read[Self::index(kind)].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Wire bytes consumed so far by commands of class `kind`.
    #[must_use]
    pub fn bytes_read(&self, kind: CmdKind) -> u64 {
        // ordering: Relaxed — statistics counter.
        self.bytes_read[Self::index(kind)].load(Ordering::Relaxed)
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
        let index = RejectCause::ALL
            .iter()
            .position(|&c| c == cause)
            .unwrap_or(0);
        // ordering: Relaxed — statistics counter.
        self.rejected[index].fetch_add(1, Ordering::Relaxed);
    }

    /// Connections refused or severed for `cause` so far.
    #[must_use]
    pub fn rejected(&self, cause: RejectCause) -> u64 {
        let index = RejectCause::ALL
            .iter()
            .position(|&c| c == cause)
            .unwrap_or(0);
        // ordering: Relaxed — statistics counter.
        self.rejected[index].load(Ordering::Relaxed)
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
        let index = FaultKind::ALL.iter().position(|&k| k == kind).unwrap_or(0);
        // ordering: Relaxed — statistics counter.
        self.faults[index].fetch_add(1, Ordering::Relaxed);
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

    /// The `stats` summary table (the seed's surface plus the per-shard
    /// breakdown and eviction causes).
    #[must_use]
    pub fn summary_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!("STAT policy {}", self.policy));
        lines.push(format!("STAT shards {}", self.shards.len()));
        for (i, shard) in self.shards.iter().enumerate() {
            lines.push(format!("STAT shard:{i}:policy {}", shard.policy));
        }
        lines.push(format!("STAT curr_items {}", self.curr_items));
        lines.push(format!("STAT bytes {}", self.used_bytes()));
        let t = &self.totals;
        lines.push(format!("STAT get_hits {}", t.get_hits));
        lines.push(format!("STAT get_misses {}", t.get_misses));
        lines.push(format!("STAT cmd_set {}", t.sets));
        lines.push(format!("STAT evictions {}", t.evictions));
        lines.push(format!("STAT slab_evictions {}", t.slab_evictions));
        lines.push(format!("STAT slab_reassignments {}", t.slab_reassignments));
        lines.push(format!("STAT slab_reclaims {}", t.slab_reclaims));
        lines.push(format!("STAT expired {}", t.expired));
        for (i, shard) in self.shards.iter().enumerate() {
            let s = &shard.stats;
            lines.push(format!(
                "STAT shard:{i} items={} bytes={} hits={} misses={} evictions={}",
                shard.items,
                shard.used_bytes,
                s.get_hits,
                s.get_misses,
                s.evictions + s.slab_evictions,
            ));
        }
        for &(chunk_size, slabs, items) in &self.slab_census {
            if slabs > 0 {
                lines.push(format!(
                    "STAT slab_class:{chunk_size} slabs={slabs} items={items}"
                ));
            }
        }
        lines
    }

    /// The `stats detail` table: the summary plus latency quantiles per
    /// command, eviction causes, per-shard policy internals, connection
    /// counters, and the IQ registry gauges.
    #[must_use]
    pub fn detail_lines(&self) -> Vec<String> {
        let mut lines = self.summary_lines();
        lines.push(format!("STAT deletes {}", self.totals.deletes));
        lines.push(format!("STAT evictions:capacity {}", self.totals.evictions));
        lines.push(format!(
            "STAT evictions:slab_reassign {}",
            self.totals.slab_evictions
        ));
        lines.push(format!("STAT evictions:expired {}", self.totals.expired));
        for (command, snap) in &self.latencies {
            lines.push(format!("STAT latency:{command}:count {}", snap.count));
            lines.push(format!(
                "STAT latency:{command}:p50_us {}",
                snap.quantile(0.5)
            ));
            lines.push(format!(
                "STAT latency:{command}:p90_us {}",
                snap.quantile(0.9)
            ));
            lines.push(format!(
                "STAT latency:{command}:p99_us {}",
                snap.quantile(0.99)
            ));
            lines.push(format!(
                "STAT latency:{command}:p999_us {}",
                snap.quantile(0.999)
            ));
            lines.push(format!("STAT latency:{command}:max_us {}", snap.max));
        }
        for (command, bytes) in &self.bytes_read {
            lines.push(format!("STAT bytes_read:{command} {bytes}"));
        }
        for (i, shard) in self.shards.iter().enumerate() {
            for gauge in &shard.policy_stats.gauges {
                match &gauge.label {
                    Some((_, label_value)) => lines.push(format!(
                        "STAT policy:{i}:{}:{label_value} {}",
                        gauge.name, gauge.value
                    )),
                    None => {
                        lines.push(format!("STAT policy:{i}:{} {}", gauge.name, gauge.value));
                    }
                }
            }
        }
        lines.push(format!(
            "STAT connections_opened {}",
            self.connections_opened
        ));
        lines.push(format!(
            "STAT connections_closed {}",
            self.connections_closed
        ));
        lines.push(format!("STAT protocol_errors {}", self.protocol_errors));
        for (cause, count) in &self.conn_rejected {
            lines.push(format!("STAT conn_rejected:{cause} {count}"));
        }
        for (kind, count) in &self.faults_injected {
            lines.push(format!("STAT faults_injected:{kind} {count}"));
        }
        lines.push(format!(
            "STAT lock_poison_recovered {}",
            self.lock_poison_recovered
        ));
        lines.push(format!(
            "STAT iq_miss_registry_size {}",
            self.iq_miss_registry_size
        ));
        lines.push(format!(
            "STAT iq_sweep_reclaimed {}",
            self.iq_sweep_reclaimed
        ));
        for (i, w) in self.reactor_workers.iter().enumerate() {
            lines.push(format!(
                "STAT reactor:worker{i} live={} wakeups={} timer_fires={} write_pauses={} \
                 accepts={} events={}",
                w.live_connections,
                w.epoll_wakeups,
                w.timer_fires,
                w.write_pauses,
                w.accepts,
                w.events_dispatched,
            ));
        }
        lines.push(format!(
            "STAT reactor:flush_segments:count {}",
            self.flush_segments.count
        ));
        lines.push(format!(
            "STAT reactor:flush_segments:p50 {}",
            self.flush_segments.quantile(0.5)
        ));
        lines.push(format!(
            "STAT reactor:flush_segments:max {}",
            self.flush_segments.max
        ));
        lines.push(format!("STAT trace:spans_recorded {}", self.spans_recorded));
        lines.push(format!("STAT trace:slow_recorded {}", self.slow_recorded));
        lines.push(format!(
            "STAT trace:slow_threshold_us {}",
            self.slow_threshold_us
                .map_or_else(|| "disabled".to_owned(), |us| us.to_string())
        ));
        lines.push(format!("STAT trace:admits {}", self.trace_admits));
        lines.push(format!("STAT trace:evictions {}", self.trace_evicts));
        lines.push(format!(
            "STAT trace:eviction_cost_p50 {}",
            self.eviction_costs.quantile(0.5)
        ));
        lines.push(format!(
            "STAT trace:l_value_p50 {}",
            self.l_values.quantile(0.5)
        ));
        match &self.persist {
            None => lines.push("STAT persist:state disabled".to_owned()),
            Some(p) => {
                lines.push(format!("STAT persist:state {}", p.state));
                lines.push(format!("STAT persist:errors {}", p.errors));
                lines.push(format!("STAT persist:bytes {}", p.bytes));
                lines.push(format!("STAT persist:fsyncs {}", p.fsyncs));
                lines.push(format!("STAT persist:records {}", p.records));
                lines.push(format!("STAT persist:dropped {}", p.dropped));
                lines.push(format!("STAT persist:recovered {}", p.recovered));
                lines.push(format!("STAT persist:quarantined {}", p.quarantined));
                lines.push(format!("STAT persist:torn_bytes {}", p.torn_bytes));
                lines.push(format!("STAT persist:snapshots {}", p.snapshots));
                lines.push(format!("STAT persist:trips {}", p.trips));
                lines.push(format!("STAT persist:rearms {}", p.rearms));
                lines.push(format!("STAT persist:segments {}", p.segments));
            }
        }
        lines.extend(self.profile_lines());
        lines
    }

    /// The `stats profile` table: the online shadow profiler's hit-ratio
    /// and cost-miss estimates at fractional capacities.
    #[must_use]
    pub fn profile_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!(
            "STAT profile:sample_modulus {}",
            self.shadow_sample_modulus
        ));
        for est in &self.shadow {
            let scale = est.scale_label();
            lines.push(format!("STAT profile:{scale}:capacity {}", est.capacity));
            lines.push(format!(
                "STAT profile:{scale}:sampled_gets {}",
                est.sampled_gets
            ));
            lines.push(format!(
                "STAT profile:{scale}:sampled_hits {}",
                est.sampled_hits
            ));
            lines.push(format!(
                "STAT profile:{scale}:hit_ratio {:.4}",
                est.hit_ratio
            ));
            lines.push(format!(
                "STAT profile:{scale}:est_miss_cost {}",
                est.est_miss_cost
            ));
        }
        lines
    }

    /// The Prometheus text exposition served on `--metrics-addr`. Every
    /// family is emitted even at zero so scrapers and the CI smoke test see
    /// a stable schema from the first scrape.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut exp = Exposition::new();
        exp.family(
            "camp_build_info",
            "server version and configuration (constant 1)",
            MetricKind::Gauge,
        );
        let shard_count = self.shards.len().to_string();
        exp.int_value(
            "camp_build_info",
            &[
                ("version", self.version),
                ("policy", &self.policy),
                ("shards", &shard_count),
            ],
            1,
        );

        for (command, snap) in &self.latencies {
            let family = format!("camp_{command}_latency_us");
            exp.family(
                &family,
                "command handling latency in microseconds",
                MetricKind::Summary,
            );
            exp.summary(&family, &[], snap);
        }

        exp.family(
            "camp_bytes_read_total",
            "wire bytes consumed per command class",
            MetricKind::Counter,
        );
        for (command, bytes) in &self.bytes_read {
            exp.int_value("camp_bytes_read_total", &[("cmd", command)], *bytes);
        }

        let t = &self.totals;
        let counters: [(&str, &str, u64); 8] = [
            ("camp_get_hits_total", "get/iqget hits", t.get_hits),
            ("camp_get_misses_total", "get/iqget misses", t.get_misses),
            ("camp_cmd_set_total", "successful stores", t.sets),
            ("camp_deletes_total", "successful deletes", t.deletes),
            (
                "camp_slab_reassignments_total",
                "random slab evictions forced by calcification",
                t.slab_reassignments,
            ),
            (
                "camp_slab_reclaims_total",
                "slabs reclaimed after emptying naturally",
                t.slab_reclaims,
            ),
            (
                "camp_connections_opened_total",
                "connections accepted",
                self.connections_opened,
            ),
            (
                "camp_protocol_errors_total",
                "lines rejected with CLIENT_ERROR",
                self.protocol_errors,
            ),
        ];
        for (name, help, value) in counters {
            exp.family(name, help, MetricKind::Counter);
            exp.int_value(name, &[], value);
        }

        exp.family(
            "camp_conn_rejected_total",
            "connections refused or severed, by cause",
            MetricKind::Counter,
        );
        for (cause, count) in &self.conn_rejected {
            exp.int_value("camp_conn_rejected_total", &[("cause", cause)], *count);
        }
        exp.family(
            "camp_faults_injected_total",
            "chaos faults injected, by kind",
            MetricKind::Counter,
        );
        for (kind, count) in &self.faults_injected {
            exp.int_value("camp_faults_injected_total", &[("kind", kind)], *count);
        }
        exp.family(
            "camp_lock_poison_recovered_total",
            "poisoned mutexes recovered after a panicking holder",
            MetricKind::Counter,
        );
        exp.int_value(
            "camp_lock_poison_recovered_total",
            &[],
            self.lock_poison_recovered,
        );

        exp.family(
            "camp_evictions_total",
            "items dropped, by cause",
            MetricKind::Counter,
        );
        exp.int_value(
            "camp_evictions_total",
            &[("cause", "capacity")],
            t.evictions,
        );
        exp.int_value(
            "camp_evictions_total",
            &[("cause", "slab_reassign")],
            t.slab_evictions,
        );
        exp.int_value("camp_evictions_total", &[("cause", "expired")], t.expired);

        exp.family("camp_items", "live items", MetricKind::Gauge);
        exp.int_value("camp_items", &[], self.curr_items as u64);
        exp.family(
            "camp_used_bytes",
            "logical bytes resident",
            MetricKind::Gauge,
        );
        exp.int_value("camp_used_bytes", &[], self.used_bytes());

        exp.family(
            "camp_shard_items",
            "live items per shard",
            MetricKind::Gauge,
        );
        for (i, shard) in self.shards.iter().enumerate() {
            exp.int_value(
                "camp_shard_items",
                &[("shard", &i.to_string())],
                shard.items as u64,
            );
        }
        exp.family(
            "camp_shard_used_bytes",
            "logical bytes resident per shard",
            MetricKind::Gauge,
        );
        for (i, shard) in self.shards.iter().enumerate() {
            exp.int_value(
                "camp_shard_used_bytes",
                &[("shard", &i.to_string())],
                shard.used_bytes,
            );
        }
        exp.family(
            "camp_shard_hits_total",
            "get/iqget hits per shard",
            MetricKind::Counter,
        );
        for (i, shard) in self.shards.iter().enumerate() {
            exp.int_value(
                "camp_shard_hits_total",
                &[("shard", &i.to_string())],
                shard.stats.get_hits,
            );
        }
        exp.family(
            "camp_shard_misses_total",
            "get/iqget misses per shard",
            MetricKind::Counter,
        );
        for (i, shard) in self.shards.iter().enumerate() {
            exp.int_value(
                "camp_shard_misses_total",
                &[("shard", &i.to_string())],
                shard.stats.get_misses,
            );
        }
        exp.family(
            "camp_shard_evictions_total",
            "evictions per shard (all causes)",
            MetricKind::Counter,
        );
        for (i, shard) in self.shards.iter().enumerate() {
            exp.int_value(
                "camp_shard_evictions_total",
                &[("shard", &i.to_string())],
                shard.stats.evictions + shard.stats.slab_evictions,
            );
        }

        // Policy-internal gauges: one family per distinct gauge name, in
        // first-seen order, sampled per shard (plus any sub-dimension label
        // the gauge carries, e.g. CAMP's per-queue lengths by ratio).
        let mut names: Vec<&'static str> = Vec::new();
        for shard in &self.shards {
            for gauge in &shard.policy_stats.gauges {
                if !names.contains(&gauge.name) {
                    names.push(gauge.name);
                }
            }
        }
        for name in names {
            let family = format!("camp_policy_{name}");
            exp.family(&family, "policy-internal gauge", MetricKind::Gauge);
            for (i, shard) in self.shards.iter().enumerate() {
                let shard_label = i.to_string();
                for gauge in shard.policy_stats.gauges.iter().filter(|g| g.name == name) {
                    match &gauge.label {
                        Some((key, value)) => exp.int_value(
                            &family,
                            &[("shard", &shard_label), (key, value)],
                            gauge.value,
                        ),
                        None => {
                            exp.int_value(&family, &[("shard", &shard_label)], gauge.value);
                        }
                    }
                }
            }
        }

        exp.family(
            "camp_iq_miss_registry_size",
            "unmatched iqget misses currently registered",
            MetricKind::Gauge,
        );
        exp.int_value(
            "camp_iq_miss_registry_size",
            &[],
            self.iq_miss_registry_size,
        );
        exp.family(
            "camp_iq_sweep_reclaimed_total",
            "iq miss-registry entries dropped by the TTL sweep",
            MetricKind::Counter,
        );
        exp.int_value(
            "camp_iq_sweep_reclaimed_total",
            &[],
            self.iq_sweep_reclaimed,
        );

        exp.family(
            "camp_slab_class_slabs",
            "slabs assigned per chunk-size class",
            MetricKind::Gauge,
        );
        for &(chunk_size, slabs, _) in &self.slab_census {
            exp.int_value(
                "camp_slab_class_slabs",
                &[("chunk_size", &chunk_size.to_string())],
                slabs as u64,
            );
        }
        exp.family(
            "camp_slab_class_items",
            "items resident per chunk-size class",
            MetricKind::Gauge,
        );
        for &(chunk_size, _, items) in &self.slab_census {
            exp.int_value(
                "camp_slab_class_items",
                &[("chunk_size", &chunk_size.to_string())],
                items,
            );
        }

        exp.family(
            "camp_shadow_hit_ratio",
            "estimated hit ratio at fractional capacities (sampled shadow caches)",
            MetricKind::Gauge,
        );
        for est in &self.shadow {
            let scale = est.scale_label();
            exp.value("camp_shadow_hit_ratio", &[("scale", &scale)], est.hit_ratio);
        }
        exp.family(
            "camp_shadow_est_miss_cost_total",
            "estimated cumulative miss cost at fractional capacities",
            MetricKind::Counter,
        );
        for est in &self.shadow {
            let scale = est.scale_label();
            exp.int_value(
                "camp_shadow_est_miss_cost_total",
                &[("scale", &scale)],
                est.est_miss_cost,
            );
        }
        exp.family(
            "camp_shadow_sampled_gets_total",
            "lookups that fell in the shadow profiler's key sample",
            MetricKind::Counter,
        );
        for est in &self.shadow {
            let scale = est.scale_label();
            exp.int_value(
                "camp_shadow_sampled_gets_total",
                &[("scale", &scale)],
                est.sampled_gets,
            );
        }

        exp.family(
            "camp_eviction_cost",
            "miss cost of traced eviction victims",
            MetricKind::Summary,
        );
        exp.summary("camp_eviction_cost", &[], &self.eviction_costs);
        exp.family(
            "camp_l_value",
            "CAMP L term sampled at eviction decisions",
            MetricKind::Summary,
        );
        exp.summary("camp_l_value", &[], &self.l_values);

        let trace_counters: [(&str, &str, u64); 4] = [
            (
                "camp_trace_spans_total",
                "request spans recorded by the flight recorder",
                self.spans_recorded,
            ),
            (
                "camp_trace_slow_total",
                "spans promoted to the slow-request log",
                self.slow_recorded,
            ),
            (
                "camp_trace_admits_total",
                "policy admissions traced",
                self.trace_admits,
            ),
            (
                "camp_trace_evictions_total",
                "policy evictions traced",
                self.trace_evicts,
            ),
        ];
        for (name, help, value) in trace_counters {
            exp.family(name, help, MetricKind::Counter);
            exp.int_value(name, &[], value);
        }

        exp.family(
            "camp_reactor_live_connections",
            "connections currently owned per reactor worker",
            MetricKind::Gauge,
        );
        for (i, w) in self.reactor_workers.iter().enumerate() {
            exp.int_value(
                "camp_reactor_live_connections",
                &[("worker", &i.to_string())],
                w.live_connections,
            );
        }
        exp.family(
            "camp_reactor_epoll_wakeups_total",
            "epoll_wait returns that delivered events, per worker",
            MetricKind::Counter,
        );
        for (i, w) in self.reactor_workers.iter().enumerate() {
            exp.int_value(
                "camp_reactor_epoll_wakeups_total",
                &[("worker", &i.to_string())],
                w.epoll_wakeups,
            );
        }
        exp.family(
            "camp_reactor_timer_fires_total",
            "timer-wheel timers fired, per worker",
            MetricKind::Counter,
        );
        for (i, w) in self.reactor_workers.iter().enumerate() {
            exp.int_value(
                "camp_reactor_timer_fires_total",
                &[("worker", &i.to_string())],
                w.timer_fires,
            );
        }
        exp.family(
            "camp_reactor_write_pauses_total",
            "reads paused by output backpressure, per worker",
            MetricKind::Counter,
        );
        for (i, w) in self.reactor_workers.iter().enumerate() {
            exp.int_value(
                "camp_reactor_write_pauses_total",
                &[("worker", &i.to_string())],
                w.write_pauses,
            );
        }
        exp.family(
            "camp_reactor_accepts_total",
            "sockets accepted by each worker's own SO_REUSEPORT listener",
            MetricKind::Counter,
        );
        for (i, w) in self.reactor_workers.iter().enumerate() {
            exp.int_value(
                "camp_reactor_accepts_total",
                &[("worker", &i.to_string())],
                w.accepts,
            );
        }
        exp.family(
            "camp_reactor_events_dispatched_total",
            "connection events drained into the batched run queue, per worker",
            MetricKind::Counter,
        );
        for (i, w) in self.reactor_workers.iter().enumerate() {
            exp.int_value(
                "camp_reactor_events_dispatched_total",
                &[("worker", &i.to_string())],
                w.events_dispatched,
            );
        }
        exp.family(
            "camp_reactor_flush_writev_segments",
            "segments batched per scatter-gather (writev) flush call",
            MetricKind::Summary,
        );
        exp.summary(
            "camp_reactor_flush_writev_segments",
            &[],
            &self.flush_segments,
        );

        // Durability families are emitted even with persistence disabled so
        // the schema is stable; `camp_persist_state` disambiguates.
        exp.family(
            "camp_persist_state",
            "durability engine state (0=disabled, 1=active, 2=degraded)",
            MetricKind::Gauge,
        );
        let state_code = match self.persist.as_ref().map(|p| p.state) {
            None => 0,
            Some("degraded") => 2,
            Some(_) => 1,
        };
        exp.int_value("camp_persist_state", &[], state_code);
        let p = self.persist.clone().unwrap_or_default();
        let persist_counters: [(&str, &str, u64); 7] = [
            (
                "camp_persist_errors_total",
                "append-log I/O errors (append, fsync, repair)",
                p.errors,
            ),
            (
                "camp_persist_bytes_total",
                "bytes appended to the durability log",
                p.bytes,
            ),
            (
                "camp_persist_fsyncs_total",
                "successful fsyncs of the active segment",
                p.fsyncs,
            ),
            (
                "camp_persist_records_total",
                "records appended to the durability log",
                p.records,
            ),
            (
                "camp_persist_dropped_total",
                "mutations not persisted while degraded",
                p.dropped,
            ),
            (
                "camp_persist_quarantined_total",
                "corrupt records skipped by boot-time recovery",
                p.quarantined,
            ),
            (
                "camp_persist_trips_total",
                "active-to-degraded transitions of the durability engine",
                p.trips,
            ),
        ];
        for (name, help, value) in persist_counters {
            exp.family(name, help, MetricKind::Counter);
            exp.int_value(name, &[], value);
        }
        exp.family(
            "camp_persist_segments",
            "segment files currently in the durability log",
            MetricKind::Gauge,
        );
        exp.int_value("camp_persist_segments", &[], p.segments);
        exp.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_policies::PolicyStats;

    fn sample_report() -> TelemetryReport {
        let histogram = Histogram::new();
        for v in [10u64, 20, 3000] {
            histogram.record(v);
        }
        let mut policy_stats = PolicyStats::default();
        policy_stats.push("l_value", 17);
        policy_stats.push("queue_count", 3);
        policy_stats.push("heap_visits", 44);
        policy_stats.push_labelled("queue_len", "ratio", "8", 2);
        TelemetryReport {
            version: "test",
            policy: "camp(p=5)".to_owned(),
            shards: vec![ShardSnapshot {
                stats: StoreStats::default(),
                items: 2,
                used_bytes: 128,
                policy: "camp(p=5)".to_owned(),
                policy_stats,
            }],
            totals: StoreStats::default(),
            curr_items: 2,
            slab_census: vec![(120, 1, 2)],
            latencies: vec![("get", histogram.snapshot())],
            bytes_read: vec![("get", 640), ("set", 1280)],
            connections_opened: 1,
            connections_closed: 0,
            protocol_errors: 0,
            conn_rejected: vec![
                ("max_conns", 4),
                ("idle_timeout", 1),
                ("value_too_large", 3),
            ],
            faults_injected: vec![("drop", 7), ("delay", 8), ("error", 9)],
            lock_poison_recovered: 1,
            iq_miss_registry_size: 5,
            iq_sweep_reclaimed: 2,
            shadow: vec![ShadowEstimate {
                scale: (1, 2),
                capacity: 512,
                sampled_gets: 40,
                sampled_hits: 30,
                hit_ratio: 0.75,
                est_miss_cost: 640,
            }],
            shadow_sample_modulus: 64,
            spans_recorded: 11,
            slow_recorded: 2,
            slow_threshold_us: Some(500),
            trace_admits: 9,
            trace_evicts: 4,
            eviction_costs: {
                let h = Histogram::new();
                h.record(8);
                h.record(16);
                h.snapshot()
            },
            l_values: Histogram::new().snapshot(),
            reactor_workers: vec![WorkerStatsSnapshot {
                live_connections: 3,
                epoll_wakeups: 100,
                timer_fires: 6,
                write_pauses: 1,
                accepts: 12,
                events_dispatched: 150,
            }],
            flush_segments: {
                let h = Histogram::new();
                h.record(1);
                h.record(4);
                h.snapshot()
            },
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

    #[test]
    fn detail_lines_cover_every_surface() {
        let text = sample_report().detail_lines().join("\n");
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
        let text = sample_report().profile_lines().join("\n");
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
            "camp_build_info{version=\"test\",policy=\"camp(p=5)\",shards=\"1\"} 1",
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
