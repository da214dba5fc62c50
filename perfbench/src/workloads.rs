//! The three workloads: their requests, generated from the seed, and the
//! end-to-end runs that send them to a spawned `camp-kvsd`.
//!
//! Every run is a closed loop on one generator thread: a new batch is
//! written only when an earlier one has been answered in full and every
//! reply checked. `read-resident` keeps one batch in flight on each of its
//! two connections, `write-durable` two on its one connection, and
//! `bg-cache-aside` one (its sets depend on the replies to its gets). Each
//! request is charged the round trip of its batch.

use std::collections::{HashSet, VecDeque};
use std::fs;
use std::io;
use std::time::{Duration, Instant};

use camp_kvs::store::EvictionMode;
use camp_workload::zipf::{Permutation, Zipf};
use camp_workload::{BgConfig, Trace};

use crate::daemon::{dir_bytes, host_jiffies, Daemon, Launcher, Probe, Sample};
use crate::stats::{median, Latency};
use crate::wire::{push_get, push_set, spin_nanos, stat, Conn, Values};
use crate::{traced, Args, Outcome};

/// The policy every workload runs (the daemon's default).
pub const POLICY: &str = "camp:5";

/// `read-resident`: Zipf(0.99) gets over 100 000 keys of 100 B — about
/// 20 MiB of items in the default 64 MiB cache, so nothing is evicted.
pub const RR_KEYS: u64 = 100_000;
pub const RR_VALUE_LEN: usize = 100;
const RR_THETA: f64 = 0.99;
/// Gets per batch on each of the two connections.
const RR_DEPTH: usize = 32;
/// Zipf draws generated up front and cycled.
const RR_STREAM: usize = 1 << 20;

/// `bg-cache-aside`: the paper's §4 trace at this member count. The
/// cache gets a quarter of the trace's unique bytes, in 64 KiB slabs so
/// every size class owns several.
const BG_MEMBERS: u64 = 40_000;
const BG_REQUESTS: usize = 600_000;
pub const BG_DEPTH: usize = 32;
const BG_SLAB_KB: u64 = 64;
/// Traced size minus value length, as `camp_kvs::replay` uses it: the
/// stored footprint then matches the traced size.
const BG_VALUE_OVERHEAD: u64 = 64;

/// `write-durable`: 50/50 gets and versioned sets, uniform over 8192 live
/// keys of 1 KiB, persisted with interval fsync into 2 MiB segments.
pub const WD_KEYS: u64 = 8192;
pub const WD_VALUE_LEN: usize = 1024;
pub const WD_SEGMENT_BYTES: u64 = 2 << 20;
const WD_DEPTH: usize = 32;
const WD_STREAM: usize = 1 << 20;
/// Warm restarts timed after the measured phase.
const WD_RESTARTS: usize = 3;

/// Daemon set-ups per run; `setup_s` is their median. Without a prefill
/// (`bg-cache-aside`) a set-up takes milliseconds, so it is repeated more.
const SETUPS: usize = 9;
const BG_SETUPS: usize = 25;
/// Sets per prefill batch.
const PREFILL_BATCH: usize = 256;
/// Interval between data-dir size samples.
const DISK_SAMPLE_EVERY: Duration = Duration::from_millis(250);

pub fn run(args: &Args) -> io::Result<Outcome> {
    fs::create_dir_all(&args.work_dir)?;
    let launcher = Launcher {
        bin: args.kvsd.clone(),
        server_cpu: args.server_cpu,
    };
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "read-resident" => read_resident(args, &launcher, &mut out)?,
        "bg-cache-aside" => bg_cache_aside(args, &launcher, &mut out)?,
        "write-durable" => write_durable(args, &launcher, &mut out)?,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload {other:?}"),
            ))
        }
    }
    Ok(out)
}

/// The `read-resident` key stream: Zipf ranks scattered over the key
/// space by a seeded permutation, so hot keys are not neighbours.
pub fn zipf_keys(seed: u64) -> Vec<u32> {
    let zipf = Zipf::new(RR_KEYS, RR_THETA);
    let permutation = Permutation::new(RR_KEYS, seed ^ 0x2EAD);
    let mut rng = camp_core::rng::Rng64::seed_from_u64(seed);
    (0..RR_STREAM)
        .map(|_| permutation.apply(zipf.sample(&mut rng)) as u32)
        .collect()
}

/// The `write-durable` op stream: `(is_set, key)`, a fair coin and a
/// uniform key per op.
pub fn durable_ops(seed: u64) -> Vec<(bool, u32)> {
    let mut rng = camp_core::rng::Rng64::seed_from_u64(seed);
    (0..WD_STREAM)
        .map(|_| (rng.chance(0.5), rng.range_u64(0, WD_KEYS) as u32))
        .collect()
}

pub fn bg_trace(seed: u64) -> Trace {
    BgConfig::paper_scaled(BG_MEMBERS, BG_REQUESTS, seed).generate()
}

/// Value length of a traced size.
pub fn bg_value_len(size: u64) -> usize {
    size.saturating_sub(BG_VALUE_OVERHEAD).max(1) as usize
}

/// Sets every key `0..keys` to its value at `stamp_of(key)`, two batches
/// in flight so the daemon never waits for the generator; fails unless
/// every reply is `STORED`.
fn prefill(
    conn: &mut Conn,
    values: &Values,
    keys: u64,
    len: usize,
    stamp_of: impl Fn(u64) -> u64,
) -> io::Result<()> {
    let mut batch = Vec::new();
    let mut value = Vec::new();
    let mut chunks = (0..keys)
        .step_by(PREFILL_BATCH)
        .map(|start| start..(start + PREFILL_BATCH as u64).min(keys));
    let mut in_flight = VecDeque::new();
    loop {
        while in_flight.len() < 2 {
            let Some(chunk) = chunks.next() else { break };
            batch.clear();
            for key in chunk.clone() {
                values.fill(&mut value, key, stamp_of(key), len);
                push_set(&mut batch, b"set", key, &value, None);
            }
            conn.send(&batch)?;
            in_flight.push_back(chunk);
        }
        let Some(chunk) = in_flight.pop_front() else {
            break;
        };
        for _ in chunk {
            let reply = conn.read_line()?;
            if reply != b"STORED" {
                return Err(io::Error::other(format!(
                    "prefill set refused: {}",
                    String::from_utf8_lossy(reply)
                )));
            }
        }
        conn.compact();
    }
    conn.finish_batch()
}

/// Spawns the daemon `setups` times, each followed by `prepare` on a
/// fresh connection, and keeps the last one. Records `setup_s`, the
/// median of spawn-to-ready plus `prepare`.
fn set_up(
    launcher: &Launcher,
    daemon_args: &[String],
    setups: usize,
    out: &mut Outcome,
    mut before_spawn: impl FnMut() -> io::Result<()>,
    mut prepare: impl FnMut(&mut Conn) -> io::Result<()>,
) -> io::Result<(Daemon, Conn)> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        before_spawn()?;
        let started = Instant::now();
        let (daemon, _) = launcher.spawn(daemon_args)?;
        let mut conn = Conn::connect(&daemon.addr)?;
        prepare(&mut conn)?;
        times.push(started.elapsed().as_secs_f64());
        if i + 1 < setups {
            drop(conn);
            daemon.stop()?;
        } else {
            kept = Some((daemon, conn));
        }
    }
    out.set("setup_s", median(&times));
    out.note(format!("setup_s samples {times:?}"));
    Ok(kept.expect("at least one set-up"))
}

/// One window of the measured phase.
struct Window {
    rate: f64,
    cpu_ns_per_op: f64,
    p50_us: f64,
    p99_us: f64,
    /// Share of host CPU time the hypervisor stole during the window.
    steal: f64,
}

/// Length of the windows the throughput, CPU and p99 medians are taken
/// over. The host's speed swings by tens of percent from second to
/// second, so a median over windows is steadier than a whole-run mean.
const WINDOW: Duration = Duration::from_secs(1);

/// The measured phase's shared bookkeeping.
struct Phase<'p> {
    probe: &'p Probe,
    before: Sample,
    lat: Latency,
    ops: u64,
    windows: Vec<Window>,
    window_lat: Latency,
    /// When the open window started, with the op count, daemon CPU and
    /// host jiffies then.
    window_start: (Instant, u64, u64, (u64, u64)),
    spin_at_start: u64,
}

impl<'p> Phase<'p> {
    fn start(probe: &'p Probe) -> io::Result<Phase<'p>> {
        let before = probe.sample()?;
        Ok(Phase {
            probe,
            before,
            lat: Latency::default(),
            ops: 0,
            windows: Vec::new(),
            window_lat: Latency::default(),
            window_start: (before.at, 0, probe.server_cpu_ns()?, host_jiffies()?),
            spin_at_start: spin_nanos(),
        })
    }

    fn elapsed(&self) -> f64 {
        self.before.at.elapsed().as_secs_f64()
    }

    /// Charges `requests` requests the round trip of their batch.
    fn record(&mut self, sent: Instant, requests: u64) {
        let nanos = sent.elapsed().as_nanos() as u64;
        self.lat.record(nanos, requests);
        self.window_lat.record(nanos, requests);
    }

    /// Counts completed requests and closes the window when it is due.
    fn done(&mut self, requests: u64) -> io::Result<()> {
        self.ops += requests;
        if self.window_start.0.elapsed() >= WINDOW {
            self.close_window()?;
        }
        Ok(())
    }

    fn close_window(&mut self) -> io::Result<()> {
        let (at, ops, cpu, host) = self.window_start;
        let now = Instant::now();
        let cpu_now = self.probe.server_cpu_ns()?;
        let host_now = host_jiffies()?;
        let window_ops = (self.ops - ops).max(1) as f64;
        self.windows.push(Window {
            rate: window_ops / (now - at).as_secs_f64(),
            cpu_ns_per_op: cpu_now.saturating_sub(cpu) as f64 / window_ops,
            p50_us: self.window_lat.quantile_us(0.50),
            p99_us: self.window_lat.quantile_us(0.99),
            steal: host_now.0.saturating_sub(host.0) as f64
                / host_now.1.saturating_sub(host.1).max(1) as f64,
        });
        self.window_lat = Latency::default();
        self.window_start = (now, self.ops, cpu_now, host_now);
        Ok(())
    }

    /// Records the metrics every workload reports.
    fn finish(mut self, clk_tck: u64, out: &mut Outcome) -> io::Result<()> {
        if self.windows.is_empty() {
            self.close_window()?;
        }
        let after = self.probe.sample()?;
        let b = &self.before;
        let wall = (after.at - b.at).as_secs_f64();
        let ops = self.ops.max(1) as f64;
        let tick_ns = 1e9 / clk_tck as f64;
        let ticks = |a: u64, b: u64| a.saturating_sub(b) as f64 * tick_ns;
        // The host steals CPU in bursts of seconds, and a closed loop over
        // two vCPUs stalls whenever either is stolen: throughput halves at
        // 20% steal. The timing metrics are therefore medians over the
        // quieter half of the windows, ranked by steal.
        let mut quiet: Vec<&Window> = self.windows.iter().collect();
        quiet.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        quiet.truncate(quiet.len().div_ceil(2));
        let per_window =
            |f: fn(&Window) -> f64| median(&quiet.iter().map(|w| f(w)).collect::<Vec<_>>());
        out.set("ops_per_s", per_window(|w| w.rate));
        out.set("p50_us", per_window(|w| w.p50_us));
        out.set("p99_us", per_window(|w| w.p99_us));
        out.set("server_cpu_ns_per_op", per_window(|w| w.cpu_ns_per_op));
        out.set(
            "net.worker_busy_frac",
            (ticks(after.worker_user, b.worker_user) + ticks(after.worker_sys, b.worker_sys))
                / (wall * 1e9),
        );
        out.set(
            "net.worker_sys_ns_per_op",
            ticks(after.worker_sys, b.worker_sys) / ops,
        );
        out.set(
            "net.write_syscalls_per_kop",
            after.syscw.saturating_sub(b.syscw) as f64 * 1e3 / ops,
        );
        out.set(
            "net.worker_wakeups_per_kop",
            after.worker_wakeups.saturating_sub(b.worker_wakeups) as f64 * 1e3 / ops,
        );
        // The generator spins while it waits and owns its core, so its
        // work is the wall time it did not spend spinning. (CPU ticks
        // would not do: they leave out stolen time, the spin clock not.)
        let spun = spin_nanos().saturating_sub(self.spin_at_start) as f64;
        out.set("loadgen.cpu_ns_per_op", (wall * 1e9 - spun).max(0.0) / ops);
        out.set(
            "host.steal_frac",
            after.steal.saturating_sub(b.steal) as f64
                / after.host_total.saturating_sub(b.host_total).max(1) as f64,
        );
        out.set("server_peak_rss_mib", self.probe.peak_rss_mib()?);
        out.attempted += self.ops;
        out.note(format!(
            "windows (rate, steal): {}",
            self.windows
                .iter()
                .map(|w| format!("{:.0}/{:.2}", w.rate, w.steal))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        out.note(format!(
            "measured {} requests in {wall:.3} s ({:.0} req/s overall, p99 {:.1} us overall, \
             {} requests beyond it); medians over the quieter {} of {} windows of {} s",
            self.ops,
            ops / wall,
            self.lat.quantile_us(0.99),
            self.lat.requests() / 100,
            quiet.len(),
            self.windows.len(),
            WINDOW.as_secs_f64()
        ));
        Ok(())
    }
}

/// Counters every workload derives from the daemon's `stats`.
fn store_rows(stats: &[(String, String)], out: &mut Outcome) {
    let sets = stat(stats, "cmd_set").max(1) as f64;
    out.set(
        "store.evictions_per_kset",
        stat(stats, "evictions") as f64 * 1e3 / sets,
    );
    out.set(
        "slab.random_evictions_per_kset",
        stat(stats, "slab_reassignments") as f64 * 1e3 / sets,
    );
}

fn read_resident(args: &Args, launcher: &Launcher, out: &mut Outcome) -> io::Result<()> {
    let values = Values::new(args.seed);
    let stream = zipf_keys(args.seed);
    out.note(format!(
        "{RR_KEYS} keys x {RR_VALUE_LEN} B, Zipf({RR_THETA}), default 64 MiB cache, \
         2 connections x {RR_DEPTH} pipelined gets"
    ));
    let (daemon, a) = set_up(
        launcher,
        &[],
        SETUPS,
        out,
        || Ok(()),
        |conn| prefill(conn, &values, RR_KEYS, RR_VALUE_LEN, |_| 0),
    )?;
    let b = Conn::connect(&daemon.addr)?;
    let probe = Probe::new(daemon.pid)?;
    let (mut misses, mut wrong) = (0u64, 0u64);
    let mut batch = Vec::new();
    let mut expect = Vec::new();
    let mut pos = 0;
    let mut conns = [a, b];
    // One batch in flight on each connection: while the generator checks
    // one connection's replies, the daemon works on the other's batch.
    let mut send = |conn: &mut Conn, pos: &mut usize| -> io::Result<(Instant, usize)> {
        let at = *pos;
        *pos = (*pos + RR_DEPTH) % stream.len();
        batch.clear();
        for &key in &stream[at..at + RR_DEPTH] {
            push_get(&mut batch, b"get", u64::from(key));
        }
        let sent = Instant::now();
        conn.send(&batch)?;
        Ok((sent, at))
    };
    let mut phase = Phase::start(&probe)?;
    let mut in_flight = [
        Some(send(&mut conns[0], &mut pos)?),
        Some(send(&mut conns[1], &mut pos)?),
    ];
    while in_flight.iter().any(Option::is_some) {
        for (conn, slot) in conns.iter_mut().zip(&mut in_flight) {
            let Some((sent, at)) = slot.take() else {
                continue;
            };
            for &key in &stream[at..at + RR_DEPTH] {
                values.fill(&mut expect, u64::from(key), 0, RR_VALUE_LEN);
                match conn.read_get()? {
                    Some(value) if value == expect.as_slice() => {}
                    Some(_) => wrong += 1,
                    None => misses += 1,
                }
            }
            conn.finish_batch()?;
            phase.record(sent, RR_DEPTH as u64);
            phase.done(RR_DEPTH as u64)?;
            if phase.elapsed() < args.seconds {
                *slot = Some(send(conn, &mut pos)?);
            }
        }
    }
    phase.finish(args.clk_tck, out)?;
    let [mut a, b] = conns;
    let stats = a.stats()?;
    drop((a, b));
    daemon.stop()?;
    store_rows(&stats, out);
    out.failed += misses + wrong;
    out.check("read-resident: every get hits", misses == 0);
    out.check("read-resident: every value is the key's bytes", wrong == 0);
    out.check(
        "read-resident: no evictions",
        stat(&stats, "evictions") + stat(&stats, "slab_evictions") == 0,
    );
    for name in [
        "miss_ratio",
        "cost_miss_ratio",
        "recovery_s",
        "log_bytes_per_user_byte",
        "disk_bytes_per_live_byte",
        "persist.fsyncs_per_kop",
        "persist.snapshots",
    ] {
        out.set(name, 0.0);
    }
    if args.trace {
        traced::read_resident(args, &values, &stream, out)?;
    }
    Ok(())
}

/// Non-cold accounting of the first pass over the trace.
#[derive(Default)]
struct MissCount {
    hits: u64,
    misses: u64,
    missed_cost: u64,
    total_cost: u64,
}

fn bg_cache_aside(args: &Args, launcher: &Launcher, out: &mut Outcome) -> io::Result<()> {
    let values = Values::new(args.seed);
    let trace = bg_trace(args.seed);
    let stats = trace.stats();
    let memory_mb = ((stats.unique_bytes / 4 + (1 << 19)) >> 20).max(1);
    let memory = memory_mb << 20;
    out.note(format!(
        "trace {} requests, {} keys, {:.1} MiB unique; cache {memory_mb} MiB in {BG_SLAB_KB} KiB slabs, \
         policy {POLICY}, 1 connection, {BG_DEPTH} pipelined iqgets then one iqset per missed key",
        stats.requests,
        stats.unique_keys,
        stats.unique_bytes as f64 / (1 << 20) as f64
    ));

    // The Fig 9a shape, checked on the standalone policies.
    let ratio = |mode: &str| {
        let mode: EvictionMode = mode.parse().expect("known policy");
        let mut policy = mode.build::<u64>(memory);
        camp_sim::simulate(&mut *policy, &trace)
            .metrics
            .cost_miss_ratio()
    };
    let (camp_ratio, lru_ratio) = (ratio(POLICY), ratio("lru"));
    out.note(format!(
        "standalone cost-miss ratio: {POLICY} {camp_ratio:.4}, lru {lru_ratio:.4}"
    ));
    out.check(
        "bg-cache-aside: standalone camp:5 cost-miss ratio below lru's",
        camp_ratio < lru_ratio,
    );

    let daemon_args: Vec<String> = [
        "--memory-mb",
        &memory_mb.to_string(),
        "--slab-kb",
        &BG_SLAB_KB.to_string(),
        "--policy",
        POLICY,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (daemon, mut conn) = set_up(
        launcher,
        &daemon_args,
        BG_SETUPS,
        out,
        || Ok(()),
        |_| Ok(()),
    )?;
    let probe = Probe::new(daemon.pid)?;
    let records = trace.records();
    let mut seen = HashSet::new();
    let mut count = MissCount::default();
    let (mut wrong, mut refused) = (0u64, 0u64);
    let mut batch = Vec::new();
    let mut value = Vec::new();
    let mut missed: Vec<(u64, u64, u64)> = Vec::new();
    let mut done = 0usize;
    let mut phase = Phase::start(&probe)?;
    // Run for the time asked, and at least one full pass: the ratios are
    // taken over the first pass, so they repeat exactly for a seed.
    while phase.elapsed() < args.seconds || done < records.len() {
        let at = done % records.len();
        let chunk = &records[at..(at + BG_DEPTH).min(records.len())];
        let first_pass = done < records.len();
        batch.clear();
        for r in chunk {
            push_get(&mut batch, b"iqget", r.key);
        }
        let sent = Instant::now();
        conn.send(&batch)?;
        missed.clear();
        for r in chunk {
            values.fill(&mut value, r.key, 0, bg_value_len(r.size));
            let hit = match conn.read_get()? {
                Some(got) => {
                    if got != value.as_slice() {
                        wrong += 1;
                    }
                    true
                }
                None => {
                    if !missed.iter().any(|m| m.0 == r.key) {
                        missed.push((r.key, r.size, r.cost));
                    }
                    false
                }
            };
            if first_pass && !seen.insert(r.key) {
                count.total_cost += r.cost;
                if hit {
                    count.hits += 1;
                } else {
                    count.misses += 1;
                    count.missed_cost += r.cost;
                }
            }
        }
        conn.finish_batch()?;
        phase.record(sent, chunk.len() as u64);
        if !missed.is_empty() {
            batch.clear();
            for &(key, size, cost) in &missed {
                values.fill(&mut value, key, 0, bg_value_len(size));
                push_set(&mut batch, b"iqset", key, &value, Some(cost));
            }
            let sent = Instant::now();
            conn.send(&batch)?;
            for _ in &missed {
                if conn.read_line()? != b"STORED" {
                    refused += 1;
                }
            }
            conn.finish_batch()?;
            phase.record(sent, missed.len() as u64);
        }
        phase.done((chunk.len() + missed.len()) as u64)?;
        done += chunk.len();
    }
    phase.finish(args.clk_tck, out)?;
    let server = conn.stats()?;
    drop(conn);
    daemon.stop()?;
    store_rows(&server, out);
    let counted = (count.hits + count.misses).max(1) as f64;
    out.set("miss_ratio", count.misses as f64 / counted);
    out.set(
        "cost_miss_ratio",
        count.missed_cost as f64 / count.total_cost.max(1) as f64,
    );
    out.note(format!(
        "first pass: {} non-cold gets, {} misses; passes run {:.2}",
        count.hits + count.misses,
        count.misses,
        done as f64 / records.len() as f64
    ));
    for name in [
        "recovery_s",
        "log_bytes_per_user_byte",
        "disk_bytes_per_live_byte",
        "persist.fsyncs_per_kop",
        "persist.snapshots",
    ] {
        out.set(name, 0.0);
    }
    out.failed += wrong + refused;
    out.check(
        "bg-cache-aside: every hit is the bytes last set",
        wrong == 0,
    );
    out.check("bg-cache-aside: every iqset stored", refused == 0);
    out.check(
        "bg-cache-aside: the cache evicts",
        stat(&server, "evictions") > 0,
    );
    if args.trace {
        traced::bg_cache_aside(args, &values, &trace, memory, out)?;
    }
    Ok(())
}

/// Length of `k<key>`.
fn wire_key_len(key: u64) -> usize {
    let mut digits = 1;
    let mut rest = key;
    while rest >= 10 {
        rest /= 10;
        digits += 1;
    }
    1 + digits
}

/// Bytes of key plus value of every live `write-durable` item.
fn durable_live_bytes() -> u64 {
    (0..WD_KEYS)
        .map(|k| (wire_key_len(k) + WD_VALUE_LEN) as u64)
        .sum()
}

/// Per op of a sent `write-durable` batch: `(is_set, key, version the
/// reply must carry)`.
type Pending = Vec<(bool, u32, u64)>;

/// Reads every key back and counts those that differ from their last
/// acknowledged version.
fn verify_durable(conn: &mut Conn, values: &Values, acked: &[u64]) -> io::Result<u64> {
    let mut mismatches = 0;
    let mut batch = Vec::new();
    let mut expect = Vec::new();
    for chunk_start in (0..WD_KEYS).step_by(PREFILL_BATCH) {
        let chunk = chunk_start..(chunk_start + PREFILL_BATCH as u64).min(WD_KEYS);
        batch.clear();
        for key in chunk.clone() {
            push_get(&mut batch, b"get", key);
        }
        conn.send(&batch)?;
        for key in chunk {
            values.fill(&mut expect, key, acked[key as usize], WD_VALUE_LEN);
            if conn.read_get()? != Some(expect.as_slice()) {
                mismatches += 1;
            }
        }
        conn.finish_batch()?;
    }
    Ok(mismatches)
}

fn write_durable(args: &Args, launcher: &Launcher, out: &mut Outcome) -> io::Result<()> {
    let values = Values::new(args.seed);
    let ops = durable_ops(args.seed);
    let dir = args.work_dir.join("write-durable-data");
    let live_bytes = durable_live_bytes();
    out.note(format!(
        "{WD_KEYS} keys x {WD_VALUE_LEN} B ({:.1} MiB live) in the default 64 MiB cache; \
         --fsync interval, {} MiB segments; 1 connection x {WD_DEPTH} pipelined ops, 50% set",
        live_bytes as f64 / (1 << 20) as f64,
        WD_SEGMENT_BYTES >> 20
    ));
    let daemon_args: Vec<String> = [
        "--data-dir",
        &dir.to_string_lossy(),
        "--fsync",
        "interval",
        "--segment-bytes",
        &WD_SEGMENT_BYTES.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // Version stamps: the prefill writes version 1 of every key; each
    // measured set takes the next global version.
    let mut acked = vec![1u64; WD_KEYS as usize];
    let (daemon, mut conn) = set_up(
        launcher,
        &daemon_args,
        SETUPS,
        out,
        || match fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        },
        |conn| prefill(conn, &values, WD_KEYS, WD_VALUE_LEN, |_| 1),
    )?;
    let probe = Probe::new(daemon.pid)?;
    let before = conn.stats()?;
    let mut issued = acked.clone();
    let mut version = 1u64;
    let (mut wrong, mut refused, mut user_bytes) = (0u64, 0u64, 0u64);
    let mut batch = Vec::new();
    let mut value = Vec::new();
    let mut disk_ratios = Vec::new();
    let mut next_disk_sample = Instant::now();
    let mut pos = 0;
    // Encodes and sends the next batch; returns when it was sent and what
    // each reply must be.
    let mut send = |conn: &mut Conn| -> io::Result<(Instant, Pending)> {
        batch.clear();
        let mut pending = Vec::with_capacity(WD_DEPTH);
        for &(is_set, key) in &ops[pos..pos + WD_DEPTH] {
            if is_set {
                version += 1;
                issued[key as usize] = version;
                values.fill(&mut value, u64::from(key), version, WD_VALUE_LEN);
                push_set(&mut batch, b"set", u64::from(key), &value, None);
            } else {
                push_get(&mut batch, b"get", u64::from(key));
            }
            pending.push((is_set, key, issued[key as usize]));
        }
        pos = (pos + WD_DEPTH) % ops.len();
        let sent = Instant::now();
        conn.send(&batch)?;
        Ok((sent, pending))
    };
    let mut expect = Vec::new();
    let mut phase = Phase::start(&probe)?;
    // Two batches in flight on the one connection: the daemon executes
    // them in order, so each get's expected version is known at send time.
    let mut in_flight = VecDeque::from([send(&mut conn)?, send(&mut conn)?]);
    while let Some((sent, pending)) = in_flight.pop_front() {
        for &(is_set, key, stamp) in &pending {
            if is_set {
                if conn.read_line()? == b"STORED" {
                    acked[key as usize] = stamp;
                    user_bytes += (wire_key_len(u64::from(key)) + WD_VALUE_LEN) as u64;
                } else {
                    refused += 1;
                }
            } else {
                values.fill(&mut expect, u64::from(key), stamp, WD_VALUE_LEN);
                if conn.read_get()? != Some(expect.as_slice()) {
                    wrong += 1;
                }
            }
        }
        conn.compact();
        phase.record(sent, WD_DEPTH as u64);
        phase.done(WD_DEPTH as u64)?;
        if Instant::now() >= next_disk_sample {
            next_disk_sample += DISK_SAMPLE_EVERY;
            disk_ratios.push(dir_bytes(&dir)? as f64 / live_bytes as f64);
        }
        if phase.elapsed() < args.seconds {
            in_flight.push_back(send(&mut conn)?);
        }
    }
    conn.finish_batch()?;
    let measured_ops = phase.ops;
    phase.finish(args.clk_tck, out)?;
    let after = conn.stats()?;
    drop(conn);
    daemon.stop()?;
    let delta = |name: &str| stat(&after, name).saturating_sub(stat(&before, name)) as f64;
    store_rows(&after, out);
    out.set(
        "log_bytes_per_user_byte",
        delta("persist:bytes") / user_bytes.max(1) as f64,
    );
    // The data dir swings through each rotation/compaction cycle, so a
    // single end-of-run reading lands at a random phase of it; the median
    // of readings every 250 ms is steady.
    out.set("disk_bytes_per_live_byte", median(&disk_ratios));
    out.set(
        "persist.fsyncs_per_kop",
        delta("persist:fsyncs") * 1e3 / measured_ops.max(1) as f64,
    );
    out.set("persist.snapshots", delta("persist:snapshots"));
    out.note(format!(
        "{} versioned sets acknowledged ({user_bytes} user bytes); {} disk samples; \
         {} fsyncs, {} snapshots",
        version - 1,
        disk_ratios.len(),
        delta("persist:fsyncs"),
        delta("persist:snapshots")
    ));

    let mut recoveries = Vec::new();
    let mut mismatches = 0;
    for _ in 0..WD_RESTARTS {
        let (daemon, ready) = launcher.spawn(&daemon_args)?;
        recoveries.push(ready.as_secs_f64());
        let mut conn = Conn::connect(&daemon.addr)?;
        mismatches += verify_durable(&mut conn, &values, &acked)?;
        out.attempted += WD_KEYS;
        drop(conn);
        daemon.stop()?;
    }
    out.set("recovery_s", median(&recoveries));
    out.note(format!("recovery_s samples {recoveries:?}"));
    fs::remove_dir_all(&dir)?;
    out.set("miss_ratio", 0.0);
    out.set("cost_miss_ratio", 0.0);
    out.failed += wrong + refused + mismatches;
    out.check(
        "write-durable: every get returns the last version sent",
        wrong == 0,
    );
    out.check("write-durable: every set stored", refused == 0);
    out.check(
        "write-durable: every key survives restarts at its last acknowledged version",
        mismatches == 0,
    );
    out.check(
        "write-durable: no evictions",
        stat(&after, "evictions") + stat(&after, "slab_evictions") == 0,
    );
    if args.trace {
        traced::write_durable(args, &values, &ops, out)?;
    }
    Ok(())
}
