//! Layered server benchmark for `camp-kvsd`.
//!
//! One run spawns the daemon, drives one named workload over loopback
//! from a single generator thread for `--seconds`, and measures the
//! end-to-end metrics from outside the daemon: from the client, from
//! `/proc/<pid>` and from the `stats` command. With `--trace 1` it then
//! pushes the same generated requests through each layer's public
//! functions in process, with a span around every call, and derives the
//! per-layer self times. The last line of stdout is one JSON object; the
//! lines above it are a table of every metric measured, with units.
//!
//! ```text
//! perfbench --workload read-resident|bg-cache-aside|write-durable
//!           --seed N --seconds S --trace 0|1
//!           --kvsd PATH --work-dir DIR [--server-cpu N] [--clk-tck HZ]
//! ```
//!
//! `perfbench/run.py` builds both binaries and passes the paths; see
//! `perfbench/README.md` for what each metric means.

#![forbid(unsafe_code)]

mod daemon;
mod stats;
mod traced;
mod wire;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics, reported with `--trace 0` for every workload.
/// Keep in step with `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "req/s"),
    ("p50_us", "us"),
    ("server_cpu_ns_per_op", "ns"),
    ("server_peak_rss_mib", "MiB"),
];

/// The per-layer metrics, reported with `--trace 1` for every workload
/// (0 where the layer is not exercised). The first six are end-to-end
/// metrics without a bound: `p99_us` does not repeat on a shared host,
/// and the other five apply to one workload only. Keep in step with
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("p99_us", "us"),
    ("miss_ratio", "fraction"),
    ("cost_miss_ratio", "fraction"),
    ("recovery_s", "s"),
    ("log_bytes_per_user_byte", "ratio"),
    ("disk_bytes_per_live_byte", "ratio"),
    ("net.worker_busy_frac", "fraction"),
    ("net.worker_sys_ns_per_op", "ns"),
    ("net.write_syscalls_per_kop", "count/kop"),
    ("net.worker_wakeups_per_kop", "count/kop"),
    ("loadgen.cpu_ns_per_op", "ns"),
    ("host.steal_frac", "fraction"),
    ("protocol.parse_ns", "ns"),
    ("store.get_self_ns", "ns"),
    ("resp.serialize_ns", "ns"),
    ("store.set_ns", "ns"),
    ("store.evictions_per_kset", "count/kset"),
    ("slab.random_evictions_per_kset", "count/kset"),
    ("policy.touch_ns", "ns"),
    ("policy.reference_miss_ns", "ns"),
    ("policy.heap_updates_per_kreq", "count/kreq"),
    ("policy.heap_visits_per_kreq", "count/kreq"),
    ("policy.queue_count", "count"),
    ("profiler.record_ns", "ns"),
    ("telemetry.span_record_ns", "ns"),
    ("telemetry.hist_record_ns", "ns"),
    ("persist.append_ns", "ns"),
    ("persist.encode_crc_ns_per_kib", "ns/KiB"),
    ("persist.fsyncs_per_kop", "count/kop"),
    ("persist.snapshots", "count"),
    ("reconcile.layers_ns_per_op", "ns"),
    ("reconcile.residual_ns_per_op", "ns"),
    ("trace.overhead_ns_per_op", "ns"),
];

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub kvsd: PathBuf,
    pub work_dir: PathBuf,
    pub server_cpu: Option<usize>,
    pub clk_tck: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_owned();
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name, value);
    }
    let mut take = |name: &str| {
        map.remove(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload = take("workload")?;
    let seed = take("seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = take("seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (0 or 1)")),
    };
    let kvsd = PathBuf::from(take("kvsd")?);
    let work_dir = PathBuf::from(take("work-dir")?);
    let server_cpu = match map.remove("server-cpu") {
        Some(v) => Some(v.parse().map_err(|_| "bad --server-cpu")?),
        None => None,
    };
    let clk_tck = match map.remove("clk-tck") {
        Some(v) => v.parse().map_err(|_| "bad --clk-tck")?,
        None => 100,
    };
    if let Some(extra) = map.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        kvsd,
        work_dir,
        server_cpu,
        clk_tck,
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Every metric measured, by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks; the run is correct when all pass.
    pub checks: Vec<(String, bool)>,
    /// Context printed with the table: sizes, sample counts, settings.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
fn result_json(outcome: &Outcome, trace: bool) -> String {
    let names = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
            assert!(value.is_finite(), "metric {name} was not measured");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workloads::run(&args) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {} failed: {error}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    println!("machine {}", stats::machine_fingerprint());
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, value) in &outcome.metrics {
        println!("  {name:<34} {value:>16.6} {}", unit_of(name));
    }
    for (name, ok) in &outcome.checks {
        println!("  check {:<44} {}", name, if *ok { "ok" } else { "FAILED" });
    }
    println!("{}", result_json(&outcome, args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness check failed");
        ExitCode::FAILURE
    }
}
