//! Small numeric helpers: weighted latency quantiles, medians and the
//! machine fingerprint printed with every run.

/// Request latencies under the closed-loop convention: every request is
/// charged the round trip of the batch it was sent in, so one sample of
/// `count` requests is stored per batch.
#[derive(Default)]
pub struct Latency {
    samples: Vec<(u64, u64)>,
    requests: u64,
}

impl Latency {
    pub fn record(&mut self, nanos: u64, requests: u64) {
        if requests > 0 {
            self.samples.push((nanos, requests));
            self.requests += requests;
        }
    }

    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The request-weighted `q` quantile in microseconds.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.samples.sort_unstable();
        let rank = (q * self.requests as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for &(nanos, count) in &self.samples {
            seen += count;
            if seen >= rank {
                return nanos as f64 / 1e3;
            }
        }
        self.samples.last().map_or(0.0, |&(n, _)| n as f64 / 1e3)
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `nproc=<n> cpu="<model>"`, so numbers from another box read as context.
pub fn machine_fingerprint() -> String {
    // Counted from cpuinfo: the generator itself is pinned to one core.
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!("nproc={nproc} cpu=\"{model}\"")
}
