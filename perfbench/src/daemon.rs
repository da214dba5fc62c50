//! Spawning `camp-kvsd` and reading its cost from outside the process:
//! the ready banner on stderr, `/proc/<pid>` and `/proc/stat`.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How to start the daemon: its binary and the core it is pinned to.
pub struct Launcher {
    pub bin: PathBuf,
    /// Pin the daemon to this core with `taskset` (the generator runs on
    /// another one), so each side gets a core of its own.
    pub server_cpu: Option<usize>,
}

/// A running daemon. Dropping it kills the process; [`Daemon::stop`]
/// shuts it down gracefully and checks that it exited cleanly.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    pub pid: u32,
    stderr_drain: Option<JoinHandle<()>>,
}

impl Launcher {
    /// Starts the daemon on an ephemeral loopback port with one reactor
    /// worker plus `args`, and returns it with the time from spawn to the
    /// `camp_kvsd_ready` banner.
    pub fn spawn(&self, args: &[String]) -> io::Result<(Daemon, Duration)> {
        let mut cmd = match self.server_cpu {
            Some(cpu) => {
                let mut cmd = Command::new("taskset");
                cmd.arg("-c").arg(cpu.to_string()).arg(&self.bin);
                cmd
            }
            None => Command::new(&self.bin),
        };
        cmd.args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--log-level",
            "info",
        ])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
        let started = Instant::now();
        let mut child = cmd.spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        let mut addr = None;
        while reader.read_line(&mut line)? > 0 {
            if line.contains("event=camp_kvsd_ready") {
                addr = line
                    .split_whitespace()
                    .find_map(|token| token.strip_prefix("addr="))
                    .map(str::to_owned);
                break;
            }
            line.clear();
        }
        let ready = started.elapsed();
        let pid = child.id();
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "camp-kvsd {args:?} exited without a ready banner"
            )));
        };
        // Keep reading stderr so a chatty daemon never blocks on the pipe.
        let stderr_drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok((
            Daemon {
                child: Some(child),
                addr,
                pid,
                stderr_drain: Some(stderr_drain),
            },
            ready,
        ))
    }
}

impl Daemon {
    /// Sends SIGTERM and waits for a clean exit (the daemon drains, seals
    /// its log and exits 0).
    pub fn stop(mut self) -> io::Result<()> {
        let mut child = self.child.take().expect("daemon not yet stopped");
        let signalled = Command::new("kill")
            .args(["-TERM", &self.pid.to_string()])
            .status()
            .is_ok_and(|status| status.success());
        if !signalled {
            let _ = child.kill();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let exit = loop {
            if let Some(exit) = child.try_wait()? {
                break exit;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                break child.wait()?;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
        if exit.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("camp-kvsd exited with {exit}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}

/// The fields after `comm` in a `/proc/.../stat` line (field 3 first).
fn stat_fields(path: &Path) -> io::Result<Vec<u64>> {
    let text = fs::read_to_string(path)?;
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))?;
    // Field 3 (state) is a letter; keep positions by mapping it to 0.
    Ok(rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect())
}

/// `utime + stime` (clock ticks) from a stat file; fields 14 and 15.
fn cpu_ticks(fields: &[u64]) -> (u64, u64) {
    (fields[11], fields[12])
}

/// The value of a `Name:   value ...` line of a `status` or `io` file.
fn keyed(path: &Path, key: &str) -> io::Result<u64> {
    let text = fs::read_to_string(path)?;
    text.lines()
        .find_map(|line| {
            line.strip_prefix(key)
                .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
                .and_then(|v| v.parse().ok())
        })
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("no {key} in {path:?}")))
}

/// Cumulative counters read at one instant.
#[derive(Clone, Copy)]
pub struct Sample {
    pub at: Instant,
    /// Reactor worker thread user and sys ticks.
    pub worker_user: u64,
    pub worker_sys: u64,
    /// Reactor worker voluntary context switches (sleeps in epoll_wait).
    pub worker_wakeups: u64,
    /// Daemon write-class syscalls (`syscw`).
    pub syscw: u64,
    /// Host-wide steal and total jiffies.
    pub steal: u64,
    pub host_total: u64,
}

/// Reads [`Sample`]s of one daemon.
pub struct Probe {
    proc_dir: PathBuf,
    worker_dir: PathBuf,
}

impl Probe {
    /// Finds the daemon's reactor worker thread (`camp-kvs-worker-0`,
    /// truncated to 15 bytes in `comm`). A new thread names itself after
    /// it starts, so a daemon that has just become ready may need a moment.
    pub fn new(pid: u32) -> io::Result<Probe> {
        let proc_dir = PathBuf::from(format!("/proc/{pid}"));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            for entry in fs::read_dir(proc_dir.join("task"))? {
                let dir = entry?.path();
                let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
                if comm.trim_end().starts_with("camp-kvs-worker") {
                    return Ok(Probe {
                        proc_dir,
                        worker_dir: dir,
                    });
                }
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "no camp-kvs-worker thread in the daemon",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn sample(&self) -> io::Result<Sample> {
        let (wu, ws) = cpu_ticks(&stat_fields(&self.worker_dir.join("stat"))?);
        let (steal, host_total) = host_jiffies()?;
        Ok(Sample {
            at: Instant::now(),
            worker_user: wu,
            worker_sys: ws,
            worker_wakeups: keyed(&self.worker_dir.join("status"), "voluntary_ctxt_switches")?,
            syscw: keyed(&self.proc_dir.join("io"), "syscw")?,
            steal,
            host_total,
        })
    }

    /// Daemon CPU time in nanoseconds, all threads (`schedstat`).
    pub fn server_cpu_ns(&self) -> io::Result<u64> {
        let mut total = 0;
        for entry in fs::read_dir(self.proc_dir.join("task"))? {
            let text = match fs::read_to_string(entry?.path().join("schedstat")) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                text => text?,
            };
            total += text
                .split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
                .unwrap_or(0);
        }
        Ok(total)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        Ok(keyed(&self.proc_dir.join("status"), "VmHWM")? as f64 / 1024.0)
    }
}

/// Host-wide `(steal, total)` jiffies: the first line of `/proc/stat`.
pub fn host_jiffies() -> io::Result<(u64, u64)> {
    let host = fs::read_to_string("/proc/stat")?;
    let cpu: Vec<u64> = host
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Ok((cpu.get(7).copied().unwrap_or(0), cpu.iter().sum()))
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        // Compaction deletes old segments while the daemon runs.
        let meta = match entry.metadata() {
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            meta => meta?,
        };
        if meta.is_dir() {
            total += dir_bytes(&entry.path())?;
        } else {
            total += meta.len();
        }
    }
    Ok(total)
}
