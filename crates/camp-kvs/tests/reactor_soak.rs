//! Scale and multi-worker coverage for the epoll reactor.
//!
//! The headline test holds ten thousand concurrent connections against a
//! two-worker reactor — the connection count the thread-per-connection
//! engine could never reach — by driving the client side from a separate
//! `camp-loadgen` process (each side needs one fd per connection, and the
//! two processes split the per-process RLIMIT_NOFILE budget). The test is
//! gated on that rlimit and skips, loudly, where the limit is too low.
//!
//! The remaining test pins down a behavior the big soak would mask: an
//! explicit multi-worker reactor spreads connections without mixing up
//! replies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use camp_core::Precision;
use camp_kvs::server::{Server, ServerOptions};
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, StoreConfig};

const SOAK_CONNS: usize = 10_000;

fn base_options() -> ServerOptions {
    ServerOptions::new(StoreConfig {
        slab: SlabConfig::small(64 * 1024, 64),
        eviction: EvictionMode::Camp(Precision::Bits(5)),
    })
}

fn start(options: ServerOptions) -> Server {
    Server::start_with("127.0.0.1:0", options).expect("bind test server")
}

/// The soft RLIMIT_NOFILE for this process, read from `/proc/self/limits`
/// (no syscall shim needed). `None` off Linux or if the file is absent —
/// callers treat that as "cannot verify, skip".
fn max_open_files() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    // "Max open files            20000                20000                files"
    line.split_whitespace().nth(3)?.parse().ok()
}

fn read_reply_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    line.trim_end().to_owned()
}

fn stat_value(addr: std::net::SocketAddr, name: &str) -> Option<u64> {
    let mut conn = TcpStream::connect(addr).ok()?;
    conn.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    conn.write_all(b"stats detail\r\n").ok()?;
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    while !response.ends_with(b"END\r\n") {
        let n = conn.read(&mut buf).ok()?;
        if n == 0 {
            return None;
        }
        response.extend_from_slice(&buf[..n]);
    }
    let text = String::from_utf8_lossy(&response);
    let prefix = format!("STAT {name} ");
    text.lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .and_then(|rest| rest.trim().parse().ok())
}

/// Ten thousand concurrent connections through the reactor: a separate
/// `camp-loadgen` process multiplexes 10k connections over 8 threads
/// (`--threads`), the run completes with at most a sliver of dial-storm
/// casualties, and the server accounts for every accept. Skips where
/// RLIMIT_NOFILE cannot hold one fd per connection plus headroom in each
/// process. Each of the two workers accepts from its own SO_REUSEPORT
/// listener.
#[test]
fn ten_thousand_connection_soak_over_the_reactor() {
    let needed = SOAK_CONNS as u64 + 512;
    match max_open_files() {
        Some(limit) if limit >= needed => {}
        Some(limit) => {
            eprintln!(
                "skipping 10k-connection soak: RLIMIT_NOFILE soft limit {limit} < {needed} needed"
            );
            return;
        }
        None => {
            eprintln!("skipping 10k-connection soak: cannot read /proc/self/limits");
            return;
        }
    }

    let server = start(ServerOptions {
        max_conns: 0, // unlimited: the soak itself is the cap test's opposite
        workers: 2,
        ..base_options()
    });
    let addr = server.local_addr();

    let out = std::env::temp_dir().join(format!("camp-soak-{}.json", std::process::id()));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_camp-loadgen"))
        .args([
            "--addr",
            &addr.to_string(),
            "--connections",
            &SOAK_CONNS.to_string(),
            "--threads",
            "8",
            "--pipeline",
            "4",
            "--keys",
            "500",
            "--value-bytes",
            "64",
            "--duration-secs",
            "5",
            "--warmup-secs",
            "2",
            "--retries",
            "3",
            "--out",
            out.to_str().expect("temp path is utf-8"),
        ])
        .status()
        .expect("spawn camp-loadgen");
    assert!(status.success(), "camp-loadgen failed: {status}");

    let report = std::fs::read_to_string(&out).expect("loadgen report");
    let _ = std::fs::remove_file(&out);
    // The report is this repo's own fixed JSON shape; substring checks are
    // enough to pin the soak's health without a JSON parser.
    assert!(
        report.contains("\"connections\": 10000"),
        "report lost the connection count:\n{report}"
    );
    let field = |name: &str| -> u64 {
        report
            .split(&format!("\"{name}\": "))
            .nth(1)
            .and_then(|rest| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse()
                    .ok()
            })
            .unwrap_or_else(|| panic!("report missing {name}:\n{report}"))
    };
    let total_ops = field("total_ops");
    let errors = field("errors");
    assert!(total_ops > 0, "soak completed zero ops:\n{report}");
    // A dial storm of 10k SYNs against a 128-deep accept backlog on one
    // core loses a few handshakes to kernel retransmit backoff; what the
    // reactor owes is that essentially everything that connects is
    // served. Bound the casualty rate instead of demanding zero.
    assert!(
        (errors as f64) < (total_ops as f64) * 0.005,
        "soak error rate too high: {errors} errors / {total_ops} ops:\n{report}"
    );

    // Every connection the soak held was accepted and accounted: 10k
    // workload connections, the prefill connection, the stats probe
    // itself (counted at accept, before the snapshot renders), plus
    // slack for storm re-dials.
    let opened = stat_value(addr, "connections_opened").expect("stats detail");
    let floor = SOAK_CONNS as u64 + 2;
    assert!(
        (floor..floor + 200).contains(&opened),
        "connections_opened {opened} outside [{floor}, {})",
        floor + 200
    );

    let report = server.shutdown_with_drain(Duration::from_secs(5));
    assert!(report.is_clean(), "drain not clean: {report:?}");
}

/// An explicit two-worker reactor pins connections to workers by accept
/// order; concurrent conversations on many connections never cross
/// streams, and all of them drain cleanly.
#[test]
fn multi_worker_reactor_keeps_conversations_isolated() {
    let server = start(ServerOptions {
        workers: 2,
        ..base_options()
    });
    let addr = server.local_addr();

    let mut conns: Vec<(BufReader<TcpStream>, TcpStream)> = (0..16)
        .map(|_| {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            (BufReader::new(stream.try_clone().unwrap()), stream)
        })
        .collect();

    // Interleave: write every connection's set first, then collect all the
    // replies, then the same for gets — forcing both workers to hold many
    // in-flight conversations at once.
    for (i, (_, writer)) in conns.iter_mut().enumerate() {
        let value = format!("value-{i}");
        let command = format!("set key-{i} 0 0 {}\r\n{value}\r\n", value.len());
        writer.write_all(command.as_bytes()).unwrap();
    }
    for (reader, _) in conns.iter_mut() {
        assert_eq!(read_reply_line(reader), "STORED");
    }
    for (i, (_, writer)) in conns.iter_mut().enumerate() {
        writer
            .write_all(format!("get key-{i}\r\n").as_bytes())
            .unwrap();
    }
    for (i, (reader, _)) in conns.iter_mut().enumerate() {
        let value = format!("value-{i}");
        assert_eq!(
            read_reply_line(reader),
            format!("VALUE key-{i} 0 {}", value.len())
        );
        assert_eq!(read_reply_line(reader), value);
        assert_eq!(read_reply_line(reader), "END");
    }
    drop(conns);

    let report = server.shutdown_with_drain(Duration::from_secs(5));
    assert!(report.is_clean(), "drain not clean: {report:?}");
}
