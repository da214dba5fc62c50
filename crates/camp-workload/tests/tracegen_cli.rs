//! End-to-end tests of the `tracegen` binary.

use std::path::PathBuf;
use std::process::Command;

fn tracegen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracegen"))
}

/// A fresh, empty directory owned by one test of one test process, so
/// tests running in parallel (or concurrent runs of the suite) never
/// share or delete each other's files.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("camp-tracegen-cli-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn generate_then_info_roundtrip() {
    let dir = scratch_dir("generate_then_info_roundtrip");
    let path = dir.join("cli.trace");

    let output = tracegen()
        .args([
            "generate",
            "--out",
            path.to_str().unwrap(),
            "--members",
            "500",
            "--requests",
            "5000",
            "--seed",
            "7",
        ])
        .output()
        .expect("run tracegen generate");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("wrote 5000 rows"), "{stdout}");
    assert!(stdout.contains("skew"), "{stdout}");

    let output = tracegen()
        .args(["info", path.to_str().unwrap()])
        .output()
        .expect("run tracegen info");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("requests          : 5000"), "{stdout}");
    assert!(stdout.contains("distinct costs    : 3"), "{stdout}");
    assert!(stdout.contains("costs stable"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evolving_generates_disjoint_trace_files() {
    let dir = scratch_dir("evolving_generates_disjoint_trace_files");
    let path = dir.join("evolving.trace");
    let output = tracegen()
        .args([
            "evolving",
            "--out",
            path.to_str().unwrap(),
            "--traces",
            "3",
            "--members",
            "200",
            "--requests",
            "1000",
        ])
        .output()
        .expect("run tracegen evolving");
    assert!(output.status.success(), "{output:?}");
    let trace = camp_workload::Trace::load(&path).expect("readable trace");
    assert_eq!(trace.len(), 3_000);
    let ids: std::collections::HashSet<u32> = trace.iter().map(|r| r.trace_id).collect();
    assert_eq!(ids, [0u32, 1, 2].into_iter().collect());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_fails_with_help() {
    let output = tracegen().output().expect("run tracegen");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));

    let output = tracegen()
        .args(["generate"]) // missing --out
        .output()
        .expect("run tracegen generate");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--out is required"));

    let output = tracegen()
        .args(["generate", "--out", "/tmp/x", "--workload", "nope"])
        .output()
        .expect("run tracegen generate");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown workload"));
}
