//! The performance-trajectory harness, end to end through the real
//! binaries (`jns`, `obs-check`):
//!
//! - **The regression gate sees planted regressions.** `jns bench
//!   --compare` exits 0 on identical documents, 2 when a benchmark's
//!   samples are scaled far past tolerance, 3 when a `--gate FAST:SLOW`
//!   pair's fast arm is not faster, and 1 on malformed input or an
//!   unknown gate name — the protocol CI's warn-vs-fail logic relies on.
//! - **`bench --out-dir` creates a missing directory**, writes a suite
//!   that `obs-check bench` accepts, and fails before measuring anything
//!   when it cannot create the directory.
//! - **Dropped trace events surface.** A serve run whose per-worker
//!   trace buffers are too small reports a non-zero drop count in its
//!   telemetry instead of failing silently.

use jns_core::{Backend, Compiler};
use jns_obs::{BenchDoc, BenchEntry};
use jns_serve::{serve_batch, ServeConfig};
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jns-bench-harness-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_doc(dir: &std::path::Path, name: &str, samples: &[u64]) -> PathBuf {
    write_entries(dir, name, &[("lambda_translate/vm", samples)])
}

/// Writes a suite document with one entry per `(name, samples)` pair.
fn write_entries(dir: &std::path::Path, file: &str, entries: &[(&str, &[u64])]) -> PathBuf {
    let mut doc = BenchDoc::new("vm", entries[0].1.len() as u32, 1);
    for (name, samples) in entries {
        doc.benchmarks.push(BenchEntry {
            name: name.to_string(),
            unit: "us",
            workload: "lambda".into(),
            backend: "vm".into(),
            samples: samples.to_vec(),
        });
    }
    let path = dir.join(file);
    std::fs::write(&path, doc.to_json() + "\n").expect("write doc");
    path
}

fn compare(old: &std::path::Path, new: &std::path::Path) -> i32 {
    compare_with(old, new, &[])
}

/// The exit code of `jns bench --compare OLD NEW` with `extra` arguments.
fn compare_with(old: &std::path::Path, new: &std::path::Path, extra: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_jns"))
        .args(["bench", "--compare"])
        .arg(old)
        .arg(new)
        .args(extra)
        .output()
        .expect("spawn jns")
        .status
        .code()
        .expect("exit code")
}

#[test]
fn compare_gate_distinguishes_clean_regressed_and_malformed() {
    let dir = temp_dir("gate");
    let base = write_doc(&dir, "base.json", &[1000, 1010, 990, 1000, 1005]);
    // Within the 25% band plus noise: clean.
    let wobble = write_doc(&dir, "wobble.json", &[1100, 1110, 1090, 1100, 1105]);
    // A planted 3× slowdown: far past any tolerance.
    let slow = write_doc(&dir, "slow.json", &[3000, 3030, 2970, 3000, 3015]);
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not json\n").expect("write");

    assert_eq!(compare(&base, &base), 0, "identical documents are clean");
    assert_eq!(compare(&base, &wobble), 0, "noise stays under the band");
    assert_eq!(compare(&base, &slow), 2, "planted regression must gate");
    assert_eq!(compare(&slow, &base), 0, "improvements never gate");
    assert_eq!(compare(&base, &garbage), 1, "malformed input is an error");

    // A gate pairs two arms of the new document.
    let arms = write_entries(
        &dir,
        "arms.json",
        &[("fast", &[100, 101, 99]), ("slow", &[200, 201, 199])],
    );
    let gate = |pair: &str| compare_with(&arms, &arms, &["--gate", pair]);
    assert_eq!(gate("fast:slow"), 0, "the fast arm is faster");
    assert_eq!(gate("slow:fast"), 3, "a swapped pair must fail hard");
    assert_eq!(gate("fast:nope"), 1, "an unknown arm is an error");
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_serve_suite_into(out_dir: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_jns"))
        .args([
            "bench", "--suite", "serve", "--repeat", "1", "--warmup", "0",
        ])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("spawn jns")
}

#[test]
fn bench_creates_a_missing_out_dir_before_measuring() {
    let dir = temp_dir("outdir");
    let nested = dir.join("a").join("b");
    let out = bench_serve_suite_into(&nested);
    assert!(out.status.success(), "bench must create {nested:?}");
    let check = Command::new(env!("CARGO_BIN_EXE_obs-check"))
        .arg("bench")
        .arg(nested.join("BENCH_serve.json"))
        .output()
        .expect("spawn obs-check");
    assert!(
        check.status.success(),
        "obs-check rejects the suite: {check:?}"
    );

    // A directory under a regular file cannot be created: exit 1, and
    // no suite may have started.
    let file = dir.join("file");
    std::fs::write(&file, "").expect("write");
    let out = bench_serve_suite_into(&file.join("sub"));
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("suite serve"), "measured first: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn undersized_trace_buffers_surface_their_drop_count() {
    // A heap-limited churn program emits one GC event per collection;
    // a 2-event buffer per worker cannot hold a request's worth.
    let src = "class W {
                 class Cell { int v = 0; }
                 class Junk { }
               }
               main {
                 final W.Cell c = new W.Cell();
                 while (c.v < 2000) {
                   final W.Junk j = new W.Junk();
                   c.v = c.v + 1;
                 }
                 print c.v;
               }";
    let compiled = Compiler::new()
        .with_backend(Backend::Vm)
        .with_heap_limit(64)
        .compile(src)
        .expect("compiles");
    let cfg = ServeConfig {
        workers: 2,
        trace: true,
        trace_cap: 2,
        ..ServeConfig::default()
    };
    let report = serve_batch(&compiled, &cfg, 8);
    assert!(report.responses.iter().all(|r| r.is_ok()));
    assert!(
        report.telemetry.trace_dropped > 0,
        "tiny buffers must report drops, not lose them silently"
    );
    // The kept events still respect the cap.
    assert!(report.telemetry.trace_events.len() <= 2 * cfg.workers);
}
