//! The bench driver and serve telemetry, end to end through the real
//! binaries (`jns`, `obs-check`):
//!
//! - **`bench --out-dir` creates a missing directory** and writes a
//!   suite that `obs-check bench` accepts. It fails before measuring
//!   anything when it cannot create the directory, or when a `--suite`
//!   is unknown, even one named after a valid suite.
//! - **Dropped trace events surface.** A serve run whose per-worker
//!   trace buffers are too small reports a non-zero drop count in its
//!   telemetry instead of failing silently.
//!
//! The same-run gates `jns bench` checks are unit-tested in
//! `bench::workloads`; no test here times a gated suite, because a debug
//! build's timings say nothing about a release build's.

use jns_core::{Backend, Compiler};
use jns_serve::{serve_batch, ServeConfig};
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jns-bench-harness-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `jns bench --suite serve [extra] --repeat 1 --warmup 0 --out-dir DIR`.
fn bench_serve_suite_into(out_dir: &std::path::Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_jns"))
        .args(["bench", "--suite", "serve"])
        .args(extra)
        .args(["--repeat", "1", "--warmup", "0", "--out-dir"])
        .arg(out_dir)
        .output()
        .expect("spawn jns")
}

#[test]
fn bench_creates_a_missing_out_dir_before_measuring() {
    let dir = temp_dir("outdir");
    let nested = dir.join("a").join("b");
    let out = bench_serve_suite_into(&nested, &[]);
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

    // A directory under a regular file cannot be created, and `nope` is
    // no suite: exit 1, and no suite may have started.
    let file = dir.join("file");
    std::fs::write(&file, "").expect("write");
    let fresh = dir.join("fresh");
    for (out_dir, extra) in [
        (file.join("sub"), &[][..]),
        (fresh.clone(), &["--suite", "nope"][..]),
    ] {
        let out = bench_serve_suite_into(&out_dir, extra);
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("suite serve"), "measured first: {stderr}");
    }
    assert!(!fresh.exists(), "created {fresh:?} for an unknown suite");
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
