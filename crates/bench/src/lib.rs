//! # bench
//!
//! The benchmark harness for every table and figure of the paper's
//! evaluation (§7). Each binary prints the corresponding table at full
//! size; [`workloads`] holds the same workloads at reduced sizes as
//! named entries of the `jns bench` suites, which time them with warmup
//! passes and repeated runs.
//!
//! | Artifact | Binary | `jns bench` entries |
//! |----------|--------|---------------------|
//! | Table 1 (jolden) | `table1` | `paper`: `table1_<kernel>/<strategy>` |
//! | Table 2 (tree traversal) | `table2` | `paper`: `table2_<row>/shared_family` |
//! | §7.3 / Fig. 20 (lambda compiler) | `lambda_stats` | `vm`: `lambda_translate`, `lambda_compile`, `lambda_lower` |
//! | §7.4 (CorONA evolution) | `corona_evolution` | — |
//! | §6.3 ablations | — | `dispatch`: `dispatch`, `viewmemo_*` |
//! | §2.4 serving batch | — | `serve`: `serve_batch/{pool4,pool1,fresh_vm}` |

#![warn(missing_docs)]

pub mod workloads;

use std::time::Instant;

/// Times a closure, returning (result, seconds).
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Formats seconds like the paper's tables (two decimals).
pub fn fmt_secs(s: f64) -> String {
    if s < 0.0001 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 0.1 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}
