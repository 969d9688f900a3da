//! # jns-obs
//!
//! The observability layer of the J&s runtime: everything the paper's
//! §6.3-style evaluation needs to *measure* the system — without pulling
//! in a single external dependency.
//!
//! Three pieces, used together by `jns-eval`, `jns-vm`, `jns-serve`, and
//! the `jns` CLI:
//!
//! - **[`Histogram`]** — log-bucketed (HDR-style) duration/size
//!   histograms over a fixed-size counter array. Recording is O(1),
//!   merging is element-wise addition (per-worker shards combine into one
//!   pool histogram losslessly), and percentile queries carry a ≤ 6.25%
//!   quantisation bound. `jns-serve` records per-request queue-wait and
//!   execution time per worker and merges at shutdown.
//! - **[`TraceBuffer`] / [`TraceEvent`]** — bounded, timestamped,
//!   structured event buffers (front-end phases, request start/end, GC
//!   runs, inline-cache miss resolutions) drained to JSON Lines via
//!   [`trace::jsonl`] and read back by its inverse [`trace::parse_jsonl`],
//!   the one reader behind `obs-check trace`, `jns trace-report` and the
//!   tests. Every runtime hook is a branch on an `Option` sink: tracing
//!   off means no buffer, no allocation, and byte-identical outputs and
//!   statistics.
//! - **[`RunProfile`]** — stable-schema (`jns-profile/1`) machine-readable
//!   profile export: flat counters, per-chunk instruction counts, per-site
//!   IC hit/miss attribution, histograms, and (optionally) the sampling
//!   profiler's collapsed stacks, for offline analysis.
//! - **[`stats`] / [`bench`]** — the measurement discipline behind
//!   `jns bench`: repeated-run sampling with warmup, robust
//!   median/min/MAD summaries, and the versioned `jns-bench/2` document
//!   each measured suite is written to, whose medians the suite's
//!   same-run gates compare.
//!
//! The [`json`] module is the self-contained writer/parser backing the
//! schemas (and the `obs-check` CI validator).

#![warn(missing_docs)]

pub mod bench;
pub mod hist;
pub mod json;
pub mod profile;
pub mod stats;
pub mod trace;

pub use bench::{validate_bench, BenchDoc, BenchEntry, BenchEnv, BENCH_SCHEMA};
pub use hist::Histogram;
pub use json::Json;
pub use profile::{
    folded_lines, validate_folded, validate_profile, IcSiteProfile, ProfileSamples, RunProfile,
    PROFILE_SCHEMA,
};
pub use stats::{mad, median, sample_us, SampleConfig, Summary};
pub use trace::{
    dropped_warning, jsonl, merge_events, parse_jsonl, IcKind, TimedEvent, TraceBuffer, TraceEvent,
    DEFAULT_TRACE_CAP, GC_KINDS, TRACE_SCHEMA,
};
