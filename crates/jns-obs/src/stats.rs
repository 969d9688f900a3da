//! Robust summary statistics and repeated-run sampling for `jns bench`.
//!
//! Benchmark numbers from shared CI runners are noisy; a single timed
//! pass says little. This module provides the measurement discipline of
//! the `jns bench` driver:
//!
//! - [`sample_us`] — run a workload `warmup` times unmeasured (to fill
//!   inline caches, lazy tables, and the allocator), then `runs` times
//!   measured, returning per-run wall-clock microseconds.
//! - [`median`] / [`min`] / [`mad`] — order statistics that ignore
//!   outliers: the median is the reported number (and what a same-run
//!   gate compares), the MAD (median absolute deviation) is the noise
//!   scale.
//!
//! Nothing here compares one run with another: five samples per run
//! cannot support a cross-run verdict on a shared host, so performance
//! claims pair two arms measured in the same run.

use std::time::Instant;

/// How many runs to sample and how many unmeasured warmup passes to
/// discard first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Unmeasured passes before sampling begins (cache/JIT-style warmup;
    /// for the VM this fills inline caches, layouts, and memo tables).
    pub warmup: u32,
    /// Measured passes; each contributes one sample.
    pub runs: u32,
}

/// Runs `f` `cfg.warmup` times unmeasured, then `cfg.runs` times
/// measured, returning one wall-clock duration in microseconds per
/// measured run (at least one run is always measured).
pub fn sample_us(cfg: SampleConfig, mut f: impl FnMut()) -> Vec<u64> {
    for _ in 0..cfg.warmup {
        f();
    }
    let runs = cfg.runs.max(1);
    let mut out = Vec::with_capacity(runs as usize);
    for _ in 0..runs {
        let start = Instant::now();
        f();
        out.push(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
    }
    out
}

/// The median of `xs` (average of the two middle elements for even
/// lengths, rounding down). Returns 0 for an empty slice.
pub fn median(xs: &[u64]) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        // Midpoint without overflow.
        let a = v[n / 2 - 1];
        let b = v[n / 2];
        a / 2 + b / 2 + (a % 2 + b % 2) / 2
    }
}

/// The smallest sample (0 when empty).
pub fn min(xs: &[u64]) -> u64 {
    xs.iter().copied().min().unwrap_or(0)
}

/// The median absolute deviation from the median: a robust noise scale
/// (unlike the standard deviation, one wild outlier barely moves it).
/// Returns 0 for slices shorter than 2.
pub fn mad(xs: &[u64]) -> u64 {
    if xs.len() < 2 {
        return 0;
    }
    let m = median(xs);
    let devs: Vec<u64> = xs.iter().map(|&x| x.abs_diff(m)).collect();
    median(&devs)
}

/// A benchmark's robust summary: the raw samples plus the three order
/// statistics a `jns-bench/2` entry records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Per-run samples, in run order (microseconds by convention).
    pub samples: Vec<u64>,
    /// Median sample — the reported number.
    pub median: u64,
    /// Smallest sample — the "quiet machine" bound.
    pub min: u64,
    /// Median absolute deviation — the noise scale.
    pub mad: u64,
}

impl Summary {
    /// Computes the summary of `samples`.
    pub fn of(samples: Vec<u64>) -> Summary {
        let (m, mn, md) = (median(&samples), min(&samples), mad(&samples));
        Summary {
            samples,
            median: m,
            min: mn,
            mad: md,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[3, 1, 2]), 2);
        assert_eq!(median(&[4, 1, 2, 3]), 2);
        assert_eq!(median(&[u64::MAX, u64::MAX]), u64::MAX);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        // One wild sample barely moves the MAD.
        assert_eq!(mad(&[100, 101, 99, 100, 5000]), 1);
        assert_eq!(mad(&[5]), 0);
    }

    #[test]
    fn sample_us_counts_runs_not_warmup() {
        let mut calls = 0u32;
        let samples = sample_us(SampleConfig { warmup: 2, runs: 3 }, || calls += 1);
        assert_eq!(samples.len(), 3);
        assert_eq!(calls, 5);
    }
}
