//! Property tests for the log-bucketed histogram: the merge law the
//! serving layer's per-worker shards rely on, the percentile
//! quantisation bound, and exactness of the scalar accessors.

use jns_obs::Histogram;
use proptest::prelude::*;

/// Mixes small exact-region values, mid-range, and huge samples so the
/// linear buckets, several octaves, and saturation paths all get hit.
fn sample_from(seed: u64) -> u64 {
    match seed % 5 {
        0 => seed % 16,                                   // linear region
        1 => seed % 4096,                                 // a few octaves
        2 => seed % 1_000_000,                            // microsecond-latency shaped
        3 => (1u64 << 40).wrapping_add(seed % 1_000_000), // deep octave
        _ => seed,                                        // anything, up to u64::MAX
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-shard histograms is *identical* to recording the
    /// union of all samples into one histogram — same counters, same
    /// scalar summaries, same percentiles at every probe point. This is
    /// the invariant that makes `jns-serve`'s per-worker shards lossless.
    #[test]
    fn merge_of_shards_equals_histogram_of_union(
        seeds in prop::collection::vec(any::<u64>(), 0..200),
        n_shards in 1usize..6,
    ) {
        let samples: Vec<u64> = seeds.iter().map(|&s| sample_from(s)).collect();
        let mut union = Histogram::new();
        let mut shards: Vec<Histogram> = (0..n_shards).map(|_| Histogram::new()).collect();
        for (i, &v) in samples.iter().enumerate() {
            union.record(v);
            shards[i % n_shards].record(v);
        }
        let mut merged = Histogram::new();
        for s in &shards {
            merged.merge(s);
        }
        prop_assert_eq!(&merged, &union, "merged shards != union histogram");
        for p in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            prop_assert_eq!(merged.percentile(p), union.percentile(p));
        }
    }

    /// The documented quantisation bound: for any sample set and any
    /// percentile, the reported value `r` and the true (sorted-rank)
    /// percentile `t` satisfy `t ≤ r ≤ t + t/16 + 1`.
    #[test]
    fn percentile_is_within_relative_error_bound(
        seeds in prop::collection::vec(any::<u64>(), 1..200),
        p_raw in 0u64..=1000,
    ) {
        let samples: Vec<u64> = seeds.iter().map(|&s| sample_from(s)).collect();
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let p = p_raw as f64 / 10.0; // 0.0 ..= 100.0
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        let t = sorted[rank - 1];
        let r = h.percentile(p);
        prop_assert!(r >= t, "percentile({p}) = {r} under true value {t}");
        let bound = t.saturating_add(t / 16).saturating_add(1);
        prop_assert!(r <= bound, "percentile({p}) = {r} over bound {bound} (t = {t})");
    }

    /// `count`, `sum`, `min`, and `max` are exact (not quantised).
    #[test]
    fn scalar_accessors_are_exact(
        seeds in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let samples: Vec<u64> = seeds.iter().map(|&s| sample_from(s)).collect();
        let mut h = Histogram::new();
        let mut sum = 0u64;
        for &v in &samples {
            h.record(v);
            sum = sum.saturating_add(v);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum(), sum);
        prop_assert_eq!(h.min(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
    }

    /// The JSON encoding round-trips through the parser with the bucket
    /// counts intact (what a profile reader gets back).
    #[test]
    fn json_round_trip_preserves_buckets(
        seeds in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        let mut h = Histogram::new();
        for &s in &seeds {
            h.record(sample_from(s));
        }
        let doc = jns_obs::json::parse(&h.to_json().to_string()).expect("encodes valid JSON");
        prop_assert_eq!(doc.get("count").and_then(jns_obs::Json::as_u64), Some(h.count()));
        prop_assert_eq!(doc.get("max").and_then(jns_obs::Json::as_u64), Some(h.max()));
        let buckets = doc.get("buckets").and_then(jns_obs::Json::as_arr).expect("buckets");
        let expected = h.nonzero_buckets();
        prop_assert_eq!(buckets.len(), expected.len());
        for (pair, (idx, n)) in buckets.iter().zip(expected) {
            let pair = pair.as_arr().expect("bucket pair");
            prop_assert_eq!(pair[0].as_u64(), Some(idx as u64));
            prop_assert_eq!(pair[1].as_u64(), Some(n));
        }
    }
}
