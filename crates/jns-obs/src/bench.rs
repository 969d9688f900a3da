//! The `jns-bench/2` benchmark-trajectory schema: versioned JSON
//! documents that pin a suite of measured workloads, plus the
//! document-level comparison the CI regression gate runs.
//!
//! Schema (`jns-bench/2`):
//!
//! ```json
//! {
//!   "schema": "jns-bench/2",
//!   "suite": "vm",
//!   "env": {"os": "linux", "arch": "x86_64", "cpus": 4, "debug": false},
//!   "config": {"repeats": 5, "warmup": 1},
//!   "benchmarks": [
//!     {"name": "lambda_translate/vm", "unit": "us", "workload": "lambda",
//!      "backend": "vm", "samples": [812, 799, 805, 801, 808],
//!      "median": 805, "min": 799, "mad": 4},
//!     …
//!   ]
//! }
//! ```
//!
//! Every benchmark carries its raw per-run samples (lower is better;
//! the unit is the entry's convention, `"us"` throughout the repo), so a
//! comparison recomputes the robust statistics instead of trusting the
//! producer.

use crate::json::Json;
use crate::stats::{self, Summary, Tolerance, Verdict};

/// Schema identifier stamped on every trajectory document.
pub const BENCH_SCHEMA: &str = "jns-bench/2";

/// Where a suite was measured — enough context to judge whether two
/// documents are comparable at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEnv {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available parallelism when measured.
    pub cpus: u64,
    /// Whether the producing binary was a debug build.
    pub debug: bool,
}

impl BenchEnv {
    /// The environment of the current process.
    pub fn current() -> BenchEnv {
        BenchEnv {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            debug: cfg!(debug_assertions),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("os", self.os.as_str().into()),
            ("arch", self.arch.as_str().into()),
            ("cpus", self.cpus.into()),
            ("debug", self.debug.into()),
        ])
    }
}

/// One measured benchmark: a name, the workload/backend it measured,
/// and its per-run samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Stable benchmark id, `workload/variant` by convention — the key
    /// the comparison matches on.
    pub name: String,
    /// Sample unit (`"us"` for wall-clock microseconds).
    pub unit: &'static str,
    /// The corpus workload measured (e.g. `"lambda"`, `"gc_churn"`).
    pub workload: String,
    /// The engine measured (`"vm"`, `"treewalk"`, `"rt"`, `"serve"`).
    pub backend: String,
    /// Per-run samples, lower is better.
    pub samples: Vec<u64>,
}

impl BenchEntry {
    /// The robust summary of this entry's samples.
    pub fn summary(&self) -> Summary {
        Summary::of(self.samples.clone())
    }

    fn to_json(&self) -> Json {
        let s = self.summary();
        Json::obj(vec![
            ("name", self.name.as_str().into()),
            ("unit", self.unit.into()),
            ("workload", self.workload.as_str().into()),
            ("backend", self.backend.as_str().into()),
            (
                "samples",
                Json::Arr(self.samples.iter().map(|&v| v.into()).collect()),
            ),
            ("median", s.median.into()),
            ("min", s.min.into()),
            ("mad", s.mad.into()),
        ])
    }
}

/// One suite's trajectory document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Suite id (`"vm"`, `"dispatch"`, `"gc"`, `"serve"`, `"paper"`).
    pub suite: String,
    /// Measurement environment.
    pub env: BenchEnv,
    /// Measured passes per benchmark.
    pub repeats: u32,
    /// Unmeasured warmup passes per benchmark.
    pub warmup: u32,
    /// The measured benchmarks, in a stable producer-chosen order.
    pub benchmarks: Vec<BenchEntry>,
}

impl BenchDoc {
    /// A document for `suite` measured in the current environment.
    pub fn new(suite: &str, repeats: u32, warmup: u32) -> BenchDoc {
        BenchDoc {
            suite: suite.to_string(),
            env: BenchEnv::current(),
            repeats,
            warmup,
            benchmarks: Vec::new(),
        }
    }

    /// Renders the stable-schema JSON document (one line, no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("schema", BENCH_SCHEMA.into()),
            ("suite", self.suite.as_str().into()),
            ("env", self.env.to_json()),
            (
                "config",
                Json::obj(vec![
                    ("repeats", self.repeats.into()),
                    ("warmup", self.warmup.into()),
                ]),
            ),
            (
                "benchmarks",
                Json::Arr(self.benchmarks.iter().map(BenchEntry::to_json).collect()),
            ),
        ])
        .to_string()
    }
}

/// Validates that `doc` is a well-formed `jns-bench/2` document.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_bench(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(BENCH_SCHEMA) {
        return Err(format!("schema must be {BENCH_SCHEMA:?}"));
    }
    if doc.get("suite").and_then(Json::as_str).is_none() {
        return Err("missing string `suite`".to_string());
    }
    let env = doc.get("env").ok_or("missing `env`")?;
    for key in ["os", "arch"] {
        if env.get(key).and_then(Json::as_str).is_none() {
            return Err(format!("env needs string `{key}`"));
        }
    }
    if env.get("cpus").and_then(Json::as_u64).is_none() {
        return Err("env needs numeric `cpus`".to_string());
    }
    let cfg = doc.get("config").ok_or("missing `config`")?;
    for key in ["repeats", "warmup"] {
        if cfg.get(key).and_then(Json::as_u64).is_none() {
            return Err(format!("config needs numeric `{key}`"));
        }
    }
    let benches = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or("missing `benchmarks` array")?;
    if benches.is_empty() {
        return Err("`benchmarks` must not be empty".to_string());
    }
    for b in benches {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or("benchmark entries need string `name`")?;
        for key in ["unit", "workload", "backend"] {
            if b.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("benchmark `{name}` needs string `{key}`"));
            }
        }
        let samples = b
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("benchmark `{name}` needs `samples`"))?;
        if samples.is_empty() || samples.iter().any(|s| s.as_u64().is_none()) {
            return Err(format!(
                "benchmark `{name}` needs at least one numeric sample"
            ));
        }
        for key in ["median", "min", "mad"] {
            if b.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("benchmark `{name}` needs numeric `{key}`"));
            }
        }
    }
    Ok(())
}

/// One benchmark's comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareLine {
    /// Benchmark name (the matching key).
    pub name: String,
    /// Baseline summary, recomputed from the old document's samples.
    pub old: Summary,
    /// New summary, recomputed from the new document's samples.
    pub new: Summary,
    /// Median delta as a signed fraction of the old median
    /// (`0.10` = 10% slower).
    pub delta_frac: f64,
    /// The tolerance-aware verdict.
    pub verdict: Verdict,
}

/// The outcome of comparing two `jns-bench/2` documents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompareReport {
    /// One row per benchmark present in both documents, in the new
    /// document's order.
    pub lines: Vec<CompareLine>,
    /// Benchmarks only in the baseline (removed or renamed).
    pub missing_in_new: Vec<String>,
    /// Benchmarks only in the new document (added).
    pub added_in_new: Vec<String>,
}

impl CompareReport {
    /// How many compared benchmarks regressed.
    pub fn regressions(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| l.verdict == Verdict::Regressed)
            .count()
    }
}

/// Extracts `(name, samples)` pairs from a validated document.
fn entries(doc: &Json) -> Result<Vec<(String, Vec<u64>)>, String> {
    let benches = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or("missing `benchmarks` array")?;
    benches
        .iter()
        .map(|b| {
            let name = b
                .get("name")
                .and_then(Json::as_str)
                .ok_or("benchmark entry without `name`")?
                .to_string();
            let samples = b
                .get("samples")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("benchmark `{name}` without `samples`"))?
                .iter()
                .map(|s| s.as_u64().ok_or_else(|| format!("`{name}`: bad sample")))
                .collect::<Result<Vec<u64>, String>>()?;
            Ok((name, samples))
        })
        .collect()
}

/// Compares two parsed `jns-bench/2` documents benchmark by benchmark
/// (matched on `name`; statistics recomputed from raw samples).
///
/// # Errors
///
/// Returns the first schema violation of either document — callers must
/// treat that differently from a regression (a broken artifact fails
/// CI even when the gate itself is warn-only).
pub fn compare_docs(old: &Json, new: &Json, tol: &Tolerance) -> Result<CompareReport, String> {
    validate_bench(old).map_err(|e| format!("baseline: {e}"))?;
    validate_bench(new).map_err(|e| format!("new: {e}"))?;
    let old_entries = entries(old)?;
    let new_entries = entries(new)?;
    let mut report = CompareReport::default();
    for (name, new_samples) in &new_entries {
        match old_entries.iter().find(|(n, _)| n == name) {
            Some((_, old_samples)) => {
                let old_s = Summary::of(old_samples.clone());
                let new_s = Summary::of(new_samples.clone());
                let verdict = stats::compare(&old_s, &new_s, tol);
                let delta_frac = if old_s.median > 0 {
                    (new_s.median as f64 - old_s.median as f64) / old_s.median as f64
                } else {
                    0.0
                };
                report.lines.push(CompareLine {
                    name: name.clone(),
                    old: old_s,
                    new: new_s,
                    delta_frac,
                    verdict,
                });
            }
            None => report.added_in_new.push(name.clone()),
        }
    }
    for (name, _) in &old_entries {
        if !new_entries.iter().any(|(n, _)| n == name) {
            report.missing_in_new.push(name.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc_with(samples: &[u64]) -> String {
        let mut d = BenchDoc::new("vm", samples.len() as u32, 1);
        d.benchmarks.push(BenchEntry {
            name: "lambda_translate/vm".into(),
            unit: "us",
            workload: "lambda".into(),
            backend: "vm".into(),
            samples: samples.to_vec(),
        });
        d.to_json()
    }

    #[test]
    fn bench_doc_round_trips_through_validation() {
        let text = doc_with(&[100, 102, 98, 101, 99]);
        let doc = parse(&text).unwrap();
        validate_bench(&doc).unwrap();
        assert_eq!(
            doc.get("benchmarks")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn validation_rejects_v1_and_empty_suites() {
        let v1 = parse(r#"{"schema":"jns-bench/1","workload":"x"}"#).unwrap();
        assert!(validate_bench(&v1).is_err());
        let empty = parse(&BenchDoc::new("vm", 3, 1).to_json()).unwrap();
        assert!(validate_bench(&empty).is_err());
    }

    #[test]
    fn compare_detects_synthetic_regression_and_ignores_noise() {
        let tol = Tolerance {
            frac: 0.25,
            mad_sigmas: 4.0,
            abs_floor_us: 10,
        };
        let base = parse(&doc_with(&[1000, 1010, 990, 1000, 1005])).unwrap();
        let wobble = parse(&doc_with(&[1100, 1110, 1090, 1100, 1105])).unwrap();
        let slow = parse(&doc_with(&[3000, 3030, 2970, 3000, 3015])).unwrap();

        let ok = compare_docs(&base, &wobble, &tol).unwrap();
        assert_eq!(ok.regressions(), 0);
        assert_eq!(ok.lines[0].verdict, Verdict::Unchanged);

        let bad = compare_docs(&base, &slow, &tol).unwrap();
        assert_eq!(bad.regressions(), 1);
        assert_eq!(bad.lines[0].verdict, Verdict::Regressed);
        assert!(bad.lines[0].delta_frac > 1.9, "delta is ~2x");
    }

    #[test]
    fn compare_reports_membership_changes() {
        let tol = Tolerance::default();
        let mut old = BenchDoc::new("vm", 1, 0);
        old.benchmarks.push(BenchEntry {
            name: "gone".into(),
            unit: "us",
            workload: "w".into(),
            backend: "vm".into(),
            samples: vec![10],
        });
        let mut new = BenchDoc::new("vm", 1, 0);
        new.benchmarks.push(BenchEntry {
            name: "fresh".into(),
            unit: "us",
            workload: "w".into(),
            backend: "vm".into(),
            samples: vec![10],
        });
        let old = parse(&old.to_json()).unwrap();
        let new = parse(&new.to_json()).unwrap();
        let r = compare_docs(&old, &new, &tol).unwrap();
        assert_eq!(r.missing_in_new, vec!["gone".to_string()]);
        assert_eq!(r.added_in_new, vec!["fresh".to_string()]);
        assert!(r.lines.is_empty());
    }

    #[test]
    fn compare_rejects_malformed_documents() {
        let tol = Tolerance::default();
        let good = parse(&doc_with(&[10])).unwrap();
        let bad = parse(r#"{"schema":"jns-bench/2"}"#).unwrap();
        assert!(compare_docs(&bad, &good, &tol).is_err());
        assert!(compare_docs(&good, &bad, &tol).is_err());
    }
}
