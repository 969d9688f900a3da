//! The `jns-bench/2` benchmark schema: versioned JSON documents that
//! record one run of a suite of measured workloads.
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
//! reader can recompute the robust statistics instead of trusting the
//! producer.

use crate::json::Json;
use crate::stats::Summary;

/// Schema identifier stamped on every suite document.
pub const BENCH_SCHEMA: &str = "jns-bench/2";

/// Where a suite was measured.
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
    /// Stable benchmark id, `workload/variant` by convention — the name
    /// a same-run gate refers to.
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

/// One suite's document: one run of every benchmark in the suite.
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
}
