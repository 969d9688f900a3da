//! Machine-readable run profiles with a stable JSON schema.
//!
//! A [`RunProfile`] aggregates everything a performance pass wants to
//! consume offline: the flat runtime counters, per-chunk executed-
//! instruction counts, per-site inline-cache hit/miss attribution, and
//! any latency histograms the producing layer collected. The JSON layout
//! is versioned ([`PROFILE_SCHEMA`]) and key order is stable, so offline
//! tools and the bench trajectory can parse profiles from older commits.
//!
//! Schema (`jns-profile/1`):
//!
//! ```json
//! {
//!   "schema": "jns-profile/1",
//!   "backend": "vm" | "treewalk" | "serve",
//!   "program": "<path or workload name>",
//!   "counters": {"steps": …, "allocs": …, …},
//!   "chunks": [{"name": "Class.method", "instructions": …}, …],
//!   "ic_sites": [{"kind": "get|set|call", "site": …, "name": …,
//!                 "hits": …, "misses": …, "entries": …}, …],
//!   "histograms": {"queue_wait_us": {…}, "exec_us": {…}},
//!   "samples": {"stride": …, "taken": …,
//!               "stacks": [{"stack": "main;Pair.map", "count": …}, …]}
//! }
//! ```
//!
//! The `samples` section is *optional* — it appears only when the run
//! had the VM's sampling profiler attached, so pre-existing profiles
//! (and profiler-off runs) are byte-identical to schema revision one.
//! Its `stacks` are collapsed call stacks (chunk names joined by `;`,
//! outermost first), the format flamegraph tooling consumes directly;
//! [`folded_lines`] renders them as a standalone folded file.

use crate::hist::Histogram;
use crate::json::Json;

/// Schema identifier stamped on every profile document.
pub const PROFILE_SCHEMA: &str = "jns-profile/1";

/// Hit/miss attribution for one inline-cache site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcSiteProfile {
    /// Site kind (`"get"`, `"set"`, `"call"`).
    pub kind: &'static str,
    /// Site index within its kind (matches trace `ic_miss` events).
    pub site: u32,
    /// Human-readable attribution: `chunk+pc op name`.
    pub name: String,
    /// Cache hits at this site.
    pub hits: u64,
    /// Misses (resolutions through the global tables).
    pub misses: u64,
    /// Distinct receiver views cached (polymorphism degree; a site with
    /// `entries == 1` is monomorphic, so a hit is one view compare).
    pub entries: u32,
}

impl IcSiteProfile {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", self.kind.into()),
            ("site", self.site.into()),
            ("name", self.name.as_str().into()),
            ("hits", self.hits.into()),
            ("misses", self.misses.into()),
            ("entries", self.entries.into()),
        ])
    }
}

/// The sampling profiler's aggregate: collapsed call stacks with hit
/// counts, plus the stride that produced them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSamples {
    /// Instructions between samples (a sample fires every `stride`
    /// executed VM instructions).
    pub stride: u64,
    /// Total samples taken (equals the sum of all stack counts).
    pub taken: u64,
    /// Collapsed stacks: chunk names joined by `;`, outermost first,
    /// with the number of samples whose stack collapsed to that line.
    /// Sorted by stack string for a deterministic document.
    pub stacks: Vec<(String, u64)>,
}

impl ProfileSamples {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("stride", self.stride.into()),
            ("taken", self.taken.into()),
            (
                "stacks",
                Json::Arr(
                    self.stacks
                        .iter()
                        .map(|(stack, count)| {
                            Json::obj(vec![
                                ("stack", stack.as_str().into()),
                                ("count", (*count).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Renders collapsed stacks as a folded-stack file — one
/// `stack;frames;joined count` line each, the input format of
/// `flamegraph.pl` / `inferno-flamegraph`.
pub fn folded_lines(stacks: &[(String, u64)]) -> String {
    let mut out = String::with_capacity(stacks.len() * 48);
    for (stack, count) in stacks {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&count.to_string());
        out.push('\n');
    }
    out
}

/// Validates folded-stack text: at least one line, each of the form
/// `frame[;frame…] count` with non-empty frames and a numeric count.
///
/// # Errors
///
/// Returns a description of the first malformed line (or emptiness).
pub fn validate_folded(text: &str) -> Result<(), String> {
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or(format!("line {}: expected `stack count`", i + 1))?;
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(format!("line {}: empty stack frame", i + 1));
        }
        if count.parse::<u64>().is_err() {
            return Err(format!("line {}: bad count `{count}`", i + 1));
        }
        lines += 1;
    }
    if lines == 0 {
        return Err("no samples (empty folded file)".to_string());
    }
    Ok(())
}

/// One run's (or one pool's) exportable profile.
#[derive(Debug, Default)]
pub struct RunProfile {
    /// Producing engine (`"vm"`, `"treewalk"`, `"serve"`).
    pub backend: String,
    /// The program (file path or internal workload name).
    pub program: String,
    /// Flat runtime counters, in insertion order.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-chunk executed-instruction counts, hottest first.
    pub chunks: Vec<(String, u64)>,
    /// Per-site inline-cache attribution.
    pub ic_sites: Vec<IcSiteProfile>,
    /// Named histograms (e.g. `queue_wait_us`, `exec_us`).
    pub histograms: Vec<(&'static str, Histogram)>,
    /// Sampling-profiler aggregate; `None` (the key is omitted) when
    /// the run had no sampler attached.
    pub samples: Option<ProfileSamples>,
}

impl RunProfile {
    /// Renders the stable-schema JSON document (one line, no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut pairs = vec![
            ("schema", PROFILE_SCHEMA.into()),
            ("backend", self.backend.as_str().into()),
            ("program", self.program.as_str().into()),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), (*v).into()))
                        .collect(),
                ),
            ),
            (
                "chunks",
                Json::Arr(
                    self.chunks
                        .iter()
                        .map(|(name, n)| {
                            Json::obj(vec![
                                ("name", name.as_str().into()),
                                ("instructions", (*n).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "ic_sites",
                Json::Arr(self.ic_sites.iter().map(IcSiteProfile::to_json).collect()),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.to_string(), h.to_json()))
                        .collect(),
                ),
            ),
        ];
        if let Some(s) = &self.samples {
            pairs.push(("samples", s.to_json()));
        }
        Json::obj(pairs).to_string()
    }
}

/// Validates that `doc` is a well-formed `jns-profile/1` document.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_profile(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(PROFILE_SCHEMA) {
        return Err(format!("schema must be {PROFILE_SCHEMA:?}"));
    }
    for key in ["backend", "program"] {
        if doc.get(key).and_then(Json::as_str).is_none() {
            return Err(format!("missing string field `{key}`"));
        }
    }
    let counters = doc.get("counters").ok_or("missing `counters`")?;
    if !counters.is_obj() {
        return Err("`counters` must be an object".to_string());
    }
    let chunks = doc
        .get("chunks")
        .and_then(Json::as_arr)
        .ok_or("missing `chunks` array")?;
    for c in chunks {
        if c.get("name").and_then(Json::as_str).is_none()
            || c.get("instructions").and_then(Json::as_u64).is_none()
        {
            return Err("chunk entries need `name` and `instructions`".to_string());
        }
    }
    let sites = doc
        .get("ic_sites")
        .and_then(Json::as_arr)
        .ok_or("missing `ic_sites` array")?;
    for s in sites {
        let kind = s.get("kind").and_then(Json::as_str);
        if !matches!(kind, Some("get" | "set" | "call")) {
            return Err("ic_sites entries need kind get|set|call".to_string());
        }
        for key in ["site", "hits", "misses", "entries"] {
            if s.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("ic_sites entries need numeric `{key}`"));
            }
        }
        if s.get("name").and_then(Json::as_str).is_none() {
            return Err("ic_sites entries need `name`".to_string());
        }
    }
    let hists = doc.get("histograms").ok_or("missing `histograms`")?;
    let Json::Obj(pairs) = hists else {
        return Err("`histograms` must be an object".to_string());
    };
    for (name, h) in pairs {
        for key in ["count", "sum", "min", "max", "p50", "p90", "p99"] {
            if h.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("histogram `{name}` needs numeric `{key}`"));
            }
        }
        if h.get("buckets").and_then(Json::as_arr).is_none() {
            return Err(format!("histogram `{name}` needs `buckets`"));
        }
    }
    // The sampling-profiler section is optional; when present it must be
    // internally consistent (stack counts sum to `taken`).
    if let Some(s) = doc.get("samples") {
        let taken = s
            .get("taken")
            .and_then(Json::as_u64)
            .ok_or("samples needs numeric `taken`")?;
        if s.get("stride").and_then(Json::as_u64).is_none() {
            return Err("samples needs numeric `stride`".to_string());
        }
        let stacks = s
            .get("stacks")
            .and_then(Json::as_arr)
            .ok_or("samples needs `stacks` array")?;
        let mut sum = 0u64;
        for st in stacks {
            let stack = st
                .get("stack")
                .and_then(Json::as_str)
                .ok_or("stack entries need string `stack`")?;
            if stack.is_empty() || stack.split(';').any(str::is_empty) {
                return Err("stack entries must not have empty frames".to_string());
            }
            sum += st
                .get("count")
                .and_then(Json::as_u64)
                .ok_or("stack entries need numeric `count`")?;
        }
        if sum != taken {
            return Err(format!(
                "samples: stack counts sum to {sum}, `taken` says {taken}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_round_trips_through_validation() {
        let mut h = Histogram::new();
        h.record(120);
        h.record(340);
        let p = RunProfile {
            backend: "vm".into(),
            program: "demo.jns".into(),
            counters: vec![("steps", 42), ("allocs", 7)],
            chunks: vec![("main".into(), 42)],
            ic_sites: vec![IcSiteProfile {
                kind: "get",
                site: 0,
                name: "main+3 get x".into(),
                hits: 9,
                misses: 1,
                entries: 1,
            }],
            histograms: vec![("exec_us", h)],
            samples: None,
        };
        let doc = crate::json::parse(&p.to_json()).unwrap();
        validate_profile(&doc).unwrap();
        assert!(
            doc.get("samples").is_none(),
            "sampler-off profiles omit the samples key entirely"
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("steps"))
                .and_then(Json::as_u64),
            Some(42)
        );
    }

    #[test]
    fn validation_rejects_wrong_schema() {
        let doc = crate::json::parse(r#"{"schema":"nope/9"}"#).unwrap();
        assert!(validate_profile(&doc).is_err());
    }

    #[test]
    fn samples_section_validates_and_renders_folded() {
        let p = RunProfile {
            backend: "vm".into(),
            program: "demo.jns".into(),
            counters: vec![("steps", 200)],
            chunks: vec![("main".into(), 200)],
            ic_sites: Vec::new(),
            histograms: Vec::new(),
            samples: Some(ProfileSamples {
                stride: 100,
                taken: 2,
                stacks: vec![("main".into(), 1), ("main;Pair.map".into(), 1)],
            }),
        };
        let doc = crate::json::parse(&p.to_json()).unwrap();
        validate_profile(&doc).unwrap();

        let folded = folded_lines(&p.samples.as_ref().unwrap().stacks);
        validate_folded(&folded).unwrap();
        assert_eq!(folded, "main 1\nmain;Pair.map 1\n");

        // Inconsistent `taken` is rejected.
        let bad = p.to_json().replace("\"taken\":2", "\"taken\":5");
        let bad_doc = crate::json::parse(&bad).unwrap();
        assert!(validate_profile(&bad_doc).is_err());

        // Malformed folded text is rejected.
        assert!(validate_folded("").is_err());
        assert!(validate_folded("main;; 3\n").is_err());
        assert!(validate_folded("main x\n").is_err());
    }
}
