//! Short runs of every workload through the built binary: each prints
//! every metric `BENCHMARK.json` names, correctly, and repeats its
//! deterministic counters under one seed.

use jns_obs::json::{self, Json};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["evolve", "translate_serve", "cold_run"];

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload; returns the `env` line and the result line.
fn run(workload: &str, seed: u64, trace: bool) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let parse = |l: &str| json::parse(l).unwrap_or_else(|e| panic!("{workload}: {e}: {l}"));
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

#[test]
fn every_workload_prints_every_metric() {
    let doc = manifest();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for w in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (_, result) = run(w, 3, trace);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = result.get("metrics").expect("metrics");
            let want = names(&doc, key);
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: missing {name}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
            }
            let Json::Obj(pairs) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(pairs.len(), want.len(), "{w}: exactly the listed metrics");
        }
    }
}

#[test]
fn one_seed_repeats_its_counters() {
    for w in WORKLOADS {
        let digest = |seed| {
            let (env, _) = run(w, seed, false);
            env.get("counters_digest")
                .and_then(Json::as_str)
                .expect("digest")
                .to_string()
        };
        assert_eq!(digest(11), digest(11), "{w}");
    }
}
