//! `obs-check` — validates the machine-readable observability artifacts
//! the `jns` CLI emits, so CI can smoke-test the schemas end to end:
//!
//!   obs-check profile <file.json>   a `jns-profile/1` document
//!                                   (from `--profile-json`; the optional
//!                                   `samples` section is checked too)
//!   obs-check trace <file.jsonl>    a `jns-trace/1` JSON Lines stream
//!                                   (from `--trace`; read by
//!                                   `jns_obs::parse_jsonl`, the reader
//!                                   `jns trace-report` uses too)
//!   obs-check bench <file.json>     a `jns-bench/2` suite document
//!                                   (from `jns bench`)
//!   obs-check folded <file.txt>     collapsed-stack sampler output
//!                                   (from `--profile-folded`)
//!
//! Exits 0 when the artifact parses and conforms; prints the first
//! violation and exits 1 otherwise.

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: obs-check profile|trace|bench|folded <file>");
    ExitCode::FAILURE
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn check_profile(path: &str) -> Result<(), String> {
    let text = read(path)?;
    let doc = jns_obs::json::parse(text.trim())?;
    jns_obs::validate_profile(&doc)
}

fn check_trace(path: &str) -> Result<(), String> {
    jns_obs::parse_jsonl(&read(path)?).map(|_| ())
}

fn check_bench(path: &str) -> Result<(), String> {
    let text = read(path)?;
    let doc = jns_obs::json::parse(text.trim())?;
    jns_obs::validate_bench(&doc)
}

fn check_folded(path: &str) -> Result<(), String> {
    let text = read(path)?;
    jns_obs::validate_folded(&text)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [kind, path] = args.as_slice() else {
        return usage();
    };
    let result = match kind.as_str() {
        "profile" => check_profile(path),
        "trace" => check_trace(path),
        "bench" => check_bench(path),
        "folded" => check_folded(path),
        _ => return usage(),
    };
    match result {
        Ok(()) => {
            println!("{path}: ok ({kind})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: invalid {kind}: {e}");
            ExitCode::FAILURE
        }
    }
}
