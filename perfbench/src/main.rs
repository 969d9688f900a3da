//! `perfbench`: the end-to-end and per-layer benchmark of the J&s system.
//!
//! ```text
//! perfbench --workload <evolve|translate_serve|cold_run> --seed <n>
//!           --seconds <s> --trace <0|1> [--held-out]
//! ```
//!
//! One process runs one workload. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! blocks and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `NOTES.md` for why each workload exists and what each metric
//! should move.

mod cold;
mod evolve;
mod layers;
mod programs;
mod serve;
mod spans;

use jns_eval::Stats;
use std::collections::BTreeMap;
use std::time::Duration;

/// A seed kept out of all tuning: re-check a claimed gain with
/// `--held-out` after it was found on ordinary seeds.
pub const HELD_OUT_SEED: u64 = 0x4A26_5EED_0BAD_F00D;

/// Fewest ops in an untraced block, so that at least ten lie beyond its
/// p95.
pub const MIN_OPS: usize = 200;

pub const WORKLOADS: [&str; 3] = ["evolve", "translate_serve", "cold_run"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <evolve|translate_serve|cold_run> \
                     --seed <n> --seconds <s> --trace <0|1> [--held-out]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut held_out = false;
        while let Some(flag) = it.next() {
            if flag == "--held-out" {
                held_out = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    if !WORKLOADS.contains(&value.as_str()) {
                        return Err(bad("unknown workload"));
                    }
                    workload = Some(value);
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a number"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(bad("must be in (0, 120]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seed = seed.ok_or("--seed is required")?;
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: if held_out { HELD_OUT_SEED } else { seed },
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

// ------------------------------------------------------------- guards

/// The counters that must repeat exactly for every execution of one
/// program in one configuration, whatever the warm-up state of the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters([u64; 10]);

impl Counters {
    pub fn of(s: &Stats) -> Counters {
        Counters([
            s.steps,
            s.allocs,
            s.calls,
            s.views_explicit,
            s.views_implicit,
            s.gc_runs,
            s.minor_runs,
            s.major_runs,
            s.promoted,
            s.barrier_hits,
        ])
    }
}

/// Checks that every execution of a program reports the counters its
/// first execution did, and digests the first-seen counters so two runs
/// with one seed can be compared.
#[derive(Debug, Default)]
pub struct Guard {
    first: BTreeMap<String, Counters>,
    pub mismatches: u64,
}

impl Guard {
    pub fn check(&mut self, key: &str, stats: &Stats) -> bool {
        let c = Counters::of(stats);
        match self.first.get(key) {
            Some(f) if *f == c => true,
            Some(f) => {
                if self.mismatches == 0 {
                    eprintln!("perfbench: counters of {key} changed: {f:?} then {c:?}");
                }
                self.mismatches += 1;
                false
            }
            None => {
                self.first.insert(key.to_string(), c);
                true
            }
        }
    }

    /// FNV-1a over every program's counters, in name order.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= *b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for (k, c) in &self.first {
            eat(k.as_bytes());
            for v in c.0 {
                eat(&v.to_le_bytes());
            }
        }
        h
    }
}

// ------------------------------------------------------------- results

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of each set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// The untraced timed phase, block by block.
    pub blocks: Vec<layers::Block>,
    /// Per-layer metrics (traced runs only), by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Determinism or trace-hygiene violations; any one fails the run.
    pub violations: Vec<String>,
    pub guard: Guard,
    /// Serve workers (0 for workloads without a pool).
    pub workers: usize,
}

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Available CPUs, as the program itself would see them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when the benchmark runs
/// inside a git work tree; `unknown` otherwise.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The end-to-end units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Unit of each per-layer metric, keyed by name.
pub fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_mb_per_s") {
        "MB/s"
    } else if name.ends_with("ns_per_step") {
        "ns"
    } else if name.ends_with("_ratio")
        || name.ends_with("_frac")
        || name.ends_with("_share")
        || name.ends_with("_per_alloc")
    {
        "ratio"
    } else {
        "count"
    }
}

/// Writes a traced run's spans to `out/spans-<workload>.jsonl` in the
/// benchmark's directory (a failure to write is reported, not fatal).
pub fn write_spans(t: &spans::Tracer, args: &Args) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", args.workload));
    if let Err(e) = t.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "evolve" => evolve::run(&args),
        "translate_serve" => serve::run(&args),
        _ => cold::run(&args),
    };
    if out.guard.mismatches > 0 {
        out.violations.push(format!(
            "{} executions reported counters that differ from their program's first",
            out.guard.mismatches
        ));
    }
    let ok = out.attempted - out.failed;
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    for v in &out.violations {
        eprintln!("perfbench: violation: {v}");
    }
    // Throughput and latency come from the best block: interference from
    // outside the process (other tenants of the host) only ever slows a
    // block down, so the best block is the steadiest estimate of what the
    // code itself costs (Chen & Revels, "Robust benchmarking in noisy
    // environments", 2016).
    let best = |f: &dyn Fn(&layers::Block) -> f64| -> f64 {
        out.blocks.iter().map(f).fold(f64::INFINITY, f64::min)
    };
    let ops_per_s = -best(&|b| -(b.latencies_ms.len() as f64) / b.wall_s.max(1e-9));
    let p50 = best(&|b| percentile(&b.latencies_ms, 50.0));
    // The tail moves too much with the host's load to bound a change by
    // it, so p95 is reported here, not as a metric.
    let p95 = best(&|b| percentile(&b.latencies_ms, 95.0));
    println!(
        "{{\"perfbench\":\"env\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{},\"workers\":{},\"commit\":\"{}\",\"counters_digest\":\"{:016x}\",\
         \"timed_ops\":{},\"failed_frac\":{},\"op_p95_ms\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        nproc(),
        out.workers,
        commit(),
        out.guard.digest(),
        out.blocks
            .iter()
            .map(|b| b.latencies_ms.len())
            .sum::<usize>(),
        json_num(failed_frac),
        json_num(p95),
    );
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        out.layers
            .iter()
            .map(|(k, v)| (k.to_string(), *v, layer_unit(k)))
            .collect()
    } else {
        let values = [
            percentile(&out.setup_s, 50.0),
            ops_per_s,
            p50,
            peak_rss_mb(),
            ok as f64 / out.attempted.max(1) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (n.to_string(), v, *u))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    let correct = out.failed == 0 && out.violations.is_empty() && out.attempted > 0;
    // A run that failed before its first op counts as one failed op.
    let (attempted, failed) = match out.attempted {
        0 => (1, 1),
        n => (n, out.failed),
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
