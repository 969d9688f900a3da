//! Sampling-profiler invariants, root-level (cross-crate):
//!
//! - **Sample counts are stride accounting.** The sampler fires after
//!   every successfully executed instruction, so a run that executes
//!   `steps` instructions with stride `k` takes exactly `⌊steps / k⌋`
//!   samples — no more, no fewer, deterministically.
//! - **Attribution is consistent with the chunk profile.** Every frame
//!   name in a collapsed stack is a chunk the run actually executed
//!   (it appears in `chunk_profile`), and per-stack counts sum to the
//!   total taken.
//! - **Sampling is unobservable.** Running every corpus program with
//!   the sampler armed produces byte-identical output, value, and
//!   statistics to running without it, on both backends (the
//!   tree-walker ignores the stride entirely).
//! - **Folded output is well-formed.** `folded_lines` over a real run
//!   validates, and the leaf totals match the stride-predicted count.
//! - **Step accounting is exact under fuel and VM reuse.** Fuel `N` (the
//!   unlimited run's step count) completes in `N` steps; fuel `N − 1`
//!   fails on instruction `N` with the profile summing to `N`; the
//!   sampler takes `⌊executed / k⌋` samples on both paths, the failing
//!   instruction not being executed; and one VM reused through
//!   `reset_for_request` counts `N` per request and accumulates its
//!   profile and samples across them.

use jns_core::{Backend, Compiler, RunOptions, RunOutput};
use jns_eval::{RtError, RunConfig};
use std::collections::HashSet;

mod corpus;
use corpus::{PAPER_EXAMPLES, PAPER_FIGURES};

fn corpus_programs() -> impl Iterator<Item = (&'static str, &'static str)> {
    PAPER_EXAMPLES.iter().chain(PAPER_FIGURES.iter()).copied()
}

/// The observable footprint of a run: everything except the sampler's
/// own output.
fn footprint(out: &RunOutput) -> (Vec<String>, String, String) {
    (
        out.output.clone(),
        format!("{:?}", out.value),
        format!("{:?}", out.stats),
    )
}

fn run_sampled(src: &str, stride: u64) -> RunOutput {
    Compiler::new()
        .with_backend(Backend::Vm)
        .compile(src)
        .expect("compiles")
        .run_with(
            Backend::Vm,
            RunOptions {
                trace: None,
                sample_stride: Some(stride),
            },
        )
        .expect("runs")
}

#[test]
fn sample_count_is_exact_stride_accounting() {
    for (name, src) in corpus_programs() {
        for stride in [1u64, 7, 101] {
            let out = run_sampled(src, stride);
            let samples = out.samples.as_ref().unwrap_or_else(|| {
                panic!("{name}: sampling was requested but no samples came back")
            });
            assert_eq!(samples.stride, stride, "{name}");
            assert_eq!(
                samples.taken,
                out.stats.steps / stride,
                "{name}: {} steps at stride {stride}",
                out.stats.steps
            );
            let total: u64 = samples.stacks.iter().map(|(_, n)| n).sum();
            assert_eq!(total, samples.taken, "{name}: stack counts must sum");
        }
    }
}

#[test]
fn folded_stacks_attribute_to_executed_chunks() {
    for (name, src) in corpus_programs() {
        let out = run_sampled(src, 3);
        let executed: HashSet<&str> = out
            .chunk_profile
            .iter()
            .map(|(chunk, _)| chunk.as_str())
            .collect();
        let samples = out.samples.as_ref().expect("samples");
        for (stack, count) in &samples.stacks {
            assert!(*count > 0, "{name}: zero-count stack {stack:?}");
            for frame in stack.split(';') {
                assert!(
                    executed.contains(frame),
                    "{name}: sampled frame {frame:?} never appears in the chunk profile"
                );
            }
        }
        // A deep enough stride-3 run over a real program must sample
        // *something*; an empty profile would mean the hook is dead.
        if out.stats.steps >= 3 {
            assert!(!samples.stacks.is_empty(), "{name}: no stacks sampled");
        }
        let folded = jns_obs::folded_lines(&samples.stacks);
        if !samples.stacks.is_empty() {
            jns_obs::validate_folded(&folded).expect("folded output validates");
        }
    }
}

#[test]
fn sampling_is_unobservable_on_both_backends() {
    for (name, src) in corpus_programs() {
        for backend in [Backend::TreeWalk, Backend::Vm] {
            let compiled = Compiler::new()
                .with_backend(backend)
                .compile(src)
                .expect("compiles");
            let plain = compiled.run_on(backend).expect("plain run");
            let sampled = compiled
                .run_with(
                    backend,
                    RunOptions {
                        trace: None,
                        sample_stride: Some(5),
                    },
                )
                .expect("sampled run");
            assert_eq!(
                footprint(&plain),
                footprint(&sampled),
                "{name} on {backend:?}: sampling must not perturb execution"
            );
            // The tree-walker has no instruction stream: the stride is
            // documented as ignored, and no samples may come back.
            if backend == Backend::TreeWalk {
                assert!(sampled.samples.is_none(), "{name}");
            }
        }
    }
}

#[test]
fn lambda_compiler_folded_profile_matches_stride_prediction() {
    // The acceptance workload: the λ→SKI translation at benched depth.
    let src = bench::workloads::lambda_source(24);
    let out = run_sampled(&src, 101);
    let samples = out.samples.as_ref().expect("samples");
    assert!(
        !samples.stacks.is_empty(),
        "the λ-compiler run must produce collapsed stacks"
    );
    let predicted = out.stats.steps / 101;
    let leaf_total: u64 = samples.stacks.iter().map(|(_, n)| n).sum();
    // The hook fires exactly every `stride` executed instructions, so
    // the totals agree exactly — far inside the 10% acceptance band.
    assert_eq!(leaf_total, predicted);
    let folded = jns_obs::folded_lines(&samples.stacks);
    jns_obs::validate_folded(&folded).expect("validates");
    // Deep translation recursion: at least one multi-frame stack.
    assert!(
        samples.stacks.iter().any(|(s, _)| s.contains(';')),
        "expected nested call stacks in {folded:?}"
    );
}

#[test]
fn profile_document_carries_samples_only_when_armed() {
    let (_, src) = PAPER_EXAMPLES[0];
    let compiled = Compiler::new()
        .with_backend(Backend::Vm)
        .compile(src)
        .expect("compiles");
    let off = compiled.run_on(Backend::Vm).expect("runs");
    assert!(off.samples.is_none(), "sampler must default to off");

    let on = compiled
        .run_with(
            Backend::Vm,
            RunOptions {
                trace: None,
                sample_stride: Some(2),
            },
        )
        .expect("runs");
    assert!(on.samples.is_some(), "sampler armed");
    let doc = jns_obs::json::parse(&on.profile("corpus").to_json()).expect("parses");
    jns_obs::validate_profile(&doc).expect("validates with samples section");
    assert!(doc.get("samples").is_some());

    // With the sampler off the document must not even carry the key —
    // profiler-off artifacts stay byte-identical to pre-sampler ones.
    let doc = jns_obs::json::parse(&off.profile("corpus").to_json()).expect("parses");
    jns_obs::validate_profile(&doc).expect("validates without samples section");
    assert!(doc.get("samples").is_none());
}

/// One request's result and its step count.
type Request = (Result<(), RtError>, u64);

/// Runs `main` `requests` times on one VM (resetting between requests)
/// under `fuel` and sampling stride `stride`. Returns each request's
/// result and steps, the VM's profile total and its samples taken.
fn reused_vm(
    checked: &jns_types::CheckedProgram,
    code: &jns_vm::VmProgram,
    fuel: Option<u64>,
    stride: u64,
    requests: usize,
) -> (Vec<Request>, u64, u64) {
    let mut vm = jns_vm::Vm::new(checked, code).with_config(RunConfig {
        fuel,
        ..RunConfig::default()
    });
    vm.set_sample_stride(stride);
    let mut runs = Vec::new();
    for i in 0..requests {
        if i > 0 {
            vm.reset_for_request();
        }
        let r = vm.run().map(|_| ());
        runs.push((r, vm.stats.steps));
    }
    let profiled = vm.profile().iter().map(|(_, n)| n).sum();
    (runs, profiled, vm.samples_taken())
}

#[test]
fn step_accounting_is_exact_under_fuel_sampling_and_reuse() {
    for (name, src) in corpus_programs() {
        let checked = jns_types::check(&jns_syntax::parse(src).expect("parses")).expect("checks");
        let code = jns_vm::compile(&checked);
        let mut vm = jns_vm::Vm::new(&checked, &code);
        let unlimited = vm.run().map(|_| ());
        let n = vm.stats.steps;
        assert!(n > 1, "{name}: runs some instructions");
        for stride in [1u64, 7, 101] {
            // Fuel N: the last instruction is the N-th, so the run ends
            // exactly as without a limit.
            let (runs, profiled, taken) = reused_vm(&checked, &code, Some(n), stride, 1);
            assert_eq!(runs, [(unlimited.clone(), n)], "{name}: fuel N");
            assert_eq!(profiled, n, "{name}: fuel N profile");
            assert_eq!(taken, n / stride, "{name}: fuel N samples at {stride}");
            // Fuel N - 1: instruction N counts, then fails before running.
            let (runs, profiled, taken) = reused_vm(&checked, &code, Some(n - 1), stride, 1);
            assert_eq!(runs, [(Err(RtError::OutOfFuel), n)], "{name}: fuel N - 1");
            assert_eq!(profiled, n, "{name}: fuel N - 1 profile");
            assert_eq!(
                taken,
                (n - 1) / stride,
                "{name}: fuel N - 1 samples at {stride}"
            );
            // One VM, two requests: counters reset, profile and sampler
            // carry over.
            let (runs, profiled, taken) = reused_vm(&checked, &code, Some(n), stride, 2);
            assert_eq!(runs, vec![(unlimited.clone(), n); 2], "{name}: reused");
            assert_eq!(profiled, 2 * n, "{name}: reused profile");
            assert_eq!(taken, 2 * n / stride, "{name}: reused samples at {stride}");
            let (runs, profiled, taken) = reused_vm(&checked, &code, Some(n - 1), stride, 2);
            assert_eq!(
                runs,
                vec![(Err(RtError::OutOfFuel), n); 2],
                "{name}: reused, out of fuel"
            );
            assert_eq!(profiled, 2 * n, "{name}: reused profile, out of fuel");
            assert_eq!(
                taken,
                2 * (n - 1) / stride,
                "{name}: reused samples, out of fuel"
            );
        }
    }
}
