//! Differential coverage for the VM's dispatch engine: superinstruction
//! fusion must be *observably free*. Fused and unfused runs produce
//! byte-identical output, values, errors, and semantic statistics over
//! the whole paper corpus — including under a tight heap limit, across
//! random knob combinations (against the tree-walking reference),
//! through a hot call site whose receiver is re-viewed, and across serve
//! pools of every size. `jns run --vm --stats` lists the still-polymorphic
//! inline-cache sites under both settings.
//!
//! The one intentional difference: fusion collapses instruction pairs,
//! so `Stats::steps` differs between fused and unfused bytecode (it is a
//! property of the compiled program, identical across runs of the same
//! bytecode).

use jns_core::{Backend, Compiler, Error};
use jns_eval::RtError;
use jns_serve::{serve_batch, ServeConfig};
use proptest::prelude::*;
use std::process::Command;

mod corpus;
use corpus::{PAPER_EXAMPLES, PAPER_FIGURES};

/// The observable result of one run, minus `steps` (see module docs).
#[derive(Debug, PartialEq)]
enum Outcome {
    Ok {
        output: Vec<String>,
        value: String,
        allocs: u64,
        calls: u64,
        views_explicit: u64,
        views_implicit: u64,
    },
    Runtime(RtError),
}

/// Runs `src` on the VM, fused or not.
fn run_vm(src: &str, fuse: bool, heap_limit: Option<usize>) -> Outcome {
    let mut compiler = Compiler::new().with_backend(Backend::Vm).with_fusion(fuse);
    if let Some(l) = heap_limit {
        compiler = compiler.with_heap_limit(l);
    }
    let compiled = compiler.compile(src).expect("corpus program compiles");
    match compiled.run() {
        Ok(out) => Outcome::Ok {
            output: out.output,
            value: format!("{:?}", out.value),
            allocs: out.stats.allocs,
            calls: out.stats.calls,
            views_explicit: out.stats.views_explicit,
            views_implicit: out.stats.views_implicit,
        },
        Err(Error::Runtime(e)) => Outcome::Runtime(e),
        Err(e) => panic!("non-runtime failure: {e}"),
    }
}

fn whole_corpus() -> impl Iterator<Item = (&'static str, &'static str)> {
    PAPER_EXAMPLES.iter().chain(PAPER_FIGURES).copied()
}

/// Fusion on vs off over every corpus program: identical outcomes.
#[test]
fn corpus_engine_on_equals_engine_off() {
    for (name, src) in whole_corpus() {
        let engine = run_vm(src, true, None);
        let generic = run_vm(src, false, None);
        assert_eq!(engine, generic, "[{name}] engine changed behaviour");
    }
}

/// Same equivalence under a tight heap limit: the frame pool and the
/// inline caches must survive mark-compact collections.
#[test]
fn corpus_engine_equivalent_under_heap_pressure() {
    for (name, src) in whole_corpus() {
        let engine = run_vm(src, true, Some(8));
        let generic = run_vm(src, false, Some(8));
        assert_eq!(
            engine, generic,
            "[{name}] engine diverges at --heap-limit 8"
        );
    }
}

/// A hot monomorphic loop under allocation churn at `--heap-limit 8`:
/// the inline-cached sites survive dozens of compactions (cache entries
/// hold views and slots, never heap locations) and the run stays
/// interpreter-identical.
#[test]
fn hot_sites_survive_compactions() {
    let src = "class W {
                 class Cell {
                   int v = 0;
                   int inc() { this.v = this.v + 1; return this.v; }
                 }
                 class Junk { }
               }
               main {
                 final W.Cell c = new W.Cell();
                 while (c.v < 300) {
                   final W.Junk j = new W.Junk();
                   final int x = c.inc();
                 }
                 print c.v;
               }";
    let vm = Compiler::new()
        .with_backend(Backend::Vm)
        .with_heap_limit(8)
        .compile(src)
        .expect("compiles")
        .run()
        .expect("runs");
    assert_eq!(vm.output, vec!["300"]);
    assert!(
        vm.stats.gc_runs > 30,
        "expected dozens of compactions, got {}",
        vm.stats.gc_runs
    );
    let tree = Compiler::new()
        .with_heap_limit(8)
        .compile(src)
        .expect("compiles")
        .run()
        .expect("runs");
    assert_eq!(tree.output, vm.output);
    assert_eq!(tree.stats.allocs, vm.stats.allocs);
    assert_eq!(tree.stats.calls, vm.stats.calls);
}

/// A call site runs hot on one view, then the receiver is re-viewed into
/// a sharing partner: the site's inline cache misses on the new view, and
/// late binding picks the partner's override — interpreter-identically.
#[test]
fn re_viewed_receiver_rebinds_hot_call_site() {
    let src = "class Fam {
                 class C {
                   int v = 0;
                   int tag() { return 1; }
                 }
               }
               class Fam2 extends Fam {
                 class C shares Fam.C {
                   int tag() { return 2; }
                 }
               }
               class H {
                 Fam.C t;
                 int n = 0;
                 int go() { return this.t.tag(); }
               }
               main {
                 final Fam!.C c = new Fam.C();
                 final H h = new H { t = c };
                 while (h.n < 40) {
                   final int a = h.go();
                   h.n = h.n + 1;
                 }
                 final Fam2!.C d = (view Fam2!.C)c;
                 h.t = d;
                 print h.go();
                 h.t = c;
                 print h.go();
                 print h.n;
               }";
    let vm = Compiler::new()
        .with_backend(Backend::Vm)
        .compile(src)
        .expect("compiles")
        .run()
        .expect("runs");
    // Late binding through the *view*: the re-viewed receiver dispatches
    // to Fam2's override, and back.
    assert_eq!(vm.output, vec!["2", "1", "40"]);
    let tree = Compiler::new()
        .compile(src)
        .expect("compiles")
        .run()
        .expect("runs");
    assert_eq!(tree.output, vm.output);
    assert_eq!(tree.stats.calls, vm.stats.calls);
}

/// The `--stats` list of still-polymorphic sites is an inline-cache
/// report, so it must not depend on whether fusion ran.
#[test]
fn stats_list_polymorphic_sites_with_and_without_fusion() {
    let src = "class A {
                 class C { int f() { return 1; } }
                 class D extends C { int f() { return 2; } }
               }
               class H {
                 A.C t;
                 int go() { return this.t.f(); }
               }
               main {
                 final H h = new H { t = new A.C() };
                 final int a = h.go();
                 h.t = new A.D();
                 print a + h.go();
               }";
    let path = std::env::temp_dir().join(format!("jns-poly-sites-{}.jns", std::process::id()));
    std::fs::write(&path, src).expect("write program");
    for no_fuse in [None, Some("--no-fuse")] {
        let out = Command::new(env!("CARGO_BIN_EXE_jns"))
            .args(["run", "--vm", "--stats"])
            .args(no_fuse)
            .arg(&path)
            .output()
            .expect("spawn jns");
        assert!(out.status.success(), "{no_fuse:?}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), "3\n");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("still-polymorphic sites:")
                && stderr.contains("call f (2 views, 2 misses)"),
            "{no_fuse:?}: {stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Serve determinism across pool sizes and engine settings: every worker
/// warms its own inline caches over the shared bytecode, so 1-, 2-, and
/// 8-worker pools — fused or not — produce identical responses and
/// identical aggregate semantic statistics (`steps` is compared within
/// each fusion setting, since fusion moves it by design).
#[test]
fn serve_pools_agree_across_engine_settings() {
    type PoolFingerprint = (Vec<String>, (u64, u64, u64, u64));
    let src = jns_serve::workload::service_dispatch(12);
    let requests = 24;
    let mut reference: Option<PoolFingerprint> = None;
    for fuse in [true, false] {
        let compiled = Compiler::new()
            .with_backend(Backend::Vm)
            .with_fusion(fuse)
            .compile(&src)
            .expect("serve workload compiles");
        let mut arm_steps = None;
        for workers in [1usize, 2, 8] {
            let cfg = ServeConfig {
                workers,
                queue_cap: 8,
                ..ServeConfig::default()
            };
            let report = serve_batch(&compiled, &cfg, requests);
            assert!(report.uniform(), "responses diverged within the pool");
            let first = report.responses.first().expect("responses");
            assert!(first.is_ok(), "request failed: {:?}", first.error);
            let (steps, allocs, views_explicit, views_implicit, calls) =
                report.aggregate.semantic();
            assert_eq!(
                *arm_steps.get_or_insert(steps),
                steps,
                "pool of {workers} workers (fuse={fuse}) ran different steps"
            );
            let got = (
                first.output.clone(),
                (allocs, views_explicit, views_implicit, calls),
            );
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(
                    want, &got,
                    "pool of {workers} workers (fuse={fuse}) diverged"
                ),
            }
        }
    }
}

/// A looping program whose sites fuse and run hot, with a mid-program
/// view change: the stress shape for random knobs.
fn knobs_program(iters: u32) -> String {
    format!(
        "class Fam {{
           class C {{
             int v = 0;
             int inc() {{ this.v = this.v + 2; return this.v; }}
             int tag() {{ return 1; }}
           }}
         }}
         class Fam2 extends Fam {{
           class C shares Fam.C {{
             int tag() {{ return 2; }}
           }}
         }}
         main {{
           final Fam!.C o = new Fam.C();
           while (o.v < {iters}) {{
             final int x = o.inc();
           }}
           print o.v;
           print o.tag();
           final Fam2!.C w = (view Fam2!.C)o;
           print w.tag();
           print o == w;
           while (w.v < {iters} + 20) {{
             final int y = w.inc();
           }}
           print w.v;
         }}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random fuse/depth/heap-limit combinations never diverge from the
    /// tree-walking reference interpreter.
    #[test]
    fn random_knobs_match_tree_walker(
        iters in 1u32..80,
        fuse in any::<bool>(),
        heap_limit in (0usize..72).prop_map(|v| if v < 12 { None } else { Some(v.max(16)) }),
        max_depth in (0u32..72).prop_map(|v| if v < 12 { None } else { Some(v.max(3)) }),
    ) {
        let src = knobs_program(iters * 2);
        let mut vm_compiler = Compiler::new().with_backend(Backend::Vm).with_fusion(fuse);
        let mut tree_compiler = Compiler::new();
        if let Some(l) = heap_limit {
            vm_compiler = vm_compiler.with_heap_limit(l);
            tree_compiler = tree_compiler.with_heap_limit(l);
        }
        if let Some(d) = max_depth {
            vm_compiler = vm_compiler.with_max_depth(d);
            tree_compiler = tree_compiler.with_max_depth(d);
        }
        let vm = vm_compiler.compile(&src).expect("compiles").run();
        let tree = tree_compiler.compile(&src).expect("compiles").run();
        match (tree, vm) {
            (Ok(t), Ok(v)) => {
                prop_assert_eq!(&t.output, &v.output, "outputs diverge on\n{}", src);
                prop_assert_eq!(format!("{:?}", t.value), format!("{:?}", v.value));
                prop_assert_eq!(t.stats.allocs, v.stats.allocs);
                prop_assert_eq!(t.stats.calls, v.stats.calls);
                prop_assert_eq!(t.stats.views_explicit, v.stats.views_explicit);
                prop_assert_eq!(t.stats.views_implicit, v.stats.views_implicit);
            }
            (Err(Error::Runtime(te)), Err(Error::Runtime(ve))) => {
                prop_assert_eq!(te.to_string(), ve.to_string(), "errors diverge on\n{}", src);
            }
            (t, v) => {
                panic!("one backend failed: tree={t:?} vm={v:?}\n{src}");
            }
        }
    }
}
