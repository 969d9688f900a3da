//! Garbage-collection suite for the shared heap (`jns_eval::Heap`) and
//! its mark-compact tracing collector, on **both** backends.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Liveness under adversarial single requests**: one request
//!    allocating ~1M short-lived objects completes under a small
//!    `--heap-limit` with the peak live heap bounded by the limit —
//!    the §2.4 serving scenario's missing piece (per-request region
//!    resets only protect *across* requests).
//! 2. **Identity survives compaction**: aliased references, masked
//!    views, and view-changed references still denote the same object
//!    after their ℓ is forwarded (the paper's §2.3 invariant — `==` is
//!    location equality and view changes preserve ℓ).
//! 3. **GC is observably free when idle and harmless when active**:
//!    with no limit, behaviour is byte-identical to the pre-GC heaps;
//!    with a tight limit, outputs and semantic statistics still match
//!    the unlimited run on every paper program and both case studies.
//!
//! Every guarantee is checked stop-the-world and with a small nursery
//! (generational collection), each arm set through one `RunConfig`.

use jns_core::{lambda, service, Backend, Compiler, RunConfig};

mod corpus;
use corpus::{gc, run_cfg, Outcome, PAPER_EXAMPLES, PAPER_FIGURES};

/// The nursery arms every test runs: stop-the-world, and generational
/// with a small nursery.
const NURSERIES: [Option<usize>; 2] = [None, Some(8)];

/// The nursery arms of the two 1M-allocation tests. The tree-walker's
/// nursery arm is left out to bound debug-build time; its generational
/// path runs in every other test here.
fn million_nurseries(backend: Backend) -> &'static [Option<usize>] {
    match backend {
        Backend::TreeWalk => &[None],
        Backend::Vm => &NURSERIES,
    }
}

/// A program whose `main` allocates `n` short-lived objects in a loop
/// (J&s locals are final, so the loop counter is a heap cell).
fn churn_program(n: u64) -> String {
    format!(
        "class W {{
           class Cell {{ int v = 0; }}
           class Junk {{ }}
         }}
         main {{
           final W.Cell c = new W.Cell();
           while (c.v < {n}) {{
             final W.Junk j = new W.Junk();
             c.v = c.v + 1;
           }}
           print c.v;
         }}"
    )
}

const MILLION: u64 = 1_000_000;
const LIMIT: usize = 512;

/// Guarantee 1: a single request allocating ~1M objects completes on
/// both backends under a 512-object live-heap limit, with `peak_live`
/// never exceeding the limit and (almost) everything reclaimed. Without
/// GC this request grows the heap monotonically to 1M objects.
#[test]
fn million_alloc_request_completes_with_bounded_live_heap() {
    let src = churn_program(MILLION);
    for backend in [Backend::TreeWalk, Backend::Vm] {
        for &nursery in million_nurseries(backend) {
            let arm = format!("{backend:?} nursery {nursery:?}");
            let (out, stats) = run_cfg(&src, backend, gc(Some(LIMIT), nursery));
            match out {
                Outcome::Ok { output, .. } => assert_eq!(output, vec![MILLION.to_string()]),
                other => panic!("{arm}: expected success, got {other:?}"),
            }
            assert!(stats.gc_runs > 0, "{arm}: collector never ran");
            assert_eq!(
                stats.minor_runs > 0,
                nursery.is_some(),
                "{arm}: minor collections"
            );
            assert!(
                stats.peak_live <= LIMIT as u64,
                "{arm}: peak live heap {} exceeds the {LIMIT} limit",
                stats.peak_live
            );
            assert!(
                stats.reclaimed >= MILLION - LIMIT as u64,
                "{arm}: only {} of ~{MILLION} dead objects reclaimed",
                stats.reclaimed
            );
            assert_eq!(stats.allocs, MILLION + 1, "{arm}: allocs accounting");
        }
    }
}

/// Guarantee 3 on the churn workload: the GC-limited run and the
/// unlimited run produce identical output and semantic statistics.
#[test]
fn million_alloc_request_output_identical_to_unlimited_run() {
    let src = churn_program(MILLION);
    for backend in [Backend::TreeWalk, Backend::Vm] {
        let (unlimited, stats) = run_cfg(&src, backend, RunConfig::default());
        assert_eq!(stats.gc_runs, 0, "{backend:?}: GC ran without a limit");
        for &nursery in million_nurseries(backend) {
            let (limited, _) = run_cfg(&src, backend, gc(Some(LIMIT), nursery));
            assert_eq!(
                limited, unlimited,
                "{backend:?} nursery {nursery:?}: GC changed behaviour"
            );
        }
    }
}

/// Guarantee 2: references created *before* heavy collection pressure —
/// an alias, a shared-partner view, and a masked view — still denote the
/// same object afterwards: writes through one are visible through the
/// others, `==` still sees one location, and masked state written after
/// the churn reads back correctly.
#[test]
fn identity_and_views_survive_compaction() {
    let src = r#"class A1 { class B { int y = 1; } }
         class A2 extends A1 {
           class B shares A1.B { int f; int sum() { return this.y + this.f; } }
         }
         class W {
           class Cell { int v = 0; }
           class Junk { }
         }
         main {
           final A1!.B b1 = new A1.B();
           final A2!.B\f b2 = (view A2!.B\f)b1;
           final A1!.B alias = b1;
           final W.Cell c = new W.Cell();
           while (c.v < 5000) {
             final W.Junk j = new W.Junk();
             c.v = c.v + 1;
           }
           b2.f = 41;
           b1.y = 100;
           print b2.sum();
           print b1 == b2;
           print alias == b1;
           print alias.y;
         }"#;
    let expected = vec!["141", "true", "true", "100"];
    for backend in [Backend::TreeWalk, Backend::Vm] {
        for nursery in NURSERIES {
            let arm = format!("{backend:?} nursery {nursery:?}");
            // A limit of 8 forces collections while b1/b2/alias are live
            // and must be forwarded together through dozens of
            // compactions.
            let (out, stats) = run_cfg(src, backend, gc(Some(8), nursery));
            match out {
                Outcome::Ok { output, .. } => assert_eq!(output, expected, "{arm}"),
                other => panic!("{arm}: expected success, got {other:?}"),
            }
            assert!(stats.gc_runs > 0, "{arm}: collector never ran");
            assert!(stats.peak_live <= 8, "{arm}: {}", stats.peak_live);
        }
    }
}

/// An object allocated with field initialisers that themselves allocate
/// under collection pressure: the in-flight `this` is a GC root, so the
/// nascent object is neither reclaimed nor left behind by compaction.
#[test]
fn allocation_in_flight_survives_gc_during_initialisers() {
    let src = r#"class F {
           class Pad { }
           class Child { int tag = 7; }
           class Parent {
             Child kid = new Child();
             int probe = 3;
           }
         }
         class W { class Cell { int v = 0; } }
         main {
           final W.Cell c = new W.Cell();
           while (c.v < 200) {
             final F.Parent p = new F.Parent();
             c.v = c.v + p.kid.tag - 6;
           }
           print c.v;
         }"#;
    for backend in [Backend::TreeWalk, Backend::Vm] {
        for nursery in NURSERIES {
            let arm = format!("{backend:?} nursery {nursery:?}");
            let (out, stats) = run_cfg(src, backend, gc(Some(4), nursery));
            match out {
                Outcome::Ok { output, .. } => assert_eq!(output, vec!["200"], "{arm}"),
                other => panic!("{arm}: expected success, got {other:?}"),
            }
            assert!(stats.gc_runs > 0, "{arm}: collector never ran");
        }
    }
}

/// A `new` whose record value is the only reference to a fresh object
/// while the declared initialiser allocates under collection pressure:
/// the pending record values are GC roots (on the parked frame's operand
/// stack in the VM, in the allocation's own state in the tree-walker),
/// so each `Holder` is forwarded, not reclaimed, and stored intact.
#[test]
fn record_values_survive_gc_during_initialisers() {
    let src = r#"class F {
           class Pad { }
           class Holder { int tag; }
           class Parent { Pad pad = new Pad(); Holder h; }
         }
         class W { class Cell { int v = 0; int sum = 0; } }
         main {
           final W.Cell c = new W.Cell();
           while (c.v < 100) {
             final F.Parent p = new F.Parent { h = new F.Holder { tag = c.v } };
             c.sum = c.sum + p.h.tag;
             c.v = c.v + 1;
           }
           print c.sum;
         }"#;
    for backend in [Backend::TreeWalk, Backend::Vm] {
        for nursery in NURSERIES {
            let arm = format!("{backend:?} nursery {nursery:?}");
            let (out, stats) = run_cfg(src, backend, gc(Some(3), nursery));
            match out {
                Outcome::Ok { output, .. } => assert_eq!(output, vec!["4950"], "{arm}"),
                other => panic!("{arm}: expected success, got {other:?}"),
            }
            assert!(stats.gc_runs > 0, "{arm}: collector never ran");
        }
    }
}

/// Guarantee 3 across the whole paper corpus and both case studies: a
/// tight limit (collections fire even in small programs) changes neither
/// output nor semantic statistics on either backend.
#[test]
fn gc_on_equals_gc_off_on_every_paper_program() {
    let lambda_main = r#"final pair!.Exp p = new pair.Pair {
           fst = new pair.Var { x = "a" },
           snd = new pair.Var { x = "b" } };
         final pair!.Translator t = new pair.Translator();
         final base!.Exp b = p.translate(t);
         print b.show();
         print p == b;
         print t.rebuilt;"#;
    let service_main = r#"
        final service!.SomeService s = new service.SomeService();
        final service!.EchoService e = new service.EchoService();
        final service!.Dispatcher d = new service.Dispatcher { s = s, e = e };
        final Server srv = new Server { disp = d };
        final service!.Packet p0 = new service.Packet { kind = 0, payload = "a" };
        print d.dispatch(p0);
        srv.evolve();
        final logService!.Dispatcher d2 = (cast logService!.Dispatcher)srv.disp;
        final logService!.Packet q0 = (view logService!.Packet)p0;
        print d2.dispatch(q0);
        print s.handled;"#;
    let studies = [
        ("lambda_compiler", lambda::program(lambda_main)),
        ("service_evolution", service::program(service_main)),
    ];
    let all = PAPER_EXAMPLES
        .iter()
        .chain(PAPER_FIGURES.iter())
        .map(|(n, s)| (*n, s.to_string()))
        .chain(studies.iter().map(|(n, s)| (*n, s.clone())));
    for (name, src) in all {
        for backend in [Backend::TreeWalk, Backend::Vm] {
            let (without, _) = run_cfg(&src, backend, RunConfig::default());
            for nursery in NURSERIES {
                let (with_gc, _) = run_cfg(&src, backend, gc(Some(4), nursery));
                assert_eq!(
                    with_gc, without,
                    "[{name}] {backend:?} nursery {nursery:?}: GC changed observable behaviour"
                );
            }
        }
    }
}

/// The serving layer bounds worker memory *within* a request: a giant
/// request served under `ServeConfig::heap_limit` reports collections
/// and a bounded peak, and still matches the unlimited answer.
#[test]
fn serve_bounds_worker_heap_within_a_request() {
    let compiled = Compiler::new()
        .with_backend(Backend::Vm)
        .compile(&churn_program(20_000))
        .unwrap();
    for nursery in NURSERIES {
        let mut cfg = jns_serve::ServeConfig::with_workers(2);
        cfg.queue_cap = 8;
        cfg.heap_limit = Some(64);
        cfg.nursery = nursery;
        let report = jns_serve::serve_batch(&compiled, &cfg, 6);
        assert_eq!(report.responses.len(), 6, "nursery {nursery:?}");
        assert!(report.uniform(), "nursery {nursery:?}: responses diverged");
        for r in &report.responses {
            assert_eq!(r.output, vec!["20000"]);
            assert!(r.stats.gc_runs > 0, "worker never collected");
            assert!(r.stats.peak_live <= 64, "peak {}", r.stats.peak_live);
        }
        // The aggregate (what `jns serve --stats` prints) carries the GC
        // counters — the per-worker reclamation is no longer invisible.
        assert!(report.aggregate.gc_runs >= 6);
        assert!(report.aggregate.reclaimed >= 6 * (20_000 - 64));
        assert!(report.aggregate.peak_live <= 64);
    }
}
