//! Differential suite: every runnable paper-example program (the
//! `jns-eval` paper_examples corpus, the cross-crate paper_figures corpus,
//! and the §7.3 / §2.4 case studies) executes on **both** backends, and
//! the observable results must be identical — printed output, final value
//! (including reference identity, view, and mask sets), error variants and
//! messages, and the semantically meaningful statistics (allocations,
//! calls, explicit and implicit view changes).
//!
//! Error-path coverage: cast failure and fuel exhaustion. Fuel is measured
//! in different units per backend (AST nodes vs VM instructions), so the
//! fuel case asserts that both engines interrupt the program with
//! `OutOfFuel` rather than comparing partial output.

use jns_core::{lambda, service, Backend, Compiler, Error};

mod corpus;
use corpus::{PAPER_EXAMPLES, PAPER_FIGURES};
use jns_eval::RtError;

/// The observable result of one run.
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

fn run_on(compiled: &jns_core::Compiled, backend: Backend) -> Outcome {
    match compiled.run_on(backend) {
        Ok(out) => Outcome::Ok {
            value: corpus::value_shape(&out),
            output: out.output,
            allocs: out.stats.allocs,
            calls: out.stats.calls,
            views_explicit: out.stats.views_explicit,
            views_implicit: out.stats.views_implicit,
        },
        Err(Error::Runtime(e, _)) => Outcome::Runtime(e),
        Err(e) => panic!("non-runtime failure: {e}"),
    }
}

fn assert_equivalent(name: &str, src: &str, fuel: Option<u64>) {
    let mut compiler = Compiler::new();
    if let Some(f) = fuel {
        compiler = compiler.with_fuel(f);
    }
    let compiled = compiler
        .compile(src)
        .unwrap_or_else(|e| panic!("[{name}] does not compile: {e}"));
    let tree = run_on(&compiled, Backend::TreeWalk);
    let vm = run_on(&compiled, Backend::Vm);
    assert_eq!(tree, vm, "[{name}] backends disagree");
}

#[test]
fn paper_examples_are_equivalent() {
    for (name, src) in PAPER_EXAMPLES {
        assert_equivalent(name, src, None);
    }
}

#[test]
fn paper_figures_are_equivalent() {
    for (name, src) in PAPER_FIGURES {
        assert_equivalent(name, src, None);
    }
}

/// Cast failure: both backends raise the *same* `CastFailed` error (same
/// message) at the same program point.
#[test]
fn cast_failure_is_equivalent() {
    assert_equivalent(
        "cast_checks_view",
        r#"class A { class C { } class D { } }
         main {
           final A!.C c = new A.C();
           print "before";
           final A.D d = (cast A.D)c;
           print "after";
         }"#,
        None,
    );
}

/// Fuel exhaustion: units differ (AST nodes vs instructions), so assert
/// the variant on both backends rather than full-run equivalence.
#[test]
fn fuel_exhaustion_is_equivalent() {
    let src = "main { while (true) { print 1; } }";
    let compiled = Compiler::new().with_fuel(1000).compile(src).unwrap();
    for backend in [Backend::TreeWalk, Backend::Vm] {
        match run_on(&compiled, backend) {
            Outcome::Runtime(RtError::OutOfFuel) => {}
            other => panic!("{backend:?}: expected OutOfFuel, got {other:?}"),
        }
    }
}

/// Guard symmetry: both backends enforce the same configurable depth
/// limit in the same units (method activations plus nested field
/// initialisers) and report the byte-identical `DepthExceeded` error at
/// the identical depth — and runs that fit the limit complete
/// identically.
#[test]
fn depth_exhaustion_is_equivalent() {
    let src = r#"class A {
           class C {
             int go(int n) {
               if (n < 1) { return 0; } else { return this.go(n - 1) + 1; }
             }
           }
         }
         main { final A.C c = new A.C(); print c.go(100000); }"#;
    for limit in [1u32, 7, 100, 2_000] {
        let compiled = Compiler::new().with_max_depth(limit).compile(src).unwrap();
        let tree = run_on(&compiled, Backend::TreeWalk);
        let vm = run_on(&compiled, Backend::Vm);
        assert_eq!(tree, vm, "backends disagree at limit {limit}");
        match tree {
            Outcome::Runtime(RtError::DepthExceeded(l)) => assert_eq!(l, limit),
            other => panic!("expected DepthExceeded({limit}), got {other:?}"),
        }
    }
    // Just inside the limit, both complete with identical output and
    // semantic statistics (51 activations fit in 60).
    let fits = src.replace("c.go(100000)", "c.go(50)");
    let compiled = Compiler::new().with_max_depth(60).compile(&fits).unwrap();
    let tree = run_on(&compiled, Backend::TreeWalk);
    assert_eq!(tree, run_on(&compiled, Backend::Vm));
    match tree {
        Outcome::Ok { output, .. } => assert_eq!(output, vec!["50"]),
        other => panic!("expected success under the limit, got {other:?}"),
    }
}

/// Division by zero is a benign runtime error on both backends.
#[test]
fn division_by_zero_is_equivalent() {
    assert_equivalent(
        "division_by_zero",
        r#"main { final int z = 0; print 1 / z; }"#,
        None,
    );
}

/// The §7.3 lambda-compiler case study: in-place translation with node
/// reuse across three families, including the composed `sumpair` family.
#[test]
fn lambda_compiler_is_equivalent() {
    let mains = [
        (
            "lambda_var",
            r#"final pair!.Var v = new pair.Var { x = "y" };
               final pair!.Translator t = new pair.Translator();
               final base!.Exp b = v.translate(t);
               print b.show();
               print v == b;"#
                .to_string(),
        ),
        (
            "lambda_pair",
            r#"final pair!.Exp p = new pair.Pair {
                 fst = new pair.Var { x = "a" },
                 snd = new pair.Var { x = "b" } };
               final pair!.Translator t = new pair.Translator();
               final base!.Exp b = p.translate(t);
               print b.show();
               print p == b;
               print t.rebuilt;"#
                .to_string(),
        ),
        ("lambda_deep_spine", {
            let mut t = r#"new pair.Pair { fst = new pair.Var { x = "a" }, snd = new pair.Var { x = "b" } }"#.to_string();
            for i in 0..12 {
                t = format!(r#"new pair.Abs {{ x = "x{i}", e = {t} }}"#);
            }
            format!(
                r#"final pair!.Exp root = {t};
                   final pair!.Translator tr = new pair.Translator();
                   final base!.Exp out = root.translate(tr);
                   print tr.reusedAbs;
                   print tr.rebuilt;
                   print out == root;"#
            )
        }),
    ];
    for (name, main_body) in &mains {
        assert_equivalent(name, &lambda::program(main_body), None);
    }
}

/// The §2.4 service-evolution case study: a live dispatcher evolves
/// through a view change; behaviour switches without losing state.
#[test]
fn service_evolution_is_equivalent() {
    let main_body = r#"
        final service!.SomeService s = new service.SomeService();
        final service!.EchoService e = new service.EchoService();
        final service!.Dispatcher d = new service.Dispatcher { s = s, e = e };
        final Server srv = new Server { disp = d };
        final service!.Packet p0 = new service.Packet { kind = 0, payload = "a" };
        final service!.Packet p1 = new service.Packet { kind = 1, payload = "b" };
        print d.dispatch(p0);
        print d.dispatch(p1);
        srv.evolve();
        final logService!.Dispatcher d2 = (cast logService!.Dispatcher)srv.disp;
        final logService!.Packet q0 = (view logService!.Packet)p0;
        final logService!.Packet q1 = (view logService!.Packet)p1;
        print d2.dispatch(q0);
        print d2.dispatch(q1);
        print d.dispatch(p0);
        print s.handled;"#;
    assert_equivalent("service_evolution", &service::program(main_body), None);
}

/// A final reference compares across backends by location, view and the
/// mask set its engine's table resolves the id to. Here the VM interns
/// the cast's `\y` set, which the tree-walker never materialises, so the
/// two engines give `\x` different ids for the same set.
#[test]
fn final_references_compare_by_resolved_mask_sets() {
    let src = r#"class A { class C { int x = 1; int y = 2; } }
         class B extends A { class C shares A.C { } }
         main {
           final A!.C a = new A.C();
           final A.C\y t = (cast A.C\y)a;
           (view B!.C\x)a;
         }"#;
    let compiled = Compiler::new().compile(src).unwrap();
    let runs = [Backend::TreeWalk, Backend::Vm].map(|b| compiled.run_on(b).unwrap());
    let [tree, vm] = &runs;
    let ids = runs
        .each_ref()
        .map(|out| out.value.as_ref_val().unwrap().masks);
    assert_ne!(ids[0], ids[1], "ids are engine-local");
    let x = compiled.program.table.intern("x");
    assert_eq!(tree.value_masks, [x].into());
    assert_eq!(corpus::value_shape(tree), corpus::value_shape(vm));
    assert_equivalent("final_masked_reference", src, None);
}

/// A program, its printed lines, its final value's masks and each
/// engine's `mask_allocs` (tree-walker, VM).
type AllocCase = (
    &'static str,
    String,
    &'static [&'static str],
    &'static [&'static str],
    [u64; 2],
);

/// R-ALLOC (Fig. 17) on both engines: inherited initialisers run
/// base-most class first, and a class's own in declaration order; a
/// record value overrides a declared
/// initialiser of the same field (which still runs); two sites of one
/// class that provide different fields leave different masks on their
/// fresh references; and a record writes the copy of a field its class
/// owns in a sharing group where the partners hold separate copies
/// (`fclass`), read back through both partner views (A2's by §3.3
/// forwarding to A1's copy). Each case checks the printed lines and the
/// final value's resolved mask set, compares the engines with
/// `assert_equivalent`, and pins each engine's `mask_allocs`: the counts
/// are per engine table and differ on `two_sites_*`, where the VM also
/// interns the ∅ of an `int` field's read type.
#[test]
fn allocation_order_and_record_semantics_are_equivalent() {
    let two_sites = |last: &str| {
        format!(
            "class A {{ class C {{ int x; int y = 2; int z; }} }}
             main {{
               final A.C\\z a = new A.C {{ x = 1 }};
               final A.C\\x b = new A.C {{ z = 3 }};
               print a.x + a.y;
               print b.z;
               {last};
             }}"
        )
    };
    let cases: [AllocCase; 6] = [
        (
            "initialisers_base_most_first",
            r#"class A {
                 class Log { int say(str s) { print s; return 0; } }
                 class B { int b = new Log().say("B"); }
                 class D extends B { int d = new Log().say("D"); }
                 class E extends D { int e = new Log().say("E"); }
               }
               main { final A.E x = new A.E(); print "done"; x; }"#
                .into(),
            &["B", "D", "E", "done"],
            &[],
            [2, 2],
        ),
        (
            "initialisers_in_declaration_order_within_a_class",
            r#"class A {
                 class Log { int say(str s, int v) { print s; return v; } }
                 class C { int x = new Log().say("init x", 1); int y = new Log().say("init y", 2); }
                 class D extends C { int z = new Log().say("init z", 3); int w = new Log().say("init w", 4); }
               }
               main { final A.D d = new A.D(); print d.x + d.y + d.z + d.w; d; }"#
                .into(),
            &["init x", "init y", "init z", "init w", "10"],
            &[],
            [2, 2],
        ),
        (
            "record_overrides_initialiser",
            r#"class A {
                 class Log { int say(str s, int v) { print s; return v; } }
                 class C { int x = new Log().say("init x", 1); int y = 2; }
               }
               main { final A.C c = new A.C { x = 10 }; print c.x; print c.y; c; }"#
                .into(),
            &["init x", "10", "2"],
            &[],
            [2, 2],
        ),
        (
            "two_sites_first",
            two_sites("a"),
            &["3", "3"],
            &["z"],
            [3, 4],
        ),
        (
            "two_sites_second",
            two_sites("b"),
            &["3", "3"],
            &["x"],
            [3, 4],
        ),
        (
            "record_writes_its_partner_copy",
            r#"class A1 {
                 class D { int tag = 1; }
                 class C { D g = new D(); int probe() { return this.g.tag; } }
               }
               class A2 extends A1 {
                 class D shares A1.D { }
                 class C shares A1.C\g { int probe() { return 100 + this.g.tag; } }
               }
               main {
                 final A1!.C c = new A1.C { g = new A1.D { tag = 5 } };
                 print c.probe();
                 final A2!.C\g v = (view A2!.C\g)c;
                 print v.probe();
                 final A2!.C w = new A2.C { g = new A2.D { tag = 7 } };
                 print w.probe();
                 v;
               }"#
            .into(),
            &["5", "105", "107"],
            &["g"],
            [3, 3],
        ),
    ];
    for (name, src, output, masks, mask_allocs) in cases {
        assert_equivalent(name, &src, None);
        let compiled = Compiler::new().compile(&src).unwrap();
        let masks = masks.iter().map(|m| compiled.program.table.intern(m));
        let masks: std::collections::BTreeSet<_> = masks.collect();
        for (backend, want) in [Backend::TreeWalk, Backend::Vm]
            .into_iter()
            .zip(mask_allocs)
        {
            let out = compiled.run_on(backend).unwrap();
            assert_eq!(out.output, output, "[{name}] {backend:?}");
            assert_eq!(out.value_masks, masks, "[{name}] {backend:?}");
            assert_eq!(out.stats.mask_allocs, want, "[{name}] {backend:?}");
        }
    }
}
