//! The shared runnable paper-program corpus: every paper-example and
//! paper-figure program exercised by the differential suites. One copy,
//! used by `tests/vm_differential.rs` (backend equivalence) and
//! `tests/gc.rs` (GC-on/GC-off equivalence on both backends), plus the
//! one run helper the GC suites compare configurations with.

// Every suite includes this module; not every suite uses every item.
#![allow(dead_code)]

use jns_core::{Backend, Compiler, Error, RtError, RunConfig, RunOutput, Stats, Value};

/// The observable result of one run: printed output plus the semantic
/// statistics — everything that must not depend on whether, when, or
/// *how* (minor/major) the collector ran.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    Ok {
        output: Vec<String>,
        semantic: (u64, u64, u64, u64, u64),
    },
    Runtime(RtError),
}

/// Compiles `src` and runs it on `backend` under `cfg`. A runtime error
/// comes back with default statistics.
pub fn run_cfg(src: &str, backend: Backend, cfg: RunConfig) -> (Outcome, Stats) {
    let compiled = Compiler::new()
        .with_backend(backend)
        .with_config(cfg)
        .compile(src)
        .unwrap_or_else(|e| panic!("does not compile: {e}"));
    match compiled.run() {
        Ok(out) => (
            Outcome::Ok {
                output: out.output,
                semantic: out.stats.semantic(),
            },
            out.stats,
        ),
        Err(Error::Runtime(e, _)) => (Outcome::Runtime(e), Stats::default()),
        Err(e) => panic!("non-runtime failure: {e}"),
    }
}

/// A run's final value as two engines must agree on it: a reference by
/// location, view and resolved mask set (its mask id is local to the
/// engine that ran it), anything else by its `Debug` form.
pub fn value_shape(out: &RunOutput) -> String {
    match &out.value {
        Value::Ref(r) => format!(
            "Ref(loc {}, view {:?}, masks {:?})",
            r.loc, r.view, out.value_masks
        ),
        v => format!("{v:?}"),
    }
}

/// A GC mode: a heap limit and a nursery, every other limit default.
pub fn gc(heap_limit: Option<usize>, nursery: Option<usize>) -> RunConfig {
    RunConfig {
        heap_limit,
        nursery,
        ..RunConfig::default()
    }
}

/// Every runnable program from `crates/jns-eval/tests/paper_examples.rs`.
pub const PAPER_EXAMPLES: &[(&str, &str)] = &[
    (
        "figure3_family_adaptation",
        r#"class AST {
           class Exp { str name = "exp"; str show() { return this.name; } }
           class Value extends Exp { }
           class Binary extends Exp { Exp l; Exp r; }
         }
         class TreeDisplay {
           class Node { str display() { return "node"; } }
           class Composite extends Node { }
           class Leaf extends Node { }
         }
         class ASTDisplay extends AST & TreeDisplay {
           class Exp extends Node shares AST.Exp {
             str display() { return "exp:" + this.name; }
           }
           class Value extends Exp & Leaf shares AST.Value {
             str display() { return "value:" + this.name; }
           }
           class Binary extends Exp & Composite shares AST.Binary {
             str display() {
               return "(" + this.l.display() + " " + this.r.display() + ")";
             }
           }
           str show(AST!.Exp e) sharing AST!.Exp = Exp {
             final Exp temp = (view Exp)e;
             return temp.display();
           }
         }
         main {
           final AST!.Exp l = new AST.Value { name = "x" };
           final AST!.Exp r = new AST.Value { name = "y" };
           final AST!.Binary root = new AST.Binary { name = "+", l = l, r = r };
           final ASTDisplay d = new ASTDisplay();
           print d.show(root);
         }"#,
    ),
    (
        "view_change_preserves_identity",
        r#"class A { class C { } }
         class B extends A { class C shares A.C { } }
         main {
           final A!.C a = new A.C();
           final B!.C b = (view B!.C)a;
           print a == b;
         }"#,
    ),
    (
        "figure4_dynamic_evolution",
        r#"class Service {
           class Handler {
             str handle() { return "basic"; }
           }
           class Dispatcher {
             Handler h;
             str dispatch() { return this.h.handle(); }
           }
         }
         class LogService extends Service {
           class Handler shares Service.Handler {
             str handle() { return "logged"; }
           }
           class Dispatcher shares Service.Dispatcher {
             str dispatch() { return "[log] " + this.h.handle(); }
           }
         }
         main {
           final Service!.Handler h = new Service.Handler();
           final Service!.Dispatcher d = new Service.Dispatcher { h = h };
           print d.dispatch();
           final LogService!.Dispatcher d2 = (view LogService!.Dispatcher)d;
           print d2.dispatch();
           print d.dispatch();
         }"#,
    ),
    (
        "figure5_new_field_masking",
        r#"class A1 { class B { int y = 1; } }
         class A2 extends A1 {
           class B shares A1.B { int f; int sum() { return this.y + this.f; } }
         }
         main {
           final A1!.B b1 = new A1.B();
           final A2!.B\f b2 = (view A2!.B\f)b1;
           b2.f = 41;
           print b2.sum();
           print b1 == b2;
         }"#,
    ),
    (
        "duplicated_fields_are_per_family",
        r#"class A1 {
           class D { int tag = 1; }
           class C { D g = new D(); int read() { return this.g.tag; } }
         }
         class A2 extends A1 {
           class D shares A1.D { }
           class E extends D { int tag2 = 9; }
           class C shares A1.C\g {
             int read2() { return this.g.tag; }
           }
         }
         main {
           final A1!.C c = new A1.C();
           print c.read();
           final A2!.C c2 = (view A2!.C)c;
           print c2.read2();
         }"#,
    ),
    (
        "config_invariant_program",
        r#"class AST {
           class Exp { }
           class Binary extends Exp { Exp l; Exp r; }
         }
         class ASTDisplay extends AST adapts AST { }
         main {
           final AST!.Exp a = new AST.Exp();
           final AST!.Exp b = new AST.Exp();
           final AST!.Binary root = new AST.Binary { l = a, r = b };
           final ASTDisplay!.Binary d = (view ASTDisplay!.Binary)root;
           print d.l == a;
         }"#,
    ),
    (
        "implicit_view_changes_are_lazy",
        r#"class F1 {
           class N { int depth() { return 1; } }
           class Cons extends N { F1[this.class].N next; }
         }
         class F2 extends F1 adapts F1 {
           class N { int depth() { return 2; } }
         }
         main {
           final F1!.N a = new F1.N();
           final F1!.Cons b = new F1.Cons { next = a };
           final F2!.Cons b2 = (view F2!.Cons)b;
           print b2.depth();
           print b2.next.depth();
         }"#,
    ),
    (
        "primitives_end_to_end",
        r#"main {
           final int a = 6;
           final int b = 7;
           print a * b;
           print "x" + "y";
           print 10 % 3;
           print (1 < 2) && !(3 == 4);
         }"#,
    ),
    (
        "loops_compute",
        r#"class Counter { class Cell { int v = 0; } }
         main {
           final Counter.Cell c = new Counter.Cell();
           while (c.v < 10) { c.v = c.v + 1; }
           print c.v;
         }"#,
    ),
];

/// Every runnable program from `tests/paper_figures.rs`.
pub const PAPER_FIGURES: &[(&str, &str)] = &[
    (
        "figure2_nested_inheritance",
        r#"class AST {
          class Exp { str show() { return "e"; } }
          class Value extends Exp { str show() { return "v"; } }
          class Binary extends Exp { Exp l; Exp r;
            str show() { return "(" + this.l.show() + this.r.show() + ")"; } }
        }
        class ASTDisplay extends AST {
          class Exp { str display() { return "[" + this.show() + "]"; } }
        }
        main {
          final ASTDisplay.Value v = new ASTDisplay.Value();
          print v.display();
          final ASTDisplay!.Exp a = new ASTDisplay.Value();
          final ASTDisplay!.Exp b = new ASTDisplay.Value();
          final ASTDisplay.Binary t = new ASTDisplay.Binary { l = a, r = b };
          print t.display();
        }"#,
    ),
    (
        "view_change_is_not_a_cast",
        r#"class A { class C { str f() { return "a"; } } }
        class B extends A { class C shares A.C { str f() { return "b"; } } }
        main {
          final A!.C a = new A.C();
          final B!.C b = (view B!.C)a;
          print b.f();
          final A!.C a2 = (view A!.C)b;
          print a2 == a;
        }"#,
    ),
    (
        "severed_sharing_fixed_by_override",
        r#"class AST { class Exp { } }
        class ASTDisplay extends AST adapts AST {
          void show(AST!.Exp e) sharing AST!.Exp = Exp {
            final Exp t = (view Exp)e;
          }
        }
        class Severed extends ASTDisplay {
          class Exp { }
          void show(AST!.Exp e) { }
        }
        main { print 1; }"#,
    ),
    (
        "figure5_unshared_state",
        r#"class A1 {
          class B { }
          class C { D g = new D(); }
          class D { int v = 5; }
        }
        class A2 extends A1 {
          class B shares A1.B { int f; }
          class C shares A1.C\g { }
          class D shares A1.D { }
          class E extends D { }
        }
        main {
          final A1!.B b1 = new A1.B();
          final A2!.B\f b2 = (view A2!.B\f)b1;
          b2.f = 10;
          print b2.f;
          final A1!.C c1 = new A1.C();
          final A2!.C c2 = (view A2!.C)c1;
          print c2.g.v;
          print c1 == c2;
        }"#,
    ),
    (
        "sharing_is_transitive",
        r#"class Base { class C { str f() { return "base"; } } }
        class Left extends Base { class C shares Base.C { str f() { return "left"; } } }
        class Right extends Base { class C shares Base.C { str f() { return "right"; } } }
        main {
          final Left!.C l = new Left.C();
          final Right!.C r = (view Right!.C)l;
          print r.f();
          print l == r;
        }"#,
    ),
    (
        "adaptation_is_bidirectional",
        r#"class Service { class H { str go() { return "plain"; } } }
        class Logged extends Service { class H shares Service.H { str go() { return "logged"; } } }
        main {
          final Logged!.H h = new Logged.H();
          final Service!.H s = (view Service!.H)h;
          print s.go();
          print h.go();
        }"#,
    ),
];
