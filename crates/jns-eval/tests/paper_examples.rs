//! End-to-end executions of the paper's running examples (Figures 1-5)
//! through parse → check → run.

use jns_eval::{Machine, RtError, RunConfig};

fn run(src: &str) -> Vec<String> {
    jns_eval::run_source(src).unwrap_or_else(|e| panic!("{e}"))
}

fn checked(src: &str) -> jns_types::CheckedProgram {
    let prog = jns_syntax::parse(src).unwrap();
    jns_types::check(&prog).unwrap_or_else(|e| {
        panic!(
            "{}",
            e.iter()
                .map(|x| x.message.clone())
                .collect::<Vec<_>>()
                .join("\n")
        )
    })
}

/// Figure 1-3: family adaptation — AST objects gain display behaviour by
/// being viewed from the ASTDisplay family; the child accessed through the
/// new reference is implicitly re-viewed.
#[test]
fn figure3_family_adaptation() {
    let out = run("class AST {
           class Exp { str name = \"exp\"; str show() { return this.name; } }
           class Value extends Exp { }
           class Binary extends Exp { Exp l; Exp r; }
         }
         class TreeDisplay {
           class Node { str display() { return \"node\"; } }
           class Composite extends Node { }
           class Leaf extends Node { }
         }
         class ASTDisplay extends AST & TreeDisplay {
           class Exp extends Node shares AST.Exp {
             str display() { return \"exp:\" + this.name; }
           }
           class Value extends Exp & Leaf shares AST.Value {
             str display() { return \"value:\" + this.name; }
           }
           class Binary extends Exp & Composite shares AST.Binary {
             str display() {
               return \"(\" + this.l.display() + \" \" + this.r.display() + \")\";
             }
           }
           str show(AST!.Exp e) sharing AST!.Exp = Exp {
             final Exp temp = (view Exp)e;
             return temp.display();
           }
         }
         main {
           final AST!.Exp l = new AST.Value { name = \"x\" };
           final AST!.Exp r = new AST.Value { name = \"y\" };
           final AST!.Binary root = new AST.Binary { name = \"+\", l = l, r = r };
           final ASTDisplay d = new ASTDisplay();
           print d.show(root);
         }");
    assert_eq!(out, vec!["(value:x value:y)"]);
}

/// §2.3: view changes preserve object identity.
#[test]
fn view_change_preserves_identity() {
    let out = run("class A { class C { } }
         class B extends A { class C shares A.C { } }
         main {
           final A!.C a = new A.C();
           final B!.C b = (view B!.C)a;
           print a == b;
         }");
    assert_eq!(out, vec!["true"]);
}

/// §2.4: dynamic object evolution — after a single view change on the
/// dispatcher, the overridden method runs, and objects reached through its
/// fields also evolve (transitively, lazily).
#[test]
fn figure4_dynamic_evolution() {
    let out = run("class Service {
           class Handler {
             str handle() { return \"basic\"; }
           }
           class Dispatcher {
             Handler h;
             str dispatch() { return this.h.handle(); }
           }
         }
         class LogService extends Service {
           class Handler shares Service.Handler {
             str handle() { return \"logged\"; }
           }
           class Dispatcher shares Service.Dispatcher {
             str dispatch() { return \"[log] \" + this.h.handle(); }
           }
         }
         main {
           final Service!.Handler h = new Service.Handler();
           final Service!.Dispatcher d = new Service.Dispatcher { h = h };
           print d.dispatch();
           final LogService!.Dispatcher d2 = (view LogService!.Dispatcher)d;
           print d2.dispatch();
           print d.dispatch();
         }");
    // The old reference still sees the old behaviour; the new view sees the
    // new behaviour *and* its handler transitively evolves.
    assert_eq!(out, vec!["basic", "[log] logged", "basic"]);
}

/// Figure 5: a new field in the derived family is masked after the view
/// change and becomes readable only after initialisation.
#[test]
fn figure5_new_field_masking() {
    let out = run("class A1 { class B { int y = 1; } }
         class A2 extends A1 {
           class B shares A1.B { int f; int sum() { return this.y + this.f; } }
         }
         main {
           final A1!.B b1 = new A1.B();
           final A2!.B\\f b2 = (view A2!.B\\f)b1;
           b2.f = 41;
           print b2.sum();
           print b1 == b2;
         }");
    assert_eq!(out, vec!["42", "true"]);
}

/// Duplicated fields: each family reads its own copy (fclass).
#[test]
fn duplicated_fields_are_per_family() {
    let out = run("class A1 {
           class D { int tag = 1; }
           class C { D g = new D(); int read() { return this.g.tag; } }
         }
         class A2 extends A1 {
           class D shares A1.D { }
           class E extends D { int tag2 = 9; }
           class C shares A1.C\\g {
             int read2() { return this.g.tag; }
           }
         }
         main {
           final A1!.C c = new A1.C();
           print c.read();
           // Viewing into A2: g is *forwarded* (A1!.D ⤳ A2!.D holds), so
           // the derived view can still read the base copy.
           final A2!.C c2 = (view A2!.C)c;
           print c2.read2();
         }");
    assert_eq!(out, vec!["1", "1"]);
}

/// Casts check the run-time view; failed casts raise a benign error.
#[test]
fn cast_checks_view() {
    let src = "class A { class C { } class D { } }
         main {
           final A!.C c = new A.C();
           final A.D d = (cast A.D)c;
         }";
    let prog = jns_syntax::parse(src).unwrap();
    let checked = jns_types::check(&prog).unwrap();
    let mut m = Machine::new(&checked);
    let err = m.run().unwrap_err();
    assert!(matches!(err, RtError::CastFailed(_)));
    assert!(err.is_benign());
}

/// The CONFIG heap invariant (Fig. 19) holds after every example run.
#[test]
fn config_invariant_holds() {
    let src = "class AST {
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
         }";
    let checked = checked(src);
    let mut m = Machine::new(&checked);
    m.run().unwrap();
    assert_eq!(m.check_config(), Vec::<String>::new());
    assert_eq!(m.output, vec!["true"]);
}

/// Implicit view changes happen lazily, on field access (§6.3).
#[test]
fn implicit_view_changes_are_lazy_and_counted() {
    let src = "class F1 {
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
         }";
    let checked = checked(src);
    let mut m = Machine::new(&checked);
    m.run().unwrap();
    assert_eq!(m.output, vec!["2", "2"]);
    assert_eq!(m.stats.views_explicit, 1);
}

/// Fuel limits stop runaway programs with a benign error.
#[test]
fn fuel_is_enforced() {
    let src = "main { while (true) { print 1; } }";
    let prog = jns_syntax::parse(src).unwrap();
    let checked = jns_types::check(&prog).unwrap();
    let mut m = Machine::new(&checked).with_config(RunConfig {
        fuel: Some(1000),
        ..RunConfig::default()
    });
    assert_eq!(m.run().unwrap_err(), RtError::OutOfFuel);
}

/// Arithmetic and strings work end to end.
#[test]
fn primitives_end_to_end() {
    let out = run("main {
           final int a = 6;
           final int b = 7;
           print a * b;
           print \"x\" + \"y\";
           print 10 % 3;
           print (1 < 2) && !(3 == 4);
         }");
    assert_eq!(out, vec!["42", "xy", "1", "true"]);
}

/// While loops and conditionals compute.
#[test]
fn loops_compute() {
    let out = run("class Counter { class Cell { int v = 0; } }
         main {
           final Counter.Cell c = new Counter.Cell();
           while (c.v < 10) { c.v = c.v + 1; }
           print c.v;
         }");
    assert_eq!(out, vec!["10"]);
}

/// Direct machine-API tests: alloc / view / fclass without surface syntax.
mod machine_api {
    use jns_eval::{Machine, Value};

    fn program() -> jns_types::CheckedProgram {
        let prog = jns_syntax::parse(
            "class A1 {
               class D { int tag = 1; }
               class C { D g = new D(); int probe() { return this.g.tag; } }
             }
             class A2 extends A1 {
               class D shares A1.D { }
               class E extends D { int extra = 2; }
               class C shares A1.C\\g { int probe() { return 100 + this.g.tag; } }
             }
             main { print 0; }",
        )
        .unwrap();
        jns_types::check(&prog).unwrap()
    }

    #[test]
    fn alloc_runs_field_initialisers() {
        let p = program();
        let mut m = Machine::new(&p);
        let c = p
            .table
            .lookup_path(&[p.table.intern("A1"), p.table.intern("C")])
            .unwrap();
        let v = m.alloc(c, vec![]).unwrap();
        let r = *v.as_ref_val().unwrap();
        assert!(r.masks.is_empty(), "all fields initialised: {:?}", r.masks);
        let g = p.table.intern("g");
        let gv = m.get_field(&r, g).unwrap();
        assert!(matches!(gv, Value::Ref(_)));
    }

    #[test]
    fn view_function_finds_unique_partner() {
        let p = program();
        let mut m = Machine::new(&p);
        let a1c = p
            .table
            .lookup_path(&[p.table.intern("A1"), p.table.intern("C")])
            .unwrap();
        let a2c = p
            .table
            .lookup_path(&[p.table.intern("A2"), p.table.intern("C")])
            .unwrap();
        let v = m.alloc(a1c, vec![]).unwrap();
        let r = *v.as_ref_val().unwrap();
        let target = jns_types::Ty::Class(a2c).exact();
        let viewed = m.apply_view(r, &target, Default::default()).unwrap();
        assert_eq!(viewed.loc, r.loc);
        assert_eq!(viewed.view, a2c);
        // Method dispatch through the new view runs A2's override and the
        // forwarded read of g (§3.3).
        let probe = p.table.intern("probe");
        let out = m.call(viewed, probe, vec![]).unwrap();
        assert_eq!(out, Value::Int(101));
    }

    #[test]
    fn view_to_unrelated_class_fails() {
        let p = program();
        let mut m = Machine::new(&p);
        let a1c = p
            .table
            .lookup_path(&[p.table.intern("A1"), p.table.intern("C")])
            .unwrap();
        let a1d = p
            .table
            .lookup_path(&[p.table.intern("A1"), p.table.intern("D")])
            .unwrap();
        let v = m.alloc(a1c, vec![]).unwrap();
        let r = *v.as_ref_val().unwrap();
        let target = jns_types::Ty::Class(a1d).exact();
        assert!(m.apply_view(r, &target, Default::default()).is_err());
    }

    #[test]
    fn stats_count_allocations_and_calls() {
        let p = program();
        let mut m = Machine::new(&p);
        let a1c = p
            .table
            .lookup_path(&[p.table.intern("A1"), p.table.intern("C")])
            .unwrap();
        let v = m.alloc(a1c, vec![]).unwrap();
        let r = *v.as_ref_val().unwrap();
        let probe = p.table.intern("probe");
        m.call(r, probe, vec![]).unwrap();
        assert_eq!(m.stats.allocs, 2, "C plus its D initialiser");
        assert!(m.stats.calls >= 1);
    }
}
