//! A corpus of ill-typed programs: each must be rejected with a relevant
//! message. This pins down the checker's guarantees.

fn reject(src: &str) -> String {
    let prog = jns_syntax::parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
    match jns_types::check(&prog) {
        Ok(_) => panic!("accepted ill-typed program:\n{src}"),
        Err(es) => es
            .iter()
            .map(|e| e.message.clone())
            .collect::<Vec<_>>()
            .join("\n"),
    }
}

#[test]
fn unknown_class() {
    assert!(reject("class A { Missing f; }").contains("unknown type name"));
}

#[test]
fn unknown_field() {
    assert!(
        reject("class A { class C { } } main { final A.C c = new A.C(); print c.nope; }")
            .contains("no field")
    );
}

#[test]
fn unknown_method() {
    assert!(
        reject("class A { class C { } } main { final A.C c = new A.C(); c.nope(); }")
            .contains("no method")
    );
}

#[test]
fn bad_arith() {
    assert!(reject("main { print 1 + true; }").contains("+"));
}

#[test]
fn bad_condition() {
    assert!(reject("main { if (1) { } }").contains("bool"));
}

#[test]
fn eq_between_prim_and_object() {
    assert!(
        reject("class A { class C { } } main { final A.C c = new A.C(); print c == 1; }")
            .contains("==")
    );
}

#[test]
fn inheritance_cycle() {
    assert!(reject("class A extends B { } class B extends A { }").contains("cycle"));
}

#[test]
fn field_shadowing() {
    assert!(reject(
        "class A { class C { int x = 1; } }
         class B extends A { class C { int x = 2; } }"
    )
    .contains("shadows"));
}

#[test]
fn sharing_with_non_overridden_class() {
    assert!(reject(
        "class A { class C { } class D { } }
         class B extends A { class C shares A.D { } }"
    )
    .contains("override"));
}

/// L-OK: two shared classes each hold a `final` field whose type `E`
/// makes unshared, so both fields would need duplicating. The errors come
/// in declaration order, identically on every check in one process.
#[test]
fn final_field_errors_are_reported_in_declaration_order() {
    let src = "class A1 {
                 class D { }
                 class C { final D g = new D(); }
                 class K { final D h = new D(); }
               }
               class A2 extends A1 {
                 class D shares A1.D { }
                 class C shares A1.C { }
                 class K shares A1.K { }
                 class E extends D { }
               }";
    let first = reject(src);
    let lines: Vec<&str> = first.lines().collect();
    assert_eq!(lines.len(), 2, "{first}");
    assert!(lines[0].contains("`g` of `A2.C`"), "{first}");
    assert!(lines[1].contains("`h` of `A2.K`"), "{first}");
    for _ in 0..20 {
        assert_eq!(reject(src), first);
    }
}

#[test]
fn masked_field_read_via_new() {
    assert!(reject(
        "class A { class C { int x; } }
         main { final A.C!\\x c = new A.C(); print c.x; }"
    )
    .contains("masked"));
}

#[test]
fn view_without_mask_on_new_field() {
    assert!(reject(
        "class A { class C { } }
         class B extends A { class C shares A.C { int f; } }
         main {
           final A!.C a = new A.C();
           final B!.C b = (view B!.C)a;
         }"
    )
    .contains("sharing"));
}

#[test]
fn assignment_to_final_field() {
    assert!(
        reject("class A { class C { final int x = 1; void f() { this.x = 2; } } }")
            .contains("final")
    );
}

#[test]
fn return_in_non_tail_position() {
    assert!(reject("class A { class C { int f() { return 1; print 2; } } }").contains("tail"));
}

#[test]
fn abstract_instantiation() {
    assert!(reject(
        "class A { class C { abstract int f(); } }
         main { final A.C c = new A.C(); }"
    )
    .contains("abstract"));
}

#[test]
fn override_changes_return_type() {
    assert!(reject(
        "class A { class C { int f() { return 1; } } }
         class B extends A { class C { bool f() { return true; } } }"
    )
    .contains("not equivalent"));
}

#[test]
fn cross_family_field_write() {
    assert!(!reject(
        "class F1 { class N { } class Holder { N item = new N(); } }
         class F2 extends F1 { class N { } class Holder { } }
         main {
           final F2.Holder h = new F2.Holder();
           final F1!.N x = new F1.N();
           h.item = x;
         }"
    )
    .is_empty());
}

#[test]
fn view_in_method_without_constraint() {
    assert!(reject(
        "class A { class C { } }
         class B extends A {
           class C shares A.C { }
           void f(A!.C a) { final C c = (view C)a; }
         }"
    )
    .contains("sharing constraint"));
}

#[test]
fn variable_shadowing() {
    assert!(reject("main { final int x = 1; final int x = 2; }").contains("already defined"));
}

#[test]
fn duplicate_method() {
    assert!(
        reject("class A { class C { int f() { return 1; } int f() { return 2; } } }")
            .contains("duplicate method")
    );
}

#[test]
fn duplicate_field() {
    assert!(reject("class A { class C { int x = 1; int x = 2; } }").contains("duplicate field"));
}

#[test]
fn masked_supertype() {
    assert!(
        reject("class A { class C { int x = 1; } class D extends C\\x { } }").contains("masked")
    );
}

#[test]
fn final_field_with_unshared_type_cannot_be_duplicated() {
    assert!(reject(
        "class A1 {
           class C { final D g = new D(); }
           class D { }
         }
         class A2 extends A1 {
           class C shares A1.C\\g { }
           class D shares A1.D { }
           class E extends D { }
         }"
    )
    .contains("final"));
}
