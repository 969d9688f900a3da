//! Property-based soundness evidence (§5): randomly generated well-typed
//! programs never get stuck. The generator builds programs that exercise
//! the core J&s mechanisms — sharing declarations, view changes with
//! masks, duplicated fields, late-bound field types — and the properties
//! assert:
//!
//! 1. the checker accepts them (they are well-typed by construction);
//! 2. execution raises no non-benign runtime error (progress);
//! 3. the CONFIG heap invariant (Fig. 19) holds after execution
//!    (preservation, observed at the heap level);
//! 4. object identity is preserved across all view changes.

use proptest::prelude::*;

/// Parameters of a generated program.
#[derive(Debug, Clone)]
struct ProgSpec {
    /// Number of extra int fields in the base class (with initialisers).
    base_fields: usize,
    /// Number of new int fields in the derived class (uninitialised).
    new_fields: usize,
    /// Object graph size created in main.
    objects: usize,
    /// Whether to include an unshared-typed field (duplicated, Fig. 5).
    duplicated_field: bool,
    /// How many of the objects get explicitly re-viewed.
    viewed: usize,
    /// Whether to initialise and read the new fields after viewing.
    init_new: bool,
}

fn spec_strategy() -> impl Strategy<Value = ProgSpec> {
    (
        0usize..4,
        0usize..3,
        1usize..6,
        any::<bool>(),
        0usize..6,
        any::<bool>(),
    )
        .prop_map(
            |(base_fields, new_fields, objects, duplicated_field, viewed, init_new)| ProgSpec {
                base_fields,
                new_fields,
                objects,
                duplicated_field,
                viewed,
                init_new,
            },
        )
}

/// Renders a program from a spec. Well-typed by construction: every view
/// change carries masks for all new fields (and the duplicated field),
/// and masked fields are only read after assignment.
fn render(spec: &ProgSpec) -> String {
    let mut base_members = String::new();
    for i in 0..spec.base_fields {
        base_members.push_str(&format!("    int b{i} = {i};\n"));
    }
    if spec.duplicated_field {
        base_members.push_str("    D g = new D();\n");
    }
    base_members.push_str("    int tag() { return 1; }\n");

    let mut derived_members = String::new();
    for i in 0..spec.new_fields {
        derived_members.push_str(&format!("    int n{i};\n"));
    }
    derived_members.push_str("    int tag() { return 2; }\n");

    // Mask set for the base->derived view: new fields (uninitialised) and
    // nothing else (the duplicated field g forwards base->derived, §3.3).
    let masks: Vec<String> = (0..spec.new_fields).map(|i| format!("\\n{i}")).collect();
    let mask_str = masks.join("");

    let (d_decl, d_base, e_decl) = if spec.duplicated_field {
        (
            "  class D { int w = 7; }\n",
            "  class D shares Base.D { }\n  class E extends D { int z = 9; }\n",
            "",
        )
    } else {
        ("", "", "")
    };

    let mut main = String::new();
    for o in 0..spec.objects {
        main.push_str(&format!("  final Base!.C c{o} = new Base.C();\n"));
        main.push_str(&format!("  print c{o}.tag();\n"));
    }
    for v in 0..spec.viewed.min(spec.objects) {
        main.push_str(&format!(
            "  final Derived!.C{mask_str} d{v} = (view Derived!.C{mask_str})c{v};\n"
        ));
        main.push_str(&format!("  print d{v}.tag();\n"));
        main.push_str(&format!("  print c{v} == d{v};\n"));
        if spec.init_new {
            for i in 0..spec.new_fields {
                main.push_str(&format!("  d{v}.n{i} = {i} + 100;\n"));
                main.push_str(&format!("  print d{v}.n{i};\n"));
            }
        }
        for i in 0..spec.base_fields {
            main.push_str(&format!("  print d{v}.b{i};\n"));
        }
        if spec.duplicated_field {
            // Reading g through the derived view forwards to the base copy.
            main.push_str(&format!("  print d{v}.g.w;\n"));
        }
    }
    format!(
        "class Base {{\n{d_decl}  class C {{\n{base_members}  }}\n}}\n\
         class Derived extends Base {{\n{d_base}{e_decl}  class C shares Base.C {{\n{derived_members}  }}\n}}\n\
         main {{\n{main}}}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_programs_are_sound(spec in spec_strategy()) {
        let src = render(&spec);
        let prog = jns_syntax::parse(&src)
            .unwrap_or_else(|e| panic!("generator produced unparsable code: {e}\n{src}"));
        let checked = jns_types::check(&prog).unwrap_or_else(|es| {
            panic!(
                "generator produced ill-typed code: {}\n{src}",
                es.iter().map(|e| e.message.clone()).collect::<Vec<_>>().join("; ")
            )
        });
        let fuel = jns_eval::RunConfig { fuel: Some(2_000_000), ..Default::default() };
        let mut m = jns_eval::Machine::new(&checked).with_config(fuel);
        match m.run() {
            Ok(_) => {}
            Err(e) if e.is_benign() => {}
            Err(e) => panic!("soundness violation: {e}\n{src}"),
        }
        // CONFIG invariant (Fig. 19): the heap stays well-formed.
        let violations = m.check_config();
        prop_assert!(violations.is_empty(), "heap invariant broken: {violations:?}\n{src}");
        // Identity: every `ci == di` printed true.
        for (i, line) in m.output.iter().enumerate() {
            if line == "false" {
                panic!("identity lost at output line {i}\n{src}");
            }
        }
        // Backend equivalence: the bytecode VM never gets stuck either,
        // and produces identical printed output on every generated program.
        let code = jns_vm::compile(&checked);
        let mut vm = jns_vm::Vm::new(&checked, &code).with_config(fuel);
        match vm.run() {
            Ok(_) => prop_assert_eq!(&vm.output, &m.output, "backends diverge on\n{}", src),
            Err(e) if e.is_benign() => {}
            Err(e) => panic!("VM soundness violation: {e}\n{src}"),
        }
    }

    /// Reading a new field *without* initialising it is ill-typed: the
    /// checker must reject the mask violation.
    #[test]
    fn mask_violations_are_rejected(nf in 1usize..3) {
        let src = format!(
            "class Base {{ class C {{ }} }}\n\
             class Derived extends Base {{ class C shares Base.C {{ int n0; }} }}\n\
             main {{\n\
               final Base!.C c = new Base.C();\n\
               final Derived!.C\\n0 d = (view Derived!.C\\n0)c;\n\
               print d.n{};\n\
             }}",
            nf - 1
        );
        let prog = jns_syntax::parse(&src).expect("parses");
        let r = jns_types::check(&prog);
        prop_assert!(r.is_err(), "mask violation accepted:\n{src}");
    }

    /// Viewing into an unrelated (non-sharing) family is always rejected.
    #[test]
    fn unrelated_views_are_rejected(n in 1usize..4) {
        let src = format!(
            "class A {{ class C {{ int x = {n}; }} }}\n\
             class B extends A {{ class C {{ }} }}\n\
             main {{\n\
               final A!.C a = new A.C();\n\
               final B!.C b = (view B!.C)a;\n\
             }}"
        );
        let prog = jns_syntax::parse(&src).expect("parses");
        prop_assert!(jns_types::check(&prog).is_err());
    }
}
