//! The checker's memos answer what a fresh computation answers.
//!
//! `ClassTable::related` (the `~` relation) comes from union-find
//! components, and SH-CLS's closed-world enumeration
//! (`SharingTable::enumerate_subclasses`) is memoised per family type.
//! After checking each program below, both are compared with reference
//! implementations kept in this file: a breadth-first search over `@`
//! edges for every pair of classes, and a non-memoised enumeration for
//! every `F!.C`.

mod corpus;

use jns_types::{CheckedProgram, ClassId, ClassTable, Judge, Ty, TypeEnv};
use std::collections::BTreeSet;

/// Figures 1–2 of the paper (the checker's `figure12` unit-test fixture)
/// as source, with Figure 3's sharing.
const FIGURE12: &str = "
class AST {
  class Exp { }
  class Value extends Exp { }
  class Binary extends Exp { }
}
class TreeDisplay {
  class Node { }
  class Composite extends Node { }
  class Leaf extends Node { }
}
class ASTDisplay extends AST & TreeDisplay adapts AST {
  class Exp extends Node { }
  class Binary extends Exp & Composite { }
}
main { print 1; }";

fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = corpus::PAPER_EXAMPLES
        .iter()
        .chain(corpus::PAPER_FIGURES)
        .map(|(name, src)| (name.to_string(), src.to_string()))
        .collect();
    out.push(("figure12".into(), FIGURE12.into()));
    out.push(("lambda".into(), bench::workloads::lambda_source(3)));
    out.push(("service".into(), bench::workloads::service_source()));
    for depth in [1, 2, 3, 6] {
        out.push((
            format!("frontend_deep_d{depth}"),
            bench::workloads::frontend_deep_source(depth),
        ));
    }
    out
}

fn checked(name: &str, src: &str) -> CheckedProgram {
    let ast = jns_syntax::parse(src).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
    jns_types::check(&ast).unwrap_or_else(|e| panic!("{name}: check: {e:?}"))
}

/// Component labels of undirected reachability over direct `@` edges,
/// found by a breadth-first search from every class.
fn reference_components(t: &ClassTable) -> Vec<usize> {
    let n = t.len();
    let mut adj = vec![Vec::new(); n];
    for id in t.all_ids() {
        for s in t.direct_supers(id) {
            adj[id.0 as usize].push(s.0 as usize);
            adj[s.0 as usize].push(id.0 as usize);
        }
    }
    assert_eq!(t.len(), n, "`related` left the class set open");
    let mut label = vec![usize::MAX; n];
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = start;
        let mut queue = vec![start];
        while let Some(q) = queue.pop() {
            for &nb in &adj[q] {
                if label[nb] == usize::MAX {
                    label[nb] = start;
                    queue.push(nb);
                }
            }
        }
    }
    label
}

/// Every class `X` with `X! ≤ F!.C`, among the member classes of `F`.
fn reference_subclasses(j: &Judge<'_>, fam: ClassId, ps: &Ty) -> Vec<ClassId> {
    let mut out = Vec::new();
    for n in nested_names(j.table, fam) {
        if let Some(m) = j.table.member(fam, n) {
            if j.sub_pure(&Ty::Class(m).exact(), ps) && !out.contains(&m) {
                out.push(m);
            }
        }
    }
    out
}

/// The names of the nested classes `fam` declares or inherits.
fn nested_names(t: &ClassTable, fam: ClassId) -> BTreeSet<jns_types::Name> {
    t.supers(fam)
        .into_iter()
        .flat_map(|s| t.class(s).nested_explicit.into_keys())
        .collect()
}

#[test]
fn related_equals_a_breadth_first_search() {
    for (name, src) in programs() {
        let prog = checked(&name, &src);
        let t = &prog.table;
        // Close the class set before the reference walks it.
        t.related(ClassId::ROOT, ClassId(t.len() as u32 - 1));
        let label = reference_components(t);
        for a in t.all_ids() {
            for b in t.all_ids() {
                assert_eq!(
                    t.related(a, b),
                    label[a.0 as usize] == label[b.0 as usize],
                    "{name}: {} ~ {}",
                    t.class_name(a),
                    t.class_name(b)
                );
            }
        }
    }
}

#[test]
fn enumerate_subclasses_equals_a_fresh_enumeration() {
    let mut compared = 0;
    for (name, src) in programs() {
        let prog = checked(&name, &src);
        let t = &prog.table;
        let env = TypeEnv::new();
        let j = Judge::new(t, &env);
        for fam in t.all_ids() {
            for c in nested_names(t, fam) {
                let ps = Ty::Nested(Box::new(Ty::Class(fam).exact()), c);
                // The first call may answer from the check's memo, the
                // second from this one's.
                for _ in 0..2 {
                    let memo = prog.sharing.enumerate_subclasses(&j, &ps);
                    let fresh = reference_subclasses(&j, fam, &ps);
                    assert_eq!(memo, Some(fresh), "{name}: {}", t.show_ty(&ps));
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 100, "only {compared} family types compared");
}

/// The deep-chain bench program checks and prints the same on both
/// backends.
#[test]
fn frontend_deep_program_runs_on_both_backends() {
    let src = bench::workloads::frontend_deep_source(4);
    for backend in [jns_core::Backend::TreeWalk, jns_core::Backend::Vm] {
        let out = jns_core::Compiler::new()
            .with_backend(backend)
            .compile(&src)
            .expect("checks")
            .run()
            .expect("runs");
        assert_eq!(out.output, ["1"], "{backend:?}");
    }
}
