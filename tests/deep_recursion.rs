//! Stack-safety suite: deep J&s recursion — through method calls or
//! through field initialisers that allocate — and deep expression
//! nesting must never abort the process. Both backends run on explicit
//! heap-allocated stacks — the tree-walking interpreter is a CEK-style
//! machine over control/value stacks, the VM keeps an explicit frame
//! vector in one dispatch loop that never re-enters itself, with an
//! allocation in flight parked as a frame — so the only limits are heap
//! memory and the configurable recursion-depth knob, whose exhaustion is
//! the benign [`RtError::DepthExceeded`].
//!
//! To make a regression to native recursion fail loudly, evaluation runs
//! on deliberately *small* spawned-thread stacks ([`SMALL_STACK`], far
//! below what per-AST-node native recursion would need at these depths),
//! in the debug profile (see the dedicated CI job, which additionally
//! constrains `RUST_MIN_STACK`). Compilation of the deep-*nesting*
//! sources runs on a large stack: the checker and the bytecode lowering
//! still walk the IR natively, which is fine for static program text —
//! the paper's semantics only demand that *evaluation* depth, which is
//! runtime data, never touches the host stack.

use jns_core::{Backend, Compiler, Error};
use jns_eval::{Machine, RtError, Value, DEFAULT_MAX_DEPTH};
use proptest::prelude::*;
use std::process::Command;

/// 1 MiB: comfortably holds the evaluators' constant-depth loops, but is
/// ~40× too small for the old per-node native recursion at depth 10k in
/// a debug build.
const SMALL_STACK: usize = 1 << 20;

/// Large stack for compiling deep *sources* (checker/lowering recursion
/// is proportional to program text, not runtime behaviour; debug-profile
/// checker frames are large, and an unused stack reservation is only
/// virtual memory).
const BIG_STACK: usize = 512 << 20;

/// Runs `f` on a fresh thread with an explicit stack size, propagating
/// panics. The compiled program is *moved* in (its class table is a
/// single-threaded memo structure, so it is `Send` but not `Sync`) and
/// dropped inside `f`'s thread unless returned.
fn on_stack<T: Send>(stack: usize, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(stack)
            .spawn_scoped(s, f)
            .expect("spawn test thread")
            .join()
            .expect("test thread panicked")
    })
}

/// A class whose `go(n)` recurses `n + 1` activations deep.
const REC_CLASS: &str = "class Rec {
           class R {
             int go(int n) {
               if (n < 1) { return 0; } else { return this.go(n - 1) + 1; }
             }
           }
         }";

/// A J&s program whose `main` recurses `n + 1` activations deep.
fn rec_program(n: u64) -> String {
    format!("{REC_CLASS} main {{ final Rec.R r = new Rec.R(); print r.go({n}); }}")
}

/// A well-typed program whose first allocation never ends: every `N`'s
/// declared initialiser allocates the next `N`, one depth unit each.
const ENDLESS_INITIALISERS: &str =
    "class A { class N { A.N next = new A.N(); } } main { final A.N n = new A.N(); print 1; }";

fn outputs(compiled: &jns_core::Compiled, backend: Backend) -> Result<Vec<String>, RtError> {
    match compiled.run_on(backend) {
        Ok(out) => Ok(out.output),
        Err(Error::Runtime(e, _)) => Err(e),
        Err(e) => panic!("non-runtime failure: {e}"),
    }
}

/// 10,000-deep J&s recursion completes on both backends in the debug
/// profile on a 1 MiB stack — the acceptance bar for the explicit-stack
/// evaluator.
#[test]
fn deep_recursion_completes_on_both_backends() {
    let compiled = Compiler::new()
        .with_max_depth(20_000)
        .compile(&rec_program(10_000))
        .unwrap();
    compiled.bytecode(); // lower once, before entering the small stack
    on_stack(SMALL_STACK, move || {
        for backend in [Backend::TreeWalk, Backend::Vm] {
            let out = outputs(&compiled, backend).unwrap();
            assert_eq!(out, vec!["10000"], "{backend:?}");
        }
    });
}

/// With the default limit, the same program degrades to the identical
/// clean error on both backends — never a process abort.
#[test]
fn deep_recursion_default_limit_is_a_clean_error() {
    let compiled = Compiler::new().compile(&rec_program(10_000)).unwrap();
    compiled.bytecode();
    on_stack(SMALL_STACK, move || {
        for backend in [Backend::TreeWalk, Backend::Vm] {
            let err = outputs(&compiled, backend).unwrap_err();
            assert_eq!(
                err,
                RtError::DepthExceeded(DEFAULT_MAX_DEPTH),
                "{backend:?}"
            );
            assert!(err.is_benign());
        }
    });
}

/// Nested field initialisers never touch the host stack: the endless
/// initialiser chain reaches a 100,000-deep limit on a 1 MiB stack and
/// ends in the same clean error on both backends.
#[test]
fn nested_initialisers_reach_the_depth_limit_on_both_backends() {
    let compiled = Compiler::new()
        .with_max_depth(100_000)
        .compile(ENDLESS_INITIALISERS)
        .unwrap();
    compiled.bytecode();
    on_stack(SMALL_STACK, move || {
        for backend in [Backend::TreeWalk, Backend::Vm] {
            let err = outputs(&compiled, backend).unwrap_err();
            assert_eq!(err, RtError::DepthExceeded(100_000), "{backend:?}");
        }
    });
}

/// The shipped `jns serve`, with default flags (default worker stacks and
/// depth limit), answers every request for the endless initialiser chain
/// with the depth error and exits 1 instead of aborting the process.
#[test]
fn serve_answers_endless_initialisers_with_a_depth_error() {
    let dir = std::env::temp_dir().join(format!("jns-deep-init-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("endless.jns");
    std::fs::write(&path, ENDLESS_INITIALISERS).expect("write program");
    let out = Command::new(env!("CARGO_BIN_EXE_jns"))
        .args(["serve", "--workers", "2", "--requests", "4"])
        .arg(&path)
        .output()
        .expect("spawn jns");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        err.contains("runtime error: depth limit exceeded: recursion deeper than 2000"),
        "{err}"
    );
    assert!(err.contains("4 requests (0 ok)"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// 10,000-deep expression nesting (a left-leaning `+` spine) evaluates on
/// a 1 MiB stack on both backends. Expression nesting consumes only the
/// heap-allocated control stack, so no depth override is needed.
#[test]
fn deep_expression_nesting_completes_on_both_backends() {
    let mut src = String::from("main { print 0");
    for _ in 0..10_000 {
        src.push_str(" + 1");
    }
    src.push_str("; }");
    let compiled = on_stack(BIG_STACK, || {
        let c = Compiler::new().compile(&src).unwrap();
        c.bytecode();
        c
    });
    on_stack(SMALL_STACK, move || {
        for backend in [Backend::TreeWalk, Backend::Vm] {
            let out = outputs(&compiled, backend).unwrap();
            assert_eq!(out, vec!["10000"], "{backend:?}");
        }
        // The 10k-deep IR spine tears down iteratively too (`CExpr`'s
        // explicit `Drop`), so dropping the program needs no stack either.
        drop(compiled);
    });
}

/// 10,000-deep `let` chains (each binding's body is the rest of the
/// block) evaluate on a 1 MiB stack on both backends.
#[test]
fn deep_let_chains_complete_on_both_backends() {
    let mut main = String::from("  final int x0 = 0;\n");
    for i in 1..=10_000u32 {
        main.push_str(&format!("  final int x{i} = x{} + 1;\n", i - 1));
    }
    main.push_str("  print x10000;\n");
    let src = format!("main {{\n{main}}}");
    let compiled = on_stack(BIG_STACK, || {
        let c = Compiler::new().compile(&src).unwrap();
        c.bytecode();
        c
    });
    on_stack(SMALL_STACK, move || {
        for backend in [Backend::TreeWalk, Backend::Vm] {
            let out = outputs(&compiled, backend).unwrap();
            assert_eq!(out, vec!["10000"], "{backend:?}");
        }
        drop(compiled);
    });
}

/// Type-checking is no longer recursive in the number of `let`
/// statements (the one checker recursion the parser's expression-depth
/// limit does not bound, so it scaled with adversarial *source length*):
/// a 50,000-binding chain checks on a 1 MiB stack. Parsing runs on the
/// big stack first — the checker improvement is what is pinned here.
#[test]
fn long_let_chain_checks_on_small_stack() {
    let mut main = String::from("  final int x0 = 0;\n");
    for i in 1..=50_000u32 {
        main.push_str(&format!("  final int x{i} = x{} + 1;\n", i - 1));
    }
    main.push_str("  print x50000;\n");
    let src = format!("main {{\n{main}}}");
    let ast = on_stack(BIG_STACK, || jns_syntax::parse(&src).unwrap());
    on_stack(SMALL_STACK, move || {
        let checked = jns_types::check(&ast).unwrap();
        assert!(checked.main.is_some());
        // The 50k-deep `Let` spine of the lowered IR tears down
        // iteratively too (`CExpr`'s explicit `Drop`).
        drop(checked);
    });
}

/// The parse AST of a 20k-node operator spine drops on a 1 MiB stack
/// (iterative `Drop` on `jns_syntax::ast::Expr`).
#[test]
fn deep_parse_tree_teardown_is_iterative() {
    let mut src = String::from("main { print 0");
    for _ in 0..20_000 {
        src.push_str(" + 1");
    }
    src.push_str("; }");
    on_stack(SMALL_STACK, || {
        let ast = jns_syntax::parse(&src).unwrap();
        drop(ast);
    });
}

/// A 50,000-long linked chain of heap objects tears down on a 1 MiB
/// stack on both backends: `Value` never owns another `Value` (object
/// structure lives in flat heap containers keyed by location), so
/// machine teardown is iterative by construction.
#[test]
fn long_heap_chain_teardown_is_iterative() {
    let src = "class L {
                 class Nil { }
                 class Cons extends Nil { Nil next; }
                 class St { Nil head = new Nil(); int n = 50000; }
               }
               main {
                 final L!.St s = new L.St();
                 while (0 < s.n) {
                   s.head = new L.Cons { next = s.head };
                   s.n = s.n - 1;
                 }
                 print s.n;
               }";
    let compiled = Compiler::new().compile(src).unwrap();
    compiled.bytecode();
    on_stack(SMALL_STACK, move || {
        for backend in [Backend::TreeWalk, Backend::Vm] {
            // The machine (and with it the 50k-object heap) is built,
            // run, and dropped entirely inside the small-stack thread.
            let out = outputs(&compiled, backend).unwrap();
            assert_eq!(out, vec!["0"], "{backend:?}");
        }
    });
}

/// Reuse after error (regression): a failed evaluation must not poison
/// the machine's internal state — the depth counter is restored, and the
/// control stack is rebuilt per evaluation — so a later call on the same
/// machine still has its full depth budget.
#[test]
fn machine_is_reusable_after_errors() {
    let prog = jns_syntax::parse(&format!("{REC_CLASS} main {{ new Rec.R(); }}")).unwrap();
    let checked = jns_types::check(&prog).unwrap();
    let r_class = checked
        .table
        .lookup_path(&[checked.table.intern("Rec"), checked.table.intern("R")])
        .unwrap();
    let go = checked.table.intern("go");

    let mut m = Machine::new(&checked).with_max_depth(50);
    let obj = m.alloc(r_class, vec![]).unwrap();
    let r = *obj.as_ref_val().unwrap();
    // `go(48)` needs 49 activations — nearly the whole budget.
    assert_eq!(m.call(r, go, vec![Value::Int(48)]).unwrap(), Value::Int(48));
    // Exceed the limit repeatedly; each failure must leave no residue.
    for _ in 0..3 {
        let err = m.call(r, go, vec![Value::Int(1_000)]).unwrap_err();
        assert_eq!(err, RtError::DepthExceeded(50));
        assert_eq!(
            m.call(r, go, vec![Value::Int(48)]).unwrap(),
            Value::Int(48),
            "depth counter poisoned by a previous error"
        );
    }

    // Same contract on the VM, whose receiver is `main`'s value.
    let code = jns_vm::compile(&checked);
    let mut vm = jns_vm::Vm::new(&checked, &code).with_max_depth(50);
    let obj = vm.run().unwrap();
    let r = *obj.as_ref_val().unwrap();
    assert_eq!(r.view, r_class);
    assert_eq!(
        vm.call(r, go, vec![Value::Int(48)]).unwrap(),
        Value::Int(48)
    );
    for _ in 0..3 {
        let err = vm.call(r, go, vec![Value::Int(1_000)]).unwrap_err();
        assert_eq!(err, RtError::DepthExceeded(50));
        assert_eq!(
            vm.call(r, go, vec![Value::Int(48)]).unwrap(),
            Value::Int(48),
            "VM depth counter poisoned by a previous error"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Depth exhaustion always surfaces as `DepthExceeded(limit)` — the
    /// same benign error, at the same limit, on both backends; runs that
    /// fit the limit complete with the right answer. Never a crash.
    #[test]
    fn depth_exhaustion_is_always_a_clean_error(limit in 1u32..64, n in 0u64..96) {
        let compiled = Compiler::new()
            .with_max_depth(limit)
            .compile(&rec_program(n))
            .unwrap();
        for backend in [Backend::TreeWalk, Backend::Vm] {
            match outputs(&compiled, backend) {
                Ok(out) => {
                    // `go(n)` needs n + 1 activations, so success means n < limit.
                    prop_assert!(n < u64::from(limit), "{backend:?}: {n} activations fit in {limit}?");
                    prop_assert_eq!(&out, &vec![n.to_string()]);
                }
                Err(e) => {
                    prop_assert!(n >= u64::from(limit), "{backend:?}: spurious {e} at depth {n} limit {limit}");
                    prop_assert_eq!(e.clone(), RtError::DepthExceeded(limit));
                    prop_assert!(e.is_benign());
                }
            }
        }
    }

    /// Fuel exhaustion always surfaces as `OutOfFuel` (or completes if
    /// the budget suffices) on both backends. Never a crash.
    #[test]
    fn fuel_exhaustion_is_always_a_clean_error(fuel in 1u64..400) {
        let compiled = Compiler::new()
            .with_fuel(fuel)
            .compile(&rec_program(100))
            .unwrap();
        for backend in [Backend::TreeWalk, Backend::Vm] {
            match outputs(&compiled, backend) {
                Ok(out) => prop_assert_eq!(&out, &vec!["100".to_string()]),
                Err(e) => {
                    prop_assert_eq!(e.clone(), RtError::OutOfFuel);
                    prop_assert!(e.is_benign());
                }
            }
        }
    }
}
