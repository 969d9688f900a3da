//! VM-specific behaviour: the direct machine API, cache warm-up, layout
//! sharing across views, fuel, and call-depth limits.

use jns_eval::{RtError, RunConfig, Stats, Value};
use jns_vm::{compile, Vm};

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

/// Lowers `p` and runs `main` on a fresh VM under `cfg`.
fn run_vm(p: &jns_types::CheckedProgram, cfg: RunConfig) -> Result<(Vec<String>, Stats), RtError> {
    let code = compile(p);
    let mut vm = Vm::new(p, &code).with_config(cfg);
    vm.run()?;
    Ok((vm.output, vm.stats))
}

/// Two families sharing `C` and `D`; `main`'s value is `new A1.C()`.
fn sharing_program() -> jns_types::CheckedProgram {
    checked(
        "class A1 {
           class D { int tag = 1; }
           class C { D g = new D(); int probe() { return this.g.tag; } }
         }
         class A2 extends A1 {
           class D shares A1.D { }
           class E extends D { int extra = 2; }
           class C shares A1.C\\g { int probe() { return 100 + this.g.tag; } }
         }
         main { new A1.C(); }",
    )
}

/// Direct API: the object `run` returns had its initialisers run, view
/// finds the unique partner, dispatch through the new view runs the
/// override with §3.3 forwarding — the same contract as `Machine`'s API
/// tests.
#[test]
fn direct_api_alloc_view_call() {
    let p = sharing_program();
    let code = compile(&p);
    let mut vm = Vm::new(&p, &code);
    let a1c = p
        .table
        .lookup_path(&[p.table.intern("A1"), p.table.intern("C")])
        .unwrap();
    let a2c = p
        .table
        .lookup_path(&[p.table.intern("A2"), p.table.intern("C")])
        .unwrap();
    let v = vm.run().unwrap();
    let r = *v.as_ref_val().unwrap();
    assert_eq!(r.view, a1c);
    assert!(r.masks.is_empty(), "all fields initialised: {:?}", r.masks);
    // Dispatch through the allocation view: A1's probe.
    let probe = p.table.intern("probe");
    let out = vm.call(r, probe, vec![]).unwrap();
    assert_eq!(out, Value::Int(1));
    assert_eq!(vm.stats.allocs, 2, "C plus its D initialiser");
    // Re-view at A2.C: same location, partner view; dispatch runs A2's
    // override, and the read of `g` forwards to the base copy (§3.3).
    let target = jns_types::Ty::Class(a2c).exact();
    let viewed = vm.view_as(r, &target, Default::default()).unwrap();
    assert_eq!(viewed.loc, r.loc);
    assert_eq!(viewed.view, a2c);
    assert_eq!(vm.call(viewed, probe, vec![]).unwrap(), Value::Int(101));
    // Viewing to an unrelated class fails benignly.
    let a1d = p
        .table
        .lookup_path(&[p.table.intern("A1"), p.table.intern("D")])
        .unwrap();
    let bad = jns_types::Ty::Class(a1d).exact();
    assert!(vm.view_as(r, &bad, Default::default()).is_err());
    // The tree-walk machine agrees on every result and count.
    let mut m = jns_eval::Machine::new(&p);
    let mv = m.alloc(a1c, vec![]).unwrap();
    let mr = *mv.as_ref_val().unwrap();
    assert_eq!(m.call(mr, probe, vec![]).unwrap(), Value::Int(1));
    let mviewed = m.apply_view(mr, &target, Default::default()).unwrap();
    assert_eq!(m.call(mviewed, probe, vec![]).unwrap(), Value::Int(101));
    assert_eq!(m.stats.allocs, vm.stats.allocs);
    assert_eq!(m.stats.calls, vm.stats.calls);
}

/// An error deep inside nested initialisers leaves no residue on the VM:
/// each failed `call` releases the depth its allocations held and drops
/// their parked frames, so the next call has its full depth budget and
/// every sampled stack of it starts at its own method.
#[test]
fn errors_inside_initialisers_leave_no_residue() {
    let p = checked(
        "class A {
           class N { A.N next = new A.N(); }
           class R {
             int go(int n) { if (n < 1) { return 0; } else { return this.go(n - 1) + 1; } }
             A.N make() { return new A.N(); }
           }
         }
         main { new A.R(); }",
    );
    let code = compile(&p);
    let mut vm = Vm::new(&p, &code).with_max_depth(50);
    vm.set_sample_stride(1);
    let r = *vm.run().unwrap().as_ref_val().unwrap();
    let [go, make] = ["go", "make"].map(|m| p.table.intern(m));
    for _ in 0..3 {
        let err = vm.call(r, make, vec![]).unwrap_err();
        assert_eq!(err, RtError::DepthExceeded(50));
        assert_eq!(
            vm.call(r, go, vec![Value::Int(48)]).unwrap(),
            Value::Int(48)
        );
    }
    let stacks = vm.folded_samples();
    let go_chunk = &code.chunks[code.methods[&(r.view, go)]].name;
    let in_go: Vec<_> = stacks
        .iter()
        .filter(|(s, _)| s.contains(go_chunk.as_str()))
        .collect();
    assert!(!in_go.is_empty());
    assert!(
        in_go.iter().all(|(s, _)| s.starts_with(go_chunk.as_str())),
        "{in_go:?}"
    );
}

/// A polymorphic call site (two views flowing through one `GetField` +
/// `Call` site) stays correct once both cache entries are installed.
#[test]
fn polymorphic_call_sites() {
    let p = checked(
        "class Base { class C { int f() { return 1; } } }
         class Derived extends Base { class C shares Base.C { int f() { return 2; } } }
         main {
           final Base!.C a = new Base.C();
           final Derived!.C b = (view Derived!.C)a;
           final int r1 = a.f() + b.f();
           final int r2 = a.f() + b.f();
           final int r3 = a.f() + b.f();
           print r1 + r2 + r3;
         }",
    );
    let (output, stats) = run_vm(&p, RunConfig::default()).unwrap();
    assert_eq!(output, vec!["9"]);
    assert_eq!(stats.calls, 6);
    assert_eq!(stats.views_explicit, 1);
}

/// Shared fields occupy one slot in the union layout: a write through one
/// view is visible through every partner view.
#[test]
fn union_layout_shares_slots_across_views() {
    let p = checked(
        "class A { class C { int x = 10; } }
         class B extends A { class C shares A.C { int get() { return this.x; } } }
         main {
           final A!.C a = new A.C();
           final B!.C b = (view B!.C)a;
           a.x = 42;
           print b.get();
           b.x = 7;
           print a.x;
         }",
    );
    let (output, _) = run_vm(&p, RunConfig::default()).unwrap();
    assert_eq!(output, vec!["42", "7"]);
}

/// Fuel interrupts runaway programs (measured in VM instructions).
#[test]
fn fuel_is_enforced() {
    let p = checked("main { while (true) { print 1; } }");
    let fuel = RunConfig {
        fuel: Some(1000),
        ..RunConfig::default()
    };
    let err = run_vm(&p, fuel).unwrap_err();
    assert_eq!(err, RtError::OutOfFuel);
    assert!(err.is_benign());
}

/// Unbounded recursion hits the configurable call-depth limit and raises
/// the benign `DepthExceeded` error. (The tree-walk interpreter shares
/// the default limit and error; since its explicit-stack rewrite, the
/// cross-backend differential suite asserts both backends report this
/// error identically.)
#[test]
fn deep_recursion_overflows_benignly() {
    let p = checked(
        "class A { class C { int go() { return this.go(); } } }
         main { final A.C c = new A.C(); print c.go(); }",
    );
    let err = run_vm(&p, RunConfig::default()).unwrap_err();
    assert_eq!(err, RtError::DepthExceeded(jns_eval::DEFAULT_MAX_DEPTH));
    assert!(err.is_benign());
    // A tighter limit cuts off sooner; a looser one lets deeper runs
    // finish (bounded by heap, not the host stack).
    let tight = RunConfig {
        max_depth: Some(10),
        ..RunConfig::default()
    };
    let err = run_vm(&p, tight).unwrap_err();
    assert_eq!(err, RtError::DepthExceeded(10));
}

/// Compilation is deterministic: two lowerings of the same program
/// produce identical instruction streams.
#[test]
fn compilation_is_deterministic() {
    let p = sharing_program();
    let c1 = compile(&p);
    let c2 = compile(&p);
    assert_eq!(c1.chunks.len(), c2.chunks.len());
    for (a, b) in c1.chunks.iter().zip(c2.chunks.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(format!("{:?}", a.code), format!("{:?}", b.code));
    }
    assert_eq!(c1.n_field_ics, c2.n_field_ics);
    assert_eq!(c1.n_call_ics, c2.n_call_ics);
}

/// One compiled program can be executed many times, each run with fresh
/// caches and heap (the unit of reuse for batched execution).
#[test]
fn compiled_program_is_reusable() {
    let p = checked(
        "class K { class C { int v = 0; } }
         main {
           final K.C c = new K.C();
           while (c.v < 5) { c.v = c.v + 1; }
           print c.v;
         }",
    );
    let code = compile(&p);
    for _ in 0..3 {
        let mut vm = Vm::new(&p, &code);
        vm.run().unwrap();
        assert_eq!(vm.output, vec!["5"]);
        assert_eq!(vm.heap_size(), 1);
    }
}

/// Regression (ISSUE 2): the heap must not accumulate across top-level
/// invocations on a *reused* VM. `reset_for_request` reclaims the whole
/// previous region, so `heap_size()` after every run equals the size
/// after the first run — and locations (hence printed identities) are
/// reproduced exactly.
#[test]
fn heap_does_not_accumulate_across_invocations() {
    let p = checked(
        "class K { class C { int v = 0; } class D { C c = new C(); } }
         main {
           final K.D d = new K.D();
           final K.C e = new K.C();
           print d.c.v + e.v;
         }",
    );
    let code = compile(&p);
    let mut vm = Vm::new(&p, &code);
    vm.run().unwrap();
    let first = vm.heap_size();
    assert_eq!(first, 3, "D + its C initialiser + e");
    for round in 1..5 {
        let reclaimed = vm.reset_for_request();
        assert_eq!(reclaimed, first, "round {round} reclaims the region");
        vm.run().unwrap();
        assert_eq!(
            vm.heap_size(),
            first,
            "round {round}: heap grew across invocations"
        );
        assert_eq!(vm.output, vec!["0"], "round {round} output");
    }
}

/// `reset_for_request` keeps the monotone caches: the second request on
/// a warm VM resolves every site from its inline caches (zero misses).
#[test]
fn reused_vm_keeps_inline_caches_warm() {
    // A main that exercises field-read, field-write, and call sites.
    let p = checked(
        "class A1 {
           class D { int tag = 1; }
           class C { D g = new D(); int probe() { return this.g.tag; } }
         }
         main {
           final A1!.C c = new A1.C();
           print c.probe() + c.probe();
         }",
    );
    let code = compile(&p);
    let mut vm = Vm::new(&p, &code);
    vm.run().unwrap();
    let cold = vm.stats;
    assert!(cold.ic_misses > 0, "first run fills the caches");
    vm.reset_for_request();
    vm.run().unwrap();
    let warm = vm.stats;
    assert_eq!(warm.ic_misses, 0, "warm run misses nothing");
    assert_eq!(warm.ic_hits, cold.ic_hits + cold.ic_misses);
    assert_eq!(warm.semantic(), cold.semantic());
}

/// Profiling hook: per-chunk executed-instruction counts cover exactly
/// the executed chunks and sum to `Stats::steps`.
#[test]
fn per_chunk_profile_accounts_for_every_instruction() {
    let p = checked(
        "class A1 {
           class D { int tag = 1; }
           class C { D g = new D(); int probe() { return this.g.tag; } }
         }
         main {
           final A1!.C c = new A1.C();
           print c.probe();
         }",
    );
    let code = compile(&p);
    let mut vm = Vm::new(&p, &code);
    vm.run().unwrap();
    let profile = vm.profile();
    let names: Vec<&str> = profile.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"main"));
    assert!(names.contains(&"A1.C.probe"));
    assert!(names.contains(&"A1.C.g="), "initialiser chunk is profiled");
    let total: u64 = profile.iter().map(|(_, n)| n).sum();
    assert_eq!(total, vm.stats.steps, "profile sums to the step counter");
}

/// Mask-set interning: every engine interns the mask sets its references
/// carry in its own table, so repeated view transitions reuse one id and
/// `mask_allocs` counts distinct sets, not transitions. This program
/// meets exactly two: `{x}` (`this` while `x` initialises) and ∅.
#[test]
fn mask_sets_are_interned_across_transitions() {
    let p = checked(
        "class A { class C { int x = 1; } }
         class B extends A { class C shares A.C { int get() { return this.x; } } }
         main {
           final A!.C a = new A.C();
           final B!.C b = (view B!.C)a;
           final B!.C b2 = (view B!.C)a;
           final B!.C b3 = (view B!.C)a;
           final A!.C a2 = (view A!.C)b;
           final A!.C a3 = (view A!.C)b2;
           print b.get() + b2.get() + b3.get();
         }",
    );
    let code = compile(&p);
    let mut vm = Vm::new(&p, &code);
    vm.run().unwrap();
    let mut m = jns_eval::Machine::new(&p);
    m.run().unwrap();
    for (engine, s) in [("vm", vm.stats), ("treewalk", m.stats)] {
        let transitions = s.views_explicit + s.views_implicit;
        assert!(transitions >= 5, "{engine}: workload re-views repeatedly");
        assert!(
            s.mask_allocs < transitions,
            "{engine}: interning must beat one-alloc-per-transition: {} allocs for {} transitions",
            s.mask_allocs,
            transitions
        );
        assert_eq!(s.mask_allocs, 2, "{engine}: {{x}} and ∅");
    }
}

/// Constant folding: all-literal int/bool operator trees lower to one
/// constant push, counted in `VmProgram::folded` and surfaced as
/// `Stats::folded`; runtime-dependent operands are left alone.
#[test]
fn literal_operator_trees_fold_at_lowering() {
    let p = checked(
        "main {
           print 1 + 2 * 3;
           print (10 % 3 == 1) && !(2 > 5);
           final int z = 5;
           print z + 1;
         }",
    );
    let code = compile(&p);
    // `+ *` (2) and `% == > ! &&` (5); `z + 1` must not fold.
    assert_eq!(code.folded, 7);
    let mut vm = Vm::new(&p, &code);
    vm.run().unwrap();
    assert_eq!(vm.output, vec!["7", "true", "6"]);
    assert_eq!(vm.stats.folded, 7);
}

/// Division and remainder by a literal zero are deliberately unfolded:
/// the runtime error must still fire at the same program point, keeping
/// the backends observably equivalent.
#[test]
fn division_by_literal_zero_is_not_folded() {
    let p = checked("main { print \"before\"; print 1 / 0; }");
    let code = compile(&p);
    assert_eq!(code.folded, 0);
    let mut vm = Vm::new(&p, &code);
    let err = vm.run().unwrap_err();
    assert_eq!(err, RtError::DivisionByZero);
    assert_eq!(vm.output, vec!["before"]);
}

/// Superinstruction fusion: the peephole collapses hot pairs/triples
/// (counted in `VmProgram::fused`), `CompileOptions { fuse: false }`
/// disables it entirely, and both lowerings print the same lines.
#[test]
fn fusion_is_a_compile_option() {
    let p = checked(
        "class A1 {
           class C { int v = 3; int get() { return this.v; } }
         }
         main {
           final A1!.C c = new A1.C();
           final int a = c.v + 1;
           final int b = c.get();
           print a + b;
         }",
    );
    let fused = compile(&p);
    assert!(fused.fused > 0, "Load+GetField / ConstInt+Bin never fused");
    let plain = jns_vm::compile_with(&p, jns_vm::CompileOptions { fuse: false });
    assert_eq!(plain.fused, 0, "fuse:false must leave the stream generic");
    let mut vf = Vm::new(&p, &fused);
    vf.run().unwrap();
    let mut vp = Vm::new(&p, &plain);
    vp.run().unwrap();
    assert_eq!(vf.output, vp.output);
    assert_eq!(vf.stats.fused, fused.fused, "stats mirror the program");
    assert!(
        vf.stats.steps < vp.stats.steps,
        "fused streams retire fewer instructions: {} vs {}",
        vf.stats.steps,
        vp.stats.steps
    );
}

/// Fusion around control flow: jump targets are remapped after the
/// peephole shrinks the stream, and fusion never swallows a jump target
/// (a branch may land *between* the instructions of a would-be pair).
#[test]
fn fused_branches_retarget_jumps() {
    let p = checked(
        "class A1 {
           class C { int v = 0; }
         }
         main {
           final A1!.C c = new A1.C();
           while (c.v < 10) {
             if (c.v % 2 == 0) { c.v = c.v + 3; } else { c.v = c.v - 1; }
           }
           print c.v;
         }",
    );
    let fused = compile(&p);
    assert!(fused.fused > 0, "the loop body has fusable shapes");
    let plain = jns_vm::compile_with(&p, jns_vm::CompileOptions { fuse: false });
    let mut vf = Vm::new(&p, &fused);
    vf.run().unwrap();
    let mut vp = Vm::new(&p, &plain);
    vp.run().unwrap();
    assert_eq!(vf.output, vp.output);
    assert_eq!(vf.output, vec!["11"]);
}

/// Inline-cache accounting is exact: every get/set/call resolution in a
/// hot monomorphic loop goes through its site cache, so the call sites'
/// hits + misses sum to `Stats::calls`, and the per-site counts sum to
/// the aggregate `ic_hits + ic_misses`.
#[test]
fn ic_accounting_is_exact() {
    let p = checked(
        "class A1 {
           class C { int v = 0; int inc() { this.v = this.v + 1; return this.v; } }
         }
         main {
           final A1!.C c = new A1.C();
           while (c.v < 100) { final int x = c.inc(); }
           print c.v;
         }",
    );
    let code = compile(&p);
    let mut vm = Vm::new(&p, &code);
    vm.run().unwrap();
    assert_eq!(vm.output, vec!["100"]);
    assert_eq!(vm.stats.calls, 100);
    let sites = vm.ic_profile();
    let probes = |kind: Option<&str>| -> u64 {
        sites
            .iter()
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .map(|s| s.hits + s.misses)
            .sum()
    };
    assert_eq!(probes(Some("call")), vm.stats.calls);
    assert_eq!(probes(None), vm.stats.ic_hits + vm.stats.ic_misses);
}
