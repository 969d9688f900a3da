//! The benchmark workloads as reusable, nameable closures — the one
//! source of truth for the `jns bench` driver that pins the
//! `BENCH_*.json` baselines.
//!
//! Five suites (see [`SUITES`]):
//!
//! - **`vm`** — backend shoot-out on the paper's two flagship programs:
//!   the §7.3 lambda compiler and the §2.4 service evolution, each on
//!   the tree-walking interpreter and the bytecode VM, plus the lambda
//!   program's front-end (parse + check) and its one-time bytecode
//!   lowering.
//! - **`dispatch`** — the §6.3 ablations over the four Table 1
//!   implementation strategies (a tight virtual-call loop per strategy),
//!   the VM dispatch engine against its unfused form and the tree-walker
//!   on one J&s program, and the view-change memoisation
//!   microbenchmarks.
//! - **`gc`** — the allocation-churn program with the collector off and
//!   under shrinking live-heap limits, on both backends.
//! - **`serve`** — whole-batch serving throughput over the worker pool
//!   (fixed worker counts, so numbers compare across machines with
//!   different core counts), against the same requests run one fresh VM
//!   each.
//! - **`paper`** — the §7 tables at reduced sizes: every Table 1 jolden
//!   kernel under every strategy, and the Table 2 tree-traversal rows.
//!
//! Every workload is deterministic in its *work* (identical instruction
//! streams run to run); only wall-clock varies, which is what the
//! `jns-obs` robust statistics are for.

use jns_core::{lambda, service, Backend, Compiler, RunConfig};
use jns_rt::shared::TreeBench;
use jns_rt::{MethodId, ObjRef, Runtime, Strategy, Val};
use jns_serve::{serve_batch, ServeConfig};
use std::rc::Rc;

/// Suite names [`suite`] accepts, in canonical order.
pub const SUITES: [&str; 5] = ["vm", "dispatch", "gc", "serve", "paper"];

/// One runnable benchmark workload: a closure plus the naming metadata
/// a `jns-bench/2` entry carries.
pub struct Workload {
    /// Full entry name, `workload/backend` (unique within a suite).
    pub name: String,
    /// The workload half of the name (what is being measured).
    pub workload: String,
    /// The backend/strategy half (what is executing it).
    pub backend: String,
    run: Box<dyn FnMut()>,
}

impl Workload {
    fn new(workload: &str, backend: &str, run: Box<dyn FnMut()>) -> Workload {
        Workload {
            name: format!("{workload}/{backend}"),
            workload: workload.to_string(),
            backend: backend.to_string(),
            run,
        }
    }

    /// Executes the workload once (one timed pass = one sample).
    pub fn run_once(&mut self) {
        (self.run)()
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// The workloads of one suite, or `None` for an unknown suite name.
pub fn suite(name: &str) -> Option<Vec<Workload>> {
    match name {
        "vm" => Some(vm_suite()),
        "dispatch" => Some(dispatch_suite()),
        "gc" => Some(gc_suite()),
        "serve" => Some(serve_suite()),
        "paper" => Some(paper_suite()),
        _ => None,
    }
}

// ------------------------------------------------------------------- vm

/// A left spine of `Abs` with a `Pair` at the bottom: everything above
/// the pair is reusable in place by the §7.3 in-place translation.
pub fn deep_term(depth: u32) -> String {
    let mut t =
        "new pair.Pair { fst = new pair.Var { x = \"a\" }, snd = new pair.Var { x = \"b\" } }"
            .to_string();
    for i in 0..depth {
        t = format!("new pair.Abs {{ x = \"x{i}\", e = {t} }}");
    }
    t
}

/// The J&s source of the lambda-compiler workload: translate a
/// `depth`-deep term in place and check node reuse.
pub fn lambda_source(depth: u32) -> String {
    let main_body = format!(
        "final pair!.Exp root = {};
         final pair!.Translator tr = new pair.Translator();
         final base!.Exp out = root.translate(tr);
         print out == root;",
        deep_term(depth)
    );
    lambda::program(&main_body)
}

/// The J&s source of the service-evolution workload: a hot dispatch
/// loop, a live evolution, then the same loop through the evolved
/// dispatcher.
pub fn service_source() -> String {
    let main_body = r#"
        final service!.SomeService s = new service.SomeService();
        final service!.EchoService e = new service.EchoService();
        final service!.Dispatcher d = new service.Dispatcher { s = s, e = e };
        final Server srv = new Server { disp = d };
        final service!.Packet p0 = new service.Packet { kind = 0, payload = "x" };
        while (s.handled < 400) {
          final str r = d.dispatch(p0);
        }
        srv.evolve();
        final logService!.Dispatcher d2 = (cast logService!.Dispatcher)srv.disp;
        final logService!.Packet q0 = (view logService!.Packet)p0;
        while (s.handled < 800) {
          final str r2 = d2.dispatch(q0);
        }
        print s.handled;"#;
    service::program(main_body)
}

fn backend_pair() -> [(Backend, &'static str); 2] {
    [(Backend::TreeWalk, "treewalk"), (Backend::Vm, "vm")]
}

fn vm_suite() -> Vec<Workload> {
    let mut out = Vec::new();
    // A 24-deep term, the benched size.
    let lambda_src = lambda_source(24);
    let lambda = Rc::new(
        Compiler::new()
            .compile(&lambda_src)
            .expect("lambda workload typechecks"),
    );
    for (be, label) in backend_pair() {
        let c = Rc::clone(&lambda);
        out.push(Workload::new(
            "lambda_translate",
            label,
            Box::new(move || {
                c.run_on(be).expect("lambda workload runs");
            }),
        ));
    }
    let service = Rc::new(
        Compiler::new()
            .compile(&service_source())
            .expect("service workload typechecks"),
    );
    for (be, label) in backend_pair() {
        let c = Rc::clone(&service);
        out.push(Workload::new(
            "service_evolution",
            label,
            Box::new(move || {
                c.run_on(be).expect("service workload runs");
            }),
        ));
    }
    // Lowering cost: what the VM pays once per program before its faster
    // execution amortises it.
    let c = Rc::clone(&lambda);
    out.push(Workload::new(
        "lambda_lower",
        "vm",
        Box::new(move || {
            jns_vm::compile(&c.program);
        }),
    ));
    out.push(Workload::new(
        "lambda_compile",
        "frontend",
        Box::new(move || {
            Compiler::new()
                .compile(&lambda_src)
                .expect("lambda workload typechecks");
        }),
    ));
    out
}

// ------------------------------------------------------------- dispatch

/// Stable machine-friendly slug for a Table 1 strategy row.
pub fn strategy_slug(s: Strategy) -> &'static str {
    match s {
        Strategy::Direct => "direct",
        Strategy::NaiveFamily => "naive_family",
        Strategy::LoaderFamily => "loader_family",
        Strategy::SharedFamily => "shared_family",
    }
}

/// Builds the dispatch microbenchmark fixture for one strategy: a
/// two-class hierarchy with one counter-bumping method, plus the object
/// the call loop spins on.
pub fn dispatch_setup(s: Strategy) -> (Runtime, ObjRef, MethodId) {
    let mut rt = Runtime::new(s);
    let fam = rt.family();
    let m = rt.method("inc");
    let sup = rt
        .class("Sup", fam)
        .fields(&["v"])
        .method(m, |rt, r, _| {
            let v = rt.get(r, "v").int();
            rt.set(r, "v", Val::Int(v + 1));
            Val::Int(v)
        })
        .build();
    let sub = rt.class("Sub", fam).extends(sup).build();
    let o = rt.alloc(sub);
    rt.set(o, "v", Val::Int(0));
    (rt, o, m)
}

/// Spins `iters` virtual calls on the dispatch fixture (the measured
/// inner loop of the dispatch benchmark).
pub fn dispatch_spin(rt: &mut Runtime, o: ObjRef, m: MethodId, iters: u32) -> Val {
    for _ in 0..iters {
        rt.call(o, m, &[]);
    }
    rt.get(o, "v")
}

/// Builds the view-memoisation fixture: a base class and a sharing
/// derived class in another family, plus one allocated object.
pub fn viewmemo_setup() -> (Runtime, ObjRef, u32, u32) {
    let mut rt = Runtime::new(Strategy::SharedFamily);
    let f1 = rt.family();
    let f2 = rt.family();
    let base = rt.class("b.C", f1).fields(&["x"]).build();
    let _derived = rt.class("d.C", f2).extends(base).shares(base).build();
    let o = rt.alloc(base);
    (rt, o, f1, f2)
}

/// Flips one reference between the two families `iters` times (after
/// the first round trip, every change is a memo hit).
pub fn viewmemo_spin(rt: &mut Runtime, o: ObjRef, f1: u32, f2: u32, iters: u32) -> ObjRef {
    let mut v = o;
    for _ in 0..iters {
        v = rt.view_as(v, f2);
        v = rt.view_as(v, f1);
    }
    v
}

const DISPATCH_CALLS: u32 = 50_000;
const VIEWMEMO_FLIPS: u32 = 50_000;

/// The real-VM dispatch-engine ablation program: a hot virtual-call
/// loop whose every get/set/call site is monomorphic — exactly the
/// shape superinstruction fusion exists for.
pub fn vm_dispatch_source(iters: u32) -> String {
    format!(
        "class A {{
           class C {{
             int v = 0;
             int inc() {{
               this.v = this.v + 1;
               return this.v;
             }}
           }}
         }}
         main {{
           final A.C o = new A.C();
           while (o.v < {iters}) {{
             final int x = o.inc();
           }}
           print o.v;
         }}"
    )
}

/// Iterations of the `vm_dispatch` loop (about a millisecond per pass
/// on the VM).
pub const VM_DISPATCH_ITERS: u32 = 4_000;

fn dispatch_suite() -> Vec<Workload> {
    let mut out = Vec::new();
    for s in Strategy::ALL {
        let (mut rt, o, m) = dispatch_setup(s);
        out.push(Workload::new(
            "dispatch",
            strategy_slug(s),
            Box::new(move || {
                dispatch_spin(&mut rt, o, m, DISPATCH_CALLS);
            }),
        ));
    }
    // The bytecode VM's dispatch-engine ablation: one program, fused,
    // unfused and on the tree-walker, so one run records what fusion
    // contributes and what the VM gains over the reference interpreter.
    let src = vm_dispatch_source(VM_DISPATCH_ITERS);
    let arms = [
        ("engine", Backend::Vm, true),
        ("generic", Backend::Vm, false),
        ("treewalk", Backend::TreeWalk, true),
    ];
    for (label, backend, fuse) in arms {
        let compiled = Compiler::new()
            .with_backend(backend)
            .with_fusion(fuse)
            .compile(&src)
            .expect("vm_dispatch compiles");
        if backend == Backend::Vm {
            // Force the one-time lowering out of the timed region.
            compiled.bytecode();
        }
        out.push(Workload::new(
            "vm_dispatch",
            label,
            Box::new(move || {
                let r = compiled.run().expect("vm_dispatch runs");
                assert_eq!(r.output, vec![VM_DISPATCH_ITERS.to_string()]);
            }),
        ));
    }
    let (mut rt, o, f1, f2) = viewmemo_setup();
    out.push(Workload::new(
        "viewmemo_repeated",
        "shared_family",
        Box::new(move || {
            viewmemo_spin(&mut rt, o, f1, f2, VIEWMEMO_FLIPS);
        }),
    ));
    // First-change cost: setup (fresh runtime + 1000 objects) is part of
    // the timed pass, since a first view change is by definition
    // unrepeatable on one object.
    out.push(Workload::new(
        "viewmemo_first",
        "shared_family",
        Box::new(move || {
            let mut rt = Runtime::new(Strategy::SharedFamily);
            let f1 = rt.family();
            let f2 = rt.family();
            let base = rt.class("b.C", f1).fields(&["x"]).build();
            let _d = rt.class("d.C", f2).extends(base).shares(base).build();
            let objs: Vec<_> = (0..1000).map(|_| rt.alloc(base)).collect();
            for o in objs {
                rt.view_as(o, f2);
            }
        }),
    ));
    out
}

// ------------------------------------------------------------------- gc

/// Allocation-churn program: a loop allocating `n` short-lived objects
/// (J&s locals are final, so the loop counter is itself a heap cell).
pub fn churn_program(n: u64) -> String {
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

/// Short-lived allocations per churn pass (the benched size).
pub const CHURN: u64 = 20_000;

/// Retained-set churn program: builds a `retained`-long linked chain
/// held live through a field (the tenured survivors), then allocates
/// `churn` short-lived objects. Under a stop-the-world collector every
/// collection re-traces the whole retained chain; a generational
/// collector's minor collections scan only the nursery and never touch
/// it. Growing the chain through `s.head = new Cons { next = s.head }`
/// also exercises the write barrier: the tenured holder points at each
/// nursery-fresh node.
pub fn retained_churn_program(retained: u64, churn: u64) -> String {
    let total = retained + churn;
    format!(
        "class L {{
           class Nil {{ }}
           class Cons extends Nil {{ Nil next; }}
           class St {{ Nil head = new Nil(); int n = 0; }}
         }}
         main {{
           final L!.St s = new L.St();
           while (s.n < {retained}) {{
             s.head = new L.Cons {{ next = s.head }};
             s.n = s.n + 1;
           }}
           while (s.n < {total}) {{
             final L.Nil j = new L.Nil();
             s.n = s.n + 1;
           }}
           print s.n;
         }}"
    )
}

/// Live chain length the `gc_gen_churn` arms retain (the tenured set).
pub const GC_GEN_RETAINED: u64 = 2_000;
/// Heap limit of the `gc_gen_churn` arms — tight enough above the
/// retained set that stop-the-world collections fire every few dozen
/// allocations, each re-tracing the whole retained chain.
pub const GC_GEN_LIMIT: usize = 2_048;
/// Nursery capacity of the generational `gc_gen_churn` arms.
pub const GC_GEN_NURSERY: usize = 32;

fn gc_suite() -> Vec<Workload> {
    let src = churn_program(CHURN);
    let mut out = Vec::new();
    for (be, label) in backend_pair() {
        let unlimited = Compiler::new()
            .with_backend(be)
            .compile(&src)
            .expect("churn compiles");
        out.push(Workload::new(
            "gc_churn_unlimited",
            label,
            Box::new(move || {
                let r = unlimited.run().expect("churn runs");
                assert_eq!(r.stats.gc_runs, 0);
            }),
        ));
        for limit in [4_096usize, 256] {
            let limited = Compiler::new()
                .with_backend(be)
                .with_heap_limit(limit)
                .compile(&src)
                .expect("churn compiles");
            out.push(Workload::new(
                &format!("gc_churn_limit{limit}"),
                label,
                Box::new(move || {
                    let r = limited.run().expect("churn runs");
                    assert!(r.stats.gc_runs > 0);
                    assert!(r.stats.peak_live <= limit as u64);
                }),
            ));
        }
    }
    // Generational ablation: the same retained-set churn under the
    // stop-the-world collector versus a nursery.
    let gen_src = retained_churn_program(GC_GEN_RETAINED, CHURN);
    for (be, label) in backend_pair() {
        for (mode, nursery) in [("stw", None), ("gen", Some(GC_GEN_NURSERY))] {
            let compiled = Compiler::new()
                .with_backend(be)
                .with_config(RunConfig {
                    heap_limit: Some(GC_GEN_LIMIT),
                    nursery,
                    ..RunConfig::default()
                })
                .compile(&gen_src)
                .expect("retained churn compiles");
            let generational = nursery.is_some();
            out.push(Workload::new(
                "gc_gen_churn",
                &format!("{label}_{mode}"),
                Box::new(move || {
                    let r = compiled.run().expect("retained churn runs");
                    assert!(r.stats.gc_runs > 0);
                    assert!(r.stats.peak_live <= GC_GEN_LIMIT as u64);
                    assert_eq!(r.stats.minor_runs > 0, generational);
                }),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- serve

/// Worker count the serve suite pins (fixed so baselines compare across
/// machines with different core counts).
pub const SERVE_WORKERS: usize = 4;
/// Requests per timed batch in the serve suite.
pub const SERVE_REQUESTS: u64 = 64;

fn serve_suite() -> Vec<Workload> {
    let src = jns_serve::workload::service_dispatch(10);
    let compiled = Rc::new(
        Compiler::new()
            .with_backend(Backend::Vm)
            .compile(&src)
            .expect("serve workload compiles"),
    );
    // Force the one-time bytecode lowering out of the timed region.
    compiled.bytecode();
    let mut out = Vec::new();
    for (label, workers) in [("pool4", SERVE_WORKERS), ("pool1", 1)] {
        let c = Rc::clone(&compiled);
        let cfg = ServeConfig {
            workers,
            queue_cap: 32,
            ..ServeConfig::default()
        };
        out.push(Workload::new(
            "serve_batch",
            label,
            Box::new(move || {
                let report = serve_batch(&c, &cfg, SERVE_REQUESTS);
                assert_eq!(report.responses.len(), SERVE_REQUESTS as usize);
            }),
        ));
    }
    // The pool's baseline: the same requests on the calling thread, a
    // fresh VM each (no queue, no warm caches).
    out.push(Workload::new(
        "serve_batch",
        "fresh_vm",
        Box::new(move || {
            for _ in 0..SERVE_REQUESTS {
                compiled.run().expect("serve workload runs");
            }
        }),
    ));
    out
}

// ---------------------------------------------------------------- paper

/// Tree height of the `table2_*` entries (the `table2` binary prints
/// the paper's heights 16, 18 and 20).
const TABLE2_HEIGHT: u32 = 12;

fn paper_suite() -> Vec<Workload> {
    let mut out = Vec::new();
    for k in jolden::kernels() {
        let want = (k.run)(Strategy::Direct, k.test_size);
        for s in Strategy::ALL {
            out.push(Workload::new(
                &format!("table1_{}", k.name),
                strategy_slug(s),
                Box::new(move || {
                    assert_eq!((k.run)(s, k.test_size), want);
                }),
            ));
        }
    }
    let h = TABLE2_HEIGHT;
    let nodes = TreeBench::node_count(h) as i64;
    let row = |name: &str, run: Box<dyn FnMut()>| {
        Workload::new(&format!("table2_{name}"), "shared_family", run)
    };
    out.push(row(
        "creation",
        Box::new(move || {
            TreeBench::new().create(h);
        }),
    ));
    let mut tb = TreeBench::new();
    let root = tb.create(h);
    out.push(row(
        "traversal_before",
        Box::new(move || assert_eq!(tb.traverse(root), nodes)),
    ));
    // A first view change cannot be repeated on one tree, so this pass
    // builds its tree too: subtract `table2_creation` for the sweep.
    out.push(row(
        "view_changes",
        Box::new(move || {
            let mut tb = TreeBench::new();
            let root = tb.create(h);
            let viewed = tb.view_root(root);
            assert_eq!(tb.traverse(viewed), 2 * nodes);
        }),
    ));
    let mut tb = TreeBench::new();
    let root = tb.create(h);
    let viewed = tb.view_root(root);
    tb.traverse(viewed);
    out.push(row(
        "traversal_after",
        Box::new(move || assert_eq!(tb.traverse(viewed), 2 * nodes)),
    ));
    let mut tb = TreeBench::new();
    let root = tb.create(h);
    out.push(row(
        "explicit_translation",
        Box::new(move || {
            tb.explicit_translate(root);
        }),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_suite_resolves_and_names_are_unique() {
        for s in SUITES {
            let ws = suite(s).expect("known suite");
            assert!(!ws.is_empty());
            let mut names: Vec<&str> = ws.iter().map(|w| w.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), ws.len(), "duplicate names in suite {s}");
        }
        assert!(suite("nope").is_none());
    }

    #[test]
    fn every_paper_workload_runs() {
        let ws = suite("paper").expect("paper suite");
        assert_eq!(ws.len(), jolden::kernels().len() * Strategy::ALL.len() + 5);
        for mut w in ws {
            w.run_once();
        }
    }

    #[test]
    fn dispatch_fixture_counts_calls() {
        let (mut rt, o, m) = dispatch_setup(Strategy::Direct);
        let v = dispatch_spin(&mut rt, o, m, 10);
        assert_eq!(v.int(), 10);
    }
}
