//! The evaluator: a big-step interpreter implementing the operational
//! semantics of Fig. 17, instrumented with step counting and an optional
//! CONFIG well-formedness checker (Fig. 19).
//!
//! The heap is the shared [`crate::heap::Heap`] (one store for both
//! backends); the interpreter keys every cell by ⟨ℓ, P, f⟩ where
//! `P = fclass(view, f)` selects the copy of a possibly duplicated field
//! (§4.15). Implicit view changes are *lazy*: a field read re-views the
//! stored value against the field type interpreted in the reader's view
//! (R-GET). With a configured heap limit ([`Machine::with_heap_limit`]),
//! allocation triggers the heap's mark-compact collector, with roots
//! enumerated from the explicit stacks described below.
//!
//! # Execution model: an explicit-stack machine
//!
//! Evaluation does **not** recurse on the host stack. The machine is a
//! CEK-style loop over two heap-allocated stacks — a control stack of
//! pending work ([`Work`]: expressions to evaluate and continuation
//! frames [`Kont`]) and a value stack — plus the current environment
//! frame, which is swapped out (and saved inside `Kont::Return` /
//! `Kont::AllocInit`) at method-call and field-initialiser boundaries.
//! J&s call depth and expression nesting are therefore bounded only by
//! heap memory and by one uniformly enforced, configurable limit
//! ([`Machine::with_max_depth`], default [`DEFAULT_MAX_DEPTH`]) that
//! returns [`RtError::DepthExceeded`] instead of aborting the process.
//! The limit counts *recursion units*: method activations and nested
//! field-initialiser evaluations — the same units the bytecode VM counts,
//! so both backends report the identical error at the identical depth.
//!
//! A failed evaluation cannot poison the machine: all control state lives
//! in locals of the evaluation loop, and the shared depth counter is
//! restored to its entry value on error, so a `Machine` can be reused
//! after any `RtError`.

use crate::error::RtError;
use crate::heap::Heap;
use crate::typeeval;
use crate::value::{Loc, MaskSet, RefVal, Value};
use jns_syntax::{BinOp, UnOp};
use jns_types::{CExpr, CheckedProgram, ClassId, Judge, Name, Ty, Type, TypeEnv};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Execution statistics (used by tests and benches).
#[derive(Debug, Default, Clone, Copy)]
pub struct Stats {
    /// Evaluation steps (one per expression node evaluated).
    pub steps: u64,
    /// Objects allocated.
    pub allocs: u64,
    /// Explicit view-change operations executed.
    pub views_explicit: u64,
    /// Implicit (lazy) view changes triggered by field reads.
    pub views_implicit: u64,
    /// Method calls dispatched.
    pub calls: u64,
    /// Inline-cache hits across field-read, field-write, and call sites
    /// (VM backend only; the tree-walker has no site caches).
    pub ic_hits: u64,
    /// Inline-cache misses (resolutions through the global tables).
    pub ic_misses: u64,
    /// Fresh mask-set materialisations. The VM interns view-transition
    /// mask sets, so repeated transitions reuse one `Arc` and this stays
    /// far below `views_explicit + views_implicit`; the tree-walker pays
    /// one per transition.
    pub mask_allocs: u64,
    /// Tracing collections run by the shared heap (0 with no
    /// `--heap-limit`; see [`crate::heap::Heap`]).
    pub gc_runs: u64,
    /// Objects reclaimed by tracing collections (whole-heap per-request
    /// resets are reported separately by the serving layer).
    pub reclaimed: u64,
    /// High-water mark of live heap objects.
    pub peak_live: u64,
    /// Operators constant-folded away at lowering time (VM backend only;
    /// a property of the compiled program, stamped onto every run).
    pub folded: u64,
    /// Superinstructions fused at lowering time (VM backend only; like
    /// `folded`, a property of the compiled program).
    pub fused: u64,
    /// Always 0: the VM has no quickening stage. Kept only because the
    /// stand-alone `perfbench` package still reads it.
    pub quickened: u64,
    /// Always 0, like [`Stats::quickened`] and for the same reason.
    pub dequickened: u64,
    /// Minor (nursery) collections run by the shared heap (0 unless a
    /// `--nursery` is configured alongside a heap limit).
    pub minor_runs: u64,
    /// Major (full mark-compact) collections; every non-generational
    /// collection counts here, so `minor_runs + major_runs == gc_runs`.
    pub major_runs: u64,
    /// Nursery objects promoted to the tenured region by minor
    /// collections.
    pub promoted: u64,
    /// Write-barrier hits: stores of a nursery reference into a tenured
    /// object.
    pub barrier_hits: u64,
}

impl Stats {
    /// Accumulates `other` into `self` (used by `jns-serve` to aggregate
    /// per-request statistics across a worker pool).
    pub fn merge(&mut self, other: &Stats) {
        self.steps += other.steps;
        self.allocs += other.allocs;
        self.views_explicit += other.views_explicit;
        self.views_implicit += other.views_implicit;
        self.calls += other.calls;
        self.ic_hits += other.ic_hits;
        self.ic_misses += other.ic_misses;
        self.mask_allocs += other.mask_allocs;
        self.gc_runs += other.gc_runs;
        self.reclaimed += other.reclaimed;
        // High-water marks aggregate by maximum, not by sum.
        self.peak_live = self.peak_live.max(other.peak_live);
        // Folding and fusion happen once per program, so "merging" runs
        // keeps the program-wide count instead of summing it.
        self.folded = self.folded.max(other.folded);
        self.fused = self.fused.max(other.fused);
        self.minor_runs += other.minor_runs;
        self.major_runs += other.major_runs;
        self.promoted += other.promoted;
        self.barrier_hits += other.barrier_hits;
    }

    /// The statistics that must be identical for every execution of the
    /// same program, regardless of backend warm-up state (inline-cache
    /// and interning counters depend on how warm a reused VM is, so they
    /// are excluded).
    pub fn semantic(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.steps,
            self.allocs,
            self.views_explicit,
            self.views_implicit,
            self.calls,
        )
    }
}

/// The default recursion-depth limit, shared by both backends (method
/// activations plus nested field-initialiser evaluations).
pub const DEFAULT_MAX_DEPTH: u32 = 2_000;

/// The abstract machine.
#[derive(Debug)]
pub struct Machine<'p> {
    prog: &'p CheckedProgram,
    /// The shared heap ([`crate::heap::Heap`], the same type the bytecode
    /// VM uses). The interpreter allocates slot-less objects and keys
    /// every cell by ⟨fclass-owner, field⟩, its ⟨ℓ, P, f⟩ representation.
    heap: Heap,
    /// Captured `print` output.
    pub output: Vec<String>,
    /// Execution statistics.
    pub stats: Stats,
    fuel: Option<u64>,
    depth: u32,
    max_depth: u32,
    sub_memo: HashMap<(ClassId, Ty), bool>,
    /// Optional structured-event sink (`None` keeps every hook a single
    /// branch, with byte-identical outputs and statistics).
    trace: Option<jns_obs::TraceBuffer>,
}

type Frame = HashMap<Name, Value>;

/// One unit of pending work on the control stack.
enum Work<'a> {
    /// Evaluate an expression (its result lands on the value stack).
    Eval(&'a CExpr),
    /// Allocate an object whose field initialisers (if any) run next.
    Alloc {
        class: ClassId,
        provided: Vec<(Name, Value)>,
    },
    /// Resume a suspended context with the value(s) on the value stack.
    Kont(Kont<'a>),
}

/// A continuation frame: what to do with the value just produced.
enum Kont<'a> {
    /// R-GET: the receiver is on the value stack.
    GetField(Name),
    /// R-SET: the stored value is on the value stack.
    SetField { x: Name, f: Name },
    /// The call receiver is on the value stack; arguments come next.
    CallRecv { m: Name, args: &'a [CExpr] },
    /// Argument `idx` is on the value stack; `argv` holds earlier ones.
    CallArgs {
        r: RefVal,
        m: Name,
        args: &'a [CExpr],
        idx: usize,
        argv: Vec<Value>,
    },
    /// Method return: restore the caller's frame and depth.
    Return { saved: Frame },
    /// Record initialiser `idx` of a `new` and evaluate the next one.
    NewInits {
        class: ClassId,
        inits: &'a [(Name, CExpr)],
        idx: usize,
        provided: Vec<(Name, Value)>,
    },
    /// A declared field initialiser finished; write it and run the next.
    AllocInit(Box<AllocState<'a>>),
    /// The viewed expression is on the value stack.
    View(&'a Type),
    /// The cast expression is on the value stack.
    Cast(&'a Type),
    /// Short-circuit `&&`: left operand is on the value stack.
    And(&'a CExpr),
    /// Short-circuit `||`: left operand is on the value stack.
    Or(&'a CExpr),
    /// Strict binary operator: both operands are on the value stack.
    BinOp(BinOp),
    /// Unary operator: the operand is on the value stack.
    Un(UnOp),
    /// Conditional: the scrutinee is on the value stack.
    If { t: &'a CExpr, e: &'a CExpr },
    /// Loop condition evaluated: run the body or yield unit.
    WhileCond { c: &'a CExpr, body: &'a CExpr },
    /// Loop body evaluated: discard it and re-test the condition.
    WhileBody { c: &'a CExpr, body: &'a CExpr },
    /// `let` initialiser evaluated: bind it and run the body.
    LetBind { x: Name, body: &'a CExpr },
    /// `let` body evaluated: restore the shadowed binding.
    LetRestore { x: Name, old: Option<Value> },
    /// Sequence element `idx` evaluated: discard it unless it is last.
    Seq { parts: &'a [CExpr], idx: usize },
    /// The printed expression is on the value stack.
    Print,
}

/// In-flight allocation: R-ALLOC suspended between field initialisers.
/// The object's ℓ lives in `this_ref` (a GC root, so a collection during
/// an initialiser forwards it like any other reference).
struct AllocState<'a> {
    class: ClassId,
    /// `this` during initialisation: all fields masked (F-OK).
    this_ref: RefVal,
    masks: BTreeSet<Name>,
    /// Declared initialisers in execution order (base-most first).
    inits: Vec<(Name, &'a CExpr)>,
    idx: usize,
    provided: Vec<(Name, Value)>,
    /// The frame to restore once every initialiser has run.
    saved: Frame,
}

/// Applies `visit` to every live [`RefVal`] reachable from one
/// evaluation's state: the current environment frame, the value stack,
/// every suspended continuation on the control stack, and the record
/// values of an allocation in flight. This is the interpreter's GC root
/// set — possible only because evaluation runs on explicit heap stacks
/// (the CEK refactor), which makes every live reference enumerable.
fn visit_roots(
    frame: &mut Frame,
    ctrl: &mut [Work<'_>],
    vals: &mut [Value],
    provided: &mut [(Name, Value)],
    visit: &mut dyn FnMut(&mut RefVal),
) {
    fn value(v: &mut Value, visit: &mut dyn FnMut(&mut RefVal)) {
        if let Value::Ref(r) = v {
            visit(r);
        }
    }
    for v in frame.values_mut() {
        value(v, visit);
    }
    for v in vals.iter_mut() {
        value(v, visit);
    }
    for (_, v) in provided.iter_mut() {
        value(v, visit);
    }
    for w in ctrl.iter_mut() {
        match w {
            Work::Eval(_) => {}
            Work::Alloc { provided, .. } => {
                for (_, v) in provided.iter_mut() {
                    value(v, visit);
                }
            }
            Work::Kont(k) => match k {
                Kont::CallArgs { r, argv, .. } => {
                    visit(r);
                    for v in argv.iter_mut() {
                        value(v, visit);
                    }
                }
                Kont::Return { saved } => {
                    for v in saved.values_mut() {
                        value(v, visit);
                    }
                }
                Kont::NewInits { provided, .. } => {
                    for (_, v) in provided.iter_mut() {
                        value(v, visit);
                    }
                }
                Kont::AllocInit(st) => {
                    visit(&mut st.this_ref);
                    for (_, v) in st.provided.iter_mut() {
                        value(v, visit);
                    }
                    for v in st.saved.values_mut() {
                        value(v, visit);
                    }
                }
                Kont::LetRestore { old, .. } => {
                    if let Some(v) = old {
                        value(v, visit);
                    }
                }
                // Value-free continuations (their operands are already on
                // the value stack, which is visited above).
                Kont::GetField(_)
                | Kont::SetField { .. }
                | Kont::CallRecv { .. }
                | Kont::View(_)
                | Kont::Cast(_)
                | Kont::And(_)
                | Kont::Or(_)
                | Kont::BinOp(_)
                | Kont::Un(_)
                | Kont::If { .. }
                | Kont::WhileCond { .. }
                | Kont::WhileBody { .. }
                | Kont::LetBind { .. }
                | Kont::Seq { .. }
                | Kont::Print => {}
            },
        }
    }
}

impl<'p> Machine<'p> {
    /// Creates a machine for a checked program.
    pub fn new(prog: &'p CheckedProgram) -> Self {
        Machine {
            prog,
            heap: Heap::new(),
            output: Vec::new(),
            stats: Stats::default(),
            fuel: None,
            depth: 0,
            max_depth: DEFAULT_MAX_DEPTH,
            sub_memo: HashMap::new(),
            trace: None,
        }
    }

    /// Attaches a structured-event trace buffer: the machine records one
    /// [`jns_obs::TraceEvent::Gc`] per tracing collection. With no buffer
    /// attached (the default) the hook is a branch on `None` and
    /// behaviour — output, value, statistics — is byte-identical.
    pub fn set_trace(&mut self, buf: jns_obs::TraceBuffer) {
        self.trace = Some(buf);
    }

    /// Detaches and returns the trace buffer, if one was attached.
    pub fn take_trace(&mut self) -> Option<jns_obs::TraceBuffer> {
        self.trace.take()
    }

    /// The attached trace buffer, for callers that push their own events.
    pub fn trace_mut(&mut self) -> Option<&mut jns_obs::TraceBuffer> {
        self.trace.as_mut()
    }

    /// Limits execution to `fuel` steps (for property tests).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Sets the live-heap threshold: once this many objects are live, the
    /// next allocation first runs a mark-compact collection over roots
    /// enumerated from the machine's explicit control/value stacks and
    /// environment frames. With no limit the collector never runs and
    /// behaviour is byte-identical to an unlimited heap.
    pub fn with_heap_limit(mut self, limit: usize) -> Self {
        self.heap.set_limit(Some(limit));
        self
    }

    /// Sets the nursery capacity for generational collection (effective
    /// only alongside a heap limit): allocations go to the nursery and a
    /// full nursery triggers a minor collection; see
    /// [`crate::heap::Heap::set_nursery`].
    pub fn with_nursery(mut self, nursery: usize) -> Self {
        self.heap.set_nursery(Some(nursery));
        self
    }

    /// Region-style reclamation between top-level invocations (the same
    /// surface as `jns_vm::Vm::reset_for_request`): drops every heap
    /// object and clears per-request state — output, statistics, call
    /// depth — while keeping the subtype memo warm. Returns the number of
    /// heap objects reclaimed.
    pub fn reset_for_request(&mut self) -> usize {
        let reclaimed = self.heap.reset();
        self.output.clear();
        self.stats = Stats::default();
        self.depth = 0;
        reclaimed
    }

    /// Copies the heap's collector counters into [`Machine::stats`]
    /// (called at the end of every public evaluation entry point).
    fn sync_gc_stats(&mut self) {
        let g = self.heap.gc_stats();
        self.stats.gc_runs = g.runs;
        self.stats.reclaimed = g.reclaimed;
        self.stats.peak_live = g.peak_live;
        self.stats.minor_runs = g.minor_runs;
        self.stats.major_runs = g.major_runs;
        self.stats.promoted = g.promoted;
        self.stats.barrier_hits = g.barrier_hits;
    }

    /// Sets the recursion-depth limit (method activations plus nested
    /// field-initialiser evaluations). The control stack lives on the
    /// heap, so large limits are safe; exceeding the limit returns
    /// [`RtError::DepthExceeded`].
    pub fn with_max_depth(mut self, max_depth: u32) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Runs the program's `main` expression.
    ///
    /// # Errors
    ///
    /// See [`RtError`]; for well-typed programs only the benign variants
    /// can occur.
    pub fn run(&mut self) -> Result<Value, RtError> {
        let prog = self.prog;
        let main = prog
            .main
            .as_ref()
            .ok_or_else(|| RtError::BadType("program has no main".into()))?;
        self.eval_root(main)
    }

    /// Evaluates an arbitrary expression in an empty frame (for tests).
    pub fn eval_expr(&mut self, e: &CExpr) -> Result<Value, RtError> {
        self.eval_root(e)
    }

    /// Evaluates `e` from a fresh frame on fresh control/value stacks,
    /// restoring the shared depth counter on error so the machine stays
    /// reusable after a failure.
    fn eval_root<'a>(&mut self, e: &'a CExpr) -> Result<Value, RtError>
    where
        'p: 'a,
    {
        let entry_depth = self.depth;
        let mut frame = Frame::new();
        let mut ctrl: Vec<Work<'a>> = vec![Work::Eval(e)];
        let mut vals: Vec<Value> = Vec::new();
        let r = self.exec_loop(&mut frame, &mut ctrl, &mut vals);
        self.sync_gc_stats();
        if r.is_err() {
            self.depth = entry_depth;
        }
        r
    }

    fn tick(&mut self) -> Result<(), RtError> {
        self.stats.steps += 1;
        if let Some(f) = self.fuel {
            if self.stats.steps > f {
                return Err(RtError::OutOfFuel);
            }
        }
        Ok(())
    }

    /// The evaluation loop. Pops one [`Work`] item per round; expression
    /// nodes push their continuations and subexpressions instead of
    /// recursing, so the host stack stays at a constant depth no matter
    /// how deeply the program nests or recurses.
    fn exec_loop<'a>(
        &mut self,
        frame: &mut Frame,
        ctrl: &mut Vec<Work<'a>>,
        vals: &mut Vec<Value>,
    ) -> Result<Value, RtError>
    where
        'p: 'a,
    {
        while let Some(w) = ctrl.pop() {
            match w {
                Work::Eval(e) => {
                    self.tick()?;
                    match e {
                        CExpr::Int(n) => vals.push(Value::Int(*n)),
                        CExpr::Bool(b) => vals.push(Value::Bool(*b)),
                        CExpr::Str(s) => vals.push(Value::Str(Arc::from(s.as_str()))),
                        CExpr::Unit => vals.push(Value::Unit),
                        CExpr::Var(x) => {
                            let v = frame.get(x).cloned().ok_or_else(|| {
                                RtError::UnboundVariable(self.prog.table.name_str(*x))
                            })?;
                            vals.push(v);
                        }
                        CExpr::GetField(recv, f) => {
                            ctrl.push(Work::Kont(Kont::GetField(*f)));
                            ctrl.push(Work::Eval(recv));
                        }
                        CExpr::SetField(x, f, value) => {
                            ctrl.push(Work::Kont(Kont::SetField { x: *x, f: *f }));
                            ctrl.push(Work::Eval(value));
                        }
                        CExpr::Call(recv, m, args) => {
                            ctrl.push(Work::Kont(Kont::CallRecv { m: *m, args }));
                            ctrl.push(Work::Eval(recv));
                        }
                        CExpr::New(ty, inits) => {
                            let class = typeeval::eval_type_class(self, frame, ty)?;
                            match inits.first() {
                                None => ctrl.push(Work::Alloc {
                                    class,
                                    provided: Vec::new(),
                                }),
                                Some((_, e0)) => {
                                    ctrl.push(Work::Kont(Kont::NewInits {
                                        class,
                                        inits,
                                        idx: 0,
                                        provided: Vec::with_capacity(inits.len()),
                                    }));
                                    ctrl.push(Work::Eval(e0));
                                }
                            }
                        }
                        CExpr::View(ty, inner) => {
                            ctrl.push(Work::Kont(Kont::View(ty)));
                            ctrl.push(Work::Eval(inner));
                        }
                        CExpr::Cast(ty, inner) => {
                            ctrl.push(Work::Kont(Kont::Cast(ty)));
                            ctrl.push(Work::Eval(inner));
                        }
                        CExpr::Bin(op, l, r) => match op {
                            BinOp::And => {
                                ctrl.push(Work::Kont(Kont::And(r)));
                                ctrl.push(Work::Eval(l));
                            }
                            BinOp::Or => {
                                ctrl.push(Work::Kont(Kont::Or(r)));
                                ctrl.push(Work::Eval(l));
                            }
                            _ => {
                                ctrl.push(Work::Kont(Kont::BinOp(*op)));
                                ctrl.push(Work::Eval(r));
                                ctrl.push(Work::Eval(l));
                            }
                        },
                        CExpr::Un(op, inner) => {
                            ctrl.push(Work::Kont(Kont::Un(*op)));
                            ctrl.push(Work::Eval(inner));
                        }
                        CExpr::If(c, t, e2) => {
                            ctrl.push(Work::Kont(Kont::If { t, e: e2 }));
                            ctrl.push(Work::Eval(c));
                        }
                        CExpr::While(c, body) => {
                            // Loop-head tick: one per condition test, as in
                            // the big-step rule.
                            self.tick()?;
                            ctrl.push(Work::Kont(Kont::WhileCond { c, body }));
                            ctrl.push(Work::Eval(c));
                        }
                        CExpr::Let(x, init, body) => {
                            ctrl.push(Work::Kont(Kont::LetBind { x: *x, body }));
                            ctrl.push(Work::Eval(init));
                        }
                        CExpr::Seq(parts) => match parts.first() {
                            None => vals.push(Value::Unit),
                            Some(p0) => {
                                ctrl.push(Work::Kont(Kont::Seq { parts, idx: 0 }));
                                ctrl.push(Work::Eval(p0));
                            }
                        },
                        CExpr::Print(inner) => {
                            ctrl.push(Work::Kont(Kont::Print));
                            ctrl.push(Work::Eval(inner));
                        }
                    }
                }
                Work::Alloc { class, provided } => {
                    self.begin_alloc(class, provided, frame, ctrl, vals)?;
                }
                Work::Kont(k) => match k {
                    Kont::GetField(f) => {
                        let v = vals.pop().expect("getfield receiver");
                        let r = self.expect_ref(v)?;
                        let out = self.get_field(&r, f)?;
                        vals.push(out);
                    }
                    Kont::SetField { x, f } => {
                        let v = vals.pop().expect("setfield value");
                        let Some(Value::Ref(r)) = frame.get(&x).cloned() else {
                            return Err(RtError::UnboundVariable(self.prog.table.name_str(x)));
                        };
                        let copy = self.prog.sharing.fclass(r.view, f);
                        self.heap.set(r.loc, copy, None, f, v.clone());
                        // grant(σ, x.f): the stack binding loses the mask (R-SET).
                        if let Some(Value::Ref(r2)) = frame.get_mut(&x) {
                            if r2.grant(&f) {
                                self.stats.mask_allocs += 1;
                            }
                        }
                        vals.push(v);
                    }
                    Kont::CallRecv { m, args } => {
                        let v = vals.pop().expect("call receiver");
                        let r = self.expect_ref(v)?;
                        match args.first() {
                            None => self.begin_call(r, m, Vec::new(), frame, ctrl)?,
                            Some(a0) => {
                                ctrl.push(Work::Kont(Kont::CallArgs {
                                    r,
                                    m,
                                    args,
                                    idx: 0,
                                    argv: Vec::with_capacity(args.len()),
                                }));
                                ctrl.push(Work::Eval(a0));
                            }
                        }
                    }
                    Kont::CallArgs {
                        r,
                        m,
                        args,
                        idx,
                        mut argv,
                    } => {
                        argv.push(vals.pop().expect("call argument"));
                        let next = idx + 1;
                        match args.get(next) {
                            Some(a) => {
                                ctrl.push(Work::Kont(Kont::CallArgs {
                                    r,
                                    m,
                                    args,
                                    idx: next,
                                    argv,
                                }));
                                ctrl.push(Work::Eval(a));
                            }
                            None => self.begin_call(r, m, argv, frame, ctrl)?,
                        }
                    }
                    Kont::Return { saved } => {
                        self.depth -= 1;
                        *frame = saved;
                    }
                    Kont::NewInits {
                        class,
                        inits,
                        idx,
                        mut provided,
                    } => {
                        provided.push((inits[idx].0, vals.pop().expect("record value")));
                        let next = idx + 1;
                        match inits.get(next) {
                            Some((_, e)) => {
                                ctrl.push(Work::Kont(Kont::NewInits {
                                    class,
                                    inits,
                                    idx: next,
                                    provided,
                                }));
                                ctrl.push(Work::Eval(e));
                            }
                            None => ctrl.push(Work::Alloc { class, provided }),
                        }
                    }
                    Kont::AllocInit(mut st) => {
                        self.depth -= 1;
                        let v = vals.pop().expect("field initialiser value");
                        let fname = st.inits[st.idx].0;
                        let copy = self.prog.sharing.fclass(st.class, fname);
                        // `this_ref.loc` is the object's current ℓ (a GC
                        // during the initialiser may have forwarded it).
                        self.heap.set(st.this_ref.loc, copy, None, fname, v);
                        st.masks.remove(&fname);
                        st.idx += 1;
                        match st.inits.get(st.idx) {
                            Some(&(_, init)) => {
                                if self.depth >= self.max_depth {
                                    return Err(RtError::DepthExceeded(self.max_depth));
                                }
                                self.depth += 1;
                                // Each initialiser runs in its own frame
                                // holding only `this`.
                                let mut f = Frame::new();
                                f.insert(
                                    self.prog.table.this_name,
                                    Value::Ref(st.this_ref.clone()),
                                );
                                *frame = f;
                                ctrl.push(Work::Kont(Kont::AllocInit(st)));
                                ctrl.push(Work::Eval(init));
                            }
                            None => {
                                *frame = std::mem::take(&mut st.saved);
                                let st = *st;
                                let v = self.finalize_alloc(
                                    st.class,
                                    st.this_ref.loc,
                                    st.masks,
                                    st.provided,
                                );
                                vals.push(v);
                            }
                        }
                    }
                    Kont::View(ty) => {
                        let v = vals.pop().expect("view operand");
                        let r = self.expect_ref(v)?;
                        self.stats.views_explicit += 1;
                        let (target, mut masks) = typeeval::eval_type(self, frame, &ty.ty)?;
                        masks.extend(ty.masks.iter().copied());
                        let out = self.apply_view(r, &target, masks)?;
                        vals.push(Value::Ref(out));
                    }
                    Kont::Cast(ty) => {
                        let v = vals.pop().expect("cast operand");
                        match v {
                            Value::Ref(r) => {
                                let (target, _masks) = typeeval::eval_type(self, frame, &ty.ty)?;
                                if self.view_subtype(r.view, &target) {
                                    vals.push(Value::Ref(r));
                                } else {
                                    return Err(RtError::CastFailed(format!(
                                        "view `{}` is not a `{}`",
                                        self.prog.table.class_name(r.view),
                                        self.prog.table.show_ty(&target)
                                    )));
                                }
                            }
                            prim => vals.push(prim), // primitive casts are no-ops
                        }
                    }
                    Kont::And(r) => {
                        let lv = vals.pop().expect("&& operand");
                        if lv.as_bool().ok_or_else(|| type_err("&& needs bool"))? {
                            ctrl.push(Work::Eval(r));
                        } else {
                            vals.push(Value::Bool(false));
                        }
                    }
                    Kont::Or(r) => {
                        let lv = vals.pop().expect("|| operand");
                        if lv.as_bool().ok_or_else(|| type_err("|| needs bool"))? {
                            vals.push(Value::Bool(true));
                        } else {
                            ctrl.push(Work::Eval(r));
                        }
                    }
                    Kont::BinOp(op) => {
                        let rv = vals.pop().expect("binary rhs");
                        let lv = vals.pop().expect("binary lhs");
                        vals.push(self.binop(op, lv, rv)?);
                    }
                    Kont::Un(op) => {
                        let v = vals.pop().expect("unary operand");
                        let out = match (op, v) {
                            (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                            (UnOp::Neg, Value::Int(n)) => Value::Int(n.wrapping_neg()),
                            _ => return Err(type_err("bad unary operand")),
                        };
                        vals.push(out);
                    }
                    Kont::If { t, e } => {
                        let cv = vals.pop().expect("if condition");
                        if cv.as_bool().ok_or_else(|| type_err("if needs bool"))? {
                            ctrl.push(Work::Eval(t));
                        } else {
                            ctrl.push(Work::Eval(e));
                        }
                    }
                    Kont::WhileCond { c, body } => {
                        let cv = vals.pop().expect("while condition");
                        if cv.as_bool().ok_or_else(|| type_err("while needs bool"))? {
                            ctrl.push(Work::Kont(Kont::WhileBody { c, body }));
                            ctrl.push(Work::Eval(body));
                        } else {
                            vals.push(Value::Unit);
                        }
                    }
                    Kont::WhileBody { c, body } => {
                        vals.pop(); // the body's value is discarded
                        self.tick()?;
                        ctrl.push(Work::Kont(Kont::WhileCond { c, body }));
                        ctrl.push(Work::Eval(c));
                    }
                    Kont::LetBind { x, body } => {
                        let v = vals.pop().expect("let initialiser");
                        let old = frame.insert(x, v);
                        ctrl.push(Work::Kont(Kont::LetRestore { x, old }));
                        ctrl.push(Work::Eval(body));
                    }
                    Kont::LetRestore { x, old } => match old {
                        Some(o) => {
                            frame.insert(x, o);
                        }
                        None => {
                            frame.remove(&x);
                        }
                    },
                    Kont::Seq { parts, idx } => {
                        let next = idx + 1;
                        if let Some(p) = parts.get(next) {
                            vals.pop(); // discard all but the last value
                            ctrl.push(Work::Kont(Kont::Seq { parts, idx: next }));
                            ctrl.push(Work::Eval(p));
                        }
                    }
                    Kont::Print => {
                        let v = vals.pop().expect("print operand");
                        let s = self.display_value(&v);
                        self.output.push(s);
                        vals.push(Value::Unit);
                    }
                },
            }
        }
        Ok(vals.pop().expect("evaluation produced a value"))
    }

    /// Formats a value the way `print` shows it.
    pub fn display_value(&self, v: &Value) -> String {
        match v {
            Value::Ref(r) => format!("{}@{}", self.prog.table.class_name(r.view), r.loc),
            other => other.to_string(),
        }
    }

    // -------------------------------------------------------------- fields

    /// R-GET: reads `r.f` through `r`'s view, applying the lazy implicit
    /// view change to the result.
    pub fn get_field(&mut self, r: &RefVal, f: Name) -> Result<Value, RtError> {
        let copy = self.prog.sharing.fclass(r.view, f);
        let stored = match self.heap.get(r.loc, copy, None, f) {
            Some(v) => v,
            None => {
                // §3.3 forwarding: read the other family's copy and re-view.
                let mut found = None;
                for alt in self.prog.sharing.forwards(r.view, f).to_vec() {
                    if let Some(v) = self.heap.get(r.loc, alt, None, f) {
                        found = Some(v);
                        break;
                    }
                }
                found.ok_or_else(|| {
                    RtError::UninitialisedField(format!(
                        "{}.{} (view {})",
                        r.loc,
                        self.prog.table.name_str(f),
                        self.prog.table.class_name(r.view)
                    ))
                })?
            }
        };
        match stored {
            Value::Ref(inner) => {
                // ftype(∅, P!\f0, f) evaluated in the current view.
                let ft = self.field_view_type(r.view, f)?;
                let (ty, masks) = ft;
                self.stats.views_implicit += 1;
                self.apply_view(inner, &ty, masks).map(Value::Ref)
            }
            prim => Ok(prim),
        }
    }

    /// The field type of `f` interpreted in view `view`, as a runtime type.
    fn field_view_type(&self, view: ClassId, f: Name) -> Result<(Ty, BTreeSet<Name>), RtError> {
        let env = TypeEnv::new();
        let judge = Judge::new(&self.prog.table, &env);
        let recv = Ty::Class(view).exact().unmasked();
        let ft = judge.ftype(&recv, f).map_err(RtError::BadType)?;
        Ok((judge.canon(&ft.ty), ft.masks))
    }

    // -------------------------------------------------------------- alloc

    /// R-ALLOC: allocates an `S` instance, runs declared field
    /// initialisers (most-base first), then the provided record values.
    ///
    /// Initialisers run on a fresh explicit control stack, so deep
    /// initialiser chains cannot exhaust the host stack either.
    pub fn alloc(
        &mut self,
        class: ClassId,
        provided: Vec<(Name, Value)>,
    ) -> Result<Value, RtError> {
        let entry_depth = self.depth;
        let mut frame = Frame::new();
        let mut ctrl: Vec<Work<'p>> = vec![Work::Alloc { class, provided }];
        let mut vals: Vec<Value> = Vec::new();
        let r = self.exec_loop(&mut frame, &mut ctrl, &mut vals);
        self.sync_gc_stats();
        if r.is_err() {
            self.depth = entry_depth;
        }
        r
    }

    /// Starts R-ALLOC on the explicit stack: claims a location, then
    /// either finishes immediately (no declared initialisers) or swaps in
    /// the first initialiser's frame and suspends into `Kont::AllocInit`.
    /// Each nested initialiser evaluation counts one recursion unit
    /// against the depth limit (mirroring the VM's accounting).
    fn begin_alloc<'a>(
        &mut self,
        class: ClassId,
        mut provided: Vec<(Name, Value)>,
        frame: &mut Frame,
        ctrl: &mut Vec<Work<'a>>,
        vals: &mut Vec<Value>,
    ) -> Result<(), RtError>
    where
        'p: 'a,
    {
        self.stats.allocs += 1;
        // GC point: the only place the interpreter grows the heap. Roots
        // are the machine's explicit stacks plus the record values about
        // to be stored; the new object does not exist yet.
        if let Some(kind) = self.heap.pending_collection() {
            // Pause timing feeds the trace event only, so the clock is
            // read just when a buffer is attached.
            let start = self.trace.as_ref().map(|_| std::time::Instant::now());
            let reclaimed = self.heap.collect_kind(kind, |visit| {
                visit_roots(frame, ctrl, vals, &mut provided, visit);
            });
            if let Some(t) = self.trace.as_mut() {
                t.push(jns_obs::TraceEvent::Gc {
                    kind: kind.label(),
                    reclaimed: reclaimed as u64,
                    live: self.heap.len() as u64,
                    peak_live: self.heap.gc_stats().peak_live,
                    pause_us: start.map_or(0, |s| s.elapsed().as_micros() as u64),
                });
            }
        }
        let loc = self.heap.alloc(0);
        let prog = self.prog;
        let all_fields: Vec<(ClassId, jns_types::FieldInfo)> = prog.table.fields_of(class);
        let masks: BTreeSet<Name> = all_fields.iter().map(|(_, fi)| fi.name).collect();
        // `this` during initialisation: all fields masked (F-OK).
        self.stats.mask_allocs += 1;
        let this_ref = RefVal {
            loc,
            view: class,
            masks: Arc::new(masks.clone()),
        };
        // Declared initialisers, base-most classes first.
        let inits: Vec<(Name, &'a CExpr)> = all_fields
            .iter()
            .rev()
            .filter(|(_, fi)| fi.has_init)
            .filter_map(|(owner, fi)| {
                prog.field_inits
                    .get(&(*owner, fi.name))
                    .map(|e| (fi.name, e))
            })
            .collect();
        match inits.first() {
            None => {
                let v = self.finalize_alloc(class, loc, masks, provided);
                vals.push(v);
            }
            Some(&(_, first)) => {
                if self.depth >= self.max_depth {
                    return Err(RtError::DepthExceeded(self.max_depth));
                }
                self.depth += 1;
                let mut st = Box::new(AllocState {
                    class,
                    this_ref,
                    masks,
                    inits,
                    idx: 0,
                    provided,
                    saved: Frame::new(),
                });
                let mut f0 = Frame::new();
                f0.insert(prog.table.this_name, Value::Ref(st.this_ref.clone()));
                st.saved = std::mem::replace(frame, f0);
                ctrl.push(Work::Kont(Kont::AllocInit(st)));
                ctrl.push(Work::Eval(first));
            }
        }
        Ok(())
    }

    /// Writes the provided record values and produces the new reference.
    fn finalize_alloc(
        &mut self,
        class: ClassId,
        loc: Loc,
        mut masks: BTreeSet<Name>,
        provided: Vec<(Name, Value)>,
    ) -> Value {
        for (fname, v) in provided {
            let copy = self.prog.sharing.fclass(class, fname);
            self.heap.set(loc, copy, None, fname, v);
            masks.remove(&fname);
        }
        self.stats.mask_allocs += 1;
        Value::Ref(RefVal {
            loc,
            view: class,
            masks: Arc::new(masks),
        })
    }

    // -------------------------------------------------------------- calls

    /// R-CALL with view-based dispatch: `mbody(S, m)` looks up the body
    /// starting from the receiver's *view*, not its allocation class.
    ///
    /// The body runs on a fresh explicit control stack; the depth counter
    /// is restored on error so the machine stays reusable.
    pub fn call(&mut self, r: RefVal, m: Name, args: Vec<Value>) -> Result<Value, RtError> {
        let entry_depth = self.depth;
        let mut frame = Frame::new();
        let mut ctrl: Vec<Work<'p>> = Vec::new();
        let mut vals: Vec<Value> = Vec::new();
        let res = self
            .begin_call(r, m, args, &mut frame, &mut ctrl)
            .and_then(|()| self.exec_loop(&mut frame, &mut ctrl, &mut vals));
        self.sync_gc_stats();
        if res.is_err() {
            self.depth = entry_depth;
        }
        res
    }

    /// Dispatches a method call on the explicit stack: pushes the return
    /// continuation (holding the caller's frame) and the body.
    fn begin_call<'a>(
        &mut self,
        r: RefVal,
        m: Name,
        args: Vec<Value>,
        frame: &mut Frame,
        ctrl: &mut Vec<Work<'a>>,
    ) -> Result<(), RtError>
    where
        'p: 'a,
    {
        self.stats.calls += 1;
        if self.depth >= self.max_depth {
            return Err(RtError::DepthExceeded(self.max_depth));
        }
        let prog = self.prog;
        let Some((_owner, method)) = prog.mbody(r.view, m) else {
            return Err(RtError::TypeMismatch(format!(
                "no method `{}` on view `{}`",
                self.prog.table.name_str(m),
                self.prog.table.class_name(r.view)
            )));
        };
        if method.params.len() != args.len() {
            return Err(RtError::TypeMismatch("arity".into()));
        }
        let mut callee = Frame::new();
        callee.insert(prog.table.this_name, Value::Ref(r));
        for (x, v) in method.params.iter().zip(args) {
            callee.insert(*x, v);
        }
        self.depth += 1;
        ctrl.push(Work::Kont(Kont::Return {
            saved: std::mem::replace(frame, callee),
        }));
        ctrl.push(Work::Eval(&method.body));
        Ok(())
    }

    // -------------------------------------------------------------- views

    /// The `view` function (§4.15): re-views `r` at target type `target`.
    /// The tree-walker materialises one shared mask set per transition
    /// (the VM interns them instead — see `Stats::mask_allocs`).
    pub fn apply_view(
        &mut self,
        r: RefVal,
        target: &Ty,
        masks: BTreeSet<Name>,
    ) -> Result<RefVal, RtError> {
        self.stats.mask_allocs += 1;
        let masks: MaskSet = Arc::new(masks);
        // Case 1: current view already compatible.
        if self.view_subtype(r.view, target) && r.masks.is_subset(&masks) {
            return Ok(RefVal {
                loc: r.loc,
                view: r.view,
                masks,
            });
        }
        // Case 2: the unique shared partner below the target.
        let partners = self.prog.sharing.partners(r.view);
        let mut candidates = Vec::new();
        for p in partners {
            if p != r.view && self.view_subtype(p, target) {
                candidates.push(p);
            }
        }
        match candidates.len() {
            1 => Ok(RefVal {
                loc: r.loc,
                view: candidates[0],
                masks,
            }),
            0 => Err(RtError::ViewFailed(format!(
                "`{}` has no shared view under `{}`",
                self.prog.table.class_name(r.view),
                self.prog.table.show_ty(target)
            ))),
            _ => Err(RtError::ViewFailed(format!(
                "ambiguous view change from `{}` to `{}`",
                self.prog.table.class_name(r.view),
                self.prog.table.show_ty(target)
            ))),
        }
    }

    /// Whether view class `view` satisfies `view! ≤ target` (memoised).
    pub fn view_subtype(&mut self, view: ClassId, target: &Ty) -> bool {
        if let Some(&b) = self.sub_memo.get(&(view, target.clone())) {
            return b;
        }
        let env = TypeEnv::new();
        let judge = Judge::new(&self.prog.table, &env);
        let b = judge.sub_pure(&Ty::Class(view).exact(), target);
        self.sub_memo.insert((view, target.clone()), b);
        b
    }

    fn expect_ref(&self, v: Value) -> Result<RefVal, RtError> {
        match v {
            Value::Ref(r) => Ok(r),
            other => Err(RtError::TypeMismatch(format!(
                "expected an object, got `{other}`"
            ))),
        }
    }

    fn binop(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, RtError> {
        use BinOp::*;
        Ok(match (op, &l, &r) {
            (Add, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
            (Sub, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
            (Mul, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
            (Div, Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    return Err(RtError::DivisionByZero);
                }
                Value::Int(a.wrapping_div(*b))
            }
            (Rem, Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    return Err(RtError::DivisionByZero);
                }
                Value::Int(a.wrapping_rem(*b))
            }
            (Add, Value::Str(a), Value::Str(b)) => {
                Value::Str(Arc::from(format!("{a}{b}").as_str()))
            }
            (Lt, Value::Int(a), Value::Int(b)) => Value::Bool(a < b),
            (Le, Value::Int(a), Value::Int(b)) => Value::Bool(a <= b),
            (Gt, Value::Int(a), Value::Int(b)) => Value::Bool(a > b),
            (Ge, Value::Int(a), Value::Int(b)) => Value::Bool(a >= b),
            (Eq, a, b) => Value::Bool(self.value_eq(a, b)?),
            (Ne, a, b) => Value::Bool(!self.value_eq(a, b)?),
            _ => return Err(type_err("bad binary operands")),
        })
    }

    /// `==`: primitive equality, or *location* equality on references —
    /// object identity is independent of the view (§2.3).
    fn value_eq(&self, l: &Value, r: &Value) -> Result<bool, RtError> {
        Ok(match (l, r) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Unit, Value::Unit) => true,
            (Value::Ref(a), Value::Ref(b)) => a.loc == b.loc,
            _ => return Err(type_err("`==` on mismatched values")),
        })
    }

    // --------------------------------------------------- CONFIG invariant

    /// Checks the CONFIG well-formedness invariant (Fig. 19): every stored
    /// object value must be re-viewable at its field's interpreted type
    /// for every view whose `fclass` owns that copy.
    ///
    /// Returns descriptions of violations (empty = well-formed). Property
    /// tests assert emptiness after every run.
    pub fn check_config(&mut self) -> Vec<String> {
        let mut bad = Vec::new();
        let entries: Vec<((Loc, ClassId, Name), Value)> = self
            .heap
            .iter()
            .flat_map(|(loc, obj)| {
                obj.open_cells()
                    .map(move |(&(copy, f), v)| ((loc, copy, f), v.clone()))
            })
            .collect();
        for ((loc, copy, f), v) in entries {
            let Value::Ref(inner) = v else { continue };
            // Every partner view that reads this copy must be able to
            // re-view the stored value.
            for view in self.prog.sharing.partners(copy) {
                if self.prog.sharing.fclass(view, f) != copy {
                    continue;
                }
                let Ok((ty, masks)) = self.field_view_type(view, f) else {
                    continue;
                };
                if self.apply_view(inner.clone(), &ty, masks).is_err() {
                    bad.push(format!(
                        "heap[{loc}, {}, {}] holds `{}` not viewable at `{}`",
                        self.prog.table.class_name(copy),
                        self.prog.table.name_str(f),
                        self.prog.table.class_name(inner.view),
                        self.prog.table.show_ty(&ty)
                    ));
                }
            }
        }
        bad
    }

    /// Number of live heap objects (for tests).
    pub fn heap_size(&self) -> usize {
        self.heap.len()
    }

    /// The program being executed.
    pub fn program(&self) -> &'p CheckedProgram {
        self.prog
    }
}

fn type_err(m: &str) -> RtError {
    RtError::TypeMismatch(m.to_string())
}
