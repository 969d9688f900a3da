//! The evaluator: a big-step interpreter implementing the operational
//! semantics of Fig. 17, instrumented with step counting and an optional
//! CONFIG well-formedness checker (Fig. 19).
//!
//! The heap is the shared [`crate::heap::Heap`] (one store for both
//! backends); the interpreter keys every cell by ⟨ℓ, P, f⟩ where
//! `P = fclass(view, f)` selects the copy of a possibly duplicated field
//! (§4.15). Implicit view changes are *lazy*: a field read re-views the
//! stored value against the field type interpreted in the reader's view
//! (R-GET). With a heap limit configured ([`Machine::with_config`]),
//! allocation goes through the heap's GC entry
//! ([`crate::heap::Heap::collect_if_due`]), with roots enumerated from the
//! explicit stacks described below.
//!
//! The rules the bytecode VM applies identically — the operators and
//! `==`, the condition checks, how `print` shows a value, the `view`
//! function's partner choice and the shared run-time error texts — are
//! in [`crate::rules`], and the Fig. 16 type evaluator is in
//! [`crate::typeeval`]; both engines call them. This module stays the
//! reference for what the VM does its own way: evaluation, field storage,
//! memo tables and GC roots.
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
//! ([`RunConfig::max_depth`], default [`DEFAULT_MAX_DEPTH`]) that
//! returns [`RtError::DepthExceeded`] instead of aborting the process.
//! The limit counts *recursion units*: method activations and
//! allocations running their field initialisers (one unit for a whole
//! initialiser sequence), entered through [`rules::enter`] — the same
//! units the bytecode VM counts, so both backends report the identical
//! error at the identical depth.
//!
//! A failed evaluation cannot poison the machine: all control state lives
//! in locals of the evaluation loop, and the shared depth counter is
//! restored to its entry value on error, so a `Machine` can be reused
//! after any `RtError`.

use crate::error::RtError;
use crate::heap::{GcStats, Heap};
use crate::masks::{MaskId, MaskTable};
use crate::rules::{self, CondKind};
use crate::typeeval;
use crate::value::{Loc, RefVal, Value};
use jns_syntax::{BinOp, UnOp};
use jns_types::{CExpr, CheckedProgram, ClassId, Name, Ty, Type};
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
    /// Mask sets this engine's [`MaskTable`] interned for the first time
    /// (∅ counts once). Each engine interns every set its references
    /// carry, so repeated transitions reuse one id and this stays far
    /// below `views_explicit + views_implicit`. A reused VM keeps its
    /// table across requests, so a warm request counts only the sets no
    /// earlier request met.
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

    /// The flat counters in their stable profile-document order. The
    /// generational-GC counters appear only when the nursery engaged (a
    /// minor collection ran or the barrier fired) and `fused` only when
    /// nonzero, so stop-the-world, GC-off and `--no-fuse` documents keep
    /// their exact shape.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut counters = vec![
            ("steps", self.steps),
            ("allocs", self.allocs),
            ("calls", self.calls),
            ("views_explicit", self.views_explicit),
            ("views_implicit", self.views_implicit),
            ("mask_allocs", self.mask_allocs),
            ("folded", self.folded),
            ("ic_hits", self.ic_hits),
            ("ic_misses", self.ic_misses),
            ("gc_runs", self.gc_runs),
            ("reclaimed", self.reclaimed),
            ("peak_live", self.peak_live),
        ];
        if self.minor_runs > 0 || self.barrier_hits > 0 {
            counters.push(("minor_runs", self.minor_runs));
            counters.push(("major_runs", self.major_runs));
            counters.push(("promoted", self.promoted));
            counters.push(("barrier_hits", self.barrier_hits));
        }
        if self.fused > 0 {
            counters.push(("fused", self.fused));
        }
        counters
    }

    /// Copies the heap's collector counters in. Both engines call this at
    /// the end of every public entry point, and the VM after every
    /// allocation.
    #[inline]
    pub fn sync_gc(&mut self, g: &GcStats) {
        self.gc_runs = g.runs;
        self.reclaimed = g.reclaimed;
        self.peak_live = g.peak_live;
        self.minor_runs = g.minor_runs;
        self.major_runs = g.major_runs;
        self.promoted = g.promoted;
        self.barrier_hits = g.barrier_hits;
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

/// The run limits both engines take, as one value: the CLI, the
/// `jns_core` facade and the serve pool all hand it to
/// [`Machine::with_config`] or `jns_vm::Vm::with_config`. The default is
/// no fuel limit, [`DEFAULT_MAX_DEPTH`], and the collector off.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Execution fuel: AST nodes on the tree-walker, instructions on the
    /// VM. Exhausting it is the benign [`RtError::OutOfFuel`]. `None` is
    /// unlimited.
    pub fuel: Option<u64>,
    /// Recursion-depth limit: method activations plus nested
    /// field-initialiser evaluations, counted the same way on both
    /// engines. Both run on explicit heap stacks, so large limits are
    /// safe: exceeding one is the benign [`RtError::DepthExceeded`].
    /// `None` means [`DEFAULT_MAX_DEPTH`].
    pub max_depth: Option<u32>,
    /// Live-heap threshold: once this many objects are live, the next
    /// allocation first runs a mark-compact collection over roots taken
    /// from the engine's explicit stacks. `None` keeps the collector off,
    /// byte-identical to an unlimited heap.
    pub heap_limit: Option<usize>,
    /// Nursery capacity for generational collection, effective only
    /// alongside a heap limit: a full nursery runs a minor collection
    /// (see [`crate::heap::Heap::set_nursery`]). Outputs and semantic
    /// statistics are the same with or without it.
    pub nursery: Option<usize>,
}

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
    /// The mask sets this machine's references carry.
    masks: MaskTable,
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
    /// Declared initialisers in execution order
    /// ([`CheckedProgram::initialisers`]), by field-initialiser key.
    inits: Vec<((ClassId, Name), &'a CExpr)>,
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
            masks: MaskTable::default(),
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

    /// Applies the run limits in `cfg`. The collector's roots are the
    /// machine's explicit control/value stacks and environment frames.
    pub fn with_config(mut self, cfg: RunConfig) -> Self {
        self.fuel = cfg.fuel;
        self.max_depth = cfg.max_depth.unwrap_or(DEFAULT_MAX_DEPTH);
        self.heap.set_limit(cfg.heap_limit);
        self.heap.set_nursery(cfg.nursery);
        self
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
        self.stats.sync_gc(&self.heap.gc_stats());
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
                        let out = self.get_field(&rules::expect_ref(v)?, f)?;
                        vals.push(out);
                    }
                    Kont::SetField { x, f } => {
                        let v = vals.pop().expect("setfield value");
                        let Some(Value::Ref(r)) = frame.get_mut(&x) else {
                            return Err(RtError::UnboundVariable(self.prog.table.name_str(x)));
                        };
                        let copy = self.prog.sharing.fclass(r.view, f);
                        self.heap.set(r.loc, copy, None, f, v.clone());
                        // grant(σ, x.f): the stack binding loses the mask (R-SET).
                        let (masks, fresh) = self.masks.grant(r.masks, f);
                        r.masks = masks;
                        self.stats.mask_allocs += u64::from(fresh);
                        vals.push(v);
                    }
                    Kont::CallRecv { m, args } => {
                        let v = vals.pop().expect("call receiver");
                        let r = rules::expect_ref(v)?;
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
                        let v = vals.pop().expect("field initialiser value");
                        let (_, fname) = st.inits[st.idx].0;
                        let copy = self.prog.sharing.fclass(st.class, fname);
                        // `this_ref.loc` is the object's current ℓ (a GC
                        // during the initialiser may have forwarded it).
                        self.heap.set(st.this_ref.loc, copy, None, fname, v);
                        st.masks.remove(&fname);
                        st.idx += 1;
                        match st.inits.get(st.idx) {
                            Some(&(_, init)) => {
                                // Each initialiser runs in its own frame
                                // holding only `this`.
                                let mut f = Frame::new();
                                f.insert(self.prog.table.this_name, Value::Ref(st.this_ref));
                                *frame = f;
                                ctrl.push(Work::Kont(Kont::AllocInit(st)));
                                ctrl.push(Work::Eval(init));
                            }
                            None => {
                                // The sequence's depth unit is released.
                                self.depth -= 1;
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
                        let r = rules::expect_ref(v)?;
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
                                if !self.view_subtype(r.view, &target) {
                                    return Err(rules::cast_failed(self.prog, r.view, &target));
                                }
                                vals.push(Value::Ref(r));
                            }
                            prim => vals.push(prim), // primitive casts are no-ops
                        }
                    }
                    Kont::And(r) => {
                        let lv = vals.pop().expect("&& operand");
                        if CondKind::And.test(&lv)? {
                            ctrl.push(Work::Eval(r));
                        } else {
                            vals.push(Value::Bool(false));
                        }
                    }
                    Kont::Or(r) => {
                        let lv = vals.pop().expect("|| operand");
                        if CondKind::Or.test(&lv)? {
                            vals.push(Value::Bool(true));
                        } else {
                            ctrl.push(Work::Eval(r));
                        }
                    }
                    Kont::BinOp(op) => {
                        let rv = vals.pop().expect("binary rhs");
                        let lv = vals.pop().expect("binary lhs");
                        vals.push(rules::binop(op, lv, rv)?);
                    }
                    Kont::Un(op) => {
                        let v = vals.pop().expect("unary operand");
                        vals.push(rules::unop(op, v)?);
                    }
                    Kont::If { t, e } => {
                        let cv = vals.pop().expect("if condition");
                        if CondKind::If.test(&cv)? {
                            ctrl.push(Work::Eval(t));
                        } else {
                            ctrl.push(Work::Eval(e));
                        }
                    }
                    Kont::WhileCond { c, body } => {
                        let cv = vals.pop().expect("while condition");
                        if CondKind::While.test(&cv)? {
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
                        self.output.push(rules::display_value(self.prog, &v));
                        vals.push(Value::Unit);
                    }
                },
            }
        }
        Ok(vals.pop().expect("evaluation produced a value"))
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
                found.ok_or_else(|| rules::uninitialised(self.prog, r, f))?
            }
        };
        match stored {
            Value::Ref(inner) => {
                // ftype(∅, P!\f0, f) evaluated in the current view.
                let (ty, masks) =
                    rules::field_view_type(self.prog, r.view, f).map_err(RtError::BadType)?;
                self.stats.views_implicit += 1;
                self.apply_view(inner, &ty, masks).map(Value::Ref)
            }
            prim => Ok(prim),
        }
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
        self.stats.sync_gc(&self.heap.gc_stats());
        if r.is_err() {
            self.depth = entry_depth;
        }
        r
    }

    /// Starts R-ALLOC on the explicit stack: claims a location, then
    /// either finishes immediately (no declared initialisers) or swaps in
    /// the first initialiser's frame and suspends into `Kont::AllocInit`.
    /// The initialiser sequence holds one unit of recursion depth from
    /// the first initialiser to the end of the last, as in the VM.
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
        self.heap.collect_if_due(self.trace.as_mut(), |visit| {
            visit_roots(frame, ctrl, vals, &mut provided, visit);
        });
        let loc = self.heap.alloc(0);
        let prog = self.prog;
        let all_fields: Vec<(ClassId, jns_types::FieldInfo)> = prog.table.fields_of(class);
        let masks: BTreeSet<Name> = all_fields.iter().map(|(_, fi)| fi.name).collect();
        // `this` during initialisation: all fields masked (F-OK).
        let this_ref = RefVal {
            loc,
            view: class,
            masks: self.intern(masks.clone()),
        };
        let inits = prog.initialisers(&all_fields);
        match inits.first() {
            None => {
                let v = self.finalize_alloc(class, loc, masks, provided);
                vals.push(v);
            }
            Some(&(_, first)) => {
                rules::enter(&mut self.depth, self.max_depth)?;
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
                f0.insert(prog.table.this_name, Value::Ref(st.this_ref));
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
        Value::Ref(RefVal {
            loc,
            view: class,
            masks: self.intern(masks),
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
        self.stats.sync_gc(&self.heap.gc_stats());
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
        rules::enter(&mut self.depth, self.max_depth)?;
        let prog = self.prog;
        let Some((_owner, method)) = prog.mbody(r.view, m) else {
            return Err(rules::no_method(prog, r.view, m));
        };
        rules::check_arity(method.params.len(), args.len())?;
        let mut callee = Frame::new();
        callee.insert(prog.table.this_name, Value::Ref(r));
        for (x, v) in method.params.iter().zip(args) {
            callee.insert(*x, v);
        }
        ctrl.push(Work::Kont(Kont::Return {
            saved: std::mem::replace(frame, callee),
        }));
        ctrl.push(Work::Eval(&method.body));
        Ok(())
    }

    // -------------------------------------------------------------- views

    /// The `view` function (§4.15): re-views `r` at target type `target`
    /// with mask set `masks`, which the machine's table interns (see
    /// `Stats::mask_allocs`).
    pub fn apply_view(
        &mut self,
        r: RefVal,
        target: &Ty,
        masks: BTreeSet<Name>,
    ) -> Result<RefVal, RtError> {
        let masks = self.intern(masks);
        // Case 1: current view already compatible.
        if self.view_subtype(r.view, target) && self.masks.is_subset(r.masks, masks) {
            return Ok(RefVal { masks, ..r });
        }
        // Case 2: the unique shared partner below the target.
        let prog = self.prog;
        let partners = prog.sharing.partners(r.view);
        match rules::unique_partner(partners, r.view, |p| self.view_subtype(p, target)) {
            Ok(view) => Ok(RefVal {
                loc: r.loc,
                view,
                masks,
            }),
            Err(miss) => Err(miss.error(prog, r.view, target)),
        }
    }

    /// Interns `set`, counting a first-time set in `Stats::mask_allocs`.
    fn intern(&mut self, set: BTreeSet<Name>) -> MaskId {
        let (id, fresh) = self.masks.intern(set);
        self.stats.mask_allocs += u64::from(fresh);
        id
    }

    /// Whether view class `view` satisfies `view! ≤ target` (memoised).
    pub fn view_subtype(&mut self, view: ClassId, target: &Ty) -> bool {
        if let Some(&b) = self.sub_memo.get(&(view, target.clone())) {
            return b;
        }
        let b = rules::view_subtype(self.prog, view, target);
        self.sub_memo.insert((view, target.clone()), b);
        b
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
                let Ok((ty, masks)) = rules::field_view_type(self.prog, view, f) else {
                    continue;
                };
                if self.apply_view(inner, &ty, masks).is_err() {
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

    /// The table this machine's references take their mask ids from.
    pub fn mask_table(&self) -> &MaskTable {
        &self.masks
    }
}
