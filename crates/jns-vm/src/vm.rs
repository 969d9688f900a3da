//! The virtual machine: executes [`VmProgram`] bytecode with the paper's
//! §6 runtime machinery baked in.
//!
//! Three mechanisms replace the tree-walker's per-step resolution:
//!
//! 1. **Union field layouts and allocation plans, built once per class**
//!    (§6.2 "representative instance classes"). Objects are slot
//!    vectors, not `⟨ℓ, fclass(view,f), f⟩` map entries. The layout of an
//!    object is the union of the field copies of its whole *sharing
//!    group*, so every partner view reads and writes fixed slot indices;
//!    `fclass` is folded into the slot resolution, done once per (view,
//!    field) instead of once per access. Likewise R-ALLOC's shape — the
//!    slot count, the `this` mask set, each declared initialiser with its
//!    resolved cell, each field's write path — is resolved on a class's
//!    first allocation into an `AllocPlan`, so a `new` hashes no field
//!    set and looks up no field.
//! 2. **View-keyed inline caches** (§6.1 "lazily synthesised vtables").
//!    Every field-read, field-write, and call site carries a small cache
//!    keyed by the receiver's view. A hit costs a linear scan of one or
//!    two entries; a miss resolves through the shared global tables and
//!    installs the result. This mirrors how the paper's classloader
//!    synthesises a vtable per (class, view) pair on first use.
//! 3. **Memoised view changes** (§6.3). The `view` function's two
//!    questions — "is the current view already compatible?" and "which
//!    partner sits under the target?" — depend only on (view, target
//!    type), so both are memoised, as is the interpreted field type that
//!    drives lazy implicit view changes. Target types and mask sets are
//!    interned ids (masks in the VM's [`MaskTable`]), so a reference is a
//!    `Copy` triple and re-viewing the same reference shape twice costs
//!    two hash lookups and no allocation or reference count.
//!
//! Observable behaviour (printed output, final value, error variants and
//! messages) matches the tree-walking interpreter. The rules both engines
//! apply alike come from one place: the operators, `==`, the condition
//! checks, `print`'s format, the `view! ≤ target` judgment, the
//! interpreted field type, case 2 of `view` and the run-time error texts
//! from [`jns_eval::rules`], method lookup from
//! [`CheckedProgram::mbody`], and collection from the shared heap's
//! [`Heap::collect_if_due`]. What the VM does its own way — bytecode,
//! slots, inline caches, memo tables, GC roots, fusion — the
//! differential suite (`tests/vm_differential.rs` at the workspace root)
//! and the generated-program soundness proptests (`tests/soundness.rs`,
//! which run every generated program on both backends) compare against
//! the interpreter. The one intentional
//! difference is *step accounting*: [`Stats::steps`] counts VM
//! instructions rather than AST nodes, so fuel limits are measured in
//! instructions (both backends still interrupt runaway programs with
//! [`RtError::OutOfFuel`]). The dispatch loop charges every instruction
//! against one countdown (`Budget`) that runs out at the next
//! bookkeeping event — the instruction that exhausts the fuel, or the
//! sampler's next sample point — and credits `steps`, the per-chunk
//! profile and the sampler in bulk where the running activation changes.
//!
//! There is one dispatch loop, entered only by [`Vm::run`] and
//! [`Vm::call`], and it never re-enters itself: a method call and a
//! declared field initialiser are both ordinary activations on the
//! explicit frame stack. An allocation in flight is its frame parked at
//! `NewAlloc` with `this` on top of its operand stack (R-ALLOC's
//! continuation, defunctionalised), so no J&s program recurses on the
//! host stack.

use crate::bytecode::{Instr, TrapKind, VmProgram};
use jns_eval::rules::{self, ViewMiss};
use jns_eval::{
    Heap, MaskId, MaskTable, RefVal, RtError, RunConfig, Stats, Value, DEFAULT_MAX_DEPTH,
};
use jns_obs::IcKind;
use jns_types::{CheckedProgram, ClassId, Name, Ty};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Inline caches grow up to this many view entries before becoming
/// megamorphic (falling through to the global tables).
const IC_CAP: usize = 8;

/// The union field layout of one sharing group: every field copy
/// `(fclass-owner, field)` of every partner gets a fixed slot.
#[derive(Debug)]
struct Layout {
    slots: HashMap<(ClassId, Name), u32>,
    n_slots: u32,
}

/// Resolved read path for a (view, field) pair.
#[derive(Debug)]
struct FieldRes {
    /// `fclass(view, f)`: which partner's copy this view reads.
    copy: ClassId,
    /// Slot of that copy in the group layout.
    slot: Option<u32>,
    /// §3.3 forwarding fallbacks, pre-resolved to slots.
    alts: Box<[(ClassId, Option<u32>)]>,
    /// The interpreted field type driving the lazy implicit view change:
    /// interned canonical type + interned mask set (`Err` = the `BadType`
    /// message). Both are ids, so every implicit view change on this path
    /// copies two words.
    ft: Result<(u32, MaskId), String>,
}

/// Resolved write path for a (view, field) pair.
#[derive(Debug, Clone, Copy)]
struct SetRes {
    copy: ClassId,
    slot: Option<u32>,
}

/// The inline caches of one kind of site (field reads, field writes or
/// calls), indexed by site id: up to [`IC_CAP`] `(view, resolution)`
/// entries per site, and the site's `[hits, misses]`. Every resolution is
/// `Copy` (an index into [`Vm::field_paths`], a [`SetRes`] or a chunk),
/// so a hit copies it out. [`Vm::probe`] is the one lookup.
#[derive(Debug)]
struct IcSites<T> {
    kind: IcKind,
    entries: Vec<Vec<(ClassId, T)>>,
    hm: Vec<[u64; 2]>,
}

impl<T> IcSites<T> {
    fn new(kind: IcKind, n: u32) -> Self {
        IcSites {
            kind,
            entries: (0..n).map(|_| Vec::new()).collect(),
            hm: vec![[0; 2]; n as usize],
        }
    }

    /// Per site: `[hits, misses]` and the number of views cached.
    fn rows(&self) -> Vec<([u64; 2], u32)> {
        self.hm
            .iter()
            .zip(&self.entries)
            .map(|(hm, e)| (*hm, e.len() as u32))
            .collect()
    }
}

/// The dispatch loop's instruction budget: one countdown that every
/// instruction decrements and that runs out exactly at the next
/// bookkeeping event — the instruction that exhausts the fuel, or the
/// sampler's next sample point ([`Vm::refill`]). Instructions are
/// credited to `steps`, the running chunk's count and the sampler in
/// bulk ([`Vm::credit`]) where the running activation changes, on loop
/// exit and on every error path. One budget spans a whole run, so limits
/// and strides set between runs need no flush.
#[derive(Debug, Clone, Copy)]
struct Budget {
    /// Instructions that may still start before the next event.
    left: u64,
    /// `left` at the last credit: `granted - left` instructions have
    /// started since and are not yet counted.
    granted: u64,
}

/// The explicit execution state of one activation — the chunk, program
/// counter, frame slots, and operand stack every opcode handler operates
/// on. The running activation is a local in [`Vm::run_frames`]; suspended
/// callers (and allocating frames parked at their `NewAlloc`) live on
/// [`Vm::frames`] where the collector can enumerate them. Finished
/// activations are recycled through [`Vm::pool`], so a call or an
/// initialiser in a hot loop reuses the same two vectors instead of
/// allocating.
#[derive(Debug, Default)]
struct ExecState {
    chunk: usize,
    pc: usize,
    locals: Vec<Value>,
    stack: Vec<Value>,
    /// `Some(i)`: this activation computes declared initialiser `i` of
    /// the allocation whose frame is parked beneath it ([`Vm::init_returned`]).
    init: Option<u32>,
}

impl ExecState {
    /// Starts this (possibly recycled) activation at the top of `chunk`,
    /// with `this` in slot 0 of its `n_locals` slots, an empty operand
    /// stack and `init` as its initialiser mark, whatever it held before.
    /// Forced inline, like [`Vm::recycle`]: every call and initialiser
    /// passes through it, and an out-of-line copy measurably slowed
    /// `translate_serve`.
    #[inline(always)]
    fn start(&mut self, chunk: usize, n_locals: usize, this: RefVal, init: Option<u32>) {
        self.chunk = chunk;
        self.pc = 0;
        self.init = init;
        self.locals.clear();
        self.locals.resize(n_locals, Value::Unit);
        self.locals[0] = Value::Ref(this);
        self.stack.clear();
    }
}

/// What an opcode handler asks the dispatch loop to do next.
enum Flow {
    /// Fall through to `pc + 1`.
    Next,
    /// `pc` was rewritten within the same chunk (a taken jump).
    Jump,
    /// The activation changed (call, return): `pc` is already correct,
    /// reload the instruction stream before continuing.
    Switch,
    /// The outermost activation of this invocation returned.
    Done(Value),
}

/// The sampling profiler: every `stride` executed instructions it
/// snapshots the frame stack as a chunk-id path and bumps that path's
/// count. Deterministic (instruction-count-strided, not timer-driven)
/// so identical runs produce identical profiles, and free between
/// samples — the dispatch loop's [`Budget`] runs out at each sample
/// point; taking a sample is O(stack depth).
#[derive(Debug)]
struct Sampler {
    /// Instructions between samples (≥ 1).
    stride: u64,
    /// Position of the next sample point among the instructions still to
    /// be credited: the `countdown`-th one is sampled before it runs
    /// (always ≥ 1).
    countdown: u64,
    /// Samples keyed by the frame-stack chunk-id path, outermost first.
    stacks: HashMap<Vec<u32>, u64>,
    /// Total samples taken (sum of all stack counts).
    taken: u64,
}

/// A declared field initialiser of an allocated class: the chunk that
/// computes the value and the cell it is stored in.
#[derive(Debug, Clone, Copy)]
struct InitStep {
    chunk: usize,
    f: Name,
    at: SetRes,
}

/// R-ALLOC (Fig. 17) for one class, resolved on the class's first
/// allocation and kept for the VM's lifetime (like the layouts, a plan
/// depends only on the checked program).
#[derive(Debug)]
struct AllocPlan {
    /// Slots of the group layout.
    n_slots: u32,
    /// `this` during initialisation: every field masked (F-OK).
    this_masks: MaskId,
    /// Declared initialisers, base-most class first.
    inits: Box<[InitStep]>,
    /// The write path of every field of the class, for record values.
    writes: Box<[(Name, SetRes)]>,
    /// Fields no initialiser covers: still masked on the fresh reference
    /// unless the record provides them.
    uncovered: Box<[Name]>,
}

/// The executing machine. Mirrors [`jns_eval::Machine`]'s public surface
/// (`output`, `stats`, fuel) so backends are interchangeable.
#[derive(Debug)]
pub struct Vm<'p> {
    prog: &'p CheckedProgram,
    code: &'p VmProgram,
    /// The shared heap ([`jns_eval::Heap`], the same type the tree-walk
    /// interpreter uses); the VM allocates union-layout slot vectors.
    heap: Heap,
    /// Captured `print` output.
    pub output: Vec<String>,
    /// Execution statistics ([`Stats::steps`] counts VM instructions).
    pub stats: Stats,
    fuel: Option<u64>,
    depth: u32,
    max_depth: u32,
    /// Classes resolved by `NewResolve`, awaiting their `NewAlloc`
    /// (LIFO; pairs are properly nested in compiled code).
    new_stack: Vec<ClassId>,
    /// The explicit call stack: every suspended activation, allocating
    /// frames parked at their `NewAlloc` included. Lives on the VM so a
    /// collection can enumerate and forward every local and operand as a
    /// root.
    frames: Vec<ExecState>,
    /// Recycled activations (cleared of values, so never GC roots): calls
    /// pop from here instead of allocating fresh local/stack vectors.
    pool: Vec<ExecState>,

    // --- caches (all monotone; never invalidated by `reset_for_request`,
    // so a reused worker VM stays warm across requests) ---
    /// Per-site field-read caches, keyed by view: indices into
    /// `field_paths`.
    field_ics: IcSites<u32>,
    /// Per-site field-write caches, keyed by view.
    set_ics: IcSites<SetRes>,
    /// Per-site call caches, keyed by view.
    call_ics: IcSites<Option<usize>>,
    /// Every resolved (view, field) read path, stored once.
    field_paths: Vec<FieldRes>,
    /// Global (view, field) read resolutions backing the site caches, as
    /// indices into `field_paths`.
    field_res: HashMap<(ClassId, Name), u32>,
    /// Global (view, method) dispatch results backing the site caches.
    dispatch: HashMap<(ClassId, Name), Option<usize>>,
    /// Union layouts per class (shared per sharing group).
    layouts: HashMap<ClassId, Arc<Layout>>,
    /// Allocation plans, indexed by class id (`None` until the class's
    /// first allocation).
    plans: Vec<Option<AllocPlan>>,
    /// Interned runtime types (targets of views/casts/implicit re-views).
    ty_pool: Vec<Ty>,
    ty_ids: HashMap<Ty, u32>,
    /// Memoised `view! ≤ target` checks.
    sub_memo: HashMap<(ClassId, u32), bool>,
    /// Memoised unique-partner-under-target searches.
    partner_memo: HashMap<(ClassId, u32), Result<ClassId, ViewMiss>>,
    /// Per type-table entry: interned pre-evaluated (target, full mask
    /// set — dependent ∪ declared).
    pre_view: Vec<Option<(u32, MaskId)>>,
    /// The mask sets this VM's references carry: each distinct set is
    /// interned once (`Stats::mask_allocs`) and named by its id after.
    masks: MaskTable,
    /// Executed-instruction counter per chunk (profiling hook; survives
    /// `reset_for_request` so a worker accumulates a profile).
    chunk_steps: Vec<u64>,
    /// Optional structured-event sink (GC runs, per-site IC miss
    /// resolutions). `None` keeps every hook a single branch, with
    /// byte-identical outputs and statistics.
    trace: Option<jns_obs::TraceBuffer>,
    /// Optional sampling profiler (see [`Sampler`]). Like `trace`,
    /// `None` keeps the per-instruction hook a single branch and
    /// behaviour byte-identical. Survives [`Vm::reset_for_request`] so a
    /// serving worker accumulates one profile across its lifetime.
    sampler: Option<Sampler>,
}

impl<'p> Vm<'p> {
    /// Creates a VM over a checked program and its compiled bytecode.
    pub fn new(prog: &'p CheckedProgram, code: &'p VmProgram) -> Self {
        Vm {
            prog,
            code,
            heap: Heap::new(),
            output: Vec::new(),
            stats: Self::fresh_stats(code),
            fuel: None,
            depth: 0,
            max_depth: DEFAULT_MAX_DEPTH,
            new_stack: Vec::new(),
            frames: Vec::new(),
            pool: Vec::new(),
            field_ics: IcSites::new(IcKind::FieldGet, code.n_field_ics),
            set_ics: IcSites::new(IcKind::FieldSet, code.n_set_ics),
            call_ics: IcSites::new(IcKind::Call, code.n_call_ics),
            field_paths: Vec::new(),
            field_res: HashMap::new(),
            dispatch: HashMap::new(),
            layouts: HashMap::new(),
            plans: Vec::new(),
            ty_pool: Vec::new(),
            ty_ids: HashMap::new(),
            sub_memo: HashMap::new(),
            partner_memo: HashMap::new(),
            pre_view: vec![None; code.types.len()],
            masks: MaskTable::default(),
            chunk_steps: vec![0; code.chunks.len()],
            trace: None,
            sampler: None,
        }
    }

    /// Attaches a structured-event trace buffer: the VM records one
    /// [`jns_obs::TraceEvent::Gc`] per tracing collection and one
    /// [`jns_obs::TraceEvent::IcMiss`] per inline-cache resolution through
    /// the global tables. With no buffer attached (the default) every
    /// hook is a branch on `None` and behaviour — output, value,
    /// statistics — is byte-identical.
    pub fn set_trace(&mut self, buf: jns_obs::TraceBuffer) {
        self.trace = Some(buf);
    }

    /// Detaches and returns the trace buffer, if one was attached. The
    /// buffer survives [`Vm::reset_for_request`], so a serving worker
    /// accumulates events across its whole lifetime.
    pub fn take_trace(&mut self) -> Option<jns_obs::TraceBuffer> {
        self.trace.take()
    }

    /// The attached trace buffer, for callers (the serving layer) that
    /// push their own request-lifecycle events.
    pub fn trace_mut(&mut self) -> Option<&mut jns_obs::TraceBuffer> {
        self.trace.as_mut()
    }

    /// Enables the sampling profiler: every `stride` executed
    /// instructions the VM snapshots its frame stack (a strided, and
    /// therefore deterministic, stand-in for wall-clock sampling).
    /// Exactly `⌊executed / stride⌋` samples are taken. A stride of 0 is
    /// clamped to 1 (sample every instruction). Calling this again
    /// discards any samples already taken.
    pub fn set_sample_stride(&mut self, stride: u64) {
        let stride = stride.max(1);
        self.sampler = Some(Sampler {
            stride,
            countdown: stride,
            stacks: HashMap::new(),
            taken: 0,
        });
    }

    /// The configured sampling stride, if the profiler is enabled.
    pub fn sample_stride(&self) -> Option<u64> {
        self.sampler.as_ref().map(|s| s.stride)
    }

    /// Total samples the profiler has taken (0 when disabled). Always
    /// equal to `⌊executed instructions / stride⌋`, counting across every
    /// run on this VM since the profiler was enabled.
    pub fn samples_taken(&self) -> u64 {
        self.sampler.as_ref().map_or(0, |s| s.taken)
    }

    /// The profile as collapsed stacks: `(stack, count)` pairs where the
    /// stack is `;`-joined chunk names, outermost call first — the
    /// format flamegraph tooling consumes (one `stack count` line each;
    /// see `jns_obs::folded_lines`). Distinct chunk-id paths that render
    /// to the same name path are merged. Sorted by stack string, so the
    /// output is stable. Empty when the profiler is disabled or no
    /// sample has been taken.
    pub fn folded_samples(&self) -> Vec<(String, u64)> {
        let Some(s) = self.sampler.as_ref() else {
            return Vec::new();
        };
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for (key, &n) in &s.stacks {
            let names: Vec<&str> = key
                .iter()
                .map(|&c| self.code.chunks[c as usize].name.as_str())
                .collect();
            *merged.entry(names.join(";")).or_insert(0) += n;
        }
        merged.into_iter().collect()
    }

    /// Sets the recursion-depth limit (method activations plus
    /// allocations running their field initialisers, one unit for a whole
    /// initialiser sequence) — the same units, default, and
    /// [`RtError::DepthExceeded`] error as the tree-walking interpreter,
    /// so both backends fail identically at identical depths.
    pub fn with_max_depth(mut self, max_depth: u32) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Applies the run limits in `cfg` (fuel counts VM instructions). The
    /// collector's roots are the locals and operands of every activation
    /// (an allocation in flight keeps `this` on its frame's operand
    /// stack). Every limit survives
    /// [`Vm::reset_for_request`], and the fuel and depth counters reset
    /// with the per-request statistics, so a config applied at worker
    /// spawn time holds for every request.
    pub fn with_config(mut self, cfg: RunConfig) -> Self {
        self.fuel = cfg.fuel;
        self.max_depth = cfg.max_depth.unwrap_or(DEFAULT_MAX_DEPTH);
        self.heap.set_limit(cfg.heap_limit);
        self.heap.set_nursery(cfg.nursery);
        self
    }

    /// The currently configured live-heap threshold.
    pub fn heap_limit(&self) -> Option<usize> {
        self.heap.limit()
    }

    /// Does nothing: the VM has no quickening stage, and every get/set/
    /// call site resolves through its view-keyed inline cache. Kept only
    /// because the stand-alone `perfbench` package still calls it.
    pub fn with_quickening(self, _on: bool) -> Self {
        self
    }

    /// Region-style reclamation between top-level invocations: drops every
    /// object allocated by the previous request (a trivial whole-heap
    /// collection on the shared [`Heap`]) and clears per-request state —
    /// output, statistics, the allocation stack, and call depth — while
    /// keeping all monotone program-level caches warm (inline caches,
    /// layouts, allocation plans, memoised view changes, interned types
    /// and mask sets, the per-chunk profile).
    ///
    /// Returns the number of heap objects reclaimed. This is what keeps a
    /// long-running worker VM's memory flat across requests instead of
    /// growing monotonically.
    pub fn reset_for_request(&mut self) -> usize {
        let reclaimed = self.heap.reset();
        self.output.clear();
        self.stats = Self::fresh_stats(self.code);
        self.depth = 0;
        self.new_stack.clear();
        self.frames.clear();
        reclaimed
    }

    /// Statistics at the start of a request: zero, except the fold and
    /// fusion counts, which are properties of the compiled program.
    fn fresh_stats(code: &VmProgram) -> Stats {
        Stats {
            folded: code.folded,
            fused: code.fused,
            ..Stats::default()
        }
    }

    /// The GC point ([`Heap::collect_if_due`]) with the VM's roots: the
    /// locals and operand stack of every suspended frame and of the
    /// running activation `cur` — a `new`'s record values wait on top of
    /// its allocating frame's operand stack, and an allocation in flight
    /// keeps `this` above them.
    fn maybe_gc(&mut self, cur: &mut ExecState) {
        let Vm {
            heap,
            frames,
            trace,
            ..
        } = self;
        heap.collect_if_due(trace.as_mut(), |visit| {
            for fr in frames.iter_mut().chain(std::iter::once(&mut *cur)) {
                for v in fr.locals.iter_mut().chain(fr.stack.iter_mut()) {
                    if let Value::Ref(r) = v {
                        visit(r);
                    }
                }
            }
        });
    }

    /// The inline-cache probe every get, set and call site goes through.
    /// A hit copies the resolution cached for `view` at site `ic` of the
    /// `sites` table. A miss is counted and traced; `resolve` answers it
    /// through the global tables, and the answer is cached while the site
    /// holds fewer than [`IC_CAP`] views.
    #[inline]
    fn probe<T: Copy>(
        &mut self,
        sites: impl Fn(&mut Self) -> &mut IcSites<T>,
        ic: u32,
        view: ClassId,
        resolve: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let i = ic as usize;
        let s = sites(self);
        if let Some(&(_, t)) = s.entries[i].iter().find(|(v, _)| *v == view) {
            s.hm[i][0] += 1;
            self.stats.ic_hits += 1;
            return t;
        }
        s.hm[i][1] += 1;
        let kind = s.kind;
        self.stats.ic_misses += 1;
        if let Some(t) = self.trace.as_mut() {
            t.push(jns_obs::TraceEvent::IcMiss {
                kind,
                site: ic,
                view: view.0,
            });
        }
        let t = resolve(self);
        let site = &mut sites(self).entries[i];
        if site.len() < IC_CAP {
            site.push((view, t));
        }
        t
    }

    /// Per-chunk executed-instruction counts `(chunk name, instructions)`,
    /// most executed first, zero-count chunks omitted. Accumulates across
    /// requests on a reused VM (profiling hook for dispatch-loop work).
    pub fn profile(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .chunk_steps
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (self.code.chunks[i].name.clone(), n))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Per-site inline-cache profile: every get/set/call site in the
    /// program (including never-executed ones), with hit/miss counts and
    /// the number of views cached at the site (its polymorphism degree).
    /// Sites are named `chunk+pc kind member` so a profile reader can
    /// map them back to instructions. Order is stable: all field-get
    /// sites by id, then field-set sites, then call sites.
    pub fn ic_profile(&self) -> Vec<jns_obs::IcSiteProfile> {
        let mut get_at: Vec<Option<(usize, usize, Name)>> =
            vec![None; self.code.n_field_ics as usize];
        let mut set_at: Vec<Option<(usize, usize, Name)>> =
            vec![None; self.code.n_set_ics as usize];
        let mut call_at: Vec<Option<(usize, usize, Name)>> =
            vec![None; self.code.n_call_ics as usize];
        for (ci, chunk) in self.code.chunks.iter().enumerate() {
            for (pc, ins) in chunk.code.iter().enumerate() {
                match ins {
                    Instr::GetField { f, ic } | Instr::LoadGetField { f, ic, .. } => {
                        get_at[*ic as usize] = Some((ci, pc, *f))
                    }
                    Instr::SetField { f, ic, .. } => set_at[*ic as usize] = Some((ci, pc, *f)),
                    Instr::Call { m, ic, .. } | Instr::LoadCall { m, ic, .. } => {
                        call_at[*ic as usize] = Some((ci, pc, *m))
                    }
                    _ => {}
                }
            }
        }
        let name_of = |at: &Option<(usize, usize, Name)>, kind: &str| match at {
            Some((ci, pc, n)) => format!(
                "{}+{} {} {}",
                self.code.chunks[*ci].name,
                pc,
                kind,
                self.prog.table.name_str(*n)
            ),
            None => format!("<unmapped {kind} site>"),
        };
        let kinds = [
            ("get", get_at, self.field_ics.rows()),
            ("set", set_at, self.set_ics.rows()),
            ("call", call_at, self.call_ics.rows()),
        ];
        let mut out = Vec::new();
        for (kind, at, rows) in kinds {
            for (i, (at, ([hits, misses], entries))) in at.iter().zip(rows).enumerate() {
                out.push(jns_obs::IcSiteProfile {
                    kind,
                    site: i as u32,
                    name: name_of(at, kind),
                    hits,
                    misses,
                    entries,
                });
            }
        }
        out
    }

    /// Runs the program's `main` chunk.
    ///
    /// # Errors
    ///
    /// Same contract as the interpreter: only benign [`RtError`] variants
    /// for well-typed programs.
    pub fn run(&mut self) -> Result<Value, RtError> {
        let Some(main) = self.code.main else {
            return Err(RtError::BadType("program has no main".into()));
        };
        let locals = vec![Value::Unit; self.code.chunks[main].n_locals as usize];
        self.run_frames(main, locals)
    }

    /// Formats a value the way `print` shows it ([`rules::display_value`]).
    pub fn display_value(&self, v: &Value) -> String {
        rules::display_value(self.prog, v)
    }

    /// Number of live heap objects (for tests).
    pub fn heap_size(&self) -> usize {
        self.heap.len()
    }

    /// The table this VM's references take their mask ids from.
    pub fn mask_table(&self) -> &MaskTable {
        &self.masks
    }

    /// A budget that runs out at the next event: the instruction that
    /// exhausts the fuel (instruction `fuel + 1`) or the sampler's next
    /// sample point, whichever comes first.
    fn budget(&self) -> Budget {
        let fuel = self
            .fuel
            .map_or(u64::MAX, |f| f.saturating_sub(self.stats.steps));
        let sample = self.sampler.as_ref().map_or(u64::MAX, |s| s.countdown - 1);
        let left = fuel.min(sample);
        Budget {
            left,
            granted: left,
        }
    }

    /// Credits the instructions started since the last credit to
    /// `steps`, to `chunk`'s count and to the sampler's countdown.
    #[inline]
    fn credit(&mut self, chunk: usize, b: &mut Budget) {
        let n = b.granted - b.left;
        b.granted = b.left;
        self.stats.steps += n;
        self.chunk_steps[chunk] += n;
        if let Some(s) = self.sampler.as_mut() {
            s.countdown -= n;
        }
    }

    /// The budget ran out: the instruction about to start in `chunk` is
    /// an event. If it exhausts the fuel it counts (in `steps` and the
    /// profile) and fails with [`RtError::OutOfFuel`]. If it is a sample
    /// point, the sampler snapshots the frame stack before it runs: every
    /// suspended frame's chunk (outermost first — allocating frames are
    /// on [`Vm::frames`] too, so initialiser-chunk stacks are complete)
    /// plus `chunk`. Then the budget is refilled up to the next event; it
    /// covers this instruction, which is credited later.
    #[cold]
    #[inline(never)]
    fn refill(&mut self, chunk: usize, b: &mut Budget) -> Result<(), RtError> {
        self.credit(chunk, b);
        if self.fuel.is_some_and(|f| self.stats.steps >= f) {
            self.stats.steps += 1;
            self.chunk_steps[chunk] += 1;
            return Err(RtError::OutOfFuel);
        }
        let Vm {
            sampler, frames, ..
        } = self;
        if let Some(s) = sampler.as_mut().filter(|s| s.countdown == 1) {
            let mut key: Vec<u32> = Vec::with_capacity(frames.len() + 1);
            key.extend(frames.iter().map(|f| f.chunk as u32));
            key.push(chunk as u32);
            *s.stacks.entry(key).or_insert(0) += 1;
            s.taken += 1;
            s.countdown += s.stride;
        }
        *b = self.budget();
        Ok(())
    }

    // ----------------------------------------------------------- execution

    /// Runs `chunk` with `locals` until its activation returns: the one
    /// entry to the dispatch loop, for [`Vm::run`] and [`Vm::call`]. Calls
    /// and field initialisers push VM frames instead of recursing
    /// natively, so deep J&s recursion is bounded by the configurable
    /// depth limit, not the Rust stack. One [`Budget`] spans the run;
    /// whatever it left uncounted is credited on return and on every
    /// error path alike, so the profile sums to [`Stats::steps`] and the
    /// sampler has taken exactly `⌊executed / stride⌋` samples either
    /// way. An error leaves no residue: the frames, pending `new`s and
    /// depth the run added are dropped.
    fn run_frames(&mut self, chunk: usize, locals: Vec<Value>) -> Result<Value, RtError> {
        // Suspended frames live on `self.frames` (so the collector can
        // walk them); this run owns the stack above `base`.
        let (base, news, depth) = (self.frames.len(), self.new_stack.len(), self.depth);
        let mut cur = ExecState {
            chunk,
            locals,
            stack: Vec::with_capacity(8),
            ..ExecState::default()
        };
        let mut budget = self.budget();
        let r = self.dispatch(&mut cur, base, &mut budget);
        self.credit(cur.chunk, &mut budget);
        if r.is_err() {
            self.frames.truncate(base);
            self.new_stack.truncate(news);
            self.depth = depth;
        }
        self.stats.sync_gc(&self.heap.gc_stats());
        r
    }

    /// The dispatch loop: a flat walk over the activation's instruction
    /// stream where every non-trivial opcode body is a small handler over
    /// the explicit [`ExecState`], and each handler's [`Flow`] result
    /// tells the loop how to continue. Each instruction costs one budget
    /// decrement and one zero test; the counters it feeds are credited
    /// when the activation changes and by the caller on exit.
    #[inline(always)]
    fn dispatch(
        &mut self,
        cur: &mut ExecState,
        base: usize,
        budget: &mut Budget,
    ) -> Result<Value, RtError> {
        let code = self.code;
        'frame: loop {
            let chunk = cur.chunk;
            let instrs: &[Instr] = &code.chunks[chunk].code;
            loop {
                if budget.left == 0 {
                    self.refill(chunk, budget)?;
                }
                budget.left -= 1;
                let flow = match &instrs[cur.pc] {
                    Instr::ConstInt(n) => {
                        cur.stack.push(Value::Int(*n));
                        Flow::Next
                    }
                    Instr::ConstBool(b) => {
                        cur.stack.push(Value::Bool(*b));
                        Flow::Next
                    }
                    Instr::ConstStr(id) => {
                        cur.stack
                            .push(Value::Str(code.strings[*id as usize].clone()));
                        Flow::Next
                    }
                    Instr::ConstUnit => {
                        cur.stack.push(Value::Unit);
                        Flow::Next
                    }
                    Instr::Load(slot) => {
                        cur.stack.push(cur.locals[*slot as usize].clone());
                        Flow::Next
                    }
                    Instr::Store(slot) => {
                        cur.locals[*slot as usize] = cur.stack.pop().expect("store underflow");
                        Flow::Next
                    }
                    Instr::Pop => {
                        cur.stack.pop();
                        Flow::Next
                    }
                    Instr::GetField { f, ic } => {
                        let v = cur.stack.pop().expect("getfield underflow");
                        self.op_get(cur, v, *f, *ic)?
                    }
                    Instr::SetField { local, var, f, ic } => {
                        self.op_set(cur, *local, *var, *f, *ic)?
                    }
                    Instr::Call { m, argc, ic } => {
                        let argc = *argc as usize;
                        let recv = cur.stack[cur.stack.len() - 1 - argc].clone();
                        self.op_call(cur, recv, *m, argc, *ic, true)?
                    }
                    Instr::NewResolve { ty } => {
                        let class = self.new_class(*ty, &cur.locals)?;
                        self.new_stack.push(class);
                        Flow::Next
                    }
                    Instr::NewAlloc { fields } => self.op_new_alloc(cur, fields)?,
                    Instr::View { ty } => self.op_view(cur, *ty)?,
                    Instr::Cast { ty } => self.op_cast(cur, *ty)?,
                    Instr::Bin(op) => {
                        let rv = cur.stack.pop().expect("bin underflow");
                        let lv = cur.stack.pop().expect("bin underflow");
                        cur.stack.push(rules::binop(*op, lv, rv)?);
                        Flow::Next
                    }
                    Instr::Un(op) => {
                        let v = cur.stack.pop().expect("un underflow");
                        cur.stack.push(rules::unop(*op, v)?);
                        Flow::Next
                    }
                    Instr::Jump(t) => {
                        cur.pc = *t as usize;
                        Flow::Jump
                    }
                    Instr::JumpIfFalse(t, kind) => {
                        let c = cur.stack.pop().expect("jump underflow");
                        if !kind.test(&c)? {
                            cur.pc = *t as usize;
                            Flow::Jump
                        } else {
                            Flow::Next
                        }
                    }
                    Instr::JumpIfTrue(t, kind) => {
                        let c = cur.stack.pop().expect("jump underflow");
                        if kind.test(&c)? {
                            cur.pc = *t as usize;
                            Flow::Jump
                        } else {
                            Flow::Next
                        }
                    }
                    Instr::Print => {
                        let v = cur.stack.pop().expect("print underflow");
                        self.output.push(rules::display_value(self.prog, &v));
                        cur.stack.push(Value::Unit);
                        Flow::Next
                    }
                    Instr::Trap(kind) => {
                        return Err(match kind {
                            TrapKind::UnboundVar(n) => {
                                RtError::UnboundVariable(self.prog.table.name_str(*n))
                            }
                        })
                    }
                    Instr::Ret => self.op_ret(cur, base),

                    // --- superinstructions (compile-time fusion) ---
                    Instr::LoadGetField { slot, f, ic } => {
                        let v = cur.locals[*slot as usize].clone();
                        self.op_get(cur, v, *f, *ic)?
                    }
                    Instr::LoadLoadBin { a, b, op } => {
                        let lv = cur.locals[*a as usize].clone();
                        let rv = cur.locals[*b as usize].clone();
                        cur.stack.push(rules::binop(*op, lv, rv)?);
                        Flow::Next
                    }
                    Instr::ConstIntBin { n, op } => {
                        let lv = cur.stack.pop().expect("bin underflow");
                        cur.stack.push(rules::binop(*op, lv, Value::Int(*n))?);
                        Flow::Next
                    }
                    Instr::ConstIntBinJif { n, op, t, kind } => {
                        let lv = cur.stack.pop().expect("bin underflow");
                        let c = rules::binop(*op, lv, Value::Int(*n))?;
                        if !kind.test(&c)? {
                            cur.pc = *t as usize;
                            Flow::Jump
                        } else {
                            Flow::Next
                        }
                    }
                    Instr::LoadCall { slot, m, ic } => {
                        let recv = cur.locals[*slot as usize].clone();
                        self.op_call(cur, recv, *m, 0, *ic, false)?
                    }
                };
                match flow {
                    Flow::Next => cur.pc += 1,
                    Flow::Jump => {}
                    Flow::Switch => {
                        self.credit(chunk, budget);
                        continue 'frame;
                    }
                    Flow::Done(v) => return Ok(v),
                }
            }
        }
    }

    // ------------------------------------------------------ opcode handlers

    /// Field read (`GetField` / `LoadGetField`): `v` is the receiver.
    fn op_get(&mut self, st: &mut ExecState, v: Value, f: Name, ic: u32) -> Result<Flow, RtError> {
        let r = rules::expect_ref(v)?;
        let path = self.probe(
            |vm| &mut vm.field_ics,
            ic,
            r.view,
            |vm| vm.resolve_field(r.view, f),
        );
        let out = self.get_field_resolved(&r, f, path)?;
        st.stack.push(out);
        Ok(Flow::Next)
    }

    /// Field write (`SetField`) through the view of the receiver local.
    fn op_set(
        &mut self,
        st: &mut ExecState,
        local: Option<u16>,
        var: Name,
        f: Name,
        ic: u32,
    ) -> Result<Flow, RtError> {
        let v = st.stack.pop().expect("setfield underflow");
        let slot = local.map(usize::from);
        let r = match slot.and_then(|s| st.locals.get(s)) {
            Some(&Value::Ref(r)) => r,
            _ => return Err(RtError::UnboundVariable(self.prog.table.name_str(var))),
        };
        let res = self.probe(
            |vm| &mut vm.set_ics,
            ic,
            r.view,
            |vm| vm.resolve_set(r.view, f),
        );
        self.heap.set(r.loc, res.copy, res.slot, f, v.clone());
        // grant(σ, x.f): the stack binding loses the mask.
        if let Some(Value::Ref(x)) = slot.and_then(|s| st.locals.get_mut(s)) {
            let (masks, fresh) = self.masks.grant(r.masks, f);
            x.masks = masks;
            self.stats.mask_allocs += u64::from(fresh);
        }
        st.stack.push(v);
        Ok(Flow::Next)
    }

    /// Call (`Call` / `LoadCall`): `recv` is the receiver, which sits
    /// under `argc` arguments on the operand stack when `recv_on_stack`
    /// (`Call`) and in a frame slot otherwise (`LoadCall`, zero-argument).
    fn op_call(
        &mut self,
        st: &mut ExecState,
        recv: Value,
        m: Name,
        argc: usize,
        ic: u32,
        recv_on_stack: bool,
    ) -> Result<Flow, RtError> {
        let r = rules::expect_ref(recv)?;
        self.stats.calls += 1;
        rules::enter(&mut self.depth, self.max_depth)?;
        let Some(chunk) = self.probe(
            |vm| &mut vm.call_ics,
            ic,
            r.view,
            |vm| vm.resolve_method(r.view, m),
        ) else {
            return Err(rules::no_method(self.prog, r.view, m));
        };
        rules::check_arity(self.code.chunks[chunk].n_params as usize, argc)?;
        Ok(self.enter_chunk(st, chunk, argc, recv_on_stack, r))
    }

    /// Switches into a resolved callee: drains the arguments into a
    /// pooled activation (top of stack = last argument), optionally pops
    /// the receiver slot beneath them, and parks the caller.
    fn enter_chunk(
        &mut self,
        st: &mut ExecState,
        chunk: usize,
        argc: usize,
        recv_on_stack: bool,
        r: RefVal,
    ) -> Flow {
        let mut callee = self.pool.pop().unwrap_or_default();
        callee.start(chunk, self.code.chunks[chunk].n_locals as usize, r, None);
        for i in (1..=argc).rev() {
            callee.locals[i] = st.stack.pop().expect("call underflow");
        }
        if recv_on_stack {
            st.stack.pop();
        }
        st.pc += 1; // return address
        self.frames.push(std::mem::replace(st, callee));
        Flow::Switch
    }

    /// `NewAlloc`: R-ALLOC (Fig. 17) for the class its `NewResolve`
    /// pushed, with the record values for `fields` on top of `st`'s
    /// operand stack (GC roots like every operand) from the collection
    /// point to the end. Without declared initialisers the allocation
    /// finishes here. Otherwise `this` goes on top of the values, `st`
    /// is parked at this instruction, and the first initialiser runs as an
    /// ordinary pooled activation ([`Vm::init_returned`] takes it from
    /// there); the whole initialiser sequence costs one unit of depth.
    fn op_new_alloc(&mut self, st: &mut ExecState, fields: &[Name]) -> Result<Flow, RtError> {
        let class = self.new_stack.pop().expect("unbalanced NewAlloc");
        self.stats.allocs += 1;
        if !matches!(self.plans.get(class.0 as usize), Some(Some(_))) {
            self.build_plan(class);
        }
        // GC point: the only place the VM grows the heap. The object does
        // not exist yet.
        self.maybe_gc(st);
        let plan = self.plan(class);
        let (n_slots, masks, first) = (plan.n_slots, plan.this_masks, plan.inits.first().copied());
        let this = RefVal {
            loc: self.heap.alloc(n_slots),
            view: class,
            masks,
        };
        let Some(first) = first else {
            self.finish_alloc(st, this, fields);
            return Ok(Flow::Next);
        };
        rules::enter(&mut self.depth, self.max_depth)?;
        st.stack.push(Value::Ref(this));
        let n_locals = self.code.chunks[first.chunk].n_locals as usize;
        let mut init = self.pool.pop().unwrap_or_default();
        init.start(first.chunk, n_locals, this, Some(0));
        self.frames.push(std::mem::replace(st, init));
        Ok(Flow::Switch)
    }

    /// `Ret` from the activation `st` computing initialiser `i`, with
    /// value `v`: stores `v` in the object whose `this` tops the operand
    /// stack of the allocating frame parked beneath. Then `st` restarts
    /// at the next initialiser or, after the last, the allocation's depth
    /// unit is released, `st` is recycled, and the allocating frame
    /// resumes past its `NewAlloc` with the finished allocation.
    fn init_returned(&mut self, st: &mut ExecState, i: u32, v: Value) -> Flow {
        let code = self.code;
        let alloc = self.frames.last().expect("allocating frame");
        let Some(&Value::Ref(this)) = alloc.stack.last() else {
            unreachable!("`this` tops the allocating frame's operand stack");
        };
        let inits = &self.plan(this.view).inits;
        let (InitStep { f, at, .. }, next) =
            (inits[i as usize], inits.get(i as usize + 1).copied());
        self.heap.set(this.loc, at.copy, at.slot, f, v);
        if let Some(next) = next {
            let n_locals = code.chunks[next.chunk].n_locals as usize;
            st.start(next.chunk, n_locals, this, Some(i + 1));
            return Flow::Switch;
        }
        self.depth -= 1;
        let mut alloc = self.frames.pop().expect("allocating frame");
        alloc.stack.pop();
        let Instr::NewAlloc { fields } = &code.chunks[alloc.chunk].code[alloc.pc] else {
            unreachable!("an allocating frame is parked at its `NewAlloc`");
        };
        self.finish_alloc(&mut alloc, this, fields);
        alloc.pc += 1;
        let done = std::mem::replace(st, alloc);
        self.recycle(done);
        Flow::Switch
    }

    /// The end of R-ALLOC on the allocating frame `st`: stores the record
    /// values for `fields` (on top of its operand stack) in `this`'s
    /// object and replaces them with the fresh reference. It keeps the
    /// masks of the fields that neither an initialiser nor the record
    /// covered; a fully initialised object ends with ∅, id 0 in every
    /// table and interned without a lookup.
    fn finish_alloc(&mut self, st: &mut ExecState, this: RefVal, fields: &[Name]) {
        let below = st.stack.len() - fields.len();
        for (&f, v) in fields.iter().zip(st.stack.drain(below..)) {
            let at = match self.plan(this.view).writes.iter().find(|(g, _)| *g == f) {
                Some(&(_, at)) => at,
                None => self.resolve_set(this.view, f),
            };
            self.heap.set(this.loc, at.copy, at.slot, f, v);
        }
        let uncovered = &self.plan(this.view).uncovered;
        let masks = if uncovered.iter().all(|u| fields.contains(u)) {
            BTreeSet::new()
        } else {
            uncovered
                .iter()
                .filter(|u| !fields.contains(u))
                .copied()
                .collect()
        };
        let masks = self.intern_masks(masks);
        st.stack.push(Value::Ref(RefVal { masks, ..this }));
    }

    /// `(view T)e`.
    fn op_view(&mut self, st: &mut ExecState, ty: u32) -> Result<Flow, RtError> {
        let v = st.stack.pop().expect("view underflow");
        let r = rules::expect_ref(v)?;
        self.stats.views_explicit += 1;
        // The interned mask set already includes the masks declared on
        // the source type.
        let (tid, masks) = self.eval_type_interned(ty, &st.locals)?;
        let out = self.apply_view(r, tid, masks)?;
        st.stack.push(Value::Ref(out));
        Ok(Flow::Next)
    }

    /// `(cast T)e`.
    fn op_cast(&mut self, st: &mut ExecState, ty: u32) -> Result<Flow, RtError> {
        let v = st.stack.pop().expect("cast underflow");
        match v {
            Value::Ref(r) => {
                let (tid, _masks) = self.eval_type_interned(ty, &st.locals)?;
                if !self.view_subtype(r.view, tid) {
                    let target = &self.ty_pool[tid as usize];
                    return Err(rules::cast_failed(self.prog, r.view, target));
                }
                st.stack.push(Value::Ref(r));
            }
            prim => st.stack.push(prim), // primitive casts are no-ops
        }
        Ok(Flow::Next)
    }

    /// `Ret`: hands an initialiser's value to its allocation, returns to
    /// the caller (recycling the finished activation) or finishes the
    /// run.
    fn op_ret(&mut self, st: &mut ExecState, base: usize) -> Flow {
        let v = st.stack.pop().unwrap_or(Value::Unit);
        if let Some(i) = st.init {
            return self.init_returned(st, i, v);
        }
        if self.frames.len() == base {
            return Flow::Done(v);
        }
        self.depth -= 1;
        let caller = self.frames.pop().expect("frame under base");
        let done = std::mem::replace(st, caller);
        st.stack.push(v);
        self.recycle(done);
        Flow::Switch
    }

    /// Pools a finished activation, cleared first: recycled activations
    /// hold no values, so the pool is never a GC root and never goes
    /// stale across a compaction.
    #[inline(always)]
    fn recycle(&mut self, mut done: ExecState) {
        done.locals.clear();
        done.stack.clear();
        self.pool.push(done);
    }

    // -------------------------------------------------------------- fields

    /// The write path of `f` in view `view` (uncached: the set-site
    /// caches sit in front of it).
    fn resolve_set(&mut self, view: ClassId, f: Name) -> SetRes {
        let layout = self.layout_of(view);
        let copy = self.prog.sharing.fclass(view, f);
        SetRes {
            copy,
            slot: layout.slots.get(&(copy, f)).copied(),
        }
    }

    /// Reads `r.f` through `r`'s view (public for the type evaluator and
    /// direct API users); uses only the global caches.
    pub fn get_field(&mut self, r: &RefVal, f: Name) -> Result<Value, RtError> {
        let path = self.resolve_field(r.view, f);
        self.get_field_resolved(r, f, path)
    }

    /// Reads `r.f` along read path `path` (an index into
    /// [`Vm::field_paths`]).
    fn get_field_resolved(&mut self, r: &RefVal, f: Name, path: u32) -> Result<Value, RtError> {
        let res = &self.field_paths[path as usize];
        let stored = {
            let Some(obj) = self.heap.obj(r.loc) else {
                return Err(rules::uninitialised(self.prog, r, f));
            };
            let mut stored = obj.read(res.copy, res.slot, f);
            if stored.is_none() {
                // §3.3 forwarding: read the other family's copy.
                for (alt, slot) in res.alts.iter() {
                    stored = obj.read(*alt, *slot, f);
                    if stored.is_some() {
                        break;
                    }
                }
            }
            match stored {
                Some(v) => v,
                None => return Err(rules::uninitialised(self.prog, r, f)),
            }
        };
        match stored {
            Value::Ref(inner) => {
                // Lazy implicit view change at the interpreted field type.
                let (tid, masks) = match &res.ft {
                    Ok(ft) => *ft,
                    Err(m) => return Err(RtError::BadType(m.clone())),
                };
                self.stats.views_implicit += 1;
                self.apply_view(inner, tid, masks).map(Value::Ref)
            }
            prim => Ok(prim),
        }
    }

    /// The read path of `f` in view `view`, resolved once per (view,
    /// field) and stored in [`Vm::field_paths`]; returns its index.
    fn resolve_field(&mut self, view: ClassId, f: Name) -> u32 {
        if let Some(&path) = self.field_res.get(&(view, f)) {
            return path;
        }
        let layout = self.layout_of(view);
        let copy = self.prog.sharing.fclass(view, f);
        let slot = layout.slots.get(&(copy, f)).copied();
        let alts: Box<[(ClassId, Option<u32>)]> = self
            .prog
            .sharing
            .forwards(view, f)
            .iter()
            .map(|&alt| (alt, layout.slots.get(&(alt, f)).copied()))
            .collect();
        let ft = rules::field_view_type(self.prog, view, f)
            .map(|(ty, masks)| (self.intern_ty(ty), self.intern_masks(masks)));
        let path = self.field_paths.len() as u32;
        self.field_paths.push(FieldRes {
            copy,
            slot,
            alts,
            ft,
        });
        self.field_res.insert((view, f), path);
        path
    }

    // -------------------------------------------------------------- layout

    /// The union layout of `class`'s sharing group (built once per group).
    fn layout_of(&mut self, class: ClassId) -> Arc<Layout> {
        if let Some(l) = self.layouts.get(&class) {
            return l.clone();
        }
        let partners = self.prog.sharing.partners(class);
        let mut slots: HashMap<(ClassId, Name), u32> = HashMap::new();
        let mut n = 0u32;
        for &v in &partners {
            for &f in self.prog.table.field_names(v).iter() {
                let copy = self.prog.sharing.fclass(v, f);
                slots.entry((copy, f)).or_insert_with(|| {
                    n += 1;
                    n - 1
                });
            }
        }
        let layout = Arc::new(Layout { slots, n_slots: n });
        for &v in &partners {
            self.layouts.insert(v, layout.clone());
        }
        self.layouts.insert(class, layout.clone());
        layout
    }

    // -------------------------------------------------------------- alloc

    /// `class`'s allocation plan (built by its first allocation).
    fn plan(&self, class: ClassId) -> &AllocPlan {
        self.plans[class.0 as usize]
            .as_ref()
            .expect("plan built on first allocation")
    }

    /// Resolves `class`'s [`AllocPlan`]: the one place the VM reads a
    /// class's field declarations. Interns the `this` mask set, which a
    /// `new` then only copies.
    fn build_plan(&mut self, class: ClassId) {
        let layout = self.layout_of(class);
        let (prog, code) = (self.prog, self.code);
        let at = |f: Name| {
            let copy = prog.sharing.fclass(class, f);
            SetRes {
                copy,
                slot: layout.slots.get(&(copy, f)).copied(),
            }
        };
        let fields = prog.table.fields_of(class);
        let inits: Box<[InitStep]> = prog
            .initialisers(&fields)
            .into_iter()
            .map(|(key, _)| InitStep {
                chunk: code.field_inits[&key],
                f: key.1,
                at: at(key.1),
            })
            .collect();
        let names: BTreeSet<Name> = fields.iter().map(|(_, fi)| fi.name).collect();
        let writes = names.iter().map(|&f| (f, at(f))).collect();
        let uncovered = names
            .iter()
            .copied()
            .filter(|&f| inits.iter().all(|i| i.f != f))
            .collect();
        let plan = AllocPlan {
            n_slots: layout.n_slots,
            this_masks: self.intern_masks(names),
            inits,
            writes,
            uncovered,
        };
        let i = class.0 as usize;
        if self.plans.len() <= i {
            self.plans.resize_with(i + 1, || None);
        }
        self.plans[i] = Some(plan);
    }

    // -------------------------------------------------------------- calls

    /// Public view-based dispatch entry (mirrors `Machine::call`): runs
    /// the method in the same dispatch loop as [`Vm::run`].
    pub fn call(&mut self, r: RefVal, m: Name, args: Vec<Value>) -> Result<Value, RtError> {
        self.stats.calls += 1;
        rules::enter(&mut self.depth, self.max_depth)?;
        let out = match self.resolve_method(r.view, m) {
            None => Err(rules::no_method(self.prog, r.view, m)),
            Some(chunk) => {
                let info = &self.code.chunks[chunk];
                rules::check_arity(info.n_params as usize, args.len()).and_then(|()| {
                    let mut locals = vec![Value::Unit; info.n_locals as usize];
                    locals[0] = Value::Ref(r);
                    for (i, v) in args.into_iter().enumerate() {
                        locals[1 + i] = v;
                    }
                    self.run_frames(chunk, locals)
                })
            }
        };
        self.depth -= 1;
        out
    }

    /// `mbody(S, m)` ([`CheckedProgram::mbody`]) as a chunk index,
    /// memoised per (view, m).
    fn resolve_method(&mut self, view: ClassId, m: Name) -> Option<usize> {
        if let Some(&r) = self.dispatch.get(&(view, m)) {
            return r;
        }
        let found = self
            .prog
            .mbody(view, m)
            .and_then(|(owner, _)| self.code.methods.get(&(owner, m)).copied());
        self.dispatch.insert((view, m), found);
        found
    }

    // -------------------------------------------------------------- views

    fn intern_ty(&mut self, t: Ty) -> u32 {
        if let Some(&id) = self.ty_ids.get(&t) {
            return id;
        }
        let id = self.ty_pool.len() as u32;
        self.ty_pool.push(t.clone());
        self.ty_ids.insert(t, id);
        id
    }

    /// Interns a mask set in the VM's table, counting a first-time set in
    /// `Stats::mask_allocs`.
    fn intern_masks(&mut self, masks: BTreeSet<Name>) -> MaskId {
        let (id, fresh) = self.masks.intern(masks);
        self.stats.mask_allocs += u64::from(fresh);
        id
    }

    /// Whether `view! ≤ target` (memoised on the interned target).
    fn view_subtype(&mut self, view: ClassId, tid: u32) -> bool {
        if let Some(&b) = self.sub_memo.get(&(view, tid)) {
            return b;
        }
        let b = rules::view_subtype(self.prog, view, &self.ty_pool[tid as usize]);
        self.sub_memo.insert((view, tid), b);
        b
    }

    /// The unique sharing partner of `view` under `target`
    /// ([`rules::unique_partner`], memoised).
    fn partner_for(&mut self, view: ClassId, tid: u32) -> Result<ClassId, ViewMiss> {
        if let Some(r) = self.partner_memo.get(&(view, tid)) {
            return *r;
        }
        let partners = self.prog.sharing.partners(view);
        let r = rules::unique_partner(partners, view, |p| self.view_subtype(p, tid));
        self.partner_memo.insert((view, tid), r);
        r
    }

    /// Public view change (mirrors `Machine::apply_view`): re-views `r`
    /// at `target` with the given mask set.
    pub fn view_as(
        &mut self,
        r: RefVal,
        target: &Ty,
        masks: BTreeSet<Name>,
    ) -> Result<RefVal, RtError> {
        let tid = self.intern_ty(target.clone());
        let masks = self.intern_masks(masks);
        self.apply_view(r, tid, masks)
    }

    /// The `view` function (§4.15), memoised: re-views `r` at the interned
    /// target type with an interned mask set.
    fn apply_view(&mut self, r: RefVal, tid: u32, masks: MaskId) -> Result<RefVal, RtError> {
        // Case 1: current view already compatible.
        if self.view_subtype(r.view, tid) && self.masks.is_subset(r.masks, masks) {
            return Ok(RefVal { masks, ..r });
        }
        // Case 2: the unique shared partner below the target.
        match self.partner_for(r.view, tid) {
            Ok(p) => Ok(RefVal {
                loc: r.loc,
                view: p,
                masks,
            }),
            Err(miss) => Err(miss.error(self.prog, r.view, &self.ty_pool[tid as usize])),
        }
    }

    // ---------------------------------------------------------- type eval

    /// Evaluates a type-table entry to an interned runtime type plus the
    /// *full* interned mask set: masks contributed by dependent classes
    /// unioned with the masks declared on the source type. Non-dependent
    /// entries are interned once per entry, so the hot path of a view
    /// transition copies two ids.
    fn eval_type_interned(
        &mut self,
        tidx: u32,
        locals: &[Value],
    ) -> Result<(u32, MaskId), RtError> {
        if let Some(pre) = self.pre_view[tidx as usize] {
            return Ok(pre);
        }
        let entry = &self.code.types[tidx as usize];
        let (ty, mut masks) = match &entry.pre {
            Some((ty, dep_masks)) => (ty.clone(), dep_masks.clone()),
            None => self.eval_type_rt(tidx, locals)?,
        };
        masks.extend(entry.masks.iter().copied());
        let out = (self.intern_ty(ty), self.intern_masks(masks));
        if entry.pre.is_some() {
            self.pre_view[tidx as usize] = Some(out);
        }
        Ok(out)
    }

    /// Runtime type evaluation: delegates to the shared Fig. 16 algorithm
    /// in `jns-eval` (one source of truth for both backends), resolving
    /// dependent path roots through this frame's slot snapshot.
    fn eval_type_rt(
        &mut self,
        tidx: u32,
        locals: &[Value],
    ) -> Result<(Ty, BTreeSet<Name>), RtError> {
        let entry = &self.code.types[tidx as usize];
        let mut env: HashMap<Name, Value> = HashMap::new();
        for (n, slot) in &entry.bindings {
            if let Some(s) = slot {
                env.insert(*n, locals[*s as usize].clone());
            }
        }
        let ty = entry.ty.clone();
        jns_eval::typeeval::eval_type_in(self, &|n| env.get(&n).cloned(), &ty)
    }

    /// Resolves the class a `new` type denotes (pre-resolved at compile
    /// time for non-dependent types).
    fn new_class(&mut self, tidx: u32, locals: &[Value]) -> Result<ClassId, RtError> {
        if let Some(c) = self.code.types[tidx as usize].new_class {
            return Ok(c);
        }
        let entry = &self.code.types[tidx as usize];
        let mut env: HashMap<Name, Value> = HashMap::new();
        for (n, slot) in &entry.bindings {
            if let Some(s) = slot {
                env.insert(*n, locals[*s as usize].clone());
            }
        }
        let ty = entry.ty.clone();
        jns_eval::typeeval::eval_type_class_in(self, &|n| env.get(&n).cloned(), &ty)
    }
}

impl jns_eval::typeeval::TypeEvalCtx for Vm<'_> {
    fn read_field(&mut self, r: &RefVal, f: Name) -> Result<Value, RtError> {
        self.get_field(r, f)
    }

    fn checked_program(&self) -> &CheckedProgram {
        self.prog
    }

    fn mask_table(&self) -> &MaskTable {
        &self.masks
    }
}
