//! The virtual machine: executes [`VmProgram`] bytecode with the paper's
//! §6 runtime machinery baked in.
//!
//! Three mechanisms replace the tree-walker's per-step resolution:
//!
//! 1. **Union field layouts** (§6.2 "representative instance classes").
//!    Objects are slot vectors, not `⟨ℓ, fclass(view,f), f⟩` map entries.
//!    The layout of an object is the union of the field copies of its
//!    whole *sharing group*, so every partner view reads and writes fixed
//!    slot indices; `fclass` is folded into the slot resolution, done once
//!    per (view, field) instead of once per access.
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
//!    drives lazy implicit view changes. Re-viewing the same reference
//!    shape twice costs two hash lookups.
//!
//! Observable behaviour (printed output, final value, error variants and
//! messages) matches the tree-walking interpreter; the differential suite
//! (`tests/vm_differential.rs` at the workspace root) and the generated-
//! program soundness proptests (`tests/soundness.rs`, which run every
//! generated program on both backends) enforce this. The one intentional
//! difference is *step accounting*: [`Stats::steps`] counts VM
//! instructions rather than AST nodes, so fuel limits are measured in
//! instructions (both backends still interrupt runaway programs with
//! [`RtError::OutOfFuel`]).

use crate::bytecode::{Instr, TrapKind, VmProgram};
use jns_eval::value::MaskSet;
use jns_eval::{Heap, Loc, RefVal, RtError, RunConfig, Stats, Value, DEFAULT_MAX_DEPTH};
use jns_syntax::{BinOp, UnOp};
use jns_types::{CheckedProgram, ClassId, Judge, Name, Ty, TypeEnv};
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
    /// message). The shared `Arc` makes every implicit view change on
    /// this path clone a pointer, not a `BTreeSet`.
    ft: Result<(u32, MaskSet), String>,
}

/// Resolved write path for a (view, field) pair.
#[derive(Debug, Clone, Copy)]
struct SetRes {
    copy: ClassId,
    slot: Option<u32>,
}

/// Why a memoised partner search failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PartnerErr {
    NoneFound,
    Ambiguous,
}

/// The explicit execution state of one activation — the chunk, program
/// counter, frame slots, and operand stack every opcode handler operates
/// on. The running activation is a local in [`Vm::run_frames`]; suspended
/// callers (and frames parked around allocations) live on [`Vm::frames`]
/// where the collector can enumerate them. Finished activations are
/// recycled through [`Vm::pool`], so a call in a hot loop reuses the same
/// two vectors instead of allocating.
#[derive(Debug, Default)]
struct ExecState {
    chunk: usize,
    pc: usize,
    locals: Vec<Value>,
    stack: Vec<Value>,
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
/// so identical runs produce identical profiles, and cheap — between
/// samples the cost is one counter decrement per instruction; taking a
/// sample is O(stack depth).
#[derive(Debug)]
struct Sampler {
    /// Instructions between samples (≥ 1).
    stride: u64,
    /// Instructions until the next sample.
    countdown: u64,
    /// Samples keyed by the frame-stack chunk-id path, outermost first.
    stacks: HashMap<Vec<u32>, u64>,
    /// Total samples taken (sum of all stack counts).
    taken: u64,
}

/// An allocation in flight: R-ALLOC suspended while its field-initialiser
/// chunks run. Kept on the VM (not the host stack) so the collector can
/// enumerate — and forward — the nascent object's `this` and the record
/// values awaiting storage.
#[derive(Debug)]
struct AllocScope {
    /// `this` during initialisation (`None` until the object is carved
    /// out — the pre-allocation GC must not see a dangling ℓ).
    this_ref: Option<RefVal>,
    /// Provided record values, written after the declared initialisers.
    provided: Vec<(Name, Value)>,
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
    /// The explicit call stack. Lives on the VM (the executing frame is
    /// parked here around allocations) so a collection can enumerate and
    /// forward every local and operand as a root.
    frames: Vec<ExecState>,
    /// Allocations in flight (GC roots; see [`AllocScope`]).
    alloc_stack: Vec<AllocScope>,
    /// Recycled activations (cleared of values, so never GC roots): calls
    /// pop from here instead of allocating fresh local/stack vectors.
    pool: Vec<ExecState>,

    // --- caches (all monotone; never invalidated by `reset_for_request`,
    // so a reused worker VM stays warm across requests) ---
    /// Per-site field-read caches, keyed by view.
    field_ics: Vec<Vec<(ClassId, Arc<FieldRes>)>>,
    /// Per-site field-write caches, keyed by view.
    set_ics: Vec<Vec<(ClassId, SetRes)>>,
    /// Per-site call caches, keyed by view.
    call_ics: Vec<Vec<(ClassId, Option<usize>)>>,
    /// Global (view, field) read resolutions backing the site caches.
    field_res: HashMap<(ClassId, Name), Arc<FieldRes>>,
    /// Global (view, method) dispatch results backing the site caches.
    dispatch: HashMap<(ClassId, Name), Option<usize>>,
    /// Union layouts per class (shared per sharing group).
    layouts: HashMap<ClassId, Arc<Layout>>,
    /// Interned runtime types (targets of views/casts/implicit re-views).
    ty_pool: Vec<Ty>,
    ty_ids: HashMap<Ty, u32>,
    /// Memoised `view! ≤ target` checks.
    sub_memo: HashMap<(ClassId, u32), bool>,
    /// Memoised unique-partner-under-target searches.
    partner_memo: HashMap<(ClassId, u32), Result<ClassId, PartnerErr>>,
    /// Per type-table entry: interned pre-evaluated (target, full mask
    /// set — dependent ∪ declared).
    pre_view: Vec<Option<(u32, MaskSet)>>,
    /// Runtime mask-set interning pool, seeded on demand: distinct sets
    /// are materialised once (`Stats::mask_allocs`) and shared after.
    mask_pool: crate::maskpool::MaskPool,
    /// Executed-instruction counter per chunk (profiling hook; survives
    /// `reset_for_request` so a worker accumulates a profile).
    chunk_steps: Vec<u64>,
    /// Per-site `[hits, misses]` for field-read caches (indexed like
    /// `field_ics`; survives `reset_for_request` like the caches do).
    field_ic_hm: Vec<[u64; 2]>,
    /// Per-site `[hits, misses]` for field-write caches.
    set_ic_hm: Vec<[u64; 2]>,
    /// Per-site `[hits, misses]` for call caches.
    call_ic_hm: Vec<[u64; 2]>,
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
            alloc_stack: Vec::new(),
            pool: Vec::new(),
            field_ics: (0..code.n_field_ics).map(|_| Vec::new()).collect(),
            set_ics: (0..code.n_set_ics).map(|_| Vec::new()).collect(),
            call_ics: (0..code.n_call_ics).map(|_| Vec::new()).collect(),
            field_res: HashMap::new(),
            dispatch: HashMap::new(),
            layouts: HashMap::new(),
            ty_pool: Vec::new(),
            ty_ids: HashMap::new(),
            sub_memo: HashMap::new(),
            partner_memo: HashMap::new(),
            pre_view: vec![None; code.types.len()],
            mask_pool: Default::default(),
            chunk_steps: vec![0; code.chunks.len()],
            field_ic_hm: vec![[0; 2]; code.n_field_ics as usize],
            set_ic_hm: vec![[0; 2]; code.n_set_ics as usize],
            call_ic_hm: vec![[0; 2]; code.n_call_ics as usize],
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

    /// Sets the recursion-depth limit (method activations plus nested
    /// field-initialiser chunks) — the same units, default, and
    /// [`RtError::DepthExceeded`] error as the tree-walking interpreter,
    /// so both backends fail identically at identical depths.
    pub fn with_max_depth(mut self, max_depth: u32) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Applies the run limits in `cfg` (fuel counts VM instructions). The
    /// collector's roots are the VM's frame stack (locals and operands)
    /// and in-flight allocations. Every limit survives
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

    /// Re-points the live-heap threshold on a warm VM (`None` disables
    /// collection). The serving layer's per-worker auto-sizer calls this
    /// between requests; the heap keeps its other configuration.
    pub fn set_heap_limit(&mut self, limit: Option<usize>) {
        self.heap.set_limit(limit);
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
    /// layouts, memoised view changes, interned types and mask sets, the
    /// per-chunk profile).
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
        self.alloc_stack.clear();
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

    /// Runs a collection if the heap has reached its threshold. Roots:
    /// every saved frame's locals and operand stack (the executing frame
    /// is parked on [`Vm::frames`] around allocations) plus the `this`
    /// references and pending record values of allocations in flight.
    fn maybe_gc(&mut self) {
        let Some(kind) = self.heap.pending_collection() else {
            return;
        };
        // Pause timing feeds the trace event only, so the clock is read
        // just when a buffer is attached.
        let start = self.trace.as_ref().map(|_| std::time::Instant::now());
        let Vm {
            heap,
            frames,
            alloc_stack,
            ..
        } = self;
        let reclaimed = heap.collect_kind(kind, |visit| {
            for fr in frames.iter_mut() {
                for v in fr.locals.iter_mut().chain(fr.stack.iter_mut()) {
                    if let Value::Ref(r) = v {
                        visit(r);
                    }
                }
            }
            for sc in alloc_stack.iter_mut() {
                if let Some(r) = sc.this_ref.as_mut() {
                    visit(r);
                }
                for (_, v) in sc.provided.iter_mut() {
                    if let Value::Ref(r) = v {
                        visit(r);
                    }
                }
            }
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

    /// Records one inline-cache miss resolution, when tracing.
    fn trace_ic_miss(&mut self, kind: jns_obs::IcKind, site: u32, view: ClassId) {
        if let Some(t) = self.trace.as_mut() {
            t.push(jns_obs::TraceEvent::IcMiss {
                kind,
                site,
                view: view.0,
            });
        }
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
        let mut out = Vec::with_capacity(get_at.len() + set_at.len() + call_at.len());
        for (i, at) in get_at.iter().enumerate() {
            out.push(jns_obs::IcSiteProfile {
                kind: "get",
                site: i as u32,
                name: name_of(at, "get"),
                hits: self.field_ic_hm[i][0],
                misses: self.field_ic_hm[i][1],
                entries: self.field_ics[i].len() as u32,
            });
        }
        for (i, at) in set_at.iter().enumerate() {
            out.push(jns_obs::IcSiteProfile {
                kind: "set",
                site: i as u32,
                name: name_of(at, "set"),
                hits: self.set_ic_hm[i][0],
                misses: self.set_ic_hm[i][1],
                entries: self.set_ics[i].len() as u32,
            });
        }
        for (i, at) in call_at.iter().enumerate() {
            out.push(jns_obs::IcSiteProfile {
                kind: "call",
                site: i as u32,
                name: name_of(at, "call"),
                hits: self.call_ic_hm[i][0],
                misses: self.call_ic_hm[i][1],
                entries: self.call_ics[i].len() as u32,
            });
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
        let r = self.run_chunk(main, locals);
        self.stats.sync_gc(&self.heap.gc_stats());
        r
    }

    /// Formats a value the way `print` shows it (same as the interpreter).
    pub fn display_value(&self, v: &Value) -> String {
        match v {
            Value::Ref(r) => format!("{}@{}", self.prog.table.class_name(r.view), r.loc),
            other => other.to_string(),
        }
    }

    /// Number of live heap objects (for tests).
    pub fn heap_size(&self) -> usize {
        self.heap.len()
    }

    /// The sampler's per-instruction hook: decrements the countdown and,
    /// every `stride` instructions, snapshots the frame stack. The key is
    /// every suspended frame's chunk (outermost first — frames parked
    /// during allocations are on [`Vm::frames`] too, so initialiser-chunk
    /// stacks are complete) plus the executing chunk.
    fn sample_tick(&mut self, cur_chunk: usize) {
        let Vm {
            sampler, frames, ..
        } = self;
        let Some(s) = sampler.as_mut() else { return };
        s.countdown -= 1;
        if s.countdown > 0 {
            return;
        }
        s.countdown = s.stride;
        let mut key: Vec<u32> = Vec::with_capacity(frames.len() + 1);
        key.extend(frames.iter().map(|f| f.chunk as u32));
        key.push(cur_chunk as u32);
        *s.stacks.entry(key).or_insert(0) += 1;
        s.taken += 1;
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

    // ----------------------------------------------------------- execution

    /// Runs one chunk to completion with an explicit frame stack: method
    /// calls push VM frames instead of recursing natively, so deep J&s
    /// recursion is bounded by the configurable depth limit, not the Rust
    /// stack. (Native recursion remains only for field-initialiser chunks
    /// during allocation, and each nested initialiser run counts one
    /// recursion unit against the same limit, so it is bounded too.)
    fn run_chunk(&mut self, chunk: usize, locals: Vec<Value>) -> Result<Value, RtError> {
        let base_depth = self.depth;
        let new_mark = self.new_stack.len();
        let frame_mark = self.frames.len();
        let alloc_mark = self.alloc_stack.len();
        let r = self.run_frames(chunk, locals);
        if r.is_err() {
            self.depth = base_depth;
            self.new_stack.truncate(new_mark);
            self.frames.truncate(frame_mark);
            self.alloc_stack.truncate(alloc_mark);
        }
        r
    }

    /// The dispatch loop: a flat walk over the activation's instruction
    /// stream where every non-trivial opcode body is a small handler over
    /// the explicit [`ExecState`], and each handler's [`Flow`] result
    /// tells the loop how to continue. Semantics are bit-for-bit those of
    /// the pre-engine loop: same errors, same statistics, same step
    /// accounting, and the sampler still fires after each *successful*
    /// tick.
    fn run_frames(&mut self, chunk: usize, locals: Vec<Value>) -> Result<Value, RtError> {
        let code = self.code;
        // Suspended frames live on `self.frames` (so the collector can
        // walk them); this invocation owns the stack above `base`.
        let base = self.frames.len();
        let mut cur = ExecState {
            chunk,
            pc: 0,
            locals,
            stack: Vec::with_capacity(8),
        };
        'frame: loop {
            let instrs: &[Instr] = &code.chunks[cur.chunk].code;
            loop {
                // Attribute the step before the fuel check so the profile
                // sums to `Stats::steps` even on the OutOfFuel path.
                self.chunk_steps[cur.chunk] += 1;
                self.tick()?;
                // After a *successful* tick, so taken samples count only
                // executed instructions: exactly ⌊executed / stride⌋.
                if self.sampler.is_some() {
                    self.sample_tick(cur.chunk);
                }
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
                        self.op_get(&mut cur, v, *f, *ic)?
                    }
                    Instr::SetField { local, var, f, ic } => {
                        self.op_set(&mut cur, *local, *var, *f, *ic)?
                    }
                    Instr::Call { m, argc, ic } => {
                        let argc = *argc as usize;
                        let recv = cur.stack[cur.stack.len() - 1 - argc].clone();
                        self.op_call(&mut cur, recv, *m, argc, *ic, true)?
                    }
                    Instr::NewResolve { ty } => {
                        let class = self.new_class(*ty, &cur.locals)?;
                        self.new_stack.push(class);
                        Flow::Next
                    }
                    Instr::NewAlloc { fields } => self.op_new_alloc(&mut cur, fields)?,
                    Instr::View { ty } => self.op_view(&mut cur, *ty)?,
                    Instr::Cast { ty } => self.op_cast(&mut cur, *ty)?,
                    Instr::Bin(op) => {
                        let rv = cur.stack.pop().expect("bin underflow");
                        let lv = cur.stack.pop().expect("bin underflow");
                        let out = self.binop(*op, lv, rv)?;
                        cur.stack.push(out);
                        Flow::Next
                    }
                    Instr::Un(op) => {
                        let v = cur.stack.pop().expect("un underflow");
                        let out = match (op, v) {
                            (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                            (UnOp::Neg, Value::Int(n)) => Value::Int(n.wrapping_neg()),
                            _ => return Err(type_err("bad unary operand")),
                        };
                        cur.stack.push(out);
                        Flow::Next
                    }
                    Instr::Jump(t) => {
                        cur.pc = *t as usize;
                        Flow::Jump
                    }
                    Instr::JumpIfFalse(t, kind) => {
                        let c = cur.stack.pop().expect("jump underflow");
                        let b = c.as_bool().ok_or_else(|| type_err(kind.message()))?;
                        if !b {
                            cur.pc = *t as usize;
                            Flow::Jump
                        } else {
                            Flow::Next
                        }
                    }
                    Instr::JumpIfTrue(t, kind) => {
                        let c = cur.stack.pop().expect("jump underflow");
                        let b = c.as_bool().ok_or_else(|| type_err(kind.message()))?;
                        if b {
                            cur.pc = *t as usize;
                            Flow::Jump
                        } else {
                            Flow::Next
                        }
                    }
                    Instr::Print => {
                        let v = cur.stack.pop().expect("print underflow");
                        let s = self.display_value(&v);
                        self.output.push(s);
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
                    Instr::Ret => self.op_ret(&mut cur, base),

                    // --- superinstructions (compile-time fusion) ---
                    Instr::LoadGetField { slot, f, ic } => {
                        let v = cur.locals[*slot as usize].clone();
                        self.op_get(&mut cur, v, *f, *ic)?
                    }
                    Instr::LoadLoadBin { a, b, op } => {
                        let lv = cur.locals[*a as usize].clone();
                        let rv = cur.locals[*b as usize].clone();
                        let out = self.binop(*op, lv, rv)?;
                        cur.stack.push(out);
                        Flow::Next
                    }
                    Instr::ConstIntBin { n, op } => {
                        let lv = cur.stack.pop().expect("bin underflow");
                        let out = self.binop(*op, lv, Value::Int(*n))?;
                        cur.stack.push(out);
                        Flow::Next
                    }
                    Instr::ConstIntBinJif { n, op, t, kind } => {
                        let lv = cur.stack.pop().expect("bin underflow");
                        let c = self.binop(*op, lv, Value::Int(*n))?;
                        let b = c.as_bool().ok_or_else(|| type_err(kind.message()))?;
                        if !b {
                            cur.pc = *t as usize;
                            Flow::Jump
                        } else {
                            Flow::Next
                        }
                    }
                    Instr::LoadCall { slot, m, ic } => {
                        let recv = cur.locals[*slot as usize].clone();
                        self.op_call(&mut cur, recv, *m, 0, *ic, false)?
                    }
                };
                match flow {
                    Flow::Next => cur.pc += 1,
                    Flow::Jump => {}
                    Flow::Switch => continue 'frame,
                    Flow::Done(v) => return Ok(v),
                }
            }
        }
    }

    // ------------------------------------------------------ opcode handlers

    /// Field read (`GetField` / `LoadGetField`): `v` is the receiver.
    fn op_get(&mut self, st: &mut ExecState, v: Value, f: Name, ic: u32) -> Result<Flow, RtError> {
        let r = self.expect_ref(v)?;
        let res = self.site_field_res(ic, r.view, f);
        let out = self.get_field_resolved(&r, f, &res)?;
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
        let r = match local.and_then(|s| st.locals.get(s as usize)) {
            Some(Value::Ref(r)) => r.clone(),
            _ => return Err(RtError::UnboundVariable(self.prog.table.name_str(var))),
        };
        let res = self.site_set_res(ic, r.view, f);
        self.write_cell(r.loc, res.copy, res.slot, f, v.clone());
        // grant(σ, x.f): the stack binding loses the mask (copy-on-write:
        // clones the shared set only when the mask is actually present).
        let mut mask_copied = false;
        if let Some(Value::Ref(r2)) = local.and_then(|s| st.locals.get_mut(s as usize)) {
            mask_copied = r2.grant(&f);
        }
        if mask_copied {
            self.stats.mask_allocs += 1;
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
        let r = self.expect_ref(recv)?;
        self.stats.calls += 1;
        if self.depth >= self.max_depth {
            return Err(RtError::DepthExceeded(self.max_depth));
        }
        let Some(chunk) = self.site_call_res(ic, r.view, m) else {
            return Err(self.no_method(r.view, m));
        };
        if self.code.chunks[chunk].n_params as usize != argc {
            return Err(RtError::TypeMismatch("arity".into()));
        }
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
        let n_locals = self.code.chunks[chunk].n_locals as usize;
        let mut callee = self.pool.pop().unwrap_or_default();
        callee.chunk = chunk;
        callee.pc = 0;
        callee.locals.clear();
        callee.locals.resize(n_locals, Value::Unit);
        callee.locals[0] = Value::Ref(r);
        for i in (1..=argc).rev() {
            callee.locals[i] = st.stack.pop().expect("call underflow");
        }
        if recv_on_stack {
            st.stack.pop();
        }
        self.depth += 1;
        st.pc += 1; // return address
        self.frames.push(std::mem::replace(st, callee));
        Flow::Switch
    }

    /// `NewAlloc`: collects the provided record values and runs R-ALLOC
    /// with the executing frame parked where the collector can see it.
    fn op_new_alloc(&mut self, st: &mut ExecState, fields: &Arc<[Name]>) -> Result<Flow, RtError> {
        let vals = st.stack.split_off(st.stack.len() - fields.len());
        let class = self.new_stack.pop().expect("unbalanced NewAlloc");
        let provided: Vec<(Name, Value)> = fields.iter().copied().zip(vals).collect();
        // Park the executing frame where a collection triggered inside
        // `alloc` can see (and forward) its locals and operands.
        self.frames.push(std::mem::take(st));
        let r = self.alloc(class, provided);
        *st = self.frames.pop().expect("parked frame");
        st.stack.push(r?);
        Ok(Flow::Next)
    }

    /// `(view T)e`.
    fn op_view(&mut self, st: &mut ExecState, ty: u32) -> Result<Flow, RtError> {
        let v = st.stack.pop().expect("view underflow");
        let r = self.expect_ref(v)?;
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
                if self.view_subtype(r.view, tid) {
                    st.stack.push(Value::Ref(r));
                } else {
                    return Err(RtError::CastFailed(format!(
                        "view `{}` is not a `{}`",
                        self.prog.table.class_name(r.view),
                        self.prog.table.show_ty(&self.ty_pool[tid as usize])
                    )));
                }
            }
            prim => st.stack.push(prim), // primitive casts are no-ops
        }
        Ok(Flow::Next)
    }

    /// `Ret`: returns to the caller (recycling the finished activation)
    /// or finishes this invocation.
    fn op_ret(&mut self, st: &mut ExecState, base: usize) -> Flow {
        let v = st.stack.pop().unwrap_or(Value::Unit);
        if self.frames.len() > base {
            self.depth -= 1;
            let caller = self.frames.pop().expect("frame under base");
            let mut done = std::mem::replace(st, caller);
            st.stack.push(v);
            // Clear before pooling: recycled activations hold no values,
            // so the pool is never a GC root and never goes stale across
            // a compaction.
            done.locals.clear();
            done.stack.clear();
            self.pool.push(done);
            Flow::Switch
        } else {
            Flow::Done(v)
        }
    }

    // -------------------------------------------------------------- fields

    /// Per-site inline cache in front of the global (view, field) table.
    fn site_field_res(&mut self, ic: u32, view: ClassId, f: Name) -> Arc<FieldRes> {
        let site = &self.field_ics[ic as usize];
        for (v, res) in site {
            if *v == view {
                let res = res.clone();
                self.stats.ic_hits += 1;
                self.field_ic_hm[ic as usize][0] += 1;
                return res;
            }
        }
        self.stats.ic_misses += 1;
        self.field_ic_hm[ic as usize][1] += 1;
        self.trace_ic_miss(jns_obs::IcKind::FieldGet, ic, view);
        let res = self.resolve_field(view, f);
        let site = &mut self.field_ics[ic as usize];
        if site.len() < IC_CAP {
            site.push((view, res.clone()));
        }
        res
    }

    fn site_set_res(&mut self, ic: u32, view: ClassId, f: Name) -> SetRes {
        let site = &self.set_ics[ic as usize];
        for (v, res) in site {
            if *v == view {
                let res = *res;
                self.stats.ic_hits += 1;
                self.set_ic_hm[ic as usize][0] += 1;
                return res;
            }
        }
        self.stats.ic_misses += 1;
        self.set_ic_hm[ic as usize][1] += 1;
        self.trace_ic_miss(jns_obs::IcKind::FieldSet, ic, view);
        let layout = self.layout_of(view);
        let copy = self.prog.sharing.fclass(view, f);
        let res = SetRes {
            copy,
            slot: layout.slots.get(&(copy, f)).copied(),
        };
        let site = &mut self.set_ics[ic as usize];
        if site.len() < IC_CAP {
            site.push((view, res));
        }
        res
    }

    /// Reads `r.f` through `r`'s view (public for the type evaluator and
    /// direct API users); uses only the global caches.
    pub fn get_field(&mut self, r: &RefVal, f: Name) -> Result<Value, RtError> {
        let res = self.resolve_field(r.view, f);
        self.get_field_resolved(r, f, &res)
    }

    fn get_field_resolved(
        &mut self,
        r: &RefVal,
        f: Name,
        res: &FieldRes,
    ) -> Result<Value, RtError> {
        let stored = {
            let Some(obj) = self.heap.obj(r.loc) else {
                return Err(self.uninitialised(r, f));
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
                None => return Err(self.uninitialised(r, f)),
            }
        };
        match stored {
            Value::Ref(inner) => {
                // Lazy implicit view change at the interpreted field type.
                let (tid, masks) = res.ft.clone().map_err(RtError::BadType)?;
                self.stats.views_implicit += 1;
                self.apply_view(inner, tid, masks).map(Value::Ref)
            }
            prim => Ok(prim),
        }
    }

    fn uninitialised(&self, r: &RefVal, f: Name) -> RtError {
        RtError::UninitialisedField(format!(
            "{}.{} (view {})",
            r.loc,
            self.prog.table.name_str(f),
            self.prog.table.class_name(r.view)
        ))
    }

    fn write_cell(&mut self, loc: Loc, copy: ClassId, slot: Option<u32>, f: Name, v: Value) {
        self.heap.set(loc, copy, slot, f, v);
    }

    fn resolve_field(&mut self, view: ClassId, f: Name) -> Arc<FieldRes> {
        if let Some(res) = self.field_res.get(&(view, f)) {
            return res.clone();
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
        let ft = match self.field_view_type(view, f) {
            Ok((ty, masks)) => {
                let tid = self.intern_ty(ty);
                Ok((tid, self.intern_masks(masks)))
            }
            Err(m) => Err(m),
        };
        let res = Arc::new(FieldRes {
            copy,
            slot,
            alts,
            ft,
        });
        self.field_res.insert((view, f), res.clone());
        res
    }

    /// The field type of `f` interpreted in `view` (the type driving the
    /// lazy implicit view change), canonicalised.
    fn field_view_type(&self, view: ClassId, f: Name) -> Result<(Ty, BTreeSet<Name>), String> {
        let env = TypeEnv::new();
        let judge = Judge::new(&self.prog.table, &env);
        let recv = Ty::Class(view).exact().unmasked();
        let ft = judge.ftype(&recv, f)?;
        Ok((judge.canon(&ft.ty), ft.masks))
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

    /// R-ALLOC: allocates an instance, runs declared field initialisers
    /// (most-base first), then stores the provided record values.
    ///
    /// The in-flight state (`this`, pending record values) is parked on
    /// [`Vm::alloc_stack`] so a collection triggered here — or inside a
    /// nested initialiser's own allocations — sees it as roots and
    /// forwards the nascent object's ℓ with everything else.
    pub fn alloc(
        &mut self,
        class: ClassId,
        provided: Vec<(Name, Value)>,
    ) -> Result<Value, RtError> {
        self.stats.allocs += 1;
        let layout = self.layout_of(class);
        self.alloc_stack.push(AllocScope {
            this_ref: None,
            provided,
        });
        let guts = self.alloc_init(class, &layout);
        let scope = self.alloc_stack.pop().expect("alloc scope");
        let mut masks = match guts {
            Ok(m) => m,
            Err(e) => {
                self.stats.sync_gc(&self.heap.gc_stats());
                return Err(e);
            }
        };
        let this = scope.this_ref.expect("this_ref set on success");
        let loc = this.loc;
        for (fname, v) in scope.provided {
            let copy = self.prog.sharing.fclass(class, fname);
            let slot = layout.slots.get(&(copy, fname)).copied();
            self.write_cell(loc, copy, slot, fname, v);
            masks.remove(&fname);
        }
        // Fully initialised objects end with the empty mask set, which the
        // pool shares across every allocation.
        let masks = self.intern_masks(masks);
        self.stats.sync_gc(&self.heap.gc_stats());
        Ok(Value::Ref(RefVal {
            loc,
            view: class,
            masks,
        }))
    }

    /// The GC-sensitive half of [`Vm::alloc`]: carves out the object and
    /// runs its declared field initialisers, reading the object's current
    /// ℓ back from the alloc scope after every step that may collect.
    /// Returns the masks still unremoved after the declared initialisers.
    fn alloc_init(&mut self, class: ClassId, layout: &Layout) -> Result<BTreeSet<Name>, RtError> {
        // GC point: the only place the VM grows the heap. The scope this
        // call pushed holds the provided values; the object itself does
        // not exist yet.
        self.maybe_gc();
        let loc = self.heap.alloc(layout.n_slots);
        let all_fields = self.prog.table.fields_of(class);
        let mut masks: BTreeSet<Name> = all_fields.iter().map(|(_, fi)| fi.name).collect();
        // `this` during initialisation: all fields masked (F-OK).
        self.stats.mask_allocs += 1;
        let scope = self.alloc_stack.len() - 1;
        self.alloc_stack[scope].this_ref = Some(RefVal {
            loc,
            view: class,
            masks: Arc::new(masks.clone()),
        });
        for (owner, fi) in all_fields.iter().rev() {
            if !fi.has_init {
                continue;
            }
            let Some(&chunk) = self.code.field_inits.get(&(*owner, fi.name)) else {
                continue;
            };
            let this_ref = self.alloc_stack[scope]
                .this_ref
                .clone()
                .expect("in-flight this");
            let mut locals = vec![Value::Unit; self.code.chunks[chunk].n_locals as usize];
            locals[0] = Value::Ref(this_ref);
            // Initialiser chunks are the one place the VM still recurses
            // natively; charge each nested run one recursion unit (as the
            // interpreter does) so runaway initialiser recursion surfaces
            // as `DepthExceeded` instead of exhausting the host stack.
            if self.depth >= self.max_depth {
                return Err(RtError::DepthExceeded(self.max_depth));
            }
            self.depth += 1;
            let r = self.run_chunk(chunk, locals);
            self.depth -= 1;
            let v = r?;
            // Re-read ℓ: a collection inside the initialiser forwards the
            // scope's `this_ref` along with every other root.
            let loc = self.alloc_stack[scope]
                .this_ref
                .as_ref()
                .expect("in-flight this")
                .loc;
            let copy = self.prog.sharing.fclass(class, fi.name);
            let slot = layout.slots.get(&(copy, fi.name)).copied();
            self.write_cell(loc, copy, slot, fi.name, v);
            masks.remove(&fi.name);
        }
        Ok(masks)
    }

    // -------------------------------------------------------------- calls

    /// Per-site call cache in front of the global dispatch table.
    fn site_call_res(&mut self, ic: u32, view: ClassId, m: Name) -> Option<usize> {
        let site = &self.call_ics[ic as usize];
        for (v, c) in site {
            if *v == view {
                let c = *c;
                self.stats.ic_hits += 1;
                self.call_ic_hm[ic as usize][0] += 1;
                return c;
            }
        }
        self.stats.ic_misses += 1;
        self.call_ic_hm[ic as usize][1] += 1;
        self.trace_ic_miss(jns_obs::IcKind::Call, ic, view);
        let c = self.resolve_method(view, m);
        let site = &mut self.call_ics[ic as usize];
        if site.len() < IC_CAP {
            site.push((view, c));
        }
        c
    }

    fn no_method(&self, view: ClassId, m: Name) -> RtError {
        RtError::TypeMismatch(format!(
            "no method `{}` on view `{}`",
            self.prog.table.name_str(m),
            self.prog.table.class_name(view)
        ))
    }

    /// Public view-based dispatch entry (mirrors `Machine::call`).
    pub fn call(&mut self, r: RefVal, m: Name, args: Vec<Value>) -> Result<Value, RtError> {
        self.stats.calls += 1;
        if self.depth >= self.max_depth {
            return Err(RtError::DepthExceeded(self.max_depth));
        }
        let Some(chunk) = self.resolve_method(r.view, m) else {
            return Err(self.no_method(r.view, m));
        };
        let info = &self.code.chunks[chunk];
        if info.n_params as usize != args.len() {
            return Err(RtError::TypeMismatch("arity".into()));
        }
        let mut locals = vec![Value::Unit; info.n_locals as usize];
        locals[0] = Value::Ref(r);
        for (i, v) in args.into_iter().enumerate() {
            locals[1 + i] = v;
        }
        self.depth += 1;
        let out = self.run_chunk(chunk, locals);
        self.depth -= 1;
        self.stats.sync_gc(&self.heap.gc_stats());
        out
    }

    /// `mbody(S, m)` as a chunk index: BFS over supers from the view,
    /// first class with an explicit body wins. Memoised per (view, m).
    fn resolve_method(&mut self, view: ClassId, m: Name) -> Option<usize> {
        if let Some(&r) = self.dispatch.get(&(view, m)) {
            return r;
        }
        let mut queue = std::collections::VecDeque::from([view]);
        let mut seen = std::collections::HashSet::from([view]);
        let mut found = None;
        while let Some(q) = queue.pop_front() {
            if let Some(&c) = self.code.methods.get(&(q, m)) {
                found = Some(c);
                break;
            }
            for s in self.prog.table.direct_supers(q) {
                if seen.insert(s) {
                    queue.push_back(s);
                }
            }
        }
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

    /// Interns a runtime-computed mask set: the first occurrence counts as
    /// a materialisation (`Stats::mask_allocs`), every later one shares
    /// the pooled `Arc`.
    fn intern_masks(&mut self, masks: BTreeSet<Name>) -> MaskSet {
        let (m, fresh) = self.mask_pool.intern(masks);
        if fresh {
            self.stats.mask_allocs += 1;
        }
        m
    }

    /// Whether `view! ≤ target` (memoised on the interned target).
    fn view_subtype(&mut self, view: ClassId, tid: u32) -> bool {
        if let Some(&b) = self.sub_memo.get(&(view, tid)) {
            return b;
        }
        let target = self.ty_pool[tid as usize].clone();
        let env = TypeEnv::new();
        let judge = Judge::new(&self.prog.table, &env);
        let b = judge.sub_pure(&Ty::Class(view).exact(), &target);
        self.sub_memo.insert((view, tid), b);
        b
    }

    /// The unique sharing partner of `view` under `target` (memoised).
    fn partner_for(&mut self, view: ClassId, tid: u32) -> Result<ClassId, PartnerErr> {
        if let Some(r) = self.partner_memo.get(&(view, tid)) {
            return *r;
        }
        let partners = self.prog.sharing.partners(view);
        let mut candidates = Vec::new();
        for p in partners {
            if p != view && self.view_subtype(p, tid) {
                candidates.push(p);
            }
        }
        let r = match candidates.len() {
            1 => Ok(candidates[0]),
            0 => Err(PartnerErr::NoneFound),
            _ => Err(PartnerErr::Ambiguous),
        };
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
    /// target type with an interned (shared) mask set.
    fn apply_view(&mut self, r: RefVal, tid: u32, masks: MaskSet) -> Result<RefVal, RtError> {
        // Case 1: current view already compatible.
        if self.view_subtype(r.view, tid) && r.masks.is_subset(&masks) {
            return Ok(RefVal {
                loc: r.loc,
                view: r.view,
                masks,
            });
        }
        // Case 2: the unique shared partner below the target.
        match self.partner_for(r.view, tid) {
            Ok(p) => Ok(RefVal {
                loc: r.loc,
                view: p,
                masks,
            }),
            Err(PartnerErr::NoneFound) => Err(RtError::ViewFailed(format!(
                "`{}` has no shared view under `{}`",
                self.prog.table.class_name(r.view),
                self.prog.table.show_ty(&self.ty_pool[tid as usize])
            ))),
            Err(PartnerErr::Ambiguous) => Err(RtError::ViewFailed(format!(
                "ambiguous view change from `{}` to `{}`",
                self.prog.table.class_name(r.view),
                self.prog.table.show_ty(&self.ty_pool[tid as usize])
            ))),
        }
    }

    // ---------------------------------------------------------- type eval

    /// Evaluates a type-table entry to an interned runtime type plus the
    /// *full* interned mask set: masks contributed by dependent classes
    /// unioned with the masks declared on the source type. Non-dependent
    /// entries resolve to one shared `Arc` per entry, so the hot path of
    /// a view transition allocates nothing.
    fn eval_type_interned(
        &mut self,
        tidx: u32,
        locals: &[Value],
    ) -> Result<(u32, MaskSet), RtError> {
        if let Some((tid, masks)) = &self.pre_view[tidx as usize] {
            return Ok((*tid, masks.clone()));
        }
        let entry = &self.code.types[tidx as usize];
        let declared = entry.masks.clone();
        if let Some((ty, dep_masks)) = &entry.pre {
            let (ty, dep_masks) = (ty.clone(), dep_masks.clone());
            let tid = self.intern_ty(ty);
            let masks = if dep_masks.is_empty() {
                declared
            } else {
                let mut all = dep_masks;
                all.extend(declared.iter().copied());
                self.intern_masks(all)
            };
            self.pre_view[tidx as usize] = Some((tid, masks.clone()));
            return Ok((tid, masks));
        }
        let (ty, mut masks) = self.eval_type_rt(tidx, locals)?;
        masks.extend(declared.iter().copied());
        Ok((self.intern_ty(ty), self.intern_masks(masks)))
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

    // ---------------------------------------------------------- operators

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
            (Eq, a, b) => Value::Bool(value_eq(a, b)?),
            (Ne, a, b) => Value::Bool(!value_eq(a, b)?),
            _ => return Err(type_err("bad binary operands")),
        })
    }
}

impl jns_eval::typeeval::TypeEvalCtx for Vm<'_> {
    fn read_field(&mut self, r: &RefVal, f: Name) -> Result<Value, RtError> {
        self.get_field(r, f)
    }

    fn checked_program(&self) -> &CheckedProgram {
        self.prog
    }
}

/// `==`: primitive equality, or *location* equality on references (§2.3).
fn value_eq(l: &Value, r: &Value) -> Result<bool, RtError> {
    Ok(match (l, r) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Bool(a), Value::Bool(b)) => a == b,
        (Value::Str(a), Value::Str(b)) => a == b,
        (Value::Unit, Value::Unit) => true,
        (Value::Ref(a), Value::Ref(b)) => a.loc == b.loc,
        _ => return Err(type_err("`==` on mismatched values")),
    })
}

fn type_err(m: &str) -> RtError {
    RtError::TypeMismatch(m.to_string())
}
