//! The shared heap: one store of objects for **both** execution backends,
//! with an optional mark-compact tracing collector.
//!
//! The paper's semantics treat the heap as a single store of
//! ⟨ℓ, fclass, f⟩ cells (§3, §6); this module is that store. A heap
//! [`Obj`] carries two kinds of cells behind one `get`/`set` surface:
//!
//! - **Layout slots** (`slots`): the VM's union field layout per sharing
//!   group (§6.2) — every partner view reads and writes fixed indices.
//! - **Open cells** (`overflow`): a map keyed by `(fclass-owner, field)` —
//!   the tree-walking interpreter's ⟨ℓ, P, f⟩ representation (it allocates
//!   with zero slots and keeps every field here), and the VM's spill
//!   storage for writes outside the static layout.
//!
//! A backend chooses per allocation how many slots the object gets; the
//! rest of the surface (`get`, `set`, `len`, [`Heap::reset`], and the one
//! GC entry [`Heap::collect_if_due`]) is identical, so `jns-serve`
//! workers, the CLI, and the test suites see one accounting path
//! regardless of engine.
//!
//! # Garbage collection
//!
//! [`Heap::collect_kind`] is a stop-the-world **mark-compact** collector
//! over a *region*, the suffix `objs[t..]` of the heap:
//!
//! 1. **Mark.** The caller enumerates its roots — every live [`RefVal`]
//!    reachable from its explicit control/value/frame stacks (both
//!    backends run on heap-allocated stacks since the CEK refactor, so
//!    roots are precisely enumerable). Marking traces object cells
//!    transitively inside the region.
//! 2. **Compact.** Live region objects slide down onto `t` in allocation
//!    order; dead ones are dropped in place. Objects below `t` never move.
//! 3. **Forward.** Every `Loc` into the region — in heap cells and, via
//!    the same root callback, in the caller's stacks — is rewritten
//!    through the forwarding table. Aliased references to one object are
//!    rewritten to the *same* new location, so reference identity (`==`
//!    is location equality, views share ℓ) survives compaction.
//!
//! Both engines call [`Heap::collect_if_due`] before they allocate. It
//! collects when the live-object count reaches the configured
//! [`Heap::set_limit`] threshold (`--heap-limit` on the CLI), and records
//! the `Gc` trace event; with no limit the collector never runs and
//! behaviour is byte-identical to the pre-GC heaps.
//!
//! # Generational collection
//!
//! With [`Heap::set_nursery`] configured (and a limit set — the nursery
//! subdivides a GC-managed heap, it does not enable GC by itself), the
//! heap becomes **generational**. Allocation already appends, so the
//! *nursery* is simply the vector's tail above the [`Heap::tenured`]
//! boundary; everything below the boundary is the *tenured* region. The
//! two kinds of collection are the one pass above with different starts
//! (Appel, *Simple Generational Garbage Collection and Fast Allocation*,
//! SP&E 1989):
//!
//! - **Minor collection** ([`GcKind::Minor`]) runs when the nursery fills
//!   and starts at the boundary: it marks nursery objects from the
//!   caller's roots plus the *remembered set* (below) and slides the
//!   survivors down onto the boundary. Sliding a survivor to the boundary
//!   **is** promotion: the boundary then advances past it.
//! - **Major collection** ([`GcKind::Major`]) starts at 0, the whole
//!   heap. It fires on the live-count trigger, which wins over a full
//!   nursery (minor collections never grow the heap, so the
//!   `peak_live ≤ limit` bound holds). All of a major's survivors become
//!   tenured.
//!
//! The **write barrier** lives in [`Heap::set`] — the single mutation
//! choke point for both backends: storing a reference to a nursery
//! object into a tenured object records the tenured ℓ in a deduplicated
//! remembered set (insertion-ordered `Vec` + bitmap; card-free, which is
//! fine at this heap's scale). A minor collection scans remembered
//! objects' cells as extra roots, so a tenured object that is the only
//! path to a nursery object keeps it alive without tracing the tenured
//! region. Every collection empties the nursery, so the remembered set is
//! cleared afterwards; dead entries merely persist until the next major
//! (ordinary floating garbage).

use crate::value::{Loc, RefVal, Value};
use jns_types::{ClassId, Name};
use std::collections::HashMap;

/// A heap object: a fixed slot vector (union layout) plus open cells.
#[derive(Debug, Default)]
pub struct Obj {
    /// Union-layout slots (empty for the interpreter's map-style objects).
    slots: Box<[Option<Value>]>,
    /// Open ⟨fclass-owner, field⟩ cells. Boxed so the slot-only common
    /// case costs one pointer per object, not an inline map.
    #[allow(clippy::box_collection)]
    overflow: Option<Box<HashMap<(ClassId, Name), Value>>>,
}

impl Obj {
    /// Reads one cell: by slot when the layout has one, by key otherwise.
    pub fn read(&self, copy: ClassId, slot: Option<u32>, f: Name) -> Option<Value> {
        match slot {
            Some(s) => self.slots.get(s as usize).cloned().flatten(),
            None => self
                .overflow
                .as_ref()
                .and_then(|m| m.get(&(copy, f)).cloned()),
        }
    }

    /// Writes one cell (spilling to the open map when the slot is absent
    /// or out of the static layout).
    pub fn write(&mut self, copy: ClassId, slot: Option<u32>, f: Name, v: Value) {
        match slot {
            Some(s) if (s as usize) < self.slots.len() => self.slots[s as usize] = Some(v),
            _ => {
                self.overflow
                    .get_or_insert_with(Default::default)
                    .insert((copy, f), v);
            }
        }
    }

    /// The open ⟨fclass-owner, field⟩ cells (the interpreter's CONFIG
    /// checker walks these; slot-backed cells have no symbolic key).
    pub fn open_cells(&self) -> impl Iterator<Item = (&(ClassId, Name), &Value)> {
        self.overflow.iter().flat_map(|m| m.iter())
    }

    /// Every stored value (slots and open cells), for tracing.
    fn values(&self) -> impl Iterator<Item = &Value> {
        self.slots
            .iter()
            .filter_map(|v| v.as_ref())
            .chain(self.overflow.iter().flat_map(|m| m.values()))
    }

    /// Every stored value, mutably (for `Loc` forwarding).
    fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.slots
            .iter_mut()
            .filter_map(|v| v.as_mut())
            .chain(self.overflow.iter_mut().flat_map(|m| m.values_mut()))
    }
}

/// Collector counters (cumulative since creation or the last
/// [`Heap::reset`]); mirrored into `Stats` by the backends.
#[derive(Debug, Default, Clone, Copy)]
pub struct GcStats {
    /// Completed collections (minor and major).
    pub runs: u64,
    /// Objects reclaimed by collections (not counting whole-heap resets).
    pub reclaimed: u64,
    /// High-water mark of live objects.
    pub peak_live: u64,
    /// Completed nursery (minor) collections.
    pub minor_runs: u64,
    /// Completed full (major) collections — every non-generational
    /// collection counts here too.
    pub major_runs: u64,
    /// Nursery objects promoted into the tenured region by minor
    /// collections.
    pub promoted: u64,
    /// Write-barrier hits: stores of a nursery reference into a tenured
    /// object (counted per store, before remembered-set deduplication).
    pub barrier_hits: u64,
}

/// Which collector a trigger asks for (see [`Heap::pending_collection`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcKind {
    /// Nursery-only collection: marks and compacts the region above the
    /// [`Heap::tenured`] boundary, promoting survivors.
    Minor,
    /// Mark-compact over the whole heap (the only kind without a
    /// nursery); all survivors become tenured.
    Major,
}

impl GcKind {
    /// Stable lower-case label (`"minor"` / `"major"`) used in trace
    /// events and reports.
    pub fn label(self) -> &'static str {
        match self {
            GcKind::Minor => "minor",
            GcKind::Major => "major",
        }
    }
}

/// The shared object store. See the module docs for the design.
#[derive(Debug, Default)]
pub struct Heap {
    objs: Vec<Obj>,
    limit: Option<usize>,
    /// The adaptive trigger: collection fires when `objs.len()` reaches
    /// this (meaningful only while `limit` is set). Starts at `limit`
    /// and returns to it whenever a collection's survivors fit strictly
    /// under the limit — so `peak_live ≤ limit` holds for any workload
    /// whose live set does. Once survivors fill the limit it grows to
    /// twice the live size (classic heap-growth policy), so an
    /// almost-all-live heap does not re-collect on every allocation.
    next_gc: usize,
    gc: GcStats,
    /// Nursery capacity: a minor collection fires once this many objects
    /// sit above the tenured boundary. `None` disables the generational
    /// split (every collection is major — the pre-generational
    /// behaviour). Only meaningful while a limit is set.
    nursery: Option<usize>,
    /// The generational boundary: `objs[..tenured]` is the tenured
    /// region (never moved by minor collections), `objs[tenured..]` is
    /// the nursery.
    tenured: usize,
    /// Remembered set: tenured ℓs whose cells may hold nursery
    /// references, in insertion order (scanned as extra minor roots).
    remembered: Vec<Loc>,
    /// Dedup bitmap for `remembered`, grown on demand.
    rem_bits: Vec<bool>,
}

impl Heap {
    /// An empty heap with no collection threshold (GC disabled).
    pub fn new() -> Self {
        Heap::default()
    }

    /// Sets the live-heap threshold: once this many objects are live, the
    /// next allocation first runs a collection. `None` disables GC.
    pub fn set_limit(&mut self, limit: Option<usize>) {
        self.limit = limit.map(|l| l.max(1));
        self.next_gc = self.limit.unwrap_or(0);
    }

    /// The configured live-heap threshold.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Sets the nursery capacity (clamped to ≥ 1): once this many
    /// objects sit above the tenured boundary, the next allocation first
    /// runs a *minor* collection. `None` (the default) keeps every
    /// collection major. The nursery only takes effect while a
    /// [`Heap::set_limit`] is configured — without a limit the collector
    /// (minor or major) never runs, preserving the documented
    /// byte-identical no-GC behaviour.
    pub fn set_nursery(&mut self, nursery: Option<usize>) {
        self.nursery = nursery.map(|c| c.max(1));
    }

    /// The generational boundary: objects at ℓ < `tenured()` are in the
    /// tenured region, the rest are in the nursery.
    pub fn tenured(&self) -> usize {
        self.tenured
    }

    /// Allocates an object with `n_slots` layout slots, returning its ℓ.
    pub fn alloc(&mut self, n_slots: u32) -> Loc {
        let loc = self.objs.len() as Loc;
        self.objs.push(Obj {
            slots: vec![None; n_slots as usize].into_boxed_slice(),
            overflow: None,
        });
        self.gc.peak_live = self.gc.peak_live.max(self.objs.len() as u64);
        loc
    }

    /// The object at `loc`, if it exists.
    pub fn obj(&self, loc: Loc) -> Option<&Obj> {
        self.objs.get(loc as usize)
    }

    /// Reads cell ⟨`loc`, `copy`, `f`⟩ (via `slot` when laid out).
    pub fn get(&self, loc: Loc, copy: ClassId, slot: Option<u32>, f: Name) -> Option<Value> {
        self.objs.get(loc as usize)?.read(copy, slot, f)
    }

    /// Writes cell ⟨`loc`, `copy`, `f`⟩; silently ignores a dangling `loc`
    /// (unreachable through the typed surface).
    ///
    /// This is the write barrier: when generational collection is active
    /// and the store puts a nursery reference into a tenured object, the
    /// tenured ℓ is recorded in the remembered set so minor collections
    /// can find the nursery object without tracing the tenured region.
    pub fn set(&mut self, loc: Loc, copy: ClassId, slot: Option<u32>, f: Name, v: Value) {
        if self.nursery.is_some() && self.limit.is_some() {
            if let Value::Ref(r) = &v {
                if (loc as usize) < self.tenured && r.loc as usize >= self.tenured {
                    self.gc.barrier_hits += 1;
                    let i = loc as usize;
                    if self.rem_bits.len() <= i {
                        self.rem_bits.resize(i + 1, false);
                    }
                    if !self.rem_bits[i] {
                        self.rem_bits[i] = true;
                        self.remembered.push(loc);
                    }
                }
            }
        }
        if let Some(obj) = self.objs.get_mut(loc as usize) {
            obj.write(copy, slot, f, v);
        }
    }

    /// Live objects.
    pub fn len(&self) -> usize {
        self.objs.len()
    }

    /// Whether the heap holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objs.is_empty()
    }

    /// Iterates ⟨ℓ, object⟩ (the CONFIG invariant checker uses this).
    pub fn iter(&self) -> impl Iterator<Item = (Loc, &Obj)> {
        self.objs.iter().enumerate().map(|(i, o)| (i as Loc, o))
    }

    /// Collector counters since creation or the last [`Heap::reset`].
    pub fn gc_stats(&self) -> GcStats {
        self.gc
    }

    /// Whole-heap reclamation (the per-request region reset): drops every
    /// object and zeroes the collector counters, returning how many
    /// objects were reclaimed.
    pub fn reset(&mut self) -> usize {
        let reclaimed = self.objs.len();
        self.objs.clear();
        self.gc = GcStats::default();
        self.next_gc = self.limit.unwrap_or(0);
        self.tenured = 0;
        self.remembered.clear();
        self.rem_bits.clear();
        reclaimed
    }

    /// Which collection, if any, the next allocation should run first.
    /// The major trigger wins (it is what bounds `peak_live ≤ limit` —
    /// a minor collection never grows the heap, so checking it second
    /// cannot break the bound); otherwise a full nursery asks for a
    /// minor collection. `None` without a configured limit: GC off.
    pub fn pending_collection(&self) -> Option<GcKind> {
        self.limit?;
        if self.objs.len() >= self.next_gc {
            return Some(GcKind::Major);
        }
        let cap = self.nursery?;
        if self.objs.len() - self.tenured >= cap {
            return Some(GcKind::Minor);
        }
        None
    }

    /// The GC point both engines call before they allocate: runs the
    /// collection [`Heap::pending_collection`] asks for, if any, over the
    /// roots `for_each_root` enumerates (the contract of
    /// [`Heap::collect_kind`]). With a `trace` buffer it also records one
    /// [`jns_obs::TraceEvent::Gc`]; the pause is timed only then.
    #[inline]
    pub fn collect_if_due<F>(&mut self, trace: Option<&mut jns_obs::TraceBuffer>, for_each_root: F)
    where
        F: FnMut(&mut dyn FnMut(&mut RefVal)),
    {
        let Some(kind) = self.pending_collection() else {
            return;
        };
        let start = trace.as_ref().map(|_| std::time::Instant::now());
        let reclaimed = self.collect_kind(kind, for_each_root);
        if let (Some(t), Some(start)) = (trace, start) {
            t.push(jns_obs::TraceEvent::Gc {
                kind: kind.label(),
                reclaimed: reclaimed as u64,
                live: self.objs.len() as u64,
                peak_live: self.gc.peak_live,
                pause_us: start.elapsed().as_micros() as u64,
            });
        }
    }

    /// Mark-compact collection of the region `objs[t..]`: a
    /// [`GcKind::Major`] collection starts at `t = 0`, a
    /// [`GcKind::Minor`] one at the tenured boundary. Objects below `t`
    /// neither move nor die; the remembered ones among them are scanned as
    /// extra roots. Survivors slide down onto `t` in allocation order and
    /// become tenured. `for_each_root` must apply the given visitor to
    /// **every** live [`RefVal`] the caller can reach; it is called twice,
    /// once to mark and once to forward the compacted `Loc`s back through
    /// the roots. Returns the number of objects reclaimed.
    pub fn collect_kind<F>(&mut self, kind: GcKind, mut for_each_root: F) -> usize
    where
        F: FnMut(&mut dyn FnMut(&mut RefVal)),
    {
        let n = self.objs.len();
        let t = match kind {
            GcKind::Major => 0,
            GcKind::Minor => self.tenured.min(n),
        };
        // Mark phase. By the write-barrier invariant the remembered
        // objects below `t` hold the only edges into the region from
        // outside it, so they seed the work list with the roots; tracing
        // then stays inside the region (a target below `t` does not move).
        let mut marked = vec![false; n - t];
        let mut work: Vec<Loc> = self
            .remembered
            .iter()
            .copied()
            .filter(|&l| (l as usize) < t)
            .collect();
        for_each_root(&mut |r: &mut RefVal| mark(&mut marked, &mut work, t, r.loc));
        while let Some(l) = work.pop() {
            for v in self.objs[l as usize].values() {
                if let Value::Ref(r) = v {
                    mark(&mut marked, &mut work, t, r.loc);
                }
            }
        }
        // Forwarding table + sliding compaction (allocation order kept).
        let mut fwd: Vec<Loc> = vec![Loc::MAX; n - t];
        let mut next = t;
        for (j, &m) in marked.iter().enumerate() {
            if m {
                fwd[j] = next as Loc;
                if next != t + j {
                    self.objs.swap(next, t + j);
                }
                next += 1;
            }
        }
        self.objs.truncate(next);
        // Forward every reference into the region: in the survivors' and
        // the remembered objects' cells, then in the roots. An ℓ outside
        // the region stays unchanged: below `t` it did not move, and a
        // dangling one (a stale reference held across a reset, the misuse
        // `Heap::set` silently ignores) stays out of bounds and therefore
        // benign, instead of panicking here where marking skipped it.
        let forward = |r: &mut RefVal| {
            if let Some(&to) = fwd.get((r.loc as usize).wrapping_sub(t)) {
                r.loc = to;
            }
        };
        let remembered = self.remembered.iter().map(|&l| l as usize);
        for i in remembered.filter(|&i| i < t).chain(t..next) {
            for v in self.objs[i].values_mut() {
                if let Value::Ref(r) = v {
                    forward(r);
                }
            }
        }
        for_each_root(&mut |r: &mut RefVal| forward(r));
        let reclaimed = n - next;
        self.gc.runs += 1;
        self.gc.reclaimed += reclaimed as u64;
        match kind {
            GcKind::Minor => {
                // The major trigger (`next_gc`) is deliberately untouched:
                // a minor collection never grows the heap.
                self.gc.minor_runs += 1;
                self.gc.promoted += (next - t) as u64;
            }
            GcKind::Major => {
                self.gc.major_runs += 1;
                // Re-arm the trigger: back at the limit while the
                // survivors fit strictly under it (so `peak_live` stays
                // bounded by the limit), doubling the live size once they
                // fill it (so an all-live heap completes instead of
                // collecting on every allocation).
                if let Some(l) = self.limit {
                    self.next_gc = if next >= l { 2 * next } else { l };
                }
            }
        }
        // Every survivor is tenured now and the region is empty, so no
        // tenured→nursery edge remains: the remembered set restarts.
        self.tenured = next;
        for &rem in &self.remembered {
            if let Some(b) = self.rem_bits.get_mut(rem as usize) {
                *b = false;
            }
        }
        self.remembered.clear();
        reclaimed
    }
}

/// Marks `loc` if it lies in the collected region (`marked[i]` stands for
/// ℓ = `t + i`) and is not yet marked, queueing it for tracing.
fn mark(marked: &mut [bool], work: &mut Vec<Loc>, t: usize, loc: Loc) {
    let i = (loc as usize).wrapping_sub(t);
    if i < marked.len() && !marked[i] {
        marked[i] = true;
        work.push(loc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masks::MaskId;

    fn rv(loc: Loc) -> RefVal {
        RefVal {
            loc,
            view: ClassId::ROOT,
            masks: MaskId::EMPTY,
        }
    }

    #[test]
    fn slot_and_open_cells_roundtrip() {
        let mut h = Heap::new();
        let a = h.alloc(2);
        let b = h.alloc(0);
        let f = Name(7);
        h.set(a, ClassId::ROOT, Some(1), f, Value::Int(5));
        h.set(b, ClassId::ROOT, None, f, Value::Int(9));
        assert_eq!(h.get(a, ClassId::ROOT, Some(1), f), Some(Value::Int(5)));
        assert_eq!(h.get(b, ClassId::ROOT, None, f), Some(Value::Int(9)));
        assert_eq!(h.get(a, ClassId::ROOT, Some(0), f), None);
        // A slot index outside the layout spills to the open cells.
        h.set(a, ClassId::ROOT, Some(9), f, Value::Bool(true));
        assert_eq!(h.get(a, ClassId::ROOT, None, f), Some(Value::Bool(true)));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn collect_drops_garbage_and_forwards_roots() {
        let mut h = Heap::new();
        let f = Name(1);
        let _garbage = h.alloc(0);
        let live = h.alloc(0);
        let child = h.alloc(0);
        h.set(live, ClassId::ROOT, None, f, Value::Ref(rv(child)));
        let mut root = rv(live);
        let mut alias = rv(live);
        let reclaimed = h.collect_kind(GcKind::Major, |visit| {
            visit(&mut root);
            visit(&mut alias);
        });
        assert_eq!(reclaimed, 1);
        assert_eq!(h.len(), 2);
        // Both aliases forward to the same compacted location (identity).
        assert_eq!(root.loc, alias.loc);
        assert_eq!(root.loc, 0);
        // The traced child moved too, and the stored cell was forwarded.
        let inner = h.get(root.loc, ClassId::ROOT, None, f).unwrap();
        assert_eq!(inner, Value::Ref(rv(1)));
        let stats = h.gc_stats();
        assert_eq!((stats.runs, stats.reclaimed), (1, 1));
    }

    #[test]
    fn collect_preserves_allocation_order_of_survivors() {
        let mut h = Heap::new();
        let keep: Vec<Loc> = (0..6).map(|_| h.alloc(0)).collect();
        let mut roots: Vec<RefVal> = keep.iter().step_by(2).map(|&l| rv(l)).collect();
        h.collect_kind(GcKind::Major, |visit| {
            roots.iter_mut().for_each(&mut *visit)
        });
        let locs: Vec<Loc> = roots.iter().map(|r| r.loc).collect();
        assert_eq!(locs, vec![0, 1, 2], "sliding compaction keeps order");
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn dangling_root_is_tolerated_not_panicked_on() {
        let mut h = Heap::new();
        h.alloc(0);
        let live = h.alloc(0);
        // A stale reference from before a reset: its ℓ is out of bounds.
        let mut stale = rv(9999);
        let mut root = rv(live);
        let reclaimed = h.collect_kind(GcKind::Major, |visit| {
            visit(&mut stale);
            visit(&mut root);
        });
        assert_eq!(reclaimed, 1);
        assert_eq!(root.loc, 0);
        // The dangling ℓ is left alone — still out of bounds, so every
        // heap entry point keeps degrading to a benign miss.
        assert_eq!(stale.loc, 9999);
        assert!(h.obj(stale.loc).is_none());
    }

    #[test]
    fn trigger_returns_to_limit_while_live_set_fits_under_it() {
        let mut h = Heap::new();
        h.set_limit(Some(10));
        let mut roots: Vec<RefVal> = (0..7).map(|_| rv(h.alloc(0))).collect();
        for _ in 0..3 {
            h.alloc(0);
        }
        assert_eq!(h.pending_collection(), Some(GcKind::Major));
        h.collect_kind(GcKind::Major, |visit| {
            roots.iter_mut().for_each(&mut *visit)
        });
        assert_eq!(h.len(), 7);
        // 7 survivors fit under the limit of 10: the trigger re-arms at
        // the limit, so the heap never grows past it (the bound
        // `peak_live <= limit` that tests/gc.rs asserts).
        for _ in 0..2 {
            h.alloc(0);
            assert_eq!(h.pending_collection(), None);
        }
        h.alloc(0);
        assert_eq!(h.pending_collection(), Some(GcKind::Major));
        h.collect_kind(GcKind::Major, |visit| {
            roots.iter_mut().for_each(&mut *visit)
        });
        assert_eq!(h.gc_stats().peak_live, 10);
        // An all-live heap instead doubles the trigger (no thrash).
        roots.extend((0..3).map(|_| rv(h.alloc(0))));
        assert_eq!(h.pending_collection(), Some(GcKind::Major));
        h.collect_kind(GcKind::Major, |visit| {
            roots.iter_mut().for_each(&mut *visit)
        });
        assert_eq!(h.len(), 10);
        assert_eq!(h.pending_collection(), None);
        for _ in 0..9 {
            h.alloc(0);
            assert_eq!(h.pending_collection(), None);
        }
        h.alloc(0);
        assert_eq!(
            h.pending_collection(),
            Some(GcKind::Major),
            "trigger doubled to 2x the live size"
        );
    }

    #[test]
    fn limit_gates_should_collect_and_reset_clears_counters() {
        let mut h = Heap::new();
        assert_eq!(h.pending_collection(), None);
        h.set_limit(Some(2));
        h.alloc(0);
        assert_eq!(h.pending_collection(), None);
        h.alloc(0);
        assert_eq!(h.pending_collection(), Some(GcKind::Major));
        assert_eq!(h.gc_stats().peak_live, 2);
        assert_eq!(h.reset(), 2);
        assert!(h.is_empty());
        assert_eq!(h.gc_stats().peak_live, 0);
        assert_eq!(h.limit(), Some(2), "reset keeps the configured limit");
    }

    #[test]
    fn minor_collects_nursery_garbage_and_promotes_survivors() {
        let mut h = Heap::new();
        h.set_limit(Some(100));
        h.set_nursery(Some(4));
        let f = Name(1);
        let keep = h.alloc(0);
        let child = h.alloc(0);
        h.set(keep, ClassId::ROOT, None, f, Value::Ref(rv(child)));
        let _garbage = h.alloc(0);
        h.alloc(0);
        // Nursery full (tenured boundary is still 0), limit far away.
        assert_eq!(h.pending_collection(), Some(GcKind::Minor));
        let mut root = rv(keep);
        let reclaimed = h.collect_kind(GcKind::Minor, |visit| visit(&mut root));
        assert_eq!(reclaimed, 2);
        assert_eq!(h.len(), 2);
        // Survivors were promoted in allocation order; the boundary now
        // covers them and the nursery is empty.
        assert_eq!(h.tenured(), 2);
        assert_eq!(root.loc, 0);
        let inner = h.get(root.loc, ClassId::ROOT, None, f).unwrap();
        assert_eq!(inner, Value::Ref(rv(1)), "promoted cell was forwarded");
        let stats = h.gc_stats();
        assert_eq!((stats.minor_runs, stats.major_runs), (1, 0));
        assert_eq!(stats.promoted, 2);
        assert_eq!(stats.runs, 1, "minor runs count into the total");
        assert_eq!(h.pending_collection(), None);
    }

    #[test]
    fn remembered_set_keeps_nursery_object_alive_through_minor() {
        let mut h = Heap::new();
        h.set_limit(Some(100));
        h.set_nursery(Some(8));
        let f = Name(2);
        // Tenure a holder object.
        let holder = h.alloc(0);
        let mut root = rv(holder);
        h.collect_kind(GcKind::Minor, |visit| visit(&mut root));
        assert_eq!(h.tenured(), 1);
        // A nursery child whose ONLY path is the tenured holder's cell:
        // the write barrier must remember the holder.
        let child = h.alloc(0);
        h.set(child, ClassId::ROOT, None, f, Value::Int(7));
        h.set(root.loc, ClassId::ROOT, None, f, Value::Ref(rv(child)));
        assert_eq!(h.gc_stats().barrier_hits, 1);
        let _nursery_garbage = h.alloc(0);
        // Minor collection with NO stack roots at all.
        let reclaimed = h.collect_kind(GcKind::Minor, |_visit| {});
        assert_eq!(reclaimed, 1, "only the unreferenced nursery object died");
        assert_eq!(h.len(), 2);
        // The holder's cell was forwarded to the promoted child, and the
        // child's own state survived the move.
        let inner = h.get(root.loc, ClassId::ROOT, None, f).unwrap();
        let Value::Ref(r) = inner else {
            panic!("holder cell no longer a reference: {inner:?}")
        };
        assert_eq!(h.get(r.loc, ClassId::ROOT, None, f), Some(Value::Int(7)));
        // The nursery is empty again, so the remembered set restarted:
        // a fresh tenured→nursery store re-records the holder.
        let child2 = h.alloc(0);
        h.set(root.loc, ClassId::ROOT, None, f, Value::Ref(rv(child2)));
        assert_eq!(h.gc_stats().barrier_hits, 2);
    }

    #[test]
    fn barrier_ignores_non_nursery_stores_and_is_off_without_nursery() {
        let mut h = Heap::new();
        h.set_limit(Some(100));
        let f = Name(3);
        let a = h.alloc(0);
        let b = h.alloc(0);
        // No nursery configured: no barrier accounting at all.
        h.set(a, ClassId::ROOT, None, f, Value::Ref(rv(b)));
        assert_eq!(h.gc_stats().barrier_hits, 0);
        h.set_nursery(Some(4));
        let mut roots = [rv(a), rv(b)];
        h.collect_kind(GcKind::Minor, |visit| {
            roots.iter_mut().for_each(&mut *visit)
        });
        assert_eq!(h.tenured(), 2);
        // Tenured→tenured and nursery-held stores stay barrier-free.
        h.set(
            roots[0].loc,
            ClassId::ROOT,
            None,
            f,
            Value::Ref(rv(roots[1].loc)),
        );
        let young = h.alloc(0);
        h.set(young, ClassId::ROOT, None, f, Value::Ref(rv(roots[0].loc)));
        assert_eq!(h.gc_stats().barrier_hits, 0);
        // Only the tenured→nursery store hits.
        h.set(roots[0].loc, ClassId::ROOT, None, f, Value::Ref(rv(young)));
        assert_eq!(h.gc_stats().barrier_hits, 1);
    }

    #[test]
    fn major_trigger_wins_over_a_full_nursery_and_tenures_survivors() {
        let mut h = Heap::new();
        h.set_limit(Some(4));
        h.set_nursery(Some(2));
        let mut roots: Vec<RefVal> = (0..2).map(|_| rv(h.alloc(0))).collect();
        // Nursery is full, but so is the heap: the live-count trigger
        // must win (it is what bounds peak_live ≤ limit).
        h.alloc(0);
        h.alloc(0);
        assert_eq!(h.pending_collection(), Some(GcKind::Major));
        h.collect_kind(GcKind::Major, |visit| {
            roots.iter_mut().for_each(&mut *visit)
        });
        let stats = h.gc_stats();
        assert_eq!((stats.minor_runs, stats.major_runs), (0, 1));
        assert_eq!(h.tenured(), 2, "major tenures every survivor");
        assert_eq!(h.pending_collection(), None);
    }

    #[test]
    fn nursery_without_a_limit_keeps_gc_off() {
        let mut h = Heap::new();
        h.set_nursery(Some(1));
        for _ in 0..16 {
            h.alloc(0);
        }
        assert_eq!(h.pending_collection(), None, "no limit: GC stays off");
        assert_eq!(h.gc_stats().barrier_hits, 0);
        assert_eq!(h.gc_stats().runs, 0);
    }

    /// SplitMix64, so the oracle test below needs no dependency.
    struct Rng(u64);

    impl Rng {
        /// Uniform in `0..n` (0 when `n` is 0).
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)).checked_rem(n as u64).unwrap_or(0) as usize
        }
    }

    /// The `Int` cell naming each object: its allocation index.
    const TAG: Name = Name(0);
    /// Reference cells per object.
    const EDGES: u32 = 3;
    /// A root that points past the heap (a stale reference).
    const DANGLING: Loc = 1 << 30;

    /// Reference cell `k` of an object with `n_slots` layout slots: a
    /// slot while the layout has one, an open cell after it.
    fn edge_cell(k: u32, n_slots: u32) -> (Option<u32>, Name) {
        ((k < n_slots).then_some(k), Name(1 + k))
    }

    /// A random object graph and the model it was built from. Until the
    /// collection under test, object `o` sits at ℓ = `o`.
    struct Graph {
        heap: Heap,
        /// Layout slots per object.
        slots: Vec<u32>,
        /// The target of each reference cell per object.
        edges: Vec<[Option<usize>; EDGES as usize]>,
        /// The tenured boundary: objects below it are old.
        old: usize,
        roots: Vec<RefVal>,
    }

    impl Graph {
        fn alloc(&mut self, rng: &mut Rng) {
            let o = self.slots.len();
            let n_slots = rng.below(EDGES as usize) as u32;
            assert_eq!(self.heap.alloc(n_slots), o as Loc);
            self.heap
                .set(o as Loc, ClassId::ROOT, None, TAG, Value::Int(o as i64));
            self.slots.push(n_slots);
            self.edges.push([None; EDGES as usize]);
        }

        /// Random stores between random objects, each through
        /// `Heap::set` and so through the write barrier.
        fn link(&mut self, rng: &mut Rng, stores: usize) {
            let n = self.slots.len();
            for _ in 0..stores {
                let (from, k, to) = (rng.below(n), rng.below(EDGES as usize), rng.below(n));
                let (slot, f) = edge_cell(k as u32, self.slots[from]);
                let v = Value::Ref(rv(to as Loc));
                self.heap.set(from as Loc, ClassId::ROOT, slot, f, v);
                self.edges[from][k] = Some(to);
            }
        }

        /// The object now at `loc`, by its tag.
        fn tag_at(&self, loc: Loc) -> usize {
            match self.heap.get(loc, ClassId::ROOT, None, TAG) {
                Some(Value::Int(o)) => o as usize,
                other => panic!("ℓ {loc} has tag {other:?}"),
            }
        }

        /// The objects reachable from the roots and from every object in
        /// `0..from_all_below`, in allocation order.
        fn reachable(&self, from_all_below: usize) -> Vec<usize> {
            let n = self.slots.len();
            let mut live = vec![false; n];
            let mut work: Vec<usize> = self.roots.iter().map(|r| r.loc as usize).collect();
            work.retain(|&o| o < n);
            work.extend(0..from_all_below);
            while let Some(o) = work.pop() {
                if !std::mem::replace(&mut live[o], true) {
                    work.extend(self.edges[o].iter().flatten());
                }
            }
            (0..n).filter(|&o| live[o]).collect()
        }
    }

    /// Old objects linked among themselves and tenured (a collection with
    /// every object as a root), then nursery objects and stores in every
    /// direction: old→young stores fill the remembered set. The roots are
    /// random objects, aliases included, plus one dangling ℓ.
    fn random_graph(seed: u64) -> Graph {
        let mut rng = Rng(seed);
        let mut g = Graph {
            heap: Heap::new(),
            slots: Vec::new(),
            edges: Vec::new(),
            old: 0,
            roots: Vec::new(),
        };
        g.heap.set_limit(Some(1 << 20));
        g.heap.set_nursery(Some(1 << 20));
        for _ in 0..rng.below(16) {
            g.alloc(&mut rng);
        }
        let stores = rng.below(2 * g.slots.len() + 1);
        g.link(&mut rng, stores);
        let mut all: Vec<RefVal> = (0..g.slots.len()).map(|o| rv(o as Loc)).collect();
        g.heap
            .collect_kind(GcKind::Minor, |visit| all.iter_mut().for_each(&mut *visit));
        g.old = g.slots.len();
        assert_eq!(g.heap.tenured(), g.old);
        for _ in 0..rng.below(24) {
            g.alloc(&mut rng);
        }
        let stores = rng.below(3 * g.slots.len() + 1);
        g.link(&mut rng, stores);
        for _ in 0..rng.below(6).min(g.slots.len()) {
            g.roots.push(rv(rng.below(g.slots.len()) as Loc));
        }
        g.roots.push(rv(DANGLING));
        g
    }

    /// The collector against an oracle: after a collection of either
    /// kind, the survivors are exactly the reachable objects of the
    /// collected region (for a minor one, plus every object below the
    /// boundary, all of which count as live), in allocation order, and
    /// every root and cell still reaches the object it reached before.
    #[test]
    fn collect_kind_keeps_exactly_the_reachable_objects_in_order() {
        let (mut barrier_hits, mut kept_only_by_old) = (0, 0);
        for seed in 0..300 {
            for kind in [GcKind::Minor, GcKind::Major] {
                let mut g = random_graph(seed);
                let n = g.slots.len();
                let t = if kind == GcKind::Minor { g.old } else { 0 };
                let expected = g.reachable(t);
                if kind == GcKind::Minor && expected.len() > g.reachable(0).len() + t {
                    kept_only_by_old += 1;
                }
                barrier_hits += g.heap.gc_stats().barrier_hits;
                let before = g.heap.gc_stats();
                let mut roots = std::mem::take(&mut g.roots);
                let reclaimed = g
                    .heap
                    .collect_kind(kind, |visit| roots.iter_mut().for_each(&mut *visit));
                let case = format!("seed {seed}, {kind:?}");
                let survivors: Vec<usize> = (0..g.heap.len()).map(|l| g.tag_at(l as Loc)).collect();
                assert_eq!(survivors, expected, "{case}: survivors");
                assert_eq!(reclaimed, n - expected.len(), "{case}: reclaimed");
                assert_eq!(g.heap.tenured(), expected.len(), "{case}: all tenured");
                let after = g.heap.gc_stats();
                let promoted = match kind {
                    GcKind::Minor => expected.len() - t,
                    GcKind::Major => 0,
                };
                assert_eq!(after.promoted - before.promoted, promoted as u64, "{case}");
                for r in &roots[..roots.len() - 1] {
                    let o = g.tag_at(r.loc);
                    assert_eq!(r.loc as usize, survivors.binary_search(&o).unwrap());
                }
                assert_eq!(roots.last().map(|r| r.loc), Some(DANGLING), "{case}");
                for (loc, &o) in survivors.iter().enumerate() {
                    for k in 0..EDGES {
                        let (slot, f) = edge_cell(k, g.slots[o]);
                        let to = g.heap.get(loc as Loc, ClassId::ROOT, slot, f).map(|v| {
                            let Value::Ref(r) = v else {
                                panic!("{case}: cell {k} of {o} is {v:?}")
                            };
                            g.tag_at(r.loc)
                        });
                        assert_eq!(to, g.edges[o][k as usize], "{case}: cell {k} of {o}");
                    }
                }
            }
        }
        // The seeds exercise the barrier, and some nursery objects
        // survive only through a remembered old object.
        assert!(barrier_hits > 0);
        assert!(kept_only_by_old > 0);
    }
}
