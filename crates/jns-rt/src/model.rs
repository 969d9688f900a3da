//! The dynamic object model: classes, instances, reference objects, and
//! the four dispatch strategies.

use std::collections::HashMap;

/// Identifies a registered class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Identifies a method selector (name), global to a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodId(pub u32);

/// A method implementation. Receives the runtime, the receiver reference,
/// and the arguments.
pub type MethodFn = fn(&mut Runtime, ObjRef, &[Val]) -> Val;

/// A reference object: heap instance plus the *view* that determines
/// behaviour (§6.3). Under non-sharing strategies the view always equals
/// the instance's class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjRef {
    /// Index of the instance.
    pub inst: u32,
    /// The view class.
    pub view: ClassId,
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// Absent/null (used for uninitialised or terminator fields).
    Nil,
    /// Integer.
    Int(i64),
    /// Floating point.
    F(f64),
    /// Object reference.
    Obj(ObjRef),
}

impl Val {
    /// Integer payload or panic (kernels run on checked shapes).
    pub fn int(self) -> i64 {
        match self {
            Val::Int(n) => n,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// Float payload.
    pub fn f(self) -> f64 {
        match self {
            Val::F(x) => x,
            Val::Int(n) => n as f64,
            other => panic!("expected F, got {other:?}"),
        }
    }

    /// Object payload, or `None` for `Nil`.
    pub fn obj(self) -> Option<ObjRef> {
        match self {
            Val::Obj(r) => Some(r),
            Val::Nil => None,
            other => panic!("expected Obj/Nil, got {other:?}"),
        }
    }
}

/// The four implementation strategies of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Direct dispatch and direct slots (the "Java" baseline).
    Direct,
    /// Per-call method re-resolution by walking the class hierarchy with
    /// hashed lookups (the 2006 J& translation without a classloader).
    NaiveFamily,
    /// Lazily synthesised vtables, then direct dispatch (J& + classloader).
    LoaderFamily,
    /// Reference objects with views: double indirection on dispatch,
    /// view-dependent field accessors, memoised view changes (J&s).
    SharedFamily,
}

impl Strategy {
    /// All strategies, in Table 1 row order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Direct,
        Strategy::NaiveFamily,
        Strategy::LoaderFamily,
        Strategy::SharedFamily,
    ];

    /// The paper's name for this row.
    pub fn paper_row(&self) -> &'static str {
        match self {
            Strategy::Direct => "Java",
            Strategy::NaiveFamily => "J& [31]",
            Strategy::LoaderFamily => "J& with classloader",
            Strategy::SharedFamily => "J&s",
        }
    }
}

/// Runtime statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct RtStats {
    /// Objects allocated.
    pub allocs: u64,
    /// Method dispatches.
    pub calls: u64,
    /// Explicit view changes.
    pub views_explicit: u64,
    /// Implicit (lazy) view changes on field reads.
    pub views_implicit: u64,
    /// View-change memoisation hits (§6.3).
    pub view_memo_hits: u64,
    /// vtables synthesised by the "classloader".
    pub vtables_built: u64,
}

#[derive(Debug)]
struct RtClass {
    name: String,
    family: u32,
    direct_supers: Vec<ClassId>,
    /// All superclasses including self (linearised, self first).
    supers: Vec<ClassId>,
    /// Own methods.
    own_methods: Vec<(MethodId, MethodFn)>,
    /// Own methods as a hash table (the per-class method tables the 2006
    /// J& translation consulted at run time).
    own_map: HashMap<MethodId, MethodFn>,
    /// Own fields only (used by the naive strategy's per-access walk).
    own_slots: HashMap<&'static str, u32>,
    /// Compiled slot list for direct-offset access (Java/classloader
    /// strategies): pointer-compared scan, like a compiled field offset.
    slot_list: Vec<(&'static str, u32)>,
    /// Lazily built vtable indexed by MethodId.
    vtable: Option<Vec<Option<MethodFn>>>,
    /// Sharing partners (same instance set), including self.
    partners: Vec<ClassId>,
    /// Field name -> global slot for this class's view.
    slots: HashMap<&'static str, u32>,
}

#[derive(Debug)]
struct Instance {
    class: ClassId,
    fields: Vec<Val>,
}

/// The object-model runtime.
#[derive(Debug)]
pub struct Runtime {
    strategy: Strategy,
    classes: Vec<RtClass>,
    instances: Vec<Instance>,
    method_names: HashMap<&'static str, MethodId>,
    n_methods: u32,
    /// Memo of the most recent view change per instance (§6.3).
    view_memo: Vec<(u32, ClassId)>,
    /// Statistics.
    pub stats: RtStats,
    next_family: u32,
}

impl Runtime {
    /// Creates an empty runtime with the given strategy.
    pub fn new(strategy: Strategy) -> Self {
        Runtime {
            strategy,
            classes: Vec::new(),
            instances: Vec::new(),
            method_names: HashMap::new(),
            n_methods: 0,
            view_memo: Vec::new(),
            stats: RtStats::default(),
            next_family: 0,
        }
    }

    /// The active strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Allocates a fresh family tag (a namespace for classes).
    pub fn family(&mut self) -> u32 {
        let f = self.next_family;
        self.next_family += 1;
        f
    }

    /// Interns a method selector.
    pub fn method(&mut self, name: &'static str) -> MethodId {
        if let Some(&m) = self.method_names.get(name) {
            return m;
        }
        let m = MethodId(self.n_methods);
        self.n_methods += 1;
        self.method_names.insert(name, m);
        m
    }

    /// Starts building a class.
    pub fn class(&mut self, name: &str, family: u32) -> ClassBuilder<'_> {
        ClassBuilder {
            rt: self,
            name: name.to_string(),
            family,
            extends: Vec::new(),
            shares: None,
            fields: Vec::new(),
            methods: Vec::new(),
        }
    }

    fn add_class(
        &mut self,
        name: String,
        family: u32,
        extends: Vec<ClassId>,
        shares: Option<ClassId>,
        fields: Vec<&'static str>,
        methods: Vec<(MethodId, MethodFn)>,
    ) -> ClassId {
        let id = ClassId(self.classes.len() as u32);
        // Linearised supers: self, then BFS over direct supers.
        let mut supers = vec![id];
        let mut queue: Vec<ClassId> = extends.clone();
        while let Some(s) = queue.pop() {
            if !supers.contains(&s) {
                supers.push(s);
                queue.extend(self.classes[s.0 as usize].direct_supers.iter().copied());
            }
        }
        // Representative instance class (§6.2): shared partners use one
        // layout; shared fields inherit the partner's slot, new fields get
        // fresh slots appended.
        let mut slots: HashMap<&'static str, u32> = HashMap::new();
        let mut next_slot = 0u32;
        // Inherited fields first (from supers' layouts).
        for s in supers.iter().skip(1) {
            for (f, slot) in &self.classes[s.0 as usize].slots {
                slots.entry(f).or_insert(*slot);
                next_slot = next_slot.max(*slot + 1);
            }
        }
        if let Some(base) = shares {
            for (f, slot) in &self.classes[base.0 as usize].slots {
                slots.entry(f).or_insert(*slot);
                next_slot = next_slot.max(*slot + 1);
            }
        }
        let mut own_slots = HashMap::new();
        for f in fields {
            if !slots.contains_key(f) {
                slots.insert(f, next_slot);
                own_slots.insert(f, next_slot);
                next_slot += 1;
            } else {
                own_slots.insert(f, slots[f]);
            }
        }
        let partners = vec![id];
        let own_map: HashMap<MethodId, MethodFn> = methods.iter().copied().collect();
        let mut slot_list: Vec<(&'static str, u32)> = slots.iter().map(|(f, s)| (*f, *s)).collect();
        slot_list.sort_by_key(|(_, s)| *s);
        self.classes.push(RtClass {
            name,
            family,
            direct_supers: extends,
            supers,
            own_methods: methods,
            own_map,
            own_slots,
            vtable: None,
            partners,
            slots,
            slot_list,
        });
        if let Some(base) = shares {
            // Equivalence closure.
            let mut group = self.classes[base.0 as usize].partners.clone();
            group.push(id);
            for &c in &group {
                self.classes[c.0 as usize].partners = group.clone();
            }
        }
        id
    }

    /// Whether `sub` is `sup` or inherits from it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.classes[sub.0 as usize].supers.contains(&sup)
    }

    /// The class name (for diagnostics).
    pub fn class_name(&self, class: ClassId) -> &str {
        &self.classes[class.0 as usize].name
    }

    // -------------------------------------------------------------- alloc

    /// Allocates an instance of `class`; every slot starts `Nil`.
    pub fn alloc(&mut self, class: ClassId) -> ObjRef {
        self.stats.allocs += 1;
        // Representative instance class: room for every partner's fields.
        let mut size = self.classes[class.0 as usize].slots.len();
        for &p in &self.classes[class.0 as usize].partners.clone() {
            size = size.max(self.classes[p.0 as usize].slots.len());
        }
        let inst = self.instances.len() as u32;
        self.instances.push(Instance {
            class,
            fields: vec![Val::Nil; size.max(1)],
        });
        self.view_memo.push((inst, class));
        ObjRef { inst, view: class }
    }

    // ------------------------------------------------------------- fields

    #[inline]
    fn slot(&self, view: ClassId, field: &'static str) -> u32 {
        *self.classes[view.0 as usize]
            .slots
            .get(field)
            .unwrap_or_else(|| {
                panic!(
                    "class `{}` has no field `{field}`",
                    self.classes[view.0 as usize].name
                )
            })
    }

    /// Fast slot resolution: pointer-compared scan over the compiled slot
    /// list — the cost shape of a direct field offset after JIT.
    #[inline]
    fn slot_fast(&self, class: ClassId, field: &'static str) -> u32 {
        for &(f, slot) in &self.classes[class.0 as usize].slot_list {
            if std::ptr::eq(f.as_ptr(), field.as_ptr()) || f == field {
                return slot;
            }
        }
        panic!(
            "class `{}` has no field `{field}`",
            self.classes[class.0 as usize].name
        )
    }

    /// Slot resolution for the naive strategy: re-linearise the hierarchy
    /// and re-resolve the member on every access (the 2006 J& translation
    /// re-synthesised run-time class information at use sites, with no
    /// classloader cache).
    fn slot_naive(&self, class: ClassId, field: &'static str) -> u32 {
        let mut order: Vec<ClassId> = vec![class];
        let mut queue: Vec<ClassId> = self.classes[class.0 as usize].direct_supers.clone();
        while let Some(s) = queue.pop() {
            if !order.contains(&s) {
                order.push(s);
                queue.extend(self.classes[s.0 as usize].direct_supers.iter().copied());
            }
        }
        for s in order {
            if let Some(&slot) = self.classes[s.0 as usize].own_slots.get(field) {
                return slot;
            }
        }
        self.slot(class, field)
    }

    /// Reads a field through the reference's view. Under
    /// [`Strategy::SharedFamily`] the result is lazily re-viewed into the
    /// reader's family (§6.3) and the view change memoised.
    pub fn get(&mut self, r: ObjRef, field: &'static str) -> Val {
        let v = match self.strategy {
            Strategy::SharedFamily => {
                // View-dependent getter: the slot is looked up through the
                // *view* class (duplicated fields resolve per family).
                let slot = self.slot(r.view, field);
                self.instances[r.inst as usize].fields[slot as usize]
            }
            Strategy::NaiveFamily => {
                let class = self.instances[r.inst as usize].class;
                let slot = self.slot_naive(class, field);
                self.instances[r.inst as usize].fields[slot as usize]
            }
            _ => {
                let slot = self.slot_fast(self.instances[r.inst as usize].class, field);
                self.instances[r.inst as usize].fields[slot as usize]
            }
        };
        match (self.strategy, v) {
            (Strategy::SharedFamily, Val::Obj(child)) => {
                Val::Obj(self.implicit_view(child, r.view))
            }
            _ => v,
        }
    }

    /// Writes a field through the reference's view.
    pub fn set(&mut self, r: ObjRef, field: &'static str, v: Val) {
        let slot = match self.strategy {
            Strategy::SharedFamily => self.slot(r.view, field),
            Strategy::NaiveFamily => self.slot_naive(self.instances[r.inst as usize].class, field),
            _ => self.slot_fast(self.instances[r.inst as usize].class, field),
        };
        self.instances[r.inst as usize].fields[slot as usize] = v;
    }

    // -------------------------------------------------------------- views

    /// Explicit view change: produces a reference with the partner view in
    /// `target_family`. Memoised per instance (§6.3).
    pub fn view_as(&mut self, r: ObjRef, target_family: u32) -> ObjRef {
        self.stats.views_explicit += 1;
        self.change_view(r, target_family)
    }

    fn implicit_view(&mut self, child: ObjRef, parent_view: ClassId) -> ObjRef {
        let fam = self.classes[parent_view.0 as usize].family;
        if self.classes[child.view.0 as usize].family == fam {
            return child;
        }
        self.stats.views_implicit += 1;
        self.change_view(child, fam)
    }

    fn change_view(&mut self, r: ObjRef, target_family: u32) -> ObjRef {
        if self.classes[r.view.0 as usize].family == target_family {
            return r;
        }
        // Memo: the most recent view change per instance.
        let (memo_inst, memo_view) = self.view_memo[r.inst as usize];
        if memo_inst == r.inst && self.classes[memo_view.0 as usize].family == target_family {
            self.stats.view_memo_hits += 1;
            return ObjRef {
                inst: r.inst,
                view: memo_view,
            };
        }
        let partners = self.classes[r.view.0 as usize].partners.clone();
        for p in partners {
            if self.classes[p.0 as usize].family == target_family {
                self.view_memo[r.inst as usize] = (r.inst, p);
                return ObjRef {
                    inst: r.inst,
                    view: p,
                };
            }
        }
        panic!(
            "no shared view of `{}` in family {target_family}",
            self.classes[r.view.0 as usize].name
        );
    }

    // ----------------------------------------------------------- dispatch

    /// Calls method `m` on `r`, dispatching per the strategy.
    pub fn call(&mut self, r: ObjRef, m: MethodId, args: &[Val]) -> Val {
        self.stats.calls += 1;
        let dispatch_class = match self.strategy {
            // Reference-object indirection: behaviour follows the view.
            Strategy::SharedFamily => r.view,
            _ => self.instances[r.inst as usize].class,
        };
        let f = match self.strategy {
            Strategy::NaiveFamily => self.resolve_slow(dispatch_class, m),
            _ => self.resolve_vtable(dispatch_class, m),
        };
        let Some(f) = f else {
            panic!(
                "no method {m:?} on `{}`",
                self.classes[dispatch_class.0 as usize].name
            )
        };
        f(self, r, args)
    }

    /// Slow path: re-linearise the hierarchy (BFS with allocation) and
    /// consult each class's hashed method table — the cost model of the
    /// classloader-less 2006 J& translation, which re-synthesised implicit
    /// class information at use sites.
    fn resolve_slow(&self, class: ClassId, m: MethodId) -> Option<MethodFn> {
        let mut order: Vec<ClassId> = vec![class];
        let mut queue: Vec<ClassId> = self.classes[class.0 as usize].direct_supers.clone();
        while let Some(s) = queue.pop() {
            if !order.contains(&s) {
                order.push(s);
                queue.extend(self.classes[s.0 as usize].direct_supers.iter().copied());
            }
        }
        for s in order {
            if let Some(f) = self.classes[s.0 as usize].own_map.get(&m) {
                return Some(*f);
            }
        }
        None
    }

    /// Fast path: lazily build the vtable once ("classloader"), then index.
    fn resolve_vtable(&mut self, class: ClassId, m: MethodId) -> Option<MethodFn> {
        if self.classes[class.0 as usize].vtable.is_none() {
            self.build_vtable(class);
        }
        self.classes[class.0 as usize]
            .vtable
            .as_ref()
            .expect("just built")
            .get(m.0 as usize)
            .copied()
            .flatten()
    }

    fn build_vtable(&mut self, class: ClassId) {
        self.stats.vtables_built += 1;
        let mut table = vec![None; self.n_methods as usize];
        let supers = self.classes[class.0 as usize].supers.clone();
        // Most-derived first: self is first in `supers`.
        for s in supers {
            for (mid, f) in self.classes[s.0 as usize].own_methods.clone() {
                let e = &mut table[mid.0 as usize];
                if e.is_none() {
                    *e = Some(f);
                }
            }
        }
        self.classes[class.0 as usize].vtable = Some(table);
    }
}

/// Builder for class registration.
#[derive(Debug)]
pub struct ClassBuilder<'r> {
    rt: &'r mut Runtime,
    name: String,
    family: u32,
    extends: Vec<ClassId>,
    shares: Option<ClassId>,
    fields: Vec<&'static str>,
    methods: Vec<(MethodId, MethodFn)>,
}

impl<'r> ClassBuilder<'r> {
    /// Adds a direct superclass.
    pub fn extends(mut self, sup: ClassId) -> Self {
        self.extends.push(sup);
        self
    }

    /// Declares sharing with a class of another family.
    pub fn shares(mut self, base: ClassId) -> Self {
        self.shares = Some(base);
        self
    }

    /// Adds fields.
    pub fn fields(mut self, names: &[&'static str]) -> Self {
        self.fields.extend_from_slice(names);
        self
    }

    /// Adds a method implementation.
    pub fn method(mut self, m: MethodId, f: MethodFn) -> Self {
        self.methods.push((m, f));
        self
    }

    /// Registers the class.
    pub fn build(self) -> ClassId {
        self.rt.add_class(
            self.name,
            self.family,
            self.extends,
            self.shares,
            self.fields,
            self.methods,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_families(strategy: Strategy) -> (Runtime, ClassId, ClassId, MethodId) {
        let mut rt = Runtime::new(strategy);
        let f1 = rt.family();
        let f2 = rt.family();
        let m = rt.method("describe");
        let base = rt
            .class("base.Node", f1)
            .fields(&["v", "next"])
            .method(m, |_rt, _r, _a| Val::Int(1))
            .build();
        let derived = rt
            .class("disp.Node", f2)
            .extends(base)
            .shares(base)
            .method(m, |_rt, _r, _a| Val::Int(2))
            .build();
        (rt, base, derived, m)
    }

    #[test]
    fn direct_dispatch_ignores_views() {
        let (mut rt, base, _derived, m) = two_families(Strategy::Direct);
        let o = rt.alloc(base);
        assert_eq!(rt.call(o, m, &[]), Val::Int(1));
    }

    #[test]
    fn all_strategies_dispatch_own_methods() {
        for s in Strategy::ALL {
            let (mut rt, base, _d, m) = two_families(s);
            let o = rt.alloc(base);
            assert_eq!(rt.call(o, m, &[]), Val::Int(1), "{s:?}");
        }
    }

    #[test]
    fn shared_family_view_switches_behaviour() {
        let (mut rt, base, _derived, m) = two_families(Strategy::SharedFamily);
        let o = rt.alloc(base);
        assert_eq!(rt.call(o, m, &[]), Val::Int(1));
        let o2 = rt.view_as(o, 1);
        assert_eq!(rt.call(o2, m, &[]), Val::Int(2), "view-based dispatch");
        assert_eq!(rt.call(o, m, &[]), Val::Int(1), "old reference unchanged");
        assert_eq!(o.inst, o2.inst, "identity preserved");
    }

    #[test]
    fn implicit_view_change_on_field_read() {
        let (mut rt, base, _derived, m) = two_families(Strategy::SharedFamily);
        let child = rt.alloc(base);
        let parent = rt.alloc(base);
        rt.set(parent, "next", Val::Obj(child));
        let parent2 = rt.view_as(parent, 1);
        let child2 = rt.get(parent2, "next").obj().unwrap();
        assert_eq!(rt.call(child2, m, &[]), Val::Int(2), "child re-viewed");
        assert!(rt.stats.views_implicit >= 1);
    }

    #[test]
    fn view_memo_hits_on_repeat_traversal() {
        let (mut rt, base, _derived, _m) = two_families(Strategy::SharedFamily);
        let child = rt.alloc(base);
        let parent = rt.alloc(base);
        rt.set(parent, "next", Val::Obj(child));
        let parent2 = rt.view_as(parent, 1);
        let _ = rt.get(parent2, "next");
        let before = rt.stats.view_memo_hits;
        let _ = rt.get(parent2, "next");
        assert!(rt.stats.view_memo_hits > before, "second read memoised");
    }

    #[test]
    fn loader_builds_vtable_once() {
        let (mut rt, base, _d, m) = two_families(Strategy::LoaderFamily);
        let o = rt.alloc(base);
        rt.call(o, m, &[]);
        rt.call(o, m, &[]);
        rt.call(o, m, &[]);
        assert_eq!(rt.stats.vtables_built, 1);
    }

    #[test]
    fn inherited_methods_found_by_all_strategies() {
        for s in Strategy::ALL {
            let mut rt = Runtime::new(s);
            let f = rt.family();
            let m = rt.method("val");
            let sup = rt.class("Sup", f).method(m, |_, _, _| Val::Int(7)).build();
            let sub = rt.class("Sub", f).extends(sup).build();
            let o = rt.alloc(sub);
            assert_eq!(rt.call(o, m, &[]), Val::Int(7), "{s:?}");
        }
    }

    #[test]
    fn shared_layout_holds_both_families_fields() {
        let mut rt = Runtime::new(Strategy::SharedFamily);
        let f1 = rt.family();
        let f2 = rt.family();
        let base = rt.class("b.C", f1).fields(&["x"]).build();
        let derived = rt
            .class("d.C", f2)
            .extends(base)
            .shares(base)
            .fields(&["extra"])
            .build();
        let o = rt.alloc(base);
        // The representative instance class has room for `extra`.
        rt.set(
            ObjRef {
                inst: o.inst,
                view: derived,
            },
            "extra",
            Val::Int(5),
        );
        rt.set(o, "x", Val::Int(3));
        assert_eq!(rt.get(o, "x"), Val::Int(3));
        let o2 = rt.view_as(o, f2);
        assert_eq!(rt.get(o2, "extra"), Val::Int(5));
        assert_eq!(rt.get(o2, "x"), Val::Int(3), "shared field, same slot");
    }

    #[test]
    fn fields_hold_floats_and_ints() {
        let mut rt = Runtime::new(Strategy::Direct);
        let f = rt.family();
        let c = rt.class("C", f).fields(&["a", "b"]).build();
        let o = rt.alloc(c);
        rt.set(o, "a", Val::F(1.5));
        rt.set(o, "b", Val::Int(2));
        assert_eq!(rt.get(o, "a").f(), 1.5);
        assert_eq!(rt.get(o, "b").int(), 2);
    }
}
