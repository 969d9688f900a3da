//! The class table `CT` / `CT'` and the hierarchy judgments of Fig. 9.
//!
//! Explicit classes come from the program; *implicit* classes (CT0-IMP) —
//! classes inherited into a family by nested inheritance without being
//! overridden — are materialised lazily and memoised, because eager
//! materialisation would not terminate for recursive family nestings.

use crate::names::{Interner, Name};
use crate::ty::{ClassId, TPath, Ty, Type};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// A field declaration, resolved.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Field name.
    pub name: Name,
    /// Whether the field is `final`.
    pub is_final: bool,
    /// Declared type (may depend on `this`).
    pub ty: Type,
    /// Whether the declaration has an initialiser.
    pub has_init: bool,
}

/// A sharing constraint `lhs = rhs` or `lhs -> rhs` on a method.
#[derive(Debug, Clone)]
pub struct ConstraintInfo {
    /// Left type.
    pub lhs: Type,
    /// Right type.
    pub rhs: Type,
    /// `true` if only `lhs -> rhs` was declared.
    pub directional: bool,
}

/// A method signature, resolved.
#[derive(Debug, Clone)]
pub struct MethodSig {
    /// Method name.
    pub name: Name,
    /// Parameters in order (always final).
    pub params: Vec<(Name, Type)>,
    /// Return type.
    pub ret: Type,
    /// Sharing constraints.
    pub constraints: Vec<ConstraintInfo>,
    /// Whether the declaration is abstract (no body).
    pub is_abstract: bool,
}

/// One class in the table.
#[derive(Debug, Clone)]
pub struct ClassInfo {
    /// This class's id.
    pub id: ClassId,
    /// Enclosing class (`None` only for `◦`).
    pub parent: Option<ClassId>,
    /// Simple name.
    pub name: Name,
    /// Full path of simple names from `◦`.
    pub path: Vec<Name>,
    /// `true` if declared in the source, `false` if implicit (CT0-IMP).
    pub explicit: bool,
    /// Declared supertypes (resolved; may mention `this`).
    pub extends: Vec<Ty>,
    /// `shares` clause: target type and declared masks. `None` = shares self.
    pub shares: Option<(Ty, BTreeSet<Name>)>,
    /// Own fields.
    pub fields: Vec<FieldInfo>,
    /// Own method signatures.
    pub methods: Vec<MethodSig>,
    /// Explicitly declared nested classes.
    pub nested_explicit: HashMap<Name, ClassId>,
}

/// The class table: interner + all classes (explicit and, growing lazily,
/// implicit) + memoised hierarchy queries.
#[derive(Debug)]
pub struct ClassTable {
    /// The name interner (shared by every phase).
    pub interner: RefCell<Interner>,
    classes: RefCell<Vec<ClassInfo>>,
    member_cache: RefCell<HashMap<(ClassId, Name), Option<ClassId>>>,
    direct_cache: RefCell<HashMap<ClassId, Vec<ClassId>>>,
    supers_cache: RefCell<HashMap<ClassId, Vec<ClassId>>>,
    names_cache: RefCell<HashMap<ClassId, Arc<BTreeSet<Name>>>>,
    components: RefCell<Components>,
    in_progress: RefCell<HashSet<ClassId>>,
    /// `this` as an interned name (filled by `new`).
    pub this_name: Name,
}

/// The `~` relation as a union-find over the `@` edges of the first
/// `closed` classes (Tarjan, JACM 1975). Classes only ever join the table,
/// and without an `update` their edges never change, so growing the set
/// only adds unions; `update` starts it over.
#[derive(Debug, Clone, Default)]
struct Components {
    closed: usize,
    parent: Vec<u32>,
}

impl Components {
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let up = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = up;
            x = up;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }
}

impl Default for ClassTable {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for ClassTable {
    /// Deep copy, including every memoised hierarchy query and every
    /// implicit class materialised so far. Class ids are table-local, so
    /// a clone answers every query identically to the original — this is
    /// what lets each `jns-serve` worker carry its own lazily growing
    /// table while sharing one immutable bytecode program.
    fn clone(&self) -> Self {
        ClassTable {
            interner: RefCell::new(self.interner.borrow().clone()),
            classes: RefCell::new(self.classes.borrow().clone()),
            member_cache: RefCell::new(self.member_cache.borrow().clone()),
            direct_cache: RefCell::new(self.direct_cache.borrow().clone()),
            supers_cache: RefCell::new(self.supers_cache.borrow().clone()),
            names_cache: RefCell::new(self.names_cache.borrow().clone()),
            components: RefCell::new(self.components.borrow().clone()),
            in_progress: RefCell::new(self.in_progress.borrow().clone()),
            this_name: self.this_name,
        }
    }
}

/// Maximum nesting depth for lazily materialised classes; prevents runaway
/// materialisation for recursive families like `class A { class B extends A }`.
const MAX_DEPTH: usize = 24;

impl ClassTable {
    /// Creates a table containing only the root class `◦`.
    pub fn new() -> Self {
        let mut interner = Interner::new();
        let this_name = interner.intern("this");
        let root_name = interner.intern("<root>");
        let root = ClassInfo {
            id: ClassId::ROOT,
            parent: None,
            name: root_name,
            path: Vec::new(),
            explicit: true,
            extends: Vec::new(),
            shares: None,
            fields: Vec::new(),
            methods: Vec::new(),
            nested_explicit: HashMap::new(),
        };
        ClassTable {
            interner: RefCell::new(interner),
            classes: RefCell::new(vec![root]),
            member_cache: RefCell::new(HashMap::new()),
            direct_cache: RefCell::new(HashMap::new()),
            supers_cache: RefCell::new(HashMap::new()),
            names_cache: RefCell::new(HashMap::new()),
            components: RefCell::new(Components::default()),
            in_progress: RefCell::new(HashSet::new()),
            this_name,
        }
    }

    /// Interns a string.
    pub fn intern(&self, s: &str) -> Name {
        self.interner.borrow_mut().intern(s)
    }

    /// Resolves a name to its text.
    pub fn name_str(&self, n: Name) -> String {
        self.interner.borrow().resolve(n).to_string()
    }

    /// Registers a new explicit class and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` already has an explicit member named `name`
    /// (callers must check for duplicates first).
    pub fn add_explicit(&self, parent: ClassId, name: Name) -> ClassId {
        let mut classes = self.classes.borrow_mut();
        let id = ClassId(classes.len() as u32);
        let mut path = classes[parent.0 as usize].path.clone();
        path.push(name);
        assert!(
            !classes[parent.0 as usize]
                .nested_explicit
                .contains_key(&name),
            "duplicate class registration"
        );
        classes[parent.0 as usize].nested_explicit.insert(name, id);
        classes.push(ClassInfo {
            id,
            parent: Some(parent),
            name,
            path,
            explicit: true,
            extends: Vec::new(),
            shares: None,
            fields: Vec::new(),
            methods: Vec::new(),
            nested_explicit: HashMap::new(),
        });
        id
    }

    /// Read access to a class.
    pub fn class(&self, id: ClassId) -> ClassInfo {
        self.classes.borrow()[id.0 as usize].clone()
    }

    /// The simple name of `id`.
    pub fn simple_name(&self, id: ClassId) -> Name {
        self.classes.borrow()[id.0 as usize].name
    }

    /// The enclosing class of `id`.
    pub fn parent(&self, id: ClassId) -> Option<ClassId> {
        self.classes.borrow()[id.0 as usize].parent
    }

    /// Whether `id` was declared in the source (vs implicit).
    pub fn is_explicit(&self, id: ClassId) -> bool {
        self.classes.borrow()[id.0 as usize].explicit
    }

    /// The dotted source name of a class, e.g. `ASTDisplay.Binary`.
    pub fn class_name(&self, id: ClassId) -> String {
        let path = self.classes.borrow()[id.0 as usize].path.clone();
        if path.is_empty() {
            return "<root>".to_string();
        }
        let interner = self.interner.borrow();
        path.iter()
            .map(|n| interner.resolve(*n).to_string())
            .collect::<Vec<_>>()
            .join(".")
    }

    /// Number of classes currently in the table (grows as implicit classes
    /// materialise).
    pub fn len(&self) -> usize {
        self.classes.borrow().len()
    }

    /// Whether the table holds only `◦`.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// All class ids currently materialised.
    pub fn all_ids(&self) -> Vec<ClassId> {
        (0..self.len() as u32).map(ClassId).collect()
    }

    /// Mutates a class in place (used by the resolver to fill in bodies).
    pub fn update<R>(&self, id: ClassId, f: impl FnOnce(&mut ClassInfo) -> R) -> R {
        let mut classes = self.classes.borrow_mut();
        let r = f(&mut classes[id.0 as usize]);
        drop(classes);
        // Declarations changed; hierarchy caches may be stale. Positive
        // member entries must be KEPT: they are the registry of already
        // materialised implicit classes — clearing them would re-create
        // the same implicit class under a fresh id and orphan every
        // reference to the old one. Only negative ("no such member")
        // entries can be invalidated by a declaration change.
        self.direct_cache.borrow_mut().clear();
        self.supers_cache.borrow_mut().clear();
        self.names_cache.borrow_mut().clear();
        *self.components.borrow_mut() = Components::default();
        self.member_cache.borrow_mut().retain(|_, v| v.is_some());
        r
    }

    // ------------------------------------------------------------ hierarchy

    /// `CT'(P.C)`: the member class `C` of `P`, materialising an implicit
    /// class (CT0-IMP) if `C` is inherited but not overridden.
    pub fn member(&self, p: ClassId, c: Name) -> Option<ClassId> {
        if let Some(&id) = self.classes.borrow()[p.0 as usize].nested_explicit.get(&c) {
            return Some(id);
        }
        if let Some(&cached) = self.member_cache.borrow().get(&(p, c)) {
            return cached;
        }
        if self.classes.borrow()[p.0 as usize].path.len() >= MAX_DEPTH {
            self.member_cache.borrow_mut().insert((p, c), None);
            return None;
        }
        // Mark as "being computed" to cut recursion on cyclic hierarchies.
        self.member_cache.borrow_mut().insert((p, c), None);
        let parents = self.direct_supers(p);
        let mut origins = Vec::new();
        for q in &parents {
            if let Some(qc) = self.member(*q, c) {
                origins.push(qc);
            }
        }
        if origins.is_empty() {
            return None;
        }
        // CT0-IMP: implicit class, supertype = intersection of the supers of
        // everything it further binds, shares = itself.
        let mut extends = Vec::new();
        for o in &origins {
            for t in &self.classes.borrow()[o.0 as usize].extends {
                if !extends.contains(t) {
                    extends.push(t.clone());
                }
            }
        }
        let id = {
            let mut classes = self.classes.borrow_mut();
            let id = ClassId(classes.len() as u32);
            let mut path = classes[p.0 as usize].path.clone();
            path.push(c);
            classes.push(ClassInfo {
                id,
                parent: Some(p),
                name: c,
                path,
                explicit: false,
                extends,
                shares: None,
                fields: Vec::new(),
                methods: Vec::new(),
                nested_explicit: HashMap::new(),
            });
            id
        };
        self.member_cache.borrow_mut().insert((p, c), Some(id));
        Some(id)
    }

    /// Looks up a class by absolute dotted path, materialising implicit
    /// classes along the way.
    pub fn lookup_path(&self, path: &[Name]) -> Option<ClassId> {
        let mut cur = ClassId::ROOT;
        for seg in path {
            cur = self.member(cur, *seg)?;
        }
        Some(cur)
    }

    /// Direct super*classes* of `p` under `@` (one step of subclassing
    /// `@sc` via the `extends` clause, plus one step of further binding
    /// `@fb`).
    pub fn direct_supers(&self, p: ClassId) -> Vec<ClassId> {
        if let Some(cached) = self.direct_cache.borrow().get(&p) {
            return cached.clone();
        }
        if self.in_progress.borrow().contains(&p) {
            return Vec::new(); // cycle; reported by the acyclicity check
        }
        self.in_progress.borrow_mut().insert(p);
        let info = self.class(p);
        let mut out: Vec<ClassId> = Vec::new();
        // @sc from `extends`.
        for t in &info.extends {
            for m in self.extends_members(p, t) {
                if m != p && !out.contains(&m) {
                    out.push(m);
                }
            }
        }
        // @fb: P.C further binds Q.C for every direct super Q of P.
        let mut fb_parents: Vec<ClassId> = Vec::new();
        if let Some(parent) = info.parent {
            if parent != p {
                for q in self.direct_supers(parent) {
                    if let Some(qc) = self.member(q, info.name) {
                        if qc != p && !out.contains(&qc) {
                            out.push(qc);
                            fb_parents.push(qc);
                        }
                    }
                }
            }
        }
        // SC with inherited declarations: for every ancestor declaration
        // P.C that this class further binds, the ancestor's `extends`
        // clause is *reinterpreted* in this class's family (late binding):
        // `class Fork extends Node` in the base family makes the derived
        // family's Fork extend the derived family's Node, even when the
        // derived Fork declares no extends clause of its own.
        let mut i = 0;
        while i < fb_parents.len() {
            let q = fb_parents[i];
            i += 1;
            let qinfo = self.class(q);
            for t in &qinfo.extends {
                for m in self.extends_members(p, t) {
                    if m != p && !out.contains(&m) {
                        out.push(m);
                    }
                }
            }
            // Continue up q's own further-binding chain.
            for s in self.direct_supers(q) {
                if self.simple_name(s) == info.name && !fb_parents.contains(&s) {
                    fb_parents.push(s);
                }
            }
        }
        self.in_progress.borrow_mut().remove(&p);
        self.direct_cache.borrow_mut().insert(p, out.clone());
        out
    }

    /// Interprets a declared `extends` type of class `p` as a set of member
    /// classes. `this` refers to instances of `p`, so the family-level
    /// prefix `F[this.class].C` resolves to `member(parent(p), C)` — the
    /// essence of late binding of type names (§2.1).
    fn extends_members(&self, p: ClassId, t: &Ty) -> Vec<ClassId> {
        match t {
            Ty::Class(q) => vec![*q],
            Ty::Meet(ts) => {
                let mut out = Vec::new();
                for ti in ts {
                    for m in self.extends_members(p, ti) {
                        if !out.contains(&m) {
                            out.push(m);
                        }
                    }
                }
                out
            }
            Ty::Nested(inner, c) => {
                let mut bases = Vec::new();
                match &**inner {
                    // F[this.class].C — late-bound sibling reference.
                    Ty::Prefix(_, idx) if matches!(&**idx, Ty::Dep(pth) if pth.base == self.this_name && pth.fields.is_empty()) => {
                        if let Some(parent) = self.parent(p) {
                            bases.push(parent);
                        }
                    }
                    // this.class.C — member of the current class itself.
                    Ty::Dep(pth) if pth.base == self.this_name && pth.fields.is_empty() => {
                        bases.push(p);
                    }
                    other => {
                        for m in self.extends_members(p, other) {
                            bases.push(m);
                        }
                    }
                }
                let mut out = Vec::new();
                for b in bases {
                    if let Some(m) = self.member(b, *c) {
                        out.push(m);
                    }
                }
                out
            }
            Ty::Exact(inner) => self.extends_members(p, inner),
            Ty::Prefix(_, _) | Ty::Dep(_) | Ty::Prim(_) => Vec::new(),
        }
    }

    /// All `extends` declarations that apply to `p`: its own clause plus
    /// the clauses of every same-name class it further binds (those are
    /// reinterpreted in `p`'s family by late binding — the SC rule's
    /// `⊢ P1 @* P` premise).
    pub fn all_extends(&self, p: ClassId) -> Vec<Ty> {
        let info = self.class(p);
        let mut out = info.extends.clone();
        let mut chain: Vec<ClassId> = Vec::new();
        if let Some(parent) = info.parent {
            if parent != p {
                for q in self.direct_supers(parent) {
                    if let Some(qc) = self.member(q, info.name) {
                        if qc != p && !chain.contains(&qc) {
                            chain.push(qc);
                        }
                    }
                }
            }
        }
        let mut i = 0;
        while i < chain.len() {
            let q = chain[i];
            i += 1;
            for t in &self.class(q).extends {
                if !out.contains(t) {
                    out.push(t.clone());
                }
            }
            for s in self.direct_supers(q) {
                if self.simple_name(s) == info.name && !chain.contains(&s) && s != p {
                    chain.push(s);
                }
            }
        }
        out
    }

    /// `supers(P)`: the reflexive-transitive closure of `@` starting at `p`
    /// (Fig. 9's `supers`, restricted to a single class).
    pub fn supers(&self, p: ClassId) -> Vec<ClassId> {
        if let Some(cached) = self.supers_cache.borrow().get(&p) {
            return cached.clone();
        }
        let mut seen = vec![p];
        let mut queue = vec![p];
        while let Some(q) = queue.pop() {
            for s in self.direct_supers(q) {
                if !seen.contains(&s) {
                    seen.push(s);
                    queue.push(s);
                }
            }
        }
        self.supers_cache.borrow_mut().insert(p, seen.clone());
        seen
    }

    /// `⊢ P1 @* P2` — `p2` is a (reflexive, transitive) superclass of `p1`.
    pub fn is_subclass(&self, p1: ClassId, p2: ClassId) -> bool {
        self.supers(p1).contains(&p2)
    }

    /// `mem(PS)` (Fig. 9): the set of classes comprising a pure
    /// non-dependent type.
    pub fn mem(&self, t: &Ty) -> Vec<ClassId> {
        match t {
            Ty::Prim(_) => Vec::new(),
            Ty::Class(p) => vec![*p],
            Ty::Dep(_) => Vec::new(),
            Ty::Nested(inner, c) => {
                let mut out = Vec::new();
                for p in self.mem(inner) {
                    if let Some(m) = self.member(p, *c) {
                        if !out.contains(&m) {
                            out.push(m);
                        }
                    }
                }
                out
            }
            Ty::Prefix(p, idx) => self.prefix_classes(*p, idx),
            Ty::Meet(ts) => {
                let mut out = Vec::new();
                for ti in ts {
                    for m in self.mem(ti) {
                        if !out.contains(&m) {
                            out.push(m);
                        }
                    }
                }
                out
            }
            Ty::Exact(inner) => self.mem(inner),
        }
    }

    /// `prefix(P, PS)`: all classes `P'` related to `P` (under `~`) such
    /// that both `P` and `P'` enclose superclasses of `PS` (§4.5).
    pub fn prefix_classes(&self, p: ClassId, index: &Ty) -> Vec<ClassId> {
        let mut sup_classes: Vec<ClassId> = Vec::new();
        for m in self.mem(index) {
            for s in self.supers(m) {
                if !sup_classes.contains(&s) {
                    sup_classes.push(s);
                }
            }
        }
        // Does P itself enclose a superclass of the index?
        let p_ok = sup_classes.iter().any(|s| self.parent(*s) == Some(p));
        if !p_ok {
            return Vec::new();
        }
        let mut out = Vec::new();
        for s in &sup_classes {
            if let Some(encl) = self.parent(*s) {
                if !out.contains(&encl) && self.related(p, encl) {
                    out.push(encl);
                }
            }
        }
        out.sort();
        out
    }

    /// The `~` relation (Fig. 9): classes connected by further binding from
    /// a common origin, i.e. undirected reachability over `@` edges.
    ///
    /// Answered from connected components over a closed class set: every
    /// materialised class has had its `direct_supers` computed, and since
    /// that can materialise further classes, those are taken in too until
    /// the count is stable.
    pub fn related(&self, p1: ClassId, p2: ClassId) -> bool {
        if p1 == p2 {
            return true;
        }
        let mut comps = self.components.borrow_mut();
        while comps.closed < self.len() {
            let id = comps.closed as u32;
            comps.closed += 1;
            let sups = self.direct_supers(ClassId(id));
            let n = self.len() as u32;
            let have = comps.parent.len() as u32;
            comps.parent.extend(have..n);
            for s in sups {
                comps.union(id, s.0);
            }
        }
        comps.find(p1.0) == comps.find(p2.0)
    }

    // ----------------------------------------------------------- members

    /// `fields(S)` for a class: all field declarations of `p` and its
    /// superclasses (most derived first).
    pub fn fields_of(&self, p: ClassId) -> Vec<(ClassId, FieldInfo)> {
        let mut out = Vec::new();
        for s in self.supers(p) {
            for f in &self.classes.borrow()[s.0 as usize].fields {
                out.push((s, f.clone()));
            }
        }
        out
    }

    /// Looks up field `f` starting from class `p` (walking supers).
    /// Returns the declaring class and the declaration.
    pub fn field(&self, p: ClassId, f: Name) -> Option<(ClassId, FieldInfo)> {
        self.fields_of(p).into_iter().find(|(_, fi)| fi.name == f)
    }

    /// All field names of class `p` including inherited ones (computed once
    /// per class until the next `update`).
    pub fn field_names(&self, p: ClassId) -> Arc<BTreeSet<Name>> {
        if let Some(names) = self.names_cache.borrow().get(&p) {
            return Arc::clone(names);
        }
        let supers = self.supers(p);
        let names = {
            let classes = self.classes.borrow();
            let names = supers
                .iter()
                .flat_map(|s| classes[s.0 as usize].fields.iter().map(|f| f.name));
            Arc::new(names.collect::<BTreeSet<Name>>())
        };
        self.names_cache.borrow_mut().insert(p, Arc::clone(&names));
        names
    }

    /// Looks up method `m` on class `p`: returns the *most derived*
    /// declaring class (breadth-first over supers) and the signature.
    pub fn method(&self, p: ClassId, m: Name) -> Option<(ClassId, MethodSig)> {
        // BFS so that overriding declarations win over overridden ones.
        let mut queue = std::collections::VecDeque::from([p]);
        let mut seen = HashSet::from([p]);
        while let Some(q) = queue.pop_front() {
            let info = self.classes.borrow()[q.0 as usize].clone();
            if let Some(sig) = info.methods.iter().find(|sig| sig.name == m) {
                return Some((q, sig.clone()));
            }
            for s in self.direct_supers(q) {
                if seen.insert(s) {
                    queue.push_back(s);
                }
            }
        }
        None
    }

    /// All method names understood by class `p`.
    pub fn method_names(&self, p: ClassId) -> BTreeSet<Name> {
        let mut out = BTreeSet::new();
        for s in self.supers(p) {
            for m in &self.classes.borrow()[s.0 as usize].methods {
                out.insert(m.name);
            }
        }
        out
    }

    /// Checks the class hierarchy for `extends` cycles; returns the ids of
    /// classes on a cycle (empty = acyclic).
    pub fn find_cycles(&self) -> Vec<ClassId> {
        let mut bad = Vec::new();
        for id in self.all_ids() {
            // `direct_supers` cuts cycles via `in_progress`; detect by
            // checking whether id is its own strict super.
            let sup = self.supers(id);
            for s in sup {
                if s != id && self.supers(s).contains(&id) && !bad.contains(&id) {
                    bad.push(id);
                }
            }
        }
        bad
    }

    /// Renders a pure type for diagnostics.
    pub fn show_ty(&self, t: &Ty) -> String {
        match t {
            Ty::Prim(p) => p.to_string(),
            Ty::Class(c) => self.class_name(*c),
            Ty::Dep(p) => {
                let interner = self.interner.borrow();
                let mut s = interner.resolve(p.base).to_string();
                for f in &p.fields {
                    s.push('.');
                    s.push_str(interner.resolve(*f));
                }
                s.push_str(".class");
                s
            }
            Ty::Prefix(p, idx) => format!("{}[{}]", self.class_name(*p), self.show_ty(idx)),
            Ty::Nested(inner, c) => {
                format!("{}.{}", self.show_ty(inner), self.name_str(*c))
            }
            Ty::Exact(inner) => format!("{}!", self.show_ty(inner)),
            Ty::Meet(ts) => ts
                .iter()
                .map(|t| self.show_ty(t))
                .collect::<Vec<_>>()
                .join(" & "),
        }
    }

    /// Renders a possibly masked type for diagnostics.
    pub fn show_type(&self, t: &Type) -> String {
        let mut s = self.show_ty(&t.ty);
        for m in &t.masks {
            s.push('\\');
            s.push_str(&self.name_str(*m));
        }
        s
    }

    /// Builds the `Ty` for a dependent path.
    pub fn dep(&self, base: Name, fields: Vec<Name>) -> Ty {
        Ty::Dep(TPath { base, fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fixtures::figure12;

    #[test]
    fn explicit_member_lookup() {
        let (t, ids) = figure12();
        assert_eq!(t.member(ids["AST"], t.intern("Exp")), Some(ids["AST.Exp"]));
        assert_eq!(t.member(ids["AST"], t.intern("Nope")), None);
    }

    #[test]
    fn implicit_class_materialises() {
        let (t, ids) = figure12();
        // ASTDisplay inherits Value from AST without overriding it.
        let ad_value = t.member(ids["ASTDisplay"], t.intern("Value")).unwrap();
        assert!(!t.is_explicit(ad_value));
        assert_eq!(t.parent(ad_value), Some(ids["ASTDisplay"]));
        // It further binds AST.Value and hence subclasses it.
        assert!(t.is_subclass(ad_value, ids["AST.Value"]));
        // Late binding: implicit ASTDisplay.Value extends ASTDisplay.Exp.
        assert!(t.is_subclass(ad_value, ids["AD.Exp"]));
    }

    #[test]
    fn further_binding_edges() {
        let (t, ids) = figure12();
        let sup = t.supers(ids["AD.Binary"]);
        assert!(sup.contains(&ids["AST.Binary"]), "fb edge");
        assert!(sup.contains(&ids["AD.Exp"]), "sc edge");
        assert!(sup.contains(&ids["AST.Exp"]), "transitive");
        assert!(sup.contains(&ids["TD.Composite"]), "composite fb");
        assert!(sup.contains(&ids["TD.Node"]), "node");
    }

    #[test]
    fn implicit_node_in_astdisplay() {
        let (t, ids) = figure12();
        let ad_node = t.member(ids["ASTDisplay"], t.intern("Node")).unwrap();
        assert!(!t.is_explicit(ad_node));
        assert!(t.is_subclass(ad_node, ids["TD.Node"]));
        // ASTDisplay.Exp extends ASTDisplay.Node (the implicit one).
        assert!(t.is_subclass(ids["AD.Exp"], ad_node));
    }

    #[test]
    fn mem_of_nested_meet() {
        let (t, ids) = figure12();
        // (AST & TreeDisplay).Node = TreeDisplay.Node only (AST has no Node).
        let meet = Ty::Meet(vec![Ty::Class(ids["AST"]), Ty::Class(ids["TreeDisplay"])]);
        let nested = Ty::Nested(Box::new(meet), t.intern("Node"));
        assert_eq!(t.mem(&nested), vec![ids["TD.Node"]]);
    }

    #[test]
    fn related_families() {
        let (t, ids) = figure12();
        assert!(t.related(ids["AST"], ids["ASTDisplay"]));
        assert!(t.related(ids["AST"], ids["TreeDisplay"]));
        let lone = t.add_explicit(ClassId::ROOT, t.intern("Lonely"));
        assert!(!t.related(ids["AST"], lone));
    }

    #[test]
    fn prefix_of_binary_at_ast_level() {
        let (t, ids) = figure12();
        let idx = Ty::Class(ids["AD.Binary"]);
        let pre = t.prefix_classes(ids["AST"], &idx);
        assert!(pre.contains(&ids["AST"]));
        assert!(pre.contains(&ids["ASTDisplay"]));
        // TreeDisplay also encloses a super (Composite/Node) of AD.Binary.
        assert!(pre.contains(&ids["TreeDisplay"]));
        // prefix at AST level of a pure-AST class stays in AST.
        let idx2 = Ty::Class(ids["AST.Binary"]);
        let pre2 = t.prefix_classes(ids["AST"], &idx2);
        assert_eq!(pre2, vec![ids["AST"]]);
    }

    #[test]
    fn cycle_detection() {
        let t = ClassTable::new();
        let a = t.add_explicit(ClassId::ROOT, t.intern("A"));
        let b = t.add_explicit(ClassId::ROOT, t.intern("B"));
        t.update(a, |ci| ci.extends.push(Ty::Class(b)));
        t.update(b, |ci| ci.extends.push(Ty::Class(a)));
        assert!(!t.find_cycles().is_empty());
    }

    #[test]
    fn recursive_family_nesting_terminates() {
        // class A { class B extends A { } } — implicit A.B.B, A.B.B.B, ...
        // must be cut off by MAX_DEPTH rather than diverging.
        let t = ClassTable::new();
        let a = t.add_explicit(ClassId::ROOT, t.intern("A"));
        let b = t.add_explicit(a, t.intern("B"));
        t.update(b, |ci| ci.extends.push(Ty::Class(a)));
        // Deep member chains terminate.
        let mut cur = b;
        for _ in 0..40 {
            match t.member(cur, t.intern("B")) {
                Some(nxt) => cur = nxt,
                None => break,
            }
        }
        assert!(t.len() < 100);
    }

    #[test]
    fn fields_collect_over_supers() {
        let (t, ids) = figure12();
        let f_l = t.intern("l");
        t.update(ids["AST.Binary"], |ci| {
            ci.fields.push(FieldInfo {
                name: f_l,
                is_final: false,
                ty: Ty::Class(ids["AST.Exp"]).unmasked(),
                has_init: false,
            })
        });
        // AD.Binary inherits field l through further binding.
        let (owner, fi) = t.field(ids["AD.Binary"], f_l).unwrap();
        assert_eq!(owner, ids["AST.Binary"]);
        assert_eq!(fi.name, f_l);
    }

    #[test]
    fn method_lookup_prefers_most_derived() {
        let (t, ids) = figure12();
        let m = t.intern("display");
        let sig = |_ret: ClassId| MethodSig {
            name: m,
            params: vec![],
            ret: crate::ty::void(),
            constraints: vec![],
            is_abstract: false,
        };
        t.update(ids["TD.Node"], |ci| ci.methods.push(sig(ids["TD.Node"])));
        t.update(ids["AD.Binary"], |ci| {
            ci.methods.push(sig(ids["AD.Binary"]))
        });
        let (owner, _) = t.method(ids["AD.Binary"], m).unwrap();
        assert_eq!(owner, ids["AD.Binary"]);
        let (owner2, _) = t.method(ids["AD.Exp"], m).unwrap();
        assert_eq!(owner2, ids["TD.Node"]);
    }
}
