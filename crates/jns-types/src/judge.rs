//! Type judgments: canonicalisation, bounds (Fig. 13), substitution
//! (Fig. 14), field/method lookup (Fig. 9), and subtyping (Fig. 10).
//!
//! Subtyping is implemented as a memoised goal-directed search over the
//! declarative rules. Canonicalisation resolves non-dependent prefix types
//! via `prefix(P, PS)`, folds `T.C` into class ids where possible, applies
//! nested intersection `(S&T).C = S.C & T.C`, and normalises meets.

use crate::env::TypeEnv;
use crate::names::Name;
use crate::table::ClassTable;
use crate::ty::{ClassId, TPath, Ty, Type};
use std::cell::RefCell;
use std::collections::HashSet;

/// The judgment engine: a class table plus a typing environment.
pub struct Judge<'a> {
    /// The class table.
    pub table: &'a ClassTable,
    /// The typing environment Γ.
    pub env: &'a TypeEnv,
    goals: RefCell<HashSet<(Ty, Ty)>>,
    depth: RefCell<u32>,
}

/// Errors from judgment-level operations (wrapped by the checker).
pub type JResult<T> = Result<T, String>;

const MAX_SUB_DEPTH: u32 = 200;

impl<'a> Judge<'a> {
    /// Creates a judgment engine for `table` under environment `env`.
    pub fn new(table: &'a ClassTable, env: &'a TypeEnv) -> Self {
        Judge {
            table,
            env,
            goals: RefCell::new(HashSet::new()),
            depth: RefCell::new(0),
        }
    }

    // ------------------------------------------------------------- canon

    /// Canonicalises a pure type.
    pub fn canon(&self, t: &Ty) -> Ty {
        match t {
            Ty::Prim(_) | Ty::Class(_) | Ty::Dep(_) => t.clone(),
            Ty::Nested(inner, c) => {
                let inner = self.canon(inner);
                match inner {
                    // (S & T).C = S.C & T.C  (nested intersection)
                    Ty::Meet(ts) => {
                        let parts: Vec<Ty> = ts
                            .into_iter()
                            .map(|ti| Ty::Nested(Box::new(ti), *c))
                            .collect();
                        self.canon(&Ty::Meet(parts))
                    }
                    Ty::Class(p) => match self.table.member(p, *c) {
                        Some(id) => Ty::Class(id),
                        None => Ty::Nested(Box::new(Ty::Class(p)), *c),
                    },
                    other => Ty::Nested(Box::new(other), *c),
                }
            }
            Ty::Prefix(p, idx) => {
                let mut idx = self.canon(idx);
                // A dependent-class index whose declared type pins the
                // family exactly (prefixExact_1) can be replaced by that
                // declared type: `P[q.class] ≈ P[T_q]` — the family of a
                // reference is fixed by a family-exact static type.
                if let Ty::Dep(q) = &idx {
                    if let Ok(pt) = self.type_of_path(q) {
                        if pt.ty.prefix_exact(1) && !matches!(pt.ty, Ty::Dep(ref r) if r == q) {
                            idx = self.canon(&pt.ty);
                        }
                    }
                }
                if idx.is_non_dependent() {
                    let classes = self.table.prefix_classes(*p, &idx);
                    if classes.is_empty() {
                        return Ty::Prefix(*p, Box::new(idx));
                    }
                    let meet = self.meet_of(classes.into_iter().map(Ty::Class).collect());
                    if idx.prefix_exact(1) {
                        meet.exact()
                    } else {
                        meet
                    }
                } else {
                    // S-PRE-IN as a rewrite: `P[PT.C] ≈ PT` when PT is a
                    // family expression at P's level (e.g.
                    // `pair[pair[this.class].Translator] ≈ pair[this.class]`).
                    if let Ty::Nested(inner, _c) = &idx {
                        let level_ok = match &**inner {
                            Ty::Prefix(p2, _) => {
                                self.table.related(*p, *p2)
                                    || self.table.is_subclass(*p, *p2)
                                    || self.table.is_subclass(*p2, *p)
                            }
                            Ty::Dep(_) | Ty::Exact(_) => self
                                .bound(inner)
                                .ok()
                                .map(|b| {
                                    let mem = self.table.mem(&b);
                                    !mem.is_empty()
                                        && mem.iter().all(|m| {
                                            self.table.is_subclass(*m, *p)
                                                || self.table.related(*p, *m)
                                        })
                                })
                                .unwrap_or(false),
                            _ => false,
                        };
                        if level_ok {
                            return (**inner).clone();
                        }
                    }
                    Ty::Prefix(*p, Box::new(idx))
                }
            }
            Ty::Exact(inner) => {
                let inner = self.canon(inner);
                if inner.is_exact() {
                    inner
                } else {
                    Ty::Exact(Box::new(inner))
                }
            }
            Ty::Meet(ts) => {
                let parts: Vec<Ty> = ts.iter().map(|ti| self.canon(ti)).collect();
                self.meet_of(parts)
            }
        }
    }

    fn meet_of(&self, parts: Vec<Ty>) -> Ty {
        let mut flat: Vec<Ty> = Vec::new();
        for p in parts {
            match p {
                Ty::Meet(inner) => {
                    for i in inner {
                        if !flat.contains(&i) {
                            flat.push(i);
                        }
                    }
                }
                other => {
                    if !flat.contains(&other) {
                        flat.push(other);
                    }
                }
            }
        }
        // Drop strict supers of other members: `A & B = B` when B ≤ A.
        // (Only for plain classes, where it is cheap and safe.)
        let classes: Vec<ClassId> = flat
            .iter()
            .filter_map(|t| match t {
                Ty::Class(c) => Some(*c),
                _ => None,
            })
            .collect();
        flat.retain(|t| match t {
            Ty::Class(c) => !classes
                .iter()
                .any(|o| o != c && self.table.is_subclass(*o, *c)),
            _ => true,
        });
        flat.sort();
        match flat.len() {
            0 => Ty::Meet(Vec::new()),
            1 => flat.pop().expect("one element"),
            _ => Ty::Meet(flat),
        }
    }

    /// Canonicalises a masked type.
    pub fn canon_type(&self, t: &Type) -> Type {
        Type {
            ty: self.canon(&t.ty),
            masks: t.masks.clone(),
        }
    }

    // ------------------------------------------------------------- paths

    /// `Γ ⊢final p : T` (Fig. 10): the static type of a final access path.
    pub fn type_of_path(&self, p: &TPath) -> JResult<Type> {
        let mut t = self
            .env
            .var(p.base)
            .cloned()
            .ok_or_else(|| format!("unbound variable `{}`", self.table.name_str(p.base)))?;
        for f in &p.fields {
            t = self.ftype(&t, *f)?;
        }
        Ok(t)
    }

    /// `ptype(Γ, p)` (§4.12): the dependent type given to a path
    /// expression — `p.class` with the masks of its declared type.
    pub fn ptype(&self, p: &TPath) -> JResult<Type> {
        let t = self.type_of_path(p)?;
        if matches!(t.ty, Ty::Prim(_)) {
            return Ok(t); // primitives are not family members
        }
        Ok(Ty::Dep(p.clone()).with_masks(t.masks))
    }

    // ------------------------------------------------------------- bounds

    /// `Γ ⊢ T ◁ PS` (Fig. 13): the most specific pure non-dependent bound.
    pub fn bound(&self, t: &Ty) -> JResult<Ty> {
        let r = match t {
            Ty::Prim(_) | Ty::Class(_) => t.clone(),
            Ty::Dep(p) => {
                let pt = self.type_of_path(p)?;
                match &pt.ty {
                    Ty::Dep(q) if q == p => {
                        return Err(format!(
                            "cannot bound self-referential path `{}`",
                            self.table.show_ty(&pt.ty)
                        ))
                    }
                    other => self.bound(other)?,
                }
            }
            Ty::Nested(inner, c) => {
                let b = self.bound(inner)?;
                Ty::Nested(Box::new(b), *c)
            }
            Ty::Prefix(p, idx) => {
                let b = self.bound(idx)?;
                Ty::Prefix(*p, Box::new(b))
            }
            Ty::Exact(inner) => self.bound(inner)?,
            Ty::Meet(ts) => {
                let parts: JResult<Vec<Ty>> = ts.iter().map(|ti| self.bound(ti)).collect();
                Ty::Meet(parts?)
            }
        };
        Ok(self.canon(&strip_exact(&r)))
    }

    /// The member classes of the bound of `t` (i.e. `mem(bound(t))`).
    pub fn bound_members(&self, t: &Ty) -> JResult<Vec<ClassId>> {
        let b = self.bound(t)?;
        Ok(self.table.mem(&b))
    }

    // ------------------------------------------------------------ members

    /// `ftypedecl(Γ, T, f)`: the declared type of field `f` of `T`
    /// (possibly `this`-dependent), together with the declaring class.
    pub fn ftypedecl(&self, t: &Ty, f: Name) -> JResult<(ClassId, Type, bool)> {
        for m in self.bound_members(t)? {
            if let Some((owner, fi)) = self.table.field(m, f) {
                return Ok((owner, fi.ty, fi.is_final));
            }
        }
        Err(format!(
            "type `{}` has no field `{}`",
            self.table.show_ty(t),
            self.table.name_str(f)
        ))
    }

    /// `ftype(Γ, T, f)` (Fig. 9): the field type with the receiver
    /// substituted for `this`. Errors if `f` is masked in `T`.
    pub fn ftype(&self, t: &Type, f: Name) -> JResult<Type> {
        if t.is_masked(f) {
            return Err(format!(
                "field `{}` is masked in type `{}` and cannot be accessed",
                self.table.name_str(f),
                self.table.show_type(t)
            ));
        }
        let (_owner, decl, _) = self.ftypedecl(&t.ty, f)?;
        let ty = self.subst(&decl.ty, self.table.this_name, &t.ty)?;
        Ok(ty.with_masks(decl.masks))
    }

    /// `mtype(Γ, T, m)`: the signature of method `m` on `T`, with its
    /// declaring class.
    pub fn mtype(&self, t: &Ty, m: Name) -> JResult<(ClassId, crate::table::MethodSig)> {
        for mm in self.bound_members(t)? {
            if let Some(found) = self.table.method(mm, m) {
                return Ok(found);
            }
        }
        Err(format!(
            "type `{}` has no method `{}`",
            self.table.show_ty(t),
            self.table.name_str(m)
        ))
    }

    // ------------------------------------------------------ substitution

    /// `T{{Γ; Tx/x}}` (Fig. 14): substitutes `pure(tx)` for `x.class`.
    pub fn subst(&self, t: &Ty, x: Name, tx: &Ty) -> JResult<Ty> {
        let r = match t {
            Ty::Prim(_) | Ty::Class(_) => t.clone(),
            Ty::Dep(p) => {
                if p.base != x {
                    t.clone()
                } else if p.fields.is_empty() {
                    strip_masks_ty(tx)
                } else {
                    match tx {
                        // p.class{..} = p'.class  ⇒  p.f.class{..} = p'.f.class
                        Ty::Dep(q) => {
                            let mut fields = q.fields.clone();
                            fields.extend(p.fields.iter().copied());
                            Ty::Dep(TPath {
                                base: q.base,
                                fields,
                            })
                        }
                        other => {
                            // Resolve the field chain against the replacement.
                            let mut cur: Type = other.clone().unmasked();
                            for f in &p.fields {
                                cur = self.ftype(&cur, *f)?;
                            }
                            strip_masks_ty(&cur.ty)
                        }
                    }
                }
            }
            Ty::Nested(inner, c) => Ty::Nested(Box::new(self.subst(inner, x, tx)?), *c),
            Ty::Prefix(p, idx) => Ty::Prefix(*p, Box::new(self.subst(idx, x, tx)?)),
            Ty::Exact(inner) => Ty::Exact(Box::new(self.subst(inner, x, tx)?)),
            Ty::Meet(ts) => {
                let parts: JResult<Vec<Ty>> = ts.iter().map(|ti| self.subst(ti, x, tx)).collect();
                Ty::Meet(parts?)
            }
        };
        Ok(self.canon(&r))
    }

    /// Exactness-preserving substitution `T{{Γ; Tx/x!}}` (§4.10): fails if
    /// the substitution loses prefix exactness.
    pub fn subst_exact(&self, t: &Ty, x: Name, tx: &Ty) -> JResult<Ty> {
        let r = self.subst(t, x, tx)?;
        let depth = ty_depth(t) + 2;
        for k in 0..depth {
            if t.prefix_exact(k) && !r.prefix_exact(k) {
                return Err(format!(
                    "substituting `{}` for `{}.class` in `{}` loses exactness (family identity)",
                    self.table.show_ty(tx),
                    self.table.name_str(x),
                    self.table.show_ty(t)
                ));
            }
        }
        Ok(r)
    }

    // ---------------------------------------------------------- subtyping

    /// `Γ ⊢ T1 ≤ T2` on masked types: mask sets may only grow.
    pub fn sub(&self, t1: &Type, t2: &Type) -> bool {
        t1.masks.is_subset(&t2.masks) && self.sub_pure(&t1.ty, &t2.ty)
    }

    /// `Γ ⊢ T1 ≈ T2` (mutual subtyping) on masked types.
    pub fn equiv(&self, t1: &Type, t2: &Type) -> bool {
        self.sub(t1, t2) && self.sub(t2, t1)
    }

    /// `Γ ⊢ PT1 ≤ PT2` on pure types.
    pub fn sub_pure(&self, s: &Ty, t: &Ty) -> bool {
        let s = self.canon(s);
        let t = self.canon(t);
        let key = (s.clone(), t.clone());
        if self.goals.borrow().contains(&key) {
            return false; // already being tried on this path: cut
        }
        if *self.depth.borrow() > MAX_SUB_DEPTH {
            return false;
        }
        self.goals.borrow_mut().insert(key.clone());
        *self.depth.borrow_mut() += 1;
        let r = self.sub_inner(&s, &t);
        *self.depth.borrow_mut() -= 1;
        self.goals.borrow_mut().remove(&key);
        r
    }

    fn sub_inner(&self, s: &Ty, t: &Ty) -> bool {
        use Ty::*;
        if s == t {
            return true;
        }
        // S-MEET-G: S ≤ &T iff S ≤ every Ti.
        if let Meet(ts) = t {
            return ts.iter().all(|ti| self.sub_pure(s, ti));
        }
        // S-MEET-LB + transitivity.
        if let Meet(ss) = s {
            if ss.iter().any(|si| self.sub_pure(si, t)) {
                return true;
            }
        }
        if let Prim(_) = s {
            return false; // primitives only subtype themselves
        }
        if let Prim(_) = t {
            return false;
        }
        // S-FIN / S-FIN-EXACT on the left.
        if let Dep(p) = s {
            if let Ok(pt) = self.type_of_path(p) {
                let b = pt.ty.clone();
                if !matches!(b, Dep(ref q) if q == p) {
                    // If the declared type is exact, p.class ≈ it; either way
                    // p.class ≤ pure(T_p).
                    if self.sub_pure(&b, t) {
                        return true;
                    }
                }
                // fall through to bound-based route
                if let Ok(bb) = self.bound(s) {
                    if bb != *s && t.is_non_dependent() && self.sub_pure(&bb, t) {
                        // Sound only when the target does not demand
                        // exactness the bound cannot witness.
                        if !t.is_exact() {
                            return true;
                        }
                    }
                }
            }
            // S-FIN-EXACT right-to-left handled in the Dep-on-right case.
        }
        // S-FIN-EXACT on the right: S ≤ q.class iff S ≈ PT! where the
        // declared type of q is the exact PT!.
        if let Dep(q) = t {
            if let Ok(qt) = self.type_of_path(q) {
                if qt.ty.is_exact() && !matches!(qt.ty, Dep(ref r) if r == q) {
                    return self.sub_pure(s, &qt.ty) && self.sub_pure(&qt.ty, s);
                }
            }
            return false;
        }
        // Exact on the left.
        if let Exact(x) = s {
            if let Exact(y) = t {
                return self.sub_pure(x, y) && self.sub_pure(y, x);
            }
            // S-EXACT: T.C! ≤ T!.C (push exactness one level in). Canon
            // folds `T.C` into class ids, so decompose first.
            if let Some((x0, c)) = self.decompose(x) {
                let pushed = Nested(Box::new(self.canon(&x0).exact()), c);
                if self.sub_pure(&pushed, t) {
                    return true;
                }
            }
            // S-BOUND: T! ≤ bound(T) ≤ t (only for non-exact targets).
            if !t.is_exact() {
                if let Ok(b) = self.bound(s) {
                    if b != *s && self.sub_pure(&b, t) {
                        return true;
                    }
                }
            }
            return false;
        }
        // Exact on the right (left not exact): only prefix equivalences can
        // produce exact types; handled through canon. Otherwise reject.
        if let Exact(_) = t {
            // A non-exact type whose canonical form is exact (e.g. a prefix
            // of a dependent class) was already canonicalised; remaining
            // cases are unsound to accept.
            if let Prefix(_, _) = s {
                // fall through to prefix handling below
            } else {
                return false;
            }
        }
        // Prefix rules.
        if let Prefix(p1, idx1) = s {
            // S-PRE-IN: P[PT.C] ≈ PT.
            if let Nested(inner, _c) = &**idx1 {
                if self.prefix_wf(*p1, idx1) && self.sub_pure(inner, t) {
                    return true;
                }
            }
            // Resolve a prefix of a dependent class through the path's
            // declared type (S-FIN lifted to prefixes): `P[p.class]` is a
            // subtype of `P[bound]` by S-PRE-1, and *equivalent* to it when
            // the declared type pins the family exactly.
            if let Dep(q) = &**idx1 {
                if let Ok(pt) = self.type_of_path(q) {
                    if !matches!(pt.ty, Dep(ref r) if r == q) {
                        let s2 = self.canon(&Prefix(*p1, Box::new(pt.ty.clone())));
                        if s2 != *s && self.sub_pure(&s2, t) {
                            return true;
                        }
                    }
                }
            }
            if let Prefix(p2, idx2) = t {
                if self.canon(idx1) == self.canon(idx2)
                    && (self.table.related(*p1, *p2)
                        || self.table.is_subclass(*p1, *p2)
                        || self.table.is_subclass(*p2, *p1))
                    && self.prefix_wf(*p1, idx1)
                    && self.prefix_wf(*p2, idx2)
                {
                    return true;
                }
            }
            // bound route for dependent indices
            if t.is_non_dependent() && !t.is_exact() {
                if let Ok(b) = self.bound(s) {
                    if b != *s && self.sub_pure(&b, t) {
                        return true;
                    }
                }
            }
            return false;
        }
        if let Prefix(p2, idx2) = t {
            // S-PRE-IN used right-to-left: PT ≤ P[PT.C] when the index is a
            // member of PT.
            if let Nested(inner, _c) = &**idx2 {
                if self.prefix_wf(*p2, idx2) && self.sub_pure(s, inner) {
                    return true;
                }
            }
            // Prefix of a dependent class on the right: only sound when the
            // path's declared type pins the family exactly (≈, not ≤).
            if let Dep(q) = &**idx2 {
                if let Ok(pt) = self.type_of_path(q) {
                    if pt.ty.prefix_exact(1) && !matches!(pt.ty, Dep(ref r) if r == q) {
                        let t2 = self.canon(&Prefix(*p2, Box::new(pt.ty.clone())));
                        if t2 != *t && self.sub_pure(s, &t2) {
                            return true;
                        }
                    }
                }
            }
            return false;
        }
        // Nested / class structural rules.
        // Normalise a plain class to Nested(parent, name) for decomposition.
        let s_decomp = self.decompose(s);
        let t_decomp = self.decompose(t);
        if let (Some((s0, cs)), Some((t0, ct))) = (&s_decomp, &t_decomp) {
            // S-NEST
            if cs == ct && self.sub_pure(s0, t0) {
                return true;
            }
        }
        // Class-to-class: the supers closure decides directly.
        if let (Class(p), Class(q)) = (s, t) {
            return self.table.is_subclass(*p, *q);
        }
        // S-PRE-OUT: PT ≤ P[PT].C  when PT ≤ P.C.
        if let Some((Prefix(p, idx), ct)) = &t_decomp {
            if self.canon(idx) == *s {
                if let Some(m) = self
                    .table
                    .mem(&Class(*p))
                    .first()
                    .and_then(|pp| self.table.member(*pp, *ct))
                {
                    if self.sub_pure(s, &Class(m)) {
                        return true;
                    }
                }
            }
        }
        // S-SUP: go up through a declared supertype.
        if let Some((s0, cs)) = &s_decomp {
            if let Ok(members) = self.bound_members(s0) {
                for p in members {
                    if let Some(pc) = self.table.member(p, *cs) {
                        let whole = Nested(Box::new(s0.clone()), *cs);
                        // Own extends plus reinterpreted inherited ones.
                        for ext in &self.table.all_extends(pc) {
                            // S-SUP needs a supertype, not family identity,
                            // so when the exactness-preserving substitution
                            // fails, the plain one is still a sound step.
                            let subbed = self
                                .subst_exact(ext, self.table.this_name, &whole)
                                .or_else(|_| self.subst(ext, self.table.this_name, &whole));
                            if let Ok(sup) = subbed {
                                if self.sub_pure(&sup, t) {
                                    return true;
                                }
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// Decomposes a type into `(enclosing, member-name)` if it has the form
    /// `T.C` (treating resolved classes as `parent.C`).
    fn decompose(&self, t: &Ty) -> Option<(Ty, Name)> {
        match t {
            Ty::Nested(inner, c) => Some(((**inner).clone(), *c)),
            Ty::Class(p) => {
                let parent = self.table.parent(*p)?;
                Some((Ty::Class(parent), self.table.simple_name(*p)))
            }
            _ => None,
        }
    }

    /// Whether `P[idx]` is well-formed: the prefix set of the index bound
    /// is non-empty (WF-PRE).
    pub fn prefix_wf(&self, p: ClassId, idx: &Ty) -> bool {
        match self.bound(idx) {
            Ok(b) => !self.table.prefix_classes(p, &b).is_empty(),
            Err(_) => false,
        }
    }
}

/// Strips masks from a pure-type computation result (masks only live in
/// [`Type`]).
fn strip_masks_ty(t: &Ty) -> Ty {
    t.clone()
}

fn strip_exact(t: &Ty) -> Ty {
    match t {
        Ty::Exact(inner) => strip_exact(inner),
        other => other.clone(),
    }
}

fn ty_depth(t: &Ty) -> u32 {
    match t {
        Ty::Prim(_) | Ty::Class(_) | Ty::Dep(_) => 1,
        Ty::Nested(i, _) | Ty::Exact(i) => 1 + ty_depth(i),
        Ty::Prefix(_, i) => 1 + ty_depth(i),
        Ty::Meet(ts) => 1 + ts.iter().map(ty_depth).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure12;
    use crate::table::FieldInfo;
    use jns_syntax::PrimTy;

    fn setup() -> (
        crate::table::ClassTable,
        std::collections::HashMap<&'static str, ClassId>,
    ) {
        figure12()
    }

    fn cls(id: ClassId) -> Ty {
        Ty::Class(id)
    }

    fn nested_exact(fam: ClassId, c: Name) -> Ty {
        // Fam!.C
        Ty::Nested(Box::new(Ty::Class(fam).exact()), c)
    }

    #[test]
    fn class_subtyping_via_supers() {
        let (t, ids) = setup();
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        // ASTDisplay.Binary ≤ AST.Binary (further binding).
        assert!(j.sub_pure(&cls(ids["AD.Binary"]), &cls(ids["AST.Binary"])));
        // ASTDisplay.Binary ≤ ASTDisplay.Exp (declared supertype).
        assert!(j.sub_pure(&cls(ids["AD.Binary"]), &cls(ids["AD.Exp"])));
        // ASTDisplay.Binary ≤ TreeDisplay.Node (via Composite).
        assert!(j.sub_pure(&cls(ids["AD.Binary"]), &cls(ids["TD.Node"])));
        // Not the other way.
        assert!(!j.sub_pure(&cls(ids["AST.Binary"]), &cls(ids["AD.Binary"])));
        // Unrelated classes are not subtypes.
        assert!(!j.sub_pure(&cls(ids["AST.Value"]), &cls(ids["AST.Binary"])));
    }

    /// The §2.1 exactness chain:
    /// `ASTDisplay.Exp!  ≤  ASTDisplay!.Exp  ≤  ASTDisplay.Exp`,
    /// but `ASTDisplay.Exp! ≰ AST.Exp!` and `ASTDisplay!.Exp ≰ AST!.Exp`.
    #[test]
    fn exactness_claims_from_paper() {
        let (t, ids) = setup();
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        let exp = t.intern("Exp");
        let ad_exp_exact = cls(ids["AD.Exp"]).exact(); // ASTDisplay.Exp!
        let ad_exact_exp = nested_exact(ids["ASTDisplay"], exp); // ASTDisplay!.Exp
        let ad_exp = cls(ids["AD.Exp"]); // ASTDisplay.Exp
        assert!(j.sub_pure(&ad_exp_exact, &ad_exact_exp), "T.C! <= T!.C");
        assert!(j.sub_pure(&ad_exact_exp, &ad_exp), "T!.C <= T.C");
        assert!(j.sub_pure(&ad_exp_exact, &ad_exp), "transitivity");

        let ast_exp_exact = cls(ids["AST.Exp"]).exact();
        assert!(
            !j.sub_pure(&ad_exp_exact, &ast_exp_exact),
            "exact types of different classes are unrelated"
        );
        let ast_exact_exp = nested_exact(ids["AST"], exp);
        assert!(
            !j.sub_pure(&ad_exact_exp, &ast_exact_exp),
            "family-exact types mark family boundaries"
        );
        // But without exactness, ASTDisplay.Exp <= AST.Exp.
        assert!(j.sub_pure(&ad_exp, &cls(ids["AST.Exp"])));
    }

    #[test]
    fn exact_value_types_reach_family_supertypes() {
        let (t, ids) = setup();
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        let exp = t.intern("Exp");
        // AST.Binary! ≤ AST!.Exp (S-EXACT then S-SUP with exactness-preserving subst).
        let src = cls(ids["AST.Binary"]).exact();
        let tgt = nested_exact(ids["AST"], exp);
        assert!(j.sub_pure(&src, &tgt));
        // AD.Binary! ≤ AD!.Exp but not ≤ AST!.Exp.
        let src2 = cls(ids["AD.Binary"]).exact();
        assert!(j.sub_pure(&src2, &nested_exact(ids["ASTDisplay"], exp)));
        assert!(!j.sub_pure(&src2, &tgt));
    }

    #[test]
    fn dependent_class_subtyping() {
        let (t, ids) = setup();
        let mut env = TypeEnv::new();
        let x = t.intern("x");
        // x : ASTDisplay.Binary
        env.bind(x, cls(ids["AD.Binary"]).unmasked());
        let j = Judge::new(&t, &env);
        let xc = Ty::Dep(TPath::var(x));
        // x.class ≤ ASTDisplay.Binary ≤ AST.Exp
        assert!(j.sub_pure(&xc, &cls(ids["AD.Binary"])));
        assert!(j.sub_pure(&xc, &cls(ids["AST.Exp"])));
        // but AST.Binary ≰ x.class
        assert!(!j.sub_pure(&cls(ids["AST.Binary"]), &xc));
        // x.class is exact.
        assert!(xc.is_exact());
    }

    #[test]
    fn dependent_prefix_types_equivalent_across_related_families() {
        let (t, ids) = setup();
        let mut env = TypeEnv::new();
        let thisn = t.this_name;
        env.bind(thisn, cls(ids["AD.Binary"]).unmasked());
        let j = Judge::new(&t, &env);
        let exp = t.intern("Exp");
        // AST[this.class].Exp ≈ ASTDisplay[this.class].Exp  (S-PRE-2)
        let p1 = Ty::Nested(
            Box::new(Ty::Prefix(ids["AST"], Box::new(Ty::Dep(TPath::var(thisn))))),
            exp,
        );
        let p2 = Ty::Nested(
            Box::new(Ty::Prefix(
                ids["ASTDisplay"],
                Box::new(Ty::Dep(TPath::var(thisn))),
            )),
            exp,
        );
        assert!(j.sub_pure(&p1, &p2));
        assert!(j.sub_pure(&p2, &p1));
    }

    #[test]
    fn new_object_type_flows_into_family_field_type() {
        let (t, ids) = setup();
        let mut env = TypeEnv::new();
        let thisn = t.this_name;
        env.bind(thisn, cls(ids["AD.Binary"]).unmasked());
        let j = Judge::new(&t, &env);
        let exp = t.intern("Exp");
        let binary = t.intern("Binary");
        // (AD[this.class].Binary)!  ≤  AD[this.class].Exp
        let new_t = Ty::Nested(
            Box::new(Ty::Prefix(
                ids["ASTDisplay"],
                Box::new(Ty::Dep(TPath::var(thisn))),
            )),
            binary,
        )
        .exact();
        let field_t = Ty::Nested(
            Box::new(Ty::Prefix(
                ids["ASTDisplay"],
                Box::new(Ty::Dep(TPath::var(thisn))),
            )),
            exp,
        );
        assert!(j.sub_pure(&new_t, &field_t));
    }

    #[test]
    fn prefix_canon_resolves_non_dependent_index() {
        let (t, ids) = setup();
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        // AST[AST.Binary!] canonicalises to AST! (exact, single family).
        let idx = cls(ids["AST.Binary"]).exact();
        let pre = Ty::Prefix(ids["AST"], Box::new(idx));
        let canon = j.canon(&pre);
        assert_eq!(canon, cls(ids["AST"]).exact());
    }

    #[test]
    fn masks_on_types_direct_subtyping() {
        let (t, ids) = setup();
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        let f = t.intern("f");
        let plain = cls(ids["AST.Exp"]).unmasked();
        let masked = cls(ids["AST.Exp"]).unmasked().masked(f);
        assert!(j.sub(&plain, &masked), "T <= T\\f (S-MASK)");
        assert!(!j.sub(&masked, &plain), "masks cannot be forgotten");
    }

    #[test]
    fn ftype_substitutes_receiver_for_this() {
        let (t, ids) = setup();
        // Give AST.Binary a field l : AST[this.class].Exp.
        let l = t.intern("l");
        let exp = t.intern("Exp");
        let field_ty = Ty::Nested(
            Box::new(Ty::Prefix(
                ids["AST"],
                Box::new(Ty::Dep(TPath::var(t.this_name))),
            )),
            exp,
        );
        t.update(ids["AST.Binary"], |ci| {
            ci.fields.push(FieldInfo {
                name: l,
                is_final: false,
                ty: field_ty.unmasked(),
                has_init: true,
            })
        });
        let mut env = TypeEnv::new();
        let b = t.intern("b");
        env.bind(b, cls(ids["AD.Binary"]).unmasked());
        let j = Judge::new(&t, &env);
        // Receiver b.class: field type is AST[b.class].Exp.
        let recv = Ty::Dep(TPath::var(b)).unmasked();
        let ft = j.ftype(&recv, l).unwrap();
        assert_eq!(
            ft.ty,
            Ty::Nested(
                Box::new(Ty::Prefix(ids["AST"], Box::new(Ty::Dep(TPath::var(b))))),
                exp
            )
        );
        // Receiver AD.Binary! (a view): field type resolves into the AD family.
        let recv2 = cls(ids["AD.Binary"]).exact().unmasked();
        let ft2 = j.ftype(&recv2, l).unwrap();
        // AST[AD.Binary!].Exp = (AST & ASTDisplay & TreeDisplay)!.Exp; its
        // members must include ASTDisplay.Exp.
        let members = j.bound_members(&ft2.ty).unwrap();
        assert!(members.contains(&ids["AD.Exp"]));
    }

    #[test]
    fn ftype_fails_on_masked_field() {
        let (t, ids) = setup();
        let g = t.intern("g");
        t.update(ids["AST.Exp"], |ci| {
            ci.fields.push(FieldInfo {
                name: g,
                is_final: false,
                ty: cls(ids["AST.Exp"]).unmasked(),
                has_init: false,
            })
        });
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        let recv = cls(ids["AST.Exp"]).unmasked().masked(g);
        let err = j.ftype(&recv, g).unwrap_err();
        assert!(err.contains("masked"), "{err}");
    }

    #[test]
    fn subst_exact_rejects_losing_exactness() {
        let (t, ids) = setup();
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        let exp = t.intern("Exp");
        let x = t.intern("x");
        let dep_ty = Ty::Nested(
            Box::new(Ty::Prefix(ids["AST"], Box::new(Ty::Dep(TPath::var(x))))),
            exp,
        );
        // Substituting the non-exact AST.Binary for x.class loses exactness.
        assert!(j.subst_exact(&dep_ty, x, &cls(ids["AST.Binary"])).is_err());
        // Substituting the exact AST.Binary! preserves it.
        let r = j
            .subst_exact(&dep_ty, x, &cls(ids["AST.Binary"]).exact())
            .unwrap();
        assert!(r.prefix_exact(1));
    }

    #[test]
    fn subst_on_field_paths() {
        let (t, ids) = setup();
        let l = t.intern("l");
        t.update(ids["AST.Binary"], |ci| {
            ci.fields.push(FieldInfo {
                name: l,
                is_final: true,
                ty: cls(ids["AST.Exp"]).unmasked(),
                has_init: true,
            })
        });
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        let x = t.intern("x");
        // (x.l.class){AST.Binary!/x} resolves the field against the class.
        let dep = Ty::Dep(TPath {
            base: x,
            fields: vec![l],
        });
        let r = j.subst(&dep, x, &cls(ids["AST.Binary"]).exact()).unwrap();
        assert_eq!(r, cls(ids["AST.Exp"]));
        // Substituting another path extends the path.
        let y = t.intern("y");
        let r2 = j.subst(&dep, x, &Ty::Dep(TPath::var(y))).unwrap();
        assert_eq!(
            r2,
            Ty::Dep(TPath {
                base: y,
                fields: vec![l]
            })
        );
    }

    #[test]
    fn prim_types_only_subtype_themselves() {
        let (t, _ids) = setup();
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        assert!(j.sub_pure(&Ty::Prim(PrimTy::Int), &Ty::Prim(PrimTy::Int)));
        assert!(!j.sub_pure(&Ty::Prim(PrimTy::Int), &Ty::Prim(PrimTy::Bool)));
        assert!(!j.sub_pure(&Ty::Prim(PrimTy::Int), &cls(ClassId(1))));
    }

    #[test]
    fn meet_subtyping() {
        let (t, ids) = setup();
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        let meet = Ty::Meet(vec![cls(ids["AST"]), cls(ids["TreeDisplay"])]);
        assert!(j.sub_pure(&meet, &cls(ids["AST"])), "&T <= Ti");
        assert!(j.sub_pure(&meet, &cls(ids["TreeDisplay"])));
        assert!(
            j.sub_pure(&cls(ids["ASTDisplay"]), &meet),
            "S <= &T when S <= every Ti"
        );
        assert!(!j.sub_pure(&cls(ids["AST"]), &meet));
    }

    #[test]
    fn bound_of_dependent_chain() {
        let (t, ids) = setup();
        let mut env = TypeEnv::new();
        let x = t.intern("x");
        let y = t.intern("y");
        env.bind(x, cls(ids["AD.Binary"]).unmasked());
        env.bind(y, Ty::Dep(TPath::var(x)).unmasked());
        let j = Judge::new(&t, &env);
        assert_eq!(
            j.bound(&Ty::Dep(TPath::var(y))).unwrap(),
            cls(ids["AD.Binary"])
        );
    }
}
