//! Class sharing: declared relationships, the induced equivalence relation,
//! field-copy attribution (`fclass`, §4.15), required view-change masks,
//! directional sharing inference (§3.3), and the sharing judgment
//! `Γ ⊢ T1 ⤳ T2` (Fig. 10, SH-*).

use crate::judge::Judge;
use crate::names::Name;
use crate::table::ClassTable;
use crate::ty::{ClassId, Ty, Type};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// The computed sharing structure of a program.
///
/// Built once after class resolution by [`SharingTable::build`]; consulted
/// by the type checker (T-VIEW, Q-OK, L-OK) and by the evaluator (the
/// `view` function and field-copy selection).
#[derive(Debug, Default, Clone)]
pub struct SharingTable {
    /// Declared (directed) pairs: derived class -> base class, with the
    /// masks written in the `shares` clause.
    pub declared: Vec<(ClassId, ClassId, BTreeSet<Name>)>,
    /// Sharing-equivalence partners of each class (includes the class
    /// itself; sorted).
    groups: HashMap<ClassId, Vec<ClassId>>,
    /// `fclass(P, f)`: which partner's copy of field `f` a `P`-view reads.
    fclass: HashMap<(ClassId, Name), ClassId>,
    /// Fields that ended up duplicated, per declared pair (for diagnostics).
    pub duplicated: HashMap<(ClassId, ClassId), BTreeSet<Name>>,
    /// Forwarding: reading `(view-class, field)` may fall back to the
    /// other family's copy (`fclass` id) through a view change (§3.3).
    forwards: HashMap<(ClassId, Name), Vec<ClassId>>,
    /// SH-CLS's closed-world enumeration per canonical non-dependent
    /// family type (see [`SharingTable::enumerate_subclasses`]).
    subclasses: RefCell<HashMap<Ty, Enumeration>>,
}

/// One memoised enumeration: the class count it was computed at, and
/// the answer.
type Enumeration = (usize, Option<Vec<ClassId>>);

/// An error discovered while building the sharing table.
#[derive(Debug, Clone)]
pub struct SharingError {
    /// Explanation.
    pub message: String,
    /// The class the error is attributed to.
    pub class: ClassId,
}

impl SharingTable {
    /// The sharing partners of `c` (always contains `c`).
    pub fn partners(&self, c: ClassId) -> Vec<ClassId> {
        self.groups.get(&c).cloned().unwrap_or_else(|| vec![c])
    }

    /// Whether `a` and `b` are shared classes (same instance set).
    pub fn shared(&self, a: ClassId, b: ClassId) -> bool {
        a == b || self.partners(a).contains(&b)
    }

    /// `fclass(P, f)`: the partner class whose copy of `f` a `P`-view uses.
    pub fn fclass(&self, p: ClassId, f: Name) -> ClassId {
        self.fclass.get(&(p, f)).copied().unwrap_or(p)
    }

    /// Forwarding copies for `(p, f)` (§3.3 directional field reuse).
    pub fn forwards(&self, p: ClassId, f: Name) -> &[ClassId] {
        self.forwards.get(&(p, f)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The masks required on the target when viewing an `src`-instance as
    /// `dst`; `None` if `src` and `dst` are not shared.
    pub fn dir_masks(
        &self,
        table: &ClassTable,
        src: ClassId,
        dst: ClassId,
    ) -> Option<BTreeSet<Name>> {
        if src == dst {
            return Some(BTreeSet::new());
        }
        if !self.shared(src, dst) {
            return None;
        }
        let src_names = table.field_names(src);
        let mut masks = BTreeSet::new();
        for &f in table.field_names(dst).iter() {
            let dst_copy = self.fclass(dst, f);
            let src_has = src_names.contains(&f);
            let same_copy = src_has && self.fclass(src, f) == dst_copy;
            let forwarded = self
                .forwards(dst, f)
                .iter()
                .any(|alt| src_has && self.fclass(src, f) == *alt);
            if !(same_copy || forwarded) {
                masks.insert(f);
            }
        }
        Some(masks)
    }

    /// Builds the sharing table for a resolved class table.
    ///
    /// `pairs` are the declared `(derived, base, declared-masks)` sharing
    /// relationships (from `shares` clauses and `adapts` sugar).
    ///
    /// # Errors
    ///
    /// Reports illegal declarations (target not overridden by the
    /// declarer) and `final` fields that would need duplication.
    pub fn build(
        table: &ClassTable,
        pairs: Vec<(ClassId, ClassId, BTreeSet<Name>)>,
    ) -> (SharingTable, Vec<SharingError>) {
        let mut errors = Vec::new();
        let mut st = SharingTable {
            declared: Vec::new(),
            ..Default::default()
        };
        // Legality: the declarer must override (further bind, hence
        // subclass) the target, and carry the same simple name (§2.2).
        for (d, b, m) in pairs {
            if d == b {
                continue; // `shares` self: no-op
            }
            if !table.is_subclass(d, b) || table.simple_name(d) != table.simple_name(b) {
                errors.push(SharingError {
                    message: format!(
                        "class `{}` may only declare sharing with a class it overrides, not `{}`",
                        table.class_name(d),
                        table.class_name(b)
                    ),
                    class: d,
                });
                continue;
            }
            st.declared.push((d, b, m));
        }
        // Equivalence groups: reflexive-symmetric-transitive closure.
        let mut group_of: HashMap<ClassId, usize> = HashMap::new();
        let mut groups: Vec<Vec<ClassId>> = Vec::new();
        for (d, b, _) in &st.declared {
            let gd = group_of.get(d).copied();
            let gb = group_of.get(b).copied();
            match (gd, gb) {
                (None, None) => {
                    group_of.insert(*d, groups.len());
                    group_of.insert(*b, groups.len());
                    groups.push(vec![*d, *b]);
                }
                (Some(g), None) => {
                    group_of.insert(*b, g);
                    groups[g].push(*b);
                }
                (None, Some(g)) => {
                    group_of.insert(*d, g);
                    groups[g].push(*d);
                }
                (Some(g1), Some(g2)) if g1 != g2 => {
                    let moved = std::mem::take(&mut groups[g2]);
                    for c in &moved {
                        group_of.insert(*c, g1);
                    }
                    groups[g1].extend(moved);
                }
                _ => {}
            }
        }
        for g in &mut groups {
            g.sort();
            g.dedup();
        }
        for (c, g) in &group_of {
            st.groups.insert(*c, groups[*g].clone());
        }
        groups.retain(|g| !g.is_empty());
        groups.sort();

        // Field-copy attribution fixpoint. Start optimistic: every common
        // field follows the `shares` chain to the base copy; then force
        // duplication (own copy) whenever the interpreted field types are
        // not bidirectionally shared, until stable.
        let env = crate::env::TypeEnv::new();
        // duplicated[(d)] = set of fields d keeps its own copy of.
        let mut dup: HashMap<ClassId, BTreeSet<Name>> = HashMap::new();
        for (d, _b, declared_masks) in &st.declared {
            dup.entry(*d)
                .or_default()
                .extend(declared_masks.iter().copied());
        }
        loop {
            // Recompute fclass from the current duplication sets.
            st.fclass.clear();
            for (d, b, _) in &st.declared {
                let b_names = table.field_names(*b);
                for &f in table.field_names(*d).iter() {
                    let shared_field =
                        b_names.contains(&f) && !dup.get(d).is_some_and(|s| s.contains(&f));
                    if shared_field {
                        // Follow the chain: the base may itself share on.
                        let target = st.fclass(*b, f);
                        st.fclass.insert((*d, f), target);
                    }
                }
            }
            // Check interpreted field types; grow duplication sets.
            let mut changed = false;
            let judge = Judge::new(table, &env);
            for (d, b, _) in &st.declared {
                let b_names = table.field_names(*b);
                for &f in table.field_names(*d).iter() {
                    if st.fclass(*d, f) == *d {
                        continue; // already own copy
                    }
                    if !b_names.contains(&f) {
                        continue;
                    }
                    let td = interp_field(&judge, *d, f);
                    let tb = interp_field(&judge, *b, f);
                    let (Some(td), Some(tb)) = (td, tb) else {
                        continue;
                    };
                    let bidi = judge.equiv(&td, &tb)
                        || (st.shares_types(&judge, &td, &tb) && st.shares_types(&judge, &tb, &td));
                    if !bidi {
                        dup.entry(*d).or_default().insert(f);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Final fields may not be duplicated (L-OK). Reported in
        // declaration order, so the diagnostics are stable run to run.
        let mut reported = BTreeSet::new();
        for (d, _, _) in &st.declared {
            if !reported.insert(*d) {
                continue;
            }
            for f in dup.get(d).into_iter().flatten() {
                if table.field(*d, *f).is_some_and(|(_, fi)| fi.is_final) {
                    errors.push(SharingError {
                        message: format!(
                            "final field `{}` of `{}` has an unshared type and cannot be duplicated",
                            table.name_str(*f),
                            table.class_name(*d)
                        ),
                        class: *d,
                    });
                }
            }
        }
        // Record duplication for diagnostics.
        for (d, b, _) in &st.declared {
            let set = dup.get(d).cloned().unwrap_or_default();
            st.duplicated.insert((*d, *b), set);
        }
        // Directional forwarding (§3.3): a duplicated field of the target
        // may still be readable from the source copy if the source's
        // interpreted type *directionally* shares to the target's. This
        // inference is coinductive — `base!.Exp ⤳ pair!.Exp` may depend on
        // the forwarding of `Abs.e`, which depends on the relation itself —
        // so we compute a greatest fixpoint: start with every candidate
        // forward, then strike out those whose type check fails, until
        // stable. Candidates come from each group once, in class-id order.
        let judge = Judge::new(table, &env);
        let mut candidates: Vec<(ClassId, Name, ClassId)> = Vec::new();
        let mut forwards: HashMap<(ClassId, Name), Vec<ClassId>> = HashMap::new();
        for g in &groups {
            for &src in g {
                let src_names = table.field_names(src);
                for &dst in g {
                    if src == dst {
                        continue;
                    }
                    for &f in table.field_names(dst).iter() {
                        if !src_names.contains(&f) {
                            continue;
                        }
                        let src_copy = st.fclass(src, f);
                        if src_copy != st.fclass(dst, f) {
                            let entry = forwards.entry((dst, f)).or_default();
                            if !entry.contains(&src_copy) {
                                entry.push(src_copy);
                                candidates.push((dst, f, src_copy));
                            }
                        }
                    }
                }
            }
        }
        st.forwards = forwards;
        loop {
            let mut removed = false;
            for (dst, f, src_copy) in &candidates {
                if !st.forwards(*dst, *f).contains(src_copy) {
                    continue;
                }
                let ts = interp_field(&judge, *src_copy, *f);
                let td = interp_field(&judge, *dst, *f);
                let ok = match (ts, td) {
                    (Some(ts), Some(td)) => st.shares_types(&judge, &ts, &td),
                    _ => false,
                };
                if !ok {
                    if let Some(list) = st.forwards.get_mut(&(*dst, *f)) {
                        list.retain(|c| c != src_copy);
                    }
                    removed = true;
                }
            }
            if !removed {
                break;
            }
        }
        st.forwards.retain(|_, v| !v.is_empty());
        (st, errors)
    }

    /// The sharing judgment `Γ ⊢ T1 ⤳ T2` on masked types.
    ///
    /// Tries, in order: reflexivity (up to ≈), the environment's sharing
    /// constraints (SH-ENV + SH-MASK), declared/derived class sharing
    /// (SH-DECL with masks), and the closed-world family rule (SH-CLS).
    pub fn shares_types(&self, j: &Judge<'_>, t1: &Type, t2: &Type) -> bool {
        self.shares_types_in(j, t1, t2, true)
    }

    /// Like [`SharingTable::shares_types`], but when `allow_global` is
    /// false only SH-REFL and the environment's constraints are used —
    /// the modular discipline for method bodies (§2.5: "a view change can
    /// only appear in a method with an enabling sharing constraint").
    pub fn shares_types_in(&self, j: &Judge<'_>, t1: &Type, t2: &Type, allow_global: bool) -> bool {
        let c1 = j.canon_type(t1);
        let c2 = j.canon_type(t2);
        // A dependent source first tries its declared type (T-SUB before
        // T-VIEW): `e.class ⤳ T` follows from `T0 ⤳ T` when e : T0.
        if let Ty::Dep(p) = &c1.ty {
            if let Ok(pt) = j.type_of_path(p) {
                if pt.ty != c1.ty {
                    let mut masks = c1.masks.clone();
                    masks.extend(pt.masks.iter().copied());
                    if self.shares_types_in(j, &pt.ty.clone().with_masks(masks), t2, allow_global) {
                        return true;
                    }
                }
            }
        }
        // SH-REFL (up to type equivalence), masks may only grow.
        if c1.masks.is_subset(&c2.masks)
            && j.equiv(&c1.ty.clone().unmasked(), &c2.ty.clone().unmasked())
        {
            return true;
        }
        // SH-ENV: constraints of the enclosing method, with SH-MASK.
        for c in j.env.constraints() {
            let (l, r) = (j.canon_type(&c.lhs), j.canon_type(&c.rhs));
            if self.env_match(j, &c1, &c2, &l, &r) {
                return true;
            }
            if !c.directional && self.env_match(j, &c1, &c2, &r, &l) {
                return true;
            }
        }
        if !allow_global {
            return false; // modular mode: constraints only
        }
        // Class-level sharing (SH-DECL/SH-TRANS via the fclass structure).
        if let (Some(x), Some(y)) = (exact_class(j, &c1.ty), exact_class(j, &c2.ty)) {
            if let Some(required) = self.dir_masks(j.table, x, y) {
                let (x_names, y_names) = (j.table.field_names(x), j.table.field_names(y));
                let carried = c1.masks.iter().filter(|f| {
                    y_names.contains(f)
                        && x_names.contains(f)
                        && self.fclass(x, **f) == self.fclass(y, **f)
                });
                return required.iter().chain(carried).all(|f| c2.masks.contains(f));
            }
            return false;
        }
        // SH-CLS: closed-world enumeration for family types with exact
        // prefixes.
        if c1.ty.prefix_exact(1) && c2.ty.prefix_exact(1) {
            if let (Some(subs1), Some(subs2)) = (
                self.enumerate_subclasses(j, &c1.ty),
                self.enumerate_subclasses(j, &c2.ty),
            ) {
                if subs1.is_empty() {
                    return false;
                }
                return subs1.iter().all(|x| {
                    let targets: Vec<ClassId> = subs2
                        .iter()
                        .copied()
                        .filter(|y| {
                            self.dir_masks(j.table, *x, *y).is_some_and(|req| {
                                let y_names = j.table.field_names(*y);
                                req.iter()
                                    .chain(&c1.masks)
                                    .all(|f| c2.masks.contains(f) || !y_names.contains(f))
                            })
                        })
                        .collect();
                    targets.len() == 1
                });
            }
        }
        false
    }

    fn env_match(&self, j: &Judge<'_>, c1: &Type, c2: &Type, l: &Type, r: &Type) -> bool {
        // T1 ⤳ T2 follows from constraint L ⤳ R when T1 ≤ L\extra (T-SUB
        // before T-VIEW) and T2 ⊒ R\extra (SH-MASK adds the same masks to
        // both sides).
        if !j.sub_pure(&c1.ty, &l.ty) {
            return false;
        }
        if !j.equiv(&c2.ty.clone().unmasked(), &r.ty.clone().unmasked()) {
            return false;
        }
        let extra: BTreeSet<Name> = c1.masks.difference(&l.masks).copied().collect();
        let needed: BTreeSet<Name> = r.masks.union(&extra).copied().collect();
        needed.is_subset(&c2.masks)
    }

    /// Enumerates the classes `X` with `X! ≤ PS` for a family type `PS`
    /// with an exact prefix, using the locally closed world (§2.1).
    ///
    /// The answer for a non-dependent `PS` is memoised per canonical
    /// type. It does not read Γ, and `shares_types` is never reached from
    /// inside a `sub_pure` search, so it is never computed under a cycle
    /// cut. It can depend on which implicit classes exist (through `~`),
    /// so an entry answers only while the table holds as many classes as
    /// when it was computed. The checker's only `update` after building
    /// this table adds inferred method constraints, which it does not read.
    pub fn enumerate_subclasses(&self, j: &Judge<'_>, ps: &Ty) -> Option<Vec<ClassId>> {
        let ps = j.canon(ps);
        if let Some(c) = exact_class(j, &ps) {
            return Some(vec![c]);
        }
        if !ps.is_non_dependent() {
            return closed_world_subclasses(j, &ps);
        }
        let classes = j.table.len();
        if let Some((n, subs)) = self.subclasses.borrow().get(&ps) {
            if *n == classes {
                return subs.clone();
            }
        }
        let subs = closed_world_subclasses(j, &ps);
        self.subclasses
            .borrow_mut()
            .insert(ps, (classes, subs.clone()));
        subs
    }
}

/// [`SharingTable::enumerate_subclasses`] for a canonical `ps` of the form
/// `F!.C`: every member class of each family `F` (own or inherited) whose
/// exact type is a subtype of `ps`.
fn closed_world_subclasses(j: &Judge<'_>, ps: &Ty) -> Option<Vec<ClassId>> {
    let Ty::Nested(prefix, _) = ps else {
        return None;
    };
    if !prefix.is_exact() {
        return None;
    }
    let fams = j.table.mem(prefix);
    if fams.is_empty() {
        return None;
    }
    let mut out = Vec::new();
    for fam in fams {
        // All nested names visible in the family (own + inherited).
        let mut names: BTreeSet<Name> = BTreeSet::new();
        for s in j.table.supers(fam) {
            let info = j.table.class(s);
            names.extend(info.nested_explicit.keys().copied());
        }
        for n in names {
            if let Some(m) = j.table.member(fam, n) {
                if j.sub_pure(&Ty::Class(m).exact(), ps) && !out.contains(&m) {
                    out.push(m);
                }
            }
        }
    }
    Some(out)
}

/// If `t` denotes a single exact class, returns it.
fn exact_class(j: &Judge<'_>, t: &Ty) -> Option<ClassId> {
    let c = j.canon(t);
    match c {
        Ty::Exact(inner) => match *inner {
            Ty::Class(id) => Some(id),
            Ty::Meet(_) => {
                let m = j.table.mem(&inner);
                if m.len() == 1 {
                    Some(m[0])
                } else {
                    None
                }
            }
            _ => None,
        },
        _ => None,
    }
}

/// Interprets field `f` as seen from the exact view `c!`.
fn interp_field(j: &Judge<'_>, c: ClassId, f: Name) -> Option<Type> {
    j.ftype(&Ty::Class(c).exact().unmasked(), f).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::TypeEnv;
    use crate::fixtures::figure12;
    use crate::table::{ConstraintInfo, FieldInfo};
    use crate::ty::TPath;

    /// Figure 3: share all expression classes between AST and ASTDisplay.
    fn figure3() -> (
        ClassTable,
        std::collections::HashMap<&'static str, ClassId>,
        SharingTable,
    ) {
        let (t, mut ids) = figure12();
        // ASTDisplay.Value shares AST.Value — materialise AD.Value first.
        let ad_value = t.member(ids["ASTDisplay"], t.intern("Value")).unwrap();
        ids.insert("AD.Value", ad_value);
        let pairs = vec![
            (ids["AD.Exp"], ids["AST.Exp"], BTreeSet::new()),
            (ids["AD.Value"], ids["AST.Value"], BTreeSet::new()),
            (ids["AD.Binary"], ids["AST.Binary"], BTreeSet::new()),
        ];
        let (st, errs) = SharingTable::build(&t, pairs);
        assert!(errs.is_empty(), "{errs:?}");
        (t, ids, st)
    }

    #[test]
    fn partners_form_equivalence_groups() {
        let (_t, ids, st) = figure3();
        assert!(st.shared(ids["AD.Exp"], ids["AST.Exp"]));
        assert!(st.shared(ids["AST.Exp"], ids["AD.Exp"]), "symmetric");
        assert!(st.shared(ids["AST.Exp"], ids["AST.Exp"]), "reflexive");
        assert!(!st.shared(ids["AST.Exp"], ids["AST.Binary"]));
    }

    #[test]
    fn illegal_sharing_rejected() {
        let (t, ids) = figure12();
        // AST.Exp does not override TreeDisplay.Node.
        let (_, errs) =
            SharingTable::build(&t, vec![(ids["AST.Exp"], ids["TD.Node"], BTreeSet::new())]);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("overrides"));
    }

    #[test]
    fn family_level_sharing_judgment_sh_cls() {
        let (t, ids, st) = figure3();
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        let exp = t.intern("Exp");
        // AST!.Exp ⤳ ASTDisplay!.Exp: every subclass of AST!.Exp has a
        // unique shared subclass under ASTDisplay!.Exp.
        let src = Ty::Nested(Box::new(Ty::Class(ids["AST"]).exact()), exp).unmasked();
        let dst = Ty::Nested(Box::new(Ty::Class(ids["ASTDisplay"]).exact()), exp).unmasked();
        assert!(st.shares_types(&j, &src, &dst));
        assert!(st.shares_types(&j, &dst, &src), "bidirectional here");
    }

    #[test]
    fn subclass_enumeration_uses_closed_world() {
        let (t, ids, st) = figure3();
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        let exp = t.intern("Exp");
        let ps = Ty::Nested(Box::new(Ty::Class(ids["AST"]).exact()), exp);
        let subs = st.enumerate_subclasses(&j, &ps).unwrap();
        assert!(subs.contains(&ids["AST.Exp"]));
        assert!(subs.contains(&ids["AST.Value"]));
        assert!(subs.contains(&ids["AST.Binary"]));
        assert!(!subs.contains(&ids["AD.Exp"]), "other family excluded");
    }

    #[test]
    fn exact_view_change_masks() {
        // Figure 5: new fields and unshared-typed fields.
        let (t, ids) = {
            let t = ClassTable::new();
            let mut ids = std::collections::HashMap::new();
            let a1 = t.add_explicit(ClassId::ROOT, t.intern("A1"));
            let a2 = t.add_explicit(ClassId::ROOT, t.intern("A2"));
            t.update(a2, |ci| ci.extends.push(Ty::Class(a1)));
            let b1 = t.add_explicit(a1, t.intern("B"));
            let c1 = t.add_explicit(a1, t.intern("C"));
            let d1 = t.add_explicit(a1, t.intern("D"));
            let b2 = t.add_explicit(a2, t.intern("B"));
            let c2 = t.add_explicit(a2, t.intern("C"));
            let e2 = t.add_explicit(a2, t.intern("E"));
            // C.g : A1[this.class].D  (late bound)
            let g = t.intern("g");
            let d_ty = Ty::Nested(
                Box::new(Ty::Prefix(a1, Box::new(Ty::Dep(TPath::var(t.this_name))))),
                t.intern("D"),
            );
            t.update(c1, |ci| {
                ci.fields.push(FieldInfo {
                    name: g,
                    is_final: false,
                    ty: d_ty.unmasked(),
                    has_init: true,
                })
            });
            // A2.E extends D (a new subclass making g's type unshared).
            t.update(e2, |ci| {
                ci.extends.push(Ty::Nested(
                    Box::new(Ty::Prefix(a2, Box::new(Ty::Dep(TPath::var(t.this_name))))),
                    t.intern("D"),
                ))
            });
            // A2.B adds a new field f.
            let f = t.intern("f");
            t.update(b2, |ci| {
                ci.fields.push(FieldInfo {
                    name: f,
                    is_final: false,
                    ty: Ty::Prim(jns_syntax::PrimTy::Int).unmasked(),
                    has_init: false,
                })
            });
            ids.insert("A1", a1);
            ids.insert("A2", a2);
            ids.insert("A1.B", b1);
            ids.insert("A1.C", c1);
            ids.insert("A1.D", d1);
            ids.insert("A2.B", b2);
            ids.insert("A2.C", c2);
            ids.insert("A2.E", e2);
            (t, ids)
        };
        let g = t.intern("g");
        let f = t.intern("f");
        let pairs = vec![
            (ids["A2.B"], ids["A1.B"], BTreeSet::new()),
            (ids["A2.C"], ids["A1.C"], BTreeSet::from([g])),
            // D itself is shared so that g *would* be shareable if not for E.
            (
                t.member(ids["A2"], t.intern("D")).unwrap(),
                ids["A1.D"],
                BTreeSet::new(),
            ),
        ];
        let (st, errs) = SharingTable::build(&t, pairs);
        assert!(errs.is_empty(), "{errs:?}");
        // New field f must be masked when moving A1.B -> A2.B.
        let m12 = st.dir_masks(&t, ids["A1.B"], ids["A2.B"]).unwrap();
        assert!(m12.contains(&f), "new field masked: {m12:?}");
        // No mask needed in the other direction (f does not exist in A1.B).
        let m21 = st.dir_masks(&t, ids["A2.B"], ids["A1.B"]).unwrap();
        assert!(m21.is_empty(), "{m21:?}");
        // Duplicated g, with the §3.3 directional refinement: going from the
        // base family to the derived family, A1's copy of g (type A1!.D)
        // can be re-viewed as A2!.D, so no mask is needed and the read
        // *forwards* to the base copy; the reverse direction must mask g,
        // because A2!.D includes the unshared subclass E.
        let c12 = st.dir_masks(&t, ids["A1.C"], ids["A2.C"]).unwrap();
        assert!(
            c12.is_empty(),
            "directional inference lifts the mask: {c12:?}"
        );
        assert_eq!(st.forwards(ids["A2.C"], g), &[ids["A1.C"]]);
        let c21 = st.dir_masks(&t, ids["A2.C"], ids["A1.C"]).unwrap();
        assert!(c21.contains(&g), "derived-to-base still masks g");
        // fclass: each C keeps its own copy of g.
        assert_eq!(st.fclass(ids["A1.C"], g), ids["A1.C"]);
        assert_eq!(st.fclass(ids["A2.C"], g), ids["A2.C"]);
        // Unrelated classes are not shared at all.
        assert_eq!(st.dir_masks(&t, ids["A1.B"], ids["A1.C"]), None);
    }

    #[test]
    fn sharing_constraint_in_environment() {
        let (t, ids, st) = figure3();
        let mut env = TypeEnv::new();
        let exp = t.intern("Exp");
        let src = Ty::Nested(Box::new(Ty::Class(ids["AST"]).exact()), exp).unmasked();
        let dst = Ty::Nested(Box::new(Ty::Class(ids["ASTDisplay"]).exact()), exp).unmasked();
        env.add_constraint(ConstraintInfo {
            lhs: src.clone(),
            rhs: dst.clone(),
            directional: true,
        });
        let j = Judge::new(&t, &env);
        assert!(st.shares_types(&j, &src, &dst), "via SH-ENV");
        // Directional: the reverse is not given by this constraint — but the
        // global closed-world rule still derives it in this program.
        let empty = TypeEnv::new();
        let j2 = Judge::new(&t, &empty);
        assert!(st.shares_types(&j2, &src, &dst));
    }

    #[test]
    fn mask_weakening_in_judgment() {
        let (t, ids, st) = figure3();
        let env = TypeEnv::new();
        let j = Judge::new(&t, &env);
        let f = t.intern("phantom");
        let src = Ty::Class(ids["AST.Exp"]).exact().unmasked();
        // Target with extra masks is still reachable (masks only grow).
        let dst = Ty::Class(ids["AD.Exp"]).exact().unmasked().masked(f);
        assert!(st.shares_types(&j, &src, &dst));
        // But a masked source cannot reach an unmasked target of a shared
        // field... (no shared fields here, so this passes trivially; the
        // real cases are exercised in the checker tests).
        let src2 = Ty::Class(ids["AST.Exp"]).exact().unmasked().masked(f);
        let dst2 = Ty::Class(ids["AD.Exp"]).exact().unmasked();
        assert!(st.shares_types(&j, &src2, &dst2), "phantom masks drop");
    }
}
