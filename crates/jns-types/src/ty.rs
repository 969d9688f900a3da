//! Internal type representation (Fig. 8 of the paper, plus primitives).
//!
//! The split between [`Ty`] (pure types `PT`) and [`Type`] (possibly masked
//! types `PT\f`) mirrors the calculus grammar: masks only ever appear
//! outermost.

use crate::names::Name;
use jns_syntax::PrimTy;
use std::collections::BTreeSet;
use std::fmt;

/// Identifies a class `P` in the class table (`◦` is `ClassId(0)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

impl ClassId {
    /// The outermost class `◦` that contains all top-level declarations.
    pub const ROOT: ClassId = ClassId(0);
}

/// A final access path `p`: a variable (possibly `this`) followed by final
/// field accesses.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TPath {
    /// The base variable (interned; `this` is a regular name).
    pub base: Name,
    /// The final fields accessed, in order.
    pub fields: Vec<Name>,
}

impl TPath {
    /// The path consisting of just a variable.
    pub fn var(base: Name) -> Self {
        TPath {
            base,
            fields: Vec::new(),
        }
    }

    /// Extends the path with one more field.
    pub fn child(&self, f: Name) -> Self {
        let mut fields = self.fields.clone();
        fields.push(f);
        TPath {
            base: self.base,
            fields,
        }
    }
}

/// A pure type `PT` (no masks).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ty {
    /// A primitive type (an extension: the calculus has only class types).
    Prim(PrimTy),
    /// A fully resolved class `P` (absolute path from `◦`).
    Class(ClassId),
    /// A dependent class `p.class`.
    Dep(TPath),
    /// A prefix type `P[PT]`.
    Prefix(ClassId, Box<Ty>),
    /// A nested member `PT.C` where `PT` is not a simple class.
    Nested(Box<Ty>, Name),
    /// An exact type `PT!`.
    Exact(Box<Ty>),
    /// An intersection `&PT` (kept sorted and flattened).
    Meet(Vec<Ty>),
}

impl Ty {
    /// `true` if the type contains no dependent classes (`PS` in Fig. 8).
    pub fn is_non_dependent(&self) -> bool {
        match self {
            Ty::Prim(_) | Ty::Class(_) => true,
            Ty::Dep(_) => false,
            Ty::Prefix(_, t) | Ty::Nested(t, _) | Ty::Exact(t) => t.is_non_dependent(),
            Ty::Meet(ts) => ts.iter().all(Ty::is_non_dependent),
        }
    }

    /// The set of final access paths occurring in the type (`paths(T)`,
    /// Fig. 11).
    pub fn paths(&self) -> Vec<&TPath> {
        let mut out = Vec::new();
        self.collect_paths(&mut out);
        out
    }

    fn collect_paths<'a>(&'a self, out: &mut Vec<&'a TPath>) {
        match self {
            Ty::Prim(_) | Ty::Class(_) => {}
            Ty::Dep(p) => out.push(p),
            Ty::Prefix(_, t) | Ty::Nested(t, _) | Ty::Exact(t) => t.collect_paths(out),
            Ty::Meet(ts) => {
                for t in ts {
                    t.collect_paths(out);
                }
            }
        }
    }

    /// `prefixExact_k(T)` (Fig. 11): whether the `k`-th prefix of the type
    /// is exact.
    pub fn prefix_exact(&self, k: u32) -> bool {
        match self {
            Ty::Prim(_) => k == 0, // primitives are their own exact class
            Ty::Class(_) => false,
            Ty::Dep(_) => true,
            Ty::Nested(t, _) => {
                if k == 0 {
                    false
                } else {
                    t.prefix_exact(k - 1)
                }
            }
            Ty::Prefix(_, t) => t.prefix_exact(k + 1),
            Ty::Meet(ts) => ts.iter().any(|t| t.prefix_exact(k)),
            Ty::Exact(_) => true,
        }
    }

    /// `exact(T) = prefixExact_0(T)`: all instances have the same run-time
    /// class.
    pub fn is_exact(&self) -> bool {
        self.prefix_exact(0)
    }

    /// Convenience constructor for `PT!` that avoids double exactness.
    pub fn exact(self) -> Ty {
        match self {
            t @ Ty::Exact(_) => t,
            t @ Ty::Prim(_) => t,
            t => Ty::Exact(Box::new(t)),
        }
    }

    /// Wraps in a [`Type`] with no masks.
    pub fn unmasked(self) -> Type {
        Type {
            ty: self,
            masks: BTreeSet::new(),
        }
    }

    /// Wraps in a [`Type`] with the given masks.
    pub fn with_masks(self, masks: BTreeSet<Name>) -> Type {
        Type { ty: self, masks }
    }
}

/// A possibly masked type `T ::= PT | PT\f`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Type {
    /// The underlying pure type (`pure(T)`).
    pub ty: Ty,
    /// Masked fields (empty for pure types).
    pub masks: BTreeSet<Name>,
}

impl Type {
    /// `pure(T)`: strips the masks.
    pub fn pure(&self) -> &Ty {
        &self.ty
    }

    /// Adds a mask on field `f` (`T\f`), a supertype of `T`.
    pub fn masked(mut self, f: Name) -> Type {
        self.masks.insert(f);
        self
    }

    /// Removes the mask on field `f`, if present (used by `grant`).
    pub fn grant(mut self, f: Name) -> Type {
        self.masks.remove(&f);
        self
    }

    /// Whether field `f` is masked.
    pub fn is_masked(&self, f: Name) -> bool {
        self.masks.contains(&f)
    }
}

impl From<Ty> for Type {
    fn from(ty: Ty) -> Self {
        ty.unmasked()
    }
}

/// The unit/void type.
pub fn void() -> Type {
    Ty::Prim(PrimTy::Void).unmasked()
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> Name {
        Name(i)
    }

    #[test]
    fn prefix_exact_of_dependent_class() {
        let t = Ty::Dep(TPath::var(n(0)));
        assert!(t.prefix_exact(0));
        assert!(t.prefix_exact(5));
    }

    #[test]
    fn prefix_exact_of_nested() {
        // AST!.Exp : prefixExact_0 = false, prefixExact_1 = true.
        let t = Ty::Nested(Box::new(Ty::Class(ClassId(1)).exact()), n(1));
        assert!(!t.prefix_exact(0));
        assert!(t.prefix_exact(1));
        // AST.Exp! : prefixExact_0 = true.
        let t2 = Ty::Nested(Box::new(Ty::Class(ClassId(1))), n(1)).exact();
        assert!(t2.prefix_exact(0));
    }

    #[test]
    fn prefix_type_shifts_exactness() {
        // P[this.class]: prefixExact_0(P[p.class]) = prefixExact_1(p.class) = true.
        let t = Ty::Prefix(ClassId(1), Box::new(Ty::Dep(TPath::var(n(0)))));
        assert!(t.prefix_exact(0));
        // P[A.B]: not exact.
        let t2 = Ty::Prefix(
            ClassId(1),
            Box::new(Ty::Nested(Box::new(Ty::Class(ClassId(2))), n(1))),
        );
        assert!(!t2.prefix_exact(0));
    }

    #[test]
    fn non_dependence() {
        assert!(Ty::Class(ClassId(3)).is_non_dependent());
        assert!(!Ty::Dep(TPath::var(n(0))).is_non_dependent());
        assert!(!Ty::Nested(Box::new(Ty::Dep(TPath::var(n(0)))), n(1)).is_non_dependent());
    }

    #[test]
    fn masks_are_sets() {
        let t = Ty::Class(ClassId(1)).unmasked().masked(n(5)).masked(n(5));
        assert_eq!(t.masks.len(), 1);
        assert!(t.is_masked(n(5)));
        assert!(!t.grant(n(5)).is_masked(n(5)));
    }

    #[test]
    fn paths_collects_all() {
        let p1 = TPath::var(n(0));
        let p2 = TPath::var(n(1)).child(n(2));
        let t = Ty::Meet(vec![
            Ty::Dep(p1.clone()),
            Ty::Nested(Box::new(Ty::Dep(p2.clone())), n(3)),
        ]);
        let ps = t.paths();
        assert_eq!(ps.len(), 2);
        assert_eq!(*ps[0], p1);
        assert_eq!(*ps[1], p2);
    }
}
