//! Typing environments Γ for the flow-sensitive checker.
//!
//! Environments map variables to (possibly masked) types and carry the
//! sharing constraints of the enclosing method (`sharing T1 = T2`).
//! Masked-type flow sensitivity means variable bindings are *updated* by
//! field assignments (`grant`), so the environment supports snapshots and
//! joins for `if`/`while`.

use crate::names::Name;
use crate::table::ConstraintInfo;
use crate::ty::Type;
use std::collections::HashMap;

/// A typing environment Γ.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    vars: HashMap<Name, Type>,
    constraints: Vec<ConstraintInfo>,
}

impl TypeEnv {
    /// The empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a variable.
    pub fn var(&self, x: Name) -> Option<&Type> {
        self.vars.get(&x)
    }

    /// Binds (or rebinds) a variable.
    pub fn bind(&mut self, x: Name, t: Type) {
        self.vars.insert(x, t);
    }

    /// Whether the variable is bound.
    pub fn contains(&self, x: Name) -> bool {
        self.vars.contains_key(&x)
    }

    /// Removes a binding (scope exit).
    pub fn unbind(&mut self, x: Name) {
        self.vars.remove(&x);
    }

    /// `grant(Γ, x.f)`: removes the mask on `f` from `x`'s binding
    /// (assignment to a masked field initialises it — §4.12).
    pub fn grant(&mut self, x: Name, f: Name) {
        if let Some(t) = self.vars.get_mut(&x) {
            t.masks.remove(&f);
        }
    }

    /// Adds a sharing constraint to the environment (method entry).
    pub fn add_constraint(&mut self, c: ConstraintInfo) {
        self.constraints.push(c);
    }

    /// The sharing constraints in scope.
    pub fn constraints(&self) -> &[ConstraintInfo] {
        &self.constraints
    }

    /// Snapshot of the variable bindings, for control-flow joins.
    pub fn snapshot(&self) -> HashMap<Name, Type> {
        self.vars.clone()
    }

    /// Restores variable bindings from a snapshot.
    pub fn restore(&mut self, snap: HashMap<Name, Type>) {
        self.vars = snap;
    }

    /// Joins with another branch's bindings: a field counts as initialised
    /// after the join only if *both* branches initialised it, so the joined
    /// mask set is the union of the two branches' masks.
    pub fn join(&mut self, other: &HashMap<Name, Type>) {
        for (x, t) in self.vars.iter_mut() {
            if let Some(ot) = other.get(x) {
                let union: Vec<Name> = ot.masks.iter().copied().collect();
                for m in union {
                    t.masks.insert(m);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::{ClassId, Ty};

    fn n(i: u32) -> Name {
        Name(i)
    }

    #[test]
    fn grant_removes_mask() {
        let mut env = TypeEnv::new();
        env.bind(n(0), Ty::Class(ClassId(1)).unmasked().masked(n(5)));
        assert!(env.var(n(0)).unwrap().is_masked(n(5)));
        env.grant(n(0), n(5));
        assert!(!env.var(n(0)).unwrap().is_masked(n(5)));
    }

    #[test]
    fn join_takes_mask_union() {
        let mut env = TypeEnv::new();
        env.bind(n(0), Ty::Class(ClassId(1)).unmasked().masked(n(5)));
        let before = env.snapshot();
        env.grant(n(0), n(5)); // then-branch initialised f
        env.join(&before); // else-branch did not
        assert!(env.var(n(0)).unwrap().is_masked(n(5)));
    }
}
