//! Run-time values. A reference is a pair ⟨ℓ, S⟩ of a heap location and a
//! *view* — a non-dependent exact type with masks (§2.3).
//!
//! Values are `Send + Sync` so one compiled program can serve many
//! requests from a pool of worker threads (`jns-serve`): strings are
//! `Arc<str>`, and a reference's mask set is a [`MaskId`] into its
//! engine's [`crate::MaskTable`], so a [`RefVal`] is a 12-byte `Copy`
//! triple and loading, storing or passing one touches no reference count.
//!
//! # Teardown is iterative by construction
//!
//! A [`Value`] never owns another `Value`: object structure lives in the
//! shared backend heap ([`crate::heap::Heap`] — union-layout slots plus
//! open `⟨ℓ, P, f⟩` cells), and a [`RefVal`] holds a plain [`Loc`]
//! index, not a pointer into it. ([`Loc`]s are *stable under execution*
//! but forwarded by the mark-compact collector — aliases of one object
//! always forward together, so identity is preserved.) Dropping a
//! machine that holds a million-long linked chain
//! therefore iterates a flat container — there is no recursive `Drop` to
//! overflow the host stack on (regression-tested by
//! `tests/deep_recursion.rs`). Keep it that way: if a variant ever owns
//! child `Value`s directly, it needs an iterative `Drop` like the one on
//! `jns_types::CExpr`.

use crate::masks::MaskId;
use jns_types::ClassId;
use std::fmt;
use std::sync::Arc;

/// A heap location ℓ.
pub type Loc = u32;

/// A reference value ⟨ℓ, P!\f⟩: identity (`loc`) plus behaviour (`view`)
/// plus masks.
///
/// `==` compares the mask *ids*, which is meaningful only between
/// references of one engine: each engine has its own
/// [`crate::MaskTable`], so compare references from two engines by `loc`,
/// `view` and the sets their tables resolve the ids to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefVal {
    /// The heap location — object identity, preserved across view changes.
    pub loc: Loc,
    /// The current view: the exact class this reference sees.
    pub view: ClassId,
    /// Masked (unreadable) fields of this reference, interned in the
    /// engine's [`crate::MaskTable`].
    pub masks: MaskId,
}

/// A run-time value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Immutable string.
    Str(Arc<str>),
    /// Unit.
    Unit,
    /// An object reference.
    Ref(RefVal),
}

impl Value {
    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The reference, if this is an object.
    pub fn as_ref_val(&self) -> Option<&RefVal> {
        match self {
            Value::Ref(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Unit => write!(f, "()"),
            Value::Ref(r) => write!(f, "<obj@{} view #{}>", r.loc, r.view.0),
        }
    }
}

// Runtime values cross thread boundaries in `jns-serve`; keep them
// `Send + Sync` (compile error here = a non-shareable type crept in).
// References stay `Copy`, so moving one never touches a reference count.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_copy<T: Copy>() {}
    assert_send_sync::<Value>();
    assert_send_sync::<RefVal>();
    assert_copy::<RefVal>();
};
