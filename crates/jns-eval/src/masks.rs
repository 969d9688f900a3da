//! Interned mask sets. A run-time reference ⟨ℓ, P!\f⟩ carries its mask
//! set `f`, which changes only at a view change or a grant (§2.3, §6), so
//! each engine interns the sets it meets in one [`MaskTable`] and a
//! reference carries a 4-byte [`MaskId`]: a tagged small id instead of a
//! pointer-carried set (Gudeman, *Representing Type Information in
//! Dynamically Typed Languages*, 1993). That keeps [`crate::RefVal`]
//! `Copy`.
//!
//! Ids are local to the table that issued them: two engines may give one
//! set different ids, so compare mask sets across engines through
//! [`MaskTable::get`], never by id.

use jns_types::Name;
use std::collections::{BTreeSet, HashMap};

/// An interned mask set: an index into one engine's [`MaskTable`]. Id 0
/// is ∅ in every table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MaskId(u32);

impl MaskId {
    /// ∅, the masks of every fully initialised object.
    pub const EMPTY: MaskId = MaskId(0);

    /// Whether this is ∅ (every table gives ∅ id 0).
    #[inline]
    pub fn is_empty(self) -> bool {
        self == MaskId::EMPTY
    }
}

/// One engine's interned mask sets: each distinct set is stored once and
/// named by its [`MaskId`]. Monotone: a set, once interned, keeps its id
/// for the table's lifetime.
#[derive(Debug)]
pub struct MaskTable {
    /// The sets by id; `sets[0]` is ∅.
    sets: Vec<BTreeSet<Name>>,
    /// Every interned set but ∅, which `intern` answers without a lookup.
    ids: HashMap<BTreeSet<Name>, MaskId>,
    /// Whether ∅ has been interned yet (it is stored from the start, but
    /// counts as fresh the first time it is interned).
    empty_seen: bool,
}

impl Default for MaskTable {
    fn default() -> Self {
        MaskTable {
            sets: vec![BTreeSet::new()],
            ids: HashMap::new(),
            empty_seen: false,
        }
    }
}

impl MaskTable {
    /// The id of `set`, and whether this is the first time this table
    /// interned it (what [`crate::Stats::mask_allocs`] counts).
    pub fn intern(&mut self, set: BTreeSet<Name>) -> (MaskId, bool) {
        if set.is_empty() {
            return (
                MaskId::EMPTY,
                !std::mem::replace(&mut self.empty_seen, true),
            );
        }
        if let Some(&id) = self.ids.get(&set) {
            return (id, false);
        }
        let id = MaskId(self.sets.len() as u32);
        self.sets.push(set.clone());
        self.ids.insert(set, id);
        (id, true)
    }

    /// The set `id` names.
    ///
    /// # Panics
    ///
    /// If `id` was issued by another table that has interned more sets.
    #[inline]
    pub fn get(&self, id: MaskId) -> &BTreeSet<Name> {
        &self.sets[id.0 as usize]
    }

    /// Whether set `a` ⊆ set `b`.
    #[inline]
    pub fn is_subset(&self, a: MaskId, b: MaskId) -> bool {
        a == b || a.is_empty() || (!b.is_empty() && self.get(a).is_subset(self.get(b)))
    }

    /// `grant(σ, x.f)` on a reference's masks: `id` without `f`, and
    /// whether that set was interned for the first time.
    pub fn grant(&mut self, id: MaskId, f: Name) -> (MaskId, bool) {
        if id.is_empty() || !self.get(id).contains(&f) {
            return (id, false);
        }
        let mut set = self.get(id).clone();
        set.remove(&f);
        self.intern(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(names: &[u32]) -> BTreeSet<Name> {
        names.iter().map(|&n| Name(n)).collect()
    }

    #[test]
    fn interning_is_stable_and_counts_each_set_once() {
        let mut t = MaskTable::default();
        assert_eq!(t.intern(set(&[])), (MaskId::EMPTY, true));
        assert_eq!(t.intern(set(&[])), (MaskId::EMPTY, false));
        let (ab, fresh) = t.intern(set(&[1, 2]));
        assert!(fresh && !ab.is_empty());
        assert_eq!(t.intern(set(&[2, 1])), (ab, false));
        assert_eq!(t.get(ab), &set(&[1, 2]));
        assert!(t.get(MaskId::EMPTY).is_empty());
    }

    #[test]
    fn subset_and_grant_follow_the_sets() {
        let mut t = MaskTable::default();
        let (a, _) = t.intern(set(&[1]));
        let (ab, _) = t.intern(set(&[1, 2]));
        let (c, _) = t.intern(set(&[3]));
        assert!(t.is_subset(MaskId::EMPTY, c));
        assert!(t.is_subset(a, ab) && t.is_subset(ab, ab));
        assert!(!t.is_subset(ab, a) && !t.is_subset(a, c));
        assert!(!t.is_subset(a, MaskId::EMPTY));
        // Granting a field that is not masked changes nothing.
        assert_eq!(t.grant(ab, Name(9)), (ab, false));
        assert_eq!(t.grant(MaskId::EMPTY, Name(1)), (MaskId::EMPTY, false));
        // Granting a masked field lands on the interned smaller set.
        assert_eq!(t.grant(ab, Name(2)), (a, false));
        let (b, fresh) = t.grant(ab, Name(1));
        assert!(fresh);
        assert_eq!(t.get(b), &set(&[2]));
        assert_eq!(t.grant(a, Name(1)), (MaskId::EMPTY, true));
    }
}
