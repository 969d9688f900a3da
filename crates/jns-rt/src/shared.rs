//! The Table 2 **tree traversal** workload (§7.2): two families sharing
//! binary-tree classes. A complete tree is created in the base family, the
//! root is explicitly re-viewed into the display family, and a depth-first
//! traversal triggers all the lazy implicit view changes. An explicit
//! translation (fresh objects) is the baseline the paper compares against.

use crate::model::{ClassId, MethodId, ObjRef, Runtime, Strategy, Val};

/// The tree-traversal benchmark fixture.
#[derive(Debug)]
pub struct TreeBench {
    /// The underlying runtime (public so harnesses can read stats).
    pub rt: Runtime,
    disp_fam: u32,
    base_node: ClassId,
    disp_node: ClassId,
    m_sum: MethodId,
}

impl TreeBench {
    /// Sets up the two families. Always uses [`Strategy::SharedFamily`]
    /// (the benchmark measures J&s view-change costs).
    pub fn new() -> Self {
        let mut rt = Runtime::new(Strategy::SharedFamily);
        let base_fam = rt.family();
        let disp_fam = rt.family();
        let m_sum = rt.method("sum");
        let base_node = rt
            .class("base.Node", base_fam)
            .fields(&["left", "right", "value"])
            .method(m_sum, |rt, r, _| {
                let mut total = rt.get(r, "value").int();
                if let Some(l) = rt.get(r, "left").obj() {
                    total += rt.call(l, MID_SUM, &[]).int();
                }
                if let Some(rch) = rt.get(r, "right").obj() {
                    total += rt.call(rch, MID_SUM, &[]).int();
                }
                Val::Int(total)
            })
            .build();
        let disp_node = rt
            .class("display.Node", disp_fam)
            .extends(base_node)
            .shares(base_node)
            .method(m_sum, |rt, r, _| {
                // The display family doubles values: traversals through a
                // display view observably use the new behaviour.
                let mut total = rt.get(r, "value").int() * 2;
                if let Some(l) = rt.get(r, "left").obj() {
                    total += rt.call(l, MID_SUM, &[]).int();
                }
                if let Some(rch) = rt.get(r, "right").obj() {
                    total += rt.call(rch, MID_SUM, &[]).int();
                }
                Val::Int(total)
            })
            .build();
        assert_eq!(m_sum, MID_SUM, "sum must be the first interned selector");
        TreeBench {
            rt,
            disp_fam,
            base_node,
            disp_node,
            m_sum,
        }
    }

    /// Builds a complete binary tree of the given height in the base
    /// family; returns the root. Height 0 is a single node.
    pub fn create(&mut self, height: u32) -> ObjRef {
        self.build_node(height)
    }

    fn build_node(&mut self, height: u32) -> ObjRef {
        let n = self.rt.alloc(self.base_node);
        self.rt.set(n, "value", Val::Int(1));
        if height > 0 {
            let l = self.build_node(height - 1);
            let r = self.build_node(height - 1);
            self.rt.set(n, "left", Val::Obj(l));
            self.rt.set(n, "right", Val::Obj(r));
        }
        n
    }

    /// Depth-first traversal through whatever family the reference views.
    pub fn traverse(&mut self, root: ObjRef) -> i64 {
        self.rt.call(root, self.m_sum, &[]).int()
    }

    /// Explicit view change of the root into the display family (O(1)).
    pub fn view_root(&mut self, root: ObjRef) -> ObjRef {
        self.rt.view_as(root, self.disp_fam)
    }

    /// Explicit translation baseline: rebuilds the whole tree as new
    /// display-family objects (what one must do *without* class sharing).
    pub fn explicit_translate(&mut self, root: ObjRef) -> ObjRef {
        let value = self.rt.get(root, "value");
        let left = self.rt.get(root, "left").obj();
        let right = self.rt.get(root, "right").obj();
        let n = self.rt.alloc(self.disp_node);
        self.rt.set(n, "value", value);
        if let Some(l) = left {
            let nl = self.explicit_translate(l);
            self.rt.set(n, "left", Val::Obj(nl));
        }
        if let Some(r) = right {
            let nr = self.explicit_translate(r);
            self.rt.set(n, "right", Val::Obj(nr));
        }
        n
    }

    /// Number of nodes in a complete tree of the given height.
    pub fn node_count(height: u32) -> u64 {
        (1u64 << (height + 1)) - 1
    }
}

impl Default for TreeBench {
    fn default() -> Self {
        Self::new()
    }
}

/// `sum` is interned first, so kernels can name it from method bodies.
const MID_SUM: MethodId = MethodId(0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_traversal_counts_nodes() {
        let mut tb = TreeBench::new();
        let root = tb.create(4);
        assert_eq!(tb.traverse(root), TreeBench::node_count(4) as i64);
    }

    #[test]
    fn view_change_switches_whole_tree_behaviour() {
        let mut tb = TreeBench::new();
        let root = tb.create(4);
        let viewed = tb.view_root(root);
        // Display family doubles every node's contribution.
        assert_eq!(tb.traverse(viewed), 2 * TreeBench::node_count(4) as i64);
        // The original reference is untouched.
        assert_eq!(tb.traverse(root), TreeBench::node_count(4) as i64);
        assert_eq!(root.inst, viewed.inst, "identity preserved");
    }

    #[test]
    fn lazy_views_trigger_once_then_memoise() {
        let mut tb = TreeBench::new();
        let root = tb.create(6);
        let viewed = tb.view_root(root);
        tb.traverse(viewed);
        let implicit_first = tb.rt.stats.views_implicit;
        assert!(implicit_first > 0);
        let hits_before = tb.rt.stats.view_memo_hits;
        tb.traverse(viewed);
        assert!(
            tb.rt.stats.view_memo_hits > hits_before,
            "second traversal memoised"
        );
    }

    #[test]
    fn explicit_translation_creates_new_objects() {
        let mut tb = TreeBench::new();
        let root = tb.create(3);
        let allocs_before = tb.rt.stats.allocs;
        let copy = tb.explicit_translate(root);
        let created = tb.rt.stats.allocs - allocs_before;
        assert_eq!(created, TreeBench::node_count(3));
        assert_ne!(copy.inst, root.inst);
        assert_eq!(tb.traverse(copy), 2 * TreeBench::node_count(3) as i64);
    }
}
