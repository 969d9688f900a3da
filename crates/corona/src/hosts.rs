//! Host-node families over the `jns-rt` object model, mirroring the ported
//! CorONA of §7.4:
//!
//! * family `corona` — plain DHT lookups, no caching;
//! * family `pccorona` — **PC-Pastry** passive caching: responses are
//!   cached along the lookup path;
//! * family `beecorona` — **Beehive** proactive replication: a replication
//!   manager (a *new, unshared field*, masked at evolution time) decides
//!   which objects to replicate based on popularity.
//!
//! Host-node classes are shared between the three families, so a running
//! system evolves from one to another through view changes that preserve
//! node identity and cache state.

use jns_rt::{ClassId, MethodId, ObjRef, Runtime, Strategy, Val};

/// Cache slots per node (direct-mapped by key).
pub const CACHE_SLOTS: usize = 16;
const SLOT_FIELDS: [&str; CACHE_SLOTS] = [
    "k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9", "k10", "k11", "k12", "k13", "k14",
    "k15",
];

const M_LOOKUP: MethodId = MethodId(0);
const M_STORE: MethodId = MethodId(1);

/// The three behavioural phases a node can be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// No caching.
    Corona,
    /// Passive caching along response paths.
    PcCorona,
    /// Popularity-driven proactive replication.
    BeeCorona,
}

/// The host-node object world.
#[derive(Debug)]
pub struct Hosts {
    /// The underlying object model (public for stats).
    pub rt: Runtime,
    fam_corona: u32,
    fam_pc: u32,
    fam_bee: u32,
    #[allow(dead_code)]
    node_corona: ClassId,
    #[allow(dead_code)]
    node_pc: ClassId,
    node_bee: ClassId,
    manager: ClassId,
    /// Current references to the host nodes (re-viewed by evolution).
    pub nodes: Vec<ObjRef>,
}

fn slot_of(key: u64) -> &'static str {
    SLOT_FIELDS[(key % CACHE_SLOTS as u64) as usize]
}

impl Hosts {
    /// Builds `n` host nodes, initially in the plain `corona` family.
    pub fn new(n: usize) -> Self {
        let mut rt = Runtime::new(Strategy::SharedFamily);
        let fam_corona = rt.family();
        let fam_pc = rt.family();
        let fam_bee = rt.family();
        let m_lookup = rt.method("lookup");
        let m_store = rt.method("store");
        assert_eq!((m_lookup, m_store), (M_LOOKUP, M_STORE));

        // lookup(key) -> 1 if served locally (cache/replica hit).
        let cache_probe: jns_rt::MethodFn = |rt, r, a| {
            let key = a[0].int();
            let f = slot_of(key as u64);
            Val::Int(i64::from(rt.get(r, f) == Val::Int(key)))
        };
        let node_corona = rt
            .class("corona.HostNode", fam_corona)
            .fields(&SLOT_FIELDS)
            .fields(&["id", "hits"])
            // No caching: lookups never hit locally, stores are ignored.
            .method(M_LOOKUP, |_rt, _r, _a| Val::Int(0))
            .method(M_STORE, |_rt, _r, _a| Val::Nil)
            .build();
        let node_pc = rt
            .class("pccorona.HostNode", fam_pc)
            .extends(node_corona)
            .shares(node_corona)
            .method(M_LOOKUP, cache_probe)
            // Passive caching: remember everything that passes through.
            .method(M_STORE, |rt, r, a| {
                let key = a[0].int();
                rt.set(r, slot_of(key as u64), Val::Int(key));
                Val::Nil
            })
            .build();
        let manager = rt
            .class("beecorona.ReplicaManager", fam_bee)
            .fields(&["threshold", "replicated"])
            .build();
        let node_bee = rt
            .class("beecorona.HostNode", fam_bee)
            .extends(node_corona)
            .shares(node_corona)
            // New, unshared field: the replication manager (§7.4: "masked
            // types ensure that they are initialized in the evolved
            // system").
            .fields(&["mgr"])
            .method(M_LOOKUP, cache_probe)
            // Proactive: store only objects the manager deems popular.
            .method(M_STORE, |rt, r, a| {
                let key = a[0].int();
                let popularity = a[1].int();
                let mgr = rt.get(r, "mgr").obj().expect("manager initialised");
                let thr = rt.get(mgr, "threshold").int();
                if popularity >= thr {
                    rt.set(r, slot_of(key as u64), Val::Int(key));
                    let n = rt.get(mgr, "replicated").int();
                    rt.set(mgr, "replicated", Val::Int(n + 1));
                }
                Val::Nil
            })
            .build();
        let nodes: Vec<ObjRef> = (0..n)
            .map(|i| {
                let o = rt.alloc(node_corona);
                rt.set(o, "id", Val::Int(i as i64));
                rt.set(o, "hits", Val::Int(0));
                o
            })
            .collect();
        Hosts {
            rt,
            fam_corona,
            fam_pc,
            fam_bee,
            node_corona,
            node_pc,
            node_bee,
            manager,
            nodes,
        }
    }

    /// The family the node references currently view.
    pub fn family(&self) -> Family {
        let f = self.nodes.first().map(|r| r.view);
        match f {
            Some(v) if v == self.node_bee => Family::BeeCorona,
            Some(v) if self.rt.is_subclass(v, self.node_corona) && v != self.node_corona => {
                Family::PcCorona
            }
            _ => Family::Corona,
        }
    }

    /// Evolves every host node to the given family via view changes —
    /// the §7.4 evolution: only the top-level node objects are touched
    /// explicitly; for Beehive, the unshared `mgr` field is initialised
    /// right after the view change (mask discipline).
    pub fn evolve(&mut self, target: Family) {
        let fam = match target {
            Family::Corona => self.fam_corona,
            Family::PcCorona => self.fam_pc,
            Family::BeeCorona => self.fam_bee,
        };
        let nodes = std::mem::take(&mut self.nodes);
        self.nodes = nodes
            .into_iter()
            .map(|r| {
                let nr = self.rt.view_as(r, fam);
                if target == Family::BeeCorona {
                    let mgr = self.rt.alloc(self.manager);
                    self.rt.set(mgr, "threshold", Val::Int(0));
                    self.rt.set(mgr, "replicated", Val::Int(0));
                    self.rt.set(nr, "mgr", Val::Obj(mgr));
                }
                nr
            })
            .collect();
    }

    /// Sets the Beehive popularity threshold on every node's manager.
    pub fn set_threshold(&mut self, thr: i64) {
        for &n in &self.nodes {
            if let Some(mgr) = self.rt.get(n, "mgr").obj() {
                self.rt.set(mgr, "threshold", Val::Int(thr));
            }
        }
    }

    /// Performs a lookup along `path` (node indices). Returns the number
    /// of hops consumed before a local hit or the home node answered.
    /// On the way back, offers the object to every traversed node
    /// (`store`, with the object's popularity rank).
    pub fn lookup(&mut self, path: &[usize], key: u64, popularity: i64) -> usize {
        let mut served_at = path.len() - 1;
        for (i, &n) in path.iter().enumerate() {
            let node = self.nodes[n];
            if i == path.len() - 1
                || self.rt.call(node, M_LOOKUP, &[Val::Int(key as i64)]).int() == 1
            {
                served_at = i;
                let h = self.rt.get(node, "hits").int();
                self.rt.set(node, "hits", Val::Int(h + 1));
                break;
            }
        }
        // Response path: offer the object for caching/replication.
        for &n in &path[..served_at] {
            let node = self.nodes[n];
            self.rt
                .call(node, M_STORE, &[Val::Int(key as i64), Val::Int(popularity)]);
        }
        served_at
    }

    /// Proactively replicates `key` at all nodes (Beehive level-0 push for
    /// top-popularity objects).
    pub fn replicate_everywhere(&mut self, key: u64, popularity: i64) {
        let nodes = self.nodes.clone();
        for node in nodes {
            self.rt
                .call(node, M_STORE, &[Val::Int(key as i64), Val::Int(popularity)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_in_plain_corona() {
        let h = Hosts::new(8);
        assert_eq!(h.family(), Family::Corona);
    }

    #[test]
    fn plain_corona_never_caches() {
        let mut h = Hosts::new(4);
        let path = [0usize, 1, 2, 3];
        let hops1 = h.lookup(&path, 99, 10);
        let hops2 = h.lookup(&path, 99, 10);
        assert_eq!(hops1, 3);
        assert_eq!(hops2, 3, "no caching in the base family");
    }

    #[test]
    fn pccorona_caches_on_response_path() {
        let mut h = Hosts::new(4);
        h.evolve(Family::PcCorona);
        assert_eq!(h.family(), Family::PcCorona);
        let path = [0usize, 1, 2, 3];
        assert_eq!(h.lookup(&path, 99, 0), 3, "first lookup goes to home");
        assert_eq!(h.lookup(&path, 99, 0), 0, "second lookup hits first hop");
    }

    #[test]
    fn evolution_preserves_node_identity_and_state() {
        let mut h = Hosts::new(4);
        h.evolve(Family::PcCorona);
        let before: Vec<u32> = h.nodes.iter().map(|r| r.inst).collect();
        let path = [0usize, 1, 2, 3];
        h.lookup(&path, 42, 0); // warms caches
        h.evolve(Family::BeeCorona);
        let after: Vec<u32> = h.nodes.iter().map(|r| r.inst).collect();
        assert_eq!(before, after, "same instances, new views");
        // Cache slots are *shared* fields: the passive-cache contents
        // survive the evolution.
        assert_eq!(h.lookup(&path, 42, 0), 0, "cache entry survived evolution");
    }

    #[test]
    fn beehive_replicates_only_popular_objects() {
        let mut h = Hosts::new(4);
        h.evolve(Family::BeeCorona);
        h.set_threshold(5);
        let path = [0usize, 1, 2, 3];
        h.lookup(&path, 7, 1); // unpopular: not replicated
        assert_eq!(h.lookup(&path, 7, 1), 3);
        h.lookup(&path, 8, 9); // popular: replicated on response
        assert_eq!(h.lookup(&path, 8, 9), 0);
    }
}
