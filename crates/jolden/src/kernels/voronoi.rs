//! `voronoi`: simplified to the divide-and-conquer *closest pair* over
//! point objects in a sorted linked structure — it keeps the original's
//! recursive geometric decomposition over heap objects while avoiding a
//! full Delaunay triangulation, whose edge-structure bookkeeping adds code
//! but no dispatch shape that Table 1 measures.

use crate::util::Lcg;
use jns_rt::{MethodId, ObjRef, Runtime, Strategy, Val};

const M_DIST2: MethodId = MethodId(0);

/// Runs the kernel over `size` points.
pub fn run(strategy: Strategy, size: u32) -> i64 {
    let mut rt = Runtime::new(strategy);
    let fam = rt.family();
    let m_dist2 = rt.method("dist2");
    assert_eq!(m_dist2, M_DIST2);
    let point = rt
        .class("Point", fam)
        .fields(&["x", "y"])
        .method(M_DIST2, |rt, r, a| {
            let dx = rt.get(r, "x").f() - a[0].f();
            let dy = rt.get(r, "y").f() - a[1].f();
            Val::F(dx * dx + dy * dy)
        })
        .build();
    let n = (size as usize).max(2);
    let mut g = Lcg::new(size as u64 ^ 0xabcdef);
    let mut pts: Vec<(f64, ObjRef)> = (0..n)
        .map(|_| {
            let p = rt.alloc(point);
            let x = g.unit_f64() * 1000.0;
            rt.set(p, "x", Val::F(x));
            rt.set(p, "y", Val::F(g.unit_f64() * 1000.0));
            (x, p)
        })
        .collect();
    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let order: Vec<ObjRef> = pts.into_iter().map(|(_, p)| p).collect();

    fn closest(rt: &mut Runtime, pts: &[ObjRef]) -> f64 {
        if pts.len() <= 3 {
            let mut best = f64::INFINITY;
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    let x = rt.get(pts[j], "x");
                    let y = rt.get(pts[j], "y");
                    best = best.min(rt.call(pts[i], M_DIST2, &[x, y]).f());
                }
            }
            return best;
        }
        let mid = pts.len() / 2;
        let midx = rt.get(pts[mid], "x").f();
        let dl = closest(rt, &pts[..mid]);
        let dr = closest(rt, &pts[mid..]);
        let mut d = dl.min(dr);
        // strip check
        let strip: Vec<ObjRef> = pts
            .iter()
            .copied()
            .filter(|&p| {
                let x = rt.get(p, "x").f();
                (x - midx) * (x - midx) < d
            })
            .collect();
        for i in 0..strip.len() {
            for j in i + 1..(i + 8).min(strip.len()) {
                let x = rt.get(strip[j], "x");
                let y = rt.get(strip[j], "y");
                d = d.min(rt.call(strip[i], M_DIST2, &[x, y]).f());
            }
        }
        d
    }

    let d = closest(&mut rt, &order);
    (d.sqrt() * 1e6) as i64 + n as i64
}
