//! Typed core IR produced by the checker and consumed by the evaluator.
//!
//! Types embedded in the IR (allocation, view change, cast) are kept in
//! their possibly *dependent* form: the evaluator evaluates them against
//! the run-time stack (type evaluation contexts `TE`, Fig. 16), which is
//! how late binding of type names works at run time.

use crate::check::CheckTimings;
use crate::names::Name;
use crate::sharing::SharingTable;
use crate::table::{ClassTable, FieldInfo};
use crate::ty::{ClassId, Ty, Type};
use jns_syntax::{BinOp, UnOp};
use std::collections::HashMap;

/// A checked, lowered expression.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// The unit value.
    Unit,
    /// Variable reference (includes `this`).
    Var(Name),
    /// Field read; dispatches on the receiver's view (`fclass`).
    GetField(Box<CExpr>, Name),
    /// Field write `x.f = e`; may remove a mask.
    SetField(Name, Name, Box<CExpr>),
    /// Method call; dispatches on the receiver's *view*, not its class.
    Call(Box<CExpr>, Name, Vec<CExpr>),
    /// Allocation `new T { f = e, ... }`. The type may be dependent.
    New(Ty, Vec<(Name, CExpr)>),
    /// View change `(view T)e`.
    View(Type, Box<CExpr>),
    /// Checked cast `(cast T)e`.
    Cast(Type, Box<CExpr>),
    /// Binary operation.
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    /// Unary operation.
    Un(UnOp, Box<CExpr>),
    /// Conditional.
    If(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    /// Loop (value is unit).
    While(Box<CExpr>, Box<CExpr>),
    /// `final x = e1; e2`.
    Let(Name, Box<CExpr>, Box<CExpr>),
    /// Statement sequence; value of the last expression.
    Seq(Vec<CExpr>),
    /// `print e`.
    Print(Box<CExpr>),
}

impl CExpr {
    /// Whether this node owns no child expressions (teardown fast path).
    fn is_leaf(&self) -> bool {
        matches!(
            self,
            CExpr::Int(_) | CExpr::Bool(_) | CExpr::Str(_) | CExpr::Unit | CExpr::Var(_)
        )
    }

    /// Moves every non-leaf direct child expression out of `e` into
    /// `out`. Leaf children stay in place (they drop trivially with the
    /// hollowed parent), so a harvested node's own `Drop` re-entry finds
    /// nothing to push and `out` never allocates for it.
    fn take_children(e: &mut CExpr, out: &mut Vec<CExpr>) {
        fn take(b: &mut CExpr, out: &mut Vec<CExpr>) {
            if !b.is_leaf() {
                out.push(std::mem::replace(b, CExpr::Unit));
            }
        }
        match e {
            CExpr::Int(_) | CExpr::Bool(_) | CExpr::Str(_) | CExpr::Unit | CExpr::Var(_) => {}
            CExpr::GetField(r, _) => take(r, out),
            CExpr::SetField(_, _, v) => take(v, out),
            CExpr::View(_, i) | CExpr::Cast(_, i) | CExpr::Un(_, i) | CExpr::Print(i) => {
                take(i, out)
            }
            CExpr::Bin(_, l, r) | CExpr::While(l, r) | CExpr::Let(_, l, r) => {
                take(l, out);
                take(r, out);
            }
            CExpr::If(c, t, f) => {
                take(c, out);
                take(t, out);
                take(f, out);
            }
            CExpr::Call(r, _, args) => {
                take(r, out);
                out.extend(args.drain(..).filter(|a| !a.is_leaf()));
            }
            CExpr::New(_, inits) => out.extend(
                std::mem::take(inits)
                    .into_iter()
                    .map(|(_, i)| i)
                    .filter(|i| !i.is_leaf()),
            ),
            CExpr::Seq(parts) => out.extend(parts.drain(..).filter(|p| !p.is_leaf())),
        }
    }
}

/// Iterative teardown: expression trees built from long operator chains
/// or `let` chains nest thousands of levels deep, and the derived
/// (recursive) drop would overflow the host stack on them — the same bug
/// class the explicit-stack evaluator fixes for execution. Children are
/// moved onto a heap worklist before each node is freed, so teardown
/// uses constant native stack.
impl Drop for CExpr {
    fn drop(&mut self) {
        if self.is_leaf() {
            return;
        }
        let mut work: Vec<CExpr> = Vec::new();
        CExpr::take_children(self, &mut work);
        while let Some(mut e) = work.pop() {
            CExpr::take_children(&mut e, &mut work);
        }
    }
}

/// A checked method body.
#[derive(Debug, Clone)]
pub struct CMethod {
    /// Parameter names in order.
    pub params: Vec<Name>,
    /// The body expression.
    pub body: CExpr,
}

/// A fully checked program, ready to run.
///
/// `Clone` deep-copies the class table (a lazily growing, `RefCell`-based
/// memo structure), so clones can be moved to other threads and queried
/// independently — every clone answers every query identically because
/// materialisation is deterministic.
#[derive(Debug, Clone)]
pub struct CheckedProgram {
    /// The class table (with all classes touched during checking).
    pub table: ClassTable,
    /// The sharing structure.
    pub sharing: SharingTable,
    /// Explicit method bodies, keyed by declaring class and name.
    pub methods: HashMap<(ClassId, Name), CMethod>,
    /// Field initialisers, keyed by declaring class and field.
    pub field_inits: HashMap<(ClassId, Name), CExpr>,
    /// The main expression, if the program has one.
    pub main: Option<CExpr>,
    /// How long each checker phase took.
    pub timings: CheckTimings,
}

impl CheckedProgram {
    /// Finds the body for method `m` dispatched on view class `view`
    /// (`mbody(S, m)`): the most derived explicit declaration.
    pub fn mbody(&self, view: ClassId, m: Name) -> Option<(ClassId, &CMethod)> {
        // Walk the supers in BFS order (most derived first), returning the
        // first class that actually declares a body.
        let mut queue = std::collections::VecDeque::from([view]);
        let mut seen = std::collections::HashSet::from([view]);
        while let Some(q) = queue.pop_front() {
            if let Some(body) = self.methods.get(&(q, m)) {
                return Some((q, body));
            }
            for s in self.table.direct_supers(q) {
                if seen.insert(s) {
                    queue.push_back(s);
                }
            }
        }
        None
    }

    /// The declared field initialisers R-ALLOC (Fig. 17) runs for a
    /// class whose fields are `fields` (its [`ClassTable::fields_of`]), in
    /// the order it runs them: base-most class first and, within a class,
    /// in declaration order (Java's order). Each comes with its
    /// [`CheckedProgram::field_inits`] key — the declaring class and the
    /// field — and its expression.
    pub fn initialisers(&self, fields: &[(ClassId, FieldInfo)]) -> Vec<((ClassId, Name), &CExpr)> {
        // `fields_of` lists the classes most derived first, each class's
        // fields together and in declaration order.
        fields
            .chunk_by(|a, b| a.0 == b.0)
            .rev()
            .flatten()
            .filter(|(_, fi)| fi.has_init)
            .filter_map(|(owner, fi)| {
                let key = (*owner, fi.name);
                self.field_inits.get(&key).map(|e| (key, e))
            })
            .collect()
    }
}
