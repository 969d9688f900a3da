//! The run-time rules both engines apply identically, kept once: the
//! operators and `==`, the condition checks, how `print` shows a value,
//! the `view! ≤ target` judgment and the interpreted field type, case 2
//! of the `view` function (§4.15), the arity and recursion-depth checks,
//! and the texts of the run-time errors the engines raise alike. The
//! tree-walker ([`crate::Machine`]), the bytecode VM and the VM's
//! constant folder all call these, as both engines call
//! [`crate::typeeval`] for Fig. 16. What each engine does
//! its own way — evaluation, field storage, caches and memo tables, GC
//! roots — stays in the engine, where the differential suites compare it.

use crate::error::RtError;
use crate::value::{RefVal, Value};
use jns_syntax::{BinOp, UnOp};
use jns_types::{CheckedProgram, ClassId, Judge, Name, Ty, TypeEnv};
use std::collections::BTreeSet;
use std::sync::Arc;

fn type_err(m: &str) -> RtError {
    RtError::TypeMismatch(m.to_string())
}

/// A strict binary operator: wrapping `i64` arithmetic, string `+`,
/// integer comparisons, and `==`/`!=` — primitive equality or, on
/// references, location equality (§2.3), an error on values of different
/// shapes. Division and remainder by zero are
/// [`RtError::DivisionByZero`]. `&&` and `||` are control flow in both
/// engines, so they never arrive here; like every other ill-shaped
/// operand pair, they are a type mismatch.
#[inline]
pub fn binop(op: BinOp, l: Value, r: Value) -> Result<Value, RtError> {
    use BinOp::*;
    Ok(match (op, &l, &r) {
        (Add, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
        (Sub, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
        (Mul, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
        (Div | Rem, Value::Int(_), Value::Int(0)) => return Err(RtError::DivisionByZero),
        (Div, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_div(*b)),
        (Rem, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_rem(*b)),
        (Add, Value::Str(a), Value::Str(b)) => {
            let mut s = String::with_capacity(a.len() + b.len());
            s.push_str(a);
            s.push_str(b);
            Value::Str(Arc::from(s))
        }
        (Lt, Value::Int(a), Value::Int(b)) => Value::Bool(a < b),
        (Le, Value::Int(a), Value::Int(b)) => Value::Bool(a <= b),
        (Gt, Value::Int(a), Value::Int(b)) => Value::Bool(a > b),
        (Ge, Value::Int(a), Value::Int(b)) => Value::Bool(a >= b),
        (Eq, a, b) => Value::Bool(value_eq(a, b)?),
        (Ne, a, b) => Value::Bool(!value_eq(a, b)?),
        _ => return Err(type_err("bad binary operands")),
    })
}

/// A unary operator: `!` on a bool, wrapping `-` on an int.
#[inline]
pub fn unop(op: UnOp, v: Value) -> Result<Value, RtError> {
    match (op, v) {
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(n.wrapping_neg())),
        _ => Err(type_err("bad unary operand")),
    }
}

/// `==`: primitive equality, or *location* equality on references —
/// object identity is independent of the view (§2.3). Values of
/// different shapes are an error, not `false`.
#[inline]
fn value_eq(l: &Value, r: &Value) -> Result<bool, RtError> {
    Ok(match (l, r) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Bool(a), Value::Bool(b)) => a == b,
        (Value::Str(a), Value::Str(b)) => a == b,
        (Value::Unit, Value::Unit) => true,
        (Value::Ref(a), Value::Ref(b)) => a.loc == b.loc,
        _ => return Err(type_err("`==` on mismatched values")),
    })
}

/// Why a construct demanded a boolean; selects the error text for an
/// operand of any other shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondKind {
    /// `if` condition.
    If,
    /// `while` condition.
    While,
    /// Left operand of `&&`.
    And,
    /// Left operand of `||`.
    Or,
}

impl CondKind {
    /// The error text for a non-boolean operand.
    fn message(self) -> &'static str {
        match self {
            CondKind::If => "if needs bool",
            CondKind::While => "while needs bool",
            CondKind::And => "&& needs bool",
            CondKind::Or => "|| needs bool",
        }
    }

    /// `v` as this construct's boolean.
    #[inline]
    pub fn test(self, v: &Value) -> Result<bool, RtError> {
        v.as_bool().ok_or_else(|| type_err(self.message()))
    }
}

/// The receiver of a field access, call or view change: it must be a
/// reference.
#[inline]
pub fn expect_ref(v: Value) -> Result<RefVal, RtError> {
    match v {
        Value::Ref(r) => Ok(r),
        other => Err(RtError::TypeMismatch(format!(
            "expected an object, got `{other}`"
        ))),
    }
}

/// How `print` shows a value: a reference as `view@ℓ`.
pub fn display_value(prog: &CheckedProgram, v: &Value) -> String {
    match v {
        Value::Ref(r) => format!("{}@{}", prog.table.class_name(r.view), r.loc),
        other => other.to_string(),
    }
}

/// The judgment `view! ≤ target` behind casts and case 1 of `view`.
/// Unmemoised; each engine keeps its own memo table in front of it.
pub fn view_subtype(prog: &CheckedProgram, view: ClassId, target: &Ty) -> bool {
    let env = TypeEnv::new();
    Judge::new(&prog.table, &env).sub_pure(&Ty::Class(view).exact(), target)
}

/// The type of field `f` interpreted in view `view`, canonicalised, with
/// its masks: the target of the lazy implicit view change on a read.
/// `Err` carries the [`RtError::BadType`] message.
pub fn field_view_type(
    prog: &CheckedProgram,
    view: ClassId,
    f: Name,
) -> Result<(Ty, BTreeSet<Name>), String> {
    let env = TypeEnv::new();
    let judge = Judge::new(&prog.table, &env);
    let ft = judge.ftype(&Ty::Class(view).exact().unmasked(), f)?;
    Ok((judge.canon(&ft.ty), ft.masks))
}

/// Why case 2 of the `view` function found no partner to switch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewMiss {
    /// No sharing partner lies under the target.
    NoPartner,
    /// More than one does.
    Ambiguous,
}

impl ViewMiss {
    /// The [`RtError::ViewFailed`] for re-viewing `view` at `target`.
    pub fn error(self, prog: &CheckedProgram, view: ClassId, target: &Ty) -> RtError {
        let (v, t) = (prog.table.class_name(view), prog.table.show_ty(target));
        RtError::ViewFailed(match self {
            ViewMiss::NoPartner => format!("`{v}` has no shared view under `{t}`"),
            ViewMiss::Ambiguous => format!("ambiguous view change from `{v}` to `{t}`"),
        })
    }
}

/// Case 2 of the `view` function (§4.15): among `view`'s sharing
/// `partners`, the one other than `view` itself that lies `under` the
/// target. Every partner is tested, so an engine's memo table fills the
/// same way whatever the answer.
pub fn unique_partner(
    partners: impl IntoIterator<Item = ClassId>,
    view: ClassId,
    mut under: impl FnMut(ClassId) -> bool,
) -> Result<ClassId, ViewMiss> {
    let mut found = Err(ViewMiss::NoPartner);
    for p in partners {
        if p != view && under(p) {
            found = match found {
                Err(ViewMiss::NoPartner) => Ok(p),
                _ => Err(ViewMiss::Ambiguous),
            };
        }
    }
    found
}

/// A failed `(cast T)e`: view `view` is not under `target`.
pub fn cast_failed(prog: &CheckedProgram, view: ClassId, target: &Ty) -> RtError {
    RtError::CastFailed(format!(
        "view `{}` is not a `{}`",
        prog.table.class_name(view),
        prog.table.show_ty(target)
    ))
}

/// A read of `r.f` that found no value in any copy of the field.
pub fn uninitialised(prog: &CheckedProgram, r: &RefVal, f: Name) -> RtError {
    RtError::UninitialisedField(format!(
        "{}.{} (view {})",
        r.loc,
        prog.table.name_str(f),
        prog.table.class_name(r.view)
    ))
}

/// A call of `m` on a view with no body for it.
pub fn no_method(prog: &CheckedProgram, view: ClassId, m: Name) -> RtError {
    RtError::TypeMismatch(format!(
        "no method `{}` on view `{}`",
        prog.table.name_str(m),
        prog.table.class_name(view)
    ))
}

/// A call passes exactly as many arguments as the method has parameters.
pub fn check_arity(params: usize, args: usize) -> Result<(), RtError> {
    if params == args {
        Ok(())
    } else {
        Err(type_err("arity"))
    }
}

/// Enters one unit of recursion depth — a method activation, or an
/// allocation's whole declared-initialiser sequence — unless `depth`
/// has reached `max_depth`. The engine releases the unit when the
/// activation returns or the last initialiser has run, and restores its
/// entry depth after an error.
#[inline]
pub fn enter(depth: &mut u32, max_depth: u32) -> Result<(), RtError> {
    if *depth >= max_depth {
        return Err(RtError::DepthExceeded(max_depth));
    }
    *depth += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masks::MaskId;
    use crate::value::Loc;

    fn int(n: i64) -> Value {
        Value::Int(n)
    }

    fn obj(loc: Loc, view: ClassId) -> RefVal {
        RefVal {
            loc,
            view,
            masks: MaskId::EMPTY,
        }
    }

    fn mismatch(m: &str) -> Result<Value, RtError> {
        Err(RtError::TypeMismatch(m.into()))
    }

    #[test]
    fn integer_operators_wrap_at_the_edges_and_reject_zero_divisors() {
        use BinOp::*;
        assert_eq!(binop(Add, int(i64::MAX), int(1)), Ok(int(i64::MIN)));
        assert_eq!(binop(Sub, int(i64::MIN), int(1)), Ok(int(i64::MAX)));
        assert_eq!(binop(Mul, int(i64::MAX), int(2)), Ok(int(-2)));
        assert_eq!(binop(Div, int(i64::MIN), int(-1)), Ok(int(i64::MIN)));
        assert_eq!(binop(Rem, int(i64::MIN), int(-1)), Ok(int(0)));
        assert_eq!(unop(UnOp::Neg, int(i64::MIN)), Ok(int(i64::MIN)));
        // Division truncates toward zero; the remainder takes the
        // dividend's sign.
        assert_eq!(binop(Div, int(-7), int(2)), Ok(int(-3)));
        assert_eq!(binop(Rem, int(-7), int(2)), Ok(int(-1)));
        for op in [Div, Rem] {
            assert_eq!(binop(op, int(7), int(0)), Err(RtError::DivisionByZero));
            assert_eq!(binop(op, int(0), int(0)), Err(RtError::DivisionByZero));
        }
        assert_eq!(binop(Lt, int(1), int(2)), Ok(Value::Bool(true)));
        assert_eq!(binop(Ge, int(1), int(2)), Ok(Value::Bool(false)));
        let s = |t: &str| Value::Str(Arc::from(t));
        assert_eq!(binop(Add, s("ab"), s("cd")), Ok(s("abcd")));
    }

    #[test]
    fn equality_is_location_identity_and_errs_on_mismatched_shapes() {
        let (a, b) = (ClassId(3), ClassId(4));
        // Two views of one location are the same object (§2.3).
        let here = Value::Ref(obj(7, a));
        let here_other_view = Value::Ref(obj(7, b));
        let there = Value::Ref(obj(8, a));
        assert_eq!(value_eq(&here, &here_other_view), Ok(true));
        assert_eq!(value_eq(&here, &there), Ok(false));
        assert_eq!(
            binop(BinOp::Ne, here.clone(), here_other_view),
            Ok(Value::Bool(false))
        );
        assert_eq!(value_eq(&Value::Unit, &Value::Unit), Ok(true));
        let text = "`==` on mismatched values";
        assert_eq!(binop(BinOp::Eq, int(1), Value::Bool(true)), mismatch(text));
        assert_eq!(binop(BinOp::Ne, here, int(7)), mismatch(text));
        assert_eq!(binop(BinOp::Eq, Value::Unit, int(0)), mismatch(text));
    }

    #[test]
    fn ill_shaped_operands_get_the_shared_texts() {
        let t = Value::Bool(true);
        assert_eq!(
            binop(BinOp::Add, t.clone(), t.clone()),
            mismatch("bad binary operands")
        );
        // `&&` and `||` are control flow in both engines, never operators.
        assert_eq!(
            binop(BinOp::And, t.clone(), t.clone()),
            mismatch("bad binary operands")
        );
        assert_eq!(unop(UnOp::Not, int(1)), mismatch("bad unary operand"));
        assert_eq!(unop(UnOp::Neg, t.clone()), mismatch("bad unary operand"));
        for (kind, text) in [
            (CondKind::If, "if needs bool"),
            (CondKind::While, "while needs bool"),
            (CondKind::And, "&& needs bool"),
            (CondKind::Or, "|| needs bool"),
        ] {
            assert_eq!(kind.test(&t), Ok(true));
            assert_eq!(kind.test(&int(0)), Err(RtError::TypeMismatch(text.into())));
        }
        assert_eq!(
            expect_ref(int(5)),
            Err(RtError::TypeMismatch("expected an object, got `5`".into()))
        );
        assert_eq!(
            expect_ref(Value::Ref(obj(2, ClassId(1)))),
            Ok(obj(2, ClassId(1)))
        );
        assert_eq!(check_arity(2, 2), Ok(()));
        assert_eq!(check_arity(2, 1), mismatch("arity").map(|_| ()));
        // Depth: each entry takes a unit until the limit, which refuses
        // the next entry without taking one.
        let mut depth = 0;
        assert_eq!(enter(&mut depth, 2), Ok(()));
        assert_eq!(enter(&mut depth, 2), Ok(()));
        assert_eq!(enter(&mut depth, 2), Err(RtError::DepthExceeded(2)));
        assert_eq!(depth, 2);
        assert_eq!(enter(&mut 0, 0), Err(RtError::DepthExceeded(0)));
    }

    #[test]
    fn unique_partner_needs_exactly_one_candidate() {
        let [v, a, b, c] = [10, 11, 12, 13].map(ClassId);
        let partners = [v, a, b, c];
        assert_eq!(
            unique_partner(partners, v, |_| false),
            Err(ViewMiss::NoPartner)
        );
        // The current view is never its own partner.
        assert_eq!(
            unique_partner(partners, v, |p| p == v),
            Err(ViewMiss::NoPartner)
        );
        assert_eq!(unique_partner(partners, v, |p| p == b), Ok(b));
        assert_eq!(
            unique_partner(partners, v, |p| p == a || p == c),
            Err(ViewMiss::Ambiguous)
        );
        // Every other partner is tested, even once the answer is known.
        let mut tested = Vec::new();
        let r = unique_partner(partners, v, |p| {
            tested.push(p);
            true
        });
        assert_eq!(r, Err(ViewMiss::Ambiguous));
        assert_eq!(tested, [a, b, c]);
    }

    #[test]
    fn static_queries_and_error_texts_name_classes_by_path() {
        let ast = jns_syntax::parse(
            "class A { class C { int x = 1; } class D extends C { } }
             main { print 1; }",
        )
        .expect("parses");
        let prog = jns_types::check(&ast).expect("checks");
        let t = &prog.table;
        let class = |n: &str| t.lookup_path(&[t.intern("A"), t.intern(n)]).expect("class");
        let (c, d) = (class("C"), class("D"));
        let (x, m) = (t.intern("x"), t.intern("m"));
        assert!(view_subtype(&prog, d, &Ty::Class(c)));
        assert!(!view_subtype(&prog, c, &Ty::Class(d)));
        let (x_ty, x_masks) = field_view_type(&prog, d, x).expect("x has a type");
        assert_eq!(t.show_ty(&x_ty), "int");
        assert!(x_masks.is_empty());
        assert!(field_view_type(&prog, c, m).is_err());
        let texts = [
            (
                cast_failed(&prog, c, &Ty::Class(d)),
                "cast failed: view `A.C` is not a `A.D`",
            ),
            (
                uninitialised(&prog, &obj(4, c), x),
                "uninitialised field: 4.x (view A.C)",
            ),
            (
                no_method(&prog, d, m),
                "type mismatch: no method `m` on view `A.D`",
            ),
            (
                ViewMiss::NoPartner.error(&prog, c, &Ty::Class(d)),
                "view change failed: `A.C` has no shared view under `A.D`",
            ),
            (
                ViewMiss::Ambiguous.error(&prog, c, &Ty::Class(d)),
                "view change failed: ambiguous view change from `A.C` to `A.D`",
            ),
        ];
        for (err, text) in texts {
            assert_eq!(err.to_string(), text);
        }
        assert_eq!(display_value(&prog, &Value::Ref(obj(4, d))), "A.D@4");
        assert_eq!(display_value(&prog, &Value::Str(Arc::from("s"))), "s");
        assert_eq!(display_value(&prog, &Value::Unit), "()");
    }
}
