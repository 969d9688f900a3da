//! Run-time type evaluation (the type evaluation contexts `TE` of Fig. 16).
//!
//! Dependent types embedded in the IR are evaluated against the current
//! stack frame: `p.class` becomes the *view* of the reference stored at
//! `p`, and a prefix `P[v.class]` walks up the enclosing classes of the
//! view — this is how a single view change on a root object implicitly
//! re-families every type mentioned by inherited code.
//!
//! The algorithm is generic over a [`TypeEvalCtx`] so that every
//! execution backend (the tree-walk [`Machine`] here, the bytecode VM in
//! `jns-vm`) evaluates types through the *same* code path — one source of
//! truth for the Fig. 16 semantics and its error messages.

use crate::error::RtError;
use crate::machine::Machine;
use crate::masks::MaskTable;
use crate::value::{RefVal, Value};
use jns_types::{CheckedProgram, ClassId, Name, Ty};
use std::collections::{BTreeSet, HashMap};

/// What type evaluation needs from an execution backend: field reads
/// (for dependent paths `p.f1…fn.class`, which follow the backend's own
/// heap and view-change machinery), the program being run, and the
/// backend's mask table (a `p.class` root contributes its masks).
pub trait TypeEvalCtx {
    /// Reads `r.f` through `r`'s view, with the backend's lazy implicit
    /// view change applied to the result.
    fn read_field(&mut self, r: &RefVal, f: Name) -> Result<Value, RtError>;

    /// The checked program being executed.
    fn checked_program(&self) -> &CheckedProgram;

    /// The table the backend's references take their [`crate::MaskId`]s
    /// from.
    fn mask_table(&self) -> &MaskTable;
}

impl TypeEvalCtx for Machine<'_> {
    fn read_field(&mut self, r: &RefVal, f: Name) -> Result<Value, RtError> {
        self.get_field(r, f)
    }

    fn checked_program(&self) -> &CheckedProgram {
        self.program()
    }

    fn mask_table(&self) -> &MaskTable {
        Machine::mask_table(self)
    }
}

/// Evaluates a possibly dependent type to a non-dependent runtime type
/// plus the mask set contributed by dependent classes, resolving path
/// roots through `vars`.
pub fn eval_type_in<C: TypeEvalCtx>(
    ctx: &mut C,
    vars: &dyn Fn(Name) -> Option<Value>,
    ty: &Ty,
) -> Result<(Ty, BTreeSet<Name>), RtError> {
    let mut masks = BTreeSet::new();
    let t = go(ctx, vars, ty, &mut masks, 0)?;
    Ok((t, masks))
}

/// Depth bound for the structural type walk. Runtime types mirror the
/// program text (dependent *paths* are iterated, not recursed), so real
/// programs sit far below this; the bound turns any pathological nesting
/// into a benign [`RtError::DepthExceeded`] instead of a host-stack
/// overflow, matching the evaluation loop's guarantee.
const MAX_TYPE_DEPTH: u32 = 2_048;

/// Evaluates a possibly dependent type against a [`Machine`] stack frame.
pub fn eval_type(
    machine: &mut Machine<'_>,
    frame: &HashMap<Name, Value>,
    ty: &Ty,
) -> Result<(Ty, BTreeSet<Name>), RtError> {
    eval_type_in(machine, &|n| frame.get(&n).cloned(), ty)
}

fn go<C: TypeEvalCtx>(
    ctx: &mut C,
    vars: &dyn Fn(Name) -> Option<Value>,
    ty: &Ty,
    masks: &mut BTreeSet<Name>,
    depth: u32,
) -> Result<Ty, RtError> {
    if depth >= MAX_TYPE_DEPTH {
        return Err(RtError::DepthExceeded(MAX_TYPE_DEPTH));
    }
    Ok(match ty {
        Ty::Prim(_) | Ty::Class(_) => ty.clone(),
        Ty::Dep(path) => {
            let mut v = vars(path.base).ok_or_else(|| {
                RtError::UnboundVariable(ctx.checked_program().table.name_str(path.base))
            })?;
            for f in &path.fields {
                let r = *v
                    .as_ref_val()
                    .ok_or_else(|| RtError::TypeMismatch("path through primitive".into()))?;
                v = ctx.read_field(&r, *f)?;
            }
            let r = v
                .as_ref_val()
                .ok_or_else(|| RtError::TypeMismatch("`.class` of primitive".into()))?;
            masks.extend(ctx.mask_table().get(r.masks).iter().copied());
            Ty::Class(r.view).exact()
        }
        Ty::Nested(inner, c) => {
            let i = go(ctx, vars, inner, masks, depth + 1)?;
            Ty::Nested(Box::new(i), *c)
        }
        Ty::Prefix(p, idx) => {
            let i = go(ctx, vars, idx, masks, depth + 1)?;
            // Runtime prefix: walk up the enclosing classes of the (unique)
            // member of the evaluated index until one is a subtype of `p`.
            let table = &ctx.checked_program().table;
            let members = table.mem(&i);
            let Some(&m) = members.first() else {
                return Err(RtError::BadType(format!(
                    "prefix index `{}` has no classes",
                    table.show_ty(&i)
                )));
            };
            let mut cur = table.parent(m);
            let mut found = None;
            while let Some(e) = cur {
                if table.is_subclass(e, *p) {
                    found = Some(e);
                    break;
                }
                cur = table.parent(e);
            }
            let e = found.ok_or_else(|| {
                RtError::BadType(format!(
                    "no enclosing class of `{}` is a subtype of `{}`",
                    table.class_name(m),
                    table.class_name(*p)
                ))
            })?;
            if i.prefix_exact(1) {
                Ty::Class(e).exact()
            } else {
                Ty::Class(e)
            }
        }
        Ty::Exact(inner) => go(ctx, vars, inner, masks, depth + 1)?.exact(),
        Ty::Meet(parts) => {
            let mut out = Vec::new();
            for p in parts {
                out.push(go(ctx, vars, p, masks, depth + 1)?);
            }
            Ty::Meet(out)
        }
    })
}

/// Evaluates a type to the single class it denotes (for `new`), resolving
/// path roots through `vars`.
pub fn eval_type_class_in<C: TypeEvalCtx>(
    ctx: &mut C,
    vars: &dyn Fn(Name) -> Option<Value>,
    ty: &Ty,
) -> Result<ClassId, RtError> {
    let (t, _masks) = eval_type_in(ctx, vars, ty)?;
    let table = &ctx.checked_program().table;
    // Canonicalise (resolves Nested over classes, prunes meets).
    let env = jns_types::TypeEnv::new();
    let judge = jns_types::Judge::new(table, &env);
    let c = judge.canon(&strip_exact(&t));
    let members = table.mem(&c);
    match members.len() {
        1 => Ok(members[0]),
        0 => Err(RtError::BadType(format!(
            "`{}` denotes no class",
            table.show_ty(&c)
        ))),
        _ => Err(RtError::BadType(format!(
            "cannot instantiate intersection `{}`",
            table.show_ty(&c)
        ))),
    }
}

/// Evaluates a type to the single class it denotes against a [`Machine`]
/// stack frame.
pub fn eval_type_class(
    machine: &mut Machine<'_>,
    frame: &HashMap<Name, Value>,
    ty: &Ty,
) -> Result<ClassId, RtError> {
    eval_type_class_in(machine, &|n| frame.get(&n).cloned(), ty)
}

fn strip_exact(t: &Ty) -> Ty {
    match t {
        Ty::Exact(i) => strip_exact(i),
        other => other.clone(),
    }
}
