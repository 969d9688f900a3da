//! Resolution of the surface AST into the class table: class skeletons,
//! `extends` / `shares` / `adapts` clauses, field and method signatures,
//! and surface types into internal [`Ty`] / [`Type`].
//!
//! Unqualified type names get the paper's late-binding sugar (§2.1): a name
//! `C` found in the current class desugars to `this.class.C`; a name found
//! in the enclosing class `E` desugars to `E[this.class].C`; otherwise it
//! must be a top-level (absolute) name.

use crate::names::Name;
use crate::table::{ClassTable, ConstraintInfo, FieldInfo, MethodSig};
use crate::ty::{ClassId, TPath, Ty, Type};
use jns_syntax as syn;
use jns_syntax::Span;
use std::collections::BTreeSet;

/// A resolution/type error with a source span.
#[derive(Debug, Clone)]
pub struct TypeError {
    /// Human-readable description.
    pub message: String,
    /// Source location.
    pub span: Span,
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "type error: {}", self.message)
    }
}

impl std::error::Error for TypeError {}

/// Output of resolution: the table plus unresolved-body references for the
/// checker, and the declared sharing pairs.
#[derive(Debug)]
pub struct Resolved<'a> {
    /// The populated class table.
    pub table: ClassTable,
    /// `(class, surface decl)` for every explicit class, for body checking.
    pub bodies: Vec<(ClassId, &'a syn::ClassDecl)>,
    /// Declared sharing pairs `(derived, base, masks)` including `adapts`
    /// expansion.
    pub sharing_pairs: Vec<(ClassId, ClassId, BTreeSet<Name>)>,
    /// The main block, if any.
    pub main: Option<&'a syn::Block>,
}

/// Resolves a parsed program into a class table.
///
/// # Errors
///
/// Returns all resolution errors found (duplicate classes, unknown names,
/// malformed clauses).
pub fn resolve(program: &syn::Program) -> Result<Resolved<'_>, Vec<TypeError>> {
    let table = ClassTable::new();
    let mut errors = Vec::new();
    let mut bodies = Vec::new();

    // Pass A: skeletons.
    for class in &program.classes {
        add_skeleton(&table, ClassId::ROOT, class, &mut bodies, &mut errors);
    }
    if !errors.is_empty() {
        return Err(errors);
    }

    // Pass B: clauses and signatures, outermost-first (the `bodies` list is
    // already in pre-order).
    let mut sharing_pairs = Vec::new();
    for (id, decl) in &bodies {
        resolve_class(&table, *id, decl, &mut sharing_pairs, &mut errors);
    }
    if !errors.is_empty() {
        return Err(errors);
    }

    // `adapts P`: share every one-level member class of P with ours.
    let adapts: Vec<(ClassId, Vec<syn::QualName>, Span)> = bodies
        .iter()
        .filter(|(_, d)| !d.adapts.is_empty())
        .map(|(id, d)| (*id, d.adapts.clone(), d.span))
        .collect();
    for (id, quals, span) in adapts {
        for q in quals {
            let Some(base) = lookup_absolute(&table, &q) else {
                errors.push(TypeError {
                    message: format!("unknown class `{q}` in adapts clause"),
                    span,
                });
                continue;
            };
            let mut names: BTreeSet<Name> = BTreeSet::new();
            for s in table.supers(base) {
                names.extend(table.class(s).nested_explicit.keys().copied());
            }
            for n in names {
                if let (Some(d), Some(b)) = (table.member(id, n), table.member(base, n)) {
                    if d != b {
                        sharing_pairs.push((d, b, BTreeSet::new()));
                    }
                }
            }
        }
    }

    if errors.is_empty() {
        Ok(Resolved {
            table,
            bodies,
            sharing_pairs,
            main: program.main.as_ref(),
        })
    } else {
        Err(errors)
    }
}

fn add_skeleton<'a>(
    table: &ClassTable,
    parent: ClassId,
    decl: &'a syn::ClassDecl,
    bodies: &mut Vec<(ClassId, &'a syn::ClassDecl)>,
    errors: &mut Vec<TypeError>,
) {
    let name = table.intern(&decl.name.text);
    if table.class(parent).nested_explicit.contains_key(&name) {
        errors.push(TypeError {
            message: format!("duplicate class `{}`", decl.name.text),
            span: decl.name.span,
        });
        return;
    }
    let id = table.add_explicit(parent, name);
    bodies.push((id, decl));
    for m in &decl.members {
        if let syn::Member::Class(c) = m {
            add_skeleton(table, id, c, bodies, errors);
        }
    }
}

fn resolve_class(
    table: &ClassTable,
    id: ClassId,
    decl: &syn::ClassDecl,
    sharing_pairs: &mut Vec<(ClassId, ClassId, BTreeSet<Name>)>,
    errors: &mut Vec<TypeError>,
) {
    // extends
    let mut extends = Vec::new();
    for t in &decl.extends {
        match resolve_type(table, id, t) {
            Ok(ty) => {
                if !ty.masks.is_empty() {
                    errors.push(TypeError {
                        message: "supertypes cannot be masked".into(),
                        span: t.span(),
                    });
                }
                if ty.ty.is_exact() {
                    errors.push(TypeError {
                        message: "supertypes cannot be exact (P ⊢ T super ok)".into(),
                        span: t.span(),
                    });
                }
                extends.push(ty.ty);
            }
            Err(e) => errors.push(e),
        }
    }
    table.update(id, |ci| ci.extends = extends);

    // shares
    if let Some(st) = &decl.shares {
        match resolve_type(table, id, st) {
            Ok(ty) => {
                let members = table.mem(&ty.ty);
                if members.len() == 1 {
                    sharing_pairs.push((id, members[0], ty.masks));
                } else {
                    errors.push(TypeError {
                        message: format!(
                            "shares clause must name a single class, got `{}`",
                            table.show_ty(&ty.ty)
                        ),
                        span: st.span(),
                    });
                }
            }
            Err(e) => errors.push(e),
        }
    }

    // fields and method signatures
    let mut fields = Vec::new();
    let mut methods = Vec::new();
    for m in &decl.members {
        match m {
            syn::Member::Class(_) => {}
            syn::Member::Field(f) => {
                let name = table.intern(&f.name.text);
                if fields.iter().any(|fi: &FieldInfo| fi.name == name) {
                    errors.push(TypeError {
                        message: format!("duplicate field `{}`", f.name.text),
                        span: f.name.span,
                    });
                    continue;
                }
                match resolve_type(table, id, &f.ty) {
                    Ok(ty) => {
                        if ty.ty.is_exact() && !matches!(ty.ty, Ty::Prim(_)) {
                            errors.push(TypeError {
                                message: format!(
                                    "field `{}` has exact type `{}`; field types may not be exact (F-OK)",
                                    f.name.text,
                                    table.show_type(&ty)
                                ),
                                span: f.ty.span(),
                            });
                        }
                        fields.push(FieldInfo {
                            name,
                            is_final: f.is_final,
                            ty,
                            has_init: f.init.is_some(),
                        });
                    }
                    Err(e) => errors.push(e),
                }
            }
            syn::Member::Method(m) => {
                let name = table.intern(&m.name.text);
                if methods.iter().any(|ms: &MethodSig| ms.name == name) {
                    errors.push(TypeError {
                        message: format!("duplicate method `{}`", m.name.text),
                        span: m.name.span,
                    });
                    continue;
                }
                let mut ok = true;
                let mut params = Vec::new();
                for p in &m.params {
                    match resolve_type(table, id, &p.ty) {
                        Ok(ty) => params.push((table.intern(&p.name.text), ty)),
                        Err(e) => {
                            errors.push(e);
                            ok = false;
                        }
                    }
                }
                let ret = match resolve_type(table, id, &m.ret) {
                    Ok(ty) => ty,
                    Err(e) => {
                        errors.push(e);
                        ok = false;
                        crate::ty::void()
                    }
                };
                let mut constraints = Vec::new();
                for c in &m.constraints {
                    let lhs = resolve_type(table, id, &c.lhs);
                    let rhs = resolve_type(table, id, &c.rhs);
                    match (lhs, rhs) {
                        (Ok(l), Ok(r)) => constraints.push(ConstraintInfo {
                            lhs: l,
                            rhs: r,
                            directional: c.directional,
                        }),
                        (l, r) => {
                            if let Err(e) = l {
                                errors.push(e);
                            }
                            if let Err(e) = r {
                                errors.push(e);
                            }
                            ok = false;
                        }
                    }
                }
                if ok {
                    methods.push(MethodSig {
                        name,
                        params,
                        ret,
                        constraints,
                        is_abstract: m.body.is_none(),
                    });
                }
            }
        }
    }
    table.update(id, |ci| {
        ci.fields = fields;
        ci.methods = methods;
    });
}

/// Looks up an absolute dotted class name from the root.
pub fn lookup_absolute(table: &ClassTable, q: &syn::QualName) -> Option<ClassId> {
    let path: Vec<Name> = q.parts.iter().map(|p| table.intern(&p.text)).collect();
    table.lookup_path(&path)
}

/// Resolves a surface type in the context of class `ctx` (use
/// [`ClassId::ROOT`] for `main`).
pub fn resolve_type(
    table: &ClassTable,
    ctx: ClassId,
    t: &syn::TypeExpr,
) -> Result<Type, TypeError> {
    Ok(match t {
        syn::TypeExpr::Prim(p, _) => Ty::Prim(*p).unmasked(),
        syn::TypeExpr::Name(q) => resolve_name(table, ctx, q, t.span())?.unmasked(),
        syn::TypeExpr::DepClass(p, _) => {
            let base = table.intern(&p.base.text);
            let fields = p.fields.iter().map(|f| table.intern(&f.text)).collect();
            Ty::Dep(TPath { base, fields }).unmasked()
        }
        syn::TypeExpr::Prefix(q, idx, span) => {
            let p = lookup_absolute(table, q).ok_or_else(|| TypeError {
                message: format!("unknown prefix class `{q}`"),
                span: *span,
            })?;
            let idx = resolve_type(table, ctx, idx)?;
            if !idx.masks.is_empty() {
                return Err(TypeError {
                    message: "prefix type index cannot be masked (WF-PRE)".into(),
                    span: *span,
                });
            }
            Ty::Prefix(p, Box::new(idx.ty)).unmasked()
        }
        syn::TypeExpr::Exact(inner, _) => {
            let inner = resolve_type(table, ctx, inner)?;
            inner.ty.exact().with_masks(inner.masks)
        }
        syn::TypeExpr::Nested(inner, c) => {
            let inner = resolve_type(table, ctx, inner)?;
            let name = table.intern(&c.text);
            Ty::Nested(Box::new(inner.ty), name).with_masks(inner.masks)
        }
        syn::TypeExpr::Meet(parts, _) => {
            let mut tys = Vec::new();
            let mut masks = BTreeSet::new();
            for p in parts {
                let r = resolve_type(table, ctx, p)?;
                masks.extend(r.masks);
                tys.push(r.ty);
            }
            Ty::Meet(tys).with_masks(masks)
        }
        syn::TypeExpr::Masked(inner, fs) => {
            let inner = resolve_type(table, ctx, inner)?;
            let mut masks = inner.masks;
            for f in fs {
                masks.insert(table.intern(&f.text));
            }
            inner.ty.with_masks(masks)
        }
    })
}

/// Resolves a dotted name: late-binding sugar for the first segment, plain
/// member access for the rest.
fn resolve_name(
    table: &ClassTable,
    ctx: ClassId,
    q: &syn::QualName,
    span: Span,
) -> Result<Ty, TypeError> {
    let first = table.intern(&q.parts[0].text);
    let mut base: Option<Ty> = None;

    if ctx != ClassId::ROOT {
        // Current class first: `C` ↦ `this.class.C`.
        if table.member(ctx, first).is_some() {
            base = Some(Ty::Nested(
                Box::new(Ty::Dep(TPath::var(table.this_name))),
                first,
            ));
        } else if let Some(encl) = table.parent(ctx) {
            // One level out: `C` ↦ `E[this.class].C`.
            if encl != ClassId::ROOT && table.member(encl, first).is_some() {
                base = Some(Ty::Nested(
                    Box::new(Ty::Prefix(
                        encl,
                        Box::new(Ty::Dep(TPath::var(table.this_name))),
                    )),
                    first,
                ));
            } else if encl != ClassId::ROOT {
                // Two levels out are not resolved: no paper example needs
                // it, and a qualified name always works, as the error says.
                if let Some(encl2) = table.parent(encl) {
                    if encl2 != ClassId::ROOT && table.member(encl2, first).is_some() {
                        return Err(TypeError {
                            message: format!(
                                "`{}` is nested more than one family level away; \
                                 use a qualified name",
                                q.parts[0].text
                            ),
                            span,
                        });
                    }
                }
            }
        }
    }
    if base.is_none() {
        // Absolute top-level name.
        if let Some(id) = table.member(ClassId::ROOT, first) {
            base = Some(Ty::Class(id));
        }
    }
    let Some(mut ty) = base else {
        return Err(TypeError {
            message: format!("unknown type name `{}`", q.parts[0].text),
            span,
        });
    };
    for seg in &q.parts[1..] {
        let n = table.intern(&seg.text);
        // Fold absolute paths into class ids where possible.
        ty = match ty {
            Ty::Class(p) => match table.member(p, n) {
                Some(id) => Ty::Class(id),
                None => {
                    return Err(TypeError {
                        message: format!(
                            "class `{}` has no member `{}`",
                            table.class_name(p),
                            seg.text
                        ),
                        span: seg.span,
                    })
                }
            },
            other => Ty::Nested(Box::new(other), n),
        };
    }
    Ok(ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_for(src: &str) -> (ClassTable, Vec<(ClassId, BTreeSet<Name>)>) {
        let prog = syn::parse(src).unwrap();
        let r = resolve(&prog).unwrap_or_else(|e| panic!("{e:?}"));
        let pairs = r
            .sharing_pairs
            .iter()
            .map(|(d, _b, m)| (*d, m.clone()))
            .collect();
        (r.table, pairs)
    }

    #[test]
    fn resolves_figure1_hierarchy() {
        let (t, _) = table_for(
            "class AST {
               class Exp { }
               class Value extends Exp { }
               class Binary extends Exp { Exp l; Exp r; }
             }
             class TreeDisplay {
               class Node { void display() { } }
               class Composite extends Node { }
               class Leaf extends Node { }
             }
             class ASTDisplay extends AST & TreeDisplay {
               class Exp extends Node { }
               class Value extends Exp & Leaf { }
               class Binary extends Exp & Composite { }
             }",
        );
        let ast = t.lookup_path(&[t.intern("AST")]).unwrap();
        let ad = t.lookup_path(&[t.intern("ASTDisplay")]).unwrap();
        let ad_binary = t.member(ad, t.intern("Binary")).unwrap();
        let ast_binary = t.member(ast, t.intern("Binary")).unwrap();
        assert!(t.is_subclass(ad_binary, ast_binary));
        let ad_exp = t.member(ad, t.intern("Exp")).unwrap();
        assert!(t.is_subclass(ad_binary, ad_exp));
        // Field type of l is late bound: AST[this.class].Exp.
        let (_, fi) = t.field(ad_binary, t.intern("l")).unwrap();
        assert!(matches!(&fi.ty.ty, Ty::Nested(inner, _)
            if matches!(&**inner, Ty::Prefix(p, _) if *p == ast)));
    }

    #[test]
    fn shares_clause_produces_pairs() {
        let (t, pairs) = table_for(
            "class A { class C { } }
             class B extends A { class C shares A.C { } }",
        );
        assert_eq!(pairs.len(), 1);
        let b = t.lookup_path(&[t.intern("B")]).unwrap();
        let bc = t.member(b, t.intern("C")).unwrap();
        assert_eq!(pairs[0].0, bc);
    }

    #[test]
    fn shares_with_mask_records_masks() {
        let (t, pairs) = table_for(
            "class A { class C { int g = 0; } }
             class B extends A { class C shares A.C\\g { } }",
        );
        assert!(pairs[0].1.contains(&t.intern("g")));
    }

    #[test]
    fn adapts_expands_to_all_members() {
        let prog = syn::parse(
            "class AST { class Exp { } class Value extends Exp { } }
             class ASTDisplay extends AST adapts AST { }",
        )
        .unwrap();
        let r = resolve(&prog).unwrap();
        // Exp and Value both shared.
        assert_eq!(r.sharing_pairs.len(), 2);
    }

    #[test]
    fn unknown_name_errors() {
        let prog = syn::parse("class A { Missing f; }").unwrap();
        let errs = resolve(&prog).unwrap_err();
        assert!(errs[0].message.contains("unknown type name"));
    }

    #[test]
    fn duplicate_class_errors() {
        let prog = syn::parse("class A { } class A { }").unwrap();
        let errs = resolve(&prog).unwrap_err();
        assert!(errs[0].message.contains("duplicate class"));
    }

    #[test]
    fn exact_field_type_rejected() {
        let prog = syn::parse("class A { class C { } A.C! f; }").unwrap();
        let errs = resolve(&prog).unwrap_err();
        assert!(errs[0].message.contains("exact"), "{:?}", errs[0].message);
    }

    #[test]
    fn exact_supertype_rejected() {
        let prog = syn::parse("class A { } class B extends A! { }").unwrap();
        let errs = resolve(&prog).unwrap_err();
        assert!(errs[0].message.contains("exact"));
    }

    #[test]
    fn absolute_nested_names_fold_to_classes() {
        let (t, _) = table_for("class A { class C { } } class F { A.C g(A.C x) { return x; } }");
        let f = t.lookup_path(&[t.intern("F")]).unwrap();
        let info = t.class(f);
        let sig = &info.methods[0];
        let ac = t.lookup_path(&[t.intern("A"), t.intern("C")]).unwrap();
        assert_eq!(sig.ret.ty, Ty::Class(ac));
    }

    #[test]
    fn exact_family_types_resolve() {
        let (t, _) = table_for(
            "class Base { class Exp { } }
             class F { void f(Base!.Exp e) { } }",
        );
        let f = t.lookup_path(&[t.intern("F")]).unwrap();
        let sig = &t.class(f).methods[0];
        let base = t.lookup_path(&[t.intern("Base")]).unwrap();
        assert_eq!(
            sig.params[0].1.ty,
            Ty::Nested(Box::new(Ty::Class(base).exact()), t.intern("Exp"))
        );
    }
}
