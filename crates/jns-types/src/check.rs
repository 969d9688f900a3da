//! The flow-sensitive type checker (Fig. 10 T-* rules, Fig. 15 program
//! typing) with lowering to the typed core IR.
//!
//! Masked types make the system flow-sensitive (§6.1): assignments to
//! masked fields update the environment (`grant`), `if` joins mask sets,
//! and `while` restores them.

use crate::env::TypeEnv;
use crate::ir::{CExpr, CMethod, CheckedProgram};
use crate::judge::Judge;
use crate::names::Name;
use crate::resolve::{resolve, resolve_type, TypeError};
use crate::sharing::SharingTable;
use crate::table::{ClassTable, MethodSig};
use crate::ty::{ClassId, TPath, Ty, Type};
use jns_syntax as syn;
use jns_syntax::{BinOp, PrimTy, Span, UnOp};
use std::collections::{BTreeSet, HashMap};

/// Type-checks a parsed program and lowers it to the core IR.
///
/// # Errors
///
/// Returns every type error found (the checker recovers per method).
///
/// # Examples
///
/// ```
/// let prog = jns_syntax::parse(
///     "class A { class C { int x = 1; int get() { return this.x; } } }
///      main { final A.C c = new A.C(); print c.get(); }",
/// ).unwrap();
/// let checked = jns_types::check(&prog)?;
/// assert!(checked.main.is_some());
/// # Ok::<(), Vec<jns_types::TypeError>>(())
/// ```
pub fn check(program: &syn::Program) -> Result<CheckedProgram, Vec<TypeError>> {
    check_with(program, CheckOptions::default())
}

/// Options for [`check_with`].
#[derive(Debug, Default, Clone, Copy)]
pub struct CheckOptions {
    /// Infer missing sharing constraints (the paper's §2.5 future work):
    /// a view change in a method body that is not justified by a declared
    /// constraint, but holds in the closed world, causes the constraint
    /// to be *added* to the method's signature — so it is still re-checked
    /// in every inheriting family (Q-OK), preserving modular soundness.
    pub infer_constraints: bool,
}

/// Wall-clock time of each checker phase, in microseconds. Recorded on
/// every check (a few `Instant` reads), carried in
/// [`CheckedProgram::timings`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckTimings {
    /// Class skeletons, clauses and signatures, and the P-OK cycle check.
    pub resolve_us: u64,
    /// `SharingTable::build`: sharing groups, field copies, forwarding.
    pub sharing_us: u64,
    /// Field initialisers, method bodies and `main`.
    pub bodies_us: u64,
    /// Q-OK / L-OK validation of every method's sharing constraints.
    pub constraints_us: u64,
}

/// Microseconds since `*t`, restarting `*t`.
fn lap(t: &mut std::time::Instant) -> u64 {
    let now = std::time::Instant::now();
    let us = now.duration_since(*t).as_micros() as u64;
    *t = now;
    us
}

/// Type-checks with explicit [`CheckOptions`].
///
/// # Errors
///
/// Returns every type error found.
pub fn check_with(
    program: &syn::Program,
    options: CheckOptions,
) -> Result<CheckedProgram, Vec<TypeError>> {
    let mut clock = std::time::Instant::now();
    let mut timings = CheckTimings::default();
    let resolved = resolve(program)?;
    let mut errors = Vec::new();

    // P-OK: acyclic hierarchy.
    let cycles = resolved.table.find_cycles();
    if !cycles.is_empty() {
        for c in cycles {
            errors.push(TypeError {
                message: format!(
                    "class `{}` participates in an inheritance cycle",
                    resolved.table.class_name(c)
                ),
                span: Span::dummy(),
            });
        }
        return Err(errors);
    }
    timings.resolve_us = lap(&mut clock);

    let (sharing, serrs) = SharingTable::build(&resolved.table, resolved.sharing_pairs.clone());
    timings.sharing_us = lap(&mut clock);
    for e in serrs {
        errors.push(TypeError {
            message: e.message,
            span: Span::dummy(),
        });
    }

    let mut checker = Checker {
        table: &resolved.table,
        sharing: &sharing,
        errors,
        methods: HashMap::new(),
        field_inits: HashMap::new(),
        options,
    };

    for (id, decl) in &resolved.bodies {
        checker.check_class(*id, decl);
    }
    let main = resolved.main.map(|b| {
        let mut env = TypeEnv::new();
        let mut cx = BodyCx {
            checker: &mut checker,
            class: ClassId::ROOT,
            env: &mut env,
            ret: None,
            in_method: false,
            inferred: Vec::new(),
        };
        cx.check_block(b).1
    });
    timings.bodies_us = lap(&mut clock);

    // Q-OK / L-OK constraint validation over every class materialised so
    // far (including implicit ones pulled in by body checking).
    checker.check_constraints();
    timings.constraints_us = lap(&mut clock);

    let Checker {
        errors,
        methods,
        field_inits,
        ..
    } = checker;
    if errors.is_empty() {
        Ok(CheckedProgram {
            table: resolved.table,
            sharing,
            methods,
            field_inits,
            main,
            timings,
        })
    } else {
        Err(errors)
    }
}

struct Checker<'t> {
    table: &'t ClassTable,
    sharing: &'t SharingTable,
    errors: Vec<TypeError>,
    methods: HashMap<(ClassId, Name), CMethod>,
    field_inits: HashMap<(ClassId, Name), CExpr>,
    options: CheckOptions,
}

impl<'t> Checker<'t> {
    fn err(&mut self, message: String, span: Span) {
        self.errors.push(TypeError { message, span });
    }

    fn check_class(&mut self, id: ClassId, decl: &syn::ClassDecl) {
        self.check_conformance(id, decl);
        for m in &decl.members {
            match m {
                syn::Member::Class(_) => {}
                syn::Member::Field(f) => self.check_field_init(id, f),
                syn::Member::Method(m) => self.check_method(id, m),
            }
        }
    }

    /// L-OK conformance: field disjointness and override compatibility.
    fn check_conformance(&mut self, id: ClassId, decl: &syn::ClassDecl) {
        let info = self.table.class(id);
        for s in self.table.supers(id) {
            if s == id {
                continue;
            }
            let sinfo = self.table.class(s);
            for f in &info.fields {
                if sinfo.fields.iter().any(|sf| sf.name == f.name) {
                    self.err(
                        format!(
                            "field `{}` of `{}` shadows a field of `{}` (L-OK requires disjoint fields)",
                            self.table.name_str(f.name),
                            self.table.class_name(id),
                            self.table.class_name(s)
                        ),
                        decl.span,
                    );
                }
            }
            for m in &info.methods {
                if let Some(sm) = sinfo.methods.iter().find(|sm| sm.name == m.name) {
                    self.check_override(id, m, s, sm, decl.span);
                }
            }
        }
    }

    fn check_override(
        &mut self,
        id: ClassId,
        m: &MethodSig,
        sup: ClassId,
        sm: &MethodSig,
        span: Span,
    ) {
        if m.params.len() != sm.params.len() {
            self.err(
                format!(
                    "method `{}` of `{}` overrides `{}` with a different arity",
                    self.table.name_str(m.name),
                    self.table.class_name(id),
                    self.table.class_name(sup)
                ),
                span,
            );
            return;
        }
        let mut env = TypeEnv::new();
        env.bind(self.table.this_name, Ty::Class(id).unmasked());
        for (x, t) in &m.params {
            env.bind(*x, t.clone());
        }
        let judge = Judge::new(self.table, &env);
        // Rename the overridden signature's parameters to ours.
        let rename = |t: &Type| -> Type {
            let mut ty = t.clone();
            for (i, (sx, _)) in sm.params.iter().enumerate() {
                if let Ok(r) = judge.subst(&ty.ty, *sx, &Ty::Dep(TPath::var(m.params[i].0))) {
                    ty.ty = r;
                }
            }
            ty
        };
        for (i, (_, t)) in m.params.iter().enumerate() {
            let st = rename(&sm.params[i].1);
            if !judge.equiv(t, &st) {
                self.err(
                    format!(
                        "method `{}` of `{}`: parameter {} type `{}` is not equivalent to overridden `{}`",
                        self.table.name_str(m.name),
                        self.table.class_name(id),
                        i + 1,
                        self.table.show_type(t),
                        self.table.show_type(&st)
                    ),
                    span,
                );
            }
        }
        let sret = rename(&sm.ret);
        if !judge.equiv(&m.ret, &sret) {
            self.err(
                format!(
                    "method `{}` of `{}`: return type `{}` is not equivalent to overridden `{}`",
                    self.table.name_str(m.name),
                    self.table.class_name(id),
                    self.table.show_type(&m.ret),
                    self.table.show_type(&sret)
                ),
                span,
            );
        }
    }

    /// F-OK: initialisers run with every field of `this` masked.
    fn check_field_init(&mut self, id: ClassId, f: &syn::FieldDecl) {
        let Some(init) = &f.init else { return };
        let fname = self.table.intern(&f.name.text);
        let all_fields = self.table.field_names(id);
        let mut env = TypeEnv::new();
        env.bind(
            self.table.this_name,
            Ty::Class(id).with_masks(all_fields.iter().copied().collect()),
        );
        let declared = match resolve_type(self.table, id, &f.ty) {
            Ok(t) => t,
            Err(e) => {
                self.errors.push(e);
                return;
            }
        };
        let mut cx = BodyCx {
            checker: self,
            class: id,
            env: &mut env,
            ret: None,
            in_method: true,
            inferred: Vec::new(),
        };
        let (t, lowered) = cx.check_expr(init);
        let judge = Judge::new(self.table, &env);
        if !judge.sub(&t, &declared) {
            self.err(
                format!(
                    "initialiser of field `{}` has type `{}`, expected `{}`",
                    f.name.text,
                    self.table.show_type(&t),
                    self.table.show_type(&declared)
                ),
                init.span(),
            );
        }
        self.field_inits.insert((id, fname), lowered);
    }

    /// M-OK: checks a method body under Γ = this:P, x:T.
    fn check_method(&mut self, id: ClassId, m: &syn::MethodDecl) {
        let mname = self.table.intern(&m.name.text);
        let Some(sig) = self
            .table
            .class(id)
            .methods
            .iter()
            .find(|s| s.name == mname)
            .cloned()
        else {
            return; // signature failed to resolve; already reported
        };
        let mut env = TypeEnv::new();
        env.bind(self.table.this_name, Ty::Class(id).unmasked());
        for (x, t) in &sig.params {
            if env.contains(*x) {
                self.err(
                    format!("duplicate parameter `{}`", self.table.name_str(*x)),
                    m.span,
                );
            }
            env.bind(*x, t.clone());
        }
        for c in &sig.constraints {
            env.add_constraint(c.clone());
        }
        let Some(body) = &m.body else {
            return; // abstract: nothing to check or lower
        };
        let ret = sig.ret.clone();
        let mut cx = BodyCx {
            checker: self,
            class: id,
            env: &mut env,
            ret: Some(ret.clone()),
            in_method: true,
            inferred: Vec::new(),
        };
        let (t, lowered) = cx.check_block(body);
        let inferred = std::mem::take(&mut cx.inferred);
        if !matches!(ret.ty, Ty::Prim(PrimTy::Void)) {
            let judge = Judge::new(self.table, &env);
            if !judge.sub(&t, &ret) {
                self.err(
                    format!(
                        "method `{}` returns `{}`, expected `{}`",
                        m.name.text,
                        self.table.show_type(&t),
                        self.table.show_type(&ret)
                    ),
                    body.span,
                );
            }
        }
        if !inferred.is_empty() {
            // Attach the inferred constraints to the signature so that
            // Q-OK re-checks them in every inheriting family.
            self.table.update(id, |ci| {
                if let Some(m) = ci.methods.iter_mut().find(|m| m.name == mname) {
                    m.constraints.extend(inferred);
                }
            });
        }
        self.methods.insert(
            (id, mname),
            CMethod {
                params: sig.params.iter().map(|(x, _)| *x).collect(),
                body: lowered,
            },
        );
    }

    /// Q-OK for every class's own methods and L-OK for inherited methods
    /// whose constraints must still hold in the inheriting family.
    fn check_constraints(&mut self) {
        let env = TypeEnv::new();
        for id in self.table.all_ids() {
            if id == ClassId::ROOT {
                continue;
            }
            let this_exact = Ty::Class(id).exact();
            for mname in self.table.method_names(id) {
                let Some((owner, sig)) = self.table.method(id, mname) else {
                    continue;
                };
                for c in &sig.constraints {
                    let judge = Judge::new(self.table, &env);
                    let l = judge.subst(&c.lhs.ty, self.table.this_name, &this_exact);
                    let r = judge.subst(&c.rhs.ty, self.table.this_name, &this_exact);
                    let (Ok(l), Ok(r)) = (l, r) else {
                        continue;
                    };
                    let lt = l.with_masks(c.lhs.masks.clone());
                    let rt = r.with_masks(c.rhs.masks.clone());
                    let ok_fwd = self.sharing.shares_types(&judge, &lt, &rt);
                    let ok_bwd = c.directional || self.sharing.shares_types(&judge, &rt, &lt);
                    if !(ok_fwd && ok_bwd) {
                        let who = if owner == id {
                            format!("method `{}`", self.table.name_str(mname))
                        } else {
                            format!(
                                "method `{}` inherited from `{}` (override it)",
                                self.table.name_str(mname),
                                self.table.class_name(owner)
                            )
                        };
                        self.err(
                            format!(
                                "sharing constraint `{} = {}` of {} does not hold in `{}`",
                                self.table.show_type(&lt),
                                self.table.show_type(&rt),
                                who,
                                self.table.class_name(id)
                            ),
                            Span::dummy(),
                        );
                    }
                }
            }
        }
    }
}

/// Context for checking one body (method, initialiser, or main).
struct BodyCx<'c, 't> {
    checker: &'c mut Checker<'t>,
    class: ClassId,
    env: &'c mut TypeEnv,
    ret: Option<Type>,
    in_method: bool,
    inferred: Vec<crate::table::ConstraintInfo>,
}

impl<'c, 't> BodyCx<'c, 't> {
    fn table(&self) -> &'t ClassTable {
        self.checker.table
    }

    fn err(&mut self, message: String, span: Span) -> (Type, CExpr) {
        self.checker.err(message, span);
        (crate::ty::void(), CExpr::Unit)
    }

    fn judge(&self) -> Judge<'_> {
        Judge::new(self.checker.table, self.env)
    }

    fn resolve(&mut self, t: &syn::TypeExpr) -> Option<Type> {
        match resolve_type(self.checker.table, self.class, t) {
            Ok(ty) => Some(ty),
            Err(e) => {
                self.checker.errors.push(e);
                None
            }
        }
    }

    // ------------------------------------------------------------- blocks

    /// Checks a statement block. Every `let` scopes over the rest of the
    /// block, so the lowered IR nests one `CExpr::Let` per binding — but
    /// the *walk* is iterative: an explicit worklist of open bindings
    /// replaces the old check-the-rest-of-the-block recursion (whose
    /// depth was proportional to the number of `let` statements — the one
    /// checker recursion not bounded by the parser's expression-nesting
    /// limit, and therefore reachable from adversarial source length).
    /// The unwind below rebuilds the nested structure innermost-first and
    /// replays the scope-exit discipline — dependent-type widening
    /// (`{T_x/x}`), then unbind — exactly as the recursion did.
    fn check_block(&mut self, b: &syn::Block) -> (Type, CExpr) {
        /// One open `let`: its binding, lowered initialiser, and the
        /// statements lowered before it (the prefix of its `Seq`).
        struct OpenLet {
            x: Name,
            init: CExpr,
            before: Vec<CExpr>,
        }
        let mut lets: Vec<OpenLet> = Vec::new();
        let mut parts: Vec<CExpr> = Vec::new();
        let mut last_ty = crate::ty::void();
        let n = b.stmts.len();
        for (i, stmt) in b.stmts.iter().enumerate() {
            match stmt {
                syn::Stmt::Let { ty, name, init } => {
                    let x = self.table().intern(&name.text);
                    if self.env.contains(x) || name.text == "this" {
                        self.err(
                            format!(
                                "variable `{}` is already defined (locals are final)",
                                name.text
                            ),
                            name.span,
                        );
                        continue;
                    }
                    let declared = match self.resolve(ty) {
                        Some(t) => t,
                        None => continue,
                    };
                    let (it, lowered) = self.check_expr(init);
                    if !self.judge().sub(&it, &declared) {
                        self.checker.err(
                            format!(
                                "cannot bind value of type `{}` to `{}: {}`",
                                self.table().show_type(&it),
                                name.text,
                                self.table().show_type(&declared)
                            ),
                            init.span(),
                        );
                    }
                    self.env.bind(x, declared);
                    lets.push(OpenLet {
                        x,
                        init: lowered,
                        before: std::mem::take(&mut parts),
                    });
                    // A trailing `let` yields void (its body is empty).
                    last_ty = crate::ty::void();
                }
                _ => {
                    let is_last = i + 1 == n;
                    let (t, lowered) = self.check_stmt(stmt, is_last);
                    if is_last {
                        last_ty = t;
                    }
                    parts.push(lowered);
                }
            }
        }
        let mut body = match parts.len() {
            0 => CExpr::Unit,
            1 => parts.pop().expect("one"),
            _ => CExpr::Seq(parts),
        };
        while let Some(OpenLet { x, init, before }) = lets.pop() {
            // The binding goes out of scope here: widen any type that
            // depends on it by substituting its declared type ({T_x/x},
            // the calculus' type substitution).
            if last_ty.ty.paths().iter().any(|p| p.base == x) {
                let decl_ty = self.env.var(x).map(|t| t.ty.clone());
                let judge = self.judge();
                last_ty = match decl_ty.and_then(|d| judge.subst(&last_ty.ty, x, &d).ok()) {
                    Some(w) => w.with_masks(last_ty.masks.clone()),
                    None => crate::ty::void(),
                };
            }
            self.env.unbind(x);
            let mut ps = before;
            ps.push(CExpr::Let(x, Box::new(init), Box::new(body)));
            body = if ps.len() == 1 {
                ps.pop().expect("one")
            } else {
                CExpr::Seq(ps)
            };
        }
        (last_ty, body)
    }

    fn check_stmt(&mut self, s: &syn::Stmt, is_last: bool) -> (Type, CExpr) {
        match s {
            syn::Stmt::Let { .. } => unreachable!("handled in check_block"),
            syn::Stmt::Expr(e) => self.check_expr(e),
            syn::Stmt::While(cond, body, span) => {
                let (ct, lc) = self.check_expr(cond);
                if !matches!(ct.ty, Ty::Prim(PrimTy::Bool)) {
                    self.checker.err(
                        format!(
                            "while condition must be bool, got `{}`",
                            self.table().show_type(&ct)
                        ),
                        *span,
                    );
                }
                // The body may run zero times: masks granted inside are
                // discarded afterwards.
                let before = self.env.snapshot();
                let (_bt, lb) = self.check_block(body);
                self.env.join(&before);
                (crate::ty::void(), CExpr::While(Box::new(lc), Box::new(lb)))
            }
            syn::Stmt::Print(e, _) => {
                let (_t, le) = self.check_expr(e);
                (crate::ty::void(), CExpr::Print(Box::new(le)))
            }
            syn::Stmt::Return(e, span) => {
                if !is_last {
                    self.checker
                        .err("`return` is only allowed in tail position".into(), *span);
                }
                let (t, le) = self.check_expr(e);
                if let Some(ret) = self.ret.clone() {
                    if !self.judge().sub(&t, &ret) {
                        self.checker.err(
                            format!(
                                "returned `{}`, expected `{}`",
                                self.table().show_type(&t),
                                self.table().show_type(&ret)
                            ),
                            *span,
                        );
                    }
                    // The branch's contribution to `if` joins is the
                    // declared return type: `return` values from different
                    // branches need not share a syntactic LUB.
                    return (ret, le);
                }
                (t, le)
            }
        }
    }

    // -------------------------------------------------------- expressions

    /// Recognises final access paths (T-FIN): a variable (or `this`)
    /// followed by final fields.
    fn as_final_path(&self, e: &syn::Expr) -> Option<TPath> {
        match e {
            syn::Expr::Var(x) => {
                let n = self.table().intern(&x.text);
                self.env.contains(n).then(|| TPath::var(n))
            }
            syn::Expr::Field(inner, f) => {
                let base = self.as_final_path(inner)?;
                let judge = self.judge();
                let bt = judge.type_of_path(&base).ok()?;
                let fname = self.table().intern(&f.text);
                let (_owner, _ty, is_final) = judge.ftypedecl(&bt.ty, fname).ok()?;
                is_final.then(|| base.child(fname))
            }
            _ => None,
        }
    }

    fn check_expr(&mut self, e: &syn::Expr) -> (Type, CExpr) {
        match e {
            syn::Expr::Int(n, _) => (Ty::Prim(PrimTy::Int).unmasked(), CExpr::Int(*n)),
            syn::Expr::Bool(b, _) => (Ty::Prim(PrimTy::Bool).unmasked(), CExpr::Bool(*b)),
            syn::Expr::Str(s, _) => (Ty::Prim(PrimTy::Str).unmasked(), CExpr::Str(s.clone())),
            syn::Expr::Var(x) => {
                let n = self.table().intern(&x.text);
                let Some(t) = self.env.var(n).cloned() else {
                    return self.err(format!("unbound variable `{}`", x.text), x.span);
                };
                let ty = match self.judge().ptype(&TPath::var(n)) {
                    Ok(p) => p,
                    Err(_) => t,
                };
                (ty, CExpr::Var(n))
            }
            syn::Expr::Field(inner, f) => {
                let fname = self.table().intern(&f.text);
                if let Some(path) = self.as_final_path(e) {
                    match self.judge().ptype(&path) {
                        Ok(t) => {
                            let (_, li) = self.check_expr(inner);
                            return (t, CExpr::GetField(Box::new(li), fname));
                        }
                        Err(msg) => return self.err(msg, f.span),
                    }
                }
                let (rt, li) = self.check_expr(inner);
                match self.judge().ftype(&rt, fname) {
                    Ok(t) => (t, CExpr::GetField(Box::new(li), fname)),
                    Err(msg) => self.err(msg, f.span),
                }
            }
            syn::Expr::Assign { recv, field, value } => self.check_assign(recv, field, value),
            syn::Expr::Call(recv, mname, args) => self.check_call(recv, mname, args),
            syn::Expr::New(t, inits, span) => self.check_new(t, inits, *span),
            syn::Expr::View(t, inner, span) => self.check_view(t, inner, *span),
            syn::Expr::Cast(t, inner, _span) => {
                let Some(target) = self.resolve(t) else {
                    return (crate::ty::void(), CExpr::Unit);
                };
                let (_st, li) = self.check_expr(inner);
                (target.clone(), CExpr::Cast(target, Box::new(li)))
            }
            syn::Expr::Binary(op, l, r, span) => self.check_binary(*op, l, r, *span),
            syn::Expr::Unary(op, inner, span) => {
                let (t, li) = self.check_expr(inner);
                let expected = match op {
                    UnOp::Not => PrimTy::Bool,
                    UnOp::Neg => PrimTy::Int,
                };
                if !matches!(t.ty, Ty::Prim(p) if p == expected) {
                    self.checker.err(
                        format!(
                            "operator expects `{}`, got `{}`",
                            expected,
                            self.table().show_type(&t)
                        ),
                        *span,
                    );
                }
                (Ty::Prim(expected).unmasked(), CExpr::Un(*op, Box::new(li)))
            }
            syn::Expr::If(cond, then, els, span) => {
                let (ct, lc) = self.check_expr(cond);
                if !matches!(ct.ty, Ty::Prim(PrimTy::Bool)) {
                    self.checker.err(
                        format!(
                            "if condition must be bool, got `{}`",
                            self.table().show_type(&ct)
                        ),
                        *span,
                    );
                }
                let before = self.env.snapshot();
                let (tt, lt) = self.check_block(then);
                let after_then = self.env.snapshot();
                self.env.restore(before);
                let (et, le) = match els {
                    Some(b) => self.check_block(b),
                    None => (crate::ty::void(), CExpr::Unit),
                };
                self.env.join(&after_then);
                let ty = self.join_types(&tt, &et);
                (ty, CExpr::If(Box::new(lc), Box::new(lt), Box::new(le)))
            }
            syn::Expr::Block(b) => self.check_block(b),
        }
    }

    fn check_assign(
        &mut self,
        recv: &syn::Ident,
        field: &syn::Ident,
        value: &syn::Expr,
    ) -> (Type, CExpr) {
        let x = self.table().intern(&recv.text);
        let fname = self.table().intern(&field.text);
        let Some(_xt) = self.env.var(x).cloned() else {
            return self.err(format!("unbound variable `{}`", recv.text), recv.span);
        };
        let judge = self.judge();
        let recv_ty = Ty::Dep(TPath::var(x));
        let (owner, decl, is_final) = match judge.ftypedecl(&recv_ty, fname) {
            Ok(r) => r,
            Err(msg) => return self.err(msg, field.span),
        };
        let _ = owner;
        if is_final && self.in_method {
            return self.err(
                format!("cannot assign to final field `{}`", field.text),
                field.span,
            );
        }
        // T-SET: the target type uses exactness-preserving substitution, so
        // only values from the receiver's own family can be stored.
        let target = match judge.subst_exact(&decl.ty, self.table().this_name, &recv_ty) {
            Ok(t) => t.with_masks(decl.masks.clone()),
            Err(msg) => return self.err(msg, field.span),
        };
        let (vt, lv) = self.check_expr(value);
        if !self.judge().sub(&vt, &target) {
            self.checker.err(
                format!(
                    "cannot assign `{}` to field `{}: {}`",
                    self.table().show_type(&vt),
                    field.text,
                    self.table().show_type(&target)
                ),
                value.span(),
            );
        }
        // grant(Γ, x.f)
        self.env.grant(x, fname);
        (vt, CExpr::SetField(x, fname, Box::new(lv)))
    }

    fn check_call(
        &mut self,
        recv: &syn::Expr,
        mname: &syn::Ident,
        args: &[syn::Expr],
    ) -> (Type, CExpr) {
        let m = self.table().intern(&mname.text);
        let (rt, lr) = self.check_expr(recv);
        if rt.ty == Ty::Prim(PrimTy::Void) {
            return self.err(format!("cannot call `{}` on void", mname.text), mname.span);
        }
        let judge = self.judge();
        let (_owner, sig) = match judge.mtype(&rt.ty, m) {
            Ok(r) => r,
            Err(msg) => return self.err(msg, mname.span),
        };
        if sig.params.len() != args.len() {
            return self.err(
                format!(
                    "method `{}` expects {} arguments, got {}",
                    mname.text,
                    sig.params.len(),
                    args.len()
                ),
                mname.span,
            );
        }
        // T-CALL substitution chain: this := receiver type, then each
        // parameter in order. Exactness-preserving where the variable is
        // still referenced downstream.
        let mut param_tys: Vec<Type> = sig.params.iter().map(|(_, t)| t.clone()).collect();
        let mut ret_ty = sig.ret.clone();
        let mut largs = Vec::new();
        let this_n = self.table().this_name;
        if let Err(msg) = self.apply_call_subst(&mut param_tys, &mut ret_ty, this_n, &rt.ty, 0) {
            return self.err(msg, mname.span);
        }
        for (i, arg) in args.iter().enumerate() {
            let (at, la) = self.check_expr(arg);
            let expected = param_tys[i].clone();
            if !self.judge().sub(&at, &expected) {
                self.checker.err(
                    format!(
                        "argument {} has type `{}`, expected `{}`",
                        i + 1,
                        self.table().show_type(&at),
                        self.table().show_type(&expected)
                    ),
                    arg.span(),
                );
            }
            let x = sig.params[i].0;
            if let Err(msg) = self.apply_call_subst(&mut param_tys, &mut ret_ty, x, &at.ty, i + 1) {
                self.checker.err(msg, arg.span());
            }
            largs.push(la);
        }
        (ret_ty, CExpr::Call(Box::new(lr), m, largs))
    }

    /// Substitutes `actual` for `x.class` in the remaining parameter types
    /// and the return type. Exactness-preserving substitution is required
    /// whenever the substitution actually changes a type (T-CALL's
    /// `{T/x!}`); unused variables never fail.
    fn apply_call_subst(
        &mut self,
        params: &mut [Type],
        ret: &mut Type,
        x: Name,
        actual: &Ty,
        from: usize,
    ) -> Result<(), String> {
        let judge = Judge::new(self.checker.table, self.env);
        let mentions = |t: &Ty| t.paths().iter().any(|p| p.base == x);
        for p in params.iter_mut().skip(from) {
            if mentions(&p.ty) {
                p.ty = judge.subst_exact(&p.ty, x, actual)?;
            }
        }
        if mentions(&ret.ty) {
            ret.ty = judge.subst_exact(&ret.ty, x, actual)?;
        }
        Ok(())
    }

    fn check_new(
        &mut self,
        t: &syn::TypeExpr,
        inits: &[(syn::Ident, syn::Expr)],
        span: Span,
    ) -> (Type, CExpr) {
        let Some(target) = self.resolve(t) else {
            return (crate::ty::void(), CExpr::Unit);
        };
        if !target.masks.is_empty() {
            return self.err("cannot instantiate a masked type".into(), span);
        }
        if matches!(target.ty, Ty::Prim(_)) {
            return self.err("cannot instantiate a primitive type".into(), span);
        }
        let judge = self.judge();
        let members = match judge.bound_members(&target.ty) {
            Ok(m) if !m.is_empty() => m,
            _ => {
                return self.err(
                    format!(
                        "cannot instantiate `{}`: no classes found",
                        self.table().show_type(&target)
                    ),
                    span,
                )
            }
        };
        // Collect all fields (name -> has_init) over the member classes.
        let mut uninit: BTreeSet<Name> = BTreeSet::new();
        let mut all: BTreeSet<Name> = BTreeSet::new();
        for m in &members {
            for (_, fi) in self.table().fields_of(*m) {
                all.insert(fi.name);
                if !fi.has_init {
                    uninit.insert(fi.name);
                }
            }
        }
        let exact_ty = target.ty.clone().exact();
        let mut lowered = Vec::new();
        for (f, v) in inits {
            let fname = self.table().intern(&f.text);
            if !all.contains(&fname) {
                self.checker.err(
                    format!(
                        "`{}` has no field `{}`",
                        self.table().show_type(&target),
                        f.text
                    ),
                    f.span,
                );
                continue;
            }
            let judge = self.judge();
            let expected = match judge.ftypedecl(&target.ty, fname) {
                Ok((_, decl, _)) => {
                    match judge.subst_exact(&decl.ty, self.table().this_name, &exact_ty) {
                        Ok(t) => t.with_masks(decl.masks.clone()),
                        Err(msg) => {
                            self.checker.err(msg, v.span());
                            continue;
                        }
                    }
                }
                Err(msg) => {
                    self.checker.err(msg, f.span);
                    continue;
                }
            };
            let (vt, lv) = self.check_expr(v);
            if !self.judge().sub(&vt, &expected) {
                self.checker.err(
                    format!(
                        "field initialiser `{}` has type `{}`, expected `{}`",
                        f.text,
                        self.table().show_type(&vt),
                        self.table().show_type(&expected)
                    ),
                    v.span(),
                );
            }
            uninit.remove(&fname);
            lowered.push((fname, lv));
        }
        // No abstract method may remain unimplemented on an instantiated
        // class.
        for m in &members {
            for mname in self.table().method_names(*m) {
                let all_abstract = self
                    .table()
                    .supers(*m)
                    .iter()
                    .flat_map(|s| self.table().class(*s).methods)
                    .filter(|sig| sig.name == mname)
                    .all(|sig| sig.is_abstract);
                if all_abstract {
                    self.checker.err(
                        format!(
                            "cannot instantiate `{}`: method `{}` is abstract",
                            self.table().class_name(*m),
                            self.table().name_str(mname)
                        ),
                        span,
                    );
                }
            }
        }
        // Result: T! masked on every still-uninitialised field.
        let ty = exact_ty.with_masks(uninit);
        (ty, CExpr::New(target.ty, lowered))
    }

    fn check_view(&mut self, t: &syn::TypeExpr, inner: &syn::Expr, span: Span) -> (Type, CExpr) {
        let Some(target) = self.resolve(t) else {
            return (crate::ty::void(), CExpr::Unit);
        };
        let (st, li) = self.check_expr(inner);
        let judge = self.judge();
        // Modular checking (§2.5): inside methods, only the declared
        // sharing constraints justify view changes; `main` sees the whole
        // program and may use the closed-world judgment.
        let mut ok = self
            .checker
            .sharing
            .shares_types_in(&judge, &st, &target, !self.in_method);
        if !ok && self.in_method && self.checker.options.infer_constraints {
            // §2.5 future work: infer the constraint from the source
            // expression's declared type and the written target, provided
            // it holds in the closed world and mentions no path but this.
            let widened = match &st.ty {
                Ty::Dep(p) => judge
                    .type_of_path(p)
                    .map(|t| {
                        let mut masks = st.masks.clone();
                        masks.extend(t.masks.iter().copied());
                        t.ty.with_masks(masks)
                    })
                    .unwrap_or_else(|_| st.clone()),
                _ => st.clone(),
            };
            let this_only = |t: &Type| {
                t.ty.paths()
                    .iter()
                    .all(|p| p.base == self.table().this_name)
            };
            // Validate at the current class (this := P!), exactly as Q-OK
            // will for every inheriting family.
            let holds_here = {
                let this_exact = Ty::Class(self.class).exact();
                let lw = judge.subst(&widened.ty, self.table().this_name, &this_exact);
                let rw = judge.subst(&target.ty, self.table().this_name, &this_exact);
                match (lw, rw) {
                    (Ok(l), Ok(r)) => self.checker.sharing.shares_types_in(
                        &judge,
                        &l.with_masks(widened.masks.clone()),
                        &r.with_masks(target.masks.clone()),
                        true,
                    ),
                    _ => false,
                }
            };
            if this_only(&widened) && this_only(&target) && holds_here {
                let info = crate::table::ConstraintInfo {
                    lhs: widened,
                    rhs: target.clone(),
                    directional: true,
                };
                self.env.add_constraint(info.clone());
                self.inferred.push(info);
                ok = true;
            }
        }
        if !ok {
            let hint = if self.in_method && self.env.constraints().is_empty() {
                " (view changes inside methods require an enabling sharing constraint)"
            } else {
                ""
            };
            self.checker.err(
                format!(
                    "no sharing relationship `{} ⤳ {}`{}",
                    self.table().show_type(&st),
                    self.table().show_type(&target),
                    hint
                ),
                span,
            );
        }
        (target.clone(), CExpr::View(target, Box::new(li)))
    }

    /// Join of two branch types: one subsumes the other, possibly after
    /// widening dependent classes to their declared types; otherwise void.
    fn join_types(&mut self, a: &Type, b: &Type) -> Type {
        let j = self.judge();
        if j.sub(a, b) {
            return b.clone();
        }
        if j.sub(b, a) {
            return a.clone();
        }
        let widen = |t: &Type| -> Type {
            if let Ty::Dep(p) = &t.ty {
                if let Ok(pt) = j.type_of_path(p) {
                    let mut masks = t.masks.clone();
                    masks.extend(pt.masks.iter().copied());
                    return pt.ty.with_masks(masks);
                }
            }
            t.clone()
        };
        let (wa, wb) = (widen(a), widen(b));
        if j.sub(&wa, &wb) {
            return wb;
        }
        if j.sub(&wb, &wa) {
            return wa;
        }
        crate::ty::void()
    }

    fn check_binary(
        &mut self,
        op: BinOp,
        l: &syn::Expr,
        r: &syn::Expr,
        span: Span,
    ) -> (Type, CExpr) {
        let (lt, ll) = self.check_expr(l);
        let (rt, lr) = self.check_expr(r);
        let prim = |p: PrimTy| Ty::Prim(p).unmasked();
        let ty = match op {
            BinOp::Add => match (&lt.ty, &rt.ty) {
                (Ty::Prim(PrimTy::Int), Ty::Prim(PrimTy::Int)) => prim(PrimTy::Int),
                (Ty::Prim(PrimTy::Str), Ty::Prim(PrimTy::Str)) => prim(PrimTy::Str),
                _ => {
                    self.checker.err(
                        format!(
                            "`+` needs two ints or two strs, got `{}` and `{}`",
                            self.table().show_type(&lt),
                            self.table().show_type(&rt)
                        ),
                        span,
                    );
                    prim(PrimTy::Int)
                }
            },
            BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                if !matches!(lt.ty, Ty::Prim(PrimTy::Int))
                    || !matches!(rt.ty, Ty::Prim(PrimTy::Int))
                {
                    self.checker
                        .err("arithmetic needs int operands".into(), span);
                }
                prim(PrimTy::Int)
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if !matches!(lt.ty, Ty::Prim(PrimTy::Int))
                    || !matches!(rt.ty, Ty::Prim(PrimTy::Int))
                {
                    self.checker
                        .err("comparison needs int operands".into(), span);
                }
                prim(PrimTy::Bool)
            }
            BinOp::And | BinOp::Or => {
                if !matches!(lt.ty, Ty::Prim(PrimTy::Bool))
                    || !matches!(rt.ty, Ty::Prim(PrimTy::Bool))
                {
                    self.checker.err("logic needs bool operands".into(), span);
                }
                prim(PrimTy::Bool)
            }
            BinOp::Eq | BinOp::Ne => {
                let both_prim = matches!((&lt.ty, &rt.ty), (Ty::Prim(a), Ty::Prim(b)) if a == b);
                let both_obj = !matches!(lt.ty, Ty::Prim(_)) && !matches!(rt.ty, Ty::Prim(_));
                if !(both_prim || both_obj) {
                    self.checker.err(
                        format!(
                            "`==`/`!=` needs matching primitives or two object references, got `{}` and `{}`",
                            self.table().show_type(&lt),
                            self.table().show_type(&rt)
                        ),
                        span,
                    );
                }
                prim(PrimTy::Bool)
            }
        };
        (ty, CExpr::Bin(op, Box::new(ll), Box::new(lr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_src(src: &str) -> Result<CheckedProgram, Vec<TypeError>> {
        let prog = syn::parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
        check(&prog)
    }

    fn ok(src: &str) -> CheckedProgram {
        check_src(src).unwrap_or_else(|e| {
            panic!(
                "expected well-typed, got: {}",
                e.iter()
                    .map(|x| x.message.clone())
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        })
    }

    fn bad(src: &str) -> Vec<TypeError> {
        match check_src(src) {
            Ok(_) => panic!("expected a type error"),
            Err(e) => e,
        }
    }

    #[test]
    fn minimal_program() {
        let p = ok(
            "class A { class C { int x = 1; int get() { return this.x; } } }
                    main { final A.C c = new A.C(); print c.get(); }",
        );
        assert!(p.main.is_some());
        assert_eq!(p.methods.len(), 1);
    }

    #[test]
    fn field_read_write_and_masks() {
        ok("class A { class C { int x; } }
            main { final A.C c = new A.C { x = 3 }; print c.x; }");
        // The allocation type carries the mask, so it cannot be forgotten
        // by binding to an unmasked type...
        let errs = bad("class A { class C { int x; } }
                        main { final A.C c = new A.C(); print c.x; }");
        assert!(
            errs[0].message.contains("cannot bind"),
            "{}",
            errs[0].message
        );
        // ...and reading the masked field is rejected.
        let errs = bad("class A { class C { int x; } }
                        main { final A.C!\\x c = new A.C(); print c.x; }");
        assert!(errs[0].message.contains("masked"), "{}", errs[0].message);
    }

    #[test]
    fn mask_removed_by_assignment() {
        ok("class A { class C { int x; } }
            main { final A.C! \\x c = new A.C(); c.x = 5; print c.x; }");
    }

    #[test]
    fn if_join_keeps_mask_when_one_branch_skips_init() {
        let errs = bad("class A { class C { int x; } }
             main {
               final A.C!\\x c = new A.C();
               if (true) { c.x = 5; } else { print 0; }
               print c.x;
             }");
        assert!(errs[0].message.contains("masked"));
        // Both branches initialising is fine.
        ok("class A { class C { int x; } }
            main {
              final A.C!\\x c = new A.C();
              if (true) { c.x = 5; } else { c.x = 6; }
              print c.x;
            }");
    }

    #[test]
    fn late_binding_of_field_types() {
        // Figure 2: l.display() is legal inside ASTDisplay.Binary.
        ok("class AST {
              class Exp { }
              class Binary extends Exp { Exp l; Exp r; }
            }
            class TreeDisplay {
              class Node { void display() { } }
              class Composite extends Node { }
            }
            class ASTDisplay extends AST & TreeDisplay {
              class Exp extends Node { }
              class Binary extends Exp & Composite {
                void display() { this.l.display(); }
              }
            }");
    }

    #[test]
    fn sibling_family_objects_compose() {
        ok("class AST {
              class Exp { }
              class Binary extends Exp { Exp l; Exp r; }
            }
            main {
              // main-level code must pin the family with exact types:
              // an inexact AST.Exp could hold an object of a derived family,
              // which would not be a legal child of an AST-family Binary.
              final AST!.Exp a = new AST.Exp();
              final AST!.Exp b = new AST.Exp();
              final AST.Binary sum = new AST.Binary { l = a, r = b };
              print 1;
            }");
    }

    #[test]
    fn cross_family_assignment_rejected() {
        // Storing a base-family object into a derived-family field must
        // fail: exactness-preserving substitution (T-SET).
        let errs = bad("class AST {
               class Exp { }
               class Binary extends Exp { Exp l; }
             }
             class AST2 extends AST { class Exp { } class Binary { } }
             main {
               final AST2.Binary b = new AST2.Binary();
               final AST.Exp e = new AST.Exp();
               b.l = e;
             }");
        assert!(!errs.is_empty());
    }

    #[test]
    fn figure3_family_adaptation_typechecks() {
        ok("class AST {
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
              class Exp extends Node shares AST.Exp { }
              class Value extends Exp & Leaf shares AST.Value { }
              class Binary extends Exp & Composite shares AST.Binary {
                void display() { this.l.display(); this.r.display(); }
              }
              void show(AST!.Exp e) sharing AST!.Exp = Exp {
                final Exp temp = (view Exp)e;
                temp.display();
              }
            }");
    }

    #[test]
    fn view_change_without_constraint_rejected_in_method() {
        let errs = bad("class AST { class Exp { } }
             class ASTDisplay extends AST adapts AST {
               void show(AST!.Exp e) {
                 final Exp temp = (view Exp)e;
               }
             }");
        assert!(errs[0].message.contains("sharing"), "{}", errs[0].message);
    }

    #[test]
    fn view_change_in_main_uses_closed_world() {
        ok("class A { class C { } }
            class B extends A { class C shares A.C { } }
            main {
              final A!.C a = new A.C();
              final B!.C b = (view B!.C)a;
              print a == b;
            }");
    }

    #[test]
    fn view_change_to_unshared_family_rejected() {
        let errs = bad("class A { class C { } }
             class B extends A { class C { } }
             main {
               final A!.C a = new A.C();
               final B!.C b = (view B!.C)a;
             }");
        assert!(errs[0].message.contains("sharing"));
    }

    #[test]
    fn new_field_requires_mask_on_view_change() {
        // Figure 5: A2.B adds field f; the view change must carry a mask.
        let errs = bad("class A1 { class B { } }
             class A2 extends A1 { class B shares A1.B { int f; } }
             main {
               final A1!.B b1 = new A1.B();
               final A2!.B b2 = (view A2!.B)b1;
             }");
        assert!(!errs.is_empty());
        ok("class A1 { class B { } }
            class A2 extends A1 { class B shares A1.B { int f; } }
            main {
              final A1!.B b1 = new A1.B();
              final A2!.B\\f b2 = (view A2!.B\\f)b1;
              b2.f = 3;
              print b2.f;
            }");
    }

    #[test]
    fn adapts_shorthand_shares_all_classes() {
        ok("class AST { class Exp { } class Value extends Exp { } }
            class ASTDisplay extends AST adapts AST {
              void show(AST!.Exp e) sharing AST!.Exp = Exp {
                final Exp temp = (view Exp)e;
              }
            }");
    }

    #[test]
    fn constraint_fails_in_nonsharing_derived_family() {
        // A family derived from ASTDisplay that breaks the sharing must
        // override `show` (Q-OK / L-OK).
        let errs = bad("class AST { class Exp { } }
             class ASTDisplay extends AST adapts AST {
               void show(AST!.Exp e) sharing AST!.Exp = Exp {
                 final Exp temp = (view Exp)e;
               }
             }
             class Broken extends ASTDisplay {
               class Exp { } // no shares: severs the relationship
             }");
        assert!(
            errs.iter().any(|e| e.message.contains("does not hold")),
            "{:?}",
            errs.iter().map(|e| &e.message).collect::<Vec<_>>()
        );
    }

    #[test]
    fn method_dispatch_on_family_types() {
        ok("class Service {
              class Handler { int handle() { return 0; } }
              class Dispatcher {
                Handler h;
                int dispatch() { return this.h.handle(); }
              }
            }
            class LogService extends Service {
              class Handler extends Service.Handler shares Service.Handler {
                int handle() { return 1; }
              }
              class Dispatcher shares Service.Dispatcher { }
            }");
    }

    #[test]
    fn return_type_mismatch_rejected() {
        let errs = bad("class A { class C { int f() { return true; } } }");
        assert!(errs[0].message.contains("return"), "{}", errs[0].message);
    }

    #[test]
    fn arg_type_mismatch_rejected() {
        let errs = bad("class A { class C { int f(int x) { return x; } } }
             main { final A.C c = new A.C(); c.f(true); }");
        assert!(errs[0].message.contains("argument"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let errs = bad("class A { class C { int f(int x) { return x; } } }
             main { final A.C c = new A.C(); c.f(); }");
        assert!(errs[0].message.contains("arguments"));
    }

    #[test]
    fn unknown_method_rejected() {
        let errs = bad("class A { class C { } } main { final A.C c = new A.C(); c.nope(); }");
        assert!(errs[0].message.contains("no method"));
    }

    #[test]
    fn final_field_assignment_rejected() {
        let errs = bad("class A { class C { final int x = 1; void f() { this.x = 2; } } }");
        assert!(errs[0].message.contains("final"));
    }

    #[test]
    fn override_with_wrong_signature_rejected() {
        let errs = bad("class A { class C { int f(int x) { return x; } } }
             class B extends A { class C { int f(bool x) { return 1; } } }");
        assert!(errs.iter().any(|e| e.message.contains("not equivalent")));
    }

    #[test]
    fn while_discards_masks() {
        let errs = bad("class A { class C { int x; } }
             main {
               final A.C!\\x c = new A.C();
               while (false) { c.x = 1; }
               print c.x;
             }");
        assert!(errs[0].message.contains("masked"));
    }

    #[test]
    fn local_shadowing_rejected() {
        let errs = bad("main { final int x = 1; final int x = 2; }");
        assert!(errs[0].message.contains("already defined"));
    }

    #[test]
    fn view_on_tree_root_adapts_whole_tree() {
        // §2.3: a single view change on the root moves the whole tree;
        // children accessed through the new reference are in the new family.
        ok("class AST {
              class Exp { void display() { } }
              class Binary extends Exp { Exp l; Exp r; }
            }
            class ASTDisplay extends AST adapts AST {
              class Binary extends Exp shares AST.Binary {
                void display() { this.l.display(); this.r.display(); }
              }
              void show(AST!.Binary b) sharing AST!.Binary = Binary {
                final Binary temp = (view Binary)b;
                temp.l.display();
              }
            }");
    }

    #[test]
    fn dependent_parameter_types() {
        // Family-polymorphic method: translate(Translator v) style.
        ok("class Base {
              class Exp { }
              class Maker {
                Base[this.class].Exp make() { return new Exp(); }
              }
            }
            main {
              final Base.Maker m = new Base.Maker();
              final Base.Exp e = m.make();
              print 1;
            }");
    }
}
