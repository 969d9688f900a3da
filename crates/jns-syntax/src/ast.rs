//! Abstract syntax for the J&s surface language.
//!
//! This is the *unresolved* surface AST: type names are still contextual
//! (an unqualified `Exp` is resolved to `Fam[this.class].Exp` later, by the
//! type checker in `jns-types`).

use crate::span::Span;
use std::fmt;

/// An identifier with its source span.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ident {
    /// The identifier text.
    pub text: String,
    /// Source location.
    pub span: Span,
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)
    }
}

/// A whole program: a set of top-level class (family) declarations and an
/// optional `main { ... }` block (the calculus' "main expression").
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level classes, i.e. the families.
    pub classes: Vec<ClassDecl>,
    /// The optional main block.
    pub main: Option<Block>,
}

/// A class declaration, possibly nested.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// The simple name of the class.
    pub name: Ident,
    /// Declared supertypes; `extends A & B` yields two entries.
    pub extends: Vec<TypeExpr>,
    /// The `shares T` clause, if any (the type may be masked: `shares A.C\g`).
    pub shares: Option<TypeExpr>,
    /// `adapts P` clauses: shorthand that shares every inherited member
    /// class with the corresponding class of `P` (paper §2.2).
    pub adapts: Vec<QualName>,
    /// Nested classes, fields, and methods.
    pub members: Vec<Member>,
    /// Source location of the whole declaration.
    pub span: Span,
}

/// A dot-separated, fully explicit class name such as `A.B.C`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QualName {
    /// The name segments, outermost first.
    pub parts: Vec<Ident>,
}

impl fmt::Display for QualName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for p in &self.parts {
            if !first {
                write!(f, ".")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        Ok(())
    }
}

/// A class member.
#[derive(Debug, Clone, PartialEq)]
pub enum Member {
    /// A nested class.
    Class(ClassDecl),
    /// A field.
    Field(FieldDecl),
    /// A method.
    Method(MethodDecl),
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Whether the field is `final` (usable in dependent paths).
    pub is_final: bool,
    /// Declared type.
    pub ty: TypeExpr,
    /// Field name.
    pub name: Ident,
    /// Optional initialiser. Fields without one start masked in `new`.
    pub init: Option<Expr>,
    /// Source location.
    pub span: Span,
}

/// A method declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// Return type (`void` for none).
    pub ret: TypeExpr,
    /// Method name.
    pub name: Ident,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// `sharing T1 = T2` / `sharing T1 -> T2` constraints.
    pub constraints: Vec<SharingConstraint>,
    /// The body; `None` for abstract methods (declared with `;`).
    pub body: Option<Block>,
    /// Source location.
    pub span: Span,
}

/// A formal parameter (always final, as in the calculus).
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Declared type.
    pub ty: TypeExpr,
    /// Parameter name.
    pub name: Ident,
}

/// A sharing constraint on a method (paper §2.5, §3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct SharingConstraint {
    /// Left type.
    pub lhs: TypeExpr,
    /// Right type.
    pub rhs: TypeExpr,
    /// `true` for the directional form `T1 -> T2`; `false` for `T1 = T2`
    /// (which is sugar for both directions).
    pub directional: bool,
    /// Source location.
    pub span: Span,
}

/// Primitive types: an extension over the calculus, which has only class
/// types, because the paper's examples compute with numbers and strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrimTy {
    /// 64-bit signed integer.
    Int,
    /// Boolean.
    Bool,
    /// Immutable string.
    Str,
    /// Unit / no value.
    Void,
}

impl fmt::Display for PrimTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PrimTy::Int => "int",
            PrimTy::Bool => "bool",
            PrimTy::Str => "str",
            PrimTy::Void => "void",
        })
    }
}

/// A final access path: a variable (or `this`) followed by final fields,
/// e.g. `this.left.right`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathExpr {
    /// The base variable (`this` is spelled literally).
    pub base: Ident,
    /// Field accesses applied to the base.
    pub fields: Vec<Ident>,
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        for fld in &self.fields {
            write!(f, ".{fld}")?;
        }
        Ok(())
    }
}

/// Surface type expressions (Fig. 8 `T`, plus primitives).
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// A primitive type.
    Prim(PrimTy, Span),
    /// A (possibly dotted) class name to be resolved contextually.
    Name(QualName),
    /// A dependent class `p.class`.
    DepClass(PathExpr, Span),
    /// A prefix type `P[T]`; the first component must name a class.
    Prefix(QualName, Box<TypeExpr>, Span),
    /// An exact type `T!`.
    Exact(Box<TypeExpr>, Span),
    /// A nested member of a non-simple type, e.g. `AST!.Exp` or `P[x.class].C`.
    Nested(Box<TypeExpr>, Ident),
    /// An intersection `T & T`.
    Meet(Vec<TypeExpr>, Span),
    /// A masked type `T\f1\f2`.
    Masked(Box<TypeExpr>, Vec<Ident>),
}

impl TypeExpr {
    /// The source span of this type expression.
    pub fn span(&self) -> Span {
        match self {
            TypeExpr::Prim(_, s) | TypeExpr::DepClass(_, s) | TypeExpr::Prefix(_, _, s) => *s,
            TypeExpr::Exact(_, s) | TypeExpr::Meet(_, s) => *s,
            TypeExpr::Name(q) => q
                .parts
                .first()
                .map(|a| a.span.to(q.parts.last().expect("nonempty").span))
                .unwrap_or_default(),
            TypeExpr::Nested(t, id) => t.span().to(id.span),
            TypeExpr::Masked(t, fs) => fs
                .last()
                .map(|f| t.span().to(f.span))
                .unwrap_or_else(|| t.span()),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (int addition or string concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==` (primitive equality, or reference *identity* on objects)
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `!`
    Not,
    /// `-`
    Neg,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// String literal.
    Str(String, Span),
    /// A variable or `this`.
    Var(Ident),
    /// Field access `e.f`.
    Field(Box<Expr>, Ident),
    /// Field assignment `x.f = e` (receiver is a variable, per T-SET).
    Assign {
        /// Receiver variable (may be `this`).
        recv: Ident,
        /// Assigned field.
        field: Ident,
        /// Right-hand side.
        value: Box<Expr>,
    },
    /// Method call `e.m(args)`.
    Call(Box<Expr>, Ident, Vec<Expr>),
    /// Allocation `new T { f = e, ... }`.
    New(TypeExpr, Vec<(Ident, Expr)>, Span),
    /// View change `(view T)e` (paper §2.3).
    View(TypeExpr, Box<Expr>, Span),
    /// Checked cast `(cast T)e`.
    Cast(TypeExpr, Box<Expr>, Span),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>, Span),
    /// Unary operation.
    Unary(UnOp, Box<Expr>, Span),
    /// Conditional; an expression (both arms must agree) or statement.
    If(Box<Expr>, Block, Option<Block>, Span),
    /// A nested block.
    Block(Block),
}

impl Expr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Bool(_, s)
            | Expr::Str(_, s)
            | Expr::New(_, _, s)
            | Expr::View(_, _, s)
            | Expr::Cast(_, _, s)
            | Expr::Binary(_, _, _, s)
            | Expr::Unary(_, _, s)
            | Expr::If(_, _, _, s) => *s,
            Expr::Var(id) => id.span,
            Expr::Field(e, f) => e.span().to(f.span),
            Expr::Assign { recv, value, .. } => recv.span.to(value.span()),
            Expr::Call(e, m, args) => {
                let end = args.last().map(|a| a.span()).unwrap_or(m.span);
                e.span().to(end)
            }
            Expr::Block(b) => b.span,
        }
    }
}

impl Expr {
    /// Whether this node owns no child expressions or blocks.
    fn is_leaf(&self) -> bool {
        matches!(
            self,
            Expr::Int(..) | Expr::Bool(..) | Expr::Str(..) | Expr::Var(_)
        )
    }

    /// Moves every non-leaf direct child out of `e` onto the worklists.
    /// Leaf children stay in place (they drop trivially with the
    /// hollowed parent), so a harvested node's own `Drop` re-entry finds
    /// nothing to push and the worklists never allocate for it.
    fn take_children(e: &mut Expr, exprs: &mut Vec<Expr>, stmts: &mut Vec<Stmt>) {
        fn take(b: &mut Expr, exprs: &mut Vec<Expr>) {
            if !b.is_leaf() {
                let filler = Expr::Bool(false, b.span());
                exprs.push(std::mem::replace(b, filler));
            }
        }
        match e {
            Expr::Int(..) | Expr::Bool(..) | Expr::Str(..) | Expr::Var(_) => {}
            Expr::Field(b, _) => take(b, exprs),
            Expr::Assign { value, .. } => take(value, exprs),
            Expr::View(_, b, _) | Expr::Cast(_, b, _) | Expr::Unary(_, b, _) => take(b, exprs),
            Expr::Binary(_, l, r, _) => {
                take(l, exprs);
                take(r, exprs);
            }
            Expr::Call(b, _, args) => {
                take(b, exprs);
                exprs.extend(args.drain(..).filter(|a| !a.is_leaf()));
            }
            Expr::New(_, inits, _) => exprs.extend(
                std::mem::take(inits)
                    .into_iter()
                    .map(|(_, i)| i)
                    .filter(|i| !i.is_leaf()),
            ),
            Expr::If(c, then, els, _) => {
                take(c, exprs);
                stmts.append(&mut then.stmts);
                if let Some(b) = els {
                    stmts.append(&mut b.stmts);
                }
            }
            Expr::Block(b) => stmts.append(&mut b.stmts),
        }
    }
}

/// Iterative teardown, mirroring the checked IR's: long operator or
/// statement chains produce deeply nested parse trees, and the derived
/// (recursive) drop would overflow the host stack freeing them. Children
/// are moved onto heap worklists before each node is freed.
impl Drop for Expr {
    fn drop(&mut self) {
        if self.is_leaf() {
            return;
        }
        let mut exprs: Vec<Expr> = Vec::new();
        let mut stmts: Vec<Stmt> = Vec::new();
        Expr::take_children(self, &mut exprs, &mut stmts);
        loop {
            if let Some(mut e) = exprs.pop() {
                Expr::take_children(&mut e, &mut exprs, &mut stmts);
            } else if let Some(s) = stmts.pop() {
                match s {
                    Stmt::Let { init: e, .. }
                    | Stmt::Expr(e)
                    | Stmt::Print(e, _)
                    | Stmt::Return(e, _) => {
                        if !e.is_leaf() {
                            exprs.push(e);
                        }
                    }
                    Stmt::While(c, mut b, _) => {
                        if !c.is_leaf() {
                            exprs.push(c);
                        }
                        stmts.append(&mut b.stmts);
                    }
                }
            } else {
                break;
            }
        }
    }
}

/// A block of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The statements in order.
    pub stmts: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local binding `final T x = e;` (locals are always final, as in the
    /// calculus; the `final` keyword may be omitted in the surface syntax).
    Let {
        /// Declared type.
        ty: TypeExpr,
        /// Variable name.
        name: Ident,
        /// Initialiser.
        init: Expr,
    },
    /// An expression statement.
    Expr(Expr),
    /// `while (e) { ... }`.
    While(Expr, Block, Span),
    /// `print e;` — writes the value's display form plus newline.
    Print(Expr, Span),
    /// `return e;` — only allowed in tail position.
    Return(Expr, Span),
}

impl Stmt {
    /// The source span of this statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Let { ty, init, .. } => ty.span().to(init.span()),
            Stmt::Expr(e) => e.span(),
            Stmt::While(_, _, s) | Stmt::Print(_, s) | Stmt::Return(_, s) => *s,
        }
    }
}
