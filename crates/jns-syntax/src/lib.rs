//! # jns-syntax
//!
//! Front end for the J&s surface language from *Sharing Classes Between
//! Families* (Qi & Myers, PLDI 2009): lexer, parser, and surface AST.
//!
//! The surface language is the calculus of the paper (Fig. 8) plus the
//! conveniences needed to write the paper's own examples: primitives,
//! blocks, `if`/`while`, record-style `new`, and `print`. Each extension
//! is there only because an example needs it; none adds a class-level
//! construct, so families, sharing and views are the calculus's own.
//!
//! # Examples
//!
//! ```
//! let program = jns_syntax::parse(
//!     "class A { class C { int x = 1; } }
//!      class B extends A { class C shares A.C { int twice() { return this.x * 2; } } }
//!      main { final A.C a = new A.C(); print a.x; }",
//! )?;
//! assert_eq!(program.classes.len(), 2);
//! # Ok::<(), jns_syntax::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod span;
pub mod token;

pub use ast::{
    BinOp, Block, ClassDecl, Expr, FieldDecl, Ident, Member, MethodDecl, Param, PathExpr, PrimTy,
    Program, QualName, SharingConstraint, Stmt, TypeExpr, UnOp,
};
pub use lexer::{lex, LexError};
pub use parser::{parse, ParseError};
pub use span::{line_col, render_snippet, Span};
pub use token::{Token, TokenKind};
