//! # jns-types
//!
//! Static semantics for the J&s language of *Sharing Classes Between
//! Families* (Qi & Myers, PLDI 2009): class table, nested-inheritance
//! hierarchy, dependent/exact/prefix/masked types, subtyping, sharing
//! judgments, and the flow-sensitive type checker.

#![warn(missing_docs)]

#[cfg(test)]
pub(crate) mod fixtures;

pub mod check;
pub mod env;
pub mod ir;
pub mod judge;
pub mod names;
pub mod resolve;
pub mod sharing;
pub mod table;
pub mod ty;

pub use check::{check, check_with, CheckOptions, CheckTimings};
pub use env::TypeEnv;
pub use ir::{CExpr, CMethod, CheckedProgram};
pub use judge::Judge;
pub use names::{Interner, Name};
pub use resolve::{resolve, Resolved, TypeError};
pub use sharing::{SharingError, SharingTable};
pub use table::{ClassInfo, ClassTable, ConstraintInfo, FieldInfo, MethodSig};
pub use ty::{ClassId, TPath, Ty, Type};
