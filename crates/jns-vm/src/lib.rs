//! # jns-vm
//!
//! A bytecode compiler + virtual machine backend for checked J&s programs
//! (*Sharing Classes Between Families*, Qi & Myers, PLDI 2009) — the
//! paper's §6 implementation techniques applied to the real surface
//! language rather than the synthetic `jns-rt` kernels:
//!
//! - [`compile`] lowers a [`jns_types::CheckedProgram`] into flat
//!   instruction streams: variables become frame slots, control flow
//!   becomes jumps, literals are pooled, and non-dependent types embedded
//!   in the IR are pre-evaluated.
//! - [`Vm`] executes the bytecode with **union field layouts** per
//!   sharing group (slot indices instead of `⟨ℓ, fclass(view,f), f⟩` map
//!   lookups), **per-site inline caches keyed by the receiver's view**
//!   for field access and method dispatch, and **memoised view changes**
//!   (both explicit `(view T)e` and the lazy implicit ones triggered by
//!   field reads).
//!
//! The VM is observably equivalent to the tree-walking interpreter in
//! `jns-eval` — same printed output, same final values, same error
//! variants and messages — which the differential test suite enforces
//! over every paper example. The only intentional divergence is that
//! fuel/step accounting counts VM instructions instead of AST nodes.
//!
//! # Examples
//!
//! ```
//! let prog = jns_syntax::parse(
//!     "class A { class C { int x = 7; } }
//!      main { final A.C c = new A.C(); print c.x; }",
//! ).unwrap();
//! let checked = jns_types::check(&prog).unwrap();
//! let code = jns_vm::compile(&checked);
//! let mut vm = jns_vm::Vm::new(&checked, &code);
//! vm.run()?;
//! assert_eq!(vm.output, vec!["7"]);
//! # Ok::<(), jns_eval::RtError>(())
//! ```

#![warn(missing_docs)]

pub mod bytecode;
pub mod compile;
pub mod vm;

pub use bytecode::{Chunk, Instr, VmProgram};
pub use compile::{compile, compile_with, CompileOptions};
pub use vm::Vm;
