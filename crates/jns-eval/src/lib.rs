//! # jns-eval
//!
//! Operational semantics for the J&s language of *Sharing Classes Between
//! Families* (Qi & Myers, PLDI 2009): references are ⟨location, view⟩
//! pairs, the heap is keyed by ⟨ℓ, fclass(view, f), f⟩ so shared classes
//! can keep duplicate copies of unshared fields, method dispatch follows
//! the view, and implicit view changes happen lazily on field access.
//!
//! # Examples
//!
//! ```
//! let prog = jns_syntax::parse(
//!     "class A { class C { int x = 7; } }
//!      main { final A.C c = new A.C(); print c.x; }",
//! ).unwrap();
//! let checked = jns_types::check(&prog).unwrap();
//! let mut m = jns_eval::Machine::new(&checked);
//! m.run()?;
//! assert_eq!(m.output, vec!["7"]);
//! # Ok::<(), jns_eval::RtError>(())
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod heap;
pub mod machine;
pub mod masks;
pub mod rules;
pub mod typeeval;
pub mod value;

pub use error::RtError;
pub use heap::{GcStats, Heap, Obj};
pub use machine::{Machine, RunConfig, Stats, DEFAULT_MAX_DEPTH};
pub use masks::{MaskId, MaskTable};
pub use value::{Loc, RefVal, Value};

/// Convenience: parse, check, and run a source program, returning the
/// printed output.
///
/// # Errors
///
/// Returns a rendered error string for parse, type, or runtime failures.
pub fn run_source(src: &str) -> Result<Vec<String>, String> {
    let prog = jns_syntax::parse(src).map_err(|e| e.to_string())?;
    let checked = jns_types::check(&prog).map_err(|es| {
        es.iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    })?;
    let mut m = Machine::new(&checked);
    m.run().map_err(|e| e.to_string())?;
    Ok(m.output)
}
