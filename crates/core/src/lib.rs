//! # jns-core
//!
//! The public facade of the J&s reproduction (*Sharing Classes Between
//! Families*, Qi & Myers, PLDI 2009): one-call compile/run pipeline plus
//! the paper's flagship case studies written in the J&s surface language
//! (the §7.3 lambda compiler and the §2.4 service-evolution example).
//!
//! Execution is pluggable via [`Backend`]: the tree-walking reference
//! interpreter (`jns-eval`), or the bytecode VM (`jns-vm`) with the
//! paper's §6 machinery — union field layouts, view-keyed inline caches,
//! and memoised view changes. Both backends are observably equivalent;
//! the VM is the fast path.
//!
//! # Examples
//!
//! ```
//! use jns_core::Compiler;
//!
//! let out = Compiler::new()
//!     .compile(
//!         "class A { class C { int x = 41; } }
//!          main { final A.C c = new A.C(); print c.x + 1; }",
//!     )?
//!     .run()?;
//! assert_eq!(out.output, vec!["42"]);
//! # Ok::<(), jns_core::Error>(())
//! ```

#![warn(missing_docs)]

pub mod lambda;
pub mod service;

use std::collections::BTreeSet;
use std::fmt;

pub use jns_eval::{Machine, RtError, RunConfig, Stats, Value};
pub use jns_syntax::{parse, ParseError, Program};
pub use jns_types::{check, CheckTimings, CheckedProgram, TypeError};

/// Any error from the pipeline.
#[derive(Debug)]
pub enum Error {
    /// A lexing/parsing error.
    Parse(ParseError),
    /// One or more type errors.
    Type(Vec<TypeError>),
    /// A runtime error, with what the run produced before it: the printed
    /// lines, counters, profiles, trace and samples (the final value is
    /// `Unit`).
    Runtime(RtError, Box<RunOutput>),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Type(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            Error::Runtime(e, _) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<Vec<TypeError>> for Error {
    fn from(e: Vec<TypeError>) -> Self {
        Error::Type(e)
    }
}

/// Which execution engine runs a compiled program.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The tree-walking reference interpreter (`jns-eval`).
    #[default]
    TreeWalk,
    /// The bytecode VM (`jns-vm`): union field layouts, view-keyed inline
    /// caches, memoised view changes.
    Vm,
}

/// The compiler front door.
#[derive(Debug, Default, Clone, Copy)]
pub struct Compiler {
    run: RunConfig,
    backend: Backend,
    // The fusion ablation knob, stored negated so `Default` (false)
    // means fusion is on.
    no_fuse: bool,
}

impl Compiler {
    /// Creates a compiler with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets every run limit for [`Compiled::run`] at once (see
    /// [`RunConfig`]). The single-limit setters below are shorthands.
    pub fn with_config(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Limits execution fuel for [`Compiled::run`].
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.run.fuel = Some(fuel);
        self
    }

    /// Sets the recursion-depth limit for [`Compiled::run`] (default
    /// [`jns_eval::DEFAULT_MAX_DEPTH`]; see [`RunConfig::max_depth`]).
    pub fn with_max_depth(mut self, max_depth: u32) -> Self {
        self.run.max_depth = Some(max_depth);
        self
    }

    /// Sets the live-heap threshold for [`Compiled::run`] (see
    /// [`RunConfig::heap_limit`]).
    pub fn with_heap_limit(mut self, heap_limit: usize) -> Self {
        self.run.heap_limit = Some(heap_limit);
        self
    }

    /// Sets the nursery capacity for [`Compiled::run`] (see
    /// [`RunConfig::nursery`]).
    pub fn with_nursery(mut self, nursery: usize) -> Self {
        self.run.nursery = Some(nursery);
        self
    }

    /// Selects the execution backend for [`Compiled::run`].
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Enables or disables superinstruction fusion when lowering to
    /// bytecode (VM backend; on by default). Fusion is observably
    /// identical apart from `Stats::{steps, fused}` — each fused pair
    /// costs one step instead of two or three.
    pub fn with_fusion(mut self, on: bool) -> Self {
        self.no_fuse = !on;
        self
    }

    /// Does nothing: the VM has no quickening stage, and every get/set/
    /// call site resolves through its view-keyed inline cache. Kept only
    /// because the stand-alone `perfbench` package still calls it.
    pub fn with_quickening(self, _on: bool) -> Self {
        self
    }

    /// Parses and type-checks `src`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] or [`Error::Type`].
    pub fn compile(self, src: &str) -> Result<Compiled, Error> {
        let parse_start = std::time::Instant::now();
        let ast = parse(src)?;
        let parse_us = parse_start.elapsed().as_micros() as u64;
        let check_start = std::time::Instant::now();
        let checked = jns_types::check(&ast)?;
        let check_us = check_start.elapsed().as_micros() as u64;
        let check_phases = checked.timings;
        Ok(Compiled {
            program: checked,
            run: self.run,
            backend: self.backend,
            no_fuse: self.no_fuse,
            bytecode: std::sync::OnceLock::new(),
            timings: CompileTimings {
                parse_us,
                check_us,
                check_phases,
            },
        })
    }
}

/// Wall-clock cost of the front-end phases, microseconds. Recorded on
/// every compile (a few `Instant` reads — unobservable next to parsing
/// itself) so `--trace` can emit phase events without a re-compile.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileTimings {
    /// Lexing + parsing.
    pub parse_us: u64,
    /// Type checking (including sharing-constraint verification).
    pub check_us: u64,
    /// `check_us` split into the checker's phases.
    pub check_phases: jns_types::CheckTimings,
}

/// A compiled program, ready to run.
#[derive(Debug)]
pub struct Compiled {
    /// The checked program (public: benches poke at the class table).
    pub program: CheckedProgram,
    run: RunConfig,
    backend: Backend,
    no_fuse: bool,
    /// Lazily lowered bytecode, shared (via `Arc`) by every VM run of
    /// this program — including worker VMs on other threads.
    bytecode: std::sync::OnceLock<std::sync::Arc<jns_vm::VmProgram>>,
    timings: CompileTimings,
}

/// The result of a program run.
#[derive(Debug)]
pub struct RunOutput {
    /// The engine that ran the program.
    pub backend: Backend,
    /// Lines produced by `print`.
    pub output: Vec<String>,
    /// The final value of `main`. A reference's [`jns_eval::MaskId`] is
    /// local to the engine that ran it: compare references from two runs
    /// by `loc`, `view` and [`RunOutput::value_masks`].
    pub value: Value,
    /// The mask set of `value`, resolved through the engine's table
    /// before the engine is dropped (empty unless `value` is a
    /// reference).
    pub value_masks: BTreeSet<jns_types::Name>,
    /// Execution statistics.
    pub stats: Stats,
    /// Per-chunk executed-instruction counts, most executed first (VM
    /// backend only; empty for the tree-walker).
    pub chunk_profile: Vec<(String, u64)>,
    /// Per-site inline-cache hit/miss/polymorphism profile (VM backend
    /// only; empty for the tree-walker).
    pub ic_profile: Vec<jns_obs::IcSiteProfile>,
    /// The trace buffer handed to [`Compiled::run_with`], with the
    /// events the run appended; `None` when tracing was off.
    pub trace: Option<jns_obs::TraceBuffer>,
    /// The sampling profiler's collapsed stacks (see
    /// [`jns_obs::ProfileSamples`]); `None` unless the run was started
    /// via [`Compiled::run_with`] with a sample stride, on the VM
    /// backend.
    pub samples: Option<jns_obs::ProfileSamples>,
}

impl RunOutput {
    /// This run's `jns-profile/1` document, as `jns run --vm
    /// --profile-json` writes it: the counters of [`Stats::counters`],
    /// the chunk and inline-cache-site profiles and the samples (the
    /// tree-walker fills none of the three). `program` names the source.
    pub fn profile(&self, program: &str) -> jns_obs::RunProfile {
        let backend = if self.backend == Backend::Vm {
            "vm"
        } else {
            "treewalk"
        };
        jns_obs::RunProfile {
            backend: backend.into(),
            program: program.into(),
            counters: self.stats.counters(),
            chunks: self.chunk_profile.clone(),
            ic_sites: self.ic_profile.clone(),
            histograms: Vec::new(),
            samples: self.samples.clone(),
        }
    }
}

/// Observability options for one run (all off by default, in which case
/// the run is byte-identical to [`Compiled::run_on`]).
#[derive(Debug, Default)]
pub struct RunOptions {
    /// Structured-event sink for GC and inline-cache-miss events; comes
    /// back (with the run's events appended) in [`RunOutput::trace`].
    pub trace: Option<jns_obs::TraceBuffer>,
    /// Enable the VM's sampling profiler with this instruction stride
    /// (ignored by the tree-walk backend, which has no instruction
    /// stream to stride over). Samples come back in
    /// [`RunOutput::samples`].
    pub sample_stride: Option<u64>,
}

impl Compiled {
    /// Runs `main` on the backend selected at compile time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Runtime`] on runtime failure (benign ones only for
    /// well-typed programs: cast failure, fuel or depth exhaustion,
    /// division by zero), carrying the failed run's [`RunOutput`].
    pub fn run(&self) -> Result<RunOutput, Error> {
        self.run_on(self.backend)
    }

    /// Runs `main` on an explicit backend (used by the differential tests
    /// and benches to drive both engines over one compiled program).
    ///
    /// # Errors
    ///
    /// Same contract as [`Compiled::run`].
    pub fn run_on(&self, backend: Backend) -> Result<RunOutput, Error> {
        self.run_with(backend, RunOptions::default())
    }

    /// Runs `main` on an explicit backend with the full set of
    /// observability options: an optional trace buffer (which comes back,
    /// with the run's GC and inline-cache-miss events appended, in
    /// [`RunOutput::trace`]) and, on the VM, an optional
    /// sampling-profiler stride. The default options make this
    /// byte-identical to [`Compiled::run_on`] — every hook in both
    /// engines is a branch on a `None` sink.
    ///
    /// # Errors
    ///
    /// Same contract as [`Compiled::run`]. On error the trace buffer and
    /// samples come back, with the rest of the run's output, inside
    /// [`Error::Runtime`].
    pub fn run_with(&self, backend: Backend, opts: RunOptions) -> Result<RunOutput, Error> {
        let RunOptions {
            trace,
            sample_stride,
        } = opts;
        let (result, out) = match backend {
            Backend::TreeWalk => {
                let mut m = Machine::new(&self.program).with_config(self.run);
                if let Some(t) = trace {
                    m.set_trace(t);
                }
                let result = m.run();
                let value = result.as_ref().cloned().unwrap_or(Value::Unit);
                let out = RunOutput {
                    backend,
                    output: std::mem::take(&mut m.output),
                    value_masks: resolved_masks(&value, m.mask_table()),
                    value,
                    stats: m.stats,
                    chunk_profile: Vec::new(),
                    ic_profile: Vec::new(),
                    trace: m.take_trace(),
                    samples: None,
                };
                (result, out)
            }
            Backend::Vm => {
                let mut vm = self.spawn_vm().with_config(self.run);
                if let Some(t) = trace {
                    vm.set_trace(t);
                }
                if let Some(s) = sample_stride {
                    vm.set_sample_stride(s);
                }
                let result = vm.run();
                let value = result.as_ref().cloned().unwrap_or(Value::Unit);
                let samples = vm.sample_stride().map(|stride| jns_obs::ProfileSamples {
                    stride,
                    taken: vm.samples_taken(),
                    stacks: vm.folded_samples(),
                });
                let out = RunOutput {
                    backend,
                    output: std::mem::take(&mut vm.output),
                    value_masks: resolved_masks(&value, vm.mask_table()),
                    value,
                    stats: vm.stats,
                    chunk_profile: vm.profile(),
                    ic_profile: vm.ic_profile(),
                    trace: vm.take_trace(),
                    samples,
                };
                (result, out)
            }
        };
        match result {
            Ok(_) => Ok(out),
            Err(e) => Err(Error::Runtime(e, Box::new(out))),
        }
    }

    /// Front-end phase timings for this compile (for `--trace` phase
    /// events and the profile export).
    pub fn timings(&self) -> CompileTimings {
        self.timings
    }

    /// The lowered bytecode of this program (compiled once, then shared).
    pub fn bytecode(&self) -> &std::sync::Arc<jns_vm::VmProgram> {
        self.bytecode.get_or_init(|| {
            std::sync::Arc::new(jns_vm::compile_with(
                &self.program,
                jns_vm::CompileOptions {
                    fuse: !self.no_fuse,
                },
            ))
        })
    }

    /// Spawns a fresh VM over this program's (lazily compiled, shared)
    /// bytecode. The VM borrows `self`; callers that want to reuse one
    /// VM across many top-level invocations should pair `Vm::run` with
    /// `Vm::reset_for_request` so the heap stays flat.
    pub fn spawn_vm(&self) -> jns_vm::Vm<'_> {
        jns_vm::Vm::new(&self.program, self.bytecode().as_ref())
    }

    /// A `Send` handle for fanning this program out to worker threads:
    /// the immutable bytecode is shared by `Arc`, while each handle
    /// carries its own clone of the checked program (whose class table is
    /// an interior-mutable, lazily growing memo structure and therefore
    /// deliberately *not* shared across threads). Cloning the handle is
    /// how a pool gives every worker its own table.
    pub fn shared(&self) -> SharedProgram {
        SharedProgram {
            program: self.program.clone(),
            code: std::sync::Arc::clone(self.bytecode()),
        }
    }
}

/// The set a final value's mask id names in `table` (empty for a
/// non-reference).
fn resolved_masks(value: &Value, table: &jns_eval::MaskTable) -> BTreeSet<jns_types::Name> {
    value
        .as_ref_val()
        .map(|r| table.get(r.masks).clone())
        .unwrap_or_default()
}

/// A per-thread handle onto one compiled program: shared immutable
/// bytecode (`Arc<VmProgram>`) plus an owned checked program whose lazy
/// class-table caches grow independently — and deterministically, so
/// every handle answers every query identically.
///
/// Created by [`Compiled::shared`]; `Clone` it once per worker thread.
#[derive(Debug, Clone)]
pub struct SharedProgram {
    program: CheckedProgram,
    code: std::sync::Arc<jns_vm::VmProgram>,
}

impl SharedProgram {
    /// Spawns a VM borrowing this handle. A worker thread typically owns
    /// one `SharedProgram`, spawns one VM, and calls
    /// [`jns_vm::Vm::reset_for_request`] between requests. The shared
    /// `Arc<VmProgram>` is never written; every worker VM keeps its own
    /// inline caches.
    pub fn spawn_vm(&self) -> jns_vm::Vm<'_> {
        jns_vm::Vm::new(&self.program, self.code.as_ref())
    }
}

// Worker pools move `SharedProgram` handles into threads.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SharedProgram>();
};
