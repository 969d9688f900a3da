//! The flat instruction set and compiled-program container.
//!
//! Design notes:
//!
//! - **Operand-stack machine.** Each checked expression lowers to a short
//!   instruction sequence leaving exactly one value on the stack; statement
//!   positions insert [`Instr::Pop`].
//! - **Names resolve at compile time.** Variables become frame slot
//!   indices; the frame is a flat `Vec<Value>` instead of the tree-walker's
//!   per-call `HashMap<Name, Value>`.
//! - **Caches resolve at run time.** Field access, method dispatch, and
//!   view changes carry *inline-cache ids*: per-site caches keyed by the
//!   receiver's **view** (the paper's §6 point — behaviour is a property of
//!   the view, not the allocation class), filled on first execution and hit
//!   thereafter.
//! - **Types stay symbolic.** Allocation/view/cast types may be dependent
//!   (`p.class`); non-dependent ones are pre-evaluated at compile time,
//!   dependent ones carry the frame slots of their path roots and are
//!   evaluated against the running frame exactly like the tree-walker does.

use jns_syntax::{BinOp, UnOp};
use jns_types::{ClassId, Name, Ty};
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::sync::Arc;

/// Why a conditional jump demanded a boolean: the shared rule selects the
/// same error text the tree-walking interpreter raises.
pub use jns_eval::rules::CondKind;

/// A compile-time-detected error that must surface at *run* time to keep
/// backend behaviour aligned (e.g. an unbound variable in dead code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrapKind {
    /// Reading a variable that is not in scope.
    UnboundVar(Name),
}

/// One VM instruction.
#[derive(Debug, Clone)]
pub enum Instr {
    /// Push an integer literal.
    ConstInt(i64),
    /// Push a boolean literal.
    ConstBool(bool),
    /// Push a pooled string literal.
    ConstStr(u32),
    /// Push the unit value.
    ConstUnit,
    /// Push a copy of frame slot `n`.
    Load(u16),
    /// Pop into frame slot `n` (used by `final x = e; ...`).
    Store(u16),
    /// Discard the top of stack.
    Pop,
    /// Read field `f` of the popped receiver through its view
    /// (`fclass` + lazy implicit view change); `ic` is a per-site cache.
    GetField {
        /// Field name.
        f: Name,
        /// Inline-cache id (index into the VM's field-site caches).
        ic: u32,
    },
    /// `x.f = v`: pop the value, write through the view of local `x`,
    /// remove the mask on `f` from that local, push the value back.
    SetField {
        /// Frame slot of `x` (`None` if `x` was not in scope).
        local: Option<u16>,
        /// The variable's name (for interpreter-identical diagnostics).
        var: Name,
        /// Field name.
        f: Name,
        /// Inline-cache id (index into the VM's store-site caches).
        ic: u32,
    },
    /// Call method `m` with `argc` arguments: pops the arguments then the
    /// receiver; dispatches on the receiver's *view* via the site cache.
    Call {
        /// Method name.
        m: Name,
        /// Number of arguments.
        argc: u16,
        /// Inline-cache id (index into the VM's call-site caches).
        ic: u32,
    },
    /// First half of `new T { f = v, ... }`: resolves `T` to a class and
    /// pushes it on the VM's allocation stack — *before* the provided
    /// field expressions evaluate, matching the interpreter's order (a
    /// failing dependent type must error before init side effects).
    NewResolve {
        /// Type-table entry for `T`.
        ty: u32,
    },
    /// Second half of `new`: pops the resolved class and carves out the
    /// object while the provided values (one per field name, pushed in
    /// source order) wait on the operand stack. If the class declares
    /// initialisers, `this` goes on top of the values and the frame stays
    /// parked at this instruction while each initialiser chunk runs as an
    /// ordinary activation; then the values are stored and replaced with
    /// the new reference.
    NewAlloc {
        /// Provided field names, in source order.
        fields: Arc<[Name]>,
    },
    /// `(view T)e`: pop a reference, re-view it at `T`.
    View {
        /// Type-table entry for `T` (with its declared masks).
        ty: u32,
    },
    /// `(cast T)e`: pop a value; references check their view against `T`.
    Cast {
        /// Type-table entry for `T`.
        ty: u32,
    },
    /// Binary operation on the two topmost values.
    Bin(BinOp),
    /// Unary operation on the top value.
    Un(UnOp),
    /// Unconditional jump to an instruction index.
    Jump(u32),
    /// Pop a boolean; jump when false. Non-booleans raise the
    /// [`CondKind`]-specific type error.
    JumpIfFalse(u32, CondKind),
    /// Pop a boolean; jump when true.
    JumpIfTrue(u32, CondKind),
    /// Pop a value, render it like the interpreter's `print`, push unit.
    Print,
    /// Raise a compile-time-detected error at run time.
    Trap(TrapKind),
    /// Return the top of stack from the current chunk.
    Ret,

    // --- superinstructions (peephole fusion; `CompileOptions::fuse`) ---
    //
    // Each fused form is observably identical to its constituent sequence
    // but costs one dispatch, one step, and less stack traffic. The
    // fusion pass never fuses across a jump target, and remaps every jump
    // to the rebuilt instruction indices.
    /// `Load(slot); GetField{f,ic}`: read a field of a local directly.
    LoadGetField {
        /// Frame slot of the receiver.
        slot: u16,
        /// Field name.
        f: Name,
        /// Inline-cache id.
        ic: u32,
    },
    /// `Load(a); Load(b); Bin(op)`: binary op over two locals.
    LoadLoadBin {
        /// Frame slot of the left operand.
        a: u16,
        /// Frame slot of the right operand.
        b: u16,
        /// The operator.
        op: BinOp,
    },
    /// `ConstInt(n); Bin(op)`: binary op with a literal right operand.
    ConstIntBin {
        /// The literal right operand.
        n: i64,
        /// The operator.
        op: BinOp,
    },
    /// `ConstInt(n); Bin(op); JumpIfFalse(t, kind)`: the compare-and-
    /// branch back-edge form every `while (x < N)` loop head compiles to.
    ConstIntBinJif {
        /// The literal right operand.
        n: i64,
        /// The comparison.
        op: BinOp,
        /// Branch target when the comparison is false.
        t: u32,
        /// Which construct demanded the boolean (error message).
        kind: CondKind,
    },
    /// `Load(slot); Call{m, argc: 0, ic}`: zero-argument call on a local.
    LoadCall {
        /// Frame slot of the receiver.
        slot: u16,
        /// Method name.
        m: Name,
        /// Inline-cache id.
        ic: u32,
    },
}

/// A compiled body: `main`, one method, or one field initialiser.
#[derive(Debug)]
pub struct Chunk {
    /// Diagnostic name (`main`, `Class.method`, `Class.field=`).
    pub name: String,
    /// The instruction stream (ends with [`Instr::Ret`]).
    pub code: Vec<Instr>,
    /// Parameter count (excluding `this`).
    pub n_params: u16,
    /// Total frame slots (includes `this` and parameters).
    pub n_locals: u16,
}

/// A type-table entry: the symbolic type plus everything pre-resolved at
/// compile time.
#[derive(Debug)]
pub struct TypeEntry {
    /// The (possibly dependent) pure type.
    pub ty: Ty,
    /// Masks declared on the source type (`T\f`), empty for `new` types.
    /// Each VM interns them (with the dependent masks) once per entry.
    pub masks: BTreeSet<Name>,
    /// Frame slots of the dependent path roots (`None` = not in scope,
    /// which surfaces as the interpreter's unbound-variable error).
    pub bindings: Vec<(Name, Option<u16>)>,
    /// Pre-evaluated runtime type for non-dependent entries: the result
    /// the tree-walker's type evaluation would produce (type + dependent
    /// masks, which are empty here).
    pub pre: Option<(Ty, BTreeSet<Name>)>,
    /// Pre-resolved allocation class for non-dependent entries used by
    /// `new`; `None` falls back to runtime resolution (which reproduces
    /// the interpreter's exact error if resolution fails).
    pub new_class: Option<ClassId>,
}

/// A whole lowered program: chunks, literals, and types. Immutable once
/// compiled; all mutable state (heap, caches, stats) lives in the VM.
///
/// `Send + Sync`: one `Arc<VmProgram>` is shared by every worker VM of a
/// `jns-serve` pool (compile once, execute everywhere).
#[derive(Debug)]
pub struct VmProgram {
    /// All compiled bodies.
    pub chunks: Vec<Chunk>,
    /// Explicit method bodies: (declaring class, name) → chunk.
    pub methods: HashMap<(ClassId, Name), usize>,
    /// Field initialisers: (declaring class, field) → chunk.
    pub field_inits: HashMap<(ClassId, Name), usize>,
    /// The `main` chunk, if the program has one.
    pub main: Option<usize>,
    /// Pooled string literals.
    pub strings: Vec<Arc<str>>,
    /// The type table.
    pub types: Vec<TypeEntry>,
    /// Operators folded away at lowering time (constant folding over
    /// literal int/bool operands; surfaced as `Stats::folded`).
    pub folded: u64,
    /// Superinstructions emitted by the fusion peephole (0 when compiled
    /// with `CompileOptions { fuse: false }`; surfaced as `Stats::fused`).
    pub fused: u64,
    /// Number of field-read sites (sizes the VM's cache vector).
    pub n_field_ics: u32,
    /// Number of field-write sites.
    pub n_set_ics: u32,
    /// Number of call sites.
    pub n_call_ics: u32,
    /// Wall-clock time lowering took, microseconds (surfaced as the
    /// `lower` phase event in `--trace` output).
    pub lower_micros: u64,
}

// One compiled program is shared across a whole worker pool; a compile
// error here means a thread-unsafe type leaked into the bytecode.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VmProgram>();
};
