//! Lowering: checked core IR ([`CExpr`]) → flat bytecode ([`Instr`]).
//!
//! Every explicit method body, every field initialiser, and `main` become
//! one [`Chunk`] each. Variables are resolved to frame slots here; field
//! and method *names* stay symbolic and are bound by the VM's view-keyed
//! inline caches at run time, because in J&s the meaning of a name depends
//! on the receiver's view, which is a run-time quantity.

use crate::bytecode::{Chunk, CondKind, Instr, TrapKind, TypeEntry, VmProgram};
use jns_eval::{rules, Value};
use jns_syntax::BinOp;
use jns_types::{CExpr, CheckedProgram, Name, Ty, Type};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Lowering knobs. The default enables every optimisation; ablation
/// harnesses (and the CLI's `--no-fuse`) switch stages off individually.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Run the superinstruction fusion peephole after lowering.
    pub fuse: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { fuse: true }
    }
}

/// Compiles a checked program to bytecode with default options.
pub fn compile(prog: &CheckedProgram) -> VmProgram {
    compile_with(prog, CompileOptions::default())
}

/// Compiles a checked program to bytecode.
pub fn compile_with(prog: &CheckedProgram, opts: CompileOptions) -> VmProgram {
    let lower_start = std::time::Instant::now();
    let mut c = Compiler {
        prog,
        chunks: Vec::new(),
        strings: Vec::new(),
        string_ids: HashMap::new(),
        types: Vec::new(),
        type_ids: HashMap::new(),
        n_field_ics: 0,
        n_set_ics: 0,
        n_call_ics: 0,
        folded: 0,
    };

    // Deterministic chunk order: sort the method/initialiser keys.
    let mut methods = HashMap::new();
    let mut method_keys: Vec<_> = prog.methods.keys().copied().collect();
    method_keys.sort();
    for key @ (cls, m) in method_keys {
        let method = &prog.methods[&key];
        let name = format!("{}.{}", prog.table.class_name(cls), prog.table.name_str(m));
        let idx = c.chunk(name, true, &method.params, &method.body);
        methods.insert(key, idx);
    }

    let mut field_inits = HashMap::new();
    let mut init_keys: Vec<_> = prog.field_inits.keys().copied().collect();
    init_keys.sort();
    for key @ (cls, f) in init_keys {
        let init = &prog.field_inits[&key];
        let name = format!("{}.{}=", prog.table.class_name(cls), prog.table.name_str(f));
        let idx = c.chunk(name, true, &[], init);
        field_inits.insert(key, idx);
    }

    let main = prog
        .main
        .as_ref()
        .map(|m| c.chunk("main".to_string(), false, &[], m));

    // Pre-evaluate every non-dependent type entry with the reference
    // type-evaluation machinery, so the hot path never re-evaluates them.
    {
        let mut scratch = jns_eval::Machine::new(prog);
        let empty = HashMap::new();
        for entry in &mut c.types {
            if !entry.ty.is_non_dependent() {
                continue;
            }
            if let Ok(pre) = jns_eval::typeeval::eval_type(&mut scratch, &empty, &entry.ty) {
                entry.pre = Some(pre);
            }
            if entry.for_new {
                if let Ok(cls) =
                    jns_eval::typeeval::eval_type_class(&mut scratch, &empty, &entry.ty)
                {
                    entry.new_class = Some(cls);
                }
            }
        }
    }

    // Superinstruction fusion: a peephole over each finished chunk. Runs
    // after patching, so every jump target is final before the remap.
    let mut fused = 0u64;
    if opts.fuse {
        for chunk in &mut c.chunks {
            fused += fuse_chunk(&mut chunk.code);
        }
    }

    VmProgram {
        chunks: c.chunks,
        methods,
        field_inits,
        main,
        strings: c.strings,
        types: c.types.into_iter().map(|e| e.entry).collect(),
        folded: c.folded,
        fused,
        n_field_ics: c.n_field_ics,
        n_set_ics: c.n_set_ics,
        n_call_ics: c.n_call_ics,
        lower_micros: lower_start.elapsed().as_micros().min(u64::MAX as u128) as u64,
    }
}

/// Folds an all-literal int/bool operator tree to its value with the
/// engines' own operator rules ([`rules::binop`], [`rules::unop`]),
/// counting the operators eliminated. Returns `None` whenever lowering
/// must keep the runtime behaviour observable: any non-literal
/// subexpression, string operands (pooled, not folded), and every
/// operator whose run-time rule errs — division or remainder by a literal
/// zero, or mismatched `==`/`!=` operands. Both engines evaluate `&&` and
/// `||` as control flow, so they fold here: literal operands are pure.
/// Recursion depth is bounded by the parser's expression-nesting limit.
fn const_fold(e: &CExpr) -> Option<(Value, u64)> {
    match e {
        CExpr::Int(n) => Some((Value::Int(*n), 0)),
        CExpr::Bool(b) => Some((Value::Bool(*b), 0)),
        CExpr::Un(op, inner) => {
            let (v, n) = const_fold(inner)?;
            Some((rules::unop(*op, v).ok()?, n + 1))
        }
        CExpr::Bin(op, l, r) => {
            let (lv, ln) = const_fold(l)?;
            let (rv, rn) = const_fold(r)?;
            let out = match (op, &lv, &rv) {
                (BinOp::And, Value::Bool(a), Value::Bool(b)) => Value::Bool(*a && *b),
                (BinOp::Or, Value::Bool(a), Value::Bool(b)) => Value::Bool(*a || *b),
                _ => rules::binop(*op, lv, rv).ok()?,
            };
            Some((out, ln + rn + 1))
        }
        _ => None,
    }
}

/// A type entry plus the compile-only flag marking `new` usage.
struct PendingType {
    entry: TypeEntry,
    for_new: bool,
}

impl std::ops::Deref for PendingType {
    type Target = TypeEntry;
    fn deref(&self) -> &TypeEntry {
        &self.entry
    }
}

impl std::ops::DerefMut for PendingType {
    fn deref_mut(&mut self) -> &mut TypeEntry {
        &mut self.entry
    }
}

/// Dedup key for type-table entries: the type itself, its declared masks,
/// the slot snapshot of its dependent path roots, and `new`-usage.
type TypeKey = (Ty, BTreeSet<Name>, Vec<(Name, Option<u16>)>, bool);

struct Compiler<'p> {
    prog: &'p CheckedProgram,
    chunks: Vec<Chunk>,
    strings: Vec<Arc<str>>,
    string_ids: HashMap<String, u32>,
    types: Vec<PendingType>,
    type_ids: HashMap<TypeKey, u32>,
    n_field_ics: u32,
    n_set_ics: u32,
    n_call_ics: u32,
    /// Operators eliminated by constant folding (`Stats::folded`).
    folded: u64,
}

/// Per-chunk lexical scope: a stack of (name, slot) bindings.
struct Scope {
    bindings: Vec<(Name, u16)>,
    next: u16,
    max: u16,
}

impl Scope {
    fn new() -> Self {
        Scope {
            bindings: Vec::new(),
            next: 0,
            max: 0,
        }
    }

    fn bind(&mut self, n: Name) -> u16 {
        let slot = self.next;
        self.next += 1;
        self.max = self.max.max(self.next);
        self.bindings.push((n, slot));
        slot
    }

    fn unbind(&mut self) {
        self.bindings.pop();
        self.next -= 1;
    }

    fn lookup(&self, n: Name) -> Option<u16> {
        self.bindings
            .iter()
            .rev()
            .find(|(b, _)| *b == n)
            .map(|(_, s)| *s)
    }
}

impl<'p> Compiler<'p> {
    fn chunk(&mut self, name: String, has_this: bool, params: &[Name], body: &CExpr) -> usize {
        let mut scope = Scope::new();
        if has_this {
            scope.bind(self.prog.table.this_name);
        }
        for p in params {
            scope.bind(*p);
        }
        let mut code = Vec::new();
        self.expr(&mut scope, &mut code, body);
        code.push(Instr::Ret);
        let idx = self.chunks.len();
        self.chunks.push(Chunk {
            name,
            code,
            n_params: params.len() as u16,
            n_locals: scope.max,
        });
        idx
    }

    fn string_id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.string_ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(Arc::from(s));
        self.string_ids.insert(s.to_string(), id);
        id
    }

    /// Interns a type-table entry; bindings snapshot the slots of the
    /// dependent path roots at this program point.
    fn type_id(&mut self, scope: &Scope, ty: &Ty, masks: &BTreeSet<Name>, for_new: bool) -> u32 {
        let mut roots: Vec<Name> = ty.paths().iter().map(|p| p.base).collect();
        roots.sort();
        roots.dedup();
        let bindings: Vec<(Name, Option<u16>)> =
            roots.into_iter().map(|b| (b, scope.lookup(b))).collect();
        let key = (ty.clone(), masks.clone(), bindings.clone(), for_new);
        if let Some(&id) = self.type_ids.get(&key) {
            return id;
        }
        let id = self.types.len() as u32;
        self.types.push(PendingType {
            entry: TypeEntry {
                ty: ty.clone(),
                masks: masks.clone(),
                bindings,
                pre: None,
                new_class: None,
            },
            for_new,
        });
        self.type_ids.insert(key, id);
        id
    }

    fn field_ic(&mut self) -> u32 {
        self.n_field_ics += 1;
        self.n_field_ics - 1
    }

    fn set_ic(&mut self) -> u32 {
        self.n_set_ics += 1;
        self.n_set_ics - 1
    }

    fn call_ic(&mut self) -> u32 {
        self.n_call_ics += 1;
        self.n_call_ics - 1
    }

    fn expr(&mut self, scope: &mut Scope, code: &mut Vec<Instr>, e: &CExpr) {
        // Constant folding: an all-literal int/bool operator tree lowers
        // to a single constant push.
        if matches!(e, CExpr::Bin(..) | CExpr::Un(..)) {
            if let Some((lit, ops)) = const_fold(e) {
                self.folded += ops;
                code.push(match lit {
                    Value::Int(n) => Instr::ConstInt(n),
                    Value::Bool(b) => Instr::ConstBool(b),
                    other => unreachable!("int/bool operators folded to {other:?}"),
                });
                return;
            }
        }
        match e {
            CExpr::Int(n) => code.push(Instr::ConstInt(*n)),
            CExpr::Bool(b) => code.push(Instr::ConstBool(*b)),
            CExpr::Str(s) => {
                let id = self.string_id(s);
                code.push(Instr::ConstStr(id));
            }
            CExpr::Unit => code.push(Instr::ConstUnit),
            CExpr::Var(x) => match scope.lookup(*x) {
                Some(slot) => code.push(Instr::Load(slot)),
                None => code.push(Instr::Trap(TrapKind::UnboundVar(*x))),
            },
            CExpr::GetField(recv, f) => {
                self.expr(scope, code, recv);
                let ic = self.field_ic();
                code.push(Instr::GetField { f: *f, ic });
            }
            CExpr::SetField(x, f, value) => {
                self.expr(scope, code, value);
                let ic = self.set_ic();
                code.push(Instr::SetField {
                    local: scope.lookup(*x),
                    var: *x,
                    f: *f,
                    ic,
                });
            }
            CExpr::Call(recv, m, args) => {
                self.expr(scope, code, recv);
                for a in args {
                    self.expr(scope, code, a);
                }
                let ic = self.call_ic();
                code.push(Instr::Call {
                    m: *m,
                    argc: args.len() as u16,
                    ic,
                });
            }
            CExpr::New(ty, inits) => {
                // Type resolution precedes the provided field expressions,
                // matching the interpreter's evaluation order.
                let no_masks = BTreeSet::new();
                let tid = self.type_id(scope, ty, &no_masks, true);
                code.push(Instr::NewResolve { ty: tid });
                for (_, init) in inits {
                    self.expr(scope, code, init);
                }
                let fields: Arc<[Name]> = inits.iter().map(|(f, _)| *f).collect();
                code.push(Instr::NewAlloc { fields });
            }
            CExpr::View(ty, inner) => {
                self.expr(scope, code, inner);
                let tid = self.view_type_id(scope, ty);
                code.push(Instr::View { ty: tid });
            }
            CExpr::Cast(ty, inner) => {
                self.expr(scope, code, inner);
                let tid = self.view_type_id(scope, ty);
                code.push(Instr::Cast { ty: tid });
            }
            CExpr::Bin(BinOp::And, l, r) => {
                self.expr(scope, code, l);
                let jf = self.placeholder(code, |t| Instr::JumpIfFalse(t, CondKind::And));
                self.expr(scope, code, r);
                let jend = self.placeholder(code, Instr::Jump);
                self.patch(code, jf);
                code.push(Instr::ConstBool(false));
                self.patch(code, jend);
            }
            CExpr::Bin(BinOp::Or, l, r) => {
                self.expr(scope, code, l);
                let jt = self.placeholder(code, |t| Instr::JumpIfTrue(t, CondKind::Or));
                self.expr(scope, code, r);
                let jend = self.placeholder(code, Instr::Jump);
                self.patch(code, jt);
                code.push(Instr::ConstBool(true));
                self.patch(code, jend);
            }
            CExpr::Bin(op, l, r) => {
                self.expr(scope, code, l);
                self.expr(scope, code, r);
                code.push(Instr::Bin(*op));
            }
            CExpr::Un(op, inner) => {
                self.expr(scope, code, inner);
                code.push(Instr::Un(*op));
            }
            CExpr::If(cnd, t, f) => {
                self.expr(scope, code, cnd);
                let jf = self.placeholder(code, |t| Instr::JumpIfFalse(t, CondKind::If));
                self.expr(scope, code, t);
                let jend = self.placeholder(code, Instr::Jump);
                self.patch(code, jf);
                self.expr(scope, code, f);
                self.patch(code, jend);
            }
            CExpr::While(cnd, body) => {
                let head = code.len();
                self.expr(scope, code, cnd);
                let jend = self.placeholder(code, |t| Instr::JumpIfFalse(t, CondKind::While));
                self.expr(scope, code, body);
                code.push(Instr::Pop);
                code.push(Instr::Jump(head as u32));
                self.patch(code, jend);
                code.push(Instr::ConstUnit);
            }
            CExpr::Let(x, init, body) => {
                self.expr(scope, code, init);
                let slot = scope.bind(*x);
                code.push(Instr::Store(slot));
                self.expr(scope, code, body);
                scope.unbind();
            }
            CExpr::Seq(parts) => {
                if parts.is_empty() {
                    code.push(Instr::ConstUnit);
                } else {
                    for (i, p) in parts.iter().enumerate() {
                        if i > 0 {
                            code.push(Instr::Pop);
                        }
                        self.expr(scope, code, p);
                    }
                }
            }
            CExpr::Print(inner) => {
                self.expr(scope, code, inner);
                code.push(Instr::Print);
            }
        }
    }

    fn view_type_id(&mut self, scope: &Scope, ty: &Type) -> u32 {
        self.type_id(scope, &ty.ty, &ty.masks, false)
    }

    /// Emits a jump with a placeholder target, returning its index.
    fn placeholder(&mut self, code: &mut Vec<Instr>, make: impl FnOnce(u32) -> Instr) -> usize {
        code.push(make(u32::MAX));
        code.len() - 1
    }

    /// Patches the jump at `at` to point to the current end of `code`.
    fn patch(&self, code: &mut [Instr], at: usize) {
        let target = code.len() as u32;
        match &mut code[at] {
            Instr::Jump(t) | Instr::JumpIfFalse(t, _) | Instr::JumpIfTrue(t, _) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }
}

// ------------------------------------------------------------------ fusion

/// The superinstruction peephole: greedily fuses the hottest adjacent
/// instruction shapes (longest pattern first, left to right) and remaps
/// every jump to the rebuilt indices. A sequence is only fused when none
/// of its *interior* instructions is a jump target — landing mid-pattern
/// must keep executing the generic forms. Returns the number of
/// superinstructions emitted.
///
/// Candidate shapes (from the per-chunk instruction profiles of the
/// dispatch-heavy workloads — loop heads and field/call traffic):
///
/// - `ConstInt; Bin; JumpIfFalse` → [`Instr::ConstIntBinJif`] (the
///   `while (x < N)` compare-and-branch)
/// - `Load; Load; Bin`            → [`Instr::LoadLoadBin`]
/// - `Load; GetField`             → [`Instr::LoadGetField`]
/// - `Load; Call` (0 args)        → [`Instr::LoadCall`]
/// - `ConstInt; Bin`              → [`Instr::ConstIntBin`]
fn fuse_chunk(code: &mut Vec<Instr>) -> u64 {
    let n = code.len();
    // Jump targets (an index may be one past a pattern's head, so track
    // every instruction index; `n` itself can be a patched target).
    let mut is_target = vec![false; n + 1];
    for ins in code.iter() {
        if let Instr::Jump(t) | Instr::JumpIfFalse(t, _) | Instr::JumpIfTrue(t, _) = ins {
            is_target[*t as usize] = true;
        }
    }

    let mut out: Vec<Instr> = Vec::with_capacity(n);
    // old pc → new pc (every old index gets an entry; interior indices of
    // a fused pattern are never jump targets, so their mapping — the
    // fused instruction itself — is never used).
    let mut map = vec![0u32; n + 1];
    let mut fused = 0u64;
    let mut i = 0usize;
    while i < n {
        map[i] = out.len() as u32;
        let free2 = i + 1 < n && !is_target[i + 1];
        let free3 = i + 2 < n && free2 && !is_target[i + 2];
        let replacement = match (&code[i], free2, free3) {
            (Instr::ConstInt(lit), _, true) => match (&code[i + 1], &code[i + 2]) {
                (Instr::Bin(op), Instr::JumpIfFalse(t, kind)) => Some((
                    Instr::ConstIntBinJif {
                        n: *lit,
                        op: *op,
                        t: *t,
                        kind: *kind,
                    },
                    3,
                )),
                _ => None,
            },
            _ => None,
        }
        .or(match (&code[i], free3) {
            (Instr::Load(a), true) => match (&code[i + 1], &code[i + 2]) {
                (Instr::Load(b), Instr::Bin(op)) => Some((
                    Instr::LoadLoadBin {
                        a: *a,
                        b: *b,
                        op: *op,
                    },
                    3,
                )),
                _ => None,
            },
            _ => None,
        })
        .or(match (&code[i], free2) {
            (Instr::Load(slot), true) => match &code[i + 1] {
                Instr::GetField { f, ic } => Some((
                    Instr::LoadGetField {
                        slot: *slot,
                        f: *f,
                        ic: *ic,
                    },
                    2,
                )),
                Instr::Call { m, argc: 0, ic } => Some((
                    Instr::LoadCall {
                        slot: *slot,
                        m: *m,
                        ic: *ic,
                    },
                    2,
                )),
                _ => None,
            },
            (Instr::ConstInt(lit), true) => match &code[i + 1] {
                Instr::Bin(op) => Some((Instr::ConstIntBin { n: *lit, op: *op }, 2)),
                _ => None,
            },
            _ => None,
        });
        match replacement {
            Some((ins, width)) => {
                for mapped in &mut map[i + 1..i + width] {
                    *mapped = out.len() as u32;
                }
                out.push(ins);
                fused += 1;
                i += width;
            }
            None => {
                out.push(code[i].clone());
                i += 1;
            }
        }
    }
    map[n] = out.len() as u32;

    for ins in &mut out {
        match ins {
            Instr::Jump(t)
            | Instr::JumpIfFalse(t, _)
            | Instr::JumpIfTrue(t, _)
            | Instr::ConstIntBinJif { t, .. } => *t = map[*t as usize],
            _ => {}
        }
    }
    *code = out;
    fused
}
