//! Load-time compilation of the decoded op stream to x86-64.
//!
//! [`compile`] runs once per load, after [`crate::decode`]. It emits
//! one machine-code template per [`Op`], specialised for the mode's
//! protection, so the three compiled technologies run as native code,
//! as the paper's C, Modula-3 and Omniware rows did:
//!
//! * **Unchecked** ANDs every index into the region's power-of-two
//!   padded buffer: a stray index lands somewhere in the graft's own
//!   allocation, as in [`crate::memory::Buf::get_wrapped`].
//! * **Safe** compares every index with the region's length and jumps
//!   to a shared trap stub when it is out of range; loads and stores on
//!   linked regions first test for the NIL word.
//! * **Sfi** keeps the arena base in a pinned register and masks every
//!   address, bumping the [`crate::SfiTally`] words exactly where the
//!   decoded loop does.
//!
//! Backward branches and calls burn fuel in the metered modes only.
//! Nothing else differs between modes, so measured differences are the
//! cost of the protection, as in the decoded loop.
//!
//! ## Calling convention
//!
//! The code is the same for every engine sharing the module: it holds
//! no per-engine address. It reaches engine state through [`Ctx`] and
//! these host registers:
//!
//! | register | holds |
//! |---|---|
//! | `rbx` | the running frame's first graft register |
//! | `r12` | the [`Ctx`] |
//! | `r13` | region and pool bases (Unchecked, Safe) or the arena (Sfi) |
//! | `r14` | the globals |
//! | `r15` | remaining fuel |
//! | `r8`–`r11` | the SFI tally (Sfi); pinned graft registers otherwise |
//! | `rsi`, `rdi`, `rbp` | pinned graft registers |
//! | `rax`, `rcx`, `rdx` | scratch |
//!
//! The first five are fixed for the whole run. Every graft register
//! has a slot in the register stack shared with the decoded loop,
//! `[rbx + 8 * r]`, and a function *pins* the ones its code uses most,
//! weighted by loop depth, in the host registers free in its mode:
//! seven under Unchecked and Safe, three under Sfi ([`PINNABLE`]). A
//! pin pays off only where its weighted uses outweigh a prologue load
//! plus a spill and a reload at every call the function makes, so a
//! call-heavy function pins little. The prologue loads pinned
//! arguments from their slots and zeroes the other pinned registers.
//! A template works on the pinned registers directly, and on the
//! others through `rax`, `rcx` and `rdx`, remembering which graft
//! register `rax` still holds so that an op reading the previous op's
//! result skips the reload. That memory is forgotten at every jump
//! target. A result that only the next op of its block reads (an
//! expression temporary, [`passed`]) is not stored to its slot at all:
//! it passes in `rax`.
//!
//! Pinned registers are **caller-saved**. Before a graft call, and so
//! before any call of the [`grow`] helper, a function writes each of
//! its pinned registers back to its slot, and it reloads them after.
//! A callee may therefore use every pinnable register as it likes,
//! and nothing but slots carries a value across a call.
//!
//! A graft call is a native `call`: it checks the depth (a word in the
//! [`Ctx`]), checks that the register stack holds the callee's frame,
//! copies the arguments into the callee's slots and moves `rbx` up by
//! the caller's frame. A register stack that is too short grows
//! through [`grow`], a non-unwinding `extern "C"` helper, and `rbx` is
//! rebased onto the new allocation. The stack is sized lazily: an
//! engine that never runs holds none.
//!
//! A call to a *leaf* of at most [`INLINE_OPS`] ops, a function with
//! no calls and no backward branches (MD5's `rotl`), is instead
//! emitted inline. The site burns the call's fuel and makes the call's
//! depth check, exactly as a call does. The leaf's registers sit in
//! its caller's frame, above the caller's own ([`Plan::frame`]), and
//! compete for the caller's pins. A parameter the leaf never writes is
//! read from the caller's argument register itself; the others are
//! moved in. The leaf registers that some path reads before writing
//! are zeroed, ops no path reaches are left out, and each `Ret`
//! becomes a move into the call's destination and a jump past the
//! copy.
//!
//! A trap jumps to a stub that leaves a status code in `eax` and the
//! trap's payload (an index, an abort code) in the [`Ctx`], then
//! restores the stack pointer saved at entry and returns to [`run`],
//! which builds the error. No signal is raised and no frame unwinds.
//!
//! ## Why the generated code is sound
//!
//! The emitter relies on the invariants the decoded loop documents in
//! [`crate::interp`]: the IR verifier proves every register operand is
//! below its function's frame size, every jump lands inside its
//! function, and every call passes its callee's arity. The templates
//! add:
//!
//! * a frame's registers, its inlined leaves' included, are inside the
//!   register stack: the entry frame is sized by [`run`], and every
//!   call checks the callee's whole frame end against the stack end
//!   (growing it) before writing it;
//! * a value outlives a call only in a slot: every pinned register is
//!   spilled before, and reloaded after, each call and each [`grow`];
//!   the entry stub saves and restores `rbp`, the one pinnable
//!   register the host's convention has its callers keep;
//! * a result left in `rax` alone is read there: it dies at the next
//!   op, which is no call and no jump target, and every template reads
//!   its operands before it overwrites `rax`;
//! * an inlined leaf computes what the call computes: it makes the
//!   call's fuel burn and depth check, reads its arguments from the
//!   same operands (which nothing writes before its `Ret`: the leaf
//!   writes only its own registers), starts every register it may read
//!   before writing at zero, burns no fuel inside (it branches only
//!   forwards) and traps with the same stubs;
//! * every graft memory access stays inside its buffer: masked by the
//!   buffer's capacity (Unchecked), bounds-checked (Safe), or masked by
//!   the arena's (Sfi); no template writes anywhere else but the frame,
//!   the globals (indexes verified) and the [`Ctx`];
//! * the host stack holds at most [`MAX_DEPTH`] return addresses;
//! * the code's pages are never written while it can run (see
//!   [`pages`]).

mod pages;
mod x64;

use graft_api::{GraftError, Trap};
use graft_ir::{MemRef, Module, Reg};

use crate::decode::{Decoded, Op, Target};
use crate::interp::{self, MAX_DEPTH};
use crate::memory::Memory;
use crate::{CompiledEngine, SafetyMode, SfiTally};
use x64::{Alu, Asm, Cc, Label, M, R};
use x64::{R10, R11, R12, R13, R14, R15, R8, R9, RAX, RBP, RBX, RCX, RDI, RDX, RSI, RSP};

/// One engine's state, as the generated code sees it during one run.
/// Field offsets are the `CTX_*` constants.
#[repr(C)]
struct Ctx {
    /// Region-then-pool base table (Unchecked, Safe) or the arena (Sfi).
    mem: usize,
    globals: *mut i64,
    fuel: u64,
    /// [`SfiTally`] words, in declaration order.
    tally: [u64; 4],
    stack_base: *mut i64,
    /// One past the register stack's last word.
    stack_end: *mut i64,
    stack: *mut Vec<i64>,
    grow: extern "C" fn(*mut Ctx, usize),
    /// The host stack pointer right after the entry stub's pushes.
    entry_rsp: usize,
    /// A trap's index or abort code.
    payload: i64,
    /// The entry function's return value.
    ret: i64,
    /// Graft calls in progress.
    depth: u64,
}

const CTX_MEM: i32 = 0;
const CTX_GLOBALS: i32 = 8;
const CTX_FUEL: i32 = 16;
const CTX_TALLY: i32 = 24;
const CTX_STACK_BASE: i32 = 56;
const CTX_STACK_END: i32 = 64;
const CTX_GROW: i32 = 80;
const CTX_ENTRY_RSP: i32 = 88;
const CTX_PAYLOAD: i32 = 96;
const CTX_RET: i32 = 104;
const CTX_DEPTH: i32 = 112;

const FP: R = RBX;
const CTX: R = R12;
const MEMR: R = R13;
const GLOB: R = R14;
const FUEL: R = R15;
/// SFI tally registers, in [`SfiTally`] order: masks, masked loads,
/// masked stores, arena loads.
const TALLY: [R; 4] = [R8, R9, R10, R11];
/// Host registers a function may pin graft registers in, handed out
/// in this order. Sfi takes the first three: the rest hold its tally.
const PINNABLE: [R; 7] = [RSI, RDI, RBP, R8, R9, R10, R11];
/// Callees of at most this many ops are inlined, if they are leaves.
const INLINE_OPS: usize = 16;

/// Run status, in the low byte of the entry stub's return value; the
/// bits above carry a [`mem_code`] or a [`MISPLACED_OPS`] index.
const DONE: u64 = 0;
const DIV_BY_ZERO: u64 = 1;
const FUEL_OUT: u64 = 2;
const OVERFLOW: u64 = 3;
const ABORT: u64 = 4;
const OUT_OF_BOUNDS: u64 = 5;
const NIL_DEREF: u64 = 6;
const MISPLACED: u64 = 7;

/// Ops that can only reach the wrong mode's code, which the verifiers
/// rule out; their errors are the decoded loop's.
const MISPLACED_OPS: [&str; 6] = [
    "plain load reached an SFI engine",
    "plain store reached an SFI engine",
    "Mask outside SFI engine",
    "MaskedLoad outside SFI engine",
    "MaskedStore outside SFI engine",
    "ArenaLoad outside SFI engine",
];

fn mem_code(mem: MemRef) -> u32 {
    match mem {
        MemRef::Region(r) => u32::from(r),
        MemRef::Pool(p) => 1 << 16 | u32::from(p),
    }
}

fn mem_ref(code: u64) -> MemRef {
    if code & 1 << 16 != 0 {
        MemRef::Pool(code as u16)
    } else {
        MemRef::Region(code as u16)
    }
}

/// A register of the frame being emitted: a graft register of the
/// function, or of a leaf inlined into it (see [`Plan`]).
type V = u32;

/// Frame register `v`'s slot in the running frame.
fn slot(v: V) -> M {
    M::Disp(FP, 8 * v as i32)
}

/// A module's machine code, shared by every fork of the engine.
pub(crate) struct Code {
    pages: std::sync::Arc<pages::Pages>,
    /// Offset of each function's prologue. The entry stub is at 0.
    funcs: Box<[u32]>,
    /// Each function's frame, in registers ([`Plan::frame`]).
    frames: Box<[u32]>,
    len: usize,
    /// Call sites compiled inline.
    pub(crate) inlined: usize,
    /// Graft registers pinned in host registers, over all functions.
    pub(crate) pinned: usize,
}

impl Code {
    /// Machine-code bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// Compiles a decoded module for `mode` and installs the code.
pub(crate) fn compile(
    module: &Module,
    decoded: &Decoded,
    mode: SafetyMode,
    memory: &Memory,
) -> Result<Code, GraftError> {
    let e = emit(module, decoded, mode, memory)?;
    Ok(Code {
        pages: pages::Pages::share(&e.bytes)?,
        funcs: e.funcs,
        frames: e.frames,
        len: e.bytes.len(),
        inlined: e.inlined,
        pinned: e.pinned,
    })
}

/// How the templates guard memory: the mode, with what they need of the
/// memory layout baked in.
#[derive(Clone, Copy)]
enum Guard {
    Unchecked,
    Safe { nil: bool },
    Sfi { mask: i64 },
}

/// A trap stub shared by every site with the same trap.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stub {
    OutOfBounds(u32),
    Nil(u32),
    DivByZero,
    Fuel,
    Overflow,
}

/// A plain buffer's shape: capacity mask, length, linked.
#[derive(Clone, Copy)]
struct Shape {
    mask: i64,
    len: i64,
    linked: bool,
}

/// A second operand: a host register or a slot.
#[derive(Clone, Copy)]
enum Src {
    R(R),
    M(M),
}

/// Where a function's graft registers live.
struct Plan {
    /// The function's own registers; an inlined leaf's start here.
    regs: u32,
    /// Registers in the frame the stack-end check covers: the
    /// function's own, then room for its largest inlined leaf.
    frame: u32,
    /// Per frame register, the host register it is pinned in, if any.
    pins: Vec<Option<R>>,
}

/// The op range of function `f`.
fn span(decoded: &Decoded, f: usize) -> std::ops::Range<usize> {
    let end = decoded
        .funcs
        .get(f + 1)
        .map_or(decoded.ops.len(), |next| next.at as usize);
    decoded.funcs[f].at as usize..end
}

/// Where a branch may go.
fn targets(mut op: Op) -> [Option<Target>; 2] {
    match op {
        Op::Jmp { to } => [Some(to), None],
        _ => match op.targets_mut() {
            Some(to) => [Some(to.then_t), Some(to.else_t)],
            None => [None, None],
        },
    }
}

/// Calls `f` on every graft register `op` reads.
fn reads(op: Op, args: &[Reg], mut f: impl FnMut(Reg)) {
    match op {
        Op::Const { .. } | Op::Jmp { .. } | Op::GlobalGet { .. } | Op::Ret { src: None } => {}
        Op::Mov { src, .. }
        | Op::Neg { src, .. }
        | Op::BitNot { src, .. }
        | Op::Not { src, .. }
        | Op::GlobalSet { src, .. }
        | Op::Ret { src: Some(src) }
        | Op::Mask { src, .. }
        | Op::ArenaLoad { src, .. } => f(src),
        Op::Add { a, b, .. }
        | Op::Sub { a, b, .. }
        | Op::Mul { a, b, .. }
        | Op::Div { a, b, .. }
        | Op::Rem { a, b, .. }
        | Op::And { a, b, .. }
        | Op::Or { a, b, .. }
        | Op::Xor { a, b, .. }
        | Op::Shl { a, b, .. }
        | Op::Shr { a, b, .. }
        | Op::Eq { a, b, .. }
        | Op::Ne { a, b, .. }
        | Op::Lt { a, b, .. }
        | Op::Le { a, b, .. }
        | Op::Gt { a, b, .. }
        | Op::Ge { a, b, .. }
        | Op::BrEq { a, b, .. }
        | Op::BrNe { a, b, .. }
        | Op::BrLt { a, b, .. }
        | Op::BrLe { a, b, .. }
        | Op::BrGt { a, b, .. }
        | Op::BrGe { a, b, .. } => {
            f(a);
            f(b);
        }
        Op::AddI { a, .. }
        | Op::MulI { a, .. }
        | Op::DivI { a, .. }
        | Op::RemI { a, .. }
        | Op::AndI { a, .. }
        | Op::OrI { a, .. }
        | Op::XorI { a, .. }
        | Op::ShlI { a, .. }
        | Op::ShrI { a, .. }
        | Op::EqI { a, .. }
        | Op::NeI { a, .. }
        | Op::LtI { a, .. }
        | Op::LeI { a, .. }
        | Op::GtI { a, .. }
        | Op::GeI { a, .. }
        | Op::BrEqI { a, .. }
        | Op::BrNeI { a, .. }
        | Op::BrLtI { a, .. }
        | Op::BrLeI { a, .. }
        | Op::BrGtI { a, .. }
        | Op::BrGeI { a, .. } => f(a),
        Op::Br { cond, .. } => f(cond),
        Op::Abort { code } => f(code),
        Op::Load { addr, .. } | Op::LoadPool { addr, .. } | Op::MaskedLoad { addr, .. } => f(addr),
        Op::Store { addr, src, .. } | Op::MaskedStore { addr, src } => {
            f(addr);
            f(src);
        }
        Op::Call { argc, args: at, .. } => {
            let at = at as usize;
            args[at..at + usize::from(argc)].iter().for_each(|&r| f(r));
        }
    }
}

/// The register `op` writes, if any.
fn writes(mut op: Op) -> Option<Reg> {
    op.dst_mut().copied()
}

/// A function whose calls are compiled inline: it makes no calls,
/// branches only forwards, and is short.
struct Leaf {
    /// Per op, whether some path from the entry reaches it.
    reached: Vec<bool>,
    /// The registers some path reads before writing: zeroed at each
    /// site, as frame entry zeroes them.
    zero: Vec<Reg>,
    /// Per parameter, whether the leaf writes it. One it never writes
    /// is read straight from the caller's argument register.
    written: Vec<bool>,
}

impl Leaf {
    /// Function `f` as a leaf, if it is one. Its branches all go
    /// forwards, so one pass in op order sees every path.
    fn of(decoded: &Decoded, f: usize, arity: usize) -> Option<Leaf> {
        let span = span(decoded, f);
        let ops = &decoded.ops[span.clone()];
        let leaf = !ops.is_empty()
            && ops.len() <= INLINE_OPS
            && ops.iter().all(|&op| {
                !matches!(op, Op::Call { .. }) && targets(op).iter().flatten().all(|t| !t.burns())
            });
        if !leaf {
            return None;
        }
        let regs = decoded.funcs[f].regs as usize;
        let arity = arity.min(regs);
        // Row `i`: the registers written on every path to op `i`, once
        // `reached[i]`.
        let mut done = vec![false; ops.len() * regs];
        let mut reached = vec![false; ops.len()];
        done[..arity].fill(true);
        reached[0] = true;
        let mut now = vec![false; regs];
        let mut zero = vec![false; regs];
        let mut written = vec![false; arity];
        for (i, &op) in ops.iter().enumerate() {
            if !reached[i] {
                continue;
            }
            now.copy_from_slice(&done[i * regs..(i + 1) * regs]);
            reads(op, &decoded.args, |r| zero[r as usize] |= !now[r as usize]);
            if let Some(d) = writes(op) {
                now[d as usize] = true;
                if let Some(w) = written.get_mut(d as usize) {
                    *w = true;
                }
            }
            let next = match op {
                Op::Ret { .. } | Op::Abort { .. } => [None, None],
                _ => match targets(op) {
                    [None, None] => [Some(i + 1), None],
                    to => to.map(|t| t.map(|t| t.at() - span.start)),
                },
            };
            for j in next.into_iter().flatten().filter(|&j| j < ops.len()) {
                let row = &mut done[j * regs..(j + 1) * regs];
                if reached[j] {
                    row.iter_mut().zip(&now).for_each(|(a, b)| *a &= b);
                } else {
                    row.copy_from_slice(&now);
                    reached[j] = true;
                }
            }
        }
        Some(Leaf {
            reached,
            zero: (0..regs as Reg).filter(|&r| zero[r as usize]).collect(),
            written,
        })
    }

    /// Frame register per register of this leaf (`regs` of them),
    /// inlined at a call passing `args` with its own registers from
    /// `base` on.
    fn map(&self, regs: u32, args: impl Iterator<Item = V>, base: V) -> Vec<V> {
        let mut map: Vec<V> = (base..base + regs).collect();
        for ((m, arg), &written) in map.iter_mut().zip(args).zip(&self.written) {
            if !written {
                *m = arg;
            }
        }
        map
    }
}

/// Per op, whether the value it writes is read by the next op alone,
/// so that it can pass in `rax` without reaching its slot. Every
/// template reads its operands through the `rax` cache before it
/// overwrites `rax`.
///
/// Only registers whose every read follows a write in the same block
/// qualify: those are dead at every block boundary, so a backward scan
/// of each block is their whole liveness. A call neither passes nor
/// takes such a value: its argument copies and an inlined leaf's
/// parameters read slots.
fn passed(decoded: &Decoded, target: &[bool]) -> Vec<bool> {
    let ops = &decoded.ops;
    let regs = decoded.funcs.iter().map(|e| e.regs as usize).max();
    let ends = |op: Op| matches!(op, Op::Ret { .. } | Op::Abort { .. }) || targets(op)[0].is_some();
    let call = |op: Op| matches!(op, Op::Call { .. });
    // `stamp[r]`: the block of r's latest write (forward), or the block
    // in which a later op reads r's value (backward). Blocks are
    // numbered from 1 across the module, each pass afresh, so no stamp
    // outlives its pass.
    let mut stamp = vec![0u32; regs.unwrap_or(0)];
    // `nonlocal[r] == f + 1`: function `f` reads r before writing it in
    // some block.
    let mut nonlocal = vec![0u32; stamp.len()];
    let mut passed = vec![false; ops.len()];
    let mut block = 0;
    for f in 0..decoded.funcs.len() {
        let span = span(decoded, f);
        let tag = f as u32 + 1;
        let starts = |i: usize| i == span.start || target[i] || ends(ops[i - 1]);
        for i in span.clone() {
            block += starts(i) as u32;
            reads(ops[i], &decoded.args, |r| {
                if stamp[r as usize] != block {
                    nonlocal[r as usize] = tag;
                }
            });
            if let Some(d) = writes(ops[i]) {
                stamp[d as usize] = block;
            }
        }
        for j in span.clone().rev() {
            block += (j + 1 == span.end || starts(j + 1)) as u32;
            let op = ops[j];
            // `stamp` holds the liveness after op `j`: decide op `j - 1`.
            if !starts(j) && !call(op) && !call(ops[j - 1]) {
                if let Some(d) = writes(ops[j - 1]).filter(|&d| nonlocal[d as usize] != tag) {
                    let mut read = false;
                    reads(op, &decoded.args, |r| read |= r == d);
                    let dies = stamp[d as usize] != block || writes(op) == Some(d);
                    passed[j - 1] = read && dies;
                }
            }
            if let Some(d) = writes(op) {
                stamp[d as usize] = 0;
            }
            reads(op, &decoded.args, |r| stamp[r as usize] = block);
        }
    }
    passed
}

/// Weighted accesses per frame register that would go to memory were
/// it kept in its slot: every write but a [`passed`] one, and every
/// read but one of the value the previous op just left in `rax`.
struct Uses<'a> {
    decoded: &'a Decoded,
    target: &'a [bool],
    passed: &'a [bool],
    n: Vec<u64>,
    /// The register the previous op wrote.
    last: Option<V>,
}

impl Uses<'_> {
    /// Counts ops `span`, weighted `w`, their registers mapped by `map`.
    fn ops(&mut self, span: std::ops::Range<usize>, map: impl Fn(Reg) -> V, w: u64) {
        for at in span {
            let op = self.decoded.ops[at];
            if self.target[at] {
                self.last = None;
            }
            reads(op, &self.decoded.args, |r| {
                if self.last != Some(map(r)) {
                    self.n[map(r) as usize] += w;
                }
            });
            self.last = writes(op).map(&map);
            if let Some(d) = self.last.filter(|_| !self.passed[at]) {
                self.n[d as usize] += w;
            }
        }
    }
}

/// Plans function `f`'s frame and pins its hottest registers in
/// `hosts`. `leaves[g]` says whether calls to `g` are inlined,
/// `target[at]` whether a branch lands on op `at`, and `passed[at]`
/// whether op `at`'s result is [`passed`].
fn plan(
    decoded: &Decoded,
    f: usize,
    leaves: &[Option<Leaf>],
    target: &[bool],
    passed: &[bool],
    hosts: &[R],
) -> Plan {
    let start = decoded.funcs[f].at as usize;
    let ops = &decoded.ops[span(decoded, f)];
    let regs = decoded.funcs[f].regs;
    // Loop depth per op: how many backward branches' ranges hold it.
    let mut depth = vec![0i32; ops.len() + 1];
    for (i, &op) in ops.iter().enumerate() {
        for t in targets(op).into_iter().flatten().filter(|t| t.burns()) {
            depth[t.at() - start] += 1;
            depth[i + 1] -= 1;
        }
    }
    for i in 1..depth.len() {
        depth[i] += depth[i - 1];
    }
    let leaf = |op: Op| match op {
        Op::Call { func, .. } => leaves[func as usize].as_ref().map(|l| (func as usize, l)),
        _ => None,
    };
    let frame = regs
        + ops
            .iter()
            .filter_map(|&op| leaf(op))
            .map(|(g, _)| decoded.funcs[g].regs)
            .max()
            .unwrap_or(0);
    let mut uses = Uses {
        decoded,
        target,
        passed,
        n: vec![0; frame as usize],
        last: None,
    };
    let mut calls = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        let w = 1u64 << (3 * depth[i].clamp(0, 6));
        let at = start + i;
        match (op, leaf(op)) {
            (
                Op::Call {
                    dst, argc, args, ..
                },
                Some((g, l)),
            ) => {
                let argv = &decoded.args[args as usize..args as usize + usize::from(argc)];
                let map = l.map(
                    decoded.funcs[g].regs,
                    argv.iter().map(|&r| V::from(r)),
                    regs,
                );
                // The copies of the parameters the leaf writes.
                for (i, (&r, _)) in argv.iter().zip(&l.written).enumerate().filter(|p| *p.1 .1) {
                    uses.n[usize::from(r)] += w;
                    uses.n[map[i] as usize] += w;
                }
                uses.ops(span(decoded, g), |r| map[r as usize], w);
                uses.n[usize::from(dst)] += w;
                uses.last = None;
            }
            (Op::Call { .. }, None) => {
                calls += w;
                uses.ops(at..at + 1, V::from, w);
                uses.last = None;
            }
            _ => uses.ops(at..at + 1, V::from, w),
        }
    }
    let uses = uses.n;
    // A pin costs a load or zero in the prologue and a spill and a
    // reload per call; an inlined leaf's registers cost neither.
    let cost = |v: usize| if v < regs as usize { 1 + 2 * calls } else { 0 };
    let mut gain: Vec<u64> = (0..)
        .zip(&uses)
        .map(|(v, &n)| n.saturating_sub(cost(v)))
        .collect();
    let mut pins = vec![None; frame as usize];
    for &host in hosts {
        // The highest gain left, the lowest register on a tie.
        let Some((v, _)) = (0..)
            .zip(&gain)
            .filter(|p| *p.1 > 0)
            .max_by_key(|&(v, &g)| (g, std::cmp::Reverse(v)))
        else {
            break;
        };
        pins[v] = Some(host);
        gain[v] = 0;
    }
    Plan { regs, frame, pins }
}

/// The ops being emitted: a function's own, or a leaf's inlined at a
/// call site.
struct Body {
    /// Graft register `r` of these ops is frame register `map[r]`.
    map: Vec<V>,
    /// The first op's index; op `at` is bound at `labels[at - first]`.
    first: usize,
    labels: Vec<Label>,
    /// For an inlined leaf: the frame register its `Ret` writes, and
    /// the code after the copy.
    ret: Option<(V, Label)>,
    /// One past the last op emitted.
    tail: usize,
}

struct Emitter<'a> {
    asm: Asm,
    decoded: &'a Decoded,
    guard: Guard,
    /// Region shapes, then pool shapes (Unchecked, Safe).
    shapes: Vec<Shape>,
    regions: usize,
    /// Per op, whether a branch lands on it.
    target: Vec<bool>,
    /// Per function: its prologue, its plan, and whether calls to it
    /// are inlined.
    funcs: Vec<Label>,
    plans: Vec<Plan>,
    leaves: Vec<Option<Leaf>>,
    /// The function being emitted.
    func: usize,
    body: Body,
    exit: Label,
    stubs: Vec<(Stub, Label)>,
    grows: Vec<Grow>,
    /// The frame register `rax` holds, if any; never a pinned one.
    cached: Option<V>,
    /// Per op, whether its result is [`passed`].
    passed: Vec<bool>,
    /// Whether the op being emitted leaves its result in `rax` only.
    passing: bool,
    /// Whether a `Ret` of the leaf being inlined jumped past the copy.
    joined: bool,
    inlined: usize,
}

/// A call site's stack-growing path.
struct Grow {
    stub: Label,
    /// Where the call continues.
    resume: Label,
    /// The caller's pinned registers and their slots, to reload.
    saved: Vec<(R, M)>,
}

/// What [`emit`] produces.
struct Emitted {
    bytes: Vec<u8>,
    funcs: Box<[u32]>,
    frames: Box<[u32]>,
    inlined: usize,
    pinned: usize,
}

fn emit(
    module: &Module,
    decoded: &Decoded,
    mode: SafetyMode,
    memory: &Memory,
) -> Result<Emitted, GraftError> {
    let (guard, shapes, regions) = match (mode, memory) {
        (SafetyMode::Sfi { .. }, Memory::Arena(arena)) => (
            Guard::Sfi {
                mask: arena.mask as i64,
            },
            Vec::new(),
            0,
        ),
        (SafetyMode::Unchecked | SafetyMode::Safe { .. }, Memory::Plain(plain)) => {
            let shape = |b: &crate::memory::Buf| Shape {
                mask: b.mask as i64,
                len: b.len as i64,
                linked: b.linked,
            };
            let guard = match mode {
                SafetyMode::Safe { nil_checks } => Guard::Safe { nil: nil_checks },
                _ => Guard::Unchecked,
            };
            let shapes = plain.regions.iter().chain(&plain.pools).map(shape);
            (guard, shapes.collect(), plain.regions.len())
        }
        _ => {
            return Err(GraftError::Verify(
                "memory layout does not match the mode".into(),
            ))
        }
    };
    let hosts = match guard {
        Guard::Sfi { .. } => &PINNABLE[..3],
        _ => &PINNABLE[..],
    };
    let mut target = vec![false; decoded.ops.len()];
    for &op in decoded.ops.iter() {
        for t in targets(op).into_iter().flatten() {
            target[t.at()] = true;
        }
    }
    let mut called = vec![false; decoded.funcs.len()];
    for &op in decoded.ops.iter() {
        if let Op::Call { func, .. } = op {
            called[func as usize] = true;
        }
    }
    let leaves: Vec<Option<Leaf>> = (0..decoded.funcs.len())
        .map(|f| called[f].then(|| Leaf::of(decoded, f, module.funcs[f].arity))?)
        .collect();
    let passed = passed(decoded, &target);
    let plans: Vec<Plan> = (0..decoded.funcs.len())
        .map(|f| plan(decoded, f, &leaves, &target, &passed, hosts))
        .collect();
    let mut asm = Asm::default();
    let funcs = (0..decoded.funcs.len()).map(|_| asm.label()).collect();
    let exit = asm.label();
    let mut e = Emitter {
        asm,
        decoded,
        guard,
        shapes,
        regions,
        target,
        passed,
        funcs,
        plans,
        leaves,
        func: 0,
        body: Body {
            map: Vec::new(),
            first: 0,
            labels: Vec::new(),
            ret: None,
            tail: 0,
        },
        passing: false,
        joined: false,
        exit,
        stubs: Vec::new(),
        grows: Vec::new(),
        cached: None,
        inlined: 0,
    };
    e.entry();
    for f in 0..decoded.funcs.len() {
        e.func = f;
        e.asm.bind(e.funcs[f]);
        e.prologue(module.funcs[f].arity as u32);
        let regs = e.plans[f].regs;
        e.body(span(decoded, f), (0..regs).collect(), None, None);
    }
    e.cold();
    let funcs = e
        .funcs
        .iter()
        .map(|&l| e.asm.offset(l))
        .collect::<Option<Box<[u32]>>>();
    let frames = e.plans.iter().map(|p| p.frame).collect();
    let pinned = e.plans.iter().flat_map(|p| &p.pins).flatten().count();
    let inlined = e.inlined;
    match (funcs, e.asm.finish()) {
        (Some(funcs), Some(bytes)) => Ok(Emitted {
            bytes,
            funcs,
            frames,
            inlined,
            pinned,
        }),
        _ => Err(GraftError::Verify(
            "machine code left a jump unbound".into(),
        )),
    }
}

impl Emitter<'_> {
    fn sfi(&self) -> bool {
        matches!(self.guard, Guard::Sfi { .. })
    }

    fn metered(&self) -> bool {
        !matches!(self.guard, Guard::Unchecked)
    }

    fn plan(&self) -> &Plan {
        &self.plans[self.func]
    }

    /// The host register frame register `v` is pinned in, if any.
    fn pin(&self, v: V) -> Option<R> {
        self.plan().pins[v as usize]
    }

    /// The function's own pinned registers, with their slots: what a
    /// call spills and reloads.
    fn saved(&self) -> Vec<(R, M)> {
        let plan = self.plan();
        let own = &plan.pins[..plan.regs as usize];
        (0..)
            .zip(own)
            .filter_map(|(v, p)| p.map(|h| (h, slot(v))))
            .collect()
    }

    /// The entry stub, at offset 0: `extern "C" fn(ctx, fp, func) ->
    /// status`. Saves the host's callee-saved registers, pins the
    /// engine's, calls `func`, and is also where every trap exits.
    fn entry(&mut self) {
        let sfi = self.sfi();
        let a = &mut self.asm;
        for r in [RBX, RBP, R12, R13, R14, R15] {
            a.push(r);
        }
        a.mov_rr(CTX, RDI);
        a.mov_rr(FP, RSI);
        a.mov_rm(MEMR, M::Disp(CTX, CTX_MEM));
        a.mov_rm(GLOB, M::Disp(CTX, CTX_GLOBALS));
        a.mov_rm(FUEL, M::Disp(CTX, CTX_FUEL));
        if sfi {
            for (i, r) in TALLY.into_iter().enumerate() {
                a.mov_rm(r, M::Disp(CTX, CTX_TALLY + 8 * i as i32));
            }
        }
        a.mov_mr(M::Disp(CTX, CTX_ENTRY_RSP), RSP);
        a.call_r(RDX);
        a.mov_mr(M::Disp(CTX, CTX_RET), RAX);
        a.mov_ri(RAX, DONE as i64);
        a.bind(self.exit);
        a.mov_rm(RSP, M::Disp(CTX, CTX_ENTRY_RSP));
        a.mov_mr(M::Disp(CTX, CTX_FUEL), FUEL);
        if sfi {
            for (i, r) in TALLY.into_iter().enumerate() {
                a.mov_mr(M::Disp(CTX, CTX_TALLY + 8 * i as i32), r);
            }
        }
        for r in [R15, R14, R13, R12, RBP, RBX] {
            a.pop(r);
        }
        a.ret();
    }

    /// Loads pinned arguments and zeroes the registers above the
    /// arguments, as the decoded loop's frame entry does.
    fn prologue(&mut self, arity: u32) {
        self.cached = None;
        let regs = self.plan().regs;
        let mut zeroed = false;
        for v in 0..regs {
            match self.pin(v) {
                Some(h) if v < arity => self.asm.mov_rm(h, slot(v)),
                Some(h) => self.asm.mov_ri(h, 0),
                None if v < arity => {}
                None => {
                    if !zeroed {
                        self.asm.mov_ri(RAX, 0);
                        zeroed = true;
                    }
                    self.asm.mov_mr(slot(v), RAX);
                }
            }
        }
    }

    /// Emits ops `span` with their registers mapped by `map`, and
    /// `ret` for an inlined leaf (see [`Body`]). Ops no path reaches
    /// (`reached`, when given) are left out.
    fn body(
        &mut self,
        span: std::ops::Range<usize>,
        map: Vec<V>,
        ret: Option<(V, Label)>,
        reached: Option<&[bool]>,
    ) {
        let live = |at: usize| reached.is_none_or(|r| r[at - span.start]);
        let labels = span.clone().map(|_| self.asm.label()).collect();
        let tail = span
            .clone()
            .rev()
            .find(|&at| live(at))
            .map_or(span.start, |at| at + 1);
        let outer = std::mem::replace(
            &mut self.body,
            Body {
                map,
                first: span.start,
                labels,
                ret,
                tail,
            },
        );
        for at in span.clone().filter(|&at| live(at)) {
            if self.target[at] {
                self.cached = None;
            }
            self.asm.bind(self.label(at));
            self.passing = self.passed[at];
            self.op(self.decoded.ops[at], at + 1);
        }
        self.body = outer;
    }

    /// The frame register graft register `r` of the body is.
    fn v(&self, r: Reg) -> V {
        self.body.map[usize::from(r)]
    }

    /// Where op `at` of the body being emitted starts.
    fn label(&self, at: usize) -> Label {
        self.body.labels[at - self.body.first]
    }

    /// Emits the trap stubs and stack-growing paths jumped to above.
    fn cold(&mut self) {
        let exit = self.exit;
        let sfi = self.sfi();
        for (stub, label) in std::mem::take(&mut self.stubs) {
            let a = &mut self.asm;
            a.bind(label);
            let status = match stub {
                Stub::OutOfBounds(mem) => {
                    a.mov_mr(M::Disp(CTX, CTX_PAYLOAD), RAX);
                    OUT_OF_BOUNDS | u64::from(mem) << 8
                }
                Stub::Nil(mem) => NIL_DEREF | u64::from(mem) << 8,
                Stub::DivByZero => DIV_BY_ZERO,
                Stub::Fuel => {
                    // A budget that was already empty wrapped below.
                    a.mov_ri(FUEL, 0);
                    FUEL_OUT
                }
                Stub::Overflow => OVERFLOW,
            };
            a.mov_ri(RAX, status as i64);
            a.jmp(exit);
        }
        for Grow {
            stub,
            resume,
            saved,
        } in std::mem::take(&mut self.grows)
        {
            let a = &mut self.asm;
            a.bind(stub);
            // `rax` is the callee frame's end. Pass the words it needs,
            // hold `rbx` as an offset across the move, and keep the SFI
            // tally the helper may clobber. The pinned registers were
            // spilled before the stack check: reload them.
            a.alu_rm(Alu::Sub, RAX, M::Disp(CTX, CTX_STACK_BASE));
            a.shr_i(RAX, 3);
            a.alu_rm(Alu::Sub, FP, M::Disp(CTX, CTX_STACK_BASE));
            if sfi {
                TALLY.into_iter().for_each(|r| a.push(r));
            }
            a.mov_rr(RDI, CTX);
            a.mov_rr(RSI, RAX);
            a.mov_rr(RAX, RSP);
            a.alu_ri(Alu::And, RSP, -16);
            a.alu_ri(Alu::Sub, RSP, 16);
            a.mov_mr(M::Disp(RSP, 0), RAX);
            a.call_m(M::Disp(CTX, CTX_GROW));
            a.mov_rm(RSP, M::Disp(RSP, 0));
            if sfi {
                TALLY.into_iter().rev().for_each(|r| a.pop(r));
            }
            a.alu_rm(Alu::Add, FP, M::Disp(CTX, CTX_STACK_BASE));
            for (h, m) in saved {
                a.mov_rm(h, m);
            }
            a.jmp(resume);
        }
    }

    fn stub(&mut self, stub: Stub) -> Label {
        if let Some(&(_, label)) = self.stubs.iter().find(|(s, _)| *s == stub) {
            return label;
        }
        let label = self.asm.label();
        self.stubs.push((stub, label));
        label
    }

    /// Loads frame register `v` into `into`.
    fn get(&mut self, v: V, into: R) {
        if let Some(h) = self.pin(v) {
            if h != into {
                self.asm.mov_rr(into, h);
            }
        } else if self.cached == Some(v) {
            if into != RAX {
                self.asm.mov_rr(into, RAX);
            }
            return;
        } else {
            self.asm.mov_rm(into, slot(v));
            if into == RAX {
                self.cached = Some(v);
                return;
            }
        }
        if into == RAX {
            self.cached = None;
        }
    }

    /// Frame register `v` in a host register: its pin, or `scratch`
    /// loaded with it.
    fn reg(&mut self, v: V, scratch: R) -> R {
        match self.pin(v) {
            Some(h) => h,
            None => {
                self.get(v, scratch);
                scratch
            }
        }
    }

    /// Frame register `v` as a second operand, in place: its pin,
    /// `rax` while that holds it (the caller must not overwrite `rax`
    /// before the use), or its slot.
    fn src(&self, v: V) -> Src {
        match self.pin(v) {
            Some(h) => Src::R(h),
            None if self.cached == Some(v) => Src::R(RAX),
            None => Src::M(slot(v)),
        }
    }

    /// Where a new value of `v` is computed: its pin, or `rax`.
    fn dest(&self, v: V) -> R {
        self.pin(v).unwrap_or(RAX)
    }

    /// Makes `from`, which [`dest`](Self::dest) chose or which is
    /// `rax`, the new value of `v`.
    fn set(&mut self, v: V, from: R) {
        match self.pin(v) {
            Some(h) => {
                if h != from {
                    self.asm.mov_rr(h, from);
                }
                if from == RAX {
                    self.cached = None;
                }
            }
            None => {
                debug_assert_eq!(from, RAX);
                if !self.passing {
                    self.asm.mov_mr(slot(v), RAX);
                }
                self.cached = Some(v);
            }
        }
    }

    /// `dst = src`.
    fn copy(&mut self, dst: V, src: V) {
        let into = self.dest(dst);
        self.get(src, into);
        self.set(dst, into);
    }

    /// `r op= src`, `op` an ALU op or (`None`) `imul`.
    fn with(&mut self, op: Option<Alu>, r: R, src: Src) {
        let a = &mut self.asm;
        match (op, src) {
            (Some(op), Src::R(s)) => a.alu_rr(op, r, s),
            (Some(op), Src::M(m)) => a.alu_rm(op, r, m),
            (None, Src::R(s)) => a.imul_rr(r, s),
            (None, Src::M(m)) => a.imul_rm(r, m),
        }
    }

    /// `r op= imm`, through `rdx` when `imm` needs 64 bits.
    fn alu_imm(&mut self, op: Alu, r: R, imm: i64) {
        debug_assert!(r != RDX);
        let a = &mut self.asm;
        if op == Alu::And && imm == 0xFFFF_FFFF {
            a.mov_r32(r, r);
        } else if x64::fits_i32(imm) {
            a.alu_ri(op, r, imm as i32);
        } else {
            a.mov_ri(RDX, imm);
            a.alu_rr(op, r, RDX);
        }
    }

    /// Burns one unit of fuel; the unit that empties the budget traps.
    fn burn(&mut self) {
        let fuel = self.stub(Stub::Fuel);
        self.asm.alu_ri(Alu::Sub, FUEL, 1);
        self.asm.jcc(Cc::Be, fuel);
    }

    /// Traps with a stack overflow when a call would go past
    /// [`MAX_DEPTH`].
    fn check_depth(&mut self) {
        let overflow = self.stub(Stub::Overflow);
        let depth = M::Disp(CTX, CTX_DEPTH);
        self.asm.alu_mi(Alu::Cmp, depth, MAX_DEPTH as i32 - 1);
        self.asm.jcc(Cc::Ae, overflow);
    }

    fn goto(&mut self, to: Target, next: usize) {
        if self.metered() && to.burns() {
            self.burn();
        }
        if to.at() != next {
            self.asm.jmp(self.label(to.at()));
        }
    }

    /// Branches on the flags: to `then_t` when `cc` holds.
    fn branch(&mut self, cc: Cc, to: crate::decode::Targets, next: usize) {
        self.cached = None;
        let (then_t, else_t) = (to.then_t, to.else_t);
        let burns = |t: Target| self.metered() && t.burns();
        match (burns(then_t), burns(else_t)) {
            (false, false) if then_t.at() == next => {
                self.asm.jcc(cc.not(), self.label(else_t.at()));
            }
            (false, _) => {
                self.asm.jcc(cc, self.label(then_t.at()));
                self.goto(else_t, next);
            }
            (true, false) => {
                self.asm.jcc(cc.not(), self.label(else_t.at()));
                self.goto(then_t, next);
            }
            (true, true) => {
                let other = self.asm.label();
                self.asm.jcc(cc.not(), other);
                self.goto(then_t, usize::MAX);
                self.asm.bind(other);
                self.goto(else_t, next);
            }
        }
    }

    /// `dst = a op b` for the ALU group and `imul`.
    fn binary(&mut self, op: Option<Alu>, dst: V, a: V, b: V) {
        let into = self.dest(dst);
        let holds = |e: &Self, v: V| match into {
            RAX => e.cached == Some(v),
            h => e.pin(v) == Some(h),
        };
        // Commutative: keep an operand the result register holds there.
        let (a, b) = if op != Some(Alu::Sub) && holds(self, b) {
            (b, a)
        } else {
            (a, b)
        };
        // `dst = a - dst`: computing into `dst` would lose `b`.
        let into = if a != b && into != RAX && self.pin(b) == Some(into) {
            RAX
        } else {
            into
        };
        let b_src = match (a == b, self.src(b)) {
            (true, _) => Src::R(into),
            // Loading `a` into `rax` would lose the `b` it holds.
            (false, Src::R(RAX)) if into == RAX => {
                self.asm.mov_rr(RCX, RAX);
                Src::R(RCX)
            }
            (false, b) => b,
        };
        self.get(a, into);
        self.with(op, into, b_src);
        self.set(dst, into);
    }

    fn binary_imm(&mut self, op: Alu, dst: V, a: V, imm: i64) {
        let into = self.dest(dst);
        self.get(a, into);
        self.alu_imm(op, into, imm);
        self.set(dst, into);
    }

    /// `dst = (a cc b) as i64`.
    fn compare(&mut self, cc: Cc, dst: V, a: V, b: V) {
        let ra = self.reg(a, RCX);
        let b_src = if a == b { Src::R(ra) } else { self.src(b) };
        self.with(Some(Alu::Cmp), ra, b_src);
        self.flag(cc, dst);
    }

    fn compare_imm(&mut self, cc: Cc, dst: V, a: V, imm: i64) {
        let ra = self.reg(a, RCX);
        self.alu_imm(Alu::Cmp, ra, imm);
        self.flag(cc, dst);
    }

    /// `dst = cc as i64`, from the flags.
    fn flag(&mut self, cc: Cc, dst: V) {
        self.asm.setcc_al(cc);
        self.asm.movzx_al(RAX);
        self.cached = None;
        self.set(dst, RAX);
    }

    /// `a <=> b` then branch.
    fn compare_branch(&mut self, cc: Cc, a: V, b: V, to: crate::decode::Targets, next: usize) {
        // Loading `a` into `rax` would lose a `b` held there.
        let scratch = if a != b && self.cached == Some(b) {
            RCX
        } else {
            RAX
        };
        let ra = self.reg(a, scratch);
        let b_src = if a == b { Src::R(ra) } else { self.src(b) };
        self.with(Some(Alu::Cmp), ra, b_src);
        self.branch(cc, to, next);
    }

    fn compare_imm_branch(
        &mut self,
        cc: Cc,
        a: V,
        imm: i64,
        to: crate::decode::Targets,
        next: usize,
    ) {
        let ra = self.reg(a, RAX);
        self.alu_imm(Alu::Cmp, ra, imm);
        self.branch(cc, to, next);
    }

    fn shift(&mut self, left: bool, dst: V, a: V, b: V) {
        self.get(b, RCX);
        let into = self.dest(dst);
        self.get(a, into);
        if left {
            self.asm.shl_cl(into);
        } else {
            self.asm.shr_cl(into);
        }
        self.set(dst, into);
    }

    fn shift_imm(&mut self, left: bool, dst: V, a: V, imm: i64) {
        let into = self.dest(dst);
        self.get(a, into);
        let n = (imm & 63) as u8;
        if n != 0 {
            if left {
                self.asm.shl_i(into, n);
            } else {
                self.asm.shr_i(into, n);
            }
        }
        self.set(dst, into);
    }

    /// `dst = a / b` or `a % b`, wrapping as `ops::binary` does: a zero
    /// divisor traps, and `x / -1`, `x % -1` never reach `idiv`, which
    /// faults on `i64::MIN / -1`.
    fn divide(&mut self, rem: bool, dst: V, a: V, b: V) {
        let zero = self.stub(Stub::DivByZero);
        self.get(b, RCX);
        self.get(a, RAX);
        let (minus_one, done) = (self.asm.label(), self.asm.label());
        let asm = &mut self.asm;
        asm.test_rr(RCX, RCX);
        asm.jcc(Cc::E, zero);
        asm.alu_ri(Alu::Cmp, RCX, -1);
        asm.jcc(Cc::E, minus_one);
        asm.cqo();
        asm.idiv(RCX);
        if rem {
            asm.mov_rr(RAX, RDX);
        }
        asm.jmp(done);
        asm.bind(minus_one);
        if rem {
            asm.mov_ri(RAX, 0);
        } else {
            asm.neg(RAX);
        }
        asm.bind(done);
        self.set(dst, RAX);
    }

    /// Division by a non-zero constant: `±1` and powers of two without
    /// `idiv`.
    fn divide_imm(&mut self, rem: bool, dst: V, a: V, imm: i64) {
        debug_assert!(imm != 0);
        self.get(a, RAX);
        let asm = &mut self.asm;
        if imm == 1 || imm == -1 {
            if rem {
                asm.mov_ri(RAX, 0);
            } else if imm == -1 {
                asm.neg(RAX);
            }
        } else if imm > 0 && imm.count_ones() == 1 {
            // Round towards zero: bias a negative dividend by `imm - 1`.
            let k = imm.trailing_zeros() as u8;
            asm.mov_rr(RDX, RAX);
            asm.sar_i(RDX, 63);
            asm.shr_i(RDX, 64 - k);
            asm.alu_rr(Alu::Add, RDX, RAX);
            asm.sar_i(RDX, k);
            if rem {
                asm.shl_i(RDX, k);
                asm.alu_rr(Alu::Sub, RAX, RDX);
            } else {
                asm.mov_rr(RAX, RDX);
            }
        } else {
            asm.mov_ri(RCX, imm);
            asm.cqo();
            asm.idiv(RCX);
            if rem {
                asm.mov_rr(RAX, RDX);
            }
        }
        self.set(dst, RAX);
    }

    /// Checks (Safe) or wraps (Unchecked) the index in `rax` for `mem`,
    /// and points `rdx` at its buffer.
    fn guard(&mut self, mem: MemRef) {
        let slot = match mem {
            MemRef::Region(r) => usize::from(r),
            MemRef::Pool(p) => self.regions + usize::from(p),
        };
        let shape = self.shapes[slot];
        match self.guard {
            Guard::Safe { nil } => {
                if nil && shape.linked {
                    let nil = self.stub(Stub::Nil(mem_code(mem)));
                    self.asm.test_rr(RAX, RAX);
                    self.asm.jcc(Cc::E, nil);
                }
                let oob = self.stub(Stub::OutOfBounds(mem_code(mem)));
                self.alu_imm(Alu::Cmp, RAX, shape.len);
                self.asm.jcc(Cc::Ae, oob);
            }
            _ => {
                self.alu_imm(Alu::And, RAX, shape.mask);
                self.cached = None;
            }
        }
        self.asm.mov_rm(RDX, M::Disp(MEMR, 8 * slot as i32));
    }

    fn misplaced(&mut self, what: usize) {
        self.asm
            .mov_ri(RAX, (MISPLACED | (what as u64) << 8) as i64);
        self.asm.jmp(self.exit);
        self.cached = None;
    }

    fn load(&mut self, dst: V, mem: MemRef, addr: V) {
        if self.sfi() {
            return self.misplaced(0);
        }
        self.get(addr, RAX);
        self.guard(mem);
        let into = self.dest(dst);
        self.asm.mov_rm(into, M::Index(RDX, RAX));
        self.set(dst, into);
    }

    fn store(&mut self, region: u16, addr: V, src: V) {
        if self.sfi() {
            return self.misplaced(1);
        }
        let value = self.reg(src, RCX);
        self.get(addr, RAX);
        self.guard(MemRef::Region(region));
        self.asm.mov_mr(M::Index(RDX, RAX), value);
    }

    /// Bumps SFI tally word `which` and masks `src + offset` into the
    /// arena, leaving the address in `rax`; `None` outside SFI.
    fn sandbox(&mut self, which: usize, src: V, offset: u32) -> Option<()> {
        let Guard::Sfi { mask } = self.guard else {
            self.misplaced(2 + which);
            return None;
        };
        self.asm.inc(TALLY[which]);
        self.get(src, RAX);
        if offset != 0 {
            self.alu_imm(Alu::Add, RAX, i64::from(offset));
        }
        self.alu_imm(Alu::And, RAX, mask);
        self.cached = None;
        Some(())
    }

    /// `dst = arena[rax]`, after [`sandbox`](Self::sandbox).
    fn arena_load(&mut self, dst: V) {
        let into = self.dest(dst);
        self.asm.mov_rm(into, M::Index(MEMR, RAX));
        self.set(dst, into);
    }

    fn op(&mut self, op: Op, next: usize) {
        use Cc::*;
        match op {
            Op::Const { dst, value } => {
                let into = self.dest(self.v(dst));
                self.asm.mov_ri(into, value);
                self.set(self.v(dst), into);
            }
            Op::Mov { dst, src } => self.copy(self.v(dst), self.v(src)),
            Op::Neg { dst, src } => {
                let into = self.dest(self.v(dst));
                self.get(self.v(src), into);
                self.asm.neg(into);
                self.set(self.v(dst), into);
            }
            Op::BitNot { dst, src } => {
                let into = self.dest(self.v(dst));
                self.get(self.v(src), into);
                self.asm.not(into);
                self.set(self.v(dst), into);
            }
            Op::Not { dst, src } => self.compare_imm(E, self.v(dst), self.v(src), 0),

            Op::Add { dst, a, b } => self.binary(Some(Alu::Add), self.v(dst), self.v(a), self.v(b)),
            Op::Sub { dst, a, b } => self.binary(Some(Alu::Sub), self.v(dst), self.v(a), self.v(b)),
            Op::Mul { dst, a, b } => self.binary(None, self.v(dst), self.v(a), self.v(b)),
            Op::Div { dst, a, b } => self.divide(false, self.v(dst), self.v(a), self.v(b)),
            Op::Rem { dst, a, b } => self.divide(true, self.v(dst), self.v(a), self.v(b)),
            Op::And { dst, a, b } => self.binary(Some(Alu::And), self.v(dst), self.v(a), self.v(b)),
            Op::Or { dst, a, b } => self.binary(Some(Alu::Or), self.v(dst), self.v(a), self.v(b)),
            Op::Xor { dst, a, b } => self.binary(Some(Alu::Xor), self.v(dst), self.v(a), self.v(b)),
            Op::Shl { dst, a, b } => self.shift(true, self.v(dst), self.v(a), self.v(b)),
            Op::Shr { dst, a, b } => self.shift(false, self.v(dst), self.v(a), self.v(b)),
            Op::Eq { dst, a, b } => self.compare(E, self.v(dst), self.v(a), self.v(b)),
            Op::Ne { dst, a, b } => self.compare(Ne, self.v(dst), self.v(a), self.v(b)),
            Op::Lt { dst, a, b } => self.compare(L, self.v(dst), self.v(a), self.v(b)),
            Op::Le { dst, a, b } => self.compare(Le, self.v(dst), self.v(a), self.v(b)),
            Op::Gt { dst, a, b } => self.compare(G, self.v(dst), self.v(a), self.v(b)),
            Op::Ge { dst, a, b } => self.compare(Ge, self.v(dst), self.v(a), self.v(b)),

            Op::AddI { dst, a, imm } => self.binary_imm(Alu::Add, self.v(dst), self.v(a), imm),
            Op::MulI { dst, a, imm } => {
                let into = self.dest(self.v(dst));
                self.get(self.v(a), into);
                if x64::fits_i32(imm) {
                    self.asm.imul_rri(into, into, imm as i32);
                } else {
                    self.asm.mov_ri(RDX, imm);
                    self.asm.imul_rr(into, RDX);
                }
                self.set(self.v(dst), into);
            }
            Op::DivI { dst, a, imm } => self.divide_imm(false, self.v(dst), self.v(a), imm),
            Op::RemI { dst, a, imm } => self.divide_imm(true, self.v(dst), self.v(a), imm),
            Op::AndI { dst, a, imm } => self.binary_imm(Alu::And, self.v(dst), self.v(a), imm),
            Op::OrI { dst, a, imm } => self.binary_imm(Alu::Or, self.v(dst), self.v(a), imm),
            Op::XorI { dst, a, imm } => self.binary_imm(Alu::Xor, self.v(dst), self.v(a), imm),
            Op::ShlI { dst, a, imm } => self.shift_imm(true, self.v(dst), self.v(a), imm),
            Op::ShrI { dst, a, imm } => self.shift_imm(false, self.v(dst), self.v(a), imm),
            Op::EqI { dst, a, imm } => self.compare_imm(E, self.v(dst), self.v(a), imm),
            Op::NeI { dst, a, imm } => self.compare_imm(Ne, self.v(dst), self.v(a), imm),
            Op::LtI { dst, a, imm } => self.compare_imm(L, self.v(dst), self.v(a), imm),
            Op::LeI { dst, a, imm } => self.compare_imm(Le, self.v(dst), self.v(a), imm),
            Op::GtI { dst, a, imm } => self.compare_imm(G, self.v(dst), self.v(a), imm),
            Op::GeI { dst, a, imm } => self.compare_imm(Ge, self.v(dst), self.v(a), imm),

            Op::Jmp { to } => {
                self.cached = None;
                self.goto(to, next);
            }
            Op::Br { cond, to } => {
                let r = self.reg(self.v(cond), RAX);
                self.asm.test_rr(r, r);
                self.branch(Ne, to, next);
            }
            Op::BrEq { a, b, to } => self.compare_branch(E, self.v(a), self.v(b), to, next),
            Op::BrNe { a, b, to } => self.compare_branch(Ne, self.v(a), self.v(b), to, next),
            Op::BrLt { a, b, to } => self.compare_branch(L, self.v(a), self.v(b), to, next),
            Op::BrLe { a, b, to } => self.compare_branch(Le, self.v(a), self.v(b), to, next),
            Op::BrGt { a, b, to } => self.compare_branch(G, self.v(a), self.v(b), to, next),
            Op::BrGe { a, b, to } => self.compare_branch(Ge, self.v(a), self.v(b), to, next),
            Op::BrEqI { a, imm, to } => self.compare_imm_branch(E, self.v(a), imm, to, next),
            Op::BrNeI { a, imm, to } => self.compare_imm_branch(Ne, self.v(a), imm, to, next),
            Op::BrLtI { a, imm, to } => self.compare_imm_branch(L, self.v(a), imm, to, next),
            Op::BrLeI { a, imm, to } => self.compare_imm_branch(Le, self.v(a), imm, to, next),
            Op::BrGtI { a, imm, to } => self.compare_imm_branch(G, self.v(a), imm, to, next),
            Op::BrGeI { a, imm, to } => self.compare_imm_branch(Ge, self.v(a), imm, to, next),

            Op::Load { dst, region, addr } => {
                self.load(self.v(dst), MemRef::Region(region), self.v(addr))
            }
            Op::LoadPool { dst, pool, addr } => {
                self.load(self.v(dst), MemRef::Pool(pool), self.v(addr))
            }
            Op::Store { region, addr, src } => self.store(region, self.v(addr), self.v(src)),
            Op::GlobalGet { dst, index } => {
                let into = self.dest(self.v(dst));
                self.asm.mov_rm(into, M::Disp(GLOB, 8 * i32::from(index)));
                self.set(self.v(dst), into);
            }
            Op::GlobalSet { index, src } => {
                let r = self.reg(self.v(src), RAX);
                self.asm.mov_mr(M::Disp(GLOB, 8 * i32::from(index)), r);
            }
            Op::Call {
                dst,
                argc,
                func,
                args,
            } => {
                let (func, args, argc) = (func as usize, args as usize, usize::from(argc));
                if self.leaves[func].is_some() {
                    self.inline(self.v(dst), func, args, argc);
                } else {
                    self.call(self.v(dst), func, args, argc);
                }
            }
            Op::Ret { src } => {
                match self.body.ret {
                    // An inlined leaf: the value goes to the call's
                    // destination, and the code after the copy runs.
                    Some((dst, after)) => {
                        let into = self.dest(dst);
                        match src {
                            Some(r) => self.get(self.v(r), into),
                            None => self.asm.mov_ri(into, 0),
                        }
                        self.set(dst, into);
                        // The last op falls through to that code with
                        // `rax` as it leaves it; the others jump.
                        if next != self.body.tail {
                            self.asm.jmp(after);
                            self.joined = true;
                            self.cached = None;
                        }
                    }
                    None => {
                        match src {
                            Some(r) => self.get(self.v(r), RAX),
                            None => self.asm.mov_ri(RAX, 0),
                        }
                        self.asm.ret();
                        self.cached = None;
                    }
                }
            }
            Op::Abort { code } => {
                self.get(self.v(code), RAX);
                self.asm.mov_mr(M::Disp(CTX, CTX_PAYLOAD), RAX);
                self.asm.mov_ri(RAX, ABORT as i64);
                self.asm.jmp(self.exit);
                self.cached = None;
            }

            Op::Mask { dst, src, offset } => {
                if self.sandbox(0, self.v(src), offset).is_some() {
                    self.set(self.v(dst), RAX);
                }
            }
            Op::MaskedLoad { dst, addr } => {
                if self.sandbox(1, self.v(addr), 0).is_some() {
                    self.arena_load(self.v(dst));
                }
            }
            Op::MaskedStore { addr, src } => {
                let value = self.reg(self.v(src), RCX);
                if self.sandbox(2, self.v(addr), 0).is_some() {
                    self.asm.mov_mr(M::Index(MEMR, RAX), value);
                }
            }
            Op::ArenaLoad { dst, src, offset } => {
                if self.sandbox(3, self.v(src), offset).is_some() {
                    self.arena_load(self.v(dst));
                }
            }
        }
    }

    /// A graft call: burn, check depth, spill the pinned registers,
    /// make room for the callee's frame, copy the arguments, move the
    /// frame pointer across, and reload the pinned registers after.
    fn call(&mut self, dst: V, func: usize, args: usize, argc: usize) {
        self.cached = None;
        if self.metered() {
            self.burn();
        }
        self.check_depth();
        let saved = self.saved();
        for &(h, m) in &saved {
            self.asm.mov_mr(m, h);
        }
        let (grow, resume) = (self.asm.label(), self.asm.label());
        let frame = 8 * self.plan().frame as i32;
        let callee = 8 * self.plans[func].frame as i32;
        let a = &mut self.asm;
        a.lea(RAX, M::Disp(FP, frame + callee));
        a.alu_rm(Alu::Cmp, RAX, M::Disp(CTX, CTX_STACK_END));
        a.jcc(Cc::A, grow);
        a.bind(resume);
        for (i, &r) in self.decoded.args[args..args + argc].iter().enumerate() {
            let value = self.reg(self.v(r), RAX);
            self.asm.mov_mr(M::Disp(FP, frame + 8 * i as i32), value);
        }
        self.cached = None;
        let depth = M::Disp(CTX, CTX_DEPTH);
        let a = &mut self.asm;
        a.alu_ri(Alu::Add, FP, frame);
        a.inc_m(depth);
        a.call(self.funcs[func]);
        a.dec_m(depth);
        a.alu_ri(Alu::Sub, FP, frame);
        let result = self.pin(dst);
        for &(h, m) in saved.iter().filter(|&&(h, _)| result != Some(h)) {
            self.asm.mov_rm(h, m);
        }
        self.grows.push(Grow {
            stub: grow,
            resume,
            saved,
        });
        self.set(dst, RAX);
    }

    /// A call to leaf `func`, emitted inline: the call's burn and depth
    /// check, then the leaf's ops on registers above the caller's.
    fn inline(&mut self, dst: V, func: usize, args: usize, argc: usize) {
        if self.metered() {
            self.burn();
        }
        self.check_depth();
        let leaf = self.leaves[func].take().expect("inlined a leaf");
        let argv = &self.decoded.args[args..args + argc];
        let base = self.plan().regs;
        let caller = argv.iter().map(|&r| self.v(r)).collect::<Vec<_>>();
        let regs = self.decoded.funcs[func].regs;
        let map = leaf.map(regs, caller.iter().copied(), base);
        for ((&m, &arg), _) in map.iter().zip(&caller).zip(&leaf.written).filter(|p| *p.1) {
            self.copy(m, arg);
        }
        if !leaf.zero.is_empty() {
            self.asm.mov_ri(RAX, 0);
            self.cached = None;
        }
        for &r in &leaf.zero {
            let m = map[usize::from(r)];
            match self.pin(m) {
                Some(h) => self.asm.mov_rr(h, RAX),
                None => self.asm.mov_mr(slot(m), RAX),
            }
        }
        let after = self.asm.label();
        let span = span(self.decoded, func);
        self.joined = false;
        self.body(span, map, Some((dst, after)), Some(&leaf.reached));
        self.leaves[func] = Some(leaf);
        self.asm.bind(after);
        if self.joined {
            self.cached = None;
        }
        self.inlined += 1;
    }
}

/// Grows the register stack to at least `words` words (doubling, so a
/// deepening recursion grows it a logarithmic number of times).
///
/// Called only by the generated code, which holds `rbx` as an offset
/// across the call. `extern "C"`: a panic here (allocation failure)
/// aborts instead of unwinding through generated frames.
extern "C" fn grow(ctx: *mut Ctx, words: usize) {
    // SAFETY: the generated code passes the `Ctx` that `run` built and
    // keeps alive for the whole call; `run` holds the only reference.
    let ctx = unsafe { &mut *ctx };
    // SAFETY: `ctx.stack` is the engine's register stack, borrowed
    // mutably by `run` for the whole call and touched by nothing else
    // while generated code runs.
    let stack = unsafe { &mut *ctx.stack };
    let len = words.max(stack.len() * 2);
    stack.resize(len, 0);
    ctx.stack_base = stack.as_mut_ptr();
    ctx.stack_end = ctx.stack_base.wrapping_add(len);
}

/// The entry stub's signature.
type Enter = unsafe extern "C" fn(*mut Ctx, *mut i64, *const u8) -> u64;

/// Runs function `func` of the engine's machine code.
pub(crate) fn run(
    engine: &mut CompiledEngine,
    func: usize,
    args: &[i64],
) -> Result<i64, GraftError> {
    let CompiledEngine {
        module,
        program,
        memory,
        globals,
        fuel,
        sfi_tally,
        stack,
        bases,
        ..
    } = engine;
    let Some(code) = &program.code else {
        return Err(GraftError::Verify("module has no machine code".into()));
    };
    let frame = code.frames[func] as usize;
    if stack.len() < frame {
        stack.resize(frame, 0);
    }
    stack[..args.len()].copy_from_slice(args);
    let mem = match memory {
        Memory::Plain(plain) => {
            bases.clear();
            let bufs = plain.regions.iter_mut().chain(&mut plain.pools);
            bases.extend(bufs.map(|buf| buf.as_mut_ptr() as usize));
            bases.as_ptr() as usize
        }
        Memory::Arena(arena) => arena.words.as_mut_ptr() as usize,
    };
    let stack_base = stack.as_mut_ptr();
    let mut ctx = Ctx {
        mem,
        globals: globals.as_mut_ptr(),
        fuel: *fuel,
        tally: [0; 4],
        stack_base,
        stack_end: stack_base.wrapping_add(stack.len()),
        stack,
        grow,
        entry_rsp: 0,
        payload: 0,
        ret: 0,
        depth: 0,
    };
    let base = code.pages.addr();
    // SAFETY: offset 0 of the installed code is the entry stub, emitted
    // with this signature; the pages stay mapped while `program` (which
    // owns them) is borrowed here.
    let enter: Enter = unsafe { std::mem::transmute::<*const u8, Enter>(base) };
    // SAFETY: `func` is a verified function id, so `funcs[func]` is the
    // offset of its prologue in the same code. `ctx` describes this
    // engine's memory, globals and register stack, all borrowed mutably
    // for the call, and the stack holds the entry frame (sized above).
    // The module doc lists what the generated code relies on beyond.
    let status = unsafe {
        let target = base.add(code.funcs[func] as usize);
        enter(&mut ctx, stack_base, target)
    };
    *fuel = ctx.fuel;
    let [masks, masked_loads, masked_stores, arena_loads] = ctx.tally;
    *sfi_tally = SfiTally {
        masks,
        masked_loads,
        masked_stores,
        arena_loads,
    };
    let module: &Module = module;
    let aux = status >> 8;
    Err(match status & 0xFF {
        DONE => return Ok(ctx.ret),
        DIV_BY_ZERO => Trap::DivByZero.into(),
        FUEL_OUT => Trap::FuelExhausted.into(),
        OVERFLOW => Trap::StackOverflow.into(),
        ABORT => Trap::Abort(ctx.payload).into(),
        OUT_OF_BOUNDS => interp::oob(module, mem_ref(aux), ctx.payload),
        NIL_DEREF => interp::nil(module, mem_ref(aux)),
        MISPLACED => GraftError::Verify(MISPLACED_OPS[aux as usize].into()),
        _ => GraftError::Verify(format!("machine code returned status {status:#x}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_offsets_match_the_layout() {
        let ctx = std::mem::MaybeUninit::<Ctx>::uninit();
        let base = ctx.as_ptr() as usize;
        let at = |p: usize| (p - base) as i32;
        let p = ctx.as_ptr();
        // SAFETY: `addr_of!` takes field addresses without reading the
        // uninitialized value.
        unsafe {
            assert_eq!(at(std::ptr::addr_of!((*p).mem) as usize), CTX_MEM);
            assert_eq!(at(std::ptr::addr_of!((*p).globals) as usize), CTX_GLOBALS);
            assert_eq!(at(std::ptr::addr_of!((*p).fuel) as usize), CTX_FUEL);
            assert_eq!(at(std::ptr::addr_of!((*p).tally) as usize), CTX_TALLY);
            assert_eq!(
                at(std::ptr::addr_of!((*p).stack_base) as usize),
                CTX_STACK_BASE
            );
            assert_eq!(
                at(std::ptr::addr_of!((*p).stack_end) as usize),
                CTX_STACK_END
            );
            assert_eq!(at(std::ptr::addr_of!((*p).grow) as usize), CTX_GROW);
            assert_eq!(
                at(std::ptr::addr_of!((*p).entry_rsp) as usize),
                CTX_ENTRY_RSP
            );
            assert_eq!(at(std::ptr::addr_of!((*p).payload) as usize), CTX_PAYLOAD);
            assert_eq!(at(std::ptr::addr_of!((*p).ret) as usize), CTX_RET);
            assert_eq!(at(std::ptr::addr_of!((*p).depth) as usize), CTX_DEPTH);
        }
    }

    /// Recursion deep enough to outgrow the register stack many times,
    /// through loops whose registers must survive the calls they make,
    /// computes what the decoded loop computes, up to and past the depth
    /// limit.
    #[test]
    fn deep_calls_keep_frames() {
        use graft_api::ExtensionEngine;
        let src = r#"
            fn leaf(x: int, y: int) -> int {
                let a = x * 3; let b = y ^ a; let c = a + b;
                return ((c - x) * y) & 65535;
            }
            fn down(n: int, acc: int) -> int {
                if n == 0 { return acc; }
                let s = 0;
                let i = 0;
                while i < 4 { s = s + leaf(i, n) + acc; i = i + 1; }
                return down(n - 1, (s + acc) & 1048575);
            }
        "#;
        let modes = [
            SafetyMode::Unchecked,
            SafetyMode::Safe { nil_checks: true },
            SafetyMode::Sfi { read_protect: true },
        ];
        for mode in modes {
            let load = |tier| crate::load_grail_on(src, &[], mode, tier).unwrap();
            let (mut jit, mut looped) = (load(crate::Tier::Jit), load(crate::Tier::Loop));
            for n in [0, 1, 50, 190, 191, 192, 500] {
                let want = looped.invoke("down", &[n, 7]);
                assert_eq!(jit.invoke("down", &[n, 7]), want, "{mode:?} down({n})");
                let overflowed = matches!(
                    want.as_ref().map_err(|e| e.as_trap()),
                    Err(Some(Trap::StackOverflow))
                );
                assert_eq!(
                    overflowed,
                    n > MAX_DEPTH as i64 - 1,
                    "{mode:?} down({n}): {want:?}"
                );
            }
        }
    }

    /// A caller's loop keeps several values live across a call to a
    /// loop-free callee whose frame zeroes many registers read across
    /// blocks: the callee's prologue must touch nothing but its frame.
    #[test]
    fn a_wide_callee_leaves_its_callers_loop_intact() {
        use graft_api::ExtensionEngine;
        let locals = (0..20)
            .map(|i| format!("let v{i} = 0; if x > {i} {{ v{i} = x + {i}; }}"))
            .collect::<String>();
        let sum = (0..20)
            .map(|i| format!("v{i}"))
            .collect::<Vec<_>>()
            .join(" + ");
        let src = format!(
            r#"
            fn wide(x: int) -> int {{
                {locals}
                if x == 3 {{ return {sum} + 1; }}
                return {sum};
            }}
            fn hot(n: int) -> int {{
                let a = 1; let b = 2; let c = 3; let d = 5;
                let i = 0;
                while i < n {{
                    a = a + i; b = b ^ a; c = c + b; d = d + wide(i);
                    i = i + 1;
                }}
                return a * 7 + b * 11 + c * 13 + d;
            }}
        "#
        );
        let modes = [
            SafetyMode::Unchecked,
            SafetyMode::Safe { nil_checks: true },
            SafetyMode::Sfi { read_protect: true },
        ];
        for mode in modes {
            let load = |tier| crate::load_grail_on(&src, &[], mode, tier).unwrap();
            let (mut jit, mut looped) = (load(crate::Tier::Jit), load(crate::Tier::Loop));
            for n in [0, 1, 4, 30] {
                let want = looped.invoke("hot", &[n]);
                assert!(want.is_ok(), "{mode:?} hot({n}): {want:?}");
                assert_eq!(jit.invoke("hot", &[n]), want, "{mode:?} hot({n})");
            }
        }
    }

    const MODES: [SafetyMode; 3] = [
        SafetyMode::Unchecked,
        SafetyMode::Safe { nil_checks: true },
        SafetyMode::Sfi { read_protect: true },
    ];

    /// Calls `leaf` from the bottom of a recursion of depth `n`, from a
    /// loop, and with arguments that make it trap: div by zero (`k ==
    /// 1`), an out-of-range index (`k == 2`), the NIL word (`k == 3`).
    const LEAF: &str = r#"
        fn leaf(x: int, k: int) -> int {
            if k == 2 { return buf[x * 1000]; }
            if k == 3 { return lst[0]; }
            return (x << 3) / (k - 1);
        }
        fn down(n: int, k: int) -> int {
            if n == 0 { return leaf(n + 5, k); }
            return down(n - 1, k) + 1;
        }
        fn spin(n: int, k: int) -> int {
            let s = 0;
            let i = 0;
            while i < n { s = s + leaf(i, k); i = i + 1; }
            return s;
        }
    "#;

    /// The machine code and the decoded loop, `LEAF` loaded on each.
    fn leaf_tiers(mode: SafetyMode) -> [CompiledEngine; 2] {
        let regions = [
            graft_api::RegionSpec::data("buf", 8),
            graft_api::RegionSpec::linked("lst", 8),
        ];
        let load = |tier| crate::load_grail_on(LEAF, &regions, mode, tier).unwrap();
        let jit = load(crate::Tier::Jit);
        assert!(jit.inlined_calls() >= 2, "{mode:?}: leaf not inlined");
        [jit, load(crate::Tier::Loop)]
    }

    /// Runs `entry` on both tiers and holds the machine code to the
    /// decoded loop: value or whole error, fuel used and SFI tally.
    fn agree(
        tiers: &mut [CompiledEngine; 2],
        fuel: Option<u64>,
        entry: &str,
        args: &[i64],
    ) -> Result<i64, GraftError> {
        use graft_api::ExtensionEngine;
        let [jit, looped] = tiers;
        let run = |e: &mut CompiledEngine| {
            e.set_fuel(fuel);
            let out = e.invoke(entry, args);
            (out, e.fuel_used(), e.sfi_tally())
        };
        let want = run(looped);
        let mode = jit.mode();
        assert_eq!(run(jit), want, "{mode:?} {entry}{args:?}, fuel {fuel:?}");
        want.0
    }

    /// An inlined call makes the call's depth check: the deepest call
    /// that fits runs, one deeper overflows, with the decoded loop's
    /// fuel and tally.
    #[test]
    fn inlined_calls_keep_the_depth_limit() {
        for mode in MODES {
            let mut tiers = leaf_tiers(mode);
            let deepest = MAX_DEPTH as i64 - 2;
            for n in [deepest - 1, deepest, deepest + 1, deepest + 2] {
                let out = agree(&mut tiers, Some(1 << 20), "down", &[n, 0]);
                let overflowed = matches!(
                    out.as_ref().map_err(|e| e.as_trap()),
                    Err(Some(Trap::StackOverflow))
                );
                assert_eq!(overflowed, n > deepest, "{mode:?} down({n}): {out:?}");
            }
        }
    }

    /// An inlined call burns the call's fuel: every budget, including
    /// the one that runs out exactly at the inlined site, stops where
    /// the decoded loop stops.
    #[test]
    fn inlined_calls_burn_the_calls_fuel() {
        for mode in MODES {
            let mut tiers = leaf_tiers(mode);
            let mut stopped = 0;
            for budget in 0..24 {
                let out = agree(&mut tiers, Some(budget), "spin", &[5, 0]);
                stopped += out.is_err() as u32;
            }
            let metered = mode != SafetyMode::Unchecked;
            assert_eq!(stopped > 0, metered, "{mode:?}: {stopped} budgets ran out");
            agree(&mut tiers, None, "spin", &[5, 0]).unwrap();
        }
    }

    /// Traps inside an inlined leaf are the decoded loop's: div by zero,
    /// an out-of-range index and the NIL word, with the same payloads,
    /// fuel and tally, from a loop and from the bottom of a recursion.
    #[test]
    fn inlined_leaves_trap_as_calls_do() {
        for mode in MODES {
            let mut tiers = leaf_tiers(mode);
            for k in 0..4 {
                agree(&mut tiers, Some(1 << 20), "spin", &[3, k]).ok();
                agree(&mut tiers, Some(1 << 20), "down", &[4, k]).ok();
            }
            let mut trap = |k| {
                agree(&mut tiers, Some(1 << 20), "spin", &[3, k]).map_err(|e| e.as_trap().cloned())
            };
            assert_eq!(trap(1), Err(Some(Trap::DivByZero)), "{mode:?}");
            if matches!(mode, SafetyMode::Safe { .. }) {
                assert!(
                    matches!(trap(2), Err(Some(Trap::OutOfBounds { .. }))),
                    "{mode:?}"
                );
                assert!(
                    matches!(trap(3), Err(Some(Trap::NilDeref { .. }))),
                    "{mode:?}"
                );
            } else {
                assert!(trap(2).is_ok() && trap(3).is_ok(), "{mode:?}");
            }
        }
    }

    #[test]
    fn mem_codes_round_trip() {
        for mem in [
            MemRef::Region(0),
            MemRef::Region(7),
            MemRef::Pool(0),
            MemRef::Pool(3),
        ] {
            let status = OUT_OF_BOUNDS | u64::from(mem_code(mem)) << 8;
            assert_eq!(mem_ref(status >> 8), mem);
        }
    }
}
