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
//! these host registers, fixed for the whole run:
//!
//! | register | holds |
//! |---|---|
//! | `rbx` | the running frame's first graft register |
//! | `r12` | the [`Ctx`] |
//! | `r13` | region and pool bases (Unchecked, Safe) or the arena (Sfi) |
//! | `r14` | the globals |
//! | `r15` | remaining fuel |
//! | `r8`–`r11` | the SFI tally, Sfi only |
//!
//! Graft registers live in the register stack shared with the decoded
//! loop, `[rbx + 8 * r]`. A template loads its operands into `rax`,
//! `rcx` and `rdx` and writes its result back; the emitter remembers
//! which graft register `rax` still holds, so an op reading the
//! previous op's result skips the reload. That memory is forgotten at
//! every jump target.
//!
//! A graft call is a native `call`: it checks the depth (a word in the
//! [`Ctx`]), checks that the register stack holds the callee's frame,
//! copies the arguments and moves `rbx` up by the caller's frame. A
//! register stack that is too short grows through [`grow`], a
//! non-unwinding `extern "C"` helper, and `rbx` is rebased onto the new
//! allocation. The stack is sized lazily: an engine that never runs
//! holds none.
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
//! * a frame's registers are inside the register stack: the entry
//!   frame is sized by [`run`], and every call checks the callee's
//!   frame end against the stack end (growing it) before writing it;
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

use crate::decode::{Decoded, Op, Targets};
use crate::interp::{self, MAX_DEPTH};
use crate::memory::Memory;
use crate::{CompiledEngine, SafetyMode, SfiTally};
use x64::{Alu, Asm, Cc, Label, M, R};
use x64::{R10, R11, R12, R13, R14, R15, R8, R9, RAX, RBX, RCX, RDI, RDX, RSI, RSP};

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

/// A graft register's slot in the running frame.
fn slot(r: Reg) -> M {
    M::Disp(FP, 8 * i32::from(r))
}

/// A module's machine code, shared by every fork of the engine.
pub(crate) struct Code {
    pages: std::sync::Arc<pages::Pages>,
    /// Offset of each function's prologue. The entry stub is at 0.
    funcs: Box<[u32]>,
    len: usize,
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
    let (bytes, funcs) = emit(module, decoded, mode, memory)?;
    Ok(Code {
        pages: pages::Pages::share(&bytes)?,
        funcs,
        len: bytes.len(),
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

struct Emitter<'a> {
    asm: Asm,
    decoded: &'a Decoded,
    guard: Guard,
    /// Region shapes, then pool shapes (Unchecked, Safe).
    shapes: Vec<Shape>,
    regions: usize,
    ops: Vec<Label>,
    funcs: Vec<Label>,
    exit: Label,
    stubs: Vec<(Stub, Label)>,
    /// Per call site: the stack-growing stub, and where it resumes.
    grows: Vec<(Label, Label)>,
    /// The graft register `rax` holds, if any.
    cached: Option<Reg>,
    /// The frame size of the function being emitted.
    regs: u32,
}

fn emit(
    module: &Module,
    decoded: &Decoded,
    mode: SafetyMode,
    memory: &Memory,
) -> Result<(Vec<u8>, Box<[u32]>), GraftError> {
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
    let mut asm = Asm::default();
    let ops = (0..decoded.ops.len()).map(|_| asm.label()).collect();
    let funcs = (0..decoded.funcs.len()).map(|_| asm.label()).collect();
    let exit = asm.label();
    let mut e = Emitter {
        asm,
        decoded,
        guard,
        shapes,
        regions,
        ops,
        funcs,
        exit,
        stubs: Vec::new(),
        grows: Vec::new(),
        cached: None,
        regs: 0,
    };
    e.entry();
    let mut target = vec![false; decoded.ops.len()];
    for op in decoded.ops.iter() {
        let mut op = *op;
        if let Op::Jmp { to } = op {
            target[to.at()] = true;
        } else if let Some(to) = op.targets_mut() {
            target[to.then_t.at()] = true;
            target[to.else_t.at()] = true;
        }
    }
    for (f, entry) in decoded.funcs.iter().enumerate() {
        let end = decoded
            .funcs
            .get(f + 1)
            .map_or(decoded.ops.len(), |next| next.at as usize);
        e.regs = entry.regs;
        e.asm.bind(e.funcs[f]);
        e.prologue(module.funcs[f].arity as u32, entry.regs);
        let ops = decoded.ops.iter().zip(&target).enumerate();
        for (at, (&op, &target)) in ops.take(end).skip(entry.at as usize) {
            if target {
                e.cached = None;
            }
            e.asm.bind(e.ops[at]);
            e.op(op, at + 1);
        }
    }
    e.cold();
    let funcs = e
        .funcs
        .iter()
        .map(|&l| e.asm.offset(l))
        .collect::<Option<Box<[u32]>>>();
    match (funcs, e.asm.finish()) {
        (Some(funcs), Some(bytes)) => Ok((bytes, funcs)),
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

    /// The entry stub, at offset 0: `extern "C" fn(ctx, fp, func) ->
    /// status`. Saves the host's callee-saved registers, pins the
    /// engine's, calls `func`, and is also where every trap exits.
    fn entry(&mut self) {
        let sfi = self.sfi();
        let a = &mut self.asm;
        // Five pushes on a call-aligned stack leave it aligned to 16.
        for r in [RBX, R12, R13, R14, R15] {
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
        for r in [R15, R14, R13, R12, RBX] {
            a.pop(r);
        }
        a.ret();
    }

    /// Zeroes the registers above the arguments, as the decoded loop's
    /// frame entry does.
    fn prologue(&mut self, arity: u32, regs: u32) {
        self.cached = None;
        if arity < regs {
            self.asm.mov_ri(RAX, 0);
        }
        for r in arity..regs {
            self.asm.mov_mr(slot(r as Reg), RAX);
        }
    }

    /// Emits the trap stubs and stack-growing paths jumped to above.
    fn cold(&mut self) {
        let exit = self.exit;
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
        for (grow, resume) in std::mem::take(&mut self.grows) {
            let a = &mut self.asm;
            a.bind(grow);
            // `rax` is the callee frame's end. Pass the words it needs,
            // hold `rbx` as an offset across the move, and keep the SFI
            // tally the helper may clobber.
            a.alu_rm(Alu::Sub, RAX, M::Disp(CTX, CTX_STACK_BASE));
            a.shr_i(RAX, 3);
            a.alu_rm(Alu::Sub, FP, M::Disp(CTX, CTX_STACK_BASE));
            TALLY.into_iter().for_each(|r| a.push(r));
            a.mov_rr(RDI, CTX);
            a.mov_rr(RSI, RAX);
            a.mov_rr(RAX, RSP);
            a.alu_ri(Alu::And, RSP, -16);
            a.alu_ri(Alu::Sub, RSP, 16);
            a.mov_mr(M::Disp(RSP, 0), RAX);
            a.call_m(M::Disp(CTX, CTX_GROW));
            a.mov_rm(RSP, M::Disp(RSP, 0));
            TALLY.into_iter().rev().for_each(|r| a.pop(r));
            a.alu_rm(Alu::Add, FP, M::Disp(CTX, CTX_STACK_BASE));
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

    /// Loads graft register `r` into `into`.
    fn get(&mut self, r: Reg, into: R) {
        if self.cached == Some(r) {
            if into != RAX {
                self.asm.mov_rr(into, RAX);
            }
            return;
        }
        self.asm.mov_rm(into, slot(r));
        if into == RAX {
            self.cached = Some(r);
        }
    }

    /// Stores `rax` into graft register `dst`.
    fn put(&mut self, dst: Reg) {
        self.asm.mov_mr(slot(dst), RAX);
        self.cached = Some(dst);
    }

    /// `rax op= b`, `op` an ALU op or (`None`) `imul`.
    fn with(&mut self, op: Option<Alu>, b: Reg) {
        match op {
            Some(op) => self.asm.alu_rm(op, RAX, slot(b)),
            None => self.asm.imul_rm(RAX, slot(b)),
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

    fn goto(&mut self, to: crate::decode::Target, next: usize) {
        if self.metered() && to.burns() {
            self.burn();
        }
        if to.at() != next {
            self.asm.jmp(self.ops[to.at()]);
        }
    }

    /// Branches on the flags: to `then_t` when `cc` holds.
    fn branch(&mut self, cc: Cc, to: Targets, next: usize) {
        self.cached = None;
        let (then_t, else_t) = (to.then_t, to.else_t);
        let burns = |t: crate::decode::Target| self.metered() && t.burns();
        match (burns(then_t), burns(else_t)) {
            (false, false) if then_t.at() == next => {
                self.asm.jcc(cc.not(), self.ops[else_t.at()]);
            }
            (false, _) => {
                self.asm.jcc(cc, self.ops[then_t.at()]);
                self.goto(else_t, next);
            }
            (true, false) => {
                self.asm.jcc(cc.not(), self.ops[else_t.at()]);
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
    fn binary(&mut self, op: Option<Alu>, dst: Reg, a: Reg, b: Reg) {
        // Commutative: keep an operand `rax` already holds there.
        let swap = self.cached == Some(b) && op != Some(Alu::Sub);
        let (a, b) = if swap { (b, a) } else { (a, b) };
        self.get(a, RAX);
        match (op, a == b) {
            (Some(op), true) => self.asm.alu_rr(op, RAX, RAX),
            (None, true) => self.asm.imul_rr(RAX, RAX),
            (_, false) => self.with(op, b),
        }
        self.put(dst);
    }

    fn binary_imm(&mut self, op: Alu, dst: Reg, a: Reg, imm: i64) {
        self.get(a, RAX);
        self.alu_imm(op, RAX, imm);
        self.put(dst);
    }

    /// `dst = (a cc b) as i64`.
    fn compare(&mut self, cc: Cc, dst: Reg, a: Reg, b: Reg) {
        self.get(a, RCX);
        self.get(b, RDX);
        self.asm.mov_ri(RAX, 0);
        self.asm.alu_rr(Alu::Cmp, RCX, RDX);
        self.asm.setcc_al(cc);
        self.put(dst);
    }

    fn compare_imm(&mut self, cc: Cc, dst: Reg, a: Reg, imm: i64) {
        self.get(a, RCX);
        self.asm.mov_ri(RAX, 0);
        self.alu_imm(Alu::Cmp, RCX, imm);
        self.asm.setcc_al(cc);
        self.put(dst);
    }

    /// `a <=> b` then branch.
    fn compare_branch(&mut self, cc: Cc, a: Reg, b: Reg, to: Targets, next: usize) {
        self.get(a, RAX);
        if a == b {
            self.asm.alu_rr(Alu::Cmp, RAX, RAX);
        } else {
            self.with(Some(Alu::Cmp), b);
        }
        self.branch(cc, to, next);
    }

    fn compare_imm_branch(&mut self, cc: Cc, a: Reg, imm: i64, to: Targets, next: usize) {
        self.get(a, RAX);
        self.alu_imm(Alu::Cmp, RAX, imm);
        self.branch(cc, to, next);
    }

    fn shift(&mut self, left: bool, dst: Reg, a: Reg, b: Reg) {
        self.get(b, RCX);
        self.get(a, RAX);
        if left {
            self.asm.shl_cl(RAX);
        } else {
            self.asm.shr_cl(RAX);
        }
        self.put(dst);
    }

    fn shift_imm(&mut self, left: bool, dst: Reg, a: Reg, imm: i64) {
        self.get(a, RAX);
        let n = (imm & 63) as u8;
        if n != 0 {
            if left {
                self.asm.shl_i(RAX, n);
            } else {
                self.asm.shr_i(RAX, n);
            }
        }
        self.put(dst);
    }

    /// `dst = a / b` or `a % b`, wrapping as `ops::binary` does: a zero
    /// divisor traps, and `x / -1`, `x % -1` never reach `idiv`, which
    /// faults on `i64::MIN / -1`.
    fn divide(&mut self, rem: bool, dst: Reg, a: Reg, b: Reg) {
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
        self.put(dst);
    }

    /// Division by a non-zero constant: `±1` and powers of two without
    /// `idiv`.
    fn divide_imm(&mut self, rem: bool, dst: Reg, a: Reg, imm: i64) {
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
        self.put(dst);
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

    fn load(&mut self, dst: Reg, mem: MemRef, addr: Reg) {
        if self.sfi() {
            return self.misplaced(0);
        }
        self.get(addr, RAX);
        self.guard(mem);
        self.asm.mov_rm(RAX, M::Index(RDX, RAX));
        self.put(dst);
    }

    fn store(&mut self, region: u16, addr: Reg, src: Reg) {
        if self.sfi() {
            return self.misplaced(1);
        }
        self.get(src, RCX);
        self.get(addr, RAX);
        self.guard(MemRef::Region(region));
        self.asm.mov_mr(M::Index(RDX, RAX), RCX);
    }

    /// Bumps SFI tally word `which` and masks `src + offset` into the
    /// arena, leaving the address in `rax`; `None` outside SFI.
    fn sandbox(&mut self, which: usize, src: Reg, offset: u32) -> Option<()> {
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

    fn op(&mut self, op: Op, next: usize) {
        use Cc::*;
        match op {
            Op::Const { dst, value } => {
                self.asm.mov_ri(RAX, value);
                self.put(dst);
            }
            Op::Mov { dst, src } => {
                self.get(src, RAX);
                self.put(dst);
            }
            Op::Neg { dst, src } => {
                self.get(src, RAX);
                self.asm.neg(RAX);
                self.put(dst);
            }
            Op::BitNot { dst, src } => {
                self.get(src, RAX);
                self.asm.not(RAX);
                self.put(dst);
            }
            Op::Not { dst, src } => self.compare_imm(E, dst, src, 0),

            Op::Add { dst, a, b } => self.binary(Some(Alu::Add), dst, a, b),
            Op::Sub { dst, a, b } => self.binary(Some(Alu::Sub), dst, a, b),
            Op::Mul { dst, a, b } => self.binary(None, dst, a, b),
            Op::Div { dst, a, b } => self.divide(false, dst, a, b),
            Op::Rem { dst, a, b } => self.divide(true, dst, a, b),
            Op::And { dst, a, b } => self.binary(Some(Alu::And), dst, a, b),
            Op::Or { dst, a, b } => self.binary(Some(Alu::Or), dst, a, b),
            Op::Xor { dst, a, b } => self.binary(Some(Alu::Xor), dst, a, b),
            Op::Shl { dst, a, b } => self.shift(true, dst, a, b),
            Op::Shr { dst, a, b } => self.shift(false, dst, a, b),
            Op::Eq { dst, a, b } => self.compare(E, dst, a, b),
            Op::Ne { dst, a, b } => self.compare(Ne, dst, a, b),
            Op::Lt { dst, a, b } => self.compare(L, dst, a, b),
            Op::Le { dst, a, b } => self.compare(Le, dst, a, b),
            Op::Gt { dst, a, b } => self.compare(G, dst, a, b),
            Op::Ge { dst, a, b } => self.compare(Ge, dst, a, b),

            Op::AddI { dst, a, imm } => self.binary_imm(Alu::Add, dst, a, imm),
            Op::MulI { dst, a, imm } => {
                self.get(a, RAX);
                if x64::fits_i32(imm) {
                    self.asm.imul_rri(RAX, RAX, imm as i32);
                } else {
                    self.asm.mov_ri(RDX, imm);
                    self.asm.imul_rr(RAX, RDX);
                }
                self.put(dst);
            }
            Op::DivI { dst, a, imm } => self.divide_imm(false, dst, a, imm),
            Op::RemI { dst, a, imm } => self.divide_imm(true, dst, a, imm),
            Op::AndI { dst, a, imm } => self.binary_imm(Alu::And, dst, a, imm),
            Op::OrI { dst, a, imm } => self.binary_imm(Alu::Or, dst, a, imm),
            Op::XorI { dst, a, imm } => self.binary_imm(Alu::Xor, dst, a, imm),
            Op::ShlI { dst, a, imm } => self.shift_imm(true, dst, a, imm),
            Op::ShrI { dst, a, imm } => self.shift_imm(false, dst, a, imm),
            Op::EqI { dst, a, imm } => self.compare_imm(E, dst, a, imm),
            Op::NeI { dst, a, imm } => self.compare_imm(Ne, dst, a, imm),
            Op::LtI { dst, a, imm } => self.compare_imm(L, dst, a, imm),
            Op::LeI { dst, a, imm } => self.compare_imm(Le, dst, a, imm),
            Op::GtI { dst, a, imm } => self.compare_imm(G, dst, a, imm),
            Op::GeI { dst, a, imm } => self.compare_imm(Ge, dst, a, imm),

            Op::Jmp { to } => {
                self.cached = None;
                self.goto(to, next);
            }
            Op::Br { cond, to } => {
                self.get(cond, RAX);
                self.asm.test_rr(RAX, RAX);
                self.branch(Ne, to, next);
            }
            Op::BrEq { a, b, to } => self.compare_branch(E, a, b, to, next),
            Op::BrNe { a, b, to } => self.compare_branch(Ne, a, b, to, next),
            Op::BrLt { a, b, to } => self.compare_branch(L, a, b, to, next),
            Op::BrLe { a, b, to } => self.compare_branch(Le, a, b, to, next),
            Op::BrGt { a, b, to } => self.compare_branch(G, a, b, to, next),
            Op::BrGe { a, b, to } => self.compare_branch(Ge, a, b, to, next),
            Op::BrEqI { a, imm, to } => self.compare_imm_branch(E, a, imm, to, next),
            Op::BrNeI { a, imm, to } => self.compare_imm_branch(Ne, a, imm, to, next),
            Op::BrLtI { a, imm, to } => self.compare_imm_branch(L, a, imm, to, next),
            Op::BrLeI { a, imm, to } => self.compare_imm_branch(Le, a, imm, to, next),
            Op::BrGtI { a, imm, to } => self.compare_imm_branch(G, a, imm, to, next),
            Op::BrGeI { a, imm, to } => self.compare_imm_branch(Ge, a, imm, to, next),

            Op::Load { dst, region, addr } => self.load(dst, MemRef::Region(region), addr),
            Op::LoadPool { dst, pool, addr } => self.load(dst, MemRef::Pool(pool), addr),
            Op::Store { region, addr, src } => self.store(region, addr, src),
            Op::GlobalGet { dst, index } => {
                self.asm.mov_rm(RAX, M::Disp(GLOB, 8 * i32::from(index)));
                self.put(dst);
            }
            Op::GlobalSet { index, src } => {
                self.get(src, RAX);
                self.asm.mov_mr(M::Disp(GLOB, 8 * i32::from(index)), RAX);
            }
            Op::Call {
                dst,
                argc,
                func,
                args,
            } => self.call(dst, func as usize, args as usize, usize::from(argc)),
            Op::Ret { src } => {
                match src {
                    Some(r) => self.get(r, RAX),
                    None => self.asm.mov_ri(RAX, 0),
                }
                self.asm.ret();
                self.cached = None;
            }
            Op::Abort { code } => {
                self.get(code, RAX);
                self.asm.mov_mr(M::Disp(CTX, CTX_PAYLOAD), RAX);
                self.asm.mov_ri(RAX, ABORT as i64);
                self.asm.jmp(self.exit);
                self.cached = None;
            }

            Op::Mask { dst, src, offset } => {
                if self.sandbox(0, src, offset).is_some() {
                    self.put(dst);
                }
            }
            Op::MaskedLoad { dst, addr } => {
                if self.sandbox(1, addr, 0).is_some() {
                    self.asm.mov_rm(RAX, M::Index(MEMR, RAX));
                    self.put(dst);
                }
            }
            Op::MaskedStore { addr, src } => {
                self.get(src, RCX);
                if self.sandbox(2, addr, 0).is_some() {
                    self.asm.mov_mr(M::Index(MEMR, RAX), RCX);
                }
            }
            Op::ArenaLoad { dst, src, offset } => {
                if self.sandbox(3, src, offset).is_some() {
                    self.asm.mov_rm(RAX, M::Index(MEMR, RAX));
                    self.put(dst);
                }
            }
        }
    }

    /// A graft call: burn, check depth, make room for the callee's
    /// frame, copy the arguments, and move the frame pointer across.
    fn call(&mut self, dst: Reg, func: usize, args: usize, argc: usize) {
        self.cached = None;
        if self.metered() {
            self.burn();
        }
        let overflow = self.stub(Stub::Overflow);
        let (grow, resume) = (self.asm.label(), self.asm.label());
        self.grows.push((grow, resume));
        let frame = 8 * self.regs as i32;
        let callee = self.decoded.funcs[func];
        let depth = M::Disp(CTX, CTX_DEPTH);
        let a = &mut self.asm;
        a.mov_rm(RAX, depth);
        a.alu_ri(Alu::Cmp, RAX, MAX_DEPTH as i32 - 1);
        a.jcc(Cc::Ae, overflow);
        a.lea(RAX, M::Disp(FP, frame + 8 * callee.regs as i32));
        a.alu_rm(Alu::Cmp, RAX, M::Disp(CTX, CTX_STACK_END));
        a.jcc(Cc::A, grow);
        a.bind(resume);
        for (i, &r) in self.decoded.args[args..args + argc].iter().enumerate() {
            a.mov_rm(RAX, slot(r));
            a.mov_mr(M::Disp(FP, frame + 8 * i as i32), RAX);
        }
        a.alu_ri(Alu::Add, FP, frame);
        a.inc_m(depth);
        a.call(self.funcs[func]);
        a.dec_m(depth);
        a.alu_ri(Alu::Sub, FP, frame);
        self.put(dst);
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
    let regs = program.decoded.funcs[func].regs as usize;
    if stack.len() < regs {
        stack.resize(regs, 0);
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
