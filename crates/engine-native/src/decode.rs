//! Load-time decoding of verified IR into the dispatch loop's op stream.
//!
//! [`decode`] runs once per load, after the IR verifier (and, under SFI,
//! after instrumentation and the SFI verifier). It turns each function's
//! [`Inst`] list into a flat run of [`Op`]s, one per *group* of IR
//! instructions:
//!
//! * every operator gets its own op (`Add`, `Shl`, `Lt`, …), so the loop
//!   never re-matches a [`BinOp`];
//! * `Const t; Bin d, a, t` fuses into a register–immediate op
//!   (`AddI d, a, imm`) when `t` dies there;
//! * `X → t; Mov r, t` coalesces into `X → r` when `t` dies at the `Mov`
//!   (the lowering emits one such copy per assignment statement);
//! * `Bin cmp d, a, b; Br d` fuses into a compare-and-branch op when `d`
//!   dies at the branch;
//! * every branch target carries its fuel flag, computed from the IR's
//!   own `target <= pc`, so fusing never moves a fuel burn.
//!
//! A group only ever starts at a jump target, never swallows one, so
//! control flow is unchanged. Memory accesses, masks and traps decode
//! one to one.
//!
//! The "dies there" questions are answered by [`last_uses`], a liveness
//! pass linear in code size: it tracks only registers whose every read
//! follows a write in the same basic block (expression temporaries, in
//! lowered code). Those are dead at every block boundary, so one
//! backward scan per block decides them; any other register counts as
//! live everywhere, and is never fused away.

use graft_api::GraftError;
use graft_ir::module::{BinOp, UnOp};
use graft_ir::{Inst, IrFunc, MemRef, Module, Reg};

/// A branch destination: an index into [`Decoded::ops`], plus whether
/// taking the branch burns fuel (the IR branch pointed backwards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Target(u32);

impl Target {
    const BURN: u32 = 1 << 31;

    fn new(at: u32, burns: bool) -> Self {
        debug_assert!(at < Self::BURN);
        Target(at | if burns { Self::BURN } else { 0 })
    }

    /// The op index to continue at.
    #[inline]
    pub(crate) fn at(self) -> usize {
        (self.0 & !Self::BURN) as usize
    }

    /// Whether taking this branch burns fuel.
    #[inline]
    pub(crate) fn burns(self) -> bool {
        self.0 & Self::BURN != 0
    }
}

/// Where a conditional branch goes when its condition holds, and
/// where when it does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Targets {
    pub(crate) then_t: Target,
    pub(crate) else_t: Target,
}

/// One decoded operation. Register operands index the current frame;
/// `I` variants take their right operand as an immediate; `Br*` variants
/// compare and branch in one step.
#[derive(Debug, Clone, Copy, PartialEq)]
#[rustfmt::skip]
pub(crate) enum Op {
    Const { dst: Reg, value: i64 },
    Mov { dst: Reg, src: Reg },
    Neg { dst: Reg, src: Reg },
    BitNot { dst: Reg, src: Reg },
    Not { dst: Reg, src: Reg },

    Add { dst: Reg, a: Reg, b: Reg },
    Sub { dst: Reg, a: Reg, b: Reg },
    Mul { dst: Reg, a: Reg, b: Reg },
    Div { dst: Reg, a: Reg, b: Reg },
    Rem { dst: Reg, a: Reg, b: Reg },
    And { dst: Reg, a: Reg, b: Reg },
    Or { dst: Reg, a: Reg, b: Reg },
    Xor { dst: Reg, a: Reg, b: Reg },
    Shl { dst: Reg, a: Reg, b: Reg },
    Shr { dst: Reg, a: Reg, b: Reg },
    Eq { dst: Reg, a: Reg, b: Reg },
    Ne { dst: Reg, a: Reg, b: Reg },
    Lt { dst: Reg, a: Reg, b: Reg },
    Le { dst: Reg, a: Reg, b: Reg },
    Gt { dst: Reg, a: Reg, b: Reg },
    Ge { dst: Reg, a: Reg, b: Reg },

    // `a - imm` decodes as `AddI` with the negated immediate; `DivI` and
    // `RemI` only ever hold a non-zero divisor.
    AddI { dst: Reg, a: Reg, imm: i64 },
    MulI { dst: Reg, a: Reg, imm: i64 },
    DivI { dst: Reg, a: Reg, imm: i64 },
    RemI { dst: Reg, a: Reg, imm: i64 },
    AndI { dst: Reg, a: Reg, imm: i64 },
    OrI { dst: Reg, a: Reg, imm: i64 },
    XorI { dst: Reg, a: Reg, imm: i64 },
    ShlI { dst: Reg, a: Reg, imm: i64 },
    ShrI { dst: Reg, a: Reg, imm: i64 },
    EqI { dst: Reg, a: Reg, imm: i64 },
    NeI { dst: Reg, a: Reg, imm: i64 },
    LtI { dst: Reg, a: Reg, imm: i64 },
    LeI { dst: Reg, a: Reg, imm: i64 },
    GtI { dst: Reg, a: Reg, imm: i64 },
    GeI { dst: Reg, a: Reg, imm: i64 },

    Jmp { to: Target },
    Br { cond: Reg, to: Targets },
    BrEq { a: Reg, b: Reg, to: Targets },
    BrNe { a: Reg, b: Reg, to: Targets },
    BrLt { a: Reg, b: Reg, to: Targets },
    BrLe { a: Reg, b: Reg, to: Targets },
    BrGt { a: Reg, b: Reg, to: Targets },
    BrGe { a: Reg, b: Reg, to: Targets },
    BrEqI { a: Reg, imm: i64, to: Targets },
    BrNeI { a: Reg, imm: i64, to: Targets },
    BrLtI { a: Reg, imm: i64, to: Targets },
    BrLeI { a: Reg, imm: i64, to: Targets },
    BrGtI { a: Reg, imm: i64, to: Targets },
    BrGeI { a: Reg, imm: i64, to: Targets },

    /// `dst = regions[region][addr]`
    Load { dst: Reg, region: u16, addr: Reg },
    /// `dst = pools[pool][addr]`
    LoadPool { dst: Reg, pool: u16, addr: Reg },
    /// `regions[region][addr] = src`
    Store { region: u16, addr: Reg, src: Reg },
    GlobalGet { dst: Reg, index: u16 },
    GlobalSet { index: u16, src: Reg },
    /// Calls function `func`; its arguments are `Decoded::args[args..args + argc]`.
    Call { dst: Reg, argc: u16, func: u32, args: u32 },
    /// Returns `src`, or 0 from a void function.
    Ret { src: Option<Reg> },
    Abort { code: Reg },

    Mask { dst: Reg, src: Reg, offset: u32 },
    MaskedLoad { dst: Reg, addr: Reg },
    MaskedStore { addr: Reg, src: Reg },
    ArenaLoad { dst: Reg, src: Reg, offset: u32 },
}

impl Op {
    /// The register this op writes, if any (a call's result included).
    pub(crate) fn dst_mut(&mut self) -> Option<&mut Reg> {
        match self {
            Op::Const { dst, .. }
            | Op::Mov { dst, .. }
            | Op::Neg { dst, .. }
            | Op::BitNot { dst, .. }
            | Op::Not { dst, .. }
            | Op::Add { dst, .. }
            | Op::Sub { dst, .. }
            | Op::Mul { dst, .. }
            | Op::Div { dst, .. }
            | Op::Rem { dst, .. }
            | Op::And { dst, .. }
            | Op::Or { dst, .. }
            | Op::Xor { dst, .. }
            | Op::Shl { dst, .. }
            | Op::Shr { dst, .. }
            | Op::Eq { dst, .. }
            | Op::Ne { dst, .. }
            | Op::Lt { dst, .. }
            | Op::Le { dst, .. }
            | Op::Gt { dst, .. }
            | Op::Ge { dst, .. }
            | Op::AddI { dst, .. }
            | Op::MulI { dst, .. }
            | Op::DivI { dst, .. }
            | Op::RemI { dst, .. }
            | Op::AndI { dst, .. }
            | Op::OrI { dst, .. }
            | Op::XorI { dst, .. }
            | Op::ShlI { dst, .. }
            | Op::ShrI { dst, .. }
            | Op::EqI { dst, .. }
            | Op::NeI { dst, .. }
            | Op::LtI { dst, .. }
            | Op::LeI { dst, .. }
            | Op::GtI { dst, .. }
            | Op::GeI { dst, .. }
            | Op::Load { dst, .. }
            | Op::LoadPool { dst, .. }
            | Op::GlobalGet { dst, .. }
            | Op::Call { dst, .. }
            | Op::Mask { dst, .. }
            | Op::MaskedLoad { dst, .. }
            | Op::ArenaLoad { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// The destinations of a conditional branch.
    pub(crate) fn targets_mut(&mut self) -> Option<&mut Targets> {
        match self {
            Op::Br { to, .. }
            | Op::BrEq { to, .. }
            | Op::BrNe { to, .. }
            | Op::BrLt { to, .. }
            | Op::BrLe { to, .. }
            | Op::BrGt { to, .. }
            | Op::BrGe { to, .. }
            | Op::BrEqI { to, .. }
            | Op::BrNeI { to, .. }
            | Op::BrLtI { to, .. }
            | Op::BrLeI { to, .. }
            | Op::BrGtI { to, .. }
            | Op::BrGeI { to, .. } => Some(to),
            _ => None,
        }
    }
}

/// Where a function starts in [`Decoded::ops`] and how many registers
/// its frame holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) at: u32,
    pub(crate) regs: u32,
}

/// A decoded module: every function's ops, concatenated.
#[derive(Debug)]
pub(crate) struct Decoded {
    pub(crate) ops: Box<[Op]>,
    /// Indexed by function id.
    pub(crate) funcs: Box<[Entry]>,
    /// Argument registers of every `Call`, concatenated.
    pub(crate) args: Box<[Reg]>,
}

/// Decodes a verified module. Errors only on IR the verifiers reject.
pub(crate) fn decode(module: &Module) -> Result<Decoded, GraftError> {
    // Decoding never adds ops, so every op index fits a `Target`.
    if module.code_len() >= Target::BURN as usize {
        return Err(GraftError::Verify("module too large to decode".into()));
    }
    let mut ops = Vec::with_capacity(module.code_len());
    let mut funcs = Vec::with_capacity(module.funcs.len());
    let mut args = Vec::new();
    for func in &module.funcs {
        let at = ops.len() as u32;
        let regs = u32::try_from(func.regs)
            .map_err(|_| GraftError::Verify(format!("{}: frame too large", func.name)))?;
        let (code, _) = decode_func(func, at, &mut args)?;
        ops.extend(code);
        funcs.push(Entry { at, regs });
    }
    Ok(Decoded {
        ops: ops.into_boxed_slice(),
        funcs: funcs.into_boxed_slice(),
        args: args.into_boxed_slice(),
    })
}

/// Decodes one function whose first op will sit at `base`. Returns its
/// ops and, per IR instruction, the index (from `base`) of the op that
/// covers it.
pub(crate) fn decode_func(
    func: &IrFunc,
    base: u32,
    args: &mut Vec<Reg>,
) -> Result<(Vec<Op>, Vec<u32>), GraftError> {
    let code = &func.code;
    let len = code.len();
    let leader = leaders(code);
    let dies = last_uses(code, func.regs, &leader);
    // A fused member other than the first must not be a jump target.
    let joinable = |at: usize| at < len && !leader[at];
    let mut ops = Vec::with_capacity(len);
    let mut covers = vec![0u32; len];
    let mut pc = 0;
    while pc < len {
        // 1. The value-producing op, with a constant right operand fused.
        let (mut op, mut last) = match (&code[pc], code.get(pc + 1)) {
            (&Inst::Const { dst: t, value }, Some(&Inst::Bin { op, dst, a, b }))
                if joinable(pc + 1) && (a == t) != (b == t) =>
            {
                // `t` dies at the `Bin` unless the `Bin` overwrites it.
                let t_dies = dst == t || dies[pc + 1] & if b == t { B } else { A } != 0;
                let fused = if !t_dies {
                    None
                } else if b == t {
                    imm_op(op, dst, a, value)
                } else {
                    swapped(op).and_then(|op| imm_op(op, dst, b, value))
                };
                match fused {
                    Some(op) => (op, pc + 1),
                    None => (single(&code[pc], pc, args)?, pc),
                }
            }
            (inst, _) => (single(inst, pc, args)?, pc),
        };
        let next = last + 1;
        match code.get(next) {
            // 2. Compare and branch on a condition that dies there.
            Some(&Inst::Br {
                cond,
                then_t,
                else_t,
            }) if joinable(next) && dies[next] & A != 0 => {
                let burns = |t: u32| Target::new(t, t as usize <= next);
                let to = Targets {
                    then_t: burns(then_t),
                    else_t: burns(else_t),
                };
                if let Some(br) = compare_branch(op, cond, to) {
                    op = br;
                    last = next;
                }
            }
            // 3. Coalesce a copy out of a temporary that dies there. The
            //    SFI `Mask` alone may write the sandbox register, so it
            //    keeps its destination.
            Some(&Inst::Mov { dst, src })
                if joinable(next) && dies[next] & A != 0 && !matches!(op, Op::Mask { .. }) =>
            {
                if let Some(d) = op.dst_mut().filter(|d| **d == src) {
                    *d = dst;
                    last = next;
                }
            }
            _ => {}
        }
        covers[pc..=last].fill(ops.len() as u32);
        ops.push(op);
        pc = last + 1;
    }
    // Retarget branches from IR indexes to op indexes.
    let retarget = |t: &mut Target| *t = Target::new(base + covers[t.at()], t.burns());
    for op in &mut ops {
        if let Op::Jmp { to } = op {
            retarget(to);
        } else if let Some(to) = op.targets_mut() {
            retarget(&mut to.then_t);
            retarget(&mut to.else_t);
        }
    }
    Ok((ops, covers))
}

/// Decodes the instruction at `pc` on its own. Branch targets stay IR
/// indexes until [`decode_func`] retargets them.
fn single(inst: &Inst, pc: usize, args: &mut Vec<Reg>) -> Result<Op, GraftError> {
    let burns = |t: u32| Target::new(t, t as usize <= pc);
    Ok(match *inst {
        Inst::Const { dst, value } => Op::Const { dst, value },
        Inst::Mov { dst, src } => Op::Mov { dst, src },
        Inst::Un { op, dst, src } => match op {
            UnOp::Neg => Op::Neg { dst, src },
            UnOp::BitNot => Op::BitNot { dst, src },
            UnOp::Not => Op::Not { dst, src },
        },
        Inst::Bin { op, dst, a, b } => reg_op(op, dst, a, b)?,
        Inst::Jmp { target } => Op::Jmp { to: burns(target) },
        Inst::Br {
            cond,
            then_t,
            else_t,
        } => Op::Br {
            cond,
            to: Targets {
                then_t: burns(then_t),
                else_t: burns(else_t),
            },
        },
        Inst::Load { dst, mem, addr } => match mem {
            MemRef::Region(region) => Op::Load { dst, region, addr },
            MemRef::Pool(pool) => Op::LoadPool { dst, pool, addr },
        },
        Inst::Store { mem, addr, src } => match mem {
            MemRef::Region(region) => Op::Store { region, addr, src },
            MemRef::Pool(_) => return Err(GraftError::Verify("store into pool".into())),
        },
        Inst::GlobalGet { dst, index } => Op::GlobalGet { dst, index },
        Inst::GlobalSet { index, src } => Op::GlobalSet { index, src },
        Inst::Call {
            dst,
            func,
            args: ref argv,
        } => {
            let at = u32::try_from(args.len())
                .map_err(|_| GraftError::Verify("too many call arguments".into()))?;
            let argc = u16::try_from(argv.len())
                .map_err(|_| GraftError::Verify("too many call arguments".into()))?;
            args.extend_from_slice(argv);
            Op::Call {
                dst,
                argc,
                func,
                args: at,
            }
        }
        Inst::Ret { src } => Op::Ret { src },
        Inst::Abort { code } => Op::Abort { code },
        Inst::Mask { dst, src, offset } => Op::Mask { dst, src, offset },
        Inst::MaskedLoad { dst, addr } => Op::MaskedLoad { dst, addr },
        Inst::MaskedStore { addr, src } => Op::MaskedStore { addr, src },
        Inst::ArenaLoad { dst, src, offset } => Op::ArenaLoad { dst, src, offset },
    })
}

/// `reg op reg`.
fn reg_op(op: BinOp, dst: Reg, a: Reg, b: Reg) -> Result<Op, GraftError> {
    Ok(match op {
        BinOp::Add => Op::Add { dst, a, b },
        BinOp::Sub => Op::Sub { dst, a, b },
        BinOp::Mul => Op::Mul { dst, a, b },
        BinOp::Div => Op::Div { dst, a, b },
        BinOp::Rem => Op::Rem { dst, a, b },
        BinOp::And => Op::And { dst, a, b },
        BinOp::Or => Op::Or { dst, a, b },
        BinOp::Xor => Op::Xor { dst, a, b },
        BinOp::Shl => Op::Shl { dst, a, b },
        BinOp::Shr => Op::Shr { dst, a, b },
        BinOp::Eq => Op::Eq { dst, a, b },
        BinOp::Ne => Op::Ne { dst, a, b },
        BinOp::Lt => Op::Lt { dst, a, b },
        BinOp::Le => Op::Le { dst, a, b },
        BinOp::Gt => Op::Gt { dst, a, b },
        BinOp::Ge => Op::Ge { dst, a, b },
        BinOp::LogicalAnd | BinOp::LogicalOr => {
            return Err(GraftError::Verify(
                "short-circuit operator materialized as Bin".into(),
            ))
        }
    })
}

/// `reg op imm`, where one exists: not for a zero divisor, which must
/// keep trapping, nor for the short-circuit operators.
fn imm_op(op: BinOp, dst: Reg, a: Reg, imm: i64) -> Option<Op> {
    Some(match op {
        BinOp::Add => Op::AddI { dst, a, imm },
        BinOp::Sub => Op::AddI {
            dst,
            a,
            imm: imm.wrapping_neg(),
        },
        BinOp::Mul => Op::MulI { dst, a, imm },
        BinOp::Div if imm != 0 => Op::DivI { dst, a, imm },
        BinOp::Rem if imm != 0 => Op::RemI { dst, a, imm },
        BinOp::And => Op::AndI { dst, a, imm },
        BinOp::Or => Op::OrI { dst, a, imm },
        BinOp::Xor => Op::XorI { dst, a, imm },
        BinOp::Shl => Op::ShlI { dst, a, imm },
        BinOp::Shr => Op::ShrI { dst, a, imm },
        BinOp::Eq => Op::EqI { dst, a, imm },
        BinOp::Ne => Op::NeI { dst, a, imm },
        BinOp::Lt => Op::LtI { dst, a, imm },
        BinOp::Le => Op::LeI { dst, a, imm },
        BinOp::Gt => Op::GtI { dst, a, imm },
        BinOp::Ge => Op::GeI { dst, a, imm },
        _ => return None,
    })
}

/// The operator computing `b op a` from `a op' b`, if there is one.
fn swapped(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne => op,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

/// Fuses a comparison writing `cond` with the branch on `cond`.
fn compare_branch(op: Op, cond: Reg, to: Targets) -> Option<Op> {
    Some(match op {
        Op::Eq { dst, a, b } if dst == cond => Op::BrEq { a, b, to },
        Op::Ne { dst, a, b } if dst == cond => Op::BrNe { a, b, to },
        Op::Lt { dst, a, b } if dst == cond => Op::BrLt { a, b, to },
        Op::Le { dst, a, b } if dst == cond => Op::BrLe { a, b, to },
        Op::Gt { dst, a, b } if dst == cond => Op::BrGt { a, b, to },
        Op::Ge { dst, a, b } if dst == cond => Op::BrGe { a, b, to },
        Op::EqI { dst, a, imm } if dst == cond => Op::BrEqI { a, imm, to },
        Op::NeI { dst, a, imm } if dst == cond => Op::BrNeI { a, imm, to },
        Op::LtI { dst, a, imm } if dst == cond => Op::BrLtI { a, imm, to },
        Op::LeI { dst, a, imm } if dst == cond => Op::BrLeI { a, imm, to },
        Op::GtI { dst, a, imm } if dst == cond => Op::BrGtI { a, imm, to },
        Op::GeI { dst, a, imm } if dst == cond => Op::BrGeI { a, imm, to },
        _ => return None,
    })
}

/// Marks every jump target.
fn leaders(code: &[Inst]) -> Vec<bool> {
    let mut leader = vec![false; code.len()];
    for inst in code {
        match *inst {
            Inst::Jmp { target } => leader[target as usize] = true,
            Inst::Br { then_t, else_t, .. } => {
                leader[then_t as usize] = true;
                leader[else_t as usize] = true;
            }
            _ => {}
        }
    }
    leader
}

fn ends_block(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Jmp { .. } | Inst::Br { .. } | Inst::Ret { .. } | Inst::Abort { .. }
    )
}

/// The register an instruction writes.
fn def(inst: &Inst) -> Option<Reg> {
    match *inst {
        Inst::Const { dst, .. }
        | Inst::Mov { dst, .. }
        | Inst::Un { dst, .. }
        | Inst::Bin { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::GlobalGet { dst, .. }
        | Inst::Call { dst, .. }
        | Inst::Mask { dst, .. }
        | Inst::MaskedLoad { dst, .. }
        | Inst::ArenaLoad { dst, .. } => Some(dst),
        _ => None,
    }
}

/// Calls `f` on every register an instruction reads.
fn uses(inst: &Inst, mut f: impl FnMut(Reg)) {
    match inst {
        Inst::Const { .. }
        | Inst::Jmp { .. }
        | Inst::GlobalGet { .. }
        | Inst::Ret { src: None } => {}
        Inst::Mov { src, .. }
        | Inst::Un { src, .. }
        | Inst::GlobalSet { src, .. }
        | Inst::Ret { src: Some(src) }
        | Inst::Mask { src, .. }
        | Inst::ArenaLoad { src, .. } => f(*src),
        Inst::Br { cond, .. } => f(*cond),
        Inst::Abort { code } => f(*code),
        Inst::Load { addr, .. } | Inst::MaskedLoad { addr, .. } => f(*addr),
        Inst::Bin { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Inst::Store { addr, src, .. } | Inst::MaskedStore { addr, src } => {
            f(*addr);
            f(*src);
        }
        Inst::Call { args, .. } => args.iter().copied().for_each(f),
    }
}

/// [`last_uses`] bit: the first source register (`Mov`'s `src`, `Bin`'s
/// `a`, `Br`'s `cond`) is dead after the instruction.
const A: u8 = 1;
/// [`last_uses`] bit: `Bin`'s `b` is dead after the instruction.
const B: u8 = 2;

/// Per instruction, which of its source registers are dead after it
/// ([`A`], [`B`]). Linear in code size.
///
/// Only *block-local* registers are ever reported dead: those whose
/// every read follows a write in the same basic block. No block reads
/// one before writing it, so one is dead at every block boundary, and a
/// backward scan of its block is its whole liveness.
fn last_uses(code: &[Inst], regs: usize, leader: &[bool]) -> Vec<u8> {
    let starts_block = |pc: usize| pc == 0 || leader[pc] || ends_block(&code[pc - 1]);
    let mut local = vec![true; regs];
    // Per register, the block of its latest write (blocks count from 1).
    let mut written = vec![0u32; regs];
    let mut block = 0u32;
    for (pc, inst) in code.iter().enumerate() {
        block += starts_block(pc) as u32;
        uses(inst, |r| {
            if written[r as usize] != block {
                local[r as usize] = false;
            }
        });
        if let Some(d) = def(inst) {
            written[d as usize] = block;
        }
    }
    // Backward: a register is live at a point iff stamped with the
    // current block number (blocks count from 1 again, from the end).
    let mut live = vec![0u32; regs];
    let mut block = 0u32;
    let mut dies = vec![0u8; code.len()];
    for (pc, inst) in code.iter().enumerate().rev() {
        block += (pc + 1 == code.len() || starts_block(pc + 1)) as u32;
        let dead = |r: Reg| local[r as usize] && live[r as usize] != block;
        dies[pc] = match *inst {
            Inst::Mov { src, .. } => dead(src) as u8 * A,
            Inst::Br { cond, .. } => dead(cond) as u8 * A,
            Inst::Bin { a, b, .. } => (dead(a) as u8 * A) | (dead(b) as u8 * B),
            _ => 0,
        };
        if let Some(d) = def(inst) {
            live[d as usize] = 0;
        }
        uses(inst, |r| live[r as usize] = block);
    }
    dies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfi;
    use graft_api::GraftSpec;

    /// The benchmark grafts, lowered, plus a program that exercises
    /// every branch shape the lowering emits.
    fn modules() -> Vec<Module> {
        let branches = GraftSpec::new(
            "branches",
            graft_api::GraftClass::BlackBox,
            graft_api::Motivation::Functionality,
        )
        .region(graft_api::RegionSpec::data("buf", 8))
        .with_grail(
            r#"
            fn f(n: int) -> int {
                let s = 0;
                let i = 0;
                while i < n {
                    i = i + 1;
                    if i == 3 { continue; }
                    if s > 100 && i != n { break; }
                    s = s + buf[i & 7];
                    buf[(s ^ i) & 7] = s;
                }
                while 0 < i { i = i - 2; }
                return s;
            }
            "#,
        );
        [
            grafts::md5::spec(),
            grafts::eviction::spec(),
            grafts::logdisk::spec(),
            grafts::acl::spec(),
            grafts::readahead::spec(),
            grafts::schedule::spec(),
            branches,
        ]
        .iter()
        .map(|spec| {
            let hir = graft_lang::compile(spec.grail.as_deref().unwrap(), &spec.regions).unwrap();
            graft_ir::lower(&hir)
        })
        .collect()
    }

    fn decoded(func: &IrFunc) -> (Vec<Op>, Vec<u32>) {
        decode_func(func, 0, &mut Vec::new()).unwrap()
    }

    #[test]
    fn ops_fit_in_24_bytes() {
        assert!(
            std::mem::size_of::<Op>() <= 24,
            "{}",
            std::mem::size_of::<Op>()
        );
    }

    #[test]
    fn md5_block_decodes_to_at_most_two_thirds_of_its_ir() {
        let md5 = &modules()[0];
        let block = &md5.funcs[md5.func_id("md5_block").unwrap()];
        let (ops, _) = decoded(block);
        assert!(
            ops.len() * 3 <= block.code.len() * 2,
            "{} ops from {} IR instructions",
            ops.len(),
            block.code.len()
        );
    }

    fn targets(mut op: Op) -> Vec<Target> {
        match op {
            Op::Jmp { to } => vec![to],
            _ => op
                .targets_mut()
                .map_or(Vec::new(), |to| vec![to.then_t, to.else_t]),
        }
    }

    /// Every IR branch, fused or not, decodes to a branch to the ops
    /// covering its targets, burning fuel exactly where the IR does.
    #[test]
    fn branches_keep_their_ir_targets_and_fuel_flags() {
        let mut fused = 0;
        for mut module in modules() {
            for sfi in [false, true] {
                if sfi {
                    sfi::instrument(&mut module, true);
                }
                for func in &module.funcs {
                    let (ops, covers) = decoded(func);
                    for (pc, inst) in func.code.iter().enumerate() {
                        let ir = match *inst {
                            Inst::Jmp { target } => vec![target],
                            Inst::Br { then_t, else_t, .. } => vec![then_t, else_t],
                            _ => continue,
                        };
                        let op = &ops[covers[pc] as usize];
                        fused += !matches!(op, Op::Jmp { .. } | Op::Br { .. }) as usize;
                        let want: Vec<_> = ir
                            .iter()
                            .map(|&t| Target::new(covers[t as usize], t as usize <= pc))
                            .collect();
                        assert_eq!(targets(*op), want, "{}@{pc}: {op:?}", func.name);
                    }
                }
            }
        }
        assert!(fused > 0, "no compare-and-branch was fused");
    }

    /// The SFI verifier's dedicated-register rule survives decoding:
    /// coalescing never retargets a write into the sandbox register.
    #[test]
    fn under_sfi_only_mask_writes_the_sandbox_register() {
        for read_protect in [false, true] {
            for mut module in modules() {
                sfi::instrument(&mut module, read_protect);
                sfi::verify_sfi(&module).unwrap();
                for func in &module.funcs {
                    let sbx = (func.regs - 1) as Reg;
                    for mut op in decoded(func).0 {
                        if op.dst_mut().is_some_and(|d| *d == sbx) {
                            assert!(matches!(op, Op::Mask { .. }), "{}: {op:?}", func.name);
                        }
                    }
                }
            }
        }
    }

    /// Lowered code reads a constant or a comparison only once, so the
    /// generated-program tests never see these stay live; hand-built IR
    /// can. Neither the constant nor the comparison may be fused away.
    #[test]
    fn fused_operands_that_stay_live_keep_their_writes() {
        let code = vec![
            Inst::Const { dst: 1, value: 5 },
            Inst::Bin {
                op: BinOp::Lt,
                dst: 2,
                a: 0,
                b: 1,
            },
            Inst::Br {
                cond: 2,
                then_t: 3,
                else_t: 3,
            },
            Inst::Bin {
                op: BinOp::Add,
                dst: 3,
                a: 2,
                b: 1,
            },
            Inst::Ret { src: Some(3) },
        ];
        let module = Module {
            funcs: vec![IrFunc {
                name: "f".into(),
                arity: 1,
                regs: 4,
                code,
            }],
            globals: Vec::new(),
            const_pools: Vec::new(),
            regions: Vec::new(),
            func_index: [("f".to_string(), 0)].into_iter().collect(),
        };
        let mut e = crate::CompiledEngine::load(module, crate::SafetyMode::Unchecked).unwrap();
        use graft_api::ExtensionEngine;
        assert_eq!(e.invoke("f", &[3]).unwrap(), 6);
        assert_eq!(e.invoke("f", &[7]).unwrap(), 5);
    }

    /// A copy out of a register that stays live is not coalesced; one
    /// out of a dying temporary is.
    #[test]
    fn only_dying_sources_are_coalesced() {
        let hir = graft_lang::compile(
            "fn f(a: int) -> int { let x = a; let y = x; let z = a + 1; return x * y + z; }",
            &[],
        )
        .unwrap();
        let module = graft_ir::lower(&hir);
        let (ops, _) = decoded(&module.funcs[0]);
        // `x = a; y = x` must not become `y = a`: `x` is read later.
        let movs = ops.iter().filter(|op| matches!(op, Op::Mov { .. })).count();
        assert_eq!(movs, 2, "{ops:?}");
        // `z = a + 1` absorbs both its constant and its temporary.
        assert!(
            ops.iter().any(|op| matches!(
                op,
                Op::AddI {
                    dst: 3,
                    a: 0,
                    imm: 1
                }
            )),
            "{ops:?}"
        );
    }
}
