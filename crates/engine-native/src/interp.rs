//! The dispatch loop shared by all compiled modes: the [`crate::Tier::Loop`]
//! that runs a module where this target has no code generator, and that
//! tests hold the machine code to.
//!
//! [`run`] executes the op stream [`crate::decode`] built at load time.
//! It is one loop, generic over a [`Protection`] type, so each mode's
//! memory-access arms (wrap, check, or arena) are compiled in rather
//! than branched on per access, and everything else is the same code in
//! every mode: measured differences between modes are the cost of the
//! protection mechanism itself, as in the paper's normalized tables.
//!
//! Calls do not recurse on the host stack. Every frame's registers live
//! in one per-engine `Vec<i64>`, the caller's frame directly below the
//! callee's, and a call copies its arguments straight into the callee's
//! frame; return addresses live in a second per-engine `Vec`. Neither is
//! allocated per call.
//!
//! ## Why there is `unsafe` here
//!
//! This engine stands in for *compiled native code*, and the paper's
//! Section 4.2 argument applies directly: once the kernel's load-time
//! verifier has proven a module well formed, the translated code may
//! run without redundant checks — trusting the verifier is exactly the
//! "trust in the language translation tools" trade the paper describes.
//! Concretely, [`graft_ir::verify`] (which [`CompiledEngine::load`]
//! always runs, and without which no module is decoded) proves:
//!
//! * every register operand is `< func.regs`;
//! * every jump target is `< code.len()`, and every function ends in a
//!   jump, branch, return or abort, so `pc` never walks past the end;
//! * every call's arity matches its callee.
//!
//! Decoding keeps all three: it only fuses instructions of one function,
//! renames a destination to another operand of the same function, and
//! maps every target to the op covering that instruction. Two more
//! invariants are established here, at frame entry:
//!
//! * the register stack holds at least `base + regs` words for the
//!   current frame's `base` and `regs`, so `fp + r` is in bounds for
//!   every operand `r`;
//! * the stack is resized only at frame entry, after which `fp` is
//!   re-derived, so `fp` never dangles.
//!
//! Each `unsafe` block below cites the invariant it relies on. The
//! *memory* accesses a graft performs (regions, pools, the SFI arena)
//! stay checked or masked per technology — those checks are the
//! measurement.

use graft_api::{GraftError, Trap};
use graft_ir::module::BinOp;
use graft_ir::{MemRef, Module, Reg};
use graft_lang::hir::ops;

use crate::decode::{Op, Target};
use crate::memory::{Arena, Memory, PlainMemory};
use crate::CompiledEngine;

/// Maximum graft call depth before [`Trap::StackOverflow`].
pub const MAX_DEPTH: usize = 192;

/// How one compiled technology treats graft memory and fuel.
pub(crate) trait Protection {
    /// The memory layout this mode's accesses go through.
    type Mem;
    /// Whether backward branches and calls burn fuel. Unprotected
    /// compiled code cannot be preempted (`Technology::preemptible`):
    /// its budget is always unlimited, so it skips the count.
    const METERED: bool;
    fn mem(memory: &mut Memory) -> Option<&mut Self::Mem>;
    fn load(mem: &Self::Mem, module: &Module, at: MemRef, idx: i64) -> Result<i64, GraftError>;
    fn store(
        mem: &mut Self::Mem,
        module: &Module,
        region: u16,
        idx: i64,
        value: i64,
    ) -> Result<(), GraftError>;
    /// The sandbox arena, for the SFI-only ops.
    fn arena(mem: &mut Self::Mem) -> Option<&mut Arena>;
}

/// Unsafe C: stray indexes wrap inside the region's own allocation.
pub(crate) struct Unchecked;
/// Modula-3: bounds checks, and NIL checks on linked regions if `NIL`.
pub(crate) struct Safe<const NIL: bool>;
/// Omniware: every access goes through the sandbox arena.
pub(crate) struct Sfi;

fn buf(mem: &PlainMemory, at: MemRef) -> &crate::memory::Buf {
    match at {
        MemRef::Region(r) => &mem.regions[r as usize],
        MemRef::Pool(p) => &mem.pools[p as usize],
    }
}

impl Protection for Unchecked {
    type Mem = PlainMemory;
    const METERED: bool = false;
    fn mem(memory: &mut Memory) -> Option<&mut PlainMemory> {
        match memory {
            Memory::Plain(plain) => Some(plain),
            Memory::Arena(_) => None,
        }
    }
    #[inline(always)]
    fn load(mem: &PlainMemory, _: &Module, at: MemRef, idx: i64) -> Result<i64, GraftError> {
        Ok(buf(mem, at).get_wrapped(idx))
    }
    #[inline(always)]
    fn store(
        mem: &mut PlainMemory,
        _: &Module,
        r: u16,
        idx: i64,
        v: i64,
    ) -> Result<(), GraftError> {
        mem.regions[r as usize].set_wrapped(idx, v);
        Ok(())
    }
    fn arena(_: &mut PlainMemory) -> Option<&mut Arena> {
        None
    }
}

impl<const NIL: bool> Protection for Safe<NIL> {
    type Mem = PlainMemory;
    const METERED: bool = true;
    fn mem(memory: &mut Memory) -> Option<&mut PlainMemory> {
        Unchecked::mem(memory)
    }
    #[inline(always)]
    fn load(mem: &PlainMemory, module: &Module, at: MemRef, idx: i64) -> Result<i64, GraftError> {
        let buf = buf(mem, at);
        if NIL && buf.linked && idx == 0 {
            return Err(nil(module, at));
        }
        buf.get_checked(idx).ok_or_else(|| oob(module, at, idx))
    }
    #[inline(always)]
    fn store(
        mem: &mut PlainMemory,
        module: &Module,
        r: u16,
        idx: i64,
        v: i64,
    ) -> Result<(), GraftError> {
        let buf = &mut mem.regions[r as usize];
        if NIL && buf.linked && idx == 0 {
            return Err(nil(module, MemRef::Region(r)));
        }
        if buf.set_checked(idx, v) {
            Ok(())
        } else {
            Err(oob(module, MemRef::Region(r), idx))
        }
    }
    fn arena(_: &mut PlainMemory) -> Option<&mut Arena> {
        None
    }
}

impl Protection for Sfi {
    type Mem = Arena;
    const METERED: bool = true;
    fn mem(memory: &mut Memory) -> Option<&mut Arena> {
        match memory {
            Memory::Arena(arena) => Some(arena),
            Memory::Plain(_) => None,
        }
    }
    fn load(_: &Arena, _: &Module, _: MemRef, _: i64) -> Result<i64, GraftError> {
        Err(GraftError::Verify(
            "plain load reached an SFI engine".into(),
        ))
    }
    fn store(_: &mut Arena, _: &Module, _: u16, _: i64, _: i64) -> Result<(), GraftError> {
        Err(GraftError::Verify(
            "plain store reached an SFI engine".into(),
        ))
    }
    #[inline(always)]
    fn arena(arena: &mut Arena) -> Option<&mut Arena> {
        Some(arena)
    }
}

#[cold]
pub(crate) fn oob(module: &Module, mem: MemRef, index: i64) -> GraftError {
    let (region, len) = match mem {
        MemRef::Region(r) => {
            let spec = &module.regions[r as usize];
            (spec.name.clone(), spec.len)
        }
        MemRef::Pool(p) => (format!("pool#{p}"), module.const_pools[p as usize].len()),
    };
    Trap::OutOfBounds { region, index, len }.into()
}

#[cold]
pub(crate) fn nil(module: &Module, mem: MemRef) -> GraftError {
    let region = match mem {
        MemRef::Region(r) => module.regions[r as usize].name.clone(),
        MemRef::Pool(p) => format!("pool#{p}"),
    };
    Trap::NilDeref { region }.into()
}

#[cold]
fn outside_sfi(op: &str) -> GraftError {
    GraftError::Verify(format!("{op} outside SFI engine"))
}

/// Burns one unit of fuel; the unit that empties the budget traps, and
/// an empty budget traps without going below zero.
#[inline]
fn burn(fuel: &mut u64) -> Result<(), GraftError> {
    *fuel = fuel.saturating_sub(1);
    if *fuel == 0 {
        Err(Trap::FuelExhausted.into())
    } else {
        Ok(())
    }
}

/// Where a call returns to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Return {
    pc: u32,
    base: u32,
    regs: u32,
    dst: Reg,
}

/// Sizes `stack` for a frame of `regs` registers at `base` and zeroes
/// them from `argc` on. Every register access relies on the size.
fn enter(stack: &mut Vec<i64>, base: usize, regs: usize, argc: usize) {
    let end = base + regs;
    if stack.len() < end {
        stack.resize(end, 0);
    }
    stack[base + argc..end].fill(0);
}

/// Runs function `func` of the engine's decoded module under `P`.
pub(crate) fn run<P: Protection>(
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
        calls,
        ..
    } = engine;
    let module: &Module = module;
    let Some(mem) = P::mem(memory) else {
        return Err(GraftError::Verify(
            "memory layout does not match the mode".into(),
        ));
    };
    let decoded = &program.decoded;
    let code = &decoded.ops[..];
    calls.clear();

    let entry = decoded.funcs[func];
    let mut base = 0usize;
    let mut regs = entry.regs as usize;
    enter(stack, base, regs, args.len());
    stack[..args.len()].copy_from_slice(args);
    let mut fp = stack.as_mut_ptr();
    let mut pc = entry.at as usize;

    // Register accessors backed by the verifier and frame entry (see
    // the module docs). The `debug_assert!`s restate the invariant.
    macro_rules! reg {
        ($r:expr) => {{
            let r = $r as usize;
            debug_assert!(r < regs && base + regs <= stack.len());
            // SAFETY: `r < regs` (verified register operand), and frame
            // entry sized `stack` to at least `base + regs` and set
            // `fp = stack + base` with no resize since.
            unsafe { *fp.add(r) }
        }};
    }
    macro_rules! set {
        ($r:expr, $v:expr) => {{
            let r = $r as usize;
            let v = $v;
            debug_assert!(r < regs && base + regs <= stack.len());
            // SAFETY: as in `reg!`.
            unsafe { *fp.add(r) = v };
        }};
    }
    macro_rules! bin {
        ($op:expr, $a:expr, $b:expr) => {
            match ops::binary($op, $a, $b) {
                Some(v) => v,
                None => return Err(Trap::DivByZero.into()),
            }
        };
    }
    macro_rules! goto {
        ($t:expr) => {{
            let t: Target = $t;
            if P::METERED && t.burns() {
                burn(fuel)?;
            }
            pc = t.at();
        }};
    }
    macro_rules! branch {
        ($cond:expr, $to:expr) => {
            goto!(if $cond { $to.then_t } else { $to.else_t })
        };
    }

    loop {
        debug_assert!(pc < code.len());
        // SAFETY: targets map to ops of the same module, and every
        // function's last op jumps, branches, returns or aborts, so
        // stepping `pc + 1` from any other op stays in range.
        let op = unsafe { *code.get_unchecked(pc) };
        pc += 1;
        match op {
            Op::Const { dst, value } => set!(dst, value),
            Op::Mov { dst, src } => set!(dst, reg!(src)),
            Op::Neg { dst, src } => set!(dst, reg!(src).wrapping_neg()),
            Op::BitNot { dst, src } => set!(dst, !reg!(src)),
            Op::Not { dst, src } => set!(dst, (reg!(src) == 0) as i64),

            Op::Add { dst, a, b } => set!(dst, bin!(BinOp::Add, reg!(a), reg!(b))),
            Op::Sub { dst, a, b } => set!(dst, bin!(BinOp::Sub, reg!(a), reg!(b))),
            Op::Mul { dst, a, b } => set!(dst, bin!(BinOp::Mul, reg!(a), reg!(b))),
            Op::Div { dst, a, b } => set!(dst, bin!(BinOp::Div, reg!(a), reg!(b))),
            Op::Rem { dst, a, b } => set!(dst, bin!(BinOp::Rem, reg!(a), reg!(b))),
            Op::And { dst, a, b } => set!(dst, bin!(BinOp::And, reg!(a), reg!(b))),
            Op::Or { dst, a, b } => set!(dst, bin!(BinOp::Or, reg!(a), reg!(b))),
            Op::Xor { dst, a, b } => set!(dst, bin!(BinOp::Xor, reg!(a), reg!(b))),
            Op::Shl { dst, a, b } => set!(dst, bin!(BinOp::Shl, reg!(a), reg!(b))),
            Op::Shr { dst, a, b } => set!(dst, bin!(BinOp::Shr, reg!(a), reg!(b))),
            Op::Eq { dst, a, b } => set!(dst, bin!(BinOp::Eq, reg!(a), reg!(b))),
            Op::Ne { dst, a, b } => set!(dst, bin!(BinOp::Ne, reg!(a), reg!(b))),
            Op::Lt { dst, a, b } => set!(dst, bin!(BinOp::Lt, reg!(a), reg!(b))),
            Op::Le { dst, a, b } => set!(dst, bin!(BinOp::Le, reg!(a), reg!(b))),
            Op::Gt { dst, a, b } => set!(dst, bin!(BinOp::Gt, reg!(a), reg!(b))),
            Op::Ge { dst, a, b } => set!(dst, bin!(BinOp::Ge, reg!(a), reg!(b))),

            Op::AddI { dst, a, imm } => set!(dst, bin!(BinOp::Add, reg!(a), imm)),
            Op::MulI { dst, a, imm } => set!(dst, bin!(BinOp::Mul, reg!(a), imm)),
            Op::DivI { dst, a, imm } => set!(dst, bin!(BinOp::Div, reg!(a), imm)),
            Op::RemI { dst, a, imm } => set!(dst, bin!(BinOp::Rem, reg!(a), imm)),
            Op::AndI { dst, a, imm } => set!(dst, bin!(BinOp::And, reg!(a), imm)),
            Op::OrI { dst, a, imm } => set!(dst, bin!(BinOp::Or, reg!(a), imm)),
            Op::XorI { dst, a, imm } => set!(dst, bin!(BinOp::Xor, reg!(a), imm)),
            Op::ShlI { dst, a, imm } => set!(dst, bin!(BinOp::Shl, reg!(a), imm)),
            Op::ShrI { dst, a, imm } => set!(dst, bin!(BinOp::Shr, reg!(a), imm)),
            Op::EqI { dst, a, imm } => set!(dst, bin!(BinOp::Eq, reg!(a), imm)),
            Op::NeI { dst, a, imm } => set!(dst, bin!(BinOp::Ne, reg!(a), imm)),
            Op::LtI { dst, a, imm } => set!(dst, bin!(BinOp::Lt, reg!(a), imm)),
            Op::LeI { dst, a, imm } => set!(dst, bin!(BinOp::Le, reg!(a), imm)),
            Op::GtI { dst, a, imm } => set!(dst, bin!(BinOp::Gt, reg!(a), imm)),
            Op::GeI { dst, a, imm } => set!(dst, bin!(BinOp::Ge, reg!(a), imm)),

            Op::Jmp { to } => goto!(to),
            Op::Br { cond, to } => branch!(reg!(cond) != 0, to),
            Op::BrEq { a, b, to } => branch!(reg!(a) == reg!(b), to),
            Op::BrNe { a, b, to } => branch!(reg!(a) != reg!(b), to),
            Op::BrLt { a, b, to } => branch!(reg!(a) < reg!(b), to),
            Op::BrLe { a, b, to } => branch!(reg!(a) <= reg!(b), to),
            Op::BrGt { a, b, to } => branch!(reg!(a) > reg!(b), to),
            Op::BrGe { a, b, to } => branch!(reg!(a) >= reg!(b), to),
            Op::BrEqI { a, imm, to } => branch!(reg!(a) == imm, to),
            Op::BrNeI { a, imm, to } => branch!(reg!(a) != imm, to),
            Op::BrLtI { a, imm, to } => branch!(reg!(a) < imm, to),
            Op::BrLeI { a, imm, to } => branch!(reg!(a) <= imm, to),
            Op::BrGtI { a, imm, to } => branch!(reg!(a) > imm, to),
            Op::BrGeI { a, imm, to } => branch!(reg!(a) >= imm, to),

            Op::Load { dst, region, addr } => {
                set!(
                    dst,
                    P::load(mem, module, MemRef::Region(region), reg!(addr))?
                )
            }
            Op::LoadPool { dst, pool, addr } => {
                set!(dst, P::load(mem, module, MemRef::Pool(pool), reg!(addr))?)
            }
            Op::Store { region, addr, src } => {
                P::store(mem, module, region, reg!(addr), reg!(src))?
            }
            Op::GlobalGet { dst, index } => set!(dst, globals[index as usize]),
            Op::GlobalSet { index, src } => globals[index as usize] = reg!(src),
            Op::Call {
                dst,
                argc,
                func: callee,
                args: at,
            } => {
                if P::METERED {
                    burn(fuel)?;
                }
                if calls.len() + 1 >= MAX_DEPTH {
                    return Err(Trap::StackOverflow.into());
                }
                let callee = decoded.funcs[callee as usize];
                let argv = &decoded.args[at as usize..at as usize + argc as usize];
                let callee_base = base + regs;
                enter(stack, callee_base, callee.regs as usize, argv.len());
                for (i, &r) in argv.iter().enumerate() {
                    debug_assert!((r as usize) < regs);
                    stack[callee_base + i] = stack[base + r as usize];
                }
                calls.push(Return {
                    pc: pc as u32,
                    base: base as u32,
                    regs: regs as u32,
                    dst,
                });
                base = callee_base;
                regs = callee.regs as usize;
                // SAFETY: `enter` just sized `stack` to `base + regs`.
                fp = unsafe { stack.as_mut_ptr().add(base) };
                pc = callee.at as usize;
            }
            Op::Ret { src } => {
                let value = src.map_or(0, |r| reg!(r));
                let Some(ret) = calls.pop() else {
                    return Ok(value);
                };
                base = ret.base as usize;
                regs = ret.regs as usize;
                // SAFETY: the caller's frame was entered below the
                // callee's and the stack never shrinks.
                fp = unsafe { stack.as_mut_ptr().add(base) };
                pc = ret.pc as usize;
                set!(ret.dst, value);
            }
            Op::Abort { code } => return Err(Trap::Abort(reg!(code)).into()),

            // The four SFI-only arms bump plain per-invoke tally words on
            // the engine (flushed to telemetry counters once per invoke by
            // `CompiledEngine::invoke`). Other modes never reach them.
            Op::Mask { dst, src, offset } => {
                sfi_tally.masks += 1;
                let arena = P::arena(mem).ok_or_else(|| outside_sfi("Mask"))?;
                let raw = reg!(src).wrapping_add(offset as i64);
                set!(dst, ((raw as usize) & arena.mask) as i64);
            }
            Op::MaskedLoad { dst, addr } => {
                sfi_tally.masked_loads += 1;
                let arena = P::arena(mem).ok_or_else(|| outside_sfi("MaskedLoad"))?;
                set!(dst, arena.load(reg!(addr)));
            }
            Op::MaskedStore { addr, src } => {
                sfi_tally.masked_stores += 1;
                let arena = P::arena(mem).ok_or_else(|| outside_sfi("MaskedStore"))?;
                arena.store(reg!(addr), reg!(src));
            }
            Op::ArenaLoad { dst, src, offset } => {
                sfi_tally.arena_loads += 1;
                let arena = P::arena(mem).ok_or_else(|| outside_sfi("ArenaLoad"))?;
                let raw = reg!(src).wrapping_add(offset as i64);
                set!(dst, arena.load(raw));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{load_grail_on, SafetyMode, Tier};
    use graft_api::ExtensionEngine;

    /// These tests pin the loop itself, whatever `load` would pick.
    fn load_grail(
        src: &str,
        regions: &[graft_api::RegionSpec],
        mode: SafetyMode,
    ) -> Result<CompiledEngine, GraftError> {
        load_grail_on(src, regions, mode, Tier::Loop)
    }

    #[test]
    fn deep_but_bounded_recursion_is_fine() {
        let src = "fn down(n: int) -> int { if n == 0 { return 0; } return down(n - 1) + 1; }";
        let mut e = load_grail(src, &[], SafetyMode::Unchecked).unwrap();
        assert_eq!(e.invoke("down", &[100]).unwrap(), 100);
        assert!(e.invoke("down", &[(MAX_DEPTH + 10) as i64]).is_err());
    }

    #[test]
    fn forward_jumps_do_not_burn_fuel() {
        // A long straight-line chain of `if`s should execute with tiny
        // fuel since only loops/calls are metered.
        let src =
            "fn f(x: int) -> int { if x > 0 { x = x + 1; } if x > 1 { x = x + 1; } return x; }";
        let mut e = load_grail(src, &[], SafetyMode::Safe { nil_checks: true }).unwrap();
        e.set_fuel(Some(2));
        assert_eq!(e.invoke("f", &[5]).unwrap(), 7);
    }

    #[test]
    fn call_with_many_args_works() {
        let src = r#"
            fn g(a: int, b: int, c: int, d: int, e: int, f: int, h: int, i: int) -> int {
                return a + b + c + d + e + f + h + i;
            }
            fn top() -> int { return g(1, 2, 3, 4, 5, 6, 7, 8); }
        "#;
        let mut e = load_grail(src, &[], SafetyMode::Unchecked).unwrap();
        assert_eq!(e.invoke("top", &[]).unwrap(), 36);
    }

    /// The unchecked register fast path must agree with a checked debug
    /// run on every mode (this test exists to exercise the
    /// `debug_assert!` restatements of the verifier's invariants).
    #[test]
    fn all_modes_compute_fib_identically() {
        let src = "fn fib(n: int) -> int { if n < 2 { return n; } return fib(n-1) + fib(n-2); }";
        for mode in [
            SafetyMode::Unchecked,
            SafetyMode::Safe { nil_checks: true },
            SafetyMode::Sfi { read_protect: true },
        ] {
            let mut e = load_grail(src, &[], mode).unwrap();
            assert_eq!(e.invoke("fib", &[17]).unwrap(), 1597, "{mode:?}");
        }
    }
}
