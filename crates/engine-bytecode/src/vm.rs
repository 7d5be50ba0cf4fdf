//! The bytecode interpreter: fetch, decode, execute.
//!
//! Intentionally the naive loop of a mid-90s language runtime: a byte is
//! fetched and matched per opcode, operands are assembled from unaligned
//! little-endian bytes, the operand stack is a growable vector with
//! checked pops, locals live in a per-call allocation, and a preemption
//! (fuel) check runs on every instruction. Do not "optimize" this engine:
//! its cost *is* the measurement (the Java column of Tables 2, 5, 6).

use graft_api::{GraftError, RegionId, RegionStore, Trap};
use graft_lang::hir::BinOp;

use crate::compile::BcModule;
use crate::opcode::{self as op, fetch};

/// Maximum call depth before [`Trap::StackOverflow`].
pub const MAX_DEPTH: usize = 192;

/// Mutable interpreter state shared across the call tree.
pub struct VmState<'a> {
    /// Kernel-shared regions.
    pub regions: &'a mut RegionStore,
    /// Module globals.
    pub globals: &'a mut Vec<i64>,
    /// Remaining execution budget.
    pub fuel: u64,
}

fn underflow() -> GraftError {
    Trap::TypeError("operand stack underflow".into()).into()
}

/// Executes function `func` of `module`.
pub fn call(
    st: &mut VmState<'_>,
    module: &BcModule,
    func: usize,
    args: &[i64],
    depth: usize,
) -> Result<i64, GraftError> {
    if depth >= MAX_DEPTH {
        return Err(Trap::StackOverflow.into());
    }
    let f = &module.funcs[func];
    let mut locals = vec![0i64; f.locals];
    locals[..args.len()].copy_from_slice(args);
    let mut stack: Vec<i64> = Vec::new();
    let code = &f.code[..];
    let mut pc = 0usize;

    macro_rules! pop {
        () => {
            match stack.pop() {
                Some(v) => v,
                None => return Err(underflow()),
            }
        };
    }

    loop {
        // Saturating: an empty budget traps at once instead of wrapping
        // to an unlimited one.
        st.fuel = st.fuel.saturating_sub(1);
        if st.fuel == 0 {
            return Err(Trap::FuelExhausted.into());
        }
        let opc = code[pc];
        match opc {
            op::NOP => pc += 1,
            op::SIPUSH => {
                stack.push(fetch::i16(code, pc + 1) as i64);
                pc += 3;
            }
            op::LDC => {
                stack.push(module.pool[fetch::u16(code, pc + 1) as usize]);
                pc += 3;
            }
            op::LOAD => {
                stack.push(locals[fetch::u16(code, pc + 1) as usize]);
                pc += 3;
            }
            op::STORE => {
                let v = pop!();
                locals[fetch::u16(code, pc + 1) as usize] = v;
                pc += 3;
            }
            op::POP => {
                let _ = pop!();
                pc += 1;
            }
            op::DUP => {
                let v = *stack.last().ok_or_else(underflow)?;
                stack.push(v);
                pc += 1;
            }
            op::ADD..=op::SHR => {
                let b = pop!();
                let a = pop!();
                let bop = match opc {
                    op::ADD => BinOp::Add,
                    op::SUB => BinOp::Sub,
                    op::MUL => BinOp::Mul,
                    op::DIV => BinOp::Div,
                    op::REM => BinOp::Rem,
                    op::AND => BinOp::And,
                    op::OR => BinOp::Or,
                    op::XOR => BinOp::Xor,
                    op::SHL => BinOp::Shl,
                    _ => BinOp::Shr,
                };
                match graft_lang::hir::ops::binary(bop, a, b) {
                    Some(v) => stack.push(v),
                    None => return Err(Trap::DivByZero.into()),
                }
                pc += 1;
            }
            op::NEG => {
                let v = pop!();
                stack.push(v.wrapping_neg());
                pc += 1;
            }
            op::BNOT => {
                let v = pop!();
                stack.push(!v);
                pc += 1;
            }
            op::NOT => {
                let v = pop!();
                stack.push((v == 0) as i64);
                pc += 1;
            }
            op::EQ..=op::GE => {
                let b = pop!();
                let a = pop!();
                let r = match opc {
                    op::EQ => a == b,
                    op::NE => a != b,
                    op::LT => a < b,
                    op::LE => a <= b,
                    op::GT => a > b,
                    _ => a >= b,
                };
                stack.push(r as i64);
                pc += 1;
            }
            op::GOTO => pc = fetch::u32(code, pc + 1) as usize,
            op::JZ => {
                let v = pop!();
                pc = if v == 0 {
                    fetch::u32(code, pc + 1) as usize
                } else {
                    pc + 5
                };
            }
            op::JNZ => {
                let v = pop!();
                pc = if v != 0 {
                    fetch::u32(code, pc + 1) as usize
                } else {
                    pc + 5
                };
            }
            op::CALL => {
                let callee = fetch::u16(code, pc + 1) as usize;
                let nargs = code[pc + 3] as usize;
                if stack.len() < nargs {
                    return Err(underflow());
                }
                let at = stack.len() - nargs;
                // The argument slice is copied into the callee's locals.
                let result = {
                    let argv: Vec<i64> = stack[at..].to_vec();
                    stack.truncate(at);
                    call(st, module, callee, &argv, depth + 1)?
                };
                stack.push(result);
                pc += 4;
            }
            op::RET => return Ok(0),
            op::RETV => return Ok(pop!()),
            op::RLOAD => {
                let idx = pop!();
                let r = fetch::u16(code, pc + 1);
                let region = st.regions.region(RegionId(r));
                let spec = region.spec();
                if spec.linked && idx == 0 {
                    return Err(Trap::NilDeref {
                        region: spec.name.clone(),
                    }
                    .into());
                }
                let words = region.words();
                if (idx as u64) >= words.len() as u64 {
                    return Err(Trap::OutOfBounds {
                        region: spec.name.clone(),
                        index: idx,
                        len: words.len(),
                    }
                    .into());
                }
                stack.push(words[idx as usize]);
                pc += 3;
            }
            op::RSTORE => {
                let value = pop!();
                let idx = pop!();
                let r = fetch::u16(code, pc + 1);
                let region = st.regions.region_mut(RegionId(r));
                let (linked, name, len) = {
                    let spec = region.spec();
                    (spec.linked, spec.name.clone(), region.len())
                };
                if linked && idx == 0 {
                    return Err(Trap::NilDeref { region: name }.into());
                }
                if (idx as u64) >= len as u64 {
                    return Err(Trap::OutOfBounds {
                        region: name,
                        index: idx,
                        len,
                    }
                    .into());
                }
                region.words_mut()[idx as usize] = value;
                pc += 3;
            }
            op::PLOAD => {
                let idx = pop!();
                let t = fetch::u16(code, pc + 1) as usize;
                let table = &module.tables[t];
                if (idx as u64) >= table.len() as u64 {
                    return Err(Trap::OutOfBounds {
                        region: format!("table#{t}"),
                        index: idx,
                        len: table.len(),
                    }
                    .into());
                }
                stack.push(table[idx as usize]);
                pc += 3;
            }
            op::GGET => {
                stack.push(st.globals[fetch::u16(code, pc + 1) as usize]);
                pc += 3;
            }
            op::GSET => {
                let v = pop!();
                st.globals[fetch::u16(code, pc + 1) as usize] = v;
                pc += 3;
            }
            op::ABORT => {
                let code_v = pop!();
                return Err(Trap::Abort(code_v).into());
            }
            other => {
                return Err(GraftError::Verify(format!(
                    "unverified opcode {other} reached the interpreter"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::BytecodeEngine;
    use graft_api::ExtensionEngine;

    #[test]
    fn fuel_counts_instructions_executed() {
        let src = "fn f() -> int { return 1 + 2; }";
        let mut e = BytecodeEngine::load_grail(src, &[]).unwrap();
        e.set_fuel(Some(1_000));
        e.invoke("f", &[]).unwrap();
        // SIPUSH, SIPUSH, ADD, RETV = 4 instructions.
        assert_eq!(e.fuel_used(), Some(4));
    }

    #[test]
    fn nested_calls_share_the_fuel_budget() {
        let src = r#"
            fn leaf() -> int { return 1; }
            fn mid() -> int { return leaf() + leaf(); }
            fn top() -> int { return mid() + mid(); }
        "#;
        let mut e = BytecodeEngine::load_grail(src, &[]).unwrap();
        e.set_fuel(Some(10_000));
        e.invoke("top", &[]).unwrap();
        let all = e.fuel_used().unwrap();
        e.set_fuel(Some(10_000));
        e.invoke("mid", &[]).unwrap();
        let half = e.fuel_used().unwrap();
        assert!(all > half, "outer call must burn more fuel");
    }
}
