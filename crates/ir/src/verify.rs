//! Load-time IR verification.
//!
//! The paper (Section 4.2) notes that a kernel accepting compiled
//! extensions must verify at load time that the code it was handed is
//! well-formed — either by translating it itself or by checking marks
//! left by a trusted toolchain. This verifier is the former: a
//! linear-time structural check run before any engine translates a
//! module.
//!
//! The SFI-specific part — that every arena store is immediately
//! preceded by a `Mask` of its address register — lives in
//! `engine-native::sfi`, because only SFI-instrumented modules contain
//! masked instructions; this verifier *rejects* them in ordinary modules
//! (`allow_masked = false`).

use graft_api::GraftError;
use graft_lang::hir::BinOp;

use crate::module::{Inst, IrFunc, MemRef, Module};

/// Verifies a freshly lowered (non-SFI) module.
pub fn verify(module: &Module) -> Result<(), GraftError> {
    verify_with(module, false)
}

/// Verifies a module, optionally accepting SFI-inserted masked
/// instructions (used by the SFI engine after instrumentation).
pub fn verify_with(module: &Module, allow_masked: bool) -> Result<(), GraftError> {
    for func in &module.funcs {
        verify_func(module, func, allow_masked)
            .map_err(|msg| GraftError::Verify(format!("{}: {msg}", func.name)))?;
    }
    Ok(())
}

fn verify_func(module: &Module, func: &IrFunc, allow_masked: bool) -> Result<(), String> {
    if func.arity > func.regs {
        return Err(format!(
            "arity {} exceeds register count {}",
            func.arity, func.regs
        ));
    }
    match func.code.last() {
        None => return Err("empty code".into()),
        Some(Inst::Jmp { .. } | Inst::Br { .. } | Inst::Ret { .. } | Inst::Abort { .. }) => {}
        Some(last) => return Err(format!("falls off the end after {last:?}")),
    }
    let len = func.code.len() as u32;
    let reg_ok = |r: u16| (r as usize) < func.regs;
    let target_ok = |t: u32| t < len;
    for (at, inst) in func.code.iter().enumerate() {
        let ok = match inst {
            Inst::Const { dst, .. } => reg_ok(*dst),
            Inst::Mov { dst, src } => reg_ok(*dst) && reg_ok(*src),
            Inst::Un { dst, src, .. } => reg_ok(*dst) && reg_ok(*src),
            Inst::Bin { op, dst, a, b } => {
                if matches!(op, BinOp::LogicalAnd | BinOp::LogicalOr) {
                    return Err(format!(
                        "short-circuit operator materialized as Bin at {at}"
                    ));
                }
                reg_ok(*dst) && reg_ok(*a) && reg_ok(*b)
            }
            Inst::Jmp { target } => target_ok(*target),
            Inst::Br {
                cond,
                then_t,
                else_t,
            } => reg_ok(*cond) && target_ok(*then_t) && target_ok(*else_t),
            Inst::Load { dst, mem, addr } => {
                reg_ok(*dst) && reg_ok(*addr) && mem_ok(module, *mem)
            }
            Inst::Store { mem, addr, src } => {
                if let MemRef::Pool(_) = mem {
                    return Err(format!("store into constant pool at {at}"));
                }
                if let MemRef::Region(r) = mem {
                    match module.regions.get(*r as usize) {
                        Some(spec) if !spec.writable => {
                            return Err(format!("store into read-only region at {at}"))
                        }
                        _ => {}
                    }
                }
                reg_ok(*addr) && reg_ok(*src) && mem_ok(module, *mem)
            }
            Inst::GlobalGet { dst, index } => {
                reg_ok(*dst) && (*index as usize) < module.globals.len()
            }
            Inst::GlobalSet { index, src } => {
                reg_ok(*src) && (*index as usize) < module.globals.len()
            }
            Inst::Call { dst, func: f, args } => {
                let Some(callee) = module.funcs.get(*f as usize) else {
                    return Err(format!("call to unknown function {f} at {at}"));
                };
                if callee.arity != args.len() {
                    return Err(format!(
                        "call to `{}` with {} args (arity {}) at {at}",
                        callee.name,
                        args.len(),
                        callee.arity
                    ));
                }
                reg_ok(*dst) && args.iter().all(|a| reg_ok(*a))
            }
            Inst::Ret { src } => src.is_none_or(reg_ok),
            Inst::Abort { code } => reg_ok(*code),
            Inst::Mask { dst, src, .. } => {
                if !allow_masked {
                    return Err(format!("SFI instruction outside SFI module at {at}"));
                }
                reg_ok(*dst) && reg_ok(*src)
            }
            Inst::MaskedLoad { dst, addr } => {
                if !allow_masked {
                    return Err(format!("SFI instruction outside SFI module at {at}"));
                }
                reg_ok(*dst) && reg_ok(*addr)
            }
            Inst::MaskedStore { addr, src } => {
                if !allow_masked {
                    return Err(format!("SFI instruction outside SFI module at {at}"));
                }
                reg_ok(*addr) && reg_ok(*src)
            }
            Inst::ArenaLoad { dst, src, .. } => {
                if !allow_masked {
                    return Err(format!("SFI instruction outside SFI module at {at}"));
                }
                reg_ok(*dst) && reg_ok(*src)
            }
        };
        if !ok {
            return Err(format!("operand out of range at {at}: {inst:?}"));
        }
    }
    Ok(())
}

fn mem_ok(module: &Module, mem: MemRef) -> bool {
    match mem {
        MemRef::Region(r) => (r as usize) < module.regions.len(),
        MemRef::Pool(p) => (p as usize) < module.const_pools.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::IrFunc;
    use std::collections::HashMap;

    fn module_with(code: Vec<Inst>, regs: usize) -> Module {
        let mut func_index = HashMap::new();
        func_index.insert("f".to_string(), 0);
        Module {
            funcs: vec![IrFunc {
                name: "f".into(),
                arity: 0,
                regs,
                code,
            }],
            globals: vec![0],
            const_pools: vec![vec![1, 2]],
            regions: vec![graft_api::RegionSpec::data("buf", 4)],
            func_index,
        }
    }

    #[test]
    fn accepts_wellformed_code() {
        let m = module_with(
            vec![
                Inst::Const { dst: 0, value: 3 },
                Inst::Load {
                    dst: 1,
                    mem: MemRef::Region(0),
                    addr: 0,
                },
                Inst::Ret { src: Some(1) },
            ],
            2,
        );
        verify(&m).unwrap();
    }

    #[test]
    fn rejects_register_out_of_range() {
        let m = module_with(vec![Inst::Const { dst: 9, value: 0 }, Inst::Ret { src: None }], 2);
        assert!(verify(&m).is_err());
    }

    #[test]
    fn rejects_code_that_falls_off_the_end() {
        let m = module_with(vec![Inst::Const { dst: 0, value: 1 }], 1);
        let err = verify(&m).unwrap_err().to_string();
        assert!(err.contains("falls off the end"), "{err}");
    }

    #[test]
    fn rejects_jump_out_of_range() {
        let m = module_with(vec![Inst::Jmp { target: 99 }], 1);
        assert!(verify(&m).is_err());
    }

    #[test]
    fn rejects_store_to_pool() {
        let m = module_with(
            vec![
                Inst::Const { dst: 0, value: 0 },
                Inst::Store {
                    mem: MemRef::Pool(0),
                    addr: 0,
                    src: 0,
                },
                Inst::Ret { src: None },
            ],
            1,
        );
        let err = verify(&m).unwrap_err().to_string();
        assert!(err.contains("constant pool"));
    }

    #[test]
    fn rejects_bad_call_arity() {
        let m = module_with(
            vec![
                Inst::Call {
                    dst: 0,
                    func: 0,
                    args: vec![0].into_boxed_slice(),
                },
                Inst::Ret { src: None },
            ],
            1,
        );
        let err = verify(&m).unwrap_err().to_string();
        assert!(err.contains("arity"));
    }

    #[test]
    fn rejects_unknown_region() {
        let m = module_with(
            vec![
                Inst::Const { dst: 0, value: 0 },
                Inst::Load {
                    dst: 0,
                    mem: MemRef::Region(7),
                    addr: 0,
                },
                Inst::Ret { src: None },
            ],
            1,
        );
        assert!(verify(&m).is_err());
    }

    #[test]
    fn rejects_masked_instructions_outside_sfi() {
        let m = module_with(
            vec![
                Inst::Mask {
                    dst: 0,
                    src: 0,
                    offset: 0,
                },
                Inst::Ret { src: None },
            ],
            1,
        );
        let err = verify(&m).unwrap_err().to_string();
        assert!(err.contains("SFI"));
        verify_with(&m, true).unwrap();
    }

    #[test]
    fn rejects_store_to_read_only_region() {
        let mut m = module_with(
            vec![
                Inst::Const { dst: 0, value: 0 },
                Inst::Store {
                    mem: MemRef::Region(0),
                    addr: 0,
                    src: 0,
                },
                Inst::Ret { src: None },
            ],
            1,
        );
        m.regions = vec![graft_api::RegionSpec::read_only("input", 4)];
        let err = verify(&m).unwrap_err().to_string();
        assert!(err.contains("read-only"));
    }
}
