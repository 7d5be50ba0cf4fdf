//! Machine-independent register IR for the compiled extension
//! technologies.
//!
//! This is the analogue of the "machine independent code" the paper's
//! Omniware compiler emits and of the object code a Modula-3 or C
//! compiler would hand to the kernel's load-time translator. Grail HIR is
//! lowered here once; the compiled engine in `engine-native` then
//! translates the IR at *load time* under one of three safety modes
//! (unchecked / safe-checked / SFI-instrumented), exactly the placement
//! the paper describes for load-time translation (Section 4.2).
//!
//! The IR is a flat, infinite-register, three-address code with explicit
//! jump targets. Registers `0..arity` hold the arguments on entry; local
//! slots occupy the next registers; expression temporaries follow.

pub mod disasm;
pub mod lower;
pub mod module;
pub mod opt;
pub mod verify;

pub use lower::lower;
pub use opt::optimize;
pub use module::{Inst, IrFunc, MemRef, Module, Reg};
pub use verify::verify;

#[cfg(test)]
mod tests {
    use graft_api::RegionSpec;

    /// End-to-end: compile + lower + verify a representative program.
    #[test]
    fn compile_lower_verify_round_trip() {
        let src = r#"
            const K[4] = { 10, 20, 30, 40 };
            var total = 0;

            fn accumulate(n: int) -> int {
                let i = 0;
                while i < n {
                    total = total + K[i & 3] + buf[i];
                    i = i + 1;
                }
                return total;
            }
        "#;
        let hir = graft_lang::compile(src, &[RegionSpec::data("buf", 8)]).unwrap();
        let module = crate::lower(&hir);
        crate::verify(&module).expect("lowered module must verify");
        assert_eq!(module.funcs.len(), 1);
        assert_eq!(module.funcs[0].arity, 1);
        assert!(module.funcs[0].regs >= 2);
    }
}
