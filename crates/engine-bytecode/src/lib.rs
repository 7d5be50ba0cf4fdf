//! The stack-bytecode extension engine — the paper's Java analogue.
//!
//! Grail is compiled to a compact, JVM-like stack bytecode
//! ([`compile`]), verified by a stack-depth/branch-target verifier
//! ([`verify`]) the way the JVM verifies class files, and then executed
//! by a deliberately *naive* fetch-decode-execute interpreter ([`vm`]):
//! one byte fetched and matched per opcode, operands decoded
//! byte-by-byte, an operand stack with checked pushes and pops, frames
//! allocated per call, and a preemption check per instruction. That is
//! the interpretation technology of 1995 Java (Alpha 3) — the paper's
//! Section 4.3 — and its cost relative to the compiled engine is
//! the quantity Tables 2, 5, and 6 report in the "Java" column.
//!
//! Unlike the compiled engines there is no unchecked mode: like Java,
//! every array (region) access is bounds-checked and every NIL chase
//! trapped, and there is no way to switch that off.

pub mod compile;
pub mod disasm;
pub mod opcode;
pub mod verify;
pub mod vm;

use graft_api::{
    EntryId, ExtensionEngine, GraftError, RegionId, RegionSpec, RegionStore, Technology,
};

pub use compile::{compile, BcFunc, BcModule};

/// A graft loaded under the bytecode (Java-analogue) technology.
pub struct BytecodeEngine {
    module: std::sync::Arc<BcModule>,
    regions: RegionStore,
    globals: Vec<i64>,
    fuel_limit: Option<u64>,
    last_fuel_used: u64,
}

impl BytecodeEngine {
    /// Compiles, verifies, and loads Grail source as bytecode.
    pub fn load_grail(source: &str, regions: &[RegionSpec]) -> Result<Self, GraftError> {
        let hir = graft_lang::compile(source, regions)?;
        let module = compile(&hir);
        Self::load(module)
    }

    /// Verifies and loads an already-compiled bytecode module.
    pub fn load(module: BcModule) -> Result<Self, GraftError> {
        verify::verify(&module)?;
        let regions = RegionStore::new(&module.regions)?;
        let globals = module.globals.clone();
        Ok(BytecodeEngine {
            module: std::sync::Arc::new(module),
            regions,
            globals,
            fuel_limit: None,
            last_fuel_used: 0,
        })
    }

    /// The loaded module, for inspection (code size reports, tests).
    pub fn module(&self) -> &BcModule {
        &self.module
    }
}

impl ExtensionEngine for BytecodeEngine {
    fn technology(&self) -> Technology {
        Technology::Bytecode
    }

    fn bind_entry(&mut self, entry: &str) -> Result<EntryId, GraftError> {
        match self.module.func_index.get(entry) {
            Some(&func) => Ok(EntryId(func as u32)),
            None => Err(graft_api::engine::no_such_entry(entry)),
        }
    }

    fn bind_region(&self, name: &str) -> Result<RegionId, GraftError> {
        self.regions.id(name)
    }

    fn invoke_id(&mut self, entry: EntryId, args: &[i64]) -> Result<i64, GraftError> {
        let module = std::sync::Arc::clone(&self.module);
        let func = entry.index();
        let Some(decl) = module.funcs.get(func) else {
            return Err(GraftError::bad_handle("entry", entry.0));
        };
        if decl.arity != args.len() {
            return Err(GraftError::BadArity {
                entry: decl.name.clone(),
                expected: decl.arity,
                got: args.len(),
            });
        }
        let fuel = self.fuel_limit.unwrap_or(u64::MAX);
        let mut st = vm::VmState {
            regions: &mut self.regions,
            globals: &mut self.globals,
            fuel,
        };
        let result = vm::call(&mut st, &module, func, args, 0);
        self.last_fuel_used = fuel - st.fuel;
        // Telemetry flush point: the interpreter burns one fuel unit per
        // dispatched instruction, so the per-invoke dispatch count falls
        // out of the fuel ledger for free — no per-instruction atomics
        // in the dispatch loop.
        graft_telemetry::counter!("vm.invocations").incr();
        graft_telemetry::counter!("vm.dispatch").add(self.last_fuel_used);
        result
    }

    fn invoke_batch(
        &mut self,
        entry: EntryId,
        calls: usize,
        args_flat: &[i64],
        out: &mut Vec<i64>,
    ) -> Result<(), GraftError> {
        // Each call refuels in `invoke_id`; keep the batch's sum (a
        // call that fails before running leaves its 0 in place).
        let mut total = 0;
        let result = graft_api::engine::run_batch(calls, args_flat, out, |args| {
            self.last_fuel_used = 0;
            let r = self.invoke_id(entry, args);
            total += self.last_fuel_used;
            r
        });
        self.last_fuel_used = total;
        result
    }

    fn load_region_id(
        &mut self,
        id: RegionId,
        offset: usize,
        data: &[i64],
    ) -> Result<(), GraftError> {
        self.regions.load_id(id, offset, data)
    }

    fn read_region_id(&self, id: RegionId, index: usize) -> Result<i64, GraftError> {
        self.regions.read_id(id, index)
    }

    fn write_region_id(
        &mut self,
        id: RegionId,
        index: usize,
        value: i64,
    ) -> Result<(), GraftError> {
        self.regions.write_id(id, index, value)
    }

    fn read_region_slice_id(
        &self,
        id: RegionId,
        offset: usize,
        out: &mut [i64],
    ) -> Result<(), GraftError> {
        self.regions.read_slice_id(id, offset, out)
    }

    fn region_len(&self, id: RegionId) -> Result<usize, GraftError> {
        self.regions.len_id(id)
    }

    fn set_fuel(&mut self, fuel: Option<u64>) {
        self.fuel_limit = fuel;
    }

    fn fuel_used(&self) -> Option<u64> {
        self.fuel_limit.map(|_| self.last_fuel_used)
    }

    fn fork_for_shard(&self, _shard: usize) -> Result<Box<dyn ExtensionEngine>, GraftError> {
        // The verified module is shared by `Arc`; regions and globals
        // are snapshotted; fuel accounting starts fresh.
        Ok(Box::new(BytecodeEngine {
            module: std::sync::Arc::clone(&self.module),
            regions: self.regions.clone(),
            globals: self.globals.clone(),
            fuel_limit: None,
            last_fuel_used: 0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_api::Trap;

    fn engine(src: &str, regions: &[RegionSpec]) -> BytecodeEngine {
        BytecodeEngine::load_grail(src, regions).unwrap()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = r#"
            fn collatz_steps(n: int) -> int {
                let steps = 0;
                while n != 1 {
                    if n % 2 == 0 { n = n / 2; } else { n = 3 * n + 1; }
                    steps = steps + 1;
                }
                return steps;
            }
        "#;
        let mut e = engine(src, &[]);
        assert_eq!(e.invoke("collatz_steps", &[27]).unwrap(), 111);
    }

    #[test]
    fn regions_and_const_tables() {
        let src = r#"
            const W[4] = { 1, 10, 100, 1000 };
            fn weigh(n: int) -> int {
                let s = 0;
                let i = 0;
                while i < n {
                    s = s + buf[i] * W[i & 3];
                    i = i + 1;
                }
                return s;
            }
        "#;
        let mut e = engine(src, &[RegionSpec::data("buf", 8)]);
        e.load_region("buf", 0, &[5, 4, 3, 2, 1]).unwrap();
        assert_eq!(e.invoke("weigh", &[5]).unwrap(), 5 + 40 + 300 + 2000 + 1);
    }

    #[test]
    fn bounds_are_always_checked() {
        let src = "fn get(i: int) -> int { return buf[i]; }";
        let mut e = engine(src, &[RegionSpec::data("buf", 4)]);
        let err = e.invoke("get", &[9]).unwrap_err();
        assert!(matches!(err.as_trap(), Some(Trap::OutOfBounds { .. })));
        let err = e.invoke("get", &[-1]).unwrap_err();
        assert!(matches!(err.as_trap(), Some(Trap::OutOfBounds { .. })));
    }

    #[test]
    fn nil_chase_traps_like_null_pointer_exception() {
        let src = "fn chase() -> int { return queue[0]; }";
        let mut e = engine(src, &[RegionSpec::linked("queue", 4)]);
        let err = e.invoke("chase", &[]).unwrap_err();
        assert!(matches!(err.as_trap(), Some(Trap::NilDeref { .. })));
    }

    #[test]
    fn recursion_and_stack_overflow() {
        let src = r#"
            fn fib(n: int) -> int { if n < 2 { return n; } return fib(n-1) + fib(n-2); }
            fn forever() -> int { return forever(); }
        "#;
        let mut e = engine(src, &[]);
        assert_eq!(e.invoke("fib", &[12]).unwrap(), 144);
        let err = e.invoke("forever", &[]).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::StackOverflow));
    }

    #[test]
    fn fuel_preempts_per_instruction() {
        let src = "fn spin() -> int { while true { } return 0; }";
        let mut e = engine(src, &[]);
        e.set_fuel(Some(1_000));
        let err = e.invoke("spin", &[]).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::FuelExhausted));
        assert_eq!(e.fuel_used(), Some(1_000));
    }

    #[test]
    fn zero_fuel_traps_at_the_first_instruction() {
        let mut e = engine("fn f() -> int { return 1; }", &[]);
        e.set_fuel(Some(0));
        let err = e.invoke("f", &[]).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::FuelExhausted));
        assert_eq!(e.fuel_used(), Some(0));
    }

    #[test]
    fn agrees_with_native_engine_on_shared_program() {
        let src = r#"
            var seed = 1;
            fn lcg() -> int {
                seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF;
                return seed;
            }
            fn churn(n: int) -> int {
                let acc = 0;
                let i = 0;
                while i < n {
                    acc = (acc ^ lcg()) & 0xFFFFFFFF;
                    i = i + 1;
                }
                return acc;
            }
        "#;
        let mut bc = engine(src, &[]);
        let mut native =
            engine_native::load_grail(src, &[], engine_native::SafetyMode::Unchecked).unwrap();
        let a = bc.invoke("churn", &[50]).unwrap();
        let b = native.invoke("churn", &[50]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn globals_persist_and_reset_with_reload() {
        let src = "var n = 0; fn bump() -> int { n = n + 1; return n; }";
        let mut e = engine(src, &[]);
        assert_eq!(e.invoke("bump", &[]).unwrap(), 1);
        assert_eq!(e.invoke("bump", &[]).unwrap(), 2);
        let mut fresh = engine(src, &[]);
        assert_eq!(fresh.invoke("bump", &[]).unwrap(), 1);
    }

    #[test]
    fn division_by_zero_traps() {
        let src = "fn f(b: int) -> int { return 10 / b; }";
        let mut e = engine(src, &[]);
        let err = e.invoke("f", &[0]).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::DivByZero));
        assert_eq!(e.invoke("f", &[5]).unwrap(), 2);
    }

    /// The twin of the compiled engine's division test: by a register
    /// and by a literal `-1`, the results are `ops::binary`'s, and
    /// `i64::MIN / -1` wraps instead of faulting the host.
    #[test]
    fn division_edge_cases_wrap_like_ops_binary() {
        use graft_lang::hir::{ops, BinOp};
        let src = r#"
            fn div(a: int, b: int) -> int { return a / b; }
            fn rem(a: int, b: int) -> int { return a % b; }
            fn div_m1(a: int) -> int { return a / -1; }
            fn rem_m1(a: int) -> int { return a % -1; }
        "#;
        let mut e = engine(src, &[]);
        for a in [i64::MIN, i64::MIN + 1, -17, -1, 0, 1, 17, i64::MAX] {
            for b in [-1, 1, 16, -16, 3, i64::MIN, i64::MAX, 0] {
                for (entry, op) in [("div", BinOp::Div), ("rem", BinOp::Rem)] {
                    let want = ops::binary(op, a, b).ok_or(Trap::DivByZero);
                    let got = e
                        .invoke(entry, &[a, b])
                        .map_err(|e| e.as_trap().cloned().unwrap());
                    assert_eq!(got, want, "{a} {op:?} {b}");
                }
            }
            assert_eq!(e.invoke("div_m1", &[a]).unwrap(), a.wrapping_neg(), "{a}");
            assert_eq!(e.invoke("rem_m1", &[a]).unwrap(), 0, "{a}");
        }
    }

    #[test]
    fn abort_surfaces_code() {
        let src = "fn f() -> int { abort(7); }";
        let mut e = engine(src, &[]);
        assert_eq!(
            e.invoke("f", &[]).unwrap_err().as_trap(),
            Some(&Trap::Abort(7))
        );
    }

    #[test]
    fn bind_then_invoke_matches_string_invoke() {
        let src = "fn add(a: int, b: int) -> int { return a + b; }";
        let mut e = engine(src, &[RegionSpec::data("buf", 4)]);
        let id = e.bind_entry("add").unwrap();
        assert_eq!(e.bind_entry("add").unwrap(), id);
        assert_eq!(e.invoke_id(id, &[40, 2]).unwrap(), 42);
        assert_eq!(e.invoke("add", &[40, 2]).unwrap(), 42);
        assert!(e.bind_entry("missing").is_err());

        let buf = e.bind_region("buf").unwrap();
        e.load_region_id(buf, 0, &[1, 2]).unwrap();
        assert_eq!(e.read_region_id(buf, 1).unwrap(), 2);
        assert!(e.bind_region("nope").is_err());
    }

    #[test]
    fn stale_handles_trap_deterministically() {
        let src = "fn f() -> int { return 1; }";
        let mut e = engine(src, &[RegionSpec::data("buf", 4)]);
        let err = e.invoke_id(graft_api::EntryId(9), &[]).unwrap_err();
        assert!(matches!(
            err.as_trap(),
            Some(Trap::BadHandle { kind: "entry", id: 9 })
        ));
        let err = e.read_region_id(graft_api::RegionId(9), 0).unwrap_err();
        assert!(matches!(
            err.as_trap(),
            Some(Trap::BadHandle { kind: "region", id: 9 })
        ));
    }

    #[test]
    fn invoke_batch_loops_the_vm() {
        let src = "var acc = 0; fn bump(d: int) -> int { acc = acc + d; return acc; }";
        let mut e = engine(src, &[]);
        let id = e.bind_entry("bump").unwrap();
        let mut out = Vec::new();
        e.invoke_batch(id, 3, &[5, 6, 7], &mut out).unwrap();
        assert_eq!(out, [5, 11, 18]);
    }

    #[test]
    fn large_constants_round_trip_through_the_pool() {
        let src = "fn big() -> int { return 0x123456789ABCDEF; }";
        let mut e = engine(src, &[]);
        assert_eq!(e.invoke("big", &[]).unwrap(), 0x0123_4567_89AB_CDEF);
    }
}
