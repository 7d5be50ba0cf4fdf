//! The threaded-code ("compiled") extension engine.
//!
//! This crate implements the three *compiled* technologies the paper
//! compares, as load-time translation modes over the same `graft-ir`
//! module (Section 4.2 of the paper):
//!
//! * [`SafetyMode::Unchecked`] — the unsafe C baseline (`gcc -O`):
//!   no bounds checks, no NIL checks, no sandbox. A stray index reads or
//!   writes *somewhere* (deterministically wrapped into the region
//!   allocation) instead of trapping, which is exactly the reliability
//!   hazard the paper ascribes to unprotected extensions.
//! * [`SafetyMode::Safe`] — the Modula-3 analogue: every region and
//!   constant-table access is bounds-checked, pointer-chasing loads from
//!   linked regions are NIL-checked, and arithmetic overflow is defined.
//!   The `nil_checks` flag reproduces the paper's §5.4 discussion of the
//!   Linux Modula-3 compiler emitting explicit NIL checks that Solaris
//!   and Alpha got for free from page protection.
//! * [`SafetyMode::Sfi`] — the Omniware analogue: the module is rewritten
//!   at load time by [`sfi::instrument`], which lays every region and
//!   constant pool out in one power-of-two sandbox arena and inserts an
//!   explicit address-mask instruction before every write (and every
//!   read, when `read_protect` is on — the paper measured omniC++ 1.0β
//!   *without* read protection and says so twice). A linear-time
//!   verifier ([`sfi::verify_sfi`]) then proves every arena access is
//!   masked, mirroring Wahbe et al.'s load-time check.
//!
//! All three modes run the same op stream, decoded once at load time
//! ([`decode`]). On x86-64 Linux the load then compiles it to machine
//! code, one template per op specialised per mode (`jit`); elsewhere,
//! and as the tests' differential oracle, one dispatch loop in
//! [`interp`] specialised per mode runs it. Either way the *only*
//! difference between technologies is the checking work — which is the
//! property that makes the paper's normalized comparisons meaningful.

mod decode;
pub mod interp;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod jit;
pub mod memory;
pub mod sfi;

/// No code generator for this target: every module runs on the
/// decoded loop.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod jit {
    use graft_api::GraftError;

    pub(crate) enum Code {}

    impl Code {
        pub(crate) fn len(&self) -> usize {
            match *self {}
        }
    }

    pub(crate) fn compile(
        _: &graft_ir::Module,
        _: &crate::decode::Decoded,
        _: crate::SafetyMode,
        _: &crate::memory::Memory,
    ) -> Result<Code, GraftError> {
        Err(GraftError::Unavailable {
            graft: "machine-code tier".into(),
            missing: "an x86-64 Linux host".into(),
        })
    }

    pub(crate) fn run(
        _: &mut crate::CompiledEngine,
        _: usize,
        _: &[i64],
    ) -> Result<i64, GraftError> {
        Err(GraftError::Verify("module has no machine code".into()))
    }
}

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use graft_api::{EntryId, ExtensionEngine, GraftError, RegionId, Technology};
use graft_ir::Module;

/// Load-time translation mode: which technology the engine realizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafetyMode {
    /// Unsafe compiled C: no checks at all.
    Unchecked,
    /// Safe compiled language (Modula-3): bounds + NIL checks.
    Safe {
        /// Emit NIL checks on loads from linked regions (the Linux
        /// Modula-3 configuration); disable to model platforms where
        /// page protection makes the check free.
        nil_checks: bool,
    },
    /// Software fault isolation (Omniware): sandbox arena + masks.
    Sfi {
        /// Also mask reads (full protection). The paper's omniC++ 1.0β
        /// had write/jump protection only.
        read_protect: bool,
    },
}

impl SafetyMode {
    /// The technology this mode realizes.
    pub fn technology(self) -> Technology {
        match self {
            SafetyMode::Unchecked => Technology::CompiledUnchecked,
            SafetyMode::Safe { .. } => Technology::SafeCompiled,
            SafetyMode::Sfi { .. } => Technology::Sfi,
        }
    }

    /// The paper's default configuration for this technology.
    pub fn paper_default(tech: Technology) -> Option<SafetyMode> {
        match tech {
            Technology::CompiledUnchecked => Some(SafetyMode::Unchecked),
            Technology::SafeCompiled => Some(SafetyMode::Safe { nil_checks: true }),
            Technology::Sfi => Some(SafetyMode::Sfi {
                read_protect: false,
            }),
            _ => None,
        }
    }
}

/// What runs a loaded module's code. Picked once, at load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Machine code compiled from the decoded ops at load (x86-64
    /// Linux only).
    Jit,
    /// The decoded ops' dispatch loop in [`interp`]: the fallback on
    /// other targets, and the machine code's differential oracle.
    Loop,
}

impl Tier {
    /// The tiers this target can run, the one [`CompiledEngine::load`]
    /// picks first.
    pub const AVAILABLE: &'static [Tier] = if cfg!(all(target_arch = "x86_64", target_os = "linux"))
    {
        &[Tier::Jit, Tier::Loop]
    } else {
        &[Tier::Loop]
    };
}

/// A loaded module's executable forms, shared by every fork.
pub(crate) struct Program {
    pub(crate) decoded: decode::Decoded,
    /// Machine code for `decoded`; `None` on the decoded loop.
    pub(crate) code: Option<jit::Code>,
    /// Time the load spent compiling `code`.
    compile_time: Duration,
}

/// Per-invoke SFI operation tally.
///
/// Plain (non-atomic) words bumped only by the four SFI-only ops — in
/// the decoded loop's arms, or in registers by the machine code — so
/// the Unchecked and Safe modes never touch them and pay nothing.
/// [`CompiledEngine::invoke`] zeroes the tally before each run. While
/// telemetry is enabled the engine sums the tallies and adds the sum to
/// the `sfi.*` counters every [`SFI_FLUSH_EVERY`] invocations and when
/// it drops — no atomics while graft code runs, and four counter adds
/// per [`SFI_FLUSH_EVERY`] invocations rather than per invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SfiTally {
    /// `Mask` instructions executed (address sandboxing ops).
    pub masks: u64,
    /// `MaskedLoad`s executed (read protection on).
    pub masked_loads: u64,
    /// `MaskedStore`s executed (write protection, always on under SFI).
    pub masked_stores: u64,
    /// Fused `ArenaLoad`s executed (read protection off).
    pub arena_loads: u64,
}

/// Invocations whose [`SfiTally`]s an SFI engine sums before it adds
/// them to the `sfi.*` counters.
pub const SFI_FLUSH_EVERY: u32 = 64;

impl SfiTally {
    fn add(&mut self, t: &SfiTally) {
        self.masks += t.masks;
        self.masked_loads += t.masked_loads;
        self.masked_stores += t.masked_stores;
        self.arena_loads += t.arena_loads;
    }
}

/// A graft module loaded under one of the compiled technologies.
pub struct CompiledEngine {
    module: Arc<Module>,
    /// The module's ops and machine code, shared by every fork.
    program: Arc<Program>,
    mode: SafetyMode,
    memory: memory::Memory,
    globals: Vec<i64>,
    region_ids: HashMap<String, u16>,
    fuel: u64,
    metered: bool,
    fuel_limit: u64,
    last_fuel_used: u64,
    sfi_tally: SfiTally,
    /// Tallies of recorded invocations not yet added to the counters,
    /// and how many invocations they sum.
    sfi_unflushed: SfiTally,
    sfi_unflushed_calls: u32,
    /// Register frames of the running call chain.
    stack: Vec<i64>,
    /// Return addresses of the decoded loop's running call chain.
    calls: Vec<interp::Return>,
    /// Region and pool base addresses, refreshed for each machine-code
    /// run.
    bases: Vec<usize>,
}

impl CompiledEngine {
    /// Translates `module` at load time under `mode`, to machine code
    /// where this target has a code generator.
    ///
    /// Runs the structural IR verifier; under SFI additionally
    /// instruments the code and runs the SFI verifier. Rejected modules
    /// never execute. The verified code is then decoded once into an op
    /// stream and compiled ([`Tier::Jit`]). Should the host refuse
    /// executable pages, the module runs on the decoded loop instead.
    pub fn load(module: Module, mode: SafetyMode) -> Result<Self, GraftError> {
        Self::load_tier(module, mode, Tier::AVAILABLE[0], true)
    }

    /// [`load`](Self::load) on a given tier: tests hold the machine
    /// code to the decoded loop this way. Fails with
    /// [`GraftError::Unavailable`] for a tier the host cannot run.
    pub fn load_on(module: Module, mode: SafetyMode, tier: Tier) -> Result<Self, GraftError> {
        Self::load_tier(module, mode, tier, false)
    }

    fn load_tier(
        module: Module,
        mode: SafetyMode,
        tier: Tier,
        fallback: bool,
    ) -> Result<Self, GraftError> {
        graft_ir::verify(&module)?;
        let (module, memory) = match mode {
            SafetyMode::Sfi { read_protect } => {
                let mut module = module;
                let layout = sfi::instrument(&mut module, read_protect);
                graft_ir::verify::verify_with(&module, true)?;
                sfi::verify_sfi(&module)?;
                let arena = memory::Arena::new(&module, layout);
                (module, memory::Memory::Arena(arena))
            }
            _ => {
                let plain = memory::PlainMemory::new(&module);
                (module, memory::Memory::Plain(plain))
            }
        };
        let decoded = decode::decode(&module)?;
        let started = std::time::Instant::now();
        let (code, compile_time) = match tier {
            Tier::Jit => match jit::compile(&module, &decoded, mode, &memory) {
                Ok(code) => {
                    let took = started.elapsed();
                    graft_telemetry::histogram!("compiled.compile_ns").record_duration(took);
                    graft_telemetry::counter!("compiled.code_bytes").add(code.len() as u64);
                    (Some(code), took)
                }
                Err(GraftError::Unavailable { .. }) if fallback => (None, Duration::ZERO),
                Err(err) => return Err(err),
            },
            Tier::Loop => (None, Duration::ZERO),
        };
        let globals = module.globals.clone();
        let region_ids = module
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.clone(), i as u16))
            .collect();
        Ok(CompiledEngine {
            module: Arc::new(module),
            program: Arc::new(Program {
                decoded,
                code,
                compile_time,
            }),
            mode,
            memory,
            globals,
            region_ids,
            fuel: u64::MAX,
            metered: false,
            fuel_limit: 0,
            last_fuel_used: 0,
            sfi_tally: SfiTally::default(),
            sfi_unflushed: SfiTally::default(),
            sfi_unflushed_calls: 0,
            stack: Vec::new(),
            calls: Vec::new(),
            bases: Vec::new(),
        })
    }

    /// The translation mode this engine was loaded under.
    pub fn mode(&self) -> SafetyMode {
        self.mode
    }

    /// The tier this engine's code runs on.
    pub fn tier(&self) -> Tier {
        match self.program.code {
            Some(_) => Tier::Jit,
            None => Tier::Loop,
        }
    }

    /// Time the load spent compiling to machine code (zero on the
    /// decoded loop).
    pub fn compile_time(&self) -> Duration {
        self.program.compile_time
    }

    /// Call sites the machine code runs inline (zero on the decoded
    /// loop).
    pub fn inlined_calls(&self) -> usize {
        self.program.code.as_ref().map_or(0, |code| code.inlined)
    }

    /// Graft registers the machine code keeps in host registers,
    /// summed over the module's functions (zero on the decoded loop).
    pub fn pinned_registers(&self) -> usize {
        self.program.code.as_ref().map_or(0, |code| code.pinned)
    }

    /// The SFI operations the last invocation executed (all zero
    /// outside SFI).
    pub fn sfi_tally(&self) -> SfiTally {
        self.sfi_tally
    }

    /// The (possibly SFI-instrumented) module, for inspection in tests
    /// and the code-expansion report.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Adds the unflushed SFI tallies to the `sfi.*` counters.
    fn flush_sfi(&mut self) {
        let t = std::mem::take(&mut self.sfi_unflushed);
        self.sfi_unflushed_calls = 0;
        graft_telemetry::counter!("sfi.mask_ops").add(t.masks);
        graft_telemetry::counter!("sfi.masked_loads").add(t.masked_loads);
        graft_telemetry::counter!("sfi.masked_stores").add(t.masked_stores);
        graft_telemetry::counter!("sfi.arena_loads").add(t.arena_loads);
    }

    /// Validates a pre-bound region handle and returns its raw index
    /// plus the region name (for error construction only).
    fn checked_region(&self, id: RegionId) -> Result<(u16, &str), GraftError> {
        match self.module.regions.get(id.index()) {
            Some(region) => Ok((id.0, &region.name)),
            None => Err(GraftError::bad_handle("region", u32::from(id.0))),
        }
    }
}

impl ExtensionEngine for CompiledEngine {
    fn technology(&self) -> Technology {
        self.mode.technology()
    }

    fn bind_entry(&mut self, entry: &str) -> Result<EntryId, GraftError> {
        match self.module.func_id(entry) {
            Some(func) => Ok(EntryId(func as u32)),
            None => Err(graft_api::engine::no_such_entry(entry)),
        }
    }

    fn bind_region(&self, name: &str) -> Result<RegionId, GraftError> {
        self.region_ids
            .get(name)
            .copied()
            .map(RegionId)
            .ok_or_else(|| GraftError::NoSuchRegion(name.to_string()))
    }

    fn invoke_id(&mut self, entry: EntryId, args: &[i64]) -> Result<i64, GraftError> {
        let func = entry.index();
        let Some(decl) = self.module.funcs.get(func) else {
            return Err(GraftError::bad_handle("entry", entry.0));
        };
        if decl.arity != args.len() {
            return Err(GraftError::BadArity {
                entry: decl.name.clone(),
                expected: decl.arity,
                got: args.len(),
            });
        }
        // Unprotected compiled code cannot be preempted; see
        // `Technology::preemptible`.
        let metered = self.metered && self.mode != SafetyMode::Unchecked;
        self.fuel = if metered { self.fuel_limit } else { u64::MAX };
        self.sfi_tally = SfiTally::default();
        let result = match self.mode {
            _ if self.program.code.is_some() => jit::run(self, func, args),
            SafetyMode::Unchecked => interp::run::<interp::Unchecked>(self, func, args),
            SafetyMode::Safe { nil_checks: true } => {
                interp::run::<interp::Safe<true>>(self, func, args)
            }
            SafetyMode::Safe { nil_checks: false } => {
                interp::run::<interp::Safe<false>>(self, func, args)
            }
            SafetyMode::Sfi { .. } => interp::run::<interp::Sfi>(self, func, args),
        };
        self.last_fuel_used = if metered {
            self.fuel_limit - self.fuel
        } else {
            0
        };
        // Graft code only bumps plain words on the engine; under the
        // SFI technology the engine sums them and the counter atomics
        // happen once per `SFI_FLUSH_EVERY` recorded invocations.
        if matches!(self.mode, SafetyMode::Sfi { .. }) && graft_telemetry::enabled() {
            self.sfi_unflushed.add(&self.sfi_tally);
            self.sfi_unflushed_calls += 1;
            if self.sfi_unflushed_calls == SFI_FLUSH_EVERY {
                self.flush_sfi();
            }
        }
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
        // Clone the Arc (one refcount bump, no allocation) so the region
        // name borrows the module, not `self`, freeing `memory` for `&mut`.
        let module = Arc::clone(&self.module);
        let Some(region) = module.regions.get(id.index()) else {
            return Err(GraftError::bad_handle("region", u32::from(id.0)));
        };
        self.memory.kernel_load(id.0, &region.name, offset, data)
    }

    fn read_region_id(&self, id: RegionId, index: usize) -> Result<i64, GraftError> {
        let (raw, name) = self.checked_region(id)?;
        self.memory.kernel_read(raw, name, index)
    }

    fn write_region_id(
        &mut self,
        id: RegionId,
        index: usize,
        value: i64,
    ) -> Result<(), GraftError> {
        let module = Arc::clone(&self.module);
        let Some(region) = module.regions.get(id.index()) else {
            return Err(GraftError::bad_handle("region", u32::from(id.0)));
        };
        self.memory.kernel_write(id.0, &region.name, index, value)
    }

    fn read_region_slice_id(
        &self,
        id: RegionId,
        offset: usize,
        out: &mut [i64],
    ) -> Result<(), GraftError> {
        let (raw, name) = self.checked_region(id)?;
        self.memory.kernel_read_slice(raw, name, offset, out)
    }

    fn region_len(&self, id: RegionId) -> Result<usize, GraftError> {
        match self.module.regions.get(id.index()) {
            Some(region) => Ok(region.len),
            None => Err(GraftError::bad_handle("region", u32::from(id.0))),
        }
    }

    fn set_fuel(&mut self, fuel: Option<u64>) {
        match fuel {
            Some(f) => {
                self.metered = true;
                self.fuel_limit = f;
            }
            None => {
                self.metered = false;
            }
        }
    }

    fn fuel_used(&self) -> Option<u64> {
        if self.metered && self.mode != SafetyMode::Unchecked {
            Some(self.last_fuel_used)
        } else {
            None
        }
    }

    fn fork_for_shard(&self, _shard: usize) -> Result<Box<dyn ExtensionEngine>, GraftError> {
        // Share the translated (and, under SFI, instrumented + verified)
        // module, its decoded ops and its machine code via their `Arc`s;
        // re-running `load` here would instrument, decode and compile
        // again. Memory and globals are
        // snapshotted so install-time marshalling propagates; fuel
        // accounting starts fresh.
        Ok(Box::new(CompiledEngine {
            module: Arc::clone(&self.module),
            program: Arc::clone(&self.program),
            mode: self.mode,
            memory: self.memory.clone(),
            globals: self.globals.clone(),
            region_ids: self.region_ids.clone(),
            fuel: u64::MAX,
            metered: false,
            fuel_limit: 0,
            last_fuel_used: 0,
            sfi_tally: SfiTally::default(),
            sfi_unflushed: SfiTally::default(),
            sfi_unflushed_calls: 0,
            stack: Vec::new(),
            calls: Vec::new(),
            bases: Vec::new(),
        }))
    }
}

impl Drop for CompiledEngine {
    fn drop(&mut self) {
        if self.sfi_unflushed_calls > 0 {
            self.flush_sfi();
        }
    }
}

/// Convenience: compile Grail source and load it in one step.
pub fn load_grail(
    source: &str,
    regions: &[graft_api::RegionSpec],
    mode: SafetyMode,
) -> Result<CompiledEngine, GraftError> {
    let hir = graft_lang::compile(source, regions)?;
    let module = graft_ir::lower(&hir);
    CompiledEngine::load(module, mode)
}

/// [`load_grail`] on a given tier (see [`CompiledEngine::load_on`]).
pub fn load_grail_on(
    source: &str,
    regions: &[graft_api::RegionSpec],
    mode: SafetyMode,
    tier: Tier,
) -> Result<CompiledEngine, GraftError> {
    let hir = graft_lang::compile(source, regions)?;
    CompiledEngine::load_on(graft_ir::lower(&hir), mode, tier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_api::{RegionSpec, Trap};

    const MODES: [SafetyMode; 4] = [
        SafetyMode::Unchecked,
        SafetyMode::Safe { nil_checks: true },
        SafetyMode::Sfi {
            read_protect: false,
        },
        SafetyMode::Sfi { read_protect: true },
    ];

    /// `src` loaded under `mode` on every tier this target runs.
    fn tiers(src: &str, regions: &[RegionSpec], mode: SafetyMode) -> Vec<CompiledEngine> {
        Tier::AVAILABLE
            .iter()
            .map(|&tier| load_grail_on(src, regions, mode, tier).unwrap())
            .collect()
    }

    fn run_all(src: &str, regions: &[RegionSpec], entry: &str, args: &[i64]) -> Vec<i64> {
        MODES
            .iter()
            .flat_map(|&mode| tiers(src, regions, mode))
            .map(|mut e| e.invoke(entry, args).unwrap())
            .collect()
    }

    /// Every mode must compute identical results on well-behaved code —
    /// the technologies differ in protection, not semantics.
    #[test]
    fn modes_agree_on_wellbehaved_code() {
        let src = r#"
            const K[4] = { 2, 3, 5, 7 };
            var acc = 0;
            fn mix(n: int) -> int {
                acc = 0;
                let i = 0;
                while i < n {
                    buf[i] = K[i & 3] * i;
                    acc = acc + buf[i];
                    i = i + 1;
                }
                return acc;
            }
        "#;
        let regions = [RegionSpec::data("buf", 16)];
        let results = run_all(src, &regions, "mix", &[10]);
        assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
        // 3*1 + 5*2 + 7*3 + 2*4 + 3*5 + 5*6 + 7*7 + 2*8 + 3*9 = 179.
        assert_eq!(results[0], 179);
    }

    #[test]
    fn recursion_works_and_overflows_gracefully() {
        let src = r#"
            fn fib(n: int) -> int {
                if n < 2 { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn forever(n: int) -> int { return forever(n + 1); }
        "#;
        for &mode in &MODES {
            for mut e in tiers(src, &[], mode) {
                assert_eq!(e.invoke("fib", &[15]).unwrap(), 610);
                let err = e.invoke("forever", &[0]).unwrap_err();
                assert_eq!(err.as_trap(), Some(&Trap::StackOverflow));
            }
        }
    }

    #[test]
    fn safe_mode_traps_out_of_bounds_where_unchecked_wraps() {
        let src = "fn poke(i: int) -> int { buf[i] = 42; return buf[i]; }";
        let regions = [RegionSpec::data("buf", 8)];

        for mut safe in tiers(src, &regions, SafetyMode::Safe { nil_checks: true }) {
            let err = safe.invoke("poke", &[100]).unwrap_err();
            assert!(matches!(err.as_trap(), Some(Trap::OutOfBounds { .. })));
        }

        // Unsafe C does not trap; the store lands somewhere in the
        // graft's own allocation (wrapped), like a stray pointer.
        for mut unchecked in tiers(src, &regions, SafetyMode::Unchecked) {
            assert_eq!(unchecked.invoke("poke", &[100]).unwrap(), 42);
        }
    }

    #[test]
    fn sfi_confines_wild_stores_to_the_sandbox() {
        let src = "fn poke(i: int) -> int { buf[i] = 7; return 0; }";
        let regions = [RegionSpec::data("buf", 8)];
        let mut e = load_grail(
            src,
            &regions,
            SafetyMode::Sfi {
                read_protect: false,
            },
        )
        .unwrap();
        // A wildly out-of-range store must neither trap nor corrupt
        // anything outside the arena: it wraps inside the sandbox.
        e.invoke("poke", &[1 << 40]).unwrap();
        e.invoke("poke", &[-5]).unwrap();
    }

    #[test]
    fn nil_check_traps_only_in_safe_mode_on_linked_regions() {
        let src = "fn chase() -> int { return queue[0]; }";
        let regions = [RegionSpec::linked("queue", 8)];

        for mut safe in tiers(src, &regions, SafetyMode::Safe { nil_checks: true }) {
            let err = safe.invoke("chase", &[]).unwrap_err();
            assert!(matches!(err.as_trap(), Some(Trap::NilDeref { .. })));
        }

        // The Solaris configuration: no explicit check emitted.
        let mut relaxed =
            load_grail(src, &regions, SafetyMode::Safe { nil_checks: false }).unwrap();
        assert_eq!(relaxed.invoke("chase", &[]).unwrap(), 0);

        let mut unchecked = load_grail(src, &regions, SafetyMode::Unchecked).unwrap();
        assert_eq!(unchecked.invoke("chase", &[]).unwrap(), 0);
    }

    /// One function `f` of `arity` parameters over `regs` registers.
    fn ir_module(arity: usize, regs: usize, code: Vec<graft_ir::Inst>) -> Module {
        Module {
            funcs: vec![graft_ir::IrFunc {
                name: "f".into(),
                arity,
                regs,
                code,
            }],
            globals: Vec::new(),
            const_pools: Vec::new(),
            regions: Vec::new(),
            func_index: [("f".to_string(), 0)].into_iter().collect(),
        }
    }

    /// Division and remainder, by a register and by an immediate, give
    /// `ops::binary`'s result in every mode on every tier: a zero
    /// divisor traps, and `i64::MIN / -1` wraps (x86 `idiv` faults on
    /// it, so the machine code must never reach it).
    #[test]
    fn division_by_zero_traps_in_every_mode() {
        use graft_ir::module::BinOp;
        use graft_ir::Inst;
        use graft_lang::hir::ops;
        let dividends = [
            i64::MIN,
            i64::MIN + 1,
            -17,
            -16,
            -1,
            0,
            1,
            15,
            16,
            17,
            i64::MAX,
        ];
        let divisors = [-1, 1, 2, 16, -16, 3, -7, 1 << 62, i64::MIN, i64::MAX, 0];
        for op in [BinOp::Div, BinOp::Rem] {
            let by_reg = ir_module(
                2,
                3,
                vec![
                    Inst::Bin {
                        op,
                        dst: 2,
                        a: 0,
                        b: 1,
                    },
                    Inst::Ret { src: Some(2) },
                ],
            );
            for &b in &divisors {
                let by_imm = ir_module(
                    1,
                    3,
                    vec![
                        Inst::Const { dst: 1, value: b },
                        Inst::Bin {
                            op,
                            dst: 2,
                            a: 0,
                            b: 1,
                        },
                        Inst::Ret { src: Some(2) },
                    ],
                );
                for &mode in &MODES {
                    for &tier in Tier::AVAILABLE {
                        let load =
                            |m: &Module| CompiledEngine::load_on(m.clone(), mode, tier).unwrap();
                        let (mut reg, mut imm) = (load(&by_reg), load(&by_imm));
                        // A non-zero constant divisor fuses into `DivI`/`RemI`.
                        let fused = imm.program.decoded.ops.iter().any(|o| {
                            matches!(o, decode::Op::DivI { .. } | decode::Op::RemI { .. })
                        });
                        assert_eq!(fused, b != 0, "{op:?} {b}");
                        for &a in &dividends {
                            let want = ops::binary(op, a, b).ok_or(Trap::DivByZero);
                            let ctx = format!("{mode:?} {tier:?}: {a} {op:?} {b}");
                            for got in [reg.invoke("f", &[a, b]), imm.invoke("f", &[a])] {
                                assert_eq!(
                                    got.map_err(|e| e.as_trap().cloned().unwrap()),
                                    want,
                                    "{ctx}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(ops::binary(BinOp::Div, i64::MIN, -1), Some(i64::MIN));
        assert_eq!(ops::binary(BinOp::Rem, i64::MIN, -1), Some(0));
    }

    /// `load` picks machine code where the target has a code generator.
    #[test]
    fn load_picks_the_first_available_tier() {
        let e = load_grail("fn f() -> int { return 1; }", &[], SafetyMode::Unchecked).unwrap();
        assert_eq!(e.tier(), Tier::AVAILABLE[0]);
        let e = load_grail_on(
            "fn f() -> int { return 1; }",
            &[],
            SafetyMode::Unchecked,
            Tier::Loop,
        )
        .unwrap();
        assert_eq!(e.tier(), Tier::Loop);
    }

    #[test]
    fn fuel_preempts_runaway_safe_code_but_not_unchecked() {
        let src = "fn spin() -> int { let i = 0; while true { i = i + 1; if i > 100000000 { return i; } } return 0; }";
        for mut safe in tiers(src, &[], SafetyMode::Safe { nil_checks: true }) {
            safe.set_fuel(Some(10_000));
            let err = safe.invoke("spin", &[]).unwrap_err();
            assert_eq!(err.as_trap(), Some(&Trap::FuelExhausted));
            assert_eq!(safe.fuel_used(), Some(10_000));
        }

        // The unprotected technology ignores metering — the paper's
        // complaint about unsafe in-kernel code. Use a short loop so the
        // test terminates.
        let src2 = "fn spin() -> int { let i = 0; while i < 100000 { i = i + 1; } return i; }";
        let mut unchecked = load_grail(src2, &[], SafetyMode::Unchecked).unwrap();
        unchecked.set_fuel(Some(10));
        assert_eq!(unchecked.invoke("spin", &[]).unwrap(), 100_000);
    }

    #[test]
    fn zero_fuel_traps_at_the_first_metered_event() {
        let src = "fn f() -> int { return 1; } fn g() -> int { return f(); }";
        for mode in [SafetyMode::Safe { nil_checks: true }, MODES[2], MODES[3]] {
            for mut e in tiers(src, &[], mode) {
                e.set_fuel(Some(0));
                // Nothing metered: no backward branch, no call.
                assert_eq!(e.invoke("f", &[]).unwrap(), 1, "{mode:?}");
                assert_eq!(e.fuel_used(), Some(0));
                let err = e.invoke("g", &[]).unwrap_err();
                assert_eq!(err.as_trap(), Some(&Trap::FuelExhausted), "{mode:?}");
                assert_eq!(e.fuel_used(), Some(0), "{mode:?}");
            }
        }
    }

    #[test]
    fn kernel_marshalling_round_trips_through_every_mode() {
        let src = "fn sum(n: int) -> int { let s = 0; let i = 0; while i < n { s = s + buf[i]; i = i + 1; } return s; }";
        let regions = [RegionSpec::data("buf", 8)];
        for &mode in &MODES {
            let mut e = load_grail(src, &regions, mode).unwrap();
            e.load_region("buf", 0, &[1, 2, 3, 4]).unwrap();
            e.write_region("buf", 4, 10).unwrap();
            assert_eq!(e.invoke("sum", &[5]).unwrap(), 20, "{mode:?}");
            assert_eq!(e.read_region("buf", 3).unwrap(), 4);
            let mut out = [0i64; 2];
            e.read_region_slice("buf", 3, &mut out).unwrap();
            assert_eq!(out, [4, 10]);
        }
    }

    #[test]
    fn calls_pass_more_than_twelve_arguments() {
        let src = r#"
            fn g(a: int, b: int, c: int, d: int, e: int, f: int, h: int,
                 i: int, j: int, k: int, l: int, m: int, n: int) -> int {
                return a + 2 * b + 3 * c + 4 * d + 5 * e + 6 * f + 7 * h
                    + 8 * i + 9 * j + 10 * k + 11 * l + 12 * m + 13 * n;
            }
            fn top() -> int { return g(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13); }
        "#;
        for &mode in &MODES {
            let mut e = load_grail(src, &[], mode).unwrap();
            assert_eq!(e.invoke("top", &[]).unwrap(), 819, "{mode:?}");
        }
    }

    #[test]
    fn abort_builtin_traps_with_code() {
        let src = "fn f() -> int { abort(42); }";
        for &mode in &MODES {
            for mut e in tiers(src, &[], mode) {
                let err = e.invoke("f", &[]).unwrap_err();
                assert_eq!(err.as_trap(), Some(&Trap::Abort(42)));
            }
        }
    }

    #[test]
    fn bad_arity_is_rejected_before_execution() {
        let src = "fn f(a: int) -> int { return a; }";
        let mut e = load_grail(src, &[], SafetyMode::Unchecked).unwrap();
        assert!(matches!(
            e.invoke("f", &[]),
            Err(GraftError::BadArity { .. })
        ));
        assert!(e.invoke("g", &[]).is_err());
    }

    #[test]
    fn globals_persist_across_invocations() {
        let src = "var n = 100; fn bump() -> int { n = n + 1; return n; }";
        for &mode in &MODES {
            let mut e = load_grail(src, &[], mode).unwrap();
            assert_eq!(e.invoke("bump", &[]).unwrap(), 101);
            assert_eq!(e.invoke("bump", &[]).unwrap(), 102, "{mode:?}");
        }
    }

    #[test]
    fn sfi_read_protection_costs_extra_instructions() {
        let src = "fn get(i: int) -> int { return buf[i]; }";
        let regions = [RegionSpec::data("buf", 8)];
        let unprot =
            load_grail(src, &regions, SafetyMode::Sfi { read_protect: false }).unwrap();
        let prot = load_grail(src, &regions, SafetyMode::Sfi { read_protect: true }).unwrap();
        assert!(
            prot.module().code_len() > unprot.module().code_len(),
            "read protection must insert mask instructions"
        );
    }

    #[test]
    fn bind_then_invoke_matches_string_invoke_in_every_mode() {
        let src = "fn add(a: int, b: int) -> int { return a + b; }";
        for &mode in &MODES {
            let mut e = load_grail(src, &[], mode).unwrap();
            let id = e.bind_entry("add").unwrap();
            assert_eq!(e.bind_entry("add").unwrap(), id);
            assert_eq!(e.invoke_id(id, &[20, 22]).unwrap(), 42);
            assert_eq!(e.invoke("add", &[20, 22]).unwrap(), 42);
            assert!(e.bind_entry("missing").is_err());
        }
    }

    #[test]
    fn region_handles_work_in_every_mode() {
        let src = "fn get(i: int) -> int { return buf[i]; }";
        let regions = [RegionSpec::data("buf", 8)];
        for &mode in &MODES {
            let mut e = load_grail(src, &regions, mode).unwrap();
            let buf = e.bind_region("buf").unwrap();
            e.load_region_id(buf, 0, &[4, 5, 6]).unwrap();
            e.write_region_id(buf, 3, 7).unwrap();
            assert_eq!(e.read_region_id(buf, 1).unwrap(), 5, "{mode:?}");
            let mut out = [0i64; 2];
            e.read_region_slice_id(buf, 2, &mut out).unwrap();
            assert_eq!(out, [6, 7]);
            assert_eq!(e.invoke("get", &[3]).unwrap(), 7);
            assert!(e.bind_region("nope").is_err());
        }
    }

    #[test]
    fn stale_handles_trap_deterministically_in_every_mode() {
        let src = "fn f() -> int { return 1; }";
        let regions = [RegionSpec::data("buf", 4)];
        for &mode in &MODES {
            let mut e = load_grail(src, &regions, mode).unwrap();
            let err = e.invoke_id(graft_api::EntryId(77), &[]).unwrap_err();
            assert!(matches!(
                err.as_trap(),
                Some(Trap::BadHandle { kind: "entry", id: 77 })
            ));
            let stale = graft_api::RegionId(55);
            for err in [
                e.read_region_id(stale, 0).unwrap_err(),
                e.load_region_id(stale, 0, &[1]).unwrap_err(),
                e.write_region_id(stale, 0, 1).unwrap_err(),
                e.read_region_slice_id(stale, 0, &mut [0]).unwrap_err(),
            ] {
                assert!(matches!(
                    err.as_trap(),
                    Some(Trap::BadHandle { kind: "region", id: 55 })
                ));
            }
        }
    }

    #[test]
    fn invoke_batch_runs_many_calls_in_every_mode() {
        let src = "var acc = 0; fn bump(d: int) -> int { acc = acc + d; return acc; }";
        for &mode in &MODES {
            let mut e = load_grail(src, &[], mode).unwrap();
            let id = e.bind_entry("bump").unwrap();
            let mut out = Vec::new();
            e.invoke_batch(id, 4, &[1, 2, 3, 4], &mut out).unwrap();
            assert_eq!(out, [1, 3, 6, 10], "{mode:?}");
        }
    }

    #[test]
    fn logical_short_circuit_avoids_side_effects() {
        let src = r#"
            var touched = 0;
            fn touch() -> bool { touched = touched + 1; return true; }
            fn f(x: int) -> int {
                if x > 0 && touch() { return touched; }
                return touched;
            }
        "#;
        for &mode in &MODES {
            let mut e = load_grail(src, &[], mode).unwrap();
            assert_eq!(e.invoke("f", &[0]).unwrap(), 0, "rhs must not run");
            assert_eq!(e.invoke("f", &[1]).unwrap(), 1);
        }
    }
}
