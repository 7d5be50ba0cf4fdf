//! **Tickle** — the source-interpreted script engine (the paper's Tcl).
//!
//! Tickle is a faithful small Tcl 7.x: scripts are strings, commands are
//! split and substituted at every evaluation, every value is a string,
//! and arithmetic re-parses its operands from text each time. The paper
//! includes Tcl because source-interpreted scripting languages had been
//! proposed as kernel-extension vehicles (mChoices, §2); its four-orders-
//! of-magnitude slowdown against compiled code (§5.4, §5.5) is the
//! headline negative result, and this engine reproduces the mechanism
//! that causes it.
//!
//! A graft is a script that defines one `proc` per entry point at load
//! time. Kernel data arrives through the same shared regions as every
//! other technology, accessed with the `rload`/`rstore` commands.

pub mod expr;
pub mod interp;
pub mod words;

use graft_api::{
    EntryId, ExtensionEngine, GraftError, RegionId, RegionSpec, RegionStore, Technology,
};

use interp::{Flow, Frame, Interp};

/// A graft loaded under the script (Tcl-analogue) technology.
pub struct ScriptEngine {
    interp: Interp,
    fuel_limit: Option<u64>,
    last_fuel_used: u64,
}

impl ScriptEngine {
    /// Loads a Tickle graft: runs the top-level script once, which
    /// defines its `proc`s and initializes its global variables.
    pub fn load(source: &str, regions: &[RegionSpec]) -> Result<Self, GraftError> {
        let store = RegionStore::new(regions)?;
        let mut interp = Interp::new(store);
        let mut top = Frame::global();
        interp.eval_script(source, &mut top, 0)?;
        Ok(ScriptEngine {
            interp,
            fuel_limit: None,
            last_fuel_used: 0,
        })
    }

    /// Evaluates an arbitrary script against the engine state (useful
    /// for exploration and tests; the kernel uses [`invoke`]).
    ///
    /// [`invoke`]: ExtensionEngine::invoke
    pub fn eval(&mut self, script: &str) -> Result<String, GraftError> {
        let mut top = Frame::global();
        match self.interp.eval_script(script, &mut top, 0)? {
            Flow::Normal(v) | Flow::Return(v) => Ok(v),
            _ => Err(GraftError::Trap(graft_api::Trap::TypeError(
                "control flow escaped top level".into(),
            ))),
        }
    }
}

impl ExtensionEngine for ScriptEngine {
    fn technology(&self) -> Technology {
        Technology::Script
    }

    fn bind_entry(&mut self, entry: &str) -> Result<EntryId, GraftError> {
        match self.interp.procs.slot(entry) {
            Some(slot) => Ok(EntryId(slot as u32)),
            None => Err(graft_api::engine::no_such_entry(entry)),
        }
    }

    fn bind_region(&self, name: &str) -> Result<RegionId, GraftError> {
        self.interp.regions.id(name)
    }

    fn invoke_id(&mut self, entry: EntryId, args: &[i64]) -> Result<i64, GraftError> {
        let fuel = self.fuel_limit.unwrap_or(u64::MAX);
        self.interp.fuel = fuel;
        // The i64 → string argument marshal is the technology itself:
        // Tcl's calling convention *is* strings. The engine boundary no
        // longer looks the proc up by name, but what happens inside is
        // direct source interpretation, unchanged.
        let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let result = self.interp.call_proc_slot(entry.index(), &argv, 0);
        self.last_fuel_used = fuel - self.interp.fuel;
        match result? {
            Flow::Normal(v) | Flow::Return(v) => {
                if v.is_empty() {
                    Ok(0)
                } else {
                    expr::parse_int(&v).map_err(|e| {
                        let name = self.interp.procs.name_of(entry.index());
                        GraftError::Trap(graft_api::Trap::TypeError(format!(
                            "entry `{name}` returned non-integer: {e}"
                        )))
                    })
                }
            }
            _ => Ok(0),
        }
    }

    fn invoke_id_traced(
        &mut self,
        entry: EntryId,
        args: &[i64],
        trace: graft_telemetry::TraceId,
    ) -> Result<i64, GraftError> {
        // Hosts route through this seam only in recording mode, so the
        // extra clock read never taxes the untraced fast path.
        let _ = trace;
        let started = std::time::Instant::now();
        let out = self.invoke_id(entry, args);
        graft_telemetry::histogram!("script.invoke_ns").record_duration(started.elapsed());
        out
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
        self.interp.regions.load_id(id, offset, data)
    }

    fn read_region_id(&self, id: RegionId, index: usize) -> Result<i64, GraftError> {
        self.interp.regions.read_id(id, index)
    }

    fn write_region_id(
        &mut self,
        id: RegionId,
        index: usize,
        value: i64,
    ) -> Result<(), GraftError> {
        self.interp.regions.write_id(id, index, value)
    }

    fn read_region_slice_id(
        &self,
        id: RegionId,
        offset: usize,
        out: &mut [i64],
    ) -> Result<(), GraftError> {
        self.interp.regions.read_slice_id(id, offset, out)
    }

    fn region_len(&self, id: RegionId) -> Result<usize, GraftError> {
        self.interp.regions.len_id(id)
    }

    fn set_fuel(&mut self, fuel: Option<u64>) {
        self.fuel_limit = fuel;
    }

    fn fuel_used(&self) -> Option<u64> {
        self.fuel_limit.map(|_| self.last_fuel_used)
    }

    fn fork_for_shard(&self, _shard: usize) -> Result<Box<dyn ExtensionEngine>, GraftError> {
        // The interpreter is a deep value: proc table, globals, and
        // regions all clone, which both replays the top-level `proc`
        // definitions (slot-stable, so parent-issued `EntryId`s remain
        // valid in the replica) and snapshots install-time state.
        Ok(Box::new(ScriptEngine {
            interp: self.interp.clone(),
            fuel_limit: None,
            last_fuel_used: 0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_api::Trap;

    fn engine(src: &str, regions: &[RegionSpec]) -> ScriptEngine {
        ScriptEngine::load(src, regions).unwrap()
    }

    #[test]
    fn invoke_calls_a_proc_with_integer_args() {
        let src = "proc add {a b} { return [expr $a + $b] }";
        let mut e = engine(src, &[]);
        assert_eq!(e.invoke("add", &[40, 2]).unwrap(), 42);
    }

    #[test]
    fn regions_are_shared_with_the_kernel() {
        let src = r#"
proc sum {n} {
    set s 0
    for {set i 0} {$i < $n} {incr i} {
        set s [expr $s + [rload buf $i]]
    }
    return $s
}
"#;
        let mut e = engine(src, &[RegionSpec::data("buf", 8)]);
        e.load_region("buf", 0, &[10, 20, 30]).unwrap();
        assert_eq!(e.invoke("sum", &[3]).unwrap(), 60);
    }

    #[test]
    fn entry_arity_is_checked() {
        let src = "proc f {a} { return $a }";
        let mut e = engine(src, &[]);
        assert!(matches!(
            e.invoke("f", &[1, 2]),
            Err(GraftError::BadArity { .. })
        ));
    }

    #[test]
    fn missing_entry_is_a_trap() {
        let mut e = engine("proc f {} { return 0 }", &[]);
        let err = e.invoke("g", &[]).unwrap_err();
        assert!(matches!(err.as_trap(), Some(Trap::NoSuchFunction(_))));
    }

    #[test]
    fn fuel_meters_commands() {
        let src = "proc spin {} { while {1} { } }";
        let mut e = engine(src, &[]);
        e.set_fuel(Some(200));
        let err = e.invoke("spin", &[]).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::FuelExhausted));
        assert_eq!(e.fuel_used(), Some(200));
    }

    #[test]
    fn load_time_global_state_is_visible_to_procs() {
        let src = r#"
set scale 3
proc mul {x} { global scale; return [expr $x * $scale] }
"#;
        let mut e = engine(src, &[]);
        assert_eq!(e.invoke("mul", &[7]).unwrap(), 21);
    }

    #[test]
    fn non_integer_return_is_a_type_error() {
        let src = "proc f {} { return banana }";
        let mut e = engine(src, &[]);
        let err = e.invoke("f", &[]).unwrap_err();
        assert!(matches!(err.as_trap(), Some(Trap::TypeError(_))));
    }

    #[test]
    fn void_return_maps_to_zero() {
        let src = "proc f {} { set x 1; return }";
        let mut e = engine(src, &[]);
        assert_eq!(e.invoke("f", &[]).unwrap(), 0);
    }

    #[test]
    fn bind_then_invoke_matches_string_invoke() {
        let src = "proc add {a b} { return [expr $a + $b] }";
        let mut e = engine(src, &[RegionSpec::data("buf", 4)]);
        let id = e.bind_entry("add").unwrap();
        assert_eq!(e.bind_entry("add").unwrap(), id);
        assert_eq!(e.invoke_id(id, &[40, 2]).unwrap(), 42);
        assert_eq!(e.invoke("add", &[40, 2]).unwrap(), 42);
        assert!(e.bind_entry("missing").is_err());

        let buf = e.bind_region("buf").unwrap();
        e.load_region_id(buf, 0, &[3, 4]).unwrap();
        assert_eq!(e.read_region_id(buf, 1).unwrap(), 4);
        assert!(e.bind_region("nope").is_err());
    }

    #[test]
    fn stale_handles_trap_deterministically() {
        let mut e = engine("proc f {} { return 0 }", &[RegionSpec::data("buf", 2)]);
        let err = e.invoke_id(graft_api::EntryId(12), &[]).unwrap_err();
        assert!(matches!(
            err.as_trap(),
            Some(Trap::BadHandle { kind: "entry", id: 12 })
        ));
        let err = e.read_region_id(graft_api::RegionId(8), 0).unwrap_err();
        assert!(matches!(
            err.as_trap(),
            Some(Trap::BadHandle { kind: "region", id: 8 })
        ));
    }

    #[test]
    fn bound_slot_survives_proc_redefinition() {
        // Tcl semantics: `proc` redefinition replaces the body but a
        // pre-bound handle keeps working and sees the new definition.
        let src = "proc f {} { return 1 }";
        let mut e = engine(src, &[]);
        let id = e.bind_entry("f").unwrap();
        assert_eq!(e.invoke_id(id, &[]).unwrap(), 1);
        e.eval("proc f {} { return 2 }").unwrap();
        assert_eq!(e.bind_entry("f").unwrap(), id, "slot is stable");
        assert_eq!(e.invoke_id(id, &[]).unwrap(), 2);
    }

    #[test]
    fn agrees_with_compiled_engine_on_a_shared_algorithm() {
        // Sum of squares mod 2^32, written in both Grail and Tickle.
        let tickle = r#"
proc sumsq {n} {
    set s 0
    for {set i 1} {$i <= $n} {incr i} {
        set s [expr ($s + $i * $i) & 0xFFFFFFFF]
    }
    return $s
}
"#;
        let grail = r#"
fn sumsq(n: int) -> int {
    let s = 0;
    let i = 1;
    while i <= n {
        s = (s + i * i) & 0xFFFFFFFF;
        i = i + 1;
    }
    return s;
}
"#;
        let mut script = engine(tickle, &[]);
        let mut native =
            engine_native::load_grail(grail, &[], engine_native::SafetyMode::Unchecked).unwrap();
        assert_eq!(
            script.invoke("sumsq", &[100]).unwrap(),
            native.invoke("sumsq", &[100]).unwrap()
        );
    }
}
