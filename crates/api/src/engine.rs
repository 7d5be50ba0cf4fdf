//! The engine trait all extension technologies implement, plus the native
//! (hand-written Rust) engine.
//!
//! # Two-phase bind/invoke ABI
//!
//! The graft ABI is split into a *bind* phase and an *invoke* phase,
//! mirroring how production extension runtimes (eBPF helper/map
//! relocation, safe-language kernel extensions) push name resolution to
//! load time:
//!
//! - **Bind (load time, cold):** [`bind_entry`] and [`bind_region`]
//!   resolve a name to a dense handle ([`EntryId`], [`RegionId`]) once
//!   per graft. Unknown names fail *here*, deterministically.
//! - **Invoke (steady state, hot):** [`invoke_id`], [`invoke_batch`] and
//!   the `*_region_id` family are pure index operations — zero hashing,
//!   zero string compares, zero allocation on the hot path. Stale or
//!   out-of-range handles trap with [`Trap::BadHandle`]; they never
//!   panic and never touch out-of-bounds memory.
//!
//! The historical one-phase string API ([`invoke`], [`load_region`],
//! …) survives as a thin compat shim: provided trait methods that bind
//! and then delegate. It is deprecated for hot paths — every table in
//! the repro now measures the handle-based path.
//!
//! [`bind_entry`]: ExtensionEngine::bind_entry
//! [`bind_region`]: ExtensionEngine::bind_region
//! [`invoke_id`]: ExtensionEngine::invoke_id
//! [`invoke_batch`]: ExtensionEngine::invoke_batch
//! [`invoke`]: ExtensionEngine::invoke
//! [`load_region`]: ExtensionEngine::load_region
//! [`Trap::BadHandle`]: crate::error::Trap::BadHandle

use std::collections::HashMap;

use graft_telemetry::TraceId;

use crate::error::{GraftError, Trap};
use crate::region::{RegionId, RegionSpec, RegionStore};
use crate::spec::{EntryPoint, SharedNativeFactory};
use crate::tech::Technology;

/// Handle to a bound entry point within one graft instance.
///
/// Issued by [`ExtensionEngine::bind_entry`]; only meaningful to the
/// engine that issued it. The raw value is an engine-private dense
/// index (function table slot, proc slot, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId(pub u32);

impl EntryId {
    /// The entry's index into its engine's function table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A loaded, executable graft under some extension technology.
///
/// The kernel drives every technology through the same interface:
///
/// 1. **bind** the entry points and regions it will use
///    ([`bind_entry`], [`bind_region`]) — once, at load time;
/// 2. marshal input into the graft's regions ([`load_region_id`] and
///    friends);
/// 3. [`invoke_id`] an entry point with scalar arguments (or
///    [`invoke_batch`] many calls at once);
/// 4. read results back out of the regions.
///
/// Implementations must be [`Send`] so a graft can be pushed behind the
/// user-level upcall boundary.
///
/// [`bind_entry`]: ExtensionEngine::bind_entry
/// [`bind_region`]: ExtensionEngine::bind_region
/// [`load_region_id`]: ExtensionEngine::load_region_id
/// [`invoke_id`]: ExtensionEngine::invoke_id
/// [`invoke_batch`]: ExtensionEngine::invoke_batch
pub trait ExtensionEngine: Send {
    /// The technology this engine implements.
    fn technology(&self) -> Technology;

    /// Resolves an entry-point name to a handle, once, at load time.
    ///
    /// Fails with a deterministic error when the graft declares no such
    /// entry. Binding the same name twice returns the same handle.
    fn bind_entry(&mut self, entry: &str) -> Result<EntryId, GraftError>;

    /// Resolves a region name to a handle, once, at load time.
    fn bind_region(&self, name: &str) -> Result<RegionId, GraftError>;

    /// Runs a pre-bound entry point with the given scalar arguments and
    /// returns its scalar result. The steady-state hot path: no string
    /// lookup, no allocation.
    fn invoke_id(&mut self, entry: EntryId, args: &[i64]) -> Result<i64, GraftError>;

    /// Runs `calls` invocations of one pre-bound entry point in a
    /// single request, appending each scalar result to `out`.
    ///
    /// `args_flat` carries the arguments for all calls back to back;
    /// its length must be an exact multiple of `calls` (the per-call
    /// arity is inferred as `args_flat.len() / calls`). On a trap the
    /// batch stops at the faulting call: `out` holds the results
    /// completed so far and the error is returned.
    ///
    /// Fuel is metered per call, exactly as by back-to-back
    /// [`invoke_id`]s: each call is refuelled to the full budget, so a
    /// runaway call traps at the same point either way. Afterwards
    /// [`fuel_used`] reports the fuel summed over every call the batch
    /// ran, the faulting call included (see its sum contract).
    ///
    /// The default implementation loops [`invoke_id`] ([`run_batch`]);
    /// engines that meter fuel override it to keep the sum, and
    /// transports with a per-call boundary cost (the user-level upcall
    /// engine) override it to amortize round-trips — the paper's
    /// Logical-Disk batching argument applied to our own boundary.
    ///
    /// [`invoke_id`]: ExtensionEngine::invoke_id
    /// [`fuel_used`]: ExtensionEngine::fuel_used
    fn invoke_batch(
        &mut self,
        entry: EntryId,
        calls: usize,
        args_flat: &[i64],
        out: &mut Vec<i64>,
    ) -> Result<(), GraftError> {
        run_batch(calls, args_flat, out, |args| self.invoke_id(entry, args))
    }

    /// [`invoke_id`] with a propagated trace context — the causal
    /// identity of the kernel dispatch that caused this invocation.
    ///
    /// The default forwards to [`invoke_id`] and discards the context,
    /// so engines without engine-side instrumentation need no change.
    /// Engines that *have* an internal boundary override it: the upcall
    /// engine ships the id across the wire so the server thread's
    /// events land in the same causal timeline, and the in-kernel
    /// engines time their half of the dispatch under the trace. Hosts
    /// only call this in recording mode ([`graft_telemetry::tracing`]),
    /// so the untraced hot path never pays for it.
    ///
    /// [`invoke_id`]: ExtensionEngine::invoke_id
    fn invoke_id_traced(
        &mut self,
        entry: EntryId,
        args: &[i64],
        trace: TraceId,
    ) -> Result<i64, GraftError> {
        let _ = trace;
        self.invoke_id(entry, args)
    }

    /// [`invoke_batch`] with a propagated trace context; same contract
    /// as [`invoke_id_traced`].
    ///
    /// [`invoke_batch`]: ExtensionEngine::invoke_batch
    /// [`invoke_id_traced`]: ExtensionEngine::invoke_id_traced
    fn invoke_batch_traced(
        &mut self,
        entry: EntryId,
        calls: usize,
        args_flat: &[i64],
        out: &mut Vec<i64>,
        trace: TraceId,
    ) -> Result<(), GraftError> {
        let _ = trace;
        self.invoke_batch(entry, calls, args_flat, out)
    }

    /// Kernel-side bulk marshal into a pre-bound region at a word
    /// offset.
    fn load_region_id(
        &mut self,
        id: RegionId,
        offset: usize,
        data: &[i64],
    ) -> Result<(), GraftError>;

    /// Kernel-side single-word read from a pre-bound region.
    fn read_region_id(&self, id: RegionId, index: usize) -> Result<i64, GraftError>;

    /// Kernel-side single-word write into a pre-bound region.
    fn write_region_id(&mut self, id: RegionId, index: usize, value: i64)
        -> Result<(), GraftError>;

    /// Kernel-side bulk read from a pre-bound region at a word offset.
    fn read_region_slice_id(
        &self,
        id: RegionId,
        offset: usize,
        out: &mut [i64],
    ) -> Result<(), GraftError>;

    /// Length (in words) of a pre-bound region.
    ///
    /// The sizing half of the state-salvage seam: the supervisor asks
    /// how big a region is before snapshotting it, so the default
    /// [`snapshot_region`] can allocate exactly once.
    ///
    /// [`snapshot_region`]: ExtensionEngine::snapshot_region
    fn region_len(&self, id: RegionId) -> Result<usize, GraftError>;

    /// Copies a pre-bound region's entire contents out of the graft —
    /// the state-salvage seam.
    ///
    /// The quarantine supervisor calls this at detach time to rescue
    /// critical kernel state (a Logical Disk map, a scheduler table)
    /// that lives *inside* a black-box graft, so degraded mode can keep
    /// serving with the salvaged state instead of an empty one. It is a
    /// cold-path operation: one allocation per region, sized by
    /// [`region_len`].
    ///
    /// Transports with a per-call boundary cost (the user-level upcall
    /// engine) override this to ship the whole region in one round
    /// trip.
    ///
    /// [`region_len`]: ExtensionEngine::region_len
    fn snapshot_region(&self, id: RegionId) -> Result<Vec<i64>, GraftError> {
        let len = self.region_len(id)?;
        let mut out = vec![0i64; len];
        self.read_region_slice_id(id, 0, &mut out)?;
        Ok(out)
    }

    /// Overwrites a pre-bound region's entire contents — the re-seed
    /// half of the state-salvage seam.
    ///
    /// `words` must be exactly the region's length; a partial restore
    /// is rejected *before any word is written*, so a failed restore
    /// never leaves the region half-seeded. Used to hand a salvaged
    /// snapshot to a replacement graft (possibly under a different
    /// technology, or a [`fork_for_shard`] replica).
    ///
    /// [`fork_for_shard`]: ExtensionEngine::fork_for_shard
    fn restore_region(&mut self, id: RegionId, words: &[i64]) -> Result<(), GraftError> {
        let len = self.region_len(id)?;
        if words.len() != len {
            return Err(GraftError::Verify(format!(
                "restore_region: {} words for a region of {len}",
                words.len()
            )));
        }
        self.load_region_id(id, 0, words)
    }

    /// Runs the entry point `entry` with the given scalar arguments and
    /// returns its scalar result.
    ///
    /// One-phase compat shim: binds by name on every call, then
    /// delegates to [`invoke_id`]. Hot paths should bind once instead.
    ///
    /// [`invoke_id`]: ExtensionEngine::invoke_id
    fn invoke(&mut self, entry: &str, args: &[i64]) -> Result<i64, GraftError> {
        let id = self.bind_entry(entry)?;
        self.invoke_id(id, args)
    }

    /// Kernel-side bulk marshal into a region at a word offset
    /// (name-keyed compat shim over [`load_region_id`]).
    ///
    /// [`load_region_id`]: ExtensionEngine::load_region_id
    fn load_region(&mut self, name: &str, offset: usize, data: &[i64]) -> Result<(), GraftError> {
        let id = self.bind_region(name)?;
        self.load_region_id(id, offset, data)
    }

    /// Kernel-side single-word read from a region (name-keyed compat
    /// shim over [`read_region_id`]).
    ///
    /// [`read_region_id`]: ExtensionEngine::read_region_id
    fn read_region(&self, name: &str, index: usize) -> Result<i64, GraftError> {
        let id = self.bind_region(name)?;
        self.read_region_id(id, index)
    }

    /// Kernel-side single-word write into a region (name-keyed compat
    /// shim over [`write_region_id`]).
    ///
    /// [`write_region_id`]: ExtensionEngine::write_region_id
    fn write_region(&mut self, name: &str, index: usize, value: i64) -> Result<(), GraftError> {
        let id = self.bind_region(name)?;
        self.write_region_id(id, index, value)
    }

    /// Kernel-side bulk read from a region at a word offset (name-keyed
    /// compat shim over [`read_region_slice_id`]).
    ///
    /// [`read_region_slice_id`]: ExtensionEngine::read_region_slice_id
    fn read_region_slice(
        &self,
        name: &str,
        offset: usize,
        out: &mut [i64],
    ) -> Result<(), GraftError> {
        let id = self.bind_region(name)?;
        self.read_region_slice_id(id, offset, out)
    }

    /// Sets the execution budget for subsequent invocations.
    ///
    /// `None` means unmetered. Engines that cannot meter execution (the
    /// unprotected compiled technologies) ignore this; whether metering is
    /// honoured is exposed by [`Technology::preemptible`].
    fn set_fuel(&mut self, fuel: Option<u64>);

    /// Fuel consumed by the most recent invocation, if the engine meters.
    ///
    /// After [`invoke_batch`] this is the **sum** over every call the
    /// batch ran, including a call that faulted, so a host charges a
    /// whole fused batch to its ledger with one read. A call that fails
    /// before it runs (a bad handle or arity) burns no fuel.
    ///
    /// [`invoke_batch`]: ExtensionEngine::invoke_batch
    fn fuel_used(&self) -> Option<u64> {
        None
    }

    /// Whether the engine is currently metering fuel.
    ///
    /// An observation for harnesses (a stand-in engine that should meter
    /// iff the engine it replaces does); the graft host does not consult
    /// it, since [`fuel_used`]'s sum contract keeps a fused
    /// [`invoke_batch`] accounting-exact whether or not the engine
    /// meters. The default derives the answer from [`fuel_used`]
    /// (metered engines report `Some` even before the first invocation).
    ///
    /// [`invoke_batch`]: ExtensionEngine::invoke_batch
    /// [`fuel_used`]: ExtensionEngine::fuel_used
    fn fuel_metered(&self) -> bool {
        self.fuel_used().is_some()
    }

    /// Produces a fresh, thread-confined replica of this engine for
    /// worker shard `shard` (the eBPF per-CPU-program idea applied to
    /// grafts).
    ///
    /// The replica shares immutable code (modules, proc tables, native
    /// factories) with its parent but owns a private copy of all mutable
    /// state — regions and globals are *snapshotted* at fork time, so
    /// state marshalled at install time (read-ahead plans, scheduler
    /// tables) propagates to every shard, while steady-state writes
    /// stay shard-local. Fuel accounting starts fresh; the caller
    /// re-applies its budget via [`set_fuel`].
    ///
    /// Engines that cannot replicate themselves (an engine already
    /// hosting live kernel-side state it cannot share) return a
    /// deterministic [`GraftError::Unavailable`]; the sharded host
    /// refuses the install rather than falling back to a lock.
    ///
    /// [`set_fuel`]: ExtensionEngine::set_fuel
    fn fork_for_shard(&self, shard: usize) -> Result<Box<dyn ExtensionEngine>, GraftError> {
        let _ = shard;
        Err(GraftError::Unavailable {
            graft: format!("{:?}", self.technology()),
            missing: "fork_for_shard support".to_string(),
        })
    }
}

/// Validates a batch shape and returns the per-call arity.
///
/// Shared by every `invoke_batch` implementation so the shape error is
/// identical across engines and across the upcall boundary.
pub fn batch_arity(calls: usize, args_len: usize) -> Result<usize, GraftError> {
    if calls == 0 {
        return if args_len == 0 {
            Ok(0)
        } else {
            Err(GraftError::Verify(format!(
                "invoke_batch: {args_len} args for 0 calls"
            )))
        };
    }
    if !args_len.is_multiple_of(calls) {
        return Err(GraftError::Verify(format!(
            "invoke_batch: {args_len} args do not split evenly into {calls} calls"
        )));
    }
    Ok(args_len / calls)
}

/// The loop every [`ExtensionEngine::invoke_batch`] shares: validates
/// the batch shape, then runs `call` on each call's argument slice in
/// order, appending each result to `out` and stopping at the first
/// error. An engine that meters fuel wraps `call` to sum each call's
/// fuel (the [`ExtensionEngine::fuel_used`] sum contract).
pub fn run_batch(
    calls: usize,
    args_flat: &[i64],
    out: &mut Vec<i64>,
    mut call: impl FnMut(&[i64]) -> Result<i64, GraftError>,
) -> Result<(), GraftError> {
    let arity = batch_arity(calls, args_flat.len())?;
    out.reserve(calls);
    if arity == 0 {
        for _ in 0..calls {
            out.push(call(&[])?);
        }
    } else {
        for chunk in args_flat.chunks_exact(arity) {
            out.push(call(chunk)?);
        }
    }
    Ok(())
}

/// A hand-written Rust graft body (the paper's "code compiled into the
/// kernel" upper bound).
///
/// Native grafts receive direct mutable access to the region store; there
/// is no checking layer beyond Rust's own — which is the point of the
/// [`Technology::RustNative`] row in the tables.
pub trait NativeGraft: Send {
    /// Executes `entry` against the regions.
    fn call(
        &mut self,
        entry: &str,
        args: &[i64],
        regions: &mut RegionStore,
    ) -> Result<i64, GraftError>;
}

/// Blanket native-graft implementation for plain functions, so simple
/// grafts can be written as closures.
impl<F> NativeGraft for F
where
    F: FnMut(&str, &[i64], &mut RegionStore) -> Result<i64, GraftError> + Send,
{
    fn call(
        &mut self,
        entry: &str,
        args: &[i64],
        regions: &mut RegionStore,
    ) -> Result<i64, GraftError> {
        self(entry, args, regions)
    }
}

/// Engine wrapper that runs a [`NativeGraft`] over a [`RegionStore`].
///
/// Native graft bodies dispatch on the entry *name* internally (they
/// are ordinary Rust match arms), so the engine maintains an intern
/// table mapping [`EntryId`] back to the bound name. With a declared
/// entry manifest ([`NativeEngine::with_entries`]) binding an unknown
/// name fails at bind time, like every other technology; without one
/// (the open-world [`NativeEngine::new`] constructor used by ad-hoc
/// closures) any name binds and the graft body itself rejects unknown
/// entries at call time.
pub struct NativeEngine {
    regions: RegionStore,
    graft: Box<dyn NativeGraft>,
    /// Interned entry names, indexed by `EntryId`.
    entries: Vec<String>,
    entry_ids: HashMap<String, EntryId>,
    /// Whether `entries` is a closed manifest (bind rejects unknowns).
    sealed: bool,
    /// Factory that minted `graft`, when known. Required for
    /// [`ExtensionEngine::fork_for_shard`]: native graft bodies are
    /// opaque `FnMut` state, so the only way to replicate one is to
    /// mint a fresh instance from the same factory.
    factory: Option<SharedNativeFactory>,
}

impl NativeEngine {
    /// Builds a native engine with zeroed regions and an *open* entry
    /// namespace: any name binds, and unknown entries are rejected by
    /// the graft body at call time.
    pub fn new(specs: &[RegionSpec], graft: Box<dyn NativeGraft>) -> Result<Self, GraftError> {
        Ok(NativeEngine {
            regions: RegionStore::new(specs)?,
            graft,
            entries: Vec::new(),
            entry_ids: HashMap::new(),
            sealed: false,
            factory: None,
        })
    }

    /// Builds a native engine with a *closed* entry manifest: binding a
    /// name outside `entries` fails deterministically at bind time,
    /// matching the compiled/bytecode/script technologies.
    pub fn with_entries(
        specs: &[RegionSpec],
        entries: &[EntryPoint],
        graft: Box<dyn NativeGraft>,
    ) -> Result<Self, GraftError> {
        let mut engine = NativeEngine::new(specs, graft)?;
        for entry in entries {
            engine.intern(&entry.name);
        }
        engine.sealed = true;
        Ok(engine)
    }

    /// Builds a sealed native engine from a shared factory, keeping the
    /// factory so the engine can later [`fork_for_shard`] itself.
    ///
    /// [`fork_for_shard`]: ExtensionEngine::fork_for_shard
    pub fn from_factory(
        specs: &[RegionSpec],
        entries: &[EntryPoint],
        factory: SharedNativeFactory,
    ) -> Result<Self, GraftError> {
        let mut engine = NativeEngine::with_entries(specs, entries, factory())?;
        engine.factory = Some(factory);
        Ok(engine)
    }

    fn intern(&mut self, name: &str) -> EntryId {
        if let Some(&id) = self.entry_ids.get(name) {
            return id;
        }
        let id = EntryId(self.entries.len() as u32);
        self.entries.push(name.to_string());
        self.entry_ids.insert(name.to_string(), id);
        id
    }
}

impl ExtensionEngine for NativeEngine {
    fn technology(&self) -> Technology {
        Technology::RustNative
    }

    fn bind_entry(&mut self, entry: &str) -> Result<EntryId, GraftError> {
        match self.entry_ids.get(entry) {
            Some(&id) => Ok(id),
            None if self.sealed => Err(no_such_entry(entry)),
            None => Ok(self.intern(entry)),
        }
    }

    fn bind_region(&self, name: &str) -> Result<RegionId, GraftError> {
        self.regions.id(name)
    }

    fn invoke_id(&mut self, entry: EntryId, args: &[i64]) -> Result<i64, GraftError> {
        let name = self
            .entries
            .get(entry.index())
            .ok_or(GraftError::bad_handle("entry", entry.0))?;
        self.graft.call(name, args, &mut self.regions)
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

    fn set_fuel(&mut self, _fuel: Option<u64>) {
        // Native code cannot be metered without compiler support; this is
        // precisely the reliability hazard the paper attributes to
        // unprotected technologies.
    }

    fn fork_for_shard(&self, _shard: usize) -> Result<Box<dyn ExtensionEngine>, GraftError> {
        let factory = self.factory.as_ref().ok_or_else(|| GraftError::Unavailable {
            graft: "native".to_string(),
            missing: "a shared factory (built via NativeEngine::from_factory)".to_string(),
        })?;
        Ok(Box::new(NativeEngine {
            // Snapshot current region contents, not the zeroed initial
            // state: install-time marshalling must reach every shard.
            regions: self.regions.clone(),
            graft: factory(),
            entries: self.entries.clone(),
            entry_ids: self.entry_ids.clone(),
            sealed: self.sealed,
            factory: Some(factory.clone()),
        }))
    }
}

/// Convenience used by engines to surface a trap for a missing entry.
pub fn no_such_entry(entry: &str) -> GraftError {
    GraftError::Trap(Trap::NoSuchFunction(entry.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionSpec;
    use crate::spec::EntryPoint;

    fn doubling_graft() -> Box<dyn NativeGraft> {
        Box::new(|entry: &str, args: &[i64], regions: &mut RegionStore| {
            match entry {
                "double" => Ok(args[0] * 2),
                "sum_buf" => {
                    let id = regions.id("buf")?;
                    Ok(regions.region(id).words().iter().sum())
                }
                other => Err(no_such_entry(other)),
            }
        })
    }

    fn doubling_engine() -> NativeEngine {
        NativeEngine::new(&[RegionSpec::data("buf", 4)], doubling_graft()).unwrap()
    }

    #[test]
    fn native_engine_invokes_closure() {
        let mut e = doubling_engine();
        assert_eq!(e.invoke("double", &[21]).unwrap(), 42);
    }

    #[test]
    fn native_engine_sees_marshalled_regions() {
        let mut e = doubling_engine();
        e.load_region("buf", 0, &[1, 2, 3, 4]).unwrap();
        assert_eq!(e.invoke("sum_buf", &[]).unwrap(), 10);
    }

    #[test]
    fn missing_entry_traps() {
        let mut e = doubling_engine();
        let err = e.invoke("nope", &[]).unwrap_err();
        assert!(matches!(
            err.as_trap(),
            Some(Trap::NoSuchFunction(name)) if name == "nope"
        ));
    }

    #[test]
    fn native_engine_reports_rust_native() {
        let e = doubling_engine();
        assert_eq!(e.technology(), Technology::RustNative);
        assert_eq!(e.fuel_used(), None);
    }

    #[test]
    fn bind_then_invoke_matches_string_invoke() {
        let mut e = doubling_engine();
        let id = e.bind_entry("double").unwrap();
        assert_eq!(e.bind_entry("double").unwrap(), id, "binding is stable");
        assert_eq!(e.invoke_id(id, &[21]).unwrap(), 42);
        assert_eq!(e.invoke("double", &[21]).unwrap(), 42);
    }

    #[test]
    fn bound_regions_take_the_id_fast_path() {
        let mut e = doubling_engine();
        let buf = e.bind_region("buf").unwrap();
        e.load_region_id(buf, 0, &[5, 6]).unwrap();
        assert_eq!(e.read_region_id(buf, 1).unwrap(), 6);
        e.write_region_id(buf, 2, 7).unwrap();
        let mut out = [0; 3];
        e.read_region_slice_id(buf, 0, &mut out).unwrap();
        assert_eq!(out, [5, 6, 7]);
        assert!(e.bind_region("nope").is_err());
    }

    #[test]
    fn sealed_manifest_rejects_unknown_names_at_bind() {
        let mut e = NativeEngine::with_entries(
            &[RegionSpec::data("buf", 4)],
            &[EntryPoint::new("double", 1)],
            doubling_graft(),
        )
        .unwrap();
        assert!(e.bind_entry("double").is_ok());
        let err = e.bind_entry("nope").unwrap_err();
        assert!(matches!(err.as_trap(), Some(Trap::NoSuchFunction(_))));
    }

    #[test]
    fn stale_entry_id_traps_deterministically() {
        let mut e = doubling_engine();
        let err = e.invoke_id(EntryId(999), &[1]).unwrap_err();
        assert!(matches!(
            err.as_trap(),
            Some(Trap::BadHandle { kind: "entry", id: 999 })
        ));
    }

    #[test]
    fn default_invoke_batch_loops_and_stops_on_trap() {
        let mut e = doubling_engine();
        let id = e.bind_entry("double").unwrap();
        let mut out = Vec::new();
        e.invoke_batch(id, 3, &[1, 2, 3], &mut out).unwrap();
        assert_eq!(out, [2, 4, 6]);

        // Shape errors are rejected before any call runs.
        let mut out2 = Vec::new();
        assert!(e.invoke_batch(id, 2, &[1, 2, 3], &mut out2).is_err());
        assert!(out2.is_empty());

        // Zero calls is a no-op.
        e.invoke_batch(id, 0, &[], &mut out2).unwrap();
        assert!(out2.is_empty());
    }

    #[test]
    fn fork_without_factory_is_a_deterministic_refusal() {
        let e = doubling_engine();
        let err = match e.fork_for_shard(0) {
            Err(err) => err,
            Ok(_) => panic!("factory-less fork must refuse"),
        };
        assert!(matches!(err, GraftError::Unavailable { .. }));
    }

    #[test]
    fn fork_from_factory_snapshots_regions_and_isolates_writes() {
        let factory: SharedNativeFactory = std::sync::Arc::new(|| doubling_graft());
        let mut parent = NativeEngine::from_factory(
            &[RegionSpec::data("buf", 4)],
            &[EntryPoint::new("double", 1), EntryPoint::new("sum_buf", 0)],
            factory,
        )
        .unwrap();
        parent.load_region("buf", 0, &[1, 2, 3, 4]).unwrap();

        let mut child = parent.fork_for_shard(3).unwrap();
        // Install-time marshalled state propagates...
        assert_eq!(child.invoke("sum_buf", &[]).unwrap(), 10);
        // ...handles keep the same meaning in the replica...
        let id = parent.bind_entry("double").unwrap();
        assert_eq!(child.invoke_id(id, &[21]).unwrap(), 42);
        // ...the manifest stays sealed...
        assert!(child.invoke("nope", &[]).is_err());
        // ...and post-fork writes stay shard-local.
        child.write_region("buf", 0, 100).unwrap();
        assert_eq!(parent.read_region("buf", 0).unwrap(), 1);
        // Grandchildren fork too (the factory travels with the replica).
        assert!(child.fork_for_shard(1).is_ok());
    }

    #[test]
    fn snapshot_restore_round_trips_bit_exact() {
        let mut e = doubling_engine();
        let buf = e.bind_region("buf").unwrap();
        e.load_region_id(buf, 0, &[9, -8, 7, i64::MIN]).unwrap();
        assert_eq!(e.region_len(buf).unwrap(), 4);

        let snap = e.snapshot_region(buf).unwrap();
        assert_eq!(snap, [9, -8, 7, i64::MIN]);

        // Scribble, then restore: contents come back bit-exact.
        e.load_region_id(buf, 0, &[0; 4]).unwrap();
        e.restore_region(buf, &snap).unwrap();
        assert_eq!(e.snapshot_region(buf).unwrap(), snap);

        // A partial restore is rejected before any word is written.
        let err = e.restore_region(buf, &[1, 2]).unwrap_err();
        assert!(matches!(err, GraftError::Verify(_)));
        assert_eq!(e.snapshot_region(buf).unwrap(), snap);

        // Stale handles trap deterministically.
        assert!(e.region_len(RegionId(99)).is_err());
        assert!(e.snapshot_region(RegionId(99)).is_err());
    }

    #[test]
    fn traced_invoke_defaults_forward() {
        let mut e = doubling_engine();
        let id = e.bind_entry("double").unwrap();
        let trace = graft_telemetry::TraceId::mint(0, 7);
        assert_eq!(e.invoke_id_traced(id, &[21], trace).unwrap(), 42);
        let mut out = Vec::new();
        e.invoke_batch_traced(id, 2, &[1, 2], &mut out, trace).unwrap();
        assert_eq!(out, [2, 4]);
    }

    #[test]
    fn batch_arity_contract() {
        assert_eq!(batch_arity(4, 8).unwrap(), 2);
        assert_eq!(batch_arity(3, 0).unwrap(), 0);
        assert_eq!(batch_arity(0, 0).unwrap(), 0);
        assert!(batch_arity(0, 2).is_err());
        assert!(batch_arity(2, 3).is_err());
    }
}
