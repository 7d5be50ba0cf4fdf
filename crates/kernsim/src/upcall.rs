//! The user-level server transport (hardware-protection technology).
//!
//! Section 4.1 of the paper: the simplest way to protect the kernel
//! from an extension is to leave the extension outside the kernel's
//! address space and reach it by *upcall*. The cost is one protection-
//! domain crossing per invocation, which the paper bounds with signal
//! delivery time (Table 1) and with a real upcall mechanism (37.2 µs on
//! BSD/OS), and then treats as a parameter in Figure 1.
//!
//! [`UpcallEngine`] wraps any [`ExtensionEngine`] and moves it to a
//! dedicated server thread; every kernel-side call becomes a
//! rendezvous-channel round trip, a faithful stand-in for the
//! domain-crossing cost on a machine we cannot equip with a 1996
//! microkernel. A configurable synthetic latency can be added per
//! invocation for sweeps.
//!
//! # Two-phase wire protocol
//!
//! The transport speaks the bind/invoke ABI natively: names cross the
//! boundary only during `bind_entry`/`bind_region` (cached client-side,
//! so each name crosses once); every steady-state request carries
//! pre-bound ids. Request payload buffers (`Vec<i64>`) are *round-
//! tripped* — the server hands each buffer back in its reply and the
//! client pools it for the next request — so the steady state allocates
//! nothing on either side of the boundary. [`invoke_batch`] ships many
//! calls in one rendezvous, amortizing the domain-crossing cost exactly
//! the way the paper's Logical-Disk graft amortizes disk writes.
//!
//! [`invoke_batch`]: ExtensionEngine::invoke_batch

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graft_api::{EntryId, ExtensionEngine, GraftError, RegionId, Technology};
use graft_telemetry::{counter, histogram, TraceId};

/// Most buffers the client keeps pooled; beyond this they are dropped.
const BUF_POOL_CAP: usize = 4;

enum Request {
    Ping,
    /// Load-time name resolution (the only requests carrying strings).
    BindEntry(String),
    BindRegion(String),
    /// Steady-state, id-based operations. Each `Vec` is a pooled buffer
    /// the server must hand back in its reply.
    InvokeId {
        entry: EntryId,
        args: Vec<i64>,
        /// Causal trace context; [`TraceId::NONE`] when untraced, so the
        /// wire format never grows for the common case.
        trace: TraceId,
    },
    InvokeBatch {
        entry: EntryId,
        calls: usize,
        args: Vec<i64>,
        results: Vec<i64>,
        trace: TraceId,
    },
    LoadRegionId {
        id: RegionId,
        offset: usize,
        data: Vec<i64>,
    },
    ReadRegionId {
        id: RegionId,
        index: usize,
    },
    WriteRegionId {
        id: RegionId,
        index: usize,
        value: i64,
    },
    ReadSliceId {
        id: RegionId,
        offset: usize,
        buf: Vec<i64>,
    },
    RegionLen(RegionId),
    /// State salvage: the whole region crosses in one rendezvous. The
    /// `buf` is a pooled buffer the server fills (snapshot) or drains
    /// (restore) and must hand back in its reply.
    SnapshotRegion {
        id: RegionId,
        buf: Vec<i64>,
    },
    RestoreRegion {
        id: RegionId,
        words: Vec<i64>,
    },
    SetFuel(Option<u64>),
    FuelUsed,
    /// Fork the server's inner engine for worker shard `n`; the replica
    /// crosses back over the reply channel (engines are `Send`).
    Fork(usize),
    Shutdown,
}

enum Reply {
    Unit(Result<(), GraftError>),
    Int(Result<i64, GraftError>),
    /// Result plus the round-tripped request buffer.
    IntBuf(Result<i64, GraftError>, Vec<i64>),
    UnitBuf(Result<(), GraftError>, Vec<i64>),
    /// `read_region_slice_id`: the buffer comes back filled on success.
    SliceBuf(Result<(), GraftError>, Vec<i64>),
    Batch {
        result: Result<(), GraftError>,
        args: Vec<i64>,
        results: Vec<i64>,
    },
    Entry(Result<EntryId, GraftError>),
    Region(Result<RegionId, GraftError>),
    Len(Result<usize, GraftError>),
    Fuel(Option<u64>),
    Forked(Result<Box<dyn ExtensionEngine>, GraftError>),
}

/// An extension hosted in a user-level server, reached by upcall.
pub struct UpcallEngine {
    tx: SyncSender<Request>,
    rx: Receiver<Reply>,
    server: Option<std::thread::JoinHandle<()>>,
    synthetic_latency: Duration,
    inner_technology: Technology,
    /// Requests posted but not yet answered (the transport's queue
    /// depth; 0 or 1 for a rendezvous channel, recorded for telemetry).
    in_flight: Arc<AtomicUsize>,
    /// Client-side bind caches: each name crosses the boundary once.
    /// `RefCell` because reads (`bind_region`, `read_region`) arrive
    /// through `&self`; the engine is `Send` but not `Sync`, matching
    /// the trait contract.
    entry_cache: RefCell<HashMap<String, EntryId>>,
    region_cache: RefCell<HashMap<String, RegionId>>,
    /// Pooled request buffers, round-tripped through the server.
    buf_pool: RefCell<Vec<Vec<i64>>>,
}

impl UpcallEngine {
    /// Moves `engine` behind the upcall boundary.
    pub fn new(engine: Box<dyn ExtensionEngine>) -> Self {
        // Rendezvous channels: a zero-capacity `sync_channel` blocks the
        // sender until the server thread arrives, which is the faithful
        // stand-in for a synchronous protection-domain crossing.
        let (req_tx, req_rx) = sync_channel::<Request>(0);
        let (rep_tx, rep_rx) = sync_channel::<Reply>(0);
        let inner_technology = engine.technology();
        let server = std::thread::Builder::new()
            .name("graft-upcall-server".into())
            .spawn(move || serve(engine, req_rx, rep_tx))
            .expect("spawn upcall server");
        UpcallEngine {
            tx: req_tx,
            rx: rep_rx,
            server: Some(server),
            synthetic_latency: Duration::ZERO,
            inner_technology,
            in_flight: Arc::new(AtomicUsize::new(0)),
            entry_cache: RefCell::new(HashMap::new()),
            region_cache: RefCell::new(HashMap::new()),
            buf_pool: RefCell::new(Vec::new()),
        }
    }

    /// Adds a synthetic per-invocation latency (busy-waited, so it
    /// behaves like CPU-consuming trap handling rather than a sleep).
    pub fn with_synthetic_latency(mut self, latency: Duration) -> Self {
        self.synthetic_latency = latency;
        self
    }

    /// The technology of the engine hosted inside the server.
    pub fn inner_technology(&self) -> Technology {
        self.inner_technology
    }

    /// Takes a pooled request buffer (empty, capacity retained) or a
    /// fresh one when the pool is dry.
    fn take_buf(&self) -> Vec<i64> {
        match self.buf_pool.borrow_mut().pop() {
            Some(buf) => {
                if graft_telemetry::enabled() {
                    counter!("upcall.allocs_saved").incr();
                }
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a round-tripped buffer to the pool.
    fn give_buf(&self, mut buf: Vec<i64>) {
        buf.clear();
        let mut pool = self.buf_pool.borrow_mut();
        if pool.len() < BUF_POOL_CAP {
            pool.push(buf);
        }
    }

    fn rpc(&self, req: Request) -> Reply {
        if !self.synthetic_latency.is_zero() {
            let start = Instant::now();
            while start.elapsed() < self.synthetic_latency {
                std::hint::spin_loop();
            }
        }
        if !graft_telemetry::enabled() {
            self.tx.send(req).expect("upcall server alive");
            return self.rx.recv().expect("upcall server replies");
        }
        counter!("upcall.roundtrips").incr();
        histogram!("upcall.queue_depth")
            .record(self.in_flight.fetch_add(1, Ordering::Relaxed) as u64);
        let start = Instant::now();
        self.tx.send(req).expect("upcall server alive");
        let reply = self.rx.recv().expect("upcall server replies");
        histogram!("upcall.wait_ns").record_duration(start.elapsed());
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        reply
    }

    /// Measures the bare transport round trip (no engine work): the
    /// in-text "upcall time" measurement of §5.3.
    pub fn measure_roundtrip(&self, iterations: usize) -> crate::stats::Sample {
        assert!(iterations > 0);
        crate::stats::measure_per_iter(10, iterations, || {
            let _ = self.rpc(Request::Ping);
        })
    }

    /// Measures the *per-call* cost of the batched invoke path: each
    /// timed round trip carries `batch` calls of the pre-bound `entry`
    /// (arity 0). Reported per call, directly comparable with
    /// [`Self::measure_roundtrip`].
    pub fn measure_batched(
        &mut self,
        entry: EntryId,
        batch: usize,
        roundtrips: usize,
    ) -> crate::stats::Sample {
        assert!(batch > 0 && roundtrips > 0);
        let mut out = Vec::with_capacity(batch);
        crate::stats::measure_per_iter(10, roundtrips, || {
            out.clear();
            let _ = self.invoke_batch(entry, batch, &[], &mut out);
        })
        .per(batch)
    }
}

impl Drop for UpcallEngine {
    fn drop(&mut self) {
        let _ = self.tx.send(Request::Shutdown);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

fn serve(mut engine: Box<dyn ExtensionEngine>, rx: Receiver<Request>, tx: SyncSender<Reply>) {
    // The server's half of the flight recorder: when a request carries a
    // live trace context and recording is armed, the server logs its own
    // event for the dispatch under `TRACE_SHARD_UPCALL`, so a merged
    // timeline shows both sides of every domain crossing. Flushed to the
    // global ring when half-full and at shutdown.
    let mut recorder =
        graft_telemetry::TraceBuffer::new(graft_telemetry::TRACE_BUFFER_CAPACITY);
    let mut server_seq: u32 = 0;
    let tech = engine.technology() as u8;
    let record_server_event =
        |recorder: &mut graft_telemetry::TraceBuffer,
         server_seq: &mut u32,
         trace: TraceId,
         started: Instant,
         value: i64,
         fuel: u64| {
            recorder.record(graft_telemetry::TraceEvent {
                ts_ns: graft_telemetry::since_epoch_ns(started),
                trace,
                seq: *server_seq,
                graft: 0,
                shard: graft_telemetry::TRACE_SHARD_UPCALL,
                point: u8::MAX,
                tech,
                verdict: graft_telemetry::TRACE_VERDICT_SERVER,
                value,
                duration_ns: started.elapsed().as_nanos() as u64,
                fuel,
            });
            *server_seq = server_seq.wrapping_add(1);
            if recorder.len() >= graft_telemetry::TRACE_BUFFER_CAPACITY / 2 {
                recorder.flush();
            }
        };
    while let Ok(req) = rx.recv() {
        let reply = match req {
            Request::Ping => Reply::Unit(Ok(())),
            Request::BindEntry(name) => Reply::Entry(engine.bind_entry(&name)),
            Request::BindRegion(name) => Reply::Region(engine.bind_region(&name)),
            Request::InvokeId { entry, args, trace } => {
                let r = if !trace.is_none() && graft_telemetry::tracing() {
                    let started = Instant::now();
                    let r = engine.invoke_id(entry, &args);
                    let fuel = engine.fuel_used().unwrap_or(0);
                    record_server_event(&mut recorder, &mut server_seq, trace, started, 0, fuel);
                    r
                } else {
                    engine.invoke_id(entry, &args)
                };
                Reply::IntBuf(r, args)
            }
            Request::InvokeBatch {
                entry,
                calls,
                args,
                mut results,
                trace,
            } => {
                let result = if !trace.is_none() && graft_telemetry::tracing() {
                    let started = Instant::now();
                    let result = engine.invoke_batch(entry, calls, &args, &mut results);
                    let fuel = engine.fuel_used().unwrap_or(0);
                    record_server_event(
                        &mut recorder,
                        &mut server_seq,
                        trace,
                        started,
                        calls as i64,
                        fuel,
                    );
                    result
                } else {
                    engine.invoke_batch(entry, calls, &args, &mut results)
                };
                Reply::Batch {
                    result,
                    args,
                    results,
                }
            }
            Request::LoadRegionId { id, offset, data } => {
                let r = engine.load_region_id(id, offset, &data);
                Reply::UnitBuf(r, data)
            }
            Request::ReadRegionId { id, index } => Reply::Int(engine.read_region_id(id, index)),
            Request::WriteRegionId { id, index, value } => {
                Reply::Unit(engine.write_region_id(id, index, value))
            }
            Request::ReadSliceId {
                id,
                offset,
                mut buf,
            } => {
                let r = engine.read_region_slice_id(id, offset, &mut buf);
                Reply::SliceBuf(r, buf)
            }
            Request::RegionLen(id) => Reply::Len(engine.region_len(id)),
            Request::SnapshotRegion { id, mut buf } => {
                // Fill the round-tripped buffer in place so the salvage
                // path allocates nothing on the server side either.
                let r = match engine.region_len(id) {
                    Ok(len) => {
                        buf.resize(len, 0);
                        engine.read_region_slice_id(id, 0, &mut buf)
                    }
                    Err(e) => Err(e),
                };
                Reply::SliceBuf(r, buf)
            }
            Request::RestoreRegion { id, words } => {
                let r = engine.restore_region(id, &words);
                Reply::UnitBuf(r, words)
            }
            Request::SetFuel(f) => {
                engine.set_fuel(f);
                Reply::Unit(Ok(()))
            }
            Request::FuelUsed => Reply::Fuel(engine.fuel_used()),
            Request::Fork(shard) => Reply::Forked(engine.fork_for_shard(shard)),
            Request::Shutdown => {
                recorder.flush();
                break;
            }
        };
        if tx.send(reply).is_err() {
            break;
        }
    }
}

fn transport_err() -> GraftError {
    GraftError::UpcallFailed("unexpected reply type".into())
}

impl ExtensionEngine for UpcallEngine {
    fn technology(&self) -> Technology {
        Technology::UserLevel
    }

    fn bind_entry(&mut self, entry: &str) -> Result<EntryId, GraftError> {
        if let Some(&id) = self.entry_cache.borrow().get(entry) {
            if graft_telemetry::enabled() {
                counter!("upcall.bind_cache_hits").incr();
            }
            return Ok(id);
        }
        if graft_telemetry::enabled() {
            counter!("upcall.bind_cache_misses").incr();
        }
        match self.rpc(Request::BindEntry(entry.to_string())) {
            Reply::Entry(Ok(id)) => {
                self.entry_cache
                    .borrow_mut()
                    .insert(entry.to_string(), id);
                Ok(id)
            }
            Reply::Entry(Err(e)) => Err(e),
            _ => Err(transport_err()),
        }
    }

    fn bind_region(&self, name: &str) -> Result<RegionId, GraftError> {
        if let Some(&id) = self.region_cache.borrow().get(name) {
            if graft_telemetry::enabled() {
                counter!("upcall.bind_cache_hits").incr();
            }
            return Ok(id);
        }
        if graft_telemetry::enabled() {
            counter!("upcall.bind_cache_misses").incr();
        }
        match self.rpc(Request::BindRegion(name.to_string())) {
            Reply::Region(Ok(id)) => {
                self.region_cache
                    .borrow_mut()
                    .insert(name.to_string(), id);
                Ok(id)
            }
            Reply::Region(Err(e)) => Err(e),
            _ => Err(transport_err()),
        }
    }

    fn invoke_id(&mut self, entry: EntryId, args: &[i64]) -> Result<i64, GraftError> {
        self.invoke_id_traced(entry, args, TraceId::NONE)
    }

    fn invoke_id_traced(
        &mut self,
        entry: EntryId,
        args: &[i64],
        trace: TraceId,
    ) -> Result<i64, GraftError> {
        let mut buf = self.take_buf();
        buf.extend_from_slice(args);
        match self.rpc(Request::InvokeId {
            entry,
            args: buf,
            trace,
        }) {
            Reply::IntBuf(r, buf) => {
                self.give_buf(buf);
                r
            }
            _ => Err(transport_err()),
        }
    }

    fn invoke_batch(
        &mut self,
        entry: EntryId,
        calls: usize,
        args_flat: &[i64],
        out: &mut Vec<i64>,
    ) -> Result<(), GraftError> {
        self.invoke_batch_traced(entry, calls, args_flat, out, TraceId::NONE)
    }

    fn invoke_batch_traced(
        &mut self,
        entry: EntryId,
        calls: usize,
        args_flat: &[i64],
        out: &mut Vec<i64>,
        trace: TraceId,
    ) -> Result<(), GraftError> {
        // Validate the shape before crossing the boundary so malformed
        // batches fail identically to the in-process engines.
        graft_api::engine::batch_arity(calls, args_flat.len())?;
        let mut args = self.take_buf();
        args.extend_from_slice(args_flat);
        let results = self.take_buf();
        if graft_telemetry::enabled() {
            counter!("upcall.batches").incr();
            counter!("upcall.batch_calls").add(calls as u64);
            histogram!("upcall.batch_size").record(calls as u64);
        }
        match self.rpc(Request::InvokeBatch {
            entry,
            calls,
            args,
            results,
            trace,
        }) {
            Reply::Batch {
                result,
                args,
                results,
            } => {
                // Even on a mid-batch trap the completed prefix comes
                // back, matching the in-process `invoke_batch` contract.
                out.extend_from_slice(&results);
                self.give_buf(args);
                self.give_buf(results);
                result
            }
            _ => Err(transport_err()),
        }
    }

    fn load_region_id(
        &mut self,
        id: RegionId,
        offset: usize,
        data: &[i64],
    ) -> Result<(), GraftError> {
        let mut buf = self.take_buf();
        buf.extend_from_slice(data);
        match self.rpc(Request::LoadRegionId {
            id,
            offset,
            data: buf,
        }) {
            Reply::UnitBuf(r, buf) => {
                self.give_buf(buf);
                r
            }
            _ => Err(transport_err()),
        }
    }

    fn read_region_id(&self, id: RegionId, index: usize) -> Result<i64, GraftError> {
        match self.rpc(Request::ReadRegionId { id, index }) {
            Reply::Int(r) => r,
            _ => Err(transport_err()),
        }
    }

    fn write_region_id(
        &mut self,
        id: RegionId,
        index: usize,
        value: i64,
    ) -> Result<(), GraftError> {
        match self.rpc(Request::WriteRegionId { id, index, value }) {
            Reply::Unit(r) => r,
            _ => Err(transport_err()),
        }
    }

    fn read_region_slice_id(
        &self,
        id: RegionId,
        offset: usize,
        out: &mut [i64],
    ) -> Result<(), GraftError> {
        let mut buf = self.take_buf();
        buf.resize(out.len(), 0);
        match self.rpc(Request::ReadSliceId { id, offset, buf }) {
            Reply::SliceBuf(r, buf) => {
                if r.is_ok() {
                    out.copy_from_slice(&buf);
                }
                self.give_buf(buf);
                r
            }
            _ => Err(transport_err()),
        }
    }

    fn region_len(&self, id: RegionId) -> Result<usize, GraftError> {
        match self.rpc(Request::RegionLen(id)) {
            Reply::Len(r) => r,
            _ => Err(transport_err()),
        }
    }

    fn snapshot_region(&self, id: RegionId) -> Result<Vec<i64>, GraftError> {
        // Override the provided default (`region_len` + slice read would
        // cost two round trips): the whole region ships over the wire in
        // one rendezvous, sized by the server.
        let buf = self.take_buf();
        match self.rpc(Request::SnapshotRegion { id, buf }) {
            Reply::SliceBuf(Ok(()), buf) => Ok(buf),
            Reply::SliceBuf(Err(e), buf) => {
                self.give_buf(buf);
                Err(e)
            }
            _ => Err(transport_err()),
        }
    }

    fn restore_region(&mut self, id: RegionId, words: &[i64]) -> Result<(), GraftError> {
        // One round trip; the server-side default performs the exact-
        // length check before any write, so a partial restore is
        // rejected without touching region state.
        let mut buf = self.take_buf();
        buf.extend_from_slice(words);
        match self.rpc(Request::RestoreRegion { id, words: buf }) {
            Reply::UnitBuf(r, buf) => {
                self.give_buf(buf);
                r
            }
            _ => Err(transport_err()),
        }
    }

    fn set_fuel(&mut self, fuel: Option<u64>) {
        let _ = self.rpc(Request::SetFuel(fuel));
    }

    fn fuel_used(&self) -> Option<u64> {
        match self.rpc(Request::FuelUsed) {
            Reply::Fuel(f) => f,
            _ => None,
        }
    }

    fn fork_for_shard(&self, shard: usize) -> Result<Box<dyn ExtensionEngine>, GraftError> {
        // Ask the server to fork its inner engine; the replica crosses
        // back over the reply channel and is re-hosted behind a *fresh*
        // server thread, so each shard owns a private protection-domain
        // boundary (no cross-shard serialization through one server).
        let inner = match self.rpc(Request::Fork(shard)) {
            Reply::Forked(r) => r?,
            _ => return Err(transport_err()),
        };
        let engine = UpcallEngine::new(inner).with_synthetic_latency(self.synthetic_latency);
        // The replica preserves handle meaning, so the warmed-up bind
        // caches carry over — names still cross each boundary only once
        // per graft, not once per shard fork.
        engine
            .entry_cache
            .borrow_mut()
            .clone_from(&self.entry_cache.borrow());
        engine
            .region_cache
            .borrow_mut()
            .clone_from(&self.region_cache.borrow());
        Ok(Box::new(engine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_native::{load_grail, SafetyMode};
    use graft_api::{RegionSpec, Trap};

    fn upcalled() -> UpcallEngine {
        let src = "fn add(a: int, b: int) -> int { buf[0] = a + b; return a + b; }\n\
                   fn spin(n: int) -> int { let i = 0; while i < n { i = i + 1; } return i; }";
        let inner = load_grail(
            src,
            &[RegionSpec::data("buf", 4)],
            SafetyMode::Safe { nil_checks: true },
        )
        .unwrap();
        UpcallEngine::new(Box::new(inner))
    }

    #[test]
    fn invoke_round_trips_through_the_server() {
        let mut e = upcalled();
        assert_eq!(e.technology(), Technology::UserLevel);
        assert_eq!(e.inner_technology(), Technology::SafeCompiled);
        assert_eq!(e.invoke("add", &[40, 2]).unwrap(), 42);
        assert_eq!(e.read_region("buf", 0).unwrap(), 42);
    }

    #[test]
    fn region_marshalling_crosses_the_boundary() {
        let mut e = upcalled();
        e.load_region("buf", 0, &[7, 8]).unwrap();
        e.write_region("buf", 2, 9).unwrap();
        let mut out = [0i64; 3];
        e.read_region_slice("buf", 0, &mut out).unwrap();
        assert_eq!(out, [7, 8, 9]);
    }

    #[test]
    fn errors_propagate_back_to_the_kernel() {
        let mut e = upcalled();
        assert!(e.invoke("nope", &[]).is_err());
        assert!(e.read_region("none", 0).is_err());
    }

    #[test]
    fn fuel_control_crosses_the_boundary() {
        let mut e = upcalled();
        e.set_fuel(Some(1_000_000));
        e.invoke("spin", &[500]).unwrap();
        assert!(e.fuel_used().unwrap() > 0);
    }

    #[test]
    fn roundtrip_measurement_is_positive() {
        let e = upcalled();
        let sample = e.measure_roundtrip(100);
        assert!(sample.mean_ns > 0.0);
    }

    #[test]
    fn synthetic_latency_slows_invocations() {
        let e = upcalled().with_synthetic_latency(Duration::from_micros(200));
        let slow = e.measure_roundtrip(20);
        drop(e);
        let fast = upcalled().measure_roundtrip(20);
        assert!(
            slow.mean_ns > fast.mean_ns + 150_000.0,
            "synthetic latency must dominate: slow={} fast={}",
            slow.mean_ns,
            fast.mean_ns
        );
    }

    #[test]
    fn bind_then_invoke_matches_string_invoke_across_the_boundary() {
        let mut e = upcalled();
        let id = e.bind_entry("add").unwrap();
        assert_eq!(e.bind_entry("add").unwrap(), id, "cached bind is stable");
        assert_eq!(e.invoke_id(id, &[20, 22]).unwrap(), 42);
        assert_eq!(e.invoke("add", &[20, 22]).unwrap(), 42);
        assert!(e.bind_entry("missing").is_err());

        let buf = e.bind_region("buf").unwrap();
        assert_eq!(e.bind_region("buf").unwrap(), buf);
        e.load_region_id(buf, 1, &[5, 6]).unwrap();
        assert_eq!(e.read_region_id(buf, 2).unwrap(), 6);
        e.write_region_id(buf, 3, 7).unwrap();
        let mut out = [0i64; 3];
        e.read_region_slice_id(buf, 1, &mut out).unwrap();
        assert_eq!(out, [5, 6, 7]);
        assert!(e.bind_region("nope").is_err());
    }

    #[test]
    fn snapshot_and_restore_ship_the_region_over_the_wire() {
        let mut e = upcalled();
        let buf = e.bind_region("buf").unwrap();
        e.load_region_id(buf, 0, &[11, -22, i64::MAX, 44]).unwrap();
        assert_eq!(e.region_len(buf).unwrap(), 4);
        let snap = e.snapshot_region(buf).unwrap();
        assert_eq!(snap, [11, -22, i64::MAX, 44]);
        e.load_region_id(buf, 0, &[0, 0, 0, 0]).unwrap();
        e.restore_region(buf, &snap).unwrap();
        assert_eq!(e.snapshot_region(buf).unwrap(), snap);
        // Partial restores are rejected before any write.
        assert!(e.restore_region(buf, &[1, 2]).is_err());
        assert_eq!(e.snapshot_region(buf).unwrap(), snap);
        // Stale handles fail cleanly on both paths.
        assert!(e.snapshot_region(RegionId(7)).is_err());
        assert!(e.region_len(RegionId(7)).is_err());
    }

    #[test]
    fn stale_handles_trap_across_the_boundary() {
        let mut e = upcalled();
        let err = e.invoke_id(EntryId(44), &[]).unwrap_err();
        assert!(matches!(
            err.as_trap(),
            Some(Trap::BadHandle { kind: "entry", id: 44 })
        ));
        let err = e.read_region_id(RegionId(33), 0).unwrap_err();
        assert!(matches!(
            err.as_trap(),
            Some(Trap::BadHandle { kind: "region", id: 33 })
        ));
    }

    #[test]
    fn batched_invoke_runs_many_calls_per_round_trip() {
        let mut e = upcalled();
        let id = e.bind_entry("add").unwrap();
        let mut out = Vec::new();
        e.invoke_batch(id, 3, &[1, 2, 10, 20, 100, 200], &mut out)
            .unwrap();
        assert_eq!(out, [3, 30, 300]);
        // A malformed shape fails on the client side without crossing.
        let mut out2 = Vec::new();
        assert!(e.invoke_batch(id, 2, &[1, 2, 3], &mut out2).is_err());
        assert!(out2.is_empty());
    }

    #[test]
    fn batched_invoke_returns_the_completed_prefix_on_trap() {
        let src = "fn inv(d: int) -> int { return 100 / d; }";
        let inner = load_grail(src, &[], SafetyMode::Safe { nil_checks: true }).unwrap();
        let mut e = UpcallEngine::new(Box::new(inner));
        let id = e.bind_entry("inv").unwrap();
        let mut out = Vec::new();
        let err = e.invoke_batch(id, 4, &[1, 2, 0, 4], &mut out).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::DivByZero));
        assert_eq!(out, [100, 50], "prefix before the faulting call");
    }

    #[test]
    fn fork_rehosts_a_replica_behind_its_own_server() {
        let mut parent = upcalled();
        let add = parent.bind_entry("add").unwrap();
        parent.load_region("buf", 1, &[7]).unwrap();

        let mut child = parent.fork_for_shard(2).unwrap();
        assert_eq!(child.technology(), Technology::UserLevel);
        // Parent-issued handles keep their meaning in the replica.
        assert_eq!(child.invoke_id(add, &[40, 2]).unwrap(), 42);
        // Install-time marshalled state propagated across the fork...
        assert_eq!(child.read_region("buf", 1).unwrap(), 7);
        // ...and post-fork writes are shard-local (the `add` above wrote
        // buf[0]=42 in the child only).
        assert_eq!(parent.read_region("buf", 0).unwrap(), 0);
        // Both boundaries stay live and independent.
        assert_eq!(parent.invoke("add", &[1, 2]).unwrap(), 3);
        assert_eq!(child.invoke("add", &[2, 3]).unwrap(), 5);
    }

    #[test]
    fn batched_measurement_is_cheaper_per_call_than_single() {
        let mut e = upcalled();
        let id = e.bind_entry("spin").unwrap();
        let single = e.measure_roundtrip(400);
        let batched = e.measure_batched_noop(id, 64, 400);
        assert!(
            batched.min_ns < single.min_ns,
            "batching must amortize the round trip: batched={} single={}",
            batched.min_ns,
            single.min_ns
        );
    }

    impl UpcallEngine {
        /// Test helper: batched measurement against `spin(0)`-style
        /// 1-arg entry with constant argument 0.
        fn measure_batched_noop(
            &mut self,
            entry: EntryId,
            batch: usize,
            roundtrips: usize,
        ) -> crate::stats::Sample {
            let args = vec![0i64; batch];
            let mut out = Vec::with_capacity(batch);
            crate::stats::measure_per_iter(10, roundtrips, || {
                out.clear();
                let _ = self.invoke_batch(entry, batch, &args, &mut out);
            })
            .per(batch)
        }
    }
}
