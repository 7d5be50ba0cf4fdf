//! The drain-worker plane: real threads behind `take_handles`.
//!
//! [`GraftServer::spawn_workers`] moves the server's [`ShardHandle`]s
//! onto N OS threads — one worker per shard, exactly the ownership
//! split `ShardedHost::take_handles` was designed for. Each worker
//! loops the invoke half ([`invoke_shard`](crate::server)): take a
//! steal-aware batch for its shard, run the grafts on its own
//! thread-confined handle, and push completions into the shared
//! lock-free [`CompletionQueue`](crate::cq::CompletionQueue). The pump
//! thread keeps sole ownership of admission and completion processing
//! ([`GraftServer::reap`]), so no tenant or connection state is ever
//! touched from two threads.
//!
//! State partition, for the record:
//! * **epoch-published** (host control plane): installs, detaches,
//!   re-admissions — workers observe them at their next handle sync;
//! * **atomic** (shared planes): run queues, completion queue, ledger
//!   scoreboards, the shutdown flag;
//! * **thread-confined**: each worker's `ShardHandle` (graft replicas,
//!   warm state), and everything else in `GraftServer` on the pump.
//!
//! An idle worker spins on the plane's lock-free depth probes for
//! `SPIN_WINDOW`, then parks ([`RunQueues::idle_wait`]). The pump's
//! push of a staged run unparks the worker of the shard it filled (and,
//! with stealing on, one parked worker of another shard when it leaves
//! a backlog to steal from), so a parked worker costs nothing until
//! work arrives, and a worker that is still spinning picks up the next
//! request without a wake.
//!
//! Shutdown is cooperative and loss-free: [`WorkerPlane::join`] raises
//! the flag and unparks every worker, and a worker exits only once the
//! flag is up *and* nothing is left that it could take, so every
//! admitted job is invoked before the handles come home.
//!
//! [`RunQueues::idle_wait`]: graft_kernel::RunQueues::idle_wait

use crate::server::{invoke_shard, GraftServer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle worker spins on the depth probes before it parks.
/// It spans a few of the 10 µs gaps between requests of a 100k req/s
/// stream, so a steadily fed worker never parks, and it is short
/// enough that workers outnumbering cores hand the pump its core back
/// soon after the work runs out.
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// Counters one drain worker publishes when it exits.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// The shard (and handle) this worker owned.
    pub shard: usize,
    /// Jobs this worker invoked.
    pub served: u64,
    /// Non-empty batches taken.
    pub batches: u64,
    /// Idle waits: times the worker found nothing to take and entered
    /// its spin window.
    pub idle_spins: u64,
    /// Idle waits whose spin window ran out, so the worker parked.
    pub parks: u64,
}

/// A running set of drain workers. Must be [`join`](Self::join)ed back
/// into the server before any single-threaded executor path
/// (`drain`/`drain_all`) is used again.
pub struct WorkerPlane {
    threads: Vec<JoinHandle<(graft_kernel::ShardHandle, WorkerStats)>>,
    shutdown: Arc<AtomicBool>,
}

impl GraftServer {
    /// Spawns one drain worker per shard. While the plane runs, this
    /// thread (the pump) keeps feeding admission via
    /// [`pump`](Self::pump) and must call [`reap`](Self::reap) to
    /// process completions; `drain`/`drain_all` would panic (the
    /// handles are on the workers).
    pub fn spawn_workers(&mut self) -> WorkerPlane {
        let (handles, queues, completions, fuel_metered) = self.worker_parts();
        let shutdown = Arc::new(AtomicBool::new(false));
        let threads = handles
            .into_iter()
            .map(|mut handle| {
                let queues = queues.clone();
                let completions = Arc::clone(&completions);
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || {
                    let shard = handle.shard();
                    let mut stats = WorkerStats {
                        shard,
                        ..WorkerStats::default()
                    };
                    let mut batch = Vec::new();
                    loop {
                        let n = invoke_shard(shard, &mut handle, &queues, &completions, &mut batch);
                        if n > 0 {
                            stats.served += n as u64;
                            stats.batches += 1;
                            // Fuel metering reads the shared ledgers on
                            // the pump; keep them no staler than one
                            // batch.
                            if fuel_metered {
                                handle.flush();
                            }
                            continue;
                        }
                        if shutdown.load(Ordering::Acquire) {
                            // Nothing is pushed after shutdown, so no
                            // wake would come: never park again. Exit
                            // once nothing is left this worker can take
                            // (with stealing on, that covers the other
                            // shards' queues too).
                            if !queues.has_work(shard) {
                                break;
                            }
                            std::hint::spin_loop();
                            continue;
                        }
                        stats.idle_spins += 1;
                        if queues.idle_wait(shard, SPIN_WINDOW) {
                            stats.parks += 1;
                        }
                    }
                    handle.flush();
                    (handle, stats)
                })
            })
            .collect();
        WorkerPlane { threads, shutdown }
    }
}

impl WorkerPlane {
    /// How many workers are running.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Signals shutdown, waits for every worker to drain and exit,
    /// returns the handles to the server, and processes any remaining
    /// completions. Returns the per-worker counters (also published as
    /// `server.workers.*` telemetry).
    pub fn join(self, server: &mut GraftServer) -> Vec<WorkerStats> {
        self.shutdown.store(true, Ordering::Release);
        // A worker parked before it saw the flag sleeps until unparked;
        // one about to park returns at once (the token is kept).
        for t in &self.threads {
            t.thread().unpark();
        }
        let mut returned: Vec<(graft_kernel::ShardHandle, WorkerStats)> = self
            .threads
            .into_iter()
            .map(|t| t.join().expect("drain worker panicked"))
            .collect();
        returned.sort_by_key(|(handle, _)| handle.shard());
        let mut stats = Vec::with_capacity(returned.len());
        let mut handles = Vec::with_capacity(returned.len());
        for (handle, s) in returned {
            handles.push(handle);
            stats.push(s);
        }
        server.restore_handles(handles);
        // Everything the workers invoked is now processed serially.
        server.reap();
        graft_telemetry::counter!("server.workers").add(stats.len() as u64);
        for s in &stats {
            graft_telemetry::counter!("server.workers.served").add(s.served);
            graft_telemetry::counter!("server.workers.batches").add(s.batches);
            graft_telemetry::counter!("server.workers.idle_spins").add(s.idle_spins);
            graft_telemetry::counter!("server.workers.parks").add(s.parks);
        }
        stats
    }
}
