//! A process-scheduling graft (Prioritization; the third §3.1 example).
//!
//! "Processes may wish to be scheduled as a group; a client-server
//! application may not want the server to be scheduled unless there is
//! an outstanding client request, in which case it should be scheduled
//! ahead of any client." This graft implements exactly that policy as
//! downloadable code, so the kernel's scheduler can delegate its pick
//! to the application.
//!
//! ## Region ABI
//!
//! * `cands` — the marshalled run queue: word 0 is the candidate count,
//!   then `(pid, priority, tag)` triples in queue (FIFO) order;
//! * `appst` — application state the graft may read: word 0 holds the
//!   number of outstanding client requests.
//!
//! Entry point: `pick(n) -> index` of the candidate to dispatch.

use graft_api::{
    ExtensionEngine, GraftClass, GraftError, GraftSpec, Motivation, NativeGraft, RegionId,
    RegionSpec, RegionStore,
};
use kernsim::sched::{Candidate, SchedPolicy};

/// Maximum runnable candidates the region can hold.
pub const MAX_CANDS: usize = 256;

/// Grail source: the paper's client/server policy.
pub const GRAIL: &str = r#"
// Candidates are (pid, priority, tag) triples; tag 1 marks the server.
// With a request outstanding the server runs ahead of any client;
// otherwise the idle server is skipped and clients run FIFO.

fn pick(n: int) -> int {
    let pending = appst[0];
    if pending > 0 {
        let i = 0;
        while i < n {
            if cands[1 + i * 3 + 2] == 1 {
                return i;
            }
            i = i + 1;
        }
    }
    let i = 0;
    while i < n {
        if cands[1 + i * 3 + 2] != 1 {
            return i;
        }
        i = i + 1;
    }
    return 0;
}
"#;

/// Tickle source for the same policy.
pub const TICKLE: &str = r#"
proc pick {n} {
    set pending [rload appst 0]
    if {$pending > 0} {
        for {set i 0} {$i < $n} {incr i} {
            if {[rload cands [expr 1 + $i * 3 + 2]] == 1} { return $i }
        }
    }
    for {set i 0} {$i < $n} {incr i} {
        if {[rload cands [expr 1 + $i * 3 + 2]] != 1} { return $i }
    }
    return 0
}
"#;

/// Native implementation of the same ABI.
#[derive(Debug, Default)]
pub struct NativeClientServer {
    cands: Option<RegionId>,
    appst: Option<RegionId>,
}

impl NativeGraft for NativeClientServer {
    fn call(
        &mut self,
        entry: &str,
        args: &[i64],
        regions: &mut RegionStore,
    ) -> Result<i64, GraftError> {
        if entry != "pick" {
            return Err(graft_api::engine::no_such_entry(entry));
        }
        let n = args[0] as usize;
        let cands_id = crate::region_id(&mut self.cands, regions, "cands")?;
        let appst_id = crate::region_id(&mut self.appst, regions, "appst")?;
        let pending = regions.region(appst_id).words()[0];
        let cands = regions.region(cands_id).words();
        let tag = |i: usize| cands[1 + i * 3 + 2];
        if pending > 0 {
            if let Some(i) = (0..n).find(|&i| tag(i) == 1) {
                return Ok(i as i64);
            }
        }
        Ok((0..n).find(|&i| tag(i) != 1).unwrap_or(0) as i64)
    }
}

/// The portable graft package.
pub fn spec() -> GraftSpec {
    GraftSpec::new(
        "client-server-scheduler",
        GraftClass::Prioritization,
        Motivation::Policy,
    )
    .region(RegionSpec::data("cands", 1 + 3 * MAX_CANDS))
    .region(RegionSpec::data("appst", 4))
    .entry("pick", 1)
    .with_grail(GRAIL)
    .with_tickle(TICKLE)
    .with_native(Box::new(|| Box::<NativeClientServer>::default()))
}

/// Adapter: plugs any loaded scheduling graft into
/// [`kernsim::sched::Scheduler`] as its policy, marshalling the run
/// queue on every dispatch.
pub struct GraftSchedPolicy {
    engine: Box<dyn ExtensionEngine>,
    /// Outstanding client requests, mirrored into `appst[0]`.
    pub pending_requests: i64,
}

impl GraftSchedPolicy {
    /// Wraps a loaded scheduler graft.
    pub fn new(engine: Box<dyn ExtensionEngine>) -> Self {
        GraftSchedPolicy {
            engine,
            pending_requests: 0,
        }
    }
}

impl SchedPolicy for GraftSchedPolicy {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        let n = candidates.len().min(MAX_CANDS);
        let mut words = vec![0i64; 1 + 3 * n];
        words[0] = n as i64;
        for (i, c) in candidates.iter().take(n).enumerate() {
            words[1 + i * 3] = c.pid as i64;
            words[1 + i * 3 + 1] = c.priority as i64;
            words[1 + i * 3 + 2] = c.tag;
        }
        let marshal = self
            .engine
            .load_region("cands", 0, &words)
            .and_then(|()| self.engine.write_region("appst", 0, self.pending_requests));
        if marshal.is_err() {
            return 0;
        }
        match self.engine.invoke("pick", &[n as i64]) {
            // A buggy or trapped graft falls back to FIFO, the same
            // containment stance the scheduler itself takes.
            Ok(i) if (i as usize) < candidates.len() => i as usize,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_bytecode::BytecodeEngine;
    use engine_native::{load_grail, SafetyMode};
    use engine_script::ScriptEngine;
    use kernsim::sched::Scheduler;

    fn cand(pid: u32, tag: i64) -> Candidate {
        Candidate {
            pid,
            priority: 0,
            vruntime: 0,
            tag,
        }
    }

    fn engines() -> Vec<Box<dyn ExtensionEngine>> {
        let spec = spec();
        let grail = spec.grail.as_ref().unwrap();
        let tickle = spec.tickle.as_ref().unwrap();
        vec![
            Box::new(load_grail(grail, &spec.regions, SafetyMode::Unchecked).unwrap()),
            Box::new(
                load_grail(grail, &spec.regions, SafetyMode::Safe { nil_checks: true }).unwrap(),
            ),
            Box::new(BytecodeEngine::load_grail(grail, &spec.regions).unwrap()),
            Box::new(ScriptEngine::load(tickle, &spec.regions).unwrap()),
            Box::new(
                graft_api::NativeEngine::new(&spec.regions, (spec.native.as_ref().unwrap())())
                    .unwrap(),
            ),
        ]
    }

    #[test]
    fn policy_matches_the_paper_description_across_technologies() {
        for engine in engines() {
            let tech = engine.technology();
            let mut sched = Scheduler::new(GraftSchedPolicy::new(engine));
            sched.enqueue(cand(10, 1)); // server
            sched.enqueue(cand(20, 0)); // client A
            sched.enqueue(cand(21, 0)); // client B

            // Idle server: clients run FIFO.
            assert_eq!(sched.dispatch(1).unwrap().pid, 20, "{tech}");
            sched.enqueue(cand(20, 0));

            // Request outstanding: server preempts all clients.
            sched.policy_mut().pending_requests = 1;
            assert_eq!(sched.dispatch(1).unwrap().pid, 10, "{tech}");

            // Request drained: back to clients.
            sched.policy_mut().pending_requests = 0;
            assert_eq!(sched.dispatch(1).unwrap().pid, 21, "{tech}");
        }
    }

    #[test]
    fn all_servers_queue_degenerates_to_fifo() {
        for engine in engines() {
            let mut sched = Scheduler::new(GraftSchedPolicy::new(engine));
            sched.enqueue(cand(1, 1));
            sched.enqueue(cand(2, 1));
            // No pending request and no client: the graft's fallback
            // returns index 0.
            assert_eq!(sched.dispatch(1).unwrap().pid, 1);
        }
    }

    #[test]
    fn graft_decisions_match_kernsim_builtin_policy() {
        // The downloadable policy must agree with the kernel's built-in
        // ClientServerPolicy on random mixes.
        use graft_rng::{Rng, SmallRng};
        use kernsim::sched::ClientServerPolicy;
        let mut rng = SmallRng::seed_from_u64(9);
        let spec = spec();
        let engine = load_grail(
            spec.grail.as_ref().unwrap(),
            &spec.regions,
            SafetyMode::Safe { nil_checks: true },
        )
        .unwrap();
        let mut graft = GraftSchedPolicy::new(Box::new(engine));
        let mut builtin = ClientServerPolicy::default();
        for _ in 0..200 {
            let n = rng.gen_range(1..8);
            let cands: Vec<Candidate> = (0..n)
                .map(|i| cand(i as u32 + 1, rng.gen_range(0..2)))
                .collect();
            let pending = rng.gen_range(0..3u32);
            graft.pending_requests = pending as i64;
            builtin.pending_requests = pending;
            assert_eq!(
                graft.pick(&cands),
                builtin.pick(&cands),
                "mix {cands:?} pending {pending}"
            );
        }
    }
}
