//! Quarantine postmortems: what the supervisor knew when it detached.
//!
//! Every quarantine trip (including the re-quarantine of a probationer
//! and the final trip that bans a graft at the backoff ceiling) captures
//! a [`PostmortemReport`]: the graft's identity and technology, the
//! trap that tripped the supervisor, the full [`GraftLedger`] with its
//! per-kind trap counts, the backoff-ladder position, the salvage
//! outcome, and — when the flight recorder is armed — the tail of the
//! graft's most recent [`TraceEvent`]s, so the exact invocations that
//! led to the detach can be replayed from the artifact alone.
//!
//! Reports are host state, not telemetry: they are captured even when
//! recording is off (their event tail is then empty), survive
//! `--no-telemetry`, and are embedded in the run artifact next to the
//! metrics snapshot. `graftstat postmortem` renders them.

use graft_api::{GraftLedger, Technology, TrapKind};
use graft_telemetry::json::Json;
use graft_telemetry::TraceEvent;

use crate::host::GraftState;
use crate::point::AttachPoint;

/// How many of the graft's most recent trace events a report retains.
pub const POSTMORTEM_TAIL: usize = 32;

/// Everything the supervisor knew about a graft at the moment it
/// detached (or banned) it.
#[derive(Debug, Clone)]
pub struct PostmortemReport {
    /// The name the graft was installed under.
    pub graft: String,
    /// Host-assigned graft id (`GraftId.0`).
    pub graft_id: u64,
    /// The technology the graft ran under.
    pub tech: Technology,
    /// The trap kind that tripped the supervisor.
    pub reason: TrapKind,
    /// Lifecycle state immediately after the trip (`Quarantined` or
    /// `Banned`).
    pub state: GraftState,
    /// The graft's full resource ledger at detach time.
    pub ledger: GraftLedger,
    /// Trapped invocations since the last (re-)admission.
    pub strikes: u32,
    /// Lifetime quarantine trips including this one.
    pub quarantines: u32,
    /// Dispatches the backoff ladder will serve without this graft
    /// before re-admitting it (0 when the ladder is disarmed).
    pub backoff_remaining: u64,
    /// Words the supervisor salvaged out of the detached engine, or
    /// `None` when there was no salvage plan or salvage failed.
    pub salvaged_words: Option<usize>,
    /// The graft's most recent trace events, oldest first — at most
    /// [`POSTMORTEM_TAIL`], empty unless the flight recorder was
    /// recording.
    pub events: Vec<TraceEvent>,
    /// Monotonic capture timestamp (ns since the telemetry epoch); 0
    /// when telemetry is compiled out.
    pub detached_at_ns: u64,
    /// Worker shard that won the detach race (0 on a 1-shard host).
    pub shard: u32,
}

impl PostmortemReport {
    /// Replaces the event tail with this graft's events from a merged
    /// (cross-shard) timeline: a shard-local report only sees the
    /// winner's buffer, while traps may have landed on other shards.
    pub fn adopt_tail(&mut self, timeline: &[TraceEvent]) {
        let id = self.graft_id;
        let mut tail: Vec<TraceEvent> = timeline.iter().filter(|e| e.graft == id).copied().collect();
        if tail.len() > POSTMORTEM_TAIL {
            tail.drain(..tail.len() - POSTMORTEM_TAIL);
        }
        self.events = tail;
    }

    /// Replaces the ledger with a fresher snapshot: a shard-local
    /// report only sees what the winning shard had flushed at detach
    /// time, while the other shards' local ledgers merge into the
    /// shared totals at their next flush.
    pub fn adopt_ledger(&mut self, ledger: GraftLedger) {
        self.ledger = ledger;
    }

    /// The trapped invocations in the event tail, oldest first — the
    /// acceptance check for "the tail reconstructs the detach".
    pub fn trapped_events(&self) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.verdict == graft_telemetry::TRACE_VERDICT_TRAP)
            .copied()
            .collect()
    }

    /// Serializes the report for the run artifact.
    pub fn to_json(&self) -> Json {
        let mut ledger = Json::object();
        ledger
            .set("invocations", self.ledger.invocations)
            .set("traps", self.ledger.traps)
            .set("cum_ns", self.ledger.cum_ns)
            .set("fuel_used", self.ledger.fuel_used);
        let mut trap_counts = Json::object();
        for (kind, n) in self.ledger.trap_counts.nonzero() {
            trap_counts.set(kind.name(), n);
        }
        ledger.set("trap_counts", trap_counts);

        let mut doc = Json::object();
        doc.set("graft", self.graft.as_str())
            .set("graft_id", self.graft_id)
            .set("tech", self.tech.paper_name())
            .set("reason", self.reason.name())
            .set("state", state_name(self.state))
            .set("ledger", ledger)
            .set("strikes", u64::from(self.strikes))
            .set("quarantines", u64::from(self.quarantines))
            .set("backoff_remaining", self.backoff_remaining)
            .set(
                "salvaged_words",
                match self.salvaged_words {
                    Some(w) => Json::Num(w as f64),
                    None => Json::Null,
                },
            )
            .set(
                "events",
                Json::Arr(self.events.iter().map(trace_event_json).collect()),
            )
            .set("detached_at_ns", self.detached_at_ns)
            .set("shard", u64::from(self.shard));
        doc
    }
}

fn state_name(state: GraftState) -> &'static str {
    match state {
        GraftState::Active => "active",
        GraftState::Probation { .. } => "probation",
        GraftState::Quarantined { .. } => "quarantined",
        GraftState::Banned => "banned",
    }
}

/// Serializes one flight-recorder event (shared by the artifact's
/// `metrics.traces` array and postmortem tails).
pub fn trace_event_json(e: &TraceEvent) -> Json {
    let mut doc = Json::object();
    doc.set("ts_ns", e.ts_ns)
        .set("trace", e.trace.0)
        .set("seq", u64::from(e.seq))
        .set("graft", e.graft)
        .set(
            "shard",
            match e.shard {
                graft_telemetry::TRACE_SHARD_UPCALL => Json::Str("upcall-server".into()),
                s => Json::Num(f64::from(s)),
            },
        )
        .set("point", point_name(e.point))
        .set(
            "tech",
            Technology::ALL
                .get(e.tech as usize)
                .map(|t| Json::Str(t.paper_name().into()))
                .unwrap_or(Json::Null),
        )
        .set("verdict", verdict_name(e.verdict))
        .set("value", Json::Num(e.value as f64))
        .set("duration_ns", e.duration_ns)
        .set("fuel", e.fuel);
    doc
}

fn point_name(point: u8) -> Json {
    AttachPoint::ALL
        .get(point as usize)
        .map(|p| Json::Str(p.name().into()))
        .unwrap_or(Json::Null)
}

fn verdict_name(verdict: u8) -> Json {
    Json::Str(
        match verdict {
            graft_telemetry::TRACE_VERDICT_CONTINUE => "continue",
            graft_telemetry::TRACE_VERDICT_OVERRIDE => "override",
            graft_telemetry::TRACE_VERDICT_TRAP => "trap",
            graft_telemetry::TRACE_VERDICT_MARSHAL_FAIL => "marshal_fail",
            graft_telemetry::TRACE_VERDICT_SERVER => "server",
            _ => "unknown",
        }
        .into(),
    )
}
