//! Observability for the graft stack: near-zero-cost counters,
//! log-scaled latency histograms, RAII span timing, and the
//! machine-readable run-artifact encoding.
//!
//! # Design
//!
//! The paper's argument is quantitative, so the instrumentation must not
//! disturb the numbers it reports. Three layers keep it honest:
//!
//! 1. **Compile-time:** everything is behind the `telemetry` cargo
//!    feature. With the feature off, [`counter!`], [`histogram!`], and
//!    [`span!`] expand to no-ops and the whole crate is a handful of
//!    empty inline functions — the dispatch loops compile exactly as
//!    they would without this crate.
//! 2. **Runtime:** a global toggle ([`set_enabled`]) gates every record
//!    on one relaxed atomic load, so `--no-telemetry` runs pay a
//!    predictable, branch-predicted test and nothing else.
//! 3. **Hot-path discipline:** per-iteration work (bytecode dispatch,
//!    SFI masked accesses) is accumulated in plain locals by the engines
//!    and *flushed* to the sharded counters once per invocation, never
//!    per instruction.
//!
//! Counters are sharded across cache-line-padded atomics to keep
//! cross-thread increments (the upcall server) from bouncing a single
//! line. Histograms use bounded-error log-linear buckets over
//! nanoseconds — each power-of-two octave is subdivided into
//! [`HIST_SUBS`] linear sub-buckets, so every quantile (p50 through
//! p999) is reported within ~3% relative error while the whole range
//! 1 ns .. 2⁶³ ns still fits in [`HIST_BUCKETS`] slots. Spans time a
//! scope via RAII and feed both a histogram (`span.<name>`) and a
//! bounded in-memory event ring for post-mortem inspection.
//!
//! The *flight recorder* ([`TraceBuffer`], [`TraceEvent`], [`TraceId`])
//! extends the same discipline to individual dispatches: hosts keep a
//! thread-confined ring of fixed-size trace events (no atomics, no
//! locks on the record path) and flush them to a bounded global ring
//! off the hot path. Overflow is never silent — every overwritten
//! unflushed event counts into `telemetry.trace.dropped`.
//!
//! [`snapshot`] freezes everything into a [`MetricsSnapshot`] that the
//! run-artifact writer embeds in its JSON output; [`json`] is the
//! hand-rolled (dependency-free) JSON used for that artifact.

pub mod json;

#[cfg(feature = "telemetry")]
mod imp;

#[cfg(feature = "telemetry")]
pub use imp::*;

#[cfg(not(feature = "telemetry"))]
mod noop;

#[cfg(not(feature = "telemetry"))]
pub use noop::*;

// ---------------------------------------------------------------------
// Log-linear bucket scheme
// ---------------------------------------------------------------------

/// Linear sub-buckets per power-of-two octave, as a shift.
pub const HIST_SUB_BITS: u32 = 5;

/// Linear sub-buckets per octave (32): bounds every bucket's relative
/// width at `1/32` ≈ 3.1%, so any quantile read from bucket edges is
/// within that of the true value — the p999 accuracy bound.
pub const HIST_SUBS: usize = 1 << HIST_SUB_BITS;

/// Total log-linear buckets: values below [`HIST_SUBS`] get one exact
/// bucket each; every octave `2^k .. 2^(k+1)` above that gets
/// [`HIST_SUBS`] linear sub-buckets, covering 1 ns .. 2⁶³ ns.
pub const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize + 1) * HIST_SUBS;

/// The bucket a value lands in. Values below [`HIST_SUBS`] are exact;
/// larger values index `(octave, linear sub-position)`.
#[inline]
pub fn hist_bucket_index(value: u64) -> usize {
    let msb = 63 - (value | 1).leading_zeros();
    if msb < HIST_SUB_BITS {
        return value as usize;
    }
    let sub = ((value >> (msb - HIST_SUB_BITS)) as usize) & (HIST_SUBS - 1);
    ((msb - HIST_SUB_BITS + 1) as usize) * HIST_SUBS + sub
}

/// Inclusive lower bound of a bucket.
#[inline]
pub fn hist_bucket_lower(index: u32) -> u64 {
    let index = (index as usize).min(HIST_BUCKETS - 1);
    if index < HIST_SUBS {
        return index as u64;
    }
    let msb = (index / HIST_SUBS) as u32 + HIST_SUB_BITS - 1;
    let sub = (index % HIST_SUBS) as u64;
    (1u64 << msb) + (sub << (msb - HIST_SUB_BITS))
}

/// Width of a bucket (1 for the exact low range).
#[inline]
pub fn hist_bucket_width(index: u32) -> u64 {
    let index = (index as usize).min(HIST_BUCKETS - 1);
    if index < HIST_SUBS {
        return 1;
    }
    let msb = (index / HIST_SUBS) as u32 + HIST_SUB_BITS - 1;
    1u64 << (msb - HIST_SUB_BITS)
}

/// A frozen view of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (ns for latency histograms).
    pub sum: u64,
    /// Non-empty log-linear buckets as `(bucket_index, count)`; see
    /// [`hist_bucket_index`] / [`hist_bucket_lower`].
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in 0..=1), interpolated inside the
    /// bucket holding the rank. Bounded error: a bucket's relative
    /// width is at most `1/HIST_SUBS` (~3.1%), and values below
    /// [`HIST_SUBS`] are exact.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(bucket, n) in &self.buckets {
            if seen + n >= rank {
                let lower = hist_bucket_lower(bucket) as f64;
                let width = hist_bucket_width(bucket) as f64;
                let into = (rank - seen) as f64 / n as f64;
                return lower + width * into;
            }
            seen += n;
        }
        let last = self.buckets.last().map(|b| b.0).unwrap_or(0);
        (hist_bucket_lower(last) + hist_bucket_width(last)) as f64
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile — the tail Table 11's per-tenant SLO needs.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

// ---------------------------------------------------------------------
// Flight-recorder trace types (shared by imp and noop)
// ---------------------------------------------------------------------

/// Default capacity of a per-thread [`TraceBuffer`] ring.
pub const TRACE_BUFFER_CAPACITY: usize = 1024;

/// Capacity of the global trace ring flushed buffers merge into.
pub const TRACE_RING_CAPACITY: usize = 4096;

/// `TraceEvent::shard` sentinel: recorded by an upcall server thread on
/// the far side of the wire.
pub const TRACE_SHARD_UPCALL: u32 = u32::MAX - 1;

/// `TraceEvent::verdict`: the graft declined (chain continues).
pub const TRACE_VERDICT_CONTINUE: u8 = 0;
/// `TraceEvent::verdict`: the graft decided; `value` is the decision.
pub const TRACE_VERDICT_OVERRIDE: u8 = 1;
/// `TraceEvent::verdict`: the invocation trapped; `value` is the
/// trap-kind index.
pub const TRACE_VERDICT_TRAP: u8 = 2;
/// `TraceEvent::verdict`: the kernel-side marshal failed before the
/// graft ran.
pub const TRACE_VERDICT_MARSHAL_FAIL: u8 = 3;
/// `TraceEvent::verdict`: server-side handling of a propagated trace
/// context (the upcall wire's half of a dispatch).
pub const TRACE_VERDICT_SERVER: u8 = 4;

/// Causal identity of one kernel dispatch.
///
/// Minted once per dispatch by the host that runs the chain walk and
/// threaded through every invocation it causes — including across the
/// upcall wire. The zero value ([`TraceId::NONE`]) means "untraced".
/// Layout: the high 16 bits carry `source + 1` (a shard index, or 0
/// for the scalar host), the low 48 bits a per-source sequence number,
/// so ids are unique across shards without any shared atomic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The untraced sentinel.
    pub const NONE: TraceId = TraceId(0);

    /// Mints the `seq`-th id of `source` (never equal to [`NONE`]).
    ///
    /// [`NONE`]: TraceId::NONE
    #[inline]
    pub fn mint(source: u16, seq: u64) -> TraceId {
        TraceId(((source as u64 + 1) << 48) | (seq & ((1u64 << 48) - 1)))
    }

    /// Whether this is the untraced sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The source (shard) that minted this id.
    pub fn source(self) -> u16 {
        ((self.0 >> 48) as u16).wrapping_sub(1)
    }

    /// The per-source sequence number.
    pub fn seq(self) -> u64 {
        self.0 & ((1u64 << 48) - 1)
    }
}

/// One fixed-size flight-recorder record: a single graft invocation
/// (or server-side handling) attributed to a dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic timestamp, ns since the telemetry epoch.
    pub ts_ns: u64,
    /// The dispatch this invocation belongs to.
    pub trace: TraceId,
    /// Position within the dispatch (chain index); server-side events
    /// continue the numbering past the kernel's.
    pub seq: u32,
    /// Graft id (`GraftId.0`), 0 when unknown (server side).
    pub graft: u64,
    /// Worker shard index, or a `TRACE_SHARD_*` sentinel.
    pub shard: u32,
    /// Attach point (`AttachPoint as usize`), `u8::MAX` when unknown.
    pub point: u8,
    /// Technology index in `Technology::ALL` order.
    pub tech: u8,
    /// One of the `TRACE_VERDICT_*` codes.
    pub verdict: u8,
    /// Override value, trap-kind index, or 0 — see `verdict`.
    pub value: i64,
    /// Invocation duration in ns.
    pub duration_ns: u64,
    /// Fuel consumed, 0 when the engine does not meter.
    pub fuel: u64,
}

impl TraceEvent {
    /// The causal sort key: timestamp, then dispatch, then position —
    /// per-`TraceId` happens-before is preserved under any stable merge
    /// because `seq` increases within a dispatch and timestamps are
    /// process-monotonic.
    #[inline]
    pub fn key(&self) -> (u64, u64, u32) {
        (self.ts_ns, self.trace.0, self.seq)
    }

    /// The host-independent view of an event: what the dispatch *did*
    /// (graft-relative identity is carried by the caller). Timestamps,
    /// trace ids, shard placement, and durations all differ between a
    /// scalar and a sharded run of the same program; point, technology,
    /// verdict, and decision value must not.
    #[inline]
    pub fn semantics(&self) -> (u8, u8, u8, i64) {
        (self.point, self.tech, self.verdict, self.value)
    }
}

/// Merges per-thread (per-shard) trace buffers into one causally
/// ordered timeline: sorted by [`TraceEvent::key`], so events of one
/// dispatch stay in invocation order and cross-thread events interleave
/// by monotonic time.
pub fn merge_timelines<I>(parts: I) -> Vec<TraceEvent>
where
    I: IntoIterator<Item = Vec<TraceEvent>>,
{
    let mut all: Vec<TraceEvent> = parts.into_iter().flatten().collect();
    all.sort_by_key(TraceEvent::key);
    all
}

/// One recorded span event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name.
    pub name: &'static str,
    /// Start, nanoseconds since process start (monotonic).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
}

/// A frozen view of every metric: what the run artifact embeds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Every registered histogram, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
    /// The most recent span events, oldest first.
    pub spans: Vec<SpanEvent>,
    /// The most recent flushed trace events, oldest first.
    pub traces: Vec<TraceEvent>,
}

impl MetricsSnapshot {
    /// The value of a counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// The snapshot of a histogram, `None` when absent.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Number of distinct metrics (counters + histograms) carrying data.
    pub fn distinct_nonzero(&self) -> usize {
        self.counters.iter().filter(|&&(_, v)| v > 0).count()
            + self.histograms.iter().filter(|h| h.count > 0).count()
    }
}
