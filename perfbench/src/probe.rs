//! Tracing from outside the program: a forwarding engine wrapper that
//! times the calls into an engine, and an in-memory span log.
//!
//! Nothing here reaches into a crate: every span brackets a call the
//! benchmark (or the wrapper it installed) makes through a public
//! function. Spans are kept in memory and written out when the run ends.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use graft_api::{EntryId, ExtensionEngine, GraftError, RegionId, Technology};

/// Nanoseconds since the first call in this process: the time base of
/// every span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Spans one operation can leave in a [`Tap`] before the benchmark
/// drains it; calls beyond this still count in the totals.
const TAP_SLOTS: usize = 64;

/// What a [`Tapped`] engine call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `invoke_id` / `invoke_batch`: engine time.
    Invoke,
    /// `load_region_id`: marshalling into the graft's regions.
    Load,
}

/// Where a [`Tapped`] engine reports its calls: running engine totals
/// (readable from another thread) plus the spans of the current
/// operation. An inactive tap times nothing, so one set of engines can
/// serve both the traced and the untraced half of a run.
pub struct Tap {
    active: AtomicBool,
    invoke_ns: AtomicU64,
    invokes: AtomicU64,
    used: AtomicUsize,
    slots: [(AtomicU64, AtomicU64, AtomicU64); TAP_SLOTS],
}

impl Tap {
    /// A fresh tap.
    pub fn new() -> Arc<Tap> {
        Arc::new(Tap {
            active: AtomicBool::new(true),
            invoke_ns: AtomicU64::new(0),
            invokes: AtomicU64::new(0),
            used: AtomicUsize::new(0),
            slots: std::array::from_fn(|_| {
                (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0))
            }),
        })
    }

    /// Starts or stops timing.
    pub fn set_active(&self, on: bool) {
        self.active.store(on, Ordering::Relaxed);
    }

    // Relaxed throughout: the counters publish no other data. The serve
    // pump reads the worker's totals while it runs, and a stale read
    // there only shifts a few calls between the two traced halves.
    fn record(&self, kind: CallKind, start: u64, end: u64) {
        if kind == CallKind::Invoke {
            self.invoke_ns
                .fetch_add(end.saturating_sub(start), Ordering::Relaxed);
            self.invokes.fetch_add(1, Ordering::Relaxed);
        }
        let i = self.used.fetch_add(1, Ordering::Relaxed);
        if let Some((s, e, k)) = self.slots.get(i) {
            s.store(start, Ordering::Relaxed);
            e.store(end, Ordering::Relaxed);
            k.store(kind as u64, Ordering::Relaxed);
        }
    }

    /// Total `(invoke_ns, invokes)` so far.
    pub fn invoke_totals(&self) -> (u64, u64) {
        (
            self.invoke_ns.load(Ordering::Relaxed),
            self.invokes.load(Ordering::Relaxed),
        )
    }

    /// Forgets the spans recorded since the last drain (calls made
    /// outside any measured operation, such as set-up marshalling).
    pub fn discard(&self) {
        self.used.store(0, Ordering::Relaxed);
    }

    /// Drains the spans recorded since the last drain into `log` as
    /// children of `parent` (invokes) and `marshal` (loads), and returns
    /// `(engine, load_region)` time, ns.
    pub fn drain_op(&self, log: &mut SpanLog, op: u64, parent: u32, marshal: u32) -> (u64, u64) {
        let n = self.used.swap(0, Ordering::Relaxed).min(TAP_SLOTS);
        let (mut invoke_ns, mut load_ns) = (0, 0);
        for (s, e, k) in &self.slots[..n] {
            let (start, end) = (s.load(Ordering::Relaxed), e.load(Ordering::Relaxed));
            if k.load(Ordering::Relaxed) == CallKind::Invoke as u64 {
                invoke_ns += end - start;
                log.push("engine.invoke", start, end, parent, op);
            } else {
                load_ns += end - start;
                log.push("grafts.load_region", start, end, marshal, op);
            }
        }
        (invoke_ns, load_ns)
    }
}

/// A forwarding [`ExtensionEngine`] that times `invoke_id`,
/// `invoke_batch` and `load_region_id` into a [`Tap`] and passes every
/// other call straight through.
pub struct Tapped {
    inner: Box<dyn ExtensionEngine>,
    tap: Arc<Tap>,
}

impl Tapped {
    /// Wraps `inner`, reporting into `tap`.
    pub fn wrap(inner: Box<dyn ExtensionEngine>, tap: &Arc<Tap>) -> Box<dyn ExtensionEngine> {
        Box::new(Tapped {
            inner,
            tap: Arc::clone(tap),
        })
    }

    fn timed<R>(&mut self, kind: CallKind, f: impl FnOnce(&mut dyn ExtensionEngine) -> R) -> R {
        if !self.tap.active.load(Ordering::Relaxed) {
            return f(self.inner.as_mut());
        }
        let start = now_ns();
        let out = f(self.inner.as_mut());
        self.tap.record(kind, start, now_ns());
        out
    }
}

impl ExtensionEngine for Tapped {
    fn technology(&self) -> Technology {
        self.inner.technology()
    }

    fn bind_entry(&mut self, entry: &str) -> Result<EntryId, GraftError> {
        self.inner.bind_entry(entry)
    }

    fn bind_region(&self, name: &str) -> Result<RegionId, GraftError> {
        self.inner.bind_region(name)
    }

    fn invoke_id(&mut self, entry: EntryId, args: &[i64]) -> Result<i64, GraftError> {
        self.timed(CallKind::Invoke, |e| e.invoke_id(entry, args))
    }

    fn invoke_batch(
        &mut self,
        entry: EntryId,
        calls: usize,
        args_flat: &[i64],
        out: &mut Vec<i64>,
    ) -> Result<(), GraftError> {
        self.timed(CallKind::Invoke, |e| {
            e.invoke_batch(entry, calls, args_flat, out)
        })
    }

    fn load_region_id(
        &mut self,
        id: RegionId,
        offset: usize,
        data: &[i64],
    ) -> Result<(), GraftError> {
        self.timed(CallKind::Load, |e| e.load_region_id(id, offset, data))
    }

    fn read_region_id(&self, id: RegionId, index: usize) -> Result<i64, GraftError> {
        self.inner.read_region_id(id, index)
    }

    fn write_region_id(
        &mut self,
        id: RegionId,
        index: usize,
        value: i64,
    ) -> Result<(), GraftError> {
        self.inner.write_region_id(id, index, value)
    }

    fn read_region_slice_id(
        &self,
        id: RegionId,
        offset: usize,
        out: &mut [i64],
    ) -> Result<(), GraftError> {
        self.inner.read_region_slice_id(id, offset, out)
    }

    fn region_len(&self, id: RegionId) -> Result<usize, GraftError> {
        self.inner.region_len(id)
    }

    fn set_fuel(&mut self, fuel: Option<u64>) {
        self.inner.set_fuel(fuel);
    }

    fn fuel_used(&self) -> Option<u64> {
        self.inner.fuel_used()
    }

    fn fuel_metered(&self) -> bool {
        self.inner.fuel_metered()
    }

    fn fork_for_shard(&self, shard: usize) -> Result<Box<dyn ExtensionEngine>, GraftError> {
        Ok(Tapped::wrap(self.inner.fork_for_shard(shard)?, &self.tap))
    }
}

/// An engine that does no work: every invoke answers `0` at once. Hosted
/// at an attach point, it times the chain walk alone, independently of
/// the traced operations whose parts must add up to the whole.
#[derive(Debug, Clone)]
pub struct NullEngine {
    /// Whether it reports fuel use, as the engine it stands in for does
    /// (metering selects the host's per-call or fused batch path).
    metered: bool,
    fuel: Option<u64>,
}

impl NullEngine {
    /// A null engine that meters fuel iff `like` does.
    pub fn like(like: &dyn ExtensionEngine) -> Box<dyn ExtensionEngine> {
        Box::new(NullEngine {
            metered: like.fuel_metered(),
            fuel: None,
        })
    }

    fn no_regions(&self) -> GraftError {
        GraftError::Unavailable {
            graft: "null".into(),
            missing: "regions".into(),
        }
    }
}

impl ExtensionEngine for NullEngine {
    fn technology(&self) -> Technology {
        Technology::RustNative
    }

    fn bind_entry(&mut self, _entry: &str) -> Result<EntryId, GraftError> {
        Ok(EntryId(0))
    }

    fn bind_region(&self, _name: &str) -> Result<RegionId, GraftError> {
        Err(self.no_regions())
    }

    fn invoke_id(&mut self, _entry: EntryId, _args: &[i64]) -> Result<i64, GraftError> {
        Ok(0)
    }

    fn load_region_id(&mut self, _: RegionId, _: usize, _: &[i64]) -> Result<(), GraftError> {
        Err(self.no_regions())
    }

    fn read_region_id(&self, _: RegionId, _: usize) -> Result<i64, GraftError> {
        Err(self.no_regions())
    }

    fn write_region_id(&mut self, _: RegionId, _: usize, _: i64) -> Result<(), GraftError> {
        Err(self.no_regions())
    }

    fn read_region_slice_id(&self, _: RegionId, _: usize, _: &mut [i64]) -> Result<(), GraftError> {
        Err(self.no_regions())
    }

    fn region_len(&self, _: RegionId) -> Result<usize, GraftError> {
        Err(self.no_regions())
    }

    fn set_fuel(&mut self, fuel: Option<u64>) {
        self.fuel = fuel;
    }

    fn fuel_used(&self) -> Option<u64> {
        (self.metered && self.fuel.is_some()).then_some(0)
    }

    fn fork_for_shard(&self, _shard: usize) -> Result<Box<dyn ExtensionEngine>, GraftError> {
        Ok(Box::new(self.clone()))
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub name: &'static str,
    /// Start, ns on the [`now_ns`] clock.
    pub start: u64,
    /// End, ns on the same clock.
    pub end: u64,
    /// Index of the causing span, or [`SpanLog::ROOT`].
    pub parent: u32,
    /// The operation this span belongs to.
    pub op: u64,
}

/// Spans kept in memory for the whole run, up to a fixed capacity (the
/// overflow is counted, not stored).
pub struct SpanLog {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    next_op: u64,
}

impl SpanLog {
    /// Parent index of a span nothing caused.
    pub const ROOT: u32 = u32::MAX;

    /// A log that stores at most `cap` spans.
    pub fn with_capacity(cap: usize) -> Self {
        SpanLog {
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            dropped: 0,
            next_op: 0,
        }
    }

    /// A fresh operation id.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records a closed span; returns its index (or [`Self::ROOT`] when
    /// the log is full).
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, parent: u32, op: u64) -> u32 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return Self::ROOT;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Spans stored.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the log as tab-separated `index name start end parent op`
    /// lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# spans={} dropped={}", self.spans.len(), self.dropped)?;
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == Self::ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}
