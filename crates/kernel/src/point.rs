//! Typed attach points: where the kernel consults its extension chains.

use graft_api::Verdict;
use std::fmt;

/// A kernel seam at which grafts may be installed.
///
/// Each point fixes the entry-point name and arity a graft must export
/// to attach there, and how a raw return value is decoded into a
/// [`Verdict`]. The five points cover the substrates the paper's
/// experiments exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum AttachPoint {
    /// VM pager eviction: `select_victim(lru_head, hot_head) -> page`.
    VmEvict = 0,
    /// Buffer-cache eviction: same entry ABI as [`AttachPoint::VmEvict`].
    CacheEvict = 1,
    /// Buffer-cache read-ahead: `ra_next(missed) -> block | -1`.
    CacheReadAhead = 2,
    /// Scheduler candidate pick: `pick(n) -> index`.
    SchedPick = 3,
    /// Logical-disk write path: `ld_write(logical) -> flushed(0/1)`.
    DiskWrite = 4,
}

impl AttachPoint {
    /// Number of attach points (the host's chain-array length).
    pub const COUNT: usize = 5;

    /// All points, in `repr` order.
    pub const ALL: [AttachPoint; AttachPoint::COUNT] = [
        AttachPoint::VmEvict,
        AttachPoint::CacheEvict,
        AttachPoint::CacheReadAhead,
        AttachPoint::SchedPick,
        AttachPoint::DiskWrite,
    ];

    /// The entry-point name a graft must export to attach here.
    pub fn entry(&self) -> &'static str {
        match self {
            AttachPoint::VmEvict | AttachPoint::CacheEvict => "select_victim",
            AttachPoint::CacheReadAhead => "ra_next",
            AttachPoint::SchedPick => "pick",
            AttachPoint::DiskWrite => "ld_write",
        }
    }

    /// The arity of that entry point.
    pub const fn arity(&self) -> usize {
        match self {
            AttachPoint::VmEvict | AttachPoint::CacheEvict => 2,
            AttachPoint::CacheReadAhead | AttachPoint::SchedPick | AttachPoint::DiskWrite => 1,
        }
    }

    /// The largest [`arity`](Self::arity) of any point: the most
    /// arguments a graft attached anywhere accepts.
    pub const MAX_ARITY: usize = {
        let mut max = 0;
        let mut i = 0;
        while i < AttachPoint::COUNT {
            let arity = AttachPoint::ALL[i].arity();
            if arity > max {
                max = arity;
            }
            i += 1;
        }
        max
    };

    /// A short stable name, used as a telemetry/report label.
    pub fn name(&self) -> &'static str {
        match self {
            AttachPoint::VmEvict => "vm_evict",
            AttachPoint::CacheEvict => "cache_evict",
            AttachPoint::CacheReadAhead => "cache_read_ahead",
            AttachPoint::SchedPick => "sched_pick",
            AttachPoint::DiskWrite => "disk_write",
        }
    }

    /// Decodes a graft's raw return value into a chain verdict.
    ///
    /// The policy points (eviction, read-ahead, scheduling) treat a
    /// negative value as "no opinion" — the graft ABIs use −1 for it —
    /// while the disk write path is a bookkeeping call whose every
    /// successful return is a decision (the flush indication).
    pub fn decode(&self, ret: i64) -> Verdict {
        match self {
            AttachPoint::VmEvict
            | AttachPoint::CacheEvict
            | AttachPoint::CacheReadAhead
            | AttachPoint::SchedPick => {
                if ret >= 0 {
                    Verdict::Override(ret)
                } else {
                    Verdict::Continue
                }
            }
            AttachPoint::DiskWrite => Verdict::Override(ret),
        }
    }
}

impl fmt::Display for AttachPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repr_order_matches_all() {
        for (i, p) in AttachPoint::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
        let mut names: Vec<&str> = AttachPoint::ALL.iter().map(AttachPoint::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AttachPoint::COUNT);
    }

    #[test]
    fn policy_points_decode_negative_as_continue() {
        for p in [
            AttachPoint::VmEvict,
            AttachPoint::CacheEvict,
            AttachPoint::CacheReadAhead,
            AttachPoint::SchedPick,
        ] {
            assert_eq!(p.decode(-1), Verdict::Continue);
            assert_eq!(p.decode(7), Verdict::Override(7));
            assert_eq!(p.decode(0), Verdict::Override(0));
        }
        // The write path's 0 ("no flush") is still a decision.
        assert_eq!(AttachPoint::DiskWrite.decode(0), Verdict::Override(0));
        assert_eq!(AttachPoint::DiskWrite.decode(1), Verdict::Override(1));
    }

    #[test]
    fn entries_match_the_graft_specs() {
        assert_eq!(AttachPoint::VmEvict.entry(), "select_victim");
        assert_eq!(AttachPoint::VmEvict.arity(), 2);
        assert_eq!(AttachPoint::CacheReadAhead.entry(), "ra_next");
        assert_eq!(AttachPoint::SchedPick.entry(), "pick");
        assert_eq!(AttachPoint::DiskWrite.entry(), "ld_write");
    }
}
