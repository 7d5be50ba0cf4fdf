//! The VM paging machinery the Prioritization graft plugs into.
//!
//! The kernel keeps resident pages on an LRU queue; on a fault with no
//! free frame it consults its eviction policy. The default policy takes
//! the LRU head; with a graft installed, the paper's protocol applies:
//! the kernel *proposes* the head as a candidate, and the owning
//! process's graft may offer one of its other resident pages instead
//! (§3.1). The kernel tracks candidates and alternates so a graft cannot
//! inflate its share of memory (the Cao-style guard the paper assumes).

use std::collections::HashMap;

/// A page identifier.
pub type PageId = u64;

/// An intrusive doubly linked LRU queue over page ids.
///
/// Slots live in a `Vec`; the queue head is the least recently used
/// page. `touch` moves a page to the tail (most recently used) in O(1).
#[derive(Debug, Clone, Default)]
pub struct LruQueue {
    nodes: Vec<Node>,
    free: Vec<usize>,
    index: HashMap<PageId, usize>,
    head: Option<usize>,
    tail: Option<usize>,
}

#[derive(Debug, Clone)]
struct Node {
    page: PageId,
    prev: Option<usize>,
    next: Option<usize>,
}

impl LruQueue {
    /// An empty queue.
    pub fn new() -> Self {
        LruQueue::default()
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `page` is resident.
    pub fn contains(&self, page: PageId) -> bool {
        self.index.contains_key(&page)
    }

    /// The least recently used page.
    pub fn head(&self) -> Option<PageId> {
        self.head.map(|i| self.nodes[i].page)
    }

    /// Inserts `page` as most recently used. Returns `false` if it was
    /// already resident (in which case it is touched instead).
    pub fn insert(&mut self, page: PageId) -> bool {
        if self.contains(page) {
            self.touch(page);
            return false;
        }
        let node = Node {
            page,
            prev: self.tail,
            next: None,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s] = node;
                s
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        if let Some(t) = self.tail {
            self.nodes[t].next = Some(slot);
        } else {
            self.head = Some(slot);
        }
        self.tail = Some(slot);
        self.index.insert(page, slot);
        true
    }

    /// Marks `page` most recently used. Returns `false` if not resident.
    pub fn touch(&mut self, page: PageId) -> bool {
        let Some(&slot) = self.index.get(&page) else {
            return false;
        };
        if self.tail == Some(slot) {
            return true;
        }
        self.unlink(slot);
        let tail = self.tail.expect("non-empty queue has a tail");
        self.nodes[tail].next = Some(slot);
        self.nodes[slot].prev = Some(tail);
        self.nodes[slot].next = None;
        self.tail = Some(slot);
        true
    }

    /// Removes `page`. Returns `false` if not resident.
    pub fn remove(&mut self, page: PageId) -> bool {
        let Some(slot) = self.index.remove(&page) else {
            return false;
        };
        self.unlink(slot);
        self.free.push(slot);
        true
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        match prev {
            Some(p) => self.nodes[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.nodes[n].prev = prev,
            None => self.tail = prev,
        }
        self.nodes[slot].prev = None;
        self.nodes[slot].next = None;
    }

    /// Pages from least to most recently used.
    pub fn iter_lru(&self) -> LruIter<'_> {
        LruIter {
            queue: self,
            at: self.head,
        }
    }
}

/// Iterator over an [`LruQueue`] in LRU order.
pub struct LruIter<'a> {
    queue: &'a LruQueue,
    at: Option<usize>,
}

impl Iterator for LruIter<'_> {
    type Item = PageId;

    fn next(&mut self) -> Option<PageId> {
        let slot = self.at?;
        let node = &self.queue.nodes[slot];
        self.at = node.next;
        Some(node.page)
    }
}

/// An eviction decision source.
pub trait EvictionPolicy {
    /// Chooses a victim among resident pages, given the LRU queue. The
    /// kernel's candidate is the queue head.
    fn select_victim(&mut self, queue: &LruQueue) -> Option<PageId>;
}

/// Boxed policies forward, so a [`Pager`] can host a policy chosen at
/// run time (the graft-host attach point installs through this seam).
impl<T: EvictionPolicy + ?Sized> EvictionPolicy for Box<T> {
    fn select_victim(&mut self, queue: &LruQueue) -> Option<PageId> {
        (**self).select_victim(queue)
    }
}

/// The kernel default: evict the LRU head.
#[derive(Debug, Default, Clone, Copy)]
pub struct LruPolicy;

impl EvictionPolicy for LruPolicy {
    fn select_victim(&mut self, queue: &LruQueue) -> Option<PageId> {
        queue.head()
    }
}

/// Evict the most recently used page — the sequential-scan policy the
/// paper motivates ("each block of a file will be read once, in order").
#[derive(Debug, Default, Clone, Copy)]
pub struct MruPolicy;

impl EvictionPolicy for MruPolicy {
    fn select_victim(&mut self, queue: &LruQueue) -> Option<PageId> {
        queue.iter_lru().last()
    }
}

/// Paging statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Accesses that hit a resident page.
    pub hits: u64,
    /// Faults (page not resident).
    pub faults: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Faults on pages that had been evicted earlier (re-faults — the
    /// cost a good eviction graft avoids).
    pub refaults: u64,
}

/// A fixed-size page frame pool driven by an [`EvictionPolicy`].
pub struct Pager<P: EvictionPolicy> {
    frames: usize,
    queue: LruQueue,
    policy: P,
    evicted_before: std::collections::HashSet<PageId>,
    stats: PagerStats,
}

impl<P: EvictionPolicy> Pager<P> {
    /// A pager with `frames` physical frames.
    pub fn new(frames: usize, policy: P) -> Self {
        assert!(frames > 0, "need at least one frame");
        Pager {
            frames,
            queue: LruQueue::new(),
            policy,
            evicted_before: std::collections::HashSet::new(),
            stats: PagerStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// The resident queue (for marshalling to grafts).
    pub fn queue(&self) -> &LruQueue {
        &self.queue
    }

    /// The eviction policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable policy access (to feed application hints to a graft).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Touches `page`, faulting it in (and evicting if needed). Returns
    /// the evicted page, if any.
    pub fn access(&mut self, page: PageId) -> Option<PageId> {
        if self.queue.contains(page) {
            self.stats.hits += 1;
            self.queue.touch(page);
            return None;
        }
        self.stats.faults += 1;
        if self.evicted_before.contains(&page) {
            self.stats.refaults += 1;
        }
        let mut evicted = None;
        if self.queue.len() >= self.frames {
            let victim = self
                .policy
                .select_victim(&self.queue)
                .filter(|v| self.queue.contains(*v))
                .or_else(|| self.queue.head())
                .expect("resident set is non-empty");
            self.queue.remove(victim);
            self.evicted_before.insert(victim);
            self.stats.evictions += 1;
            evicted = Some(victim);
        }
        self.queue.insert(page);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_lru_to_mru() {
        let mut q = LruQueue::new();
        for p in [1, 2, 3] {
            q.insert(p);
        }
        assert_eq!(q.iter_lru().collect::<Vec<_>>(), vec![1, 2, 3]);
        q.touch(1);
        assert_eq!(q.iter_lru().collect::<Vec<_>>(), vec![2, 3, 1]);
        assert_eq!(q.head(), Some(2));
    }

    #[test]
    fn remove_relinks_neighbours() {
        let mut q = LruQueue::new();
        for p in [1, 2, 3, 4] {
            q.insert(p);
        }
        assert!(q.remove(2));
        assert!(!q.remove(2));
        assert_eq!(q.iter_lru().collect::<Vec<_>>(), vec![1, 3, 4]);
        assert!(q.remove(1));
        assert!(q.remove(4));
        assert_eq!(q.iter_lru().collect::<Vec<_>>(), vec![3]);
        assert!(q.remove(3));
        assert!(q.is_empty());
        assert_eq!(q.head(), None);
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut q = LruQueue::new();
        for p in 0..100 {
            q.insert(p);
        }
        for p in 0..100 {
            q.remove(p);
        }
        for p in 100..200 {
            q.insert(p);
        }
        assert!(q.nodes.len() <= 100, "free list must recycle slots");
    }

    #[test]
    fn duplicate_insert_touches() {
        let mut q = LruQueue::new();
        q.insert(1);
        q.insert(2);
        assert!(!q.insert(1));
        assert_eq!(q.iter_lru().collect::<Vec<_>>(), vec![2, 1]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pager_evicts_lru_by_default() {
        let mut p = Pager::new(2, LruPolicy);
        assert_eq!(p.access(1), None);
        assert_eq!(p.access(2), None);
        assert_eq!(p.access(3), Some(1));
        let s = p.stats();
        assert_eq!(s.faults, 3);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn mru_policy_beats_lru_on_sequential_scan() {
        // Scan 0..N repeatedly with fewer frames than pages: LRU evicts
        // exactly what is needed next (0 hits); MRU retains a stable
        // prefix. This is the paper's §3.1 motivating example.
        let frames = 8;
        let pages = 12;
        let mut lru = Pager::new(frames, LruPolicy);
        let mut mru = Pager::new(frames, MruPolicy);
        for _ in 0..10 {
            for page in 0..pages {
                lru.access(page);
                mru.access(page);
            }
        }
        assert_eq!(lru.stats().hits, 0, "LRU thrashes on a loop scan");
        assert!(
            mru.stats().hits > (frames as u64 - 2) * 9,
            "MRU should retain a stable prefix: {:?}",
            mru.stats()
        );
    }

    #[test]
    fn refaults_are_counted() {
        let mut p = Pager::new(1, LruPolicy);
        p.access(1);
        p.access(2); // evicts 1
        p.access(1); // refault
        assert_eq!(p.stats().refaults, 1);
    }
}
