//! Graft memory layouts: padded per-region buffers (unchecked / safe
//! modes) and the SFI sandbox arena.

use graft_api::GraftError;
use graft_ir::Module;

use crate::sfi::ArenaLayout;

/// Rounds up to a power of two, with a small floor so masks always work.
pub(crate) fn pow2_at_least(n: usize) -> usize {
    n.max(2).next_power_of_two()
}

/// One region buffer, padded to a power of two so the unchecked mode can
/// wrap stray indexes with a single AND (the "reads garbage instead of
/// trapping" semantics of unsafe C, made deterministic).
#[derive(Debug, Clone)]
pub struct Buf {
    data: Vec<i64>,
    /// Capacity mask (`capacity - 1`).
    pub mask: usize,
    /// True (ABI) length for bounds checks.
    pub len: usize,
    /// Whether word 0 is the NIL sentinel (linked records).
    pub linked: bool,
}

impl Buf {
    fn new(len: usize, linked: bool) -> Self {
        let cap = pow2_at_least(len);
        Buf {
            data: vec![0; cap],
            mask: cap - 1,
            len,
            linked,
        }
    }

    fn from_values(values: &[i64]) -> Self {
        let mut b = Buf::new(values.len(), false);
        b.data[..values.len()].copy_from_slice(values);
        b
    }

    /// Unchecked (wrapping) read — the unsafe-C semantics: a stray
    /// index reads garbage from the graft's own allocation.
    #[inline]
    pub fn get_wrapped(&self, idx: i64) -> i64 {
        let at = (idx as usize) & self.mask;
        debug_assert!(at < self.data.len());
        // SAFETY: `data` is allocated with capacity `mask + 1` (a power
        // of two, see `Buf::new`), so any index ANDed with `mask` is in
        // range.
        unsafe { *self.data.get_unchecked(at) }
    }

    /// Unchecked (wrapping) write.
    #[inline]
    pub fn set_wrapped(&mut self, idx: i64, value: i64) {
        let at = (idx as usize) & self.mask;
        debug_assert!(at < self.data.len());
        // SAFETY: as in `get_wrapped`.
        unsafe { *self.data.get_unchecked_mut(at) = value };
    }

    /// Bounds-checked read; `None` when out of range.
    #[inline]
    pub fn get_checked(&self, idx: i64) -> Option<i64> {
        if (idx as u64) < self.len as u64 {
            Some(self.data[idx as usize])
        } else {
            None
        }
    }

    /// Bounds-checked write; `false` when out of range.
    #[inline]
    pub fn set_checked(&mut self, idx: i64, value: i64) -> bool {
        if (idx as u64) < self.len as u64 {
            self.data[idx as usize] = value;
            true
        } else {
            false
        }
    }

    /// The first word of the padded buffer, for the machine-code tier.
    pub(crate) fn as_mut_ptr(&mut self) -> *mut i64 {
        self.data.as_mut_ptr()
    }

    fn words(&self) -> &[i64] {
        &self.data[..self.len]
    }

    fn words_mut(&mut self) -> &mut [i64] {
        let len = self.len;
        &mut self.data[..len]
    }
}

/// Region memory for the unchecked and safe modes.
#[derive(Debug, Clone)]
pub struct PlainMemory {
    /// Kernel-shared regions, by ABI order.
    pub regions: Vec<Buf>,
    /// Module constant pools.
    pub pools: Vec<Buf>,
}

impl PlainMemory {
    /// Allocates zeroed regions and initialized pools for `module`.
    pub fn new(module: &Module) -> Self {
        PlainMemory {
            regions: module
                .regions
                .iter()
                .map(|r| Buf::new(r.len, r.linked))
                .collect(),
            pools: module
                .const_pools
                .iter()
                .map(|p| Buf::from_values(p))
                .collect(),
        }
    }
}

/// The SFI sandbox: one contiguous power-of-two arena holding every
/// constant pool and region, plus the layout that maps region ids to
/// arena offsets.
#[derive(Debug, Clone)]
pub struct Arena {
    /// Backing words.
    pub words: Vec<i64>,
    /// `capacity - 1`.
    pub mask: usize,
    /// Layout (region/pool bases and lengths).
    pub layout: ArenaLayout,
}

impl Arena {
    /// Builds the arena for an instrumented module, copying constant
    /// pools into place.
    pub fn new(module: &Module, layout: ArenaLayout) -> Self {
        let cap = pow2_at_least(layout.total);
        let mut words = vec![0; cap];
        for (pool, &(base, _len)) in module.const_pools.iter().zip(&layout.pools) {
            words[base as usize..base as usize + pool.len()].copy_from_slice(pool);
        }
        Arena {
            mask: cap - 1,
            words,
            layout,
        }
    }

    /// Graft-side masked read (`addr` already includes the region base).
    #[inline]
    pub fn load(&self, addr: i64) -> i64 {
        let at = (addr as usize) & self.mask;
        debug_assert!(at < self.words.len());
        // SAFETY: the arena is allocated with capacity `mask + 1` (a
        // power of two, see `Arena::new`), so the masked address is in
        // range — this is the SFI guarantee itself.
        unsafe { *self.words.get_unchecked(at) }
    }

    /// Graft-side masked write.
    #[inline]
    pub fn store(&mut self, addr: i64, value: i64) {
        let at = (addr as usize) & self.mask;
        debug_assert!(at < self.words.len());
        // SAFETY: as in `load`.
        unsafe { *self.words.get_unchecked_mut(at) = value };
    }
}

/// Engine memory: one of the two layouts.
#[derive(Debug, Clone)]
pub enum Memory {
    /// Per-region buffers (unchecked / safe modes).
    Plain(PlainMemory),
    /// SFI sandbox arena.
    Arena(Arena),
}

impl Memory {
    fn range_err(name: &str, index: usize, len: usize) -> GraftError {
        GraftError::RegionRange {
            region: name.to_string(),
            index,
            len,
        }
    }

    /// Kernel-side bulk marshal into region `id`.
    pub fn kernel_load(
        &mut self,
        id: u16,
        name: &str,
        offset: usize,
        data: &[i64],
    ) -> Result<(), GraftError> {
        match self {
            Memory::Plain(mem) => {
                let buf = &mut mem.regions[id as usize];
                let end = offset
                    .checked_add(data.len())
                    .filter(|&e| e <= buf.len)
                    .ok_or_else(|| Self::range_err(name, offset.saturating_add(data.len()), buf.len))?;
                buf.words_mut()[offset..end].copy_from_slice(data);
                Ok(())
            }
            Memory::Arena(arena) => {
                let (base, len) = arena.layout.regions[id as usize];
                let end = offset
                    .checked_add(data.len())
                    .filter(|&e| e <= len as usize)
                    .ok_or_else(|| {
                        Self::range_err(name, offset.saturating_add(data.len()), len as usize)
                    })?;
                let base = base as usize;
                arena.words[base + offset..base + end].copy_from_slice(data);
                Ok(())
            }
        }
    }

    /// Kernel-side single-word read.
    pub fn kernel_read(&self, id: u16, name: &str, index: usize) -> Result<i64, GraftError> {
        match self {
            Memory::Plain(mem) => {
                let buf = &mem.regions[id as usize];
                buf.words()
                    .get(index)
                    .copied()
                    .ok_or_else(|| Self::range_err(name, index, buf.len))
            }
            Memory::Arena(arena) => {
                let (base, len) = arena.layout.regions[id as usize];
                if index < len as usize {
                    Ok(arena.words[base as usize + index])
                } else {
                    Err(Self::range_err(name, index, len as usize))
                }
            }
        }
    }

    /// Kernel-side single-word write.
    pub fn kernel_write(
        &mut self,
        id: u16,
        name: &str,
        index: usize,
        value: i64,
    ) -> Result<(), GraftError> {
        match self {
            Memory::Plain(mem) => {
                let buf = &mut mem.regions[id as usize];
                let len = buf.len;
                buf.words_mut()
                    .get_mut(index)
                    .map(|slot| *slot = value)
                    .ok_or_else(|| Self::range_err(name, index, len))
            }
            Memory::Arena(arena) => {
                let (base, len) = arena.layout.regions[id as usize];
                if index < len as usize {
                    arena.words[base as usize + index] = value;
                    Ok(())
                } else {
                    Err(Self::range_err(name, index, len as usize))
                }
            }
        }
    }

    /// Kernel-side bulk read.
    pub fn kernel_read_slice(
        &self,
        id: u16,
        name: &str,
        offset: usize,
        out: &mut [i64],
    ) -> Result<(), GraftError> {
        match self {
            Memory::Plain(mem) => {
                let buf = &mem.regions[id as usize];
                let end = offset
                    .checked_add(out.len())
                    .filter(|&e| e <= buf.len)
                    .ok_or_else(|| Self::range_err(name, offset.saturating_add(out.len()), buf.len))?;
                out.copy_from_slice(&buf.words()[offset..end]);
                Ok(())
            }
            Memory::Arena(arena) => {
                let (base, len) = arena.layout.regions[id as usize];
                let end = offset
                    .checked_add(out.len())
                    .filter(|&e| e <= len as usize)
                    .ok_or_else(|| {
                        Self::range_err(name, offset.saturating_add(out.len()), len as usize)
                    })?;
                let base = base as usize;
                out.copy_from_slice(&arena.words[base + offset..base + end]);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buf_pads_to_power_of_two() {
        let b = Buf::new(100, false);
        assert_eq!(b.mask + 1, 128);
        assert_eq!(b.len, 100);
    }

    #[test]
    fn wrapped_access_never_panics() {
        let mut b = Buf::new(8, false);
        b.set_wrapped(-1, 9);
        assert_eq!(b.get_wrapped(-1), 9);
        assert_eq!(b.get_wrapped(7 + 8), b.get_wrapped(7));
        b.set_wrapped(i64::MIN, 3);
        assert_eq!(b.get_wrapped(0), 3);
    }

    #[test]
    fn checked_access_rejects_oob_and_negatives() {
        let mut b = Buf::new(8, false);
        assert!(b.get_checked(8).is_none());
        assert!(b.get_checked(-1).is_none());
        assert!(!b.set_checked(100, 1));
        assert!(b.set_checked(7, 5));
        assert_eq!(b.get_checked(7), Some(5));
    }

    #[test]
    fn tiny_regions_still_get_a_valid_mask() {
        let b = Buf::new(1, false);
        assert!(b.mask >= 1);
        assert_eq!(b.get_wrapped(1), 0);
    }
}
