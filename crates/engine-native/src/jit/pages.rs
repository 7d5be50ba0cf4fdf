//! Executable code pages, carved from a process-wide pool of a few
//! large anonymous mappings.
//!
//! A module's machine code takes whole pages from the pool: they are
//! flipped to read-write, written once, and flipped to read-execute
//! before any of it can run. They return to the pool when the last
//! engine running the code drops it, and only a later install, which
//! owns them alone by then, writes them again. Pages are never writable
//! and executable at once.
//!
//! Code identical to a live install shares its pages instead of taking
//! new ones: a server whose tenants load the same graft holds one copy
//! of its code, and those loads make no `mprotect` call.
//!
//! Installs take pages from the pool and give them back; only a pool
//! with no free run long enough maps another chunk. So steady-state
//! installs make no `mmap` or `munmap` call, and the number of mappings
//! stays far below `vm.max_map_count` however many modules are loaded.
//!
//! The workspace takes no crates.io dependencies, so the two glibc
//! calls are declared here, as `kernsim`'s host measurements do.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::{Arc, Mutex, Weak};

use graft_api::GraftError;

#[allow(non_camel_case_types)]
type c_int = i32;

const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const PROT_EXEC: c_int = 4;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_FAILED: *mut u8 = usize::MAX as *mut u8;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: c_int, flags: c_int, fd: c_int, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: c_int) -> c_int;
}

/// The x86-64 base page size.
pub(crate) const PAGE: usize = 4096;
/// Pages per pool mapping (4 MiB of address space, touched only as
/// modules are installed).
const CHUNK_PAGES: usize = 1024;

/// Free page runs, by start address (adjacent runs are merged), and
/// the live installs, by a hash of their code.
struct Pool {
    free: BTreeMap<usize, usize>,
    live: BTreeMap<u64, Vec<Live>>,
}

/// A live install. Its entry leaves `live` under the pool's lock, just
/// before its pages go back, so while the entry is there the pages hold
/// its code, even once the last owner has begun dropping it.
struct Live {
    start: usize,
    len: usize,
    pages: Weak<Pages>,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    free: BTreeMap::new(),
    live: BTreeMap::new(),
});

fn pool() -> std::sync::MutexGuard<'static, Pool> {
    // The pool's map is consistent between statements, so a panic
    // elsewhere while holding the lock leaves nothing half-updated.
    POOL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Pool {
    /// First fit: the lowest free run of at least `pages` pages.
    fn take(&mut self, pages: usize) -> Option<usize> {
        let (&start, &len) = self.free.iter().find(|&(_, &len)| len >= pages)?;
        self.free.remove(&start);
        if len > pages {
            self.free.insert(start + pages * PAGE, len - pages);
        }
        Some(start)
    }

    fn give(&mut self, mut start: usize, mut pages: usize) {
        if let Some((&prev, &len)) = self.free.range(..start).next_back() {
            if prev + len * PAGE == start {
                self.free.remove(&prev);
                start = prev;
                pages += len;
            }
        }
        if let Some(len) = self.free.remove(&(start + pages * PAGE)) {
            pages += len;
        }
        self.free.insert(start, pages);
    }

    /// Maps another chunk, read-execute from the start so that pages
    /// flipped back after a write merge with their neighbours again.
    fn grow(&mut self, pages: usize) -> Result<(), GraftError> {
        let pages = pages.max(CHUNK_PAGES);
        // SAFETY: an anonymous private mapping at an address the kernel
        // picks touches no existing memory.
        let at = unsafe {
            mmap(
                std::ptr::null_mut(),
                pages * PAGE,
                PROT_READ | PROT_EXEC,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if at == MAP_FAILED {
            return Err(unavailable("mmap"));
        }
        self.give(at as usize, pages);
        Ok(())
    }
}

fn unavailable(call: &str) -> GraftError {
    GraftError::Unavailable {
        graft: "machine-code tier".into(),
        missing: format!("executable pages ({call} failed)"),
    }
}

/// Installed machine code: whole pages, read-execute, shared only with
/// installs of the same code.
pub(crate) struct Pages {
    start: usize,
    pages: usize,
    hash: u64,
}

// SAFETY: the pages are immutable once `install` returns, and they go
// back to the pool only when their last owner drops, so sharing the
// address across threads shares read-only memory.
unsafe impl Send for Pages {}
// SAFETY: as for `Send`.
unsafe impl Sync for Pages {}

impl Pages {
    /// The pages of a live install of `code`, or fresh pages holding a
    /// copy of it.
    pub(crate) fn share(code: &[u8]) -> Result<Arc<Pages>, GraftError> {
        let mut hasher = DefaultHasher::new();
        hasher.write(code);
        let hash = hasher.finish();
        let mut pool = pool();
        for live in pool.live.get(&hash).into_iter().flatten() {
            // SAFETY: the entry is in `live`, so its pages are mapped
            // readable and hold its `len` bytes of code (see `Live`).
            let installed =
                unsafe { std::slice::from_raw_parts(live.start as *const u8, live.len) };
            if installed == code {
                // `None` when its last owner is dropping it: install anew.
                if let Some(pages) = live.pages.upgrade() {
                    return Ok(pages);
                }
            }
        }
        let pages = Arc::new(Pages::install(&mut pool, code, hash)?);
        pool.live.entry(hash).or_default().push(Live {
            start: pages.start,
            len: code.len(),
            pages: Arc::downgrade(&pages),
        });
        Ok(pages)
    }

    /// Copies `code` into fresh pages and makes them executable.
    fn install(pool: &mut Pool, code: &[u8], hash: u64) -> Result<Pages, GraftError> {
        let pages = code.len().div_ceil(PAGE).max(1);
        let start = match pool.take(pages) {
            Some(start) => start,
            None => {
                pool.grow(pages)?;
                pool.take(pages).expect("a fresh chunk holds the run")
            }
        };
        let bytes = pages * PAGE;
        let at = start as *mut u8;
        // SAFETY: the run came from the pool under its lock, so no other
        // `Pages` owns it and no code on it can run: whatever module
        // last used it was dropped before the run was given back.
        if unsafe { mprotect(at, bytes, PROT_READ | PROT_WRITE) } != 0 {
            pool.give(start, pages);
            return Err(unavailable("mprotect"));
        }
        // SAFETY: the run is mapped, writable now, `bytes >= code.len()`
        // long, and owned by this install alone.
        unsafe { std::ptr::copy_nonoverlapping(code.as_ptr(), at, code.len()) };
        // SAFETY: as above; from here on the run is never written.
        if unsafe { mprotect(at, bytes, PROT_READ | PROT_EXEC) } != 0 {
            pool.give(start, pages);
            return Err(unavailable("mprotect"));
        }
        Ok(Pages { start, pages, hash })
    }

    /// The first byte of the installed code.
    pub(crate) fn addr(&self) -> *const u8 {
        self.start as *const u8
    }
}

impl Drop for Pages {
    fn drop(&mut self) {
        let mut pool = pool();
        if let Some(live) = pool.live.get_mut(&self.hash) {
            live.retain(|l| l.start != self.start);
            if live.is_empty() {
                pool.live.remove(&self.hash);
            }
        }
        pool.give(self.start, self.pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_runs_merge_and_are_reused_first_fit() {
        let mut pool = Pool {
            free: BTreeMap::new(),
            live: BTreeMap::new(),
        };
        pool.give(0x10000, 8);
        let a = pool.take(2).unwrap();
        let b = pool.take(3).unwrap();
        assert_eq!((a, b), (0x10000, 0x10000 + 2 * PAGE));
        pool.give(a, 2);
        pool.give(b, 3);
        assert_eq!(pool.free.len(), 1, "{:?}", pool.free);
        assert_eq!(pool.free[&0x10000], 8);
        assert!(pool.take(9).is_none());
    }

    #[test]
    fn installed_code_runs() {
        // mov eax, 42; ret
        let code = [0xB8, 42, 0, 0, 0, 0xC3];
        let pages = Pages::share(&code).unwrap();
        // SAFETY: the six bytes above are a complete function with the
        // C ABI, and `pages` keeps them mapped executable for the call.
        let f: extern "C" fn() -> u32 = unsafe { std::mem::transmute(pages.addr()) };
        assert_eq!(f(), 42);
    }

    #[test]
    fn identical_code_shares_one_run_until_its_last_owner_drops() {
        // mov eax, imm32; ret: two functions, told apart by the immediate.
        let code = |imm: u8| [0xB8, imm, 0x5A, 0x7E, 0x11, 0xC3];
        let a = Pages::share(&code(1)).unwrap();
        let b = Pages::share(&code(1)).unwrap();
        let c = Pages::share(&code(2)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_ne!(a.addr(), c.addr());
        let hash = a.hash;
        drop((a, b));
        assert!(
            !pool().live.contains_key(&hash),
            "a dropped install stays live"
        );
        // SAFETY: as in `installed_code_runs`, for `c`'s six bytes.
        let f: extern "C" fn() -> u32 = unsafe { std::mem::transmute(c.addr()) };
        assert_eq!(f(), 0x117E_5A02);
    }
}
