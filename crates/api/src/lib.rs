//! Shared vocabulary for the graftbench extension framework.
//!
//! This crate defines the types that every other crate in the workspace
//! speaks: the graft taxonomy from Section 3 of Small & Seltzer (USENIX
//! 1996), the extension-technology enumeration from Section 4, the
//! kernel/graft shared-memory ABI ([`RegionStore`]), the runtime error and
//! trap model, and the [`ExtensionEngine`] trait that all execution engines
//! (load-time machine code, bytecode VM, script interpreter, native Rust)
//! implement.
//!
//! The crate is deliberately dependency-free so that engines, the kernel
//! simulator, and the benchmark harness can all depend on it without
//! pulling in one another.

pub mod engine;
pub mod error;
pub mod host;
pub mod region;
pub mod spec;
pub mod taxonomy;
pub mod tech;

pub use engine::{EntryId, ExtensionEngine, NativeEngine, NativeGraft};
pub use error::{GraftError, Trap};
pub use host::{GraftLedger, TrapCounts, TrapKind, Verdict};
pub use region::{Region, RegionId, RegionSpec, RegionStore};
pub use spec::{EntryPoint, GraftSpec};
pub use taxonomy::{GraftClass, Motivation};
pub use tech::{Technology, TrustModel};
