//! graft-host: a multi-tenant extension kernel.
//!
//! The paper (Small & Seltzer, USENIX 1996) measures one graft at a
//! time, but its premise — §2's downloadable kernel extensions, §4's
//! safety requirements — is a kernel that *hosts* many untrusted
//! extensions concurrently and survives the bad ones. This crate is
//! that runtime layer, built on the two-phase bind/invoke ABI:
//!
//! * **Attach points** ([`AttachPoint`]) are the typed seams where the
//!   kernsim substrates consult extensions: VM pager eviction, buffer
//!   cache eviction and read-ahead, scheduler candidate pick, and the
//!   logical-disk write path.
//! * **Chains**: each attach point hosts an ordered chain of installed
//!   grafts (any [`graft_api::Technology`], pre-bound to an `EntryId`
//!   at install time). Dispatch walks the chain with Continue/Override
//!   verdict semantics ([`graft_api::Verdict`]): the first graft to
//!   decide wins; if every graft declines, the built-in kernel policy
//!   applies. Grafts can be installed and uninstalled while the
//!   substrate is under load.
//! * **Per-graft ledgers** ([`graft_api::GraftLedger`]): invocations,
//!   cumulative nanoseconds, fuel, and traps by kind, maintained by the
//!   host on every dispatch.
//! * **The quarantine supervisor**: a graft that traps
//!   [`HostConfig::trap_threshold`] times — or exhausts its fuel budget
//!   even once — is atomically detached; the substrate falls back to
//!   the built-in policy and the kernel keeps serving. A quarantined
//!   graft can be re-admitted on probation, where a single further trap
//!   detaches it again.
//! * **Recovery** ([`recovery`]): grafts that carry kernel-critical
//!   state (the paper's *black box* class) register a salvage plan; at
//!   detach the supervisor lifts those regions into a
//!   [`SalvagedState`] and the kernel re-seeds a replacement graft or
//!   its built-in policy. An optional exponential-backoff ladder
//!   ([`HostConfig::backoff_base`]) re-admits detached grafts after a
//!   clean built-in window that doubles per re-quarantine, up to a
//!   permanent-ban ceiling.
//!
//! * **One host, one chain walk** ([`ShardedHost`]): the control plane
//!   installs, uninstalls and observes; each worker shard dispatches
//!   through its own [`ShardHandle`] over thread-confined engine
//!   replicas. The single-threaded host is simply a 1-shard
//!   `ShardedHost` and its one handle — the same code, with N = 1.
//! * **Adaptive sharded dispatch** ([`steal`]): bounded per-shard run
//!   queues with work stealing and graft-affinity placement feed the
//!   host's data plane; executors drain adaptively sized batches that
//!   widen with backlog; a single-graft, untraced chain runs each batch
//!   as one `invoke_batch`, fuel-metered or not, with call-exact
//!   accounting.
//!
//! The [`adapters`] module plugs a shard handle into the kernsim
//! substrates (`Pager`, `BufferCache`, `Scheduler`, and the
//! logical-disk write path) through their policy traits.

pub mod adapters;
pub mod host;
pub mod point;
pub mod postmortem;
pub mod recovery;
pub mod shard;
pub mod steal;

pub use adapters::{HostedEviction, HostedReadAhead, HostedSched, HostedWritePath};
pub use host::{GraftId, GraftState, HostConfig, HostStats};
pub use point::AttachPoint;
pub use postmortem::PostmortemReport;
pub use recovery::SalvagedState;
pub use shard::{
    AtomicLedger, BatchMarshalFn, ChainDispatch, MarshalFn, ShardHandle, ShardedHost,
    VirtualShards,
};
pub use steal::{QueueStats, RunQueues, Staged, StealPolicy, WorkItem};
