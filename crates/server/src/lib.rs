//! graft-server: the networked multi-tenant graft host.
//!
//! The 1996 paper measures extension technologies inside one process;
//! the north star is a *served* system — grafts installed and invoked
//! on behalf of many untrusted tenants, the way eBPF programs are
//! loaded into a shared kernel. This crate promotes the in-process
//! sharded kernel to that shape:
//!
//! * [`wire`] — the length-prefixed binary protocol over the id-based
//!   batched ABI: bind/invoke/invoke_batch frames, typed wire errors,
//!   malformed-frame recovery without tearing the connection;
//! * [`tenant`] — per-tenant namespaces, quotas (max grafts, fuel
//!   budget, in-flight cap), weighted admission classes, and the PR 5
//!   backoff ladder as *tenant* isolation;
//! * [`server`] — the transport-agnostic protocol core + admission
//!   control, with admitted work staged per shard and handed to the
//!   work-stealing run queues once per pump pass. Serving is split
//!   into an invoke half and a serial completion half joined by the
//!   lock-free [`cq::CompletionQueue`];
//! * [`workers`] — the drain-worker plane: one real thread per shard
//!   behind `ShardedHost::take_handles`, spinning then parking when
//!   idle, joined loss-free;
//! * [`client`] — frame building and reply re-association, plus the
//!   deterministic in-process [`VirtualTransport`];
//! * [`pipe`] — the live front-ends: `poll(2)` readiness loops over
//!   non-blocking pipe shims from `kernsim::netpipe`, single-threaded
//!   ([`serve_pipes`]) or pump + workers ([`serve_pipes_threaded`]).
//!
//! See `docs/server.md` for the frame catalogue, the tenant lifecycle
//! state machine, and the threading model, and Table 11
//! (`--bin table11`) for the service benchmark: 100k+ simulated
//! tenants with churn and slowloris clients, p50/p99/p999 service
//! latency and saturation throughput per technology over the worker
//! ladder, and the noisy-neighbor quarantine drill.

#![warn(missing_docs)]

pub mod client;
pub mod cq;
pub mod pipe;
pub mod server;
pub mod tenant;
pub mod wire;
pub mod workers;

pub use client::{GraftClient, VirtualTransport};
pub use cq::CompletionQueue;
pub use pipe::{serve_pipes, serve_pipes_threaded, PipeServeStats};
pub use server::{GraftServer, ServerConfig, ServerStats, SpecLoader};
pub use tenant::{class_share, QuotaClass, Standing, Tenant, TenantQuotas, MAX_CLASSES};
pub use wire::{FrameBuf, InvokeArgs, Reply, Request, WireError, MAX_FRAME};
pub use workers::{WorkerPlane, WorkerStats};
