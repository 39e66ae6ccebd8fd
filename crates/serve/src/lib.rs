//! `polymem serve`: a persistent compile service.
//!
//! Re-running `polymem run` pays the §3 symbolic analysis on every
//! process start. This crate keeps that work warm twice over:
//!
//! - **in memory** — a shared LRU (`lru::PlanLru`) of `Arc<SymbolicPlan>`s,
//!   seeded straight into launches (`PlanSource::Seeded`), evicted
//!   least-recently-used, invalidated by generation;
//! - **on disk** — the content-addressed artifact store
//!   (`polymem_core::smem::artifact`), which survives restarts; a load
//!   checks the envelope, the decode and the plan's fit to the program
//!   (`PlanSource::Artifact`).
//!
//! The daemon itself ([`Server`]) is std-only: a `TcpListener` shared
//! by a small thread pool, speaking line-delimited JSON ([`Json`]),
//! with concurrent launches batched onto the executor's worker pool
//! through a counting gate. `polymem serve` starts it from the CLI;
//! the `serve` bench drives it with a multi-tenant load generator.

mod lru;
mod server;
pub mod workload;

pub use polymem_machine::Json;
pub use server::{ServeConfig, Server, ServerHandle};
