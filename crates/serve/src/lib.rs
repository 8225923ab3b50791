//! `ocapi-serve` — a persistent simulation service with a
//! design-hash-keyed compiled-tape cache.
//!
//! Batch tools (`ber_sweep`, `fault_coverage`, `campaign`) pay the full
//! capture → levelize → optimize pipeline on every invocation, even
//! though a design-exploration loop simulates the same handful of
//! designs hundreds of times. This crate keeps a daemon (`served`)
//! alive across jobs: requests arrive over a Unix-domain socket as
//! length-prefixed JSON frames, compiled tapes are cached by
//! [`ocapi::hash_system`] + [`ocapi::OptLevel`] and paired with one
//! captured template per design variant ([`ocapi::CompiledDesign`]),
//! and long-horizon runs park as [`ocapi::SimSnapshot`]s between
//! requests (warm sessions).
//!
//! # Determinism contract
//!
//! The deterministic response frames (`chunk`, `done`, `error`, `pong`)
//! of a request are byte-identical whether the job runs alone or
//! interleaved with concurrent jobs, at any `threads`/`lanes` geometry,
//! cold cache or warm. Advisory frames (`perf`, `stats`) carry
//! wall-clock timings and cache telemetry and are excluded — the same
//! deterministic/advisory split the bench reporters use.
//!
//! # Layout
//!
//! * [`Json`] — the request and frame value, re-exported from
//!   [`ocapi_obs::json`], the workspace's one JSON parser and printer.
//!   Frames print compactly; a parse error becomes
//!   [`ServeError::Parse`] with its `json at byte N: …` text unchanged.
//! * [`proto`] — the length-prefixed frame transport and the
//!   deterministic/advisory/terminal frame taxonomy.
//! * [`cache`] — the LRU [`cache::TapeCache`] with
//!   `serve.cache.{hits,misses,evictions}` counters, and the variants'
//!   templates.
//! * [`designs`] — the registry of named buildable designs.
//! * [`jobs`] — the executor dispatching into `run_campaign_batched`,
//!   `ber::measure_lanes` and `Robust::run_chunked`.
//! * [`server`] — listener, connection threads, shared state.
//!
//! Binaries: `served` (the daemon) and `servectl` (client + load
//! generator; `servectl loadgen` records `jobs_per_sec` into the
//! perf-JSON pipeline checked by `scripts/bench_regress.sh`).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod cache;
pub mod designs;
pub mod error;
pub mod jobs;
pub mod proto;
pub mod server;

pub use cache::TapeCache;
pub use designs::Design;
pub use error::ServeError;
pub use ocapi_obs::json::Json;
pub use server::{ParkedSession, ServerState, SessionLookup, SessionTable};

/// Crate version reported by the `ping` op.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
