//! A concurrent what-if query service over the frozen simulation.
//!
//! The batch tool (`repro_figures`) answers every question by re-running
//! the world. This crate is the serving half the paper's measurement
//! story implies: a cluster characterization is most useful as an
//! *interactive* artifact — "what is the median queue wait", "show me
//! Figure 9", "what would a 150 W power cap have cost" — and those
//! queries arrive concurrently, repeat heavily, and must never disagree
//! with the batch pipeline.
//!
//! Design:
//!
//! - **Simulate once, serve forever.** [`Service::build`] runs the
//!   seeded simulation once; every response is a pure render of that
//!   frozen state ([`service`]).
//! - **Memoized, single-flight.** Responses cache under a
//!   [`sc_core::QueryKey`] `(scenario, seed, query)`; concurrent
//!   identical queries coalesce onto one computation
//!   ([`sc_par::MemoCache`]).
//! - **Deterministic bytes.** Thread budget, cache temperature, and
//!   request interleaving affect latency only. [`Digest`] folds
//!   responses in request order so CI can compare whole runs by one
//!   hex string.
//! - **Typed, replayable queries.** Every request is a [`Query`] with a
//!   canonical token that round-trips through [`Query::parse`]
//!   ([`query`]).
//!
//! # Example
//!
//! ```no_run
//! use sc_serve::{Query, ServeConfig, Service};
//! use std::sync::Arc;
//!
//! let svc = Arc::new(Service::build(ServeConfig::default()));
//! let q = Query::parse("point:median_run_min").expect("valid token");
//! let done = svc.submit(q).wait(); // via the FIFO request executor
//! print!("{}", done.response.body);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod query;
pub mod service;

pub use query::{Query, RelQuery};
pub use sc_stats::hash::{fnv1a64, Digest};
pub use service::{Completed, Pending, Response, ServeConfig, Service};
