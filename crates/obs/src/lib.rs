//! Deterministic observability for the reproduction pipeline.
//!
//! The paper's entire method is *instrumentation*: Slurm prolog/epilog
//! hooks plus 100 ms `nvidia-smi` sampling turn a production cluster
//! into a characterizable system. This crate gives the simulator the
//! same property — a first-class, queryable event/metric stream —
//! under two rules:
//!
//! 1. **Deterministic.** Every trace record is keyed to *simulation
//!    time*, never wall clock, and is emitted from the single-threaded
//!    event loop, so a JSONL trace of the same seed is byte-identical
//!    at any `sc_par` thread budget. (Wall-clock *stage* spans live in
//!    a separate [`StageLog`] that is explicitly outside the
//!    determinism contract and feeds the Chrome exporter.)
//! 2. **Free when off.** Instrumentation points hand [`Obs::event`],
//!    [`Obs::begin`] and [`Obs::end`] a closure that builds the fields;
//!    `Obs` runs it only when its level is on, so with the [`NullSink`]
//!    the cost is one enum compare per site.
//!
//! Modules:
//!
//! - [`record`]: trace levels, field values, and the canonical JSONL
//!   encoding.
//! - [`json`]: the workspace's one JSON codec: the string and number
//!   encoding every JSON artifact shares (non-finite numbers become
//!   `null`), and [`json::Reader`], a pull reader that yields tokens,
//!   keeps its open containers on the heap instead of recursing, and
//!   names the byte offset of every error.
//! - [`sink`]: the [`TraceSink`] trait and the [`NullSink`] /
//!   [`RingSink`] / [`JsonlSink`] implementations, plus the cheap
//!   [`Obs`] handle instrumented code carries.
//! - [`metrics`]: log₂-bucketed histograms.
//! - [`timeline`]: the cluster time-series ([`Timeline`]) sampled on
//!   event-loop transitions — queue depth, running jobs, free GPUs,
//!   requeue backlog, failure injections, checkpoint restores.
//! - [`stagelog`]: wall-clock per-stage spans ([`StageLog`]).
//! - [`chrome`]: Chrome trace-event (`chrome://tracing` / Perfetto)
//!   export of stage spans.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Library code reports failures as values, not panics; tests are exempt
// (unwrap there is an assertion).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod record;
pub mod sink;
pub mod stagelog;
pub mod timeline;

pub use chrome::chrome_trace_json;
pub use metrics::Histogram;
pub use record::{RecordKind, TraceLevel, TraceRecord, Value};
pub use sink::{JsonlSink, NullSink, Obs, RingSink, TraceSink};
pub use stagelog::{StageLog, StageSpan};
pub use timeline::{Timeline, TimelineSample};
