//! # tu-loadlab
//!
//! The load lab: a **replayable workload harness** for the annotation
//! stack, closing the loop on per-tenant traffic shaping: its fairness
//! claims need an instrument that can reproduce the traffic that
//! stresses them.
//!
//! Three pieces:
//!
//! * [`Workload`] ([`generate_workload`]): a **seeded, deterministic**
//!   operation sequence built on `tu_corpus` — many small interactive
//!   tables and few huge crawl tables, zipfian tenant skew (one tenant
//!   sends an order of magnitude more traffic than the rest),
//!   cache-hostile churn (mutated re-submissions that defeat
//!   fingerprint reuse), and delta-recrawl sequences exercising the
//!   incremental path. The same seed always produces the same
//!   operations ([`Workload::digest`] proves it).
//! * Drivers: [`run_in_process`] replays a workload as closed-loop
//!   clients of the HTTP server's own [`WorkerPool`] — its admission
//!   through [`TrafficShaper`], its workers, its panic containment —
//!   with every operation served by the call every served request
//!   makes; [`run_http`] replays it against a live annotation server
//!   over the wire.
//! * [`LoadReport`]: structured results — per-lane *and* per-tenant
//!   served/shed/degraded counts, spend, p50/p99 latency, cache hit
//!   rate — plus [`LoadReport::validate`] (every submitted operation
//!   accounted exactly once) and [`LoadReport::deterministic_digest`]
//!   (timing-free result fingerprint: on an unbudgeted target two runs
//!   of the same workload digest identically, and un-degraded results
//!   are bit-identical between shaped and unshapen runs).
//!
//! [`TrafficShaper`]: sigmatyper::TrafficShaper
//! [`WorkerPool`]: tu_server::WorkerPool

#![warn(missing_docs)]

pub mod driver;
pub mod http;
pub mod report;
pub mod workload;

pub use driver::{run_in_process, TargetConfig};
pub use http::run_http;
pub use report::{BucketStats, LoadReport, OpResult};
pub use workload::{generate_workload, LabOp, Workload, WorkloadConfig};
