//! End-to-end and per-layer benchmark of the checkelide workspace.
//!
//! Three workloads (see [`metrics::WORKLOADS`]) drive the program only
//! through public functions of the workspace crates. An untraced run
//! reports the end-to-end metrics; a traced run composes the same calls
//! the runner makes, with a span around each call into a layer, and
//! reports per-layer self times and counts ([`metrics::PER_LAYER`]).

pub mod cells;
pub mod ledger;
pub mod metrics;
pub mod tally;
pub mod timed;
pub mod util;
pub mod workloads;

/// Seconds of timed passes per run.
pub const RUN_SECONDS: u64 = 10;
