//! Simulated ISA for the checkelide system.
//!
//! This crate defines the *micro-operation* (µop) vocabulary shared by every
//! other crate in the workspace:
//!
//! * [`uop::Uop`] — one dynamic instruction, as it would be retired by the
//!   simulated x86-64-class core. The execution tiers
//!   (`checkelide-engine`, `checkelide-opt`) emit a stream of these while
//!   running a program; the timing model (`checkelide-uarch`) consumes them.
//! * [`uop::UopKind`] — includes the four **new machine instructions**
//!   introduced by the paper (§4.2.1.2): `movClassID`, `movClassIDArray`,
//!   `movStoreClassCache` and `movStoreClassCacheArray`.
//! * [`uop::Category`] — the dynamic-instruction categories of Figure 1
//!   (Checks, Tags/Untags, Math Assumptions, Other Optimized Code, Rest of
//!   Code).
//! * [`trace::TraceSink`] — streaming consumer interface, so that counting
//!   (Figures 1–3) and cycle-level simulation (Figures 8–9) share one trace.
//! * [`counters::CounterSink`] — the dynamic-instruction accounting used to
//!   regenerate Figures 1 and 2.
//! * [`layout`] — the simulated address-space layout (heap, code, Class
//!   List regions) shared by the runtime and the cache models.
//!
//! # Example
//!
//! ```
//! use checkelide_isa::uop::{Uop, Category, Region};
//! use checkelide_isa::trace::TraceSink;
//! use checkelide_isa::counters::CounterSink;
//!
//! let mut counters = CounterSink::new();
//! counters.emit(&Uop::alu(0x1000, Category::RestOfCode, Region::Baseline));
//! assert_eq!(counters.total(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod counters;
pub mod layout;
pub mod lz;
pub mod trace;
pub mod uop;

pub use codec::{TraceError, TraceReader, TraceWriter};
pub use counters::CounterSink;
pub use trace::{BatchSink, NullSink, TraceSink, BATCH_CAPACITY};
pub use uop::{Category, MemRef, Provenance, Region, Uop, UopKind};
