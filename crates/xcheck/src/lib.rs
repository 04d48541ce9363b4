//! Differential execution oracle for the njs engine.
//!
//! The engine in `crates/engine` + `crates/opt` is an aggressive
//! multi-tier VM: hidden classes, SMI/double tagging, elements-kind
//! transitions, allocation-site feedback, speculative optimization with
//! Class-Cache-driven check elision, deoptimization and OSR-out. Each of
//! those layers is a place where observable behaviour could silently
//! diverge from the language definition. This crate provides the
//! machinery to find such divergences automatically:
//!
//! * [`reference`] — a deliberately naive tree-walking interpreter over
//!   the `checkelide-lang` AST. No hidden classes, no tiers, no tagging:
//!   it defines the ground-truth observable behaviour (printed output,
//!   final value, thrown runtime errors) that every engine configuration
//!   must reproduce bit-for-bit.
//! * [`generate`] — a seeded, deterministic njs program generator biased
//!   toward the engine's soft spots: constructor transition chains,
//!   properties flipping SMI→double→tagged mid-loop, elements-kind
//!   transitions, megamorphic call sites, and stores that fire
//!   misspeculation inside optimized regions.
//! * [`diff`] — the differential runner: executes each program under the
//!   reference interpreter and a matrix of engine configurations
//!   (baseline-only; optimizer without elision; Class Cache speculation;
//!   speculation with `max_deopts` forced low to exercise the
//!   epoch-bump/OSR-out path) and asserts identical observables.
//! * [`shrink`] — on a mismatch, reduces the failing program to a
//!   minimal reproducer (statement deletion to fixpoint plus literal
//!   reduction) and dumps it with its seed under `results/xcheck/`.
//!
//! The `xcheck` binary drives a seed sweep in parallel via the
//! fault-isolated worker pool from `checkelide-bench`; given the same
//! seed range it produces a byte-identical report at any `--jobs`.

#![forbid(unsafe_code)]

pub mod diff;
pub mod generate;
pub mod reference;
pub mod shrink;

pub use diff::{
    check_source, config_matrix, run_engine, sweep, Mismatch, Observed, SweepOptions,
    SweepReport, ENGINE_STEP_BUDGET,
};
pub use generate::generate_source;
pub use reference::{run_reference, REF_STEP_BUDGET};
pub use shrink::{shrink_source, ShrinkOptions};
