//! Timing wrappers the traced run installs at layer boundaries.
//!
//! Both wrappers are transparent: [`TimedSink`] forwards every
//! [`TraceSink`] method — `discards_all` included, or warm-ups would lose
//! the engine's discarding fast path and the traced run would measure a
//! different program — and [`TimedOptimizer`] returns the wrapped
//! optimizer's [`CompileOutcome`] unchanged.

use crate::ledger;
use checkelide_engine::{CompileOutcome, OptimizerHook, Vm};
use checkelide_isa::{TraceSink, Uop};
use std::cell::Cell;
use std::time::Instant;

/// A [`TraceSink`] that charges the time spent in `inner` to the span
/// name `name` (as leaf calls of the innermost open span).
#[derive(Debug)]
pub struct TimedSink<S> {
    name: &'static str,
    inner: S,
}

impl<S: TraceSink> TimedSink<S> {
    /// Wrap `inner`, charging its time to `name`.
    pub fn new(name: &'static str, inner: S) -> TimedSink<S> {
        TimedSink { name, inner }
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn emit(&mut self, uop: &Uop) {
        let t = Instant::now();
        self.inner.emit(uop);
        ledger::leaf(self.name, t);
    }

    fn emit_batch(&mut self, uops: &[Uop]) {
        let t = Instant::now();
        self.inner.emit_batch(uops);
        ledger::leaf(self.name, t);
    }

    fn finish(&mut self) {
        let t = Instant::now();
        self.inner.finish();
        ledger::leaf(self.name, t);
    }

    fn discards_all(&self) -> bool {
        self.inner.discards_all()
    }
}

/// Compile outcomes seen by a [`TimedOptimizer`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompileCounts {
    /// Compiles that produced code.
    pub code: u64,
    /// Compiles deferred for more feedback.
    pub defers: u64,
    /// Compiles that gave up on the function for good.
    pub bails: u64,
}

/// An [`OptimizerHook`] that runs each compile of `inner` inside an
/// `opt.compile` span and counts the outcomes.
#[derive(Debug)]
pub struct TimedOptimizer<H> {
    inner: H,
    counts: Cell<CompileCounts>,
}

impl<H: OptimizerHook> TimedOptimizer<H> {
    /// Wrap `inner`.
    pub fn new(inner: H) -> TimedOptimizer<H> {
        TimedOptimizer {
            inner,
            counts: Cell::new(CompileCounts::default()),
        }
    }

    /// Outcomes so far.
    pub fn counts(&self) -> CompileCounts {
        self.counts.get()
    }
}

impl<H: OptimizerHook> OptimizerHook for TimedOptimizer<H> {
    fn compile(&self, vm: &mut Vm, func: u32) -> CompileOutcome {
        let outcome = ledger::span("opt.compile", || self.inner.compile(vm, func));
        let mut c = self.counts.get();
        match &outcome {
            CompileOutcome::Code(_) => c.code += 1,
            CompileOutcome::Defer => c.defers += 1,
            CompileOutcome::Bail => c.bails += 1,
        }
        self.counts.set(c);
        outcome
    }
}
