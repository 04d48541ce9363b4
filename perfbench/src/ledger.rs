//! The span ledger of a traced run.
//!
//! Every call the traced composition makes into a layer is wrapped in a
//! span: name, start, duration, parent and cell id. Spans live in memory
//! (one ledger per thread) and are rolled up when the run ends. A span's
//! *self time* is its duration minus the time covered by its children, so
//! a compile triggered inside `call_global` is charged to the optimizer,
//! not twice.
//!
//! High-frequency leaf calls (a sink's `emit_batch`, once per bytecode
//! operation) would make millions of records; they are folded into one
//! aggregate span per (parent span, name) carrying the call count and the
//! summed duration. Leaves have no children, so the self-time arithmetic
//! is the same as with one record per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span (or one aggregate of leaf calls under one parent).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.measured` or `isa.counter`.
    pub name: &'static str,
    /// Cell the span belongs to (a grid cell or a request).
    pub cell: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the ledger was installed.
    pub start_ns: u64,
    /// End, in ns since the ledger was installed (the last call's end for
    /// an aggregate).
    pub end_ns: u64,
    /// Summed duration of the call(s).
    pub dur_ns: u64,
    /// Number of calls folded into this record (1 for an ordinary span).
    pub calls: u64,
    /// Time covered by direct children.
    pub child_ns: u64,
}

impl Span {
    /// Duration minus the part covered by child spans.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

#[derive(Debug)]
struct Ledger {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, each with its leaf aggregates.
    stack: Vec<(usize, Vec<usize>)>,
    /// Aggregates of leaves called outside any open span.
    root_leaves: Vec<usize>,
    cell: u32,
}

impl Ledger {
    fn now_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

thread_local! {
    static LEDGER: RefCell<Option<Ledger>> = const { RefCell::new(None) };
}

/// Install a fresh, empty ledger on this thread. Spans recorded while no
/// ledger is installed are dropped.
pub fn install() {
    LEDGER.with(|l| {
        *l.borrow_mut() = Some(Ledger {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            root_leaves: Vec::new(),
            cell: 0,
        });
    });
}

/// Remove this thread's ledger and return its spans.
///
/// # Panics
///
/// If a span is still open: every `span` call closes what it opens, so an
/// open span here is a bug in the composition.
pub fn take() -> Vec<Span> {
    LEDGER.with(|l| {
        let ledger = l.borrow_mut().take();
        ledger.map_or_else(Vec::new, |ledger| {
            assert!(ledger.stack.is_empty(), "ledger taken with open spans");
            ledger.spans
        })
    })
}

/// Tag the spans recorded from now on with `cell`.
pub fn set_cell(cell: u32) {
    LEDGER.with(|l| {
        if let Some(ledger) = l.borrow_mut().as_mut() {
            ledger.cell = cell;
        }
    });
}

/// Run `f` inside a span called `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let opened = LEDGER.with(|l| {
        let mut guard = l.borrow_mut();
        let ledger = guard.as_mut()?;
        let ix = ledger.spans.len();
        let start_ns = ledger.now_ns(start);
        ledger.spans.push(Span {
            name,
            cell: ledger.cell,
            parent: ledger.stack.last().map(|&(p, _)| p),
            start_ns,
            end_ns: start_ns,
            dur_ns: 0,
            calls: 1,
            child_ns: 0,
        });
        ledger.stack.push((ix, Vec::new()));
        Some(ix)
    });
    let out = f();
    let end = Instant::now();
    if let Some(ix) = opened {
        LEDGER.with(|l| {
            let mut guard = l.borrow_mut();
            let ledger = guard.as_mut().expect("ledger removed inside an open span");
            let (top, _) = ledger.stack.pop().expect("span stack underflow");
            debug_assert_eq!(top, ix, "spans closed out of order");
            let end_ns = ledger.now_ns(end);
            let dur = end_ns - ledger.spans[ix].start_ns;
            ledger.spans[ix].end_ns = end_ns;
            ledger.spans[ix].dur_ns = dur;
            if let Some(parent) = ledger.spans[ix].parent {
                ledger.spans[parent].child_ns += dur;
            }
        });
    }
    out
}

/// Record one leaf call that ran from `start` until now, folded into the
/// aggregate for `name` under the innermost open span.
pub fn leaf(name: &'static str, start: Instant) {
    let end = Instant::now();
    LEDGER.with(|l| {
        let mut guard = l.borrow_mut();
        let Some(ledger) = guard.as_mut() else { return };
        let start_ns = ledger.now_ns(start);
        let end_ns = ledger.now_ns(end);
        let dur = end_ns - start_ns;
        let parent = ledger.stack.last().map(|&(p, _)| p);
        let cell = ledger.cell;
        let Ledger {
            spans,
            stack,
            root_leaves,
            ..
        } = ledger;
        let aggs = match stack.last_mut() {
            Some((_, aggs)) => aggs,
            None => root_leaves,
        };
        let found = aggs
            .iter()
            .copied()
            .find(|&a| spans[a].name == name && spans[a].cell == cell);
        let ix = found.unwrap_or_else(|| {
            spans.push(Span {
                name,
                cell,
                parent,
                start_ns,
                end_ns,
                dur_ns: 0,
                calls: 0,
                child_ns: 0,
            });
            aggs.push(spans.len() - 1);
            spans.len() - 1
        });
        spans[ix].dur_ns += dur;
        spans[ix].calls += 1;
        spans[ix].end_ns = end_ns;
        if let Some(parent) = parent {
            spans[parent].child_ns += dur;
        }
    });
}

/// Self time per span name, in ns.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.self_ns();
    }
    out
}

/// Total duration (children included) and call count per span name.
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += s.dur_ns;
        e.1 += s.calls;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_are_not_double_counted() {
        install();
        span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            let t = Instant::now();
            std::thread::sleep(std::time::Duration::from_millis(1));
            leaf("leaf", t);
        });
        let spans = take();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let sum_self: u64 = spans.iter().map(Span::self_ns).sum();
        assert_eq!(
            sum_self, outer.dur_ns,
            "self times partition the outer span"
        );
        let selfs = self_times(&spans);
        assert!(selfs["outer"] >= 2_000_000 && selfs["outer"] < outer.dur_ns - 3_000_000);
        assert!(selfs["inner"] >= 3_000_000);
        assert_eq!(
            spans.iter().find(|s| s.name == "leaf").unwrap().parent,
            Some(0)
        );
    }

    #[test]
    fn leaves_fold_into_one_aggregate_per_parent() {
        install();
        span("p", || {
            for _ in 0..100 {
                leaf("l", Instant::now());
            }
        });
        let spans = take();
        let leaves: Vec<&Span> = spans.iter().filter(|s| s.name == "l").collect();
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].calls, 100);
        assert_eq!(spans[0].child_ns, leaves[0].dur_ns);
    }
}
