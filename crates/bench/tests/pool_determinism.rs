//! Scheduling-independence and fault-isolation guarantees of the pooled
//! experiment harness.
//!
//! 1. The same figure driver run with `jobs = 1` and `jobs = 4` must
//!    produce byte-identical rows (JSON-serialized) — results are slotted
//!    by input index, never by completion order.
//! 2. A cell function that panics for one benchmark must surface as a
//!    reported `CellError` while every sibling cell still completes and
//!    produces its row.

use checkelide_bench::figures;
use checkelide_bench::runner::{try_run_benchmark_cached, RunConfig};
use checkelide_bench::{ToJson, TraceCache, BENCHMARKS};

fn rows_json<R: ToJson>(rows: &[R]) -> String {
    checkelide_bench::json::to_string_pretty(&rows.to_json())
}

#[test]
fn fig1_rows_are_byte_identical_across_job_counts() {
    let cache = TraceCache::disabled();
    let serial = figures::fig1_report_cached(true, 1, &cache);
    let parallel = figures::fig1_report_cached(true, 4, &cache);
    assert!(serial.failures.is_empty(), "serial failures: {:?}", serial.failures);
    assert!(parallel.failures.is_empty(), "parallel failures: {:?}", parallel.failures);
    assert_eq!(
        rows_json(&serial.rows),
        rows_json(&parallel.rows),
        "fig1 rows depend on worker scheduling"
    );
}

#[test]
fn fig89_rows_are_byte_identical_across_job_counts() {
    let cache = TraceCache::disabled();
    let serial = figures::fig89_report_cached(true, 1, &cache);
    let parallel = figures::fig89_report_cached(true, 4, &cache);
    assert!(serial.failures.is_empty(), "serial failures: {:?}", serial.failures);
    assert!(parallel.failures.is_empty(), "parallel failures: {:?}", parallel.failures);
    assert_eq!(
        rows_json(&serial.rows),
        rows_json(&parallel.rows),
        "fig8/9 rows depend on worker scheduling"
    );
}

#[test]
fn injected_panic_is_isolated_to_its_cell() {
    let victim = "richards";
    let cache = TraceCache::disabled();
    let report = figures::run_figure("fig1", BENCHMARKS.iter().collect(), 4, |b| {
        if b.name == victim {
            panic!("injected panic for fault-isolation testing");
        }
        let cfg = RunConfig::characterize().with_scale(2).with_iterations(2);
        let (out, disp, sim_tel) = try_run_benchmark_cached(b, cfg, &cache)?;
        Ok((b.name, out.uops, disp, sim_tel, out.vm_stats))
    });

    // Exactly the panicking cell failed, as a CellError with the panic
    // message — not an abort of the whole report.
    assert_eq!(report.failures.len(), 1, "failures: {:?}", report.failures);
    let failure = &report.failures[0];
    assert_eq!(failure.label, format!("fig1/{victim}"));
    assert!(
        failure.message.contains("injected panic"),
        "unexpected panic payload: {}",
        failure.message
    );

    // Every sibling cell still produced its row (in registry order) and
    // its metadata.
    let siblings: Vec<&str> =
        BENCHMARKS.iter().map(|b| b.name).filter(|&n| n != victim).collect();
    assert_eq!(report.rows, siblings);
    assert_eq!(report.cells.len(), BENCHMARKS.len());
    let failed_meta =
        report.cells.iter().find(|c| c.benchmark == victim).expect("victim metadata");
    assert!(!failed_meta.ok);
    assert!(failed_meta.error.as_deref().unwrap_or("").contains("injected panic"));
    assert!(
        report.cells.iter().filter(|c| c.benchmark != victim).all(|c| c.ok && c.uops > 0),
        "a sibling cell was poisoned: {:?}",
        report.cells.iter().filter(|c| !c.ok).collect::<Vec<_>>()
    );
}
