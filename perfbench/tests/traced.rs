//! The traced composition measures the same program the runner runs, the
//! wrappers are transparent, and each workload leaves idle the layers it
//! is predicted to leave idle.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the kernels run at their `--quick` scale).

use checkelide_bench::json::to_string_pretty;
use checkelide_bench::runner::RunConfig;
use checkelide_bench::{find, sim_fingerprint, Benchmark, SimCacheMode, TraceCache};
use checkelide_engine::{CompileOutcome, OptimizerHook, Vm};
use checkelide_isa::{CounterSink, NullSink, TraceSink, Uop};
use checkelide_perfbench::cells::{
    bbv_configs, bbv_row, key_of, run_cell, traced_record, traced_replay, traced_sim_hit, RunView,
};
use checkelide_perfbench::ledger;
use checkelide_perfbench::metrics::{self, predicted_idle};
use checkelide_perfbench::tally::Tally;
use checkelide_perfbench::timed::{TimedOptimizer, TimedSink};
use checkelide_perfbench::util::TempDir;
use checkelide_perfbench::workloads::{self, same_files, Ctx};
use checkelide_uarch::SimObject;
use std::path::PathBuf;

const KERNELS: [&str; 3] = ["richards", "3d-cube", "ai-astar"];

fn kernels() -> Vec<&'static Benchmark> {
    KERNELS
        .iter()
        .map(|n| find(n).expect("registered kernel"))
        .collect()
}

fn work_root() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests")
}

/// Everything observable about a run, as bytes.
fn fingerprint(v: &RunView) -> (String, [u64; 21], u64, Option<Vec<u8>>) {
    let sim = v
        .sim
        .as_ref()
        .map(|s| SimObject::new([0; 32], sim_fingerprint(), s.clone()).encode());
    (v.checksum.clone(), v.counters.snapshot(), v.uops, sim)
}

#[test]
fn timed_sink_forwards_every_method() {
    assert!(TimedSink::new("x", NullSink::new()).discards_all());
    let mut timed = TimedSink::new("x", CounterSink::new());
    assert!(!timed.discards_all());
    let uops = [Uop::alu(
        0,
        checkelide_isa::Category::Check,
        checkelide_isa::Region::Optimized,
    ); 7];
    let mut plain = CounterSink::new();
    timed.emit_batch(&uops);
    timed.emit(&uops[0]);
    timed.finish();
    plain.emit_batch(&uops);
    plain.emit(&uops[0]);
    plain.finish();
    assert_eq!(timed.into_inner().snapshot(), plain.snapshot());
}

#[test]
fn timed_optimizer_returns_the_outcome_unchanged() {
    struct Fixed;
    impl OptimizerHook for Fixed {
        fn compile(&self, _vm: &mut Vm, _func: u32) -> CompileOutcome {
            CompileOutcome::Defer
        }
    }
    let hook = TimedOptimizer::new(Fixed);
    let mut vm = Vm::new(checkelide_engine::EngineConfig::default());
    assert!(matches!(hook.compile(&mut vm, 0), CompileOutcome::Defer));
    assert_eq!(hook.counts().defers, 1);
}

/// The runner's cold path and the traced composition, each into a store
/// of its own, give identical outputs, rows and store files; the traced
/// replay and sim-hit paths then read back the same outputs.
#[test]
fn traced_composition_yields_the_runners_outputs() {
    let root = work_root();
    std::fs::create_dir_all(&root).unwrap();
    for b in kernels() {
        let (a, b_dir) = (
            TempDir::new(&root, "a").unwrap(),
            TempDir::new(&root, "b").unwrap(),
        );
        let cache = TraceCache::at(a.path()).with_sim_mode(SimCacheMode::On);
        let store = checkelide_bench::TraceStore::open(b_dir.path(), true).unwrap();
        let mut tally = Tally::default();
        ledger::install();
        let cfgs: Vec<RunConfig> = bbv_configs(b).to_vec();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for &cfg in &cfgs {
            plain.push(run_cell(b, cfg, &cache).expect("runner").0);
            traced.push(traced_record(b, cfg, &store, &mut tally).expect("traced"));
        }
        for (x, y) in plain.iter().zip(&traced) {
            assert_eq!(fingerprint(x), fingerprint(y), "{}", b.name);
        }
        assert_eq!(
            to_string_pretty(&vec![bbv_row(b, &plain).unwrap()]),
            to_string_pretty(&vec![bbv_row(b, &traced).unwrap()])
        );
        same_files(a.path(), b_dir.path()).expect("byte-identical stores");
        for (cfg, v) in cfgs.iter().zip(&plain) {
            let replayed = traced_replay(b, *cfg, &store, &mut tally).expect("replay");
            let hit = traced_sim_hit(b, *cfg, &store, &mut tally).expect("sim hit");
            assert_eq!(fingerprint(v), fingerprint(&replayed), "{}", key_of(b, cfg));
            assert_eq!(fingerprint(v), fingerprint(&hit), "{}", key_of(b, cfg));
        }
        assert_eq!(tally.get("bench.simcache.hits"), cfgs.len() as u64);
        let spans = ledger::take();
        assert!(
            spans.iter().any(|s| s.name == "opt.compile"),
            "compiles inside call_global were traced"
        );
    }
}

#[test]
fn each_workload_leaves_its_predicted_layers_idle() {
    let ctx = Ctx {
        seed: 5,
        seconds: 0.0,
        work_root: work_root(),
        kernels: Some(kernels()),
    };
    let busy = [
        ("resimulate", "uarch.coresim_ns"),
        ("record", "isa.encode_ns"),
        ("serve", "bench.proto.stat_us"),
    ];
    for (w, busy_metric) in busy {
        let out = workloads::run(w, &ctx, true).expect("workload runs");
        assert_eq!(out.failed, 0, "{w}: {:?}", out.errors);
        for name in predicted_idle(w) {
            assert_eq!(out.get(name), Some(0.0), "{w}: {name} predicted idle");
        }
        assert!(
            out.get(busy_metric).unwrap() > 0.0,
            "{w}: {busy_metric} busy"
        );
        let share = out.get("trace.unattributed_share").unwrap();
        assert!(share < 0.05, "{w}: {share} of the traced wall unattributed");
        assert_eq!(out.metrics.len(), metrics::PER_LAYER.len());
    }
}

#[test]
fn untraced_workloads_report_every_end_to_end_metric() {
    let ctx = Ctx {
        seed: 9,
        seconds: 0.0,
        work_root: work_root(),
        kernels: Some(kernels()),
    };
    for w in metrics::WORKLOADS {
        let out = workloads::run(w.name, &ctx, false).expect("workload runs");
        assert_eq!(out.failed, 0, "{}: {:?}", w.name, out.errors);
        for m in metrics::END_TO_END {
            let v = out.get(m.name).unwrap_or(0.0);
            assert!(v.is_finite() && v > 0.0, "{}: {} = {v}", w.name, m.name);
        }
    }
}

#[test]
fn benchmark_json_is_generated_from_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, metrics::benchmark_json());
}
