//! One grid cell, run two ways.
//!
//! The untraced path calls the public runner
//! ([`try_run_benchmark_cached`]), exactly as the figure drivers do. The
//! traced path composes the calls the runner makes — `Vm::new`,
//! `load_program` + the top-level call (`run_program`'s two halves),
//! `call_global`, the sinks, the optimizer hook, and the store and codec
//! calls — with a span around each and timing wrappers around the sinks
//! and the hook. The benchmark's tests pin the two paths to identical
//! outputs.

use crate::ledger::span;
use crate::tally::Tally;
use crate::timed::{TimedOptimizer, TimedSink};
use checkelide_bench::figures::FigBbvRow;
use checkelide_bench::runner::{try_run_benchmark_cached, CacheDisposition, RunConfig, RunOutput};
use checkelide_bench::store::{ObjectImage, Sidecar, TraceStore};
use checkelide_bench::tracecache::cache_key;
use checkelide_bench::{sim_config, sim_fingerprint, Benchmark, SimTelemetry, TraceCache};
use checkelide_core::loadstats::Fig3Row;
use checkelide_core::ClassCacheStats;
use checkelide_engine::{EngineConfig, OptimizerHook, Vm, VmStats};
use checkelide_isa::trace::Tee;
use checkelide_isa::{
    BatchSink, Category, CounterSink, NullSink, TraceReader, TraceSink, TraceWriter,
};
use checkelide_opt::Optimizer;
use checkelide_runtime::Value;
use checkelide_uarch::{CoreSim, SimObject, SimResult};
use std::rc::Rc;

/// Iterations per cell at `--quick` scale (the figure drivers' setting).
pub const QUICK_ITERS: u32 = 4;

/// A kernel's `--quick` scale (the figure drivers' setting).
#[must_use]
pub fn quick_scale(b: &Benchmark) -> i32 {
    (b.scale / 6).max(2)
}

/// The five BBV head-to-head configurations of `b` at `--quick` scale, in
/// the column order of `figures::BBV_CONFIGS`.
#[must_use]
pub fn bbv_configs(b: &Benchmark) -> [RunConfig; 5] {
    [
        RunConfig::baseline_timed(),
        RunConfig::characterize().with_timing(true),
        RunConfig::mechanism_timed(),
        RunConfig::characterize().with_timing(true).with_bbv(true),
        RunConfig::mechanism_timed().with_bbv(true),
    ]
    .map(|c| c.with_scale(quick_scale(b)).with_iterations(QUICK_ITERS))
}

/// The Fig. 1 configuration of `b` at `--quick` scale (untimed).
#[must_use]
pub fn fig1_config(b: &Benchmark) -> RunConfig {
    RunConfig::characterize()
        .with_scale(quick_scale(b))
        .with_iterations(QUICK_ITERS)
}

/// The two Fig. 8/9 configurations of `b` at `--quick` scale.
#[must_use]
pub fn fig89_configs(b: &Benchmark) -> [RunConfig; 2] {
    [RunConfig::baseline_timed(), RunConfig::mechanism_timed()]
        .map(|c| c.with_scale(quick_scale(b)).with_iterations(QUICK_ITERS))
}

/// The store key of one cell.
#[must_use]
pub fn key_of(b: &Benchmark, cfg: &RunConfig) -> String {
    cache_key(b.name, cfg.scale.unwrap_or(b.scale), cfg)
}

/// What a row needs from one run, whichever path produced it.
#[derive(Debug, Clone)]
pub struct RunView {
    /// Benchmark checksum string.
    pub checksum: String,
    /// Measured-iteration counters.
    pub counters: CounterSink,
    /// Measured-iteration µops.
    pub uops: u64,
    /// Timing result, for timed configurations.
    pub sim: Option<SimResult>,
    /// VM statistics.
    pub vm_stats: VmStats,
    /// Class Cache statistics.
    pub class_cache: ClassCacheStats,
    /// Hidden classes over the whole run.
    pub hidden_classes: u64,
    /// Ordinary objects allocated.
    pub objects: u64,
}

impl From<RunOutput> for RunView {
    fn from(out: RunOutput) -> RunView {
        RunView {
            checksum: out.checksum,
            counters: out.counters,
            uops: out.uops,
            sim: out.sim,
            vm_stats: out.vm_stats,
            class_cache: out.class_cache,
            hidden_classes: out.hidden_classes as u64,
            objects: out.obj_stats.objects,
        }
    }
}

impl RunView {
    fn from_sidecar(side: &Sidecar, sim: Option<SimResult>) -> Result<RunView, String> {
        let counters = CounterSink::from_snapshot(&side.counters);
        if counters.total() != side.uops {
            return Err(format!(
                "{}: sidecar counters disagree with its µop count",
                side.key
            ));
        }
        Ok(RunView {
            checksum: side.checksum.clone(),
            counters,
            uops: side.uops,
            sim,
            vm_stats: side.vm_stats,
            class_cache: side.class_cache,
            hidden_classes: side.hidden_classes,
            objects: side.obj_stats.objects,
        })
    }
}

/// Run one cell through the public runner.
///
/// # Errors
///
/// The runner's error, as text.
pub fn run_cell(
    b: &Benchmark,
    cfg: RunConfig,
    cache: &TraceCache,
) -> Result<(RunView, CacheDisposition, SimTelemetry), String> {
    try_run_benchmark_cached(b, cfg, cache)
        .map(|(out, disp, tel)| (RunView::from(out), disp, tel))
        .map_err(|e| e.to_string())
}

/// The BBV head-to-head row of the five runs of one kernel, as
/// `figures::fig_bbv_report_cached` builds it (checksums cross-checked).
///
/// # Errors
///
/// A checksum divergence or an untimed run.
pub fn bbv_row(b: &Benchmark, views: &[RunView]) -> Result<FigBbvRow, String> {
    let mut cycles = Vec::with_capacity(views.len());
    for v in views {
        if v.checksum != views[0].checksum {
            return Err(format!(
                "{}: checksum {:?} differs from the baseline's {:?}",
                b.name, v.checksum, views[0].checksum
            ));
        }
        cycles.push(
            v.sim
                .as_ref()
                .ok_or_else(|| format!("{}: untimed BBV run", b.name))?
                .cycles,
        );
    }
    let checks: Vec<u64> = views
        .iter()
        .map(|v| v.counters.by_category(Category::Check))
        .collect();
    let noelide = checks[1];
    Ok(FigBbvRow {
        name: b.name.to_string(),
        suite: b.suite.name().to_string(),
        elided: checks.iter().map(|&c| noelide.saturating_sub(c)).collect(),
        checks,
        uops: views.iter().map(|v| v.uops).collect(),
        cycles,
    })
}

/// Figure 3 classification with the aggregated monomorphism query — the
/// runner's own (private) step that fills a recording's manifest.
fn classify_fig3(vm: &Vm) -> Fig3Row {
    vm.load_stats.classify_aggregated(
        &|cid, line, pos| {
            let Some(map) = vm.rt.maps.map_of_class(cid) else {
                return false;
            };
            for (&name, &off) in vm.rt.maps.get(map).prop_offsets_iter() {
                if (off / 8) as u8 == line && (off % 8) as u8 == pos {
                    if let Some(intro) = vm.rt.maps.introducer_of(map, name) {
                        return vm.aggregated_monomorphic_class(intro, line, pos).is_some();
                    }
                }
            }
            vm.class_list.monomorphic_class(cid, line, pos).is_some()
        },
        &|cid| {
            let Some(map) = vm.rt.maps.map_of_class(cid) else {
                return false;
            };
            let root = vm.rt.maps.root_of(map);
            vm.aggregated_monomorphic_class(root, 0, checkelide_core::ELEMENTS_SLOT)
                .is_some()
        },
    )
}

/// Add a live run's engine, optimizer, runtime and Class Cache counts.
fn tally_live(tally: &mut Tally, view: &RunView) {
    let s = &view.vm_stats;
    tally.add("engine.calls", s.calls);
    tally.add("engine.opt_entries", s.opt_entries);
    tally.add("engine.deopts", s.deopts);
    tally.add("engine.ic_misses", s.ic_misses);
    tally.add("opt.regions_compiled", s.regions_compiled);
    tally.add("opt.tier_up_events", s.tier_up_events);
    tally.add("opt.code_cache_bytes", s.code_cache_bytes);
    tally.add("opt.evictions", s.evictions);
    tally.add("opt.deopt_bridges", s.deopt_bridges);
    tally.add("opt.bbv_versions", s.bbv_versions);
    tally.add("opt.bbv_cap_fallbacks", s.bbv_cap_fallbacks);
    tally.add("runtime.gc_runs", s.gc_runs);
    tally.add("runtime.objects", view.objects);
    tally.add("runtime.hidden_classes", view.hidden_classes);
    tally.add("core.cc_accesses", view.class_cache.accesses);
    tally.add("core.cc_hits", view.class_cache.hits);
    tally.add("core.misspec_exceptions", s.misspec_exceptions);
    tally.add("isa.uops", view.uops);
    tally.add("isa.check_uops", view.counters.by_category(Category::Check));
}

/// Add a CoreSim run's counts.
fn tally_sim(tally: &mut Tally, sim: &SimResult) {
    tally.add("uarch.uops", sim.uops);
    tally.add("uarch.cycles", sim.cycles);
    tally.add("uarch.dl1_misses", sim.dl1.misses);
}

fn measured(vm: &mut Vm, args: &[Value], sink: &mut dyn TraceSink) -> Result<Value, String> {
    span("engine.measured", || vm.call_global("bench", args, sink)).map_err(|e| e.to_string())
}

/// Run one cell live through the traced composition of the runner's
/// calls, recording the measured iteration and publishing it to `store`
/// — manifest, object and (for timed configurations) sim object — as the
/// runner's cold path does.
///
/// # Errors
///
/// Any failure of setup, a warm-up, the measured iteration or the publish.
pub fn traced_record(
    b: &Benchmark,
    cfg: RunConfig,
    store: &TraceStore,
    tally: &mut Tally,
) -> Result<RunView, String> {
    let engine_cfg = EngineConfig {
        mechanism: cfg.mechanism,
        opt_enabled: cfg.opt,
        class_cache: cfg.class_cache,
        bbv: cfg.bbv,
        ..EngineConfig::default()
    };
    let mut vm = span("engine.setup", || Vm::new(engine_cfg));
    let hook = Rc::new(TimedOptimizer::new(Optimizer::new()));
    if cfg.opt {
        vm.set_optimizer(Rc::clone(&hook) as Rc<dyn OptimizerHook>);
    }
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{}: {stage} failed: {e}", b.name);
    // `run_program`, split at its two halves: parse + register, then the
    // top-level call into a batched discarding sink.
    let main = span("lang.parse", || vm.load_program(b.source)).map_err(|e| fail("setup", &e))?;
    let mut null = TimedSink::new("isa.null", NullSink::new());
    let undef = vm.rt.odd.undefined;
    span("engine.setup", || {
        let mut batch = BatchSink::new(&mut null);
        let r = vm.call_user(&mut batch, main, undef, &[]);
        batch.flush();
        r
    })
    .map_err(|e| fail("setup", &e))?;

    let args = [Value::smi(cfg.scale.unwrap_or(b.scale))];
    for i in 1..cfg.iterations {
        vm.rt.reset_prng();
        span("engine.warmup", || {
            vm.call_global("bench", &args, &mut null)
        })
        .map_err(|e| fail(&format!("warmup {i}"), &e))?;
    }

    // The runner's steady-state boundary.
    vm.class_cache.reset_stats();
    vm.load_stats.reset();
    let carried = vm.stats;
    vm.stats = VmStats::default();
    vm.stats.bbv_versions = carried.bbv_versions;
    vm.stats.bbv_cap_fallbacks = carried.bbv_cap_fallbacks;
    vm.stats.regions_compiled = carried.regions_compiled;
    vm.stats.tier_up_events = carried.tier_up_events;
    vm.stats.code_cache_bytes = carried.code_cache_bytes;
    vm.stats.evictions = carried.evictions;
    vm.rt.reset_prng();

    let mut counters = TimedSink::new("isa.counter", CounterSink::new());
    let mut sim = cfg
        .timing
        .then(|| TimedSink::new("uarch.coresim", CoreSim::new(sim_config())));
    let mut writer = TimedSink::new(
        "isa.encode",
        TraceWriter::new(Vec::with_capacity(1 << 16)).map_err(|e| fail("record", &e))?,
    );
    let result = match sim.as_mut() {
        Some(sim) => {
            let mut pair = Tee::new(&mut counters, sim);
            measured(&mut vm, &args, &mut Tee::new(&mut pair, &mut writer))
        }
        None => measured(&mut vm, &args, &mut Tee::new(&mut counters, &mut writer)),
    }
    .map_err(|e| fail("measured run", &e))?;
    counters.finish();

    let fig3 = span("engine.classify", || classify_fig3(&vm));
    let counts = hook.counts();
    tally.add("opt.compiles", counts.code);
    tally.add("opt.defers", counts.defers);
    tally.add("opt.bails", counts.bails);
    let counters = counters.into_inner();
    let view = RunView {
        checksum: vm.rt.to_display_string(result),
        uops: counters.total(),
        counters,
        sim: sim.map(|s| s.into_inner().result()),
        vm_stats: vm.stats,
        class_cache: vm.class_cache.stats(),
        hidden_classes: vm.rt.maps.len() as u64,
        objects: vm.rt.obj_stats.objects,
    };
    tally_live(tally, &view);
    if let Some(sim) = &view.sim {
        tally_sim(tally, sim);
    }
    let (raw, stats) =
        span("isa.encode", || writer.into_inner().finish_file()).map_err(|e| fail("record", &e))?;
    if stats.uops != view.uops {
        return Err(format!(
            "{}: recorded {} µops, measured {}",
            b.name, stats.uops, view.uops
        ));
    }
    tally.add("isa.encoded_bytes", raw.len() as u64);
    let image = span("bench.store.image_build", || {
        ObjectImage::build(&raw, store.compress())
    });
    tally.add("isa.lz_raw_bytes", raw.len() as u64);
    tally.add("isa.lz_stored_bytes", image.bytes.len() as u64);
    let side = Sidecar {
        key: key_of(b, &cfg),
        counters: view.counters.snapshot(),
        fig3,
        class_cache: view.class_cache,
        vm_stats: view.vm_stats,
        obj_stats: vm.rt.obj_stats,
        hidden_classes: view.hidden_classes,
        uops: view.uops,
        trace_bytes: raw.len() as u64,
        checksum: view.checksum.clone(),
        cid: image.cid,
        compression: image.compression,
        stored_bytes: image.bytes.len() as u64,
    };
    span("bench.store.write", || {
        store.put_prepared(&side, &image.bytes)
    })
    .map_err(|e| fail("publish", &e))?;
    if let Some(result) = &view.sim {
        let obj = span("uarch.simobj", || {
            SimObject::new(side.cid, sim_fingerprint(), result.clone())
        });
        span("bench.store.sim_put", || store.sim_put(&obj)).map_err(|e| fail("publish", &e))?;
        tally.add("bench.simcache.misses", 1);
    }
    tally.add("bench.runner.trace_misses", 1);
    Ok(view)
}

/// Serve one timed cell from the store by replaying its trace through
/// CoreSim — the runner's trace-hit path with the sim cache off: the
/// manifest lookup, the object read, the image check (LZ + SHA-256), the
/// decode and the replay.
///
/// # Errors
///
/// A missing or corrupt entry, or a µop-count disagreement.
pub fn traced_replay(
    b: &Benchmark,
    cfg: RunConfig,
    store: &TraceStore,
    tally: &mut Tally,
) -> Result<RunView, String> {
    let key = key_of(b, &cfg);
    let side = span("bench.store.stat", || store.stat(&key))
        .ok_or_else(|| format!("{key}: no manifest"))?;
    let image = span("bench.store.read", || {
        std::fs::read(store.object_path(&side.cid))
    })
    .map_err(|e| format!("{key}: object read failed: {e}"))?;
    tally.add("bench.store.object_bytes_read", image.len() as u64);
    let raw = span("bench.store.image_verify", || {
        ObjectImage::decode_verify(&image, &side.cid)
    })
    .filter(|raw| raw.len() as u64 == side.trace_bytes)
    .ok_or_else(|| format!("{key}: object failed verification"))?;
    let mut sim = TimedSink::new("uarch.coresim", CoreSim::new(sim_config()));
    let replayed = span("isa.decode", || {
        TraceReader::new(&raw[..])?.replay(&mut sim)
    })
    .map_err(|e| format!("{key}: replay failed: {e}"))?;
    if replayed != side.uops {
        return Err(format!(
            "{key}: replayed {replayed} µops, manifest says {}",
            side.uops
        ));
    }
    let result = sim.into_inner().result();
    tally_sim(tally, &result);
    tally.add("bench.runner.trace_hits", 1);
    RunView::from_sidecar(&side, Some(result))
}

/// Serve one timed cell from its manifest and memoized sim object — the
/// runner's sim-warm path.
///
/// # Errors
///
/// A missing entry or sim object, or one that disagrees with its manifest.
pub fn traced_sim_hit(
    b: &Benchmark,
    cfg: RunConfig,
    store: &TraceStore,
    tally: &mut Tally,
) -> Result<RunView, String> {
    let key = key_of(b, &cfg);
    let side = span("bench.store.stat", || store.stat(&key))
        .ok_or_else(|| format!("{key}: no manifest"))?;
    let obj = span("bench.store.sim_get", || {
        store.sim_get(&side.cid, sim_fingerprint())
    })
    .filter(|obj| obj.result.uops == side.uops);
    let Some(obj) = obj else {
        tally.add("bench.simcache.misses", 1);
        return Err(format!("{key}: sim cache miss on a sim-warm pass"));
    };
    tally.add("bench.simcache.hits", 1);
    tally.add("bench.runner.trace_hits", 1);
    RunView::from_sidecar(&side, Some(obj.result))
}
