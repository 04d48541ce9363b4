//! The three workloads, each in an untraced form (end-to-end metrics) and
//! a traced form (per-layer metrics).
//!
//! Every workload runs in one process, on one thread (plus the server
//! threads of `serve`), and works in fresh scratch stores under the
//! work directory that are removed when it ends. The seed sets the cell
//! order of each grid pass and of `serve`'s request streams; the amount
//! of work in a pass does not depend on it.

use crate::cells::{
    bbv_configs, bbv_row, fig1_config, fig89_configs, key_of, run_cell, traced_record,
    traced_replay, traced_sim_hit, RunView,
};
use crate::ledger::{self, span, Span};
use crate::metrics::{idle_counters, predicted_idle, PER_LAYER};
use crate::tally::Tally;
use crate::util::{
    disk_bytes, latency_summary, list_files, median, order, peak_rss_mb, reference_s, TempDir,
};
use checkelide_bench::figures::{FigBbvRow, BBV_CONFIGS};
use checkelide_bench::json::{to_string_pretty, ToJson};
use checkelide_bench::proto::{serve, RemoteStore, ServerStats};
use checkelide_bench::runner::{CacheDisposition, RunConfig};
use checkelide_bench::store::{Sidecar, StoreStats, TraceStore};
use checkelide_bench::{sim_fingerprint, Benchmark, SimCacheMode, TraceCache, BENCHMARKS};
use checkelide_engine::{EngineConfig, Mechanism, Vm};
use checkelide_isa::NullSink;
use checkelide_opt::install_optimizer;
use checkelide_uarch::SimObject;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The committed `--quick` BBV head-to-head rows.
const FIG_BBV_GOLDEN: &str = include_str!("../../golden/fig_bbv_quick.json");

/// Timed passes (`resimulate`) or cycles (`record`, `serve`) per run, at
/// least: one samples too little of a host whose speed drifts in phases of
/// several seconds, so a run averages two even when that outlasts
/// `--seconds`.
const MIN_CYCLES: usize = 2;
/// Sim-warm passes per `record` cycle.
const SIM_WARM_PASSES: usize = 10;
/// Set-up repetitions per `record` cycle.
const SETUP_REPS: usize = 15;
/// Host reference probes before each timed pass and after the last.
const REF_PROBES: usize = 5;

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed of the cell order and request stream.
    pub seed: u64,
    /// Seconds of timed passes to run (at least one pass runs).
    pub seconds: f64,
    /// Directory for scratch stores.
    pub work_root: PathBuf,
    /// The kernels; `None` is the full figure grid, whose rows are also
    /// checked against the committed golden.
    pub kernels: Option<Vec<&'static Benchmark>>,
}

impl Ctx {
    /// The kernels of the BBV and Fig. 8/9 grids.
    fn grid(&self) -> Vec<&'static Benchmark> {
        match &self.kernels {
            Some(k) => k.clone(),
            None => checkelide_bench::selected().collect(),
        }
    }

    /// The kernels of the Fig. 1 grid.
    fn fig1_grid(&self) -> Vec<&'static Benchmark> {
        match &self.kernels {
            Some(k) => k.clone(),
            None => BENCHMARKS.iter().collect(),
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells, runs and requests attempted.
    pub attempted: u64,
    /// Of which failed (errors, golden or cache-state mismatches, refused
    /// or invalid responses, violated idle predictions).
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable detail lines.
    pub notes: Vec<String>,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// The spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.fail(e)).ok()
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The value of metric `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Run `workload`.
///
/// # Errors
///
/// An unknown workload name, or a scratch directory that cannot be made.
pub fn run(workload: &str, ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.work_root)
        .map_err(|e| format!("cannot create {}: {e}", ctx.work_root.display()))?;
    let mut out = Outcome::default();
    match (workload, trace) {
        ("resimulate", false) => resimulate(ctx, &mut out)?,
        ("resimulate", true) => resimulate_traced(ctx, &mut out)?,
        ("record", false) => record(ctx, &mut out)?,
        ("record", true) => record_traced(ctx, &mut out)?,
        ("serve", false) => serve_workload(ctx, &mut out, false)?,
        ("serve", true) => serve_workload(ctx, &mut out, true)?,
        _ => return Err(format!("unknown workload {workload:?}")),
    }
    if !trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Grid passes
// ---------------------------------------------------------------------------

/// Runs one cell (a kernel under one configuration).
type RunFn<'a> = dyn FnMut(&Benchmark, RunConfig) -> Result<RunView, String> + 'a;

/// What one pass over a grid produced.
struct Pass {
    wall_s: f64,
    uops: u64,
    runs: usize,
}

/// Run one pass over the BBV grid of `kernels` in the seeded order, every
/// cell through `run`; record per-run latencies in `lat`. On the full grid
/// the rows (in registry order) must match the committed golden byte for
/// byte.
fn grid_pass(
    ctx: &Ctx,
    kernels: &[&'static Benchmark],
    pass: u64,
    run: &mut RunFn,
    lat: &mut Vec<f64>,
    out: &mut Outcome,
) -> Pass {
    let mut rows: Vec<Option<FigBbvRow>> = kernels.iter().map(|_| None).collect();
    let (mut uops, mut runs) = (0, 0);
    let t0 = Instant::now();
    for ix in order(kernels.len(), ctx.seed, pass) {
        let b = kernels[ix];
        ledger::set_cell(ix as u32);
        let mut views = Vec::new();
        for cfg in bbv_configs(b) {
            let t = Instant::now();
            let r = run(b, cfg);
            lat.push(t.elapsed().as_secs_f64() * 1e6);
            runs += 1;
            if let Some(v) = out.check(r) {
                uops += v.uops;
                views.push(v);
            }
        }
        if views.len() == BBV_CONFIGS.len() {
            match bbv_row(b, &views) {
                Ok(r) => rows[ix] = Some(r),
                Err(e) => out.fail(e),
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if ctx.kernels.is_none() {
        check_golden(&rows, out);
    }
    Pass { wall_s, uops, runs }
}

/// Compare a pass's rows with the committed golden, byte for byte. Each
/// row missing from the golden text counts as one failure.
fn check_golden(rows: &[Option<FigBbvRow>], out: &mut Outcome) {
    let rows: Vec<&FigBbvRow> = rows.iter().flatten().collect();
    let whole: Vec<checkelide_bench::Json> = rows.iter().map(|r| r.to_json()).collect();
    if to_string_pretty(&whole) == FIG_BBV_GOLDEN {
        return;
    }
    let mut bad = 0;
    for r in &rows {
        let one = to_string_pretty(&vec![r.to_json()]);
        let inner = one.trim_start_matches('[').trim_end_matches(']');
        if !FIG_BBV_GOLDEN.contains(inner.trim_end()) {
            bad += 1;
        }
    }
    out.fail(format!(
        "pass rows differ from the golden ({bad} row(s) differ)"
    ));
    for _ in 1..bad {
        out.fail("row differs from the golden".into());
    }
}

/// Expect a runner disposition and sim-cache telemetry from one run.
fn expect(
    r: Result<(RunView, CacheDisposition, checkelide_bench::SimTelemetry), String>,
    disp: CacheDisposition,
    sim_hits: u64,
    sim_misses: u64,
    tally: &mut Tally,
) -> Result<RunView, String> {
    let (v, d, tel) = r?;
    tally.add("bench.simcache.hits", tel.hits);
    tally.add("bench.simcache.misses", tel.misses);
    if d != disp || tel.hits != sim_hits || tel.misses != sim_misses {
        return Err(format!(
            "cache state: {} with {} sim hit(s) / {} miss(es), expected {} with {sim_hits} / \
             {sim_misses}",
            d.label(),
            tel.hits,
            tel.misses,
            disp.label()
        ));
    }
    Ok(v)
}

/// The untraced timed passes of a grid workload: repeat until `seconds`
/// have elapsed (at least `MIN_CYCLES` times), then report the end-to-end
/// metrics.
fn timed_passes(ctx: &Ctx, kernels: &[&'static Benchmark], run: &mut RunFn, out: &mut Outcome) {
    let mut passes = Passes::default();
    let t0 = Instant::now();
    while passes.walls.len() < MIN_CYCLES || t0.elapsed().as_secs_f64() < ctx.seconds {
        passes.probe_host();
        let pass = passes.walls.len() as u64;
        let p = grid_pass(ctx, kernels, pass, run, &mut passes.lat, out);
        passes.add(&p);
    }
    passes.report(out);
}

/// The timed passes of one run.
///
/// The host's speed drifts in phases of several seconds, so a median over
/// a run's passes jumps between phases; totals over the whole run (the
/// mean pass) move smoothly with the share of time spent in each and make
/// the steadier end-to-end reading. Request-latency percentiles swing by
/// 20–50 % between identical runs on such a host, so they are printed but
/// not part of the gated result.
///
/// The host's speed also drifts by up to 2x between runs minutes apart,
/// which no average within a run removes. The gated `wall_norm` divides
/// the mean pass by the median of the host reference ([`reference_s`])
/// timed `REF_PROBES` times before each pass and after the last; one
/// probe now and then reads 2x slow, so the median, not each pass's
/// neighbours. The raw `wall_s` is printed beside it.
#[derive(Debug, Default)]
struct Passes {
    walls: Vec<f64>,
    /// The host reference probes.
    refs: Vec<f64>,
    uops: u64,
    reqs: usize,
    /// Per-request latencies, in µs.
    lat: Vec<f64>,
}

impl Passes {
    fn add(&mut self, p: &Pass) {
        self.walls.push(p.wall_s);
        self.uops += p.uops;
        self.reqs += p.runs;
    }

    /// Time the host reference `REF_PROBES` times.
    fn probe_host(&mut self) {
        self.refs.extend((0..REF_PROBES).map(|_| reference_s()));
    }

    /// Report `wall_norm` and note the raw walls.
    fn report_walls(&mut self, out: &mut Outcome) {
        self.probe_host();
        let wall = self.walls.iter().sum::<f64>() / self.walls.len() as f64;
        let reference = median(&self.refs);
        out.metric("wall_norm", wall / reference, "ratio");
        out.notes.push(format!(
            "{} pass(es), walls {:?} s; wall_s = {wall} s; host reference {} ms (median of {})",
            self.walls.len(),
            self.walls
                .iter()
                .map(|w| (w * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
            reference * 1e3,
            self.refs.len()
        ));
    }

    fn report(&mut self, out: &mut Outcome) {
        let total: f64 = self.walls.iter().sum();
        self.report_walls(out);
        out.notes.push(format!(
            "mops = {} Muops/s; req_per_s = {} runner calls/s; runner call latency {}",
            self.uops as f64 / total / 1e6,
            self.reqs as f64 / total,
            latency_summary(&self.lat)
        ));
    }
}

/// Load every kernel's program once (`Vm::new` + `run_program` into a
/// discarding sink): the inputs' preflight that starts each set-up.
fn preflight(kernels: &[&'static Benchmark], out: &mut Outcome) {
    for b in kernels {
        let mut vm = Vm::new(EngineConfig {
            mechanism: Mechanism::ProfileOnly,
            ..EngineConfig::default()
        });
        install_optimizer(&mut vm);
        let r = vm.run_program(b.source, &mut NullSink::new());
        if let Err(e) = r {
            out.fail(format!("{}: program does not load: {e}", b.name));
        }
    }
}

fn open_cache(dir: &Path, sim: SimCacheMode) -> Result<TraceCache, String> {
    let cache = TraceCache::at(dir).with_sim_mode(sim);
    if cache.local_store().is_none() {
        return Err(format!("cannot open a store at {}", dir.display()));
    }
    Ok(cache)
}

/// The runner's and its local store's counters, by
/// [`idle_counters`] name.
fn counters(cache: &TraceCache) -> Vec<(&'static str, u64)> {
    let c = cache.stats();
    let s = cache
        .local_store()
        .map(TraceStore::stats)
        .unwrap_or_default();
    vec![
        ("cache.misses", c.misses),
        ("cache.stores", c.stores),
        ("cache.sim_stores", c.sim_stores),
        ("cache.remote_hits", c.remote_hits),
        ("cache.remote_errors", c.remote_errors),
        ("store.puts", s.puts),
        ("store.sim_puts", s.sim_puts),
        ("store.bytes_written", s.bytes_written),
    ]
}

/// Check that the counters `workload` predicts idle read the same in the
/// snapshots taken before and after its timed passes.
fn check_idle_counters(
    workload: &str,
    before: &[(&str, u64)],
    after: &[(&str, u64)],
    out: &mut Outcome,
) {
    let get = |v: &[(&str, u64)], name: &str| v.iter().find(|(n, _)| *n == name).map(|&(_, x)| x);
    for name in idle_counters(workload) {
        let (a, b) = (get(before, name), get(after, name));
        out.attempted += 1;
        if a.is_none() || a != b {
            out.fail(format!(
                "{workload}: {name} went from {a:?} to {b:?} over the timed passes, predicted idle"
            ));
        }
    }
}

/// An untraced warm-up pass, the traced pass, then the untraced pass the
/// tracing overhead is measured against: returns the traced wall, the
/// untraced wall and the traced pass's spans.
fn bracketed(
    out: &mut Outcome,
    plain: &mut dyn FnMut(&mut Outcome) -> f64,
    traced: &mut dyn FnMut(&mut Outcome) -> f64,
) -> (f64, f64, Vec<Span>) {
    plain(out);
    ledger::install();
    let traced_wall = traced(out);
    let spans = ledger::take();
    (traced_wall, plain(out), spans)
}

fn ast_nodes(kernels: &[&'static Benchmark]) -> u64 {
    kernels
        .iter()
        .filter_map(|b| checkelide_lang::parse_program(b.source).ok())
        .map(|p| checkelide_lang::node_count(&p) as u64)
        .sum()
}

// ---------------------------------------------------------------------------
// resimulate
// ---------------------------------------------------------------------------

/// Fill a fresh store with untimed recordings of the BBV grid (timing is
/// not part of the trace key, so the timed passes hit these entries).
fn fill_bbv(kernels: &[&'static Benchmark], dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let cache = open_cache(dir, SimCacheMode::Off)?;
    let mut tally = Tally::default();
    for b in kernels {
        for cfg in bbv_configs(b) {
            let r = run_cell(b, cfg.with_timing(false), &cache);
            out.check(expect(r, CacheDisposition::Miss, 0, 0, &mut tally));
        }
    }
    Ok(())
}

fn resimulate(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let kernels = ctx.grid();
    let dir = TempDir::new(&ctx.work_root, "resimulate").map_err(|e| e.to_string())?;
    let t = Instant::now();
    preflight(&kernels, out);
    fill_bbv(&kernels, dir.path(), out)?;
    out.metric("setup_s", t.elapsed().as_secs_f64(), "s");
    let cache = open_cache(dir.path(), SimCacheMode::Off)?;
    let mut tally = Tally::default();
    let mut run = |b: &Benchmark, cfg| {
        expect(
            run_cell(b, cfg, &cache),
            CacheDisposition::Hit,
            0,
            0,
            &mut tally,
        )
    };
    let before = counters(&cache);
    timed_passes(ctx, &kernels, &mut run, out);
    check_idle_counters("resimulate", &before, &counters(&cache), out);
    out.notes.push(format!(
        "store {:.1} MB",
        disk_bytes(dir.path()) as f64 / 1e6
    ));
    Ok(())
}

fn resimulate_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let kernels = ctx.grid();
    let dir = TempDir::new(&ctx.work_root, "resimulate").map_err(|e| e.to_string())?;
    preflight(&kernels, out);
    fill_bbv(&kernels, dir.path(), out)?;
    let cache = open_cache(dir.path(), SimCacheMode::Off)?;
    let mut plain = |out: &mut Outcome| {
        let before = counters(&cache);
        let mut run = |b: &Benchmark, cfg| {
            expect(
                run_cell(b, cfg, &cache),
                CacheDisposition::Hit,
                0,
                0,
                &mut Tally::default(),
            )
        };
        let wall = grid_pass(ctx, &kernels, 0, &mut run, &mut vec![], out).wall_s;
        check_idle_counters("resimulate", &before, &counters(&cache), out);
        wall
    };
    // A handle of its own, so the store's counters cover the traced pass.
    let store = TraceStore::open(dir.path(), true).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let (traced_wall, plain_wall, spans) = bracketed(out, &mut plain, &mut |out| {
        let mut run = |b: &Benchmark, cfg| traced_replay(b, cfg, &store, &mut tally);
        grid_pass(ctx, &kernels, 0, &mut run, &mut vec![], out).wall_s
    });
    let layers = Layers {
        store: Some(store.stats()),
        disk_bytes: disk_bytes(dir.path()),
        traced_wall,
        plain_wall,
        ..Layers::default()
    };
    finish_traced(out, "resimulate", spans, &tally, &layers);
    Ok(())
}

// ---------------------------------------------------------------------------
// record
// ---------------------------------------------------------------------------

/// One cold pass into a fresh store, then `SIM_WARM_PASSES` sim-warm passes
/// over it; returns (cold pass, sim-warm walls, store bytes on disk).
fn record_cycle(
    ctx: &Ctx,
    kernels: &[&'static Benchmark],
    pass: u64,
    lat: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(Pass, Vec<f64>, u64), String> {
    let dir = TempDir::new(&ctx.work_root, "record").map_err(|e| e.to_string())?;
    let cache = open_cache(dir.path(), SimCacheMode::On)?;
    let before = counters(&cache);
    let mut tally = Tally::default();
    let mut cold = |b: &Benchmark, cfg| {
        expect(
            run_cell(b, cfg, &cache),
            CacheDisposition::Miss,
            0,
            1,
            &mut tally,
        )
    };
    let p = grid_pass(ctx, kernels, pass, &mut cold, lat, out);
    let bytes = disk_bytes(dir.path());
    let mut warm_walls = Vec::new();
    let mut warm = |b: &Benchmark, cfg| {
        expect(
            run_cell(b, cfg, &cache),
            CacheDisposition::Hit,
            1,
            0,
            &mut tally,
        )
    };
    let mut scratch = Vec::new();
    for w in 0..SIM_WARM_PASSES {
        let wp = grid_pass(ctx, kernels, 1000 + w as u64, &mut warm, &mut scratch, out);
        warm_walls.push(wp.wall_s);
    }
    check_idle_counters("record", &before, &counters(&cache), out);
    Ok((p, warm_walls, bytes))
}

/// `record`'s set-up (load the kernels, open a fresh store), timed
/// `SETUP_REPS` times. Every cycle repeats it, so the reported median
/// samples the whole run rather than its first moments.
fn record_setups(root: &Path, kernels: &[&'static Benchmark], out: &mut Outcome) -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            preflight(kernels, out);
            if let Err(e) = TempDir::new(root, "record-setup").and_then(|d| {
                TraceStore::open(d.path(), true)?;
                Ok(d)
            }) {
                out.fail(format!("cannot open a fresh store: {e}"));
            }
            t.elapsed().as_secs_f64()
        })
        .collect()
}

fn record(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let kernels = ctx.grid();
    let (mut passes, mut warm, mut setups) = (Passes::default(), vec![], vec![]);
    let t0 = Instant::now();
    let mut store_bytes = 0;
    while passes.walls.len() < MIN_CYCLES || t0.elapsed().as_secs_f64() < ctx.seconds {
        setups.extend(record_setups(&ctx.work_root, &kernels, out));
        passes.probe_host();
        let pass = passes.walls.len() as u64;
        let (p, w, bytes) = record_cycle(ctx, &kernels, pass, &mut passes.lat, out)?;
        passes.add(&p);
        warm.extend(w);
        store_bytes = bytes;
    }
    out.metric("setup_s", median(&setups), "s");
    passes.report(out);
    out.notes.push(format!(
        "sim_warm_ms = {} ms (median of {} sim-warm passes); store_mb = {} MB after the cold pass",
        median(&warm) * 1e3,
        warm.len(),
        store_bytes as f64 / 1e6
    ));
    Ok(())
}

fn record_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let kernels = ctx.grid();
    preflight(&kernels, out);
    let passes =
        |out: &mut Outcome, cold: &mut RunFn, warm: &mut RunFn, warm_walls: &mut Vec<f64>| {
            grid_pass(ctx, &kernels, 0, cold, &mut vec![], out);
            for w in 0..SIM_WARM_PASSES {
                let p = grid_pass(ctx, &kernels, 1000 + w as u64, warm, &mut vec![], out);
                warm_walls.push(p.wall_s);
            }
        };

    // Untraced: the runner's cold and sim-warm passes into a fresh store.
    let mut plain_dir = None;
    let mut warm_walls = Vec::new();
    let mut plain = |out: &mut Outcome| {
        let t = Instant::now();
        let dir = match TempDir::new(&ctx.work_root, "record-plain") {
            Ok(d) => d,
            Err(e) => {
                out.fail(format!("scratch store: {e}"));
                return 0.0;
            }
        };
        match open_cache(dir.path(), SimCacheMode::On) {
            Ok(cache) => {
                let before = counters(&cache);
                let mut tally = Tally::default();
                let mut cold = |b: &Benchmark, cfg| {
                    expect(
                        run_cell(b, cfg, &cache),
                        CacheDisposition::Miss,
                        0,
                        1,
                        &mut tally,
                    )
                };
                let mut tally = Tally::default();
                let mut warm = |b: &Benchmark, cfg| {
                    expect(
                        run_cell(b, cfg, &cache),
                        CacheDisposition::Hit,
                        1,
                        0,
                        &mut tally,
                    )
                };
                passes(out, &mut cold, &mut warm, &mut warm_walls);
                check_idle_counters("record", &before, &counters(&cache), out);
            }
            Err(e) => out.fail(e),
        }
        plain_dir = Some(dir);
        t.elapsed().as_secs_f64()
    };

    // Traced: the same passes composed from the runner's calls.
    let dir = TempDir::new(&ctx.work_root, "record-traced").map_err(|e| e.to_string())?;
    let store = TraceStore::open(dir.path(), true).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let mut disk = 0;
    let (traced_wall, plain_wall, spans) = bracketed(out, &mut plain, &mut |out| {
        let t = Instant::now();
        let mut tally_cold = Tally::default();
        let mut cold = |b: &Benchmark, cfg| traced_record(b, cfg, &store, &mut tally_cold);
        let mut tally_warm = Tally::default();
        let mut warm = |b: &Benchmark, cfg| traced_sim_hit(b, cfg, &store, &mut tally_warm);
        passes(out, &mut cold, &mut warm, &mut vec![]);
        let wall = t.elapsed().as_secs_f64();
        disk = disk_bytes(dir.path());
        tally.absorb(&tally_cold);
        tally.absorb(&tally_warm);
        wall
    });

    // The traced composition must leave byte-identical store files.
    if let Some(plain_dir) = &plain_dir {
        out.check(same_files(plain_dir.path(), dir.path()));
    }
    let layers = Layers {
        store: Some(store.stats()),
        disk_bytes: disk,
        traced_wall,
        plain_wall,
        sim_warm_ms: median(&warm_walls) * 1e3,
        ast_nodes: ast_nodes(&kernels),
        ..Layers::default()
    };
    finish_traced(out, "record", spans, &tally, &layers);
    Ok(())
}

/// Whether two store directories hold the same files with the same bytes.
///
/// # Errors
///
/// The first difference.
pub fn same_files(a: &Path, b: &Path) -> Result<(), String> {
    let (fa, fb) = (list_files(a), list_files(b));
    if fa != fb {
        return Err(format!(
            "store file sets differ ({} vs {} files)",
            fa.len(),
            fb.len()
        ));
    }
    for f in &fa {
        if std::fs::read(a.join(f)).ok() != std::fs::read(b.join(f)).ok() {
            return Err(format!("store file {} differs", f.display()));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// One cell of the served grids, with the bytes the runner's cold run over
/// the protocol left in its server's store.
struct Entry {
    key: String,
    side: Sidecar,
    /// The manifest file.
    manifest: Vec<u8>,
    /// The object file: header and stored (compressed) body.
    image: Vec<u8>,
    /// The sim object and its file, for timed cells.
    sim: Option<(SimObject, Vec<u8>)>,
}

/// What the set-up learned from the runner's own traffic.
struct Expected {
    entries: Vec<Entry>,
    /// The server's counters after the runner's cold and warm runs.
    stats: ServerStats,
    /// The store those runs left behind.
    dir: TempDir,
}

/// Serve a fresh store at `dir` on loopback while `f` runs with the
/// store and the server's address; the server stops when `f` returns.
fn with_server<T>(
    dir: &Path,
    f: impl FnOnce(&TraceStore, &str) -> Result<T, String>,
) -> Result<T, String> {
    /// Stops the server however `f` ends, so a panic cannot leave the
    /// scope waiting on it.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let store = TraceStore::open(dir, true).map_err(|e| format!("open store: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(&listener, &store, &stop));
        let result = {
            let _stop = Stop(&stop);
            f(&store, &addr)
        };
        match server.join() {
            Ok(Ok(())) => result,
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    })
}

/// The Fig. 1 and Fig. 8/9 `--quick` cells.
fn serve_cells(ctx: &Ctx) -> Vec<(&'static Benchmark, RunConfig)> {
    let mut cells: Vec<_> = ctx
        .fig1_grid()
        .into_iter()
        .map(|b| (b, fig1_config(b)))
        .collect();
    for b in ctx.grid() {
        cells.extend(fig89_configs(b).map(|cfg| (b, cfg)));
    }
    cells
}

/// Run the runner cold, then warm, through a `tcp://` trace cache against
/// a fresh server: the traffic of a cold and a warm `--quick` run of the
/// grids. Then read back every cell's manifest, object and sim object.
fn serve_setup(
    ctx: &Ctx,
    cells: &[(&'static Benchmark, RunConfig)],
    out: &mut Outcome,
) -> Result<Expected, String> {
    let dir = TempDir::new(&ctx.work_root, "serve-runner").map_err(|e| e.to_string())?;
    let fallback = dir.path().join("unreachable").display().to_string();
    let stats = with_server(dir.path(), |_, addr| {
        let cache = TraceCache::remote_or(addr, &fallback).with_sim_mode(SimCacheMode::On);
        if cache.remote_addr().is_none() {
            return Err("the runner could not reach the server".into());
        }
        let mut tally = Tally::default();
        for (pass, disp) in [(0, CacheDisposition::Miss), (1, CacheDisposition::Hit)] {
            for ix in order(cells.len(), ctx.seed, 3000 + pass) {
                let (b, cfg) = cells[ix];
                let timed = u64::from(cfg.timing);
                let (hits, misses) = if pass == 0 { (0, timed) } else { (timed, 0) };
                let r = run_cell(b, cfg, &cache);
                out.check(expect(r, disp, hits, misses, &mut tally));
            }
        }
        RemoteStore::connect(addr)
            .ok()
            .and_then(|c| c.list())
            .ok_or_else(|| "LIST failed".to_string())
    })?;
    let store = TraceStore::open(dir.path(), true).map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    for &(b, cfg) in cells {
        let key = key_of(b, &cfg);
        let manifest = std::fs::read(store.manifest_path(&key)).unwrap_or_default();
        let Some(side) = Sidecar::decode(&manifest) else {
            out.fail(format!("setup: {key} not stored"));
            continue;
        };
        let image = std::fs::read(store.object_path(&side.cid)).unwrap_or_default();
        let sim = cfg.timing.then(|| {
            let bytes = std::fs::read(store.sim_path(&side.cid, sim_fingerprint()));
            let bytes = bytes.unwrap_or_default();
            SimObject::decode(&bytes).map(|obj| (obj, bytes))
        });
        if image.len() as u64 != side.stored_bytes || sim.as_ref().is_some_and(Option::is_none) {
            out.fail(format!("setup: {key} stored incompletely"));
            continue;
        }
        entries.push(Entry {
            key,
            side,
            manifest,
            image,
            sim: sim.flatten(),
        });
    }
    Ok(Expected {
        entries,
        stats,
        dir,
    })
}

/// Send one frame, timing it into `lat` (small frames and bodies apart).
fn frame<T>(name: &'static str, lat: &mut Latencies, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = span(name, f);
    let us = t.elapsed().as_secs_f64() * 1e6;
    if name == "bench.proto.put" {
        lat.body.push(us);
    } else {
        lat.small.push(us);
    }
    r
}

/// Per-frame latencies of a `serve` run, in µs.
#[derive(Debug, Default)]
struct Latencies {
    small: Vec<f64>,
    body: Vec<f64>,
}

/// What the runner's cold path sends for one cell: STAT (a miss), PUT,
/// and SIMPUT when the cell is timed.
fn cold_frames(client: &RemoteStore, e: &Entry, lat: &mut Latencies) -> Result<(), String> {
    if frame("bench.proto.stat", lat, || client.stat(&e.key)).is_some() {
        return Err(format!("{}: STAT hit on a fresh server", e.key));
    }
    if !frame("bench.proto.put", lat, || client.put(&e.side, &e.image)) {
        return Err(format!("{}: PUT refused", e.key));
    }
    if let Some((obj, _)) = &e.sim {
        if !frame("bench.proto.sim_put", lat, || client.sim_put(obj)) {
            return Err(format!("{}: SIMPUT refused", e.key));
        }
    }
    Ok(())
}

/// What the runner's warm path sends for one cell: STAT, and SIMGET when
/// the cell is timed. Each response, already validated by the client,
/// must equal the runner's stored bytes.
fn warm_frames(client: &RemoteStore, e: &Entry, lat: &mut Latencies) -> Result<(), String> {
    let side = frame("bench.proto.stat", lat, || client.stat(&e.key))
        .ok_or_else(|| format!("{}: STAT refused or invalid", e.key))?;
    if side.encode() != e.manifest {
        return Err(format!("{}: STAT differs from the stored manifest", e.key));
    }
    if let Some((_, bytes)) = &e.sim {
        let obj = frame("bench.proto.sim_get", lat, || {
            client.sim_get(&side.cid, sim_fingerprint())
        })
        .ok_or_else(|| format!("{}: SIMGET refused or invalid", e.key))?;
        if obj.encode() != *bytes {
            return Err(format!("{}: SIMGET differs from the stored object", e.key));
        }
    }
    Ok(())
}

/// One `serve` cycle.
struct Cycle {
    wall_s: f64,
    frames: usize,
    store: StoreStats,
    disk_bytes: u64,
    client_errors: u64,
}

/// One cycle: a fresh server; the cold stream over every cell, then the
/// warm stream, each in a seeded order. Afterwards the server's counters
/// must equal those of the runner's own cold and warm runs, and its
/// store files must equal the runner's byte for byte.
fn serve_cycle(
    ctx: &Ctx,
    want: &Expected,
    pass: u64,
    lat: &mut Latencies,
    out: &mut Outcome,
) -> Result<Cycle, String> {
    let dir = TempDir::new(&ctx.work_root, "serve").map_err(|e| e.to_string())?;
    let entries = &want.entries;
    let before = lat.small.len() + lat.body.len();
    let (wall_s, stats, store, client_errors) = with_server(dir.path(), |store, addr| {
        let client = RemoteStore::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let t = Instant::now();
        for (stream, frames) in [
            (0, cold_frames as fn(&_, &_, &mut _) -> _),
            (1, warm_frames),
        ] {
            for ix in order(entries.len(), ctx.seed, 2 * pass + stream + 2000) {
                ledger::set_cell(ix as u32);
                out.check(frames(&client, &entries[ix], lat));
            }
        }
        let wall = t.elapsed().as_secs_f64();
        let stats = client.list().ok_or("LIST failed")?;
        Ok((wall, stats, store.stats(), client.errors()))
    })?;
    out.attempted += 2;
    if stats != want.stats {
        out.fail(format!(
            "server counters {stats:?} differ from the runner's {:?}",
            want.stats
        ));
    }
    if let Err(e) = same_files(want.dir.path(), dir.path()) {
        out.fail(format!("served store differs from the runner's: {e}"));
    }
    Ok(Cycle {
        wall_s,
        frames: lat.small.len() + lat.body.len() - before,
        store,
        disk_bytes: disk_bytes(dir.path()),
        client_errors,
    })
}

fn serve_workload(ctx: &Ctx, out: &mut Outcome, trace: bool) -> Result<(), String> {
    let cells = serve_cells(ctx);
    let t = Instant::now();
    preflight(&ctx.fig1_grid(), out);
    let want = serve_setup(ctx, &cells, out)?;
    let setup = t.elapsed().as_secs_f64();
    if trace {
        serve_traced(ctx, &want, out);
        return Ok(());
    }
    out.metric("setup_s", setup, "s");
    let (mut passes, mut frames, mut lat) = (Passes::default(), 0, Latencies::default());
    let t0 = Instant::now();
    while passes.walls.len() < MIN_CYCLES || t0.elapsed().as_secs_f64() < ctx.seconds {
        passes.probe_host();
        let c = serve_cycle(ctx, &want, passes.walls.len() as u64, &mut lat, out)?;
        passes.walls.push(c.wall_s);
        frames += c.frames;
    }
    let total: f64 = passes.walls.iter().sum();
    passes.report_walls(out);
    out.notes.push(format!(
        "cycles of {} cells; req_per_s = {} frames/s",
        want.entries.len(),
        frames as f64 / total
    ));
    out.notes.push(format!(
        "small frames (STAT, SIMPUT, SIMGET) {}, {:.1} % of the cycle wall; PUTs {}",
        latency_summary(&lat.small),
        lat.small.iter().sum::<f64>() / 1e4 / total,
        latency_summary(&lat.body)
    ));
    Ok(())
}

fn serve_traced(ctx: &Ctx, want: &Expected, out: &mut Outcome) {
    let mut traced = None;
    let cycle = |out: &mut Outcome| match serve_cycle(ctx, want, 0, &mut Latencies::default(), out)
    {
        Ok(c) => Some(c),
        Err(e) => {
            out.fail(e);
            None
        }
    };
    let (traced_wall, plain_wall, spans) = bracketed(
        out,
        &mut |out| cycle(out).map_or(0.0, |c| c.wall_s),
        &mut |out| {
            let c = cycle(out);
            let wall = c.as_ref().map_or(0.0, |c| c.wall_s);
            traced = c;
            wall
        },
    );
    let traced = traced.unwrap_or(Cycle {
        wall_s: 0.0,
        frames: 0,
        store: StoreStats::default(),
        disk_bytes: 0,
        client_errors: 0,
    });
    let layers = Layers {
        store: Some(traced.store),
        disk_bytes: traced.disk_bytes,
        traced_wall,
        plain_wall,
        proto_errors: traced.client_errors,
        ..Layers::default()
    };
    let mut tally = Tally::default();
    for e in &want.entries {
        tally.add("bench.proto.put_bytes", e.image.len() as u64);
    }
    finish_traced(out, "serve", spans, &tally, &layers);
}

// ---------------------------------------------------------------------------
// Per-layer rollup
// ---------------------------------------------------------------------------

/// What a traced run knows besides its spans and tally.
#[derive(Debug, Default)]
struct Layers {
    store: Option<StoreStats>,
    disk_bytes: u64,
    ast_nodes: u64,
    traced_wall: f64,
    plain_wall: f64,
    sim_warm_ms: f64,
    proto_errors: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Roll the spans and counts of a traced run up into every per-layer
/// metric, then check the workload's idle-layer predictions.
fn finish_traced(out: &mut Outcome, workload: &str, spans: Vec<Span>, tally: &Tally, l: &Layers) {
    let selfs = ledger::self_times(&spans);
    let totals = ledger::totals(&spans);
    let self_ns = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64;
    let per_call_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |&(ns, calls)| ratio(ns as f64 / 1e3, calls as f64))
    };
    let attributed: u64 = selfs.values().sum();
    let traced_ns = l.traced_wall * 1e9;
    let t = |name: &str| tally.get(name) as f64;
    let store = l.store.unwrap_or_default();
    let values: Vec<(&str, f64)> = vec![
        ("lang.parse_ns", self_ns("lang.parse")),
        ("lang.ast_nodes", l.ast_nodes as f64),
        ("engine.setup_ns", self_ns("engine.setup")),
        ("engine.warmup_ns", self_ns("engine.warmup")),
        ("engine.measured_ns", self_ns("engine.measured")),
        ("engine.classify_ns", self_ns("engine.classify")),
        ("engine.calls", t("engine.calls")),
        ("engine.opt_entries", t("engine.opt_entries")),
        ("engine.deopts", t("engine.deopts")),
        ("engine.ic_misses", t("engine.ic_misses")),
        ("opt.compile_ns", self_ns("opt.compile")),
        ("opt.compiles", t("opt.compiles")),
        ("opt.defers", t("opt.defers")),
        ("opt.bails", t("opt.bails")),
        ("opt.regions_compiled", t("opt.regions_compiled")),
        ("opt.tier_up_events", t("opt.tier_up_events")),
        ("opt.code_cache_bytes", t("opt.code_cache_bytes")),
        ("opt.evictions", t("opt.evictions")),
        ("opt.deopt_bridges", t("opt.deopt_bridges")),
        ("opt.bbv_versions", t("opt.bbv_versions")),
        ("opt.bbv_cap_fallbacks", t("opt.bbv_cap_fallbacks")),
        ("runtime.gc_runs", t("runtime.gc_runs")),
        ("runtime.objects", t("runtime.objects")),
        ("runtime.hidden_classes", t("runtime.hidden_classes")),
        ("core.cc_accesses", t("core.cc_accesses")),
        (
            "core.cc_hit_rate",
            ratio(t("core.cc_hits"), t("core.cc_accesses")),
        ),
        ("core.misspec_exceptions", t("core.misspec_exceptions")),
        ("isa.uops", t("isa.uops")),
        ("isa.check_uops", t("isa.check_uops")),
        ("isa.counter_ns", self_ns("isa.counter")),
        ("isa.encode_ns", self_ns("isa.encode")),
        ("isa.encoded_bytes", t("isa.encoded_bytes")),
        ("isa.decode_ns", self_ns("isa.decode")),
        (
            "isa.lz_ratio",
            ratio(
                t("isa.lz_raw_bytes") - t("isa.lz_stored_bytes"),
                t("isa.lz_raw_bytes"),
            ),
        ),
        ("uarch.coresim_ns", self_ns("uarch.coresim")),
        (
            "uarch.coresim_mops",
            ratio(t("uarch.uops") * 1e3, self_ns("uarch.coresim")),
        ),
        ("uarch.cycles", t("uarch.cycles")),
        ("uarch.ipc", ratio(t("uarch.uops"), t("uarch.cycles"))),
        ("uarch.dl1_misses", t("uarch.dl1_misses")),
        ("uarch.simobj_ns", self_ns("uarch.simobj")),
        (
            "bench.store.image_build_ns",
            self_ns("bench.store.image_build"),
        ),
        ("bench.store.write_ns", self_ns("bench.store.write")),
        ("bench.store.sim_put_ns", self_ns("bench.store.sim_put")),
        ("bench.store.bytes_written", store.bytes_written as f64),
        ("bench.store.disk_mb", l.disk_bytes as f64 / 1e6),
        ("bench.store.read_ns", self_ns("bench.store.read")),
        (
            "bench.store.image_verify_ns",
            self_ns("bench.store.image_verify"),
        ),
        (
            "bench.store.bytes_read",
            store.bytes_read as f64 + t("bench.store.object_bytes_read"),
        ),
        ("bench.store.stat_ns", self_ns("bench.store.stat")),
        ("bench.store.sim_get_ns", self_ns("bench.store.sim_get")),
        (
            "bench.store.dedup_ratio",
            ratio(store.dedup_puts as f64, store.puts as f64),
        ),
        ("bench.simcache.hits", t("bench.simcache.hits")),
        ("bench.simcache.misses", t("bench.simcache.misses")),
        ("bench.runner.trace_hits", t("bench.runner.trace_hits")),
        ("bench.runner.trace_misses", t("bench.runner.trace_misses")),
        ("bench.runner.failed_cells", out.failed as f64),
        ("bench.runner.sim_warm_ms", l.sim_warm_ms),
        ("bench.proto.stat_us", per_call_us("bench.proto.stat")),
        ("bench.proto.sim_get_us", per_call_us("bench.proto.sim_get")),
        ("bench.proto.put_us", per_call_us("bench.proto.put")),
        (
            "bench.proto.put_mbps",
            ratio(
                t("bench.proto.put_bytes") / 1e6,
                totals
                    .get("bench.proto.put")
                    .map_or(0.0, |&(ns, _)| ns as f64 / 1e9),
            ),
        ),
        ("bench.proto.sim_put_us", per_call_us("bench.proto.sim_put")),
        ("bench.proto.errors", l.proto_errors as f64),
        (
            "trace.unattributed_share",
            ratio(traced_ns - attributed as f64, traced_ns),
        ),
        ("trace.overhead", ratio(l.traced_wall, l.plain_wall)),
    ];
    for m in PER_LAYER {
        let v = values
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or(0.0, |&(_, v)| v);
        out.metric(m.name, v, m.unit);
    }
    debug_assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "every per-layer metric has a value"
    );
    for name in predicted_idle(workload) {
        let v = out.get(name).unwrap_or(0.0);
        out.attempted += 1;
        if v != 0.0 {
            out.fail(format!("{name} reads {v} on {workload}, predicted idle"));
        }
    }
    out.notes.push(format!(
        "traced: {} spans, {:.3} s traced vs {:.3} s untraced",
        spans.len(),
        l.traced_wall,
        l.plain_wall
    ));
    let mut rollup: Vec<(&str, u64)> = selfs.iter().map(|(&n, &ns)| (n, ns)).collect();
    rollup.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let rollup: Vec<String> = rollup
        .iter()
        .map(|(n, ns)| {
            format!(
                "{n} {:.1} ms ({:.1}%)",
                *ns as f64 / 1e6,
                ratio(*ns as f64, traced_ns) * 100.0
            )
        })
        .collect();
    out.notes
        .push(format!("self time by layer: {}", rollup.join(", ")));
    out.spans = spans;
}

#[cfg(test)]
mod tests {
    use super::{check_golden, check_idle_counters, Outcome, FIG_BBV_GOLDEN};
    use checkelide_bench::figures::FigBbvRow;

    /// The committed golden's rows, read back field by field (the file is
    /// `to_string_pretty` output: one scalar per line).
    fn golden_rows() -> Vec<FigBbvRow> {
        let mut rows: Vec<FigBbvRow> = Vec::new();
        let mut field = "";
        for line in FIG_BBV_GOLDEN
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
        {
            let text = |v: &str| v.trim_matches('"').to_string();
            if let Some(v) = line.strip_prefix("\"name\": ") {
                rows.push(FigBbvRow {
                    name: text(v),
                    suite: String::new(),
                    checks: vec![],
                    elided: vec![],
                    uops: vec![],
                    cycles: vec![],
                });
            } else if let Some(v) = line.strip_prefix("\"suite\": ") {
                rows.last_mut().unwrap().suite = text(v);
            } else if let Some(f) = line.strip_suffix(": [") {
                field = f.trim_matches('"');
            } else if let Ok(n) = line.parse::<u64>() {
                let r = rows.last_mut().unwrap();
                match field {
                    "checks" => r.checks.push(n),
                    "elided" => r.elided.push(n),
                    "uops" => r.uops.push(n),
                    "cycles" => r.cycles.push(n),
                    _ => panic!("number outside an array: {line}"),
                }
            }
        }
        rows
    }

    fn failures(rows: Vec<FigBbvRow>) -> u64 {
        let mut out = Outcome::default();
        check_golden(&rows.into_iter().map(Some).collect::<Vec<_>>(), &mut out);
        out.failed
    }

    #[test]
    fn golden_rows_pass_the_golden_check() {
        let rows = golden_rows();
        assert_eq!(rows.len(), 26);
        assert_eq!(failures(rows), 0);
    }

    #[test]
    fn one_changed_row_is_one_failure() {
        let mut rows = golden_rows();
        rows[3].cycles[2] += 1;
        assert_eq!(failures(rows), 1);
        let mut rows = golden_rows();
        rows[0].checks[0] += 1;
        rows[25].uops[4] -= 1;
        assert_eq!(failures(rows), 2);
    }

    #[test]
    fn a_moved_idle_counter_is_a_failure() {
        let before = [
            ("cache.misses", 0),
            ("store.puts", 4),
            ("cache.remote_hits", 0),
            ("cache.remote_errors", 0),
        ];
        let mut out = Outcome::default();
        check_idle_counters("record", &before, &before, &mut out);
        assert_eq!(out.failed, 0);
        let mut after = before;
        after[1].1 = 5;
        check_idle_counters("record", &before, &after, &mut out);
        assert_eq!(out.failed, 0, "record may write its store");
        check_idle_counters("resimulate", &before, &after, &mut out);
        assert!(out.errors.iter().any(|e| e.contains("store.puts")));
        assert!(
            out.errors.iter().any(|e| e.contains("store.bytes_written")),
            "a counter missing from the snapshot fails too"
        );
    }
}
