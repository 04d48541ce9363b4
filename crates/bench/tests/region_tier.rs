//! Differential guard for the compiled-region execution tier.
//!
//! Every optimized activation runs either on the plan walker (tier 2) or,
//! once hot, on direct-threaded regions compiled from the same plans
//! (tier 3, `EngineConfig::regions`). The region tier must be invisible
//! in everything the paper measures. For every registered kernel at the
//! scale and iteration count of the `--quick` figure grids, and for each
//! of the three mechanisms with the optimizer on and BBV off, this runs
//! set-up, warm-ups and the measured iteration twice — once pinned to the
//! plan walker (`regions: false`) and once with the default config — and
//! requires equal:
//!
//! * a streaming digest of every µop of every traced phase (the codec
//!   encoding of the stream, folded through `store::sha256` a MiB at a
//!   time, so no µop vector is ever buffered) and the phase's µop count;
//! * the checksum of the measured iteration;
//! * Class Cache stats, load stats and the Figure 3 row, both cumulative
//!   over the warm-ups and for the measured iteration alone;
//! * the hidden-class count and the object-allocation statistics;
//! * `VmStats`, except the five tier-telemetry fields, which only the
//!   region tier moves.
//!
//! Each side runs twice: once with every phase traced, and once as the
//! figure runner does it, with set-up and warm-ups on a discarding sink
//! (which takes the executors' µop-silent fast paths) and only the
//! measured iteration traced. The default side of every run must
//! actually compile regions, or its comparison would be vacuous.

use std::io::{self, Write};

use checkelide_bench::store::sha256;
use checkelide_bench::{run_cells, Benchmark, BENCHMARKS};
use checkelide_core::loadstats::Fig3Row;
use checkelide_core::{ClassCacheStats, LoadAccessStats};
use checkelide_engine::emit::reset_token_namespace;
use checkelide_engine::{EngineConfig, Mechanism, Vm, VmError, VmStats};
use checkelide_isa::codec::TraceWriter;
use checkelide_isa::{NullSink, TraceSink};
use checkelide_opt::install_optimizer;
use checkelide_runtime::runtime::ObjectStats;
use checkelide_runtime::Value;

/// Bytes folded into the running digest per SHA-256 call.
const CHUNK: usize = 1 << 20;

/// A `Write` that folds everything written to it into a chained
/// SHA-256: `d' = sha256(d || next bytes)` whenever a chunk is full.
struct ChainDigest {
    /// The running digest followed by the bytes not yet folded in.
    buf: Vec<u8>,
}

impl ChainDigest {
    fn new() -> ChainDigest {
        ChainDigest { buf: vec![0; 32] }
    }

    fn fold(&mut self) {
        let d = sha256(&self.buf);
        self.buf.clear();
        self.buf.extend_from_slice(&d);
    }

    fn finish(mut self) -> [u8; 32] {
        self.fold();
        self.buf[..].try_into().expect("32-byte digest")
    }
}

impl Write for ChainDigest {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.len() >= 32 + CHUNK {
            self.fold();
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Counters that are reset at the steady-state boundary, read once
/// after the warm-ups and once after the measured iteration.
struct Stats {
    class_cache: ClassCacheStats,
    load_stats: LoadAccessStats,
    fig3: Fig3Row,
    /// `VmStats` with the tier-telemetry fields zeroed.
    vm: VmStats,
}

impl Stats {
    fn of(vm: &Vm) -> Stats {
        let mut stats = vm.stats;
        stats.regions_compiled = 0;
        stats.tier_up_events = 0;
        stats.code_cache_bytes = 0;
        stats.evictions = 0;
        stats.deopt_bridges = 0;
        Stats {
            class_cache: vm.class_cache.stats(),
            load_stats: vm.load_stats.clone(),
            fig3: vm.load_stats.classify(&vm.class_list),
            vm: stats,
        }
    }
}

/// Everything one run of a kernel is compared on.
struct Observed {
    /// `(µop digest, µops)` of the set-up, each warm-up and the measured
    /// iteration, in order.
    phases: Vec<([u8; 32], u64)>,
    checksum: String,
    warm: Stats,
    measured: Stats,
    hidden_classes: usize,
    obj_stats: ObjectStats,
}

impl Observed {
    /// Names of the fields on which `self` and `other` differ.
    fn diff(&self, other: &Observed) -> Vec<String> {
        let mut out = Vec::new();
        for (i, (a, b)) in self.phases.iter().zip(&other.phases).enumerate() {
            if a != b {
                out.push(format!("phase {i} µops ({} vs {})", a.1, b.1));
            }
        }
        let mut field = |name: &str, differs: bool| {
            if differs {
                out.push(name.to_string());
            }
        };
        field("phase count", self.phases.len() != other.phases.len());
        field("checksum", self.checksum != other.checksum);
        for (phase, a, b) in
            [("warm", &self.warm, &other.warm), ("measured", &self.measured, &other.measured)]
        {
            field(&format!("{phase} class cache"), a.class_cache != b.class_cache);
            field(&format!("{phase} load stats"), a.load_stats != b.load_stats);
            field(&format!("{phase} fig3"), a.fig3 != b.fig3);
            field(&format!("{phase} vm stats"), a.vm != b.vm);
        }
        field("hidden classes", self.hidden_classes != other.hidden_classes);
        field("obj stats", self.obj_stats != other.obj_stats);
        out
    }
}

/// Run `phase` with a sink that digests every µop it emits, or, unless
/// `traced`, with a discarding sink.
///
/// A traced phase starts from a fresh dataflow-token namespace. Trace
/// consumers key on token distances, not absolute values, and on a
/// discarding sink the two tiers allocate different numbers of tokens
/// (the region tier's fused fast path allocates none), so without the
/// rewind a measured iteration that follows discarded warm-ups would
/// differ between the tiers by a constant token offset alone.
fn digested(
    vm: &mut Vm,
    phases: &mut Vec<([u8; 32], u64)>,
    traced: bool,
    phase: impl FnOnce(&mut Vm, &mut dyn TraceSink) -> Result<Value, VmError>,
) -> Value {
    if !traced {
        return phase(vm, &mut NullSink::new()).expect("kernel runs");
    }
    reset_token_namespace();
    let mut writer = TraceWriter::new(ChainDigest::new()).expect("in-memory writer");
    let value = phase(vm, &mut writer).expect("kernel runs");
    let (digest, stats) = writer.finish_file().expect("in-memory writer");
    phases.push((digest.finish(), stats.uops));
    value
}

/// The set-up / warm-up / measured protocol of the bench runner, at the
/// `--quick` grids' scale and iteration count, tracing set-up and
/// warm-ups too when `trace_warmups`. Returns the observables and the
/// regions compiled.
fn run(b: &Benchmark, mechanism: Mechanism, regions: bool, trace_warmups: bool) -> (Observed, u64) {
    let mut vm = Vm::new(EngineConfig { mechanism, regions, ..EngineConfig::default() });
    install_optimizer(&mut vm);
    let mut phases = Vec::new();
    digested(&mut vm, &mut phases, trace_warmups, |vm, sink| vm.run_program(b.source, sink));
    let args = [Value::smi((b.scale / 6).max(2))];
    let iterations = 4;
    for _ in 1..iterations {
        vm.rt.reset_prng();
        digested(&mut vm, &mut phases, trace_warmups, |vm, sink| {
            vm.call_global("bench", &args, sink)
        });
    }

    let warm = Stats::of(&vm);
    vm.class_cache.reset_stats();
    vm.load_stats.reset();
    let regions_compiled = vm.stats.regions_compiled;
    vm.stats = VmStats::default();
    vm.rt.reset_prng();
    let result =
        digested(&mut vm, &mut phases, true, |vm, sink| vm.call_global("bench", &args, sink));

    let observed = Observed {
        phases,
        checksum: vm.rt.to_display_string(result),
        warm,
        measured: Stats::of(&vm),
        hidden_classes: vm.rt.maps.len(),
        obj_stats: vm.rt.obj_stats,
    };
    (observed, regions_compiled + vm.stats.regions_compiled)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the whole quick suite six times; run with --release")]
fn region_tier_is_invisible_to_every_observable() {
    let mechanisms = [Mechanism::Off, Mechanism::ProfileOnly, Mechanism::Full];
    let cells: Vec<(String, (&'static Benchmark, Mechanism))> = BENCHMARKS
        .iter()
        .flat_map(|b| mechanisms.map(|m| (format!("{}/{m:?}", b.name), (b, m))))
        .collect();
    let outcomes = run_cells(cells, 2, |&(b, mechanism)| {
        let mut problems = Vec::new();
        let mut compiled = 0;
        for (protocol, trace_warmups) in [("traced", true), ("figure", false)] {
            let (reference, plan_regions) = run(b, mechanism, false, trace_warmups);
            let (tiered, regions) = run(b, mechanism, true, trace_warmups);
            let note = |p: String| format!("{protocol} run: {p}");
            problems.extend(reference.diff(&tiered).into_iter().map(note));
            if plan_regions > 0 {
                problems.push(note(format!("plan-walk reference compiled {plan_regions} regions")));
            }
            if regions == 0 {
                problems.push(note("default config compiled no region (vacuous)".to_string()));
            }
            compiled += regions;
        }
        (problems, compiled)
    });

    let mut failures = Vec::new();
    let mut regions = 0;
    for cell in &outcomes {
        match &cell.result {
            Ok((problems, n)) if problems.is_empty() => regions += n,
            Ok((problems, _)) => failures.push(format!("{}: {}", cell.label, problems.join(", "))),
            Err(e) => failures.push(e.to_string()),
        }
    }
    assert!(
        failures.is_empty(),
        "region tier vs plan walker failed in {} of {} cells:\n  {}",
        failures.len(),
        outcomes.len(),
        failures.join("\n  ")
    );
    eprintln!("{} cells equal, {regions} regions compiled", outcomes.len());
}
