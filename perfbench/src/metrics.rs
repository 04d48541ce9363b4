//! The benchmark's metric catalogue: every end-to-end and per-layer
//! metric with its unit and direction, the end-to-end metric and workload
//! each layer metric is expected to move, and the layers each workload is
//! predicted to leave idle. `BENCHMARK.json` is generated from this table
//! (`--benchmark-json`) and a test keeps the two identical.

/// A workload: name and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it exists (one line).
    pub why: &'static str,
}

/// The workloads, in run order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "resimulate",
        why: "BBV grid replayed from a store filled at setup, sim cache off: store reads, LZ + \
              SHA-256 verify, decode and CoreSim do all the work; the engine runs nothing",
    },
    Workload {
        name: "record",
        why:
            "BBV grid run cold into a fresh store, then sim-warm passes: engine, CoreSim, encode, \
              SHA-256, LZ and store writes on the blocking path, then manifest + sim-object reads",
    },
    Workload {
        name: "serve",
        why: "Loopback tracestored, one client replaying what cold then warm Fig. 1 + Fig. 8/9 \
              --quick runs send over tcp://: STAT, PUT (MB bodies), SIMPUT, then STAT + SIMGET",
    },
];

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every untraced run. `wall_norm`
/// is the mean timed pass (a grid pass, `record`'s cold pass, a `serve`
/// cycle), each pass divided by the host reference timed beside it
/// ([`crate::util::reference_s`]): the same work ran up to 2x slower in
/// one run than in another minutes later, and the raw mean pass (`wall_s`)
/// is printed with the run's notes. Throughput over a pass's fixed work
/// (µops per second on the grids, frames per second on `serve`) is the
/// raw pass's reciprocal and is printed there too.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_norm",
        unit: "ratio",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
];

/// A per-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name, prefixed by the crate (layer) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// `metric@workload`: what a change to this layer should move, where.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[PerLayer] = &[
    pl("lang.parse_ns", "ns", "lower", "wall_norm@record"),
    pl("lang.ast_nodes", "count", "lower", "wall_norm@record"),
    pl("engine.setup_ns", "ns", "lower", "wall_norm@record"),
    pl("engine.warmup_ns", "ns", "lower", "wall_norm@record"),
    pl("engine.measured_ns", "ns", "lower", "wall_norm@record"),
    pl("engine.classify_ns", "ns", "lower", "wall_norm@record"),
    pl("engine.calls", "count", "lower", "wall_norm@record"),
    pl("engine.opt_entries", "count", "higher", "wall_norm@record"),
    pl("engine.deopts", "count", "lower", "wall_norm@record"),
    pl("engine.ic_misses", "count", "lower", "wall_norm@record"),
    pl("opt.compile_ns", "ns", "lower", "wall_norm@record"),
    pl("opt.compiles", "count", "lower", "wall_norm@record"),
    pl("opt.defers", "count", "lower", "wall_norm@record"),
    pl("opt.bails", "count", "lower", "wall_norm@record"),
    pl("opt.regions_compiled", "count", "lower", "wall_norm@record"),
    pl("opt.tier_up_events", "count", "lower", "wall_norm@record"),
    pl("opt.code_cache_bytes", "bytes", "lower", "wall_norm@record"),
    pl("opt.evictions", "count", "lower", "wall_norm@record"),
    pl("opt.deopt_bridges", "count", "lower", "wall_norm@record"),
    pl("opt.bbv_versions", "count", "lower", "wall_norm@record"),
    pl(
        "opt.bbv_cap_fallbacks",
        "count",
        "lower",
        "wall_norm@record",
    ),
    pl("runtime.gc_runs", "count", "lower", "wall_norm@record"),
    pl("runtime.objects", "count", "lower", "wall_norm@record"),
    pl(
        "runtime.hidden_classes",
        "count",
        "lower",
        "wall_norm@record",
    ),
    pl("core.cc_accesses", "count", "lower", "wall_norm@record"),
    pl("core.cc_hit_rate", "ratio", "higher", "wall_norm@record"),
    pl(
        "core.misspec_exceptions",
        "count",
        "lower",
        "wall_norm@record",
    ),
    pl("isa.uops", "count", "lower", "wall_norm@record"),
    pl("isa.check_uops", "count", "lower", "wall_norm@record"),
    pl("isa.counter_ns", "ns", "lower", "wall_norm@record"),
    pl("isa.encode_ns", "ns", "lower", "wall_norm@record"),
    pl(
        "isa.encoded_bytes",
        "bytes",
        "lower",
        "wall_norm@record,peak_rss_mb@record",
    ),
    pl("isa.decode_ns", "ns", "lower", "wall_norm@resimulate"),
    pl("isa.lz_ratio", "ratio", "higher", "wall_norm@record"),
    pl(
        "uarch.coresim_ns",
        "ns",
        "lower",
        "wall_norm@resimulate,wall_norm@record",
    ),
    pl(
        "uarch.coresim_mops",
        "Muops/s",
        "higher",
        "wall_norm@resimulate,wall_norm@record",
    ),
    pl("uarch.cycles", "count", "lower", "wall_norm@resimulate"),
    pl("uarch.ipc", "ratio", "higher", "wall_norm@resimulate"),
    pl("uarch.dl1_misses", "count", "lower", "wall_norm@resimulate"),
    pl("uarch.simobj_ns", "ns", "lower", "wall_norm@record"),
    pl(
        "bench.store.image_build_ns",
        "ns",
        "lower",
        "wall_norm@record",
    ),
    pl("bench.store.write_ns", "ns", "lower", "wall_norm@record"),
    pl("bench.store.sim_put_ns", "ns", "lower", "wall_norm@record"),
    pl(
        "bench.store.bytes_written",
        "bytes",
        "lower",
        "wall_norm@record",
    ),
    pl("bench.store.disk_mb", "MB", "lower", "wall_norm@record"),
    pl("bench.store.read_ns", "ns", "lower", "wall_norm@resimulate"),
    pl(
        "bench.store.image_verify_ns",
        "ns",
        "lower",
        "wall_norm@resimulate",
    ),
    pl(
        "bench.store.bytes_read",
        "bytes",
        "lower",
        "wall_norm@resimulate",
    ),
    pl(
        "bench.store.stat_ns",
        "ns",
        "lower",
        "wall_norm@resimulate,wall_norm@record",
    ),
    pl("bench.store.sim_get_ns", "ns", "lower", "wall_norm@record"),
    pl(
        "bench.store.dedup_ratio",
        "ratio",
        "higher",
        "wall_norm@record",
    ),
    pl("bench.simcache.hits", "count", "higher", "wall_norm@record"),
    pl(
        "bench.simcache.misses",
        "count",
        "lower",
        "wall_norm@record",
    ),
    pl(
        "bench.runner.trace_hits",
        "count",
        "higher",
        "wall_norm@resimulate",
    ),
    pl(
        "bench.runner.trace_misses",
        "count",
        "lower",
        "wall_norm@record",
    ),
    pl(
        "bench.runner.failed_cells",
        "count",
        "lower",
        "fail_ratio@all",
    ),
    pl(
        "bench.runner.sim_warm_ms",
        "ms",
        "lower",
        "wall_norm@record",
    ),
    pl("bench.proto.stat_us", "us", "lower", "wall_norm@serve"),
    pl("bench.proto.sim_get_us", "us", "lower", "wall_norm@serve"),
    pl("bench.proto.put_us", "us", "lower", "wall_norm@serve"),
    pl("bench.proto.put_mbps", "MB/s", "higher", "wall_norm@serve"),
    pl("bench.proto.sim_put_us", "us", "lower", "wall_norm@serve"),
    pl("bench.proto.errors", "count", "lower", "fail_ratio@serve"),
    pl("trace.unattributed_share", "ratio", "lower", "-"),
    pl("trace.overhead", "ratio", "lower", "-"),
];

const PROTO: [&str; 6] = [
    "bench.proto.stat_us",
    "bench.proto.sim_get_us",
    "bench.proto.put_us",
    "bench.proto.put_mbps",
    "bench.proto.sim_put_us",
    "bench.proto.errors",
];

/// The per-layer metrics each workload's traced pass is predicted to read
/// as exactly 0: the layers the workload leaves idle. The spans can only
/// show what the traced composition calls; [`idle_counters`] checks the
/// same predictions against the program's own counters on the path the
/// untraced passes run.
#[must_use]
pub fn predicted_idle(workload: &str) -> Vec<&'static str> {
    let own: &[&'static str] = match workload {
        "resimulate" => &[
            "engine.measured_ns",
            "isa.encode_ns",
            "bench.store.bytes_written",
        ],
        "serve" => &["engine.measured_ns", "uarch.coresim_ns", "isa.encode_ns"],
        _ => &[],
    };
    let mut out = own.to_vec();
    if workload != "serve" {
        out.extend(PROTO);
    }
    out
}

/// The program's own counters that back the idle predictions: each must
/// read the same before and after a workload's timed passes. `cache.*`
/// are the runner's `TraceCacheStats` and `store.*` its local store's
/// `StoreStats`. The runner runs the engine (and so encodes a trace) only
/// on a miss and writes only when it records, so on `resimulate` no miss,
/// no recording and no store write shows the engine, the encoder and the
/// store's write path idle; no remote hit or error shows the protocol
/// idle outside `serve`. `serve`'s client sends bytes prepared at set-up,
/// so its engine, CoreSim and encoder predictions hold by construction;
/// its server is checked against the runner's own traffic instead.
#[must_use]
pub fn idle_counters(workload: &str) -> Vec<&'static str> {
    let own: &[&'static str] = match workload {
        "resimulate" => &[
            "cache.misses",
            "cache.stores",
            "cache.sim_stores",
            "store.puts",
            "store.sim_puts",
            "store.bytes_written",
        ],
        _ => &[],
    };
    let mut out = own.to_vec();
    if workload != "serve" {
        out.extend(["cache.remote_hits", "cache.remote_errors"]);
    }
    out
}

/// `BENCHMARK.json`, as generated from the tables above.
#[must_use]
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"python3\", \"perfbench/run.py\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {},\n", crate::RUN_SECONDS));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// The catalogue as text: per-layer targets and idle predictions.
#[must_use]
pub fn describe() -> String {
    let mut s = String::new();
    for w in WORKLOADS {
        s.push_str(&format!("workload {}: {}\n", w.name, w.why));
        s.push_str(&format!(
            "  predicted idle: {}\n",
            predicted_idle(w.name).join(", ")
        ));
        let counters = idle_counters(w.name);
        s.push_str(&format!(
            "  unchanged program counters: {}\n",
            if counters.is_empty() {
                "none (the server is checked against the runner's traffic)".to_string()
            } else {
                counters.join(", ")
            }
        ));
    }
    for m in PER_LAYER {
        s.push_str(&format!(
            "{:<30} {:<8} {:<6} moves {}\n",
            m.name, m.unit, m.better, m.moves
        ));
    }
    s
}
