//! Sink-equivalence regression test for the batched trace pipeline.
//!
//! The batching rework ([`TraceSink::emit_batch`] + the producer-side
//! `BatchSink` staging buffer) must be a pure interface optimization: for
//! the same µop sequence, batched and per-µop consumption have to produce
//! bit-identical statistics. This test records a real program trace
//! through the full engine stack (both execution tiers, inline caches,
//! GC-free steady state) and replays it into fresh [`CounterSink`]s,
//! whose `emit_batch` is a hand-written batched loop: per µop, per
//! capacity-sized batch, and through the producer-side [`BatchSink`]
//! wrapper (arbitrary flush boundaries from capacity-triggered
//! auto-flushes), asserting identical counter totals.
//!
//! The same property must hold through the binary trace codec: recording
//! the live trace with [`TraceWriter`] and streaming it back with
//! [`TraceReader::replay`] has to reproduce bit-identical consumer state
//! — that equivalence is what lets the bench trace cache substitute a
//! recorded trace for a re-execution.

use checkelide_engine::{EngineConfig, Mechanism, Vm};
use checkelide_isa::codec::{decode_trace, encode_trace, TraceReader};
use checkelide_isa::trace::VecSink;
use checkelide_isa::uop::{Category, Region, Uop};
use checkelide_isa::{BatchSink, CounterSink, NullSink, TraceSink, BATCH_CAPACITY};
use checkelide_opt::install_optimizer;
use checkelide_runtime::Value;
use checkelide_uarch::{CoreConfig, CoreSim};

/// A small but representative workload: hidden-class property traffic,
/// elements-array loads/stores, SMI and double arithmetic, calls, and
/// enough iterations that the optimized tier is active in the recorded
/// trace.
const SRC: &str = "
function Vec(x, y) { this.x = x; this.y = y; }
function dot(a, b) { return a.x * b.x + a.y * b.y; }
function bench(n) {
    var u = new Vec(3, 4);
    var v = new Vec(5, 6);
    var arr = [];
    for (var i = 0; i < 64; i++) arr[i] = i * 1.5;
    var acc = 0;
    for (var j = 0; j < n; j++) {
        acc = acc + dot(u, v) + arr[j % 64];
        u.x = (u.x + 1) % 97;
    }
    return acc;
}";

/// Record the steady-state trace of one `bench(400)` call (two warm-up
/// calls first so the optimized tier is entered).
fn record_trace() -> Vec<Uop> {
    let mut vm = Vm::new(EngineConfig {
        mechanism: Mechanism::ProfileOnly,
        opt_enabled: true,
        ..EngineConfig::default()
    });
    install_optimizer(&mut vm);
    let mut null = NullSink::new();
    vm.run_program(SRC, &mut null).expect("setup");
    let args = [Value::smi(400)];
    for _ in 0..2 {
        vm.call_global("bench", &args, &mut null).expect("warmup");
    }
    let mut rec = VecSink::new();
    vm.call_global("bench", &args, &mut rec).expect("measured");
    rec.uops
}

/// All externally observable [`CounterSink`] totals, for equality checks.
fn counter_fingerprint(c: &CounterSink) -> Vec<u64> {
    let mut v = Vec::new();
    for r in [Region::Baseline, Region::Optimized, Region::Runtime] {
        for cat in Category::ALL {
            v.push(c.count(r, cat));
        }
    }
    v.push(c.after_object_load());
    v.push(c.after_object_load_optimized());
    v
}

#[test]
fn batched_and_per_uop_consumption_are_equivalent() {
    let trace = record_trace();
    assert!(
        trace.len() > 3 * BATCH_CAPACITY,
        "trace too short ({} µops) to exercise batching",
        trace.len()
    );
    assert!(
        trace.iter().any(|u| u.region == Region::Optimized),
        "trace must include optimized-tier µops to be representative"
    );

    let mut per_uop = CounterSink::new();
    for u in &trace {
        per_uop.emit(u);
    }
    per_uop.finish();

    let mut batched = CounterSink::new();
    for chunk in trace.chunks(BATCH_CAPACITY) {
        batched.emit_batch(chunk);
    }
    batched.finish();

    assert_eq!(
        counter_fingerprint(&per_uop),
        counter_fingerprint(&batched),
        "CounterSink totals must not depend on batch boundaries"
    );
    assert_eq!(per_uop.total(), trace.len() as u64);

    // Producer-side staging buffer: per-µop pushes, capacity-triggered
    // flushes at arbitrary (non-chunk-aligned) boundaries.
    let mut via_batch_sink = CounterSink::new();
    {
        let mut b = BatchSink::new(&mut via_batch_sink);
        for u in &trace {
            b.push(*u);
        }
        b.finish();
    }
    assert_eq!(
        counter_fingerprint(&per_uop),
        counter_fingerprint(&via_batch_sink),
        "BatchSink staging must preserve the exact µop stream"
    );
}

/// Recording a real engine trace through the binary codec and replaying
/// it must be invisible to every consumer: the [`CounterSink`]
/// fingerprint and the [`CoreSim`] [`SimResult`] after a
/// [`TraceReader::replay`] have to equal the live (in-memory) run's. This
/// is the end-to-end correctness contract behind the bench trace cache's
/// record-once/replay-many protocol.
#[test]
fn codec_replay_is_equivalent_to_live_consumption() {
    let trace = record_trace();
    assert!(trace.len() > 3 * BATCH_CAPACITY, "trace too short to be representative");

    // Live fingerprints.
    let mut live_counters = CounterSink::new();
    live_counters.emit_batch(&trace);
    live_counters.finish();
    let mut live_sim = CoreSim::new(CoreConfig::nehalem());
    live_sim.emit_batch(&trace);
    live_sim.finish();
    let live_result = live_sim.result();

    // Encode through TraceWriter, decode eagerly: exact µop identity.
    let bytes = encode_trace(&trace);
    assert!(
        bytes.len() * 8 <= trace.len() * std::mem::size_of::<Uop>(),
        "encoded trace ({} B) must be at least 8x smaller than the \
         in-memory form ({} B)",
        bytes.len(),
        trace.len() * std::mem::size_of::<Uop>()
    );
    let decoded = decode_trace(&bytes).expect("decode");
    assert_eq!(decoded, trace, "codec round trip must preserve every µop field");

    // Streaming replay into a CounterSink.
    let mut replay_counters = CounterSink::new();
    let mut rd = TraceReader::new(std::io::Cursor::new(&bytes[..])).expect("header");
    let n = rd.replay(&mut replay_counters).expect("replay");
    assert_eq!(n, trace.len() as u64);
    assert_eq!(
        counter_fingerprint(&live_counters),
        counter_fingerprint(&replay_counters),
        "counter totals must survive the codec round trip"
    );

    // Streaming replay into a fresh CoreSim.
    let mut replay_sim = CoreSim::new(CoreConfig::nehalem());
    let mut rd = TraceReader::new(std::io::Cursor::new(&bytes[..])).expect("header");
    rd.replay(&mut replay_sim).expect("replay");
    assert_eq!(
        live_result,
        replay_sim.result(),
        "SimResult (cycles, energy, caches, TLBs, branches) must be \
         identical between live consumption and codec replay"
    );

    // NullSink fast path still validates framing and counts every µop.
    let mut null = NullSink::new();
    let mut rd = TraceReader::new(std::io::Cursor::new(&bytes[..])).expect("header");
    assert_eq!(rd.replay(&mut null).expect("replay"), trace.len() as u64);
}
