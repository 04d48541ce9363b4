//! Properties of the [`CoreSim`] timing model that share none of its code.
//!
//! Each property is either a bound the model's definition implies (every
//! µop retires once and is attributed once; fetch delivers at most
//! `issue_width` µops a cycle; a dependent chain serializes), a
//! metamorphic relation (a slower hierarchy or a colder access never
//! makes a run faster), or — in the one configuration where the window,
//! issue queue and MSHRs cannot bind and every miss is free — equality
//! with a dataflow critical path computed here from first principles.
//!
//! The configurations go down to every structural minimum (one-entry
//! windows, one-way caches, tiny TLBs) and every latency down to 0. The
//! trace generator skews toward engine-like streams: small PC and address
//! pools so caches see a hit/miss mix, and a small token pool so the
//! ready-array generation check sees both live and overwritten producers.

use std::collections::HashMap;

use checkelide_isa::uop::{Category, MemRef, Region, Tok, Uop, UopKind};
use checkelide_isa::TraceSink;
use checkelide_uarch::{CacheGeometry, CoreConfig, CoreSim, SimResult};
use proptest::prelude::*;

const CATEGORIES: [Category; 5] = Category::ALL;
const REGIONS: [Region; 3] = [Region::Optimized, Region::Baseline, Region::Runtime];

/// A small but legal cache geometry: 1–16 sets, 1–4 ways, 64 B lines.
/// Small enough that the generated address pools overflow it.
fn arb_geometry() -> BoxedStrategy<CacheGeometry> {
    (0u32..5, 1usize..=4)
        .prop_map(|(sets_log, ways)| CacheGeometry {
            size: (1usize << sets_log) * ways * 64,
            ways,
            line: 64,
        })
        .boxed()
}

/// An arbitrary valid configuration. Every structural capacity goes down
/// to its legal minimum of 1, and every latency/penalty down to 0.
fn arb_config() -> BoxedStrategy<CoreConfig> {
    (
        (1u64..=8, 1usize..=48, 1usize..=48, 1usize..=8),
        (0u64..=4, 0u64..=16, 0u64..=200),
        (arb_geometry(), arb_geometry(), arb_geometry()),
        (1usize..=64, 1usize..=64, 0u64..=40, 0u64..=20),
    )
        .prop_map(
            |(
                (issue_width, window_size, issue_queue, outstanding_mem),
                (l1_latency, l2_latency, mem_latency),
                (il1, dl1, l2),
                (itlb_entries, dtlb_entries, tlb_miss_penalty, mispredict_penalty),
            )| {
                let mut c = CoreConfig::nehalem();
                c.issue_width = issue_width;
                c.window_size = window_size;
                c.issue_queue = issue_queue;
                c.outstanding_mem = outstanding_mem;
                c.l1_latency = l1_latency;
                c.l2_latency = l2_latency;
                c.mem_latency = mem_latency;
                c.il1 = il1;
                c.dl1 = dl1;
                c.l2 = l2;
                c.itlb_entries = itlb_entries;
                c.dtlb_entries = dtlb_entries;
                c.tlb_miss_penalty = tlb_miss_penalty;
                c.mispredict_penalty = mispredict_penalty;
                c
            },
        )
        .boxed()
}

/// One engine-like µop: PCs from a 1 MiB pool (hundreds of lines and
/// pages — enough to miss the small TLBs above), data addresses from a
/// separate pool below 2^23, tokens from a pool of 300 so destinations
/// are overwritten.
fn arb_uop() -> BoxedStrategy<Uop> {
    (
        (
            0usize..UopKind::COUNT,
            0usize..CATEGORIES.len(),
            0usize..REGIONS.len(),
        ),
        0u64..65536,
        (any::<bool>(), 0u64..65536, any::<bool>()),
        (0u32..300, 0u32..300, 0u32..300),
        any::<bool>(),
    )
        .prop_map(
            |((k, c, r), pc_slot, (has_mem, addr_slot, is_store), (s0, s1, d), taken)| Uop {
                kind: UopKind::ALL[k],
                category: CATEGORIES[c],
                pc: 0x1000 + (pc_slot << 4),
                mem: has_mem.then_some(MemRef {
                    addr: 0x20_0000 + (addr_slot << 4),
                    size: 8,
                    is_store,
                }),
                srcs: [Tok(s0), Tok(s1)],
                dst: Tok(d),
                provenance: Default::default(),
                region: REGIONS[r],
                taken,
            },
        )
        .boxed()
}

fn arb_trace() -> BoxedStrategy<Vec<Uop>> {
    proptest::collection::vec(arb_uop(), 0..600).boxed()
}

/// Run `trace` through a fresh simulator, in one batch as the figure
/// pipeline hands it over.
fn simulate(config: CoreConfig, trace: &[Uop]) -> SimResult {
    let mut sim = CoreSim::new(config);
    sim.emit_batch(trace);
    sim.finish();
    sim.result()
}

/// Execution latency of a µop that touches no memory, restated from the
/// model's specification (Nehalem-class functional units).
fn kind_latency(kind: UopKind) -> u64 {
    match kind {
        UopKind::Mul | UopKind::FpAdd => 3,
        UopKind::FpMul => 5,
        UopKind::Div | UopKind::FpDiv => 20,
        _ => 1,
    }
}

/// Completion time of `trace` on an ideal machine: µop `i` is fetched in
/// cycle `⌊(i+1)/issue_width⌋`, starts once it is fetched and every source
/// operand's latest producer has completed, and takes 1 cycle if it is a
/// store, `l1_latency` if it is a load and its kind's latency otherwise.
/// The run also lasts at least as long as fetching every µop takes.
fn critical_path(trace: &[Uop], issue_width: u64, l1_latency: u64) -> u64 {
    let mut done_at: HashMap<Tok, u64> = HashMap::new();
    let mut end = (trace.len() as u64).div_ceil(issue_width);
    for (i, u) in trace.iter().enumerate() {
        let fetched = (i as u64 + 1) / issue_width;
        let operands = u.srcs.iter().filter_map(|s| done_at.get(s)).copied();
        let start = operands.fold(fetched, u64::max);
        let latency = match u.mem {
            Some(m) if m.is_store => 1,
            Some(_) => l1_latency,
            None => kind_latency(u.kind),
        };
        if u.dst != Tok::NONE {
            done_at.insert(u.dst, start + latency);
        }
        end = end.max(start + latency);
    }
    end
}

proptest! {
    #[test]
    fn every_uop_is_counted_and_fetch_bounds_cycles(
        config in arb_config(),
        trace in arb_trace(),
    ) {
        let r = simulate(config, &trace);
        let n = trace.len() as u64;
        prop_assert_eq!(r.uops, n);
        prop_assert_eq!(r.regions.iter().map(|x| x.uops).sum::<u64>(), n);
        prop_assert!(r.regions.iter().map(|x| x.cycles).sum::<u64>() <= r.cycles);
        prop_assert!(r.cycles >= n.div_ceil(config.issue_width));
    }

    #[test]
    fn raising_a_latency_or_penalty_never_lowers_cycles(
        config in arb_config(),
        trace in arb_trace(),
        which in 0usize..5,
        extra in 1u64..=60,
    ) {
        let mut slower = config;
        match which {
            0 => slower.mem_latency += extra,
            1 => slower.l2_latency += extra,
            2 => slower.l1_latency += extra,
            3 => slower.tlb_miss_penalty += extra,
            _ => slower.mispredict_penalty += extra,
        }
        let (base, slow) = (simulate(config, &trace), simulate(slower, &trace));
        prop_assert!(
            slow.cycles >= base.cycles,
            "raising parameter {} by {} cut cycles {} -> {}",
            which, extra, base.cycles, slow.cycles
        );
    }

    #[test]
    fn a_cold_memory_access_never_lowers_cycles(
        config in arb_config(),
        trace in arb_trace(),
        pick in any::<u64>(),
    ) {
        let mem_ops: Vec<usize> = (0..trace.len()).filter(|&i| trace[i].mem.is_some()).collect();
        if !mem_ops.is_empty() {
            // 2^40 above the generated pool: a line and page no other µop
            // touches, in the same cache sets as the original address.
            let i = mem_ops[(pick % mem_ops.len() as u64) as usize];
            let mut colder = trace.clone();
            colder[i].mem.as_mut().expect("picked a memory µop").addr += 1 << 40;
            let (base, cold) = (simulate(config, &trace), simulate(config, &colder));
            prop_assert!(
                cold.cycles >= base.cycles,
                "moving µop {} to a cold address cut cycles {} -> {}",
                i, base.cycles, cold.cycles
            );
        }
    }

    #[test]
    fn a_dependent_chain_costs_at_least_its_latencies(
        config in arb_config(),
        n in 1u64..=300,
        k in 0usize..3,
    ) {
        let kind = [UopKind::Alu, UopKind::Mul, UopKind::FpDiv][k];
        let chain: Vec<Uop> = (0..n)
            .map(|i| {
                Uop::new(kind, 0x1000 + 4 * i, Category::RestOfCode, Region::Optimized)
                    .with_srcs(Tok(i as u32 + 1), Tok::NONE)
                    .with_dst(Tok(i as u32 + 2))
            })
            .collect();
        let r = simulate(config, &chain);
        prop_assert!(
            r.cycles >= n * kind_latency(kind),
            "{} chained {:?} µops finished in {} cycles",
            n, kind, r.cycles
        );
    }

    #[test]
    fn unbounded_zero_penalty_cycles_equal_the_dataflow_critical_path(
        config in arb_config(),
        trace in arb_trace(),
    ) {
        let mut ideal = config;
        let room = trace.len().max(1);
        ideal.window_size = room;
        ideal.issue_queue = room;
        ideal.outstanding_mem = room;
        ideal.l2_latency = 0;
        ideal.mem_latency = 0;
        ideal.tlb_miss_penalty = 0;
        ideal.mispredict_penalty = 0;
        let r = simulate(ideal, &trace);
        prop_assert_eq!(r.cycles, critical_path(&trace, ideal.issue_width, ideal.l1_latency));
    }
}
