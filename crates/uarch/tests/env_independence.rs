//! [`CoreSim`] is a pure function of `(CoreConfig, EnergyParams, trace)`.
//!
//! The sim-result cache keys memoized results on exactly those inputs
//! (the trace's content ID and the config/energy fingerprint), so any
//! other input — an environment variable in particular — would let a
//! cache filled under one setting serve its results to a run under
//! another. This test re-runs its own binary with the debug variables
//! the simulator once read (`CHECKELIDE_NODEP`, `CHECKELIDE_NOWIN`,
//! `CHECKELIDE_SCALAR_SIM`) set, and requires the child to print the
//! same [`SimResult`] for a fixed trace as this process computes.

use std::process::Command;

use checkelide_isa::uop::{Category, Region, Tok, Uop, UopKind};
use checkelide_isa::TraceSink;
use checkelide_uarch::{CoreConfig, CoreSim, SimResult};

/// Prefix of the line the child prints its result on.
const RESULT_TAG: &str = "coresim-result:";

/// A trace both debug variables used to change: dependent long-latency
/// chains (operand readiness) deep enough to fill the 128-entry window,
/// interleaved with loads and stores that miss the caches.
fn fixed_trace() -> Vec<Uop> {
    (0..2_000u64)
        .map(|i| {
            let tok = |j: u64| Tok(1 + (j % 500) as u32);
            let u = match i % 4 {
                0 => Uop::new(
                    UopKind::Div,
                    0x1000 + 4 * (i % 64),
                    Category::RestOfCode,
                    Region::Optimized,
                ),
                1 => Uop::load(
                    0x2000,
                    0x40_0000 + i * 4096,
                    Category::RestOfCode,
                    Region::Baseline,
                ),
                2 => Uop::store(
                    0x3000,
                    0x80_0000 + i * 64,
                    Category::RestOfCode,
                    Region::Optimized,
                ),
                _ => Uop::new(UopKind::Mul, 0x4000, Category::RestOfCode, Region::Runtime),
            };
            u.with_srcs(tok(i), tok(i + 7)).with_dst(tok(i + 1))
        })
        .collect()
}

fn simulate() -> SimResult {
    let mut sim = CoreSim::new(CoreConfig::nehalem());
    sim.emit_batch(&fixed_trace());
    sim.finish();
    sim.result()
}

/// The child half: prints the fixed trace's result. Also runs (harmlessly)
/// as an ordinary test.
#[test]
fn print_fixed_trace_result() {
    println!("{RESULT_TAG}{:?}", simulate());
}

#[test]
fn simulation_ignores_the_environment() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["print_fixed_trace_result", "--exact", "--nocapture"])
        .env("CHECKELIDE_NODEP", "1")
        .env("CHECKELIDE_NOWIN", "1")
        .env("CHECKELIDE_SCALAR_SIM", "1")
        .output()
        .expect("re-run the test binary");
    assert!(
        out.status.success(),
        "child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let child = stdout
        .lines()
        .find_map(|l| l.split_once(RESULT_TAG).map(|(_, r)| r))
        .unwrap_or_else(|| panic!("child printed no result:\n{stdout}"));
    assert_eq!(
        child,
        format!("{:?}", simulate()),
        "an environment variable changed the simulation"
    );
}
