//! `xcheck` — differential seed sweep.
//!
//! ```text
//! xcheck [--seed N] [--count N] [--jobs N] [--quick]
//!        [--dump-dir DIR] [--max-shrink N]
//! ```
//!
//! Generates `--count` programs from consecutive seeds starting at
//! `--seed`, runs each under the reference interpreter and the six
//! engine configurations, and reports divergences. Every mismatch is
//! shrunk to a minimal reproducer and dumped under `--dump-dir`
//! (default `results/xcheck`). The stdout report depends only on the
//! seed range and engine behaviour — it is byte-identical at any
//! `--jobs`; timing goes to stderr. Exit status is nonzero iff a
//! mismatch was found.

#![forbid(unsafe_code)]

use checkelide_bench::Cli;
use checkelide_xcheck::{sweep, SweepOptions};
use std::time::Instant;

fn main() {
    let cli = Cli::parse();
    let opts = SweepOptions {
        seed0: cli.u64_or("--seed", 1),
        count: cli.u64_or("--count", if cli.quick { 50 } else { 300 }),
        jobs: cli.jobs,
        dump_dir: Some(cli.value_of("--dump-dir").unwrap_or("results/xcheck").into()),
        max_shrink: cli.usize_or("--max-shrink", 2000),
    };

    let t0 = Instant::now();
    let report = sweep(&opts);
    print!("{}", report.render());
    eprintln!(
        "[xcheck] {} seeds x {} configs in {:.2?} ({} jobs)",
        opts.count,
        checkelide_xcheck::config_matrix().len(),
        t0.elapsed(),
        opts.jobs
    );
    if !report.mismatches.is_empty() {
        if let Some(dir) = &opts.dump_dir {
            eprintln!("[xcheck] reproducers dumped under {}", dir.display());
        }
        std::process::exit(1);
    }
}
