//! `tracestored` — serve a content-addressed trace store over TCP.
//!
//!     tracestored [--store DIR] [--addr HOST:PORT]
//!     tracestored --gc [--store DIR] [--max-store-bytes N]
//!
//! Serving: binds `--addr` (default `127.0.0.1:7117`; port `0` picks a
//! free port and prints it) and answers the GET/PUT/STAT/LIST protocol
//! of `checkelide_bench::proto` against the store at `--store` (default
//! `target/trace-cache`), one panic-isolated thread per connection.
//! Point any figure binary (or a whole fleet of them) at it with
//! `--trace-cache tcp://HOST:PORT`: N workers then share one warm store
//! instead of each paying the cold recording.
//!
//! Maintenance: `--gc` runs one garbage-collection pass and exits —
//! drops entries whose stored key carries a stale schema salt (a
//! `TRACE_SCHEMA_REV` / codec-version bump invalidates every old key),
//! bounds the store to `--max-store-bytes` evicting least-recently-used
//! entries (memoized sim results are charged to the trace they belong
//! to), and reclaims unreferenced objects, sim-result objects whose
//! trace CID is gone or whose `SIM_SCHEMA_REV` is stale, plus legacy
//! flat-layout files. The open itself also sweeps `*.tmp.*` debris from
//! crashed runs.

use std::net::TcpListener;
use std::sync::atomic::AtomicBool;

use checkelide_bench::proto::serve;
use checkelide_bench::tracecache::{current_key_suffix, DEFAULT_TRACE_CACHE_DIR};
use checkelide_bench::{Cli, TraceStore};

fn main() {
    let cli = Cli::parse();
    let dir = cli.value_of("--store").unwrap_or(DEFAULT_TRACE_CACHE_DIR).to_string();
    let store = match TraceStore::open(&dir, true) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("tracestored: cannot open store at {dir}: {e}");
            std::process::exit(1);
        }
    };

    if cli.has("--gc") {
        let max_bytes = cli.value_of("--max-store-bytes").map(|v| {
            v.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("tracestored: --max-store-bytes expects a byte count, got `{v}`");
                std::process::exit(2);
            })
        });
        let stats = store.gc(&current_key_suffix(), max_bytes);
        println!(
            "tracestored: gc {}: {} stale + {} lru entries dropped, \
             {} orphan objects, {} stale + {} orphan sim objects, \
             {} legacy files, {} bytes freed; \
             {} entries ({} bytes) kept",
            dir,
            stats.stale_entries,
            stats.lru_entries,
            stats.orphan_objects,
            stats.stale_sims,
            stats.orphan_sims,
            stats.legacy_files,
            stats.bytes_freed,
            stats.entries_kept,
            stats.bytes_kept,
        );
        return;
    }

    let addr = cli.value_of("--addr").unwrap_or("127.0.0.1:7117");
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("tracestored: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let local = listener.local_addr().map(|a| a.to_string()).unwrap_or_default();
    let (entries, objects, object_bytes, _) = store.summary();
    println!(
        "tracestored: listening on {local} (store {dir}: {entries} entries, \
         {objects} objects, {object_bytes} bytes)"
    );
    let stop = AtomicBool::new(false);
    if let Err(e) = serve(&listener, &store, &stop) {
        eprintln!("tracestored: serve failed: {e}");
        std::process::exit(1);
    }
}
