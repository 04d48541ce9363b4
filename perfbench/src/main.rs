//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--work-dir DIR]`: run one workload and print its metrics; the last
//! line of standard output is the result as one JSON object. The exit
//! code is 0 only when every correctness check passed.
//!
//! `perfbench --benchmark-json` prints `BENCHMARK.json`;
//! `perfbench --describe` prints the per-layer targets and the idle-layer
//! predictions.

use checkelide_perfbench::ledger::Span;
use checkelide_perfbench::metrics::{self, END_TO_END, PER_LAYER};
use checkelide_perfbench::workloads::{self, Ctx};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split(':').nth(1))
        })
        .map_or_else(|| "unknown".into(), |m| m.trim().to_string())
}

/// The checked-out commit, read from `.git` when the working directory is
/// a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l[..40.min(l.len())].to_string())
                    })
            })
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Remove every `CHECKELIDE_*` variable (they change what the program
/// computes or caches) and return what was set.
fn clear_env() -> Vec<(String, String)> {
    let set: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())))
        .filter(|(k, _)| k.starts_with("CHECKELIDE_"))
        .collect();
    for (k, _) in &set {
        std::env::remove_var(k);
    }
    set
}

/// Write the span ledger of a traced run as JSON lines next to the work
/// directory: `perfbench-spans/<workload>-<seed>.jsonl`.
fn write_spans(
    work_dir: &Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<PathBuf> {
    let dir = work_dir
        .parent()
        .unwrap_or(Path::new("."))
        .join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-{seed}.jsonl"));
    let mut text = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"name\": {}, \"cell\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \
             \"dur_ns\": {}, \"calls\": {}, \"self_ns\": {}}}\n",
            json_str(s.name),
            s.cell,
            s.start_ns,
            s.end_ns,
            s.dur_ns,
            s.calls,
            s.self_ns()
        ));
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: checkelide_perfbench::RUN_SECONDS as f64,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("duration"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err(bad("duration"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--work-dir" => a.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--benchmark-json") => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("--describe") => {
            print!("{}", metrics::describe());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let cleared = clear_env();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env: Vec<String> = cleared
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"host\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}, \
         \"cleared_env\": {{{}}}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        // The workload process is pinned to one CPU; the host's count
        // comes from the launcher when there is one.
        std::env::var("PERFBENCH_NPROC").unwrap_or_else(|_| {
            std::thread::available_parallelism()
                .map_or(0, std::num::NonZeroUsize::get)
                .to_string()
        }),
        json_str(&cpu_model()),
        json_str(&std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        json_str(&commit()),
        env.join(", "),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work_root: args.work_dir.clone(),
        kernels: None,
    };
    let mut out = match workloads::run(&args.workload, &ctx, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for n in &out.notes {
        println!("# {n}");
    }
    if args.trace {
        match write_spans(&args.work_dir, &args.workload, args.seed, &out.spans) {
            Ok(path) => println!("# spans written to {}", path.display()),
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: FAILED: cannot write the span ledger: {e}");
            }
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in names {
        let value = out.get(name).unwrap_or(f64::NAN);
        let value = if value.is_finite() {
            value
        } else {
            out.failed += 1;
            eprintln!("perfbench: FAILED: metric {name} has no finite value");
            0.0
        };
        println!("# {name} = {value} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let attempted = out.attempted.max(1);
    println!(
        "# fail_ratio = {} ({} of {attempted} cells, requests and checks failed)",
        out.failed as f64 / attempted as f64,
        out.failed
    );
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
