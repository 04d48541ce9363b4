//! Shared command-line parsing for the harness binaries.
//!
//! Every `crates/bench/src/bin/*` entry point (and `checkelide-xcheck`'s
//! `xcheck` binary) parses its arguments here, and the command line is
//! the only way to configure a run: no setting is read from the process
//! environment. Parsing is deliberately tiny and dependency-free:
//!
//! * boolean flags: `--quick`, `--gc` (see [`Cli::has`]);
//! * value flags: `--name V` or `--name=V` (see [`Cli::value_of`]);
//! * `--jobs N` / `-j N` / `--jobs=N`: worker threads, `0` clamps to 1,
//!   default (and fallback for an unparsable value) the machine's
//!   available parallelism;
//! * positionals: the first argument that is neither a flag nor the value
//!   of a known value-taking flag ([`Cli::positional_or`]).
//!
//! Any other `--flag` is a usage error: [`Cli::parse`] names it and exits
//! with status 2, so a misspelled or retired flag never silently becomes
//! a default (or, worse, a positional argument).

/// Flags that consume the following argument as their value. Needed to
/// tell `--jobs 4 foo` (positional `foo`) apart from `--jobs 4` alone.
const VALUE_FLAGS: &[&str] = &[
    "--jobs",
    "-j",
    "--detail",
    "--seed",
    "--count",
    "--dump-dir",
    "--max-shrink",
    "--trace-cache",
    "--sim-cache",
    "--floor",
    "--floor-mult",
    "--store",
    "--addr",
    "--max-store-bytes",
];

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["--quick", "--gc"];

/// Parsed command line shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// `--quick` — reduced-scale smoke run.
    pub quick: bool,
    /// Worker threads (`--jobs N`, `-j N`, `--jobs=N`; default: available
    /// parallelism).
    pub jobs: usize,
    args: Vec<String>,
}

impl Cli {
    /// Parse the process's own arguments, exiting with status 2 and a
    /// usage error on an unknown `--flag`.
    pub fn parse() -> Cli {
        Cli::from_args(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
            eprintln!("error: {e}; known flags: {}", BOOL_FLAGS.join(" "));
            eprintln!("  and, each with a value: {}", VALUE_FLAGS.join(" "));
            std::process::exit(2);
        })
    }

    /// Parse an explicit argument vector (no program name).
    ///
    /// # Errors
    ///
    /// A usage message naming the first unknown `--flag`.
    pub fn from_args(args: Vec<String>) -> Result<Cli, String> {
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a.split_once('=').map_or(a.as_str(), |(n, _)| n);
            if VALUE_FLAGS.contains(&name) {
                if name == a {
                    it.next();
                }
            } else if BOOL_FLAGS.contains(&name) && name != a {
                return Err(format!("flag `{name}` takes no value"));
            } else if a.starts_with("--") && !BOOL_FLAGS.contains(&name) {
                return Err(format!("unknown flag `{name}`"));
            }
        }
        let quick = args.iter().any(|a| a == "--quick");
        let mut cli = Cli { quick, jobs: 1, args };
        cli.jobs = cli.parse_jobs();
        Ok(cli)
    }

    /// The worker count from `--jobs N` / `--jobs=N` / `-j N`; `0` clamps
    /// to 1, and an absent or unparsable value falls back (with a
    /// warning for the latter) to the machine's available parallelism.
    fn parse_jobs(&self) -> usize {
        let flag = if self.value_of("--jobs").is_some() { "--jobs" } else { "-j" };
        if let Some(v) = self.value_of(flag) {
            match v.parse::<usize>() {
                Ok(n) => return n.max(1),
                Err(_) => eprintln!("warning: ignoring unparsable {flag} {v:?}; using default"),
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// The raw arguments, for bin-specific handling.
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// Whether a boolean flag is present.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The value of `--flag V` or `--flag=V`, if present.
    pub fn value_of(&self, flag: &str) -> Option<&str> {
        let mut it = self.args.iter();
        while let Some(a) = it.next() {
            if a == flag {
                return it.next().map(String::as_str);
            }
            if let Some(rest) = a.strip_prefix(flag) {
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v);
                }
            }
        }
        None
    }

    /// A `u64`-valued flag, or `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics with a usage message when the value is not a number.
    pub fn u64_or(&self, flag: &str, default: u64) -> u64 {
        match self.value_of(flag) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("{flag} expects an unsigned integer, got `{v}`")),
        }
    }

    /// A `usize`-valued flag, or `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics with a usage message when the value is not a number.
    pub fn usize_or(&self, flag: &str, default: usize) -> usize {
        self.u64_or(flag, default as u64) as usize
    }

    /// The first positional argument (not a flag, not the value of a
    /// known value-taking flag), or `default`.
    pub fn positional_or(&self, default: &str) -> String {
        let mut skip_next = false;
        for a in &self.args {
            if skip_next {
                skip_next = false;
                continue;
            }
            if VALUE_FLAGS.contains(&a.as_str()) {
                skip_next = true;
                continue;
            }
            if a.starts_with('-') {
                continue;
            }
            return a.clone();
        }
        default.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|s| s.to_string()).collect()).unwrap()
    }

    fn parallelism() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    #[test]
    fn parses_quick_and_jobs() {
        let c = cli(&["--quick", "--jobs", "3"]);
        assert!(c.quick);
        assert_eq!(c.jobs, 3);
        let c = cli(&["--jobs=2"]);
        assert!(!c.quick);
        assert_eq!(c.jobs, 2);
    }

    #[test]
    fn jobs_spellings_clamping_and_fallback() {
        assert_eq!(cli(&["--jobs", "5"]).jobs, 5);
        assert_eq!(cli(&["--jobs=3"]).jobs, 3);
        assert_eq!(cli(&["-j", "2"]).jobs, 2);
        assert_eq!(cli(&["--jobs", "0"]).jobs, 1, "0 clamps to 1");
        assert_eq!(cli(&["--quick"]).jobs, parallelism());
        assert_eq!(cli(&["--jobs", "many"]).jobs, parallelism());
        assert_eq!(cli(&["--jobs=x"]).jobs, parallelism());
    }

    #[test]
    fn value_flags_both_spellings() {
        let c = cli(&["--seed", "7", "--count=500"]);
        assert_eq!(c.value_of("--seed"), Some("7"));
        assert_eq!(c.value_of("--count"), Some("500"));
        assert_eq!(c.value_of("--detail"), None);
        assert_eq!(c.u64_or("--seed", 1), 7);
        assert_eq!(c.u64_or("--missing", 42), 42);
    }

    #[test]
    fn positionals_skip_flag_values() {
        let c = cli(&["--jobs", "4", "ai-astar"]);
        assert_eq!(c.positional_or("x"), "ai-astar");
        let c = cli(&["--quick"]);
        assert_eq!(c.positional_or("ai-astar"), "ai-astar");
        let c = cli(&["splay"]);
        assert_eq!(c.positional_or("x"), "splay");
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let parse = |args: &[&str]| Cli::from_args(args.iter().map(|s| s.to_string()).collect());
        let err = parse(&["--trace-compress", "off", "splay"]).unwrap_err();
        assert!(err.contains("`--trace-compress`"), "{err}");
        let err = parse(&["--quick", "--jbos=2"]).unwrap_err();
        assert!(err.contains("`--jbos`"), "{err}");
        let err = parse(&["--quick=1"]).unwrap_err();
        assert!(err.contains("`--quick` takes no value"), "{err}");
        // A value-taking flag's value is never mistaken for a flag, and
        // every known flag is accepted in both spellings.
        assert!(parse(&["--dump-dir", "--odd-name", "--gc", "--store=d", "-j", "1"]).is_ok());
    }

    #[test]
    #[should_panic(expected = "--seed expects an unsigned integer")]
    fn malformed_numeric_flag_panics() {
        cli(&["--seed", "zap"]).u64_or("--seed", 1);
    }
}
