//! # checkelide
//!
//! A from-scratch reproduction of *"Removing Checks in Dynamically Typed
//! Languages through Efficient Profiling"* (Dot, Martínez, González —
//! CGO 2017): a HW/SW hybrid mechanism — the **Class Cache** — that
//! profiles which object properties and elements arrays are monomorphic,
//! lets the optimizing JIT tier remove the Check Map / Check SMI /
//! Check Non-SMI operations guarding values loaded from them, and verifies
//! the speculation in hardware on every store.
//!
//! The workspace contains every substrate the paper depends on, built from
//! scratch (see `DESIGN.md`):
//!
//! * [`lang`] — front end for njs, the dynamically typed vehicle language;
//! * [`runtime`] — V8-style object model: tagged values, hidden classes,
//!   cache-line-aligned objects, elements kinds, mark-sweep GC;
//! * [`engine`] — baseline tier with inline caches and type feedback;
//! * [`opt`] — optimizing tier with feedback-directed specialization,
//!   the paper's speculative check elisions, and deoptimization;
//! * [`core`] — the Class List / Class Cache mechanism itself;
//! * [`uarch`] — a Nehalem-class timing and energy model (Table 2);
//! * [`bench`] — the benchmark suite and the per-figure harnesses.
//!
//! # Quickstart
//!
//! ```
//! use checkelide::Session;
//!
//! // Full mechanism: profile, elide checks, verify via the Class Cache.
//! let mut session = Session::full();
//! let result = session
//!     .eval(
//!         "function Point(x, y) { this.x = x; this.y = y; }
//!          function total(pts, n) {
//!              var s = 0;
//!              for (var i = 0; i < n; i++) s += pts[i].x + pts[i].y;
//!              return s;
//!          }
//!          var pts = [];
//!          for (var i = 0; i < 100; i++) pts.push(new Point(i, 2 * i));
//!          var r = 0;
//!          for (var k = 0; k < 20; k++) r = total(pts, 100);
//!          r;",
//!     )
//!     .unwrap();
//! assert_eq!(session.display(result), "undefined"); // top level returns undefined
//! assert_eq!(session.global("r").unwrap(), "14850");
//! assert!(session.vm().stats.opt_entries > 0);
//! ```

#![forbid(unsafe_code)]

pub use checkelide_bench as bench;
pub use checkelide_core as core;
pub use checkelide_engine as engine;
pub use checkelide_isa as isa;
pub use checkelide_lang as lang;
pub use checkelide_opt as opt;
pub use checkelide_runtime as runtime;
pub use checkelide_uarch as uarch;

use checkelide_engine::{EngineConfig, Mechanism, Vm, VmError};
use checkelide_isa::{CounterSink, NullSink};
use checkelide_runtime::Value;

/// A convenience wrapper bundling a configured VM with the optimizing tier
/// installed.
#[derive(Debug)]
pub struct Session {
    vm: Vm,
    /// Instruction-mix counters accumulated by [`Session::eval_counted`].
    pub counters: CounterSink,
}

impl Session {
    /// A session with the given engine configuration.
    pub fn new(config: EngineConfig) -> Session {
        let mut vm = Vm::new(config);
        checkelide_opt::install_optimizer(&mut vm);
        Session { vm, counters: CounterSink::new() }
    }

    /// Plain engine (no mechanism) — the paper's baseline.
    pub fn baseline() -> Session {
        Session::new(EngineConfig { mechanism: Mechanism::Off, ..EngineConfig::default() })
    }

    /// Software profiling only (the Figure 1–3 characterization mode).
    pub fn profiling() -> Session {
        Session::new(EngineConfig {
            mechanism: Mechanism::ProfileOnly,
            ..EngineConfig::default()
        })
    }

    /// The full Class Cache mechanism.
    pub fn full() -> Session {
        Session::new(EngineConfig { mechanism: Mechanism::Full, ..EngineConfig::default() })
    }

    /// Run a program (trace discarded).
    ///
    /// # Errors
    ///
    /// Parse or runtime errors.
    pub fn eval(&mut self, src: &str) -> Result<Value, VmError> {
        let mut sink = NullSink::new();
        self.vm.run_program(src, &mut sink)
    }

    /// Run a program while counting retired µops into
    /// [`Session::counters`].
    ///
    /// # Errors
    ///
    /// Parse or runtime errors.
    pub fn eval_counted(&mut self, src: &str) -> Result<Value, VmError> {
        let mut counters = std::mem::take(&mut self.counters);
        let r = self.vm.run_program(src, &mut counters);
        self.counters = counters;
        r
    }

    /// Call a global function with SMI arguments.
    ///
    /// # Errors
    ///
    /// Runtime errors; error when the global is missing or not callable.
    pub fn call(&mut self, name: &str, args: &[i32]) -> Result<Value, VmError> {
        let vals: Vec<Value> = args.iter().map(|&a| Value::smi(a)).collect();
        let mut sink = NullSink::new();
        self.vm.call_global(name, &vals, &mut sink)
    }

    /// Render a value for display.
    pub fn display(&self, v: Value) -> String {
        self.vm.rt.to_display_string(v)
    }

    /// Read a global, rendered for display.
    pub fn global(&self, name: &str) -> Option<String> {
        self.vm.global_value(name).map(|v| self.vm.rt.to_display_string(v))
    }

    /// The underlying VM.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// The underlying VM, mutably.
    pub fn vm_mut(&mut self) -> &mut Vm {
        &mut self.vm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_modes() {
        for mut s in [Session::baseline(), Session::profiling(), Session::full()] {
            s.eval("function f(x) { return x * 2; } var r = 0; for (var i = 0; i < 20; i++) r = f(i);")
                .unwrap();
            assert_eq!(s.global("r").unwrap(), "38");
        }
    }

    #[test]
    fn counted_eval_accumulates() {
        let mut s = Session::full();
        s.eval_counted("var x = 1 + 2;").unwrap();
        assert!(s.counters.total() > 0);
    }

    #[test]
    fn call_global_with_args() {
        let mut s = Session::full();
        s.eval("function add(a, b) { return a + b; }").unwrap();
        let v = s.call("add", &[3, 4]).unwrap();
        assert_eq!(s.display(v), "7");
    }
}
