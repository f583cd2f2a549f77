//! The release gate harness behind the `smoke` binary.
//!
//! A suite is a function that runs one scenario and records gates —
//! `(name, value, budget, ok)` — on a [`Suite`]. [`run`] times every
//! suite against its optional wall budget, keeps going after a suite
//! fails (or panics), and returns a [`SmokeRecord`]: the versioned
//! document the binary writes to `BENCH_smoke.json`, whose
//! [`SmokeRecord::passed`] is the run's verdict.
//!
//! ```
//! use rl_bench::gate::{run, Spec, Suite};
//!
//! fn arithmetic(suite: &mut Suite) {
//!     suite.at_most("two-plus-two", 2.0 + 2.0, 4.0);
//! }
//!
//! let record = run(&[Spec { name: "arithmetic", wall_budget: None, run: arithmetic }]);
//! assert!(record.passed());
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use serde::Serialize;

/// Schema tag of [`SmokeRecord`]; bump it when the layout changes.
pub const SCHEMA: &str = "rl-bench/smoke/1";

/// One checked measurement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Gate {
    /// What was measured.
    pub name: String,
    /// The measured value (`NaN` when the measurement is missing).
    pub value: f64,
    /// The bound the value was checked against.
    pub budget: f64,
    /// Whether the gate held.
    pub ok: bool,
}

/// One suite's gates plus its wall time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Suite {
    /// The suite's name on the command line.
    pub name: String,
    /// Wall time of the whole suite.
    pub wall_ms: f64,
    /// Every gate the suite recorded, in order.
    pub gates: Vec<Gate>,
}

impl Suite {
    /// Records a gate whose verdict the caller computed, prints it, and
    /// returns `ok`.
    pub fn gate(&mut self, name: &str, value: f64, budget: f64, ok: bool) -> bool {
        self.record(name, value, "budget", budget, ok)
    }

    /// Gates `value <= budget`; a `NaN` value fails.
    pub fn at_most(&mut self, name: &str, value: f64, budget: f64) -> bool {
        self.record(name, value, "<=", budget, value <= budget)
    }

    /// Gates `value >= floor`; a `NaN` value fails.
    pub fn at_least(&mut self, name: &str, value: f64, floor: f64) -> bool {
        self.record(name, value, ">=", floor, value >= floor)
    }

    /// Gates a property that holds or not, recorded as value `1` (held)
    /// or `0` against budget `1`.
    pub fn check(&mut self, name: &str, ok: bool) -> bool {
        self.record(name, f64::from(u8::from(ok)), "==", 1.0, ok)
    }

    /// Whether every gate recorded so far held.
    pub fn passed(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }

    fn record(&mut self, name: &str, value: f64, op: &str, budget: f64, ok: bool) -> bool {
        let verdict = if ok { "ok  " } else { "FAIL" };
        println!(
            "  {verdict} {}/{name}: {} ({op} {})",
            self.name,
            number(value),
            number(budget)
        );
        self.gates.push(Gate {
            name: name.to_string(),
            value,
            budget,
            ok,
        });
        ok
    }
}

/// A named suite and the wall budget the harness times it against.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The suite's name on the command line and in the record.
    pub name: &'static str,
    /// Budget for the whole suite's wall time, if it has one.
    pub wall_budget: Option<Duration>,
    /// Runs the suite, recording its gates.
    pub run: fn(&mut Suite),
}

/// The whole run: what `BENCH_smoke.json` holds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SmokeRecord {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// The master seed every suite derives its inputs from.
    pub seed: u64,
    /// One entry per suite run, in order.
    pub suites: Vec<Suite>,
}

impl SmokeRecord {
    /// Whether every gate of every suite held.
    pub fn passed(&self) -> bool {
        self.suites.iter().all(Suite::passed)
    }

    /// Every failed gate, with the name of its suite.
    pub fn failures(&self) -> impl Iterator<Item = (&str, &Gate)> {
        self.suites
            .iter()
            .flat_map(|s| s.gates.iter().map(move |g| (s.name.as_str(), g)))
            .filter(|(_, g)| !g.ok)
    }

    /// Writes the record as JSON (non-finite values become `null`).
    ///
    /// # Errors
    ///
    /// Any I/O error from writing `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }
}

/// Runs `specs` in order and collects their gates. A suite that panics
/// fails a `completed` gate; a suite over its wall budget fails a
/// `wall-ms` gate. Either way the later suites still run.
pub fn run(specs: &[Spec]) -> SmokeRecord {
    let suites = specs
        .iter()
        .map(|spec| {
            println!("== {}", spec.name);
            let mut suite = Suite {
                name: spec.name.to_string(),
                wall_ms: 0.0,
                gates: Vec::new(),
            };
            let started = Instant::now();
            let completed = catch_unwind(AssertUnwindSafe(|| (spec.run)(&mut suite))).is_ok();
            suite.wall_ms = started.elapsed().as_secs_f64() * 1e3;
            if !completed {
                suite.check("completed", false);
            }
            if let Some(budget) = spec.wall_budget {
                suite.at_most("wall-ms", suite.wall_ms, budget.as_secs_f64() * 1e3);
            }
            suite
        })
        .collect();
    SmokeRecord {
        schema: SCHEMA.to_string(),
        seed: crate::MASTER_SEED,
        suites,
    }
}

/// Fixed-point for everyday magnitudes, scientific otherwise.
fn number(x: f64) -> String {
    if x == 0.0 || (1e-3..1e7).contains(&x.abs()) {
        format!("{x:.3}")
    } else {
        format!("{x:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passing(suite: &mut Suite) {
        suite.at_least("floor", 3.0, 2.0);
        suite.check("property", true);
    }

    fn failing(suite: &mut Suite) {
        suite.at_most("error-m", 2.5, 2.0);
        suite.at_most("missing", f64::NAN, 2.0);
    }

    fn panicking(_: &mut Suite) {
        panic!("suite aborted");
    }

    fn spec(name: &'static str, run: fn(&mut Suite)) -> Spec {
        Spec {
            name,
            wall_budget: None,
            run,
        }
    }

    #[test]
    fn failing_gates_keep_value_and_budget_and_fail_the_run() {
        let record = run(&[spec("failing", failing)]);
        assert!(!record.passed());
        let failures: Vec<_> = record.failures().collect();
        assert_eq!(failures.len(), 2);
        let (suite, gate) = failures[0];
        assert_eq!(suite, "failing");
        assert_eq!(
            (gate.name.as_str(), gate.value, gate.budget),
            ("error-m", 2.5, 2.0)
        );
        assert!(failures[1].1.value.is_nan());
    }

    #[test]
    fn suites_after_a_failure_or_panic_still_run() {
        let record = run(&[
            spec("failing", failing),
            spec("panicking", panicking),
            spec("passing", passing),
        ]);
        let names: Vec<_> = record.suites.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["failing", "panicking", "passing"]);
        assert_eq!(record.suites[1].gates[0].name, "completed");
        assert!(!record.suites[1].passed());
        assert!(record.suites[2].passed());
        assert_eq!(record.suites[2].gates.len(), 2);
    }

    #[test]
    fn wall_budgets_are_gated_by_the_harness() {
        let over = Spec {
            wall_budget: Some(Duration::ZERO),
            ..spec("slow", |_| std::thread::sleep(Duration::from_millis(2)))
        };
        let record = run(&[over, spec("passing", passing)]);
        let gate = &record.suites[0].gates[0];
        assert_eq!(
            (gate.name.as_str(), gate.budget, gate.ok),
            ("wall-ms", 0.0, false)
        );
        assert!(gate.value >= 2.0);
        assert!(!record.passed());
    }

    #[test]
    fn the_written_record_parses_back_with_its_schema() {
        let record = run(&[spec("passing", passing), spec("failing", failing)]);
        let path = std::env::temp_dir().join(format!("BENCH_smoke-{}.json", std::process::id()));
        record.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let value: serde::Value = serde_json::from_str(&text).unwrap();
        let field = |key: &str| {
            value
                .as_map()
                .unwrap()
                .iter()
                .find(|(k, _)| k.as_str() == Some(key))
                .map(|(_, v)| v.clone())
        };
        assert_eq!(field("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(field("suites").unwrap().as_seq().unwrap().len(), 2);
    }
}
