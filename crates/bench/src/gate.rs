//! The gate harness behind the `smoke` and `figures` binaries.
//!
//! A suite is a closure that runs one scenario and records [`Gate`]s —
//! `(name, value, op, budget, ok)` — on a [`Suite`]. [`run`] times every
//! suite against its optional wall budget, keeps going after a suite
//! fails (or panics), and returns a [`Record`]: the versioned document a
//! binary writes to its `BENCH_*.json`, whose [`Record::passed`] is the
//! run's verdict. [`main`] is the whole command line of both binaries.
//!
//! ```
//! use rl_bench::gate::{run, Spec, Suite};
//!
//! let arithmetic = Spec::new("arithmetic", "2 + 2", |suite: &mut Suite| {
//!     suite.at_most("two-plus-two", 2.0 + 2.0, 4.0);
//! });
//! assert!(run(&[arithmetic]).passed());
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Serialize;

/// Schema tag of [`Record`]; bump it when the layout changes.
pub const SCHEMA: &str = "rl-bench/gates/2";

/// One checked measurement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Gate {
    /// What was measured.
    pub name: String,
    /// The measured value (`NaN` when the measurement is missing).
    pub value: f64,
    /// How the value was checked: `<=`, `>=`, `==` (a property, value
    /// `1` when it held) or `budget` (a verdict the caller computed).
    pub op: &'static str,
    /// The bound the value was checked against.
    pub budget: f64,
    /// Whether the gate held.
    pub ok: bool,
}

impl Gate {
    /// A gate whose verdict the caller computed.
    pub fn new(name: impl Into<String>, value: f64, budget: f64, ok: bool) -> Gate {
        Gate::judged(name, value, "budget", budget, ok)
    }

    /// Gates `value <= budget`; a `NaN` value fails.
    pub fn at_most(name: impl Into<String>, value: f64, budget: f64) -> Gate {
        Gate::judged(name, value, "<=", budget, value <= budget)
    }

    /// Gates `value >= floor`; a `NaN` value fails.
    pub fn at_least(name: impl Into<String>, value: f64, floor: f64) -> Gate {
        Gate::judged(name, value, ">=", floor, value >= floor)
    }

    /// Gates a property that holds or not, recorded as value `1` (held)
    /// or `0` against budget `1`.
    pub fn check(name: impl Into<String>, ok: bool) -> Gate {
        Gate::judged(name, f64::from(u8::from(ok)), "==", 1.0, ok)
    }

    fn judged(
        name: impl Into<String>,
        value: f64,
        op: &'static str,
        budget: f64,
        ok: bool,
    ) -> Gate {
        Gate {
            name: name.into(),
            value,
            op,
            budget,
            ok,
        }
    }
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
    /// Records `gate`, prints it, and returns whether it held.
    pub fn push(&mut self, gate: Gate) -> bool {
        let verdict = if gate.ok { "ok  " } else { "FAIL" };
        println!(
            "  {verdict} {}/{}: {} ({} {})",
            self.name,
            gate.name,
            number(gate.value),
            gate.op,
            number(gate.budget)
        );
        let ok = gate.ok;
        self.gates.push(gate);
        ok
    }

    /// Records a [`Gate::at_most`].
    pub fn at_most(&mut self, name: &str, value: f64, budget: f64) -> bool {
        self.push(Gate::at_most(name, value, budget))
    }

    /// Records a [`Gate::at_least`].
    pub fn at_least(&mut self, name: &str, value: f64, floor: f64) -> bool {
        self.push(Gate::at_least(name, value, floor))
    }

    /// Records a [`Gate::check`].
    pub fn check(&mut self, name: &str, ok: bool) -> bool {
        self.push(Gate::check(name, ok))
    }

    /// Whether every gate recorded so far held.
    pub fn passed(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }
}

/// A named suite and the wall budget the harness times it against.
pub struct Spec {
    /// The suite's name on the command line and in the record.
    pub name: &'static str,
    /// One line on what the suite runs, for `--list`.
    pub about: &'static str,
    /// Budget for the whole suite's wall time, if it has one.
    pub wall_budget: Option<Duration>,
    /// Runs the suite, recording its gates.
    pub run: Box<dyn Fn(&mut Suite)>,
}

impl Spec {
    /// A suite without a wall budget.
    pub fn new(
        name: &'static str,
        about: &'static str,
        run: impl Fn(&mut Suite) + 'static,
    ) -> Self {
        Spec {
            name,
            about,
            wall_budget: None,
            run: Box::new(run),
        }
    }
}

/// The whole run: what a binary's `BENCH_*.json` holds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Record {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// The master seed every suite derives its inputs from.
    pub seed: u64,
    /// One entry per suite run, in order.
    pub suites: Vec<Suite>,
}

impl Record {
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
pub fn run(specs: &[Spec]) -> Record {
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
    Record {
        schema: SCHEMA.to_string(),
        seed: crate::MASTER_SEED,
        suites,
    }
}

/// The suites `args` names, matched case-insensitively and kept in
/// `specs` order; every suite when `args` is empty.
///
/// # Errors
///
/// The first argument that names no suite.
fn select(specs: Vec<Spec>, args: &[String]) -> Result<Vec<Spec>, String> {
    if let Some(unknown) = args
        .iter()
        .find(|a| !specs.iter().any(|s| s.name.eq_ignore_ascii_case(a)))
    {
        return Err(unknown.clone());
    }
    Ok(specs
        .into_iter()
        .filter(|s| args.is_empty() || args.iter().any(|a| s.name.eq_ignore_ascii_case(a)))
        .collect())
}

/// A gate binary's whole command line: `[--list | suite…]`.
///
/// `--list` prints every suite with its one-line description. Otherwise
/// the named suites (all of them when none is named) run through
/// [`run`], each suite's wall time and every failed gate print, and the
/// record is written to `record`. The exit code is `0` when every gate
/// held and the record was written, `1` otherwise, and `2` for an
/// argument that names no suite.
pub fn main(specs: Vec<Spec>, record: &str) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for spec in &specs {
            println!("{:14} {}", spec.name, spec.about);
        }
        return ExitCode::SUCCESS;
    }
    let specs = match select(specs, &args) {
        Ok(specs) => specs,
        Err(unknown) => {
            eprintln!("unknown suite `{unknown}`; try --list");
            return ExitCode::from(2);
        }
    };
    let result = run(&specs);
    for suite in &result.suites {
        println!("{:14} {:>10.1} ms", suite.name, suite.wall_ms);
    }
    let mut passed = result.passed();
    for (suite, g) in result.failures() {
        eprintln!(
            "FAILED {suite}/{}: {} ({} {})",
            g.name,
            number(g.value),
            g.op,
            number(g.budget)
        );
    }
    match result.write(record) {
        Ok(()) => println!("wrote {record}"),
        Err(e) => {
            eprintln!("FAILED to write {record}: {e}");
            passed = false;
        }
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
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
        Spec::new(name, "", run)
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
            (gate.name.as_str(), gate.value, gate.op, gate.budget),
            ("error-m", 2.5, "<=", 2.0)
        );
        assert!(failures[1].1.value.is_nan());
        assert!(!Gate::at_least("missing", f64::NAN, 0.0).ok);
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
        let mut over = Spec::new("slow", "", |_: &mut Suite| {
            std::thread::sleep(Duration::from_millis(2))
        });
        over.wall_budget = Some(Duration::ZERO);
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
    fn selection_ignores_case_keeps_spec_order_and_rejects_unknown_names() {
        let specs = || vec![spec("F18", passing), spec("metro", passing)];
        let names = |args: &[&str]| -> Result<Vec<&str>, String> {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            select(specs(), &args).map(|s| s.iter().map(|s| s.name).collect())
        };
        assert_eq!(names(&[]).unwrap(), ["F18", "metro"]);
        assert_eq!(names(&["METRO", "f18"]).unwrap(), ["F18", "metro"]);
        assert_eq!(names(&["metro", "nope"]).unwrap_err(), "nope");
    }

    #[test]
    fn the_written_record_parses_back_with_its_schema() {
        let record = run(&[spec("passing", passing), spec("failing", failing)]);
        let path = std::env::temp_dir().join(format!("BENCH_gates-{}.json", std::process::id()));
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
