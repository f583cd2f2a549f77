//! Release-mode smoke suites and their gates; run by CI.
//!
//! ```text
//! cargo run --release -p rl-bench --bin smoke [suite…]
//! ```
//!
//! With no argument every suite runs, in the order below. Each suite
//! records `(name, value, budget, ok)` gates through [`rl_bench::gate`];
//! the harness times each suite against its wall budget, keeps going
//! after a failure, prints every failed gate at the end, writes one
//! `BENCH_smoke.json`, and exits non-zero if any gate failed.
//!
//! | suite | gates |
//! |---|---|
//! | `campaign` | three campaign schedules bit-identical (prints the serial-vs-parallel speedup) |
//! | `metro` | six families on metro-250 + metro-1000: no failed cell, distributed LSS ≤ 2 m; at metro-1000, sparse LSS ≤ 4.6×, distributed LSS ≤ 7× and DV-hop ≤ 4.1× the MDS-MAP wall; 300 s wall |
//! | `resilience` | degradation ladder pooled = serial, Cauchy LSS ≤ 2 m where squared loss collapses, 300 s wall |
//! | `sparse` | drifted metro-1000 refinement ≤ 471 CG iterations and final stress within 1% of the zero-start path's (budgets read once on that path), metro-2500 MDS ≤ 120 s in ≤ 18 eigensolve block steps, refinement ≤ 60 s, and distributed LSS ≤ 2 m within 3.7× the MDS-MAP wall, `cg_iterations` reaches `SolveStats` |
//! | `ranging` | per-call time of XSM filtering (≤ 36 µs) and tone detection (≤ 115 µs) on the Figure-10 waveform, a 12 m grass reception (≤ 290 µs, detected) with `record_signal` (≤ 4.2 µs) and `detect_signal` (≤ 5.7 µs) on its buffer, a 3×3 grass campaign (≤ 112 ms) with median filter (≤ 58 µs) and bidirectional merge (≤ 13 µs), minimization transform (≤ 1.38 ms); the deploy layer, best of 15 calls: metro-1000 `Scenario::instantiate` (≤ 4 ms, ≤ 0.7× an all-pairs `hypot` walk of its layout) and a 100-tick `metro-250-mobile` trace (≤ 18 ms, and ≤ 1.15× its ticks measured one after another on two or more cores) |
//! | `tracking` | warm ticks ≥ 3× faster than cold at ≤ 1.25× the error, replay identical at 1 and 2 workers, 300 s wall |
//! | `serve` | cached town queries ≥ 200 req/s at p99 ≤ 250 ms, every load request a cache hit |
//! | `sessions` | warm wire ticks p99 ≤ 20 ms, stream ticks drain before a floored batch backlog with no lost tick and correct batch replies; beside two connections looping on fresh metro-1000 distributed-LSS solves, 200 metro-250 ticks at warm p99 ≤ 100 ms with no failed push and every fingerprint equal to a direct tracker replay |

mod campaigns;
mod kernels;
mod ranging;
mod serve;
mod tracking;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rl_bench::gate::{self, Spec};

/// The suites in run order.
const SUITES: [Spec; 8] = [
    Spec {
        name: "campaign",
        wall_budget: None,
        run: campaigns::campaign,
    },
    Spec {
        name: "metro",
        wall_budget: Some(Duration::from_secs(300)),
        run: campaigns::metro,
    },
    Spec {
        name: "resilience",
        wall_budget: Some(Duration::from_secs(300)),
        run: campaigns::resilience,
    },
    Spec {
        name: "sparse",
        wall_budget: None,
        run: kernels::sparse,
    },
    Spec {
        name: "ranging",
        wall_budget: None,
        run: ranging::ranging,
    },
    Spec {
        name: "tracking",
        wall_budget: Some(Duration::from_secs(300)),
        run: tracking::tracking,
    },
    Spec {
        name: "serve",
        wall_budget: None,
        run: serve::serve,
    },
    Spec {
        name: "sessions",
        wall_budget: None,
        run: serve::sessions,
    },
];

const RECORD: &str = "BENCH_smoke.json";

/// Milliseconds, the unit of every wall and latency gate.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds, the unit of the per-call kernel gates.
fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// How long [`mean_call`] loops a kernel at least.
const MIN_LOOP: Duration = Duration::from_millis(10);

/// Mean wall time of one call to `op`, called until [`MIN_LOOP`] has
/// passed so that timer resolution washes out of microsecond kernels.
fn mean_call(mut op: impl FnMut()) -> Duration {
    let start = Instant::now();
    let mut calls = 0;
    loop {
        op();
        calls += 1;
        let elapsed = start.elapsed();
        if elapsed >= MIN_LOOP {
            return elapsed / calls;
        }
    }
}

fn main() -> ExitCode {
    let mut specs = Vec::new();
    for arg in std::env::args().skip(1) {
        match SUITES.iter().find(|s| s.name == arg) {
            Some(spec) => specs.push(*spec),
            None => {
                let names: Vec<_> = SUITES.iter().map(|s| s.name).collect();
                eprintln!(
                    "unknown suite `{arg}`; expected any of: {}",
                    names.join(" ")
                );
                return ExitCode::from(2);
            }
        }
    }
    if specs.is_empty() {
        specs = SUITES.to_vec();
    }

    let record = gate::run(&specs);
    for suite in &record.suites {
        println!("{:10} {:>10.1} ms", suite.name, suite.wall_ms);
    }
    let mut passed = record.passed();
    for (suite, g) in record.failures() {
        eprintln!(
            "FAILED {suite}/{}: {} (budget {})",
            g.name, g.value, g.budget
        );
    }
    match record.write(RECORD) {
        Ok(()) => println!("wrote {RECORD}"),
        Err(e) => {
            eprintln!("FAILED to write {RECORD}: {e}");
            passed = false;
        }
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
