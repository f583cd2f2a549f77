//! Release-mode smoke suites and their gates; run by CI.
//!
//! ```text
//! cargo run --release -p rl-bench --bin smoke [--list | suite…]
//! ```
//!
//! With no argument every suite runs, in the order below. Each suite
//! records `(name, value, op, budget, ok)` gates through [`rl_bench::gate`];
//! the harness times each suite against its wall budget, keeps going
//! after a failure, prints every failed gate at the end, writes one
//! `BENCH_smoke.json`, and exits non-zero if any gate failed.
//!
//! | suite | gates |
//! |---|---|
//! | `campaign` | three campaign schedules bit-identical (prints the serial-vs-parallel speedup) |
//! | `sparse` | drifted metro-1000 refinement ≤ 471 CG iterations and final stress within 1% of the zero-start path's (budgets read once on that path), metro-2500 MDS ≤ 120 s in ≤ 18 eigensolve block steps, refinement ≤ 60 s, and distributed LSS ≤ 2 m within 3.7× the MDS-MAP wall, `cg_iterations` reaches `SolveStats` |
//! | `ranging` | per-call time of XSM filtering (≤ 36 µs) and tone detection (≤ 115 µs) on the Figure-10 waveform, a 12 m grass reception (≤ 290 µs, detected) with `record_signal` (≤ 4.2 µs) and `detect_signal` (≤ 5.7 µs) on its buffer, a 3×3 grass campaign (≤ 112 ms) with median filter (≤ 58 µs) and bidirectional merge (≤ 13 µs), minimization transform (≤ 1.38 ms); the deploy layer, best of 15 calls: metro-1000 `Scenario::instantiate` (≤ 4 ms, ≤ 0.7× an all-pairs `hypot` walk of its layout) and a 100-tick `metro-250-mobile` trace (≤ 18 ms, and ≤ 1.15× its ticks measured one after another on two or more cores) |
//! | `serve` | cached town queries ≥ 200 req/s at p99 ≤ 250 ms, every load request a cache hit |
//! | `sessions` | warm wire ticks p99 ≤ 20 ms, stream ticks drain before a floored batch backlog with no lost tick and correct batch replies; beside two connections looping on fresh metro-1000 distributed-LSS solves, 200 metro-250 ticks at warm p99 ≤ 100 ms with no failed push and every fingerprint equal to a direct tracker replay |
//!
//! The six-family metro panel (no failed cell, distributed LSS ≤ 2 m at
//! metro-250 and metro-1000; at metro-1000 sparse LSS ≤ 4.6×,
//! distributed LSS ≤ 7× and DV-hop ≤ 2.1× the MDS-MAP wall, and the
//! solvers' work counts), the degradation ladder (pooled = serial,
//! Cauchy LSS ≤ 2 m where squared loss collapses) and tracking (warm
//! ticks ≥ 3× faster than cold at ≤ 1.25× the error, replay identical at
//! 1 and 2 workers) are gated where their campaigns already run: the
//! METRO, DEGRADATION and TRACKING experiments of the `figures` binary.

mod campaigns;
mod kernels;
mod ranging;
mod serve;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rl_bench::gate::{self, Spec};

/// The suites in run order.
fn suites() -> Vec<Spec> {
    vec![
        Spec::new(
            "campaign",
            "campaign schedules bit-identical",
            campaigns::campaign,
        ),
        Spec::new(
            "sparse",
            "CG refinement budgets, metro-2500 kernels",
            kernels::sparse,
        ),
        Spec::new(
            "ranging",
            "signal and ranging kernels per call",
            ranging::ranging,
        ),
        Spec::new("serve", "cached serving throughput and p99", serve::serve),
        Spec::new(
            "sessions",
            "streaming-session latency, fairness, isolation",
            serve::sessions,
        ),
    ]
}

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
    gate::main(suites(), "BENCH_smoke.json")
}
