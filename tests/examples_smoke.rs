//! Smoke tests running each `examples/` binary end to end via
//! `cargo run --example`, asserting the run exits cleanly and prints
//! non-empty, finite output (no NaN/inf leaking into the reports).

use std::process::Command;

/// Runs one example through the same cargo that is driving this test and
/// applies the shared output sanity checks.
fn run_example(name: &str) {
    let output = Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--example", name])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));

    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "example {name} exited with {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        output.status.code()
    );
    assert!(
        stdout.trim().len() > 40,
        "example {name} printed almost nothing:\n{stdout}"
    );
    assert!(
        stdout.chars().any(|c| c.is_ascii_digit()),
        "example {name} printed no numbers:\n{stdout}"
    );
    for marker in ["NaN", "inf m", "-inf"] {
        assert!(
            !stdout.contains(marker),
            "example {name} printed a non-finite value ({marker}):\n{stdout}"
        );
    }
}

#[test]
fn quickstart_runs_and_prints_finite_output() {
    run_example("quickstart");
}

#[test]
fn acoustic_ranging_runs_and_prints_finite_output() {
    run_example("acoustic_ranging");
}

#[test]
fn grassy_field_runs_and_prints_finite_output() {
    run_example("grassy_field");
}

#[test]
fn city_blocks_runs_and_prints_finite_output() {
    run_example("city_blocks");
}

#[test]
fn compare_solvers_runs_and_prints_finite_output() {
    run_example("compare_solvers");
}

#[test]
fn serve_client_runs_and_prints_finite_output() {
    run_example("serve_client");
}

#[test]
fn tracking_runs_and_prints_finite_output() {
    run_example("tracking");
}
