//! The repository benchmark: two named workloads, each printing its
//! end-to-end metrics, and a traced run printing every per-layer metric.
//! See `README.md` in this directory for the workloads, the metric map,
//! and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload metro-batch --seed 1 --seconds 20 --trace 0
//! ```

mod metro;
mod serve;
mod stats;
mod tracking;

use std::process::ExitCode;
use std::time::Instant;

use rand::Rng;
use rl_math::rng::seeded;

use stats::Report;

/// The workloads, by name.
pub const WORKLOADS: [&str; 2] = ["metro-batch", "serve-mixed"];

/// How many times `serve-mixed` sets up (`setup_s` is the fastest), and
/// the traced run builds its instance and traces (medians).
pub const SETUP_REPEATS: usize = 5;

/// The end-to-end metrics every untraced run reports in its result line,
/// in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 3] = ["setup_s", "op_latency_ms", "error_m"];

/// The per-layer metrics every traced run reports in its result line, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 43] = [
    "deploy.instantiate_s",
    "deploy.trace_s",
    "distributed.local_s",
    "distributed.local_maps_built",
    "sim.exchange_s",
    "sim.exchange_deliveries",
    "refine.stitch_s",
    "refine.stitch_gn_iters",
    "refine.stitch_cg_iters",
    "distributed.other_s",
    "lss.seed_s",
    "lss.descent_s",
    "lss.iterations",
    "mds.completion_s",
    "mds.eigen_s",
    "mds.eigen_iters",
    "sim.flood_s",
    "sim.flood_deliveries",
    "sim.flood_events",
    "dvhop.other_s",
    "tracking.warm_tick_ms",
    "tracking.cold_tick_ms",
    "tracking.warm_ticks",
    "tracking.cold_ticks",
    "tracking.active_nodes",
    "refine.warm_cg_iters",
    "protocol.decode_ms.push",
    "protocol.decode_ms.localize",
    "protocol.encode_ms.push",
    "protocol.encode_ms.read",
    "protocol.encode_ms.localize",
    "protocol.bytes.push",
    "protocol.bytes.read",
    "tracking.tick_ms",
    "server.solve_ms",
    "server.wait_p50_ms.tick",
    "server.wait_p99_ms.tick",
    "session.read_ms",
    "cache.hit_ratio",
    "server.solves",
    "server.coalesced",
    "server.overloaded",
    "server.errors",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: picks instance, trace and schedule seeds.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut seen_seed = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().map_err(|e| bad(&e))?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !seen_seed {
        return Err("--seed is required".into());
    }
    if args.seconds == 0.0 {
        return Err("--seconds is required".into());
    }
    Ok(args)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `count` seeds drawn from a stream salted off the workload seed.
pub fn derived_seeds(seed: u64, salt: u64, count: usize) -> Vec<u64> {
    let mut rng = seeded(seed ^ salt);
    (0..count).map(|_| rng.random::<u64>()).collect()
}

/// The commit of the checkout, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split_whitespace().next())
                    .map(String::from)
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".into(),
        hash => hash.into(),
    }
}

/// The machine facts stored with every result.
fn machine_facts(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "machine nproc={nproc} distributed_workers={} server_workers={} client_threads=2 \
         commit={} workload={} seed={} seconds={} trace={}",
        rl_net::pool::resolve_workers(0, usize::MAX),
        serve::SERVER_WORKERS,
        commit(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// The traced run: every layer's metrics, whichever workload is named;
/// the named workload decides nothing but the printed header. Besides
/// the two workloads' layers it replays the tracking stream in process,
/// the no-wire twin of `serve-mixed`'s stream.
fn traced(args: &Args) -> Report {
    let mut report = metro::trace(args);
    report.absorb(tracking::trace(args));
    report.absorb(serve::trace(args));
    report
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <{}> --seed <n> --seconds <s> [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        match args.workload.as_str() {
            "metro-batch" => metro::run(&args),
            _ => serve::run(&args),
        }
    };
    let keys: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", machine_facts(&args));
    println!("{}", report.lines());
    match report.json(keys) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse("--workload serve-mixed --seed 42 --seconds 20 --trace 1").unwrap();
        assert_eq!(args.workload, "serve-mixed");
        assert_eq!((args.seed, args.seconds, args.trace), (42, 20.0, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload metro-batch --seconds 20").is_err());
        assert!(parse("--workload metro-batch --seed 1").is_err());
        assert!(parse("--workload metro-batch --seed 1 --seconds 20 --trace 2").is_err());
        assert!(parse("--workload metro-batch --seed 1 --seconds").is_err());
    }

    /// The `name` of every entry of one `BENCHMARK.json` list.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let root: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |object: &serde::Value, name: &str| -> serde::Value {
            let entries = object.as_map().expect("an object");
            let (_, value) = entries
                .iter()
                .find(|(k, _)| k.as_str() == Some(name))
                .unwrap_or_else(|| panic!("no `{name}` field"));
            value.clone()
        };
        let list = field(&root, key);
        let entries = list.as_seq().expect("a list");
        entries
            .iter()
            .map(|entry| field(entry, "name").as_str().expect("a name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_runs_report() {
        assert_eq!(listed("workloads"), WORKLOADS);
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), PER_LAYER);
    }

    #[test]
    fn every_listed_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for name in &all {
            assert!(stats::valid_name(name), "{name}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len());
    }
}
