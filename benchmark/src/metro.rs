//! `metro-batch`: the paper's batch use at metro scale.
//!
//! One solve at a time, closed loop. Each instance seed instantiates the
//! pinned `metro-1000` preset, and every instance is solved by distributed
//! LSS, centralized LSS, MDS-MAP and DV-hop in turn, with the solver
//! configurations of the server registry ([`make_solver`]). Each solve's
//! RNG is seeded with its instance seed, as the server seeds it.
//!
//! The traced pass re-runs each family's phases through their public
//! entry points on one instance and reports the remainder of the full
//! solve as `*.other_s`, so the phases account for the untraced solve.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::Rng;
use rl_core::baselines::dv_hop;
use rl_core::distributed::{refine_aligned, run_distributed, DistributedConfig, LocalMap};
use rl_core::mds::mdsmap_coordinates;
use rl_core::problem::{Problem, Solution};
use rl_core::tracking::solution_fingerprint;
use rl_core::types::Anchor;
use rl_deploy::presets;
use rl_math::rng::seeded;
use rl_math::sparse::{dijkstra_multi_into, CsrMatrix};
use rl_net::flood::FloodNode;
use rl_net::{pool, NodeId, RadioModel, Simulator};
use rl_serve::server::make_solver;

use crate::stats::{geomean, median, minimum, Report};
use crate::{derived_seeds, secs, Args, SETUP_REPEATS};

/// The deployment preset every instance instantiates.
pub const PRESET: &str = "metro-1000";

/// The solver families, in the order each instance is solved.
pub const FAMILIES: [&str; 4] = ["distributed-lss", "lss", "mds-map", "dv-hop"];

/// Instances built and solved per run. The seed alone fixes them, so
/// every run's medians and errors span the same three instances, however
/// fast the machine.
pub const INSTANCES: usize = 3;

/// Passes every run makes over all instances and families, however slow
/// the machine. Each (instance, family) solve is timed by its fastest
/// pass: the shared host switches between a fast speed and one 20-40%
/// slower, often within seconds, and the first solve of a process runs
/// cold.
pub const MIN_PASSES: usize = 2;

/// The per-node RNG stream salt of the distributed local-solve phase
/// (`LOCAL_STREAM` in `rl_core::distributed`). The traced local phase
/// draws the same streams, so it builds the same maps as the solve; the
/// trace checks that the map counts agree.
const LOCAL_STREAM: u64 = 0xA076_1D64_78BD_642F;

/// The radio range DV-hop's floods run on (the server registry's 22 m).
const RANGE_M: f64 = 22.0;

/// The distributed-LSS split the ROADMAP recorded with temporary probes
/// at workload seed 20050614 on a 2-core box: local, exchange and refine
/// milliseconds, and simulator deliveries.
const ROADMAP_SPLIT: (f64, f64, f64, usize) = (813.0, 772.0, 27.0, 792_000);

/// The workload seed the ROADMAP probe ran at.
pub const ROADMAP_SEED: u64 = 20050614;

/// One instance: its seed and solver-ready problem.
pub struct Instance {
    /// Instantiation seed, also the seed of every solve's RNG.
    pub seed: u64,
    /// The instantiated problem.
    pub problem: Problem,
}

/// The instance seeds of a workload seed: the workload seed itself, then
/// derived ones.
pub fn instance_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut seeds = vec![seed];
    seeds.extend(derived_seeds(
        seed,
        0x6D65_7472_6F00,
        count.saturating_sub(1),
    ));
    seeds
}

/// Builds the preset and instantiates one problem per seed.
pub fn instantiate(preset: &str, seeds: &[u64]) -> Vec<Instance> {
    let scenario = presets::preset(preset).expect("the benchmark names a registered preset");
    seeds
        .iter()
        .map(|&seed| Instance {
            seed,
            problem: scenario.instantiate(seed),
        })
        .collect()
}

/// Solves `problem` with a registry family; returns the wall seconds of
/// `localize` alone and the solution.
pub fn solve(problem: &Problem, family: &str, seed: u64) -> Result<(f64, Solution), String> {
    let solver = make_solver(family).ok_or_else(|| format!("unknown solver `{family}`"))?;
    let mut rng = seeded(seed);
    let start = Instant::now();
    let solution = solver
        .localize(problem, &mut rng)
        .map_err(|e| format!("{family} failed: {e}"))?;
    Ok((secs(start), solution))
}

/// Checks a solution: at least one estimate, every estimate finite, and
/// evaluable against the truth. Returns its fingerprint and mean error.
pub fn check(problem: &Problem, solution: &Solution) -> Result<(u64, f64), String> {
    let positions = solution.positions();
    if positions.localized_count() == 0 {
        return Err("no node was localized".into());
    }
    if let Some((id, _)) = positions
        .iter()
        .find(|(_, p)| p.is_some_and(|p| !p.x.is_finite() || !p.y.is_finite()))
    {
        return Err(format!("node {} has a non-finite estimate", id.index()));
    }
    let eval = problem
        .evaluate(solution)
        .map_err(|e| format!("unevaluable solution: {e}"))?;
    Ok((solution_fingerprint(solution), eval.mean_error))
}

/// Solves and checks one (instance, family) pair.
fn solve_checked(instance: &Instance, family: &str) -> Result<(f64, u64, f64), String> {
    let (wall, solution) = solve(&instance.problem, family, instance.seed)?;
    let (fingerprint, error) =
        check(&instance.problem, &solution).map_err(|e| format!("{family}: {e}"))?;
    Ok((wall, fingerprint, error))
}

/// The untraced workload: closed-loop passes, each solving every
/// instance with every family, until `args.seconds` have passed and at
/// least [`MIN_PASSES`] were made. Every pass solves the same instances,
/// so the seed alone fixes what each metric spans; errors come from the
/// first pass, and every later solve's fingerprint must match it.
///
/// Set-up builds the instances once before the first pass and, timed
/// again, after every solve; `setup_s` is the fastest. One set-up takes
/// a tenth of a second, so each runs at one of the host's two speeds:
/// over ten runs on the 2-vCPU dev VM the median of a run's set-ups
/// jumped between them (16% spread), while the fastest moved 5%.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new();
    let seeds = instance_seeds(args.seed, INSTANCES);
    let mut setup = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let instances = instantiate(PRESET, &seeds);
        setup.push(secs(start));
        instances
    };
    let instances = set_up();

    // walls[f][k]: family f's solve times on instance k, one per pass.
    let mut walls = vec![vec![Vec::new(); INSTANCES]; FAMILIES.len()];
    let mut errors: [Vec<f64>; FAMILIES.len()] = Default::default();
    let mut fingerprints: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let start = Instant::now();
    let mut passes = 0usize;
    while passes < MIN_PASSES || secs(start) < args.seconds {
        for (k, instance) in instances.iter().enumerate() {
            for (f, family) in FAMILIES.iter().enumerate() {
                report.attempt(1);
                let (wall, fingerprint, error) = match solve_checked(instance, family) {
                    Ok(solved) => solved,
                    Err(e) => {
                        report.fail(format!("instance seed {}: {e}", instance.seed));
                        continue;
                    }
                };
                walls[f][k].push(wall);
                match fingerprints.get(&(k, f)) {
                    None => {
                        fingerprints.insert((k, f), fingerprint);
                        errors[f].push(error);
                    }
                    Some(&first) if first != fingerprint => report.fail(format!(
                        "{family} on instance seed {}: fingerprint {fingerprint:#018x} \
                         differs from its first solve {first:#018x}",
                        instance.seed
                    )),
                    Some(_) => {}
                }
                std::hint::black_box(set_up());
            }
        }
        passes += 1;
    }
    report.minimum("setup_s", &setup, "s");

    // A family's solve time: the median over instances of each
    // instance's fastest pass.
    let family_s: Vec<Vec<f64>> = walls
        .iter()
        .map(|by_instance| by_instance.iter().filter_map(|w| minimum(w)).collect())
        .collect();
    for (f, family) in FAMILIES.iter().enumerate() {
        report.median(&format!("solve_s.{family}"), &family_s[f], "s");
    }
    // A family's error: the median over instances of each solve's mean
    // error, so one instance that solves badly moves it no further than
    // the next instance's error.
    for (f, family) in FAMILIES.iter().enumerate() {
        report.median(&format!("error_m.{family}"), &errors[f], "m");
    }
    let solves: usize = walls.iter().flatten().map(Vec::len).sum();
    let family_ms: Vec<f64> = family_s
        .iter()
        .filter_map(|s| median(s))
        .map(|s| s * 1e3)
        .collect();
    let family_error: Vec<f64> = errors.iter().filter_map(|e| median(e)).collect();
    let all_families = family_ms.len() == FAMILIES.len() && family_error.len() == FAMILIES.len();
    if let (true, Some(latency), Some(error)) =
        (all_families, geomean(&family_ms), geomean(&family_error))
    {
        report.metric("op_latency_ms", latency, "ms", solves);
        report.metric("error_m", error, "m", errors.iter().map(Vec::len).sum());
    }
    report
}

/// Seconds (fastest of [`TRACE_REPEATS`]) and fingerprint of every
/// family's solve of `instance`.
fn untraced_pass(instance: &Instance, report: &mut Report) -> [Option<(f64, u64)>; FAMILIES.len()] {
    let mut out: [Option<(f64, u64)>; FAMILIES.len()] = [None; FAMILIES.len()];
    for (f, family) in FAMILIES.iter().enumerate() {
        for _ in 0..TRACE_REPEATS {
            report.attempt(1);
            match solve_checked(instance, family) {
                Ok((_, fingerprint, _))
                    if out[f].is_some_and(|(_, first)| first != fingerprint) =>
                {
                    report.fail(format!("{family}: untraced solves differ in fingerprint"))
                }
                Ok((wall, fingerprint, _)) => {
                    let best = out[f].map_or(wall, |(best, _)| best.min(wall));
                    out[f] = Some((best, fingerprint));
                }
                Err(e) => report.fail(e),
            }
        }
    }
    out
}

/// Timed repeats of each family's solve in the untraced pass, and of each
/// family's traced repeat: its full solve, then every phase. Every span
/// reports its fastest repeat, so a cold first call lands in no family's
/// `*.other_s` remainder, and a slow spell of the shared host in fewer.
const TRACE_REPEATS: usize = 2;

/// The remainders of the traced spans: each metric is the first span
/// minus the others. `full` is a family's whole solve and `unrefined`
/// distributed LSS run without refinement.
const REMAINDERS: [(&str, &str, &[&str]); 5] = [
    ("sim.exchange_s", "unrefined", &["distributed.local_s"]),
    (
        "distributed.other_s",
        "full",
        &["unrefined", "refine.stitch_s"],
    ),
    ("lss.descent_s", "full", &["lss.seed_s"]),
    ("mds.eigen_s", "full", &["mds.completion_s"]),
    ("dvhop.other_s", "full", &["sim.flood_s"]),
];

/// What one traced repeat of a family timed and read.
#[derive(Debug, Default)]
struct Spans {
    /// Seconds by span: a per-layer metric name, `full` or `unrefined`.
    seconds: BTreeMap<&'static str, f64>,
    /// Counts by per-layer metric name.
    counts: Vec<(&'static str, f64)>,
}

/// Seconds of one call of `phase`, and its result.
fn timed<T>(phase: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = phase();
    (secs(start), out)
}

/// The traced pass on the workload's first instance: every family's
/// phases timed from outside, plus the tracing overhead: the traced full
/// solve against an untraced pass that times each family the same way.
pub fn trace(args: &Args) -> Report {
    let mut report = Report::new();
    // The first instance's seed is the workload seed itself.
    let seed = args.seed;
    let scenario = presets::preset(PRESET).expect("registered preset");
    let mut instantiate_s = Vec::with_capacity(SETUP_REPEATS);
    let mut problem = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        problem = Some(scenario.instantiate(seed));
        instantiate_s.push(secs(start));
    }
    report.median("deploy.instantiate_s", &instantiate_s, "s");
    let instance = Instance {
        seed,
        problem: problem.expect("at least one set-up repeat"),
    };

    let untraced = untraced_pass(&instance, &mut report);
    let mut traced = [None; FAMILIES.len()];
    for (f, family) in FAMILIES.iter().enumerate() {
        let mut fastest_s: BTreeMap<&str, f64> = BTreeMap::new();
        let mut counts = None;
        for _ in 0..TRACE_REPEATS {
            report.attempt(1);
            let (full_s, solution) = match solve(&instance.problem, family, seed) {
                Ok(out) => out,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
            match (check(&instance.problem, &solution), untraced[f]) {
                (Ok((fingerprint, _)), Some((_, first))) if fingerprint != first => report.fail(
                    format!("{family}: traced solve fingerprint differs from the untraced one"),
                ),
                (Err(e), _) => report.fail(format!("{family}: {e}")),
                _ => {}
            }
            let mut spans = match trace_family(&instance, family, &solution, &mut report) {
                Ok(spans) => spans,
                Err(e) => {
                    report.fail(format!("{family} trace: {e}"));
                    continue;
                }
            };
            spans.seconds.insert("full", full_s);
            for (span, s) in spans.seconds {
                let best = fastest_s.entry(span).or_insert(s);
                *best = best.min(s);
            }
            match &counts {
                None => counts = Some(spans.counts),
                Some(first) if *first != spans.counts => report.inconsistent(format!(
                    "{family}: traced counts differ between repeats: {first:?} then {:?}",
                    spans.counts
                )),
                Some(_) => {}
            }
        }
        let Some(counts) = counts else { continue };
        traced[f] = fastest_s.get("full").copied();
        record(&fastest_s, &counts, &mut report);
        if *family == "distributed-lss" {
            cross_check(seed, &fastest_s, &counts, &mut report);
        }
    }
    for (f, family) in FAMILIES.iter().enumerate() {
        if let (Some(t), Some((u, _))) = (traced[f], untraced[f]) {
            report.notes.push(format!(
                "overhead solve_s.{family}: traced {t:.4} s, untraced {u:.4} s, \
                 difference {:+.4} s ({:+.1}%)",
                t - u,
                100.0 * (t - u) / u
            ));
        }
    }
    report
}

/// Records a family's per-layer metrics from the fastest repeat of each
/// span and the counts its repeats read.
fn record(fastest_s: &BTreeMap<&str, f64>, counts: &[(&'static str, f64)], report: &mut Report) {
    for (&span, &s) in fastest_s {
        if !matches!(span, "full" | "unrefined") {
            report.metric(span, s, "s", TRACE_REPEATS);
        }
    }
    for (name, base, parts) in REMAINDERS {
        if let Some(&base_s) = fastest_s.get(base) {
            let parts_s: Option<Vec<f64>> =
                parts.iter().map(|p| fastest_s.get(p).copied()).collect();
            if let Some(parts_s) = parts_s {
                let remainder = base_s - parts_s.iter().sum::<f64>();
                report.metric(name, remainder, "s", TRACE_REPEATS);
            }
        }
    }
    for &(name, value) in counts {
        report.metric(name, value, "count", 1);
    }
}

/// Times one family's phases on `instance`, once; `solution` is the
/// family's full solve.
fn trace_family(
    instance: &Instance,
    family: &str,
    solution: &Solution,
    report: &mut Report,
) -> Result<Spans, String> {
    match family {
        "distributed-lss" => trace_distributed(instance, solution, report),
        "lss" => trace_lss(instance, solution),
        "mds-map" => trace_mds(instance, solution),
        _ => trace_dvhop(instance, solution, report),
    }
}

fn trace_distributed(
    instance: &Instance,
    solution: &Solution,
    report: &mut Report,
) -> Result<Spans, String> {
    let config = DistributedConfig::metro();
    let problem = &instance.problem;
    let set = problem.measurements();
    let truth = problem.truth_required().map_err(|e| e.to_string())?;
    let n = set.node_count();

    // The local phase draws its base seed first from the solve's stream.
    let local_seed = seeded(instance.seed).random::<u64>();
    let (local_s, maps) = timed(|| {
        pool::par_map_indexed(n, config.workers, |i| {
            let mut rng = seeded(local_seed ^ (i as u64 + 1).wrapping_mul(LOCAL_STREAM));
            LocalMap::build(NodeId(i), set, &config.local_lss, &mut rng).ok()
        })
    });
    let built = maps.iter().flatten().count();

    let unrefined = config.clone().with_refine(None);
    let (unrefined_s, raw) = timed(|| {
        run_distributed(
            set,
            truth,
            NodeId(0),
            &unrefined,
            &mut seeded(instance.seed),
        )
    });
    let raw = raw.map_err(|e| e.to_string())?;
    if raw.local_maps_built != built {
        report.inconsistent(format!(
            "traced local phase built {built} maps, the solve built {}",
            raw.local_maps_built
        ));
    }

    let refine = config.refine.as_ref().ok_or("metro config refines")?;
    let (refine_s, (positions, outcome)) = timed(|| {
        let mut positions = raw.positions.clone();
        let outcome = refine_aligned(set, &mut positions, refine);
        (positions, outcome)
    });
    let outcome = outcome.ok_or("refinement had no work")?;
    if &positions != solution.positions() {
        report.inconsistent("traced refinement does not reproduce the solve's positions");
    }

    Ok(Spans {
        seconds: BTreeMap::from([
            ("distributed.local_s", local_s),
            ("unrefined", unrefined_s),
            ("refine.stitch_s", refine_s),
        ]),
        counts: vec![
            ("distributed.local_maps_built", built as f64),
            ("sim.exchange_deliveries", raw.messages_delivered as f64),
            ("refine.stitch_gn_iters", outcome.iterations as f64),
            ("refine.stitch_cg_iters", outcome.cg_iterations as f64),
        ],
    })
}

/// Prints the distributed-LSS split next to the ROADMAP probe and flags
/// a split whose shape disagrees with it.
fn cross_check(
    seed: u64,
    fastest_s: &BTreeMap<&str, f64>,
    counts: &[(&str, f64)],
    report: &mut Report,
) {
    let span = |name| fastest_s.get(name).copied().unwrap_or(f64::NAN);
    let (local_s, refine_s, full_s) = (
        span("distributed.local_s"),
        span("refine.stitch_s"),
        span("full"),
    );
    let exchange_s = span("unrefined") - local_s;
    let deliveries = counts
        .iter()
        .find(|(name, _)| *name == "sim.exchange_deliveries")
        .map_or(0, |&(_, count)| count as usize);
    let (ref_local, ref_exchange, ref_refine, ref_deliveries) = ROADMAP_SPLIT;
    report.notes.push(format!(
        "crosscheck ROADMAP probe (seed {ROADMAP_SEED}): local {ref_local:.0} ms, exchange \
         {ref_exchange:.0} ms, refine {ref_refine:.0} ms, {}k deliveries",
        ref_deliveries / 1000
    ));
    report.notes.push(format!(
        "crosscheck this run   (seed {seed}): local {:.0} ms, exchange {:.0} ms, refine {:.0} \
         ms, {}k deliveries",
        local_s * 1e3,
        exchange_s * 1e3,
        refine_s * 1e3,
        deliveries / 1000
    ));
    let local_share = local_s / (local_s + exchange_s);
    let refine_share = refine_s / full_s;
    let mut disagreements = Vec::new();
    if !(0.3..=0.7).contains(&local_share) {
        disagreements.push(format!(
            "local is {:.0}% of local+exchange, not roughly half",
            100.0 * local_share
        ));
    }
    if refine_share > 0.05 {
        disagreements.push(format!(
            "refine is {:.1}% of the solve, over 5%",
            100.0 * refine_share
        ));
    }
    report.notes.push(if disagreements.is_empty() {
        format!(
            "crosscheck shape agrees: local {:.0}% of local+exchange, refine {:.1}% of the solve",
            100.0 * local_share,
            100.0 * refine_share
        )
    } else {
        format!("crosscheck FLAG: {}", disagreements.join("; "))
    });
}

fn trace_lss(instance: &Instance, solution: &Solution) -> Result<Spans, String> {
    let (seed_s, seeded_map) = timed(|| mdsmap_coordinates(instance.problem.measurements()));
    seeded_map.map_err(|e| e.to_string())?;
    Ok(Spans {
        seconds: BTreeMap::from([("lss.seed_s", seed_s)]),
        counts: vec![("lss.iterations", solution.stats().iterations as f64)],
    })
}

fn trace_mds(instance: &Instance, solution: &Solution) -> Result<Spans, String> {
    let set = instance.problem.measurements();
    let n = set.node_count();
    let (completion_s, completed) = timed(|| {
        let edges: Vec<(usize, usize, f64)> = set
            .iter()
            .map(|(a, b, d)| (a.index(), b.index(), d))
            .collect();
        let adjacency = CsrMatrix::symmetric_from_edges(n, &edges).map_err(|e| format!("{e:?}"))?;
        let sources: Vec<usize> = (0..n).collect();
        let mut completed = vec![0.0; n * n];
        dijkstra_multi_into(&adjacency, &sources, &mut completed);
        Ok::<_, String>(completed)
    });
    let completed = completed?;
    if completed.iter().any(|d| !d.is_finite()) {
        return Err("measurement graph is disconnected".into());
    }
    Ok(Spans {
        seconds: BTreeMap::from([("mds.completion_s", completion_s)]),
        counts: vec![("mds.eigen_iters", solution.stats().iterations as f64)],
    })
}

fn trace_dvhop(
    instance: &Instance,
    solution: &Solution,
    report: &mut Report,
) -> Result<Spans, String> {
    let problem = &instance.problem;
    let truth = problem.truth_required().map_err(|e| e.to_string())?;
    let anchors = problem.anchor_ids();
    let n = truth.len();
    // DV-hop draws its simulator seed first from the solve's stream.
    let flood_seed = seeded(instance.seed).random::<u64>();
    let (flood_s, (sim, stats)) = timed(|| {
        let nodes: Vec<FloodNode<()>> = (0..n)
            .map(|i| {
                if anchors.contains(&NodeId(i)) {
                    FloodNode::origin(())
                } else {
                    FloodNode::relay()
                }
            })
            .collect();
        let sim = Simulator::new(nodes, truth, RadioModel::ideal(RANGE_M), flood_seed);
        // DV-hop's event budget (`rl_core::baselines::dv_hop`).
        let budget =
            1_000_000usize.max(8 * anchors.len() * sim.topology().edge_count() + 1_000 * n);
        let mut sim = sim.with_event_budget(budget);
        let stats = sim.run();
        (sim, stats)
    });
    let stats = stats.map_err(|e| e.to_string())?;

    // The traced flood must be the solve's: a direct `dv_hop` call must
    // reproduce the registry solve, and the meters per hop its anchors
    // derived must equal those the traced flood's hop counts give.
    let direct = dv_hop(
        truth,
        problem.anchors(),
        &RadioModel::ideal(RANGE_M),
        &mut seeded(instance.seed),
    )
    .map_err(|e| e.to_string())?;
    if &direct.positions != solution.positions() {
        report.inconsistent("a direct dv_hop call does not reproduce the registry solve");
    }
    let traced = meters_per_hop(&sim, problem.anchors());
    let same = |a: &[f64], b: &[f64]| {
        a.iter()
            .map(|x| x.to_bits())
            .eq(b.iter().map(|x| x.to_bits()))
    };
    if !same(&traced, &direct.meters_per_hop) {
        report.inconsistent("the traced flood's hop counts differ from the DV-hop solve's");
    }
    Ok(Spans {
        seconds: BTreeMap::from([("sim.flood_s", flood_s)]),
        counts: vec![
            ("sim.flood_deliveries", stats.delivered as f64),
            ("sim.flood_events", stats.events as f64),
        ],
    })
}

/// Each anchor's meters per hop from a finished flood, the way DV-hop
/// computes it: straight-line metres to every anchor it heard from, over
/// the hops they took.
fn meters_per_hop(sim: &Simulator<FloodNode<()>>, anchors: &[Anchor]) -> Vec<f64> {
    anchors
        .iter()
        .map(|a| {
            let (mut metres, mut hops) = (0.0, 0usize);
            for b in anchors.iter().filter(|b| b.id != a.id) {
                if let Some(h) = sim.node(a.id).hops_from(b.id) {
                    metres += a.position.distance(b.position);
                    hops += h;
                }
            }
            if hops > 0 {
                metres / hops as f64
            } else {
                f64::NAN
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn town() -> Instance {
        let seed = 7;
        Instance {
            seed,
            problem: instantiate("town", &[seed]).remove(0).problem,
        }
    }

    #[test]
    fn instance_seeds_start_at_the_workload_seed_and_are_distinct() {
        let seeds = instance_seeds(ROADMAP_SEED, 4);
        assert_eq!(seeds[0], ROADMAP_SEED);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4);
        assert_eq!(seeds, instance_seeds(ROADMAP_SEED, 4));
    }

    #[test]
    fn every_family_solves_checks_and_repeats_its_fingerprint() {
        let instance = town();
        for family in FAMILIES {
            let (_, a, err) = solve_checked(&instance, family).unwrap();
            let (_, b, _) = solve_checked(&instance, family).unwrap();
            assert_eq!(a, b, "{family} fingerprint must repeat at one seed");
            assert!(err.is_finite());
        }
    }

    /// The counts a traced pass reads on one instance.
    fn traced_counts(instance: &Instance) -> Vec<(&'static str, f64)> {
        let mut report = Report::new();
        let mut counts = Vec::new();
        for family in FAMILIES {
            let (_, solution) = solve(&instance.problem, family, instance.seed).unwrap();
            let spans = trace_family(instance, family, &solution, &mut report).unwrap();
            counts.extend(spans.counts);
        }
        assert!(report.correct, "{}", report.lines());
        counts
    }

    #[test]
    fn traced_counts_repeat_at_one_seed() {
        let instance = town();
        let a = traced_counts(&instance);
        for name in [
            "sim.exchange_deliveries",
            "sim.flood_deliveries",
            "lss.iterations",
            "mds.eigen_iters",
        ] {
            assert!(a.iter().any(|&(n, _)| n == name), "{name} missing");
        }
        assert_eq!(a, traced_counts(&instance));
    }

    #[test]
    fn remainders_subtract_the_phases_from_their_span() {
        let fastest_s = BTreeMap::from([
            ("full", 10.0),
            ("unrefined", 7.0),
            ("distributed.local_s", 4.0),
            ("refine.stitch_s", 1.0),
        ]);
        let mut report = Report::new();
        record(&fastest_s, &[("sim.exchange_deliveries", 5.0)], &mut report);
        let value = |name| report.get(name).map(|m| m.value);
        assert_eq!(value("distributed.local_s"), Some(4.0));
        assert_eq!(value("sim.exchange_s"), Some(3.0));
        assert_eq!(value("distributed.other_s"), Some(2.0));
        assert_eq!(value("sim.exchange_deliveries"), Some(5.0));
        assert_eq!(value("lss.descent_s"), None);
        assert_eq!((value("full"), value("unrefined")), (None, None));
    }
}
