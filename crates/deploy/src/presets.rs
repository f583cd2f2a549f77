//! Named, serveable scenario presets.
//!
//! The `rl-serve` server owns long-lived deployment state: clients name a
//! deployment (`"town"`, `"metro-250"`, …) instead of shipping geometry
//! over the wire, and the server instantiates the corresponding
//! [`Scenario`] on demand. That only works if both sides agree — bit for
//! bit — on what each name means, so every preset here is pinned to
//! [`PRESET_SEED`] and fully deterministic: the same name always yields
//! the same deployment, anchors, and synthetic error model, across
//! processes and machines.
//!
//! # Example
//!
//! ```
//! use rl_deploy::presets;
//!
//! let town = presets::preset("town").expect("town is a preset");
//! assert_eq!(town.deployment.len(), 59);
//! // Deterministic: a second lookup is the same scenario, bit for bit.
//! assert_eq!(presets::preset("town"), Some(town));
//! assert!(presets::preset("atlantis").is_none());
//! ```

use crate::scenario::Scenario;

/// The fixed seed every preset geometry is generated from (the paper's
/// publication date, matching `rl_bench::MASTER_SEED`).
pub const PRESET_SEED: u64 = 20050614;

/// Names of every serveable preset, in registry order: the paper-scale
/// scenarios first, then the metro ladder.
pub const NAMES: &[&str] = &[
    "grass-grid",
    "parking-lot",
    "town",
    "metro-250",
    "metro-500",
    "metro-1000",
    "metro-2500",
];

/// Resolves a preset name to its scenario, or `None` for an unknown name.
///
/// * `"grass-grid"` — the paper's Figure-5 grass grid (47 motes,
///   anchor-free),
/// * `"parking-lot"` — the 15-node parking lot with 5 anchors
///   (Figure 12),
/// * `"town"` — the 59-node town with 18 anchors (Figures 20–22),
/// * `"metro-250"` / `"metro-500"` / `"metro-1000"` / `"metro-2500"` —
///   the metro ladder (district grids, 10% anchors). The 2500-node rung
///   is the sparse-kernel stress tier: dense `O(n²)`–`O(n³)` paths are
///   visibly infeasible there, so it anchors the `smoke sparse` wall
///   gates and the top `sparse_bench` rung.
pub fn preset(name: &str) -> Option<Scenario> {
    match name {
        "grass-grid" => Some(Scenario::grass_grid()),
        "parking-lot" => Some(Scenario::parking_lot(PRESET_SEED)),
        "town" => Some(Scenario::town(PRESET_SEED)),
        "metro-250" => Some(Scenario::metro_sized(250, 0.10, PRESET_SEED)),
        "metro-500" => Some(Scenario::metro_sized(500, 0.10, PRESET_SEED)),
        "metro-1000" => Some(Scenario::metro(PRESET_SEED)),
        "metro-2500" => Some(Scenario::metro_sized(2500, 0.10, PRESET_SEED)),
        _ => None,
    }
}

/// Every serveable preset as `(name, scenario)` pairs, in [`NAMES`]
/// order. Building the metro rungs generates their full district
/// geometry, so this is a startup-time call, not a per-request one.
pub fn all() -> Vec<(&'static str, Scenario)> {
    NAMES
        .iter()
        .map(|&name| (name, preset(name).expect("every listed preset resolves")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_resolves_deterministically() {
        for &name in NAMES {
            let a = preset(name).unwrap_or_else(|| panic!("preset {name} must resolve"));
            let b = preset(name).unwrap();
            assert_eq!(a, b, "preset {name} must be deterministic");
            assert!(!a.deployment.is_empty(), "preset {name} is empty");
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert_eq!(preset(""), None);
        assert_eq!(preset("metro-9999"), None);
        assert_eq!(preset("Town"), None, "names are case-sensitive");
    }

    #[test]
    fn all_matches_names() {
        let all = all();
        assert_eq!(all.len(), NAMES.len());
        for ((name, scenario), &expected) in all.iter().zip(NAMES) {
            assert_eq!(*name, expected);
            assert_eq!(Some(scenario.clone()), preset(name));
        }
    }

    #[test]
    fn preset_scales_are_as_documented() {
        assert_eq!(preset("grass-grid").unwrap().deployment.len(), 47);
        assert_eq!(preset("parking-lot").unwrap().deployment.len(), 15);
        assert_eq!(preset("town").unwrap().deployment.len(), 59);
        let metro = preset("metro-250").unwrap();
        assert_eq!(metro.deployment.len(), 250);
        assert_eq!(metro.anchors.len(), 25);
        let metro = preset("metro-2500").unwrap();
        assert_eq!(metro.deployment.len(), 2500);
        assert_eq!(metro.anchors.len(), 250);
    }
}
