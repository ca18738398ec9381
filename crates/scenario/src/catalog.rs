//! The bundled scenario catalog.
//!
//! The specs live as plain-text artifacts in the repository's
//! `scenarios/` directory (the single source of truth — embedded here at
//! compile time) so they diff like code and run identically from the
//! CLI, the benches, and the tests.

use crate::spec::Scenario;

/// `(name, spec text)` for every bundled scenario.
pub const CATALOG: [(&str, &str); 13] = [
    (
        "flash_crowd",
        include_str!("../../../scenarios/flash_crowd.scn"),
    ),
    (
        "rolling_maintenance",
        include_str!("../../../scenarios/rolling_maintenance.scn"),
    ),
    (
        "cascading_failure",
        include_str!("../../../scenarios/cascading_failure.scn"),
    ),
    (
        "diurnal_drift",
        include_str!("../../../scenarios/diurnal_drift.scn"),
    ),
    (
        "priority_surge",
        include_str!("../../../scenarios/priority_surge.scn"),
    ),
    ("he_scale", include_str!("../../../scenarios/he_scale.scn")),
    (
        "pop_churn",
        include_str!("../../../scenarios/pop_churn.scn"),
    ),
    (
        "hypergrowth",
        include_str!("../../../scenarios/hypergrowth.scn"),
    ),
    (
        "planetary",
        include_str!("../../../scenarios/planetary.scn"),
    ),
    (
        "planetary_deep",
        include_str!("../../../scenarios/planetary_deep.scn"),
    ),
    (
        "nren_churn",
        include_str!("../../../scenarios/nren_churn.scn"),
    ),
    // The chaos pair: worst cases found by `fubar-cli scenario search`
    // over flash_crowd and cascading_failure, committed verbatim. CI
    // re-finds each from its recorded seed (`scenario search --check`).
    (
        "chaos_blackout",
        include_str!("../../../scenarios/chaos_blackout.scn"),
    ),
    (
        "chaos_partition",
        include_str!("../../../scenarios/chaos_partition.scn"),
    ),
];

/// The names of all bundled scenarios.
pub fn names() -> Vec<&'static str> {
    CATALOG.iter().map(|&(n, _)| n).collect()
}

/// Loads a bundled scenario by name.
pub fn load(name: &str) -> Option<Scenario> {
    CATALOG.iter().find(|&&(n, _)| n == name).map(|&(n, text)| {
        Scenario::parse(text).unwrap_or_else(|e| panic!("bundled scenario {n:?} must parse: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bundled_scenario_parses_and_matches_its_name() {
        for (name, _) in CATALOG {
            let s = load(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(s.name, name, "file name and `scenario` directive agree");
        }
        assert_eq!(names().len(), 13);
        assert!(load("no_such_scenario").is_none());
    }

    #[test]
    fn every_bundled_scenario_round_trips() {
        for (name, _) in CATALOG {
            let s = load(name).unwrap();
            let back = Scenario::parse(&s.to_string())
                .unwrap_or_else(|e| panic!("{name} reserialization must parse: {e}"));
            assert_eq!(s, back, "{name} must round-trip");
        }
    }

    #[test]
    fn every_bundled_scenario_builds() {
        for (name, _) in CATALOG {
            let s = load(name).unwrap();
            crate::driver::build(&s, s.seed, &Default::default())
                .unwrap_or_else(|e| panic!("{name} must build: {e}"));
        }
    }
}
