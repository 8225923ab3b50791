//! Synthesized netlists match the simulators on generated systems.
//!
//! Seeds `1048..1120` of the one generator in `agree`, disjoint from the
//! seeds `tests/engines_agree.rs` runs, on every engine. A seed's gate
//! engine uses synthesis option set `seed % 3`, so each test below runs
//! the 24 seeds of its option set.

mod agree;

const SEEDS: std::ops::Range<u64> = 1048..1120;

/// Default `SynthOptions`.
#[test]
fn synthesized_netlist_matches_simulators() {
    agree::check_generated(SEEDS.filter(|s| s % 3 == 0));
}

/// No operator sharing, no optimisation, one-hot states, carry-select
/// adders.
#[test]
fn netlist_matches_without_sharing_or_optimisation() {
    agree::check_generated(SEEDS.filter(|s| s % 3 == 1));
}

/// State minimisation on.
#[test]
fn netlist_matches_with_state_minimisation() {
    agree::check_generated(SEEDS.filter(|s| s % 3 == 2));
}
