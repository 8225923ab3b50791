//! Word-plan diagnostics: how much of each design's compiled tape the
//! bitsliced Bool fast path covers (DESIGN.md §12).
//!
//! For the DECT transceiver and the HCOR correlator at each tape-
//! optimization level, prints the planner's block count and coverage
//! plus the eligibility histogram — run lengths of word-eligible ops
//! *after* the clustering scheduler. A large eligible count with every
//! run below the planner's minimum means the scheduler (not the
//! classifier) limits coverage.
//!
//! It probes 64-lane batches: a one-lane batch runs the scalar tape and
//! plans nothing, while the plan is the same at every wider lane count.
//!
//! `cargo run --release -p ocapi-bench --example wordprobe`

use ocapi::{BatchedSim, OptLevel, System};
use ocapi_designs::dect::transceiver::{build_system, TransceiverConfig};
use ocapi_designs::hcor;

/// Lanes of every probed batch.
const LANES: usize = 64;

fn probe(label: &str, sim: &BatchedSim) {
    let (eligible, total, hist) = sim.word_eligibility();
    println!(
        "{label:<12} blocks={:<3} coverage={:<4} eligible={eligible}/{total} runs={hist:?}",
        sim.word_blocks(),
        sim.word_tape_coverage()
    );
}

fn main() -> Result<(), ocapi::CoreError> {
    let dect = || -> Result<System, ocapi::CoreError> {
        build_system(&TransceiverConfig {
            train: true,
            agc: false,
            adapt: true,
        })
    };
    for level in [OptLevel::None, OptLevel::Basic, OptLevel::Full] {
        probe(
            &format!("dect {level:?}"),
            &BatchedSim::from_fn(LANES, dect, level)?,
        );
    }
    for level in [OptLevel::None, OptLevel::Full] {
        probe(
            &format!("hcor {level:?}"),
            &BatchedSim::from_fn(LANES, hcor::build_system, level)?,
        );
    }
    Ok(())
}
