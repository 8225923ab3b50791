//! Pins the serial and packed stuck-at graders to fixed numbers on the
//! synthesized HCOR netlist, so a refactor of either grader cannot move
//! a classification or a gate-evaluation count unnoticed.

use ocapi::ParConfig;
use ocapi_designs::hcor;
use ocapi_gatesim::fault::{stuck_at_coverage, stuck_at_coverage_sharded_stats, CycleStimulus};
use ocapi_synth::{synthesize, SynthOptions};

/// The generated-testbench burst of the `fault_coverage` bench: the
/// 64-symbol HCOR test pattern at threshold 11, correlator enabled.
fn hcor_burst() -> Vec<CycleStimulus> {
    hcor::test_pattern(64, 7)
        .iter()
        .map(|b| CycleStimulus {
            inputs: vec![
                ("bit_in".into(), *b as u64),
                ("enable".into(), 1),
                ("threshold".into(), 11),
            ],
        })
        .collect()
}

/// Numbers recorded from the graders before they were consolidated:
/// 836 faults, 561 detected, 275 escapes, identical for both engines.
#[test]
fn graders_match_pinned_hcor_numbers() {
    let comp = hcor::build_component().expect("hcor");
    let net = synthesize(&comp, &SynthOptions::default())
        .expect("synth")
        .netlist;
    let stimuli = hcor_burst();

    let (serial, serial_stats) = stuck_at_coverage(&net, &stimuli).expect("serial");
    assert_eq!(serial.total, 836);
    assert_eq!(serial.detected, 561);
    assert_eq!(serial.undetected.len(), 275);
    assert_eq!(serial_stats.faults, 836);
    assert_eq!(serial_stats.gate_evals, 6_741_599);
    assert_eq!(serial_stats.machine_evals, 6_733_668);
    assert_eq!(serial_stats.fault_words, 0);

    for threads in [1, 2] {
        let (packed, packed_stats) =
            stuck_at_coverage_sharded_stats(&net, &stimuli, &ParConfig::new(threads))
                .expect("packed");
        assert_eq!(packed.total, 836);
        assert_eq!(packed.detected, 561);
        assert_eq!(packed.undetected.len(), 275);
        assert_eq!(packed.undetected, serial.undetected, "threads={threads}");
        assert_eq!(packed_stats.faults, 836);
        assert_eq!(packed_stats.gate_evals, 2_262_624);
        assert_eq!(packed_stats.machine_evals, 136_139_536);
        assert_eq!(packed_stats.fault_words, 14);
    }
}
