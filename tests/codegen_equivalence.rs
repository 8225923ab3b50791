//! Figure 7 end-to-end: one captured data structure feeds simulation, HDL
//! generation and testbench generation; the generated artifacts must be
//! complete, deterministic, and consistent with the recorded behaviour.

use asic_dse::ocapi::{InterpSim, Traced, Value};
use asic_dse::ocapi_designs::dect::burst::{generate, BurstConfig};
use asic_dse::ocapi_designs::dect::transceiver::{build_system, run_burst, TransceiverConfig};
use asic_dse::ocapi_designs::hcor;
use asic_dse::ocapi_hdl::project::write_vhdl_project;
use asic_dse::ocapi_hdl::report::CodeSizeReport;
use asic_dse::ocapi_hdl::{testbench, verilog, vhdl};

#[test]
fn dect_vhdl_generation_is_complete_and_deterministic() {
    let cfg = TransceiverConfig::default();
    let sys = build_system(&cfg).expect("build");
    let src = vhdl::system_source(&sys).expect("codegen");
    // Every timed component becomes an entity.
    for t in &sys.timed {
        assert!(
            src.contains(&format!("entity {} is", t.comp.name)),
            "missing entity for {}",
            t.comp.name
        );
    }
    // All 7 memories get generated behavioural models (no black boxes).
    for u in &sys.untimed {
        assert!(
            src.contains(&format!("architecture behavioural of {}", u.block.name())),
            "missing behavioural model for {}",
            u.block.name()
        );
    }
    assert!(!src.contains("behavioural model supplied separately"));
    assert!(src.contains("entity dect_top is"));
    let again = vhdl::system_source(&build_system(&cfg).expect("build")).expect("codegen");
    assert_eq!(src, again, "generation must be deterministic");
}

#[test]
fn dect_vhdl_project_has_a_file_for_every_instantiated_entity() {
    let sys = build_system(&TransceiverConfig::default()).expect("build");
    let dir = std::env::temp_dir().join(format!("ocapi_dect_prj_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = write_vhdl_project(&sys, None, &dir).expect("write");
    let top = std::fs::read_to_string(dir.join("dect_top.vhd")).expect("top");
    let listed = std::fs::read_to_string(dir.join("files.lst")).expect("list");
    let _ = std::fs::remove_dir_all(&dir);
    let entities: Vec<&str> = top
        .split("entity work.")
        .skip(1)
        .map(|rest| rest.split_whitespace().next().unwrap_or(""))
        .collect();
    // The seven memories and every timed component.
    assert!(entities.len() >= 7 + sys.timed.len(), "{entities:?}");
    for e in entities {
        let file = format!("{e}.vhd");
        assert!(manifest.files.contains(&file), "no file for entity {e}");
        assert!(listed.lines().any(|l| l == file), "{file} not in files.lst");
    }
    // Each file is written once, memories between the entities and the top.
    let pos = |f: &str| manifest.files.iter().position(|x| x == f);
    assert!(pos("irom.vhd") < pos("dect_top.vhd"));
    assert!(pos(&format!("{}.vhd", sys.timed[0].comp.name)) < pos("irom.vhd"));
}

#[test]
fn dect_verilog_generation_is_complete() {
    let cfg = TransceiverConfig::default();
    let sys = build_system(&cfg).expect("build");
    let src = verilog::system_source(&sys).expect("codegen");
    for t in &sys.timed {
        assert!(src.contains(&format!("module {} (", t.comp.name)));
    }
    assert!(src.contains("module dect_top ("));
    assert!(src.matches("endmodule").count() >= sys.timed.len());
}

#[test]
fn traces_feed_testbenches_for_the_full_transceiver() {
    let cfg = TransceiverConfig::default();
    let burst = generate(&BurstConfig {
        payload_len: 4,
        ..BurstConfig::default()
    });
    let mut sim = Traced::new(InterpSim::new(build_system(&cfg).expect("build")).expect("sim"));
    run_burst(&mut sim, &burst, None).expect("run");
    let trace = sim.trace();
    assert_eq!(trace.len(), burst.samples.len() * 4);

    let tb = testbench::vhdl_testbench("dect", trace).expect("tb");
    assert!(tb.contains("entity dect_tb is end entity;"));
    assert_eq!(tb.matches("-- cycle").count(), trace.len());
    // Outputs are asserted each cycle.
    assert!(tb.matches("assert bit =").count() == trace.len());

    let tbv = testbench::verilog_testbench("dect", trace).expect("tb");
    assert!(tbv.contains("module dect_tb;"));
    assert!(tbv.contains("$finish;"));

    // And the VCD dump of the same trace is well-formed.
    let vcd = trace.to_vcd();
    assert!(vcd.contains("$enddefinitions $end"));
    assert!(vcd.contains("$var wire 12 s0 sample $end"));
}

#[test]
fn traces_are_identical_between_interp_and_compiled() {
    use asic_dse::ocapi::CompiledSim;
    let bits = hcor::test_pattern(20, 1);
    let mut a = Traced::new(InterpSim::new(hcor::build_system().expect("build")).expect("sim"));
    hcor::run_detection(&mut a, &bits, 14).expect("run");
    let mut b = Traced::new(CompiledSim::new(hcor::build_system().expect("build")).expect("sim"));
    hcor::run_detection(&mut b, &bits, 14).expect("run");
    assert_eq!(a.trace(), b.trace());
}

#[test]
fn code_size_report_shows_compaction() {
    let sys = build_system(&TransceiverConfig::default()).expect("build");
    let dsl: String = asic_dse::ocapi_designs::dsl_sources()
        .iter()
        .filter(|(n, _)| {
            [
                "hcor",
                "dect/pc_controller",
                "dect/datapaths",
                "dect/transceiver",
            ]
            .contains(n)
        })
        .map(|(_, s)| s.split("#[cfg(test)]").next().unwrap_or(s).to_owned())
        .collect();
    let report = CodeSizeReport::for_system(&sys, &dsl).expect("report");
    assert!(report.dsl_lines > 300, "dsl lines = {}", report.dsl_lines);
    assert!(
        report.vhdl_ratio() > 1.5,
        "generated VHDL should be substantially larger than the DSL: {report}"
    );
}

#[test]
fn testbench_respects_value_types() {
    // A trace with fixed-point IO must emit signed literals.
    let cfg = TransceiverConfig::default();
    let burst = generate(&BurstConfig {
        payload_len: 2,
        ..BurstConfig::default()
    });
    let mut sim = Traced::new(InterpSim::new(build_system(&cfg).expect("build")).expect("sim"));
    run_burst(&mut sim, &burst, None).expect("run");
    let tb = testbench::vhdl_testbench("dect", sim.trace()).expect("tb");
    assert!(
        tb.contains("to_signed("),
        "fixed-point stimuli use signed literals"
    );
    let _ = Value::Bool(true); // silence unused-import lints in minimal builds
}
