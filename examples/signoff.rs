//! The back-end sign-off flow on the HCOR correlator — everything that
//! happens *after* the paper's Figure 8 synthesis step, using only this
//! workspace:
//!
//! 1. synthesize (controller + datapath, operator sharing),
//! 2. technology-map to the NAND/INV cell subset and re-optimise,
//! 3. static timing: critical path and maximum clock,
//! 4. grade the generated testbench vectors by stuck-at fault
//!    simulation,
//! 5. write the mapped netlist as structural Verilog + VHDL and prove
//!    the Verilog re-imports losslessly.
//!
//! Run with `cargo run --release --example signoff`.

use std::path::Path;

use asic_dse::ocapi_designs::hcor;
use asic_dse::ocapi_gatesim::fault::{stuck_at_coverage, CycleStimulus};
use asic_dse::ocapi_synth::{emit, opt, parse, synthesize, techmap, timing, SynthOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesis.
    let comp = hcor::build_component()?;
    let generic = synthesize(&comp, &SynthOptions::default())?;
    println!(
        "synthesized {}: {:.0} gate-eq ({} comb, {} FF)",
        generic.name,
        generic.area(),
        generic.netlist.combinational_count(),
        generic.netlist.dff_count()
    );

    // 2. Technology mapping.
    let mut mapped = generic.netlist.clone();
    let rewritten = techmap::to_nand_inv(&mut mapped);
    opt::optimize(&mut mapped);
    assert!(techmap::is_nand_inv(&mapped));
    println!(
        "mapped to NAND/INV: {rewritten} gates rewritten, {:.0} gate-eq after clean-up",
        mapped.area()
    );

    // 3. Static timing on the mapped netlist.
    let sta = timing::analyze(&mapped);
    println!(
        "critical path: {:.1} gate delays over {} stages -> max clock ~{:.0} MHz at 300 ps/unit",
        sta.critical_path,
        sta.depth,
        sta.max_clock_mhz(300.0)
    );

    // 4. Fault-grade the functional test pattern on the mapped netlist.
    let stimuli: Vec<CycleStimulus> = hcor::test_pattern(256, 7)
        .iter()
        .map(|b| CycleStimulus {
            inputs: vec![
                ("bit_in".into(), *b as u64),
                ("enable".into(), 1),
                ("threshold".into(), 11),
            ],
        })
        .collect();
    let (report, _) = stuck_at_coverage(&mapped, &stimuli)?;
    println!(
        "stuck-at fault coverage of the testbench vectors: {}/{} = {:.1}%",
        report.detected,
        report.total,
        100.0 * report.coverage()
    );

    // 5. Write the hand-off files and prove the Verilog is lossless.
    let dir = Path::new("target/generated/hcor_signoff");
    std::fs::create_dir_all(dir)?;
    let v = emit::verilog_netlist("hcor_nand", &mapped);
    std::fs::write(dir.join("hcor_nand.v"), &v)?;
    std::fs::write(
        dir.join("hcor_nand.vhd"),
        emit::vhdl_netlist("hcor_nand", &mapped),
    )?;
    let back = parse::verilog_netlist(&v)?;
    assert_eq!(back.netlist.dff_count(), mapped.dff_count());
    println!(
        "wrote {} ({} lines) + VHDL twin; re-import OK ({} gates, {} FF)",
        dir.join("hcor_nand.v").display(),
        v.lines().count(),
        back.netlist.combinational_count(),
        back.netlist.dff_count()
    );
    println!("signoff complete");
    Ok(())
}
