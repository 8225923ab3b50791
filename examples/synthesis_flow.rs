//! The paper's Figure 8 synthesis strategy, end to end on the HCOR
//! correlator: datapath + controller synthesis to gates, generated
//! verification testbench, and gate-level re-simulation checked against
//! the captured description.
//!
//! Run with `cargo run --release --example synthesis_flow`.

use asic_dse::ocapi::{InterpSim, Simulator, Traced, Value};
use asic_dse::ocapi_designs::hcor;
use asic_dse::ocapi_gatesim::GateSystemSim;
use asic_dse::ocapi_hdl::{project, testbench, vhdl};
use asic_dse::ocapi_synth::report::{histogram_table, ComponentReport};
use asic_dse::ocapi_synth::{emit, parse, synthesize, SynthOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize the component (controller + datapath, Figure 8).
    let comp = hcor::build_component()?;
    let netlist = synthesize(&comp, &SynthOptions::default())?;
    println!("{}", ComponentReport::for_component(&netlist));
    println!("\ngate histogram:\n{}", histogram_table(&netlist));

    // 2. Simulate the captured description, recording a testbench trace.
    let bits = hcor::test_pattern(24, 7);
    let mut golden = Traced::new(InterpSim::new(hcor::build_system()?)?);
    hcor::run_detection(&mut golden, &bits, 15)?;

    // 3. Generate HDL and the self-checking testbench from the trace.
    let system = golden.inner().system();
    let vhdl_src = vhdl::system_source(system)?;
    let tb = testbench::vhdl_testbench("hcor", golden.trace())?;
    println!(
        "generated VHDL: {} lines, testbench: {} lines ({} cycles)",
        vhdl_src.lines().count(),
        tb.lines().count(),
        golden.trace().len()
    );

    // 3b. Write the hand-off project to disk, as the original flow did
    //     for the Synopsys/Cathedral tools.
    let dir = std::path::Path::new("target/generated/hcor");
    let manifest = project::write_vhdl_project(system, Some(golden.trace()), dir)?;
    println!(
        "wrote {} VHDL files to {}: {:?}",
        manifest.files.len(),
        dir.display(),
        manifest.files
    );

    // 3c. Write the gate-level netlist itself — the artifact Figure 8
    //     hands to the foundry flow — and prove the file is lossless by
    //     parsing it back.
    let gates_v = emit::verilog_netlist(&netlist.name, &netlist.netlist);
    std::fs::write(dir.join("hcor_gates.v"), &gates_v)?;
    std::fs::write(
        dir.join("hcor_gates.vhd"),
        emit::vhdl_netlist(&netlist.name, &netlist.netlist),
    )?;
    let reimported = parse::verilog_netlist(&gates_v)?;
    println!(
        "wrote gate-level netlist ({} lines); re-import: {} gates, {} FF",
        gates_v.lines().count(),
        reimported.netlist.combinational_count(),
        reimported.netlist.dff_count()
    );

    // 4. Re-simulate the synthesized netlist and compare cycle for cycle.
    let mut gates = GateSystemSim::new(hcor::build_system()?, &SynthOptions::default())?;
    gates.set_input("enable", Value::Bool(true))?;
    gates.set_input("threshold", Value::bits(5, 15))?;
    let mut golden2 = InterpSim::new(hcor::build_system()?)?;
    golden2.set_input("enable", Value::Bool(true))?;
    golden2.set_input("threshold", Value::bits(5, 15))?;
    let mut mismatches = 0;
    for b in &bits {
        for sim in [
            &mut golden2 as &mut dyn Simulator,
            &mut gates as &mut dyn Simulator,
        ] {
            sim.set_input("bit_in", Value::Bool(*b))?;
            sim.step()?;
        }
        for out in ["corr", "detect", "sync_pos"] {
            if golden2.output(out)? != gates.output(out)? {
                mismatches += 1;
            }
        }
    }
    println!(
        "gate-level vs captured description over {} cycles: {} mismatches",
        bits.len(),
        mismatches
    );
    assert_eq!(mismatches, 0);
    println!("synthesis verified: netlist is cycle-exact with the source");
    Ok(())
}
