//! Testbench generation from recorded simulation traces.
//!
//! "During system simulation, the system stimuli are also translated into
//! test-benches that allow to verify the synthesis result of each
//! component" (§6). Record a run by driving any simulator wrapped in
//! [`ocapi::Traced`], then emit a self-checking VHDL or Verilog
//! testbench from its trace that replays the stimuli and asserts the
//! expected responses cycle by cycle.

use std::fmt::Write as _;

use ocapi::Trace;

use crate::{verilog, vhdl, CodegenError};

/// Generates a self-checking VHDL testbench named `<dut>_tb` replaying
/// the trace against entity `work.<dut>_top`.
///
/// # Errors
///
/// Returns [`CodegenError::EmptyTrace`] if the trace has no cycles.
pub fn vhdl_testbench(dut: &str, trace: &Trace) -> Result<String, CodegenError> {
    if trace.is_empty() {
        return Err(CodegenError::EmptyTrace);
    }
    let sanitize = crate::ident::vhdl;
    let dut = sanitize(dut);
    let mut out = String::new();
    let _ = writeln!(out, "library ieee;");
    let _ = writeln!(out, "use ieee.std_logic_1164.all;");
    let _ = writeln!(out, "use ieee.numeric_std.all;\n");
    let _ = writeln!(out, "entity {dut}_tb is end entity;\n");
    let _ = writeln!(out, "architecture bench of {dut}_tb is");
    let _ = writeln!(out, "  signal clk : std_logic := '0';");
    let _ = writeln!(out, "  signal rst : std_logic := '1';");
    for s in &trace.signals {
        let _ = writeln!(out, "  signal {} : {};", sanitize(&s.name), vhdl::ty(s.ty));
    }
    let _ = writeln!(out, "begin");
    let _ = writeln!(out, "  clk <= not clk after 5 ns;");
    let _ = writeln!(out, "\n  dut : entity work.{dut}_top");
    let _ = writeln!(out, "    port map (");
    let _ = write!(out, "      clk => clk,\n      rst => rst");
    for s in &trace.signals {
        let n = sanitize(&s.name);
        let _ = write!(out, ",\n      {n} => {n}");
    }
    let _ = writeln!(out, "\n    );");
    let _ = writeln!(out, "\n  stim : process");
    let _ = writeln!(out, "  begin");
    let _ = writeln!(out, "    wait until rising_edge(clk);");
    let _ = writeln!(out, "    rst <= '0';");
    for cycle in 0..trace.len() {
        let _ = writeln!(out, "    -- cycle {cycle}");
        for s in &trace.signals {
            if s.is_input {
                let _ = writeln!(
                    out,
                    "    {} <= {};",
                    sanitize(&s.name),
                    vhdl::literal(&s.values[cycle])
                );
            }
        }
        let _ = writeln!(out, "    wait until falling_edge(clk);");
        for s in &trace.signals {
            if !s.is_input {
                let _ = writeln!(
                    out,
                    "    assert {} = {} report \"cycle {cycle}: {} mismatch\" severity error;",
                    sanitize(&s.name),
                    vhdl::literal(&s.values[cycle]),
                    s.name
                );
            }
        }
        let _ = writeln!(out, "    wait until rising_edge(clk);");
    }
    let _ = writeln!(out, "    report \"testbench done\" severity note;");
    let _ = writeln!(out, "    wait;");
    let _ = writeln!(out, "  end process;");
    let _ = writeln!(out, "end architecture;");
    Ok(out)
}

/// Generates a self-checking Verilog testbench named `<dut>_tb` replaying
/// the trace against module `<dut>_top`.
///
/// # Errors
///
/// Returns [`CodegenError::EmptyTrace`] if the trace has no cycles.
pub fn verilog_testbench(dut: &str, trace: &Trace) -> Result<String, CodegenError> {
    if trace.is_empty() {
        return Err(CodegenError::EmptyTrace);
    }
    let sanitize = crate::ident::verilog;
    let dut = sanitize(dut);
    let mut out = String::new();
    let _ = writeln!(out, "`timescale 1ns/1ps");
    let _ = writeln!(out, "module {dut}_tb;");
    let _ = writeln!(out, "  reg clk = 1'b0;");
    let _ = writeln!(out, "  reg rst = 1'b1;");
    let _ = writeln!(out, "  integer errors = 0;");
    for s in &trace.signals {
        let w = s.ty.width();
        let n = sanitize(&s.name);
        if s.is_input {
            if w == 1 {
                let _ = writeln!(out, "  reg {n};");
            } else {
                let _ = writeln!(out, "  reg [{}:0] {n};", w - 1);
            }
        } else if w == 1 {
            let _ = writeln!(out, "  wire {n};");
        } else {
            let _ = writeln!(out, "  wire [{}:0] {n};", w - 1);
        }
    }
    let _ = writeln!(out, "\n  always #5 clk = ~clk;");
    let _ = writeln!(out, "\n  {dut}_top dut (");
    let _ = write!(out, "    .clk(clk),\n    .rst(rst)");
    for s in &trace.signals {
        let n = sanitize(&s.name);
        let _ = write!(out, ",\n    .{n}({n})");
    }
    let _ = writeln!(out, "\n  );");
    let _ = writeln!(out, "\n  initial begin");
    let _ = writeln!(out, "    @(posedge clk);");
    let _ = writeln!(out, "    rst = 1'b0;");
    for cycle in 0..trace.len() {
        let _ = writeln!(out, "    // cycle {cycle}");
        for s in &trace.signals {
            if s.is_input {
                let _ = writeln!(
                    out,
                    "    {} = {};",
                    sanitize(&s.name),
                    verilog::literal(&s.values[cycle])
                );
            }
        }
        let _ = writeln!(out, "    @(negedge clk);");
        for s in &trace.signals {
            if !s.is_input {
                let n = sanitize(&s.name);
                let _ = writeln!(
                    out,
                    "    if ({n} !== {}) begin $display(\"cycle {cycle}: {n} mismatch\"); errors = errors + 1; end",
                    verilog::literal(&s.values[cycle])
                );
            }
        }
        let _ = writeln!(out, "    @(posedge clk);");
    }
    let _ = writeln!(out, "    if (errors == 0) $display(\"testbench PASSED\");");
    let _ = writeln!(
        out,
        "    else $display(\"testbench FAILED: %0d errors\", errors);"
    );
    let _ = writeln!(out, "    $finish;");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "endmodule");
    Ok(out)
}
