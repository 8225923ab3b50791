//! Tests for VHDL/Verilog code generation and testbench generation.

use ocapi::{Component, InterpSim, Ram, SigType, Simulator, System, Value};
use ocapi_hdl::{report, testbench, verilog, vhdl, CodegenError};

/// The paper's Figure 4 FSM with a small datapath.
fn fig4_component() -> Component {
    let c = Component::build("fig4");
    let eof = c.input("eof", SigType::Bool).unwrap();
    let x = c.input("x", SigType::Bits(8)).unwrap();
    let out = c.output("y", SigType::Bits(8)).unwrap();
    let acc = c.reg("acc", SigType::Bits(8)).unwrap();

    let sfg1 = c.sfg("sfg1").unwrap();
    let shared = c.read(x) + c.q(acc); // used twice -> shared node
    sfg1.drive(out, &shared).unwrap();
    sfg1.next(acc, &(shared.clone() ^ c.const_bits(8, 0xff)))
        .unwrap();

    let sfg2 = c.sfg("sfg2").unwrap();
    sfg2.drive(out, &c.const_bits(8, 0)).unwrap();

    let sfg3 = c.sfg("sfg3").unwrap();
    let muxed = c
        .read(x)
        .lt(&c.const_bits(8, 16))
        .mux(&c.read(x), &c.q(acc));
    sfg3.drive(out, &muxed).unwrap();

    let eof_s = c.read(eof);
    let f = c.fsm().unwrap();
    let s0 = f.initial("s0").unwrap();
    let s1 = f.state("s1").unwrap();
    f.from(s0).always().run(sfg1.id()).to(s1).unwrap();
    f.from(s1).when(&eof_s).run(sfg2.id()).to(s1).unwrap();
    f.from(s1).unless(&eof_s).run(sfg3.id()).to(s0).unwrap();
    c.finish().unwrap()
}

fn fig4_system() -> System {
    let mut sb = System::build("fig4sys");
    let u = sb.add_component("u0", fig4_component()).unwrap();
    sb.input("eof", SigType::Bool).unwrap();
    sb.input("x", SigType::Bits(8)).unwrap();
    sb.connect_input("eof", u, "eof").unwrap();
    sb.connect_input("x", u, "x").unwrap();
    sb.output("y", u, "y").unwrap();
    sb.finish().unwrap()
}

#[test]
fn vhdl_component_structure() {
    let src = vhdl::component_source(&fig4_component()).unwrap();
    // Entity and ports.
    assert!(src.contains("entity fig4 is"), "{src}");
    assert!(src.contains("eof : in std_logic"));
    assert!(src.contains("x : in unsigned(7 downto 0)"));
    assert!(src.contains("y : out unsigned(7 downto 0)"));
    // Controller/datapath split.
    assert!(src.contains("type state_t is (st_s0, st_s1);"));
    assert!(src.contains("ctrl : process (all)"));
    assert!(src.contains("-- datapath"));
    assert!(src.contains("seq : process (clk)"));
    // Standalone: guards read the external pin directly...
    assert!(!src.contains("eof_held"));
    // ...but with an explicit held set, a registered copy appears.
    let held = vhdl::component_source_with_held(&fig4_component(), &[0]).unwrap();
    assert!(held.contains("eof_held"));
    assert!(held.contains("eof_held <= eof;"));
    // Output hold register present.
    assert!(src.contains("y_hold"));
    // Transition selection drives sel.
    assert!(src.contains("sel(0) <= '1';"));
}

#[test]
fn vhdl_package_and_system() {
    let src = vhdl::system_source(&fig4_system()).unwrap();
    assert!(src.contains("package ocapi_pkg"));
    assert!(src.contains("entity fig4sys_top is"));
    assert!(src.contains("entity work.fig4"));
    // Primary IO routed through nets.
    assert!(src.contains("y <= net"));
}

#[test]
fn vhdl_deterministic() {
    let a = vhdl::system_source(&fig4_system()).unwrap();
    let b = vhdl::system_source(&fig4_system()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn verilog_component_structure() {
    let src = verilog::component_source(&fig4_component()).unwrap();
    assert!(src.contains("module fig4 ("), "{src}");
    assert!(src.contains("input wire eof"));
    assert!(src.contains("input wire [7:0] x"));
    assert!(src.contains("output wire [7:0] y"));
    assert!(src.contains("localparam ST_S0 = 1'd0;"));
    assert!(src.contains("always @*"));
    assert!(src.contains("always @(posedge clk)"));
    assert!(!src.contains("eof_held"));
    let held = verilog::component_source_with_held(&fig4_component(), &[0]).unwrap();
    assert!(held.contains("eof_held"));
    assert!(src.contains("endmodule"));
}

#[test]
fn verilog_system_structure() {
    let src = verilog::system_source(&fig4_system()).unwrap();
    assert!(src.contains("module fig4sys_top ("));
    assert!(src.contains("fig4 u0 ("));
    assert!(src.contains("assign y = net"));
}

#[test]
fn opaque_untimed_blocks_become_black_boxes() {
    use ocapi::{FnBlock, PortDecl};
    // A behaviour-only block (no memory spec) stays a black box; a RAM
    // gets a generated behavioural model.
    let c = Component::build("dp");
    let fb_in = c.input("fb", SigType::Bits(8)).unwrap();
    let out = c.output("o", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    let r = c.reg("r", SigType::Bits(8)).unwrap();
    s.drive(out, &c.q(r)).unwrap();
    s.next(r, &c.read(fb_in)).unwrap();
    let comp = c.finish().unwrap();

    let blk = FnBlock::new(
        "magic",
        vec![PortDecl {
            name: "a".into(),
            ty: SigType::Bits(8),
        }],
        vec![PortDecl {
            name: "y".into(),
            ty: SigType::Bits(8),
        }],
        |i, o| o[0] = i[0],
    );
    let mut sb = System::build("mixed");
    let dp = sb.add_component("dp", comp).unwrap();
    let b = sb.add_block(Box::new(blk)).unwrap();
    sb.connect(dp, "o", b, "a").unwrap();
    sb.connect(b, "y", dp, "fb").unwrap();
    sb.output("probe", dp, "o").unwrap();
    let sys = sb.finish().unwrap();

    let v = vhdl::system_source(&sys).unwrap();
    assert!(v.contains("component magic is"));
    assert!(v.contains("behavioural model supplied separately"));
    let vl = verilog::system_source(&sys).unwrap();
    assert!(vl.contains("magic magic_i ("));
    // Sanity: a Ram in a system does NOT appear as a black box.
    let _ = Ram::new("touch", 2, SigType::Bits(4));
}

#[test]
fn float_rejected() {
    let c = Component::build("floaty");
    let x = c.input("x", SigType::Float).unwrap();
    let o = c.output("o", SigType::Float).unwrap();
    let s = c.sfg("s").unwrap();
    s.drive(o, &c.read(x)).unwrap();
    let comp = c.finish().unwrap();
    assert!(matches!(
        vhdl::component_source(&comp),
        Err(CodegenError::FloatNotSynthesizable { .. })
    ));
    assert!(matches!(
        verilog::component_source(&comp),
        Err(CodegenError::FloatNotSynthesizable { .. })
    ));
}

#[test]
fn fixed_point_emission() {
    use ocapi::{Format, Overflow, Rounding};
    let fmt = Format::new(8, 4).unwrap();
    let c = Component::build("fxp");
    let a = c.input("a", SigType::Fixed(fmt)).unwrap();
    let b = c.input("b", SigType::Fixed(fmt)).unwrap();
    let o = c.output("o", SigType::Fixed(fmt)).unwrap();
    let s = c.sfg("s").unwrap();
    let sum = (c.read(a) * c.read(b)).to_fixed(fmt, Rounding::Nearest, Overflow::Saturate);
    s.drive(o, &sum).unwrap();
    let comp = c.finish().unwrap();
    let v = vhdl::component_source(&comp).unwrap();
    assert!(v.contains("signed(7 downto 0)"));
    assert!(v.contains("fx_cast("), "{v}");
    let vl = verilog::component_source(&comp).unwrap();
    assert!(vl.contains("wire signed [7:0]"));
    assert!(vl.contains(">>>"), "{vl}");
}

#[test]
fn verilog_casts_clamp_only_when_saturating() {
    use ocapi::{Format, Overflow, Rounding};
    let fmt = Format::new(8, 4).unwrap();
    let cast = |ovf| {
        let c = Component::build("cast");
        let a = c.input("a", SigType::Fixed(fmt)).unwrap();
        let o = c.output("o", SigType::Fixed(fmt)).unwrap();
        let s = c.sfg("s").unwrap();
        let sq = (c.read(a) * c.read(a)).to_fixed(fmt, Rounding::Nearest, ovf);
        s.drive(o, &sq).unwrap();
        verilog::component_source(&c.finish().unwrap()).unwrap()
    };
    // The cast wire: `wire signed [7:0] nK = ...;`, after its helper
    // wires `nK_w`, `nK_q` and `nK_s`.
    let cast_line = |src: &str| {
        src.lines()
            .find(|l| l.starts_with("  wire signed [7:0] n") && l.ends_with("_s[7:0];"))
            .map(str::to_owned)
            .unwrap_or_else(|| panic!("no cast wire in\n{src}"))
    };
    let sat = cast_line(&cast(Overflow::Saturate));
    assert!(sat.contains("_s > 17'sd127) ? 8'sd127 : "), "{sat}");
    assert!(sat.contains("_s < -17'sd128) ? -8'sd128 : "), "{sat}");
    let wrap = cast_line(&cast(Overflow::Wrap));
    assert!(
        !wrap.contains('?'),
        "a wrapping cast keeps the low bits: {wrap}"
    );
}

#[test]
fn testbenches_replay_trace() {
    let mut sim = InterpSim::new(fig4_system()).unwrap();
    sim.enable_trace();
    sim.set_input("eof", Value::Bool(false)).unwrap();
    for i in 0..4 {
        sim.set_input("x", Value::bits(8, i * 3)).unwrap();
        sim.step().unwrap();
    }
    let trace = sim.trace();

    let tb = testbench::vhdl_testbench("fig4sys", trace).unwrap();
    assert!(tb.contains("entity fig4sys_tb is end entity;"));
    assert!(tb.contains("dut : entity work.fig4sys_top"));
    assert_eq!(tb.matches("-- cycle").count(), 4);
    assert!(tb.contains("assert y ="));

    let tbv = testbench::verilog_testbench("fig4sys", trace).unwrap();
    assert!(tbv.contains("module fig4sys_tb;"));
    assert_eq!(tbv.matches("// cycle").count(), 4);
    assert!(tbv.contains("if (y !=="));
    assert!(tbv.contains("testbench PASSED"));
}

#[test]
fn empty_trace_rejected() {
    let t = ocapi::Trace::default();
    assert!(matches!(
        testbench::vhdl_testbench("x", &t),
        Err(CodegenError::EmptyTrace)
    ));
    assert!(matches!(
        testbench::verilog_testbench("x", &t),
        Err(CodegenError::EmptyTrace)
    ));
}

#[test]
fn code_size_report() {
    let sys = fig4_system();
    let dsl = "let a = 1;\nlet b = 2;\n// comment\n";
    let rep = report::CodeSizeReport::for_system(&sys, dsl).unwrap();
    assert_eq!(rep.dsl_lines, 2);
    assert!(rep.vhdl_lines > 50, "vhdl lines = {}", rep.vhdl_lines);
    assert!(rep.vhdl_ratio() > 1.0);
    let shown = rep.to_string();
    assert!(shown.contains("fig4sys"));
}

#[test]
fn memory_blocks_get_behavioural_models() {
    use ocapi::Rom;
    let c = Component::build("dp");
    let rdata = c.input("rdata", SigType::Bits(8)).unwrap();
    let data = c.input("data", SigType::Bits(4)).unwrap();
    let addr = c.output("addr", SigType::Bits(4)).unwrap();
    let we = c.output("we", SigType::Bool).unwrap();
    let wdata = c.output("wdata", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    let ptr = c.reg("ptr", SigType::Bits(4)).unwrap();
    let q = c.q(ptr);
    s.drive(addr, &q).unwrap();
    s.drive(we, &c.const_bool(true)).unwrap();
    s.drive(wdata, &(c.read(rdata) ^ c.read(data).to_bits(8)))
        .unwrap();
    s.next(ptr, &(q + c.const_bits(4, 1))).unwrap();
    let comp = c.finish().unwrap();

    let mut sb = System::build("memsys");
    let dp = sb.add_component("dp", comp).unwrap();
    let ram_b = sb
        .add_block(Box::new(Ram::new("ram", 4, SigType::Bits(8))))
        .unwrap();
    let rom_words: Vec<Value> = (0..16).map(|i| Value::bits(4, i)).collect();
    let rom_b = sb
        .add_block(Box::new(Rom::new("rom", SigType::Bits(4), rom_words)))
        .unwrap();
    sb.connect(dp, "addr", ram_b, "addr").unwrap();
    sb.connect(dp, "we", ram_b, "we").unwrap();
    sb.connect(dp, "wdata", ram_b, "wdata").unwrap();
    sb.connect(ram_b, "rdata", dp, "rdata").unwrap();
    sb.connect(dp, "addr", rom_b, "addr").unwrap();
    sb.connect(rom_b, "data", dp, "data").unwrap();
    sb.output("probe", dp, "wdata").unwrap();
    let sys = sb.finish().unwrap();

    let src = vhdl::system_source(&sys).unwrap();
    // Behavioural entities generated, not black boxes.
    assert!(src.contains("architecture behavioural of ram"), "{src}");
    assert!(src.contains("architecture behavioural of rom"));
    assert!(!src.contains("component ram is"));
    // RAM writes on the clock edge; ROM contents are initialised.
    assert!(src.contains("if rising_edge(clk) and we = '1' then"));
    assert!(src.contains("3 => to_unsigned(3, 4),"));
    // Instantiated as entities with the clock wired.
    assert!(src.contains("ram_i : entity work.ram"));
    assert!(src.contains("rom_i : entity work.rom"));
}

#[test]
fn verilog_memory_models_generated() {
    use ocapi::Rom;
    let c = Component::build("reader");
    let data = c.input("data", SigType::Bits(4)).unwrap();
    let addr = c.output("addr", SigType::Bits(3)).unwrap();
    let o = c.output("o", SigType::Bits(4)).unwrap();
    let s = c.sfg("s").unwrap();
    let ptr = c.reg("ptr", SigType::Bits(3)).unwrap();
    let q = c.q(ptr);
    s.drive(addr, &q).unwrap();
    s.drive(o, &c.read(data)).unwrap();
    s.next(ptr, &(q + c.const_bits(3, 1))).unwrap();
    let comp = c.finish().unwrap();
    let mut sb = System::build("vmem");
    let u = sb.add_component("u", comp).unwrap();
    let words: Vec<Value> = (0..8).map(|i| Value::bits(4, 15 - i)).collect();
    let rom = sb
        .add_block(Box::new(Rom::new("rom", SigType::Bits(4), words)))
        .unwrap();
    sb.connect(u, "addr", rom, "addr").unwrap();
    sb.connect(rom, "data", u, "data").unwrap();
    sb.output("o", u, "o").unwrap();
    let sys = sb.finish().unwrap();
    let src = verilog::system_source(&sys).unwrap();
    assert!(src.contains("module rom ("), "{src}");
    assert!(src.contains("mem[0] = 4'd15;"));
    assert!(src.contains("assign data = mem[addr];"));
}

/// Ports named after HDL keywords: `signal` is reserved in VHDL only,
/// `reg` in Verilog only, `case` in both.
fn reserved_name_component() -> Component {
    let c = Component::build("escapee");
    let a = c.input("signal", SigType::Bits(4)).unwrap();
    let b = c.input("reg", SigType::Bits(4)).unwrap();
    let out = c.output("case", SigType::Bits(4)).unwrap();
    let s = c.sfg("main").unwrap();
    s.drive(out, &(c.read(a) + c.read(b))).unwrap();
    c.finish().unwrap()
}

#[test]
fn vhdl_escapes_reserved_identifiers() {
    let src = vhdl::component_source(&reserved_name_component()).unwrap();
    assert!(
        src.contains("signal_esc : in unsigned(3 downto 0)"),
        "{src}"
    );
    assert!(src.contains("case_esc : out unsigned(3 downto 0)"), "{src}");
    // `reg` is not a VHDL keyword and must stay untouched.
    assert!(src.contains("reg : in unsigned(3 downto 0)"), "{src}");
    assert!(!src.contains("reg_esc"), "{src}");
}

#[test]
fn verilog_escapes_reserved_identifiers() {
    let src = verilog::component_source(&reserved_name_component()).unwrap();
    assert!(src.contains("input wire [3:0] reg_esc"), "{src}");
    assert!(src.contains("output wire [3:0] case_esc"), "{src}");
    // `signal` is not a Verilog keyword and must stay untouched.
    assert!(src.contains("input wire [3:0] signal"), "{src}");
    assert!(!src.contains("signal_esc"), "{src}");
}

#[test]
fn testbench_and_file_names_escape_reserved_words() {
    // A system named `with` (VHDL keyword) whose ports carry reserved
    // names: escaping must reach the testbench and the files.lst names.
    let c = Component::build("escapee2");
    let a = c.input("signal", SigType::Bits(4)).unwrap();
    let out = c.output("case", SigType::Bits(4)).unwrap();
    let s = c.sfg("main").unwrap();
    s.drive(out, &c.read(a)).unwrap();
    let comp = c.finish().unwrap();

    let mut sb = System::build("with");
    let u = sb.add_component("u0", comp).unwrap();
    sb.input("signal", SigType::Bits(4)).unwrap();
    sb.connect_input("signal", u, "signal").unwrap();
    sb.output("case", u, "case").unwrap();
    let sys = sb.finish().unwrap();

    let mut sim = InterpSim::new(sys).unwrap();
    sim.enable_trace();
    sim.set_input("signal", Value::bits(4, 3)).unwrap();
    sim.run(2).unwrap();

    let tb = testbench::vhdl_testbench("with", sim.trace()).unwrap();
    assert!(tb.contains("entity with_esc_tb is end entity;"), "{tb}");
    assert!(tb.contains("signal_esc <= to_unsigned(3, 4);"), "{tb}");
    let vtb = testbench::verilog_testbench("with", sim.trace()).unwrap();
    // `with` and `signal` are fine in Verilog; `case` is not.
    assert!(vtb.contains("module with_tb;"), "{vtb}");
    assert!(vtb.contains("wire [3:0] case_esc;"), "{vtb}");

    let dir = std::env::temp_dir().join(format!("ocapi_resv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest =
        ocapi_hdl::project::write_vhdl_project(sim.system(), Some(sim.trace()), &dir).unwrap();
    assert!(
        manifest.files.contains(&"with_esc_top.vhd".to_owned()),
        "{:?}",
        manifest.files
    );
    let list = std::fs::read_to_string(dir.join("files.lst")).unwrap();
    assert!(list.contains("with_esc_tb.vhd"), "{list}");
    let _ = std::fs::remove_dir_all(&dir);
}
