//! VHDL printing.
//!
//! Each timed component becomes one entity with the paper's
//! controller/datapath split (§6, Figure 8):
//!
//! * a **controller** process: state register plus transition selection,
//!   producing a one-hot `sel` vector of active SFGs and the next state;
//! * a **datapath**: dataflow-style concurrent assignments, one per named
//!   net, with per-output and per-register selection muxes;
//! * a **sequential** process committing state, registers and output-hold
//!   values on the rising clock edge.
//!
//! This printer prints the [`Module`] of each component and the system's
//! [`Top`] from [`ocapi_rtl::ast`], the structure the RT kernel elaborates
//! too. Its modules are built with [`Sharing::ReusedAndSelects`]: a cone
//! node gets its own signal when it is a non-leaf node used twice or any
//! select.
//!
//! FSM guards read *registered* copies of the inputs that
//! [`ocapi::System::guard_held_inputs`] names ("the conditions are stored
//! in registers inside the signal flow graphs", §3), so the generated
//! controllers select the same SFGs in the same cycles as both simulators.
//! The arithmetic is not bit-exact with them. Every cast whose rounding
//! mode is not `Truncate` is printed as add-half, then arithmetic shift,
//! so ties go toward +∞, while `ocapi_fixp` rounds `Nearest` ties away
//! from zero: a mantissa of −2 shifted right by 2 gives −1 in the
//! simulators and 0 here. `NearestEven`, `Ceil` and `TowardZero` differ
//! further. DECT's error datapath and the image quantiser cast with
//! `Nearest`.

use std::fmt::Write as _;

use ocapi::{BinOp, Component, NetSource, SigType, System, UnOp, Value};
use ocapi_fixp::{Overflow, Rounding};
use ocapi_rtl::ast::{Expr, ExprKind, Module, Net, NetKind, Reset, Sharing, Top, Var};

use crate::ident::vhdl as sanitize;
use crate::{list, CodegenError};

/// The clock and reset ports every entity opens with.
const CLOCKS: [&str; 2] = ["clk : in std_logic", "rst : in std_logic"];

/// The library clauses every design unit opens with.
const IEEE: &str = "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n";

/// The support package with fixed-point helpers, emitted once per design.
pub(crate) fn package_source() -> String {
    r#"library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package ocapi_pkg is
  function b2sl(b : boolean) return std_logic;
  function fx_cast(x : signed; sh : integer; wl : natural;
                   rnd : natural; sat : natural) return signed;
end package;

package body ocapi_pkg is
  function b2sl(b : boolean) return std_logic is
  begin
    if b then return '1'; else return '0'; end if;
  end function;

  -- Quantise x by shifting right sh bits (rounding per rnd: 0=truncate,
  -- 1=nearest) and fitting into wl bits (sat: 0=wrap, 1=saturate).
  function fx_cast(x : signed; sh : integer; wl : natural;
                   rnd : natural; sat : natural) return signed is
    variable v : signed(x'length downto 0);
    variable r : signed(wl - 1 downto 0);
    constant hi : signed(x'length downto 0) :=
      to_signed(2 ** (wl - 1) - 1, x'length + 1);
    constant lo : signed(x'length downto 0) :=
      to_signed(-(2 ** (wl - 1)), x'length + 1);
  begin
    v := resize(x, x'length + 1);
    if sh > 0 then
      if rnd = 1 then
        v := v + to_signed(2 ** (sh - 1), x'length + 1);
      end if;
      v := shift_right(v, sh);
    elsif sh < 0 then
      v := shift_left(v, -sh);
    end if;
    if sat = 1 then
      if v > hi then v := hi; elsif v < lo then v := lo; end if;
    end if;
    r := resize(v, wl);
    return r;
  end function;
end package body;
"#
    .to_owned()
}

pub(crate) fn ty(t: SigType) -> String {
    match t {
        SigType::Bool => "std_logic".to_owned(),
        SigType::Bits(w) => format!("unsigned({} downto 0)", w - 1),
        SigType::Fixed(f) => format!("signed({} downto 0)", f.wl() - 1),
        SigType::Float => "real".to_owned(), // rejected earlier
    }
}

fn zero(t: SigType) -> String {
    match t {
        SigType::Bool => "'0'".to_owned(),
        SigType::Bits(_) | SigType::Fixed(_) => "(others => '0')".to_owned(),
        SigType::Float => "0.0".to_owned(),
    }
}

pub(crate) fn literal(v: &Value) -> String {
    match v {
        Value::Bool(b) => if *b { "'1'" } else { "'0'" }.to_owned(),
        Value::Bits { width, bits } => format!("to_unsigned({bits}, {width})"),
        Value::Fixed(f) => format!("to_signed({}, {})", f.mantissa(), f.format().wl()),
        Value::Float(x) => format!("{x:?}"),
    }
}

/// Fixed-point alignment: resize to `wl` bits then shift left by `sh`.
fn align(inner: &str, wl: u32, sh: u32) -> String {
    if sh == 0 {
        format!("resize({inner}, {wl})")
    } else {
        format!("shift_left(resize({inner}, {wl}), {sh})")
    }
}

/// Prints the expressions of one module.
struct Printer<'a> {
    m: &'a Module,
    /// The state names; empty without a controller.
    states: &'a [String],
}

impl Printer<'_> {
    fn var(&self, v: Var) -> String {
        self.m.var_name(v, sanitize)
    }

    fn net(&self, net: &Net) -> String {
        match &net.label {
            Some(l) => format!("{}_{}", net.name(), sanitize(l)),
            None => net.name(),
        }
    }

    fn expr(&self, e: &Expr) -> String {
        match &e.kind {
            ExprKind::Const(v) => literal(v),
            ExprKind::Var(v) => self.var(*v),
            ExprKind::Net(k) => self.net(&self.m.nets[*k]),
            ExprKind::Un(op, a) => self.un(*op, a, e.ty),
            ExprKind::Bin(op, a, b) => self.bin(*op, a, b, e.ty),
            ExprKind::Select { .. } => unreachable!("the VHDL rule names every select"),
        }
    }

    fn un(&self, op: UnOp, a: &Expr, out_ty: SigType) -> String {
        let x = self.expr(a);
        let a_ty = a.ty;
        match op {
            UnOp::Not => format!("(not {x})"),
            UnOp::Neg => match a_ty {
                SigType::Fixed(f) => {
                    let wl = match out_ty {
                        SigType::Fixed(of) => of.wl(),
                        _ => f.wl() + 1,
                    };
                    format!("(-resize({x}, {wl}))")
                }
                SigType::Bits(w) => format!("(to_unsigned(0, {w}) - {x})"),
                _ => format!("(-{x})"),
            },
            UnOp::Shl(n) => format!("shift_left({x}, {n})"),
            UnOp::Shr(n) => format!("shift_right({x}, {n})"),
            UnOp::Slice { lo, width } => format!("{x}({} downto {lo})", lo + width - 1),
            UnOp::ToFixed(fmt, rnd, ovf) => {
                let (src_fb, inner) = match a_ty {
                    SigType::Fixed(sf) => (sf.frac_bits() as i64, x),
                    _ => (0, x),
                };
                let sh = src_fb - fmt.frac_bits() as i64;
                let rnd = match rnd {
                    Rounding::Truncate => 0,
                    _ => 1,
                };
                let sat = match ovf {
                    Overflow::Saturate => 1,
                    Overflow::Wrap => 0,
                };
                format!("fx_cast({inner}, {sh}, {}, {rnd}, {sat})", fmt.wl())
            }
            UnOp::ToBits(w) => match a_ty {
                SigType::Bool => format!("(to_unsigned(0, {}) & {x})", w - 1),
                SigType::Bits(_) => format!("resize({x}, {w})"),
                SigType::Fixed(_) => format!("unsigned(resize({x}, {w}))"),
                SigType::Float => x,
            },
            UnOp::ToFloat => x,
            UnOp::ToBool => match a_ty {
                SigType::Bool => x,
                _ => format!("b2sl({x} /= 0)"),
            },
        }
    }

    fn bin(&self, op: BinOp, a: &Expr, b: &Expr, out_ty: SigType) -> String {
        let (xa, xb) = (self.expr(a), self.expr(b));
        let (ta, tb) = (a.ty, b.ty);
        let arith = |sym: &str| -> String {
            match (ta, tb, out_ty) {
                (SigType::Bits(_), SigType::Bits(_), _) => {
                    if op == BinOp::Mul {
                        format!(
                            "resize({xa} * {xb}, {})",
                            match out_ty {
                                SigType::Bits(w) => w,
                                _ => 0,
                            }
                        )
                    } else {
                        format!("({xa} {sym} {xb})")
                    }
                }
                (SigType::Fixed(fa), SigType::Fixed(fb), SigType::Fixed(fo)) => {
                    if op == BinOp::Mul {
                        format!("resize({xa} * {xb}, {})", fo.wl())
                    } else {
                        let fb_o = fo.frac_bits();
                        let la = align(&xa, fo.wl(), fb_o - fa.frac_bits());
                        let lb = align(&xb, fo.wl(), fb_o - fb.frac_bits());
                        format!("({la} {sym} {lb})")
                    }
                }
                _ => format!("({xa} {sym} {xb})"),
            }
        };
        match op {
            BinOp::Add => arith("+"),
            BinOp::Sub => arith("-"),
            BinOp::Mul => arith("*"),
            BinOp::And => format!("({xa} and {xb})"),
            BinOp::Or => format!("({xa} or {xb})"),
            BinOp::Xor => format!("({xa} xor {xb})"),
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let sym = match op {
                    BinOp::Eq => "=",
                    BinOp::Ne => "/=",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    _ => ">=",
                };
                match (ta, tb) {
                    (SigType::Fixed(fa), SigType::Fixed(fb2)) => {
                        let fb_c = fa.frac_bits().max(fb2.frac_bits());
                        let wl = fa.wl().max(fb2.wl()) + 1;
                        let la = align(&xa, wl, fb_c - fa.frac_bits());
                        let lb = align(&xb, wl, fb_c - fb2.frac_bits());
                        format!("b2sl({la} {sym} {lb})")
                    }
                    _ => format!("b2sl({xa} {sym} {xb})"),
                }
            }
        }
    }

    /// The concurrent assignments of the `kind` nets, in node order.
    fn assignments(&self, out: &mut String, kind: NetKind) {
        for net in self.m.nets.iter().filter(|n| n.kind == kind) {
            let name = self.net(net);
            let _ = match &net.expr.kind {
                ExprKind::Select {
                    cond,
                    then,
                    otherwise,
                } => writeln!(
                    out,
                    "  {name} <= {} when {} = '1' else {};",
                    self.expr(then),
                    self.expr(cond),
                    self.expr(otherwise)
                ),
                _ => writeln!(out, "  {name} <= {};", self.expr(&net.expr)),
            };
        }
    }

    fn state(&self, s: usize) -> String {
        format!("st_{}", sanitize(&self.states[s]))
    }
}

/// Generates the VHDL entity and architecture for one timed component.
///
/// FSM guards sample input ports directly (external pins are stable at
/// the cycle start, like the DECT `hold_request` pin). When an input that
/// feeds a guard is driven by another component's combinational output,
/// pass its index in `held` so the guard reads a registered copy;
/// [`system_source`] passes [`System::guard_held_inputs`]. This
/// reproduces the cycle scheduler's phase-0 semantics exactly.
///
/// # Errors
///
/// Returns [`CodegenError::FloatNotSynthesizable`] if the component uses
/// float signals.
pub fn component_source(comp: &Component, held: &[usize]) -> Result<String, CodegenError> {
    module_source(&Module::new(comp, held, Sharing::ReusedAndSelects))
}

/// Prints one module as an entity and its architecture.
fn module_source(m: &Module) -> Result<String, CodegenError> {
    crate::synthesizable(m)?;
    let states = m.controller.as_ref().map_or(&[][..], |c| &c.states);
    let p = Printer { m, states };
    let mut out = String::new();
    let name = sanitize(&m.name);

    out.push_str(IEEE);
    let _ = writeln!(out, "use work.ocapi_pkg.all;\n");
    let _ = writeln!(out, "entity {name} is");
    let _ = writeln!(out, "  port (");
    let ports = (m.inputs.iter().map(|q| (q, "in")))
        .chain(m.outputs.iter().map(|q| (q, "out")))
        .map(|(q, dir)| format!("{} : {dir} {}", sanitize(&q.name), ty(q.ty)));
    list(
        &mut out,
        "    ",
        ";",
        CLOCKS.map(String::from).into_iter().chain(ports),
    );
    let _ = writeln!(out, "\n  );");
    let _ = writeln!(out, "end entity;\n");
    let _ = writeln!(out, "architecture rtl of {name} is");

    // Declarations.
    if m.controller.is_some() {
        let names: Vec<String> = (0..states.len()).map(|s| p.state(s)).collect();
        let _ = writeln!(out, "  type state_t is ({});", names.join(", "));
        let _ = writeln!(out, "  signal state, state_next : state_t;");
    }
    if m.sel_width > 0 {
        let top = m.sel_width - 1;
        let _ = writeln!(out, "  signal sel : std_logic_vector({top} downto 0);");
    }
    let regs = (0..m.regs.len()).map(|r| vec![Var::Reg(r), Var::Next(r)]);
    let outputs = (0..m.outputs.len()).map(|o| vec![Var::Int(o), Var::Hold(o)]);
    let held = m.held.iter().map(|&h| vec![Var::Held(h)]);
    for vars in regs.chain(outputs).chain(held) {
        let names: Vec<String> = vars.iter().map(|v| p.var(*v)).collect();
        let t = ty(m.ty(vars[0]));
        let _ = writeln!(out, "  signal {} : {t};", names.join(", "));
    }
    for kind in [NetKind::Datapath, NetKind::Guard] {
        for net in m.nets.iter().filter(|n| n.kind == kind) {
            let _ = writeln!(out, "  signal {} : {};", p.net(net), ty(net.expr.ty));
        }
    }

    let _ = writeln!(out, "begin");

    // Controller process.
    if let Some(c) = &m.controller {
        let _ = writeln!(out, "\n  -- controller: transition selection");
        let _ = writeln!(out, "  ctrl : process (all)");
        let _ = writeln!(out, "  begin");
        let _ = writeln!(out, "    state_next <= state;");
        let _ = writeln!(out, "    sel <= (others => '0');");
        let _ = writeln!(out, "    case state is");
        for (s, transitions) in c.transitions.iter().enumerate() {
            let _ = writeln!(out, "      when {} =>", p.state(s));
            if transitions.is_empty() {
                let _ = writeln!(out, "        null;");
                continue;
            }
            for (k, t) in transitions.iter().enumerate() {
                let mut body = String::new();
                for a in &t.selects {
                    let _ = writeln!(body, "          sel({a}) <= '1';");
                }
                let _ = writeln!(body, "          state_next <= {};", p.state(t.to));
                match &t.guard {
                    Some(g) => {
                        let kw = if k == 0 { "if" } else { "elsif" };
                        let _ = writeln!(out, "        {kw} {} = '1' then", p.expr(g));
                        out.push_str(&body);
                    }
                    None if k == 0 => out.push_str(&body),
                    None => {
                        let _ = writeln!(out, "        else");
                        out.push_str(&body);
                        let _ = writeln!(out, "        end if;");
                    }
                }
            }
            if transitions.last().is_some_and(|t| t.guard.is_some()) {
                let _ = writeln!(out, "        end if;");
            }
        }
        let _ = writeln!(out, "    end case;");
        let _ = writeln!(out, "  end process;");
        p.assignments(&mut out, NetKind::Guard);
    } else if m.sel_width > 0 {
        let _ = writeln!(out, "\n  sel <= (others => '1'); -- no FSM: all SFGs run");
    }

    // Datapath: named nets, then the output and register muxes.
    let _ = writeln!(out, "\n  -- datapath");
    p.assignments(&mut out, NetKind::Datapath);
    for mux in &m.muxes {
        let target = p.var(mux.target);
        let mut rhs = String::new();
        for (k, e) in &mux.arms {
            let _ = write!(rhs, "{} when sel({k}) = '1' else ", p.expr(e));
        }
        let _ = writeln!(out, "  {target} <= {rhs}{};", p.var(mux.default));
        if let Var::Int(o) = mux.target {
            let _ = writeln!(out, "  {} <= {target};", sanitize(&m.outputs[o].name));
        }
    }

    // Sequential process.
    let _ = writeln!(out, "\n  -- registers");
    let _ = writeln!(out, "  seq : process (clk)");
    let _ = writeln!(out, "  begin");
    let _ = writeln!(out, "    if rising_edge(clk) then");
    let _ = writeln!(out, "      if rst = '1' then");
    for c in &m.commits {
        let reset = match &c.reset {
            Reset::Value(v) => literal(v),
            Reset::State(s) => p.state(*s),
            Reset::Zero => zero(m.ty(c.target)),
        };
        let _ = writeln!(out, "        {} <= {reset};", p.var(c.target));
    }
    let _ = writeln!(out, "      else");
    for c in &m.commits {
        let _ = writeln!(out, "        {} <= {};", p.var(c.target), p.var(c.source));
    }
    let _ = writeln!(out, "      end if;");
    let _ = writeln!(out, "    end if;");
    let _ = writeln!(out, "  end process;");
    let _ = writeln!(out, "\nend architecture;");
    Ok(out)
}

/// Generates the complete VHDL for a system: the support package, one
/// entity per timed component, a model per memory block, black-box
/// declarations for the other untimed blocks and a structural top-level
/// entity.
///
/// # Errors
///
/// Returns [`CodegenError::FloatNotSynthesizable`] if any component uses
/// float signals, [`CodegenError::HeldGuardConflict`] if instances of
/// one component disagree on which guard inputs are held, and
/// [`CodegenError::ComponentConflict`] if two different components share
/// a name.
pub fn system_source(sys: &System) -> Result<String, CodegenError> {
    let mut out = package_source();
    for (_, text) in entities(sys)? {
        out.push('\n');
        out.push_str(&text);
    }
    Ok(out)
}

/// The design units of `sys` in compilation order, each with the name of
/// the entity it declares: one per component, one per memory block, and
/// the top level.
pub(crate) fn entities(sys: &System) -> Result<Vec<(String, String)>, CodegenError> {
    let top = crate::top(sys, Sharing::ReusedAndSelects)?;
    let mut units = Vec::new();
    for m in crate::modules(&top) {
        units.push((sanitize(&m.name), module_source(m)?));
    }
    for (name, spec) in crate::memories(&top) {
        units.push((sanitize(name), memory_model(name, spec)));
    }
    units.push((format!("{}_top", sanitize(&top.name)), top_source(&top)));
    Ok(units)
}

/// Generates a behavioural VHDL model for a RAM/ROM block: asynchronous
/// read, write on the rising clock edge (matching the cycle scheduler's
/// "write visible from the next firing" semantics).
fn memory_model(name: &str, spec: &ocapi::MemorySpec) -> String {
    let mut out = String::new();
    let name = sanitize(name);
    let word_ty = ty(spec.word);
    let depth = 1usize << spec.addr_bits;
    let _ = writeln!(out, "{IEEE}");
    let _ = writeln!(out, "entity {name} is");
    let _ = writeln!(out, "  port (");
    if spec.is_rom {
        let _ = writeln!(
            out,
            "    addr : in unsigned({} downto 0);",
            spec.addr_bits - 1
        );
        let _ = writeln!(out, "    data : out {word_ty}");
    } else {
        let _ = writeln!(out, "    clk : in std_logic;");
        let _ = writeln!(
            out,
            "    addr : in unsigned({} downto 0);",
            spec.addr_bits - 1
        );
        let _ = writeln!(out, "    we : in std_logic;");
        let _ = writeln!(out, "    wdata : in {word_ty};");
        let _ = writeln!(out, "    rdata : out {word_ty}");
    }
    let _ = writeln!(out, "  );");
    let _ = writeln!(out, "end entity;\n");
    let _ = writeln!(out, "architecture behavioural of {name} is");
    let _ = writeln!(
        out,
        "  type mem_t is array (0 to {}) of {word_ty};",
        depth - 1
    );
    // Initial contents: skip trailing zeros for brevity.
    let zero = spec.word.zero();
    let last_nz = spec
        .contents
        .iter()
        .rposition(|v| *v != zero)
        .map_or(0, |i| i + 1);
    let _ = writeln!(out, "  signal mem : mem_t := (");
    for (i, v) in spec.contents.iter().take(last_nz).enumerate() {
        let _ = writeln!(out, "    {i} => {},", literal(v));
    }
    let _ = writeln!(out, "    others => {}", literal(&zero));
    let _ = writeln!(out, "  );");
    let _ = writeln!(out, "begin");
    if spec.is_rom {
        let _ = writeln!(out, "  data <= mem(to_integer(addr));");
    } else {
        let _ = writeln!(out, "  rdata <= mem(to_integer(addr));");
        let _ = writeln!(out, "  write : process (clk)");
        let _ = writeln!(out, "  begin");
        let _ = writeln!(out, "    if rising_edge(clk) and we = '1' then");
        let _ = writeln!(out, "      mem(to_integer(addr)) <= wdata;");
        let _ = writeln!(out, "    end if;");
        let _ = writeln!(out, "  end process;");
    }
    let _ = writeln!(out, "end architecture;");
    out
}

/// Prints the structural top-level entity.
fn top_source(top: &Top) -> String {
    let mut out = String::new();
    let name = sanitize(&top.name);
    let _ = writeln!(out, "{IEEE}");
    let _ = writeln!(out, "entity {name}_top is");
    let _ = writeln!(out, "  port (");
    let inputs = top
        .inputs
        .iter()
        .map(|q| format!("{} : in {}", sanitize(&q.name), ty(q.ty)));
    let outputs = top
        .outputs
        .iter()
        .map(|q| format!("{} : out {}", sanitize(&q.name), ty(top.nets[q.net].ty)));
    let ports = CLOCKS
        .map(String::from)
        .into_iter()
        .chain(inputs)
        .chain(outputs);
    list(&mut out, "    ", ";", ports);
    let _ = writeln!(out, "\n  );");
    let _ = writeln!(out, "end entity;\n");
    let _ = writeln!(out, "architecture structural of {name}_top is");
    for (i, n) in top.nets.iter().enumerate() {
        let _ = writeln!(out, "  signal net{} : {}; -- {}", i, ty(n.ty), n.name);
    }
    // Component declarations for the black boxes; a memory's entity is
    // generated.
    for b in top.blocks.iter().filter(|b| b.memory.is_none()) {
        let _ = writeln!(out, "  component {} is", sanitize(&b.name));
        let _ = writeln!(out, "    port (");
        let ports = (b.inputs.iter().map(|(q, _)| (q, "in")))
            .chain(b.outputs.iter().map(|(q, _)| (q, "out")))
            .map(|(q, dir)| format!("{} : {dir} {}", sanitize(&q.name), ty(q.ty)));
        list(&mut out, "      ", ";", ports);
        let _ = writeln!(out, "\n    );");
        let _ = writeln!(
            out,
            "  end component; -- behavioural model supplied separately"
        );
    }
    let _ = writeln!(out, "begin");
    for (i, n) in top.nets.iter().enumerate() {
        let source = match &n.source {
            NetSource::Constant(v) => literal(v),
            NetSource::PrimaryInput(pi) => sanitize(&top.inputs[*pi].name),
            _ => continue,
        };
        let _ = writeln!(out, "  net{i} <= {source};");
    }
    let bind = |name: &str, net: Option<usize>| match net {
        Some(n) => format!("{} => net{n}", sanitize(name)),
        None => format!("{} => open", sanitize(name)),
    };
    for inst in &top.instances {
        let (m, label) = (&inst.module, sanitize(&inst.name));
        let _ = writeln!(out, "  {label} : entity work.{}", sanitize(&m.name));
        let _ = writeln!(out, "    port map (");
        let inputs = (m.inputs.iter().zip(&inst.inputs)).map(|(q, n)| bind(&q.name, Some(*n)));
        let outputs = (m.outputs.iter().zip(&inst.outputs)).map(|(q, n)| bind(&q.name, *n));
        let ports = ["clk => clk", "rst => rst"].map(String::from).into_iter();
        list(&mut out, "      ", ",", ports.chain(inputs).chain(outputs));
        let _ = writeln!(out, "\n    );");
    }
    for b in &top.blocks {
        let name = sanitize(&b.name);
        let _ = match b.memory {
            Some(_) => writeln!(out, "  {name}_i : entity work.{name}"),
            None => writeln!(out, "  {name}_i : {name}"),
        };
        let _ = writeln!(out, "    port map (");
        let ram = matches!(&b.memory, Some(m) if !m.is_rom);
        let inputs = b.inputs.iter().map(|(q, n)| bind(&q.name, Some(*n)));
        let outputs = b.outputs.iter().map(|(q, n)| bind(&q.name, *n));
        let ports = ram.then(|| "clk => clk".to_owned()).into_iter();
        list(&mut out, "      ", ",", ports.chain(inputs).chain(outputs));
        let _ = writeln!(out, "\n    );");
    }
    for q in &top.outputs {
        let _ = writeln!(out, "  {} <= net{};", sanitize(&q.name), q.net);
    }
    let _ = writeln!(out, "end architecture;");
    out
}
