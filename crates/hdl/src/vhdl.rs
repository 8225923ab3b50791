//! VHDL code generation.
//!
//! Each timed component becomes one entity with the paper's
//! controller/datapath split (§6, Figure 8):
//!
//! * a **controller** process: state register plus transition selection,
//!   producing a one-hot `sel` vector of active SFGs and the next state;
//! * a **datapath**: dataflow-style concurrent assignments, one per shared
//!   expression node, with per-output and per-register selection muxes;
//! * a **sequential** process committing state, registers and output-hold
//!   values on the rising clock edge.
//!
//! The structure comes from [`ocapi_rtl::ComponentPlan`], which the RT
//! kernel's lowering builds from too. This writer gives a cone node its
//! own signal when it is a non-leaf node used twice or any select.
//!
//! FSM guards read *registered* copies of the inputs that
//! [`System::guard_held_inputs`] names ("the conditions are stored in
//! registers inside the signal flow graphs", §3), which makes the
//! generated hardware cycle-exact with both simulators.

use std::fmt::Write as _;

use ocapi::{BinOp, UnOp};
use ocapi::{Component, NodeId, NodeKind, SigType, System, Value};
use ocapi_fixp::{Overflow, Rounding};
use ocapi_rtl::Cone;

use crate::CodegenError;

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

struct Emitter<'a> {
    comp: &'a Component,
    /// Nodes that get their own signal + concurrent assignment.
    shared: Vec<bool>,
    /// Input ports read through their registered (`_held`) copy — the
    /// held guard inputs, for guard cones.
    held: &'a [usize],
    /// Signal-name prefix (`n` for the datapath, `g` for guard cones).
    prefix: &'static str,
}

impl<'a> Emitter<'a> {
    /// The VHDL sharing rule: a non-leaf node used twice, or any select,
    /// gets its own signal.
    fn new(
        comp: &'a Component,
        cone: &Cone,
        held: &'a [usize],
        prefix: &'static str,
    ) -> Emitter<'a> {
        let shared = comp
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                cone.ops[i] && (cone.uses[i] > 1 || matches!(node.kind, NodeKind::Select { .. }))
            })
            .collect();
        Emitter {
            comp,
            shared,
            held,
            prefix,
        }
    }

    fn sig_name(&self, id: NodeId) -> String {
        let node = &self.comp.nodes[id.index()];
        match node.name.as_deref() {
            Some(n) => format!("{}{}_{}", self.prefix, id.index(), sanitize(n)),
            None => format!("{}{}", self.prefix, id.index()),
        }
    }

    fn expr(&self, id: NodeId) -> String {
        if self.shared[id.index()] {
            return self.sig_name(id);
        }
        self.expr_inline(id)
    }

    fn expr_inline(&self, id: NodeId) -> String {
        let node = &self.comp.nodes[id.index()];
        match &node.kind {
            NodeKind::Const(v) => literal(v),
            NodeKind::Input(p) => {
                let name = sanitize(&self.comp.inputs[p.index()].name);
                if self.held.contains(&p.index()) {
                    format!("{name}_held")
                } else {
                    name
                }
            }
            NodeKind::RegRead(r) => format!("{}_r", sanitize(&self.comp.regs[r.index()].name)),
            NodeKind::Un(op, a) => self.un(*op, *a, node.ty),
            NodeKind::Bin(op, a, b) => self.bin(*op, *a, *b, node.ty),
            NodeKind::Select { .. } => unreachable!("selects are always shared"),
        }
    }

    fn un(&self, op: UnOp, a: NodeId, out_ty: SigType) -> String {
        let x = self.expr(a);
        let a_ty = self.comp.nodes[a.index()].ty;
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

    fn bin(&self, op: BinOp, a: NodeId, b: NodeId, out_ty: SigType) -> String {
        let (xa, xb) = (self.expr(a), self.expr(b));
        let (ta, tb) = (self.comp.nodes[a.index()].ty, self.comp.nodes[b.index()].ty);
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

    /// Concurrent assignments for the shared nodes, in dependency order
    /// (node index order is topological by construction).
    fn shared_assignments(&self, out: &mut String) {
        for (i, node) in self.comp.nodes.iter().enumerate() {
            if !self.shared[i] {
                continue;
            }
            let id = NodeId::from_index(i);
            let name = self.sig_name(id);
            match &node.kind {
                NodeKind::Select {
                    cond,
                    then,
                    otherwise,
                } => {
                    let _ = writeln!(
                        out,
                        "  {name} <= {} when {} = '1' else {};",
                        self.expr(*then),
                        self.expr(*cond),
                        self.expr(*otherwise)
                    );
                }
                _ => {
                    let _ = writeln!(out, "  {name} <= {};", self.expr_inline(id));
                }
            }
        }
    }

    /// The value of the first selected SFG's driver, else `default`.
    fn select(&self, drivers: &[(usize, NodeId)], default: &str) -> String {
        let mut rhs = String::new();
        for (si, node) in drivers {
            let _ = write!(rhs, "{} when sel({si}) = '1' else ", self.expr(*node));
        }
        rhs + default
    }

    fn shared_declarations(&self, out: &mut String) {
        for (i, node) in self.comp.nodes.iter().enumerate() {
            if self.shared[i] {
                let _ = writeln!(
                    out,
                    "  signal {} : {};",
                    self.sig_name(NodeId::from_index(i)),
                    ty(node.ty)
                );
            }
        }
    }
}

fn sanitize(name: &str) -> String {
    crate::ident::vhdl(name)
}

/// Generates the VHDL entity and architecture for one timed component.
///
/// FSM guards sample input ports directly (external pins are stable at
/// the cycle start, like the DECT `hold_request` pin). When an input that
/// feeds a guard is driven by another component's combinational output,
/// pass its index in `held_ports` so the guard reads a registered copy;
/// [`system_source`] passes [`System::guard_held_inputs`]. This
/// reproduces the cycle scheduler's phase-0 semantics exactly.
///
/// # Errors
///
/// Returns [`CodegenError::FloatNotSynthesizable`] if the component uses
/// float signals.
pub fn component_source(comp: &Component) -> Result<String, CodegenError> {
    component_source_with_held(comp, &[])
}

/// [`component_source`] with an explicit set of guard inputs that must be
/// registered (see there).
///
/// # Errors
///
/// Returns [`CodegenError::FloatNotSynthesizable`] if the component uses
/// float signals.
pub fn component_source_with_held(
    comp: &Component,
    held_ports: &[usize],
) -> Result<String, CodegenError> {
    let (plan, held) = crate::plan(comp, held_ports)?;
    let mut out = String::new();
    let name = sanitize(&comp.name);

    let _ = writeln!(out, "library ieee;");
    let _ = writeln!(out, "use ieee.std_logic_1164.all;");
    let _ = writeln!(out, "use ieee.numeric_std.all;");
    let _ = writeln!(out, "use work.ocapi_pkg.all;\n");
    let _ = writeln!(out, "entity {name} is");
    let _ = writeln!(out, "  port (");
    let _ = writeln!(out, "    clk : in std_logic;");
    let _ = write!(out, "    rst : in std_logic");
    for p in &comp.inputs {
        let _ = write!(out, ";\n    {} : in {}", sanitize(&p.name), ty(p.ty));
    }
    for p in &comp.outputs {
        let _ = write!(out, ";\n    {} : out {}", sanitize(&p.name), ty(p.ty));
    }
    let _ = writeln!(out, "\n  );");
    let _ = writeln!(out, "end entity;\n");
    let _ = writeln!(out, "architecture rtl of {name} is");

    let n_sfgs = comp.sfgs.len();

    let dp = Emitter::new(comp, &plan.datapath, &[], "n");
    let guards = Emitter::new(comp, &plan.guards, &held, "g");

    // Declarations.
    if let Some(fsm) = &comp.fsm {
        let states: Vec<String> = fsm
            .states
            .iter()
            .map(|s| format!("st_{}", sanitize(s)))
            .collect();
        let _ = writeln!(out, "  type state_t is ({});", states.join(", "));
        let _ = writeln!(out, "  signal state, state_next : state_t;");
    }
    if n_sfgs > 0 {
        let _ = writeln!(
            out,
            "  signal sel : std_logic_vector({} downto 0);",
            n_sfgs - 1
        );
    }
    for r in &comp.regs {
        let n = sanitize(&r.name);
        let _ = writeln!(out, "  signal {n}_r, {n}_next : {};", ty(r.ty));
    }
    for p in &comp.outputs {
        let n = sanitize(&p.name);
        let _ = writeln!(out, "  signal {n}_int, {n}_hold : {};", ty(p.ty));
    }
    for p in &held {
        let decl = &comp.inputs[*p];
        let _ = writeln!(
            out,
            "  signal {}_held : {};",
            sanitize(&decl.name),
            ty(decl.ty)
        );
    }
    dp.shared_declarations(&mut out);
    guards.shared_declarations(&mut out);

    let _ = writeln!(out, "begin");

    // Controller process.
    if let Some(fsm) = &comp.fsm {
        let _ = writeln!(out, "\n  -- controller: transition selection");
        let _ = writeln!(out, "  ctrl : process (all)");
        let _ = writeln!(out, "  begin");
        let _ = writeln!(out, "    state_next <= state;");
        let _ = writeln!(out, "    sel <= (others => '0');");
        let _ = writeln!(out, "    case state is");
        for (si, sname) in fsm.states.iter().enumerate() {
            let _ = writeln!(out, "      when st_{} =>", sanitize(sname));
            let trans: Vec<_> = fsm
                .transitions
                .iter()
                .filter(|t| t.from.index() == si)
                .collect();
            if trans.is_empty() {
                let _ = writeln!(out, "        null;");
                continue;
            }
            let mut first = true;
            let mut closed = false;
            for t in &trans {
                let body = {
                    let mut b = String::new();
                    for a in &t.actions {
                        let _ = writeln!(b, "          sel({}) <= '1';", a.index());
                    }
                    let _ = writeln!(
                        b,
                        "          state_next <= st_{};",
                        sanitize(&fsm.states[t.to.index()])
                    );
                    b
                };
                match t.guard {
                    Some(g) => {
                        let cond = guards.expr(g);
                        if first {
                            let _ = writeln!(out, "        if {cond} = '1' then");
                        } else {
                            let _ = writeln!(out, "        elsif {cond} = '1' then");
                        }
                        out.push_str(&body);
                        first = false;
                    }
                    None => {
                        if first {
                            out.push_str(&body);
                        } else {
                            let _ = writeln!(out, "        else");
                            out.push_str(&body);
                            let _ = writeln!(out, "        end if;");
                        }
                        closed = true;
                        break;
                    }
                }
            }
            if !first && !closed {
                let _ = writeln!(out, "        end if;");
            }
        }
        let _ = writeln!(out, "    end case;");
        let _ = writeln!(out, "  end process;");

        // Guard shared-node assignments (held inputs).
        guards.shared_assignments(&mut out);
    } else if n_sfgs > 0 {
        let _ = writeln!(out, "\n  sel <= (others => '1'); -- no FSM: all SFGs run");
    }

    // Datapath: shared node assignments.
    let _ = writeln!(out, "\n  -- datapath");
    dp.shared_assignments(&mut out);

    // Output and register selection muxes.
    for (p, drivers) in comp.outputs.iter().zip(&plan.output_drivers) {
        let n = sanitize(&p.name);
        let rhs = dp.select(drivers, &format!("{n}_hold"));
        let _ = writeln!(out, "  {n}_int <= {rhs};");
        let _ = writeln!(out, "  {n} <= {n}_int;");
    }
    for (r, drivers) in comp.regs.iter().zip(&plan.reg_drivers) {
        let n = sanitize(&r.name);
        let rhs = dp.select(drivers, &format!("{n}_r"));
        let _ = writeln!(out, "  {n}_next <= {rhs};");
    }

    // Sequential process.
    let _ = writeln!(out, "\n  -- registers");
    let _ = writeln!(out, "  seq : process (clk)");
    let _ = writeln!(out, "  begin");
    let _ = writeln!(out, "    if rising_edge(clk) then");
    let _ = writeln!(out, "      if rst = '1' then");
    if let Some(fsm) = &comp.fsm {
        let _ = writeln!(
            out,
            "        state <= st_{};",
            sanitize(&fsm.states[fsm.initial.index()])
        );
    }
    for r in &comp.regs {
        let _ = writeln!(
            out,
            "        {}_r <= {};",
            sanitize(&r.name),
            literal(&r.init)
        );
    }
    for p in &comp.outputs {
        let _ = writeln!(out, "        {}_hold <= {};", sanitize(&p.name), zero(p.ty));
    }
    for p in &held {
        let decl = &comp.inputs[*p];
        let _ = writeln!(
            out,
            "        {}_held <= {};",
            sanitize(&decl.name),
            zero(decl.ty)
        );
    }
    let _ = writeln!(out, "      else");
    if comp.fsm.is_some() {
        let _ = writeln!(out, "        state <= state_next;");
    }
    for r in &comp.regs {
        let n = sanitize(&r.name);
        let _ = writeln!(out, "        {n}_r <= {n}_next;");
    }
    for p in &comp.outputs {
        let n = sanitize(&p.name);
        let _ = writeln!(out, "        {n}_hold <= {n}_int;");
    }
    for p in &held {
        let n = sanitize(&comp.inputs[*p].name);
        let _ = writeln!(out, "        {n}_held <= {n};");
    }
    let _ = writeln!(out, "      end if;");
    let _ = writeln!(out, "    end if;");
    let _ = writeln!(out, "  end process;");
    let _ = writeln!(out, "\nend architecture;");
    Ok(out)
}

/// Generates the complete VHDL for a system: the support package, one
/// entity per timed component, black-box declarations for untimed blocks
/// and a structural top-level entity.
///
/// # Errors
///
/// Returns [`CodegenError::FloatNotSynthesizable`] if any component uses
/// float signals, and [`CodegenError::HeldGuardConflict`] if instances of
/// one component disagree on which guard inputs are held.
pub fn system_source(sys: &System) -> Result<String, CodegenError> {
    let mut out = package_source();
    out.push('\n');
    for (comp, held) in crate::components(sys)? {
        out.push_str(&component_source_with_held(comp, &held)?);
        out.push('\n');
    }
    // Behavioural models for memory blocks (generated, not hand-written).
    for (name, spec) in crate::memories(sys) {
        out.push_str(&memory_model(name, &spec));
        out.push('\n');
    }
    out.push_str(&system_source_top_only(sys));
    Ok(out)
}

/// Generates a behavioural VHDL model for a RAM/ROM block: asynchronous
/// read, write on the rising clock edge (matching the cycle scheduler's
/// "write visible from the next firing" semantics).
pub(crate) fn memory_model(name: &str, spec: &ocapi::MemorySpec) -> String {
    let mut out = String::new();
    let name = sanitize(name);
    let word_ty = ty(spec.word);
    let depth = 1usize << spec.addr_bits;
    let _ = writeln!(out, "library ieee;");
    let _ = writeln!(out, "use ieee.std_logic_1164.all;");
    let _ = writeln!(out, "use ieee.numeric_std.all;\n");
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

/// Generates only the structural top-level entity of a system (the
/// per-component entities and the package are emitted separately by
/// [`crate::project::write_vhdl_project`]).
pub(crate) fn system_source_top_only(sys: &System) -> String {
    let mut out = String::new();
    // Top level.
    let name = sanitize(&sys.name);
    let _ = writeln!(out, "library ieee;");
    let _ = writeln!(out, "use ieee.std_logic_1164.all;");
    let _ = writeln!(out, "use ieee.numeric_std.all;\n");
    let _ = writeln!(out, "entity {name}_top is");
    let _ = writeln!(out, "  port (");
    let _ = writeln!(out, "    clk : in std_logic;");
    let _ = write!(out, "    rst : in std_logic");
    for p in &sys.primary_inputs {
        let _ = write!(out, ";\n    {} : in {}", sanitize(&p.name), ty(p.ty));
    }
    for p in &sys.primary_outputs {
        let _ = write!(
            out,
            ";\n    {} : out {}",
            sanitize(&p.name),
            ty(sys.nets[p.net].ty)
        );
    }
    let _ = writeln!(out, "\n  );");
    let _ = writeln!(out, "end entity;\n");
    let _ = writeln!(out, "architecture structural of {name}_top is");
    for (i, n) in sys.nets.iter().enumerate() {
        let _ = writeln!(out, "  signal net{} : {}; -- {}", i, ty(n.ty), n.name);
    }
    // Black-box component declarations for untimed blocks without a
    // generated model.
    for u in &sys.untimed {
        if u.block.memory_spec().is_some() {
            continue; // behavioural entity generated above
        }
        let _ = writeln!(out, "  component {} is", sanitize(u.block.name()));
        let _ = writeln!(out, "    port (");
        let mut first = true;
        for p in &u.inputs {
            let sep = if first { "      " } else { ";\n      " };
            let _ = write!(out, "{sep}{} : in {}", sanitize(&p.name), ty(p.ty));
            first = false;
        }
        for p in &u.outputs {
            let sep = if first { "      " } else { ";\n      " };
            let _ = write!(out, "{sep}{} : out {}", sanitize(&p.name), ty(p.ty));
            first = false;
        }
        let _ = writeln!(out, "\n    );");
        let _ = writeln!(
            out,
            "  end component; -- behavioural model supplied separately"
        );
    }
    let _ = writeln!(out, "begin");
    // Constant ties and primary inputs.
    for (i, n) in sys.nets.iter().enumerate() {
        match &n.source {
            ocapi::NetSource::Constant(v) => {
                let _ = writeln!(out, "  net{i} <= {};", literal(v));
            }
            ocapi::NetSource::PrimaryInput(pi) => {
                let _ = writeln!(
                    out,
                    "  net{i} <= {};",
                    sanitize(&sys.primary_inputs[*pi].name)
                );
            }
            _ => {}
        }
    }
    // Instances.
    for (ti, t) in sys.timed.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {} : entity work.{}",
            sanitize(&t.name),
            sanitize(&t.comp.name)
        );
        let _ = writeln!(out, "    port map (");
        let _ = write!(out, "      clk => clk,\n      rst => rst");
        for (pi, p) in t.comp.inputs.iter().enumerate() {
            let net = sys.timed_input_net(ti, pi);
            let _ = write!(out, ",\n      {} => net{net}", sanitize(&p.name));
        }
        for (pi, p) in t.comp.outputs.iter().enumerate() {
            match sys.timed_output_net(ti, pi) {
                Some(net) => {
                    let _ = write!(out, ",\n      {} => net{net}", sanitize(&p.name));
                }
                None => {
                    let _ = write!(out, ",\n      {} => open", sanitize(&p.name));
                }
            }
        }
        let _ = writeln!(out, "\n    );");
    }
    for (ui, u) in sys.untimed.iter().enumerate() {
        let is_mem = u.block.memory_spec();
        if is_mem.is_some() {
            let _ = writeln!(
                out,
                "  {}_i : entity work.{}",
                sanitize(u.block.name()),
                sanitize(u.block.name())
            );
        } else {
            let _ = writeln!(
                out,
                "  {}_i : {}",
                sanitize(u.block.name()),
                sanitize(u.block.name())
            );
        }
        let _ = writeln!(out, "    port map (");
        let mut first = true;
        if matches!(&is_mem, Some(m) if !m.is_rom) {
            let _ = write!(out, "      clk => clk");
            first = false;
        }
        for (pi, p) in u.inputs.iter().enumerate() {
            let net = sys.untimed_input_net(ui, pi);
            let sep = if first { "      " } else { ",\n      " };
            let _ = write!(out, "{sep}{} => net{net}", sanitize(&p.name));
            first = false;
        }
        for (pi, p) in u.outputs.iter().enumerate() {
            let sep = if first { "      " } else { ",\n      " };
            match sys.untimed_output_net(ui, pi) {
                Some(net) => {
                    let _ = write!(out, "{sep}{} => net{net}", sanitize(&p.name));
                }
                None => {
                    let _ = write!(out, "{sep}{} => open", sanitize(&p.name));
                }
            }
            first = false;
        }
        let _ = writeln!(out, "\n    );");
    }
    for p in &sys.primary_outputs {
        let _ = writeln!(out, "  {} <= net{};", sanitize(&p.name), p.net);
    }
    let _ = writeln!(out, "end architecture;");
    out
}
