//! Verilog-2001 printing.
//!
//! Mirrors the VHDL printer ([`crate::vhdl`]): both print the module AST
//! of [`ocapi_rtl::ast`], which the RT kernel elaborates too. This
//! printer's modules are built with [`Sharing::Every`]: every non-leaf
//! node of a cone is an explicit wire with its own continuous assignment.
//! This pins down the width and signedness of every intermediate result,
//! so Verilog's context-determined sizing rules cannot diverge from the
//! simulator's semantics.
//!
//! Rounding-mode fidelity note: in generated Verilog, `Truncate` casts are
//! exact, and every other rounding mode is printed as add-half, then
//! arithmetic shift, so ties go toward +∞. No simulator mode rounds that
//! way: `ocapi_fixp` rounds `Nearest` ties away from zero, so negative
//! ties differ (a mantissa of −2 shifted right by 2 gives −1 in the
//! simulators and 0 here), and `NearestEven`, `Ceil` and `TowardZero`
//! differ further. Bit-exact verification against the simulators runs on
//! [`ocapi_rtl::RtlSystemSim`], which elaborates the same module AST but
//! computes with `ocapi_fixp`; no simulator reads this text back.

use std::fmt::Write as _;

use ocapi::{BinOp, Component, NetSource, SigType, System, UnOp, Value};
use ocapi_fixp::{Overflow, Rounding};
use ocapi_rtl::ast::{Expr, ExprKind, Module, NetKind, Reset, Sharing, Var};

use crate::ident::verilog as sanitize;
use crate::{list, CodegenError};

fn width(t: SigType) -> u32 {
    match t {
        SigType::Bool => 1,
        SigType::Bits(w) => w,
        SigType::Fixed(f) => f.wl(),
        SigType::Float => 64,
    }
}

fn is_signed(t: SigType) -> bool {
    matches!(t, SigType::Fixed(_))
}

/// Declares `name` of type `t` as a `kind` (`wire`, `reg`, `input wire`,
/// ...).
fn decl(kind: &str, name: &str, t: SigType) -> String {
    let w = width(t);
    if w == 1 && !is_signed(t) {
        format!("{kind} {name}")
    } else {
        let signed = if is_signed(t) { " signed" } else { "" };
        format!("{kind}{signed} [{}:0] {name}", w - 1)
    }
}

/// The clock and reset ports every module opens with.
const CLOCKS: [&str; 2] = ["input wire clk", "input wire rst"];

pub(crate) fn literal(v: &Value) -> String {
    match v {
        Value::Bool(b) => format!("1'b{}", u8::from(*b)),
        Value::Bits { width, bits } => format!("{width}'d{bits}"),
        Value::Fixed(f) => {
            let wl = f.format().wl();
            let m = f.mantissa();
            if m >= 0 {
                format!("{wl}'sd{m}")
            } else {
                format!("-{wl}'sd{}", -m)
            }
        }
        Value::Float(x) => format!("{x:?}"),
    }
}

/// Prints the wires of one module.
struct Printer<'a> {
    m: &'a Module,
    /// The state names; empty without a controller.
    states: &'a [String],
}

impl Printer<'_> {
    fn var(&self, v: Var) -> String {
        self.m.var_name(v, sanitize)
    }

    fn state(&self, s: usize) -> String {
        format!("ST_{}", sanitize(&self.states[s]).to_uppercase())
    }

    /// The name an expression is available under: a leaf or a net.
    fn name(&self, e: &Expr) -> String {
        match &e.kind {
            ExprKind::Const(v) => literal(v),
            ExprKind::Var(v) => self.var(*v),
            ExprKind::Net(k) => self.m.nets[*k].name(),
            _ => unreachable!("the Verilog rule names every operation"),
        }
    }

    /// The wire definitions of the `kind` nets, in node order.
    fn emit(&self, out: &mut String, kind: NetKind) {
        for net in self.m.nets.iter().filter(|n| n.kind == kind) {
            let (e, nm) = (&net.expr, net.name());
            let rhs = match &e.kind {
                ExprKind::Un(op, a) => self.un(out, &nm, *op, a),
                ExprKind::Bin(op, a, b) => self.bin(out, &nm, *op, a, b, e.ty),
                ExprKind::Select {
                    cond,
                    then,
                    otherwise,
                } => {
                    let (c, t) = (self.name(cond), self.name(then));
                    format!("{c} ? {t} : {}", self.name(otherwise))
                }
                _ => self.name(e),
            };
            let _ = writeln!(out, "  {} = {rhs};", decl("wire", &nm, e.ty));
        }
    }

    /// The value of wire `nm`, a unary operation; helper wires go to `out`
    /// first.
    fn un(&self, out: &mut String, nm: &str, op: UnOp, a: &Expr) -> String {
        let x = self.name(a);
        match op {
            UnOp::Not => format!("~{x}"),
            UnOp::Neg => format!("-{x}"),
            UnOp::Shl(n) => format!("{x} << {n}"),
            UnOp::Shr(n) => format!("{x} >> {n}"),
            UnOp::Slice { lo, width: w } => format!("{x}[{}:{lo}]", lo + w - 1),
            UnOp::ToFixed(fmt, rnd, ovf) => {
                // widen -> round -> shift -> saturate or wrap (see module
                // docs).
                let src = match a.ty {
                    SigType::Fixed(sf) => sf,
                    _ => fmt, // floats rejected before emission
                };
                let sh = src.frac_bits() as i64 - fmt.frac_bits() as i64;
                let w1 = src.wl() + 1;
                let rnd_add = if sh > 0 && rnd != Rounding::Truncate {
                    1i64 << (sh - 1)
                } else {
                    0
                };
                let _ = writeln!(out, "  wire signed [{}:0] {nm}_w = {x};", w1 - 1);
                let _ = writeln!(
                    out,
                    "  wire signed [{}:0] {nm}_q = {nm}_w + {w1}'sd{rnd_add};",
                    w1 - 1
                );
                let shifted = if sh >= 0 {
                    format!("({nm}_q >>> {sh})")
                } else {
                    format!("({nm}_q <<< {})", -sh)
                };
                let _ = writeln!(out, "  wire signed [{}:0] {nm}_s = {shifted};", w1 - 1);
                let wl = fmt.wl();
                let max = fmt.max_mantissa();
                let mn = -fmt.min_mantissa();
                let h = wl - 1;
                match ovf {
                    Overflow::Saturate => format!(
                        "({nm}_s > {w1}'sd{max}) ? {wl}'sd{max} : \
({nm}_s < -{w1}'sd{mn}) ? -{wl}'sd{mn} : {nm}_s[{h}:0]"
                    ),
                    Overflow::Wrap => format!("{nm}_s[{h}:0]"),
                }
            }
            UnOp::ToBool if a.ty != SigType::Bool => format!("({x} != 0)"),
            UnOp::ToBits(_) | UnOp::ToFloat | UnOp::ToBool => x,
        }
    }

    /// The value of wire `nm`, a binary operation; helper wires go to
    /// `out` first.
    fn bin(
        &self,
        out: &mut String,
        nm: &str,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        ty: SigType,
    ) -> String {
        let (xa, xb) = (self.name(a), self.name(b));
        let sym = match op {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        };
        let arith = matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul);
        match (a.ty, b.ty, ty) {
            (SigType::Fixed(fa), SigType::Fixed(fb), SigType::Fixed(fo))
                if arith && op != BinOp::Mul =>
            {
                let sha = fo.frac_bits() - fa.frac_bits();
                let shb = fo.frac_bits() - fb.frac_bits();
                format!("({xa} <<< {sha}) {sym} ({xb} <<< {shb})")
            }
            _ if arith || matches!(op, BinOp::And | BinOp::Or | BinOp::Xor) => {
                format!("{xa} {sym} {xb}")
            }
            (SigType::Fixed(fa), SigType::Fixed(fb), _) => {
                // Align to a common format through explicit wires so the
                // comparison context cannot truncate.
                let fbc = fa.frac_bits().max(fb.frac_bits());
                let wlc = fa.wl().max(fb.wl()) + fbc.max(1);
                let sha = fbc - fa.frac_bits();
                let shb = fbc - fb.frac_bits();
                let _ = writeln!(
                    out,
                    "  wire signed [{}:0] {nm}_l = ({xa} <<< {sha});",
                    wlc - 1
                );
                let _ = writeln!(
                    out,
                    "  wire signed [{}:0] {nm}_r = ({xb} <<< {shb});",
                    wlc - 1
                );
                format!("({nm}_l {sym} {nm}_r)")
            }
            _ => format!("({xa} {sym} {xb})"),
        }
    }
}

/// Generates a behavioural Verilog model for a RAM/ROM block.
fn memory_model(name: &str, spec: &ocapi::MemorySpec) -> String {
    let mut out = String::new();
    let name = sanitize(name);
    let w = width(spec.word);
    let depth = 1usize << spec.addr_bits;
    let _ = writeln!(out, "module {name} (");
    if spec.is_rom {
        let _ = writeln!(out, "  input wire [{}:0] addr,", spec.addr_bits - 1);
        let _ = writeln!(out, "  output wire [{}:0] data", w - 1);
    } else {
        let _ = writeln!(out, "  input wire clk,");
        let _ = writeln!(out, "  input wire [{}:0] addr,", spec.addr_bits - 1);
        let _ = writeln!(out, "  input wire we,");
        let _ = writeln!(out, "  input wire [{}:0] wdata,", w - 1);
        let _ = writeln!(out, "  output wire [{}:0] rdata", w - 1);
    }
    let _ = writeln!(out, ");");
    let _ = writeln!(out, "  reg [{}:0] mem [0:{}];", w - 1, depth - 1);
    let _ = writeln!(out, "  integer i;");
    let _ = writeln!(out, "  initial begin");
    let _ = writeln!(out, "    for (i = 0; i < {depth}; i = i + 1) mem[i] = 0;");
    let zero = spec.word.zero();
    for (i, v) in spec.contents.iter().enumerate() {
        if *v != zero {
            let _ = writeln!(out, "    mem[{i}] = {};", literal(v));
        }
    }
    let _ = writeln!(out, "  end");
    if spec.is_rom {
        let _ = writeln!(out, "  assign data = mem[addr];");
    } else {
        let _ = writeln!(out, "  assign rdata = mem[addr];");
        let _ = writeln!(out, "  always @(posedge clk) if (we) mem[addr] <= wdata;");
    }
    let _ = writeln!(out, "endmodule");
    out
}

/// Generates the Verilog module for one timed component, registering the
/// guard inputs among `held` as [`crate::vhdl::component_source`] does.
///
/// # Errors
///
/// Returns [`CodegenError::FloatNotSynthesizable`] if the component uses
/// float signals.
pub fn component_source(comp: &Component, held: &[usize]) -> Result<String, CodegenError> {
    module_source(&Module::new(comp, held, Sharing::Every))
}

/// Prints one module.
fn module_source(m: &Module) -> Result<String, CodegenError> {
    crate::synthesizable(m)?;
    let states = m.controller.as_ref().map_or(&[][..], |c| &c.states);
    let p = Printer { m, states };
    let mut out = String::new();
    let _ = writeln!(out, "module {} (", sanitize(&m.name));
    let ports = (m.inputs.iter().map(|q| (q, "input wire")))
        .chain(m.outputs.iter().map(|q| (q, "output wire")))
        .map(|(q, kind)| decl(kind, &sanitize(&q.name), q.ty));
    list(
        &mut out,
        "  ",
        ",",
        CLOCKS.map(String::from).into_iter().chain(ports),
    );
    let _ = writeln!(out, "\n);");

    // State encoding, then every register a commit writes.
    if let Some(c) = &m.controller {
        for s in 0..states.len() {
            let _ = writeln!(out, "  localparam {} = {}'d{s};", p.state(s), c.bits);
        }
        let _ = writeln!(out, "  reg [{}:0] state, state_next;", c.bits - 1);
    }
    if m.sel_width > 0 {
        let _ = writeln!(out, "  reg [{}:0] sel;", m.sel_width - 1);
    }
    for c in m.commits.iter().filter(|c| c.target != Var::State) {
        let _ = writeln!(out, "  {};", decl("reg", &p.var(c.target), m.ty(c.target)));
    }

    let _ = writeln!(out, "\n  // guard cones (registered inputs)");
    p.emit(&mut out, NetKind::Guard);
    let _ = writeln!(out, "\n  // datapath");
    p.emit(&mut out, NetKind::Datapath);

    // Controller.
    if let Some(c) = &m.controller {
        let _ = writeln!(out, "\n  // controller: transition selection");
        let _ = writeln!(out, "  always @* begin");
        let _ = writeln!(out, "    state_next = state;");
        let _ = writeln!(out, "    sel = {}'d0;", m.sel_width);
        let _ = writeln!(out, "    case (state)");
        for (s, transitions) in c.transitions.iter().enumerate() {
            let _ = writeln!(out, "      {}: begin", p.state(s));
            for (k, t) in transitions.iter().enumerate() {
                let mut body = String::new();
                for a in &t.selects {
                    let _ = writeln!(body, "          sel[{a}] = 1'b1;");
                }
                let _ = writeln!(body, "          state_next = {};", p.state(t.to));
                match &t.guard {
                    Some(g) => {
                        let kw = if k == 0 { "if" } else { "end else if" };
                        let _ = writeln!(out, "        {kw} ({}) begin", p.name(g));
                        out.push_str(&body);
                    }
                    None if k == 0 => out.push_str(&body),
                    None => {
                        let _ = writeln!(out, "        end else begin");
                        out.push_str(&body);
                        let _ = writeln!(out, "        end");
                    }
                }
            }
            if transitions.last().is_some_and(|t| t.guard.is_some()) {
                let _ = writeln!(out, "        end");
            }
            let _ = writeln!(out, "      end");
        }
        let _ = writeln!(out, "      default: state_next = state;");
        let _ = writeln!(out, "    endcase");
        let _ = writeln!(out, "  end");
    } else if m.sel_width > 0 {
        let w = m.sel_width;
        let _ = writeln!(out, "\n  always @* sel = {{{w}{{1'b1}}}}; // no FSM");
    }

    // Output and register muxes.
    let _ = writeln!(out, "\n  // output and register selection");
    for mux in &m.muxes {
        let target = p.var(mux.target);
        let mut rhs = String::new();
        for (k, e) in &mux.arms {
            let _ = write!(rhs, "sel[{k}] ? {} : ", p.name(e));
        }
        let wire = decl("wire", &target, m.ty(mux.target));
        let _ = writeln!(out, "  {wire} = {rhs}{};", p.var(mux.default));
        if let Var::Int(o) = mux.target {
            let _ = writeln!(out, "  assign {} = {target};", sanitize(&m.outputs[o].name));
        }
    }

    // Sequential block.
    let _ = writeln!(out, "\n  always @(posedge clk) begin");
    let _ = writeln!(out, "    if (rst) begin");
    for c in &m.commits {
        let reset = match &c.reset {
            Reset::Value(v) => literal(v),
            Reset::State(s) => p.state(*s),
            Reset::Zero => "0".to_owned(),
        };
        let _ = writeln!(out, "      {} <= {reset};", p.var(c.target));
    }
    let _ = writeln!(out, "    end else begin");
    for c in &m.commits {
        let _ = writeln!(out, "      {} <= {};", p.var(c.target), p.var(c.source));
    }
    let _ = writeln!(out, "    end");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "\nendmodule");
    Ok(out)
}

/// Generates the complete Verilog for a system: one module per timed
/// component, a model per memory block, and a structural top-level
/// module (the other untimed blocks appear as module instantiations whose
/// behavioural models are supplied separately).
///
/// # Errors
///
/// Returns [`CodegenError::FloatNotSynthesizable`] if any component uses
/// float signals, [`CodegenError::HeldGuardConflict`] if instances of
/// one component disagree on which guard inputs are held, and
/// [`CodegenError::ComponentConflict`] if two different components share
/// a name.
pub fn system_source(sys: &System) -> Result<String, CodegenError> {
    let top = crate::top(sys, Sharing::Every)?;
    let mut out = String::new();
    for m in crate::modules(&top) {
        out.push_str(&module_source(m)?);
        out.push('\n');
    }
    for (name, spec) in crate::memories(&top) {
        out.push_str(&memory_model(name, spec));
        out.push('\n');
    }
    let _ = writeln!(out, "module {}_top (", sanitize(&top.name));
    let inputs = top
        .inputs
        .iter()
        .map(|q| decl("input wire", &sanitize(&q.name), q.ty));
    let outputs = top
        .outputs
        .iter()
        .map(|q| decl("output wire", &sanitize(&q.name), top.nets[q.net].ty));
    let ports = CLOCKS
        .map(String::from)
        .into_iter()
        .chain(inputs)
        .chain(outputs);
    list(&mut out, "  ", ",", ports);
    let _ = writeln!(out, "\n);");
    for (i, n) in top.nets.iter().enumerate() {
        let wire = decl("wire", &format!("net{i}"), n.ty);
        let _ = writeln!(out, "  {wire}; // {}", n.name);
    }
    for (i, n) in top.nets.iter().enumerate() {
        let source = match &n.source {
            NetSource::Constant(v) => literal(v),
            NetSource::PrimaryInput(pi) => sanitize(&top.inputs[*pi].name),
            _ => continue,
        };
        let _ = writeln!(out, "  assign net{i} = {source};");
    }
    let bind = |name: &str, net: Option<usize>| match net {
        Some(n) => format!(".{}(net{n})", sanitize(name)),
        None => format!(".{}()", sanitize(name)),
    };
    for inst in &top.instances {
        let m = &inst.module;
        let _ = writeln!(out, "  {} {} (", sanitize(&m.name), sanitize(&inst.name));
        let inputs = (m.inputs.iter().zip(&inst.inputs)).map(|(q, n)| bind(&q.name, Some(*n)));
        let outputs = (m.outputs.iter().zip(&inst.outputs)).map(|(q, n)| bind(&q.name, *n));
        let ports = [".clk(clk)", ".rst(rst)"].map(String::from).into_iter();
        list(&mut out, "    ", ",", ports.chain(inputs).chain(outputs));
        let _ = writeln!(out, "\n  );");
    }
    for b in &top.blocks {
        let name = sanitize(&b.name);
        let note = match b.memory {
            Some(_) => "",
            None => " // behavioural model supplied separately",
        };
        let _ = writeln!(out, "  {name} {name}_i ({note}");
        let ram = matches!(&b.memory, Some(m) if !m.is_rom);
        let inputs = b.inputs.iter().map(|(q, n)| bind(&q.name, Some(*n)));
        let outputs = b.outputs.iter().map(|(q, n)| bind(&q.name, *n));
        let ports = ram.then(|| ".clk(clk)".to_owned()).into_iter();
        list(&mut out, "    ", ",", ports.chain(inputs).chain(outputs));
        let _ = writeln!(out, "\n  );");
    }
    for q in &top.outputs {
        let _ = writeln!(out, "  assign {} = net{};", sanitize(&q.name), q.net);
    }
    let _ = writeln!(out, "endmodule");
    Ok(out)
}
