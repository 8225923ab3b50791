//! Verilog-2001 code generation.
//!
//! Mirrors the VHDL back-end ([`crate::vhdl`]): both print the structure
//! of [`ocapi_rtl::ComponentPlan`], which the RT kernel's lowering builds
//! from too. This writer's sharing rule differs: every non-leaf node the
//! plan's cones reach is emitted as an explicit wire with its own
//! continuous assignment. This pins down the width and signedness of every
//! intermediate result, so Verilog's context-determined sizing rules
//! cannot diverge from the simulator's semantics.
//!
//! Rounding-mode fidelity note: in generated Verilog, `Truncate` casts are
//! exact and all other rounding modes are emitted as round-to-nearest
//! (add-half-then-shift). Bit-exact verification against the simulators
//! runs on [`ocapi_rtl::RtlSystemSim`], which shares this text's plan but
//! not its statements; no simulator reads this text back.

use std::fmt::Write as _;

use ocapi::{BinOp, Component, NodeId, NodeKind, SigType, System, UnOp, Value};
use ocapi_fixp::{Overflow, Rounding};

use crate::CodegenError;

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

fn wire_decl(name: &str, t: SigType) -> String {
    let w = width(t);
    let signed = if is_signed(t) { " signed" } else { "" };
    if w == 1 && !is_signed(t) {
        format!("wire {name}")
    } else {
        format!("wire{signed} [{}:0] {name}", w - 1)
    }
}

fn reg_decl(name: &str, t: SigType) -> String {
    let w = width(t);
    let signed = if is_signed(t) { " signed" } else { "" };
    if w == 1 && !is_signed(t) {
        format!("reg {name}")
    } else {
        format!("reg{signed} [{}:0] {name}", w - 1)
    }
}

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

/// Emits expression nodes as wires.
struct VEmitter<'a> {
    comp: &'a Component,
    /// The Verilog sharing rule: every node the cone computes
    /// ([`ocapi_rtl::Cone::ops`]) is a wire.
    ops: &'a [bool],
    /// Wire-name prefix (`n` for the datapath, `g` for guard cones).
    prefix: &'static str,
    /// Input ports read through their registered (`_held`) copy — the
    /// held guard inputs, for guard cones.
    held: &'a [usize],
}

impl VEmitter<'_> {
    /// The name an expression is available under.
    fn name(&self, id: NodeId) -> String {
        let node = &self.comp.nodes[id.index()];
        match &node.kind {
            NodeKind::Const(v) => literal(v),
            NodeKind::Input(p) => {
                let n = sanitize(&self.comp.inputs[p.index()].name);
                if self.held.contains(&p.index()) {
                    format!("{n}_held")
                } else {
                    n
                }
            }
            NodeKind::RegRead(r) => format!("{}_r", sanitize(&self.comp.regs[r.index()].name)),
            _ => format!("{}{}", self.prefix, id.index()),
        }
    }

    /// Emits the wire definitions for every node the cone computes.
    fn emit(&self, out: &mut String) {
        for (i, node) in self.comp.nodes.iter().enumerate() {
            if !self.ops[i] {
                continue;
            }
            let nm = format!("{}{}", self.prefix, i);
            match &node.kind {
                NodeKind::Const(_) | NodeKind::Input(_) | NodeKind::RegRead(_) => {}
                NodeKind::Un(op, a) => self.emit_un(out, &nm, *op, *a, node.ty),
                NodeKind::Bin(op, a, b) => self.emit_bin(out, &nm, *op, *a, *b, node.ty),
                NodeKind::Select {
                    cond,
                    then,
                    otherwise,
                } => {
                    let _ = writeln!(
                        out,
                        "  {} = {} ? {} : {};",
                        wire_decl(&nm, node.ty),
                        self.name(*cond),
                        self.name(*then),
                        self.name(*otherwise)
                    );
                }
            }
        }
    }

    /// The value of the first selected SFG's driver, else `default`.
    fn select(&self, drivers: &[(usize, NodeId)], default: &str) -> String {
        let mut rhs = String::new();
        for (si, node) in drivers {
            let _ = write!(rhs, "sel[{si}] ? {} : ", self.name(*node));
        }
        rhs + default
    }

    fn emit_un(&self, out: &mut String, nm: &str, op: UnOp, a: NodeId, out_ty: SigType) {
        let x = self.name(a);
        let a_ty = self.comp.nodes[a.index()].ty;
        let decl = wire_decl(nm, out_ty);
        match op {
            UnOp::Not => {
                let _ = writeln!(out, "  {decl} = ~{x};");
            }
            UnOp::Neg => {
                let _ = writeln!(out, "  {decl} = -{x};");
            }
            UnOp::Shl(n) => {
                let _ = writeln!(out, "  {decl} = {x} << {n};");
            }
            UnOp::Shr(n) => {
                let _ = writeln!(out, "  {decl} = {x} >> {n};");
            }
            UnOp::Slice { lo, width: w } => {
                let _ = writeln!(out, "  {decl} = {x}[{}:{}];", lo + w - 1, lo);
            }
            UnOp::ToFixed(fmt, rnd, ovf) => {
                // widen -> round -> shift -> saturate or wrap (see module
                // docs).
                let src = match a_ty {
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
                let _ = match ovf {
                    Overflow::Saturate => writeln!(
                        out,
                        "  {decl} = ({nm}_s > {w1}'sd{max}) ? {wl}'sd{max} : \
({nm}_s < -{w1}'sd{mn}) ? -{wl}'sd{mn} : {nm}_s[{h}:0];"
                    ),
                    Overflow::Wrap => writeln!(out, "  {decl} = {nm}_s[{h}:0];"),
                };
            }
            UnOp::ToBits(_) => {
                let _ = writeln!(out, "  {decl} = {x};");
            }
            UnOp::ToFloat => {
                let _ = writeln!(out, "  {decl} = {x}; // float: simulation only");
            }
            UnOp::ToBool => match a_ty {
                SigType::Bool => {
                    let _ = writeln!(out, "  {decl} = {x};");
                }
                _ => {
                    let _ = writeln!(out, "  {decl} = ({x} != 0);");
                }
            },
        }
    }

    fn emit_bin(
        &self,
        out: &mut String,
        nm: &str,
        op: BinOp,
        a: NodeId,
        b: NodeId,
        out_ty: SigType,
    ) {
        let (xa, xb) = (self.name(a), self.name(b));
        let (ta, tb) = (self.comp.nodes[a.index()].ty, self.comp.nodes[b.index()].ty);
        let decl = wire_decl(nm, out_ty);
        let arith_sym = |op: BinOp| match op {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            _ => unreachable!(),
        };
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => match (ta, tb, out_ty) {
                (SigType::Fixed(fa), SigType::Fixed(fb), SigType::Fixed(fo))
                    if op != BinOp::Mul =>
                {
                    let sha = fo.frac_bits() - fa.frac_bits();
                    let shb = fo.frac_bits() - fb.frac_bits();
                    let _ = writeln!(
                        out,
                        "  {decl} = ({xa} <<< {sha}) {} ({xb} <<< {shb});",
                        arith_sym(op)
                    );
                }
                _ => {
                    let _ = writeln!(out, "  {decl} = {xa} {} {xb};", arith_sym(op));
                }
            },
            BinOp::And => {
                let _ = writeln!(out, "  {decl} = {xa} & {xb};");
            }
            BinOp::Or => {
                let _ = writeln!(out, "  {decl} = {xa} | {xb};");
            }
            BinOp::Xor => {
                let _ = writeln!(out, "  {decl} = {xa} ^ {xb};");
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let sym = match op {
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    _ => ">=",
                };
                match (ta, tb) {
                    (SigType::Fixed(fa), SigType::Fixed(fb)) => {
                        // Align to a common format through explicit wires so
                        // the comparison context cannot truncate.
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
                        let _ = writeln!(out, "  {decl} = ({nm}_l {sym} {nm}_r);");
                    }
                    _ => {
                        let _ = writeln!(out, "  {decl} = ({xa} {sym} {xb});");
                    }
                }
            }
        }
    }
}

/// Generates a behavioural Verilog model for a RAM/ROM block.
pub(crate) fn memory_model(name: &str, spec: &ocapi::MemorySpec) -> String {
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

fn sanitize(name: &str) -> String {
    crate::ident::verilog(name)
}

/// Generates the Verilog module for one timed component. Guard-input
/// registration follows the same rules as [`crate::vhdl::component_source`].
///
/// # Errors
///
/// Returns [`CodegenError::FloatNotSynthesizable`] if the component uses
/// float signals.
pub fn component_source(comp: &Component) -> Result<String, CodegenError> {
    component_source_with_held(comp, &[])
}

/// [`component_source`] with an explicit set of guard inputs that must be
/// registered.
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
    let _ = writeln!(out, "module {name} (");
    let _ = write!(out, "  input wire clk,\n  input wire rst");
    for p in &comp.inputs {
        let w = width(p.ty);
        let signed = if is_signed(p.ty) { " signed" } else { "" };
        if w == 1 && !is_signed(p.ty) {
            let _ = write!(out, ",\n  input wire {}", sanitize(&p.name));
        } else {
            let _ = write!(
                out,
                ",\n  input wire{signed} [{}:0] {}",
                w - 1,
                sanitize(&p.name)
            );
        }
    }
    for p in &comp.outputs {
        let w = width(p.ty);
        let signed = if is_signed(p.ty) { " signed" } else { "" };
        if w == 1 && !is_signed(p.ty) {
            let _ = write!(out, ",\n  output wire {}", sanitize(&p.name));
        } else {
            let _ = write!(
                out,
                ",\n  output wire{signed} [{}:0] {}",
                w - 1,
                sanitize(&p.name)
            );
        }
    }
    let _ = writeln!(out, "\n);");

    let n_sfgs = comp.sfgs.len();
    let dp = VEmitter {
        comp,
        ops: &plan.datapath.ops,
        prefix: "n",
        held: &[],
    };
    let guards = VEmitter {
        comp,
        ops: &plan.guards.ops,
        prefix: "g",
        held: &held,
    };

    // State encoding and controller.
    if let Some(fsm) = &comp.fsm {
        let sb = plan.state_bits;
        for (i, s) in fsm.states.iter().enumerate() {
            let _ = writeln!(
                out,
                "  localparam ST_{} = {sb}'d{i};",
                sanitize(s).to_uppercase()
            );
        }
        let _ = writeln!(out, "  reg [{}:0] state, state_next;", sb - 1);
    }
    if n_sfgs > 0 {
        let _ = writeln!(out, "  reg [{}:0] sel;", n_sfgs - 1);
    }
    for r in &comp.regs {
        let n = sanitize(&r.name);
        let _ = writeln!(out, "  {};", reg_decl(&format!("{n}_r"), r.ty));
    }
    for p in &comp.outputs {
        let n = sanitize(&p.name);
        let _ = writeln!(out, "  {};", reg_decl(&format!("{n}_hold"), p.ty));
    }
    for p in &held {
        let d = &comp.inputs[*p];
        let _ = writeln!(
            out,
            "  {};",
            reg_decl(&format!("{}_held", sanitize(&d.name)), d.ty)
        );
    }

    let _ = writeln!(out, "\n  // guard cones (registered inputs)");
    guards.emit(&mut out);
    let _ = writeln!(out, "\n  // datapath");
    dp.emit(&mut out);

    // Controller.
    if let Some(fsm) = &comp.fsm {
        let _ = writeln!(out, "\n  // controller: transition selection");
        let _ = writeln!(out, "  always @* begin");
        let _ = writeln!(out, "    state_next = state;");
        let _ = writeln!(out, "    sel = {n_sfgs}'d0;");
        let _ = writeln!(out, "    case (state)");
        for (si, sname) in fsm.states.iter().enumerate() {
            let _ = writeln!(out, "      ST_{}: begin", sanitize(sname).to_uppercase());
            let trans: Vec<_> = fsm
                .transitions
                .iter()
                .filter(|t| t.from.index() == si)
                .collect();
            let mut first = true;
            let mut closed = false;
            for t in &trans {
                let mut body = String::new();
                for a in &t.actions {
                    let _ = writeln!(body, "          sel[{}] = 1'b1;", a.index());
                }
                let _ = writeln!(
                    body,
                    "          state_next = ST_{};",
                    sanitize(&fsm.states[t.to.index()]).to_uppercase()
                );
                match t.guard {
                    Some(g) => {
                        let cond = guards.name(g);
                        if first {
                            let _ = writeln!(out, "        if ({cond}) begin");
                        } else {
                            let _ = writeln!(out, "        end else if ({cond}) begin");
                        }
                        out.push_str(&body);
                        first = false;
                    }
                    None => {
                        if first {
                            out.push_str(&body);
                        } else {
                            let _ = writeln!(out, "        end else begin");
                            out.push_str(&body);
                            let _ = writeln!(out, "        end");
                        }
                        closed = true;
                        break;
                    }
                }
            }
            if !first && !closed {
                let _ = writeln!(out, "        end");
            }
            let _ = writeln!(out, "      end");
        }
        let _ = writeln!(out, "      default: state_next = state;");
        let _ = writeln!(out, "    endcase");
        let _ = writeln!(out, "  end");
    } else if n_sfgs > 0 {
        let _ = writeln!(out, "\n  always @* sel = {{{n_sfgs}{{1'b1}}}}; // no FSM");
    }

    // Output and register muxes.
    let _ = writeln!(out, "\n  // output and register selection");
    for (p, drivers) in comp.outputs.iter().zip(&plan.output_drivers) {
        let n = sanitize(&p.name);
        let rhs = dp.select(drivers, &format!("{n}_hold"));
        let _ = writeln!(out, "  {} = {rhs};", wire_decl(&format!("{n}_int"), p.ty));
        let _ = writeln!(out, "  assign {n} = {n}_int;");
    }
    for (r, drivers) in comp.regs.iter().zip(&plan.reg_drivers) {
        let n = sanitize(&r.name);
        let rhs = dp.select(drivers, &format!("{n}_r"));
        let _ = writeln!(out, "  {} = {rhs};", wire_decl(&format!("{n}_next"), r.ty));
    }

    // Sequential block.
    let _ = writeln!(out, "\n  always @(posedge clk) begin");
    let _ = writeln!(out, "    if (rst) begin");
    if let Some(fsm) = &comp.fsm {
        let _ = writeln!(
            out,
            "      state <= ST_{};",
            sanitize(&fsm.states[fsm.initial.index()]).to_uppercase()
        );
    }
    for r in &comp.regs {
        let _ = writeln!(
            out,
            "      {}_r <= {};",
            sanitize(&r.name),
            literal(&r.init)
        );
    }
    for p in &comp.outputs {
        let _ = writeln!(out, "      {}_hold <= 0;", sanitize(&p.name));
    }
    for p in &held {
        let _ = writeln!(out, "      {}_held <= 0;", sanitize(&comp.inputs[*p].name));
    }
    let _ = writeln!(out, "    end else begin");
    if comp.fsm.is_some() {
        let _ = writeln!(out, "      state <= state_next;");
    }
    for r in &comp.regs {
        let n = sanitize(&r.name);
        let _ = writeln!(out, "      {n}_r <= {n}_next;");
    }
    for p in &comp.outputs {
        let n = sanitize(&p.name);
        let _ = writeln!(out, "      {n}_hold <= {n}_int;");
    }
    for p in &held {
        let n = sanitize(&comp.inputs[*p].name);
        let _ = writeln!(out, "      {n}_held <= {n};");
    }
    let _ = writeln!(out, "    end");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "\nendmodule");
    Ok(out)
}

/// Generates the complete Verilog for a system: one module per timed
/// component and a structural top-level module (untimed blocks appear as
/// module instantiations whose behavioural models are supplied
/// separately).
///
/// # Errors
///
/// Returns [`CodegenError::FloatNotSynthesizable`] if any component uses
/// float signals, and [`CodegenError::HeldGuardConflict`] if instances of
/// one component disagree on which guard inputs are held.
pub fn system_source(sys: &System) -> Result<String, CodegenError> {
    let mut out = String::new();
    for (comp, held) in crate::components(sys)? {
        out.push_str(&component_source_with_held(comp, &held)?);
        out.push('\n');
    }
    // Behavioural models for memory blocks.
    for (name, spec) in crate::memories(sys) {
        out.push_str(&memory_model(name, &spec));
        out.push('\n');
    }
    let name = sanitize(&sys.name);
    let _ = writeln!(out, "module {name}_top (");
    let _ = write!(out, "  input wire clk,\n  input wire rst");
    for p in &sys.primary_inputs {
        let w = width(p.ty);
        if w == 1 && !is_signed(p.ty) {
            let _ = write!(out, ",\n  input wire {}", sanitize(&p.name));
        } else {
            let signed = if is_signed(p.ty) { " signed" } else { "" };
            let _ = write!(
                out,
                ",\n  input wire{signed} [{}:0] {}",
                w - 1,
                sanitize(&p.name)
            );
        }
    }
    for p in &sys.primary_outputs {
        let t = sys.nets[p.net].ty;
        let w = width(t);
        if w == 1 && !is_signed(t) {
            let _ = write!(out, ",\n  output wire {}", sanitize(&p.name));
        } else {
            let signed = if is_signed(t) { " signed" } else { "" };
            let _ = write!(
                out,
                ",\n  output wire{signed} [{}:0] {}",
                w - 1,
                sanitize(&p.name)
            );
        }
    }
    let _ = writeln!(out, "\n);");
    for (i, n) in sys.nets.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {}; // {}",
            wire_decl(&format!("net{i}"), n.ty),
            n.name
        );
    }
    for (i, n) in sys.nets.iter().enumerate() {
        match &n.source {
            ocapi::NetSource::Constant(v) => {
                let _ = writeln!(out, "  assign net{i} = {};", literal(v));
            }
            ocapi::NetSource::PrimaryInput(pi) => {
                let _ = writeln!(
                    out,
                    "  assign net{i} = {};",
                    sanitize(&sys.primary_inputs[*pi].name)
                );
            }
            _ => {}
        }
    }
    for (ti, t) in sys.timed.iter().enumerate() {
        let _ = writeln!(out, "  {} {} (", sanitize(&t.comp.name), sanitize(&t.name));
        let _ = write!(out, "    .clk(clk),\n    .rst(rst)");
        for (pi, p) in t.comp.inputs.iter().enumerate() {
            let net = sys.timed_input_net(ti, pi);
            let _ = write!(out, ",\n    .{}(net{net})", sanitize(&p.name));
        }
        for (pi, p) in t.comp.outputs.iter().enumerate() {
            match sys.timed_output_net(ti, pi) {
                Some(net) => {
                    let _ = write!(out, ",\n    .{}(net{net})", sanitize(&p.name));
                }
                None => {
                    let _ = write!(out, ",\n    .{}()", sanitize(&p.name));
                }
            }
        }
        let _ = writeln!(out, "\n  );");
    }
    for (ui, u) in sys.untimed.iter().enumerate() {
        let is_mem = u.block.memory_spec();
        if is_mem.is_some() {
            let _ = writeln!(
                out,
                "  {} {}_i (",
                sanitize(u.block.name()),
                sanitize(u.block.name())
            );
        } else {
            let _ = writeln!(
                out,
                "  {} {}_i ( // behavioural model supplied separately",
                sanitize(u.block.name()),
                sanitize(u.block.name())
            );
        }
        let mut first = true;
        if matches!(&is_mem, Some(m) if !m.is_rom) {
            let _ = write!(out, "    .clk(clk)");
            first = false;
        }
        for (pi, p) in u.inputs.iter().enumerate() {
            let net = sys.untimed_input_net(ui, pi);
            let sep = if first { "    " } else { ",\n    " };
            let _ = write!(out, "{sep}.{}(net{net})", sanitize(&p.name));
            first = false;
        }
        for (pi, p) in u.outputs.iter().enumerate() {
            let sep = if first { "    " } else { ",\n    " };
            match sys.untimed_output_net(ui, pi) {
                Some(net) => {
                    let _ = write!(out, "{sep}.{}(net{net})", sanitize(&p.name));
                }
                None => {
                    let _ = write!(out, "{sep}.{}()", sanitize(&p.name));
                }
            }
            first = false;
        }
        let _ = writeln!(out, "\n  );");
    }
    for p in &sys.primary_outputs {
        let _ = writeln!(out, "  assign {} = net{};", sanitize(&p.name), p.net);
    }
    let _ = writeln!(out, "endmodule");
    Ok(out)
}
