//! Re-import of structural Verilog netlists.
//!
//! Parses the gate-level Verilog written by
//! [`crate::emit::verilog_netlist`] back into a [`Netlist`], closing the
//! loop of the paper's Figure 8 hand-off: the netlist a back-end tool
//! consumes can be read back and re-verified against the captured
//! description with the event-driven gate simulator.
//!
//! The accepted grammar is exactly the statement-per-line subset the
//! emitter produces (primitive instantiations, continuous assignments,
//! one-line DFF `always` blocks). It is not a general Verilog parser.

use std::collections::HashMap;

use crate::gate::{GateKind, Netlist, WireId};
use crate::SynthError;

/// The result of parsing one structural netlist file.
#[derive(Debug, Clone)]
pub struct ParsedNetlist {
    /// The module name.
    pub name: String,
    /// The reconstructed netlist.
    pub netlist: Netlist,
}

struct Parser {
    net: Netlist,
    wires: HashMap<String, WireId>,
    /// name → (bus wires, is_input); filled from declarations and
    /// port-binding assigns.
    in_ports: Vec<(String, Vec<Option<WireId>>)>,
    out_ports: Vec<(String, Vec<Option<WireId>>)>,
}

fn err(line: usize, message: impl Into<String>) -> SynthError {
    SynthError::Parse {
        line,
        message: message.into(),
    }
}

impl Parser {
    fn wire(&mut self, name: &str, line: usize) -> Result<WireId, SynthError> {
        match self.wires.get(name) {
            Some(w) => Ok(*w),
            None => Err(err(line, format!("undeclared wire `{name}`"))),
        }
    }

    fn declare(&mut self, name: &str) {
        let id = self.net.wire();
        self.wires.insert(name.to_owned(), id);
    }

    fn port_slot<'a>(
        ports: &'a mut [(String, Vec<Option<WireId>>)],
        name: &str,
        idx: usize,
    ) -> Option<&'a mut Option<WireId>> {
        ports
            .iter_mut()
            .find(|(n, _)| n == name)
            .and_then(|(_, ws)| ws.get_mut(idx))
    }
}

/// Splits `a[3]` into `("a", 3)`; plain identifiers get index 0.
fn split_indexed(tok: &str, line: usize) -> Result<(&str, usize), SynthError> {
    match tok.split_once('[') {
        None => Ok((tok, 0)),
        Some((base, rest)) => {
            let idx = rest
                .strip_suffix(']')
                .and_then(|d| d.parse::<usize>().ok())
                .ok_or_else(|| err(line, format!("bad indexed reference `{tok}`")))?;
            Ok((base, idx))
        }
    }
}

/// Parses a structural Verilog module produced by
/// [`crate::emit::verilog_netlist`].
///
/// # Errors
///
/// Returns [`SynthError::Parse`] with the offending line number when a
/// statement falls outside the emitted subset, references an undeclared
/// wire, or the module header/ports are malformed — including ports
/// wider in total than the source has lines, which no netlist can bind.
pub fn verilog_netlist(src: &str) -> Result<ParsedNetlist, SynthError> {
    let mut p = Parser {
        net: Netlist::new(),
        wires: HashMap::new(),
        in_ports: Vec::new(),
        out_ports: Vec::new(),
    };
    let mut name = None;
    // Every port bit takes a line (its own `assign`, or the declaration
    // of `clk`/`rst`), so declared ports may total at most as many bits
    // as the source has lines; a wider range is refused before it sizes
    // anything.
    let mut bindable = src.lines().count();

    for (ln, raw) in src.lines().enumerate() {
        let ln = ln + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") || line == "endmodule" {
            continue;
        }
        let stmt = line
            .strip_suffix(';')
            .ok_or_else(|| err(ln, "missing `;`"))?;

        if let Some(rest) = stmt.strip_prefix("module ") {
            let (m, _ports) = rest
                .split_once('(')
                .ok_or_else(|| err(ln, "malformed module header"))?;
            name = Some(m.trim().to_owned());
        } else if let Some(rest) = stmt.strip_prefix("input ") {
            let (width, pname) = parse_decl(rest, ln, &mut bindable)?;
            if pname != "clk" && pname != "rst" {
                p.in_ports.push((pname, vec![None; width]));
            }
        } else if let Some(rest) = stmt.strip_prefix("output ") {
            let (width, pname) = parse_decl(rest, ln, &mut bindable)?;
            p.out_ports.push((pname, vec![None; width]));
        } else if let Some(rest) = stmt.strip_prefix("wire ").or(stmt.strip_prefix("reg ")) {
            p.declare(rest.trim());
        } else if let Some(rest) = stmt.strip_prefix("assign ") {
            parse_assign(&mut p, rest, ln)?;
        } else if let Some(rest) = stmt.strip_prefix("always @(posedge clk or posedge rst) ") {
            parse_dff(&mut p, rest, ln)?;
        } else {
            // Primitive instantiation: `nand g3 (out, a, b)`.
            parse_primitive(&mut p, stmt, ln)?;
        }
    }

    let name = name.ok_or_else(|| err(0, "no module header found"))?;
    for (pname, slots) in p.in_ports {
        let ws: Option<Vec<WireId>> = slots.into_iter().collect();
        let ws = ws.ok_or_else(|| err(0, format!("input `{pname}` has unbound bits")))?;
        p.net.inputs.push((pname, ws));
    }
    for (pname, slots) in p.out_ports {
        let ws: Option<Vec<WireId>> = slots.into_iter().collect();
        let ws = ws.ok_or_else(|| err(0, format!("output `{pname}` has unbound bits")))?;
        p.net.outputs.push((pname, ws));
    }
    Ok(ParsedNetlist {
        name,
        netlist: p.net,
    })
}

/// Parses `[N:0] name` or `name` from a port declaration body, taking
/// its width from the `bindable` bits left.
fn parse_decl(rest: &str, ln: usize, bindable: &mut usize) -> Result<(usize, String), SynthError> {
    let rest = rest.trim();
    let (width, pname) = match rest.strip_prefix('[') {
        Some(body) => {
            let (range, pname) = body
                .split_once(']')
                .ok_or_else(|| err(ln, "malformed range"))?;
            let msb = range
                .split_once(':')
                .and_then(|(m, l)| (l.trim() == "0").then(|| m.trim().parse::<usize>().ok()))
                .flatten()
                .ok_or_else(|| err(ln, format!("unsupported range `[{range}]`")))?;
            (msb.checked_add(1), pname.trim())
        }
        None => (Some(1), rest),
    };
    let width = width.filter(|w| w <= bindable).ok_or_else(|| {
        err(
            ln,
            format!("port `{pname}` is wider than the netlist can bind"),
        )
    })?;
    *bindable -= width;
    Ok((width, pname.to_owned()))
}

fn parse_assign(p: &mut Parser, rest: &str, ln: usize) -> Result<(), SynthError> {
    let (lhs, rhs) = rest
        .split_once('=')
        .ok_or_else(|| err(ln, "assign without `=`"))?;
    let (lhs, rhs) = (lhs.trim(), rhs.trim());

    if lhs.starts_with('n') && p.wires.contains_key(lhs.split('[').next().unwrap_or(lhs)) {
        let out = p.wire(lhs, ln)?;
        // Right-hand side: constant, mux, port bit, or plain wire.
        if rhs == "1'b0" {
            p.net.gate_into(GateKind::Const0, &[], out);
        } else if rhs == "1'b1" {
            p.net.gate_into(GateKind::Const1, &[], out);
        } else if let Some((cond, arms)) = rhs.split_once('?') {
            let (a, b) = arms
                .split_once(':')
                .ok_or_else(|| err(ln, "mux without `:`"))?;
            let sel = p.wire(cond.trim(), ln)?;
            let a = p.wire(a.trim(), ln)?;
            let b = p.wire(b.trim(), ln)?;
            p.net.gate_into(GateKind::Mux2, &[sel, a, b], out);
        } else if p.wires.contains_key(rhs) {
            let i = p.wire(rhs, ln)?;
            p.net.gate_into(GateKind::Buf, &[i], out);
        } else {
            // Input port binding: `assign n5 = a[2];`
            let (pname, idx) = split_indexed(rhs, ln)?;
            let slot = Parser::port_slot(&mut p.in_ports, pname, idx)
                .ok_or_else(|| err(ln, format!("unknown input `{rhs}`")))?;
            *slot = Some(out);
            // The wire is a pure alias of the port: drop the implicit
            // driver requirement by leaving it gate-less.
        }
    } else {
        // Output port binding: `assign y[0] = n7;`
        let (pname, idx) = split_indexed(lhs, ln)?;
        let src = p.wire(rhs, ln)?;
        let slot = Parser::port_slot(&mut p.out_ports, pname, idx)
            .ok_or_else(|| err(ln, format!("unknown output `{lhs}`")))?;
        *slot = Some(src);
    }
    Ok(())
}

fn parse_dff(p: &mut Parser, rest: &str, ln: usize) -> Result<(), SynthError> {
    // `if (rst) nX <= 1'bI; else nX <= nY` (trailing `;` already split —
    // the statement contains an inner `;` so re-join on the raw form).
    let body = rest.trim();
    let Some(body) = body.strip_prefix("if (rst) ") else {
        return Err(err(ln, "unsupported always block"));
    };
    let (reset_part, else_part) = body
        .split_once("else")
        .ok_or_else(|| err(ln, "DFF without else branch"))?;
    let (q_name, init_tok) = reset_part
        .split_once("<=")
        .ok_or_else(|| err(ln, "DFF reset without `<=`"))?;
    let init = match init_tok.trim().trim_end_matches(';').trim() {
        "1'b0" => false,
        "1'b1" => true,
        other => return Err(err(ln, format!("bad DFF init `{other}`"))),
    };
    let (q2, d_name) = else_part
        .split_once("<=")
        .ok_or_else(|| err(ln, "DFF update without `<=`"))?;
    let q_name = q_name.trim();
    if q2.trim() != q_name {
        return Err(err(ln, "DFF reset/update target mismatch"));
    }
    let q = p.wire(q_name, ln)?;
    let d = p.wire(d_name.trim(), ln)?;
    p.net.gates.push(crate::gate::Gate {
        kind: GateKind::Dff,
        inputs: vec![d],
        output: q,
        init,
    });
    Ok(())
}

fn parse_primitive(p: &mut Parser, stmt: &str, ln: usize) -> Result<(), SynthError> {
    let (head, args) = stmt
        .split_once('(')
        .ok_or_else(|| err(ln, format!("unrecognised statement `{stmt}`")))?;
    let kind = match head.split_whitespace().next() {
        Some("not") => GateKind::Inv,
        Some("and") => GateKind::And2,
        Some("or") => GateKind::Or2,
        Some("nand") => GateKind::Nand2,
        Some("nor") => GateKind::Nor2,
        Some("xor") => GateKind::Xor2,
        Some("xnor") => GateKind::Xnor2,
        other => {
            return Err(err(
                ln,
                format!("unknown primitive `{}`", other.unwrap_or("")),
            ))
        }
    };
    let args = args
        .strip_suffix(')')
        .ok_or_else(|| err(ln, "unterminated instantiation"))?;
    let mut ids = Vec::new();
    for tok in args.split(',') {
        ids.push(p.wire(tok.trim(), ln)?);
    }
    if ids.len() != kind.arity() + 1 {
        return Err(err(ln, format!("wrong pin count for {kind:?}")));
    }
    let out = ids.remove(0);
    p.net.gate_into(kind, &ids, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit;
    use crate::gate::Netlist;

    fn small() -> Netlist {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 3);
        let x = n.gate(GateKind::And2, &[a[0], a[1]]);
        let y = n.gate(GateKind::Xor2, &[x, a[2]]);
        let q = n.dff(y, true);
        let m = n.gate(GateKind::Mux2, &[a[0], q, y]);
        n.output_bus("y", vec![m, q]);
        n
    }

    #[test]
    fn round_trip_reconstructs_structure() {
        let src = emit::verilog_netlist("dut", &small());
        let parsed = verilog_netlist(&src).expect("parse");
        assert_eq!(parsed.name, "dut");
        let n = &parsed.netlist;
        assert_eq!(n.inputs.len(), 1);
        assert_eq!(n.inputs[0].1.len(), 3);
        assert_eq!(n.outputs[0].1.len(), 2);
        assert_eq!(n.dff_count(), 1);
        // And2 + Xor2 + Mux2 survive; the DFF keeps its init.
        assert!(n.gates.iter().any(|g| g.kind == GateKind::Dff && g.init));
        assert!(n.gates.iter().any(|g| g.kind == GateKind::Mux2));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let src = "module m (clk, rst, y);\n  output y;\n  bogus stuff here;\nendmodule\n";
        match verilog_netlist(src) {
            Err(SynthError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn undeclared_wire_is_an_error() {
        let src = "module m (clk, rst, y);\n  output y;\n  assign y = n99;\nendmodule\n";
        assert!(matches!(
            verilog_netlist(src),
            Err(SynthError::Parse { line: 3, .. })
        ));
    }

    /// A range no source can bind is refused before it sizes a port:
    /// `usize::MAX` used to overflow `msb + 1`, and 10^15 bits to ask
    /// for petabytes.
    #[test]
    fn ranges_wider_than_the_source_are_refused() {
        for msb in ["18446744073709551615", "999999999999999", "5"] {
            let src = format!("module m (clk, rst, a);\n  input [{msb}:0] a;\nendmodule\n");
            match verilog_netlist(&src) {
                Err(SynthError::Parse { line, message }) => {
                    assert_eq!(line, 2);
                    assert!(message.contains("wider than"), "{message}");
                }
                other => panic!("expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unbound_output_bit_is_an_error() {
        let src = "module m (clk, rst, y);\n  output [1:0] y;\n  wire n0;\n  assign n0 = 1'b1;\n  assign y[0] = n0;\nendmodule\n";
        match verilog_netlist(src) {
            Err(SynthError::Parse { message, .. }) => {
                assert!(message.contains("unbound"), "{message}")
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
