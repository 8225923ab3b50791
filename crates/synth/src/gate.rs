//! The generic gate library and netlist data structure.
//!
//! Areas are in *gate equivalents* (a 2-input NAND = 1.0), the
//! technology-independent unit the paper's "75 Kgate" figure uses.

use std::collections::HashMap;

/// Identifier of a single-bit wire in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireId(pub(crate) u32);

impl WireId {
    /// The wire's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The gate types of the library, ordered as declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateKind {
    /// Constant 0 driver.
    Const0,
    /// Constant 1 driver.
    Const1,
    /// Buffer (used at port boundaries; free after optimisation).
    Buf,
    /// Inverter.
    Inv,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2-to-1 multiplexer: inputs `[sel, a, b]`, output = `sel ? a : b`.
    Mux2,
    /// D flip-flop: input `[d]`, output `q`; clocked by the implicit
    /// global clock, with a per-instance initial value.
    Dff,
}

impl GateKind {
    /// Area in gate equivalents (NAND2 = 1.0). Values follow typical
    /// standard-cell libraries of the era.
    pub fn area(self) -> f64 {
        match self {
            GateKind::Const0 | GateKind::Const1 => 0.0,
            GateKind::Buf => 0.5,
            GateKind::Inv => 0.5,
            GateKind::Nand2 | GateKind::Nor2 => 1.0,
            GateKind::And2 | GateKind::Or2 => 1.5,
            GateKind::Xor2 | GateKind::Xnor2 => 2.5,
            GateKind::Mux2 => 2.0,
            GateKind::Dff => 4.0,
        }
    }

    /// Number of input pins.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Const0 | GateKind::Const1 => 0,
            GateKind::Buf | GateKind::Inv | GateKind::Dff => 1,
            GateKind::Mux2 => 3,
            _ => 2,
        }
    }

    /// Evaluates the combinational function (not valid for `Dff`).
    ///
    /// # Panics
    ///
    /// Panics when called on a `Dff` or with the wrong input count.
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Buf => inputs[0],
            GateKind::Inv => !inputs[0],
            GateKind::And2 => inputs[0] & inputs[1],
            GateKind::Or2 => inputs[0] | inputs[1],
            GateKind::Nand2 => !(inputs[0] & inputs[1]),
            GateKind::Nor2 => !(inputs[0] | inputs[1]),
            GateKind::Xor2 => inputs[0] ^ inputs[1],
            GateKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            GateKind::Mux2 => {
                if inputs[0] {
                    inputs[1]
                } else {
                    inputs[2]
                }
            }
            GateKind::Dff => panic!("Dff is not combinational"),
        }
    }
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The gate type.
    pub kind: GateKind,
    /// Input wires (length = `kind.arity()`).
    pub inputs: Vec<WireId>,
    /// Output wire (each wire has at most one driver).
    pub output: WireId,
    /// Initial output value (meaningful for `Dff`; constants derive it).
    pub init: bool,
}

/// A flat single-clock gate-level netlist.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    /// Number of wires.
    pub n_wires: usize,
    /// All gates. Wires not driven by any gate are primary inputs.
    pub gates: Vec<Gate>,
    /// Named input buses: name → wires, LSB first.
    pub inputs: Vec<(String, Vec<WireId>)>,
    /// Named output buses: name → wires, LSB first.
    pub outputs: Vec<(String, Vec<WireId>)>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Netlist {
        Netlist::default()
    }

    /// Allocates a fresh wire.
    pub fn wire(&mut self) -> WireId {
        self.n_wires += 1;
        WireId(self.n_wires as u32 - 1)
    }

    /// Allocates `n` fresh wires.
    pub fn wires(&mut self, n: usize) -> Vec<WireId> {
        (0..n).map(|_| self.wire()).collect()
    }

    /// Adds a gate driving a fresh wire, returning that wire.
    pub fn gate(&mut self, kind: GateKind, inputs: &[WireId]) -> WireId {
        debug_assert_eq!(inputs.len(), kind.arity(), "arity mismatch for {kind:?}");
        let output = self.wire();
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
            init: matches!(kind, GateKind::Const1),
        });
        output
    }

    /// Adds a gate driving an already-allocated wire (used for deferred
    /// connections such as shared-operator input multiplexers).
    pub fn gate_into(&mut self, kind: GateKind, inputs: &[WireId], output: WireId) {
        debug_assert_eq!(inputs.len(), kind.arity(), "arity mismatch for {kind:?}");
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
            init: matches!(kind, GateKind::Const1),
        });
    }

    /// Adds a D flip-flop whose data input is connected later with
    /// [`Netlist::connect_dff`]; returns `(q, handle)`.
    pub fn dff_deferred(&mut self, init: bool) -> (WireId, usize) {
        let d = self.wire(); // placeholder, replaced by connect_dff
        let q = self.wire();
        self.gates.push(Gate {
            kind: GateKind::Dff,
            inputs: vec![d],
            output: q,
            init,
        });
        (q, self.gates.len() - 1)
    }

    /// Connects the data input of a deferred flip-flop.
    ///
    /// # Panics
    ///
    /// Panics if `handle` does not refer to a DFF.
    pub fn connect_dff(&mut self, handle: usize, d: WireId) {
        assert_eq!(self.gates[handle].kind, GateKind::Dff, "not a dff");
        self.gates[handle].inputs[0] = d;
    }

    /// Adds a D flip-flop with the given initial value.
    pub fn dff(&mut self, d: WireId, init: bool) -> WireId {
        let output = self.wire();
        self.gates.push(Gate {
            kind: GateKind::Dff,
            inputs: vec![d],
            output,
            init,
        });
        output
    }

    /// A constant wire (cached per polarity by the caller if desired).
    pub fn constant(&mut self, value: bool) -> WireId {
        self.gate(
            if value {
                GateKind::Const1
            } else {
                GateKind::Const0
            },
            &[],
        )
    }

    /// Registers a named input bus of `width` fresh wires (LSB first).
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<WireId> {
        let ws = self.wires(width);
        self.inputs.push((name.to_owned(), ws.clone()));
        ws
    }

    /// Registers a named output bus.
    pub fn output_bus(&mut self, name: &str, wires: Vec<WireId>) {
        self.outputs.push((name.to_owned(), wires));
    }

    /// Gate count by kind.
    pub fn histogram(&self) -> HashMap<GateKind, usize> {
        let mut h = HashMap::new();
        for g in &self.gates {
            *h.entry(g.kind).or_insert(0) += 1;
        }
        h
    }

    /// Total area in gate equivalents.
    pub fn area(&self) -> f64 {
        self.gates.iter().map(|g| g.kind.area()).sum()
    }

    /// Number of combinational gates (excludes DFFs and constants).
    pub fn combinational_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| !matches!(g.kind, GateKind::Dff | GateKind::Const0 | GateKind::Const1))
            .count()
    }

    /// Number of flip-flops.
    pub fn dff_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind == GateKind::Dff)
            .count()
    }

    /// Looks up an input bus by name.
    pub fn input_by_name(&self, name: &str) -> Option<&[WireId]> {
        self.inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w.as_slice())
    }

    /// Looks up an output bus by name.
    pub fn output_by_name(&self, name: &str) -> Option<&[WireId]> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w.as_slice())
    }
}

/// A synthesized component: the netlist plus synthesis statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentNetlist {
    /// The component name.
    pub name: String,
    /// The gate-level netlist. Input/output buses carry the component's
    /// port names.
    pub netlist: Netlist,
    /// Word-level operator units instantiated by the datapath synthesis
    /// (kind signature → count), before expansion to gates.
    pub units: Vec<(String, usize)>,
    /// How many expression nodes were mapped onto those units (equal to
    /// the unit count when sharing is disabled).
    pub nodes_mapped: usize,
}

impl ComponentNetlist {
    /// Total area in gate equivalents.
    pub fn area(&self) -> f64 {
        self.netlist.area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_and_area() {
        let mut n = Netlist::new();
        let a = n.wire();
        let b = n.wire();
        let x = n.gate(GateKind::Nand2, &[a, b]);
        let y = n.gate(GateKind::Inv, &[x]);
        n.dff(y, false);
        assert_eq!(n.histogram()[&GateKind::Nand2], 1);
        assert_eq!(n.area(), 1.0 + 0.5 + 4.0);
        assert_eq!(n.combinational_count(), 2);
        assert_eq!(n.dff_count(), 1);
    }

    #[test]
    fn eval_covers_all_comb_gates() {
        assert!(GateKind::Const1.eval(&[]));
        assert!(!GateKind::Const0.eval(&[]));
        assert!(GateKind::Inv.eval(&[false]));
        assert!(GateKind::And2.eval(&[true, true]));
        assert!(!GateKind::Nand2.eval(&[true, true]));
        assert!(GateKind::Or2.eval(&[false, true]));
        assert!(!GateKind::Nor2.eval(&[false, true]));
        assert!(GateKind::Xor2.eval(&[false, true]));
        assert!(GateKind::Xnor2.eval(&[true, true]));
        assert!(GateKind::Mux2.eval(&[true, true, false]));
        assert!(!GateKind::Mux2.eval(&[false, true, false]));
        assert!(GateKind::Buf.eval(&[true]));
    }

    #[test]
    fn buses() {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 4);
        n.output_bus("y", a.clone());
        assert_eq!(n.input_by_name("a").unwrap().len(), 4);
        assert_eq!(n.output_by_name("y").unwrap(), a.as_slice());
        assert!(n.input_by_name("zzz").is_none());
    }
}
