//! Gate-count and area reporting: the numbers behind the paper's
//! "75 Kgate chip … including 22 datapaths, each decoding between 2 and
//! 57 instructions" and the 6 Kgate HCOR (§1, Table 1).

use std::fmt;

use crate::gate::{ComponentNetlist, GateKind};

/// Area and composition of one synthesized component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentReport {
    /// Component name.
    pub name: String,
    /// Total area in gate equivalents.
    pub area: f64,
    /// Combinational gate count.
    pub combinational: usize,
    /// Flip-flop count.
    pub flip_flops: usize,
    /// Word-level operator units after sharing.
    pub units: Vec<(String, usize)>,
    /// Expression nodes mapped onto the units.
    pub nodes_mapped: usize,
}

impl ComponentReport {
    /// Builds the report from a synthesized component.
    pub fn for_component(c: &ComponentNetlist) -> ComponentReport {
        ComponentReport {
            name: c.name.clone(),
            area: c.netlist.area(),
            combinational: c.netlist.combinational_count(),
            flip_flops: c.netlist.dff_count(),
            units: c.units.clone(),
            nodes_mapped: c.nodes_mapped,
        }
    }
}

impl fmt::Display for ComponentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.0} gate-eq ({} comb, {} FF)",
            self.name, self.area, self.combinational, self.flip_flops
        )
    }
}

/// Aggregated report over a set of components (a chip).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChipReport {
    /// Chip/design name.
    pub name: String,
    /// Per-component reports.
    pub components: Vec<ComponentReport>,
}

impl ChipReport {
    /// Creates an empty chip report.
    pub fn new(name: &str) -> ChipReport {
        ChipReport {
            name: name.to_owned(),
            components: Vec::new(),
        }
    }

    /// Adds one synthesized component.
    pub fn add(&mut self, c: &ComponentNetlist) {
        self.components.push(ComponentReport::for_component(c));
    }

    /// Total area in gate equivalents.
    pub fn total_area(&self) -> f64 {
        self.components.iter().map(|c| c.area).sum()
    }

    /// Total flip-flop count.
    pub fn total_flip_flops(&self) -> usize {
        self.components.iter().map(|c| c.flip_flops).sum()
    }

    /// Renders the chip inventory as a table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>12} {:>10} {:>8}\n",
            "component", "gate-eq", "comb", "FF"
        ));
        for c in &self.components {
            out.push_str(&format!(
                "{:<24} {:>12.0} {:>10} {:>8}\n",
                c.name, c.area, c.combinational, c.flip_flops
            ));
        }
        out.push_str(&format!(
            "{:<24} {:>12.0} {:>10} {:>8}\n",
            "TOTAL",
            self.total_area(),
            self.components
                .iter()
                .map(|c| c.combinational)
                .sum::<usize>(),
            self.total_flip_flops()
        ));
        out
    }
}

/// Breakdown of a netlist by gate kind, ordered by area contribution,
/// largest first; rows of equal area (the zero-area constants, say) in
/// [`GateKind`] order, so the table is the same on every run.
pub fn histogram_table(c: &ComponentNetlist) -> String {
    let mut rows: Vec<(GateKind, usize)> = c.netlist.histogram().into_iter().collect();
    rows.sort_by(|a, b| {
        let aa = a.0.area() * a.1 as f64;
        let bb = b.0.area() * b.1 as f64;
        bb.total_cmp(&aa).then(a.0.cmp(&b.0))
    });
    let mut out = format!("{:<8} {:>8} {:>10}\n", "gate", "count", "area");
    for (k, n) in rows {
        out.push_str(&format!(
            "{:<8} {:>8} {:>10.1}\n",
            format!("{k:?}"),
            n,
            k.area() * n as f64
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Netlist;

    #[test]
    fn histogram_rows_of_equal_area_keep_gate_kind_order() {
        let mut netlist = Netlist::new();
        let a = netlist.gate(GateKind::Const1, &[]);
        let b = netlist.gate(GateKind::Const0, &[]);
        netlist.gate(GateKind::Nand2, &[a, b]);
        netlist.gate(GateKind::Nor2, &[a, b]);
        netlist.gate(GateKind::Inv, &[a]);
        netlist.gate(GateKind::Inv, &[b]);
        netlist.gate(GateKind::Xor2, &[a, b]);
        let c = ComponentNetlist {
            name: "tie".to_owned(),
            netlist,
            units: Vec::new(),
            nodes_mapped: 0,
        };
        let rows: Vec<String> = histogram_table(&c)
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().next().unwrap_or("").to_owned())
            .collect();
        // Xor2 2.5; then Nand2, Nor2 and the two inverters all at 1.0;
        // then the zero-area constants.
        assert_eq!(rows, ["Xor2", "Inv", "Nand2", "Nor2", "Const0", "Const1"]);
    }
}
