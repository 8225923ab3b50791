//! The RT-level structure of one component, derived once.
//!
//! The RT kernel's lowering ([`crate::RtlSystemSim`]) and both HDL writers
//! of `ocapi-hdl` turn a [`Component`] into the same structure: a
//! controller that selects SFGs, expression cones for the datapath and for
//! the FSM guards, one selection mux per output port and per register,
//! and a clocked process. [`ComponentPlan`] computes what all three read
//! from the component. Each consumer keeps only its own rule for which
//! cone nodes become named signals, because that rule decides the text it
//! prints.

use ocapi::{Component, NodeId, NodeKind, SigType};

/// The expression nodes reachable from a set of roots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cone {
    /// Per node: whether the cone computes it, i.e. it is reachable and
    /// not a leaf (a constant, input read or register read).
    pub ops: Vec<bool>,
    /// Per node: its uses, counting each time it is listed as a root and
    /// each operand slot of a reachable node that names it.
    pub uses: Vec<u32>,
}

impl Cone {
    fn new(comp: &Component, roots: impl Iterator<Item = NodeId>) -> Cone {
        let mut uses = vec![0u32; comp.nodes.len()];
        let mut reach = vec![false; comp.nodes.len()];
        let mut stack: Vec<NodeId> = roots.inspect(|r| uses[r.index()] += 1).collect();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut reach[n.index()], true) {
                continue;
            }
            let operands = match comp.nodes[n.index()].kind {
                NodeKind::Const(_) | NodeKind::Input(_) | NodeKind::RegRead(_) => [None; 3],
                NodeKind::Un(_, a) => [Some(a), None, None],
                NodeKind::Bin(_, a, b) => [Some(a), Some(b), None],
                NodeKind::Select {
                    cond,
                    then,
                    otherwise,
                } => [Some(cond), Some(then), Some(otherwise)],
            };
            for c in operands.into_iter().flatten() {
                uses[c.index()] += 1;
                stack.push(c);
            }
        }
        let ops = comp
            .nodes
            .iter()
            .zip(reach)
            .map(|(node, r)| {
                r && !matches!(
                    node.kind,
                    NodeKind::Const(_) | NodeKind::Input(_) | NodeKind::RegRead(_)
                )
            })
            .collect();
        Cone { ops, uses }
    }
}

/// What the RT kernel and both HDL writers derive from one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentPlan {
    /// The datapath cone, rooted at every SFG output drive and register
    /// write.
    pub datapath: Cone,
    /// The guard cone, rooted at every FSM transition guard.
    pub guards: Cone,
    /// Per output port: the `(sfg, node)` pairs that drive it, in SFG
    /// order.
    pub output_drivers: Vec<Vec<(usize, NodeId)>>,
    /// Per register: the `(sfg, node)` pairs that write it, in SFG order.
    pub reg_drivers: Vec<Vec<(usize, NodeId)>>,
    /// Bits of the binary state encoding; 0 without an FSM.
    pub state_bits: u32,
    /// Whether a node or port carries a float, which no HDL synthesizes.
    pub has_float: bool,
}

impl ComponentPlan {
    /// Derives the plan of `comp`.
    pub fn new(comp: &Component) -> ComponentPlan {
        let datapath = Cone::new(
            comp,
            comp.sfgs.iter().flat_map(|s| {
                s.outputs
                    .iter()
                    .map(|(_, n)| *n)
                    .chain(s.reg_writes.iter().map(|(_, n)| *n))
            }),
        );
        let guards = Cone::new(
            comp,
            comp.fsm
                .iter()
                .flat_map(|f| f.transitions.iter().filter_map(|t| t.guard)),
        );
        let mut output_drivers = vec![Vec::new(); comp.outputs.len()];
        let mut reg_drivers = vec![Vec::new(); comp.regs.len()];
        for (si, sfg) in comp.sfgs.iter().enumerate() {
            for (port, node) in &sfg.outputs {
                output_drivers[port.index()].push((si, *node));
            }
            for (reg, node) in &sfg.reg_writes {
                reg_drivers[reg.index()].push((si, *node));
            }
        }
        let state_bits = comp.fsm.as_ref().map_or(0, |f| {
            f.states.len().next_power_of_two().trailing_zeros().max(1)
        });
        let has_float = comp.nodes.iter().any(|n| n.ty == SigType::Float)
            || comp.inputs.iter().any(|p| p.ty == SigType::Float)
            || comp.outputs.iter().any(|p| p.ty == SigType::Float);
        ComponentPlan {
            datapath,
            guards,
            output_drivers,
            reg_drivers,
            state_bits,
            has_float,
        }
    }
}
