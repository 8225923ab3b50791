//! The module AST: the one RT-level structure of a component and of a
//! system's top level.
//!
//! [`Module::new`] builds one component's module from its plan (its
//! cones, drivers and state encoding), and [`Top::new`] builds a system's
//! top level with one module per timed instance. The VHDL and Verilog printers of
//! `ocapi-hdl` print these values and [`crate::RtlSystemSim`] elaborates
//! them, so hold and held-copy resets, mux defaults, transition priority
//! and port binding are decided here once. Identifier escaping, literals,
//! types and expression syntax are left to the printers.
//!
//! The three consumers differ only in which cone nodes get a named net,
//! and the printed text depends on that choice: it is the one [`Sharing`]
//! parameter of the builder.

use ocapi::{
    BinOp, Component, MemorySpec, NodeId, NodeKind, PortDecl, PrimaryInput, PrimaryOutput, RegDecl,
    SigType, System, UnOp, Value,
};

use crate::plan::{ComponentPlan, Cone};

/// Which cone nodes get a named net. A leaf (constant, input or register
/// read) never does; any other node without one is inlined into its
/// readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// A non-leaf node used twice: the RT kernel's rule.
    Reused,
    /// A non-leaf node used twice, and every select, since VHDL has no
    /// conditional expression: the VHDL printer's rule.
    ReusedAndSelects,
    /// Every non-leaf node, which pins the width and signedness of every
    /// intermediate result: the Verilog printer's rule.
    Every,
}

impl Sharing {
    fn names(self, comp: &Component, cone: &Cone, i: usize) -> bool {
        cone.ops[i]
            && match self {
                Sharing::Reused => cone.uses[i] > 1,
                Sharing::ReusedAndSelects => {
                    cone.uses[i] > 1 || matches!(comp.nodes[i].kind, NodeKind::Select { .. })
                }
                Sharing::Every => true,
            }
    }
}

/// The cone a named net belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetKind {
    /// The datapath cone, rooted at every SFG output drive and register
    /// write.
    Datapath,
    /// The guard cone, rooted at every FSM transition guard. It reads the
    /// held copy of each held input.
    Guard,
}

/// A signal every module declares, by its role. Port and register
/// indices are those of [`Module::inputs`], [`Module::outputs`] and
/// [`Module::regs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Var {
    /// An input port, read at its pin.
    Pin(usize),
    /// The held copy of an input port: the pin as it was last cycle.
    Held(usize),
    /// A register's current value (`_r`).
    Reg(usize),
    /// A register's next value (`_next`).
    Next(usize),
    /// An output port's value this cycle (`_int`).
    Int(usize),
    /// An output port's value last cycle (`_hold`), which it keeps in a
    /// cycle where no selected SFG drives it.
    Hold(usize),
    /// The current state.
    State,
    /// The next state.
    StateNext,
}

/// An expression tree with its result type.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The result type.
    pub ty: SigType,
    /// The operation.
    pub kind: ExprKind,
}

/// The operation of an [`Expr`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// A literal.
    Const(Value),
    /// Reads a module signal: a pin, a held copy or a register.
    Var(Var),
    /// Reads a named net, by index into [`Module::nets`].
    Net(usize),
    /// A unary operation.
    Un(UnOp, Box<Expr>),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `if cond { then } else { otherwise }`.
    Select {
        /// The Bool condition.
        cond: Box<Expr>,
        /// The value when it holds.
        then: Box<Expr>,
        /// The value otherwise.
        otherwise: Box<Expr>,
    },
}

/// A cone node with a name of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// The cone it belongs to.
    pub kind: NetKind,
    /// The expression node it names, by index into `Component::nodes`.
    pub node: usize,
    /// The node's user-visible name, if it has one.
    pub label: Option<String>,
    /// Its operation, over leaves, earlier nets and inlined operations.
    pub expr: Expr,
}

impl Net {
    /// Its name: `n` for the datapath or `g` for the guard cone, then the
    /// node index.
    pub fn name(&self) -> String {
        match self.kind {
            NetKind::Datapath => format!("n{}", self.node),
            NetKind::Guard => format!("g{}", self.node),
        }
    }
}

/// One FSM transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// The condition, over the guard cone; `None` is always taken.
    pub guard: Option<Expr>,
    /// The SFGs it selects: the bits of `sel` it sets.
    pub selects: Vec<usize>,
    /// The state it enters.
    pub to: usize,
}

/// The controller: states, their binary encoding and the transitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Controller {
    /// State names.
    pub states: Vec<String>,
    /// The reset state.
    pub initial: usize,
    /// Bits of the binary state encoding.
    pub bits: u32,
    /// Per state: its transitions in priority order, cut after the first
    /// unguarded one.
    pub transitions: Vec<Vec<Transition>>,
}

/// A selection mux: the value of the first arm whose SFG is selected,
/// else `default`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mux {
    /// The signal it drives.
    pub target: Var,
    /// `(sfg, value)` pairs in SFG order.
    pub arms: Vec<(usize, Expr)>,
    /// The value when no arm's SFG is selected.
    pub default: Var,
}

/// What a commit loads while reset is asserted.
#[derive(Debug, Clone, PartialEq)]
pub enum Reset {
    /// A register's initial value.
    Value(Value),
    /// The initial state.
    State(usize),
    /// All bits clear: output holds and held copies.
    Zero,
}

/// A clocked commit: `target` takes `source` on the rising clock edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    /// The register written.
    pub target: Var,
    /// The value it takes.
    pub source: Var,
    /// The value it takes on reset.
    pub reset: Reset,
}

/// One component as a module.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// The component's name, unescaped.
    pub name: String,
    /// Input ports.
    pub inputs: Vec<PortDecl>,
    /// Output ports.
    pub outputs: Vec<PortDecl>,
    /// Registers; `_r` and `_next` both start at the initial value.
    pub regs: Vec<RegDecl>,
    /// The input ports a guard reads through a held copy, sorted.
    pub held: Vec<usize>,
    /// The width of the one-hot select vector `sel`: one bit per SFG.
    pub sel_width: usize,
    /// The controller; without one, every SFG runs every cycle.
    pub controller: Option<Controller>,
    /// The named nets in node order, a datapath net before the guard net
    /// of the same node.
    pub nets: Vec<Net>,
    /// One mux per output port (`Int` from `Hold`), then one per register
    /// (`Next` from `Reg`).
    pub muxes: Vec<Mux>,
    /// The state, then every register, output hold and held copy.
    pub commits: Vec<Commit>,
    /// Whether a node or port carries a float, which no HDL synthesizes.
    pub has_float: bool,
}

impl Module {
    /// Builds the module of `comp` whose guards read a held copy of each
    /// guard input among `held`, naming cone nodes by `sharing`.
    pub fn new(comp: &Component, held: &[usize], sharing: Sharing) -> Module {
        let plan = ComponentPlan::new(comp);
        let mut held_ports = comp.guard_inputs();
        held_ports.retain(|p| held.contains(p));
        let mut b = Builder {
            comp,
            held: &held_ports,
            nets: Vec::new(),
            named: [vec![None; comp.nodes.len()], vec![None; comp.nodes.len()]],
        };
        for i in 0..comp.nodes.len() {
            for (kind, cone) in [
                (NetKind::Datapath, &plan.datapath),
                (NetKind::Guard, &plan.guards),
            ] {
                if sharing.names(comp, cone, i) {
                    let expr = b.inline(NodeId::from_index(i), kind);
                    b.named[kind as usize][i] = Some(b.nets.len());
                    let label = comp.nodes[i].name.clone();
                    b.nets.push(Net {
                        kind,
                        node: i,
                        label,
                        expr,
                    });
                }
            }
        }
        let controller = comp.fsm.as_ref().map(|fsm| Controller {
            states: fsm.states.clone(),
            initial: fsm.initial.index(),
            bits: plan.state_bits,
            transitions: (0..fsm.states.len())
                .map(|s| {
                    let mut list = Vec::new();
                    for t in fsm.transitions.iter().filter(|t| t.from.index() == s) {
                        list.push(Transition {
                            guard: t.guard.map(|g| b.expr(g, NetKind::Guard)),
                            selects: t.actions.iter().map(|a| a.index()).collect(),
                            to: t.to.index(),
                        });
                        if t.guard.is_none() {
                            break;
                        }
                    }
                    list
                })
                .collect(),
        });
        // One mux per output, then per register; each SFG that drives
        // or writes one adds an arm, in SFG order.
        let targets = (0..comp.outputs.len()).map(|o| (Var::Int(o), Var::Hold(o)));
        let targets = targets.chain((0..comp.regs.len()).map(|r| (Var::Next(r), Var::Reg(r))));
        let mut muxes: Vec<Mux> = targets
            .map(|(target, default)| Mux {
                target,
                arms: Vec::new(),
                default,
            })
            .collect();
        let first_reg = comp.outputs.len();
        for (s, sfg) in comp.sfgs.iter().enumerate() {
            let drives = sfg.outputs.iter().map(|(o, n)| (o.index(), *n));
            let writes = sfg
                .reg_writes
                .iter()
                .map(|(r, n)| (first_reg + r.index(), *n));
            for (k, n) in drives.chain(writes) {
                muxes[k].arms.push((s, b.expr(n, NetKind::Datapath)));
            }
        }
        let commit = |target, source, reset| Commit {
            target,
            source,
            reset,
        };
        let mut commits: Vec<Commit> = Vec::new();
        if let Some(c) = &controller {
            commits.push(commit(Var::State, Var::StateNext, Reset::State(c.initial)));
        }
        for (r, decl) in comp.regs.iter().enumerate() {
            commits.push(commit(Var::Reg(r), Var::Next(r), Reset::Value(decl.init)));
        }
        for o in 0..comp.outputs.len() {
            commits.push(commit(Var::Hold(o), Var::Int(o), Reset::Zero));
        }
        for &p in &held_ports {
            commits.push(commit(Var::Held(p), Var::Pin(p), Reset::Zero));
        }
        Module {
            name: comp.name.clone(),
            inputs: comp.inputs.clone(),
            outputs: comp.outputs.clone(),
            regs: comp.regs.clone(),
            sel_width: comp.sfgs.len(),
            controller,
            nets: b.nets,
            muxes,
            commits,
            has_float: plan.has_float,
            held: held_ports,
        }
    }

    /// The type of `v`; the state is its binary encoding.
    pub fn ty(&self, v: Var) -> SigType {
        match v {
            Var::Pin(p) | Var::Held(p) => self.inputs[p].ty,
            Var::Reg(r) | Var::Next(r) => self.regs[r].ty,
            Var::Int(o) | Var::Hold(o) => self.outputs[o].ty,
            Var::State | Var::StateNext => {
                SigType::Bits(self.controller.as_ref().map_or(1, |c| c.bits))
            }
        }
    }

    /// The name of `v`: its port or register name, legalised by `esc`,
    /// and the suffix of its role.
    pub fn var_name(&self, v: Var, esc: impl Fn(&str) -> String) -> String {
        let (name, suffix) = match v {
            Var::Pin(p) => (&self.inputs[p].name, ""),
            Var::Held(p) => (&self.inputs[p].name, "_held"),
            Var::Reg(r) => (&self.regs[r].name, "_r"),
            Var::Next(r) => (&self.regs[r].name, "_next"),
            Var::Int(o) => (&self.outputs[o].name, "_int"),
            Var::Hold(o) => (&self.outputs[o].name, "_hold"),
            Var::State => return "state".to_owned(),
            Var::StateNext => return "state_next".to_owned(),
        };
        esc(name) + suffix
    }
}

/// Builds the expression trees of one module.
struct Builder<'a> {
    comp: &'a Component,
    held: &'a [usize],
    nets: Vec<Net>,
    /// Per [`NetKind`] and node: its net, once named.
    named: [Vec<Option<usize>>; 2],
}

impl Builder<'_> {
    /// Node `id` as read from cone `kind`: its net, or its operation.
    fn expr(&self, id: NodeId, kind: NetKind) -> Expr {
        match self.named[kind as usize][id.index()] {
            Some(k) => Expr {
                ty: self.comp.nodes[id.index()].ty,
                kind: ExprKind::Net(k),
            },
            None => self.inline(id, kind),
        }
    }

    /// Node `id`'s own operation, over the nets of cone `kind`.
    fn inline(&self, id: NodeId, kind: NetKind) -> Expr {
        let node = &self.comp.nodes[id.index()];
        let sub = |n: NodeId| Box::new(self.expr(n, kind));
        let op = match &node.kind {
            NodeKind::Const(v) => ExprKind::Const(*v),
            NodeKind::Input(p) if kind == NetKind::Guard && self.held.contains(&p.index()) => {
                ExprKind::Var(Var::Held(p.index()))
            }
            NodeKind::Input(p) => ExprKind::Var(Var::Pin(p.index())),
            NodeKind::RegRead(r) => ExprKind::Var(Var::Reg(r.index())),
            NodeKind::Un(op, a) => ExprKind::Un(*op, sub(*a)),
            NodeKind::Bin(op, a, b) => ExprKind::Bin(*op, sub(*a), sub(*b)),
            NodeKind::Select {
                cond,
                then,
                otherwise,
            } => ExprKind::Select {
                cond: sub(*cond),
                then: sub(*then),
                otherwise: sub(*otherwise),
            },
        };
        Expr {
            ty: node.ty,
            kind: op,
        }
    }
}

/// A timed instance: its module and the net on each port.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// The instance name.
    pub name: String,
    /// Its component's module, with this instance's held inputs.
    pub module: Module,
    /// Per input port: the net that drives it.
    pub inputs: Vec<usize>,
    /// Per output port: the net it drives; `None` leaves it open.
    pub outputs: Vec<Option<usize>>,
}

/// An untimed block: a ROM/RAM model or a black box, with the net on
/// each port.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The block name.
    pub name: String,
    /// Its memory model; `None` is a black box.
    pub memory: Option<MemorySpec<'static>>,
    /// Per input port: its declaration and the net that drives it.
    pub inputs: Vec<(PortDecl, usize)>,
    /// Per output port: its declaration and the net it drives; `None`
    /// leaves it open.
    pub outputs: Vec<(PortDecl, Option<usize>)>,
}

/// A system's top level.
#[derive(Debug, Clone, PartialEq)]
pub struct Top {
    /// The system name.
    pub name: String,
    /// Primary inputs, each with the net it drives.
    pub inputs: Vec<PrimaryInput>,
    /// Primary outputs, each driven from a net.
    pub outputs: Vec<PrimaryOutput>,
    /// The nets, each with its source: a constant, a primary input, or an
    /// instance or block port.
    pub nets: Vec<ocapi::Net>,
    /// The timed instances.
    pub instances: Vec<Instance>,
    /// The untimed blocks.
    pub blocks: Vec<Block>,
}

impl Top {
    /// Builds the top level of `sys`, with each instance's module built by
    /// `sharing` and holding the inputs [`System::guard_held_inputs`]
    /// names.
    pub fn new(sys: &System, sharing: Sharing) -> Top {
        let instances = sys.timed.iter().enumerate().map(|(ti, t)| Instance {
            name: t.name.clone(),
            module: Module::new(&t.comp, &sys.guard_held_inputs(ti), sharing),
            inputs: (0..t.comp.inputs.len())
                .map(|p| sys.timed_input_net(ti, p))
                .collect(),
            outputs: (0..t.comp.outputs.len())
                .map(|p| sys.timed_output_net(ti, p))
                .collect(),
        });
        let blocks = sys.untimed.iter().enumerate().map(|(ui, u)| Block {
            name: u.block.name().to_owned(),
            memory: u.block.memory_spec().map(MemorySpec::into_owned),
            inputs: u
                .inputs
                .iter()
                .enumerate()
                .map(|(p, q)| (q.clone(), sys.untimed_input_net(ui, p)))
                .collect(),
            outputs: u
                .outputs
                .iter()
                .enumerate()
                .map(|(p, q)| (q.clone(), sys.untimed_output_net(ui, p)))
                .collect(),
        });
        Top {
            name: sys.name.clone(),
            inputs: sys.primary_inputs.clone(),
            outputs: sys.primary_outputs.clone(),
            nets: sys.nets.clone(),
            instances: instances.collect(),
            blocks: blocks.collect(),
        }
    }
}
