//! Component capture: ports, registers, expression nodes, signal flow
//! graphs and the builder DSL.
//!
//! This module is the Rust counterpart of the paper's Figure 3: `sig`
//! objects are assembled into expressions by operator overloading, the
//! expressions are grouped into signal flow graphs ([`Sfg`]s) with declared
//! inputs and outputs, and semantic checks (dangling inputs, dead code)
//! warn about inconsistencies.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::fsm::Fsm;
use crate::value::{BinOp, SigType, UnOp, Value};
use crate::CoreError;

/// Identifier of an expression node within one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The node's index in [`Component::nodes`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from an index into [`Component::nodes`]
    /// (for code generators and synthesis back-ends walking the graph).
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

/// An input port handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InPort(pub(crate) u32);

impl InPort {
    /// The port's index in [`Component::inputs`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An output port handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutPort(pub(crate) u32);

impl OutPort {
    /// The port's index in [`Component::outputs`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A registered-signal handle. Registers have a current and a next value;
/// reads see the current value, [`SfgBuilder::next`] schedules the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub(crate) u32);

impl Reg {
    /// The register's index in [`Component::regs`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Reference to a signal flow graph within its component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SfgRef(pub(crate) u32);

impl SfgRef {
    /// The SFG's index in [`Component::sfgs`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A port declaration: name and type.
#[derive(Debug, Clone, PartialEq)]
pub struct PortDecl {
    /// Port name, unique within the component and direction.
    pub name: String,
    /// Signal type carried by the port.
    pub ty: SigType,
}

/// A register declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct RegDecl {
    /// Register name, unique within the component.
    pub name: String,
    /// Stored signal type.
    pub ty: SigType,
    /// Reset/initial value.
    pub init: Value,
}

/// The operation computed by an expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A constant value.
    Const(Value),
    /// Reads an input port (the token on the connected net).
    Input(InPort),
    /// Reads a register's current value.
    RegRead(Reg),
    /// A unary operation.
    Un(UnOp, NodeId),
    /// A binary operation.
    Bin(BinOp, NodeId, NodeId),
    /// `if cond { then } else { otherwise }` — a multiplexer.
    Select {
        /// Boolean condition.
        cond: NodeId,
        /// Value when the condition is true.
        then: NodeId,
        /// Value when the condition is false.
        otherwise: NodeId,
    },
}

/// One expression node: operation, result type and optional name.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation.
    pub kind: NodeKind,
    /// The (inferred) result type.
    pub ty: SigType,
    /// Optional user-visible name (set with [`Sig::named`]).
    pub name: Option<String>,
}

/// A signal flow graph: one clock cycle of data processing.
///
/// An SFG groups output-port and register assignments; the FSM selects
/// which SFGs execute in a given cycle. Per the paper, the *desired* inputs
/// can be declared ([`SfgBuilder::uses`]) so the checker can flag dangling
/// inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Sfg {
    /// SFG name, unique within the component.
    pub name: String,
    /// Inputs the designer declared this SFG should read.
    pub declared_inputs: Vec<InPort>,
    /// Output-port assignments, at most one per port.
    pub outputs: Vec<(OutPort, NodeId)>,
    /// Register next-value assignments, at most one per register.
    pub reg_writes: Vec<(Reg, NodeId)>,
}

/// A semantic-check finding on a finished component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The kind of finding.
    pub kind: DiagnosticKind,
    /// Human-readable description including the involved names.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

/// The kinds of semantic-check findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DiagnosticKind {
    /// An SFG declared an input it never reads.
    DanglingInput,
    /// An SFG reads an input it did not declare (only checked when the SFG
    /// declares at least one input).
    UndeclaredInput,
    /// A named node contributes to no SFG output, register or condition.
    DeadCode,
    /// An output port no SFG ever drives.
    UndrivenOutput,
    /// A register that is written but never read, or read but never
    /// written.
    UnusedRegister,
    /// An FSM state no transition can reach.
    UnreachableState,
}

pub(crate) struct CompInner {
    pub(crate) name: String,
    pub(crate) inputs: Vec<PortDecl>,
    pub(crate) outputs: Vec<PortDecl>,
    pub(crate) regs: Vec<RegDecl>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) sfgs: Vec<Sfg>,
    pub(crate) fsm: Option<Fsm>,
}

impl CompInner {
    fn dup(&self, kind: &'static str, name: &str, exists: bool) -> Result<(), CoreError> {
        if exists {
            Err(CoreError::DuplicateName {
                kind,
                name: name.to_owned(),
            })
        } else {
            Ok(())
        }
    }
}

/// A finished, immutable hardware component: the in-memory data structure
/// that simulation, code generation and synthesis all share (the paper's
/// Figure 7 "data structure").
#[derive(Debug, Clone)]
pub struct Component {
    /// Component (entity) name.
    pub name: String,
    /// Input ports.
    pub inputs: Vec<PortDecl>,
    /// Output ports.
    pub outputs: Vec<PortDecl>,
    /// Registers.
    pub regs: Vec<RegDecl>,
    /// Expression nodes; operands always precede their users, so the node
    /// list is a topological order.
    pub nodes: Vec<Node>,
    /// Signal flow graphs.
    pub sfgs: Vec<Sfg>,
    /// The Mealy controller, if any. Components without an FSM execute
    /// *all* their SFGs every cycle.
    pub fsm: Option<Fsm>,
    /// Semantic-check findings computed at build time.
    pub diagnostics: Vec<Diagnostic>,
    /// Per node: the sorted set of input-port indices in its cone.
    pub(crate) input_deps: Vec<Vec<u32>>,
}

impl Component {
    /// Starts capturing a new component.
    pub fn build(name: &str) -> ComponentBuilder {
        ComponentBuilder {
            inner: Rc::new(RefCell::new(CompInner {
                name: name.to_owned(),
                inputs: Vec::new(),
                outputs: Vec::new(),
                regs: Vec::new(),
                nodes: Vec::new(),
                sfgs: Vec::new(),
                fsm: None,
            })),
        }
    }

    /// Looks up an input port by name.
    pub fn input_by_name(&self, name: &str) -> Option<InPort> {
        self.inputs
            .iter()
            .position(|p| p.name == name)
            .map(|i| InPort(i as u32))
    }

    /// Looks up an output port by name.
    pub fn output_by_name(&self, name: &str) -> Option<OutPort> {
        self.outputs
            .iter()
            .position(|p| p.name == name)
            .map(|i| OutPort(i as u32))
    }

    /// The node a given id refers to.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The input ports (as indices into [`Component::inputs`]) in the cone
    /// of the given node.
    pub fn input_deps(&self, id: NodeId) -> &[u32] {
        &self.input_deps[id.index()]
    }

    /// The input ports (as indices into [`Component::inputs`]) that any
    /// FSM transition guard reads, sorted.
    pub fn guard_inputs(&self) -> Vec<usize> {
        let mut ports: Vec<usize> = self
            .fsm
            .iter()
            .flat_map(|f| f.transitions.iter().filter_map(|t| t.guard))
            .flat_map(|g| self.input_deps(g).iter().map(|&p| p as usize))
            .collect();
        ports.sort_unstable();
        ports.dedup();
        ports
    }

    /// Which SFGs would execute if the FSM is absent (all of them).
    pub fn all_sfg_refs(&self) -> Vec<SfgRef> {
        (0..self.sfgs.len() as u32).map(SfgRef).collect()
    }
}

/// Builder for a [`Component`]; clones of the internal state are shared by
/// the [`Sig`] handles it hands out, which is what lets plain Rust
/// operator syntax append nodes to the graph.
pub struct ComponentBuilder {
    pub(crate) inner: Rc<RefCell<CompInner>>,
}

impl ComponentBuilder {
    /// Declares an input port.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] if an input of this name exists.
    pub fn input(&self, name: &str, ty: SigType) -> Result<InPort, CoreError> {
        let mut inner = self.inner.borrow_mut();
        let exists = inner.inputs.iter().any(|p| p.name == name);
        inner.dup("input port", name, exists)?;
        inner.inputs.push(PortDecl {
            name: name.to_owned(),
            ty,
        });
        Ok(InPort(inner.inputs.len() as u32 - 1))
    }

    /// Declares an output port.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] if an output of this name
    /// exists.
    pub fn output(&self, name: &str, ty: SigType) -> Result<OutPort, CoreError> {
        let mut inner = self.inner.borrow_mut();
        let exists = inner.outputs.iter().any(|p| p.name == name);
        inner.dup("output port", name, exists)?;
        inner.outputs.push(PortDecl {
            name: name.to_owned(),
            ty,
        });
        Ok(OutPort(inner.outputs.len() as u32 - 1))
    }

    /// Declares a register initialised to the type's zero value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] if a register of this name
    /// exists.
    pub fn reg(&self, name: &str, ty: SigType) -> Result<Reg, CoreError> {
        self.reg_init(name, ty, ty.zero())
    }

    /// Declares a register with an explicit initial value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] on a name clash and
    /// [`CoreError::ValueType`] if `init` does not match `ty`.
    pub fn reg_init(&self, name: &str, ty: SigType, init: Value) -> Result<Reg, CoreError> {
        init.check_type(ty, &format!("initial value of register `{name}`"))?;
        let mut inner = self.inner.borrow_mut();
        let exists = inner.regs.iter().any(|r| r.name == name);
        inner.dup("register", name, exists)?;
        inner.regs.push(RegDecl {
            name: name.to_owned(),
            ty,
            init,
        });
        Ok(Reg(inner.regs.len() as u32 - 1))
    }

    /// The signal carried by an input port.
    pub fn read(&self, port: InPort) -> Sig {
        let ty = self.inner.borrow().inputs[port.index()].ty;
        self.push(NodeKind::Input(port), ty)
    }

    /// The current value of a register.
    pub fn q(&self, reg: Reg) -> Sig {
        let ty = self.inner.borrow().regs[reg.index()].ty;
        self.push(NodeKind::RegRead(reg), ty)
    }

    /// A constant signal.
    pub fn constant(&self, v: Value) -> Sig {
        let ty = v.sig_type();
        self.push(NodeKind::Const(v), ty)
    }

    /// A constant bit word.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn const_bits(&self, width: u32, bits: u64) -> Sig {
        self.constant(Value::bits(width, bits))
    }

    /// A constant control bit.
    pub fn const_bool(&self, b: bool) -> Sig {
        self.constant(Value::Bool(b))
    }

    /// A constant fixed-point value, quantised to `fmt` with
    /// round-to-nearest and saturation.
    pub fn const_fixed(&self, value: f64, fmt: ocapi_fixp::Format) -> Sig {
        self.constant(Value::Fixed(ocapi_fixp::Fix::from_f64(
            value,
            fmt,
            ocapi_fixp::Rounding::Nearest,
            ocapi_fixp::Overflow::Saturate,
        )))
    }

    /// A two-way multiplexer: `cond ? then : otherwise`.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not `Bool`, if the branches differ in type or
    /// if any signal belongs to another component (the same discipline as
    /// the arithmetic operators; see [`Sig`]).
    pub fn select(&self, cond: &Sig, then: &Sig, otherwise: &Sig) -> Sig {
        assert!(
            Rc::ptr_eq(&self.inner, &cond.inner)
                && Rc::ptr_eq(&cond.inner, &then.inner)
                && Rc::ptr_eq(&then.inner, &otherwise.inner),
            "select: signals belong to different components"
        );
        assert_eq!(cond.ty, SigType::Bool, "select condition must be bool");
        assert_eq!(
            then.ty, otherwise.ty,
            "select branches must have the same type ({} vs {})",
            then.ty, otherwise.ty
        );
        self.push(
            NodeKind::Select {
                cond: cond.node,
                then: then.node,
                otherwise: otherwise.node,
            },
            then.ty,
        )
    }

    /// Opens a new signal flow graph.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] if an SFG of this name exists.
    pub fn sfg(&self, name: &str) -> Result<SfgBuilder, CoreError> {
        let mut inner = self.inner.borrow_mut();
        let exists = inner.sfgs.iter().any(|s| s.name == name);
        inner.dup("sfg", name, exists)?;
        inner.sfgs.push(Sfg {
            name: name.to_owned(),
            declared_inputs: Vec::new(),
            outputs: Vec::new(),
            reg_writes: Vec::new(),
        });
        let idx = inner.sfgs.len() as u32 - 1;
        Ok(SfgBuilder {
            inner: Rc::clone(&self.inner),
            sfg: SfgRef(idx),
        })
    }

    /// Finishes the component, computing the semantic-check diagnostics
    /// but not failing on them.
    ///
    /// # Errors
    ///
    /// Returns an error for *structural* problems: an FSM transition whose
    /// SFGs drive the same output twice in one cycle.
    pub fn finish(self) -> Result<Component, CoreError> {
        let inner = self.inner.borrow();
        let input_deps = compute_input_deps(&inner.nodes);
        let comp = Component {
            name: inner.name.clone(),
            inputs: inner.inputs.clone(),
            outputs: inner.outputs.clone(),
            regs: inner.regs.clone(),
            nodes: inner.nodes.clone(),
            sfgs: inner.sfgs.clone(),
            fsm: inner.fsm.clone(),
            diagnostics: Vec::new(),
            input_deps,
        };
        validate_structure(&comp)?;
        let diagnostics = run_checks(&comp);
        Ok(Component {
            diagnostics,
            ..comp
        })
    }

    /// Like [`ComponentBuilder::finish`], but any diagnostic is an error.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CheckFailed`] listing every finding, plus the
    /// structural errors of `finish`.
    pub fn finish_strict(self) -> Result<Component, CoreError> {
        let comp = self.finish()?;
        if comp.diagnostics.is_empty() {
            Ok(comp)
        } else {
            Err(CoreError::CheckFailed {
                diagnostics: comp.diagnostics.iter().map(|d| d.to_string()).collect(),
            })
        }
    }

    pub(crate) fn push(&self, kind: NodeKind, ty: SigType) -> Sig {
        let mut inner = self.inner.borrow_mut();
        inner.nodes.push(Node {
            kind,
            ty,
            name: None,
        });
        Sig {
            inner: Rc::clone(&self.inner),
            node: NodeId(inner.nodes.len() as u32 - 1),
            ty,
        }
    }
}

/// Builder for one signal flow graph.
pub struct SfgBuilder {
    inner: Rc<RefCell<CompInner>>,
    sfg: SfgRef,
}

impl SfgBuilder {
    /// The reference used to attach this SFG to FSM transitions.
    pub fn id(&self) -> SfgRef {
        self.sfg
    }

    /// Declares that this SFG is meant to read the given input (enables
    /// the dangling-input and undeclared-input checks).
    pub fn uses(&self, port: InPort) -> &SfgBuilder {
        self.inner.borrow_mut().sfgs[self.sfg.index()]
            .declared_inputs
            .push(port);
        self
    }

    /// Drives an output port with a signal for the cycles this SFG runs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ForeignSignal`] if the signal belongs to
    /// another component, [`CoreError::TypeMismatch`] if its type differs
    /// from the port type, and [`CoreError::ConnectionConflict`] if this
    /// SFG already drives the port.
    pub fn drive(&self, port: OutPort, sig: &Sig) -> Result<(), CoreError> {
        self.check_own(sig)?;
        let mut inner = self.inner.borrow_mut();
        let pty = inner.outputs[port.index()].ty;
        if pty != sig.ty {
            return Err(CoreError::TypeMismatch {
                op: format!("drive `{}`", inner.outputs[port.index()].name),
                left: pty,
                right: sig.ty,
            });
        }
        let sfg = &mut inner.sfgs[self.sfg.index()];
        if sfg.outputs.iter().any(|(p, _)| *p == port) {
            let name = sfg.name.clone();
            return Err(CoreError::ConnectionConflict {
                endpoint: format!("sfg `{name}` output {}", port.index()),
            });
        }
        sfg.outputs.push((port, sig.node));
        Ok(())
    }

    /// Schedules the register's next value for the cycles this SFG runs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ForeignSignal`] if the signal belongs to
    /// another component, [`CoreError::TypeMismatch`] if its type differs
    /// from the register type, and [`CoreError::ConnectionConflict`] if
    /// this SFG already writes the register.
    pub fn next(&self, reg: Reg, sig: &Sig) -> Result<(), CoreError> {
        self.check_own(sig)?;
        let mut inner = self.inner.borrow_mut();
        let rty = inner.regs[reg.index()].ty;
        if rty != sig.ty {
            return Err(CoreError::TypeMismatch {
                op: format!("next `{}`", inner.regs[reg.index()].name),
                left: rty,
                right: sig.ty,
            });
        }
        let sfg = &mut inner.sfgs[self.sfg.index()];
        if sfg.reg_writes.iter().any(|(r, _)| *r == reg) {
            let name = sfg.name.clone();
            return Err(CoreError::ConnectionConflict {
                endpoint: format!("sfg `{name}` register {}", reg.index()),
            });
        }
        sfg.reg_writes.push((reg, sig.node));
        Ok(())
    }

    /// A signal of another component names a node of that component's
    /// graph, not of this one.
    fn check_own(&self, sig: &Sig) -> Result<(), CoreError> {
        if Rc::ptr_eq(&self.inner, &sig.inner) {
            Ok(())
        } else {
            Err(CoreError::ForeignSignal)
        }
    }
}

/// A signal handle: a node in the component's expression graph.
///
/// `Sig` is the Rust analogue of the paper's `sig` class (Figure 3):
/// applying `+`, `-`, `*`, `&`, `|`, `^`, `!` to signals appends operator
/// nodes to the component's graph, reusing the host-language parser to
/// capture the signal flow graph.
///
/// # Panics
///
/// Operator applications panic (a capture-time "compile error") when the
/// operand types are incompatible or the operands belong to different
/// components. Use explicit casts ([`Sig::to_fixed`], [`Sig::to_bits`], …)
/// to convert.
#[derive(Clone)]
pub struct Sig {
    pub(crate) inner: Rc<RefCell<CompInner>>,
    pub(crate) node: NodeId,
    pub(crate) ty: SigType,
}

impl fmt::Debug for Sig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sig(#{}, {})", self.node.0, self.ty)
    }
}

impl Sig {
    /// The node this signal refers to.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The signal's type.
    pub fn sig_type(&self) -> SigType {
        self.ty
    }

    /// Attaches a name to the node (shows up in diagnostics, generated
    /// HDL and traces).
    pub fn named(self, name: &str) -> Sig {
        self.inner.borrow_mut().nodes[self.node.index()].name = Some(name.to_owned());
        self
    }

    fn builder(&self) -> ComponentBuilder {
        ComponentBuilder {
            inner: Rc::clone(&self.inner),
        }
    }

    pub(crate) fn bin(&self, op: BinOp, rhs: &Sig) -> Sig {
        assert!(
            Rc::ptr_eq(&self.inner, &rhs.inner),
            "{op:?}: signals belong to different components"
        );
        let ty = op
            .result_type(self.ty, rhs.ty)
            .unwrap_or_else(|e| panic!("{e}"));
        self.builder()
            .push(NodeKind::Bin(op, self.node, rhs.node), ty)
    }

    pub(crate) fn un(&self, op: UnOp) -> Sig {
        let ty = op.result_type(self.ty).unwrap_or_else(|e| panic!("{e}"));
        self.builder().push(NodeKind::Un(op, self.node), ty)
    }

    /// Equality comparison, producing a `Bool` signal.
    pub fn eq(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Eq, rhs)
    }

    /// Inequality comparison.
    pub fn ne(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Ne, rhs)
    }

    /// Less-than comparison (unsigned on `Bits`).
    pub fn lt(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Lt, rhs)
    }

    /// Less-or-equal comparison.
    pub fn le(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Le, rhs)
    }

    /// Greater-than comparison.
    pub fn gt(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Gt, rhs)
    }

    /// Greater-or-equal comparison.
    pub fn ge(&self, rhs: &Sig) -> Sig {
        self.bin(BinOp::Ge, rhs)
    }

    /// Constant left shift (on `Bits`).
    pub fn shl(&self, n: u32) -> Sig {
        self.un(UnOp::Shl(n))
    }

    /// Constant logical right shift (on `Bits`).
    pub fn shr(&self, n: u32) -> Sig {
        self.un(UnOp::Shr(n))
    }

    /// Bit-field extraction `lo..lo+width` (on `Bits`).
    pub fn slice(&self, lo: u32, width: u32) -> Sig {
        self.un(UnOp::Slice { lo, width })
    }

    /// Extracts a single bit as `Bits(1)` and tests it, giving a `Bool`.
    pub fn bit(&self, index: u32) -> Sig {
        self.slice(index, 1).un(UnOp::ToBool)
    }

    /// Quantises to a fixed-point format.
    pub fn to_fixed(
        &self,
        fmt: ocapi_fixp::Format,
        rounding: ocapi_fixp::Rounding,
        overflow: ocapi_fixp::Overflow,
    ) -> Sig {
        self.un(UnOp::ToFixed(fmt, rounding, overflow))
    }

    /// Reinterprets as a bit word of the given width.
    pub fn to_bits(&self, width: u32) -> Sig {
        self.un(UnOp::ToBits(width))
    }

    /// Converts to float.
    pub fn to_float(&self) -> Sig {
        self.un(UnOp::ToFloat)
    }

    /// Non-zero test, producing `Bool`.
    pub fn to_bool(&self) -> Sig {
        self.un(UnOp::ToBool)
    }

    /// Two-way multiplexer with `self` as the condition.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `Bool` and the branches share a type.
    pub fn mux(&self, then: &Sig, otherwise: &Sig) -> Sig {
        self.builder().select(self, then, otherwise)
    }
}

macro_rules! sig_binop {
    ($trait_:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait_ for &Sig {
            type Output = Sig;
            fn $method(self, rhs: &Sig) -> Sig {
                self.bin($op, rhs)
            }
        }
        impl std::ops::$trait_ for Sig {
            type Output = Sig;
            fn $method(self, rhs: Sig) -> Sig {
                self.bin($op, &rhs)
            }
        }
        impl std::ops::$trait_<&Sig> for Sig {
            type Output = Sig;
            fn $method(self, rhs: &Sig) -> Sig {
                self.bin($op, rhs)
            }
        }
        impl std::ops::$trait_<Sig> for &Sig {
            type Output = Sig;
            fn $method(self, rhs: Sig) -> Sig {
                self.bin($op, &rhs)
            }
        }
    };
}

sig_binop!(Add, add, BinOp::Add);
sig_binop!(Sub, sub, BinOp::Sub);
sig_binop!(Mul, mul, BinOp::Mul);
sig_binop!(BitAnd, bitand, BinOp::And);
sig_binop!(BitOr, bitor, BinOp::Or);
sig_binop!(BitXor, bitxor, BinOp::Xor);

impl std::ops::Not for &Sig {
    type Output = Sig;
    fn not(self) -> Sig {
        self.un(UnOp::Not)
    }
}

impl std::ops::Not for Sig {
    type Output = Sig;
    fn not(self) -> Sig {
        self.un(UnOp::Not)
    }
}

impl std::ops::Neg for &Sig {
    type Output = Sig;
    fn neg(self) -> Sig {
        self.un(UnOp::Neg)
    }
}

impl std::ops::Neg for Sig {
    type Output = Sig;
    fn neg(self) -> Sig {
        self.un(UnOp::Neg)
    }
}

fn compute_input_deps(nodes: &[Node]) -> Vec<Vec<u32>> {
    let mut deps: Vec<Vec<u32>> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let d = match &node.kind {
            NodeKind::Const(_) | NodeKind::RegRead(_) => Vec::new(),
            NodeKind::Input(p) => vec![p.0],
            NodeKind::Un(_, a) => deps[a.index()].clone(),
            NodeKind::Bin(_, a, b) => merge(&deps[a.index()], &deps[b.index()]),
            NodeKind::Select {
                cond,
                then,
                otherwise,
            } => merge(
                &deps[cond.index()],
                &merge(&deps[then.index()], &deps[otherwise.index()]),
            ),
        };
        deps.push(d);
    }
    deps
}

fn merge(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Hard structural validation: a single FSM transition must not drive the
/// same output port or register from two of its SFGs.
fn validate_structure(comp: &Component) -> Result<(), CoreError> {
    if let Some(fsm) = &comp.fsm {
        for t in &fsm.transitions {
            let mut outs = std::collections::HashSet::new();
            let mut regs = std::collections::HashSet::new();
            for sfg_ref in &t.actions {
                let sfg = &comp.sfgs[sfg_ref.index()];
                for (p, _) in &sfg.outputs {
                    if !outs.insert(*p) {
                        return Err(CoreError::ConnectionConflict {
                            endpoint: format!(
                                "{}: transition drives output `{}` twice",
                                comp.name,
                                comp.outputs[p.index()].name
                            ),
                        });
                    }
                }
                for (r, _) in &sfg.reg_writes {
                    if !regs.insert(*r) {
                        return Err(CoreError::ConnectionConflict {
                            endpoint: format!(
                                "{}: transition writes register `{}` twice",
                                comp.name,
                                comp.regs[r.index()].name
                            ),
                        });
                    }
                }
            }
        }
    } else {
        // All SFGs run together: same disjointness requirement globally.
        let mut outs = std::collections::HashSet::new();
        let mut regs = std::collections::HashSet::new();
        for sfg in &comp.sfgs {
            for (p, _) in &sfg.outputs {
                if !outs.insert(*p) {
                    return Err(CoreError::ConnectionConflict {
                        endpoint: format!(
                            "{}: output `{}` driven by multiple always-on SFGs",
                            comp.name,
                            comp.outputs[p.index()].name
                        ),
                    });
                }
            }
            for (r, _) in &sfg.reg_writes {
                if !regs.insert(*r) {
                    return Err(CoreError::ConnectionConflict {
                        endpoint: format!(
                            "{}: register `{}` written by multiple always-on SFGs",
                            comp.name,
                            comp.regs[r.index()].name
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Runs the semantic checks of §3.1: dangling inputs, dead code, plus
/// undriven outputs, unused registers and unreachable FSM states.
fn run_checks(comp: &Component) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Mark every node reachable from any SFG assignment or FSM guard.
    let mut live = vec![false; comp.nodes.len()];
    let mut stack: Vec<NodeId> = Vec::new();
    for sfg in &comp.sfgs {
        stack.extend(sfg.outputs.iter().map(|(_, n)| *n));
        stack.extend(sfg.reg_writes.iter().map(|(_, n)| *n));
    }
    if let Some(fsm) = &comp.fsm {
        for t in &fsm.transitions {
            if let Some(g) = t.guard {
                stack.push(g);
            }
        }
    }
    while let Some(n) = stack.pop() {
        if live[n.index()] {
            continue;
        }
        live[n.index()] = true;
        match &comp.nodes[n.index()].kind {
            NodeKind::Const(_) | NodeKind::Input(_) | NodeKind::RegRead(_) => {}
            NodeKind::Un(_, a) => stack.push(*a),
            NodeKind::Bin(_, a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            NodeKind::Select {
                cond,
                then,
                otherwise,
            } => {
                stack.push(*cond);
                stack.push(*then);
                stack.push(*otherwise);
            }
        }
    }
    for (i, node) in comp.nodes.iter().enumerate() {
        if !live[i] {
            if let Some(name) = &node.name {
                diags.push(Diagnostic {
                    kind: DiagnosticKind::DeadCode,
                    message: format!("{}: named signal `{name}` drives nothing", comp.name),
                });
            }
        }
    }

    // Dangling / undeclared inputs per SFG.
    for sfg in &comp.sfgs {
        let mut used: Vec<u32> = Vec::new();
        for n in sfg
            .outputs
            .iter()
            .map(|(_, n)| *n)
            .chain(sfg.reg_writes.iter().map(|(_, n)| *n))
        {
            used = merge(&used, &comp.input_deps[n.index()]);
        }
        if !sfg.declared_inputs.is_empty() {
            for d in &sfg.declared_inputs {
                if !used.contains(&d.0) {
                    diags.push(Diagnostic {
                        kind: DiagnosticKind::DanglingInput,
                        message: format!(
                            "{}: sfg `{}` declares input `{}` but never reads it",
                            comp.name,
                            sfg.name,
                            comp.inputs[d.index()].name
                        ),
                    });
                }
            }
            for u in &used {
                if !sfg.declared_inputs.iter().any(|d| d.0 == *u) {
                    diags.push(Diagnostic {
                        kind: DiagnosticKind::UndeclaredInput,
                        message: format!(
                            "{}: sfg `{}` reads input `{}` without declaring it",
                            comp.name, sfg.name, comp.inputs[*u as usize].name
                        ),
                    });
                }
            }
        }
    }

    // Undriven outputs.
    for (i, out) in comp.outputs.iter().enumerate() {
        let driven = comp
            .sfgs
            .iter()
            .any(|s| s.outputs.iter().any(|(p, _)| p.index() == i));
        if !driven {
            diags.push(Diagnostic {
                kind: DiagnosticKind::UndrivenOutput,
                message: format!("{}: output `{}` is never driven", comp.name, out.name),
            });
        }
    }

    // Unused registers.
    for (i, reg) in comp.regs.iter().enumerate() {
        let written = comp
            .sfgs
            .iter()
            .any(|s| s.reg_writes.iter().any(|(r, _)| r.index() == i));
        let read = comp.nodes.iter().enumerate().any(|(n, node)| {
            live[n] && matches!(node.kind, NodeKind::RegRead(r) if r.index() == i)
        });
        if written != read {
            diags.push(Diagnostic {
                kind: DiagnosticKind::UnusedRegister,
                message: format!(
                    "{}: register `{}` is {} but never {}",
                    comp.name,
                    reg.name,
                    if written { "written" } else { "read" },
                    if written { "read" } else { "written" }
                ),
            });
        }
    }

    // Unreachable FSM states.
    if let Some(fsm) = &comp.fsm {
        let mut reach = vec![false; fsm.states.len()];
        reach[fsm.initial.index()] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for t in &fsm.transitions {
                if reach[t.from.index()] && !reach[t.to.index()] {
                    reach[t.to.index()] = true;
                    changed = true;
                }
            }
        }
        for (i, r) in reach.iter().enumerate() {
            if !r {
                diags.push(Diagnostic {
                    kind: DiagnosticKind::UnreachableState,
                    message: format!(
                        "{}: FSM state `{}` is unreachable",
                        comp.name, fsm.states[i]
                    ),
                });
            }
        }
    }

    diags
}
