//! The RTL intermediate representation: signals, processes, statements.
//!
//! This mirrors the subset of VHDL the code generator emits: signal
//! declarations, combinational processes with sensitivity lists,
//! clock-edge processes, and behavioural "extern" processes for untimed
//! blocks (the hand-supplied RAM/ROM models of the original flow).
//!
//! An [`RtlDesign`] is flat: one copy of every process per instance,
//! states encoded as `Bits`, and selects inlined into expressions. The HDL
//! writers print one entity per component with enumerated states, so
//! they print from the per-component [`crate::ComponentPlan`] that this
//! design is lowered from, not from this IR.

use ocapi::{BinOp, SigType, UnOp, UntimedBlock, Value};

/// Identifier of a signal in an [`RtlDesign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Index into [`RtlDesign::signals`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A signal declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalDecl {
    /// Hierarchical name (`instance.signal`).
    pub name: String,
    /// Carried type.
    pub ty: SigType,
    /// Power-up value.
    pub init: Value,
}

/// An expression evaluated against current signal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Read a signal.
    Sig(SignalId),
    /// A literal.
    Const(Value),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Conditional: `if c { t } else { e }`.
    Select {
        /// Condition (Bool).
        c: Box<Expr>,
        /// Then-value.
        t: Box<Expr>,
        /// Else-value.
        e: Box<Expr>,
    },
}

impl Expr {
    /// Collects the signals this expression reads into `out`.
    pub fn support(&self, out: &mut Vec<SignalId>) {
        match self {
            Expr::Sig(s) => out.push(*s),
            Expr::Const(_) => {}
            Expr::Un(_, a) => a.support(out),
            Expr::Bin(_, a, b) => {
                a.support(out);
                b.support(out);
            }
            Expr::Select { c, t, e } => {
                c.support(out);
                t.support(out);
                e.support(out);
            }
        }
    }
}

/// A sequential statement inside a process body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Schedule `signal <= expr` (takes effect at the next delta).
    Assign(SignalId, Expr),
    /// `if cond { then } else { otherwise }`.
    If {
        /// Condition (Bool).
        cond: Expr,
        /// Statements when true.
        then: Vec<Stmt>,
        /// Statements when false.
        otherwise: Vec<Stmt>,
    },
}

impl Stmt {
    /// Collects the signals read by this statement (conditions and
    /// right-hand sides) into `out`.
    pub fn support(&self, out: &mut Vec<SignalId>) {
        match self {
            Stmt::Assign(_, e) => e.support(out),
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                cond.support(out);
                for s in then.iter().chain(otherwise) {
                    s.support(out);
                }
            }
        }
    }
}

/// What wakes a process up.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Any event on any listed signal (a VHDL sensitivity list).
    Signals(Vec<SignalId>),
    /// A rising edge (false→true) of a Bool signal.
    Rising(SignalId),
}

/// A process body: interpreted statements or a native behavioural model.
pub enum ProcessBody {
    /// Sequential statements (assignments take effect next delta).
    Stmts(Vec<Stmt>),
    /// A native untimed block: reads `inputs`, drives `outputs`.
    Extern {
        /// Signals gathered as the block's inputs (port order).
        inputs: Vec<SignalId>,
        /// Signals driven by the block's outputs (port order).
        outputs: Vec<SignalId>,
        /// The behavioural model.
        block: Box<dyn UntimedBlock>,
    },
}

impl std::fmt::Debug for ProcessBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessBody::Stmts(s) => write!(f, "Stmts({} statements)", s.len()),
            ProcessBody::Extern { block, .. } => write!(f, "Extern({})", block.name()),
        }
    }
}

/// A process: trigger plus body.
#[derive(Debug)]
pub struct Process {
    /// Process name (for diagnostics).
    pub name: String,
    /// Wake-up condition.
    pub trigger: Trigger,
    /// What to execute.
    pub body: ProcessBody,
}

/// A complete RTL design.
#[derive(Debug, Default)]
pub struct RtlDesign {
    /// Design name.
    pub name: String,
    /// Signal declarations.
    pub signals: Vec<SignalDecl>,
    /// Processes.
    pub processes: Vec<Process>,
}

impl RtlDesign {
    /// Creates an empty design.
    pub fn new(name: &str) -> RtlDesign {
        RtlDesign {
            name: name.to_owned(),
            signals: Vec::new(),
            processes: Vec::new(),
        }
    }

    /// Declares a signal initialised to `init`.
    pub fn signal(&mut self, name: &str, ty: SigType, init: Value) -> SignalId {
        self.signals.push(SignalDecl {
            name: name.to_owned(),
            ty,
            init,
        });
        SignalId(self.signals.len() as u32 - 1)
    }

    /// Adds a process.
    pub fn process(&mut self, name: &str, trigger: Trigger, body: ProcessBody) {
        self.processes.push(Process {
            name: name.to_owned(),
            trigger,
            body,
        });
    }

    /// Looks up a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(|i| SignalId(i as u32))
    }
}
