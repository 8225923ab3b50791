use std::error::Error;
use std::fmt;

use crate::value::SigType;

/// Errors raised while capturing or simulating a design.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Two signals of incompatible type were combined. The paper's
    /// environment relies on the host type system for this; we check at
    /// graph-construction time.
    TypeMismatch {
        /// Operation being built.
        op: String,
        /// Left/first operand type.
        left: SigType,
        /// Right/second operand type (same as `left` for unary ops).
        right: SigType,
    },
    /// A name was looked up and not found (port, instance, net, state…).
    UnknownName {
        /// What kind of thing was looked up.
        kind: &'static str,
        /// The name that failed to resolve.
        name: String,
    },
    /// A duplicate name was declared.
    DuplicateName {
        /// What kind of thing was declared.
        kind: &'static str,
        /// The clashing name.
        name: String,
    },
    /// An input port is driven by more than one net, or an output drives
    /// conflicting connections.
    ConnectionConflict {
        /// Human-readable endpoint description.
        endpoint: String,
    },
    /// An input port was never connected to a driver.
    UnconnectedInput {
        /// Instance name.
        instance: String,
        /// Port name.
        port: String,
    },
    /// The evaluation phase of the cycle scheduler made no progress while
    /// signal-flow graphs were still waiting for input tokens: a
    /// combinational loop (or a genuinely deadlocked system).
    CombinationalLoop {
        /// The assignments that never received their inputs, as
        /// `instance.sfg -> target` strings.
        waiting: Vec<String>,
    },
    /// The data-flow scheduler could not fire any actor although tokens
    /// remain (or an actor never became fireable).
    DataflowDeadlock {
        /// Actors that still have work pending.
        blocked: Vec<String>,
    },
    /// The SDF balance equations have no non-trivial solution — the graph
    /// has inconsistent rates and cannot be scheduled periodically.
    InconsistentRates {
        /// The edge (producer, consumer) where inconsistency was detected.
        edge: (String, String),
    },
    /// A strict component check failed (dangling input, dead code, …).
    CheckFailed {
        /// The diagnostics, rendered.
        diagnostics: Vec<String>,
    },
    /// The design cannot be compiled to a static single-pass schedule
    /// (the conservative cross-component dependence graph is cyclic).
    /// The interpreted simulator may still succeed if the cycle is a
    /// false positive of the conservative analysis.
    NotCompilable {
        /// Description of the strongly connected component found.
        cycle: Vec<String>,
    },
    /// A simulation-time value did not match the declared signal type.
    ValueType {
        /// Where the mismatch happened.
        context: String,
        /// The expected type.
        expected: SigType,
    },
    /// A signal handle from one component was used inside another.
    ForeignSignal,
    /// The simulator back-end does not implement the requested operation
    /// (e.g. state peeking on a back-end without observable state).
    Unsupported {
        /// The unimplemented operation.
        op: String,
    },
    /// A trace row of the wrong width was recorded: the number of values
    /// did not match the number of declared trace signals.
    TraceShape {
        /// Declared signal count of the trace.
        expected: usize,
        /// Number of values in the rejected row.
        got: usize,
    },
    /// A worker of the sharded execution engine panicked while
    /// processing the given work item. The panic was contained at the
    /// item boundary (the pool survives and every other item ran); the
    /// index identifies the poisoned run deterministically.
    WorkerPanic {
        /// Index of the work item whose closure panicked.
        index: usize,
    },
    /// A snapshot was offered to a simulator whose structural design
    /// hash does not match the one the snapshot was taken from: a
    /// different design.
    SnapshotMismatch {
        /// Design hash of the simulator refusing the restore.
        expected: u64,
        /// Design hash recorded in the snapshot.
        got: u64,
    },
    /// A snapshot byte stream or section was malformed (bad magic,
    /// unsupported version, checksum failure, wrong section shape).
    SnapshotFormat {
        /// What was wrong with it.
        reason: String,
    },
    /// A cached compiled tape ([`crate::CompiledTape`]) was offered a
    /// system whose structural hash does not match the system the tape
    /// was compiled from — a tape-cache lookup gone wrong.
    TapeMismatch {
        /// Structural hash the tape was compiled from.
        expected: u64,
        /// Structural hash of the offered system.
        got: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::TypeMismatch { op, left, right } => {
                write!(f, "type mismatch in {op}: {left} vs {right}")
            }
            CoreError::UnknownName { kind, name } => write!(f, "unknown {kind} `{name}`"),
            CoreError::DuplicateName { kind, name } => write!(f, "duplicate {kind} `{name}`"),
            CoreError::ConnectionConflict { endpoint } => {
                write!(f, "conflicting connection at {endpoint}")
            }
            CoreError::UnconnectedInput { instance, port } => {
                write!(f, "input `{instance}.{port}` is not connected")
            }
            CoreError::CombinationalLoop { waiting } => {
                write!(f, "combinational loop: unresolved after evaluation phase: ")?;
                write!(f, "{}", waiting.join(", "))
            }
            CoreError::DataflowDeadlock { blocked } => {
                write!(
                    f,
                    "data-flow deadlock, blocked actors: {}",
                    blocked.join(", ")
                )
            }
            CoreError::InconsistentRates { edge } => {
                write!(f, "inconsistent SDF rates on edge {} -> {}", edge.0, edge.1)
            }
            CoreError::CheckFailed { diagnostics } => {
                write!(f, "component checks failed: {}", diagnostics.join("; "))
            }
            CoreError::NotCompilable { cycle } => {
                write!(
                    f,
                    "design not statically schedulable, dependency cycle through: {}",
                    cycle.join(" -> ")
                )
            }
            CoreError::ValueType { context, expected } => {
                write!(f, "value type mismatch at {context}: expected {expected}")
            }
            CoreError::ForeignSignal => {
                write!(f, "signal belongs to a different component")
            }
            CoreError::Unsupported { op } => {
                write!(f, "unsupported simulator operation: {op}")
            }
            CoreError::TraceShape { expected, got } => {
                write!(
                    f,
                    "trace width mismatch: {expected} signals declared, {got} values recorded"
                )
            }
            CoreError::WorkerPanic { index } => {
                write!(f, "sharded work item {index} panicked in a worker thread")
            }
            CoreError::SnapshotMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot design hash {got:#018x} does not match simulator \
                     design hash {expected:#018x}"
                )
            }
            CoreError::SnapshotFormat { reason } => {
                write!(f, "malformed snapshot: {reason}")
            }
            CoreError::TapeMismatch { expected, got } => {
                write!(
                    f,
                    "cached tape was compiled from design {expected:#018x}, \
                     offered system hashes to {got:#018x}"
                )
            }
        }
    }
}

impl Error for CoreError {}
