//! The benchmark harness error vocabulary.
//!
//! Every binary follows the same exit discipline: argument parse errors
//! exit 2 (handled inside [`crate::cli::parse_args`]), runtime failures
//! propagate a [`BenchError`] out of the bin's `run()` and exit 1 with
//! the error printed to stderr. Panics are reserved for broken
//! invariants (determinism assertions), not for I/O or workload errors.

use std::error::Error;
use std::fmt;

use ocapi::CoreError;
use ocapi_gatesim::GateError;
use ocapi_hdl::CodegenError;
use ocapi_synth::SynthError;

/// A benchmark-harness failure: I/O on report/checkpoint files, a core
/// simulation error, a failed or panicked work item of a sharded run, or
/// a checkpoint manifest problem.
#[derive(Debug)]
pub enum BenchError {
    /// Report or checkpoint file I/O failed.
    Io(std::io::Error),
    /// A simulation/capture error outside any sharded run.
    Core(CoreError),
    /// A gate-level simulation error outside any sharded run.
    Gate(GateError),
    /// A synthesis error while generating a netlist for gate-level work.
    Synth(SynthError),
    /// An HDL code-generation error while counting generated lines.
    Codegen(CodegenError),
    /// Work item `index` of a sharded run failed.
    Item {
        /// Global index of the failed item (lowest-indexed failure,
        /// deterministic for every thread count).
        index: usize,
        /// The item's error.
        error: CoreError,
    },
    /// Work item `index` panicked in a worker.
    Panic {
        /// Global index of the panicked item.
        index: usize,
    },
    /// A checkpoint manifest was missing, damaged, or written by a
    /// different workload configuration.
    Checkpoint(String),
    /// A benchmark-driver invariant failed (e.g. an empty workload where
    /// at least one item is guaranteed).
    Driver(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Io(e) => write!(f, "i/o error: {e}"),
            BenchError::Core(e) => write!(f, "{e}"),
            BenchError::Gate(e) => write!(f, "{e}"),
            BenchError::Synth(e) => write!(f, "{e}"),
            BenchError::Codegen(e) => write!(f, "{e}"),
            BenchError::Item { index, error } => {
                write!(f, "work item {index} failed: {error}")
            }
            BenchError::Panic { index } => {
                write!(f, "work item {index} panicked in a worker thread")
            }
            BenchError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
            BenchError::Driver(msg) => write!(f, "driver invariant: {msg}"),
        }
    }
}

impl Error for BenchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BenchError::Io(e) => Some(e),
            BenchError::Core(e) | BenchError::Item { error: e, .. } => Some(e),
            BenchError::Gate(e) => Some(e),
            BenchError::Synth(e) => Some(e),
            BenchError::Codegen(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> BenchError {
        BenchError::Io(e)
    }
}

impl From<CoreError> for BenchError {
    fn from(e: CoreError) -> BenchError {
        BenchError::Core(e)
    }
}

impl From<GateError> for BenchError {
    fn from(e: GateError) -> BenchError {
        BenchError::Gate(e)
    }
}

impl From<SynthError> for BenchError {
    fn from(e: SynthError) -> BenchError {
        BenchError::Synth(e)
    }
}

impl From<CodegenError> for BenchError {
    fn from(e: CodegenError) -> BenchError {
        BenchError::Codegen(e)
    }
}
