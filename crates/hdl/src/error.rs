use std::error::Error;
use std::fmt;

/// Errors raised by the HDL code generators.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodegenError {
    /// A float-typed signal reached code generation. Floats are for
    /// high-level modelling; quantise to fixed point first.
    FloatNotSynthesizable {
        /// The component containing the float signal.
        component: String,
    },
    /// A testbench was requested from an empty trace.
    EmptyTrace,
    /// Two instances of one component disagree on whether a guard-feeding
    /// input is internally driven. The entity is emitted once per
    /// component, and a guard either reads the pin directly or a
    /// registered (held) copy — it cannot do both, so the instances
    /// cannot share an entity.
    HeldGuardConflict {
        /// The component emitted once.
        component: String,
        /// The guard-feeding input port the instances disagree on.
        port: String,
    },
    /// Two instances that share an entity name build different modules:
    /// two different components share a name, and one entity cannot be
    /// both.
    ComponentConflict {
        /// The shared entity name.
        component: String,
    },
    /// An I/O failure while writing a generated project to disk.
    Io {
        /// The underlying error, rendered.
        message: String,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::FloatNotSynthesizable { component } => write!(
                f,
                "component `{component}` contains float signals; quantise to fixed point before code generation"
            ),
            CodegenError::EmptyTrace => write!(f, "cannot generate a testbench from an empty trace"),
            CodegenError::HeldGuardConflict { component, port } => write!(
                f,
                "instances of component `{component}` disagree on whether guard input `{port}` \
                 is internally driven; one shared entity cannot register and not register it"
            ),
            CodegenError::ComponentConflict { component } => write!(
                f,
                "two different components are named `{component}`; one entity cannot be both"
            ),
            CodegenError::Io { message } => write!(f, "project write failed: {message}"),
        }
    }
}

impl Error for CodegenError {}
