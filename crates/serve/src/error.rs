//! The simulation-service error vocabulary.
//!
//! Both binaries follow the workspace exit discipline: malformed input
//! — CLI arguments or an unparsable/invalid request — exits 2; runtime
//! failures (socket I/O, simulation errors, a dead daemon) exit 1 with
//! the error on stderr. Panics are reserved for broken invariants, and
//! the crate root denies `unwrap`/`expect` outside tests, so every
//! failure a client can provoke arrives here as a typed value.

use std::error::Error;
use std::fmt;

use ocapi::CoreError;
use ocapi_bench::BenchError;
use ocapi_obs::json::ParseError;

/// A simulation-service failure, on either side of the socket.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or file I/O failed.
    Io(std::io::Error),
    /// A frame or CLI argument could not be parsed: malformed JSON, a
    /// missing/mistyped field, an unknown op or design. Exit code 2.
    Parse(String),
    /// A wire-protocol violation: oversized frame, truncated length
    /// prefix, non-UTF-8 payload.
    Protocol(String),
    /// A simulation error while executing a job.
    Core(CoreError),
    /// A benchmark-layer error while executing a job (sharded-run
    /// failures, checkpoint manifests).
    Bench(BenchError),
    /// The server reported an error frame for a request.
    Remote(String),
}

impl ServeError {
    /// The process exit code this error maps to: 2 for parse errors
    /// (bad input), 1 for everything else (runtime failure) — the same
    /// discipline as the benchmark bins.
    pub fn exit_code(&self) -> i32 {
        match self {
            ServeError::Parse(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Parse(msg) => write!(f, "parse error: {msg}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::Bench(e) => write!(f, "{e}"),
            ServeError::Remote(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Core(e) => Some(e),
            ServeError::Bench(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// Malformed JSON is a [`ServeError::Parse`] whose text is the parse
/// error's (`json at byte N: …`), unchanged: it reaches clients in
/// `error` frames.
impl From<ParseError> for ServeError {
    fn from(e: ParseError) -> ServeError {
        ServeError::Parse(e.to_string())
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> ServeError {
        ServeError::Core(e)
    }
}

impl From<BenchError> for ServeError {
    fn from(e: BenchError) -> ServeError {
        ServeError::Bench(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_bench_discipline() {
        assert_eq!(ServeError::Parse("x".into()).exit_code(), 2);
        assert_eq!(ServeError::Remote("x".into()).exit_code(), 1);
        assert_eq!(ServeError::Io(std::io::Error::other("x")).exit_code(), 1);
    }
}
