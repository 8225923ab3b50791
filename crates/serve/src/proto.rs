//! The wire protocol: length-prefixed JSON frames over a Unix-domain
//! socket.
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! A connection carries a sequence of requests; each request produces a
//! stream of response frames that always ends with a terminal frame:
//!
//! * `{"id":…,"type":"chunk",…}` — zero or more incremental results,
//!   in deterministic order.
//! * `{"id":…,"type":"perf",…}` / `{"id":…,"type":"stats",…}` —
//!   **advisory** wall-clock and cache telemetry, sent *before* the
//!   terminal frame. Never part of the determinism contract.
//! * `{"id":…,"type":"done","results":{…}}` — the final deterministic
//!   result document. Terminal.
//! * `{"id":…,"type":"error","message":…}` — the request failed.
//!   Terminal.
//!
//! The `id` is chosen by the client and echoed verbatim into every
//! frame of the response, which is what makes the deterministic frames
//! of two identical requests byte-identical even when other jobs are
//! interleaved on the server: nothing server-assigned (connection ids,
//! timestamps, sequence numbers) ever appears in a deterministic frame.

use std::io::{Read, Write};

use ocapi_obs::json::Json;

use crate::error::ServeError;

/// Upper bound on a frame payload; a length prefix beyond this is a
/// protocol error, not an allocation request.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// The most [`read_frame`] reserves before a payload's bytes arrive; a
/// longer payload grows its buffer with the bytes received, so a bare
/// length prefix cannot make the daemon hold [`MAX_FRAME`] bytes.
const RESERVE: usize = 64 * 1024;

/// Frame types that are pure functions of the request (the determinism
/// contract covers exactly these).
pub fn is_deterministic(frame: &Json) -> bool {
    matches!(
        frame.get("type").and_then(Json::as_str),
        Some("chunk" | "done" | "error" | "pong")
    )
}

/// True for the frame types that end a response stream.
pub fn is_terminal(frame: &Json) -> bool {
    matches!(
        frame.get("type").and_then(Json::as_str),
        Some("done" | "error" | "pong" | "stats" | "shutting_down")
    )
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates socket I/O errors; a payload over [`MAX_FRAME`] is a
/// [`ServeError::Protocol`].
pub fn write_frame(w: &mut impl Write, payload: &str) -> Result<(), ServeError> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(ServeError::Protocol(format!(
            "frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
            bytes.len()
        )));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); EOF *inside* a frame is a
/// [`ServeError::Protocol`].
///
/// # Errors
///
/// Socket I/O errors, oversized lengths, truncation, invalid UTF-8.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, ServeError> {
    let mut len = [0u8; 4];
    match r.read(&mut len)? {
        0 => return Ok(None),
        mut n => {
            while n < 4 {
                let m = r.read(&mut len[n..])?;
                if m == 0 {
                    return Err(ServeError::Protocol("truncated length prefix".into()));
                }
                n += m;
            }
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(ServeError::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let mut buf = Vec::with_capacity(len.min(RESERVE));
    let read = r.take(len as u64).read_to_end(&mut buf);
    if !matches!(read, Ok(n) if n == len) {
        return Err(ServeError::Protocol("truncated frame payload".into()));
    }
    let text =
        String::from_utf8(buf).map_err(|_| ServeError::Protocol("frame is not UTF-8".into()))?;
    Ok(Some(text))
}

/// Writes `frame` (rendered to its canonical byte form) to `w`.
///
/// # Errors
///
/// As [`write_frame`].
pub fn send(w: &mut impl Write, frame: &Json) -> Result<(), ServeError> {
    write_frame(w, &frame.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocapi_obs::json::obj;

    #[test]
    fn frames_round_trip_through_a_byte_pipe() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"op":"ping","id":"a"}"#).unwrap();
        write_frame(&mut buf, "{}").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(r#"{"op":"ping","id":"a"}"#)
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{}"));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_and_oversized_frames_are_protocol_errors() {
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(read_frame(&mut r), Err(ServeError::Protocol(_))));
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        assert!(matches!(read_frame(&mut r), Err(ServeError::Protocol(_))));
        let mut r: &[u8] = &[0, 0, 0, 9, b'x'];
        assert!(matches!(read_frame(&mut r), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn frame_classification_matches_the_contract() {
        let done = obj([("type", Json::Str("done".into()))]);
        let perf = obj([("type", Json::Str("perf".into()))]);
        let chunk = obj([("type", Json::Str("chunk".into()))]);
        assert!(is_deterministic(&done) && is_terminal(&done));
        assert!(!is_deterministic(&perf) && !is_terminal(&perf));
        assert!(is_deterministic(&chunk) && !is_terminal(&chunk));
    }
}
