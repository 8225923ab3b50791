//! Integration tests for the simulation service's determinism
//! contract: the deterministic response frames of a request are
//! byte-identical whether the job runs alone or interleaved with
//! competing jobs, at any lanes/threads geometry, cold cache or warm —
//! and repeat requests are served from the tape cache.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use ocapi_serve::json::Json;
use ocapi_serve::proto::{is_deterministic, is_terminal, read_frame, write_frame};
use ocapi_serve::server::{handle_request, run, ServerState};

/// Runs one request through the executor directly (no socket) and
/// returns the canonical bytes of its deterministic frames.
fn transcript(state: &ServerState, request: &str) -> String {
    let req = Json::parse(request).unwrap();
    let mut out = Vec::new();
    handle_request(state, &req, &mut out).unwrap();
    let mut text = String::new();
    let mut r = &out[..];
    while let Some(frame) = read_frame(&mut r).unwrap() {
        let frame = Json::parse(&frame).unwrap();
        if is_deterministic(&frame) {
            text.push_str(&frame.to_string());
            text.push('\n');
        }
    }
    text
}

/// Sends one request over a live socket and returns the deterministic
/// transcript the same way.
fn exchange(socket: &str, request: &str) -> String {
    let stream = UnixStream::connect(socket).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = stream;
    write_frame(&mut writer, request).unwrap();
    let mut text = String::new();
    loop {
        let frame = read_frame(&mut reader).unwrap().expect("terminal frame");
        let frame = Json::parse(&frame).unwrap();
        if is_deterministic(&frame) {
            text.push_str(&frame.to_string());
            text.push('\n');
        }
        if is_terminal(&frame) {
            return text;
        }
    }
}

fn campaign(id: &str, lanes: usize, threads: usize) -> String {
    format!(
        r#"{{"op":"campaign","id":"{id}","design":"hcor","cycles":48,"events":6,"seed":11,"lanes":{lanes},"threads":{threads}}}"#
    )
}

fn ber(id: &str, lanes: usize, threads: usize) -> String {
    format!(
        r#"{{"op":"ber","id":"{id}","design":"dect","noise":[0.05,0.2],"bursts":2,"lanes":{lanes},"threads":{threads}}}"#
    )
}

#[test]
fn deterministic_frames_survive_concurrent_load_at_every_geometry() {
    // Reference transcripts from a quiet server, once per geometry.
    let quiet = ServerState::new("/tmp/unused.sock", 8, 8, None);
    let mut expected = Vec::new();
    for &(lanes, threads) in &[(1, 1), (1, 4), (8, 1), (8, 4)] {
        expected.push((
            transcript(&quiet, &campaign("probe-c", lanes, threads)),
            transcript(&quiet, &ber("probe-b", lanes, threads)),
        ));
    }

    // A live daemon under load: for each geometry, the two probe
    // requests race 4 competing jobs on their own connections.
    let socket = std::env::temp_dir()
        .join(format!("ocapi-serve-test-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let state = Arc::new(ServerState::new(&socket, 8, 8, None));
    let daemon = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || run(&state).unwrap())
    };
    // Wait for the listener to bind.
    for _ in 0..200 {
        if UnixStream::connect(&socket).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    for (i, &(lanes, threads)) in [(1, 1), (1, 4), (8, 1), (8, 4)].iter().enumerate() {
        let (got_c, got_b) = std::thread::scope(|scope| {
            let competitors: Vec<_> = (0..4)
                .map(|k| {
                    let socket = &socket;
                    scope.spawn(move || match k % 2 {
                        0 => exchange(socket, &campaign(&format!("noise-{k}"), 3, 2)),
                        _ => exchange(socket, &ber(&format!("noise-{k}"), 2, 2)),
                    })
                })
                .collect();
            let got_c = exchange(&socket, &campaign("probe-c", lanes, threads));
            let got_b = exchange(&socket, &ber("probe-b", lanes, threads));
            for c in competitors {
                c.join().unwrap();
            }
            (got_c, got_b)
        });
        assert_eq!(
            got_c, expected[i].0,
            "campaign transcript drifted under load at lanes={lanes} threads={threads}"
        );
        assert_eq!(
            got_b, expected[i].1,
            "ber transcript drifted under load at lanes={lanes} threads={threads}"
        );
    }

    // Geometry must not leak into the deterministic frames at all.
    assert!(expected.iter().all(|e| *e == expected[0]));

    let stream = UnixStream::connect(&socket).unwrap();
    let mut w = stream.try_clone().unwrap();
    write_frame(&mut w, r#"{"op":"shutdown","id":"bye"}"#).unwrap();
    w.flush().unwrap();
    daemon.join().unwrap();
}

#[test]
fn repeat_requests_are_served_from_the_tape_cache() {
    let state = ServerState::new("/tmp/unused.sock", 8, 8, None);
    assert_eq!(state.cache.stats(), (0, 0, 0));
    let first = transcript(&state, &campaign("rep", 2, 1));
    let (h, m, _) = state.cache.stats();
    assert_eq!((h, m), (0, 1), "cold request compiles");
    let second = transcript(&state, &campaign("rep", 2, 1));
    let (h, m, _) = state.cache.stats();
    assert_eq!((h, m), (1, 1), "second identical request skips compilation");
    assert_eq!(
        first, second,
        "cold and warm transcripts are byte-identical"
    );

    // A different opt level is a different cache key.
    let req =
        r#"{"op":"campaign","id":"rep0","design":"hcor","cycles":48,"events":6,"seed":11,"opt":0}"#;
    transcript(&state, req);
    assert_eq!(state.cache.stats().1, 2);
}

#[test]
fn parked_sessions_resume_byte_identically() {
    let state = ServerState::new("/tmp/unused.sock", 8, 8, None);
    let one = |session: &str, cycles: u64, id: &str| {
        format!(r#"{{"op":"session.run","id":"{id}","session":"{session}","cycles":{cycles}}}"#)
    };
    transcript(
        &state,
        r#"{"op":"session.open","id":"o","session":"whole","design":"hcor","seed":9}"#,
    );
    transcript(
        &state,
        r#"{"op":"session.open","id":"o","session":"split","design":"hcor","seed":9}"#,
    );
    let whole = transcript(&state, &one("whole", 32, "r"));
    transcript(&state, &one("split", 16, "r16a"));
    let split = transcript(&state, &one("split", 16, "r"));
    // The cumulative digest after 32 cycles is independent of where the
    // park fell; only from_cycle differs, and the digest lines prove
    // the restored state continued exactly where the snapshot left off.
    let digest = |t: &str| {
        t.split("\"digest\":\"")
            .nth(1)
            .map(|s| s[..16].to_owned())
            .expect("digest in transcript")
    };
    assert_eq!(digest(&whole), digest(&split));
    assert!(whole.contains("\"from_cycle\":0") && whole.contains("\"to_cycle\":32"));
    assert!(split.contains("\"from_cycle\":16") && split.contains("\"to_cycle\":32"));

    // Unknown and duplicate sessions are job errors, not panics.
    let err = transcript(&state, &one("nope", 4, "e"));
    assert!(err.contains("\"type\":\"error\""), "{err}");
    let dup = transcript(
        &state,
        r#"{"op":"session.open","id":"o","session":"whole","design":"hcor"}"#,
    );
    assert!(dup.contains("already exists"), "{dup}");

    let closed = transcript(
        &state,
        r#"{"op":"session.close","id":"c","session":"whole"}"#,
    );
    assert!(closed.contains("\"closed\":true"));
}

/// Requests whose size fields would make the daemon reserve unbounded
/// memory are refused with an error frame naming the field; the daemon
/// keeps serving the next request on its socket.
#[test]
fn oversized_requests_are_refused_and_the_daemon_keeps_serving() {
    let socket = std::env::temp_dir()
        .join(format!("ocapi-serve-caps-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let state = Arc::new(ServerState::new(&socket, 8, 8, None));
    let daemon = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || run(&state).unwrap())
    };
    for _ in 0..200 {
        if UnixStream::connect(&socket).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Exactly representable as a JSON number, far above every cap.
    let huge = 1u64 << 40;
    for (field, request) in [
        (
            "events",
            format!(r#"{{"op":"campaign","id":"big","design":"hcor","cycles":8,"events":{huge}}}"#),
        ),
        (
            "cycles",
            format!(r#"{{"op":"campaign","id":"big","design":"hcor","cycles":{huge},"events":2}}"#),
        ),
        (
            "bursts",
            format!(r#"{{"op":"ber","id":"big","design":"dect","bursts":{huge}}}"#),
        ),
        (
            "payload_len",
            format!(r#"{{"op":"ber","id":"big","design":"dect","bursts":1,"payload_len":{huge}}}"#),
        ),
    ] {
        let reply = exchange(&socket, &request);
        assert!(reply.contains("\"type\":\"error\""), "{field}: {reply}");
        assert!(reply.contains(&format!("`{field}`")), "{field}: {reply}");
        assert!(reply.contains("cap"), "{field}: {reply}");
    }

    let ok = exchange(&socket, &campaign("after", 2, 1));
    assert!(ok.contains("\"type\":\"done\""), "{ok}");
    assert_eq!(ok, transcript(&state, &campaign("after", 2, 1)));

    let stream = UnixStream::connect(&socket).unwrap();
    let mut w = stream.try_clone().unwrap();
    write_frame(&mut w, r#"{"op":"shutdown","id":"bye"}"#).unwrap();
    w.flush().unwrap();
    daemon.join().unwrap();
}
