//! The daemon: a Unix-domain-socket listener, a thread per connection,
//! one shared [`TapeCache`] and session table behind it all.
//!
//! The server is deliberately boring. All determinism lives in the job
//! layer ([`crate::jobs`]); all the server does is accept connections,
//! read frames, dispatch ops, and make sure one connection's failure
//! (parse error, broken pipe, job failure) never takes down another's.
//!
//! Shutdown is cooperative: the `shutdown` op sets a flag and pokes the
//! listener with a throwaway connection so the blocking `accept` wakes
//! up and observes it.

use std::collections::BTreeMap;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use ocapi::OptLevel;
use ocapi_obs::{Counter, Registry};

use crate::cache::TapeCache;
use crate::designs::Design;
use crate::error::ServeError;
use crate::json::{obj, Json};
use crate::proto::{read_frame, send};
use crate::{jobs, VERSION};

/// A warm session parked between `session.run` calls.
///
/// Sessions are stored *at rest*: the live simulator is torn down after
/// every run and only the [`ocapi::SimSnapshot`] bytes survive. That
/// keeps the session table `Send` without asking anything of the
/// simulator, and it means park/resume is exercised on every single
/// run — there is no separate "cold path" to drift out of sync.
#[derive(Clone)]
pub struct ParkedSession {
    /// Which design the session simulates.
    pub design: Design,
    /// Tape optimization level (part of the cache key).
    pub level: OptLevel,
    /// Base seed of the deterministic input stimulus.
    pub seed: u64,
    /// Snapshot bytes from the last run; `None` before the first run
    /// (cycle 0).
    pub snapshot: Option<Vec<u8>>,
    /// Running FNV-1a digest over every cycle's outputs since the
    /// session opened — chained across park/resume, so its value after
    /// `n + m` cycles is independent of where the parks fell.
    pub digest: u64,
}

/// The result of looking a session name up in the [`SessionTable`]:
/// the distinction between "never opened" and "evicted to make room"
/// is what lets `session.run` report the eviction deterministically
/// instead of a misleading `unknown session`.
pub enum SessionLookup {
    /// The session is parked; a clone of its state (lookup counts as a
    /// use for LRU purposes).
    Found(Box<ParkedSession>),
    /// The session was evicted by the capacity bound and has not been
    /// closed or reopened since.
    Evicted,
    /// No record of the name.
    Unknown,
}

/// Capacity-bounded LRU table of parked sessions.
///
/// Before this table the daemon parked sessions forever: every
/// `session.open` grew the map, so an abandoned client leaked its
/// snapshot bytes (kilobytes per session) for the life of the daemon.
/// The table holds at most `capacity` sessions; parking one more
/// evicts the least-recently-used session and leaves a tombstone, so
/// a later `session.run` on the evicted name gets a deterministic
/// `session.evicted` error frame. Tombstones are themselves bounded
/// (8× capacity, oldest first) — the fix must not reintroduce the
/// leak it removes.
pub struct SessionTable {
    capacity: usize,
    /// Monotonic use clock; every park/lookup stamps the session.
    tick: u64,
    live: BTreeMap<String, (u64, ParkedSession)>,
    /// Evicted names not yet closed or reopened, by eviction tick.
    tombstones: BTreeMap<String, u64>,
    evictions: u64,
    parked_counter: Counter,
    evicted_counter: Counter,
}

impl SessionTable {
    /// An empty table holding at most `capacity` sessions (0 is
    /// clamped to 1). Advisory park/evict counters are registered as
    /// `serve.sessions.parked` and `serve.sessions.evicted`.
    pub fn new(capacity: usize, obs: &Registry) -> SessionTable {
        SessionTable {
            capacity: capacity.max(1),
            tick: 0,
            live: BTreeMap::new(),
            tombstones: BTreeMap::new(),
            evictions: 0,
            parked_counter: obs.counter("serve.sessions.parked"),
            evicted_counter: obs.counter("serve.sessions.evicted"),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Parked sessions currently held.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no sessions are parked.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Sessions evicted by the capacity bound since the daemon started.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `name` is currently parked.
    pub fn contains(&self, name: &str) -> bool {
        self.live.contains_key(name)
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Parks `session` under `name`, evicting the least-recently-used
    /// session if the table is full. Reusing an evicted name clears
    /// its tombstone — the new session is a fresh cycle-0 one.
    pub fn park(&mut self, name: &str, session: ParkedSession) {
        self.tombstones.remove(name);
        let tick = self.next_tick();
        self.live.insert(name.to_owned(), (tick, session));
        self.parked_counter.add(1);
        while self.live.len() > self.capacity {
            // LRU victim: the live entry with the oldest use tick.
            let victim = self
                .live
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(n, _)| n.clone());
            let Some(victim) = victim else { break };
            self.live.remove(&victim);
            let tick = self.next_tick();
            self.tombstones.insert(victim, tick);
            self.evictions += 1;
            self.evicted_counter.add(1);
        }
        while self.tombstones.len() > self.capacity * 8 {
            let oldest = self
                .tombstones
                .iter()
                .min_by_key(|(_, t)| **t)
                .map(|(n, _)| n.clone());
            let Some(oldest) = oldest else { break };
            self.tombstones.remove(&oldest);
        }
    }

    /// Looks `name` up, refreshing its LRU stamp when found.
    pub fn get(&mut self, name: &str) -> SessionLookup {
        let tick = self.next_tick();
        if let Some((t, session)) = self.live.get_mut(name) {
            *t = tick;
            return SessionLookup::Found(Box::new(session.clone()));
        }
        if self.tombstones.contains_key(name) {
            SessionLookup::Evicted
        } else {
            SessionLookup::Unknown
        }
    }

    /// Parks the post-run state back under `name`, if the session is
    /// still live (it may have been evicted or closed while the run
    /// was in flight — the run's reply is still correct, the state is
    /// simply not retained).
    pub fn repark(&mut self, name: &str, snapshot: Vec<u8>, digest: u64) -> bool {
        let tick = self.next_tick();
        if let Some((t, session)) = self.live.get_mut(name) {
            *t = tick;
            session.snapshot = Some(snapshot);
            session.digest = digest;
            self.parked_counter.add(1);
            true
        } else {
            false
        }
    }

    /// Removes `name` (live or tombstone). Returns whether a live
    /// session was dropped.
    pub fn remove(&mut self, name: &str) -> bool {
        self.tombstones.remove(name);
        self.live.remove(name).is_some()
    }
}

/// Everything the connection threads share.
pub struct ServerState {
    /// The compiled-tape cache.
    pub cache: TapeCache,
    /// Parked warm sessions by name, LRU-bounded.
    pub sessions: Mutex<SessionTable>,
    /// Server-lifetime advisory registry (cache counters live here).
    pub obs: Registry,
    /// Root directory for `Robust` checkpoint manifests; `None`
    /// disables the `checkpoint` request option.
    pub checkpoint_root: Option<String>,
    /// The socket path, kept for the shutdown self-connect.
    pub socket: String,
    /// Set by the `shutdown` op; the accept loop exits when it sees it.
    pub shutting_down: AtomicBool,
}

impl ServerState {
    /// Fresh state for a daemon listening on `socket`. `session_capacity`
    /// bounds the parked-session table (see [`SessionTable`]).
    pub fn new(
        socket: &str,
        cache_capacity: usize,
        session_capacity: usize,
        checkpoint_root: Option<String>,
    ) -> ServerState {
        let obs = Registry::new();
        ServerState {
            cache: TapeCache::new(cache_capacity, obs.clone()),
            sessions: Mutex::new(SessionTable::new(session_capacity, &obs)),
            obs,
            checkpoint_root,
            socket: socket.to_owned(),
            shutting_down: AtomicBool::new(false),
        }
    }
}

/// Handles one parsed request frame. Returns `true` when the request
/// asked the server to shut down.
///
/// Job-level failures (bad field, unknown design, simulation error) are
/// reported to the client as an `error` frame and are *not* errors of
/// the connection; only transport failures propagate.
///
/// # Errors
///
/// Socket I/O and framing failures.
pub fn handle_request(
    state: &ServerState,
    req: &Json,
    out: &mut impl Write,
) -> Result<bool, ServeError> {
    let op = match req.get("op").and_then(Json::as_str) {
        Some(op) => op.to_owned(),
        None => {
            reply_error(req, "missing or non-string field `op`", out)?;
            return Ok(false);
        }
    };
    let outcome = match op.as_str() {
        "ping" => jobs::request_id(req).and_then(|id| {
            send(
                out,
                &obj([
                    ("id", Json::Str(id.to_owned())),
                    ("type", Json::Str("pong".to_owned())),
                    ("version", Json::Str(VERSION.to_owned())),
                ]),
            )
        }),
        "stats" => stats(state, req, out),
        "shutdown" => {
            let id = req.get("id").and_then(Json::as_str).unwrap_or("shutdown");
            state.shutting_down.store(true, Ordering::SeqCst);
            send(
                out,
                &obj([
                    ("id", Json::Str(id.to_owned())),
                    ("type", Json::Str("shutting_down".to_owned())),
                ]),
            )?;
            return Ok(true);
        }
        "ber" => jobs::run_ber(state, req, out),
        "campaign" => jobs::run_campaign_job(state, req, out),
        "session.open" => jobs::session_open(state, req, out),
        "session.run" => jobs::session_run(state, req, out),
        "session.close" => jobs::session_close(state, req, out),
        other => Err(ServeError::Parse(format!(
            "unknown op `{other}` (known: ping, stats, shutdown, ber, campaign, \
             session.open, session.run, session.close)"
        ))),
    };
    match outcome {
        Ok(()) => Ok(false),
        // Transport errors: the connection is gone, stop serving it.
        Err(e @ (ServeError::Io(_) | ServeError::Protocol(_))) => Err(e),
        // Job errors: tell the client, keep the connection.
        Err(e) => {
            reply_error(req, &e.to_string(), out)?;
            Ok(false)
        }
    }
}

fn reply_error(req: &Json, message: &str, out: &mut impl Write) -> Result<(), ServeError> {
    let id = req.get("id").and_then(Json::as_str).unwrap_or("");
    send(
        out,
        &obj([
            ("id", Json::Str(id.to_owned())),
            ("type", Json::Str("error".to_owned())),
            ("message", Json::Str(message.to_owned())),
        ]),
    )
}

/// The `stats` op: advisory server telemetry (cache counters, cached
/// tape count, parked session count). Terminal on its own.
fn stats(state: &ServerState, req: &Json, out: &mut impl Write) -> Result<(), ServeError> {
    let id = jobs::request_id(req)?;
    let (hits, misses, evictions) = state.cache.stats();
    let (sessions, sessions_evicted) = {
        let table = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
        (table.len(), table.evictions())
    };
    send(
        out,
        &obj([
            ("id", Json::Str(id.to_owned())),
            ("type", Json::Str("stats".to_owned())),
            ("cache_hits", Json::Num(hits as f64)),
            ("cache_misses", Json::Num(misses as f64)),
            ("cache_evictions", Json::Num(evictions as f64)),
            ("cached_tapes", Json::Num(state.cache.len() as f64)),
            ("sessions", Json::Num(sessions as f64)),
            ("sessions_evicted", Json::Num(sessions_evicted as f64)),
        ]),
    )
}

/// Serves one connection until the peer closes it, a transport error
/// occurs, or a `shutdown` request arrives (the return value).
///
/// # Errors
///
/// Transport failures (the caller logs and drops the connection).
pub fn serve_connection(state: &ServerState, stream: UnixStream) -> Result<bool, ServeError> {
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    while let Some(text) = read_frame(&mut reader)? {
        let req = match Json::parse(&text) {
            Ok(req) => req,
            Err(e) => {
                // A malformed frame has no usable id; report and keep
                // the framing (which is still intact) alive.
                reply_error(&Json::Null, &e.to_string(), &mut writer)?;
                continue;
            }
        };
        if handle_request(state, &req, &mut writer)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Binds the socket and serves until a `shutdown` request. Removes a
/// stale socket file first, and removes it again on clean exit.
///
/// # Errors
///
/// Bind/accept failures; per-connection errors are logged to stderr and
/// do not stop the server.
pub fn run(state: &Arc<ServerState>) -> Result<(), ServeError> {
    let path = state.socket.clone();
    if std::fs::metadata(&path).is_ok() {
        std::fs::remove_file(&path)?;
    }
    let listener = UnixListener::bind(&path)?;
    let mut workers = Vec::new();
    for conn in listener.incoming() {
        if state.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                let state = Arc::clone(state);
                workers.push(std::thread::spawn(move || {
                    match serve_connection(&state, stream) {
                        Ok(true) => {
                            // Shutdown requested: wake the accept loop.
                            let _ = UnixStream::connect(&state.socket);
                        }
                        Ok(false) => {}
                        Err(e) => eprintln!("served: connection error: {e}"),
                    }
                }));
            }
            Err(e) => eprintln!("served: accept error: {e}"),
        }
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::write_frame;

    fn roundtrip(state: &ServerState, req: &str) -> Vec<String> {
        let parsed = Json::parse(req).unwrap();
        let mut out = Vec::new();
        handle_request(state, &parsed, &mut out).unwrap();
        let mut frames = Vec::new();
        let mut r = &out[..];
        while let Some(f) = read_frame(&mut r).unwrap() {
            frames.push(f);
        }
        frames
    }

    #[test]
    fn ping_pongs_with_the_crate_version() {
        let state = ServerState::new("/tmp/unused.sock", 4, 4, None);
        let frames = roundtrip(&state, r#"{"op":"ping","id":"p1"}"#);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].contains(r#""type":"pong""#), "{}", frames[0]);
        assert!(frames[0].contains(r#""id":"p1""#));
    }

    #[test]
    fn unknown_ops_and_missing_ids_become_error_frames() {
        let state = ServerState::new("/tmp/unused.sock", 4, 4, None);
        let frames = roundtrip(&state, r#"{"op":"nope","id":"x"}"#);
        assert!(frames[0].contains(r#""type":"error""#), "{}", frames[0]);
        assert!(frames[0].contains("unknown op"));
        let frames = roundtrip(&state, r#"{"op":"stats"}"#);
        assert!(frames[0].contains(r#""type":"error""#));
    }

    #[test]
    fn malformed_json_keeps_the_connection_alive() {
        let state = ServerState::new("/tmp/unused.sock", 4, 4, None);
        let mut wire = Vec::new();
        write_frame(&mut wire, "{not json").unwrap();
        write_frame(&mut wire, r#"{"op":"ping","id":"after"}"#).unwrap();
        // Emulate serve_connection's read loop over an in-memory pipe.
        let mut out = Vec::new();
        let mut r = &wire[..];
        while let Some(text) = read_frame(&mut r).unwrap() {
            match Json::parse(&text) {
                Ok(req) => {
                    handle_request(&state, &req, &mut out).unwrap();
                }
                Err(e) => super::reply_error(&Json::Null, &e.to_string(), &mut out).unwrap(),
            }
        }
        let mut frames = Vec::new();
        let mut r = &out[..];
        while let Some(f) = read_frame(&mut r).unwrap() {
            frames.push(f);
        }
        assert_eq!(frames.len(), 2);
        assert!(frames[0].contains(r#""type":"error""#));
        assert!(frames[1].contains(r#""type":"pong""#));
    }

    #[test]
    fn stats_reports_cache_counters() {
        let state = ServerState::new("/tmp/unused.sock", 4, 4, None);
        let frames = roundtrip(&state, r#"{"op":"stats","id":"s"}"#);
        assert!(frames[0].contains(r#""cache_hits":0"#), "{}", frames[0]);
        assert!(frames[0].contains(r#""sessions":0"#));
        assert!(frames[0].contains(r#""sessions_evicted":0"#));
    }

    #[test]
    fn lru_eviction_reports_session_evicted_deterministically() {
        let state = ServerState::new("/tmp/unused.sock", 4, 2, None);
        for name in ["s1", "s2", "s3"] {
            let frames = roundtrip(
                &state,
                &format!(r#"{{"op":"session.open","id":"o","session":"{name}","design":"hcor"}}"#),
            );
            assert!(frames[0].contains(r#""type":"done""#), "{}", frames[0]);
        }
        // Parking s3 into the capacity-2 table evicted s1, the LRU
        // entry. Running it reports the eviction, not `unknown`.
        let frames = roundtrip(
            &state,
            r#"{"op":"session.run","id":"r1","session":"s1","cycles":2}"#,
        );
        assert!(frames[0].contains(r#""type":"error""#), "{}", frames[0]);
        assert!(
            frames[0].contains(r#""code":"session.evicted""#),
            "{}",
            frames[0]
        );
        // The survivors still run and the stats expose the eviction.
        let frames = roundtrip(
            &state,
            r#"{"op":"session.run","id":"r2","session":"s2","cycles":2}"#,
        );
        assert!(frames[0].contains(r#""type":"done""#), "{}", frames[0]);
        let frames = roundtrip(&state, r#"{"op":"stats","id":"st"}"#);
        assert!(frames[0].contains(r#""sessions":2"#), "{}", frames[0]);
        assert!(frames[0].contains(r#""sessions_evicted":1"#));
        // Closing the evicted name clears its tombstone; afterwards the
        // name is simply unknown again.
        let frames = roundtrip(&state, r#"{"op":"session.close","id":"c","session":"s1"}"#);
        assert!(frames[0].contains(r#""closed":false"#), "{}", frames[0]);
        let frames = roundtrip(
            &state,
            r#"{"op":"session.run","id":"r3","session":"s1","cycles":2}"#,
        );
        assert!(frames[0].contains("unknown session"), "{}", frames[0]);
        // The closed name can be opened fresh; the park evicts the new
        // LRU entry (s3, untouched since its open).
        let frames = roundtrip(
            &state,
            r#"{"op":"session.open","id":"o2","session":"s1","design":"hcor"}"#,
        );
        assert!(frames[0].contains(r#""type":"done""#), "{}", frames[0]);
        let frames = roundtrip(
            &state,
            r#"{"op":"session.run","id":"r4","session":"s3","cycles":2}"#,
        );
        assert!(
            frames[0].contains(r#""code":"session.evicted""#),
            "{}",
            frames[0]
        );
        // A live name cannot be reopened.
        let frames = roundtrip(
            &state,
            r#"{"op":"session.open","id":"o3","session":"s2","design":"hcor"}"#,
        );
        assert!(frames[0].contains("already exists"), "{}", frames[0]);
    }

    #[test]
    fn compiled_and_fused_sessions_share_one_cache_entry() {
        // Both engine names run the compiled tape: the first open
        // compiles it, every later lookup of the design hits.
        let state = ServerState::new("/tmp/unused.sock", 4, 4, None);
        for (session, engine) in [("c", "compiled"), ("f", "fused")] {
            let frames = roundtrip(
                &state,
                &format!(
                    r#"{{"op":"session.open","id":"o{session}","session":"{session}","design":"hcor","engine":"{engine}"}}"#
                ),
            );
            assert!(
                frames[0].contains(&format!(r#""engine":"{engine}""#)),
                "{}",
                frames[0]
            );
            roundtrip(
                &state,
                &format!(
                    r#"{{"op":"session.run","id":"r{session}","session":"{session}","cycles":4}}"#
                ),
            );
        }
        assert_eq!(state.cache.stats(), (3, 1, 0));
        assert_eq!(state.cache.len(), 1);
    }

    #[test]
    fn session_table_bounds_live_entries_and_tombstones() {
        let obs = Registry::new();
        let mut table = SessionTable::new(2, &obs);
        let parked = || ParkedSession {
            design: Design::Hcor,
            level: OptLevel::Full,
            seed: 1,
            snapshot: None,
            digest: 0,
        };
        for i in 0..40 {
            table.park(&format!("s{i}"), parked());
        }
        assert_eq!(table.len(), 2, "live entries stay capacity-bounded");
        assert_eq!(table.evictions(), 38);
        // Tombstones are bounded to 8x capacity; the oldest fall off
        // and report as Unknown, the newest still report Evicted.
        assert!(matches!(table.get("s0"), SessionLookup::Unknown));
        assert!(matches!(table.get("s30"), SessionLookup::Evicted));
        assert!(matches!(table.get("s39"), SessionLookup::Found(_)));
        // A lookup refreshes the LRU stamp: s38 (touched) survives the
        // next park, s39 (untouched since) is the victim.
        assert!(matches!(table.get("s38"), SessionLookup::Found(_)));
        table.park("s40", parked());
        assert!(matches!(table.get("s38"), SessionLookup::Found(_)));
        assert!(matches!(table.get("s39"), SessionLookup::Evicted));
    }
}
