//! `serve`: the `served` daemon under a closed loop. The benchmark
//! spawns the real daemon binary (`served --cache 4`, built next to this
//! one), and one client process keeps two connections busy with a seeded
//! job mix: 60% HCOR campaigns, 20% DECT BER (alternating the adaptive
//! and the fixed receiver), 10% fused warm sessions (open, run, close)
//! and 10% DECT campaigns alternating opt 0 and 1. Those are six
//! compiled-tape cache keys against four cache entries, so hits and
//! misses both occur in steady state. Closed loop, because every caller
//! waits for its reply.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ocapi::rng::XorShift64;
use ocapi_serve::proto::{is_deterministic, is_terminal, read_frame, write_frame};
use ocapi_serve::Json;

use crate::reference::{Reference, NOMINAL};
use crate::sample::{another_rep, round_robin, summarize, tail, Pair, Tally};
use crate::trace::{SpanId, Tracer};
use crate::{peak_rss_mb, Run};

/// Compiled-tape cache entries of the daemon.
const CACHE: usize = 4;
/// Jobs run before measuring, to fill the cache and the session table.
const WARMUP_JOBS: u64 = 200;
/// Client connections (and client threads) of the load.
const CONNECTIONS: usize = 2;
/// Target length of one batch of jobs: jobs take milliseconds, and a
/// batch ends when its slowest job does.
const BATCH: Duration = Duration::from_millis(200);
/// How long a spawned daemon may take to accept its first connection.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    HcorCampaign,
    Ber,
    Session,
    DectCampaign,
}

const KINDS: [Kind; 4] = [
    Kind::HcorCampaign,
    Kind::Ber,
    Kind::Session,
    Kind::DectCampaign,
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::HcorCampaign => "hcor_campaign",
            Kind::Ber => "ber",
            Kind::Session => "session",
            Kind::DectCampaign => "dect_campaign",
        }
    }

    /// The kind of job `n` of the mix: every block of ten jobs holds
    /// exactly six HCOR campaigns, two BER jobs, one session and one
    /// DECT campaign, in a seeded order, so every batch sees the mix.
    fn of(seed: u64, n: u64) -> Kind {
        let mut block = [
            Kind::HcorCampaign,
            Kind::HcorCampaign,
            Kind::HcorCampaign,
            Kind::HcorCampaign,
            Kind::HcorCampaign,
            Kind::HcorCampaign,
            Kind::Ber,
            Kind::Ber,
            Kind::Session,
            Kind::DectCampaign,
        ];
        let mut r = XorShift64::stream(seed ^ 0x5e7e, n / 10);
        for i in (1..block.len()).rev() {
            block.swap(i, r.index(i + 1));
        }
        block[(n % 10) as usize]
    }
}

/// The request frames of job `n` of kind `kind`: one, or three for a
/// warm session. Ids are unique per job, so no two jobs share frames.
fn requests(kind: Kind, seed: u64, n: u64) -> Vec<String> {
    let s = XorShift64::stream(seed, n).below(1 << 40);
    let id = format!("j{n}");
    match kind {
        Kind::HcorCampaign => vec![format!(
            r#"{{"op":"campaign","id":"{id}","design":"hcor","cycles":64,"events":16,"seed":{s}}}"#
        )],
        Kind::Ber => {
            let design = if n.is_multiple_of(2) {
                "dect"
            } else {
                "dect_fixed"
            };
            let noise = 0.02 + (s % 80) as f64 / 1000.0;
            vec![format!(
                r#"{{"op":"ber","id":"{id}","design":"{design}","bursts":2,"payload_len":32,"noise":[{noise}]}}"#
            )]
        }
        Kind::Session => vec![
            format!(
                r#"{{"op":"session.open","id":"{id}o","session":"s{n}","design":"hcor","engine":"fused","seed":{s}}}"#
            ),
            format!(r#"{{"op":"session.run","id":"{id}r","session":"s{n}","cycles":256}}"#),
            format!(r#"{{"op":"session.close","id":"{id}c","session":"s{n}"}}"#),
        ],
        Kind::DectCampaign => vec![format!(
            r#"{{"op":"campaign","id":"{id}","design":"dect","opt":{},"cycles":32,"events":4,"seed":{s}}}"#,
            n % 2
        )],
    }
}

/// The reply to one request: its frames as received, up to and
/// including the terminal one.
struct Reply {
    frames: Vec<String>,
    terminal: String,
    /// `wall_secs` of the advisory `perf` frame, when the job sent one.
    server_secs: Option<f64>,
    cache: Option<(f64, f64)>,
}

impl Reply {
    fn deterministic(&self) -> Vec<&str> {
        self.frames
            .iter()
            .filter(|f| Json::parse(f).is_ok_and(|j| is_deterministic(&j)))
            .map(String::as_str)
            .collect()
    }
}

/// One connection to the daemon.
struct Client {
    stream: UnixStream,
}

impl Client {
    fn connect(socket: &Path) -> Result<Client, String> {
        UnixStream::connect(socket)
            .map(|stream| Client { stream })
            .map_err(|e| format!("connecting to {}: {e}", socket.display()))
    }

    fn call(&mut self, request: &str) -> Result<Reply, String> {
        write_frame(&mut self.stream, request).map_err(|e| e.to_string())?;
        let mut reply = Reply {
            frames: Vec::new(),
            terminal: String::new(),
            server_secs: None,
            cache: None,
        };
        loop {
            let text = read_frame(&mut self.stream)
                .map_err(|e| e.to_string())?
                .ok_or("the daemon closed the connection mid-reply")?;
            let frame = Json::parse(&text).map_err(|e| e.to_string())?;
            let ty = frame.get("type").and_then(Json::as_str).unwrap_or("");
            if ty == "perf" || ty == "stats" {
                reply.server_secs = frame.get("wall_secs").and_then(Json::as_f64);
                let n = |k| frame.get(k).and_then(Json::as_f64);
                reply.cache = n("cache_hits").zip(n("cache_misses"));
            }
            let done = is_terminal(&frame);
            if done {
                reply.terminal = ty.to_owned();
            }
            reply.frames.push(text);
            if done {
                return Ok(reply);
            }
        }
    }

    /// Runs every request of one job; `Ok(true)` when each ended in `done`.
    fn job(&mut self, reqs: &[String]) -> Result<(bool, Option<f64>), String> {
        let mut ok = true;
        let mut server = None;
        for r in reqs {
            let reply = self.call(r)?;
            ok &= reply.terminal == "done";
            server = reply.server_secs.or(server);
        }
        Ok((ok, server))
    }

    fn cache_counters(&mut self) -> Result<(f64, f64), String> {
        self.call(r#"{"op":"stats","id":"stats"}"#)?
            .cache
            .ok_or_else(|| "stats frame without cache counters".to_owned())
    }
}

/// A spawned daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `served` and waits until it answers a ping. Returns the
    /// daemon and the spawn → ready time.
    fn spawn(exe: &Path, socket: PathBuf) -> Result<(Daemon, f64), String> {
        let t = Instant::now();
        let child = Command::new(exe)
            .arg("--socket")
            .arg(&socket)
            .args(["--cache", &CACHE.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let daemon = Daemon { child, socket };
        let mut client = loop {
            match UnixStream::connect(&daemon.socket) {
                Ok(stream) => break Client { stream },
                Err(_) if t.elapsed() < READY_TIMEOUT => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(format!("served never became ready: {e}")),
            }
        };
        let pong = client.call(r#"{"op":"ping","id":"ready"}"#)?;
        if pong.terminal != "pong" {
            return Err(format!("ping answered with `{}`", pong.terminal));
        }
        Ok((daemon, t.elapsed().as_secs_f64()))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::connect(&self.socket)?;
        client.call(r#"{"op":"shutdown","id":"bye"}"#)?;
        drop(client);
        let t = Instant::now();
        while t.elapsed() < READY_TIMEOUT {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("served exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("served did not exit after shutdown".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// The daemon binary, built next to this one, and a socket path in the
/// same directory (relative to the working directory when it can be,
/// since socket paths are limited to about 100 bytes).
fn locate() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("the executable has no directory")?;
    let served = dir.join("served");
    if !served.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release -p ocapi-serve` into the same target directory",
            served.display()
        ));
    }
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let sock_dir = dir.strip_prefix(&cwd).map_or(dir, |rel| rel).to_owned();
    Ok((served, sock_dir))
}

/// One measured job.
struct Sample {
    kind: Kind,
    secs: f64,
    server: Option<f64>,
    ok: bool,
}

/// The closed-loop load: one client thread per connection runs the
/// jobs of each batch the main thread hands out, as fast as replies
/// come back. Between batches the daemon is idle, which is when the
/// sampler times its reference kernel.
struct Load<'a> {
    socket: PathBuf,
    seed: u64,
    probe: &'a str,
    tr: &'a Tracer,
    /// Index of the next job of the mix, and the end of the batch.
    next: AtomicU64,
    end: AtomicU64,
    stop: AtomicBool,
    /// Connection 0 sends the probe at the start of the next batch.
    probe_now: AtomicBool,
    /// The batch's span when it is traced.
    span: Mutex<SpanId>,
    start: Barrier,
    done: Barrier,
    samples: Mutex<Vec<Sample>>,
    probe_frames: Mutex<Option<Vec<String>>>,
    error: Mutex<Option<String>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Load<'_> {
    /// One client thread. After a failure it keeps meeting the
    /// barriers, running nothing, so the main thread never waits forever.
    fn worker(&self, conn: usize) {
        let mut client = Client::connect(&self.socket);
        loop {
            self.start.wait();
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let result = match &mut client {
                Ok(c) => self.run_batch(conn, c),
                Err(e) => Err(e.clone()),
            };
            if let Err(e) = result {
                lock(&self.error).get_or_insert(e);
                self.end.store(0, Ordering::SeqCst);
            }
            self.done.wait();
        }
    }

    fn run_batch(&self, conn: usize, client: &mut Client) -> Result<(), String> {
        let span = *lock(&self.span);
        if conn == 0 && self.probe_now.swap(false, Ordering::SeqCst) {
            let reply = client.call(self.probe)?;
            *lock(&self.probe_frames) = Some(
                reply
                    .deterministic()
                    .into_iter()
                    .map(str::to_owned)
                    .collect(),
            );
        }
        loop {
            let n = self.next.fetch_add(1, Ordering::SeqCst);
            if n >= self.end.load(Ordering::SeqCst) {
                return Ok(());
            }
            let kind = Kind::of(self.seed, n);
            let t = Instant::now();
            let (ok, server) = client.job(&requests(kind, self.seed, n))?;
            let end = Instant::now();
            self.tr
                .record_request(kind.name(), span, t, end, &format!("j{n}"));
            lock(&self.samples).push(Sample {
                kind,
                secs: (end - t).as_secs_f64(),
                server,
                ok,
            });
        }
    }

    /// Runs jobs `next .. next + jobs` on all connections; returns how
    /// many ran.
    fn batch(&self, jobs: u64, span: SpanId) -> Result<f64, String> {
        *lock(&self.span) = span;
        self.end
            .store(self.next.load(Ordering::SeqCst) + jobs, Ordering::SeqCst);
        self.start.wait();
        self.done.wait();
        match lock(&self.error).take() {
            Some(e) => Err(e),
            None => Ok(jobs as f64),
        }
    }

    fn shut(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.start.wait();
    }
}

pub fn run(run: &mut Run<'_>) -> Result<(), String> {
    let tr = run.tracer;
    let (served, sock_dir) = locate()?;
    let sock = |k: usize| sock_dir.join(format!("bench-{}-{k}.sock", std::process::id()));
    let seed = run.seed;

    // Set-up: spawn → ready, plus the cold first job of each kind,
    // rescaled to the nominal host like every other build.
    let setup = tr.open("setup", "", SpanId::NONE);
    let (mut setups, mut readies) = (Vec::new(), Vec::new());
    let mut reference = Reference::default();
    let started = Instant::now();
    while setups.is_empty() || another_rep(setups.len(), run.reps, started) {
        let k = setups.len();
        let rate = reference.rate();
        let t = Instant::now();
        let (daemon, ready) = Daemon::spawn(&served, sock(k))?;
        tr.record("serve.ready", "spawn", setup, t, Instant::now(), 0.0);
        let mut client = Client::connect(&daemon.socket)?;
        let mut total = ready;
        for (i, kind) in KINDS.iter().enumerate() {
            let t = Instant::now();
            let (ok, _) = client.job(&requests(*kind, seed, i as u64))?;
            let end = Instant::now();
            tr.record_request(kind.name(), setup, t, end, &format!("cold{k}-{i}"));
            run.check(ok, || {
                format!("cold {} job did not end in done", kind.name())
            });
            total += (end - t).as_secs_f64();
        }
        drop(client);
        daemon.shutdown()?;
        setups.push(total * rate / NOMINAL);
        readies.push(ready);
    }
    run.set("setup_s", summarize(&setups).median);
    run.set("serve.ready_s", summarize(&readies).median);
    tr.close(setup);

    let (daemon, _) = Daemon::spawn(&served, sock(setups.len()))?;
    // The probe: one job whose deterministic frames must be the same
    // bytes alone and under load. Its index is one the load never uses.
    let probe = requests(Kind::HcorCampaign, seed, u64::MAX).remove(0);
    let mut client = Client::connect(&daemon.socket)?;
    let alone: Vec<String> = client
        .call(&probe)?
        .deterministic()
        .into_iter()
        .map(str::to_owned)
        .collect();

    let load = Load {
        socket: daemon.socket.clone(),
        seed,
        probe: &probe,
        tr,
        next: AtomicU64::new(0),
        end: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        probe_now: AtomicBool::new(false),
        span: Mutex::new(SpanId::NONE),
        start: Barrier::new(CONNECTIONS + 1),
        done: Barrier::new(CONNECTIONS + 1),
        samples: Mutex::new(Vec::new()),
        probe_frames: Mutex::new(None),
        error: Mutex::new(None),
    };
    let measure = tr.open("measure", "", SpanId::NONE);
    let budget = run.budget;
    let (pair, tally) = std::thread::scope(|s| {
        for conn in 0..CONNECTIONS {
            let load = &load;
            s.spawn(move || load.worker(conn));
        }
        let warm = load.batch(if run.smoke { 20 } else { WARMUP_JOBS }, SpanId::NONE);
        lock(&load.samples).clear();
        let t = Instant::now();
        let load = &load;
        let mut pair = Pair::new("serve.batch", "mix", move |jobs, span| {
            if t.elapsed() >= budget / 2 && lock(&load.probe_frames).is_none() {
                load.probe_now.store(true, Ordering::SeqCst);
            }
            load.batch(jobs, span)
        })
        .slice(BATCH);
        let tally = match warm {
            Ok(_) => round_robin(std::slice::from_mut(&mut pair), budget, tr, measure),
            Err(e) => {
                pair.error = Some(e);
                Tally::default()
            }
        };
        load.shut();
        (pair, tally)
    });
    tr.close(measure);
    // Cache counters over the daemon's life: the six compulsory misses
    // of the warm-up are noise against thousands of jobs.
    let (hits, misses) = client.cache_counters()?;
    run.set("peak_mem_mb", peak_rss_mb(&daemon.child.id().to_string())?);
    drop(client);
    daemon.shutdown()?;

    let samples = std::mem::take(&mut *lock(&load.samples));
    let under_load = lock(&load.probe_frames).take();
    run.check(under_load.as_ref() == Some(&alone), || {
        "the probe's deterministic frames differ under load".to_owned()
    });
    for s in &samples {
        run.check(s.ok, || {
            format!("a {} job did not end in done", s.kind.name())
        });
    }
    run.report_pairs(std::slice::from_ref(&pair), "jobs", tally);
    run.set("serve.jobs_per_s", summarize(&pair.rates).median);

    // A failed job counts as infinitely slow.
    let ms = |s: &Sample| if s.ok { s.secs * 1e3 } else { f64::INFINITY };
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>16}",
        "kind", "jobs", "p50 ms", "q3 ms", "tail ms"
    );
    for kind in KINDS {
        let lat: Vec<f64> = samples.iter().filter(|s| s.kind == kind).map(ms).collect();
        let sum = summarize(&lat);
        let (label, tail_ms) = tail(&lat).unwrap_or(("q3", sum.q3));
        println!(
            "{:<14} {:>8} {:>10.3} {:>10.3} {:>9.3} ({label})",
            kind.name(),
            sum.n,
            sum.median,
            sum.q3,
            tail_ms
        );
        run.set(format!("serve.p50_ms.{}", kind.name()), sum.median);
        run.set(format!("serve.tail_ms.{}", kind.name()), tail_ms);
    }
    let server: Vec<(f64, f64)> = samples
        .iter()
        .filter_map(|s| s.server.map(|sv| (sv * 1e3, s.secs * 1e3)))
        .collect();
    run.set(
        "serve.server_ms_p50",
        summarize(&server.iter().map(|p| p.0).collect::<Vec<_>>()).median,
    );
    run.set(
        "serve.overhead_ms_p50",
        summarize(&server.iter().map(|p| p.1 - p.0).collect::<Vec<_>>()).median,
    );
    run.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    println!(
        "{} jobs on {CONNECTIONS} connections; cache hits {hits} misses {misses}",
        samples.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_reads_frames_up_to_the_terminal_one() {
        let (ours, mut theirs) = UnixStream::pair().unwrap();
        let chunk = r#"{"id":"j1","type":"chunk","n":1}"#;
        let done = r#"{"id":"j1","type":"done","results":{}}"#;
        let server = std::thread::spawn(move || {
            let req = read_frame(&mut theirs).unwrap().unwrap();
            write_frame(&mut theirs, chunk).unwrap();
            write_frame(
                &mut theirs,
                r#"{"id":"j1","type":"perf","wall_secs":0.25,"cache_hits":3,"cache_misses":1}"#,
            )
            .unwrap();
            write_frame(&mut theirs, done).unwrap();
            req
        });
        let mut client = Client { stream: ours };
        let request = requests(Kind::HcorCampaign, 7, 1).remove(0);
        let reply = client.call(&request).unwrap();
        assert_eq!(server.join().unwrap(), request);
        assert_eq!(reply.terminal, "done");
        assert_eq!(reply.server_secs, Some(0.25));
        assert_eq!(reply.cache, Some((3.0, 1.0)));
        assert_eq!(reply.deterministic(), vec![chunk, done]);
        assert_eq!(reply.frames.len(), 3);
    }

    #[test]
    fn a_closed_connection_mid_reply_is_an_error() {
        let (ours, theirs) = UnixStream::pair().unwrap();
        drop(theirs);
        let mut client = Client { stream: ours };
        assert!(client.call(r#"{"op":"ping","id":"x"}"#).is_err());
    }

    #[test]
    fn the_mix_is_seeded_and_spans_six_cache_keys() {
        let kinds: Vec<Kind> = (0..10_000).map(|n| Kind::of(5, n)).collect();
        assert_eq!(
            kinds,
            (0..10_000).map(|n| Kind::of(5, n)).collect::<Vec<_>>()
        );
        assert_ne!(
            kinds,
            (0..10_000).map(|n| Kind::of(6, n)).collect::<Vec<_>>()
        );
        let share = |k| kinds.iter().filter(|x| **x == k).count() as f64 / 10_000.0;
        for (k, want) in [
            (Kind::HcorCampaign, 0.6),
            (Kind::Ber, 0.2),
            (Kind::Session, 0.1),
            (Kind::DectCampaign, 0.1),
        ] {
            assert!((share(k) - want).abs() < 1e-9, "{k:?}: {}", share(k));
        }
        let mut keys = Vec::new();
        for n in 0..200 {
            for req in requests(Kind::of(5, n), 5, n) {
                let j = Json::parse(&req).unwrap();
                let text = |k| j.get(k).and_then(Json::as_str).map(str::to_owned);
                if let Some(design) = text("design") {
                    let opt = j.get("opt").and_then(Json::as_u64).unwrap_or(2);
                    keys.push((design, opt, text("engine")));
                }
            }
        }
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 6, "{keys:?}");
        assert!(CACHE < keys.len());
    }
}
