//! `servectl` — client and load generator for the `served` daemon.
//!
//! ```text
//! servectl --socket PATH ping
//! servectl --socket PATH stats
//! servectl --socket PATH shutdown
//! servectl --socket PATH submit --request JSON [--out FILE]
//! servectl --socket PATH loadgen [--jobs N] [--concurrency K]
//!                                [--request JSON] [--perf-json FILE]
//! ```
//!
//! `submit` sends one request and prints every response frame (one per
//! line); `--out FILE` additionally captures the **deterministic**
//! frames only — the byte-comparable transcript used by the CI
//! serve-smoke job to diff a request served alone against the same
//! request served under concurrent load.
//!
//! `loadgen` drives the daemon with `--jobs` requests across
//! `--concurrency` client connections and records `jobs_per_sec` in the
//! standard perf-JSON shape, so the serve throughput folds into
//! `scripts/bench_regress.sh` and `BENCH_BASELINE.json` like any bench
//! binary.
//!
//! Exit codes: 2 for argument/parse errors, 1 for runtime failures
//! (including an `error` frame from the server).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::process::ExitCode;

use ocapi_bench::cli::BenchArgs;
use ocapi_bench::report::{write_atomic, Reporter};
use ocapi_serve::proto::{is_deterministic, is_terminal, read_frame, write_frame};
use ocapi_serve::{Json, ServeError};

/// The default loadgen job: a small cached-tape fault campaign.
const DEFAULT_LOADGEN_REQUEST: &str =
    r#"{"op":"campaign","id":"lg","design":"hcor","cycles":48,"events":8}"#;

struct Args {
    socket: String,
    command: Command,
}

enum Command {
    Ping,
    Stats,
    Shutdown,
    Submit {
        request: String,
        out: Option<String>,
    },
    Loadgen {
        jobs: u64,
        concurrency: usize,
        request: String,
        perf_json: Option<String>,
    },
}

fn parse_args() -> Result<Args, String> {
    let mut socket = String::new();
    let mut command: Option<String> = None;
    let mut request: Option<String> = None;
    let mut out: Option<String> = None;
    let mut perf_json: Option<String> = None;
    let mut jobs = 16u64;
    let mut concurrency = 4usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))
        };
        match arg.as_str() {
            "--socket" => socket = value("--socket")?,
            "--request" => request = Some(value("--request")?),
            "--out" => out = Some(value("--out")?),
            "--perf-json" => perf_json = Some(value("--perf-json")?),
            "--jobs" => {
                let v = value("--jobs")?;
                jobs = v
                    .parse()
                    .map_err(|_| format!("`--jobs` needs an integer, got `{v}`"))?;
            }
            "--concurrency" => {
                let v = value("--concurrency")?;
                concurrency = v
                    .parse()
                    .map_err(|_| format!("`--concurrency` needs an integer, got `{v}`"))?;
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_owned());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if socket.is_empty() {
        return Err("`--socket PATH` is required".into());
    }
    let command = match command.as_deref() {
        Some("ping") => Command::Ping,
        Some("stats") => Command::Stats,
        Some("shutdown") => Command::Shutdown,
        Some("submit") => Command::Submit {
            request: request.ok_or("`submit` needs `--request JSON`")?,
            out,
        },
        Some("loadgen") => Command::Loadgen {
            jobs: jobs.max(1),
            concurrency: concurrency.max(1),
            request: request.unwrap_or_else(|| DEFAULT_LOADGEN_REQUEST.to_owned()),
            perf_json,
        },
        Some(other) => return Err(format!("unknown command `{other}`")),
        None => return Err(USAGE.into()),
    };
    Ok(Args { socket, command })
}

const USAGE: &str = "usage: servectl --socket PATH \
                     (ping | stats | shutdown | submit --request JSON [--out FILE] | \
                     loadgen [--jobs N] [--concurrency K] [--request JSON] [--perf-json FILE])";

/// Sends `request` on a fresh connection and collects the response
/// frames through the terminal one.
fn exchange(socket: &str, request: &str) -> Result<Vec<Json>, ServeError> {
    let stream = UnixStream::connect(socket)?;
    let mut writer = stream.try_clone()?;
    let mut reader = stream;
    write_frame(&mut writer, request)?;
    let mut frames = Vec::new();
    loop {
        let text = read_frame(&mut reader)?.ok_or_else(|| {
            ServeError::Protocol("connection closed before a terminal frame".into())
        })?;
        let frame = Json::parse(&text)?;
        let terminal = is_terminal(&frame);
        frames.push(frame);
        if terminal {
            return Ok(frames);
        }
    }
}

/// True when the terminal frame reports failure.
fn failed(frames: &[Json]) -> bool {
    frames
        .last()
        .and_then(|f| f.get("type"))
        .and_then(Json::as_str)
        == Some("error")
}

fn run_submit(socket: &str, request: &str, out: Option<&str>) -> Result<bool, ServeError> {
    // Validate locally first so a typo exits 2, not a server round trip.
    Json::parse(request)?;
    let frames = exchange(socket, request)?;
    let mut stdout = std::io::stdout().lock();
    for f in &frames {
        writeln!(stdout, "{f}")?;
    }
    if let Some(path) = out {
        let transcript: String = frames
            .iter()
            .filter(|f| is_deterministic(f))
            .map(|f| format!("{f}\n"))
            .collect();
        write_atomic(path, transcript.as_bytes())?;
    }
    Ok(!failed(&frames))
}

/// Overrides the `id` field of a parsed request (appends if missing).
fn with_id(req: &Json, id: &str) -> Json {
    let mut pairs = match req {
        Json::Obj(pairs) => pairs.clone(),
        _ => Vec::new(),
    };
    match pairs.iter_mut().find(|(k, _)| k == "id") {
        Some((_, v)) => *v = Json::Str(id.to_owned()),
        None => pairs.push(("id".to_owned(), Json::Str(id.to_owned()))),
    }
    Json::Obj(pairs)
}

fn run_loadgen(
    socket: &str,
    jobs: u64,
    concurrency: usize,
    request: &str,
    perf_json: Option<&str>,
) -> Result<bool, ServeError> {
    let template = Json::parse(request)?;
    let sw = ocapi_obs::Stopwatch::start();
    let next = std::sync::atomic::AtomicU64::new(0);
    let failures = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..concurrency {
            scope.spawn(|| {
                // Each worker claims job indices until the pool drains;
                // one connection per worker, reused across its jobs.
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= jobs {
                        return;
                    }
                    let req = with_id(&template, &format!("lg-{i}")).to_string();
                    match exchange(socket, &req) {
                        Ok(frames) if !failed(&frames) => {}
                        Ok(_) | Err(_) => {
                            failures.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let wall = sw.elapsed_secs().max(1e-9);
    let failed_jobs = failures.load(std::sync::atomic::Ordering::Relaxed);
    let ok_jobs = jobs - failed_jobs;
    let jobs_per_sec = ok_jobs as f64 / wall;
    println!(
        "loadgen: {ok_jobs}/{jobs} jobs ok in {wall:.3}s ({jobs_per_sec:.1} jobs/s, {concurrency} clients)"
    );
    if let Some(path) = perf_json {
        let mut rep = Reporter::new("servectl");
        rep.perf_u64("jobs", ok_jobs);
        rep.perf_f64("jobs_per_sec", jobs_per_sec);
        rep.perf_f64("loadgen_wall_secs", wall);
        let args = BenchArgs {
            bin: "servectl".to_owned(),
            threads: concurrency,
            lanes: 1,
            quick: true,
            opt: 2,
            json: None,
            perf_json: Some(path.to_owned()),
            profile_json: None,
            checkpoint: None,
            checkpoint_every: 4,
            resume: false,
            partitions: 1,
        };
        write_atomic(path, rep.perf_json(&args).as_bytes())?;
    }
    Ok(failed_jobs == 0)
}

fn run(args: &Args) -> Result<bool, ServeError> {
    match &args.command {
        Command::Ping => {
            let frames = exchange(&args.socket, r#"{"op":"ping","id":"ctl"}"#)?;
            for f in &frames {
                println!("{f}");
            }
            Ok(!failed(&frames))
        }
        Command::Stats => {
            let frames = exchange(&args.socket, r#"{"op":"stats","id":"ctl"}"#)?;
            for f in &frames {
                println!("{f}");
            }
            Ok(!failed(&frames))
        }
        Command::Shutdown => {
            let frames = exchange(&args.socket, r#"{"op":"shutdown","id":"ctl"}"#)?;
            for f in &frames {
                println!("{f}");
            }
            Ok(!failed(&frames))
        }
        Command::Submit { request, out } => run_submit(&args.socket, request, out.as_deref()),
        Command::Loadgen {
            jobs,
            concurrency,
            request,
            perf_json,
        } => run_loadgen(
            &args.socket,
            *jobs,
            *concurrency,
            request,
            perf_json.as_deref(),
        ),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("servectl: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("servectl: server reported an error");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("servectl: {e}");
            ExitCode::from(u8::try_from(e.exit_code()).unwrap_or(1))
        }
    }
}
