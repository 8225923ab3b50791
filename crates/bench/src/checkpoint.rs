//! Crash-safe checkpoint/resume for long campaigns and BER sweeps.
//!
//! A sharded run is a list of independent, deterministic work items
//! (fault events, payload bursts, degradation runs). This module
//! persists each completed item's result into a per-stream **manifest**
//! — one plain-text file per seed stream, written atomically
//! (temp file + fsync + rename) every `--checkpoint-every` items — so a
//! killed run can resume with `--resume` and skip everything already
//! done. Because every item's result is a pure function of its global
//! index, a resumed run produces **byte-identical** JSON output to an
//! uninterrupted one, at any `--lanes` × `--threads` combination: lane
//! and thread topology decide only *which worker* computes an item,
//! never its value.
//!
//! The manifest format is deliberately boring plain text, one line per
//! completed item:
//!
//! ```text
//! ocapi-checkpoint v2
//! stream <name>
//! fingerprint <16-hex-digit workload fingerprint>
//! <index> <payload>
//! ...
//! checksum <16-hex-digit FNV-1a of every byte before this line>
//! ```
//!
//! The fingerprint hashes the workload parameters that determine item
//! values (channel taps, noise, burst counts — never the thread or lane
//! count); resuming against a manifest with a different fingerprint is
//! a typed [`BenchError::Checkpoint`], not silent corruption. So is a
//! manifest whose checksum is missing or wrong (a damaged line that
//! still parses would otherwise resume to different totals), one that
//! records an item twice, and a version-1 manifest, which had no
//! checksum.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ocapi::sim::hash::Fnv;
use ocapi::sim::par::{map_indexed_retry, ParError};
use ocapi::{CoreError, ParConfig};
use ocapi_obs::Registry;

use crate::cli::BenchArgs;
use crate::error::BenchError;
use crate::report::write_atomic;

const MAGIC: &str = "ocapi-checkpoint v2";

/// The first line of a version-1 manifest.
const MAGIC_V1: &str = "ocapi-checkpoint v1";

/// FNV-1a ([`Fnv`]) of a manifest's bytes before its checksum line.
fn checksum(body: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(body.as_bytes());
    h.finish()
}

/// FNV-1a 64 ([`Fnv`]) over a list of textual workload parameters:
/// the stream fingerprint. Stable across platforms and sessions.
pub fn fingerprint(parts: &[&str]) -> u64 {
    let mut h = Fnv::new();
    for p in parts {
        h.write(p.as_bytes());
        // Separator so ["ab","c"] and ["a","bc"] differ.
        h.write(&[0x1f]);
    }
    h.finish()
}

/// One stream's manifest: the completed item payloads, keyed by global
/// item index, plus the workload fingerprint guarding against resuming
/// the wrong run.
#[derive(Debug)]
pub struct CheckpointStream {
    path: PathBuf,
    stream: String,
    fingerprint: u64,
    done: BTreeMap<usize, String>,
    resumed: usize,
}

/// Filename-safe rendering of a stream name; a short hash of the raw
/// name keeps distinct streams distinct after sanitising.
fn stream_file(stream: &str) -> String {
    let safe: String = stream
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{safe}-{:08x}.ckpt", fingerprint(&[stream]) as u32)
}

impl CheckpointStream {
    /// Opens (and with `resume`, loads) the manifest for `stream` in
    /// `dir`. Without `resume` an existing manifest is ignored and will
    /// be overwritten at the first flush — a fresh run.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or reading the manifest, and
    /// [`BenchError::Checkpoint`] for a damaged manifest or one written
    /// by a different workload (fingerprint mismatch).
    pub fn open(
        dir: &str,
        stream: &str,
        fingerprint: u64,
        resume: bool,
    ) -> Result<CheckpointStream, BenchError> {
        std::fs::create_dir_all(dir)?;
        let path = PathBuf::from(dir).join(stream_file(stream));
        let mut st = CheckpointStream {
            path,
            stream: stream.to_owned(),
            fingerprint,
            done: BTreeMap::new(),
            resumed: 0,
        };
        if resume && st.path.exists() {
            let text = std::fs::read_to_string(&st.path)?;
            st.load(&text)?;
            st.resumed = st.done.len();
        }
        Ok(st)
    }

    fn load(&mut self, text: &str) -> Result<(), BenchError> {
        let bad = |msg: String| BenchError::Checkpoint(format!("`{}`: {msg}", self.stream));
        match text.lines().next() {
            Some(MAGIC) => {}
            Some(MAGIC_V1) => {
                return Err(bad(
                    "a version-1 manifest carries no checksum; rerun without --resume".into(),
                ))
            }
            _ => return Err(bad("not a checkpoint manifest".into())),
        }
        // The last line is `checksum <hex>` over every byte before it.
        let (body, last) = text
            .strip_suffix('\n')
            .and_then(|t| t.rsplit_once('\n'))
            .ok_or_else(|| bad("missing checksum".into()))?;
        let body = &text[..body.len() + 1];
        let stored = last
            .strip_prefix("checksum ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad("missing checksum".into()))?;
        if stored != checksum(body) {
            return Err(bad("checksum mismatch: the manifest is damaged".into()));
        }
        let mut lines = body.lines().skip(1);
        match lines.next().and_then(|l| l.strip_prefix("stream ")) {
            Some(s) if s == self.stream => {}
            other => {
                return Err(bad(format!(
                    "manifest belongs to stream `{}`",
                    other.unwrap_or("?")
                )))
            }
        }
        let fp = lines
            .next()
            .and_then(|l| l.strip_prefix("fingerprint "))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad("missing fingerprint".into()))?;
        if fp != self.fingerprint {
            return Err(bad(format!(
                "workload fingerprint mismatch: manifest {fp:#018x}, run {:#018x} — \
                 the checkpoint was written by a different workload configuration",
                self.fingerprint
            )));
        }
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (idx, payload) = line
                .split_once(' ')
                .ok_or_else(|| bad(format!("malformed item line `{line}`")))?;
            let idx: usize = idx
                .parse()
                .map_err(|_| bad(format!("malformed item index `{idx}`")))?;
            if self.done.insert(idx, payload.to_owned()).is_some() {
                return Err(bad(format!("item {idx} is recorded twice")));
            }
        }
        Ok(())
    }

    /// The recorded payload of item `index`, if completed.
    pub fn completed(&self, index: usize) -> Option<&str> {
        self.done.get(&index).map(String::as_str)
    }

    /// Number of items loaded from disk at open time (0 without
    /// `--resume`).
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// The highest completed item index, if any.
    fn last_index(&self) -> Option<usize> {
        self.done.keys().next_back().copied()
    }

    /// Records item `index` as completed. Not persisted until
    /// [`CheckpointStream::flush`]. Payloads must be single-line.
    pub fn record(&mut self, index: usize, payload: String) {
        debug_assert!(!payload.contains('\n'));
        self.done.insert(index, payload);
    }

    /// Atomically persists the manifest, its checksum line last, with
    /// [`write_atomic`] (sibling temp file, fsync, rename), so a kill at
    /// any instant leaves either the old or the new manifest — never a
    /// torn one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing, syncing or renaming.
    pub fn flush(&self) -> Result<(), BenchError> {
        let mut doc = String::with_capacity(64 + self.done.len() * 16);
        doc.push_str(MAGIC);
        doc.push('\n');
        doc.push_str(&format!("stream {}\n", self.stream));
        doc.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        for (i, p) in &self.done {
            doc.push_str(&format!("{i} {p}\n"));
        }
        doc.push_str(&format!("checksum {:016x}\n", checksum(&doc)));
        write_atomic(&self.path, doc.as_bytes())?;
        Ok(())
    }
}

/// The robustness envelope of a sharded run: worker pool, bounded
/// retries, and (optionally) checkpointing — built once per bin from the
/// parsed [`BenchArgs`] and threaded through the drivers.
#[derive(Debug, Clone, Copy)]
pub struct Robust<'a> {
    /// The worker pool.
    pub pool: &'a ParConfig,
    /// Attempts per item (≥ 1); retries re-run the item with its
    /// original index-derived seed, so a recovered item is bit-identical
    /// to a first-try success.
    pub attempts: u32,
    /// Flush the manifest every this many completed items.
    pub every: u64,
    /// Checkpoint directory (`--checkpoint`); `None` disables
    /// checkpointing entirely.
    pub dir: Option<&'a str>,
    /// Job id namespacing the manifests (see [`Robust::for_job`]);
    /// `None` uses `dir` itself — the single-run CLI behaviour.
    pub job: Option<&'a str>,
    /// Load existing manifests and skip completed items (`--resume`).
    pub resume: bool,
    /// Robustness counters (`robust.*`) land here when attached.
    pub obs: Option<&'a Registry>,
}

/// The manifest directory of job `job` under checkpoint root `dir`:
/// `<dir>/job-<sanitized id>-<hash>`. The short hash of the raw id
/// keeps distinct jobs distinct after sanitising, exactly like
/// manifest filenames.
pub fn job_dir(dir: &str, job: &str) -> String {
    let safe: String = job
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{dir}/job-{safe}-{:08x}", fingerprint(&[job]) as u32)
}

impl<'a> Robust<'a> {
    /// The envelope `args` selects, reporting into `obs`.
    pub fn new(args: &'a BenchArgs, pool: &'a ParConfig, obs: Option<&'a Registry>) -> Robust<'a> {
        Robust {
            pool,
            attempts: args.retries,
            every: args.checkpoint_every,
            dir: args.checkpoint.as_deref(),
            job: None,
            resume: args.resume,
            obs,
        }
    }

    /// A plain envelope with no checkpointing and no retries — the
    /// pre-robustness behaviour, for tests and default paths.
    pub fn plain(pool: &'a ParConfig) -> Robust<'a> {
        Robust {
            pool,
            attempts: 1,
            every: u64::MAX,
            dir: None,
            job: None,
            resume: false,
            obs: None,
        }
    }

    /// Namespaces this envelope's checkpoints under one named job:
    /// manifests land in [`job_dir`]`(dir, job)` instead of `dir`
    /// itself. Two concurrent jobs sharing a checkpoint root therefore
    /// can never clobber each other's manifests, even when they run the
    /// same driver with the same stream names — the situation a
    /// simulation service is permanently in. Resuming a job means
    /// re-running it with the same id.
    pub fn for_job(mut self, job: &'a str) -> Robust<'a> {
        self.job = Some(job);
        self
    }

    fn counter(&self, name: &str, delta: u64) {
        if delta > 0 {
            if let Some(obs) = self.obs {
                obs.counter(name).add(delta);
            }
        }
    }

    /// Runs `n_items` work items through `run`, `chunk` items per work
    /// unit (1 = scalar; `--lanes` for lane-batched drivers), with
    /// bounded retry, periodic checkpointing, and resume.
    ///
    /// `run` receives the worker's state (built by `init`, as in
    /// [`ocapi::map_indexed_with`]: once per worker and manifest flush,
    /// and afresh after a chunk that fails or panics, so a retry never
    /// reuses it) and the **global indices** of one chunk's items, and
    /// returns one result per index; item values must depend only on the
    /// global index (the determinism contract of every driver here), so
    /// re-chunking the leftover items of a resumed run cannot change
    /// them. Results come back in item order — identical for every
    /// chunk size, thread count, retry count, and resume history.
    ///
    /// # Errors
    ///
    /// [`BenchError::Item`]/[`BenchError::Panic`] for the
    /// lowest-indexed chunk that still fails after `attempts` tries
    /// (completed chunks of the same group are checkpointed first, so
    /// the failed run still advances), plus manifest I/O and decode
    /// errors: [`BenchError::Checkpoint`] for a payload `decode`
    /// refuses and for an item index at or beyond `n_items`, which no
    /// run of this stream writes.
    #[allow(clippy::too_many_arguments)]
    pub fn run_chunked<S, R: Send>(
        &self,
        stream: &str,
        fp: u64,
        n_items: usize,
        chunk: usize,
        encode: impl Fn(&R) -> String,
        decode: impl Fn(&str) -> Option<R>,
        init: impl Fn() -> S + Sync,
        run: impl Fn(&mut S, &[usize]) -> Result<Vec<R>, CoreError> + Sync,
    ) -> Result<Vec<R>, BenchError> {
        let chunk = chunk.max(1);
        let jd;
        let dir = match (self.dir, self.job) {
            (Some(d), Some(j)) => {
                jd = job_dir(d, j);
                Some(jd.as_str())
            }
            (d, _) => d,
        };
        let mut manifest = match dir {
            Some(dir) => Some(CheckpointStream::open(dir, stream, fp, self.resume)?),
            None => None,
        };
        let mut results: Vec<Option<R>> = (0..n_items).map(|_| None).collect();
        if let Some(st) = &manifest {
            if let Some(i) = st.last_index().filter(|i| *i >= n_items) {
                return Err(BenchError::Checkpoint(format!(
                    "`{stream}`: item {i} is beyond the stream's {n_items} items"
                )));
            }
            for (i, slot) in results.iter_mut().enumerate() {
                if let Some(payload) = st.completed(i) {
                    *slot = Some(decode(payload).ok_or_else(|| {
                        BenchError::Checkpoint(format!(
                            "`{stream}`: malformed payload for item {i}"
                        ))
                    })?);
                }
            }
            self.counter("robust.items_resumed", st.resumed() as u64);
        }
        let missing: Vec<usize> = (0..n_items).filter(|i| results[*i].is_none()).collect();
        let chunks: Vec<&[usize]> = missing.chunks(chunk).collect();
        // Chunks per manifest flush; without checkpointing, one group.
        let per_group = if manifest.is_some() {
            (self.every.max(1) as usize).div_ceil(chunk).max(1)
        } else {
            chunks.len().max(1)
        };
        for group in chunks.chunks(per_group) {
            let (res, stats) =
                map_indexed_retry(self.pool, group, self.attempts, &init, |st, _, idxs| {
                    run(st, idxs)
                });
            self.counter("robust.retries", stats.retries);
            let res = res.map_err(|e| match e {
                ParError::Task { index, error } => {
                    if matches!(error, CoreError::BudgetExceeded { .. }) {
                        self.counter("robust.budget_hits", 1);
                    }
                    BenchError::Item {
                        index: group[index][0],
                        error,
                    }
                }
                ParError::Panic { index } => BenchError::Panic {
                    index: group[index][0],
                },
            })?;
            for (idxs, rs) in group.iter().zip(res) {
                if rs.len() != idxs.len() {
                    return Err(BenchError::Checkpoint(format!(
                        "`{stream}`: chunk returned {} results for {} items",
                        rs.len(),
                        idxs.len()
                    )));
                }
                for (i, r) in idxs.iter().zip(rs) {
                    if let Some(st) = &mut manifest {
                        st.record(*i, encode(&r));
                    }
                    results[*i] = Some(r);
                }
            }
            if let Some(st) = &manifest {
                st.flush()?;
                self.counter("robust.checkpoints_written", 1);
            }
        }
        results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.ok_or_else(|| BenchError::Checkpoint(format!("`{stream}`: item {i} missing")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> String {
        let d = std::env::temp_dir().join(format!("ocapi-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d.to_string_lossy().into_owned()
    }

    #[test]
    fn fingerprint_separates_parameter_boundaries() {
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_eq!(fingerprint(&["x", "y"]), fingerprint(&["x", "y"]));
        // Manifests on disk name their workload by these values.
        assert_eq!(fingerprint(&["x", "y"]), 0xdeee_3252_ccb4_fed4);
        assert_eq!(fingerprint(&["ber", "dect"]), 0x199b_e5e5_e071_eb80);
    }

    #[test]
    fn manifest_round_trips_and_survives_reopen() {
        let dir = tmpdir("roundtrip");
        let mut st = CheckpointStream::open(&dir, "s1", 42, false).unwrap();
        st.record(3, "7,100".into());
        st.record(0, "0,100".into());
        st.flush().unwrap();
        let st2 = CheckpointStream::open(&dir, "s1", 42, true).unwrap();
        assert_eq!(st2.resumed(), 2);
        assert_eq!(st2.completed(0), Some("0,100"));
        assert_eq!(st2.completed(3), Some("7,100"));
        assert_eq!(st2.completed(1), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_a_typed_error() {
        let dir = tmpdir("mismatch");
        let mut st = CheckpointStream::open(&dir, "s1", 1, false).unwrap();
        st.record(0, "x".into());
        st.flush().unwrap();
        let err = CheckpointStream::open(&dir, "s1", 2, true).unwrap_err();
        assert!(matches!(err, BenchError::Checkpoint(_)));
        assert!(err.to_string().contains("fingerprint mismatch"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_resume_existing_manifest_is_ignored() {
        let dir = tmpdir("noresume");
        let mut st = CheckpointStream::open(&dir, "s1", 1, false).unwrap();
        st.record(0, "x".into());
        st.flush().unwrap();
        // Different fingerprint, no --resume: opens clean, no error.
        let st2 = CheckpointStream::open(&dir, "s1", 2, false).unwrap();
        assert_eq!(st2.resumed(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_chunked_resumes_to_identical_results() {
        let dir = tmpdir("resume-ident");
        let pool = ParConfig::new(2);
        let args_base = crate::cli::BenchArgs::defaults("t");
        let mut args = args_base.clone();
        args.checkpoint = Some(dir.clone());
        args.checkpoint_every = 2;
        let enc = |r: &u64| r.to_string();
        let dec = |s: &str| s.parse::<u64>().ok();
        let run = |_: &mut (), idxs: &[usize]| {
            Ok(idxs.iter().map(|i| (*i as u64) * 10).collect::<Vec<u64>>())
        };
        // Full uninterrupted run.
        let rb = Robust::new(&args, &pool, None);
        let full = rb.run_chunked("s", 7, 9, 3, enc, dec, || (), run).unwrap();
        // Simulate a partial run: manifest holding only items 0..4.
        let mut st = CheckpointStream::open(&dir, "s", 7, false).unwrap();
        for i in 0..4usize {
            st.record(i, (i as u64 * 10).to_string());
        }
        st.flush().unwrap();
        let mut args2 = args.clone();
        args2.resume = true;
        let rb2 = Robust::new(&args2, &pool, None);
        // Different chunking on resume: results still identical.
        let resumed = rb2.run_chunked("s", 7, 9, 2, enc, dec, || (), run).unwrap();
        assert_eq!(resumed, full);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression test for concurrent server jobs: two jobs sharing one
    /// checkpoint root, the *same* stream name and the *same* workload
    /// fingerprint but different job ids must land in separate
    /// manifests, resume independently, and never see each other's
    /// payloads — without namespacing the second flush would clobber
    /// the first job's manifest.
    #[test]
    fn concurrent_jobs_never_clobber_each_others_manifests() {
        let dir = tmpdir("job-collide");
        let pool = ParConfig::new(2);
        let mut args = crate::cli::BenchArgs::defaults("t");
        args.checkpoint = Some(dir.clone());
        args.checkpoint_every = 1;
        let enc = |r: &u64| r.to_string();
        let dec = |s: &str| s.parse::<u64>().ok();
        // Interleave the two jobs on real threads: flush order between
        // them is nondeterministic, which is exactly the hazard.
        let (a, b) = std::thread::scope(|s| {
            let args = &args;
            let pool = &pool;
            let ja = s.spawn(move || {
                Robust::new(args, pool, None).for_job("job-A").run_chunked(
                    "s",
                    7,
                    8,
                    2,
                    enc,
                    dec,
                    || (),
                    |_, idxs| Ok(idxs.iter().map(|i| *i as u64 * 10).collect::<Vec<u64>>()),
                )
            });
            let jb = s.spawn(move || {
                Robust::new(args, pool, None).for_job("job-B").run_chunked(
                    "s",
                    7,
                    8,
                    2,
                    enc,
                    dec,
                    || (),
                    |_, idxs| Ok(idxs.iter().map(|i| *i as u64 * 1000).collect::<Vec<u64>>()),
                )
            });
            (ja.join().unwrap().unwrap(), jb.join().unwrap().unwrap())
        });
        assert_eq!(a, (0..8).map(|i| i * 10).collect::<Vec<u64>>());
        assert_eq!(b, (0..8).map(|i| i * 1000).collect::<Vec<u64>>());
        // Each job's manifest survives intact in its own subdirectory
        // and resumes with that job's payloads, not the other's.
        let sa = CheckpointStream::open(&job_dir(&dir, "job-A"), "s", 7, true).unwrap();
        let sb = CheckpointStream::open(&job_dir(&dir, "job-B"), "s", 7, true).unwrap();
        assert_eq!(sa.resumed(), 8);
        assert_eq!(sb.resumed(), 8);
        assert_eq!(sa.completed(3), Some("30"));
        assert_eq!(sb.completed(3), Some("3000"));
        // And a resumed re-run of one job skips all its items.
        let mut args2 = args.clone();
        args2.resume = true;
        let obs = Registry::new();
        let again = Robust::new(&args2, &pool, Some(&obs))
            .for_job("job-A")
            .run_chunked(
                "s",
                7,
                8,
                2,
                enc,
                dec,
                || (),
                |_, _| Err(ocapi::CoreError::WorkerPanic { index: 0 }),
            )
            .unwrap();
        assert_eq!(again, a);
        assert_eq!(obs.counter("robust.items_resumed").get(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A manifest line whose index is at or beyond the stream's item
    /// count can only come from damage: the resume is refused with a
    /// typed error, resumes nothing and leaves the manifest as it was.
    #[test]
    fn an_item_beyond_the_stream_is_a_damaged_manifest() {
        let dir = tmpdir("beyond");
        let mut st = CheckpointStream::open(&dir, "s", 7, false).unwrap();
        st.record(0, "0".into());
        st.record(4, "40".into());
        st.flush().unwrap();
        let before = std::fs::read(dir.clone() + "/" + &stream_file("s")).unwrap();
        let pool = ParConfig::single();
        let obs = Registry::new();
        let rb = Robust {
            dir: Some(&dir),
            every: 1,
            resume: true,
            obs: Some(&obs),
            ..Robust::plain(&pool)
        };
        let err = rb
            .run_chunked(
                "s",
                7,
                4,
                1,
                |r: &u64| r.to_string(),
                |s| s.parse().ok(),
                || (),
                |_, idxs| Ok(idxs.iter().map(|i| *i as u64 * 10).collect()),
            )
            .unwrap_err();
        assert!(matches!(err, BenchError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("item 4 is beyond"), "{err}");
        assert_eq!(obs.counter("robust.items_resumed").get(), 0);
        let after = std::fs::read(dir.clone() + "/" + &stream_file("s")).unwrap();
        assert_eq!(before, after);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The manifest `s1` of three items `0,12` holds in `dir`, edited by
    /// `damage`; returns the refusal a resume meets.
    fn damaged(tag: &str, damage: impl Fn(&str) -> String) -> String {
        let dir = tmpdir(tag);
        let mut st = CheckpointStream::open(&dir, "s1", 7, false).unwrap();
        for i in 0..3 {
            st.record(i, "0,12".into());
        }
        st.flush().unwrap();
        let path = PathBuf::from(&dir).join(stream_file("s1"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, damage(&text)).unwrap();
        let err = CheckpointStream::open(&dir, "s1", 7, true).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(err, BenchError::Checkpoint(_)), "{err}");
        err.to_string()
    }

    /// The checksum line guards every byte before it: an item line that
    /// still parses — a duplicate appended, a count changed — is a
    /// damaged manifest, and so is one whose checksum is gone.
    #[test]
    fn a_damaged_manifest_fails_its_checksum() {
        let appended = damaged("dup", |t| t.replace("2 0,12\n", "2 0,12\n1 1,12\n"));
        assert!(appended.contains("checksum mismatch"), "{appended}");
        let grown = damaged("grown", |t| t.replacen("0,12", "0,192", 1));
        assert!(grown.contains("checksum mismatch"), "{grown}");
        let cut = damaged("cut", |t| t[..t.find("checksum").unwrap()].to_owned());
        assert!(cut.contains("missing checksum"), "{cut}");
    }

    /// A manifest that records an item twice is refused even when its
    /// checksum is right.
    #[test]
    fn an_item_recorded_twice_is_refused() {
        let twice = damaged("twice", |t| {
            let body = t[..t.find("checksum").unwrap()].to_owned() + "1 1,12\n";
            format!("{body}checksum {:016x}\n", checksum(&body))
        });
        assert!(twice.contains("item 1 is recorded twice"), "{twice}");
    }

    /// A version-1 manifest (no checksum) no longer resumes.
    #[test]
    fn a_version_1_manifest_is_refused() {
        let v1 = damaged("v1", |t| {
            let body = t[..t.find("checksum").unwrap()].to_owned();
            body.replacen(MAGIC, MAGIC_V1, 1)
        });
        assert!(v1.contains("version-1"), "{v1}");
    }

    /// Distinct job ids that sanitise to the same string still get
    /// distinct directories via the id hash.
    #[test]
    fn job_dirs_stay_distinct_after_sanitising() {
        assert_ne!(job_dir("/r", "a.b"), job_dir("/r", "a_b"));
        assert_eq!(job_dir("/r", "a.b"), job_dir("/r", "a.b"));
    }

    #[test]
    fn run_chunked_retries_flaky_items() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let pool = ParConfig::new(1);
        let args = crate::cli::BenchArgs {
            retries: 3,
            ..crate::cli::BenchArgs::defaults("t")
        };
        let rb = Robust::new(&args, &pool, None);
        let tries = AtomicU32::new(0);
        let out = rb.run_chunked(
            "s",
            0,
            4,
            1,
            |r: &u64| r.to_string(),
            |s| s.parse().ok(),
            || (),
            |_, idxs| {
                let i = idxs[0];
                if i == 2 && tries.fetch_add(1, Ordering::SeqCst) < 2 {
                    return Err(ocapi::CoreError::WorkerPanic { index: i });
                }
                Ok(vec![i as u64])
            },
        );
        assert_eq!(out.unwrap(), vec![0, 1, 2, 3]);
    }
}
