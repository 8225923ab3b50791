//! Seeded byte-mutation fuzzing of the JSON decoder, `Json::parse`.
//!
//! The corpus is what the decoder meets in practice: `served` requests,
//! both `Reporter` documents and an observability profile. Every mutant
//! must parse to `Ok` or fail with a typed `json at byte N: …` error,
//! never panic; every `Ok` value must print (compact and indented) and
//! parse back to itself; and values nested more than 64 levels deep are
//! refused. A few thousand mutants keep this a Tier-1 test.

use ocapi::rng::XorShift64;
use ocapi_bench::{BenchArgs, Reporter};
use ocapi_obs::json::Json;
use ocapi_obs::Registry;

/// How many mutants each corpus document gets.
const MUTANTS_PER_DOC: usize = 400;

fn corpus() -> Vec<String> {
    let mut docs: Vec<String> = [
        r#"{"op":"campaign","id":"c1","design":"hcor","cycles":64,"events":12,"seed":11,"lanes":8,"threads":2}"#,
        r#"{"op":"ber","id":"b","design":"dect_fixed","noise":[0.05,0.2,1e-3],"bursts":4,"adapt":true}"#,
        r#"{"op":"session.open","id":"s1","session":"a\tb","design":"hcor","opt":0}"#,
        r#"{"op":"session.run","id":"s2","session":"a","cycles":32}"#,
        r#"{"id":"x","type":"error","message":"parse error: json at byte 13: expected `\"`"}"#,
        r#"[null,true,false,-0,18446744073709551615,{"é\n":[]}]"#,
    ]
    .map(str::to_owned)
    .to_vec();

    let mut rep = Reporter::new("fuzz");
    rep.result_u64("faults_detected", 1_234);
    rep.result_f64("ber", 2.5e-4);
    rep.result_str("signature", "0xdead\"beef\"");
    rep.perf_f64("cycles_per_sec", 3.25e6);
    rep.perf_u64("workers", 4);
    docs.push(rep.results_json());
    docs.push(rep.perf_json(&BenchArgs::defaults("fuzz")));

    let reg = Registry::with_event_capacity(4);
    reg.counter("compiled.cycles").add(1_200);
    reg.counter("batch.lanes").add(8);
    reg.advisory_counter("pool.shards_stolen").add(3);
    let root = reg.span("compiled");
    root.record_secs(0.5);
    root.child("tape").child("kernel").record_secs(0.125);
    reg.events().record(7, "fault", "stuck@1 \"n3\"\\");
    docs.push(reg.profile_json("fuzz"));
    docs
}

/// Tokens a mutation splices in: structure, escapes, and numbers at the
/// edges of `u64` and `f64`.
const TOKENS: [&str; 14] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\u00",
    "1e400",
    "-1e400",
    "18446744073709551616",
    "9007199254740993",
    "[[[[[[[[",
    "null",
];

fn mutate(doc: &[u8], rng: &mut XorShift64) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    for _ in 0..=rng.index(4) {
        let at = rng.index(bytes.len() + 1);
        match rng.index(5) {
            // Overwrite one byte with an arbitrary value.
            0 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
            // Delete a short run.
            1 => {
                let end = (at + 1 + rng.index(8)).min(bytes.len());
                bytes.drain(at.min(end)..end);
            }
            // Duplicate a slice somewhere else (grows nesting).
            2 if !bytes.is_empty() => {
                let from = rng.index(bytes.len());
                let to = (from + 1 + rng.index(32)).min(bytes.len());
                let piece = bytes[from..to].to_vec();
                bytes.splice(at..at, piece);
            }
            // Truncate.
            3 => bytes.truncate(at),
            // Splice in a token.
            _ => {
                let token = TOKENS[rng.index(TOKENS.len())].as_bytes();
                bytes.splice(at..at, token.iter().copied());
            }
        }
    }
    bytes
}

/// Every `Ok` value prints and parses back to itself, in both layouts.
fn assert_round_trips(v: &Json, source: &str) {
    let compact = v.to_string();
    assert_eq!(Json::parse(&compact).as_ref(), Ok(v), "compact: {source}");
    let pretty = format!("{v:#}");
    assert_eq!(Json::parse(&pretty).as_ref(), Ok(v), "indented: {source}");
}

#[test]
fn mutated_documents_parse_or_fail_typed_and_round_trip() {
    let docs = corpus();
    let mut rng = XorShift64::new(0x6a50_f022);
    let (mut ok, mut err) = (0usize, 0usize);
    for doc in &docs {
        // The unmutated corpus parses, and the bench documents print
        // back byte for byte.
        let v = Json::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        assert_round_trips(&v, doc);
        if doc.ends_with('\n') {
            assert_eq!(&format!("{v:#}\n"), doc);
        }
        for _ in 0..MUTANTS_PER_DOC {
            let mutant = mutate(doc.as_bytes(), &mut rng);
            let text = String::from_utf8_lossy(&mutant);
            match Json::parse(&text) {
                Ok(v) => {
                    assert_round_trips(&v, &text);
                    ok += 1;
                }
                Err(e) => {
                    assert!(e.at <= text.len(), "{e} beyond the input: {text}");
                    assert!(e.to_string().starts_with("json at byte "), "{e}");
                    err += 1;
                }
            }
        }
    }
    assert_eq!(ok + err, docs.len() * MUTANTS_PER_DOC);
    // Both outcomes are exercised, not just one.
    assert!(ok > 100 && err > 100, "ok {ok}, err {err}");
}

#[test]
fn nesting_beyond_64_levels_is_an_error() {
    let nested = |n: usize, inner: &str| format!("{}{inner}{}", "[".repeat(n), "]".repeat(n));
    assert!(Json::parse(&nested(64, "0")).is_ok());
    for doc in corpus() {
        let e = Json::parse(&nested(65, &doc)).expect_err("65 enclosing arrays");
        assert_eq!(e.what, "nesting too deep");
    }
}
