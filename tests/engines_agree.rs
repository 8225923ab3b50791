//! Every simulation engine computes the same cycles.
//!
//! Runs the one generator and checker of `agree` on 72 generated
//! systems (1,024 with the `slow-tests` feature) on interp, compiled and
//! batched at every opt level, RT and gates. A mismatch panics with the
//! seed and a shrunk recipe. The in-tree designs run through the same
//! checker in `crates/core/tests/tape_engines.rs`.

mod agree;

#[test]
fn generated_systems_agree_on_every_engine() {
    agree::check_generated(0..if agree::SLOW { 1024 } else { 72 });
}
