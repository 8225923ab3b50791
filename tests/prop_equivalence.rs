//! The interpreter and the compiled tape agree on generated systems.
//!
//! Seeds `1024..1048` of the one generator in `agree`, disjoint from the
//! seeds `tests/engines_agree.rs` runs, on every engine: `CompiledSim`
//! at each opt level is compared with `InterpSim` on every output, net
//! and register each cycle.

mod agree;

#[test]
fn interp_and_compiled_agree() {
    agree::check_generated(1024..1048);
}
