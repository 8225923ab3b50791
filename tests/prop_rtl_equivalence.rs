//! The RT-level simulator matches the interpreter on generated
//! fixed-point FSMDs.
//!
//! Seeds `1120..1144` of the one generator in `agree`, disjoint from the
//! seeds `tests/engines_agree.rs` runs, on every engine. The generator's
//! components cast fixed-point sums and products under every rounding
//! and overflow mode and guard their FSMs with held inputs.

mod agree;

#[test]
fn rtl_matches_interp_on_random_fixed_point_fsmds() {
    agree::check_generated(1120..1144);
}
