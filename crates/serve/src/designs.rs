//! The design registry: the named, captured systems the service can
//! simulate.
//!
//! A request names a design (`"hcor"`, `"dect"`, `"dect_fixed"`); the
//! registry maps the name to a builder that elaborates the system. The
//! cache calls it once per variant, on the variant's first request, and
//! keeps that capture as the variant's template: every later job, and
//! every worker in it, shares the template and the cached tape of its
//! structure, so repeat requests pay no levelization, capture or hash.
//! The builders must be deterministic: the template and the tapes it is
//! paired with are keyed on the first capture's structural hash.

use ocapi::{CoreError, System};
use ocapi_designs::dect::transceiver::{build_system as build_dect, TransceiverConfig};
use ocapi_designs::hcor;

use crate::error::ServeError;

/// A named design the service can build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// The HCOR sync-pattern correlator.
    Hcor,
    /// The DECT transceiver with the adaptive equalizer training.
    Dect,
    /// The DECT transceiver with a fixed centre-tap receiver.
    DectFixed,
}

impl Design {
    /// Parses a request's design name.
    ///
    /// # Errors
    ///
    /// [`ServeError::Parse`] naming the offender and the known designs.
    pub fn parse(name: &str) -> Result<Design, ServeError> {
        match name {
            "hcor" => Ok(Design::Hcor),
            "dect" => Ok(Design::Dect),
            "dect_fixed" => Ok(Design::DectFixed),
            other => Err(ServeError::Parse(format!(
                "unknown design `{other}` (known: hcor, dect, dect_fixed)"
            ))),
        }
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        match self {
            Design::Hcor => "hcor",
            Design::Dect => "dect",
            Design::DectFixed => "dect_fixed",
        }
    }

    /// Re-elaborates the design into a fresh [`System`].
    ///
    /// # Errors
    ///
    /// Propagates capture errors from the design builder.
    pub fn build(&self) -> Result<System, CoreError> {
        match self {
            Design::Hcor => hcor::build_system(),
            Design::Dect => build_dect(&TransceiverConfig {
                train: true,
                agc: false,
                adapt: true,
            }),
            Design::DectFixed => build_dect(&TransceiverConfig {
                train: false,
                agc: false,
                adapt: false,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocapi::hash_system;

    #[test]
    fn names_round_trip_and_builders_are_stable() {
        for d in [Design::Hcor, Design::Dect, Design::DectFixed] {
            assert_eq!(Design::parse(d.name()).unwrap(), d);
            // Re-elaboration stability: the cache-key contract.
            assert_eq!(
                hash_system(&d.build().unwrap()),
                hash_system(&d.build().unwrap())
            );
        }
        assert!(matches!(Design::parse("nope"), Err(ServeError::Parse(_))));
    }

    #[test]
    fn structural_hashes_follow_structure_not_rom_contents() {
        let hashes: Vec<u64> = [Design::Hcor, Design::Dect, Design::DectFixed]
            .iter()
            .map(|d| hash_system(&d.build().unwrap()))
            .collect();
        assert_ne!(hashes[0], hashes[1], "hcor and dect differ structurally");
        // The two transceiver variants differ only in ROM contents
        // (instruction program, training symbols), which live in each
        // variant's template, not the levelized tape — so they *share*
        // a structural hash and therefore a cache entry. Correct by
        // construction: a design pairs the shared tape with its own
        // template, whose untimed contents every simulator reads.
        assert_eq!(hashes[1], hashes[2], "transceiver variants share structure");
    }
}
