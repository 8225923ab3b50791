//! HCOR — the DECT header correlator processor (the 6 Kgate design of
//! Table 1).
//!
//! The correlator watches the sliced bit stream for the 16-bit DECT
//! S-field sync word. A 16-stage shift register holds the last received
//! bits; every cycle the agreement count against the sync word is formed
//! by a balanced adder tree and compared to a programmable threshold.
//! A Mealy FSM (searching → locked) freezes the sync position when the
//! registered correlation first crosses the threshold — the same
//! control/data split as every component in the environment.

use ocapi::{Component, CoreError, SigType, Simulator, System, Value};

/// The 16-bit DECT S-field sync word (RFP transmissions), LSB = oldest.
pub const SYNC_WORD: u16 = 0xe98a;

/// Number of correlator taps.
pub const TAPS: usize = 16;

/// Builds the HCOR component.
///
/// Ports: `bit_in: Bool`, `enable: Bool`, `threshold: Bits(5)` →
/// `corr: Bits(5)` (current agreement count), `detect: Bool`,
/// `sync_pos: Bits(16)` (bit counter value frozen at lock).
///
/// # Errors
///
/// Propagates capture errors (none in practice — the description is
/// static).
pub fn build_component() -> Result<Component, CoreError> {
    let c = Component::build("hcor");
    let bit_in = c.input("bit_in", SigType::Bool)?;
    let enable = c.input("enable", SigType::Bool)?;
    let threshold = c.input("threshold", SigType::Bits(5))?;
    let corr_out = c.output("corr", SigType::Bits(5))?;
    let detect_out = c.output("detect", SigType::Bool)?;
    let pos_out = c.output("sync_pos", SigType::Bits(16))?;

    // Shift register of the last TAPS bits; taps[0] is the newest.
    let taps: Vec<_> = (0..TAPS)
        .map(|i| c.reg(&format!("tap{i}"), SigType::Bool))
        .collect::<Result<_, _>>()?;
    let corr_reg = c.reg("corr_reg", SigType::Bits(5))?;
    let pos = c.reg("pos", SigType::Bits(16))?;
    let lock_pos = c.reg("lock_pos", SigType::Bits(16))?;

    // The correlation of the *shifted* window (including the new bit).
    let window: Vec<_> = std::iter::once(c.read(bit_in))
        .chain((0..TAPS - 1).map(|i| c.q(taps[i])))
        .collect();
    let agree: Vec<_> = window
        .iter()
        .enumerate()
        .map(|(i, w)| {
            // Tap i holds the bit received i cycles ago; the sync word
            // transmits MSB first, so tap i compares against bit i.
            let bit = (SYNC_WORD >> i) & 1 == 1;
            let m = if bit { w.clone() } else { !w };
            m.to_bits(5)
        })
        .collect();
    let count = agree
        .iter()
        .skip(1)
        .fold(agree[0].clone(), |acc, a| acc + a.clone())
        .named("agreement");

    let shift = c.sfg("shift")?;
    shift.uses(bit_in).uses(enable).uses(threshold);
    for i in (1..TAPS).rev() {
        shift.next(taps[i], &c.q(taps[i - 1]))?;
    }
    shift.next(taps[0], &c.read(bit_in))?;
    shift.next(corr_reg, &count)?;
    let pos_next = c.q(pos) + c.const_bits(16, 1);
    shift.next(pos, &pos_next)?;
    // Remember where the window crossed the threshold.
    let hit = count.ge(&c.read(threshold).to_bits(5));
    shift.next(lock_pos, &hit.mux(&c.q(pos), &c.q(lock_pos)))?;
    shift.drive(corr_out, &count)?;
    shift.drive(detect_out, &hit)?;
    shift.drive(pos_out, &c.q(lock_pos))?;

    let idle = c.sfg("idle")?;
    idle.drive(corr_out, &c.q(corr_reg))?;
    idle.drive(detect_out, &c.const_bool(false))?;
    idle.drive(pos_out, &c.q(lock_pos))?;

    let locked_sfg = c.sfg("locked")?;
    locked_sfg.drive(corr_out, &c.q(corr_reg))?;
    locked_sfg.drive(detect_out, &c.const_bool(true))?;
    locked_sfg.drive(pos_out, &c.q(lock_pos))?;

    // FSM: search until the registered correlation crosses the
    // (registered-input) threshold, then lock.
    let en = c.read(enable);
    let got_sync = c.q(corr_reg).ge(&c.read(threshold).to_bits(5));
    let f = c.fsm()?;
    let search = f.initial("search")?;
    let locked = f.state("locked")?;
    f.from(search)
        .when(&got_sync)
        .run(locked_sfg.id())
        .to(locked)?;
    f.from(search).when(&en).run(shift.id()).to(search)?;
    f.from(search).always().run(idle.id()).to(search)?;
    f.from(locked).always().run(locked_sfg.id()).to(locked)?;
    c.finish()
}

/// Builds HCOR as a standalone system with primary I/O.
///
/// # Errors
///
/// Propagates capture errors.
pub fn build_system() -> Result<System, CoreError> {
    let mut sb = System::build("hcor");
    let u = sb.add_component("hcor0", build_component()?)?;
    sb.input("bit_in", SigType::Bool)?;
    sb.input("enable", SigType::Bool)?;
    sb.input("threshold", SigType::Bits(5))?;
    sb.connect_input("bit_in", u, "bit_in")?;
    sb.connect_input("enable", u, "enable")?;
    sb.connect_input("threshold", u, "threshold")?;
    sb.output("corr", u, "corr")?;
    sb.output("detect", u, "detect")?;
    sb.output("sync_pos", u, "sync_pos")?;
    sb.finish()
}

/// Drives a bit stream into an HCOR simulator, returning the cycle at
/// which `detect` first went high, if any.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_detection(
    sim: &mut dyn Simulator,
    bits: &[bool],
    threshold: u64,
) -> Result<Option<u64>, CoreError> {
    sim.set_input("enable", Value::Bool(true))?;
    sim.set_input("threshold", Value::bits(5, threshold))?;
    let mut first = None;
    for b in bits {
        sim.set_input("bit_in", Value::Bool(*b))?;
        sim.step()?;
        if first.is_none() && sim.output("detect")? == Value::Bool(true) {
            first = Some(sim.cycle() - 1);
        }
    }
    Ok(first)
}

/// The stimulus used by the Table 1 benchmarks: noise bits with the sync
/// word embedded at a known position.
pub fn test_pattern(noise_len: usize, seed: u64) -> Vec<bool> {
    let mut bits = Vec::with_capacity(noise_len + TAPS + noise_len);
    let mut s = seed | 1;
    let mut rnd = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 62) & 1 == 1
    };
    for _ in 0..noise_len {
        bits.push(rnd());
    }
    for i in (0..TAPS).rev() {
        bits.push((SYNC_WORD >> i) & 1 == 1);
    }
    for _ in 0..noise_len {
        bits.push(rnd());
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocapi::{CompiledSim, InterpSim};

    #[test]
    fn detects_exact_sync_word() {
        let bits = test_pattern(40, 123);
        let mut sim = InterpSim::new(build_system().unwrap()).unwrap();
        let hit = run_detection(&mut sim, &bits, 16).unwrap();
        // The full sync word has entered the window 40+16 bits in; detect
        // is combinational in the same cycle.
        assert_eq!(hit, Some(40 + TAPS as u64 - 1));
    }

    #[test]
    fn locked_state_freezes_position() {
        let bits = test_pattern(20, 9);
        let mut sim = InterpSim::new(build_system().unwrap()).unwrap();
        run_detection(&mut sim, &bits, 16).unwrap();
        assert_eq!(sim.state_name("hcor0").unwrap(), "locked");
        let pos = sim.output("sync_pos").unwrap();
        // Position counter froze one cycle after the hit.
        assert_eq!(pos, Value::bits(16, 20 + TAPS as u64 - 1));
        // Further bits do not change it.
        sim.set_input("bit_in", Value::Bool(true)).unwrap();
        sim.run(10).unwrap();
        assert_eq!(sim.output("sync_pos").unwrap(), pos);
        assert_eq!(sim.output("detect").unwrap(), Value::Bool(true));
    }

    #[test]
    fn lower_threshold_tolerates_bit_errors() {
        let mut bits = test_pattern(30, 5);
        bits[30 + 3] = !bits[30 + 3]; // corrupt one sync bit
        let mut strict = InterpSim::new(build_system().unwrap()).unwrap();
        assert_eq!(run_detection(&mut strict, &bits, 16).unwrap(), None);
        let mut lax = InterpSim::new(build_system().unwrap()).unwrap();
        assert_eq!(
            run_detection(&mut lax, &bits, 15).unwrap(),
            Some(30 + TAPS as u64 - 1)
        );
    }

    #[test]
    fn compiled_matches_interp() {
        let bits = test_pattern(25, 42);
        let mut a = InterpSim::new(build_system().unwrap()).unwrap();
        let mut b = CompiledSim::new(build_system().unwrap()).unwrap();
        assert_eq!(
            run_detection(&mut a, &bits, 14).unwrap(),
            run_detection(&mut b, &bits, 14).unwrap()
        );
    }

    #[test]
    fn disabled_correlator_idles() {
        let mut sim = InterpSim::new(build_system().unwrap()).unwrap();
        sim.set_input("enable", Value::Bool(false)).unwrap();
        sim.set_input("threshold", Value::bits(5, 16)).unwrap();
        sim.set_input("bit_in", Value::Bool(true)).unwrap();
        sim.run(30).unwrap();
        assert_eq!(sim.output("detect").unwrap(), Value::Bool(false));
        assert_eq!(sim.state_name("hcor0").unwrap(), "search");
    }
}
