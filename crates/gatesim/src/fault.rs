//! Stuck-at fault simulation: serial and 64-way bit-parallel.
//!
//! Grades a test-vector set the way a 1990s ASIC sign-off did: inject
//! every single stuck-at-0 / stuck-at-1 fault on a gate output, re-run
//! the vectors, and count the faults whose effect reaches an observed
//! output. The headline use is scoring the *generated* testbenches of
//! the paper's Figure 8 flow: vectors recorded from the system
//! simulation double as a manufacturing test set, and fault coverage
//! quantifies how good a test they are.
//!
//! Fault injection replaces the faulty gate's driver with a constant,
//! which models the classic single-stuck-line fault on the gate output
//! net. Both engines take per-cycle bus stimulus ([`CycleStimulus`]) and
//! run the same apply–settle–clock–observe cycle, observing every output
//! bus after each clock edge:
//!
//! * [`stuck_at_coverage`] — serial: one rebuilt [`GateSim`] per fault.
//!   Exact, simple, and the reference the packed engine is checked
//!   against.
//! * [`stuck_at_coverage_sharded_stats`] — bit-parallel: the fault-free
//!   machine and up to 63 faulty machines share one pass, one bit lane
//!   per machine in a `u64` per wire — the classic deductive-era
//!   speedup — with the 63-fault words sharded across a worker pool.
//!
//! Both engines grade the same fault universe — [`enumerate_faults`] is
//! the single enumeration they (and the BIST sign-off) share, so the
//! universes can never drift — classify every fault identically, and
//! report their gate-evaluation economics as [`GradeStats`]: the packed
//! engine grades up to 63 fault machines per gate evaluation where the
//! serial engine grades at most one, the multiple the
//! `table_gates`/`fault_coverage` benchmarks record and CI gates on.

use ocapi_synth::gate::{Gate, GateKind, Netlist};

use crate::{GateError, GateSim};

/// Fault machines packed per `u64` word by the bit-parallel engine
/// (bit 0 carries the fault-free machine).
pub const FAULTS_PER_WORD: usize = 63;

/// One undetected fault: the index of the gate whose output is stuck,
/// and the stuck value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Index into `netlist.gates` of the faulty gate.
    pub gate: usize,
    /// The stuck-at value on its output net.
    pub stuck_at: bool,
}

/// The result of grading a vector set.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Total faults injected (2 × gate count, constants excluded).
    pub total: usize,
    /// Faults whose effect reached an observed output on some cycle.
    pub detected: usize,
    /// The faults that escaped.
    pub undetected: Vec<Fault>,
}

impl FaultReport {
    /// Detected / total, as a fraction in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }
}

/// Gate-evaluation accounting for one grading run — the economics of
/// the word-parallel speedup, deterministic for a given netlist and
/// stimulus (never a timing).
///
/// `faults_per_gate_eval` is the classic parallel-pattern figure of
/// merit: how many *fault machines* each gate evaluation advances. The
/// serial engine evaluates one machine per eval (< 1 here, because the
/// fault-free reference run is counted in `gate_evals` too); the packed
/// engine approaches [`FAULTS_PER_WORD`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GradeStats {
    /// Size of the graded fault universe.
    pub faults: u64,
    /// Gate evaluations performed (word-level evaluations for the
    /// packed engine: one eval advances every machine in the word).
    pub gate_evals: u64,
    /// Faulty-machine evaluations delivered: `gate_evals` weighted by
    /// the number of fault machines each evaluation advanced.
    pub machine_evals: u64,
    /// 63-fault word packs processed (0 for the serial engine).
    pub fault_words: u64,
}

impl GradeStats {
    /// Fault machines advanced per gate evaluation.
    pub fn faults_per_gate_eval(&self) -> f64 {
        if self.gate_evals == 0 {
            0.0
        } else {
            self.machine_evals as f64 / self.gate_evals as f64
        }
    }

    /// Accumulates another run's accounting (used when a driver grades
    /// several vector sets).
    pub fn merge(&mut self, other: &GradeStats) {
        self.faults += other.faults;
        self.gate_evals += other.gate_evals;
        self.machine_evals += other.machine_evals;
        self.fault_words += other.fault_words;
    }
}

/// Flushes the deterministic packed-grading counters into `reg`:
/// `gate.fault_words` (63-fault packs processed) and
/// `gate.faults_per_pass` (average fault machines per word-parallel
/// pass — [`FAULTS_PER_WORD`] for full packs). Both are pure functions
/// of (netlist, stimulus), so they live in the deterministic half of
/// the observability contract.
pub fn flush_grade_obs(reg: &ocapi_obs::Registry, stats: &GradeStats) {
    reg.counter("gate.fault_words").add(stats.fault_words);
    if let Some(per_pass) = stats.faults.checked_div(stats.fault_words) {
        reg.counter("gate.faults_per_pass").add(per_pass);
    }
}

fn inject(net: &Netlist, fault: Fault) -> Netlist {
    let mut n = net.clone();
    let g = &mut n.gates[fault.gate];
    *g = Gate {
        kind: if fault.stuck_at {
            GateKind::Const1
        } else {
            GateKind::Const0
        },
        inputs: Vec::new(),
        output: g.output,
        init: fault.stuck_at,
    };
    n
}

/// One cycle of bus-level stimulus: values to apply to named input
/// buses before the clock edge.
#[derive(Debug, Clone, Default)]
pub struct CycleStimulus {
    /// `(input bus name, value)` pairs; unlisted buses hold their
    /// previous value (zero on the first cycle).
    pub inputs: Vec<(String, u64)>,
}

/// Drives one [`GateSim`] through the apply–settle–clock–observe cycle
/// the bit-parallel engine implements, returning the packed observation
/// stream (every output bus, every cycle). Unknown bus names in the
/// stimulus are skipped, matching the parallel engine's contract.
fn drive_stimuli(sim: &mut GateSim, stimuli: &[CycleStimulus]) -> Result<Vec<u64>, GateError> {
    let outs: Vec<Vec<_>> = sim
        .netlist()
        .outputs
        .iter()
        .map(|(_, ws)| ws.clone())
        .collect();
    let mut seen = Vec::new();
    for cyc in stimuli {
        for (name, value) in &cyc.inputs {
            let Some(ws) = sim.netlist().input_by_name(name) else {
                continue;
            };
            let ws = ws.to_vec();
            sim.set_bus(&ws, *value);
        }
        sim.settle()?;
        sim.clock()?;
        for ws in &outs {
            seen.push(sim.bus(ws));
        }
    }
    Ok(seen)
}

/// Serial stuck-at grading: runs `stimuli` against the fault-free
/// netlist and against one rebuilt [`GateSim`] per single-stuck-at
/// faulty machine, comparing the observed output streams.
///
/// ```
/// use ocapi_gatesim::fault::{stuck_at_coverage, CycleStimulus};
/// use ocapi_synth::gate::{GateKind, Netlist};
///
/// let mut n = Netlist::new();
/// let x = n.input_bus("x", 2);
/// let y = n.gate(GateKind::Xor2, &[x[0], x[1]]);
/// n.output_bus("y", vec![y]);
/// let stimuli: Vec<CycleStimulus> = (0..4)
///     .map(|v| CycleStimulus { inputs: vec![("x".into(), v)] })
///     .collect();
/// let (report, _) = stuck_at_coverage(&n, &stimuli).unwrap();
/// assert_eq!(report.coverage(), 1.0); // XOR is fully testable
/// ```
///
/// Each cycle applies the stimulus, settles the combinational logic,
/// clocks every DFF and observes every output bus — the exact cycle of
/// the packed engine, so the two classify every fault identically (the
/// reference the `--fault-engine scalar|packed` benchmark switch
/// byte-diffs). A fault is *detected* when its observation stream
/// differs from the fault-free one. Constant gates are not fault sites
/// (a stuck constant is either the same circuit or the complementary
/// constant fault, which is counted on the gate that consumes it).
///
/// Also returns the gate-evaluation accounting (one machine per eval),
/// the denominator of the packed engine's ≥ 32× faults-per-gate-eval CI
/// gate.
///
/// # Errors
///
/// Returns the fault-free machine's error (typically
/// [`GateError::Oscillation`]). An error from a *faulty* machine —
/// typically an oscillation when the fault turns a structurally false
/// loop into a live one — counts the fault as detected: instability is
/// observable on a tester.
pub fn stuck_at_coverage(
    net: &Netlist,
    stimuli: &[CycleStimulus],
) -> Result<(FaultReport, GradeStats), GateError> {
    let mut stats = GradeStats::default();
    let golden = {
        let mut sim = GateSim::new(net.clone())?;
        let seen = drive_stimuli(&mut sim, stimuli)?;
        stats.gate_evals += sim.stats().gate_evals;
        seen
    };
    let sites = enumerate_faults(net);
    stats.faults = sites.len() as u64;
    let mut detected = 0;
    let mut undetected = Vec::new();
    for fault in &sites {
        let observed = GateSim::new(inject(net, *fault))
            .and_then(|mut sim| {
                let seen = drive_stimuli(&mut sim, stimuli);
                let evals = sim.stats().gate_evals;
                stats.gate_evals += evals;
                stats.machine_evals += evals;
                seen.map(Some)
            })
            .unwrap_or(None);
        match observed {
            Some(seen) if seen == golden => undetected.push(*fault),
            // Divergence, or an oscillating faulty machine: detected.
            _ => detected += 1,
        }
    }
    Ok((
        FaultReport {
            total: sites.len(),
            detected,
            undetected,
        },
        stats,
    ))
}

/// Every single-stuck-at fault site of `net`, in gate order (constants
/// excluded), stuck-at-0 before stuck-at-1 per gate — the one fault
/// universe every grading engine (serial, packed, BIST sign-off)
/// enumerates, so their universes can never drift.
pub fn enumerate_faults(net: &Netlist) -> Vec<Fault> {
    net.gates
        .iter()
        .enumerate()
        .filter(|(_, g)| !matches!(g.kind, GateKind::Const0 | GateKind::Const1))
        .flat_map(|(gi, _)| [false, true].map(|stuck_at| Fault { gate: gi, stuck_at }))
        .collect()
}

/// Bit-parallel stuck-at coverage: in every 64-bit word, lane 0
/// simulates the fault-free machine and lanes 1..64 simulate one faulty
/// machine each, all sharing a single evaluation pass per
/// [`FAULTS_PER_WORD`]-fault batch. The batches shard across
/// [`ParConfig::threads`](ocapi::ParConfig::threads) worker threads and
/// are merged in batch order.
///
/// Semantics per cycle are those of [`stuck_at_coverage`]: apply the
/// stimulus, settle, clock every DFF, settle again, observe every output
/// bus. A fault is detected when any observed bit differs from lane 0 on
/// any cycle — including faults that make a structurally false loop
/// oscillate (lanes still flipping at the settle-pass cap), which the
/// serial engine reports as a typed [`GateError::Oscillation`]. The
/// report is therefore identical to [`stuck_at_coverage`]'s.
///
/// Each word-level evaluation advances every fault machine packed into
/// its batch, which is where the engine's ≥ 32× faults-per-gate-eval
/// advantage over the serial grader comes from. The batch boundaries and
/// the per-batch kernel do not depend on the pool, so the report
/// (including the order of `undetected`) and the [`GradeStats`] are
/// **bit-identical for every thread count**.
///
/// # Errors
///
/// Returns [`GateError::WorkerPanic`] if a worker panics while grading
/// a batch (contained at the batch boundary — never a hang).
pub fn stuck_at_coverage_sharded_stats(
    net: &Netlist,
    stimuli: &[CycleStimulus],
    pool: &ocapi::ParConfig,
) -> Result<(FaultReport, GradeStats), GateError> {
    grade_fault_list(net, &enumerate_faults(net), stimuli, pool)
}

/// Bit-parallel grading of an explicit fault list, packed into
/// [`FAULTS_PER_WORD`]-fault words in list order and sharded across
/// `pool` — the kernel of [`stuck_at_coverage_sharded_stats`], callable
/// on subsets by the pack-boundary tests that pin down word rollover at
/// 63/64/65 faults.
fn grade_fault_list(
    net: &Netlist,
    faults: &[Fault],
    stimuli: &[CycleStimulus],
    pool: &ocapi::ParConfig,
) -> Result<(FaultReport, GradeStats), GateError> {
    let batches: Vec<&[Fault]> = faults.chunks(FAULTS_PER_WORD).collect();
    let masks = ocapi::sim::par::map_indexed(pool, &batches, |_, batch| {
        Ok::<(u64, u64), GateError>(run_batch(net, batch, stimuli))
    })
    .map_err(|e| match e {
        ocapi::ParError::Task { error, .. } => error,
        ocapi::ParError::Panic { index } => GateError::WorkerPanic { index },
    })?;

    let mut detected = 0usize;
    let mut undetected = Vec::new();
    let mut stats = GradeStats {
        faults: faults.len() as u64,
        ..GradeStats::default()
    };
    for (batch, (caught, evals)) in batches.iter().zip(masks) {
        stats.gate_evals += evals;
        stats.machine_evals += evals * batch.len() as u64;
        stats.fault_words += 1;
        for (k, f) in batch.iter().enumerate() {
            if (caught >> (k + 1)) & 1 == 1 {
                detected += 1;
            } else {
                undetected.push(*f);
            }
        }
    }
    Ok((
        FaultReport {
            total: faults.len(),
            detected,
            undetected,
        },
        stats,
    ))
}

/// Evaluates one gate bitwise over 64 lanes.
fn eval_lanes(kind: GateKind, i: &[u64]) -> u64 {
    match kind {
        GateKind::Const0 => 0,
        GateKind::Const1 => !0,
        GateKind::Buf => i[0],
        GateKind::Inv => !i[0],
        GateKind::And2 => i[0] & i[1],
        GateKind::Or2 => i[0] | i[1],
        GateKind::Nand2 => !(i[0] & i[1]),
        GateKind::Nor2 => !(i[0] | i[1]),
        GateKind::Xor2 => i[0] ^ i[1],
        GateKind::Xnor2 => !(i[0] ^ i[1]),
        GateKind::Mux2 => (i[0] & i[1]) | (!i[0] & i[2]),
        GateKind::Dff => unreachable!("DFFs are clocked separately"),
    }
}

/// Runs lane 0 (golden) + one lane per batch fault; returns the mask of
/// lanes observed to differ from lane 0 plus the number of word-level
/// gate evaluations performed (combinational evaluations in the settle
/// passes and DFF samples at the clock edges — each advancing every
/// machine in the word at once).
fn run_batch(net: &Netlist, batch: &[Fault], stimuli: &[CycleStimulus]) -> (u64, u64) {
    // Per-gate fault lanes: (force-to-one bits, force-mask bits).
    let mut force_mask = vec![0u64; net.gates.len()];
    let mut force_ones = vec![0u64; net.gates.len()];
    for (k, f) in batch.iter().enumerate() {
        let lane = 1u64 << (k + 1);
        force_mask[f.gate] |= lane;
        if f.stuck_at {
            force_ones[f.gate] |= lane;
        }
    }

    let broadcast = |b: bool| if b { !0u64 } else { 0u64 };
    let mut wires = vec![0u64; net.n_wires];
    let comb: Vec<usize> = net
        .gates
        .iter()
        .enumerate()
        .filter(|(_, g)| g.kind != GateKind::Dff)
        .map(|(gi, _)| gi)
        .collect();
    let dffs: Vec<usize> = net
        .gates
        .iter()
        .enumerate()
        .filter(|(_, g)| g.kind == GateKind::Dff)
        .map(|(gi, _)| gi)
        .collect();

    // Reset: DFF outputs at their initial value (with output faults).
    for gi in &dffs {
        let g = &net.gates[*gi];
        let v = broadcast(g.init);
        wires[g.output.index()] = (v & !force_mask[*gi]) | (force_ones[*gi] & force_mask[*gi]);
    }

    // Settle: evaluate the combinational gates to a fixed point. The
    // pass count is bounded by the logic depth for acyclic netlists;
    // lanes still flipping at the cap are oscillating faulty machines.
    let mut caught = 0u64;
    let mut evals = 0u64;
    let max_passes = comb.len() + 2;
    let settle = |wires: &mut Vec<u64>, caught: &mut u64, evals: &mut u64| {
        for pass in 0..max_passes {
            let mut changed = 0u64;
            for gi in &comb {
                let g = &net.gates[*gi];
                let mut ins = [0u64; 3];
                for (k, w) in g.inputs.iter().enumerate() {
                    ins[k] = wires[w.index()];
                }
                let mut v = eval_lanes(g.kind, &ins[..]);
                v = (v & !force_mask[*gi]) | (force_ones[*gi] & force_mask[*gi]);
                let w = g.output.index();
                changed |= wires[w] ^ v;
                wires[w] = v;
            }
            *evals += comb.len() as u64;
            if changed == 0 {
                break;
            }
            if pass + 1 == max_passes {
                // Lane 0 is stable by construction (GateSim settles this
                // netlist); flag the unstable faulty lanes as detected.
                *caught |= changed & !1;
            }
        }
    };
    settle(&mut wires, &mut caught, &mut evals);

    for cyc in stimuli {
        for (name, value) in &cyc.inputs {
            // Unknown bus names are ignored, matching the serial driver
            // contract where the caller resolves names itself.
            let Some(ws) = net.input_by_name(name) else {
                continue;
            };
            for (k, w) in ws.iter().enumerate() {
                wires[w.index()] = broadcast((value >> k) & 1 == 1);
            }
        }
        settle(&mut wires, &mut caught, &mut evals);
        // Clock edge: sample all DFF inputs simultaneously.
        let sampled: Vec<(usize, u64)> = dffs
            .iter()
            .map(|gi| {
                let g = &net.gates[*gi];
                let v = wires[g.inputs[0].index()];
                (
                    g.output.index(),
                    (v & !force_mask[*gi]) | (force_ones[*gi] & force_mask[*gi]),
                )
            })
            .collect();
        evals += dffs.len() as u64;
        for (w, v) in sampled {
            wires[w] = v;
        }
        settle(&mut wires, &mut caught, &mut evals);
        // Observe every output bus against lane 0.
        for (_, ws) in &net.outputs {
            for w in ws {
                let v = wires[w.index()];
                caught |= v ^ broadcast(v & 1 == 1);
            }
        }
    }
    (caught, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocapi::ParConfig;
    use ocapi_synth::gate::Netlist;

    /// y = (a & b) | (a & !b) — redundant logic: the OR is really just
    /// `a`, so several faults in the b-cone are untestable.
    fn redundant() -> Netlist {
        let mut n = Netlist::new();
        let i = n.input_bus("x", 2);
        let nb = n.gate(GateKind::Inv, &[i[1]]);
        let l = n.gate(GateKind::And2, &[i[0], i[1]]);
        let r = n.gate(GateKind::And2, &[i[0], nb]);
        let o = n.gate(GateKind::Or2, &[l, r]);
        n.output_bus("y", vec![o]);
        n
    }

    fn stim(values: &[u64]) -> Vec<CycleStimulus> {
        values
            .iter()
            .map(|v| CycleStimulus {
                inputs: vec![("x".into(), *v)],
            })
            .collect()
    }

    /// Every value of the 2-bit input bus `x`. On a combinational
    /// netlist the clock edge of each cycle changes nothing.
    fn exhaustive() -> Vec<CycleStimulus> {
        stim(&[0, 1, 2, 3])
    }

    fn serial(net: &Netlist, stimuli: &[CycleStimulus]) -> FaultReport {
        stuck_at_coverage(net, stimuli).expect("grade").0
    }

    fn packed(net: &Netlist, stimuli: &[CycleStimulus]) -> (FaultReport, GradeStats) {
        stuck_at_coverage_sharded_stats(net, stimuli, &ParConfig::single()).expect("packed")
    }

    #[test]
    fn redundant_logic_has_untestable_faults() {
        let rep = serial(&redundant(), &exhaustive());
        assert_eq!(rep.total, 8, "4 gates x 2 polarities");
        assert!(
            rep.coverage() < 1.0,
            "redundancy must leave untestable faults: {rep:?}"
        );
        // But the output stuck-at faults are always caught by an
        // exhaustive vector set.
        assert!(rep.detected >= 4, "{rep:?}");
    }

    #[test]
    fn irredundant_logic_reaches_full_coverage_exhaustively() {
        // y = a XOR b: every stuck-at is detectable.
        let mut n = Netlist::new();
        let i = n.input_bus("x", 2);
        let o = n.gate(GateKind::Xor2, &[i[0], i[1]]);
        n.output_bus("y", vec![o]);
        let rep = serial(&n, &exhaustive());
        assert_eq!(rep.total, 2);
        assert_eq!(rep.detected, 2);
        assert_eq!(rep.coverage(), 1.0);
    }

    #[test]
    fn empty_vector_set_detects_nothing_but_initial_state() {
        let rep = serial(&redundant(), &[]);
        assert_eq!(rep.detected, 0);
        assert_eq!(rep.undetected.len(), rep.total);
    }

    #[test]
    fn parallel_matches_serial_on_sequential_logic() {
        let mut n = Netlist::new();
        let i = n.input_bus("x", 2);
        let a = n.gate(GateKind::Xor2, &[i[0], i[1]]);
        let q = n.dff(a, false);
        let b = n.gate(GateKind::Mux2, &[q, i[0], i[1]]);
        let q2 = n.dff(b, true);
        n.output_bus("y", vec![q2, q]);
        let stimuli = stim(&[1, 2, 0, 3, 1, 0, 2]);
        let s = serial(&n, &stimuli);
        let (p, _) = packed(&n, &stimuli);
        assert_eq!(s.detected, p.detected);
        assert_eq!(s.undetected, p.undetected);
    }

    /// Detection flags for an explicit fault list, one rebuilt serial
    /// machine per fault — the reference the pack-boundary tests grade
    /// `grade_fault_list` against.
    fn scalar_subset(net: &Netlist, faults: &[Fault], stimuli: &[CycleStimulus]) -> Vec<bool> {
        let golden = {
            let mut sim = GateSim::new(net.clone()).expect("golden");
            drive_stimuli(&mut sim, stimuli).expect("golden drive")
        };
        faults
            .iter()
            .map(|f| {
                GateSim::new(inject(net, *f))
                    .and_then(|mut sim| drive_stimuli(&mut sim, stimuli))
                    .map(|seen| seen != golden)
                    .unwrap_or(true)
            })
            .collect()
    }

    #[test]
    fn scalar_stimulus_grader_matches_packed_engine() {
        let net = redundant();
        let stimuli = exhaustive();
        let (scalar, s_stats) = stuck_at_coverage(&net, &stimuli).expect("scalar");
        let (packed, p_stats) = packed(&net, &stimuli);
        assert_eq!(scalar.total, packed.total);
        assert_eq!(scalar.detected, packed.detected);
        assert_eq!(scalar.undetected, packed.undetected);
        // Universe bookkeeping is shared; the engines only differ in
        // packing. The scalar engine advances at most one fault machine
        // per eval, the packed one the whole word.
        assert_eq!(s_stats.faults, p_stats.faults);
        assert_eq!(s_stats.fault_words, 0);
        assert_eq!(p_stats.fault_words, 1, "8 faults fit one word");
        assert!(s_stats.faults_per_gate_eval() < 1.0, "{s_stats:?}");
        assert!(
            p_stats.faults_per_gate_eval() > 1.0,
            "word packing must advance several machines per eval: {p_stats:?}"
        );
    }

    #[test]
    fn every_engine_shares_one_fault_universe() {
        let net = redundant();
        let universe = enumerate_faults(&net);
        assert_eq!(universe.len(), 8, "4 gates x 2 polarities");
        let stimuli = exhaustive();
        let serial = serial(&net, &stimuli);
        let (sharded, _) =
            stuck_at_coverage_sharded_stats(&net, &stimuli, &ParConfig::new(2)).expect("sharded");
        for rep in [&serial, &sharded] {
            assert_eq!(rep.total, universe.len());
            assert!(rep.undetected.iter().all(|f| universe.contains(f)));
        }
    }

    #[test]
    fn pack_boundary_at_63_64_65_faults() {
        // A 40-inverter chain: 80 fault sites, so the universe can be
        // sliced to exactly 63 (one full word), 64 (a full word plus a
        // 1-fault word) and 65 faults around the word rollover.
        let mut n = Netlist::new();
        let i = n.input_bus("x", 1);
        let mut w = i[0];
        for _ in 0..40 {
            w = n.gate(GateKind::Inv, &[w]);
        }
        n.output_bus("y", vec![w]);
        // One constant cycle only: the chain output settles to a fixed
        // polarity, so faults of one polarity per gate escape — the
        // boundary test needs both detected and undetected faults in
        // every word, not a trivially all-caught universe.
        let stimuli = stim(&[0]);
        let universe = enumerate_faults(&n);
        assert_eq!(universe.len(), 80);
        for (count, words) in [(63usize, 1u64), (64, 2), (65, 2)] {
            let subset = &universe[..count];
            let (report, stats) =
                grade_fault_list(&n, subset, &stimuli, &ParConfig::single()).expect("grade");
            assert_eq!(report.total, count);
            assert_eq!(
                stats.fault_words, words,
                "{count} faults must pack into {words} word(s)"
            );
            let reference = scalar_subset(&n, subset, &stimuli);
            let detected_ref = reference.iter().filter(|d| **d).count();
            assert_eq!(
                report.detected, detected_ref,
                "{count}-fault slice: packed and serial classifications differ"
            );
            let undetected_ref: Vec<Fault> = subset
                .iter()
                .zip(&reference)
                .filter(|(_, d)| !**d)
                .map(|(f, _)| *f)
                .collect();
            assert_eq!(report.undetected, undetected_ref, "{count}-fault slice");
            assert!(
                !report.undetected.is_empty() && report.detected > 0,
                "boundary slice must mix detected and escaped faults: {report:?}"
            );
        }
    }

    #[test]
    fn grade_obs_flush_is_deterministic() {
        let (_, stats) = packed(&redundant(), &exhaustive());
        let reg = ocapi_obs::Registry::new();
        flush_grade_obs(&reg, &stats);
        assert_eq!(reg.counter("gate.fault_words").get(), stats.fault_words);
        assert_eq!(
            reg.counter("gate.faults_per_pass").get(),
            stats.faults / stats.fault_words
        );
    }

    #[test]
    fn parallel_batches_beyond_63_faults() {
        // A 50-gate inverter chain: 100 faults, two batches. Every fault
        // flips the single observed output, so coverage is 100%.
        let mut n = Netlist::new();
        let i = n.input_bus("x", 1);
        let mut w = i[0];
        for _ in 0..50 {
            w = n.gate(GateKind::Inv, &[w]);
        }
        n.output_bus("y", vec![w]);
        let stimuli = stim(&[0, 1]);
        let (p, _) = packed(&n, &stimuli);
        assert_eq!(p.total, 100);
        assert_eq!(p.detected, 100);
        assert_eq!(serial(&n, &stimuli).detected, 100);
    }

    #[test]
    fn sequential_fault_needs_clocking() {
        // A DFF in the path: the fault on its input shows only after a
        // clock edge, which every graded cycle applies.
        let mut n = Netlist::new();
        let i = n.input_bus("x", 1);
        let inv = n.gate(GateKind::Inv, &[i[0]]);
        let q = n.dff(inv, false);
        n.output_bus("y", vec![q]);
        let clocked = serial(&n, &stim(&[0, 1, 0, 1]));
        assert_eq!(clocked.coverage(), 1.0, "{clocked:?}");
    }
}
