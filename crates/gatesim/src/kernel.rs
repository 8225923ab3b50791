//! The event-driven gate evaluation kernel.

use std::error::Error;
use std::fmt;

use ocapi_obs::{Counter, EventLog, Registry};
use ocapi_synth::gate::{GateKind, Netlist, WireId};

/// Errors raised by the gate-level kernel.
///
/// The kernel is panic-free on constructible netlists: a combinational
/// loop that never settles is reported as [`GateError::Oscillation`]
/// instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GateError {
    /// The event worklist did not quiesce within the evaluation budget:
    /// a sensitised combinational loop (oscillating ring).
    Oscillation {
        /// Gate evaluations spent before giving up.
        evals: u64,
        /// Sorted, truncated descriptions of the gates still scheduled
        /// when the budget ran out.
        unstable: Vec<String>,
    },
    /// A worker of the sharded fault/BIST engine panicked while
    /// processing the given work item (fault batch or pattern block).
    /// The panic was contained at the item boundary; the index
    /// identifies the poisoned shard deterministically.
    WorkerPanic {
        /// Index of the work item whose worker panicked.
        index: usize,
    },
    /// A caller-supplied evaluation budget
    /// ([`GateSim::set_eval_budget`]) ran out before the worklist
    /// quiesced. Unlike [`GateError::Oscillation`] (the built-in
    /// loop detector), this is a watchdog the harness chose — the
    /// netlist may simply be larger than the budget allows.
    BudgetExceeded {
        /// Gate evaluations spent before the watchdog tripped.
        evals: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Oscillation { evals, unstable } => {
                write!(
                    f,
                    "gate-level oscillation: combinational loop did not settle \
                     after {evals} evaluations; unstable gates: {}",
                    unstable.join(", ")
                )
            }
            GateError::WorkerPanic { index } => {
                write!(f, "sharded work item {index} panicked in a worker thread")
            }
            GateError::BudgetExceeded { evals, budget } => {
                write!(
                    f,
                    "gate evaluation budget exceeded: {evals} evaluations \
                     against a budget of {budget}"
                )
            }
        }
    }
}

impl Error for GateError {}

/// Activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateSimStats {
    /// Gate evaluations performed.
    pub gate_evals: u64,
    /// Wire value changes (events).
    pub events: u64,
}

/// Registry handles the kernel reports into, plus the high-water mark
/// of what has already been flushed. The hot loop keeps bumping the
/// plain [`GateSimStats`] fields; deltas are pushed onto the shared
/// atomic counters once per [`GateSim::settle`], so instrumentation
/// costs two `fetch_add`s per settle instead of two per gate.
#[derive(Debug)]
struct KernelObs {
    gate_evals: Counter,
    events: Counter,
    log: EventLog,
    flushed: GateSimStats,
}

/// The built-in oscillation limit for a netlist of `gates` gates:
/// 1024 evaluations per gate (plus one) per settle. Shared with the
/// partitioned engine so its oscillation diagnostics report the
/// flat-netlist budget regardless of how the net was cut.
pub(crate) fn osc_limit(gates: usize) -> u64 {
    (gates as u64 + 1) * 1024
}

/// One gate as the evaluation loops read it: the kind, three input
/// wire indices (unused slots repeat input 0; a constant, which has no
/// inputs, repeats its output) and the output wire. Built once per
/// netlist ([`gate_table`]) and shared by the event-driven kernel and
/// the packed stuck-at grader.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateRec {
    pub(crate) kind: GateKind,
    pub(crate) ins: [u32; 3],
    pub(crate) out: u32,
}

/// The packed gate table of `net`, indexed like `net.gates`.
pub(crate) fn gate_table(net: &Netlist) -> Vec<GateRec> {
    net.gates
        .iter()
        .map(|g| {
            let first = g.inputs.first().unwrap_or(&g.output).index() as u32;
            let mut ins = [first; 3];
            for (slot, w) in ins.iter_mut().zip(&g.inputs) {
                *slot = w.index() as u32;
            }
            GateRec {
                kind: g.kind,
                ins,
                out: g.output.index() as u32,
            }
        })
        .collect()
}

/// The gate's function as an 8-entry truth table indexed by
/// `in0 | in1 << 1 | in2 << 2`, so evaluation is a table shift instead
/// of a branch on the kind. Matches [`GateKind::eval`]; a `Dff` passes
/// its D input (flip-flops are never scheduled for evaluation).
fn truth_table(kind: GateKind) -> u8 {
    match kind {
        GateKind::Const0 => 0x00,
        GateKind::Const1 => 0xff,
        GateKind::Buf | GateKind::Dff => 0xaa,
        GateKind::Inv => 0x55,
        GateKind::And2 => 0x88,
        GateKind::Or2 => 0xee,
        GateKind::Nand2 => 0x77,
        GateKind::Nor2 => 0x11,
        GateKind::Xor2 => 0x66,
        GateKind::Xnor2 => 0x99,
        // sel ? a : b over [sel, a, b].
        GateKind::Mux2 => 0xd8,
    }
}

/// Evaluates a gate record against the current wire values.
#[inline]
fn eval(g: &GateRec, values: &[bool]) -> bool {
    let idx = usize::from(values[g.ins[0] as usize])
        | usize::from(values[g.ins[1] as usize]) << 1
        | usize::from(values[g.ins[2] as usize]) << 2;
    (truth_table(g.kind) >> idx) & 1 == 1
}

/// The combinational fanout of every wire in compressed sparse row
/// form: the gates reading wire `w` are
/// `fan[fan_start[w]..fan_start[w + 1]]`, in gate order. Flip-flops sample
/// on the clock, not on events, and constants never change, so neither
/// appears.
fn fanout_csr(gates: &[GateRec], n_wires: usize) -> (Vec<u32>, Vec<u32>) {
    // (input wire, reading gate) for every pin of every combinational gate.
    let reads = || {
        gates
            .iter()
            .enumerate()
            .filter(|(_, g)| !matches!(g.kind, GateKind::Dff | GateKind::Const0 | GateKind::Const1))
            .flat_map(|(gi, g)| {
                g.ins[..g.kind.arity()]
                    .iter()
                    .map(move |w| (*w as usize, gi as u32))
            })
    };
    let mut fan_start = vec![0u32; n_wires + 1];
    for (w, _) in reads() {
        fan_start[w + 1] += 1;
    }
    for w in 0..n_wires {
        fan_start[w + 1] += fan_start[w];
    }
    let mut fill = fan_start[..n_wires].to_vec();
    let mut fan = vec![0u32; fan_start[n_wires] as usize];
    for (w, gi) in reads() {
        fan[fill[w] as usize] = gi;
        fill[w] += 1;
    }
    (fan_start, fan)
}

/// The set of gates awaiting evaluation, as a two-level bitmap: one bit
/// per gate, one summary bit per 64-gate word, and a cursor on the
/// lowest summary word that may be non-empty. [`DirtySet::pop`] returns
/// the lowest set index — the order a min-heap over the same set pops.
#[derive(Debug)]
struct DirtySet {
    words: Vec<u64>,
    summary: Vec<u64>,
    cursor: usize,
}

impl DirtySet {
    fn new(gates: usize) -> DirtySet {
        let words = gates.div_ceil(64);
        let summary = words.div_ceil(64);
        DirtySet {
            words: vec![0; words],
            summary: vec![0; summary],
            cursor: summary,
        }
    }

    #[inline]
    fn insert(&mut self, gate: u32) {
        let w = (gate >> 6) as usize;
        self.words[w] |= 1 << (gate & 63);
        let s = w >> 6;
        self.summary[s] |= 1 << (w & 63);
        self.cursor = self.cursor.min(s);
    }

    #[inline]
    fn pop(&mut self) -> Option<u32> {
        while let Some(&sum) = self.summary.get(self.cursor) {
            if sum == 0 {
                self.cursor += 1;
                continue;
            }
            let w = (self.cursor << 6) | sum.trailing_zeros() as usize;
            let bits = self.words[w];
            let rest = bits & (bits - 1);
            self.words[w] = rest;
            if rest == 0 {
                self.summary[self.cursor] = sum & (sum - 1);
            }
            return Some(((w as u32) << 6) | bits.trailing_zeros());
        }
        None
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.summary.fill(0);
        self.cursor = self.summary.len();
    }
}

/// An event-driven simulator for a gate-level netlist.
///
/// Wires start at the constant/DFF initial values; undriven wires are
/// primary inputs, set with [`GateSim::set_wire`] or [`GateSim::set_bus`].
/// Combinational changes propagate on [`GateSim::settle`];
/// [`GateSim::clock`] advances every flip-flop simultaneously.
#[derive(Debug)]
pub struct GateSim {
    net: Netlist,
    /// Packed gate records, indexed like `net.gates`.
    gates: Vec<GateRec>,
    values: Vec<bool>,
    /// CSR fanout (see [`fanout_csr`]): one entry per wire plus one.
    fan_start: Vec<u32>,
    fan: Vec<u32>,
    /// gate indices of all DFFs
    dffs: Vec<u32>,
    /// Gates awaiting evaluation, popped lowest index first: gates are
    /// created in rough dependency order, so this evaluates close to
    /// levelized order and avoids the exponential glitching a LIFO
    /// worklist suffers in deep adder trees.
    dirty: DirtySet,
    /// DFF sample scratch, reused across [`GateSim::clock`] calls so a
    /// clocked run allocates nothing per cycle.
    sample_buf: Vec<(usize, bool)>,
    stats: GateSimStats,
    obs: Option<KernelObs>,
    /// Caller-supplied watchdog on evaluations per settle; `None` uses
    /// the built-in oscillation limit of 1024 evaluations per gate.
    eval_budget: Option<u64>,
    /// Diagnostic relabel map: local gate index → the index reported
    /// in quiesce diagnostics. The partitioned engine installs the
    /// flat-netlist indices here so a sub-kernel's oscillation report
    /// names the same gates the single-core kernel would.
    labels: Option<Vec<u32>>,
}

impl GateSim {
    /// Builds the simulator and settles the initial state.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::Oscillation`] if the initial settle never
    /// quiesces (the netlist contains a sensitised combinational loop).
    pub fn new(net: Netlist) -> Result<GateSim, GateError> {
        GateSim::with_inputs(net, &[])
    }

    /// Builds the simulator with the given input wires preset *before*
    /// the initial settle, exactly as flip-flop outputs are preset to
    /// their `init` values (no events are counted). The partitioned
    /// engine uses this to seed a sub-kernel's mirror wires of remote
    /// flip-flops, so a partitioned initial settle reproduces the
    /// single-core one gate evaluation for gate evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::Oscillation`] if the initial settle never
    /// quiesces (the netlist contains a sensitised combinational loop).
    pub fn with_inputs(net: Netlist, presets: &[(WireId, bool)]) -> Result<GateSim, GateError> {
        let mut values = vec![false; net.n_wires];
        for (w, v) in presets {
            values[w.index()] = *v;
        }
        let gates = gate_table(&net);
        let (fan_start, fan) = fanout_csr(&gates, net.n_wires);
        let mut dffs = Vec::new();
        let mut dirty = DirtySet::new(gates.len());
        for ((gi, g), rec) in net.gates.iter().enumerate().zip(&gates) {
            match g.kind {
                GateKind::Dff => {
                    values[rec.out as usize] = g.init;
                    dffs.push(gi as u32);
                }
                GateKind::Const0 => values[rec.out as usize] = false,
                GateKind::Const1 => values[rec.out as usize] = true,
                // Initial evaluation of all combinational gates.
                _ => dirty.insert(gi as u32),
            }
        }
        let mut sim = GateSim {
            net,
            gates,
            values,
            fan_start,
            fan,
            dffs,
            dirty,
            sample_buf: Vec::new(),
            stats: GateSimStats::default(),
            obs: None,
            eval_budget: None,
            labels: None,
        };
        sim.settle()?;
        Ok(sim)
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.net
    }

    /// Caps the evaluations each [`GateSim::settle`] may spend before
    /// failing with [`GateError::BudgetExceeded`] — a watchdog for
    /// harnesses running untrusted netlists with a latency budget.
    /// `None` restores the default: the built-in oscillation limit of
    /// 1024 evaluations per gate, reported as
    /// [`GateError::Oscillation`].
    pub fn set_eval_budget(&mut self, budget: Option<u64>) {
        self.eval_budget = budget;
    }

    /// Activity counters.
    pub fn stats(&self) -> GateSimStats {
        self.stats
    }

    /// Starts reporting into `reg`: the `gate.evals` and `gate.events`
    /// counters receive the settle-loop activity (flushed once per
    /// settle, not per gate), and oscillation diagnostics are logged as
    /// `"oscillation"` events. Any activity accumulated before the
    /// attach counts toward the first flush.
    pub fn attach_obs(&mut self, reg: &Registry) {
        self.obs = Some(KernelObs {
            gate_evals: reg.counter("gate.evals"),
            events: reg.counter("gate.events"),
            log: reg.events().clone(),
            flushed: GateSimStats::default(),
        });
    }

    /// Pushes the not-yet-reported stats deltas onto the shared
    /// counters.
    fn flush_obs(&mut self) {
        if let Some(o) = &mut self.obs {
            o.gate_evals
                .add(self.stats.gate_evals - o.flushed.gate_evals);
            o.events.add(self.stats.events - o.flushed.events);
            o.flushed = self.stats;
        }
    }

    /// Current value of a wire.
    pub fn wire(&self, w: WireId) -> bool {
        self.values[w.index()]
    }

    /// Current value of a bus as an integer (LSB first): bit `i` of
    /// the result is wire `i`. Only the low 64 wires fit the `u64`
    /// observation window; wires at index ≥ 64 are ignored.
    pub fn bus(&self, wires: &[WireId]) -> u64 {
        wires
            .iter()
            .take(64)
            .enumerate()
            .map(|(i, w)| (self.values[w.index()] as u64) << i)
            .sum()
    }

    /// Drives a primary-input wire (takes effect at the next settle).
    pub fn set_wire(&mut self, w: WireId, value: bool) {
        let w = w.index();
        if self.values[w] != value {
            self.values[w] = value;
            self.stats.events += 1;
            self.schedule_fanout(w);
        }
    }

    /// Drives a bus from the low bits of `value` (LSB first): wire `i`
    /// receives bit `i` of `value`. Wires at index ≥ 64 lie beyond the
    /// `u64` stimulus window and are driven to `false`, so a wide bus
    /// is fully re-driven rather than shifting out of range (`value >>
    /// 64` would overflow) or keeping stale high bits.
    pub fn set_bus(&mut self, wires: &[WireId], value: u64) {
        for (i, w) in wires.iter().enumerate() {
            let bit = i < 64 && (value >> i) & 1 == 1;
            self.set_wire(*w, bit);
        }
    }

    /// Marks every combinational reader of wire `w` dirty.
    #[inline]
    fn schedule_fanout(&mut self, w: usize) {
        let (lo, hi) = (self.fan_start[w] as usize, self.fan_start[w + 1] as usize);
        for &f in &self.fan[lo..hi] {
            self.dirty.insert(f);
        }
    }

    /// Propagates combinational events until quiescent. Structural false
    /// loops (e.g. through shared-operator multiplexers) settle because
    /// the unsensitised path stops the propagation.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::Oscillation`] when the built-in evaluation
    /// limit (1024 evaluations per gate) is exhausted: a sensitised
    /// combinational loop. With a caller-supplied watchdog
    /// ([`GateSim::set_eval_budget`]) the tighter of the two limits
    /// applies and a watchdog trip is reported as
    /// [`GateError::BudgetExceeded`] instead. Either way the worklist
    /// is drained so the simulator is left in a defined (if
    /// meaningless) state and can be reset by re-driving its inputs.
    pub fn settle(&mut self) -> Result<(), GateError> {
        let mut guard = 0u64;
        let osc_limit = osc_limit(self.gates.len());
        let limit = self.eval_budget.map_or(osc_limit, |b| b.min(osc_limit));
        while let Some(gi) = self.dirty.pop() {
            guard += 1;
            if guard >= limit {
                return Err(self.quiesce_failure(guard, gi, limit < osc_limit));
            }
            let g = &self.gates[gi as usize];
            let newv = eval(g, &self.values);
            self.stats.gate_evals += 1;
            let out = g.out as usize;
            if self.values[out] != newv {
                self.values[out] = newv;
                self.stats.events += 1;
                self.schedule_fanout(out);
            }
        }
        self.flush_obs();
        Ok(())
    }

    /// Builds the failed-to-quiesce diagnostic, then drains the
    /// worklist so the kernel stays usable. A watchdog trip
    /// (`budgeted`) becomes [`GateError::BudgetExceeded`]; the
    /// built-in limit becomes [`GateError::Oscillation`] with the full
    /// membership of the sensitised loop(s).
    fn quiesce_failure(&mut self, evals: u64, current: u32, budgeted: bool) -> GateError {
        if budgeted {
            self.dirty.clear();
            self.flush_obs();
            let budget = self.eval_budget.unwrap_or(evals);
            if let Some(o) = &self.obs {
                o.log.record(
                    0,
                    "budget",
                    format!("{evals} evals against budget {budget}"),
                );
            }
            return GateError::BudgetExceeded { evals, budget };
        }
        // By the time the built-in limit trips, every stable cone has
        // long quiesced — the only gates still being rescheduled are
        // the sensitised loop(s) and their immediate fanout. A snapshot
        // of the worklist would name whichever one or two gates the
        // budget happened to trip on: a phase accident that differs
        // between the flat kernel and a partitioned sub-kernel, whose
        // budgets spend different eval counts on the stable cones.
        // Instead keep evaluating for a bounded post-mortem sweep
        // (uncounted in the activity stats) and report every gate it
        // visits — the loop membership, identical at any partition
        // count.
        let mut cycling = vec![false; self.gates.len()];
        let mut next = Some(current);
        let sweep = (self.gates.len() as u64 + 1) * 16;
        for _ in 0..sweep {
            let Some(gi) = next else { break };
            cycling[gi as usize] = true;
            let g = &self.gates[gi as usize];
            let newv = eval(g, &self.values);
            let out = g.out as usize;
            if self.values[out] != newv {
                self.values[out] = newv;
                self.schedule_fanout(out);
            }
            next = self.dirty.pop();
        }
        let unstable: Vec<String> = cycling
            .iter()
            .enumerate()
            .filter(|(_, c)| **c)
            .take(16)
            .map(|(gi, _)| {
                // Report the caller-facing index: the flat-netlist one
                // when this kernel simulates a partition. The relabel
                // map is monotonic, so index-sorted local order is
                // index-sorted global order.
                let disp = self.labels.as_ref().map_or(gi as u32, |labels| labels[gi]);
                format!("gate {disp} ({:?})", self.gates[gi].kind)
            })
            .collect();
        self.dirty.clear();
        self.flush_obs();
        if let Some(o) = &self.obs {
            o.log.record(
                0,
                "oscillation",
                format!("{evals} evals, unstable: {}", unstable.join(", ")),
            );
        }
        GateError::Oscillation { evals, unstable }
    }

    /// One clock edge: every DFF samples its input simultaneously, then
    /// the resulting events settle.
    ///
    /// # Errors
    ///
    /// Propagates [`GateError::Oscillation`] from the settle phase.
    pub fn clock(&mut self) -> Result<(), GateError> {
        self.sample_dffs();
        self.settle()
    }

    /// The sampling half of [`GateSim::clock`]: every DFF captures its
    /// input simultaneously and the resulting events are scheduled, but
    /// *not* settled. The partitioned engine samples every sub-kernel,
    /// then exchanges registered cut-edge values, then settles — so the
    /// exchange lands in the same settle wave a flat kernel would run.
    pub(crate) fn sample_dffs(&mut self) {
        let mut sampled = std::mem::take(&mut self.sample_buf);
        sampled.clear();
        sampled.extend(self.dffs.iter().map(|gi| {
            let g = &self.gates[*gi as usize];
            (g.out as usize, self.values[g.ins[0] as usize])
        }));
        for &(out, v) in &sampled {
            if self.values[out] != v {
                self.values[out] = v;
                self.stats.events += 1;
                self.schedule_fanout(out);
            }
        }
        self.sample_buf = sampled;
    }

    /// Installs the diagnostic relabel map (local gate index → reported
    /// index) for sub-kernels of a partitioned run.
    pub(crate) fn set_gate_labels(&mut self, labels: Vec<u32>) {
        self.labels = Some(labels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocapi_synth::bitops::{ripple_add, ripple_sub};

    #[test]
    fn truth_tables_match_gate_eval() {
        use GateKind::*;
        for kind in [
            Const0, Const1, Buf, Inv, And2, Or2, Nand2, Nor2, Xor2, Xnor2, Mux2,
        ] {
            for idx in 0..8usize {
                let ins = [idx & 1 == 1, idx & 2 == 2, idx & 4 == 4];
                let rec = GateRec {
                    kind,
                    ins: [0, 1, 2],
                    out: 3,
                };
                assert_eq!(
                    eval(&rec, &ins),
                    kind.eval(&ins[..kind.arity()]),
                    "{kind:?} on {ins:?}"
                );
            }
        }
    }

    #[test]
    fn dirty_set_pops_in_min_heap_order() {
        // Reference: the dirty-flagged min-heap the bitmap replaced.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = 64 * 64 * 2 + 37;
        let mut set = DirtySet::new(n);
        let mut heap = BinaryHeap::new();
        let mut flag = vec![false; n];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(3) {
                let want = heap.pop().map(|Reverse(g)| {
                    flag[g as usize] = false;
                    g
                });
                assert_eq!(set.pop(), want);
                continue;
            }
            let g = (x >> 20) as usize % n;
            set.insert(g as u32);
            if !flag[g] {
                flag[g] = true;
                heap.push(Reverse(g as u32));
            }
        }
        while let Some(Reverse(g)) = heap.pop() {
            flag[g as usize] = false;
            assert_eq!(set.pop(), Some(g));
        }
        assert_eq!(set.pop(), None);
    }

    #[test]
    fn adder_netlist_simulates() {
        let mut net = Netlist::new();
        let a = net.input_bus("a", 8);
        let b = net.input_bus("b", 8);
        let cin = net.constant(false);
        let (sum, _) = ripple_add(&mut net, &a, &b, cin);
        net.output_bus("sum", sum);
        let mut sim = GateSim::new(net).unwrap();
        for (x, y) in [(3u64, 4u64), (200, 100), (255, 1), (17, 39)] {
            let (aw, bw) = (
                sim.netlist().input_by_name("a").unwrap().to_vec(),
                sim.netlist().input_by_name("b").unwrap().to_vec(),
            );
            sim.set_bus(&aw, x);
            sim.set_bus(&bw, y);
            sim.settle().unwrap();
            let s = sim.netlist().output_by_name("sum").unwrap().to_vec();
            assert_eq!(sim.bus(&s), (x + y) & 0xff, "{x}+{y}");
        }
    }

    #[test]
    fn buses_wider_than_64_wires_do_not_overflow() {
        // Regression: set_bus computed `(value >> i) & 1` per wire, so
        // a 65-wire bus panicked with shift overflow in debug builds
        // (and silently wrapped in release, re-driving bit 64 from bit
        // 0). Bits ≥ 64 now drive `false`; bus() reads the low 64.
        let mut net = Netlist::new();
        let a = net.input_bus("a", 65);
        let buf: Vec<WireId> = a.iter().map(|w| net.gate(GateKind::Buf, &[*w])).collect();
        net.output_bus("y", buf);
        let mut sim = GateSim::new(net).unwrap();
        let aw = sim.netlist().input_by_name("a").unwrap().to_vec();
        let yw = sim.netlist().output_by_name("y").unwrap().to_vec();
        sim.set_bus(&aw, u64::MAX);
        sim.settle().unwrap();
        assert_eq!(sim.bus(&yw), u64::MAX, "low 64 bits drive and read back");
        assert!(!sim.wire(yw[64]), "bit 64 is beyond the u64 window: false");
        // Re-driving a narrower value clears the low bits and leaves
        // bit 64 untouched (still false), with no overflow on read.
        sim.set_bus(&aw, 5);
        sim.settle().unwrap();
        assert_eq!(sim.bus(&yw), 5);
        assert!(!sim.wire(yw[64]));
    }

    #[test]
    fn with_inputs_presets_before_initial_settle() {
        // An inverter chain from a preset input: the preset is visible
        // to the initial settle (y = !x = false), and costs no events
        // beyond what driving the cone itself produces.
        let mut net = Netlist::new();
        let x = net.input_bus("x", 1);
        let y = net.gate(GateKind::Inv, &[x[0]]);
        net.output_bus("y", vec![y]);
        let preset = GateSim::with_inputs(net.clone(), &[(x[0], true)]).unwrap();
        let yw = preset.netlist().output_by_name("y").unwrap().to_vec();
        assert_eq!(preset.bus(&yw), 0);
        // Reference: default construction then set_wire costs strictly
        // more events (the input transition itself is an event).
        let mut plain = GateSim::new(net).unwrap();
        plain.set_wire(x[0], true);
        plain.settle().unwrap();
        assert_eq!(plain.bus(&yw), 0);
        assert!(plain.stats().events > preset.stats().events);
    }

    #[test]
    fn dff_clocking() {
        let mut net = Netlist::new();
        let d = net.input_bus("d", 4);
        let q: Vec<WireId> = d.iter().map(|w| net.dff(*w, false)).collect();
        net.output_bus("q", q);
        let mut sim = GateSim::new(net).unwrap();
        let dw = sim.netlist().input_by_name("d").unwrap().to_vec();
        let qw = sim.netlist().output_by_name("q").unwrap().to_vec();
        sim.set_bus(&dw, 9);
        sim.settle().unwrap();
        assert_eq!(sim.bus(&qw), 0, "before clock");
        sim.clock().unwrap();
        assert_eq!(sim.bus(&qw), 9, "after clock");
    }

    #[test]
    fn counter_with_feedback() {
        // q' = q - 1 (via sub) — a registered feedback loop.
        let mut net = Netlist::new();
        let mut q = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (qa, h) = net.dff_deferred(false);
            q.push(qa);
            handles.push(h);
        }
        let one = net.constant(true);
        let zero = net.constant(false);
        let one_bus = vec![one, zero, zero, zero];
        let (dec, _) = ripple_sub(&mut net, &q, &one_bus);
        for (h, d) in handles.iter().zip(&dec) {
            net.connect_dff(*h, *d);
        }
        net.output_bus("q", q);
        let mut sim = GateSim::new(net).unwrap();
        let qw = sim.netlist().output_by_name("q").unwrap().to_vec();
        assert_eq!(sim.bus(&qw), 0);
        sim.clock().unwrap();
        assert_eq!(sim.bus(&qw), 15);
        sim.clock().unwrap();
        assert_eq!(sim.bus(&qw), 14);
    }

    #[test]
    fn stats_accumulate() {
        let mut net = Netlist::new();
        let a = net.input_bus("a", 2);
        let x = net.gate(GateKind::Xor2, &[a[0], a[1]]);
        net.output_bus("x", vec![x]);
        let mut sim = GateSim::new(net).unwrap();
        let evals0 = sim.stats().gate_evals;
        let aw = sim.netlist().input_by_name("a").unwrap().to_vec();
        sim.set_bus(&aw, 1);
        sim.settle().unwrap();
        assert!(sim.stats().gate_evals > evals0);
    }

    #[test]
    fn obs_counters_flush_on_settle() {
        let mut net = Netlist::new();
        let a = net.input_bus("a", 2);
        let x = net.gate(GateKind::Xor2, &[a[0], a[1]]);
        net.output_bus("x", vec![x]);
        let mut sim = GateSim::new(net).unwrap();
        let reg = Registry::new();
        sim.attach_obs(&reg);
        let aw = sim.netlist().input_by_name("a").unwrap().to_vec();
        sim.set_bus(&aw, 1);
        sim.settle().unwrap();
        assert_eq!(reg.counter("gate.evals").get(), sim.stats().gate_evals);
        assert_eq!(reg.counter("gate.events").get(), sim.stats().events);
    }

    #[test]
    fn oscillation_is_logged_when_attached() {
        let mut net = Netlist::new();
        let w = net.wire();
        net.gate_into(GateKind::Inv, &[w], w);
        let a = net.input_bus("a", 1);
        let y = net.gate(GateKind::And2, &[a[0], w]);
        net.output_bus("y", vec![y]);
        // Build fails on the oscillating initial settle; re-drive the
        // attach path directly on a fresh sim over a clean netlist and
        // force the oscillation through set_wire.
        let mut clean = Netlist::new();
        let w = clean.wire();
        clean.gate_into(GateKind::Inv, &[w], w);
        clean.output_bus("osc", vec![w]);
        let reg = Registry::new();
        let gates = gate_table(&clean);
        let (fan_start, fan) = fanout_csr(&gates, clean.n_wires);
        assert_eq!((&fan_start[..], &fan[..]), (&[0, 1][..], &[0][..]));
        let mut kernel = GateSim {
            values: vec![false; clean.n_wires],
            gates,
            fan_start,
            fan,
            dffs: Vec::new(),
            dirty: DirtySet::new(clean.gates.len()),
            sample_buf: Vec::new(),
            stats: GateSimStats::default(),
            obs: None,
            eval_budget: None,
            labels: None,
            net: clean,
        };
        kernel.attach_obs(&reg);
        kernel.dirty.insert(0);
        assert!(kernel.settle().is_err());
        assert_eq!(reg.events().recorded(), 1);
        assert!(reg.events().snapshot()[0].kind == "oscillation");
        assert_eq!(reg.counter("gate.evals").get(), kernel.stats().gate_evals);
    }

    #[test]
    fn oscillating_ring_returns_error() {
        // A free-running ring oscillator: an inverter driving itself.
        let mut net = Netlist::new();
        let w = net.wire();
        net.gate_into(GateKind::Inv, &[w], w);
        net.output_bus("osc", vec![w]);
        let err = GateSim::new(net).unwrap_err();
        match &err {
            GateError::Oscillation { evals, unstable } => {
                assert!(*evals > 0);
                assert_eq!(unstable, &["gate 0 (Inv)".to_owned()]);
            }
            other => panic!("expected oscillation, got {other:?}"),
        }
        assert!(err.to_string().contains("did not settle"));
    }

    #[test]
    fn eval_budget_trips_before_oscillation_limit() {
        // A perfectly healthy adder, but with a watchdog too tight for
        // its settle: the caller budget trips as BudgetExceeded, not as
        // a (false) oscillation diagnosis.
        let mut net = Netlist::new();
        let a = net.input_bus("a", 8);
        let b = net.input_bus("b", 8);
        let cin = net.constant(false);
        let (sum, _) = ripple_add(&mut net, &a, &b, cin);
        net.output_bus("sum", sum);
        let mut sim = GateSim::new(net).unwrap();
        sim.set_eval_budget(Some(3));
        let aw = sim.netlist().input_by_name("a").unwrap().to_vec();
        sim.set_bus(&aw, 0xff);
        let err = sim.settle().unwrap_err();
        match err {
            GateError::BudgetExceeded { evals, budget } => {
                assert_eq!(budget, 3);
                assert_eq!(evals, 3);
            }
            other => panic!("expected budget trip, got {other:?}"),
        }
        // The kernel survives the trip: the worklist was drained, so a
        // further settle with the budget lifted succeeds (on the now
        // meaningless state — recovery of *values* needs a rebuild).
        sim.set_eval_budget(None);
        sim.settle().unwrap();
    }

    #[test]
    fn kernel_usable_after_oscillation_error() {
        // An oscillating ring plus an independent AND gate: after the
        // settle error, the rest of the netlist still simulates.
        let mut net = Netlist::new();
        let w = net.wire();
        net.gate_into(GateKind::Inv, &[w], w);
        let a = net.input_bus("a", 2);
        let y = net.gate(GateKind::And2, &[a[0], a[1]]);
        net.output_bus("y", vec![y]);
        let err = GateSim::new(net);
        // Initial settle oscillates; rebuild-free recovery path: the
        // returned error leaves no panic, and a fresh sim on the clean
        // sub-netlist works.
        assert!(err.is_err());
        let mut clean = Netlist::new();
        let a = clean.input_bus("a", 2);
        let y = clean.gate(GateKind::And2, &[a[0], a[1]]);
        clean.output_bus("y", vec![y]);
        let mut sim = GateSim::new(clean).unwrap();
        let aw = sim.netlist().input_by_name("a").unwrap().to_vec();
        sim.set_bus(&aw, 0b11);
        sim.settle().unwrap();
        let yw = sim.netlist().output_by_name("y").unwrap().to_vec();
        assert_eq!(sim.bus(&yw), 1);
    }
}
