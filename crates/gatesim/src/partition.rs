//! Model-parallel partitioned gate-level simulation.
//!
//! Every parallel lever before this one was data-parallel: shards of
//! faults, lanes of machines, words of patterns. This module partitions
//! the *model* — the flat gate netlist itself — across workers, the
//! multi-processor mapping of the Berkeley emulation engines: a
//! deterministic balanced min-cut [`partition_netlist`] splits the
//! netlist into K sub-netlists whose only inter-partition nets are
//! *registered* (flip-flop outputs), and a [`PartitionedGateSim`] runs
//! one event-driven [`GateSim`] kernel per partition on the
//! `ocapi::sim::par` worker pool, exchanging cut-edge values once per
//! clock edge.
//!
//! # Why cuts fall on registers
//!
//! Combinational cones never span partitions: the partitioner glues
//! every gate to the gates driving its inputs unless the driver is a
//! flip-flop (or a constant, which is replicated). A sub-kernel can
//! therefore settle its combinational logic to quiescence using only
//! local values plus *mirror wires* — local images of remote flip-flop
//! outputs and of shared primary inputs — and the mirrors only need
//! refreshing where registered values change: at the clock edge.
//!
//! # Determinism contract
//!
//! Results are byte-identical to the single-core [`GateSim`] at any
//! partition count, the same contract `--threads` and `--lanes` carry.
//! Not just final values — the activity *stats* match too, because the
//! per-cluster event order is preserved exactly:
//!
//! * A kernel always evaluates the lowest-indexed gate of its dirty
//!   set next, and a sub-netlist preserves relative gate order, so the
//!   evaluation sequence *within a cluster* is the same whether the
//!   cluster shares a dirty set with unrelated clusters (flat) or not
//!   (partitioned).
//! * Mirror wires are preset to the remote flip-flop's `init` value
//!   before the initial settle ([`GateSim::with_inputs`]), matching
//!   flat initialisation.
//! * A clock edge samples every flip-flop in every partition first,
//!   then exchanges changed cut values, then settles — the exchanged
//!   events land in the same settle wave a flat kernel runs.
//! * Events a flat kernel counts once but mirrors count per copy are
//!   tracked and subtracted ([`PartitionedGateSim::stats`]).

use std::collections::BTreeMap;
use std::sync::Mutex;

use ocapi::sim::par::{map_indexed, ParConfig, ParError};
use ocapi_obs::{Counter, Registry, Span};
use ocapi_synth::gate::{Gate, GateKind, Netlist, WireId};

use crate::{GateError, GateSim, GateSimStats};

/// Marks a gate the partitioner replicates instead of assigning
/// (constants, which are free to duplicate and never evaluate).
const REPLICATED: u32 = u32::MAX;

/// Configuration for [`partition_netlist`] / [`PartitionedGateSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionOptions {
    /// Number of partitions K (0 is clamped to 1).
    pub partitions: usize,
    /// Seed mixed into assignment tie-breaks. Any fixed seed gives a
    /// stable, reproducible assignment; different seeds may explore
    /// different (equally valid) balanced cuts.
    pub seed: u64,
    /// Worker threads for the settle fan-out (0 clamps to 1; capped at
    /// the partition count by construction of the work items).
    pub threads: usize,
}

impl PartitionOptions {
    /// K partitions settled by K worker threads, seed 0.
    pub fn new(partitions: usize) -> PartitionOptions {
        let partitions = partitions.max(1);
        PartitionOptions {
            partitions,
            seed: 0,
            threads: partitions,
        }
    }

    /// Overrides the assignment tie-break seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> PartitionOptions {
        self.seed = seed;
        self
    }

    /// Overrides the settle worker-thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> PartitionOptions {
        self.threads = threads.max(1);
        self
    }
}

/// The partitioner's output: a gate → partition assignment plus the
/// cut-edge summary, a pure function of `(netlist, options)`.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Number of partitions K.
    pub partitions: usize,
    /// Partition of each gate; constants hold [`u32::MAX`] (replicated
    /// into every consuming partition rather than assigned).
    pub assignment: Vec<u32>,
    /// Registered wires crossing a partition boundary, sorted by wire
    /// index: flip-flop outputs consumed outside the flip-flop's own
    /// partition.
    pub cut_wires: Vec<WireId>,
    /// Gates per partition (replicated constants not counted).
    pub gate_counts: Vec<usize>,
}

impl PartitionPlan {
    /// Largest / smallest partition sizes — the balance achieved.
    pub fn balance(&self) -> (usize, usize) {
        let max = self.gate_counts.iter().copied().max().unwrap_or(0);
        let min = self.gate_counts.iter().copied().min().unwrap_or(0);
        (max, min)
    }
}

/// Union-find with path halving.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins: keeps cluster ids stable under
            // iteration order.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

fn fnv_mix(seed: u64, a: u64, b: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h = FNV_OFFSET ^ seed;
    for byte in a.to_le_bytes().iter().chain(b.to_le_bytes().iter()) {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Splits `net` into `opts.partitions` balanced partitions whose only
/// inter-partition nets are registered (flip-flop outputs).
///
/// The algorithm is a deterministic two-phase heuristic:
///
/// 1. **Clustering.** Gates connected by a combinational net are glued
///    into one cluster (union-find); a flip-flop joins the cluster
///    driving its D input. Clusters are the atoms — splitting one
///    would put a combinational net on the cut.
/// 2. **Greedy balanced assignment.** Clusters, largest first, go to
///    the partition where they save the most cut edges among those
///    still under the balance cap (115 % of the ideal share), ties
///    broken by lighter load, then by a seeded hash, then by partition
///    index — every step a pure function of `(netlist, options)`.
pub fn partition_netlist(net: &Netlist, opts: &PartitionOptions) -> PartitionPlan {
    let n_gates = net.gates.len();
    let k = opts.partitions.max(1);

    // Wire → driving gate.
    let mut driver: Vec<Option<u32>> = vec![None; net.n_wires];
    for (gi, g) in net.gates.iter().enumerate() {
        driver[g.output.index()] = Some(gi as u32);
    }
    let is_const = |gi: u32| {
        matches!(
            net.gates[gi as usize].kind,
            GateKind::Const0 | GateKind::Const1
        )
    };

    // Phase 1: combinational clustering.
    let mut uf = UnionFind::new(n_gates);
    for (gi, g) in net.gates.iter().enumerate() {
        if matches!(g.kind, GateKind::Const0 | GateKind::Const1) {
            continue;
        }
        for w in &g.inputs {
            if let Some(d) = driver[w.index()] {
                // Registered and constant nets may be cut; everything
                // else glues consumer to driver.
                if net.gates[d as usize].kind != GateKind::Dff && !is_const(d) {
                    uf.union(gi as u32, d);
                }
            }
        }
    }

    // Cluster ids in order of first appearance (ascending gate index).
    let mut cluster_of_gate: Vec<u32> = vec![REPLICATED; n_gates];
    let mut cluster_size: Vec<u64> = Vec::new();
    let mut cluster_first: Vec<u32> = Vec::new();
    let mut root_cluster: BTreeMap<u32, u32> = BTreeMap::new();
    for (gi, slot) in cluster_of_gate.iter_mut().enumerate() {
        if is_const(gi as u32) {
            continue;
        }
        let root = uf.find(gi as u32);
        let cid = *root_cluster.entry(root).or_insert_with(|| {
            cluster_size.push(0);
            cluster_first.push(gi as u32);
            (cluster_size.len() - 1) as u32
        });
        *slot = cid;
        cluster_size[cid as usize] += 1;
    }
    let n_clusters = cluster_size.len();

    // Registered inter-cluster affinity: how many cut edges co-locating
    // two clusters would save.
    let mut affinity: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for (gi, g) in net.gates.iter().enumerate() {
        if is_const(gi as u32) {
            continue;
        }
        let cg = cluster_of_gate[gi];
        for w in &g.inputs {
            if let Some(d) = driver[w.index()] {
                if net.gates[d as usize].kind == GateKind::Dff {
                    let cd = cluster_of_gate[d as usize];
                    if cd != cg {
                        let key = if cd < cg { (cd, cg) } else { (cg, cd) };
                        *affinity.entry(key).or_insert(0) += 1;
                    }
                }
            }
        }
    }
    // Per-cluster adjacency list for the greedy scorer.
    let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n_clusters];
    for (&(a, b), &w) in &affinity {
        adj[a as usize].push((b, w));
        adj[b as usize].push((a, w));
    }

    // Phase 2: greedy balanced assignment, largest cluster first.
    let mut order: Vec<u32> = (0..n_clusters as u32).collect();
    order.sort_by_key(|c| {
        (
            std::cmp::Reverse(cluster_size[*c as usize]),
            cluster_first[*c as usize],
        )
    });
    let total: u64 = cluster_size.iter().sum();
    let cap = (total * 115).div_ceil(100 * k as u64).max(1);
    let mut load = vec![0u64; k];
    let mut cluster_part: Vec<u32> = vec![0; n_clusters];
    for &c in &order {
        let size = cluster_size[c as usize];
        let mut saved = vec![0u64; k];
        for &(other, w) in &adj[c as usize] {
            // Clusters are assigned largest-first; an unassigned
            // neighbour still has cluster_part 0, so gate savings on
            // partition 0 by checking assignment explicitly.
            if cluster_size[other as usize] > size
                || (cluster_size[other as usize] == size
                    && cluster_first[other as usize] < cluster_first[c as usize])
            {
                saved[cluster_part[other as usize] as usize] += w;
            }
        }
        let mut best: Option<(u64, u64, u64, usize)> = None;
        for p in 0..k {
            if load[p] + size > cap && load.iter().any(|l| l + size <= cap) {
                continue;
            }
            // Lexicographic preference: most cut edges saved, then
            // lightest load, then seeded hash, then lowest index.
            let key = (
                u64::MAX - saved[p],
                load[p],
                fnv_mix(opts.seed, u64::from(c), p as u64),
                p,
            );
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let p = best.map_or(0, |b| b.3);
        cluster_part[c as usize] = p as u32;
        load[p] += size;
    }

    // Materialise the per-gate assignment and the cut set.
    let mut assignment = vec![REPLICATED; n_gates];
    let mut gate_counts = vec![0usize; k];
    for gi in 0..n_gates {
        if !is_const(gi as u32) {
            let p = cluster_part[cluster_of_gate[gi] as usize];
            assignment[gi] = p;
            gate_counts[p as usize] += 1;
        }
    }
    let mut cut = std::collections::BTreeSet::new();
    for (gi, g) in net.gates.iter().enumerate() {
        if is_const(gi as u32) {
            continue;
        }
        for w in &g.inputs {
            if let Some(d) = driver[w.index()] {
                if net.gates[d as usize].kind == GateKind::Dff
                    && assignment[d as usize] != assignment[gi]
                {
                    cut.insert(*w);
                }
            }
        }
    }
    PartitionPlan {
        partitions: k,
        assignment,
        cut_wires: cut.into_iter().collect(),
        gate_counts,
    }
}

/// One registered cut net: the owning sub-kernel's wire and every
/// remote mirror, plus the value as of the last exchange.
#[derive(Debug)]
struct CutChannel {
    src: (u32, WireId),
    dsts: Vec<(u32, WireId)>,
    last: bool,
}

/// Observability handles: `gate.evals` / `gate.events` flushed with the
/// flat-equivalent totals, partition-shape counters, and per-partition
/// settle spans.
struct PartObs {
    gate_evals: Counter,
    events: Counter,
    exchanged: Counter,
    flushed: GateSimStats,
    flushed_exchanged: u64,
    part_spans: Vec<Span>,
    exchange_span: Span,
}

/// K event-driven sub-kernels over one partitioned netlist, presenting
/// the [`GateSim`] API (flat wire ids throughout) with byte-identical
/// results at any K.
///
/// [`PartitionedGateSim::settle`] fans the sub-kernels out on the
/// `ocapi::sim::par` pool; [`PartitionedGateSim::clock`] samples every
/// flip-flop, exchanges changed registered cut values into their
/// mirrors, and settles.
pub struct PartitionedGateSim {
    net: Netlist,
    plan: PartitionPlan,
    kernels: Vec<Mutex<GateSim>>,
    /// Every sub-kernel instance of each flat wire (driver copies and
    /// mirrors), ascending partition index.
    targets: Vec<Vec<(u32, WireId)>>,
    cuts: Vec<CutChannel>,
    /// Cut-channel index by flat wire index, so direct pokes of a cut
    /// wire keep the channel's change detector coherent.
    cut_by_wire: BTreeMap<usize, usize>,
    /// Values of flat wires with no sub-kernel instance (unconsumed
    /// primary inputs), so reads and event accounting still match the
    /// flat kernel.
    shadow: BTreeMap<usize, bool>,
    /// Events sub-kernels counted that a flat kernel counts once
    /// (mirror copies of one logical change).
    dup_events: u64,
    /// Events a flat kernel counts that no sub-kernel saw (changes on
    /// unconsumed primary inputs).
    extra_events: u64,
    exchanged: u64,
    pool: ParConfig,
    obs: Option<PartObs>,
}

impl PartitionedGateSim {
    /// Partitions `net` and builds the sub-kernels (each settling its
    /// initial state).
    ///
    /// # Errors
    ///
    /// [`GateError::Oscillation`] when a sub-kernel's initial settle
    /// never quiesces.
    pub fn new(net: Netlist, opts: &PartitionOptions) -> Result<PartitionedGateSim, GateError> {
        let plan = partition_netlist(&net, opts);
        PartitionedGateSim::from_plan(net, plan, opts)
    }

    /// Builds the engine from an already-computed plan (the plan must
    /// come from [`partition_netlist`] on the same netlist).
    ///
    /// # Errors
    ///
    /// [`GateError::Oscillation`] when a sub-kernel's initial settle
    /// never quiesces.
    pub fn from_plan(
        net: Netlist,
        plan: PartitionPlan,
        opts: &PartitionOptions,
    ) -> Result<PartitionedGateSim, GateError> {
        let k = plan.partitions;
        let mut driver: Vec<Option<u32>> = vec![None; net.n_wires];
        for (gi, g) in net.gates.iter().enumerate() {
            driver[g.output.index()] = Some(gi as u32);
        }

        // Which partitions reference each wire (as input or output).
        let mut referenced: Vec<Vec<u32>> = vec![Vec::new(); net.n_wires];
        let reference = |w: WireId, p: u32, referenced: &mut Vec<Vec<u32>>| {
            let slot = &mut referenced[w.index()];
            if slot.last() != Some(&p) {
                // Per-wire partition lists stay sorted: gates are
                // visited per partition in ascending order below.
                if !slot.contains(&p) {
                    slot.push(p);
                }
            }
        };
        for (gi, g) in net.gates.iter().enumerate() {
            if plan.assignment[gi] == REPLICATED {
                continue;
            }
            let p = plan.assignment[gi];
            for w in &g.inputs {
                reference(*w, p, &mut referenced);
            }
            reference(g.output, p, &mut referenced);
        }
        for slot in &mut referenced {
            slot.sort_unstable();
        }
        // A constant goes wherever its output is consumed (partition 0
        // when consumed nowhere, so every driven wire has a home).
        let mut const_homes: Vec<Vec<u32>> = Vec::new();
        for (gi, g) in net.gates.iter().enumerate() {
            if plan.assignment[gi] == REPLICATED {
                let mut homes = referenced[g.output.index()].clone();
                if homes.is_empty() {
                    homes.push(0);
                }
                const_homes.push(homes.clone());
                for p in homes {
                    referenced[g.output.index()].push(p);
                }
                referenced[g.output.index()].sort_unstable();
                referenced[g.output.index()].dedup();
            } else {
                const_homes.push(Vec::new());
            }
        }

        // Emit sub-netlists in original gate order (preserves the
        // per-cluster evaluation order the determinism argument needs).
        let mut subs: Vec<Netlist> = (0..k).map(|_| Netlist::new()).collect();
        let mut labels: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut wmap: Vec<Vec<Option<WireId>>> = vec![vec![None; net.n_wires]; k];
        let mut locally_driven: Vec<Vec<bool>> = vec![vec![false; net.n_wires]; k];
        fn local(
            subs: &mut [Netlist],
            wmap: &mut [Vec<Option<WireId>>],
            p: usize,
            w: WireId,
        ) -> WireId {
            if let Some(lw) = wmap[p][w.index()] {
                lw
            } else {
                let lw = subs[p].wire();
                wmap[p][w.index()] = Some(lw);
                lw
            }
        }
        for (gi, g) in net.gates.iter().enumerate() {
            let homes: &[u32] = if plan.assignment[gi] == REPLICATED {
                &const_homes[gi]
            } else {
                std::slice::from_ref(&plan.assignment[gi])
            };
            for &p in homes {
                let p = p as usize;
                let inputs: Vec<WireId> = g
                    .inputs
                    .iter()
                    .map(|w| local(&mut subs, &mut wmap, p, *w))
                    .collect();
                let output = local(&mut subs, &mut wmap, p, g.output);
                subs[p].gates.push(Gate {
                    kind: g.kind,
                    inputs,
                    output,
                    init: g.init,
                });
                locally_driven[p][g.output.index()] = true;
                labels[p].push(gi as u32);
            }
        }

        // Mirror presets (remote flip-flop init values) per partition.
        let mut presets: Vec<Vec<(WireId, bool)>> = vec![Vec::new(); k];
        for w in 0..net.n_wires {
            for p in 0..k {
                if let Some(lw) = wmap[p][w] {
                    if locally_driven[p][w] {
                        continue;
                    }
                    if let Some(d) = driver[w] {
                        let dg = &net.gates[d as usize];
                        debug_assert_eq!(
                            dg.kind,
                            GateKind::Dff,
                            "only registered nets may cross a partition"
                        );
                        presets[p].push((lw, dg.init));
                    }
                }
            }
        }

        let kernels: Vec<Mutex<GateSim>> = subs
            .into_iter()
            .zip(presets)
            .zip(labels)
            .map(|((sub, preset), label)| {
                let mut kernel = GateSim::with_inputs(sub, &preset)?;
                kernel.set_gate_labels(label);
                Ok(Mutex::new(kernel))
            })
            .collect::<Result<_, GateError>>()?;

        // Flat-wire location table and cut channels.
        let mut targets: Vec<Vec<(u32, WireId)>> = vec![Vec::new(); net.n_wires];
        for (w, slot) in targets.iter_mut().enumerate() {
            for (p, map) in wmap.iter().enumerate() {
                if let Some(lw) = map[w] {
                    slot.push((p as u32, lw));
                }
            }
        }
        let mut cuts = Vec::new();
        let mut cut_by_wire = BTreeMap::new();
        for w in &plan.cut_wires {
            let d = match driver[w.index()] {
                Some(d) => d as usize,
                None => continue,
            };
            let sp = plan.assignment[d];
            let src_lw = match wmap[sp as usize][w.index()] {
                Some(lw) => lw,
                None => continue,
            };
            let dsts: Vec<(u32, WireId)> = targets[w.index()]
                .iter()
                .copied()
                .filter(|(p, _)| *p != sp)
                .collect();
            if dsts.is_empty() {
                continue;
            }
            cut_by_wire.insert(w.index(), cuts.len());
            cuts.push(CutChannel {
                src: (sp, src_lw),
                dsts,
                last: net.gates[d].init,
            });
        }

        let pool = ParConfig::new(opts.threads.min(k).max(1));
        Ok(PartitionedGateSim {
            net,
            plan,
            kernels,
            targets,
            cuts,
            cut_by_wire,
            shadow: BTreeMap::new(),
            dup_events: 0,
            extra_events: 0,
            exchanged: 0,
            pool,
            obs: None,
        })
    }

    /// The flat netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        &self.net
    }

    /// The partition plan in effect.
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// Number of partitions K.
    pub fn partitions(&self) -> usize {
        self.plan.partitions
    }

    /// Number of registered cut nets.
    pub fn cut_edges(&self) -> usize {
        self.plan.cut_wires.len()
    }

    /// Cut values actually exchanged so far (changed values only) — a
    /// deterministic function of the netlist and stimulus.
    pub fn exchanged(&self) -> u64 {
        self.exchanged
    }

    fn kernel(&self, p: u32) -> std::sync::MutexGuard<'_, GateSim> {
        self.kernels[p as usize]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Current value of a flat wire. Sub-kernel copies of one flat wire
    /// agree whenever the engine is quiescent (outside `clock`), so any
    /// copy answers.
    pub fn wire(&self, w: WireId) -> bool {
        match self.targets[w.index()].first() {
            Some((p, lw)) => self.kernel(*p).wire(*lw),
            None => self.shadow.get(&w.index()).copied().unwrap_or(false),
        }
    }

    /// Current value of a bus (LSB first, low 64 wires — the
    /// [`GateSim::bus`] window semantics).
    pub fn bus(&self, wires: &[WireId]) -> u64 {
        wires
            .iter()
            .take(64)
            .enumerate()
            .map(|(i, w)| (self.wire(*w) as u64) << i)
            .sum()
    }

    /// Drives a flat wire into every sub-kernel copy (takes effect at
    /// the next settle).
    pub fn set_wire(&mut self, w: WireId, value: bool) {
        if self.wire(w) == value {
            return;
        }
        let targets = &self.targets[w.index()];
        if targets.is_empty() {
            // A flat kernel still counts the change on an unconsumed
            // input; no sub-kernel will, so account for it here.
            self.shadow.insert(w.index(), value);
            self.extra_events += 1;
            return;
        }
        for (p, lw) in targets {
            self.kernels[*p as usize]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .set_wire(*lw, value);
        }
        // One logical change, `targets.len()` sub-kernel events.
        self.dup_events += (targets.len() - 1) as u64;
        if let Some(ci) = self.cut_by_wire.get(&w.index()) {
            self.cuts[*ci].last = value;
        }
    }

    /// Drives a bus from the low bits of `value` (LSB first; wires at
    /// index ≥ 64 drive `false` — the [`GateSim::set_bus`] semantics).
    pub fn set_bus(&mut self, wires: &[WireId], value: u64) {
        for (i, w) in wires.iter().enumerate() {
            let bit = i < 64 && (value >> i) & 1 == 1;
            self.set_wire(*w, bit);
        }
    }

    /// Settles every partition to quiescence on the worker pool.
    ///
    /// # Errors
    ///
    /// The lowest-indexed failing partition's error, for any thread
    /// count: [`GateError::Oscillation`] diagnostics name gates by
    /// their flat-netlist indices. A panicking worker is contained and
    /// reported as [`GateError::WorkerPanic`] with the partition index.
    pub fn settle(&mut self) -> Result<(), GateError> {
        let result = if self.kernels.len() == 1 {
            // Single partition: settle inline, no pool round-trip.
            let span = self.obs.as_ref().map(|o| o.part_spans[0].clone());
            let _t = span.as_ref().map(Span::timer);
            self.kernel(0).settle()
        } else {
            let spans: Option<&Vec<Span>> = self.obs.as_ref().map(|o| &o.part_spans);
            let kernels = &self.kernels;
            map_indexed(&self.pool, kernels, |i, slot| {
                let _t = spans.map(|s| s[i].timer());
                slot.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .settle()
            })
            .map(|_| ())
            .map_err(|e| match e {
                ParError::Task { error, .. } => error,
                ParError::Panic { index } => GateError::WorkerPanic { index },
            })
        };
        self.flush_obs();
        // Normalize oscillation diagnostics to flat-netlist terms: the
        // sub-kernel already reports flat gate indices (via its relabel
        // map), but its evaluation limit scales with the partition's
        // gate count. Rewrite it to the limit the single-core kernel
        // uses for the whole net, so the diagnostic is byte-identical
        // at every `--partitions` count.
        result.map_err(|e| match e {
            GateError::Oscillation { unstable, .. } => GateError::Oscillation {
                evals: crate::kernel::osc_limit(self.net.gates.len()),
                unstable,
            },
            other => other,
        })
    }

    /// One clock edge, byte-equivalent to [`GateSim::clock`]: every
    /// flip-flop in every partition samples simultaneously, changed
    /// registered cut values are exchanged into their mirrors, and the
    /// resulting events settle.
    ///
    /// # Errors
    ///
    /// Propagates settle failures (see [`PartitionedGateSim::settle`]).
    pub fn clock(&mut self) -> Result<(), GateError> {
        for slot in &self.kernels {
            slot.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .sample_dffs();
        }
        {
            let _t = self.obs.as_ref().map(|o| o.exchange_span.timer());
            for ci in 0..self.cuts.len() {
                let (sp, slw) = self.cuts[ci].src;
                let v = self.kernels[sp as usize]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .wire(slw);
                if v == self.cuts[ci].last {
                    continue;
                }
                self.cuts[ci].last = v;
                for di in 0..self.cuts[ci].dsts.len() {
                    let (p, lw) = self.cuts[ci].dsts[di];
                    self.kernels[p as usize]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .set_wire(lw, v);
                }
                // The flat kernel counted this change once, at the
                // flip-flop; every mirror copy is a duplicate.
                self.dup_events += self.cuts[ci].dsts.len() as u64;
                self.exchanged += 1;
            }
        }
        self.settle()
    }

    /// Activity counters, byte-identical to the flat [`GateSim`]'s for
    /// the same netlist and stimulus: sub-kernel totals with mirror
    /// duplicates removed and unconsumed-input events restored.
    pub fn stats(&self) -> GateSimStats {
        let mut s = GateSimStats::default();
        for slot in &self.kernels {
            let k = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s.gate_evals += k.stats().gate_evals;
            s.events += k.stats().events;
        }
        s.events = s.events - self.dup_events + self.extra_events;
        s
    }

    /// Starts reporting into `reg`: the flat-equivalent `gate.evals` /
    /// `gate.events` counters, the `gate.partition.*` shape counters
    /// (partition count, cut edges, largest/smallest partition), the
    /// deterministic `gate.partition.exchanged` counter, and timing
    /// spans `gatesim.partition` → `p0…p{K-1}` / `exchange`.
    pub fn attach_obs(&mut self, reg: &Registry) {
        reg.counter("gate.partition.count")
            .add(self.plan.partitions as u64);
        reg.counter("gate.partition.cut_edges")
            .add(self.plan.cut_wires.len() as u64);
        let (max, min) = self.plan.balance();
        reg.counter("gate.partition.gates_max").add(max as u64);
        reg.counter("gate.partition.gates_min").add(min as u64);
        let root = reg.span("gatesim.partition");
        self.obs = Some(PartObs {
            gate_evals: reg.counter("gate.evals"),
            events: reg.counter("gate.events"),
            exchanged: reg.counter("gate.partition.exchanged"),
            flushed: GateSimStats::default(),
            flushed_exchanged: 0,
            part_spans: (0..self.plan.partitions)
                .map(|p| root.child(&format!("p{p}")))
                .collect(),
            exchange_span: root.child("exchange"),
        });
        self.flush_obs();
    }

    fn flush_obs(&mut self) {
        let stats = self.stats();
        let exchanged = self.exchanged;
        if let Some(o) = &mut self.obs {
            o.gate_evals.add(stats.gate_evals - o.flushed.gate_evals);
            o.events.add(stats.events - o.flushed.events);
            o.exchanged.add(exchanged - o.flushed_exchanged);
            o.flushed = stats;
            o.flushed_exchanged = exchanged;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocapi_synth::bitops::ripple_add;

    /// A two-cluster netlist: an adder cluster feeding a registered
    /// pipeline boundary feeding an XOR-fold cluster.
    fn pipelined_net() -> Netlist {
        let mut net = Netlist::new();
        let a = net.input_bus("a", 8);
        let b = net.input_bus("b", 8);
        let cin = net.constant(false);
        let (sum, _) = ripple_add(&mut net, &a, &b, cin);
        let q: Vec<WireId> = sum.iter().map(|w| net.dff(*w, false)).collect();
        let mut fold = q[0];
        for w in &q[1..] {
            fold = net.gate(GateKind::Xor2, &[fold, *w]);
        }
        net.output_bus("parity", vec![fold]);
        net.output_bus("q", q);
        net
    }

    #[test]
    fn comb_cones_never_split_and_cuts_are_registered() {
        let net = pipelined_net();
        let plan = partition_netlist(&net, &PartitionOptions::new(2));
        let mut driver = vec![None; net.n_wires];
        for (gi, g) in net.gates.iter().enumerate() {
            driver[g.output.index()] = Some(gi);
        }
        for (gi, g) in net.gates.iter().enumerate() {
            if plan.assignment[gi] == u32::MAX {
                continue;
            }
            for w in &g.inputs {
                if let Some(d) = driver[w.index()] {
                    let dk = net.gates[d].kind;
                    if plan.assignment[d] != plan.assignment[gi] && plan.assignment[d] != u32::MAX {
                        assert_eq!(dk, GateKind::Dff, "cut net must be registered");
                    }
                }
            }
        }
        assert!(!plan.cut_wires.is_empty(), "pipeline boundary is cut");
    }

    #[test]
    fn partitioner_is_deterministic_and_seed_stable() {
        let net = pipelined_net();
        let a = partition_netlist(&net, &PartitionOptions::new(4).seed(7));
        let b = partition_netlist(&net, &PartitionOptions::new(4).seed(7));
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.cut_wires, b.cut_wires);
        assert_eq!(a.gate_counts, b.gate_counts);
    }

    #[test]
    fn partitioned_matches_flat_values_and_stats() {
        let net = pipelined_net();
        for k in [1usize, 2, 3, 4, 8] {
            let mut part = PartitionedGateSim::new(net.clone(), &PartitionOptions::new(k)).unwrap();
            let aw = net.input_by_name("a").unwrap().to_vec();
            let bw = net.input_by_name("b").unwrap().to_vec();
            let qw = net.output_by_name("q").unwrap().to_vec();
            let pw = net.output_by_name("parity").unwrap().to_vec();
            let mut flat = GateSim::new(net.clone()).unwrap();
            for step in 0..24u64 {
                let (x, y) = (step.wrapping_mul(37) & 0xff, step.wrapping_mul(91) & 0xff);
                flat.set_bus(&aw, x);
                flat.set_bus(&bw, y);
                part.set_bus(&aw, x);
                part.set_bus(&bw, y);
                flat.settle().unwrap();
                part.settle().unwrap();
                assert_eq!(flat.bus(&qw), part.bus(&qw), "k={k} step={step}");
                assert_eq!(flat.bus(&pw), part.bus(&pw), "k={k} step={step}");
                flat.clock().unwrap();
                part.clock().unwrap();
                assert_eq!(flat.bus(&qw), part.bus(&qw), "k={k} post-clock");
            }
            assert_eq!(flat.stats(), part.stats(), "k={k} stats");
        }
    }

    #[test]
    fn dff_init_values_cross_the_cut_at_construction() {
        // A DFF initialised to 1 whose Q feeds an inverter: wherever
        // the cut falls, the consumer sees the init value during the
        // *initial* settle, exactly as in the flat kernel.
        let mut net = Netlist::new();
        let d = net.input_bus("d", 1);
        let q = net.dff(d[0], true);
        let inv = net.gate(GateKind::Inv, &[q]);
        net.output_bus("y", vec![inv]);
        let flat = GateSim::new(net.clone()).unwrap();
        for k in [1usize, 2, 4] {
            let part = PartitionedGateSim::new(net.clone(), &PartitionOptions::new(k)).unwrap();
            let yw = net.output_by_name("y").unwrap().to_vec();
            assert_eq!(flat.bus(&yw), part.bus(&yw), "k={k}");
            assert_eq!(flat.stats(), part.stats(), "k={k}");
        }
    }
}
