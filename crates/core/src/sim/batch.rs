//! Lane-batched execution of the compiled micro-op tape.
//!
//! The compiled back-end exists to make the statistical workloads
//! tractable — the paper's environment runs "a BER simulation in
//! minutes" by regenerating an application-specific simulator. Its
//! Monte-Carlo consumers (BER sweeps, fault campaigns) run *many
//! independent instances of the same design*, so re-walking the
//! identical tape once per instance pays the full instruction-dispatch
//! cost N times for one design's worth of control flow.
//!
//! [`BatchedSim`] amortizes that cost: one `Program` (the monomorphised
//! tape of `sim::compiled`) is executed over N independent *lanes* in a
//! single pass. State is struct-of-arrays — every slot of the scalar
//! state vector becomes a lane-major stripe of N `u64`s — and each
//! micro-op is applied across all lanes in a tight inner loop, so the
//! tape walk (instruction decode, dispatch, operand indexing) is paid
//! once per cycle instead of once per instance.
//!
//! Lanes stay *independent*:
//!
//! * every lane has its own FSM states, SFG activation flags, register
//!   file and untimed-block state (one [`System`] per lane);
//! * control-flow divergence is handled per lane — transition selection
//!   and `Drive`/`Fire` resolution read the lane's own stripe;
//! * a per-lane error (a trace fault, a failed fault-injection poke)
//!   **masks the lane off** instead of aborting the batch: the lane's
//!   stripes freeze, its first error and cycle are recorded, and the
//!   remaining lanes keep running.
//!
//! Results are bit-identical to running N scalar [`CompiledSim`]s: the
//! `batch` integration suite asserts every output and every `peek_net`
//! value matches lane-for-lane at every optimization level.
//!
//! **Word-parallel fast path** (DESIGN.md §13): at build time the tape
//! is split into *segments*. Runs of ≥ `MIN_WORD_RUN` consecutive
//! micro-ops whose operands and destination are all `Bool` slots are
//! lowered to packed `u64` word operations — the Bool lanes are
//! *bitsliced* (lane `l` in bit `l % 64` of word `l / 64`), so one
//! `AND`/`OR`/`XOR`/`MUX` word op advances up to 64 lanes at once.
//! Bool comparisons lower to their bitwise identities (`==` → XNOR,
//! `<` → `!a & b`, …). Everything else — multi-bit `Bits` arithmetic,
//! fixed-point, float, `Drive`/`Fire` — runs on `sim::exec`, the one
//! micro-op executor [`CompiledSim`] shares (DESIGN.md §10), whose
//! all-alive instantiation streams 8-wide unrolled stripes. The word
//! path runs only while *no lane is masked*; as soon as any lane dies,
//! the whole tape runs on the executor's mask-guarded instantiation
//! instead, so masked-lane freezing semantics are unchanged and results
//! stay byte-identical either way.
//!
//! **Seeding contract** (composes with the `sim::par` sharding model,
//! DESIGN.md §7): batching never introduces randomness of its own. A
//! driver that batches work items over lanes must derive each item's
//! randomness from the item's *global index* (e.g.
//! [`XorShift64::stream`](crate::rng::XorShift64::stream) or an explicit
//! per-item seed), exactly as the scalar path does — then lanes × threads
//! is pure geometry and every classification and BER total is
//! byte-identical for any `--lanes`/`--threads` combination.
//!
//! [`CompiledSim`]: crate::CompiledSim

use crate::sim::budget::Budget;
use crate::sim::compiled::{build_program, decode, encode, make_trace, Cmp, Micro, Program};
use crate::sim::exec::{self, All, Live, State};
use crate::sim::obs::BatchObs;
use crate::sim::opt::{OptLevel, OptStats};
use crate::sim::snapshot::SimSnapshot;
use crate::sim::Simulator;
use crate::system::System;
use crate::trace::Trace;
use crate::value::{SigType, Value};
use crate::CoreError;

/// The lane-batched tape executor. See the [module docs](self).
///
/// Construct with [`BatchedSim::new`] / [`BatchedSim::new_with`] from one
/// structurally identical [`System`] per lane (the systems carry the
/// per-lane untimed-block state), or with [`BatchedSim::from_fn`] from a
/// builder closure. Drive either through the lane-addressed methods
/// (`set_input_lane`, `output_lane`, …) or through the [`Simulator`]
/// trait, which *broadcasts* writes to every live lane and reads lane 0 —
/// a 1-lane batch behaves exactly like a scalar [`CompiledSim`].
///
/// [`CompiledSim`]: crate::CompiledSim
pub struct BatchedSim {
    /// One system per lane; `systems[0]` is the one the tape was
    /// compiled from, every lane's untimed blocks live in its own copy.
    systems: Vec<System>,
    prog: Program,
    lanes: usize,
    /// Lane-major stripes of every lane's state.
    st: State,
    /// Lane-active mask: `false` = masked off by a per-lane error.
    alive: Vec<bool>,
    /// First error per masked lane: (cycle before the failing step, error).
    errors: Vec<Option<(u64, CoreError)>>,
    cycle: u64,
    traces: Option<Vec<Trace>>,
    obs: Option<BatchObs>,
    budget: Budget,
    design_hash: u64,
    /// Build-time bitslicing plan over both tapes (see module docs).
    plan: WordPlan,
    /// Packed scratch: the widest block's `locals` × `ceil(lanes/64)`.
    word_scratch: Vec<u64>,
}

impl std::fmt::Debug for BatchedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedSim")
            .field("system", &self.systems[0].name)
            .field("lanes", &self.lanes)
            .field("tape_len", &self.prog.tape.len())
            .finish()
    }
}

/// Validates a lane set: non-empty and structurally identical to lane 0.
fn check_lanes(systems: &[System]) -> Result<(), CoreError> {
    if systems.is_empty() {
        return Err(CoreError::CheckFailed {
            diagnostics: vec!["a batched simulator needs at least one lane".to_owned()],
        });
    }
    let diags: Vec<String> = systems
        .iter()
        .enumerate()
        .skip(1)
        .filter_map(|(l, s)| shape_diff(&systems[0], s, l))
        .collect();
    if !diags.is_empty() {
        return Err(CoreError::CheckFailed { diagnostics: diags });
    }
    Ok(())
}

/// One structural difference between two lane systems, rendered.
fn shape_diff(a: &System, b: &System, lane: usize) -> Option<String> {
    if a.name != b.name {
        return Some(format!("lane {lane}: system `{}` != `{}`", b.name, a.name));
    }
    if a.timed.len() != b.timed.len()
        || a.untimed.len() != b.untimed.len()
        || a.nets.len() != b.nets.len()
        || a.primary_inputs.len() != b.primary_inputs.len()
        || a.primary_outputs.len() != b.primary_outputs.len()
    {
        return Some(format!("lane {lane}: element counts differ from lane 0"));
    }
    for (x, y) in a.timed.iter().zip(&b.timed) {
        if x.name != y.name
            || x.comp.name != y.comp.name
            || x.comp.nodes.len() != y.comp.nodes.len()
            || x.comp.sfgs.len() != y.comp.sfgs.len()
            || x.comp.regs.len() != y.comp.regs.len()
        {
            return Some(format!(
                "lane {lane}: timed instance `{}` differs from lane 0",
                y.name
            ));
        }
    }
    for (i, (x, y)) in a.nets.iter().zip(&b.nets).enumerate() {
        if x.name != y.name || x.ty != y.ty {
            return Some(format!(
                "lane {lane}: net {i} (`{}`) differs from lane 0",
                y.name
            ));
        }
    }
    for (x, y) in a.untimed.iter().zip(&b.untimed) {
        if x.block.name() != y.block.name() {
            return Some(format!(
                "lane {lane}: untimed block `{}` differs from lane 0",
                y.block.name()
            ));
        }
    }
    None
}

/// Minimum run of consecutive word-eligible micro-ops worth bitslicing:
/// below this the gather/scatter transposition costs more than the
/// scalar lane loop it replaces.
const MIN_WORD_RUN: usize = 4;

/// A packed word operation over block-local scratch stripes.
///
/// Operands are *local* stripe indices interned at plan time; every
/// stripe is `ceil(lanes/64)` words holding one Bool slot bitsliced
/// across the lane dimension (lane `l` lives in bit `l % 64` of word
/// `l / 64`). Bits beyond the last lane in the tail word are garbage
/// after `Not`/`Xnor`/`OrN` — harmless, because scatter only extracts
/// lane bits and every op is bitwise (bit `k` of the result depends
/// only on bit `k` of the operands).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WordOp {
    /// `d = a & b`
    And { d: u32, a: u32, b: u32 },
    /// `d = a | b`
    Or { d: u32, a: u32, b: u32 },
    /// `d = a ^ b` — also Bool `!=`.
    Xor { d: u32, a: u32, b: u32 },
    /// `d = !(a ^ b)` — Bool `==`.
    Xnor { d: u32, a: u32, b: u32 },
    /// `d = !a & b` — Bool `<` (and `>` with swapped operands).
    AndN { d: u32, a: u32, b: u32 },
    /// `d = !a | b` — Bool `<=` (and `>=` with swapped operands).
    OrN { d: u32, a: u32, b: u32 },
    /// `d = !a`
    Not { d: u32, a: u32 },
    /// `d = a`
    Copy { d: u32, a: u32 },
    /// `d = (c & t) | (!c & e)` — lanewise select.
    Mux { d: u32, c: u32, t: u32, e: u32 },
}

/// One bitsliced run of a tape.
#[derive(Debug, Clone)]
struct WordBlock {
    /// The instruction range `instrs[start..end]` this block replaces —
    /// the masked-lane fallback re-runs exactly these scalar micro-ops.
    start: usize,
    end: usize,
    /// `(slot, local)`: stripes packed from the slot vector up front
    /// (slots read before any in-block write).
    gather: Vec<(u32, u32)>,
    /// `(slot, local)`: stripes unpacked back into the slot vector
    /// afterwards (every slot the block writes).
    scatter: Vec<(u32, u32)>,
    ops: Vec<WordOp>,
    /// Scratch stripes the block needs.
    locals: u32,
}

/// One region of a planned tape: a scalar instruction range, or an
/// index into [`WordPlan::blocks`].
#[derive(Debug, Clone, Copy)]
enum Segment {
    Scalar { start: usize, end: usize },
    Word(u32),
}

/// Build-time plan splitting both tapes into scalar and word segments.
#[derive(Debug, Clone, Default)]
struct WordPlan {
    pre: Vec<Segment>,
    tape: Vec<Segment>,
    blocks: Vec<WordBlock>,
}

/// The word lowering of one micro-op — with *global* slot operands —
/// when every operand and the destination is a `Bool` slot (always
/// stored 0/1) and the op has a lanewise bitwise identity. Multi-bit
/// `Bits`, fixed-point and float ops return `None`: their lanes carry
/// full words that do not bitslice (DESIGN.md §13).
fn word_op(m: &Micro, ty: &[SigType]) -> Option<WordOp> {
    let is_bool = |s: &u32| matches!(ty.get(*s as usize), Some(SigType::Bool));
    match m {
        Micro::AndU { dst, a, b } if is_bool(dst) && is_bool(a) && is_bool(b) => {
            Some(WordOp::And {
                d: *dst,
                a: *a,
                b: *b,
            })
        }
        Micro::OrU { dst, a, b } if is_bool(dst) && is_bool(a) && is_bool(b) => Some(WordOp::Or {
            d: *dst,
            a: *a,
            b: *b,
        }),
        Micro::XorU { dst, a, b } if is_bool(dst) && is_bool(a) && is_bool(b) => {
            Some(WordOp::Xor {
                d: *dst,
                a: *a,
                b: *b,
            })
        }
        Micro::NotU { dst, a, mask } if *mask == 1 && is_bool(dst) && is_bool(a) => {
            Some(WordOp::Not { d: *dst, a: *a })
        }
        Micro::Copy { dst, src } if is_bool(dst) && is_bool(src) => {
            Some(WordOp::Copy { d: *dst, a: *src })
        }
        // A Bool slot already holds 0/1, so `!= 0` and `& 1` are the
        // identity on the packed bit.
        Micro::NonZero { dst, a } if is_bool(dst) && is_bool(a) => {
            Some(WordOp::Copy { d: *dst, a: *a })
        }
        Micro::MaskTo { dst, a, mask } if *mask == 1 && is_bool(dst) && is_bool(a) => {
            Some(WordOp::Copy { d: *dst, a: *a })
        }
        Micro::SelectU { dst, c, t, e }
            if is_bool(dst) && is_bool(c) && is_bool(t) && is_bool(e) =>
        {
            Some(WordOp::Mux {
                d: *dst,
                c: *c,
                t: *t,
                e: *e,
            })
        }
        Micro::CmpU { dst, a, b, kind } if is_bool(dst) && is_bool(a) && is_bool(b) => {
            let (d, a, b) = (*dst, *a, *b);
            Some(match kind {
                Cmp::Eq => WordOp::Xnor { d, a, b },
                Cmp::Ne => WordOp::Xor { d, a, b },
                Cmp::Lt => WordOp::AndN { d, a, b },
                Cmp::Gt => WordOp::AndN { d, a: b, b: a },
                Cmp::Le => WordOp::OrN { d, a, b },
                Cmp::Ge => WordOp::OrN { d, a: b, b: a },
            })
        }
        _ => None,
    }
}

/// The slot read-set (up to three slots) and destination of one pure
/// micro-op, or `None` for ops with non-slot effects — [`Micro::Drive`]
/// resolves nets against instance activity and [`Micro::Fire`] advances
/// untimed-block state — which act as scheduling barriers nothing may
/// move across. `RegRead` is pure within a tape pass: registers only
/// change at the end of [`BatchedSim::step`], never mid-tape.
fn micro_rw(m: &Micro) -> Option<([u32; 3], usize, u32)> {
    use Micro as M;
    Some(match m {
        M::Copy { dst, src } => ([*src, 0, 0], 1, *dst),
        M::RegRead { dst, .. } => ([0; 3], 0, *dst),
        M::AddB { dst, a, b, .. }
        | M::SubB { dst, a, b, .. }
        | M::MulB { dst, a, b, .. }
        | M::AndU { dst, a, b }
        | M::OrU { dst, a, b }
        | M::XorU { dst, a, b }
        | M::CmpU { dst, a, b, .. }
        | M::AddF { dst, a, b, .. }
        | M::SubF { dst, a, b, .. }
        | M::MulF { dst, a, b }
        | M::CmpF { dst, a, b, .. }
        | M::AddFl { dst, a, b }
        | M::SubFl { dst, a, b }
        | M::MulFl { dst, a, b }
        | M::CmpFl { dst, a, b, .. } => ([*a, *b, 0], 2, *dst),
        M::NotU { dst, a, .. }
        | M::NegB { dst, a, .. }
        | M::ShlB { dst, a, .. }
        | M::ShrB { dst, a, .. }
        | M::ShrMask { dst, a, .. }
        | M::NegF { dst, a }
        | M::CastF { dst, a, .. }
        | M::FloatToFix { dst, a, .. }
        | M::NegFl { dst, a }
        | M::MaskTo { dst, a, .. }
        | M::NonZero { dst, a }
        | M::NonZeroFloat { dst, a }
        | M::ToFloatBits { dst, a }
        | M::ToFloatFix { dst, a, .. } => ([*a, 0, 0], 1, *dst),
        M::SelectU { dst, c, t, e } => ([*c, *t, *e], 3, *dst),
        M::Drive { .. } | M::Fire { .. } => return None,
    })
}

/// Whether swapping adjacent ops `(prev, op)` changes the computation:
/// true when `op` reads what `prev` writes, writes what `prev` reads,
/// or both write the same slot.
fn rw_conflict(r: &[u32], d: u32, pr: &[u32], pd: u32) -> bool {
    d == pd || pr.contains(&d) || r.contains(&pd)
}

/// Clusters word-eligible ops into contiguous runs by hoisting each one
/// leftwards past independent scalar ops until it joins the previous
/// eligible op (or hits a dependency or a barrier). Compiled tapes emit
/// in dependency order, which interleaves the sparse Bool ops with the
/// Bits/fixed-point work between them — on the DECT transceiver every
/// eligible op sits in a run of length one, so without this pass the
/// planner never reaches [`MIN_WORD_RUN`]. Each hoist is a chain of
/// adjacent swaps, each individually checked side-effect-free, so the
/// reordered tape computes exactly what the original did; relative
/// order *within* the eligible ops and *within* the scalar ops is
/// preserved. Runs after the design hash is taken, so snapshots stay
/// compatible with the unscheduled program.
fn schedule_word_runs(tape: &mut Vec<Micro>, ty: &[SigType]) {
    let mut out: Vec<Micro> = Vec::with_capacity(tape.len());
    for m in tape.drain(..) {
        if word_op(&m, ty).is_some() {
            if let Some((r, rn, d)) = micro_rw(&m) {
                let r = &r[..rn];
                let mut pos = out.len();
                while pos > 0 {
                    let prev = &out[pos - 1];
                    if word_op(prev, ty).is_some() {
                        break;
                    }
                    match micro_rw(prev) {
                        Some((pr, prn, pd)) if !rw_conflict(r, d, &pr[..prn], pd) => pos -= 1,
                        _ => break,
                    }
                }
                out.insert(pos, m);
                continue;
            }
        }
        out.push(m);
    }
    *tape = out;
}

/// Interns global slots to block-local stripe indices while recording
/// which stripes must be gathered (read before any in-block write) and
/// scattered (written at all). Linear scans: blocks are short tape runs.
#[derive(Default)]
struct Interner {
    map: Vec<(u32, u32)>,
    gather: Vec<(u32, u32)>,
    scatter: Vec<(u32, u32)>,
}

impl Interner {
    fn local(&mut self, g: u32) -> (u32, bool) {
        if let Some((_, l)) = self.map.iter().find(|(gg, _)| *gg == g) {
            (*l, false)
        } else {
            let l = self.map.len() as u32;
            self.map.push((g, l));
            (l, true)
        }
    }

    /// A slot read by an op. First-touch-as-source means the value must
    /// come from the slot vector — record a gather.
    fn src(&mut self, g: u32) -> u32 {
        let (l, fresh) = self.local(g);
        if fresh {
            self.gather.push((g, l));
        }
        l
    }

    /// A slot written by an op: scattered back once, at first write.
    fn dst(&mut self, g: u32) -> u32 {
        let (l, _) = self.local(g);
        if !self.scatter.iter().any(|(gg, _)| *gg == g) {
            self.scatter.push((g, l));
        }
        l
    }
}

/// Finalizes one run of word ops into a [`WordBlock`]: sources are
/// interned before destinations per op, so an op that reads and writes
/// the same slot still gathers the pre-op value.
fn build_word_block(start: usize, end: usize, ops: &[WordOp]) -> WordBlock {
    let mut it = Interner::default();
    let ops = ops
        .iter()
        .map(|op| match *op {
            WordOp::And { d, a, b } => {
                let (a, b) = (it.src(a), it.src(b));
                WordOp::And { d: it.dst(d), a, b }
            }
            WordOp::Or { d, a, b } => {
                let (a, b) = (it.src(a), it.src(b));
                WordOp::Or { d: it.dst(d), a, b }
            }
            WordOp::Xor { d, a, b } => {
                let (a, b) = (it.src(a), it.src(b));
                WordOp::Xor { d: it.dst(d), a, b }
            }
            WordOp::Xnor { d, a, b } => {
                let (a, b) = (it.src(a), it.src(b));
                WordOp::Xnor { d: it.dst(d), a, b }
            }
            WordOp::AndN { d, a, b } => {
                let (a, b) = (it.src(a), it.src(b));
                WordOp::AndN { d: it.dst(d), a, b }
            }
            WordOp::OrN { d, a, b } => {
                let (a, b) = (it.src(a), it.src(b));
                WordOp::OrN { d: it.dst(d), a, b }
            }
            WordOp::Not { d, a } => {
                let a = it.src(a);
                WordOp::Not { d: it.dst(d), a }
            }
            WordOp::Copy { d, a } => {
                let a = it.src(a);
                WordOp::Copy { d: it.dst(d), a }
            }
            WordOp::Mux { d, c, t, e } => {
                let (c, t, e) = (it.src(c), it.src(t), it.src(e));
                WordOp::Mux {
                    d: it.dst(d),
                    c,
                    t,
                    e,
                }
            }
        })
        .collect();
    WordBlock {
        start,
        end,
        gather: it.gather,
        scatter: it.scatter,
        ops,
        locals: it.map.len() as u32,
    }
}

/// Splits one tape into scalar segments and word blocks: maximal runs
/// of word-eligible micro-ops of length ≥ [`MIN_WORD_RUN`] become
/// blocks, everything else stays scalar.
fn plan_tape(instrs: &[Micro], ty: &[SigType], blocks: &mut Vec<WordBlock>) -> Vec<Segment> {
    let mut segs = Vec::new();
    let mut scalar_start = 0usize;
    let mut i = 0usize;
    while i < instrs.len() {
        let mut ops = Vec::new();
        let mut j = i;
        while j < instrs.len() {
            match word_op(&instrs[j], ty) {
                Some(op) => {
                    ops.push(op);
                    j += 1;
                }
                None => break,
            }
        }
        if ops.len() >= MIN_WORD_RUN {
            if scalar_start < i {
                segs.push(Segment::Scalar {
                    start: scalar_start,
                    end: i,
                });
            }
            blocks.push(build_word_block(i, j, &ops));
            segs.push(Segment::Word((blocks.len() - 1) as u32));
            scalar_start = j;
        }
        // `instrs[j]` is ineligible (or past the end): the next run can
        // only start after it.
        i = j + 1;
    }
    if scalar_start < instrs.len() {
        segs.push(Segment::Scalar {
            start: scalar_start,
            end: instrs.len(),
        });
    }
    segs
}

fn build_word_plan(prog: &Program) -> WordPlan {
    let mut blocks = Vec::new();
    let pre = plan_tape(&prog.pre_tape, &prog.slot_ty, &mut blocks);
    let tape = plan_tape(&prog.tape, &prog.slot_ty, &mut blocks);
    WordPlan { pre, tape, blocks }
}

/// Executes one bitsliced block over the full (all-alive) batch:
/// transposes the gathered Bool stripes into packed words, runs the
/// word ops, transposes the written stripes back out. Returns the
/// number of packed word operations performed.
fn exec_word_block(blk: &WordBlock, s: &mut [u64], scratch: &mut [u64], lanes: usize) -> u64 {
    let words = lanes.div_ceil(64);
    for (slot, local) in &blk.gather {
        let base = *slot as usize * lanes;
        let out = *local as usize * words;
        for w in 0..words {
            let l0 = w * 64;
            let n = (lanes - l0).min(64);
            let mut packed = 0u64;
            for k in 0..n {
                packed |= (s[base + l0 + k] & 1) << k;
            }
            scratch[out + w] = packed;
        }
    }
    // `wloop!(d, |w| ..)` — one packed op across the stripe's words.
    macro_rules! wloop {
        ($d:expr, |$w:ident| $val:expr) => {{
            let d = *$d as usize * words;
            for $w in 0..words {
                scratch[d + $w] = $val;
            }
        }};
    }
    macro_rules! rd {
        ($x:expr, $w:ident) => {
            scratch[*$x as usize * words + $w]
        };
    }
    for op in &blk.ops {
        match op {
            WordOp::And { d, a, b } => wloop!(d, |w| rd!(a, w) & rd!(b, w)),
            WordOp::Or { d, a, b } => wloop!(d, |w| rd!(a, w) | rd!(b, w)),
            WordOp::Xor { d, a, b } => wloop!(d, |w| rd!(a, w) ^ rd!(b, w)),
            WordOp::Xnor { d, a, b } => wloop!(d, |w| !(rd!(a, w) ^ rd!(b, w))),
            WordOp::AndN { d, a, b } => wloop!(d, |w| !rd!(a, w) & rd!(b, w)),
            WordOp::OrN { d, a, b } => wloop!(d, |w| !rd!(a, w) | rd!(b, w)),
            WordOp::Not { d, a } => wloop!(d, |w| !rd!(a, w)),
            WordOp::Copy { d, a } => wloop!(d, |w| rd!(a, w)),
            WordOp::Mux { d, c, t, e } => {
                wloop!(d, |w| (rd!(c, w) & rd!(t, w)) | (!rd!(c, w) & rd!(e, w)));
            }
        }
    }
    for (slot, local) in &blk.scatter {
        let base = *slot as usize * lanes;
        let src = *local as usize * words;
        for w in 0..words {
            let l0 = w * 64;
            let n = (lanes - l0).min(64);
            let packed = scratch[src + w];
            for k in 0..n {
                s[base + l0 + k] = (packed >> k) & 1;
            }
        }
    }
    blk.ops.len() as u64 * words as u64
}

impl BatchedSim {
    /// Compiles `systems[0]` and runs all lanes through its tape at the
    /// default optimization level. One lane per system.
    ///
    /// # Errors
    ///
    /// As [`BatchedSim::new_with`].
    pub fn new(systems: Vec<System>) -> Result<BatchedSim, CoreError> {
        BatchedSim::new_with(systems, OptLevel::default())
    }

    /// [`BatchedSim::new`] with an explicit tape-optimization level.
    ///
    /// All systems must be structurally identical (same components,
    /// nets, ports — e.g. built by the same closure); each lane keeps
    /// its own system for per-lane untimed-block state.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CheckFailed`] when `systems` is empty or the
    /// lanes are not structurally identical, and
    /// [`CoreError::NotCompilable`] when the design has no static
    /// single-pass schedule.
    pub fn new_with(systems: Vec<System>, level: OptLevel) -> Result<BatchedSim, CoreError> {
        check_lanes(&systems)?;
        let prog = build_program(&systems[0], level)?;
        let design_hash = crate::sim::snapshot::hash_program(&systems[0], &prog);
        BatchedSim::from_parts(systems, prog, design_hash)
    }

    /// Instantiates a batch from a cached
    /// [`CompiledTape`](crate::CompiledTape) without recompiling: the
    /// levelized program is reused (the word-run clustering below still
    /// runs on this batch's private copy) and only the lane-striped
    /// mutable state is built fresh. Behaviour and
    /// [`BatchedSim::design_hash`] are identical to compiling
    /// `systems[0]` at the tape's level — the warm path of the
    /// simulation service's tape cache.
    ///
    /// # Errors
    ///
    /// As [`BatchedSim::new_with`], plus [`CoreError::TapeMismatch`]
    /// when `systems[0]` is not structurally the system the tape was
    /// compiled from.
    pub fn from_tape(
        systems: Vec<System>,
        tape: &crate::sim::hash::CompiledTape,
    ) -> Result<BatchedSim, CoreError> {
        check_lanes(&systems)?;
        tape.check_system(&systems[0])?;
        BatchedSim::from_parts(systems, (*tape.prog).clone(), tape.program_hash())
    }

    /// Assembles a batch around an already-built program.
    fn from_parts(
        systems: Vec<System>,
        mut prog: Program,
        design_hash: u64,
    ) -> Result<BatchedSim, CoreError> {
        // Cluster word-eligible ops before planning (and after hashing,
        // so the reorder never shows in snapshot compatibility). The
        // reordered tape is the one both the word path and the scalar
        // fallback execute.
        let slot_ty = prog.slot_ty.clone();
        schedule_word_runs(&mut prog.pre_tape, &slot_ty);
        schedule_word_runs(&mut prog.tape, &slot_ty);
        let lanes = systems.len();
        let plan = build_word_plan(&prog);
        let scratch_len = plan
            .blocks
            .iter()
            .map(|b| b.locals as usize)
            .max()
            .unwrap_or(0)
            * lanes.div_ceil(64);

        Ok(BatchedSim {
            st: State::new(&prog, &systems[0], lanes),
            prog,
            lanes,
            alive: vec![true; lanes],
            errors: vec![None; lanes],
            cycle: 0,
            traces: None,
            obs: None,
            budget: Budget::none(),
            design_hash,
            plan,
            word_scratch: vec![0; scratch_len],
            systems,
        })
    }

    /// Attaches watchdog limits ([`Budget`]) to the whole batch:
    /// subsequent steps fail with [`CoreError::BudgetExceeded`] —
    /// a batch-wide error, not a lane masking — instead of running
    /// past them.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The design hash keying this batch's lane snapshots — identical
    /// to [`crate::CompiledSim::design_hash`] for the same system and
    /// optimization level, so lane snapshots and scalar compiled
    /// snapshots are interchangeable.
    pub fn design_hash(&self) -> u64 {
        self.design_hash
    }

    /// Captures the complete state of one (live) lane as a
    /// [`SimSnapshot`] — the same shape a [`crate::CompiledSim`] of
    /// this system produces. Lanes step in lock-step, so the snapshot
    /// carries the batch-wide cycle count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an out-of-range lane and
    /// the lane's own recorded error when it has been masked off.
    pub fn snapshot_lane(&self, lane: usize) -> Result<SimSnapshot, CoreError> {
        self.check_lane(lane)?;
        if let Some((_, e)) = self.lane_error(lane) {
            return Err(e.clone());
        }
        Ok(self
            .st
            .snapshot(lane, &self.systems[lane], self.design_hash, self.cycle))
    }

    /// Restores one lane from a snapshot taken by
    /// [`BatchedSim::snapshot_lane`] or [`crate::CompiledSim::snapshot`]
    /// on the same build. The lane is revived if it was masked, and the
    /// batch-wide cycle counter is set to the snapshot's cycle — lanes
    /// step in lock-step, so restore every lane from snapshots of the
    /// same cycle.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownName`] for an out-of-range lane,
    /// [`CoreError::SnapshotMismatch`] for a snapshot of a different
    /// design or optimization level, and [`CoreError::SnapshotFormat`]
    /// for damaged sections.
    pub fn restore_lane(&mut self, lane: usize, snap: &SimSnapshot) -> Result<(), CoreError> {
        self.check_lane(lane)?;
        self.st.restore(
            lane,
            snap,
            self.design_hash,
            &self.prog,
            &mut self.systems[lane],
        )?;
        self.alive[lane] = true;
        self.errors[lane] = None;
        self.cycle = snap.cycle();
        Ok(())
    }

    /// Builds `lanes` systems with `make_sys` and batches them.
    ///
    /// # Errors
    ///
    /// Propagates `make_sys` errors, plus everything
    /// [`BatchedSim::new_with`] reports.
    pub fn from_fn(
        lanes: usize,
        mut make_sys: impl FnMut() -> Result<System, CoreError>,
        level: OptLevel,
    ) -> Result<BatchedSim, CoreError> {
        let mut systems = Vec::with_capacity(lanes);
        for _ in 0..lanes.max(1) {
            systems.push(make_sys()?);
        }
        BatchedSim::new_with(systems, level)
    }

    /// Number of lanes (live and masked).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Whether `lane` is still live (not masked off by an error).
    pub fn alive(&self, lane: usize) -> bool {
        self.alive.get(lane).copied().unwrap_or(false)
    }

    /// Number of lanes masked off so far.
    pub fn masked_lanes(&self) -> usize {
        self.alive.iter().filter(|a| !**a).count()
    }

    /// The first error of a masked lane, with the cycle (as counted
    /// before the failing step) at which it surfaced. `None` while the
    /// lane is live.
    pub fn lane_error(&self, lane: usize) -> Option<&(u64, CoreError)> {
        self.errors.get(lane).and_then(|e| e.as_ref())
    }

    /// Masks `lane` off with `error`, recorded at the current cycle.
    /// This is the masking entry point for batch drivers: a failed
    /// per-lane poke (fault injection) masks that lane instead of
    /// poisoning the batch. Masking a dead or out-of-range lane is a
    /// no-op (the first error wins).
    pub fn fail_lane(&mut self, lane: usize, error: CoreError) {
        let cycle = self.cycle;
        self.mask_lane(lane, cycle, error);
    }

    fn mask_lane(&mut self, lane: usize, cycle: u64, error: CoreError) {
        if lane < self.lanes && self.alive[lane] {
            self.alive[lane] = false;
            self.errors[lane] = Some((cycle, error));
            if let Some(o) = &self.obs {
                o.masked_lanes.incr();
            }
        }
    }

    /// The lane-0 system (the one the tape was compiled from).
    pub fn system(&self) -> &System {
        &self.systems[0]
    }

    /// Instructions executed per batched cycle (tape + guard pre-tape);
    /// each is applied to every live lane.
    pub fn tape_len(&self) -> usize {
        self.prog.tape.len() + self.prog.pre_tape.len()
    }

    /// What the tape optimizer did at build time.
    pub fn opt_stats(&self) -> OptStats {
        self.prog.opt_stats
    }

    /// Number of bitsliced word blocks the build-time planner carved
    /// out of the two tapes (0 when no run of Bool micro-ops reached
    /// the minimum length).
    pub fn word_blocks(&self) -> usize {
        self.plan.blocks.len()
    }

    /// Scalar micro-ops the word blocks replace per all-alive tape
    /// pass — the planner's coverage, for tests and perf reporting.
    pub fn word_tape_coverage(&self) -> usize {
        self.plan.blocks.iter().map(|b| b.end - b.start).sum()
    }

    /// Planner diagnostics: `(eligible, total)` micro-ops across both
    /// tapes plus a histogram of contiguous eligible-run lengths (index
    /// = run length, value = count). Shows how much Bool logic the tape
    /// holds and how fragmented it is — a large eligible count with all
    /// runs shorter than `MIN_WORD_RUN` means the scheduler (not the
    /// classifier) is what limits word coverage.
    pub fn word_eligibility(&self) -> (usize, usize, Vec<usize>) {
        let mut eligible = 0usize;
        let mut total = 0usize;
        let mut hist: Vec<usize> = Vec::new();
        for tape in [&self.prog.pre_tape, &self.prog.tape] {
            let mut run = 0usize;
            for m in tape.iter() {
                total += 1;
                if word_op(m, &self.prog.slot_ty).is_some() {
                    eligible += 1;
                    run += 1;
                } else if run > 0 {
                    if hist.len() <= run {
                        hist.resize(run + 1, 0);
                    }
                    hist[run] += 1;
                    run = 0;
                }
            }
            if run > 0 {
                if hist.len() <= run {
                    hist.resize(run + 1, 0);
                }
                hist[run] += 1;
            }
        }
        (eligible, total, hist)
    }

    /// Attaches the batch observability bundle: flushes the
    /// (deterministic) `batch.lanes` counter once, then every batched
    /// step bumps `batch.tape_passes`, every masking event bumps
    /// `batch.masked_lanes`, and the per-phase spans time the shared
    /// tape walk.
    pub fn attach_obs(&mut self, obs: BatchObs) {
        obs.lanes.add(self.lanes as u64);
        self.obs = Some(obs);
    }

    /// Sets a primary input of one lane for the coming cycle(s). Writes
    /// to masked lanes are ignored (their state is frozen).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown input or lane
    /// and [`CoreError::ValueType`] for a type mismatch.
    pub fn set_input_lane(
        &mut self,
        lane: usize,
        name: &str,
        value: Value,
    ) -> Result<(), CoreError> {
        let slot = self.input_slot(name, &value)?;
        self.check_lane(lane)?;
        if self.alive[lane] {
            self.st.slots[slot * self.lanes + lane] = encode(&value);
        }
        Ok(())
    }

    /// Reads a primary output of one lane (the value driven in the last
    /// completed cycle; frozen for masked lanes).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown output or lane.
    pub fn output_lane(&self, lane: usize, name: &str) -> Result<Value, CoreError> {
        self.check_lane(lane)?;
        let sys = &self.systems[0];
        sys.primary_outputs
            .iter()
            .find(|p| p.name == name)
            .map(|p| self.read_net_slot(p.net, lane))
            .ok_or_else(|| CoreError::UnknownName {
                kind: "primary output",
                name: name.to_owned(),
            })
    }

    /// Observes the current value on a named net of one lane.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown net or lane.
    pub fn peek_net_lane(&self, lane: usize, name: &str) -> Result<Value, CoreError> {
        self.check_lane(lane)?;
        let i = self.net_index(name)?;
        Ok(self.read_net_slot(i, lane))
    }

    /// Overwrites the value held on a named net of one lane — the
    /// per-lane fault-injection primitive. Writes to masked lanes are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown net or lane and
    /// [`CoreError::ValueType`] for a type mismatch.
    pub fn poke_net_lane(
        &mut self,
        lane: usize,
        name: &str,
        value: Value,
    ) -> Result<(), CoreError> {
        self.check_lane(lane)?;
        let i = self.net_index(name)?;
        value.check_type_with(self.systems[0].nets[i].ty, || format!("net `{name}`"))?;
        if self.alive[lane] {
            self.st.slots[self.prog.net_slot[i] as usize * self.lanes + lane] = encode(&value);
        }
        Ok(())
    }

    /// Observes a register of one lane.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown instance,
    /// register or lane.
    pub fn peek_reg_lane(
        &self,
        lane: usize,
        instance: &str,
        reg: &str,
    ) -> Result<Value, CoreError> {
        self.check_lane(lane)?;
        let (i, j) = crate::sim::interp::find_reg(&self.systems[0], instance, reg)?;
        Ok(decode(
            self.st.regs[i][j * self.lanes + lane],
            self.systems[0].timed[i].comp.regs[j].ty,
        ))
    }

    /// Overwrites a register of one lane. Writes to masked lanes are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown instance,
    /// register or lane and [`CoreError::ValueType`] for a type
    /// mismatch.
    pub fn poke_reg_lane(
        &mut self,
        lane: usize,
        instance: &str,
        reg: &str,
        value: Value,
    ) -> Result<(), CoreError> {
        self.check_lane(lane)?;
        let (i, j) = crate::sim::interp::find_reg(&self.systems[0], instance, reg)?;
        value.check_type_with(self.systems[0].timed[i].comp.regs[j].ty, || {
            format!("register `{instance}.{reg}`")
        })?;
        if self.alive[lane] {
            self.st.regs[i][j * self.lanes + lane] = encode(&value);
        }
        Ok(())
    }

    /// The recorded trace of one lane (`None` before
    /// [`Simulator::enable_trace`] or for an out-of-range lane). A
    /// masked lane's trace ends at its failing cycle.
    pub fn trace_lane(&self, lane: usize) -> Option<&Trace> {
        self.traces.as_ref().and_then(|t| t.get(lane))
    }

    /// The current FSM state name of a timed instance in one lane.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] if the lane or instance does
    /// not exist or the instance has no FSM.
    pub fn state_name_lane(&self, lane: usize, instance: &str) -> Result<&str, CoreError> {
        self.check_lane(lane)?;
        let sys = &self.systems[0];
        let (i, t) = sys
            .timed
            .iter()
            .enumerate()
            .find(|(_, t)| t.name == instance)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "instance",
                name: instance.to_owned(),
            })?;
        let fsm = t.comp.fsm.as_ref().ok_or_else(|| CoreError::UnknownName {
            kind: "fsm",
            name: instance.to_owned(),
        })?;
        Ok(&fsm.states[self.st.states[i * self.lanes + lane] as usize])
    }

    fn check_lane(&self, lane: usize) -> Result<(), CoreError> {
        if lane < self.lanes {
            Ok(())
        } else {
            Err(CoreError::UnknownName {
                kind: "lane",
                name: lane.to_string(),
            })
        }
    }

    fn net_index(&self, name: &str) -> Result<usize, CoreError> {
        self.systems[0]
            .nets
            .iter()
            .position(|n| n.name == name)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "net",
                name: name.to_owned(),
            })
    }

    fn input_slot(&self, name: &str, value: &Value) -> Result<usize, CoreError> {
        let pi = self.systems[0]
            .primary_inputs
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "primary input",
                name: name.to_owned(),
            })?;
        value.check_type_with(pi.ty, || format!("primary input `{name}`"))?;
        Ok(self.prog.net_slot[pi.net] as usize)
    }

    fn read_net_slot(&self, net: usize, lane: usize) -> Value {
        let sl = self.prog.net_slot[net] as usize;
        decode(self.st.slots[sl * self.lanes + lane], self.prog.slot_ty[sl])
    }

    /// The error of the lowest-indexed masked lane (every lane is dead
    /// when this is called).
    fn first_error(&self) -> CoreError {
        self.errors
            .iter()
            .flatten()
            .map(|(_, e)| e.clone())
            .next()
            .unwrap_or(CoreError::Unsupported {
                op: "batched step with no lanes".to_owned(),
            })
    }

    /// One pass of the selected tape over every live lane. While no
    /// lane is masked (the overwhelmingly common case) the build-time
    /// segment plan runs: bitsliced word blocks as packed `u64` ops (up
    /// to 64 lanes per op), scalar segments on the executor's branch-free
    /// stripes. Once any lane is masked a packed store could not skip its
    /// bit, so the whole tape runs on the executor's mask-guarded
    /// instantiation instead. Returns the packed word operations run.
    fn tape_pass(&mut self, pre: bool) -> u64 {
        let (instrs, segments) = if pre {
            (&self.prog.pre_tape, &self.plan.pre)
        } else {
            (&self.prog.tape, &self.plan.tape)
        };
        let io = &self.prog.untimed_io;
        if !self.alive.iter().all(|a| *a) {
            exec::run(
                instrs,
                io,
                &mut self.st,
                &mut self.systems,
                Live(&self.alive),
            );
            return 0;
        }
        let mut word_ops = 0;
        for seg in segments {
            match *seg {
                Segment::Scalar { start, end } => exec::run(
                    &instrs[start..end],
                    io,
                    &mut self.st,
                    &mut self.systems,
                    All(self.lanes),
                ),
                Segment::Word(b) => {
                    word_ops += exec_word_block(
                        &self.plan.blocks[b as usize],
                        &mut self.st.slots,
                        &mut self.word_scratch,
                        self.lanes,
                    );
                }
            }
        }
        word_ops
    }
}

impl Simulator for BatchedSim {
    /// Broadcasts to every live lane.
    fn set_input(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        let slot = self.input_slot(name, &value)?;
        let bits = encode(&value);
        let base = slot * self.lanes;
        for l in 0..self.lanes {
            if self.alive[l] {
                self.st.slots[base + l] = bits;
            }
        }
        Ok(())
    }

    /// One batched cycle: guard pre-tape, per-lane transition selection,
    /// one shared tape pass, per-lane register commit, per-lane trace.
    /// A lane whose trace recording fails is masked off (see
    /// [`BatchedSim::fail_lane`]); the step itself only errors once
    /// *every* lane is masked, returning the lowest-indexed lane's
    /// error — so a 1-lane batch reports errors exactly like the scalar
    /// compiled back-end.
    fn step(&mut self) -> Result<(), CoreError> {
        self.budget.check_cycle(self.cycle)?;
        if !self.alive.iter().any(|a| *a) {
            return Err(self.first_error());
        }
        let c0 = self.cycle;

        // Guard evaluation over held values.
        let t = self.obs.as_ref().map(|o| o.sp_pre.timer());
        let w_pre = self.tape_pass(true);
        drop(t);

        let t = self.obs.as_ref().map(|o| o.sp_select.timer());
        exec::select(&self.prog.fsm_tables, &mut self.st, Live(&self.alive));
        drop(t);

        // Main tape: one walk, all lanes.
        let t = self.obs.as_ref().map(|o| o.sp_eval.timer());
        let w_tape = self.tape_pass(false);
        drop(t);
        if let Some(o) = &self.obs {
            o.tape_passes.incr();
            if w_pre + w_tape > 0 {
                o.word_ops.add(w_pre + w_tape);
            }
        }

        let t = self.obs.as_ref().map(|o| o.sp_commit.timer());
        exec::commit(&self.prog.reg_writes, &mut self.st, Live(&self.alive));
        drop(t);

        self.cycle += 1;

        // Per-lane trace; a failing lane is masked, not fatal.
        let mut failed: Vec<(usize, CoreError)> = Vec::new();
        if let Some(traces) = &mut self.traces {
            let _t_trace = self.obs.as_ref().map(|o| o.sp_trace.timer());
            let sys = &self.systems[0];
            for (l, trace) in traces.iter_mut().enumerate() {
                if !self.alive[l] {
                    continue;
                }
                let row: Vec<Value> = sys
                    .primary_inputs
                    .iter()
                    .map(|p| p.net)
                    .chain(sys.primary_outputs.iter().map(|p| p.net))
                    .map(|net| {
                        let sl = self.prog.net_slot[net] as usize;
                        decode(self.st.slots[sl * self.lanes + l], self.prog.slot_ty[sl])
                    })
                    .collect();
                if let Err(e) = trace.record_cycle(&row) {
                    failed.push((l, e));
                }
            }
        }
        for (l, e) in failed {
            self.mask_lane(l, c0, e);
        }

        if !self.alive.iter().any(|a| *a) {
            return Err(self.first_error());
        }
        Ok(())
    }

    /// Lane 0's value.
    fn output(&self, name: &str) -> Result<Value, CoreError> {
        self.output_lane(0, name)
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Starts recording one trace per lane.
    fn enable_trace(&mut self) {
        if self.traces.is_none() {
            self.traces = Some(
                (0..self.lanes)
                    .map(|_| make_trace(&self.systems[0]))
                    .collect(),
            );
        }
    }

    /// Lane 0's trace (see [`BatchedSim::trace_lane`]).
    fn trace(&self) -> &Trace {
        static EMPTY: std::sync::OnceLock<Trace> = std::sync::OnceLock::new();
        self.trace_lane(0)
            .unwrap_or_else(|| EMPTY.get_or_init(Trace::default))
    }

    /// Lane 0's value.
    fn peek_net(&self, name: &str) -> Result<Value, CoreError> {
        self.peek_net_lane(0, name)
    }

    /// Broadcasts to every live lane.
    fn poke_net(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        let i = self.net_index(name)?;
        value.check_type_with(self.systems[0].nets[i].ty, || format!("net `{name}`"))?;
        let base = self.prog.net_slot[i] as usize * self.lanes;
        let bits = encode(&value);
        for l in 0..self.lanes {
            if self.alive[l] {
                self.st.slots[base + l] = bits;
            }
        }
        Ok(())
    }

    /// Lane 0's value.
    fn peek_reg(&self, instance: &str, reg: &str) -> Result<Value, CoreError> {
        self.peek_reg_lane(0, instance, reg)
    }

    /// Broadcasts to every live lane.
    fn poke_reg(&mut self, instance: &str, reg: &str, value: Value) -> Result<(), CoreError> {
        let (i, j) = crate::sim::interp::find_reg(&self.systems[0], instance, reg)?;
        value.check_type_with(self.systems[0].timed[i].comp.regs[j].ty, || {
            format!("register `{instance}.{reg}`")
        })?;
        let bits = encode(&value);
        for l in 0..self.lanes {
            if self.alive[l] {
                self.st.regs[i][j * self.lanes + l] = bits;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::SigType;
    use crate::Component;
    use ocapi_obs::Registry;

    fn counter_system() -> System {
        let c = Component::build("counter");
        let out = c.output("count", SigType::Bits(8)).unwrap();
        let r = c.reg("r", SigType::Bits(8)).unwrap();
        let sfg = c.sfg("tick").unwrap();
        let q = c.q(r);
        sfg.drive(out, &q).unwrap();
        sfg.next(r, &(q.clone() + c.const_bits(8, 1))).unwrap();
        let comp = c.finish().unwrap();
        let mut sb = System::build("demo");
        let inst = sb.add_component("u0", comp).unwrap();
        sb.output("count", inst, "count").unwrap();
        sb.finish().unwrap()
    }

    #[test]
    fn obs_counts_lanes_tape_passes_and_maskings() {
        let reg = Registry::new();
        let mut sim = BatchedSim::from_fn(4, || Ok(counter_system()), OptLevel::Full).unwrap();
        sim.attach_obs(BatchObs::new(&reg));
        sim.run(5).unwrap();
        sim.fail_lane(
            2,
            CoreError::Unsupported {
                op: "test mask".to_owned(),
            },
        );
        sim.run(3).unwrap();
        // Deterministic counters: lane slots once, one tape pass per
        // batched step (not per lane), one masking event.
        assert_eq!(reg.counter("batch.lanes").get(), 4);
        assert_eq!(reg.counter("batch.tape_passes").get(), 8);
        assert_eq!(reg.counter("batch.masked_lanes").get(), 1);
        // An 8-bit counter has no Bool micro-ops: nothing to bitslice.
        assert_eq!(reg.counter("batch.word_ops").get(), 0);
        // The phase tree hangs off one `batch` root.
        let roots = reg.roots();
        let batch_root = roots.iter().find(|r| r.label() == "batch").unwrap();
        let labels: Vec<String> = batch_root
            .children()
            .iter()
            .map(|c| c.label().to_owned())
            .collect();
        for want in [
            "guard_pre_tape",
            "transition_select",
            "tape",
            "register_update",
            "trace",
        ] {
            assert!(labels.iter().any(|l| l == want), "missing span `{want}`");
        }
        // Masked lanes freeze; live lanes keep counting.
        assert_eq!(sim.output_lane(2, "count").unwrap(), Value::bits(8, 4));
        assert_eq!(sim.output_lane(0, "count").unwrap(), Value::bits(8, 7));
    }

    /// A pure-Bool majority/parity voter: every combinational micro-op
    /// is Bool, so the planner must carve out at least one word block.
    fn bool_vote_system() -> System {
        let c = Component::build("vote");
        let a = c.input("a", SigType::Bool).unwrap();
        let b = c.input("b", SigType::Bool).unwrap();
        let ci = c.input("ci", SigType::Bool).unwrap();
        let maj = c.output("maj", SigType::Bool).unwrap();
        let par = c.output("par", SigType::Bool).unwrap();
        let sfg = c.sfg("vote").unwrap();
        let (ra, rb, rc) = (c.read(a), c.read(b), c.read(ci));
        let m = (&ra & &rb) | (&ra & &rc) | (&rb & &rc);
        let p = &(&ra ^ &rb) ^ &rc;
        sfg.drive(maj, &m).unwrap();
        sfg.drive(par, &p).unwrap();
        let comp = c.finish().unwrap();
        let mut sb = System::build("vote_sys");
        let u = sb.add_component("u0", comp).unwrap();
        for name in ["a", "b", "ci"] {
            sb.input(name, SigType::Bool).unwrap();
            sb.connect_input(name, u, name).unwrap();
        }
        sb.output("maj", u, "maj").unwrap();
        sb.output("par", u, "par").unwrap();
        sb.finish().unwrap()
    }

    #[test]
    fn bool_tape_is_bitsliced_and_word_ops_counted() {
        for level in [OptLevel::None, OptLevel::Full] {
            let reg = Registry::new();
            let mut sim = BatchedSim::from_fn(8, || Ok(bool_vote_system()), level).unwrap();
            assert!(sim.word_blocks() >= 1, "no word block planned ({level:?})");
            assert!(sim.word_tape_coverage() >= MIN_WORD_RUN);
            sim.attach_obs(BatchObs::new(&reg));
            for l in 0..8usize {
                let bits = l as u64;
                sim.set_input_lane(l, "a", Value::Bool(bits & 1 != 0))
                    .unwrap();
                sim.set_input_lane(l, "b", Value::Bool(bits & 2 != 0))
                    .unwrap();
                sim.set_input_lane(l, "ci", Value::Bool(bits & 4 != 0))
                    .unwrap();
            }
            sim.step().unwrap();
            let packed = reg.counter("batch.word_ops").get();
            assert!(packed > 0, "word path did not run ({level:?})");
            for l in 0..8usize {
                let (a, b, ci) = (l & 1 != 0, l & 2 != 0, l & 4 != 0);
                assert_eq!(
                    sim.output_lane(l, "maj").unwrap(),
                    Value::Bool((a & b) | (a & ci) | (b & ci)),
                    "maj lane {l} ({level:?})"
                );
                assert_eq!(
                    sim.output_lane(l, "par").unwrap(),
                    Value::Bool(a ^ b ^ ci),
                    "par lane {l} ({level:?})"
                );
            }
            // Any masked lane forces the scalar fallback over the word
            // segments: the packed counter freezes.
            sim.fail_lane(
                3,
                CoreError::Unsupported {
                    op: "test mask".to_owned(),
                },
            );
            sim.step().unwrap();
            assert_eq!(reg.counter("batch.word_ops").get(), packed, "{level:?}");
        }
    }
}
