//! FSM state minimisation by partition refinement.
//!
//! The controller-synthesis step the paper delegates to logic synthesis
//! (§6) classically begins with state reduction: two states are
//! equivalent when, for every guard valuation, they fire the same SFGs
//! and move to equivalent states — a Mealy-machine bisimulation. Merging
//! equivalent states shrinks the state register and every decode cone
//! behind it.
//!
//! Guards are compared *symbolically* (same SFG-graph node ⇒ same
//! signal); the outcome of a state under one valuation follows the
//! declaration-order priority the simulator uses, including the
//! implicit idle (stay, fire nothing) when no transition matches.

use std::collections::HashMap;

use ocapi::{Fsm, StateRef, Transition};

/// The result of minimising an FSM.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The reduced machine (identical to the input when nothing merged).
    pub fsm: Fsm,
    /// How many states were removed by merging.
    pub merged: usize,
    /// For each original state index, the index of its class in the
    /// reduced machine.
    pub class_of: Vec<usize>,
}

/// Outcome of one state under one guard valuation: the fired SFGs
/// (sorted) and the successor state.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Outcome {
    actions: Vec<u32>,
    next: u32,
}

/// Guard count above which minimisation is skipped (the outcome table
/// is `states × 2^guards`).
const MAX_GUARDS: usize = 12;

/// Minimises `fsm`. Machines whose distinct-guard count exceeds
/// `MAX_GUARDS` (12) are returned unchanged (`merged == 0`).
///
/// ```
/// use ocapi::{Component, SigType};
/// use ocapi_synth::fsm_min;
///
/// // Two unconditional states both firing the same SFG: one class.
/// let c = Component::build("blinker");
/// let o = c.output("o", SigType::Bool)?;
/// let r = c.reg("r", SigType::Bool)?;
/// let s = c.sfg("s")?;
/// s.drive(o, &c.q(r))?;
/// s.next(r, &!c.q(r))?;
/// let f = c.fsm()?;
/// let a = f.initial("a")?;
/// let b = f.state("b")?;
/// f.from(a).always().run(s.id()).to(b)?;
/// f.from(b).always().run(s.id()).to(a)?;
/// let comp = c.finish()?;
///
/// let m = fsm_min::minimize(comp.fsm.as_ref().unwrap());
/// assert_eq!(m.merged, 1);
/// assert_eq!(m.fsm.states.len(), 1);
/// # Ok::<(), ocapi::CoreError>(())
/// ```
pub fn minimize(fsm: &Fsm) -> Minimized {
    let n = fsm.states.len();
    let identity = || Minimized {
        fsm: fsm.clone(),
        merged: 0,
        class_of: (0..n).collect(),
    };
    if n <= 1 {
        return identity();
    }

    // Distinct guards, by graph node.
    let mut guard_ids = Vec::new();
    for t in &fsm.transitions {
        if let Some(g) = t.guard {
            if !guard_ids.contains(&g) {
                guard_ids.push(g);
            }
        }
    }
    if guard_ids.len() > MAX_GUARDS {
        return identity();
    }
    let n_vals = 1usize << guard_ids.len();

    // outcome[s][m]: what state s does under guard valuation m.
    let outcome: Vec<Vec<Outcome>> = (0..n)
        .map(|s| {
            (0..n_vals)
                .map(|m| {
                    for t in fsm.from_state(StateRef::from_index(s)) {
                        let taken = match t.guard {
                            None => true,
                            Some(g) => {
                                // Every transition guard was collected
                                // into `guard_ids` above.
                                let Some(bit) = guard_ids.iter().position(|x| *x == g) else {
                                    unreachable!("guard missing from the collected set");
                                };
                                (m >> bit) & 1 == 1
                            }
                        };
                        if taken {
                            let mut actions: Vec<u32> =
                                t.actions.iter().map(|a| a.index() as u32).collect();
                            actions.sort_unstable();
                            return Outcome {
                                actions,
                                next: t.to.index() as u32,
                            };
                        }
                    }
                    // Implicit idle: stay, fire nothing.
                    Outcome {
                        actions: Vec::new(),
                        next: s as u32,
                    }
                })
                .collect()
        })
        .collect();

    // Initial partition: by the action part of the outcome vector.
    let mut class_of: Vec<usize> = {
        let mut seen: HashMap<Vec<&[u32]>, usize> = HashMap::new();
        (0..n)
            .map(|s| {
                let key: Vec<&[u32]> = outcome[s].iter().map(|o| o.actions.as_slice()).collect();
                let next = seen.len();
                *seen.entry(key).or_insert(next)
            })
            .collect()
    };

    // Refine until stable: split on (actions, class(next)).
    loop {
        let mut seen: HashMap<(usize, Vec<usize>), usize> = HashMap::new();
        let new_class: Vec<usize> = (0..n)
            .map(|s| {
                let key: Vec<usize> = outcome[s]
                    .iter()
                    .map(|o| class_of[o.next as usize])
                    .collect();
                let next = seen.len();
                *seen.entry((class_of[s], key)).or_insert(next)
            })
            .collect();
        let stable = new_class == class_of;
        class_of = new_class;
        if stable {
            break;
        }
    }

    let n_classes = class_of.iter().max().map_or(0, |m| m + 1);
    if n_classes == n {
        return identity();
    }

    // Renumber classes so they appear in representative (lowest member)
    // order, and build the reduced machine from each representative.
    let mut rep_of_class: Vec<usize> = vec![usize::MAX; n_classes];
    for (s, c) in class_of.iter().enumerate() {
        if rep_of_class[*c] == usize::MAX {
            rep_of_class[*c] = s;
        }
    }
    let mut order: Vec<usize> = (0..n_classes).collect();
    order.sort_by_key(|c| rep_of_class[*c]);
    let mut new_index = vec![0usize; n_classes];
    for (k, c) in order.iter().enumerate() {
        new_index[*c] = k;
    }
    let class_of: Vec<usize> = class_of.iter().map(|c| new_index[*c]).collect();

    let mut states = vec![String::new(); n_classes];
    for s in 0..n {
        let name = &mut states[class_of[s]];
        if !name.is_empty() {
            name.push('+');
        }
        name.push_str(&fsm.states[s]);
    }

    let mut transitions = Vec::new();
    for c in 0..n_classes {
        // Class indices come from `class_of`, so each has a member.
        let Some(rep) = (0..n).find(|s| class_of[*s] == c) else {
            unreachable!("equivalence class {c} has no member state");
        };
        for t in fsm.from_state(StateRef::from_index(rep)) {
            transitions.push(Transition {
                from: StateRef::from_index(c),
                guard: t.guard,
                actions: t.actions.clone(),
                to: StateRef::from_index(class_of[t.to.index()]),
            });
        }
    }

    Minimized {
        fsm: Fsm {
            states,
            initial: StateRef::from_index(class_of[fsm.initial.index()]),
            transitions,
        },
        merged: n - n_classes,
        class_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocapi::{Component, SigType};

    /// An alternating two-phase machine (`run` fires `up`, `idle` fires
    /// `hold`) plus `extra` redundant copies of `idle`: every `idleK`
    /// behaves exactly like `idle0`, so only the copies may merge.
    fn toggle(extra: usize) -> ocapi::Component {
        let c = Component::build("toggle");
        let en = c.input("en", SigType::Bool).expect("in");
        let o = c.output("o", SigType::Bits(4)).expect("out");
        let r = c.reg("r", SigType::Bits(4)).expect("reg");
        let up = c.sfg("up").expect("sfg");
        let q = c.q(r);
        up.drive(o, &q).expect("drive");
        up.next(r, &(q + c.const_bits(4, 1))).expect("next");
        let hold = c.sfg("hold").expect("sfg");
        hold.drive(o, &c.q(r)).expect("drive");
        let g = c.read(en);
        let f = c.fsm().expect("fsm");
        let run = f.initial("run").expect("state");
        let idles: Vec<_> = (0..=extra)
            .map(|k| f.state(&format!("idle{k}")).expect("state"))
            .collect();
        // run: fires `up` and parks in an idle copy (distinct behaviour).
        f.from(run).always().run(up.id()).to(idles[0]).expect("t");
        // every idle copy: with `en`, back to run via `hold`; otherwise
        // hop to the next copy (still firing `hold`).
        for (k, i) in idles.iter().enumerate() {
            f.from(*i).when(&g).run(hold.id()).to(run).expect("t");
            let next = idles[(k + 1) % idles.len()];
            f.from(*i).always().run(hold.id()).to(next).expect("t");
        }
        c.finish().expect("finish")
    }

    #[test]
    fn redundant_idle_states_merge() {
        let comp = toggle(3);
        let fsm = comp.fsm.as_ref().expect("fsm");
        assert_eq!(fsm.states.len(), 5);
        let m = minimize(fsm);
        assert_eq!(m.merged, 3, "{:?}", m.fsm.states);
        assert_eq!(m.fsm.states.len(), 2);
        // All idle copies land in one class; run keeps its own.
        assert_eq!(m.class_of[0], 0);
        assert!(m.class_of[1..].iter().all(|c| *c == 1), "{:?}", m.class_of);
        assert_eq!(m.fsm.initial.index(), 0);
        assert!(
            m.fsm.states[1].starts_with("idle0+idle1"),
            "{:?}",
            m.fsm.states
        );
        // The reduced machine keeps the representative's transitions,
        // retargeted into class space.
        assert!(m.fsm.transitions.iter().all(|t| t.to.index() < 2));
    }

    #[test]
    fn behaviourally_distinct_states_do_not_merge() {
        // run and idle differ (different SFG under the same valuation).
        let comp = toggle(0);
        let m = minimize(comp.fsm.as_ref().expect("fsm"));
        assert_eq!(m.merged, 0);
        assert_eq!(m.fsm, *comp.fsm.as_ref().expect("fsm"));
    }

    #[test]
    fn chain_of_equivalent_states_needs_refinement() {
        // s0 -> s1 -> s2 -> s0, all firing the same SFG unconditionally:
        // one big class after refinement (a pure divider-by-anything).
        let c = Component::build("ring");
        let o = c.output("o", SigType::Bool).expect("out");
        let r = c.reg("r", SigType::Bool).expect("reg");
        let s = c.sfg("s").expect("sfg");
        s.drive(o, &c.q(r)).expect("drive");
        s.next(r, &!c.q(r)).expect("next");
        let f = c.fsm().expect("fsm");
        let s0 = f.initial("s0").expect("state");
        let s1 = f.state("s1").expect("state");
        let s2 = f.state("s2").expect("state");
        f.from(s0).always().run(s.id()).to(s1).expect("t");
        f.from(s1).always().run(s.id()).to(s2).expect("t");
        f.from(s2).always().run(s.id()).to(s0).expect("t");
        let comp = c.finish().expect("finish");
        let m = minimize(comp.fsm.as_ref().expect("fsm"));
        assert_eq!(m.merged, 2, "{:?}", m.fsm.states);
        assert_eq!(m.fsm.transitions.len(), 1);
        assert_eq!(m.fsm.transitions[0].to.index(), 0);
    }

    #[test]
    fn ring_counter_with_distinct_outputs_is_already_minimal() {
        // Same ring but each state fires a different SFG.
        let c = Component::build("ring2");
        let o = c.output("o", SigType::Bits(2)).expect("out");
        let sfgs: Vec<_> = (0..3)
            .map(|k| {
                let s = c.sfg(&format!("s{k}")).expect("sfg");
                s.drive(o, &c.const_bits(2, k as u64)).expect("drive");
                s
            })
            .collect();
        let f = c.fsm().expect("fsm");
        let s0 = f.initial("s0").expect("state");
        let s1 = f.state("s1").expect("state");
        let s2 = f.state("s2").expect("state");
        for (from, to, s) in [(s0, s1, &sfgs[0]), (s1, s2, &sfgs[1]), (s2, s0, &sfgs[2])] {
            f.from(from).always().run(s.id()).to(to).expect("t");
        }
        let comp = c.finish().expect("finish");
        let m = minimize(comp.fsm.as_ref().expect("fsm"));
        assert_eq!(m.merged, 0);
    }

    #[test]
    fn single_state_machine_is_identity() {
        let c = Component::build("one");
        let o = c.output("o", SigType::Bool).expect("out");
        let s = c.sfg("s").expect("sfg");
        s.drive(o, &c.const_bool(true)).expect("drive");
        let f = c.fsm().expect("fsm");
        let s0 = f.initial("s0").expect("state");
        f.from(s0).always().run(s.id()).to(s0).expect("t");
        let comp = c.finish().expect("finish");
        let m = minimize(comp.fsm.as_ref().expect("fsm"));
        assert_eq!(m.merged, 0);
        assert_eq!(m.class_of, vec![0]);
    }
}
