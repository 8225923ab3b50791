//! `monte-carlo`: many short runs on the tape executors, round-robin
//! between DECT BER bursts through `ber::measure_batched` (64 lanes, two
//! threads, cached tape) and HCOR fault campaigns through
//! `run_campaign_cached_par` (two threads). Instantiation, reset, fault
//! pokes and pool scheduling are part of every measured call.

use ocapi::rng::XorShift64;
use ocapi::{
    run_campaign_cached_par, CampaignReport, CompiledTape, CoreError, FaultEvent, FaultPlan,
    OptLevel, ParConfig, Simulator, System,
};
use ocapi_bench::ber::{measure_batched, BerCount};
use ocapi_bench::Robust;
use ocapi_designs::dect::transceiver::CYCLES_PER_SYMBOL;
use ocapi_designs::hcor;

use crate::cycle::{self, Stimulus, PAYLOAD};
use crate::sample::{interleaved_builds, round_robin, Build, Pair};
use crate::trace::{SpanId, Tracer};
use crate::Run;

/// Bursts per BER call: two 64-lane chunks, one per thread.
const BURSTS: u64 = 128;
const LANES: usize = 64;
/// Cycles of one campaign run, and faulty runs per campaign call.
const CAMPAIGN_CYCLES: u64 = 96;
const CAMPAIGN_EVENTS: u64 = 64;

/// `n` seeded fault events over `sys`: a flip or a short stuck-at on a
/// random bit of a random site at a random cycle.
fn fault_events(sys: &System, n: u64, seed: u64) -> Vec<FaultEvent> {
    let sites = FaultPlan::sites(sys);
    (0..n)
        .map(|i| {
            let mut r = XorShift64::stream(seed, i);
            let site = sites[r.index(sites.len())].clone();
            let width = FaultPlan::site_width(sys, &site).max(1);
            let bit = r.below(u64::from(width)) as u32;
            let cycle = 1 + r.below(CAMPAIGN_CYCLES - 1);
            if r.chance(0.25) {
                FaultEvent::stuck_at(site, bit, r.next_bool(), cycle, 1 + r.below(8))
            } else {
                FaultEvent::flip(site, bit, cycle)
            }
        })
        .collect()
}

fn drive_hcor(stim: &Stimulus, sim: &mut dyn Simulator, cycle: u64) -> Result<(), CoreError> {
    let row = &stim.rows[cycle as usize % stim.rows.len()];
    for (name, v) in stim.inputs.iter().zip(row) {
        sim.set_input(name, *v)?;
    }
    Ok(())
}

fn build_tape(
    name: &'static str,
    build: fn() -> Result<System, CoreError>,
    tr: &Tracer,
    parent: SpanId,
) -> Result<CompiledTape, CoreError> {
    let sys = tr.time("designs.capture", name, parent, build)?;
    tr.time("compile.opt", name, parent, || {
        CompiledTape::compile(&sys, OptLevel::Full)
    })
}

pub fn run(run: &mut Run<'_>) -> Result<(), String> {
    let tr = run.tracer;
    // The channel and noise of the BER point come from the seed; the
    // bursts of one call keep `measure_batched`'s own seeds (1000 + index).
    let mut r = XorShift64::new(run.seed ^ 0xbe7);
    let channel = [1.0, 0.3 + 0.2 * r.next_f64()];
    let noise = 0.3 + 0.2 * r.next_f64();
    let stim = cycle::stimulus("hcor", run.seed);
    let events = fault_events(
        &hcor::build_system().map_err(|e| e.to_string())?,
        CAMPAIGN_EVENTS,
        run.seed,
    );
    let pool = ParConfig::new(2);
    let single = ParConfig::single();

    let setup = tr.open("setup", "", SpanId::NONE);
    let (mut dect_tape, mut hcor_tape) = (None, None);
    {
        let mut builds: Vec<Build<'_>> = vec![
            Box::new(|| {
                dect_tape = Some(
                    build_tape("dect", cycle::dect_system, tr, setup).map_err(|e| e.to_string())?,
                );
                Ok(())
            }),
            Box::new(|| {
                hcor_tape = Some(
                    build_tape("hcor", hcor::build_system, tr, setup).map_err(|e| e.to_string())?,
                );
                Ok(())
            }),
        ];
        let medians = interleaved_builds(run.reps, &mut builds)?;
        run.set("setup_s", medians.iter().map(|s| s.median).sum());
    }
    tr.close(setup);
    let dect_tape = dect_tape.ok_or("no DECT tape")?;
    let hcor_tape = hcor_tape.ok_or("no HCOR tape")?;

    let ber = |pool: &ParConfig, obs: Option<&ocapi_obs::Registry>| -> Result<BerCount, String> {
        let rb = Robust {
            obs,
            ..Robust::plain(pool)
        };
        measure_batched(
            &rb,
            "benchmark",
            &channel,
            noise,
            true,
            BURSTS,
            PAYLOAD,
            LANES,
            OptLevel::Full,
            Some(&dect_tape),
        )
        .map_err(|e| e.to_string())
    };
    let campaign = |pool: &ParConfig| -> Result<CampaignReport, String> {
        run_campaign_cached_par(
            pool,
            hcor::build_system,
            &hcor_tape,
            |sim, cycle| drive_hcor(&stim, sim, cycle),
            CAMPAIGN_CYCLES,
            &events,
            1,
        )
        .map_err(|e| e.to_string())
    };

    // Correctness gate: two threads give what one thread gives, and so
    // does every measured call after it.
    let verify = tr.open("verify", "", SpanId::NONE);
    let counters = ocapi_obs::Registry::new();
    let ber_ref = ber(&single, Some(&counters))?;
    let ber_two = ber(&pool, None)?;
    run.check(ber_two == ber_ref, || {
        format!("BER on 2 threads {ber_two:?} != 1 thread {ber_ref:?}")
    });
    let camp_ref = campaign(&single)?;
    let camp_two = campaign(&pool)?;
    run.check(camp_two.outcomes == camp_ref.outcomes, || {
        "campaign outcomes on 2 threads differ from 1 thread".to_owned()
    });
    tr.close(verify);
    println!(
        "ber {} errors in {} bits; campaign masked {} silent {} detected {} timed out {}",
        ber_ref.errors,
        ber_ref.bits,
        camp_ref.masked(),
        camp_ref.silent(),
        camp_ref.detected(),
        camp_ref.timed_out()
    );
    run.set(
        "ber.word_ops",
        counters.counter("batch.word_ops").get() as f64,
    );
    run.set("campaign.masked", camp_ref.masked() as f64);
    run.set("campaign.silent", camp_ref.silent() as f64);
    run.set("campaign.detected", camp_ref.detected() as f64);
    run.set("campaign.timed_out", camp_ref.timed_out() as f64);

    let measure = tr.open("measure", "", SpanId::NONE);
    let mut pairs = vec![
        Pair::new("ber", "dect", |reps, _| {
            for _ in 0..reps {
                let got = ber(&pool, None)?;
                if got != ber_ref {
                    return Err(format!("BER {got:?} != first call {ber_ref:?}"));
                }
            }
            Ok((reps * BURSTS) as f64)
        }),
        Pair::new("campaign", "hcor", |reps, _| {
            for _ in 0..reps {
                if campaign(&pool)?.outcomes != camp_ref.outcomes {
                    return Err("campaign outcomes differ from the first call".to_owned());
                }
            }
            Ok((reps * CAMPAIGN_EVENTS) as f64)
        }),
    ];
    let tally = round_robin(&mut pairs, run.budget, tr, measure);
    tr.close(measure);
    run.report_pairs(&pairs, "bursts or runs", tally);
    let burst_cycles = ((32 + PAYLOAD) * CYCLES_PER_SYMBOL) as f64;
    run.set("ber.lane_cycles_per_s", tr.rate("ber") * burst_cycles);
    run.set(
        "campaign.cycles_per_s",
        tr.rate("campaign") * CAMPAIGN_CYCLES as f64,
    );
    Ok(())
}
