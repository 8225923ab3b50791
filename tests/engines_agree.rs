//! Every simulation engine computes the same cycles.
//!
//! Runs the one generator and checker of `agree` on 72 generated
//! systems (1,024 with the `slow-tests` feature) on interp, compiled and
//! batched at every opt level, RT and gates, and on 16 (256) with a RAM
//! or ROM added, with a snapshot parked at a seeded cycle and restored
//! across engines, and reset-then-replay on the engines with a reset. A
//! mismatch panics with the seed and a shrunk recipe. Fault campaigns
//! over 8 of them and over 8 with a memory (256 each with `slow-tests`)
//! run through every campaign driver. The in-tree designs run through
//! the same checker in `crates/core/tests/tape_engines.rs`.

mod agree;

use ocapi::{
    BatchedSim, CompiledSim, Component, FnBlock, InterpSim, OptLevel, PortDecl, Ram, Rom, SigType,
    Simulator, System, Value,
};
use ocapi_gatesim::GateSystemSim;
use ocapi_rtl::RtlSystemSim;
use ocapi_synth::SynthOptions;

#[test]
fn generated_systems_agree_on_every_engine() {
    agree::check_generated(0..if agree::SLOW { 1024 } else { 72 });
}

/// Generated systems with a RAM or ROM, some of them wired out of the
/// memory shape so the tape fires them through the generic `Fire`.
#[test]
fn generated_memories_agree_on_every_engine() {
    agree::check_generated_memories(0..if agree::SLOW { 256 } else { 16 });
}

/// A RAM preloaded with 0x5a at address 0 and tied to write 0x11 there
/// every cycle; its read word is the output `y`.
fn ram_probe() -> System {
    let mut ram = Ram::new("ram", 1, SigType::Bits(8));
    ram.preload(0, Value::bits(8, 0x5a));
    let mut sb = System::build("ram_probe");
    let r = sb.add_block(Box::new(ram)).expect("block");
    sb.tie(r, "addr", Value::bits(1, 0)).expect("tie");
    sb.tie(r, "we", Value::Bool(true)).expect("tie");
    sb.tie(r, "wdata", Value::bits(8, 0x11)).expect("tie");
    sb.output("y", r, "rdata").expect("po");
    sb.finish().expect("system")
}

/// Every engine fires an untimed block once a cycle, also when its
/// inputs do not change: the RAM reads the preloaded word, then the
/// word it wrote, on the interpreter, compiled, lanes 0 and 63 of a
/// batch, RT and gate level.
#[test]
fn an_unchanged_ram_access_fires_every_cycle_on_every_engine() {
    let want: Vec<Value> = [0x5a, 0x11, 0x11, 0x11].map(|w| Value::bits(8, w)).into();
    let run = |sim: &mut dyn Simulator| -> Vec<Value> {
        (0..want.len())
            .map(|_| {
                sim.step().expect("step");
                sim.output("y").expect("y")
            })
            .collect()
    };
    let mut interp = InterpSim::new(ram_probe()).expect("interp");
    assert_eq!(run(&mut interp), want, "interp");
    let mut compiled = CompiledSim::new(ram_probe()).expect("compiled");
    assert_eq!(run(&mut compiled), want, "compiled");
    let mut rtl = RtlSystemSim::new(ram_probe()).expect("rtl");
    assert_eq!(run(&mut rtl), want, "rtl");
    let mut gates = GateSystemSim::new(ram_probe(), &SynthOptions::default()).expect("gates");
    assert_eq!(run(&mut gates), want, "gates");
    let mut batch = BatchedSim::from_fn(64, || Ok(ram_probe()), OptLevel::Full).expect("batch");
    let mut lanes = [Vec::new(), Vec::new()];
    for _ in &want {
        batch.step().expect("step");
        for (got, lane) in lanes.iter_mut().zip([0, 63]) {
            got.push(batch.output_lane(lane, "y").expect("y"));
        }
    }
    assert_eq!(lanes, [want.clone(), want], "batched lanes 0 and 63");
}

/// A ROM whose word, through a combinational component, addresses a RAM
/// added before it; the primary inputs address the ROM and write the
/// RAM.
fn rom_addresses_ram() -> System {
    let words = (0..16).map(|i| Value::bits(4, (i * 7 + 3) & 15)).collect();
    let rom = Rom::new("rom", SigType::Bits(4), words);
    let mut ram = Ram::new("ram", 4, SigType::Bits(8));
    for i in 0..16 {
        ram.preload(i, Value::bits(8, (i as u64 * 29 + 5) & 0xff));
    }
    let c = Component::build("mix");
    let d = c.input("d", SigType::Bits(4)).expect("input");
    let addr = c.output("addr", SigType::Bits(4)).expect("output");
    let s = c.sfg("s").expect("sfg");
    s.drive(addr, &(c.read(d) + c.const_bits(4, 5)))
        .expect("drive");
    let mix = c.finish().expect("finish");

    let mut sb = System::build("rom_addresses_ram");
    for (name, ty) in [
        ("a", SigType::Bits(4)),
        ("we", SigType::Bool),
        ("wd", SigType::Bits(8)),
    ] {
        sb.input(name, ty).expect("pi");
    }
    let ram = sb.add_block(Box::new(ram)).expect("block");
    let rom = sb.add_block(Box::new(rom)).expect("block");
    let mix = sb.add_component("mix", mix).expect("add");
    sb.connect_input("a", rom, "addr").expect("connect");
    sb.connect(rom, "data", mix, "d").expect("connect");
    sb.connect(mix, "addr", ram, "addr").expect("connect");
    sb.connect_input("we", ram, "we").expect("connect");
    sb.connect_input("wd", ram, "wdata").expect("connect");
    sb.output("y", ram, "rdata").expect("po");
    sb.finish().expect("system")
}

/// The RT and gate engines fire the ROM before the RAM its word
/// addresses, though the RAM has the lower index: fired in index order,
/// the RAM would read last cycle's address.
#[test]
fn blocks_fire_after_the_blocks_that_feed_them_on_every_engine() {
    agree::check_designs(&[("rom_addresses_ram", rom_addresses_ram)], &[0x0DE5], 32);
}

/// A RAM whose power-up contents are not all zero: every word is
/// preloaded, the primary inputs address it and write it, and a second
/// component reads the words back into a register.
fn preloaded_ram() -> System {
    let g = Component::build("gen");
    let x = g.input("x", SigType::Bits(4)).expect("input");
    let w = g.input("w", SigType::Bool).expect("input");
    let d = g.input("d", SigType::Bits(8)).expect("input");
    let addr = g.output("addr", SigType::Bits(4)).expect("output");
    let we = g.output("we", SigType::Bool).expect("output");
    let wdata = g.output("wdata", SigType::Bits(8)).expect("output");
    let s = g.sfg("pass").expect("sfg");
    s.drive(addr, &g.read(x)).expect("drive");
    s.drive(we, &g.read(w)).expect("drive");
    s.drive(wdata, &g.read(d)).expect("drive");
    let gen = g.finish().expect("finish");

    let k = Component::build("sink");
    let rdata = k.input("rdata", SigType::Bits(8)).expect("input");
    let o = k.output("o", SigType::Bits(8)).expect("output");
    let acc = k.reg("acc", SigType::Bits(8)).expect("reg");
    let s = k.sfg("fold").expect("sfg");
    s.drive(o, &k.q(acc)).expect("drive");
    s.next(acc, &(k.q(acc) ^ k.read(rdata))).expect("next");
    let sink = k.finish().expect("finish");

    let mut ram = Ram::new("ram", 4, SigType::Bits(8));
    for i in 0..16 {
        ram.preload(i, Value::bits(8, (i * 37 + 11) as u64 & 0xff));
    }
    let mut sb = System::build("preloaded_ram");
    for (name, ty) in [
        ("x", SigType::Bits(4)),
        ("w", SigType::Bool),
        ("d", SigType::Bits(8)),
    ] {
        sb.input(name, ty).expect("pi");
    }
    let u = sb.add_component("gen", gen).expect("add");
    let v = sb.add_component("sink", sink).expect("add");
    let r = sb.add_block(Box::new(ram)).expect("block");
    for port in ["x", "w", "d"] {
        sb.connect_input(port, u, port).expect("connect");
    }
    for port in ["addr", "we", "wdata"] {
        sb.connect(u, port, r, port).expect("connect");
    }
    sb.connect(r, "rdata", v, "rdata").expect("connect");
    sb.output("o", v, "o").expect("po");
    sb.finish().expect("system")
}

/// Reset restores a RAM's preloaded words instead of zeroing them, on
/// every engine with a reset, and every engine reads them alike.
#[test]
fn reset_restores_preloaded_ram_on_every_engine() {
    agree::check_designs(&[("preloaded_ram", preloaded_ram)], &[0x5EED], 48);
}

/// An untimed block with two outputs that drive no net: `last`, the
/// input it last saw, and `n`, which each firing on a new input counts
/// up from its held value and copies to the connected output `y`. Its
/// input is a register that moves every cycle.
fn held_output() -> System {
    let port = |name: &str| PortDecl {
        name: name.into(),
        ty: SigType::Bits(8),
    };
    let count = |inp: &[Value], out: &mut [Value]| {
        let bits = |v: Value| v.as_bits().expect("bits");
        let (x, last, n) = (bits(inp[0]), bits(out[0]), bits(out[1]));
        let n = (n + u64::from(x != last)) & 0xff;
        out[0] = inp[0];
        out[1] = Value::bits(8, n);
        out[2] = Value::bits(8, n);
    };
    let outputs = vec![port("last"), port("n"), port("y")];
    let block = FnBlock::new("cnt", vec![port("x")], outputs, count);

    let g = Component::build("src");
    let step = g.input("s", SigType::Bool).expect("input");
    let t = g.output("t", SigType::Bits(8)).expect("output");
    let r = g.reg("r", SigType::Bits(8)).expect("reg");
    let s = g.sfg("tick").expect("sfg");
    s.drive(t, &g.q(r)).expect("drive");
    let by = g.read(step).mux(&g.const_bits(8, 2), &g.const_bits(8, 1));
    s.next(r, &(g.q(r) + by)).expect("next");
    let src = g.finish().expect("finish");

    let k = Component::build("sink");
    let y = k.input("y", SigType::Bits(8)).expect("input");
    let o = k.output("o", SigType::Bits(8)).expect("output");
    let acc = k.reg("acc", SigType::Bits(8)).expect("reg");
    let s = k.sfg("fold").expect("sfg");
    s.drive(o, &k.q(acc)).expect("drive");
    s.next(acc, &(k.q(acc) ^ k.read(y))).expect("next");
    let sink = k.finish().expect("finish");

    let mut sb = System::build("held_output");
    sb.input("s", SigType::Bool).expect("pi");
    let u = sb.add_component("src", src).expect("add");
    let b = sb.add_block(Box::new(block)).expect("block");
    let v = sb.add_component("sink", sink).expect("add");
    sb.connect_input("s", u, "s").expect("connect");
    sb.connect(u, "t", b, "x").expect("connect");
    sb.connect(b, "y", v, "y").expect("connect");
    sb.output("y", b, "y").expect("po");
    sb.output("o", v, "o").expect("po");
    sb.finish().expect("system")
}

/// Every engine holds an untimed output that drives no net between
/// firings, as `UntimedBlock::fire` promises, and snapshots it.
#[test]
fn held_untimed_outputs_agree_on_every_engine() {
    agree::check_designs(&[("held_output", held_output)], &[0x4E1D], 24);
}

/// Fault campaigns classify every event alike on the reference driver
/// over the interpreter and the compiled engine at both ends of the
/// optimizer, and on the lane-batched driver at 1 and 64 lanes: over
/// generated systems, and over the same systems with a RAM or ROM,
/// native or fired as a generic block, whose address, write-enable and
/// data nets the faults reach.
#[test]
fn generated_fault_campaigns_agree_on_every_driver() {
    let seeds = 0..if agree::SLOW { 256 } else { 8 };
    agree::check_generated_faults(seeds.clone(), agree::recipe);
    agree::check_generated_faults(seeds, agree::memory_recipe);
}
