//! Every simulation engine computes the same cycles.
//!
//! Runs the one generator and checker of `agree` on 72 generated
//! systems (1,024 with the `slow-tests` feature) on interp, compiled and
//! batched at every opt level, RT and gates, and on 16 (256) with a RAM
//! or ROM added on all but RT and gates, with a snapshot parked at a
//! seeded cycle and restored across engines, and reset-then-replay on
//! the engines with a reset. A mismatch panics with the seed and a
//! shrunk recipe. Fault campaigns over 8 of them and over 8 with a
//! memory (256 each with `slow-tests`) run through every campaign
//! driver. The in-tree designs run through the same checker in
//! `crates/core/tests/tape_engines.rs`.

mod agree;

use ocapi::{Component, FnBlock, PortDecl, Ram, SigType, System, Value};

#[test]
fn generated_systems_agree_on_every_engine() {
    agree::check_generated(0..if agree::SLOW { 1024 } else { 72 });
}

/// Generated systems with a RAM or ROM, some of them wired out of the
/// memory shape so the tape fires them through the generic `Fire`.
#[test]
fn generated_memories_agree_on_the_tape_engines() {
    agree::check_generated_memories(0..if agree::SLOW { 256 } else { 16 });
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
/// input is a register that moves every cycle, so an event-driven
/// engine that also fires the block at elaboration, or again on an
/// unchanged input, counts alike.
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
