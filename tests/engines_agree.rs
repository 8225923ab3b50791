//! Every simulation engine computes the same cycles.
//!
//! Runs the one generator and checker of `agree` on 72 generated
//! systems (1,024 with the `slow-tests` feature) on interp, compiled and
//! batched at every opt level, RT and gates, and reset-then-replay on
//! the engines with a reset. A mismatch panics with the seed and a
//! shrunk recipe. Fault campaigns over 8 of them (256 with
//! `slow-tests`) run through every campaign driver. The in-tree designs
//! run through the same checker in `crates/core/tests/tape_engines.rs`.

mod agree;

use ocapi::{Component, Ram, SigType, System, Value};

#[test]
fn generated_systems_agree_on_every_engine() {
    agree::check_generated(0..if agree::SLOW { 1024 } else { 72 });
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

/// Fault campaigns classify every event alike on the reference driver
/// over the interpreter and the compiled engine at both ends of the
/// optimizer, and on the lane-batched driver at 1 and 64 lanes.
#[test]
fn generated_fault_campaigns_agree_on_every_driver() {
    agree::check_generated_faults(0..if agree::SLOW { 256 } else { 8 });
}
