//! Pins the RT-level text the generators emit and the size of the RT
//! kernel's model of it. For each of the five in-tree designs, the
//! FNV-1a-64 hash and byte length of `vhdl::system_source` and
//! `verilog::system_source`, and `RtlSystemSim::signal_count`, must stay
//! exactly these; so must every file the two project writers produce for
//! a traced HCOR run. A refactor of how the RT structure is derived must
//! not move a byte; Table 1's code-size column counts this text.

use std::path::Path;

use asic_dse::ocapi::{InterpSim, Simulator, System, Value};
use asic_dse::ocapi_designs::dect::transceiver::{build_system, TransceiverConfig};
use asic_dse::ocapi_designs::{hcor, image, modem, wlan};
use asic_dse::ocapi_hdl::project::{write_verilog_project, write_vhdl_project};
use asic_dse::ocapi_hdl::{verilog, vhdl};
use asic_dse::ocapi_rtl::RtlSystemSim;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(hash, length)` of a text.
fn pin(text: &str) -> (u64, usize) {
    (fnv1a64(text.as_bytes()), text.len())
}

/// `(vhdl, verilog, signal_count)` of one design.
fn design_pins(build: impl Fn() -> System) -> ((u64, usize), (u64, usize), usize) {
    let sys = build();
    let v = pin(&vhdl::system_source(&sys).expect("vhdl"));
    let sv = pin(&verilog::system_source(&sys).expect("verilog"));
    let signals = RtlSystemSim::new(sys).expect("lower").signal_count();
    (v, sv, signals)
}

#[test]
fn hcor_text_is_pinned() {
    let got = design_pins(|| hcor::build_system().expect("build"));
    assert_eq!(
        got,
        ((0x5ae6188354aff977, 8381), (0x24c1cebe6e425bcd, 5844), 55)
    );
}

#[test]
fn modem_text_is_pinned() {
    let got = design_pins(|| modem::build_system().expect("build"));
    assert_eq!(
        got,
        ((0x1a28709e0aa5478a, 9772), (0x332290cb9c981d70, 6363), 42)
    );
}

#[test]
fn wlan_text_is_pinned() {
    let got = design_pins(|| wlan::build_system().expect("build"));
    assert_eq!(
        got,
        ((0xcc05d180505eb2d5, 10855), (0x7821849cc1cd8afa, 8814), 48)
    );
}

#[test]
fn image_text_is_pinned() {
    let got = design_pins(|| image::build_system(2).expect("build"));
    assert_eq!(
        got,
        ((0x4d93b72a3c710883, 11962), (0x5b7e908df9a46b6e, 13002), 47)
    );
}

#[test]
fn dect_text_is_pinned() {
    let got = design_pins(|| build_system(&TransceiverConfig::default()).expect("build"));
    assert_eq!(
        got,
        (
            (0xfead27e2511d5dfd, 75813),
            (0xa090060239b0072e, 64096),
            319
        )
    );
}

/// Checks `(file name, hash, length)` of every file in a written
/// project, `files.lst` included, in manifest order.
fn assert_project(dir: &Path, mut files: Vec<String>, want: &[(&str, u64, usize)]) {
    files.push("files.lst".to_owned());
    let got: Vec<(String, u64, usize)> = files
        .into_iter()
        .map(|f| {
            let text = std::fs::read_to_string(dir.join(&f)).expect("read back");
            let (h, n) = pin(&text);
            (f, h, n)
        })
        .collect();
    let got: Vec<(&str, u64, usize)> = got.iter().map(|(f, h, n)| (f.as_str(), *h, *n)).collect();
    assert_eq!(got, want);
}

#[test]
fn hcor_project_files_are_pinned() {
    let bits = hcor::test_pattern(24, 5);
    let mut sim = InterpSim::new(hcor::build_system().expect("build")).expect("sim");
    sim.enable_trace();
    for (k, b) in bits.iter().enumerate() {
        sim.set_input("bit_in", Value::Bool(*b)).expect("bit");
        sim.set_input("enable", Value::Bool(k % 13 != 4))
            .expect("en");
        sim.set_input("threshold", Value::bits(5, 14)).expect("thr");
        sim.step().expect("step");
    }
    let root = std::env::temp_dir().join(format!("ocapi_text_pins_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let dir = root.join("vhdl");
    let m = write_vhdl_project(sim.system(), Some(sim.trace()), &dir).expect("vhdl project");
    assert_project(
        &dir,
        m.files,
        &[
            ("ocapi_pkg.vhd", 0x5571427dc3f256dd, 1390),
            ("hcor.vhd", 0xa81d359356678d72, 5954),
            ("hcor_top.vhd", 0x218fcc23a2c6b5a8, 1035),
            ("hcor_tb.vhd", 0x8f0177d71730aca9, 27188),
            ("files.lst", 0xcf9d05fb818ad27d, 48),
        ],
    );

    let dir = root.join("verilog");
    let m = write_verilog_project(sim.system(), Some(sim.trace()), &dir).expect("verilog project");
    assert_project(
        &dir,
        m.files,
        &[
            ("hcor.v", 0x24c1cebe6e425bcd, 5844),
            ("hcor_tb.v", 0xd423dede077bc972, 26371),
            ("files.lst", 0x30b35871842d2b76, 17),
        ],
    );

    let _ = std::fs::remove_dir_all(&root);
}
