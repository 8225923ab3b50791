//! Golden-output contract for `Trace::to_vcd`.
//!
//! The VCD renderer feeds external waveform viewers, so its exact byte
//! output is an interface: the timescale header, the declaration block,
//! and the rule that a value line appears only on the cycle where the
//! signal actually changes. This test pins the full document for a
//! small two-signal trace; any formatting drift fails loudly.

use ocapi::{SigType, Trace, Value};

fn sample_trace() -> Trace {
    let mut t = Trace::new([
        ("clk_en".to_owned(), SigType::Bool, true),
        ("y".to_owned(), SigType::Bits(4), false),
    ]);
    t.record_cycle([Value::Bool(true), Value::bits(4, 3)])
        .expect("row 0");
    t.record_cycle([Value::Bool(false), Value::bits(4, 3)])
        .expect("row 1");
    t.record_cycle([Value::Bool(false), Value::bits(4, 9)])
        .expect("row 2");
    t
}

#[test]
fn vcd_matches_golden_document() {
    let golden = "\
$timescale 1ns $end
$scope module trace $end
$var wire 1 s0 clk_en $end
$var wire 4 s1 y $end
$upscope $end
$enddefinitions $end
#0
1s0
b0011 s1
#10
0s0
#20
b1001 s1
";
    assert_eq!(sample_trace().to_vcd(), golden);
}

#[test]
fn vcd_emits_value_changes_only_on_edges() {
    let vcd = sample_trace().to_vcd();
    // Cycle 1 (timestamp #10): only `clk_en` fell; `y` held its value
    // and must not be re-dumped until it changes at #20.
    let at_10 = vcd
        .split("#10\n")
        .nth(1)
        .and_then(|rest| rest.split("#20\n").next())
        .expect("timestamp sections");
    assert_eq!(at_10, "0s0\n");
    assert_eq!(vcd.matches(" s1").count(), 3, "declaration + two edges");
}

#[test]
fn vcd_header_declares_timescale_before_definitions() {
    let vcd = sample_trace().to_vcd();
    let ts = vcd.find("$timescale 1ns $end").expect("timescale present");
    let defs = vcd
        .find("$enddefinitions $end")
        .expect("definitions closed");
    assert!(ts < defs, "timescale must precede the definitions block");
    // Every timestamp is the 10 ns clock period times the cycle index.
    let stamps: Vec<&str> = vcd.lines().filter(|l| l.starts_with('#')).collect();
    assert_eq!(stamps, ["#0", "#10", "#20"]);
}
