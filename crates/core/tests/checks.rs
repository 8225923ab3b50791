//! Tests for the semantic checks of §3.1 (dangling inputs, dead code) and
//! the structural validations of the capture layer.

use ocapi::{Component, CoreError, DiagnosticKind, SigType, Value};

fn kinds(comp: &Component) -> Vec<DiagnosticKind> {
    comp.diagnostics.iter().map(|d| d.kind).collect()
}

#[test]
fn clean_component_has_no_diagnostics() {
    let c = Component::build("clean");
    let a = c.input("a", SigType::Bits(8)).unwrap();
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    s.uses(a);
    s.drive(o, &(c.read(a) + c.const_bits(8, 1))).unwrap();
    let comp = c.finish().unwrap();
    assert!(comp.diagnostics.is_empty(), "{:?}", comp.diagnostics);
}

#[test]
fn dangling_input_detected() {
    let c = Component::build("dangle");
    let a = c.input("a", SigType::Bits(8)).unwrap();
    let b = c.input("b", SigType::Bits(8)).unwrap();
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    s.uses(a).uses(b);
    s.drive(o, &c.read(a)).unwrap(); // never reads b
    let comp = c.finish().unwrap();
    assert!(kinds(&comp).contains(&DiagnosticKind::DanglingInput));
    assert!(comp.diagnostics.iter().any(|d| d.message.contains("`b`")));
}

#[test]
fn undeclared_input_detected() {
    let c = Component::build("undecl");
    let a = c.input("a", SigType::Bits(8)).unwrap();
    let b = c.input("b", SigType::Bits(8)).unwrap();
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    s.uses(a);
    s.drive(o, &(c.read(a) + c.read(b))).unwrap(); // b undeclared
    let comp = c.finish().unwrap();
    assert!(kinds(&comp).contains(&DiagnosticKind::UndeclaredInput));
}

#[test]
fn no_declaration_means_no_input_checks() {
    let c = Component::build("lax");
    let a = c.input("a", SigType::Bits(8)).unwrap();
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    s.drive(o, &c.read(a)).unwrap();
    let comp = c.finish().unwrap();
    assert!(!kinds(&comp).contains(&DiagnosticKind::UndeclaredInput));
}

#[test]
fn dead_code_detected_for_named_signals() {
    let c = Component::build("dead");
    let a = c.input("a", SigType::Bits(8)).unwrap();
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    let _unused = (c.read(a) + c.const_bits(8, 5)).named("scratch");
    s.drive(o, &c.read(a)).unwrap();
    let comp = c.finish().unwrap();
    assert!(kinds(&comp).contains(&DiagnosticKind::DeadCode));
    assert!(comp
        .diagnostics
        .iter()
        .any(|d| d.message.contains("scratch")));
}

#[test]
fn undriven_output_detected() {
    let c = Component::build("undriven");
    let _o = c.output("o", SigType::Bits(8)).unwrap();
    let comp = c.finish().unwrap();
    assert!(kinds(&comp).contains(&DiagnosticKind::UndrivenOutput));
}

#[test]
fn unused_register_detected_both_ways() {
    // Written but never read.
    let c = Component::build("w_only");
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let r = c.reg("r", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    s.drive(o, &c.const_bits(8, 0)).unwrap();
    s.next(r, &c.const_bits(8, 1)).unwrap();
    let comp = c.finish().unwrap();
    assert!(kinds(&comp).contains(&DiagnosticKind::UnusedRegister));

    // Read but never written.
    let c = Component::build("r_only");
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let r = c.reg("r", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    s.drive(o, &c.q(r)).unwrap();
    let comp = c.finish().unwrap();
    assert!(kinds(&comp).contains(&DiagnosticKind::UnusedRegister));
}

#[test]
fn unreachable_state_detected() {
    let c = Component::build("unreach");
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    s.drive(o, &c.const_bits(8, 0)).unwrap();
    let f = c.fsm().unwrap();
    let s0 = f.initial("s0").unwrap();
    let _orphan = f.state("orphan").unwrap();
    f.from(s0).always().run(s.id()).to(s0).unwrap();
    let comp = c.finish().unwrap();
    assert!(kinds(&comp).contains(&DiagnosticKind::UnreachableState));
}

#[test]
fn finish_strict_rejects_diagnostics() {
    let c = Component::build("bad");
    let _o = c.output("o", SigType::Bits(8)).unwrap();
    assert!(matches!(
        c.finish_strict(),
        Err(CoreError::CheckFailed { .. })
    ));
}

#[test]
fn transition_conflict_is_structural_error() {
    let c = Component::build("conflict");
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let s1 = c.sfg("s1").unwrap();
    s1.drive(o, &c.const_bits(8, 1)).unwrap();
    let s2 = c.sfg("s2").unwrap();
    s2.drive(o, &c.const_bits(8, 2)).unwrap();
    let f = c.fsm().unwrap();
    let s0 = f.initial("s0").unwrap();
    // One transition running both SFGs: drives `o` twice.
    f.from(s0)
        .always()
        .run(s1.id())
        .run(s2.id())
        .to(s0)
        .unwrap();
    assert!(matches!(
        c.finish(),
        Err(CoreError::ConnectionConflict { .. })
    ));
}

#[test]
fn always_on_sfg_conflict_is_structural_error() {
    let c = Component::build("conflict2");
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let s1 = c.sfg("s1").unwrap();
    s1.drive(o, &c.const_bits(8, 1)).unwrap();
    let s2 = c.sfg("s2").unwrap();
    s2.drive(o, &c.const_bits(8, 2)).unwrap();
    // No FSM: all SFGs always run -> conflict.
    assert!(matches!(
        c.finish(),
        Err(CoreError::ConnectionConflict { .. })
    ));
}

#[test]
fn duplicate_names_rejected() {
    let c = Component::build("dups");
    c.input("a", SigType::Bool).unwrap();
    assert!(matches!(
        c.input("a", SigType::Bool),
        Err(CoreError::DuplicateName { .. })
    ));
    c.output("o", SigType::Bool).unwrap();
    assert!(c.output("o", SigType::Bool).is_err());
    c.reg("r", SigType::Bool).unwrap();
    assert!(c.reg("r", SigType::Bool).is_err());
    c.sfg("s").unwrap();
    assert!(c.sfg("s").is_err());
    c.fsm().unwrap();
    assert!(c.fsm().is_err());
}

#[test]
fn drive_type_mismatch_rejected() {
    let c = Component::build("ty");
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    assert!(matches!(
        s.drive(o, &c.const_bits(4, 1)),
        Err(CoreError::TypeMismatch { .. })
    ));
}

#[test]
fn reg_init_type_checked() {
    let c = Component::build("ty2");
    assert!(matches!(
        c.reg_init("r", SigType::Bits(8), Value::Bool(true)),
        Err(CoreError::ValueType { .. })
    ));
}

#[test]
#[should_panic(expected = "type mismatch")]
fn mixed_width_addition_panics_at_capture() {
    let c = Component::build("mix");
    let _ = c.const_bits(8, 1) + c.const_bits(4, 1);
}

#[test]
#[should_panic(expected = "different components")]
fn cross_component_signal_panics() {
    let c1 = Component::build("one");
    let c2 = Component::build("two");
    let _ = c1.const_bits(8, 1) + c2.const_bits(8, 1);
}

/// `drive` and `next` refuse a signal of another component with a typed
/// error instead of binding whatever node of this component has its
/// index, and the refused calls leave the SFG as it was.
#[test]
fn foreign_signal_is_refused_by_drive_and_next() {
    let other = Component::build("other");
    let a = other.input("a", SigType::Bits(8)).unwrap();
    // Node 2 of `other`: an index `own` also has.
    let foreign = other.read(a) + other.const_bits(8, 1);

    let own = Component::build("own");
    let y = own.output("y", SigType::Bits(8)).unwrap();
    let r = own.reg("r", SigType::Bits(8)).unwrap();
    let s = own.sfg("run").unwrap();
    let q = own.q(r);
    let next = q.clone() + own.const_bits(8, 1);
    assert_eq!(s.drive(y, &foreign), Err(CoreError::ForeignSignal));
    assert_eq!(s.next(r, &foreign), Err(CoreError::ForeignSignal));
    s.drive(y, &q).unwrap();
    s.next(r, &next).unwrap();
    let comp = own.finish().unwrap();
    assert!(comp.diagnostics.is_empty(), "{:?}", comp.diagnostics);
}

#[test]
fn errors_render_usefully() {
    // Every error message a user can hit should carry the names involved.
    let e = CoreError::UnknownName {
        kind: "input port",
        name: "nope".into(),
    };
    assert_eq!(e.to_string(), "unknown input port `nope`");
    let e = CoreError::DuplicateName {
        kind: "register",
        name: "r".into(),
    };
    assert!(e.to_string().contains("duplicate register `r`"));
    let e = CoreError::UnconnectedInput {
        instance: "u0".into(),
        port: "x".into(),
    };
    assert!(e.to_string().contains("u0.x"));
    let e = CoreError::CombinationalLoop {
        waiting: vec!["a.s -> o".into(), "b.s -> o".into()],
    };
    let shown = e.to_string();
    assert!(shown.contains("a.s -> o") && shown.contains("b.s -> o"));
    let e = CoreError::DataflowDeadlock {
        blocked: vec!["actor1".into()],
    };
    assert!(e.to_string().contains("actor1"));
    let e = CoreError::NotCompilable {
        cycle: vec!["x".into(), "y".into()],
    };
    assert!(e.to_string().contains("x -> y"));
    // And errors are std::error::Error.
    let _: &dyn std::error::Error = &e;
}
