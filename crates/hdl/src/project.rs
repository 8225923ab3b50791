//! Writing a generated HDL project to disk.
//!
//! The original environment handed generated VHDL files to the synthesis
//! tools (Figure 8). [`write_vhdl_project`] produces the same hand-off: a
//! directory with the support package, one file per component entity, the
//! structural top level, the self-checking testbench, and a `files.lst`
//! compilation order.

use std::fs;
use std::path::Path;

use ocapi::{System, Trace};

use crate::ident;
use crate::{testbench, verilog, vhdl, CodegenError};

/// The files a project write produced, in compilation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectManifest {
    /// File names relative to the project directory.
    pub files: Vec<String>,
}

/// Writes the complete VHDL project for `sys` into `dir` (created if
/// missing): the support package, one file per distinct component, the
/// structural top level and, when a recorded `trace` is given, a
/// self-checking testbench.
///
/// # Errors
///
/// Returns [`CodegenError`] for generation failures, including
/// [`CodegenError::HeldGuardConflict`] when instances of one component
/// disagree on which guard inputs are held; I/O errors are wrapped in
/// [`CodegenError::Io`].
pub fn write_vhdl_project(
    sys: &System,
    trace: Option<&Trace>,
    dir: &Path,
) -> Result<ProjectManifest, CodegenError> {
    let mut files = vec![("ocapi_pkg.vhd".to_owned(), vhdl::package_source())];
    for (comp, held) in crate::components(sys)? {
        files.push((
            format!("{}.vhd", ident::vhdl(&comp.name)),
            vhdl::component_source_with_held(comp, &held)?,
        ));
    }
    files.push((
        format!("{}_top.vhd", ident::vhdl(&sys.name)),
        vhdl::system_source_top_only(sys),
    ));
    if let Some(trace) = trace {
        files.push((
            format!("{}_tb.vhd", ident::vhdl(&sys.name)),
            testbench::vhdl_testbench(&sys.name, trace)?,
        ));
    }
    write_project(dir, files)
}

/// Writes the complete Verilog project for `sys` into `dir` (created if
/// missing), mirroring [`write_vhdl_project`].
///
/// # Errors
///
/// As [`write_vhdl_project`].
pub fn write_verilog_project(
    sys: &System,
    trace: Option<&Trace>,
    dir: &Path,
) -> Result<ProjectManifest, CodegenError> {
    let mut files = vec![(
        format!("{}.v", ident::verilog(&sys.name)),
        verilog::system_source(sys)?,
    )];
    if let Some(trace) = trace {
        files.push((
            format!("{}_tb.v", ident::verilog(&sys.name)),
            testbench::verilog_testbench(&sys.name, trace)?,
        ));
    }
    write_project(dir, files)
}

/// Writes `files` (name, contents) into `dir`, then a `files.lst` naming
/// them in order.
fn write_project(
    dir: &Path,
    files: Vec<(String, String)>,
) -> Result<ProjectManifest, CodegenError> {
    let io_err = |e: std::io::Error| CodegenError::Io {
        message: e.to_string(),
    };
    fs::create_dir_all(dir).map_err(io_err)?;
    let mut names = Vec::with_capacity(files.len());
    for (name, contents) in files {
        fs::write(dir.join(&name), contents).map_err(io_err)?;
        names.push(name);
    }
    fs::write(dir.join("files.lst"), names.join("\n") + "\n").map_err(io_err)?;
    Ok(ProjectManifest { files: names })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocapi::{Component, InterpSim, SigType, Simulator, System, Value};

    fn demo_system() -> System {
        let c = Component::build("counter");
        let out = c.output("count", SigType::Bits(4)).expect("out");
        let r = c.reg("r", SigType::Bits(4)).expect("reg");
        let s = c.sfg("tick").expect("sfg");
        let q = c.q(r);
        s.drive(out, &q).expect("drive");
        s.next(r, &(q.clone() + c.const_bits(4, 1))).expect("next");
        let mut sb = System::build("demo");
        let u = sb
            .add_component("u0", c.finish().expect("finish"))
            .expect("add");
        sb.output("count", u, "count").expect("po");
        sb.finish().expect("system")
    }

    #[test]
    fn writes_all_project_files() {
        let dir = std::env::temp_dir().join(format!("ocapi_prj_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let mut sim = InterpSim::new(demo_system()).expect("sim");
        sim.enable_trace();
        sim.run(5).expect("run");

        let manifest = write_vhdl_project(sim.system(), Some(sim.trace()), &dir).expect("write");
        assert_eq!(
            manifest.files,
            vec![
                "ocapi_pkg.vhd".to_owned(),
                "counter.vhd".to_owned(),
                "demo_top.vhd".to_owned(),
                "demo_tb.vhd".to_owned(),
            ]
        );
        for f in &manifest.files {
            let contents = fs::read_to_string(dir.join(f)).expect("read back");
            assert!(!contents.is_empty(), "{f} is empty");
        }
        let list = fs::read_to_string(dir.join("files.lst")).expect("list");
        assert!(list.contains("counter.vhd"));
        let tb = fs::read_to_string(dir.join("demo_tb.vhd")).expect("tb");
        assert!(tb.contains("assert count = to_unsigned(4, 4)"));
        let _ = Value::bits(4, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A counter that only ticks while its Bool input `go` holds, read
    /// through an FSM transition guard.
    fn guarded_component() -> Component {
        let c = Component::build("gated");
        let go = c.input("go", SigType::Bool).expect("in");
        let out = c.output("q", SigType::Bits(4)).expect("out");
        let r = c.reg("r", SigType::Bits(4)).expect("reg");
        let go_sig = c.read(go);
        let s = c.sfg("tick").expect("sfg");
        let q = c.q(r);
        s.drive(out, &q).expect("drive");
        s.next(r, &(q.clone() + c.const_bits(4, 1))).expect("next");
        let fsm = c.fsm().expect("fsm");
        let s0 = fsm.initial("s0").expect("s0");
        fsm.from(s0).when(&go_sig).run(s.id()).to(s0).expect("t");
        c.finish().expect("finish")
    }

    fn bool_driver() -> Component {
        let c = Component::build("driver");
        let out = c.output("go", SigType::Bool).expect("out");
        let s = c.sfg("main").expect("sfg");
        s.drive(out, &c.const_bool(true)).expect("drive");
        c.finish().expect("finish")
    }

    #[test]
    fn held_guard_conflict_is_a_typed_error() {
        // u0 reads its guard input from a primary input (not held);
        // u1 reads it from another component's output (held). One
        // shared `gated` entity cannot do both.
        let mut sb = System::build("mix");
        sb.input("go", SigType::Bool).expect("pi");
        let u0 = sb.add_component("u0", guarded_component()).expect("u0");
        let u1 = sb.add_component("u1", guarded_component()).expect("u1");
        let d = sb.add_component("d", bool_driver()).expect("d");
        sb.connect_input("go", u0, "go").expect("pi wire");
        sb.connect(d, "go", u1, "go").expect("wire");
        sb.output("q0", u0, "q").expect("po0");
        sb.output("q1", u1, "q").expect("po1");
        let sys = sb.finish().expect("system");

        let dir = std::env::temp_dir().join(format!("ocapi_conflict_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let conflict = CodegenError::HeldGuardConflict {
            component: "gated".to_owned(),
            port: "go".to_owned(),
        };
        assert_eq!(write_vhdl_project(&sys, None, &dir), Err(conflict.clone()));
        assert_eq!(
            write_verilog_project(&sys, None, &dir),
            Err(conflict.clone())
        );
        assert_eq!(vhdl::system_source(&sys), Err(conflict.clone()));
        assert_eq!(verilog::system_source(&sys), Err(conflict));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_instances_share_one_entity_file() {
        let mut sb = System::build("twin");
        sb.input("go", SigType::Bool).expect("pi");
        let u0 = sb.add_component("u0", guarded_component()).expect("u0");
        let u1 = sb.add_component("u1", guarded_component()).expect("u1");
        sb.connect_input("go", u0, "go").expect("w0");
        sb.connect_input("go", u1, "go").expect("w1");
        sb.output("q0", u0, "q").expect("po0");
        sb.output("q1", u1, "q").expect("po1");
        let sys = sb.finish().expect("system");

        let dir = std::env::temp_dir().join(format!("ocapi_twin_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let manifest = write_vhdl_project(&sys, None, &dir).expect("write");
        let entity_files: Vec<_> = manifest
            .files
            .iter()
            .filter(|f| f.as_str() == "gated.vhd")
            .collect();
        assert_eq!(entity_files.len(), 1, "one file per distinct component");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_verilog_project() {
        let dir = std::env::temp_dir().join(format!("ocapi_vprj_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut sim = InterpSim::new(demo_system()).expect("sim");
        sim.enable_trace();
        sim.run(3).expect("run");
        let manifest = write_verilog_project(sim.system(), Some(sim.trace()), &dir).expect("write");
        assert_eq!(
            manifest.files,
            vec!["demo.v".to_owned(), "demo_tb.v".to_owned()]
        );
        let v = fs::read_to_string(dir.join("demo.v")).expect("read");
        assert!(v.contains("module demo_top ("));
        let _ = fs::remove_dir_all(&dir);
    }
}
