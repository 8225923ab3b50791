//! Systems: interconnected timed components and untimed blocks.
//!
//! A system is the unit of simulation (§2 of the paper): a set of
//! concurrent processes exchanging data signals over nets, plus primary
//! inputs driven by the testbench and primary outputs it observes.

use std::collections::HashMap;

use crate::blocks::UntimedBlock;
use crate::comp::{Component, PortDecl};
use crate::value::{SigType, Value};
use crate::CoreError;

/// Opaque reference to an instance within a system under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceId {
    kind: InstKind,
    idx: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum InstKind {
    Timed,
    Untimed,
}

/// What drives a net.
#[derive(Debug, Clone, PartialEq)]
pub enum NetSource {
    /// A primary input (index into [`System::primary_inputs`]).
    PrimaryInput(usize),
    /// An output port of a timed component.
    TimedOut {
        /// Index into [`System::timed`].
        inst: usize,
        /// Output-port index within the component.
        port: usize,
    },
    /// An output port of an untimed block.
    UntimedOut {
        /// Index into [`System::untimed`].
        inst: usize,
        /// Output-port index within the block.
        port: usize,
    },
    /// A constant tie-off.
    Constant(Value),
}

/// A sink of a net: some instance's input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetSink {
    /// Input of a timed component.
    TimedIn {
        /// Index into [`System::timed`].
        inst: usize,
        /// Input-port index within the component.
        port: usize,
    },
    /// Input of an untimed block.
    UntimedIn {
        /// Index into [`System::untimed`].
        inst: usize,
        /// Input-port index within the block.
        port: usize,
    },
}

/// A point-to-multipoint connection carrying one signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Display name (`instance.port` or the primary-input name).
    pub name: String,
    /// The carried type.
    pub ty: SigType,
    /// The driver.
    pub source: NetSource,
    /// The connected inputs.
    pub sinks: Vec<NetSink>,
}

/// A timed component instantiated in a system.
#[derive(Debug)]
pub struct TimedInstance {
    /// Instance name.
    pub name: String,
    /// The component description.
    pub comp: Component,
}

/// An untimed block instantiated in a system.
pub struct UntimedInstance {
    /// The block (its [`UntimedBlock::name`] is the instance name).
    pub block: Box<dyn UntimedBlock>,
    /// Cached input port declarations.
    pub inputs: Vec<PortDecl>,
    /// Cached output port declarations.
    pub outputs: Vec<PortDecl>,
}

impl std::fmt::Debug for UntimedInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UntimedInstance({})", self.block.name())
    }
}

/// A declared primary input.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimaryInput {
    /// Name used by [`crate::sim::Simulator::set_input`].
    pub name: String,
    /// Carried type.
    pub ty: SigType,
    /// The net this input drives.
    pub net: usize,
}

/// A declared primary output.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimaryOutput {
    /// Name used by [`crate::sim::Simulator::output`].
    pub name: String,
    /// The observed net.
    pub net: usize,
}

/// A finished system, ready for simulation, code generation or synthesis.
#[derive(Debug)]
pub struct System {
    /// System name.
    pub name: String,
    /// Timed component instances.
    pub timed: Vec<TimedInstance>,
    /// Untimed block instances.
    pub untimed: Vec<UntimedInstance>,
    /// The interconnect.
    pub nets: Vec<Net>,
    /// Primary inputs.
    pub primary_inputs: Vec<PrimaryInput>,
    /// Primary outputs.
    pub primary_outputs: Vec<PrimaryOutput>,
    /// Per timed instance and input port: the driving net.
    pub(crate) timed_in_net: Vec<Vec<usize>>,
    /// Per untimed instance and input port: the driving net.
    pub(crate) untimed_in_net: Vec<Vec<usize>>,
    /// Per output port, the timed instances' ports first and then the
    /// untimed ones': the driven net, if any.
    pub(crate) out_net: Vec<Option<usize>>,
    /// Per instance, timed then untimed: its first port's index in
    /// `out_net`.
    pub(crate) out_base: Vec<usize>,
}

impl System {
    /// Starts describing a new system.
    pub fn build(name: &str) -> SystemBuilder {
        SystemBuilder {
            name: name.to_owned(),
            timed: Vec::new(),
            untimed: Vec::new(),
            names: HashMap::new(),
            primary_inputs: Vec::new(),
            connections: Vec::new(),
            primary_outputs: Vec::new(),
            ties: Vec::new(),
        }
    }

    /// The net driving a timed instance's input port.
    pub fn timed_input_net(&self, inst: usize, port: usize) -> usize {
        self.timed_in_net[inst][port]
    }

    /// The net driving an untimed instance's input port.
    pub fn untimed_input_net(&self, inst: usize, port: usize) -> usize {
        self.untimed_in_net[inst][port]
    }

    /// The net a timed instance's output port drives; `None` when no
    /// input or primary output reads the port.
    pub fn timed_output_net(&self, inst: usize, port: usize) -> Option<usize> {
        self.out_net[self.out_base[inst] + port]
    }

    /// The net an untimed instance's output port drives; `None` when no
    /// input or primary output reads the port.
    pub fn untimed_output_net(&self, inst: usize, port: usize) -> Option<usize> {
        self.out_net[self.out_base[self.timed.len() + inst] + port]
    }

    /// The input ports of timed instance `inst` that an FSM transition
    /// guard reads through a register, sorted: those feeding a guard and
    /// driven by neither a primary input nor a constant.
    ///
    /// The cycle scheduler evaluates guards before any component drives
    /// its outputs, so a guard sees an internally driven input as it was
    /// last cycle, while a primary input or a tie-off is already stable.
    /// Every RT-level and gate-level model reproduces that by sampling
    /// exactly these ports into a held register.
    pub fn guard_held_inputs(&self, inst: usize) -> Vec<usize> {
        let mut ports = self.timed[inst].comp.guard_inputs();
        ports.retain(|&p| {
            !matches!(
                self.nets[self.timed_in_net[inst][p]].source,
                NetSource::PrimaryInput(_) | NetSource::Constant(_)
            )
        });
        ports
    }

    /// Total number of gates-of-state: registers plus FSM state bits,
    /// summed over timed instances — a rough size indicator used in
    /// reports.
    pub fn register_count(&self) -> usize {
        self.timed
            .iter()
            .map(|t| {
                t.comp.regs.len()
                    + t.comp
                        .fsm
                        .as_ref()
                        .map(|f| f.states.len().next_power_of_two().trailing_zeros() as usize)
                        .unwrap_or(0)
            })
            .sum()
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SrcKey {
    Primary(usize),
    Timed(usize, usize),
    Untimed(usize, usize),
    Tie(usize),
}

/// Builder for a [`System`].
pub struct SystemBuilder {
    name: String,
    timed: Vec<TimedInstance>,
    untimed: Vec<UntimedInstance>,
    names: HashMap<String, InstanceId>,
    primary_inputs: Vec<(String, SigType)>,
    connections: Vec<(SrcKey, NetSink)>,
    primary_outputs: Vec<(String, SrcKey)>,
    ties: Vec<Value>,
}

impl SystemBuilder {
    /// Adds a timed component under an instance name.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] on an instance-name clash.
    pub fn add_component(&mut self, name: &str, comp: Component) -> Result<InstanceId, CoreError> {
        let id = InstanceId {
            kind: InstKind::Timed,
            idx: self.timed.len() as u32,
        };
        self.claim_name(name, id)?;
        self.timed.push(TimedInstance {
            name: name.to_owned(),
            comp,
        });
        Ok(id)
    }

    /// Adds an untimed block (named by [`UntimedBlock::name`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] on an instance-name clash.
    pub fn add_block(&mut self, block: Box<dyn UntimedBlock>) -> Result<InstanceId, CoreError> {
        let id = InstanceId {
            kind: InstKind::Untimed,
            idx: self.untimed.len() as u32,
        };
        self.claim_name(block.name(), id)?;
        let inputs = block.input_ports();
        let outputs = block.output_ports();
        self.untimed.push(UntimedInstance {
            block,
            inputs,
            outputs,
        });
        Ok(id)
    }

    /// Declares a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] on a name clash.
    pub fn input(&mut self, name: &str, ty: SigType) -> Result<(), CoreError> {
        if self.primary_inputs.iter().any(|(n, _)| n == name) {
            return Err(CoreError::DuplicateName {
                kind: "primary input",
                name: name.to_owned(),
            });
        }
        self.primary_inputs.push((name.to_owned(), ty));
        Ok(())
    }

    /// Connects a primary input to an instance input port.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] if the input or port does not
    /// exist, [`CoreError::TypeMismatch`] on a type conflict.
    pub fn connect_input(
        &mut self,
        input: &str,
        to: InstanceId,
        port: &str,
    ) -> Result<(), CoreError> {
        let pi = self
            .primary_inputs
            .iter()
            .position(|(n, _)| n == input)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "primary input",
                name: input.to_owned(),
            })?;
        let ty = self.primary_inputs[pi].1;
        let sink = self.resolve_sink(to, port, ty)?;
        self.connections.push((SrcKey::Primary(pi), sink));
        Ok(())
    }

    /// Connects an instance output port to another instance's input port.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] if a port does not exist,
    /// [`CoreError::TypeMismatch`] on a type conflict.
    pub fn connect(
        &mut self,
        from: InstanceId,
        from_port: &str,
        to: InstanceId,
        to_port: &str,
    ) -> Result<(), CoreError> {
        let (key, ty) = self.resolve_source(from, from_port)?;
        let sink = self.resolve_sink(to, to_port, ty)?;
        self.connections.push((key, sink));
        Ok(())
    }

    /// Ties an instance input to a constant value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] if the port does not exist,
    /// [`CoreError::TypeMismatch`] on a type conflict.
    pub fn tie(&mut self, to: InstanceId, port: &str, value: Value) -> Result<(), CoreError> {
        let sink = self.resolve_sink(to, port, value.sig_type())?;
        self.ties.push(value);
        self.connections
            .push((SrcKey::Tie(self.ties.len() - 1), sink));
        Ok(())
    }

    /// Declares a primary output observing an instance output port.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateName`] on a name clash and
    /// [`CoreError::UnknownName`] if the port does not exist.
    pub fn output(&mut self, name: &str, from: InstanceId, port: &str) -> Result<(), CoreError> {
        if self.primary_outputs.iter().any(|(n, _)| n == name) {
            return Err(CoreError::DuplicateName {
                kind: "primary output",
                name: name.to_owned(),
            });
        }
        let (key, _) = self.resolve_source(from, port)?;
        self.primary_outputs.push((name.to_owned(), key));
        Ok(())
    }

    /// Finishes the system: builds nets, checks that every instance input
    /// is driven exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnconnectedInput`] for undriven inputs and
    /// [`CoreError::ConnectionConflict`] for doubly-driven ones.
    pub fn finish(self) -> Result<System, CoreError> {
        let mut nets: Vec<Net> = Vec::new();
        let mut net_of: HashMap<SrcKey, usize> = HashMap::new();

        fn net_for(
            key: &SrcKey,
            nets: &mut Vec<Net>,
            net_of: &mut HashMap<SrcKey, usize>,
            builder: &SystemBuilder,
        ) -> usize {
            if let Some(&i) = net_of.get(key) {
                return i;
            }
            let (name, ty, source) = match key {
                SrcKey::Primary(i) => {
                    let (n, t) = &builder.primary_inputs[*i];
                    (n.clone(), *t, NetSource::PrimaryInput(*i))
                }
                SrcKey::Timed(inst, port) => {
                    let t = &builder.timed[*inst];
                    let p = &t.comp.outputs[*port];
                    (
                        format!("{}.{}", t.name, p.name),
                        p.ty,
                        NetSource::TimedOut {
                            inst: *inst,
                            port: *port,
                        },
                    )
                }
                SrcKey::Untimed(inst, port) => {
                    let u = &builder.untimed[*inst];
                    let p = &u.outputs[*port];
                    (
                        format!("{}.{}", u.block.name(), p.name),
                        p.ty,
                        NetSource::UntimedOut {
                            inst: *inst,
                            port: *port,
                        },
                    )
                }
                SrcKey::Tie(i) => {
                    let v = builder.ties[*i];
                    (format!("tie#{i}"), v.sig_type(), NetSource::Constant(v))
                }
            };
            nets.push(Net {
                name,
                ty,
                source,
                sinks: Vec::new(),
            });
            net_of.insert(key.clone(), nets.len() - 1);
            nets.len() - 1
        }

        let mut timed_in_net: Vec<Vec<Option<usize>>> = self
            .timed
            .iter()
            .map(|t| vec![None; t.comp.inputs.len()])
            .collect();
        let mut untimed_in_net: Vec<Vec<Option<usize>>> = self
            .untimed
            .iter()
            .map(|u| vec![None; u.inputs.len()])
            .collect();

        for (key, sink) in &self.connections {
            let net = net_for(key, &mut nets, &mut net_of, &self);
            let slot = match sink {
                NetSink::TimedIn { inst, port } => &mut timed_in_net[*inst][*port],
                NetSink::UntimedIn { inst, port } => &mut untimed_in_net[*inst][*port],
            };
            if slot.is_some() {
                return Err(CoreError::ConnectionConflict {
                    endpoint: self.sink_name(sink),
                });
            }
            *slot = Some(net);
            nets[net].sinks.push(*sink);
        }

        // Every input must be driven; the conversion to plain net
        // indices doubles as the check.
        let timed_in_net: Vec<Vec<usize>> = timed_in_net
            .into_iter()
            .enumerate()
            .map(|(inst, ports)| {
                ports
                    .into_iter()
                    .enumerate()
                    .map(|(port, net)| {
                        net.ok_or_else(|| CoreError::UnconnectedInput {
                            instance: self.timed[inst].name.clone(),
                            port: self.timed[inst].comp.inputs[port].name.clone(),
                        })
                    })
                    .collect::<Result<_, _>>()
            })
            .collect::<Result<_, _>>()?;
        let untimed_in_net: Vec<Vec<usize>> = untimed_in_net
            .into_iter()
            .enumerate()
            .map(|(inst, ports)| {
                ports
                    .into_iter()
                    .enumerate()
                    .map(|(port, net)| {
                        net.ok_or_else(|| CoreError::UnconnectedInput {
                            instance: self.untimed[inst].block.name().to_owned(),
                            port: self.untimed[inst].inputs[port].name.clone(),
                        })
                    })
                    .collect::<Result<_, _>>()
            })
            .collect::<Result<_, _>>()?;

        // Primary inputs always get a net, even unconnected ones (so the
        // testbench can still set them and traces can record them).
        for i in 0..self.primary_inputs.len() {
            net_for(&SrcKey::Primary(i), &mut nets, &mut net_of, &self);
        }

        let primary_inputs = self
            .primary_inputs
            .iter()
            .enumerate()
            .map(|(i, (name, ty))| PrimaryInput {
                name: name.clone(),
                ty: *ty,
                net: net_of[&SrcKey::Primary(i)],
            })
            .collect();

        let primary_outputs = self
            .primary_outputs
            .iter()
            .map(|(name, key)| {
                let net = net_for(key, &mut nets, &mut net_of, &self);
                PrimaryOutput {
                    name: name.clone(),
                    net,
                }
            })
            .collect();

        let port_counts = (self.timed.iter().map(|t| t.comp.outputs.len()))
            .chain(self.untimed.iter().map(|u| u.outputs.len()));
        let mut out_base = Vec::with_capacity(self.timed.len() + self.untimed.len());
        let mut n_ports = 0;
        for n in port_counts {
            out_base.push(n_ports);
            n_ports += n;
        }
        let mut out_net = vec![None; n_ports];
        for (i, net) in nets.iter().enumerate() {
            let slot = match net.source {
                NetSource::TimedOut { inst, port } => out_base[inst] + port,
                NetSource::UntimedOut { inst, port } => out_base[self.timed.len() + inst] + port,
                _ => continue,
            };
            out_net[slot] = Some(i);
        }

        Ok(System {
            name: self.name,
            timed: self.timed,
            untimed: self.untimed,
            nets,
            primary_inputs,
            primary_outputs,
            timed_in_net,
            untimed_in_net,
            out_net,
            out_base,
        })
    }

    fn claim_name(&mut self, name: &str, id: InstanceId) -> Result<(), CoreError> {
        if self.names.contains_key(name) {
            return Err(CoreError::DuplicateName {
                kind: "instance",
                name: name.to_owned(),
            });
        }
        self.names.insert(name.to_owned(), id);
        Ok(())
    }

    fn resolve_source(&self, from: InstanceId, port: &str) -> Result<(SrcKey, SigType), CoreError> {
        match from.kind {
            InstKind::Timed => {
                let inst = from.idx as usize;
                let comp = &self.timed[inst].comp;
                let p = comp
                    .outputs
                    .iter()
                    .position(|p| p.name == port)
                    .ok_or_else(|| CoreError::UnknownName {
                        kind: "output port",
                        name: format!("{}.{port}", self.timed[inst].name),
                    })?;
                Ok((SrcKey::Timed(inst, p), comp.outputs[p].ty))
            }
            InstKind::Untimed => {
                let inst = from.idx as usize;
                let u = &self.untimed[inst];
                let p = u
                    .outputs
                    .iter()
                    .position(|p| p.name == port)
                    .ok_or_else(|| CoreError::UnknownName {
                        kind: "output port",
                        name: format!("{}.{port}", u.block.name()),
                    })?;
                Ok((SrcKey::Untimed(inst, p), u.outputs[p].ty))
            }
        }
    }

    fn resolve_sink(&self, to: InstanceId, port: &str, ty: SigType) -> Result<NetSink, CoreError> {
        let (sink, pty, name) = match to.kind {
            InstKind::Timed => {
                let inst = to.idx as usize;
                let comp = &self.timed[inst].comp;
                let p = comp
                    .inputs
                    .iter()
                    .position(|p| p.name == port)
                    .ok_or_else(|| CoreError::UnknownName {
                        kind: "input port",
                        name: format!("{}.{port}", self.timed[inst].name),
                    })?;
                (
                    NetSink::TimedIn { inst, port: p },
                    comp.inputs[p].ty,
                    format!("{}.{port}", self.timed[inst].name),
                )
            }
            InstKind::Untimed => {
                let inst = to.idx as usize;
                let u = &self.untimed[inst];
                let p = u
                    .inputs
                    .iter()
                    .position(|p| p.name == port)
                    .ok_or_else(|| CoreError::UnknownName {
                        kind: "input port",
                        name: format!("{}.{port}", u.block.name()),
                    })?;
                (
                    NetSink::UntimedIn { inst, port: p },
                    u.inputs[p].ty,
                    format!("{}.{port}", u.block.name()),
                )
            }
        };
        if pty != ty {
            return Err(CoreError::TypeMismatch {
                op: format!("connect {name}"),
                left: pty,
                right: ty,
            });
        }
        Ok(sink)
    }

    fn sink_name(&self, sink: &NetSink) -> String {
        match sink {
            NetSink::TimedIn { inst, port } => format!(
                "{}.{}",
                self.timed[*inst].name, self.timed[*inst].comp.inputs[*port].name
            ),
            NetSink::UntimedIn { inst, port } => format!(
                "{}.{}",
                self.untimed[*inst].block.name(),
                self.untimed[*inst].inputs[*port].name
            ),
        }
    }
}
