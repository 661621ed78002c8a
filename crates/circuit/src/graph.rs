//! Circuit graphs: ports, gates and channel edges.
//!
//! The netlist is stored struct-of-arrays: node attributes live in flat
//! parallel vectors indexed by [`NodeId`], edge endpoints in parallel
//! vectors indexed by [`EdgeId`], and fanout adjacency in a CSR-style
//! (`out_start` offsets + `out_edges` indices) pair instead of one
//! `Vec<EdgeId>` allocation per node. Ids are compact `u32`, so a
//! million-gate netlist costs a handful of large allocations rather
//! than millions of small ones, and a clone-free `Arc` share between
//! sweep workers stays cache-friendly.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use ivl_core::channel::SimChannel;
use ivl_core::Bit;

use crate::error::CircuitError;
use crate::gate::GateKind;

/// Identifier of a circuit node (input port, output port or gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of the node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a circuit edge (a channel or a direct port connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// The raw index of the edge.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NodeKind {
    /// An input port: a source whose signal the test bench provides.
    Input,
    /// An output port: a sink with a single implicit pin.
    Output,
    /// A zero-time Boolean gate with an initial output value.
    Gate {
        /// The Boolean function.
        kind: GateKind,
        /// Number of input pins.
        arity: usize,
        /// Output value "until time 0" (the paper's initial value).
        initial: Bit,
    },
}

/// Compact per-node discriminant stored in the struct-of-arrays
/// topology; the full [`NodeKind`] is reconstructed on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeTag {
    Input,
    Output,
    Gate,
}

/// The immutable netlist of a [`Circuit`] in struct-of-arrays form:
/// parallel per-node attribute vectors, parallel per-edge endpoint
/// vectors, CSR fanout adjacency and the name index. Shared via `Arc`
/// between every clone of a circuit (and hence between all
/// scenario-sweep workers), so cloning a circuit copies only per-edge
/// channel state — never the topology.
pub(crate) struct Topology {
    // --- per node, indexed by NodeId ---
    pub(crate) node_names: Vec<String>,
    pub(crate) node_tags: Vec<NodeTag>,
    /// Boolean function per node; a `Buf` placeholder for ports.
    pub(crate) gate_kinds: Vec<GateKind>,
    /// Input-pin count: 0 for inputs, 1 for outputs, declared arity
    /// for gates.
    pub(crate) node_arity: Vec<u32>,
    /// Initial output value (the paper's value "until time 0");
    /// `Bit::Zero` placeholder for ports.
    pub(crate) node_initial: Vec<Bit>,
    /// CSR offsets into the flattened input-pin array: node `n`'s pins
    /// occupy `pin_start[n]..pin_start[n + 1]`.
    pub(crate) pin_start: Vec<u32>,
    // --- per edge, indexed by EdgeId ---
    pub(crate) edge_from: Vec<u32>,
    pub(crate) edge_to: Vec<u32>,
    pub(crate) edge_pin: Vec<u32>,
    // --- CSR fanout adjacency ---
    /// Node `n`'s outgoing edges are
    /// `out_edges[out_start[n]..out_start[n + 1]]`, in edge-creation
    /// order (the order the old per-node `Vec<EdgeId>` held them).
    pub(crate) out_start: Vec<u32>,
    pub(crate) out_edges: Vec<u32>,
    /// Input-port node ids, ascending.
    pub(crate) input_ports: Vec<u32>,
    pub(crate) names: Arc<HashMap<String, NodeId>>,
}

impl Topology {
    pub(crate) fn node_count(&self) -> usize {
        self.node_tags.len()
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.edge_from.len()
    }

    /// Outgoing edge indices of node `n`, in edge-creation order.
    pub(crate) fn outgoing(&self, n: usize) -> &[u32] {
        &self.out_edges[self.out_start[n] as usize..self.out_start[n + 1] as usize]
    }

    /// Range of node `n`'s pins in the flattened pin array.
    pub(crate) fn pin_range(&self, n: usize) -> Range<usize> {
        self.pin_start[n] as usize..self.pin_start[n + 1] as usize
    }

    /// Reconstructs the full [`NodeKind`] of node `n`.
    pub(crate) fn node_kind(&self, n: usize) -> NodeKind {
        match self.node_tags[n] {
            NodeTag::Input => NodeKind::Input,
            NodeTag::Output => NodeKind::Output,
            NodeTag::Gate => NodeKind::Gate {
                kind: self.gate_kinds[n].clone(),
                arity: self.node_arity[n] as usize,
                initial: self.node_initial[n],
            },
        }
    }
}

// builder-internal representation before the topology/channel split
enum Connection {
    Direct,
    Channel(Box<dyn SimChannel>),
}

/// Incremental circuit constructor.
///
/// Nodes are created with [`input`](CircuitBuilder::input),
/// [`output`](CircuitBuilder::output) and [`gate`](CircuitBuilder::gate);
/// connections with [`connect`](CircuitBuilder::connect) (through a
/// channel) or [`connect_direct`](CircuitBuilder::connect_direct)
/// (zero-delay, only next to ports). [`build`](CircuitBuilder::build)
/// validates the paper's well-formedness rules: every gate input pin and
/// output port is driven by exactly one connection, and gates and
/// channels alternate.
///
/// Validation is incremental and scale-friendly: double driving is
/// caught at connect time through an O(1) driven-pin set, and the
/// final unconnected-pin sweep is a single O(nodes + edges) pass —
/// no quadratic rescans, so million-gate netlists build in linear time.
pub struct CircuitBuilder {
    node_names: Vec<String>,
    node_tags: Vec<NodeTag>,
    gate_kinds: Vec<GateKind>,
    node_arity: Vec<u32>,
    node_initial: Vec<Bit>,
    edge_from: Vec<u32>,
    edge_to: Vec<u32>,
    edge_pin: Vec<u32>,
    conns: Vec<Connection>,
    names: HashMap<String, NodeId>,
    /// `(to, pin)` pairs already driven — O(1) double-driver checks.
    driven: HashSet<(u32, u32)>,
    deferred_error: Option<CircuitError>,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        CircuitBuilder {
            node_names: Vec::new(),
            node_tags: Vec::new(),
            gate_kinds: Vec::new(),
            node_arity: Vec::new(),
            node_initial: Vec::new(),
            edge_from: Vec::new(),
            edge_to: Vec::new(),
            edge_pin: Vec::new(),
            conns: Vec::new(),
            names: HashMap::new(),
            driven: HashSet::new(),
            deferred_error: None,
        }
    }

    fn add_node(
        &mut self,
        name: &str,
        tag: NodeTag,
        gate_kind: GateKind,
        arity: u32,
        initial: Bit,
    ) -> NodeId {
        let id = NodeId(u32::try_from(self.node_tags.len()).expect("more than u32::MAX nodes"));
        if self.names.insert(name.to_owned(), id).is_some() && self.deferred_error.is_none() {
            self.deferred_error = Some(CircuitError::DuplicateName {
                name: name.to_owned(),
            });
        }
        self.node_names.push(name.to_owned());
        self.node_tags.push(tag);
        self.gate_kinds.push(gate_kind);
        self.node_arity.push(arity);
        self.node_initial.push(initial);
        id
    }

    /// Adds an input port.
    pub fn input(&mut self, name: &str) -> NodeId {
        self.add_node(name, NodeTag::Input, GateKind::Buf, 0, Bit::Zero)
    }

    /// Adds an output port.
    pub fn output(&mut self, name: &str) -> NodeId {
        self.add_node(name, NodeTag::Output, GateKind::Buf, 1, Bit::Zero)
    }

    /// Adds a gate with the kind's default arity.
    pub fn gate(&mut self, name: &str, kind: GateKind, initial: Bit) -> NodeId {
        let arity = kind.default_arity();
        self.gate_with_arity(name, kind, initial, arity)
    }

    /// Adds a gate with an explicit input count.
    pub fn gate_with_arity(
        &mut self,
        name: &str,
        kind: GateKind,
        initial: Bit,
        arity: usize,
    ) -> NodeId {
        if !kind.supports_arity(arity) && self.deferred_error.is_none() {
            self.deferred_error = Some(CircuitError::BadArity {
                name: name.to_owned(),
                arity,
            });
        }
        let arity = u32::try_from(arity).expect("gate arity exceeds u32::MAX");
        self.add_node(name, NodeTag::Gate, kind, arity, initial)
    }

    fn check_endpoints(&self, from: NodeId, to: NodeId, pin: usize) -> Result<(), CircuitError> {
        let from_tag = *self
            .node_tags
            .get(from.index())
            .ok_or(CircuitError::UnknownNode {
                index: from.index(),
            })?;
        let to_tag = *self
            .node_tags
            .get(to.index())
            .ok_or(CircuitError::UnknownNode { index: to.index() })?;
        if from_tag == NodeTag::Output {
            return Err(CircuitError::WrongPortDirection {
                name: self.node_names[from.index()].clone(),
            });
        }
        if to_tag == NodeTag::Input {
            return Err(CircuitError::WrongPortDirection {
                name: self.node_names[to.index()].clone(),
            });
        }
        let arity = self.node_arity[to.index()] as usize;
        if pin >= arity {
            return Err(CircuitError::PinOutOfRange {
                node: self.node_names[to.index()].clone(),
                pin,
                arity,
            });
        }
        #[allow(clippy::cast_possible_truncation)]
        if self.driven.contains(&(to.0, pin as u32)) {
            return Err(CircuitError::PinAlreadyDriven {
                node: self.node_names[to.index()].clone(),
                pin,
            });
        }
        Ok(())
    }

    #[allow(clippy::cast_possible_truncation)]
    fn push_edge(&mut self, from: NodeId, to: NodeId, pin: usize, conn: Connection) -> EdgeId {
        let id = EdgeId(u32::try_from(self.edge_from.len()).expect("more than u32::MAX edges"));
        self.edge_from.push(from.0);
        self.edge_to.push(to.0);
        self.edge_pin.push(pin as u32);
        self.driven.insert((to.0, pin as u32));
        self.conns.push(conn);
        id
    }

    /// Connects `from` to pin `pin` of `to` through `channel`.
    ///
    /// Any [`OnlineChannel`](ivl_core::channel::OnlineChannel) that is
    /// also `Clone + Send` qualifies (the [`SimChannel`] blanket impl);
    /// clonability lets [`Circuit`]s be duplicated across scenario-sweep
    /// worker threads.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes, out-of-range or doubly driven
    /// pins, or connections against port direction.
    pub fn connect<C>(
        &mut self,
        from: NodeId,
        to: NodeId,
        pin: usize,
        channel: C,
    ) -> Result<EdgeId, CircuitError>
    where
        C: SimChannel + 'static,
    {
        self.check_endpoints(from, to, pin)?;
        Ok(self.push_edge(from, to, pin, Connection::Channel(Box::new(channel))))
    }

    /// Connects `from` to pin `pin` of `to` through an already-boxed
    /// channel — the dynamic-dispatch twin of
    /// [`connect`](CircuitBuilder::connect), for callers that source
    /// channels from a factory (the parametric topology
    /// [`generate`](crate::generate) functions, spec-driven netlists).
    /// Avoids wrapping the box in a second box.
    ///
    /// # Errors
    ///
    /// As [`connect`](CircuitBuilder::connect).
    pub fn connect_boxed(
        &mut self,
        from: NodeId,
        to: NodeId,
        pin: usize,
        channel: Box<dyn SimChannel>,
    ) -> Result<EdgeId, CircuitError> {
        self.check_endpoints(from, to, pin)?;
        Ok(self.push_edge(from, to, pin, Connection::Channel(channel)))
    }

    /// Connects `from` to pin `pin` of `to` with zero delay. At least one
    /// endpoint must be a port (gates and channels must alternate).
    ///
    /// # Errors
    ///
    /// As [`connect`](CircuitBuilder::connect), plus
    /// [`CircuitError::DirectBetweenGates`] if both endpoints are gates.
    pub fn connect_direct(
        &mut self,
        from: NodeId,
        to: NodeId,
        pin: usize,
    ) -> Result<EdgeId, CircuitError> {
        self.check_endpoints(from, to, pin)?;
        if self.node_tags[from.index()] == NodeTag::Gate
            && self.node_tags[to.index()] == NodeTag::Gate
        {
            return Err(CircuitError::DirectBetweenGates {
                from: self.node_names[from.index()].clone(),
                to: self.node_names[to.index()].clone(),
            });
        }
        Ok(self.push_edge(from, to, pin, Connection::Direct))
    }

    /// Validates and finalizes the circuit.
    ///
    /// # Errors
    ///
    /// Returns the first well-formedness violation: duplicate names, bad
    /// gate arities, or unconnected gate pins / output ports.
    #[allow(clippy::cast_possible_truncation)]
    pub fn build(self) -> Result<Circuit, CircuitError> {
        if let Some(err) = self.deferred_error {
            return Err(err);
        }
        let n = self.node_tags.len();
        // flattened-pin CSR offsets (inputs contribute 0 pins)
        let mut pin_start = Vec::with_capacity(n + 1);
        pin_start.push(0u32);
        let mut total = 0u32;
        for &a in &self.node_arity {
            total = total.checked_add(a).expect("more than u32::MAX input pins");
            pin_start.push(total);
        }
        // every gate pin and output port must be driven (exactly once —
        // double driving was rejected at connect time): one linear mark
        // pass over the edges, one linear sweep over the pins
        let mut pin_driven = vec![false; total as usize];
        for (i, &to) in self.edge_to.iter().enumerate() {
            pin_driven[(pin_start[to as usize] + self.edge_pin[i]) as usize] = true;
        }
        for (node, &arity) in self.node_arity.iter().enumerate() {
            let base = pin_start[node];
            for pin in 0..arity {
                if !pin_driven[(base + pin) as usize] {
                    return Err(CircuitError::UnconnectedPin {
                        node: self.node_names[node].clone(),
                        pin: pin as usize,
                    });
                }
            }
        }
        // CSR fanout adjacency by counting sort: preserves edge-creation
        // order within each source node
        let e = self.edge_from.len();
        let mut out_start = vec![0u32; n + 1];
        for &f in &self.edge_from {
            out_start[f as usize + 1] += 1;
        }
        for i in 0..n {
            out_start[i + 1] += out_start[i];
        }
        let mut cursor = out_start.clone();
        let mut out_edges = vec![0u32; e];
        for (i, &f) in self.edge_from.iter().enumerate() {
            out_edges[cursor[f as usize] as usize] = i as u32;
            cursor[f as usize] += 1;
        }
        let input_ports = (0..n as u32)
            .filter(|&i| self.node_tags[i as usize] == NodeTag::Input)
            .collect();
        let channels = self
            .conns
            .into_iter()
            .map(|c| match c {
                Connection::Direct => None,
                Connection::Channel(ch) => Some(ch),
            })
            .collect();
        Ok(Circuit {
            topo: Arc::new(Topology {
                node_names: self.node_names,
                node_tags: self.node_tags,
                gate_kinds: self.gate_kinds,
                node_arity: self.node_arity,
                node_initial: self.node_initial,
                pin_start,
                edge_from: self.edge_from,
                edge_to: self.edge_to,
                edge_pin: self.edge_pin,
                out_start,
                out_edges,
                input_ports,
                names: Arc::new(self.names),
            }),
            channels,
        })
    }
}

impl Default for CircuitBuilder {
    fn default() -> Self {
        CircuitBuilder::new()
    }
}

impl fmt::Debug for CircuitBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CircuitBuilder")
            .field("nodes", &self.node_tags.len())
            .field("edges", &self.edge_from.len())
            .finish_non_exhaustive()
    }
}

/// A validated circuit, ready to simulate.
///
/// A circuit is two layers: an immutable, `Arc`-shared netlist (flat
/// node-attribute arrays, edge endpoints, CSR adjacency, name index)
/// and per-instance channel state (`Box<dyn SimChannel>` per channel
/// edge, `None` for direct connections). Cloning deep-copies only the
/// channels — their single-history and noise/RNG state is what makes
/// clones simulate independently — while every clone keeps pointing at
/// the *same* netlist allocation. This is what lets the parallel
/// [`ScenarioRunner`](crate::ScenarioRunner) hand each worker its own
/// circuit without duplicating a million-gate topology per worker.
pub struct Circuit {
    pub(crate) topo: Arc<Topology>,
    /// Mutable per-edge channel state; `None` for direct connections.
    /// Indexed by [`EdgeId`], in lockstep with the topology's edge
    /// arrays.
    pub(crate) channels: Vec<Option<Box<dyn SimChannel>>>,
}

impl Clone for Circuit {
    fn clone(&self) -> Self {
        Circuit {
            topo: Arc::clone(&self.topo),
            channels: self.channels.clone(),
        }
    }
}

impl Circuit {
    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.topo.node_count()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.topo.edge_count()
    }

    /// Looks a node up by name.
    #[must_use]
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.topo.names.get(name).copied()
    }

    /// The node's name.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    #[must_use]
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.topo.node_names[id.index()]
    }

    /// The node's kind, reconstructed from the packed attribute arrays.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    #[must_use]
    pub fn node_kind(&self, id: NodeId) -> NodeKind {
        self.topo.node_kind(id.index())
    }

    /// Names of every node (ports and gates), in creation order.
    #[must_use]
    pub fn node_names(&self) -> Vec<&str> {
        self.topo.node_names.iter().map(String::as_str).collect()
    }

    /// Names of all input ports, in creation order.
    #[must_use]
    pub fn input_names(&self) -> Vec<&str> {
        self.port_names(NodeTag::Input)
    }

    /// Names of all output ports, in creation order.
    #[must_use]
    pub fn output_names(&self) -> Vec<&str> {
        self.port_names(NodeTag::Output)
    }

    fn port_names(&self, tag: NodeTag) -> Vec<&str> {
        self.topo
            .node_tags
            .iter()
            .zip(&self.topo.node_names)
            .filter(|(t, _)| **t == tag)
            .map(|(_, n)| n.as_str())
            .collect()
    }

    /// Source, target and pin of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    #[must_use]
    pub fn edge_endpoints(&self, id: EdgeId) -> (NodeId, NodeId, usize) {
        let i = id.index();
        (
            NodeId(self.topo.edge_from[i]),
            NodeId(self.topo.edge_to[i]),
            self.topo.edge_pin[i] as usize,
        )
    }

    /// `true` if `self` and `other` were cloned from the same build and
    /// still share one netlist allocation (`Arc` pointer equality on the
    /// topology). Scenario-sweep workers rely on this: a sweep over any
    /// number of workers holds exactly one copy of the topology.
    #[must_use]
    pub fn shares_topology_with(&self, other: &Circuit) -> bool {
        Arc::ptr_eq(&self.topo, &other.topo)
    }

    /// Replaces the channel on an existing channel edge, keeping the
    /// topology (endpoints, pin, ids) intact. This is how callers swap
    /// an adversary/noise source into a prebuilt circuit without
    /// rebuilding the netlist (e.g. the SPF circuit's per-run noise).
    /// The channel lives outside the `Arc`-shared netlist, so the swap
    /// touches one box pointer — no part of the topology is cloned.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit or refers to a
    /// direct (channel-free) connection — a direct edge can never
    /// legally carry a channel, because gates and channels alternate.
    pub fn replace_channel(&mut self, id: EdgeId, channel: Box<dyn SimChannel>) {
        let slot = &mut self.channels[id.index()];
        assert!(
            slot.is_some(),
            "edge {} is a direct connection, not a channel",
            id.0
        );
        *slot = Some(channel);
    }

    /// Number of live circuit clones (including this one) sharing this
    /// circuit's topology allocation. Worker-pool tests use this to pin
    /// that discarded pools *join* their threads (each worker holds
    /// clones) instead of leaking them.
    #[doc(hidden)]
    #[must_use]
    pub fn topology_refs(&self) -> usize {
        Arc::strong_count(&self.topo)
    }

    /// The lowest-index edge that carries a channel, if any.
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn first_channel_edge(&self) -> Option<EdgeId> {
        self.channels
            .iter()
            .position(Option::is_some)
            .map(|i| EdgeId(i as u32))
    }

    /// A fresh box of the channel on `id`, if `id` carries one.
    pub(crate) fn clone_channel(&self, id: EdgeId) -> Option<Box<dyn SimChannel>> {
        self.channels.get(id.index()).and_then(Clone::clone)
    }
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Circuit")
            .field("nodes", &self.topo.node_count())
            .field("edges", &self.topo.edge_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_core::channel::PureDelay;

    fn delay() -> PureDelay {
        PureDelay::new(1.0).unwrap()
    }

    #[test]
    fn builds_simple_pipeline() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("inv", GateKind::Not, Bit::One);
        let y = b.output("y");
        b.connect_direct(a, g, 0).unwrap();
        b.connect(g, y, 0, delay()).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.edge_count(), 2);
        assert_eq!(c.node("inv"), Some(g));
        assert_eq!(c.node_name(g), "inv");
        assert_eq!(c.input_names(), vec!["a"]);
        assert_eq!(c.output_names(), vec!["y"]);
        assert!(matches!(c.node_kind(g), NodeKind::Gate { .. }));
        assert_eq!(c.edge_endpoints(EdgeId(0)), (a, g, 0));
    }

    #[test]
    fn csr_adjacency_matches_creation_order() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let root = b.gate("root", GateKind::Buf, Bit::Zero);
        b.connect_direct(a, root, 0).unwrap();
        let mut expect = Vec::new();
        for i in 0..4 {
            let g = b.gate(&format!("g{i}"), GateKind::Buf, Bit::Zero);
            expect.push(b.connect(root, g, 0, delay()).unwrap());
            let y = b.output(&format!("y{i}"));
            b.connect(g, y, 0, delay()).unwrap();
        }
        let c = b.build().unwrap();
        let got: Vec<u32> = c.topo.outgoing(root.index()).to_vec();
        let want: Vec<u32> = expect.iter().map(|e| e.0).collect();
        assert_eq!(got, want, "fanout must keep edge-creation order");
        // pin ranges: input has none, gates and outputs have one
        assert_eq!(c.topo.pin_range(a.index()).len(), 0);
        assert_eq!(c.topo.pin_range(root.index()).len(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = CircuitBuilder::new();
        b.input("x");
        b.output("x");
        assert!(matches!(b.build(), Err(CircuitError::DuplicateName { .. })));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut b = CircuitBuilder::new();
        b.gate_with_arity("n", GateKind::Not, Bit::Zero, 2);
        assert!(matches!(b.build(), Err(CircuitError::BadArity { .. })));
    }

    #[test]
    fn unconnected_pin_rejected() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("and", GateKind::And, Bit::Zero); // 2 pins
        let y = b.output("y");
        b.connect_direct(a, g, 0).unwrap();
        b.connect(g, y, 0, delay()).unwrap();
        assert!(matches!(
            b.build(),
            Err(CircuitError::UnconnectedPin { pin: 1, .. })
        ));
    }

    #[test]
    fn unconnected_output_rejected() {
        let mut b = CircuitBuilder::new();
        b.input("a");
        b.output("y");
        assert!(matches!(
            b.build(),
            Err(CircuitError::UnconnectedPin { .. })
        ));
    }

    #[test]
    fn double_driver_rejected_immediately() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let c = b.input("c");
        let g = b.gate("inv", GateKind::Not, Bit::One);
        b.connect_direct(a, g, 0).unwrap();
        assert!(matches!(
            b.connect_direct(c, g, 0),
            Err(CircuitError::PinAlreadyDriven { .. })
        ));
    }

    #[test]
    fn pin_out_of_range_rejected() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("inv", GateKind::Not, Bit::One);
        assert!(matches!(
            b.connect_direct(a, g, 1),
            Err(CircuitError::PinOutOfRange { .. })
        ));
        let y = b.output("y");
        assert!(matches!(
            b.connect(g, y, 1, delay()),
            Err(CircuitError::PinOutOfRange { .. })
        ));
    }

    #[test]
    fn direct_between_gates_rejected() {
        let mut b = CircuitBuilder::new();
        let g1 = b.gate("g1", GateKind::Not, Bit::One);
        let g2 = b.gate("g2", GateKind::Not, Bit::Zero);
        assert!(matches!(
            b.connect_direct(g1, g2, 0),
            Err(CircuitError::DirectBetweenGates { .. })
        ));
        // but a channel between gates is fine
        assert!(b.connect(g1, g2, 0, delay()).is_ok());
    }

    #[test]
    fn port_direction_enforced() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let y = b.output("y");
        let g = b.gate("inv", GateKind::Not, Bit::One);
        assert!(matches!(
            b.connect(y, g, 0, delay()),
            Err(CircuitError::WrongPortDirection { .. })
        ));
        assert!(matches!(
            b.connect(g, a, 0, delay()),
            Err(CircuitError::WrongPortDirection { .. })
        ));
        // port-to-port direct wire-through is allowed
        assert!(b.connect_direct(a, y, 0).is_ok());
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let ghost = NodeId(99);
        assert!(matches!(
            b.connect_direct(a, ghost, 0),
            Err(CircuitError::UnknownNode { .. })
        ));
    }

    #[test]
    fn feedback_loop_is_legal() {
        let mut b = CircuitBuilder::new();
        let i = b.input("i");
        let or = b.gate("or", GateKind::Or, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(i, or, 0).unwrap();
        b.connect(or, or, 1, delay()).unwrap(); // feedback
        b.connect(or, y, 0, delay()).unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn debug_impls() {
        let b = CircuitBuilder::new();
        assert!(!format!("{b:?}").is_empty());
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let y = b.output("y");
        b.connect_direct(a, y, 0).unwrap();
        let c = b.build().unwrap();
        assert!(!format!("{c:?}").is_empty());
        assert_eq!(NodeId(3).index(), 3);
        assert_eq!(EdgeId(2).index(), 2);
    }
}
