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
//!
//! Names cost nothing per gate on a generated netlist: it stores its
//! [naming scheme](crate::generate::Family) and resolves names
//! arithmetically. A builder-made netlist keeps every name once, in one
//! buffer, with a name-sorted index for lookup.
//!
//! Channels are stored as prototypes: a small table of channels plus
//! one prototype index per edge (every edge of a generated netlist
//! shares one prototype). A circuit is never simulated in place — run
//! state lives in the [`Simulator`](crate::Simulator), which clones an
//! edge's prototype on the edge's first feed.

use std::borrow::Cow;
use std::collections::TryReserveError;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use ivl_core::channel::SimChannel;
use ivl_core::Bit;

use crate::error::CircuitError;
use crate::gate::GateKind;
use crate::generate::Family;

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

/// Prototype-index sentinel of a direct (channel-free) edge.
pub(crate) const DIRECT: u32 = u32::MAX;

/// The names of a builder-made netlist: every name once, concatenated
/// in node order, plus a name-sorted id index for lookup.
#[derive(Debug)]
pub(crate) struct NameTable {
    text: String,
    /// Node `n`'s name is `text[bounds[n]..bounds[n + 1]]`.
    bounds: Vec<usize>,
    /// Node ids sorted by name (ties by id); filled by `index`.
    sorted: Vec<u32>,
}

impl NameTable {
    fn new() -> Self {
        NameTable {
            text: String::new(),
            bounds: vec![0],
            sorted: Vec::new(),
        }
    }

    fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.bounds.push(self.text.len());
    }

    fn get(&self, id: usize) -> &str {
        &self.text[self.bounds[id]..self.bounds[id + 1]]
    }

    /// Builds the lookup index and returns the first node, in creation
    /// order, whose name an earlier node already has.
    #[allow(clippy::cast_possible_truncation)]
    fn index(&mut self) -> Option<usize> {
        let n = self.bounds.len() - 1;
        let mut sorted: Vec<u32> = (0..n as u32).collect();
        // stable: equal names keep ascending ids
        sorted.sort_by(|&a, &b| self.get(a as usize).cmp(self.get(b as usize)));
        let duplicate = sorted
            .windows(2)
            .filter(|w| self.get(w[0] as usize) == self.get(w[1] as usize))
            .map(|w| w[1] as usize)
            .min();
        self.sorted = sorted;
        duplicate
    }

    fn find(&self, name: &str) -> Option<NodeId> {
        let i = self
            .sorted
            .partition_point(|&id| self.get(id as usize) < name);
        let &id = self.sorted.get(i)?;
        (self.get(id as usize) == name).then_some(NodeId(id))
    }
}

/// How a netlist names its nodes: an interned table (builder-made) or
/// a generator's closed-form scheme. Shared by `Arc` between the
/// topology and every [`SimResult`](crate::SimResult) of its runs.
#[derive(Debug)]
pub(crate) enum Names {
    Table(NameTable),
    Generated(Family),
}

impl Names {
    pub(crate) fn find(&self, name: &str) -> Option<NodeId> {
        match self {
            Names::Table(t) => t.find(name),
            Names::Generated(f) => f.node_id(name),
        }
    }

    /// The name of node `id`, which must exist.
    pub(crate) fn name(&self, id: usize) -> Cow<'_, str> {
        match self {
            Names::Table(t) => Cow::Borrowed(t.get(id)),
            Names::Generated(f) => f.node_name(id),
        }
    }
}

/// The immutable netlist of a [`Circuit`] in struct-of-arrays form:
/// parallel per-node attribute vectors, parallel per-edge endpoint
/// vectors, CSR fanout adjacency, the names and each edge's prototype
/// index. Shared via `Arc` between every clone of a circuit (and hence
/// between all scenario-sweep workers).
pub(crate) struct Topology {
    pub(crate) names: Arc<Names>,
    // --- per node, indexed by NodeId ---
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
    /// Index into the circuit's prototype table; [`DIRECT`] for a
    /// direct connection.
    pub(crate) edge_proto: Vec<u32>,
    // --- CSR fanout adjacency ---
    /// Node `n`'s outgoing edges are
    /// `out_edges[out_start[n]..out_start[n + 1]]`, in edge-creation
    /// order (the order the old per-node `Vec<EdgeId>` held them).
    pub(crate) out_start: Vec<u32>,
    pub(crate) out_edges: Vec<u32>,
    /// Input-port node ids, ascending.
    pub(crate) input_ports: Vec<u32>,
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
/// Validation is incremental and scale-friendly: a node's pins get
/// their driven flags when the node is added, so double driving is
/// caught at connect time in O(1), and the final unconnected-pin sweep
/// is one scan of those flags — no quadratic rescans, so million-gate
/// netlists build in linear time.
pub struct CircuitBuilder {
    names: Names,
    node_tags: Vec<NodeTag>,
    gate_kinds: Vec<GateKind>,
    node_arity: Vec<u32>,
    node_initial: Vec<Bit>,
    /// Flattened-pin CSR offsets, one entry ahead of the nodes.
    pin_start: Vec<u32>,
    /// Per flattened pin: whether a connection drives it.
    pin_driven: Vec<bool>,
    edge_from: Vec<u32>,
    edge_to: Vec<u32>,
    edge_pin: Vec<u32>,
    edge_proto: Vec<u32>,
    protos: Vec<Box<dyn SimChannel>>,
    /// The first bad arity, with the node it was declared on.
    bad_arity: Option<(usize, CircuitError)>,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        CircuitBuilder {
            names: Names::Table(NameTable::new()),
            node_tags: Vec::new(),
            gate_kinds: Vec::new(),
            node_arity: Vec::new(),
            node_initial: Vec::new(),
            pin_start: vec![0],
            pin_driven: Vec::new(),
            edge_from: Vec::new(),
            edge_to: Vec::new(),
            edge_pin: Vec::new(),
            edge_proto: Vec::new(),
            protos: Vec::new(),
            bad_arity: None,
        }
    }

    /// A builder for a netlist of `family` whose channel edges all
    /// share `prototype`, with room for exactly `nodes` nodes and at
    /// most `edges` edges (and as many pins) reserved up front. Node
    /// names come from the family's scheme, so the ones passed to
    /// [`input`](CircuitBuilder::input) and
    /// [`output`](CircuitBuilder::output) are not stored.
    pub(crate) fn generated(
        family: Family,
        prototype: Box<dyn SimChannel>,
        nodes: u32,
        edges: u32,
    ) -> Result<Self, CircuitError> {
        let mut b = CircuitBuilder::new();
        b.names = Names::Generated(family);
        b.protos.push(prototype);
        let refused = |what: &'static str, requested: u32| {
            move |_: TryReserveError| CircuitError::TooLarge {
                what,
                requested: u64::from(requested),
                limit: None,
            }
        };
        let (n, e) = (nodes as usize, edges as usize);
        let node_err = refused("nodes", nodes);
        b.node_tags.try_reserve_exact(n).map_err(node_err)?;
        b.gate_kinds.try_reserve_exact(n).map_err(node_err)?;
        b.node_arity.try_reserve_exact(n).map_err(node_err)?;
        b.node_initial.try_reserve_exact(n).map_err(node_err)?;
        b.pin_start.try_reserve_exact(n).map_err(node_err)?;
        let edge_err = refused("edges", edges);
        b.pin_driven.try_reserve_exact(e).map_err(edge_err)?;
        b.edge_from.try_reserve_exact(e).map_err(edge_err)?;
        b.edge_to.try_reserve_exact(e).map_err(edge_err)?;
        b.edge_pin.try_reserve_exact(e).map_err(edge_err)?;
        b.edge_proto.try_reserve_exact(e).map_err(edge_err)?;
        Ok(b)
    }

    fn add_node(
        &mut self,
        name: Option<&str>,
        tag: NodeTag,
        gate_kind: GateKind,
        arity: u32,
        initial: Bit,
    ) -> NodeId {
        let id = NodeId(u32::try_from(self.node_tags.len()).expect("more than u32::MAX nodes"));
        match &mut self.names {
            Names::Table(t) => t.push(name.expect("builder-made nodes are named")),
            Names::Generated(family) => {
                debug_assert!(name.is_none_or(|n| family.node_id(n) == Some(id)));
            }
        }
        let pins = self.pin_start[self.pin_start.len() - 1]
            .checked_add(arity)
            .expect("more than u32::MAX input pins");
        self.pin_start.push(pins);
        self.pin_driven.resize(pins as usize, false);
        self.node_tags.push(tag);
        self.gate_kinds.push(gate_kind);
        self.node_arity.push(arity);
        self.node_initial.push(initial);
        id
    }

    /// Adds an input port.
    pub fn input(&mut self, name: &str) -> NodeId {
        self.add_node(Some(name), NodeTag::Input, GateKind::Buf, 0, Bit::Zero)
    }

    /// Adds an output port.
    pub fn output(&mut self, name: &str) -> NodeId {
        self.add_node(Some(name), NodeTag::Output, GateKind::Buf, 1, Bit::Zero)
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
        if !kind.supports_arity(arity) && self.bad_arity.is_none() {
            self.bad_arity = Some((
                self.node_tags.len(),
                CircuitError::BadArity {
                    name: name.to_owned(),
                    arity,
                },
            ));
        }
        let arity = u32::try_from(arity).expect("gate arity exceeds u32::MAX");
        self.add_node(Some(name), NodeTag::Gate, kind, arity, initial)
    }

    /// Adds a gate of a generated netlist, named by the family's scheme.
    pub(crate) fn scheme_gate(&mut self, kind: GateKind, initial: Bit) -> NodeId {
        let arity = u32::try_from(kind.default_arity()).expect("default arities are small");
        self.add_node(None, NodeTag::Gate, kind, arity, initial)
    }

    /// The initial output value of node `id`, which must exist.
    pub(crate) fn initial(&self, id: NodeId) -> Bit {
        self.node_initial[id.index()]
    }

    fn name(&self, id: NodeId) -> String {
        self.names.name(id.index()).into_owned()
    }

    /// Validates a connection and returns the flattened index of the
    /// pin it drives.
    fn check_endpoints(&self, from: NodeId, to: NodeId, pin: usize) -> Result<usize, CircuitError> {
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
                name: self.name(from),
            });
        }
        if to_tag == NodeTag::Input {
            return Err(CircuitError::WrongPortDirection {
                name: self.name(to),
            });
        }
        let arity = self.node_arity[to.index()] as usize;
        if pin >= arity {
            return Err(CircuitError::PinOutOfRange {
                node: self.name(to),
                pin,
                arity,
            });
        }
        let flat = self.pin_start[to.index()] as usize + pin;
        if self.pin_driven[flat] {
            return Err(CircuitError::PinAlreadyDriven {
                node: self.name(to),
                pin,
            });
        }
        Ok(flat)
    }

    #[allow(clippy::cast_possible_truncation)]
    fn push_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        pin: usize,
        flat: usize,
        proto: u32,
    ) -> EdgeId {
        let id = EdgeId(u32::try_from(self.edge_from.len()).expect("more than u32::MAX edges"));
        self.edge_from.push(from.0);
        self.edge_to.push(to.0);
        self.edge_pin.push(pin as u32);
        self.edge_proto.push(proto);
        self.pin_driven[flat] = true;
        id
    }

    /// Connects `from` to pin `pin` of `to` through `channel`.
    ///
    /// Any [`OnlineChannel`](ivl_core::channel::OnlineChannel) that is
    /// also `Clone + Send` qualifies (the [`SimChannel`] blanket impl);
    /// `channel` becomes the edge's prototype, which every simulator
    /// over the circuit clones on the edge's first feed.
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
        self.connect_boxed(from, to, pin, Box::new(channel))
    }

    /// Connects `from` to pin `pin` of `to` through an already-boxed
    /// channel — the dynamic-dispatch twin of
    /// [`connect`](CircuitBuilder::connect), for callers that build
    /// channels at run time (spec-driven netlists). Avoids wrapping the
    /// box in a second box.
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
        let flat = self.check_endpoints(from, to, pin)?;
        let proto = u32::try_from(self.protos.len()).expect("more than u32::MAX channels");
        self.protos.push(channel);
        Ok(self.push_edge(from, to, pin, flat, proto))
    }

    /// Connects `from` to pin `pin` of `to` through the generated
    /// netlist's shared prototype.
    pub(crate) fn connect_shared(
        &mut self,
        from: NodeId,
        to: NodeId,
        pin: usize,
    ) -> Result<EdgeId, CircuitError> {
        let flat = self.check_endpoints(from, to, pin)?;
        Ok(self.push_edge(from, to, pin, flat, 0))
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
        let flat = self.check_endpoints(from, to, pin)?;
        if self.node_tags[from.index()] == NodeTag::Gate
            && self.node_tags[to.index()] == NodeTag::Gate
        {
            return Err(CircuitError::DirectBetweenGates {
                from: self.name(from),
                to: self.name(to),
            });
        }
        Ok(self.push_edge(from, to, pin, flat, DIRECT))
    }

    /// Validates and finalizes the circuit.
    ///
    /// # Errors
    ///
    /// Returns the first well-formedness violation: duplicate names, bad
    /// gate arities (whichever was declared first), or unconnected gate
    /// pins / output ports.
    #[allow(clippy::cast_possible_truncation)]
    pub fn build(mut self) -> Result<Circuit, CircuitError> {
        let duplicate = match &mut self.names {
            Names::Table(t) => t.index(),
            Names::Generated(_) => None,
        };
        match (duplicate, self.bad_arity.take()) {
            (Some(d), arity) if arity.as_ref().is_none_or(|(n, _)| d < *n) => {
                return Err(CircuitError::DuplicateName {
                    name: self.name(NodeId(d as u32)),
                });
            }
            (_, Some((_, err))) => return Err(err),
            _ => {}
        }
        // every gate pin and output port must be driven (exactly once —
        // double driving was rejected at connect time)
        if let Some(flat) = self.pin_driven.iter().position(|&d| !d) {
            let flat = flat as u32;
            let node = self.pin_start.partition_point(|&s| s <= flat) - 1;
            return Err(CircuitError::UnconnectedPin {
                node: self.name(NodeId(node as u32)),
                pin: (flat - self.pin_start[node]) as usize,
            });
        }
        // CSR fanout adjacency by counting sort: preserves edge-creation
        // order within each source node
        let n = self.node_tags.len();
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
        Ok(Circuit {
            topo: Arc::new(Topology {
                names: Arc::new(self.names),
                node_tags: self.node_tags,
                gate_kinds: self.gate_kinds,
                node_arity: self.node_arity,
                node_initial: self.node_initial,
                pin_start: self.pin_start,
                edge_from: self.edge_from,
                edge_to: self.edge_to,
                edge_pin: self.edge_pin,
                edge_proto: self.edge_proto,
                out_start,
                out_edges,
                input_ports,
            }),
            protos: self.protos,
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
/// node-attribute arrays, edge endpoints, CSR adjacency, names, each
/// edge's prototype index) and a table of prototype channels — one per
/// channel edge of a builder-made circuit, a single shared one for a
/// generated netlist. A circuit is never simulated in place: run state
/// lives in the [`Simulator`](crate::Simulator), which clones an edge's
/// prototype on the edge's first feed. Cloning a circuit therefore
/// copies only the prototype table, while every clone keeps pointing at
/// the *same* netlist allocation — which is what lets the parallel
/// [`ScenarioRunner`](crate::ScenarioRunner) hand each worker its own
/// simulator without duplicating a million-gate topology per worker.
pub struct Circuit {
    pub(crate) topo: Arc<Topology>,
    /// Prototype channels, indexed by the topology's `edge_proto`.
    pub(crate) protos: Vec<Box<dyn SimChannel>>,
}

impl Clone for Circuit {
    fn clone(&self) -> Self {
        Circuit {
            topo: Arc::clone(&self.topo),
            protos: self.protos.clone(),
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
        self.topo.names.find(name)
    }

    /// The node's name: borrowed from a builder-made circuit's name
    /// table, rendered from a generated netlist's naming scheme.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    #[must_use]
    pub fn node_name(&self, id: NodeId) -> Cow<'_, str> {
        assert!(id.index() < self.node_count(), "unknown node id {}", id.0);
        self.topo.names.name(id.index())
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
    pub fn node_names(&self) -> Vec<Cow<'_, str>> {
        (0..self.node_count())
            .map(|i| self.topo.names.name(i))
            .collect()
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
        match &*self.topo.names {
            // a generated netlist has exactly the ports `a` and `y`
            Names::Generated(_) => vec![if tag == NodeTag::Input { "a" } else { "y" }],
            Names::Table(t) => self
                .topo
                .node_tags
                .iter()
                .enumerate()
                .filter(|(_, t)| **t == tag)
                .map(|(i, _)| t.get(i))
                .collect(),
        }
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
        self.topo
            .edge_proto
            .iter()
            .position(|&p| p != DIRECT)
            .map(|i| EdgeId(i as u32))
    }

    /// A fresh box of the prototype on `id`, if `id` carries a channel.
    pub(crate) fn clone_channel(&self, id: EdgeId) -> Option<Box<dyn SimChannel>> {
        match *self.topo.edge_proto.get(id.index())? {
            DIRECT => None,
            p => Some(self.protos[p as usize].clone()),
        }
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
