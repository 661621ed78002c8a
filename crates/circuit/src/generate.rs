//! Parametric netlist generators for scale experiments.
//!
//! Hand-written netlists top out at a few dozen gates; the million-gate
//! tier needs topology *families* parameterized by size. Each generator
//! here builds a well-formed [`Circuit`] (gates and channels alternate,
//! every pin driven) with exactly one input port `"a"` and one output
//! port `"y"`, so the same scenarios drive every family:
//!
//! * [`inverter_chain`] — the paper's workhorse: `stages` inverters in
//!   series. Depth scales, width stays 1.
//! * [`grid`] — a `width × height` 2-D lattice where every interior
//!   cell NANDs its left and upper neighbours. Both depth **and**
//!   fanout scale: each cell feeds up to two successors, so event
//!   wavefronts widen as they propagate.
//! * [`random_dag`] — a seeded random DAG: each gate draws 1–2
//!   predecessors uniformly from the gates before it. Irregular fanout
//!   and depth exercise queue backends that topological regularity
//!   would flatter.
//! * [`fat_tree`] — a binary reduction tree of depth `depth`: wide at
//!   the leaves, single root. The extreme fanout-then-fan-in shape.
//!
//! Every channel edge shares one caller-supplied prototype channel, so
//! generators stay agnostic of the channel algebra: pass
//! `PureDelay::new(1.0).unwrap().clone_box()` or a registry-built
//! channel. A simulator clones the prototype per edge on the edge's
//! first feed, which is indistinguishable from one clone per edge at
//! build time.
//!
//! A generated netlist stores no name per gate: node names follow the
//! family's closed-form [`Family`] scheme (`inv{i}`, `g{x}_{y}`,
//! `n{i}`, `t{l}_{i}`, plus the ports `a`/`y`), and name lookup parses
//! the name arithmetically. Node, edge and pin counts are computed in
//! closed form and reserved once, so a size beyond `u32` ids or the
//! allocator's reach is a [`CircuitError::TooLarge`], raised before
//! anything of that size is allocated.
//!
//! Gate initial values are computed by forward propagation assuming the
//! input port starts at [`Bit::Zero`], so a scenario whose input signal
//! has initial value `Zero` starts quiescent: the first event is the
//! input's first transition, not an initialization avalanche.

use std::borrow::Cow;

use crate::error::CircuitError;
use crate::gate::GateKind;
use crate::graph::{Circuit, CircuitBuilder, NodeId};
use ivl_core::channel::SimChannel;
use ivl_core::Bit;

/// The deepest [`fat_tree`] a generator builds: 2^24 leaves, ≈ 33 M
/// gates. Beyond it a fat tree is never what you want; use [`grid`].
pub const FAT_TREE_MAX_DEPTH: u32 = 24;

/// A generator family at a given size: what [`inverter_chain`],
/// [`grid`], [`random_dag`] and [`fat_tree`] build, as far as node
/// names and counts go.
///
/// Node ids follow generation order: `a` is 0, `y` is 1, and gate `k`
/// (in the order the generator adds gates) is `k + 2`. Names are a
/// pure function of the id, and [`node_id`](Family::node_id) inverts
/// them arithmetically, so the same lookup serves a built circuit and
/// a linter that never builds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `stages` inverters named `inv0..inv{stages-1}`.
    InverterChain {
        /// Number of inverter stages.
        stages: u32,
    },
    /// A `width × height` lattice; gate `y * width + x` is `g{x}_{y}`.
    Grid {
        /// Cells per row.
        width: u32,
        /// Number of rows.
        height: u32,
    },
    /// `nodes` gates named `n0..n{nodes-1}` (the seed only changes the
    /// wiring, not the names).
    RandomDag {
        /// Number of gates.
        nodes: u32,
    },
    /// A reduction tree; level `l` holds `2^(depth-l)` gates
    /// `t{l}_0..`, level 0 first.
    FatTree {
        /// Levels above the leaves.
        depth: u32,
    },
}

impl Family {
    /// The number of gates, or [`CircuitError::TooLarge`] for a fat
    /// tree beyond [`FAT_TREE_MAX_DEPTH`].
    fn gates(self) -> Result<u64, CircuitError> {
        Ok(match self {
            Family::InverterChain { stages } => u64::from(stages),
            Family::Grid { width, height } => u64::from(width) * u64::from(height),
            Family::RandomDag { nodes } => u64::from(nodes),
            Family::FatTree { depth } if depth > FAT_TREE_MAX_DEPTH => {
                return Err(CircuitError::TooLarge {
                    what: "fat_tree depth",
                    requested: u64::from(depth),
                    limit: Some(u64::from(FAT_TREE_MAX_DEPTH)),
                })
            }
            Family::FatTree { depth } => (2 << depth) - 1,
        })
    }

    /// The node count and an upper bound on the edge count (exact for
    /// every family but the random DAG, whose gates draw one or two
    /// predecessors); the pin count equals the edge count, since every
    /// edge drives exactly one pin.
    ///
    /// # Errors
    ///
    /// [`CircuitError::TooLarge`] if either count exceeds `u32::MAX` or
    /// a fat tree exceeds the depth cap.
    pub(crate) fn size(self) -> Result<(u32, u32), CircuitError> {
        let too_large = |what, requested| CircuitError::TooLarge {
            what,
            requested,
            limit: Some(u64::from(u32::MAX)),
        };
        let gates = self.gates()?;
        let nodes = gates + 2;
        let nodes = u32::try_from(nodes).map_err(|_| too_large("nodes", nodes))?;
        // from here on every gate count is below 2^32, so no product
        // below overflows a u64
        let edges = match self {
            Family::InverterChain { stages } => u64::from(stages) + 1,
            // an empty grid or DAG leaves the output port undriven
            _ if gates == 0 => 0,
            Family::Grid { width, height } => {
                let (w, h) = (u64::from(width), u64::from(height));
                2 * w * h - w - h + 2
            }
            Family::RandomDag { nodes } => 2 * u64::from(nodes),
            Family::FatTree { depth } => 3 * (1 << depth) - 1,
        };
        let edges = u32::try_from(edges).map_err(|_| too_large("edges", edges))?;
        Ok((nodes, edges))
    }

    /// How many gates the input port `a` drives through direct wires:
    /// every leaf of a fat tree, gate 0 of any other family, none
    /// without a gate or beyond the generators' limits.
    #[must_use]
    pub fn input_fanout(self) -> u64 {
        match (self, self.gates()) {
            (_, Ok(0) | Err(_)) => 0,
            (Family::FatTree { depth }, Ok(_)) => 1 << depth,
            (_, Ok(_)) => 1,
        }
    }

    /// The id of the node named `name` in the netlist this family
    /// generates, or `None` if there is no such node. Only canonical
    /// spellings resolve: `n01`, `n+1` and `g1_` do not. The ports `a`
    /// and `y` always resolve; gates resolve only while the family is
    /// within the generators' limits.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        match name {
            "a" => return Some(NodeId(0)),
            "y" => return Some(NodeId(1)),
            _ => {}
        }
        self.size().ok()?;
        let gate = match *self {
            Family::InverterChain { stages } => {
                canonical_index(name, "inv").filter(|&i| i < u64::from(stages))?
            }
            Family::RandomDag { nodes } => {
                canonical_index(name, "n").filter(|&i| i < u64::from(nodes))?
            }
            Family::Grid { width, height } => {
                let (x, y) = canonical_pair(name, "g")?;
                if x >= u64::from(width) || y >= u64::from(height) {
                    return None;
                }
                y * u64::from(width) + x
            }
            Family::FatTree { depth } => {
                let (level, i) = canonical_pair(name, "t")?;
                if level > u64::from(depth) || i >= 1 << (u64::from(depth) - level) {
                    return None;
                }
                level_offset(depth, level as u32) + i
            }
        };
        // the size check above bounds every gate id below u32::MAX - 2
        Some(NodeId(gate as u32 + 2))
    }

    /// The name of node `id`, which must exist: [`node_id`](Family::node_id)
    /// resolves the name back to `id`. For an id the family does not
    /// have, the name is unspecified and the call may panic.
    #[must_use]
    pub fn node_name(&self, id: usize) -> Cow<'static, str> {
        let gate = match id {
            0 => return Cow::Borrowed("a"),
            1 => return Cow::Borrowed("y"),
            id => (id - 2) as u64,
        };
        Cow::Owned(match *self {
            Family::InverterChain { .. } => format!("inv{gate}"),
            Family::RandomDag { .. } => format!("n{gate}"),
            Family::Grid { width, .. } => {
                let w = u64::from(width);
                format!("g{}_{}", gate % w, gate / w)
            }
            Family::FatTree { depth } => {
                let mut level = 0;
                while level_offset(depth, level + 1) <= gate {
                    level += 1;
                }
                format!("t{level}_{}", gate - level_offset(depth, level))
            }
        })
    }
}

/// The gate index of `t{level}_0` in a fat tree of `depth`: the gates
/// of every lower level, `2^(depth+1) - 2^(depth+1-level)`.
fn level_offset(depth: u32, level: u32) -> u64 {
    (2u64 << depth) - (2u64 << depth >> level)
}

/// Parses `"{prefix}{i}"` where `i` is rendered canonically (ASCII
/// digits, no sign, no leading zeros), returning `i`.
fn canonical_index(name: &str, prefix: &str) -> Option<u64> {
    canonical_number(name.strip_prefix(prefix)?)
}

/// Parses `"{prefix}{x}_{y}"` with canonically rendered coordinates.
fn canonical_pair(name: &str, prefix: &str) -> Option<(u64, u64)> {
    let (x, y) = name.strip_prefix(prefix)?.split_once('_')?;
    Some((canonical_number(x)?, canonical_number(y)?))
}

fn canonical_number(digits: &str) -> Option<u64> {
    let bytes = digits.as_bytes();
    let canonical = match bytes {
        [] => false,
        [b'0', _, ..] => false,
        _ => bytes.iter().all(u8::is_ascii_digit),
    };
    if canonical {
        digits.parse().ok()
    } else {
        None
    }
}

/// A builder for `family` with its counts reserved and its input and
/// output ports added (ids 0 and 1).
fn start(family: Family, channel: Box<dyn SimChannel>) -> Result<CircuitBuilder, CircuitError> {
    let (nodes, edges) = family.size()?;
    let mut b = CircuitBuilder::generated(family, channel, nodes, edges)?;
    b.input("a");
    b.output("y");
    Ok(b)
}

/// The node id of gate `k` (in generation order).
#[allow(clippy::cast_possible_truncation)]
fn gate(k: u64) -> NodeId {
    NodeId(k as u32 + 2)
}

const INPUT: NodeId = NodeId(0);
const OUTPUT: NodeId = NodeId(1);

/// `stages` inverters in series between input `"a"` and output `"y"`.
///
/// Gates are named `inv0..inv{stages-1}`; the input connects directly
/// (zero delay) to `inv0`, every other connection goes through the
/// shared `channel` prototype. Initial values alternate starting from
/// `One` (`Not` of the quiescent `Zero` input).
///
/// # Errors
///
/// [`CircuitError::TooLarge`] if the node count exceeds `u32::MAX` or
/// the reservation fails; otherwise propagates [`CircuitError`] from
/// circuit construction (a zero-stage chain degenerates to `a → y`
/// through one channel).
pub fn inverter_chain(stages: u32, channel: Box<dyn SimChannel>) -> Result<Circuit, CircuitError> {
    let mut b = start(Family::InverterChain { stages }, channel)?;
    let mut prev = INPUT;
    for i in 0..stages {
        let init = if i % 2 == 0 { Bit::One } else { Bit::Zero };
        let g = b.scheme_gate(GateKind::Not, init);
        if i == 0 {
            b.connect_direct(prev, g, 0)?;
        } else {
            b.connect_shared(prev, g, 0)?;
        }
        prev = g;
    }
    b.connect_shared(prev, OUTPUT, 0)?;
    b.build()
}

/// A `width × height` lattice of gates between `"a"` and `"y"`.
///
/// Cell `(x, y)` is named `g{x}_{y}`. The origin `g0_0` is a `Not`
/// driven directly by the input; cells on the top row or left column
/// have one predecessor (a `Not` on the neighbour toward the origin);
/// interior cells are 2-input `Nand`s of their left (`pin 0`) and upper
/// (`pin 1`) neighbours. All lattice edges go through the shared
/// `channel` prototype. The output port hangs off the far corner
/// `g{width-1}_{height-1}`.
///
/// Total gate count is exactly `width * height` — `grid(1000, 1000,
/// ..)` is the million-gate tier.
///
/// # Errors
///
/// [`CircuitError::TooLarge`] if the node or edge count exceeds
/// `u32::MAX` or the reservation fails; a zero `width` or `height`
/// produces an undriven output port ([`CircuitError::UnconnectedPin`]).
pub fn grid(
    width: u32,
    height: u32,
    channel: Box<dyn SimChannel>,
) -> Result<Circuit, CircuitError> {
    let mut b = start(Family::Grid { width, height }, channel)?;
    if width == 0 || height == 0 {
        // fall through to build() so the caller gets the canonical
        // UnconnectedPin diagnosis for the dangling output port
        return b.build();
    }
    let w = u64::from(width);
    for gy in 0..u64::from(height) {
        for gx in 0..w {
            let left = gx.checked_sub(1).map(|px| gate(gy * w + px));
            let up = gy.checked_sub(1).map(|py| gate(py * w + gx));
            match (left, up) {
                (None, None) => {
                    let g = b.scheme_gate(GateKind::Not, GateKind::Not.eval(&[Bit::Zero]));
                    b.connect_direct(INPUT, g, 0)?;
                }
                (Some(p), None) | (None, Some(p)) => {
                    let init = GateKind::Not.eval(&[b.initial(p)]);
                    let g = b.scheme_gate(GateKind::Not, init);
                    b.connect_shared(p, g, 0)?;
                }
                (Some(l), Some(u)) => {
                    let init = GateKind::Nand.eval(&[b.initial(l), b.initial(u)]);
                    let g = b.scheme_gate(GateKind::Nand, init);
                    b.connect_shared(l, g, 0)?;
                    b.connect_shared(u, g, 1)?;
                }
            }
        }
    }
    b.connect_shared(gate(w * u64::from(height) - 1), OUTPUT, 0)?;
    b.build()
}

/// A seeded random DAG of `nodes` gates between `"a"` and `"y"`.
///
/// Gate `n{i}` draws its predecessors uniformly from `n0..n{i-1}` using
/// a `SplitMix64` stream over `seed`: one predecessor (a `Not`) or two
/// (a `Nand`), with equal probability once two candidates exist. `n0`
/// is a `Not` driven directly by the input; the output port hangs off
/// the last gate. The same `(nodes, seed)` pair reproduces the same
/// netlist bit for bit on every platform.
///
/// # Errors
///
/// [`CircuitError::TooLarge`] if the node or edge count exceeds
/// `u32::MAX` or the reservation fails; `nodes` of 0 produces an
/// undriven output port ([`CircuitError::UnconnectedPin`]).
pub fn random_dag(
    nodes: u32,
    seed: u64,
    channel: Box<dyn SimChannel>,
) -> Result<Circuit, CircuitError> {
    let mut b = start(Family::RandomDag { nodes }, channel)?;
    if nodes == 0 {
        return b.build();
    }
    let mut rng = SplitMix64::new(seed);
    let g0 = b.scheme_gate(GateKind::Not, GateKind::Not.eval(&[Bit::Zero]));
    b.connect_direct(INPUT, g0, 0)?;
    for i in 1..u64::from(nodes) {
        let two = i >= 2 && rng.next() & 1 == 1;
        if two {
            let l = gate(rng.next() % i);
            let u = gate(rng.next() % i);
            let init = GateKind::Nand.eval(&[b.initial(l), b.initial(u)]);
            let g = b.scheme_gate(GateKind::Nand, init);
            b.connect_shared(l, g, 0)?;
            b.connect_shared(u, g, 1)?;
        } else {
            let p = gate(rng.next() % i);
            let init = GateKind::Not.eval(&[b.initial(p)]);
            let g = b.scheme_gate(GateKind::Not, init);
            b.connect_shared(p, g, 0)?;
        }
    }
    b.connect_shared(gate(u64::from(nodes) - 1), OUTPUT, 0)?;
    b.build()
}

/// A binary reduction tree of depth `depth` between `"a"` and `"y"`.
///
/// Level 0 holds `2^depth` `Not` leaves named `t0_0..`, each driven
/// directly by the input port (the input fans out); level `l > 0` holds
/// `2^(depth-l)` `Nand`s named `t{l}_{i}`, each fed through the shared
/// `channel` prototype by its two children `t{l-1}_{2i}` (`pin 0`) and
/// `t{l-1}_{2i+1}` (`pin 1`). The single root at level `depth` drives
/// the output port. Total gate count is `2^(depth+1) - 1`.
///
/// # Errors
///
/// [`CircuitError::TooLarge`] if `depth` exceeds
/// [`FAT_TREE_MAX_DEPTH`] (the lint layer rejects such specs earlier)
/// or the reservation fails; otherwise propagates [`CircuitError`] from
/// construction.
pub fn fat_tree(depth: u32, channel: Box<dyn SimChannel>) -> Result<Circuit, CircuitError> {
    let mut b = start(Family::FatTree { depth }, channel)?;
    let init = GateKind::Not.eval(&[Bit::Zero]);
    for _ in 0..1u64 << depth {
        let g = b.scheme_gate(GateKind::Not, init);
        b.connect_direct(INPUT, g, 0)?;
    }
    for l in 1..=depth {
        let children = level_offset(depth, l - 1);
        for i in 0..1u64 << (depth - l) {
            let (cl, cr) = (gate(children + 2 * i), gate(children + 2 * i + 1));
            let init = GateKind::Nand.eval(&[b.initial(cl), b.initial(cr)]);
            let g = b.scheme_gate(GateKind::Nand, init);
            b.connect_shared(cl, g, 0)?;
            b.connect_shared(cr, g, 1)?;
        }
    }
    b.connect_shared(gate(level_offset(depth, depth)), OUTPUT, 0)?;
    b.build()
}

/// Sebastiano Vigna's `SplitMix64` — tiny, seedable, and identical on
/// every platform, which is all a reproducible netlist needs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeId;
    use crate::sim::Simulator;
    use ivl_core::channel::{PureDelay, SimChannel};
    use ivl_core::Signal;

    fn delay() -> Box<dyn SimChannel> {
        PureDelay::new(1.0).unwrap().clone_box()
    }

    #[test]
    fn chain_matches_hand_built() {
        let c = inverter_chain(3, delay()).unwrap();
        assert_eq!(c.node_count(), 5); // a, y, inv0..inv2
        assert_eq!(c.edge_count(), 4);
        let mut sim = Simulator::new(c);
        sim.set_input("a", Signal::pulse(0.0, 2.0).unwrap())
            .unwrap();
        let run = sim.run(20.0).unwrap();
        // odd stage count inverts: initial One, pulse comes through
        let out = run.signal("y").unwrap();
        assert_eq!(out.initial(), Bit::One);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn grid_counts_and_runs() {
        let c = grid(4, 3, delay()).unwrap();
        assert_eq!(c.node_count(), 2 + 12);
        // edges: 1 direct + (per cell with parents) + 1 to output
        // top row: 3 single-parent, left col: 2 single-parent,
        // interior: 6 cells * 2 = 12 → 1 + 3 + 2 + 12 + 1 = 19
        assert_eq!(c.edge_count(), 19);
        assert!(c.node("g3_2").is_some());
        let mut sim = Simulator::new(c);
        sim.set_input("a", Signal::pulse(0.0, 5.0).unwrap())
            .unwrap();
        let run = sim.run(100.0).unwrap();
        assert!(run.processed_events() > 0);
    }

    #[test]
    fn grid_zero_size_is_unconnected_output() {
        match grid(0, 5, delay()) {
            Err(CircuitError::UnconnectedPin { node, .. }) => assert_eq!(node, "y"),
            other => panic!("expected UnconnectedPin, got {other:?}"),
        }
    }

    #[test]
    fn random_dag_is_reproducible() {
        let c1 = random_dag(50, 7, delay()).unwrap();
        let c2 = random_dag(50, 7, delay()).unwrap();
        assert_eq!(c1.node_count(), c2.node_count());
        assert_eq!(c1.edge_count(), c2.edge_count());
        for i in 0..c1.edge_count() {
            let e1 = c1.edge_endpoints(crate::graph::EdgeId(i as u32));
            let e2 = c2.edge_endpoints(crate::graph::EdgeId(i as u32));
            assert_eq!(e1, e2);
        }
        let c3 = random_dag(50, 8, delay()).unwrap();
        let differs = (0..c1.edge_count().min(c3.edge_count())).any(|i| {
            c1.edge_endpoints(crate::graph::EdgeId(i as u32))
                != c3.edge_endpoints(crate::graph::EdgeId(i as u32))
        });
        assert!(differs || c1.edge_count() != c3.edge_count());
    }

    #[test]
    fn random_dag_runs() {
        let c = random_dag(64, 42, delay()).unwrap();
        let mut sim = Simulator::new(c);
        sim.set_input("a", Signal::pulse(0.0, 3.0).unwrap())
            .unwrap();
        let run = sim.run(200.0).unwrap();
        assert!(run.processed_events() > 0);
    }

    #[test]
    fn fat_tree_counts_and_runs() {
        let c = fat_tree(3, delay()).unwrap();
        assert_eq!(c.node_count(), 2 + (1 << 4) - 1); // 15 gates
        let mut sim = Simulator::new(c);
        sim.set_input("a", Signal::pulse(0.0, 4.0).unwrap())
            .unwrap();
        let run = sim.run(100.0).unwrap();
        assert!(run.processed_events() > 0);
        assert!(run.signal("y").is_ok());
    }

    /// Every family at a small size, with the gate names the
    /// generators used to `format!` per gate, in generation order.
    fn named_families() -> Vec<(Circuit, Vec<String>)> {
        vec![
            (
                inverter_chain(7, delay()).unwrap(),
                (0..7).map(|i| format!("inv{i}")).collect(),
            ),
            (
                grid(4, 3, delay()).unwrap(),
                (0..3)
                    .flat_map(|y| (0..4).map(move |x| format!("g{x}_{y}")))
                    .collect(),
            ),
            (
                random_dag(40, 3, delay()).unwrap(),
                (0..40).map(|i| format!("n{i}")).collect(),
            ),
            (
                fat_tree(3, delay()).unwrap(),
                (0..=3u32)
                    .flat_map(|l| (0..1 << (3 - l)).map(move |i| format!("t{l}_{i}")))
                    .collect(),
            ),
        ]
    }

    fn owned_names(c: &Circuit) -> Vec<String> {
        c.node_names().into_iter().map(Cow::into_owned).collect()
    }

    #[test]
    fn names_match_the_format_strings_and_round_trip() {
        for (c, gates) in named_families() {
            let mut want = vec!["a".to_owned(), "y".to_owned()];
            want.extend(gates);
            assert_eq!(owned_names(&c), want);
            for (i, name) in want.iter().enumerate() {
                let id = c
                    .node(name)
                    .unwrap_or_else(|| panic!("{name} does not resolve"));
                assert_eq!(id.index(), i, "{name}");
                assert_eq!(c.node_name(id), name.as_str());
            }
        }
    }

    #[test]
    #[allow(clippy::cast_possible_truncation)]
    fn input_fanout_counts_the_direct_wires_out_of_a() {
        let cases = [
            (
                Family::InverterChain { stages: 0 },
                inverter_chain(0, delay()),
            ),
            (
                Family::InverterChain { stages: 5 },
                inverter_chain(5, delay()),
            ),
            (
                Family::Grid {
                    width: 4,
                    height: 3,
                },
                grid(4, 3, delay()),
            ),
            (Family::RandomDag { nodes: 40 }, random_dag(40, 3, delay())),
            (Family::FatTree { depth: 3 }, fat_tree(3, delay())),
        ];
        for (family, circuit) in cases {
            let c = circuit.unwrap();
            let direct = (0..c.edge_count() as u32)
                .map(EdgeId)
                .filter(|&e| c.edge_endpoints(e).0 == INPUT && c.clone_channel(e).is_none())
                .count();
            assert_eq!(family.input_fanout(), direct as u64, "{family:?}");
        }
        assert_eq!(Family::FatTree { depth: 3 }.input_fanout(), 8);
        assert_eq!(
            Family::Grid {
                width: 0,
                height: 9
            }
            .input_fanout(),
            0
        );
        assert_eq!(Family::FatTree { depth: 99 }.input_fanout(), 0);
    }

    #[test]
    fn small_grid_and_tree_names_are_pinned() {
        let grid_names = ["a", "y", "g0_0", "g1_0", "g2_0", "g0_1", "g1_1", "g2_1"];
        assert_eq!(owned_names(&grid(3, 2, delay()).unwrap()), grid_names);
        let tree_names = [
            "a", "y", "t0_0", "t0_1", "t0_2", "t0_3", "t1_0", "t1_1", "t2_0",
        ];
        assert_eq!(owned_names(&fat_tree(2, delay()).unwrap()), tree_names);
    }

    #[test]
    fn non_canonical_and_out_of_range_names_do_not_resolve() {
        let cases: [(Circuit, &[&str]); 4] = [
            (
                inverter_chain(12, delay()).unwrap(),
                &[
                    "inv12", "inv01", "inv+1", "inv-1", "inv", "inv 1", "inv1x", "n1", "Inv1",
                ],
            ),
            (
                grid(3, 2, delay()).unwrap(),
                &[
                    "g3_0", "g0_2", "g01_1", "g1_01", "g1_", "g_1", "g1", "g1_1_1", "g+1_1",
                ],
            ),
            (
                random_dag(30, 1, delay()).unwrap(),
                &[
                    "n30",
                    "n01",
                    "n+1",
                    "n-0",
                    "n",
                    "n00",
                    "n99999999999999999999999",
                ],
            ),
            (
                fat_tree(2, delay()).unwrap(),
                &[
                    "t0_4", "t1_2", "t2_1", "t3_0", "t00_0", "t0_01", "t1", "t_0", "t0_",
                ],
            ),
        ];
        for (c, names) in cases {
            assert_eq!(c.node("a"), Some(NodeId(0)));
            assert_eq!(c.node("y"), Some(NodeId(1)));
            let mut sim = Simulator::new(c);
            let run = sim.run(1.0).unwrap();
            for name in names {
                assert_eq!(sim.circuit().node(name), None, "{name}");
                assert!(
                    matches!(run.signal(name), Err(crate::SimError::UnknownNode { .. })),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn families_beyond_the_limits_resolve_only_their_ports() {
        for family in [
            Family::InverterChain { stages: u32::MAX },
            Family::Grid {
                width: 100_000,
                height: 100_000,
            },
            Family::FatTree { depth: 25 },
        ] {
            assert_eq!(family.node_id("y"), Some(NodeId(1)));
            for name in ["inv0", "g0_0", "t0_0"] {
                assert_eq!(family.node_id(name), None, "{family:?} {name}");
            }
        }
    }

    #[test]
    fn quiescent_start_schedules_no_gate_events_on_chain() {
        // initial values are consistent with a Zero input, so a run whose
        // input never changes processes zero transitions
        let c = inverter_chain(10, delay()).unwrap();
        let mut sim = Simulator::new(c);
        sim.set_input("a", Signal::constant(Bit::Zero)).unwrap();
        let run = sim.run(50.0).unwrap();
        assert_eq!(run.processed_events(), 0);
        assert_eq!(run.signal("y").unwrap().len(), 0);
    }
}
