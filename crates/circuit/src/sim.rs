//! The event-driven simulator.
//!
//! # Architecture
//!
//! Each edge keeps its pending output transitions as a doubly linked
//! list in `(time, seq)` order. Built-in channels only ever append a
//! later output or cancel the last one (the channels' pairwise non-FIFO
//! rule), so a list is only appended to, cancelled at its tail and
//! delivered at its head. The records of every list live in one
//! [`Slab`] per simulator, with a free list: a run holds one record per
//! pending event and no edge owns a heap allocation. A cancel is
//! checked against the edge's tail (time and value), so a misbehaving
//! channel cannot silently cancel the wrong event, and a channel that
//! schedules an output earlier than one it still has pending on the
//! same edge is refused rather than reordered.
//!
//! All per-run working memory (pin values, recorders, the slab, the
//! event queue, the dirty set) is owned by a [`SimState`] that the
//! [`Simulator`] reuses across [`run`](Simulator::run) calls: after the
//! first run the hot loop performs no slab/recorder allocations — only
//! the returned [`SimResult`]'s signals are freshly allocated. That state
//! is restored lazily: per-node and per-edge state carries a run stamp
//! and is reset from a cached t = 0 baseline on its first touch in a
//! run, so a run costs O(inputs + watched + touched) rather than
//! O(netlist) — in the paper's regime of short glitch trains into a
//! large netlist, most of the netlist is never touched.
//!
//! Per-edge run state lives in the simulator, not in the [`Circuit`],
//! and only for the edges fed so far: every edge has a 4-byte index into
//! a table of [`Fed`] entries, 0 until the edge's first feed (or a
//! [`replace_channel`](Simulator::replace_channel)) creates its entry.
//! The entry holds the edge's channel — cloned from the circuit's
//! prototype on that first feed — its run stamp, its reseed generation
//! and the ends of its pending list. A never-fed channel is identical
//! to its prototype, so this is indistinguishable from cloning every
//! channel at build time, and a worker's memory follows the edges its
//! scenarios reach, not the netlist.
//!
//! Recording is selective: by default every node and edge gets a
//! waveform recorder (bit-identical to the historical behaviour), but a
//! [watch set](Simulator::set_watch) restricts recorders to the named
//! nodes, so a million-gate run holds recording memory proportional to
//! the watched nodes — not the netlist. Each recorder's length is in
//! turn bounded by the run's inputs and its scheduled-event budget
//! ([`with_max_events`](Simulator::with_max_events)): apart from the
//! t = 0 batch, every recorded transition is an input transition, a
//! delivered event, or a gate change a delivered event caused.
//!
//! Pending events are ordered by one queue of list heads: a binary heap
//! with lazy cancellation that counts its stale keys and compacts once
//! they outnumber the live ones (see the [`queue`](crate::queue) module
//! docs). Its pop order is the total `(time, seq)` order over every
//! pending event, so runs are deterministic.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ivl_core::channel::{FeedEffect, OnlineChannel as _, SimChannel};
use ivl_core::{Bit, Signal, SignalBuilder, Transition};

use crate::error::SimError;
use crate::graph::{Circuit, EdgeId, Names, NodeId, NodeTag, Topology, DIRECT};
use crate::queue::{EventKey, EventQueue};

/// The null link: no record, or an empty list.
const NIL: u32 = u32::MAX;

/// One pending output transition: a node of its edge's list.
#[derive(Debug, Clone, Copy)]
struct Pending {
    time: f64,
    /// The schedule sequence number, unique in a run: the queue's
    /// tie-break and the identity its head keys are checked against.
    seq: u64,
    value: Bit,
    /// Neighbours in the edge's list (`NIL` at the ends); `next` also
    /// chains the free list.
    prev: u32,
    next: u32,
}

/// Slab of [`Pending`] records with an intrusive free list. Records are
/// recycled, so a run's memory high-water mark is the maximum number of
/// *simultaneously pending* events, not the total event count.
#[derive(Debug)]
struct Slab {
    records: Vec<Pending>,
    /// Head of the free list, chained through `Pending::next`.
    free: u32,
    /// Number of records in use.
    live: usize,
}

impl Default for Slab {
    fn default() -> Self {
        Slab {
            records: Vec::new(),
            free: NIL,
            live: 0,
        }
    }
}

impl Slab {
    fn clear(&mut self) {
        self.records.clear();
        self.free = NIL;
        self.live = 0;
    }

    fn alloc(&mut self, record: Pending) -> u32 {
        self.live += 1;
        if self.free == NIL {
            let i = u32::try_from(self.records.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event slab exceeds u32 records");
            self.records.push(record);
            i
        } else {
            let i = self.free;
            let slot = &mut self.records[i as usize];
            self.free = slot.next;
            *slot = record;
            i
        }
    }

    fn release(&mut self, i: u32) {
        self.live -= 1;
        self.records[i as usize].next = self.free;
        self.free = i;
    }

    /// Whether `key` names the current head of its entry's list.
    fn is_head(&self, entries: &[Fed], key: &EventKey) -> bool {
        let head = entries[key.entry as usize].head;
        head != NIL && self.records[head as usize].seq == key.seq
    }

    /// Unlinks the head of `fed`'s list if `key` names it, in the single
    /// record access that checks it, and returns the delivered
    /// `(time, value)` plus the key of the list's new head. `None` (no
    /// mutation) for a stale key.
    fn take_head(
        &mut self,
        fed: &mut Fed,
        key: &EventKey,
    ) -> Option<((f64, Bit), Option<EventKey>)> {
        let head = fed.head;
        let record = *self.records.get(head as usize)?;
        if record.seq != key.seq {
            return None;
        }
        self.release(head);
        fed.head = record.next;
        let next = if record.next == NIL {
            fed.tail = NIL;
            None
        } else {
            let n = &mut self.records[record.next as usize];
            n.prev = NIL;
            Some(EventKey {
                time: n.time,
                seq: n.seq,
                ..*key
            })
        };
        Some(((record.time, record.value), next))
    }

    /// Number of records ever allocated since the run began (the slab's
    /// high-water mark).
    fn capacity(&self) -> usize {
        self.records.len()
    }
}

/// Run state of one fed edge.
struct Fed {
    /// The edge's channel; `None` on a direct connection.
    channel: Option<Box<dyn SimChannel>>,
    /// Run stamp: equal to the current run once the edge's list was
    /// emptied and its channel reset in it.
    seen: u32,
    /// The reseed generation whose seed the channel holds.
    applied: u32,
    /// Ends of the edge's pending list (`NIL` when empty).
    head: u32,
    tail: u32,
}

/// Run state for the edges fed so far: a 4-byte index per edge and one
/// [`Fed`] entry per fed edge.
struct FedEdges {
    /// Per edge: 1 + its entry's index, 0 = never fed.
    index: Vec<u32>,
    entries: Vec<Fed>,
}

impl FedEdges {
    fn new(edges: usize) -> Self {
        FedEdges {
            index: vec![0; edges],
            entries: Vec::new(),
        }
    }

    /// The entry of `edge`, created with `channel()` if the edge has
    /// none yet.
    fn open(
        &mut self,
        edge: usize,
        channel: impl FnOnce() -> Option<Box<dyn SimChannel>>,
    ) -> usize {
        match self.index[edge] {
            0 => {
                self.entries.push(Fed {
                    channel: channel(),
                    seen: 0,
                    applied: 0,
                    head: NIL,
                    tail: NIL,
                });
                // at most one entry per edge, and edge ids fit in u32
                self.index[edge] = self.entries.len() as u32;
                self.entries.len() - 1
            }
            i => i as usize - 1,
        }
    }
}

impl Clone for FedEdges {
    /// Copies the channels and reseed generations; the run stamps are
    /// cleared, because a clone starts its own run count.
    fn clone(&self) -> Self {
        FedEdges {
            index: self.index.clone(),
            entries: self
                .entries
                .iter()
                .map(|fed| Fed {
                    channel: fed.channel.clone(),
                    seen: 0,
                    applied: fed.applied,
                    head: NIL,
                    tail: NIL,
                })
                .collect(),
        }
    }
}

/// Slot sentinel: this node/edge has no recorder this run.
const NO_REC: u32 = u32::MAX;

/// The t = 0 state of a run: every node's initial value, every pin's
/// value, the gates whose declared initial value disagrees with their
/// inputs, and the recorder slot of each node.
///
/// It depends only on the topology, the input ports' initial bits and
/// the watch set, so it is computed once and reused for as long as
/// those stay the same (the topology never changes under one
/// simulator).
#[derive(Debug, Default)]
struct Baseline {
    /// The key: input-port initial bits (in `input_ports` order) and
    /// the watch set this baseline was computed for; `None` until the
    /// first run.
    key: Option<(Vec<Bit>, Option<Watch>)>,
    node_initial: Vec<Bit>,
    /// Flattened pin values, indexed by the topology's `pin_start` CSR.
    pins: Vec<Bit>,
    /// Gates whose function of their initial inputs differs from their
    /// declared initial value, ascending: the only gates the t = 0
    /// batch has to evaluate besides those its deliveries dirty.
    inconsistent: Vec<usize>,
    /// Recorder slot per node (`NO_REC` = unwatched). Identity map in
    /// full-recording mode.
    node_slot: Vec<u32>,
}

impl Baseline {
    fn matches(&self, inputs: &[Signal], watch: Option<&Watch>) -> bool {
        let Some((bits, watched)) = &self.key else {
            return false;
        };
        let same_watch = match (watched, watch) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(&a.nodes, &b.nodes),
            _ => false,
        };
        same_watch && bits.iter().zip(inputs).all(|(b, s)| *b == s.initial())
    }

    #[allow(clippy::cast_possible_truncation)]
    fn rebuild(&mut self, topo: &Topology, inputs: &[Signal], watch: Option<&Watch>) {
        let n_nodes = topo.node_count();
        self.node_initial.clear();
        self.node_initial
            .extend((0..n_nodes).map(|i| match topo.node_tags[i] {
                NodeTag::Gate => topo.node_initial[i],
                // input ports are set below; output ports inherit their
                // (unique) driver's initial value, fixed up below
                NodeTag::Input | NodeTag::Output => Bit::Zero,
            }));
        for (&i, signal) in topo.input_ports.iter().zip(inputs) {
            self.node_initial[i as usize] = signal.initial();
        }

        // pin values: driver's initial value propagated (channels keep
        // the initial value)
        self.pins.clear();
        self.pins
            .resize(topo.pin_start[n_nodes] as usize, Bit::Zero);
        for e in 0..topo.edge_count() {
            let to = topo.edge_to[e] as usize;
            self.pins[(topo.pin_start[to] + topo.edge_pin[e]) as usize] =
                self.node_initial[topo.edge_from[e] as usize];
        }
        self.inconsistent.clear();
        for i in 0..n_nodes {
            match topo.node_tags[i] {
                NodeTag::Output => self.node_initial[i] = self.pins[topo.pin_start[i] as usize],
                NodeTag::Gate => {
                    if topo.gate_kinds[i].eval(&self.pins[topo.pin_range(i)])
                        != self.node_initial[i]
                    {
                        self.inconsistent.push(i);
                    }
                }
                NodeTag::Input => {}
            }
        }

        self.node_slot.clear();
        match watch {
            None => self.node_slot.extend(0..n_nodes as u32),
            Some(watch) => {
                self.node_slot.resize(n_nodes, NO_REC);
                for (slot, id) in watch.nodes.iter().enumerate() {
                    self.node_slot[id.index()] = slot as u32;
                }
            }
        }
        self.key = Some((inputs.iter().map(Signal::initial).collect(), watch.cloned()));
    }
}

/// Per-node working state of a run. A node is restored from the
/// [`Baseline`] on its first touch in a run (a delivery to it, or its
/// t = 0 evaluation), so a run pays only for the nodes it reaches.
#[derive(Debug, Default)]
struct Nodes {
    /// Run stamp per node: equal to the current run once the node's
    /// pins, output value and dirty flag were restored in it.
    seen: Vec<u32>,
    /// Flattened pin values, indexed by the topology's `pin_start` CSR.
    pins: Vec<Bit>,
    out_value: Vec<Bit>,
    dirty_flag: Vec<bool>,
}

impl Nodes {
    #[inline]
    fn open(&mut self, n: usize, run: u32, topo: &Topology, base: &Baseline) {
        if self.seen[n] != run {
            self.seen[n] = run;
            let pins = topo.pin_range(n);
            self.pins[pins.clone()].copy_from_slice(&base.pins[pins]);
            self.out_value[n] = base.node_initial[n];
            self.dirty_flag[n] = false;
        }
    }
}

/// Per-run working memory, reused across [`Simulator::run`] calls.
///
/// `prepare` costs O(inputs + watched), not O(netlist) (full recording
/// still resets one recorder per node and edge): node and fed-edge
/// state is stamped with the run and restored on first touch, so after
/// a warmup run repeated simulations allocate nothing here and touch
/// only what the stimulus reaches. A run that fails part-way needs no
/// clean-up: the next run's stamp makes everything it left behind
/// stale.
#[derive(Debug, Default)]
struct SimState {
    base: Baseline,
    /// The current run's stamp (see [`Nodes::seen`] and [`Fed::seen`]).
    run: u32,
    nodes: Nodes,
    node_rec: Vec<SignalBuilder>,
    /// One recorder per edge under full recording, none under a watch
    /// set.
    edge_rec: Vec<SignalBuilder>,
    slab: Slab,
    queue: EventQueue,
    dirty: Vec<usize>,
    dirty_scratch: Vec<usize>,
}

impl SimState {
    fn prepare(
        &mut self,
        topo: &Topology,
        inputs: &[Signal],
        watch: Option<&Watch>,
        edges: &mut FedEdges,
    ) {
        if !self.base.matches(inputs, watch) {
            self.base.rebuild(topo, inputs, watch);
            let n_nodes = topo.node_count();
            self.nodes.seen.resize(n_nodes, 0);
            self.nodes.pins.resize(self.base.pins.len(), Bit::Zero);
            self.nodes.out_value.resize(n_nodes, Bit::Zero);
            self.nodes.dirty_flag.resize(n_nodes, false);
        }
        // a new stamp makes every node and fed edge stale; on
        // wrap-around, clear the stamps so no old one can collide with it
        self.run = self.run.wrapping_add(1);
        if self.run == 0 {
            self.nodes.seen.fill(0);
            for fed in &mut edges.entries {
                fed.seen = 0;
            }
            self.run = 1;
        }

        // recorders: full mode keeps one per node and edge
        // (bit-identical legacy behaviour); a watch set allocates
        // exactly one recorder per watched node and none per edge
        let initial = &self.base.node_initial;
        match watch {
            None => {
                self.node_rec
                    .resize_with(initial.len(), || SignalBuilder::new(Bit::Zero));
                for (rec, &init) in self.node_rec.iter_mut().zip(initial) {
                    rec.reset(init);
                }
                self.edge_rec
                    .resize_with(topo.edge_count(), || SignalBuilder::new(Bit::Zero));
                for (rec, &from) in self.edge_rec.iter_mut().zip(&topo.edge_from) {
                    rec.reset(initial[from as usize]);
                }
            }
            Some(watch) => {
                self.node_rec
                    .resize_with(watch.nodes.len(), || SignalBuilder::new(Bit::Zero));
                for (rec, id) in self.node_rec.iter_mut().zip(watch.nodes.iter()) {
                    rec.reset(initial[id.index()]);
                }
                self.edge_rec.clear();
            }
        }
        self.slab.clear();
        self.queue.clear();

        // the t = 0 batch starts from the inconsistent gates; a gate
        // that agrees with its inputs cannot change until a delivery
        // dirties it
        self.dirty.clear();
        self.dirty_scratch.clear();
        for &g in &self.base.inconsistent {
            self.nodes.open(g, self.run, topo, &self.base);
            self.nodes.dirty_flag[g] = true;
            self.dirty.push(g);
        }
    }
}

/// The seed of the latest [`Simulator::reseed_noise`] call. Each
/// channel takes it on its first feed after the call, so a reseed costs
/// O(1) plus one `reseed` per channel a later run actually feeds.
#[derive(Debug, Clone, Default)]
struct NoiseSeed {
    /// Number of `reseed_noise` calls so far (0 = never reseeded).
    generation: u32,
    seed: u64,
}

impl NoiseSeed {
    /// Takes `seed` as the latest; on wrap-around of the generation,
    /// first marks every fed edge as holding no reseed.
    fn set(&mut self, seed: u64, edges: &mut FedEdges) {
        if self.generation == u32::MAX {
            for fed in &mut edges.entries {
                fed.applied = 0;
            }
            self.generation = 0;
        }
        self.generation += 1;
        self.seed = seed;
    }

    /// Reseeds `channel` (on `edge`, holding generation `applied`)
    /// unless it already holds the latest seed. The per-edge derivation
    /// mixes the edge index in, so distinct channels draw decorrelated
    /// streams.
    fn apply(&self, edge: usize, applied: &mut u32, channel: &mut dyn SimChannel) {
        if *applied != self.generation {
            *applied = self.generation;
            channel.reseed(split_mix64(
                self.seed ^ (edge as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
        }
    }
}

/// Scheduling front-end over the fed edges, the slab and the queue;
/// split out of `run` so the borrow checker sees disjoint state.
struct Queue<'a> {
    protos: &'a [Box<dyn SimChannel>],
    edge_proto: &'a [u32],
    edges: &'a mut FedEdges,
    slab: &'a mut Slab,
    queue: &'a mut EventQueue,
    run: u32,
    noise: &'a NoiseSeed,
    seq: u64,
    scheduled: usize,
    cancelled: usize,
    max_events: usize,
}

impl Queue<'_> {
    /// Sends transition `tr` into `edge`: scheduled as-is on a direct
    /// connection, fed to the channel otherwise. The edge's first send
    /// ever creates its entry, cloning the channel from its prototype;
    /// its first send in a run empties the list the previous run left
    /// and resets (and, after a `reseed_noise`, reseeds) its channel.
    /// `now` is the current simulation time (`None` during
    /// pre-scheduling of input-port signals, when an output cannot land
    /// in the past).
    fn send(&mut self, edge: usize, tr: Transition, now: Option<f64>) -> Result<(), SimError> {
        let (protos, proto) = (self.protos, self.edge_proto[edge]);
        let i = self.edges.open(edge, || {
            (proto != DIRECT).then(|| protos[proto as usize].clone())
        });
        let fed = &mut self.edges.entries[i];
        if fed.seen != self.run {
            fed.seen = self.run;
            fed.head = NIL;
            fed.tail = NIL;
            if let Some(ch) = &mut fed.channel {
                ch.reset();
                self.noise.apply(edge, &mut fed.applied, &mut **ch);
            }
        }
        let Some(ch) = &mut fed.channel else {
            return self.schedule(i, edge, tr);
        };
        match ch.feed(tr) {
            FeedEffect::Scheduled(out) => {
                // an output in the past, or before one still pending on
                // this edge, would break the (time, seq) order
                let tail = fed.tail;
                if now.is_some_and(|now| out.time <= now)
                    || (tail != NIL && out.time < self.slab.records[tail as usize].time)
                {
                    return Err(SimError::CausalityViolation {
                        time: tr.time,
                        edge,
                    });
                }
                self.schedule(i, edge, out)
            }
            FeedEffect::CancelledPair { cancelled } => self.cancel(i, edge, cancelled),
            FeedEffect::Dropped => Ok(()),
        }
    }

    /// Appends a transition to the list of `edge` (entry `i`), charging
    /// it against the event budget — cancel-heavy churn is bounded even
    /// if nothing is ever delivered. A list that was empty pushes its
    /// new head's key.
    #[allow(clippy::cast_possible_truncation)]
    fn schedule(&mut self, i: usize, edge: usize, tr: Transition) -> Result<(), SimError> {
        self.scheduled += 1;
        if self.scheduled > self.max_events {
            return Err(SimError::MaxEventsExceeded {
                budget: self.max_events,
                time: tr.time,
            });
        }
        let fed = &mut self.edges.entries[i];
        let record = self.slab.alloc(Pending {
            time: tr.time,
            seq: self.seq,
            value: tr.value,
            prev: fed.tail,
            next: NIL,
        });
        if fed.tail == NIL {
            fed.head = record;
            // entry and edge indices fit in u32, as the topology's do
            self.queue.push(EventKey {
                time: tr.time,
                seq: self.seq,
                entry: i as u32,
                edge: edge as u32,
            });
        } else {
            self.slab.records[fed.tail as usize].next = record;
        }
        fed.tail = record;
        self.seq += 1;
        Ok(())
    }

    /// Cancels the tail of the list of `edge` (entry `i`), which must be
    /// exactly the transition the channel names. Only a cancel that
    /// empties the list leaves a stale key in the queue.
    fn cancel(&mut self, i: usize, edge: usize, cancelled: Transition) -> Result<(), SimError> {
        let fed = &mut self.edges.entries[i];
        // an empty list ⇒ the event was already delivered (or
        // cancelled): refusing here is what keeps a misbehaving channel
        // from corrupting the waveform
        let Some(&record) = self.slab.records.get(fed.tail as usize) else {
            return Err(SimError::CancellationMismatch {
                edge,
                pending: None,
                cancelled: cancelled.time,
            });
        };
        if record.time != cancelled.time || record.value != cancelled.value {
            return Err(SimError::CancellationMismatch {
                edge,
                pending: Some(record.time),
                cancelled: cancelled.time,
            });
        }
        self.slab.release(fed.tail);
        self.cancelled += 1;
        fed.tail = record.prev;
        if record.prev != NIL {
            self.slab.records[record.prev as usize].next = NIL;
            return Ok(());
        }
        fed.head = NIL;
        // the head's key stays behind as a stale key
        let (slab, entries) = (&*self.slab, &self.edges.entries);
        if self.queue.cancel(|k| slab.is_head(entries, k)) {
            debug_assert!(self.queue.len() <= slab.live);
        }
        Ok(())
    }
}

/// A selective-recording watch set: the sorted, deduplicated node ids
/// whose waveforms a run records. Shared by `Arc` into every
/// [`SimResult`], so result construction costs O(1) regardless of the
/// netlist size.
#[derive(Debug, Clone)]
struct Watch {
    nodes: Arc<Vec<NodeId>>,
}

/// Event-driven simulator over a [`Circuit`].
///
/// Owns the circuit and the run state of the edges fed so far: each
/// channel's single-history and adversary/noise state, cloned from the
/// edge's prototype on its first feed, and its pending events. Typical
/// use:
/// [`set_input`](Simulator::set_input) for every input port, then
/// [`run`](Simulator::run).
///
/// # Run lifecycle and state reuse
///
/// A run costs O(inputs + watched + touched), not O(netlist). The t = 0
/// state (initial values, pin values, recorder slots, and the gates
/// whose declared initial value disagrees with their inputs) is
/// computed once and reused until an input port's initial bit or the
/// watch set changes. Each run then restores only the nodes, pins and
/// edge lists it touches, on first touch, and evaluates at t = 0 only
/// the inconsistent gates plus those the t = 0 deliveries dirty, in
/// ascending node order. A channel's single-history state is reset on
/// its first feed in a run. Memory follows the same rule: an edge costs
/// a 4-byte index until it is first fed, then one table entry, and a
/// pending event costs one slab record. After a warmup run, repeated
/// runs perform no further slab/recorder allocations; only the returned
/// [`SimResult`] is freshly allocated. Results are bit-identical to
/// rebuilding all of that state eagerly before every run, including
/// after a run that returned an error.
///
/// Noise RNG streams are deliberately *not* reset between runs, so
/// repeated runs explore fresh adversary choices. For reproducible
/// sweeps, [`reseed_noise`](Simulator::reseed_noise) pins every
/// channel's stream to a scenario seed (this is what
/// [`ScenarioRunner`](crate::ScenarioRunner) does per scenario). The
/// reseed is applied to each channel on its first feed after the call,
/// which is indistinguishable from reseeding all channels at once
/// because a channel's noise is only drawn when it is fed.
///
/// # Memory-bounded recording
///
/// By default every node and edge records its full waveform. On large
/// netlists, [`set_watch`](Simulator::set_watch) restricts recording to
/// the named nodes (recording memory ∝ watched nodes, not netlist
/// size), and the scheduled-event budget
/// ([`with_max_events`](Simulator::with_max_events)) bounds how long
/// any recorded waveform can grow. A watch set does not change what is
/// *simulated* — event processing is bit-identical; only what is *kept*
/// differs.
pub struct Simulator {
    circuit: Circuit,
    /// Run state of the edges fed so far (channels included).
    edges: FedEdges,
    /// One signal per input port, in `Topology::input_ports` order.
    inputs: Vec<Signal>,
    max_events: usize,
    state: SimState,
    noise: NoiseSeed,
    cancel: Option<Arc<AtomicBool>>,
    watch: Option<Watch>,
}

impl Simulator {
    /// Creates a simulator; all inputs default to the zero signal.
    #[must_use]
    pub fn new(circuit: Circuit) -> Self {
        let inputs = vec![Signal::zero(); circuit.topo.input_ports.len()];
        Simulator {
            edges: FedEdges::new(circuit.edge_count()),
            circuit,
            inputs,
            max_events: 10_000_000,
            state: SimState::default(),
            noise: NoiseSeed::default(),
            cancel: None,
            watch: None,
        }
    }

    /// Replaces the channel on `edge` (which must be a channel edge)
    /// for this simulator's later runs. This is how callers swap an
    /// adversary/noise source into a prebuilt circuit without
    /// rebuilding the netlist (e.g. the SPF circuit's per-run noise):
    /// it writes the edge's entry (creating it if the edge was never
    /// fed), so the circuit — topology and prototypes — is untouched,
    /// and recorded state and node ids stay valid.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range or is a direct connection — a
    /// direct edge can never legally carry a channel, because gates and
    /// channels alternate.
    pub fn replace_channel(&mut self, edge: EdgeId, channel: Box<dyn SimChannel>) {
        assert!(
            self.circuit.topo.edge_proto[edge.index()] != DIRECT,
            "edge {} is a direct connection, not a channel",
            edge.0
        );
        let i = self.edges.open(edge.index(), || None);
        let fed = &mut self.edges.entries[i];
        fed.channel = Some(channel);
        // the new channel keeps its own seed, exactly as if the latest
        // reseed had been applied to the channel it replaces
        fed.applied = self.noise.generation;
    }

    /// Caps the number of *scheduled* events per run (guards against
    /// unbounded oscillation; default 10 million).
    ///
    /// Scheduling is charged, not delivery, so a pathological
    /// schedule-then-cancel loop trips the guard even though it never
    /// delivers anything.
    #[must_use]
    pub fn with_max_events(mut self, max_events: usize) -> Self {
        self.max_events = max_events;
        self
    }

    /// Non-consuming form of [`with_max_events`](Simulator::with_max_events):
    /// sweep supervisors use it to tighten and restore the budget around
    /// a single scenario without rebuilding the simulator.
    pub fn set_max_events(&mut self, max_events: usize) {
        self.max_events = max_events;
    }

    /// The configured scheduled-event budget per run.
    #[must_use]
    pub fn max_events(&self) -> usize {
        self.max_events
    }

    /// Restricts waveform recording to the named nodes. Subsequent runs
    /// allocate one recorder per watched node and none per edge, so
    /// recording memory is proportional to the watch set — not the
    /// netlist. Unwatched nodes still *simulate* identically (event
    /// processing is unaffected); only [`SimResult`] queries against
    /// them fail with [`SimError::NotWatched`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] if a name does not resolve;
    /// the previous watch configuration is left unchanged.
    pub fn set_watch<I, S>(&mut self, names: I) -> Result<(), SimError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut nodes = Vec::new();
        for name in names {
            let name = name.as_ref();
            let id = self
                .circuit
                .node(name)
                .ok_or_else(|| SimError::UnknownNode {
                    name: name.to_owned(),
                })?;
            nodes.push(id);
        }
        nodes.sort_unstable();
        nodes.dedup();
        self.watch = Some(Watch {
            nodes: Arc::new(nodes),
        });
        Ok(())
    }

    /// Consuming form of [`set_watch`](Simulator::set_watch).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] if a name does not resolve.
    pub fn with_watch<I, S>(mut self, names: I) -> Result<Self, SimError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.set_watch(names)?;
        Ok(self)
    }

    /// Restores full recording: every node and edge gets a recorder
    /// again (the default).
    pub fn clear_watch(&mut self) {
        self.watch = None;
    }

    /// Attaches (or detaches) a cooperative cancellation flag.
    ///
    /// [`run`](Simulator::run) polls the flag once per event batch with
    /// relaxed ordering — negligible cost — and returns
    /// [`SimError::Cancelled`] as soon as it observes `true`. Sweep
    /// watchdogs use this to reclaim workers stuck on a pathological
    /// scenario; the flag is never cleared by the simulator itself, so
    /// the owner must reset it between runs.
    pub fn set_cancel_flag(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.cancel = flag;
    }

    /// The circuit under simulation. Its channels are the prototypes;
    /// run state lives in the simulator.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Assigns the signal of an input port.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownPort`] if `name` is not an input port
    /// and [`SimError::InputViolatesS1`] if the signal has transitions
    /// before time 0.
    pub fn set_input(&mut self, name: &str, signal: Signal) -> Result<(), SimError> {
        let topo = &self.circuit.topo;
        let port = self
            .circuit
            .node(name)
            .and_then(|id| topo.input_ports.binary_search(&id.0).ok())
            .ok_or_else(|| SimError::UnknownPort {
                name: name.to_owned(),
            })?;
        if !signal.satisfies_s1() {
            return Err(SimError::InputViolatesS1 {
                name: name.to_owned(),
            });
        }
        self.inputs[port] = signal;
        Ok(())
    }

    /// Resets every input port back to the zero signal (scenario sweeps
    /// call this between scenarios so stale stimuli don't leak through).
    /// Costs one write per input port.
    pub fn reset_inputs(&mut self) {
        for s in &mut self.inputs {
            *s = Signal::zero();
        }
    }

    /// Reseeds every channel's noise stream from `seed`, mixed with the
    /// edge index so distinct channels draw decorrelated streams.
    /// Deterministic channels are unaffected.
    ///
    /// Two simulators over clones of the same circuit produce bitwise
    /// identical runs after `reseed_noise` with the same seed. The call
    /// itself is O(1): each channel takes the seed on its first feed
    /// afterwards (see the run lifecycle above).
    pub fn reseed_noise(&mut self, seed: u64) {
        self.noise.set(seed, &mut self.edges);
    }

    /// High-water mark of the internal event slab: the largest number
    /// of simultaneously pending events the latest run needed. Stable
    /// across repeated runs of the same workload — the slab recycles
    /// records instead of growing.
    #[must_use]
    pub fn event_pool_capacity(&self) -> usize {
        self.state.slab.capacity()
    }

    /// Runs the simulation up to and including time `horizon`.
    ///
    /// Events scheduled after the horizon are discarded; an oscillating
    /// circuit simply yields signals truncated at the horizon.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CausalityViolation`] if a channel's output
    /// would land in the simulation's past (adversary bounds too large
    /// for event-driven evaluation) or before an output the channel
    /// still has pending,
    /// [`SimError::CancellationMismatch`] if a channel cancels a
    /// transition that does not match the pending event on its edge, and
    /// [`SimError::MaxEventsExceeded`] if the scheduled-event budget runs
    /// out before the horizon.
    #[allow(clippy::too_many_lines)]
    pub fn run(&mut self, horizon: f64) -> Result<SimResult, SimError> {
        let cancel = self.cancel.clone();

        // split the simulator into disjoint borrows so the hot loops
        // index the flat topology arrays directly: the circuit is
        // read-only, only the fed edges are mutated
        let Circuit { topo, protos } = &self.circuit;
        let topo = &**topo;
        let inputs = &self.inputs;
        let state = &mut self.state;
        state.prepare(topo, inputs, self.watch.as_ref(), &mut self.edges);

        let SimState {
            base,
            run,
            nodes,
            node_rec,
            edge_rec,
            slab,
            queue: event_queue,
            dirty,
            dirty_scratch,
        } = state;
        let run = *run;
        let node_slot = base.node_slot.as_slice();

        let mut queue = Queue {
            protos,
            edge_proto: &topo.edge_proto,
            edges: &mut self.edges,
            slab,
            queue: event_queue,
            run,
            noise: &self.noise,
            seq: 0,
            scheduled: 0,
            cancelled: 0,
            max_events: self.max_events,
        };

        // Pre-schedule all input-port signals. A channel driven by an
        // input port sees exactly that port's transitions, so feeding
        // them all upfront is equivalent to feeding them in global time
        // order.
        for (&port, signal) in topo.input_ports.iter().zip(inputs) {
            let i = port as usize;
            for &eid in topo.outgoing(i) {
                let e = eid as usize;
                for tr in signal {
                    queue.send(e, *tr, None)?;
                }
            }
            // record the input signal itself
            let slot = node_slot[i];
            if slot != NO_REC {
                for tr in signal {
                    node_rec[slot as usize]
                        .push(*tr)
                        .expect("input signal is already validated");
                }
            }
        }

        // main loop: process batches of equal-time events, then evaluate
        // affected gates, then feed their output transitions onward.
        let mut processed = 0usize;
        // the initial batch runs at t = 0 to surface inconsistent gate
        // initial values (the paper lets a gate's declared initial value
        // disagree with its function; the mismatch appears at time 0)
        let mut batch_time = 0.0_f64;
        let mut first_batch = true;

        loop {
            // cooperative cancellation: one relaxed load per batch
            if let Some(flag) = &cancel {
                if flag.load(Ordering::Relaxed) {
                    return Err(SimError::Cancelled { time: batch_time });
                }
            }
            // deliver every still-live event at batch_time: the whole
            // same-timestamp batch lands in the dirty set before any
            // gate is re-evaluated
            while let Some((key, (time, value))) = queue.queue.pop_at_or_before(batch_time, |key| {
                let fed = &mut queue.edges.entries[key.entry as usize];
                let (taken, next) = queue.slab.take_head(fed, key)?;
                Some(((*key, taken), next))
            }) {
                let edge_idx = key.edge as usize;
                processed += 1;
                if let Some(ch) = &mut queue.edges.entries[key.entry as usize].channel {
                    ch.discard_delivered(time);
                }
                if let Some(rec) = edge_rec.get_mut(edge_idx) {
                    rec.push(Transition::new(time, value))
                        .expect("channel outputs alternate and increase");
                }
                let to = topo.edge_to[edge_idx] as usize;
                let pin = topo.edge_pin[edge_idx];
                nodes.open(to, run, topo, base);
                nodes.pins[(topo.pin_start[to] + pin) as usize] = value;
                match topo.node_tags[to] {
                    NodeTag::Gate => {
                        if !nodes.dirty_flag[to] {
                            nodes.dirty_flag[to] = true;
                            dirty.push(to);
                        }
                    }
                    NodeTag::Output => {
                        if nodes.out_value[to] != value {
                            nodes.out_value[to] = value;
                            let slot = node_slot[to];
                            if slot != NO_REC {
                                node_rec[slot as usize]
                                    .push(Transition::new(time, value))
                                    .expect("output port deliveries alternate");
                            }
                        }
                    }
                    NodeTag::Input => unreachable!("edges cannot enter input ports"),
                }
            }

            // the t = 0 batch evaluates its gates in ascending node
            // order, as a sweep over every gate would
            if first_batch {
                first_batch = false;
                dirty.sort_unstable();
            }
            // evaluate dirty gates and feed their transitions
            std::mem::swap(dirty, dirty_scratch);
            for &i in dirty_scratch.iter() {
                nodes.dirty_flag[i] = false;
            }
            for &i in dirty_scratch.iter() {
                let new_value = topo.gate_kinds[i].eval(&nodes.pins[topo.pin_range(i)]);
                if new_value == nodes.out_value[i] {
                    continue;
                }
                nodes.out_value[i] = new_value;
                let tr = Transition::new(batch_time, new_value);
                let slot = node_slot[i];
                if slot != NO_REC {
                    node_rec[slot as usize]
                        .push(tr)
                        .expect("gate output changes strictly after its previous change");
                }
                for &eid in topo.outgoing(i) {
                    let e = eid as usize;
                    queue.send(e, tr, Some(batch_time))?;
                }
            }
            dirty_scratch.clear();

            // next batch: earliest remaining live event
            let next = queue
                .queue
                .peek(|key| queue.slab.is_head(&queue.edges.entries, key));
            match next.map(|key| key.time) {
                Some(t) if t <= horizon => {
                    if t > batch_time {
                        batch_time = t;
                    }
                    // equal time: keep batching at the same time (newly
                    // scheduled same-time direct deliveries)
                }
                _ => break,
            }
        }

        let scheduled_events = queue.scheduled;
        // every scheduled event was delivered, cancelled, or is still
        // pending beyond the horizon
        debug_assert_eq!(
            scheduled_events,
            processed + queue.cancelled + queue.slab.live
        );
        debug_assert!(queue.queue.live() <= queue.slab.live);
        let node_signals: Vec<Signal> = node_rec.iter().map(SignalBuilder::snapshot).collect();
        let edge_signals: Vec<Signal> = edge_rec.iter().map(SignalBuilder::snapshot).collect();
        Ok(SimResult {
            names: Arc::clone(&topo.names),
            watched: self.watch.as_ref().map(|w| Arc::clone(&w.nodes)),
            node_signals,
            edge_signals,
            zero: Signal::zero(),
            horizon,
            processed_events: processed,
            scheduled_events,
        })
    }
}

impl Clone for Simulator {
    /// Clones the circuit (`Arc`-sharing the topology, copying the
    /// prototype table), the channels fed so far, the inputs and any
    /// reseed not yet applied; the clone starts with fresh, empty
    /// per-run state.
    /// The watch set carries over (its `Arc` is shared, not
    /// deep-copied).
    fn clone(&self) -> Self {
        Simulator {
            circuit: self.circuit.clone(),
            edges: self.edges.clone(),
            inputs: self.inputs.clone(),
            max_events: self.max_events,
            state: SimState::default(),
            noise: self.noise.clone(),
            cancel: None,
            watch: self.watch.clone(),
        }
    }
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("circuit", &self.circuit)
            .field("max_events", &self.max_events)
            .finish_non_exhaustive()
    }
}

/// `SplitMix64` — used to derive decorrelated per-edge noise seeds.
pub(crate) fn split_mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The recorded signals of a completed run.
///
/// Under full recording (the default) every node and edge has a
/// waveform. Under a [watch set](Simulator::set_watch) only the watched
/// nodes do: queries against unwatched nodes return
/// [`SimError::NotWatched`] (by name) or the zero signal (by id), and
/// edge queries return the zero signal.
#[derive(Debug, Clone)]
pub struct SimResult {
    names: Arc<Names>,
    /// Sorted watched node ids; `None` = full recording. `node_signals`
    /// is indexed by position in this list when present, by raw node id
    /// otherwise.
    watched: Option<Arc<Vec<NodeId>>>,
    node_signals: Vec<Signal>,
    edge_signals: Vec<Signal>,
    zero: Signal,
    horizon: f64,
    processed_events: usize,
    scheduled_events: usize,
}

impl SimResult {
    fn slot(&self, id: NodeId) -> Option<usize> {
        match &self.watched {
            None => Some(id.index()),
            Some(w) => w.binary_search(&id).ok(),
        }
    }

    /// The signal at the named node (input port, gate output, or output
    /// port).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] if the name does not resolve
    /// and [`SimError::NotWatched`] if the run recorded selectively and
    /// the node was not watched.
    pub fn signal(&self, name: &str) -> Result<&Signal, SimError> {
        let id = self.names.find(name).ok_or_else(|| SimError::UnknownNode {
            name: name.to_owned(),
        })?;
        self.slot(id)
            .map(|s| &self.node_signals[s])
            .ok_or_else(|| SimError::NotWatched {
                name: name.to_owned(),
            })
    }

    /// The signal at a node id; the zero signal if the node was not
    /// watched.
    #[must_use]
    pub fn node_signal(&self, id: NodeId) -> &Signal {
        self.slot(id).map_or(&self.zero, |s| &self.node_signals[s])
    }

    /// The signal delivered at the *output* of an edge's channel; the
    /// zero signal if the run recorded selectively (watch sets record
    /// no edges).
    #[must_use]
    pub fn edge_signal(&self, id: EdgeId) -> &Signal {
        if self.watched.is_some() {
            &self.zero
        } else {
            &self.edge_signals[id.index()]
        }
    }

    /// Moves the named signal out of the result (no clone). Subsequent
    /// reads of the same node see the zero signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] if the name does not resolve
    /// and [`SimError::NotWatched`] if the node was not watched.
    pub fn take_signal(&mut self, name: &str) -> Result<Signal, SimError> {
        let id = self.names.find(name).ok_or_else(|| SimError::UnknownNode {
            name: name.to_owned(),
        })?;
        match self.slot(id) {
            Some(s) => Ok(std::mem::replace(&mut self.node_signals[s], Signal::zero())),
            None => Err(SimError::NotWatched {
                name: name.to_owned(),
            }),
        }
    }

    /// Moves a node's signal out of the result (no clone). Subsequent
    /// reads of the same node see the zero signal; an unwatched node
    /// yields the zero signal.
    #[must_use]
    pub fn take_node_signal(&mut self, id: NodeId) -> Signal {
        match self.slot(id) {
            Some(s) => std::mem::replace(&mut self.node_signals[s], Signal::zero()),
            None => Signal::zero(),
        }
    }

    /// Moves an edge's delivered signal out of the result (no clone).
    /// Subsequent reads of the same edge see the zero signal; under
    /// selective recording the zero signal is all there is.
    #[must_use]
    pub fn take_edge_signal(&mut self, id: EdgeId) -> Signal {
        if self.watched.is_some() {
            Signal::zero()
        } else {
            std::mem::replace(&mut self.edge_signals[id.index()], Signal::zero())
        }
    }

    /// The simulation horizon this run used.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Number of events delivered.
    #[must_use]
    pub fn processed_events(&self) -> usize {
        self.processed_events
    }

    /// Number of events scheduled (delivered + cancelled + beyond the
    /// horizon); this is what [`Simulator::with_max_events`] budgets.
    #[must_use]
    pub fn scheduled_events(&self) -> usize {
        self.scheduled_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::graph::CircuitBuilder;
    use ivl_core::channel::{Channel, InertialDelay, InvolutionChannel, PureDelay};
    use ivl_core::delay::ExpChannel;

    fn pure(d: f64) -> PureDelay {
        PureDelay::new(d).unwrap()
    }

    #[test]
    fn wire_through() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let y = b.output("y");
        b.connect_direct(a, y, 0).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        let s = Signal::pulse(1.0, 2.0).unwrap();
        sim.set_input("a", s.clone()).unwrap();
        let run = sim.run(10.0).unwrap();
        assert_eq!(run.signal("y").unwrap(), &s);
        assert_eq!(run.signal("a").unwrap(), &s);
        assert_eq!(run.processed_events(), 2);
        assert_eq!(run.scheduled_events(), 2);
    }

    #[test]
    fn inverter_with_pure_delay() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("inv", GateKind::Not, Bit::One);
        let y = b.output("y");
        b.connect_direct(a, g, 0).unwrap();
        b.connect(g, y, 0, pure(1.5)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("a", Signal::pulse(1.0, 2.0).unwrap())
            .unwrap();
        let run = sim.run(10.0).unwrap();
        let y_sig = run.signal("y").unwrap();
        assert_eq!(y_sig.initial(), Bit::One);
        // input rises at 1 → inv falls at 1 → y falls at 2.5
        assert!(y_sig.approx_eq(
            &Signal::new(
                Bit::One,
                vec![
                    Transition::new(2.5, Bit::Zero),
                    Transition::new(4.5, Bit::One)
                ]
            )
            .unwrap(),
            1e-12
        ));
    }

    #[test]
    fn set_input_validation() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let y = b.output("y");
        b.connect_direct(a, y, 0).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        assert!(matches!(
            sim.set_input("nope", Signal::zero()),
            Err(SimError::UnknownPort { .. })
        ));
        assert!(matches!(
            sim.set_input("y", Signal::zero()),
            Err(SimError::UnknownPort { .. })
        ));
        assert!(matches!(
            sim.set_input("a", Signal::pulse(-1.0, 0.5).unwrap()),
            Err(SimError::InputViolatesS1 { .. })
        ));
    }

    #[test]
    fn inconsistent_initial_value_fires_at_zero() {
        // NOT gate with initial 0 and input initial 0 → function value 1,
        // so the output must transition to 1 at t = 0
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("inv", GateKind::Not, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(a, g, 0).unwrap();
        b.connect(g, y, 0, pure(1.0)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        let run = sim.run(10.0).unwrap();
        let g_sig = run.signal("inv").unwrap();
        assert_eq!(g_sig.transitions(), &[Transition::new(0.0, Bit::One)]);
        let y_sig = run.signal("y").unwrap();
        assert_eq!(y_sig.transitions(), &[Transition::new(1.0, Bit::One)]);
    }

    #[test]
    fn two_gate_pipeline_matches_batch_channels() {
        // circuit: a -> inv1 -(involution)-> inv2 -(involution)-> y
        // must equal applying the channels in sequence with gate logic
        let d = ExpChannel::new(1.0, 0.5, 0.45).unwrap();
        let input = Signal::pulse_train([(0.0, 3.0), (5.0, 1.2), (8.0, 0.9)]).unwrap();

        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g1 = b.gate("inv1", GateKind::Not, Bit::One);
        let g2 = b.gate("inv2", GateKind::Not, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(a, g1, 0).unwrap();
        b.connect(g1, g2, 0, InvolutionChannel::new(d.clone()))
            .unwrap();
        b.connect(g2, y, 0, InvolutionChannel::new(d.clone()))
            .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("a", input.clone()).unwrap();
        let run = sim.run(100.0).unwrap();

        // reference: batch evaluation
        let mut c1 = InvolutionChannel::new(d.clone());
        let mut c2 = InvolutionChannel::new(d);
        let ref_out = c2.apply(&c1.apply(&input.complemented()).complemented());
        assert!(
            run.signal("y").unwrap().approx_eq(&ref_out, 1e-9),
            "sim: {}\nref: {}",
            run.signal("y").unwrap(),
            ref_out
        );
    }

    #[test]
    fn feedback_or_latches() {
        // the storage loop of Fig. 5 with a pure-delay channel: a pulse
        // latches the OR output to 1 forever
        let mut b = CircuitBuilder::new();
        let i = b.input("i");
        let or = b.gate("or", GateKind::Or, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(i, or, 0).unwrap();
        b.connect(or, or, 1, pure(1.0)).unwrap();
        b.connect(or, y, 0, pure(0.5)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("i", Signal::pulse(0.0, 2.0).unwrap())
            .unwrap();
        let run = sim.run(50.0).unwrap();
        let or_sig = run.signal("or").unwrap();
        assert_eq!(
            or_sig.transitions(),
            &[Transition::new(0.0, Bit::One)],
            "latched high: {or_sig}"
        );
        assert_eq!(run.signal("y").unwrap().final_value(), Bit::One);
    }

    #[test]
    fn feedback_or_oscillates_with_short_loop_pulse() {
        // pure-delay feedback with a pulse shorter than the loop delay
        // produces a periodic pulse train at the OR output
        let mut b = CircuitBuilder::new();
        let i = b.input("i");
        let or = b.gate("or", GateKind::Or, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(i, or, 0).unwrap();
        b.connect(or, or, 1, pure(2.0)).unwrap();
        b.connect(or, y, 0, pure(0.5)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("i", Signal::pulse(0.0, 0.5).unwrap())
            .unwrap();
        let run = sim.run(20.5).unwrap();
        let or_sig = run.signal("or").unwrap();
        // pulses at 0, 2, 4, … each 0.5 wide → 2 transitions per period
        assert!(or_sig.len() >= 20, "oscillation expected: {or_sig}");
        let stats = ivl_core::PulseStats::of(or_sig);
        assert!((stats.min_period().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn max_events_guard_fires() {
        let mut b = CircuitBuilder::new();
        let i = b.input("i");
        let or = b.gate("or", GateKind::Or, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(i, or, 0).unwrap();
        b.connect(or, or, 1, pure(0.001)).unwrap();
        b.connect(or, y, 0, pure(0.5)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap()).with_max_events(100);
        sim.set_input("i", Signal::pulse(0.0, 0.0005).unwrap())
            .unwrap();
        assert!(matches!(
            sim.run(1e9),
            Err(SimError::MaxEventsExceeded { .. })
        ));
    }

    #[test]
    fn scheduled_churn_counts_against_budget() {
        // 200 pulses, every one of them rejected by the inertial window:
        // each pulse schedules an output transition and then cancels it,
        // so *nothing is ever delivered*. A budget that only counted
        // delivered events would never trip on this workload.
        let mut b = CircuitBuilder::new();
        let i = b.input("i");
        let g = b.gate("buf", GateKind::Buf, Bit::Zero);
        let y = b.output("y");
        b.connect(i, g, 0, InertialDelay::new(1.0, 10.0).unwrap())
            .unwrap();
        b.connect(g, y, 0, pure(0.5)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap()).with_max_events(50);
        let input = Signal::pulse_train((0..200).map(|k| (k as f64 * 20.0, 0.5))).unwrap();
        sim.set_input("i", input.clone()).unwrap();
        assert!(matches!(
            sim.run(1e9),
            Err(SimError::MaxEventsExceeded { .. })
        ));

        // with a budget large enough the same run completes, delivering
        // nothing: pure scheduled-then-cancelled churn
        let mut sim = Simulator::new(
            {
                let mut b = CircuitBuilder::new();
                let i = b.input("i");
                let g = b.gate("buf", GateKind::Buf, Bit::Zero);
                let y = b.output("y");
                b.connect(i, g, 0, InertialDelay::new(1.0, 10.0).unwrap())
                    .unwrap();
                b.connect(g, y, 0, pure(0.5)).unwrap();
                b.build().unwrap()
            },
            // default budget
        );
        sim.set_input("i", input).unwrap();
        let run = sim.run(1e9).unwrap();
        assert_eq!(run.processed_events(), 0);
        assert_eq!(run.scheduled_events(), 200);
        assert!(run.signal("y").unwrap().is_zero());
    }

    #[test]
    fn multi_input_gate_and_fanout() {
        // y = a AND b, z = NOT(a AND b), both fed from one AND gate
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let bb = b.input("b");
        let and = b.gate("and", GateKind::And, Bit::Zero);
        let inv = b.gate("inv", GateKind::Not, Bit::One);
        let y = b.output("y");
        let z = b.output("z");
        b.connect_direct(a, and, 0).unwrap();
        b.connect_direct(bb, and, 1).unwrap();
        b.connect(and, y, 0, pure(0.1)).unwrap();
        b.connect(and, inv, 0, pure(0.1)).unwrap();
        b.connect(inv, z, 0, pure(0.1)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("a", Signal::pulse(0.0, 4.0).unwrap())
            .unwrap();
        sim.set_input("b", Signal::pulse(2.0, 4.0).unwrap())
            .unwrap();
        let run = sim.run(10.0).unwrap();
        // overlap is [2, 4)
        assert!(run
            .signal("y")
            .unwrap()
            .approx_eq(&Signal::pulse(2.1, 2.0).unwrap(), 1e-12));
        let z_sig = run.signal("z").unwrap();
        assert_eq!(z_sig.initial(), Bit::One);
        assert_eq!(z_sig.value_at(3.0), Bit::Zero);
        assert_eq!(z_sig.final_value(), Bit::One);
    }

    #[test]
    fn edge_signals_are_recorded() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("buf", GateKind::Buf, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(a, g, 0).unwrap();
        let e = b.connect(g, y, 0, pure(1.0)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("a", Signal::pulse(0.0, 1.0).unwrap())
            .unwrap();
        let run = sim.run(10.0).unwrap();
        assert!(run
            .edge_signal(e)
            .approx_eq(&Signal::pulse(1.0, 1.0).unwrap(), 1e-12));
    }

    #[test]
    fn horizon_truncates() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let y = b.output("y");
        b.connect_direct(a, y, 0).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("a", Signal::pulse_train([(0.0, 1.0), (5.0, 1.0)]).unwrap())
            .unwrap();
        let run = sim.run(3.0).unwrap();
        assert_eq!(run.signal("y").unwrap().len(), 2);
        assert_eq!(run.horizon(), 3.0);
    }

    #[test]
    fn rerun_with_different_input() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("inv", GateKind::Not, Bit::One);
        let y = b.output("y");
        b.connect_direct(a, g, 0).unwrap();
        b.connect(
            g,
            y,
            0,
            InvolutionChannel::new(ExpChannel::new(1.0, 0.5, 0.5).unwrap()),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("a", Signal::pulse(0.0, 5.0).unwrap())
            .unwrap();
        let first = sim.run(20.0).unwrap();
        sim.set_input("a", Signal::pulse(1.0, 5.0).unwrap())
            .unwrap();
        let second = sim.run(20.0).unwrap();
        assert!(second
            .signal("y")
            .unwrap()
            .approx_eq(&first.signal("y").unwrap().shifted(1.0), 1e-9));
    }

    #[test]
    fn reused_state_matches_fresh_simulator() {
        // the SimState is rebuilt in place between runs; a reused
        // simulator must agree bitwise with a freshly constructed one
        let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
        let build = || {
            let mut b = CircuitBuilder::new();
            let a = b.input("a");
            let g1 = b.gate("inv1", GateKind::Not, Bit::One);
            let g2 = b.gate("inv2", GateKind::Not, Bit::Zero);
            let y = b.output("y");
            b.connect_direct(a, g1, 0).unwrap();
            b.connect(g1, g2, 0, InvolutionChannel::new(d.clone()))
                .unwrap();
            b.connect(g2, y, 0, InvolutionChannel::new(d.clone()))
                .unwrap();
            b.build().unwrap()
        };
        let input = Signal::pulse_train([(0.0, 2.0), (5.0, 0.8)]).unwrap();

        let mut reused = Simulator::new(build());
        reused.set_input("a", input.clone()).unwrap();
        let warmup = reused.run(100.0).unwrap();
        let second = reused.run(100.0).unwrap();

        let mut fresh = Simulator::new(build());
        fresh.set_input("a", input).unwrap();
        let reference = fresh.run(100.0).unwrap();

        for name in ["a", "inv1", "inv2", "y"] {
            assert_eq!(
                warmup.signal(name).unwrap(),
                reference.signal(name).unwrap()
            );
            assert_eq!(
                second.signal(name).unwrap(),
                reference.signal(name).unwrap()
            );
        }
        assert_eq!(warmup.processed_events(), reference.processed_events());
        assert_eq!(second.processed_events(), reference.processed_events());
    }

    #[test]
    fn event_pool_capacity_is_stable_across_runs() {
        // the slab recycles records: repeated identical runs must not
        // grow it
        let mut b = CircuitBuilder::new();
        let i = b.input("i");
        let or = b.gate("or", GateKind::Or, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(i, or, 0).unwrap();
        b.connect(or, or, 1, pure(2.0)).unwrap();
        b.connect(or, y, 0, pure(0.5)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("i", Signal::pulse(0.0, 0.5).unwrap())
            .unwrap();
        sim.run(200.5).unwrap();
        let after_warmup = sim.event_pool_capacity();
        assert!(after_warmup > 0);
        for _ in 0..3 {
            sim.run(200.5).unwrap();
            assert_eq!(sim.event_pool_capacity(), after_warmup);
        }
    }

    #[test]
    fn reset_inputs_restores_zero_signals() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let y = b.output("y");
        b.connect_direct(a, y, 0).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("a", Signal::pulse(1.0, 2.0).unwrap())
            .unwrap();
        sim.reset_inputs();
        let run = sim.run(10.0).unwrap();
        assert!(run.signal("y").unwrap().is_zero());
    }

    #[test]
    fn cloned_simulator_runs_independently() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("inv", GateKind::Not, Bit::One);
        let y = b.output("y");
        b.connect_direct(a, g, 0).unwrap();
        b.connect(g, y, 0, pure(1.0)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("a", Signal::pulse(0.0, 2.0).unwrap())
            .unwrap();
        let mut clone = sim.clone();
        let original = sim.run(10.0).unwrap();
        let cloned = clone.run(10.0).unwrap();
        assert_eq!(original.signal("y").unwrap(), cloned.signal("y").unwrap());
    }

    #[test]
    fn watched_run_matches_full_run_on_watched_nodes() {
        // selective recording must not change what is simulated: the
        // watched waveforms agree bitwise with a full-recording run
        let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
        let build = || {
            let mut b = CircuitBuilder::new();
            let a = b.input("a");
            let g1 = b.gate("inv1", GateKind::Not, Bit::One);
            let g2 = b.gate("inv2", GateKind::Not, Bit::Zero);
            let y = b.output("y");
            b.connect_direct(a, g1, 0).unwrap();
            b.connect(g1, g2, 0, InvolutionChannel::new(d.clone()))
                .unwrap();
            b.connect(g2, y, 0, InvolutionChannel::new(d.clone()))
                .unwrap();
            b.build().unwrap()
        };
        let input = Signal::pulse_train([(0.0, 2.0), (5.0, 0.8)]).unwrap();

        let mut full = Simulator::new(build());
        full.reseed_noise(7);
        full.set_input("a", input.clone()).unwrap();
        let full_run = full.run(100.0).unwrap();

        let mut watched = Simulator::new(build()).with_watch(["y", "inv1"]).unwrap();
        watched.reseed_noise(7);
        watched.set_input("a", input).unwrap();
        let sel_run = watched.run(100.0).unwrap();

        for name in ["y", "inv1"] {
            assert_eq!(
                full_run.signal(name).unwrap(),
                sel_run.signal(name).unwrap()
            );
        }
        assert_eq!(
            full_run.processed_events(),
            sel_run.processed_events(),
            "watching must not change event processing"
        );
        // unwatched queries: typed error by name, zero signal by id
        assert!(matches!(
            sel_run.signal("inv2"),
            Err(SimError::NotWatched { .. })
        ));
        assert!(matches!(
            sel_run.signal("ghost"),
            Err(SimError::UnknownNode { .. })
        ));
        let g2 = watched.circuit().node("inv2").unwrap();
        assert!(sel_run.node_signal(g2).is_zero());
        assert!(sel_run.edge_signal(EdgeId(1)).is_zero());
    }

    #[test]
    fn watch_rejects_unknown_names() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let y = b.output("y");
        b.connect_direct(a, y, 0).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        assert!(matches!(
            sim.set_watch(["nope"]),
            Err(SimError::UnknownNode { .. })
        ));
        sim.set_watch(["y"]).unwrap();
        sim.clear_watch();
        sim.set_input("a", Signal::pulse(0.0, 1.0).unwrap())
            .unwrap();
        let run = sim.run(10.0).unwrap();
        // clear_watch restores full recording
        assert!(run.signal("a").is_ok());
    }

    #[test]
    fn causality_violation_is_detected_not_miscomputed() {
        // An adversary far beyond any sane bound can shift an output
        // before an already *delivered* transition. Batch evaluation
        // handles this (the model is non-causal there); event-driven
        // simulation must refuse with a CausalityViolation instead of
        // silently producing wrong waveforms.
        use ivl_core::channel::EtaInvolutionChannel;
        use ivl_core::noise::{EtaBounds, RecordedChoices};

        let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
        let bounds = EtaBounds::new(10.0, 10.0).unwrap(); // no (C) here!
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("buf", GateKind::Buf, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(a, g, 0).unwrap();
        // first transition unshifted (delivered at ≈1.19), second shifted
        // 9 time units early: lands at ≈ −3.3, before the committed one
        b.connect(
            g,
            y,
            0,
            EtaInvolutionChannel::new(d, bounds, RecordedChoices::new(vec![0.0, -9.0])),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("a", Signal::pulse(0.0, 5.0).unwrap())
            .unwrap();
        assert!(matches!(
            sim.run(100.0),
            Err(SimError::CausalityViolation { .. })
        ));
    }

    #[test]
    fn replace_channel_is_a_slot_swap_not_a_netlist_clone() {
        // the SPF circuit swaps a fresh noise channel in per simulate
        // call; that must not detach the simulator's circuit from the
        // shared topology (i.e. no netlist re-clone)
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("buf", GateKind::Buf, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(a, g, 0).unwrap();
        let e = b.connect(g, y, 0, pure(1.0)).unwrap();
        let circuit = b.build().unwrap();
        let template = circuit.clone();
        let mut sim = Simulator::new(circuit);
        sim.set_input("a", Signal::pulse(0.0, 1.0).unwrap())
            .unwrap();
        let before = sim.run(10.0).unwrap();
        sim.replace_channel(e, Box::new(pure(2.0)));
        assert!(sim.circuit().shares_topology_with(&template));
        let after = sim.run(10.0).unwrap();
        assert!(before
            .signal("y")
            .unwrap()
            .approx_eq(&Signal::pulse(1.0, 1.0).unwrap(), 1e-12));
        assert!(after
            .signal("y")
            .unwrap()
            .approx_eq(&Signal::pulse(2.0, 1.0).unwrap(), 1e-12));
    }

    #[test]
    fn t0_batch_evaluates_in_ascending_node_order() {
        // `low` is dirtied by a t = 0 delivery, `high` is inconsistent
        // from the start; the t = 0 batch still evaluates `low` first,
        // so after the input's two events the budget of 3 trips on
        // `high`'s event (t = 2), exactly as when every gate was
        // evaluated at t = 0 in node order
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let c = b.input("c");
        let low = b.gate("low", GateKind::Buf, Bit::Zero);
        let high = b.gate("high", GateKind::Not, Bit::Zero);
        let y1 = b.output("y1");
        let y2 = b.output("y2");
        b.connect_direct(a, low, 0).unwrap();
        b.connect_direct(c, high, 0).unwrap();
        b.connect(low, y1, 0, pure(1.0)).unwrap();
        b.connect(high, y2, 0, pure(2.0)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap()).with_max_events(3);
        sim.set_input("a", Signal::pulse(0.0, 5.0).unwrap())
            .unwrap();
        assert!(matches!(
            sim.run(10.0),
            Err(SimError::MaxEventsExceeded { time, .. }) if time == 2.0
        ));
    }

    #[test]
    fn replaced_channel_keeps_its_own_seed() {
        // a reseed issued before a channel swap applies to the channel
        // it replaced, never to the newcomer
        use ivl_core::channel::EtaInvolutionChannel;
        use ivl_core::noise::{EtaBounds, UniformNoise};

        let eta = |seed| {
            EtaInvolutionChannel::new(
                ExpChannel::new(1.0, 0.5, 0.5).unwrap(),
                EtaBounds::new(0.02, 0.02).unwrap(),
                UniformNoise::new(seed),
            )
        };
        let build = |seed| {
            let mut b = CircuitBuilder::new();
            let a = b.input("a");
            let g = b.gate("buf", GateKind::Buf, Bit::Zero);
            let y = b.output("y");
            b.connect_direct(a, g, 0).unwrap();
            let e = b.connect(g, y, 0, eta(seed)).unwrap();
            (b.build().unwrap(), e)
        };
        let input = Signal::pulse_train([(0.0, 2.0), (4.0, 2.0), (8.0, 2.0)]).unwrap();

        let (circuit, e) = build(1);
        let mut swapped = Simulator::new(circuit);
        swapped.reseed_noise(5);
        swapped.replace_channel(e, Box::new(eta(9)));
        swapped.set_input("a", input.clone()).unwrap();
        let got = swapped.run(50.0).unwrap();

        let mut reference = Simulator::new(build(9).0);
        reference.set_input("a", input).unwrap();
        let want = reference.run(50.0).unwrap();
        assert_eq!(got.signal("y").unwrap(), want.signal("y").unwrap());
    }

    #[test]
    fn debug_impl() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let y = b.output("y");
        b.connect_direct(a, y, 0).unwrap();
        let sim = Simulator::new(b.build().unwrap());
        assert!(!format!("{sim:?}").is_empty());
        assert_eq!(sim.circuit().node_count(), 2);
    }
}
