//! Allocation behaviour of netlists and of the reused simulator state.
//!
//! After a warmup run, repeated runs on a ≥1k-gate inverter chain must
//! hit an allocation steady state — the event slab, the heap, the
//! fed-edge table and the recorders are all recycled, so the only per-run
//! allocations are the exact-sized signal copies in the returned
//! `SimResult`. A generated netlist costs a fixed number of
//! allocations whatever its size — to build, to clone, and to start
//! simulating — and a size it cannot address is refused before
//! anything is allocated. A simulator's memory follows the edges a run
//! feeds: an edge no run reaches costs a 4-byte index.
//!
//! The counting allocator counts calls and requested bytes per thread,
//! so the tests here may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use ivl_circuit::{generate, Circuit, CircuitBuilder, CircuitError, GateKind, NodeId, Simulator};
use ivl_core::channel::{FeedEffect, OnlineChannel, PureDelay, SimChannel};
use ivl_core::{Bit, Signal, Transition};

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Counts one call requesting `bytes`.
fn count_call(bytes: usize) {
    // the thread-locals may already be gone while a thread shuts down
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns the allocations it made on this thread.
fn alloc_calls<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOC_CALLS.with(Cell::get);
    let r = f();
    (ALLOC_CALLS.with(Cell::get) - before, r)
}

/// Runs `f` and returns the bytes its allocations requested on this
/// thread (a reallocation counts its new size).
fn alloc_bytes<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOC_BYTES.with(Cell::get);
    let r = f();
    (ALLOC_BYTES.with(Cell::get) - before, r)
}

fn pure() -> Box<dyn SimChannel> {
    PureDelay::new(0.5).unwrap().clone_box()
}

#[test]
fn generated_netlists_cost_the_same_allocations_at_any_size() {
    let build = |gates| alloc_calls(|| generate::random_dag(gates, 1, pure()).unwrap());
    let (small_build, small) = build(2_000);
    let (large_build, large) = build(20_000);
    assert_eq!(
        small_build, large_build,
        "building a random_dag must not allocate per gate"
    );

    let (small_clone, _) = alloc_calls(|| small.clone());
    let (large_clone, _) = alloc_calls(|| large.clone());
    assert_eq!(
        small_clone, large_clone,
        "cloning a circuit must not copy per-edge channels"
    );
}

/// Counts the channels materialized from it: every clone.
static MATERIALIZED: AtomicUsize = AtomicUsize::new(0);

struct Materialized(PureDelay);

impl Clone for Materialized {
    fn clone(&self) -> Self {
        MATERIALIZED.fetch_add(1, Ordering::Relaxed);
        Materialized(self.0.clone())
    }
}

impl OnlineChannel for Materialized {
    fn feed(&mut self, input: Transition) -> FeedEffect {
        self.0.feed(input)
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

#[test]
fn channels_are_materialized_on_first_feed_only() {
    let prototype = Box::new(Materialized(PureDelay::new(0.5).unwrap()));
    let circuit = generate::random_dag(2_000, 1, prototype).unwrap();
    let edges = circuit.edge_count();
    let mut sim = Simulator::new(circuit).with_watch(["y"]).unwrap();

    // an idle run on a fresh simulator feeds, and so clones, nothing
    sim.run(100.0).unwrap();
    assert_eq!(MATERIALIZED.load(Ordering::Relaxed), 0);

    // a pulse materializes exactly the channels it reaches, once each
    sim.set_input("a", Signal::pulse(1.0, 3.0).unwrap())
        .unwrap();
    sim.run(100.0).unwrap();
    let fed = MATERIALIZED.load(Ordering::Relaxed);
    assert!(fed > 0 && fed < edges, "{fed} of {edges} channels");
    sim.run(100.0).unwrap();
    assert_eq!(MATERIALIZED.load(Ordering::Relaxed), fed);
}

/// `len` buffers named `{prefix}{i}` after `from`: a direct connection
/// into the first, pure delays between the rest. Returns the last.
fn buffer_chain(b: &mut CircuitBuilder, from: NodeId, prefix: &str, len: usize) -> NodeId {
    let mut prev = from;
    for i in 0..len {
        let g = b.gate(&format!("{prefix}{i}"), GateKind::Buf, Bit::Zero);
        if i == 0 {
            b.connect_direct(prev, g, 0).unwrap();
        } else {
            b.connect(prev, g, 0, PureDelay::new(0.5).unwrap()).unwrap();
        }
        prev = g;
    }
    prev
}

/// `a` drives a short buffer chain to `y`; `b`, never set, drives
/// `undriven` more buffers that no run reaches.
fn driven_plus_undriven(undriven: usize) -> Circuit {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let y = b.output("y");
    let last = buffer_chain(&mut b, a, "d", 8);
    b.connect(last, y, 0, PureDelay::new(0.5).unwrap()).unwrap();
    let idle = b.input("b");
    buffer_chain(&mut b, idle, "u", undriven);
    b.build().unwrap()
}

#[test]
fn worker_memory_follows_the_edges_a_run_feeds() {
    // a fresh simulator watching `y`, run once: every byte it requests
    // for an edge or node the stimulus never reaches shows up in the
    // growth from 10k to 100k undriven gates
    let bytes = |undriven| {
        let circuit = driven_plus_undriven(undriven);
        let (bytes, run) = alloc_bytes(|| {
            let mut sim = Simulator::new(circuit).with_watch(["y"]).unwrap();
            sim.set_input("a", Signal::pulse_train([(1.0, 3.0), (8.0, 3.0)]).unwrap())
                .unwrap();
            sim.run(1e3).unwrap()
        });
        assert_eq!(run.signal("y").unwrap().len(), 4, "the pulses reach y");
        bytes
    };
    let (small, large) = (bytes(10_000), bytes(100_000));
    let per_gate = large.saturating_sub(small) as f64 / 90_000.0;
    assert!(
        per_gate <= 24.0,
        "{per_gate:.1} bytes per undriven gate ({small} at 10k, {large} at 100k)"
    );
}

/// A generator with its size arguments applied.
type Generator = fn(Box<dyn SimChannel>) -> Result<Circuit, CircuitError>;

#[test]
fn oversized_generators_fail_typed_before_allocating() {
    let cases: [(&str, Generator); 5] = [
        ("nodes", |c| generate::inverter_chain(u32::MAX, c)),
        ("nodes", |c| generate::random_dag(u32::MAX, 0, c)),
        ("nodes", |c| generate::grid(100_000, 100_000, c)),
        ("edges", |c| generate::grid(65_536, 65_535, c)),
        ("fat_tree depth", |c| generate::fat_tree(25, c)),
    ];
    for (what, generator) in cases {
        let prototype = pure();
        let (calls, result) = alloc_calls(|| generator(prototype));
        assert!(
            matches!(result, Err(CircuitError::TooLarge { what: w, .. }) if w == what),
            "expected TooLarge {what}, got {result:?}"
        );
        assert_eq!(calls, 0, "{what}: refused after allocating");
    }
    assert_eq!(
        generate::fat_tree(25, pure()).unwrap_err().to_string(),
        "fat_tree depth 25 exceeds the limit of 24"
    );
}

#[test]
fn repeated_runs_reach_an_allocation_steady_state() {
    const STAGES: usize = 1024;

    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let y = b.output("y");
    let mut prev = a;
    for i in 0..STAGES {
        let init = if i % 2 == 0 { Bit::One } else { Bit::Zero };
        let g = b.gate(&format!("inv{i}"), GateKind::Not, init);
        if i == 0 {
            b.connect_direct(prev, g, 0).unwrap();
        } else {
            b.connect(prev, g, 0, PureDelay::new(0.01).unwrap())
                .unwrap();
        }
        prev = g;
    }
    b.connect(prev, y, 0, PureDelay::new(0.01).unwrap())
        .unwrap();
    let circuit = b.build().unwrap();
    let n_nodes = circuit.node_count();
    let n_edges = circuit.edge_count();

    let mut sim = Simulator::new(circuit);
    let input = Signal::pulse_train((0..20).map(|k| (k as f64 * 40.0, 20.0))).unwrap();
    sim.set_input("a", input).unwrap();

    // warmup: grows every buffer to its high-water mark
    for _ in 0..4 {
        sim.run(1e9).unwrap();
    }
    let pool_capacity = sim.event_pool_capacity();

    let (steady, run3) = alloc_calls(|| sim.run(1e9).unwrap());
    let (again, run4) = alloc_calls(|| sim.run(1e9).unwrap());
    assert_eq!(run3.processed_events(), run4.processed_events());
    assert!(run3.processed_events() > 20 * STAGES, "chain saturated");

    // steady state: run N and run N+1 allocate identically — nothing
    // grows with repetition
    assert_eq!(steady, again, "allocation count must not drift");

    // and the count is bounded by the SimResult construction (a handful
    // of vectors plus one exact-sized transition buffer per signal),
    // NOT by the tens of thousands of events processed
    let result_bound = 3 * (n_nodes + n_edges) + 64;
    assert!(
        steady <= result_bound,
        "{steady} allocations per run exceeds the result-only bound {result_bound}"
    );

    // the slab never grows after warmup either
    assert_eq!(sim.event_pool_capacity(), pool_capacity);
}
