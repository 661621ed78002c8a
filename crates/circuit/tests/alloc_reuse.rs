//! Allocation behaviour of the reused simulator state: after a warmup
//! run, repeated runs on a ≥1k-gate inverter chain must hit an
//! allocation steady state — the event pool, heap, pending queues and
//! recorders are all recycled, so the only per-run allocations are the
//! exact-sized signal copies in the returned `SimResult`.
//!
//! Keep this file to a single test: the counting allocator is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ivl_circuit::{CircuitBuilder, GateKind, Simulator};
use ivl_core::channel::PureDelay;
use ivl_core::{Bit, Signal};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_calls<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let r = f();
    (ALLOC_CALLS.load(Ordering::Relaxed) - before, r)
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
