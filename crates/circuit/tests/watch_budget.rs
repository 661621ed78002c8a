//! Memory-boundedness of selective recording: with a 2-node watch set,
//! the steady-state allocations per run must be a small constant that
//! does **not** scale with the size of the netlist. This is the
//! memory-side contract of the scale tier — a million-gate grid with
//! two watched nodes costs two recorders, not a million.
//!
//! Keep this file to a single test: the counting allocator is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ivl_circuit::{generate, Simulator};
use ivl_core::channel::{PureDelay, SimChannel};
use ivl_core::Signal;

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

/// Steady-state allocations of a watched run on a `stages`-deep chain.
fn steady_allocs(stages: u32) -> usize {
    let channel = PureDelay::new(0.01).unwrap().clone_box();
    let circuit = generate::inverter_chain(stages, channel).unwrap();

    let mut sim = Simulator::new(circuit);
    sim.set_watch(["y", "inv0"]).unwrap();
    let input = Signal::pulse_train((0..8).map(|k| (k as f64 * 40.0, 20.0))).unwrap();
    sim.set_input("a", input).unwrap();

    // warmup: grows the pool, queue and recorders to their high-water
    // marks
    for _ in 0..4 {
        sim.run(1e9).unwrap();
    }

    let (steady, run) = alloc_calls(|| sim.run(1e9).unwrap());
    let (again, run2) = alloc_calls(|| sim.run(1e9).unwrap());
    assert_eq!(run.processed_events(), run2.processed_events());
    assert!(
        run.processed_events() > 8 * stages as usize,
        "chain saturated"
    );
    assert_eq!(steady, again, "allocation count must not drift");
    steady
}

#[test]
fn watched_runs_allocate_a_size_independent_constant() {
    // Two chains an order of magnitude apart. If recording cost scaled
    // with the netlist, the larger chain would allocate thousands more.
    let small = steady_allocs(128);
    let large = steady_allocs(2048);

    // The budget covers the SimResult scaffolding plus exact-sized
    // transition buffers for the two watched recorders — nothing that
    // tracks node or edge count.
    const BUDGET: usize = 96;
    assert!(
        small <= BUDGET,
        "{small} allocations per watched run exceeds the fixed budget {BUDGET}"
    );
    assert!(
        large <= BUDGET,
        "{large} allocations per watched run exceeds the fixed budget {BUDGET}"
    );
    assert_eq!(
        small, large,
        "per-run allocations must not depend on netlist size"
    );
}
