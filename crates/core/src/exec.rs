//! The one fan-out every sweep runs on: scoped worker threads pulling
//! index chunks from a shared atomic cursor, plus the one panic
//! supervisor.
//!
//! [`fan_out`] runs `jobs` independent jobs over a slice of per-worker
//! states (a warm simulator, or `()` when a job needs none). Each state
//! is borrowed by exactly one worker for the duration of the call, so a
//! job gets `&mut` access without locks. Workers claim fixed-size index
//! chunks, so a job that runs 100× longer than its neighbours stalls
//! only its own chunk, and results are placed back in job order no
//! matter which worker ran what. A single state runs inline on the
//! calling thread: a one-worker sweep spawns nothing.
//!
//! [`catch_panic`] turns a panic into `Err(message)`. Jobs that must
//! survive a panicking neighbour wrap themselves in it; a panic that
//! escapes a job propagates out of [`fan_out`] once every worker has
//! stopped.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

/// Runs `f(state, j)` for every job index `j < jobs`, one scoped thread
/// per element of `states` (inline when there is one), and returns the
/// results in job order.
///
/// Workers claim chunks of about `jobs / (4 · workers)` indices, capped
/// at 64: ~4 chunks per worker balance cursor traffic against load
/// imbalance. Dispatch halts once `stop` is set: a job already running
/// finishes, no new one starts, and every job that never ran is `None`.
/// Which worker runs which job is unspecified; callers that need
/// reproducible output make each job a function of its index alone.
///
/// # Panics
///
/// Panics if `jobs > 0` and `states` is empty, and re-raises the first
/// panic that escapes `f` (after every worker has stopped).
pub fn fan_out<S, T, F>(states: &mut [S], jobs: usize, stop: &AtomicBool, f: F) -> Vec<Option<T>>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(jobs, || None);
    if jobs == 0 {
        return results;
    }
    assert!(
        !states.is_empty(),
        "fan_out needs at least one worker state"
    );
    let chunk = (jobs / (states.len() * 4)).clamp(1, 64);
    let cursor = AtomicUsize::new(0);
    let work = |state: &mut S| {
        let mut done = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= jobs {
                return done;
            }
            for j in start..(start + chunk).min(jobs) {
                if stop.load(Ordering::Relaxed) {
                    return done;
                }
                done.push((j, f(state, j)));
            }
        }
    };
    if let [state] = states {
        for (j, r) in work(state) {
            results[j] = Some(r);
        }
        return results;
    }
    thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| scope.spawn(move || work(state)))
            .collect();
        let mut escaped = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (j, r) in done {
                        results[j] = Some(r);
                    }
                }
                Err(payload) => escaped = escaped.or(Some(payload)),
            }
        }
        if let Some(payload) = escaped {
            resume_unwind(payload);
        }
    });
    results
}

/// Runs `f`, turning a panic into `Err` with the panic message (or
/// `"non-string panic payload"` when the payload is not a string).
///
/// # Errors
///
/// Returns the panic message if `f` panicked.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn never() -> AtomicBool {
        AtomicBool::new(false)
    }

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 4, 7] {
            for jobs in [0, 1, 37] {
                let mut states = vec![0usize; workers];
                let out = fan_out(&mut states, jobs, &never(), |ran, j| {
                    *ran += 1;
                    j * j
                });
                let expected: Vec<Option<usize>> = (0..jobs).map(|j| Some(j * j)).collect();
                assert_eq!(out, expected, "workers={workers} jobs={jobs}");
                assert_eq!(states.iter().sum::<usize>(), jobs, "each job runs once");
            }
        }
    }

    #[test]
    fn a_single_state_runs_inline() {
        let caller = thread::current().id();
        let out = fan_out(&mut [()], 5, &never(), |(), _| thread::current().id());
        assert!(out.iter().all(|id| *id == Some(caller)));
    }

    #[test]
    fn a_panicking_job_becomes_an_error_and_its_worker_keeps_going() {
        for workers in [1, 3] {
            let mut states = vec![0usize; workers];
            let out = fan_out(&mut states, 16, &never(), |ran, j| {
                *ran += 1;
                catch_panic(|| {
                    assert!(j != 5, "job {j} exploded");
                    j
                })
            });
            for (j, r) in out.into_iter().enumerate() {
                match r.expect("every job ran") {
                    Ok(v) => assert_eq!(v, j),
                    Err(message) => {
                        assert_eq!(j, 5);
                        assert!(message.contains("job 5 exploded"), "{message}");
                    }
                }
            }
            // every job ran once: with one worker, the one that caught
            // the panic at job 5 went on to run jobs 6..16 itself
            assert_eq!(states.iter().sum::<usize>(), 16, "workers={workers}");
        }
    }

    #[test]
    fn setting_stop_halts_dispatch() {
        for workers in [1, 2, 4] {
            let stop = never();
            let mut states = vec![(); workers];
            let out = fan_out(&mut states, 1000, &stop, |(), j| {
                if j == 3 {
                    stop.store(true, Ordering::Relaxed);
                } else if j > 3 {
                    // hold every later job until the stop is raised
                    while !stop.load(Ordering::Relaxed) {
                        thread::yield_now();
                    }
                }
                j
            });
            assert_eq!(out[..4], [Some(0), Some(1), Some(2), Some(3)]);
            let ran = out.iter().filter(|r| r.is_some()).count();
            // every other worker finishes at most the job it was holding
            assert!(ran < 4 + workers, "workers={workers}: {ran} jobs ran");
        }
        let stopped = AtomicBool::new(true);
        let out = fan_out(&mut [(), ()], 10, &stopped, |(), j| j);
        assert!(out.iter().all(Option::is_none));
    }

    #[test]
    fn an_escaped_panic_propagates_after_the_workers_stop() {
        let message = catch_panic(|| {
            fan_out(&mut [(), ()], 8, &never(), |(), j| {
                assert!(j != 2, "plumbing bug at {j}");
            })
        })
        .unwrap_err();
        assert!(message.contains("plumbing bug at 2"), "{message}");
    }

    #[test]
    fn catch_panic_decodes_every_payload_kind() {
        assert_eq!(catch_panic(|| 7), Ok(7));
        assert_eq!(
            catch_panic(|| panic!("static")),
            Err::<(), _>("static".into())
        );
        let owned = catch_panic(|| panic!("owned {}", 1));
        assert_eq!(owned, Err::<(), _>("owned 1".into()));
        let opaque = catch_panic(|| std::panic::panic_any(42u8));
        assert_eq!(opaque, Err::<(), _>("non-string panic payload".into()));
    }
}
