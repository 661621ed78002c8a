//! Characterization sweeps: fan pulse widths over worker threads.
//!
//! Every pulse width of a [`SweepConfig`] is an independent chain
//! simulation, so a sweep parallelizes embarrassingly. It runs on the
//! same executor as `ivl_circuit`'s `ScenarioRunner`,
//! [`ivl_core::exec::fan_out`]: scoped workers pull index chunks from a
//! shared atomic cursor (narrow pulses integrate faster than wide ones,
//! so static striping left workers idle at the tail), and the results
//! are assembled back in width order. One worker runs inline, as a
//! plain map over the widths. The chain itself is only ever *borrowed*
//! — workers carry no state of their own. Because the simulations are
//! pure (no RNG), a sweep's output is **bitwise identical for every
//! worker count** — unlike `ScenarioRunner`, no seeds are needed for
//! determinism.

use std::sync::atomic::AtomicBool;
use std::thread;

use ivl_core::delay::DelayPair;
use ivl_core::exec::{catch_panic, fan_out};
use ivl_core::Signal;

use crate::chain::InverterChain;
use crate::characterize::{
    apply_reference, collect_samples, partition_by_edge, run_one, DelaySample, DeviationSample,
    SweepConfig,
};
use crate::error::Error;
use crate::supply::VddSource;

/// Fans the pulse widths of characterization sweeps across worker
/// threads, with deterministic, order-independent result assembly.
///
/// ```
/// use ivl_analog::chain::InverterChain;
/// use ivl_analog::characterize::SweepConfig;
/// use ivl_analog::supply::VddSource;
/// use ivl_analog::sweep::SweepRunner;
/// # fn main() -> Result<(), ivl_analog::Error> {
/// let chain = InverterChain::umc90_like(7)?;
/// let vdd = VddSource::dc(1.0);
/// let cfg = SweepConfig {
///     widths: vec![40.0, 70.0, 100.0],
///     ..SweepConfig::default()
/// };
/// let samples = SweepRunner::new()
///     .with_workers(2)
///     .sweep_samples(&chain, &vdd, &cfg, false)?;
/// assert!(!samples.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SweepRunner {
    workers: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

impl SweepRunner {
    /// Creates a runner with as many workers as the machine advertises.
    #[must_use]
    pub fn new() -> Self {
        let workers = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        SweepRunner { workers }
    }

    /// Sets the number of worker threads (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sweeps pulse widths and collects `(T, δ)` samples for the
    /// measured stage. With `inverted = false` the second (and
    /// interesting) sample of each run is the edge pair opposite to
    /// `inverted = true`, so calling both orientations characterizes
    /// `δ↑` and `δ↓`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSweep`] for an empty or non-finite sweep
    /// axis and propagates simulation errors; sweep points whose pulses
    /// are swallowed analogly are skipped.
    pub fn sweep_samples(
        &self,
        chain: &InverterChain,
        vdd: &VddSource,
        config: &SweepConfig,
        inverted: bool,
    ) -> Result<Vec<DelaySample>, Error> {
        config.validate()?;
        let runs = self.run_widths(chain, vdd, config, inverted);
        collect_samples(runs, config)
    }

    /// Characterizes both delay functions of the measured stage: both
    /// orientations of every width run concurrently, returning
    /// `(δ↑ samples, δ↓ samples)` sorted by offset.
    ///
    /// # Errors
    ///
    /// As [`sweep_samples`](SweepRunner::sweep_samples).
    pub fn characterize(
        &self,
        chain: &InverterChain,
        vdd: &VddSource,
        config: &SweepConfig,
    ) -> Result<(Vec<DelaySample>, Vec<DelaySample>), Error> {
        config.validate()?;
        let w = config.widths.len();
        let results = self.run_jobs(2 * w, |j| {
            let inverted = j >= w;
            run_one(chain, vdd, config, config.widths[j % w], inverted)
        });
        let mut results = results.into_iter();
        let mut all = Vec::new();
        for _inverted in [false, true] {
            let orientation: Vec<_> = results.by_ref().take(w).collect();
            all.extend(collect_samples(orientation, config)?);
        }
        Ok(partition_by_edge(all))
    }

    /// Sweeps pulse widths on a (possibly perturbed) chain/supply and
    /// reports the deviation `D(T)` between the analog output crossings
    /// and the prediction of `reference` (Figs. 8 and 9). The sweep fans
    /// out; the reference model is applied serially to the assembled
    /// samples.
    ///
    /// The prediction uses the *measured* previous output crossing as
    /// the single-history anchor, exactly as in the paper's evaluation:
    /// for the `n`-th transition, `t̂_out = t_in + δ_ref(T)` with
    /// `T = t_in − t_out^{prev,measured}`, and
    /// `D = t_out^{measured} − t̂_out`.
    ///
    /// # Errors
    ///
    /// As [`sweep_samples`](SweepRunner::sweep_samples).
    pub fn measure_deviations<D: DelayPair + ?Sized>(
        &self,
        chain: &InverterChain,
        vdd: &VddSource,
        config: &SweepConfig,
        reference: &D,
        inverted: bool,
    ) -> Result<Vec<DeviationSample>, Error> {
        let samples = self.sweep_samples(chain, vdd, config, inverted)?;
        Ok(apply_reference(&samples, reference))
    }

    /// Runs one orientation of every width, in width order.
    fn run_widths(
        &self,
        chain: &InverterChain,
        vdd: &VddSource,
        config: &SweepConfig,
        inverted: bool,
    ) -> Vec<Result<(Signal, Signal), Error>> {
        self.run_jobs(config.widths.len(), |j| {
            run_one(chain, vdd, config, config.widths[j], inverted)
        })
    }

    /// Fans `jobs` out with [`fan_out`] (no per-worker state: the
    /// chain is only borrowed) and returns the results in job order.
    /// Every job runs inside [`catch_panic`]: a panicking job is
    /// contained as [`Error::WorkerPanic`] in its own result slot (with
    /// the job index and the panic message) instead of tearing down the
    /// whole sweep and poisoning every other width's result.
    fn run_jobs<T, F>(&self, jobs: usize, job: F) -> Vec<Result<T, Error>>
    where
        T: Send,
        F: Fn(usize) -> Result<T, Error> + Sync,
    {
        let mut workers = vec![(); self.workers.min(jobs)];
        fan_out(&mut workers, jobs, &AtomicBool::new(false), |(), index| {
            catch_panic(|| job(index))
                .unwrap_or_else(|message| Err(Error::WorkerPanic { index, message }))
        })
        .into_iter()
        .map(|r| r.expect("nothing stops the fan-out, so every job runs"))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::to_piecewise;

    /// The serial reference: one worker runs inline, a plain map over
    /// the widths.
    fn serial() -> SweepRunner {
        SweepRunner::new().with_workers(1)
    }

    fn chain() -> InverterChain {
        InverterChain::umc90_like(7).unwrap()
    }

    fn cfg() -> SweepConfig {
        SweepConfig {
            widths: (0..7).map(|i| 24.0 + 12.0 * i as f64).collect(),
            ..SweepConfig::default()
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_bitwise() {
        let vdd = VddSource::dc(1.0);
        let serial = serial()
            .sweep_samples(&chain(), &vdd, &cfg(), false)
            .unwrap();
        for workers in [2, 4, 7] {
            let par = SweepRunner::new()
                .with_workers(workers)
                .sweep_samples(&chain(), &vdd, &cfg(), false)
                .unwrap();
            assert_eq!(serial, par, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_characterize_matches_serial_bitwise() {
        let vdd = VddSource::dc(1.0);
        let (up_s, down_s) = serial().characterize(&chain(), &vdd, &cfg()).unwrap();
        for workers in [2, 3, 4] {
            let (up_p, down_p) = SweepRunner::new()
                .with_workers(workers)
                .characterize(&chain(), &vdd, &cfg())
                .unwrap();
            assert_eq!(up_s, up_p, "workers = {workers}");
            assert_eq!(down_s, down_p, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_deviations_match_serial_bitwise() {
        let c = chain();
        let vdd = VddSource::dc(1.0);
        let config = cfg();
        let (up, _) = serial().characterize(&c, &vdd, &config).unwrap();
        let pair = to_piecewise(&up).unwrap();
        let reference = serial()
            .measure_deviations(&c, &vdd, &config, &pair, true)
            .unwrap();
        for workers in [2, 4] {
            let par = SweepRunner::new()
                .with_workers(workers)
                .measure_deviations(&c, &vdd, &config, &pair, true)
                .unwrap();
            assert_eq!(reference, par, "workers = {workers}");
        }
    }

    #[test]
    fn empty_width_list_reports_invalid_sweep() {
        let vdd = VddSource::dc(1.0);
        let config = SweepConfig {
            widths: vec![],
            ..SweepConfig::default()
        };
        let err = SweepRunner::new()
            .sweep_samples(&chain(), &vdd, &config, false)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidSweep { .. }), "{err:?}");
    }

    #[test]
    fn non_finite_sweep_knobs_report_invalid_sweep() {
        let vdd = VddSource::dc(1.0);
        for config in [
            SweepConfig {
                widths: vec![20.0, f64::NAN],
                ..SweepConfig::default()
            },
            SweepConfig {
                widths: vec![-5.0],
                ..SweepConfig::default()
            },
            SweepConfig {
                settle: f64::INFINITY,
                ..SweepConfig::default()
            },
            SweepConfig {
                dt: 0.0,
                ..SweepConfig::default()
            },
        ] {
            let err = SweepRunner::new()
                .sweep_samples(&chain(), &vdd, &config, false)
                .unwrap_err();
            assert!(matches!(err, Error::InvalidSweep { .. }), "{err:?}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn panicking_jobs_are_contained_per_slot() {
        for workers in [1, 3] {
            let runner = SweepRunner::new().with_workers(workers);
            let results = runner.run_jobs(8, |j| {
                if j == 5 {
                    panic!("job {j} exploded");
                }
                Ok::<usize, Error>(j * 2)
            });
            assert_eq!(results.len(), 8);
            for (j, r) in results.iter().enumerate() {
                if j == 5 {
                    match r {
                        Err(Error::WorkerPanic { index, message }) => {
                            assert_eq!(*index, 5);
                            assert!(message.contains("exploded"), "{message}");
                        }
                        other => panic!("expected WorkerPanic, got {other:?}"),
                    }
                } else {
                    assert_eq!(*r.as_ref().unwrap(), j * 2, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn accessors_and_clamping() {
        let r = SweepRunner::new().with_workers(0);
        assert_eq!(r.workers(), 1);
        assert!(SweepRunner::default().workers() >= 1);
    }
}
