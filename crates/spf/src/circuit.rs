//! The SPF circuit of Fig. 5: a fed-back OR gate with an η-involution
//! channel, followed by a high-threshold exp-channel buffer.

use std::sync::Mutex;

use ivl_circuit::{CircuitBuilder, EdgeId, GateKind, NodeId, Simulator};
use ivl_core::channel::{EtaInvolutionChannel, InvolutionChannel};
use ivl_core::delay::{DelayPair, ExpChannel};
use ivl_core::noise::{EtaBounds, NoiseSource, ZeroNoise};
use ivl_core::{Bit, Signal};

use crate::error::Error;
use crate::theory::SpfTheory;

/// The unbounded-SPF circuit of Fig. 5.
///
/// Topology: input port `i` → OR pin 0; OR output fed back through the
/// η-involution channel `c` to OR pin 1 (the storage loop); OR output
/// also drives the high-threshold buffer `HT` (a deterministic
/// involution channel over a high-`V_th` exp-channel) to the output port
/// `o`.
///
/// Construct with [`SpfCircuit::new`] (explicit buffer) or
/// [`SpfCircuit::dimensioned`] (buffer chosen per Lemmas 10/11);
/// then [`simulate`](SpfCircuit::simulate) with any adversary.
///
/// ```
/// use ivl_core::delay::ExpChannel;
/// use ivl_core::noise::{EtaBounds, WorstCaseAdversary};
/// use ivl_core::Signal;
/// use ivl_spf::SpfCircuit;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let delay = ExpChannel::new(1.0, 0.5, 0.5)?;
/// let spf = SpfCircuit::dimensioned(delay, EtaBounds::new(0.02, 0.02)?)?;
/// // a long pulse latches the loop; the output eventually rises
/// let run = spf.simulate(WorstCaseAdversary, &Signal::pulse(0.0, 3.0)?, 200.0)?;
/// assert_eq!(run.output.len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct SpfCircuit<D> {
    delay: D,
    bounds: EtaBounds,
    buffer: ExpChannel,
    /// Lazily built simulator over the Fig. 5 netlist, reused across
    /// [`simulate`](SpfCircuit::simulate) calls: the netlist, name table
    /// and per-run state are constructed once; only the feedback
    /// channel (which carries the per-call adversary) is swapped per
    /// run. Clones start with an empty cache.
    cache: Mutex<Option<CachedSim>>,
}

/// The cached simulator plus the node/edge handles `simulate` reads.
struct CachedSim {
    sim: Simulator,
    or_id: NodeId,
    feedback: EdgeId,
}

impl<D: std::fmt::Debug> std::fmt::Debug for SpfCircuit<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpfCircuit")
            .field("delay", &self.delay)
            .field("bounds", &self.bounds)
            .field("buffer", &self.buffer)
            .finish_non_exhaustive()
    }
}

impl<D: Clone> Clone for SpfCircuit<D> {
    fn clone(&self) -> Self {
        SpfCircuit {
            delay: self.delay.clone(),
            bounds: self.bounds,
            buffer: self.buffer.clone(),
            cache: Mutex::new(None),
        }
    }
}

/// The recorded signals of one SPF circuit run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpfRun {
    /// The OR gate's output (the storage-loop signal analysed by
    /// Theorem 9).
    pub or_signal: Signal,
    /// The feedback channel's output (OR pin 1).
    pub feedback_signal: Signal,
    /// The circuit output `o` (after the high-threshold buffer).
    pub output: Signal,
    /// Number of simulation events processed.
    pub events: usize,
}

impl<D: DelayPair + Clone + Send + 'static> SpfCircuit<D> {
    /// Creates the circuit with an explicit high-threshold buffer.
    #[must_use]
    pub fn new(delay: D, bounds: EtaBounds, buffer: ExpChannel) -> Self {
        SpfCircuit {
            delay,
            bounds,
            buffer,
            cache: Mutex::new(None),
        }
    }

    /// Creates the circuit with a buffer dimensioned from the theory:
    /// the buffer's threshold is placed above the worst-case duty cycle
    /// `γ` (Lemma 11: for every `Θ, Γ < 1` a filtering exp-channel
    /// exists) and its time constant well above the worst-case period,
    /// so pulse trains bounded by Lemma 5 are mapped to zero.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ConstraintCViolated`] if the bounds violate (C).
    pub fn dimensioned(delay: D, bounds: EtaBounds) -> Result<Self, Error> {
        let theory = SpfTheory::compute(&delay, bounds)?;
        let buffer = dimension_buffer(&theory);
        Ok(SpfCircuit::new(delay, bounds, buffer))
    }

    /// The feedback channel's delay pair.
    #[must_use]
    pub fn delay_pair(&self) -> &D {
        &self.delay
    }

    /// The adversary interval.
    #[must_use]
    pub fn bounds(&self) -> EtaBounds {
        self.bounds
    }

    /// The high-threshold buffer's exp-channel.
    #[must_use]
    pub fn buffer(&self) -> &ExpChannel {
        &self.buffer
    }

    /// The theory bundle for the feedback parameters.
    ///
    /// # Errors
    ///
    /// As [`SpfTheory::compute`].
    pub fn theory(&self) -> Result<SpfTheory, Error> {
        SpfTheory::compute(&self.delay, self.bounds)
    }

    /// Builds the Fig. 5 netlist with a placeholder (zero-noise)
    /// feedback channel; `simulate` swaps the real adversary in per
    /// call.
    fn build_cached(&self) -> Result<CachedSim, Error> {
        let mut b = CircuitBuilder::new();
        let i = b.input("i");
        let or = b.gate("or", GateKind::Or, Bit::Zero);
        let o = b.output("o");
        b.connect_direct(i, or, 0)?;
        let feedback = b.connect(
            or,
            or,
            1,
            EtaInvolutionChannel::new(self.delay.clone(), self.bounds, ZeroNoise),
        )?;
        b.connect(or, o, 0, InvolutionChannel::new(self.buffer.clone()))?;
        let circuit = b.build()?;
        let or_id = circuit.node("or").expect("or gate exists");
        Ok(CachedSim {
            sim: Simulator::new(circuit),
            or_id,
            feedback,
        })
    }

    /// Runs `input` through the circuit under the given adversary until
    /// `horizon`.
    ///
    /// The netlist and simulator state are built once per `SpfCircuit`
    /// and reused across calls: only the feedback channel — which
    /// carries the per-call adversary — is swapped, a single box-slot
    /// write that leaves the `Arc`-shared topology untouched (no netlist
    /// re-clone). The recorded signals are returned by move, so repeated
    /// calls in a sweep pay for the event loop alone rather than
    /// rebuilding and copying.
    ///
    /// # Errors
    ///
    /// Propagates circuit construction and simulation errors.
    pub fn simulate<N>(&self, noise: N, input: &Signal, horizon: f64) -> Result<SpfRun, Error>
    where
        N: NoiseSource + Clone + Send + 'static,
    {
        let mut guard = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let cached = match &mut *guard {
            Some(cached) => cached,
            none => none.insert(self.build_cached()?),
        };
        cached.sim.replace_channel(
            cached.feedback,
            Box::new(EtaInvolutionChannel::new(
                self.delay.clone(),
                self.bounds,
                noise,
            )),
        );
        cached.sim.set_input("i", input.clone())?;
        let mut run = cached.sim.run(horizon)?;
        Ok(SpfRun {
            or_signal: run.take_node_signal(cached.or_id),
            feedback_signal: run.take_edge_signal(cached.feedback),
            output: run.take_signal("o")?,
            events: run.processed_events(),
        })
    }
}

/// Chooses a high-threshold exp-channel filtering every pulse train with
/// duty cycle `≤ γ(1+ε)` and bounded pulses, per Lemmas 10/11.
///
/// Heuristic construction (verified empirically by the test suite and
/// the Theorem 12 integration tests): threshold midway between the
/// worst-case duty cycle and 1 (capped at 0.97), time constant an order
/// of magnitude above the worst-case period so per-pulse ripple stays
/// below the threshold margin.
#[must_use]
pub fn dimension_buffer(theory: &SpfTheory) -> ExpChannel {
    let v_th = (0.5 * (theory.gamma + 1.0)).clamp(0.55, 0.97);
    let tau = 10.0 * theory.period.max(theory.delta_min);
    let t_p = 0.1 * theory.delta_min;
    ExpChannel::new(tau, t_p, v_th).expect("positive parameters by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_core::noise::{UniformNoise, WorstCaseAdversary, ZeroNoise};
    use ivl_core::PulseStats;

    fn spf() -> SpfCircuit<ExpChannel> {
        SpfCircuit::dimensioned(
            ExpChannel::new(1.0, 0.5, 0.5).unwrap(),
            EtaBounds::new(0.02, 0.02).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn zero_input_zero_output_f2() {
        let run = spf().simulate(ZeroNoise, &Signal::zero(), 100.0).unwrap();
        assert!(run.or_signal.is_zero());
        assert!(run.output.is_zero());
    }

    #[test]
    fn long_pulse_latches_lemma_3() {
        let c = spf();
        let th = c.theory().unwrap();
        let run = c
            .simulate(
                WorstCaseAdversary,
                &Signal::pulse(0.0, th.lock_bound + 0.1).unwrap(),
                300.0,
            )
            .unwrap();
        // OR output: unique rising transition at time 0, no fall
        assert_eq!(run.or_signal.len(), 1, "{}", run.or_signal);
        assert_eq!(run.or_signal.transitions()[0].time, 0.0);
        assert_eq!(run.or_signal.final_value(), Bit::One);
        // circuit output: single eventual rising transition
        assert_eq!(run.output.len(), 1, "{}", run.output);
        assert_eq!(run.output.final_value(), Bit::One);
    }

    #[test]
    fn short_pulse_filtered_lemma_4() {
        let c = spf();
        let th = c.theory().unwrap();
        let run = c
            .simulate(
                WorstCaseAdversary,
                &Signal::pulse(0.0, th.filter_bound * 0.9).unwrap(),
                300.0,
            )
            .unwrap();
        // OR output contains only the input pulse
        assert_eq!(run.or_signal.len(), 2, "{}", run.or_signal);
        assert!(run.output.is_zero(), "{}", run.output);
    }

    #[test]
    fn worst_case_train_respects_lemma_5_bounds() {
        let c = spf();
        let th = c.theory().unwrap();
        // start near the metastable threshold to get a long train
        let run = c
            .simulate(
                WorstCaseAdversary,
                &Signal::pulse(0.0, th.delta0_tilde).unwrap(),
                400.0,
            )
            .unwrap();
        let stats = PulseStats::of(&run.or_signal);
        assert!(
            stats.pulse_count() >= 3,
            "need a real train: {}",
            run.or_signal
        );
        // Lemma 5: every feedback pulse (n ≥ 1, i.e. skip the input pulse
        // itself) has up-time ≤ ∆ and period ≥ P; Lemma 6: duty ≤ γ.
        let ups = stats.up_times();
        for &u in &ups[1..] {
            assert!(u <= th.delta_bar + 1e-9, "up {u} > ∆ {}", th.delta_bar);
        }
        for (i, &p) in stats.periods().iter().enumerate() {
            if i == 0 {
                continue;
            }
            assert!(p >= th.period - 1e-9, "period {p} < P {}", th.period);
        }
        for (i, &g) in stats.duty_cycles().iter().enumerate() {
            if i == 0 {
                continue;
            }
            assert!(g <= th.gamma + 1e-9, "duty {g} > γ {}", th.gamma);
        }
    }

    #[test]
    fn random_adversaries_always_yield_clean_outputs() {
        // F4 in action: under any adversary and any input width, the
        // output is either zero or a single rising transition
        let c = spf();
        let th = c.theory().unwrap();
        for seed in 0..10 {
            for frac in [0.3, 0.8, 0.95, 1.0, 1.05, 1.2, 2.0] {
                let w = th.delta0_tilde * frac;
                let run = c
                    .simulate(
                        UniformNoise::new(seed),
                        &Signal::pulse(0.0, w).unwrap(),
                        400.0,
                    )
                    .unwrap();
                assert!(
                    run.output.len() <= 1,
                    "seed {seed}, width {w}: output {}",
                    run.output
                );
                if run.output.len() == 1 {
                    assert_eq!(run.output.final_value(), Bit::One);
                }
            }
        }
    }

    #[test]
    fn recurrence_predicts_simulated_widths() {
        // the simulated worst-case feedback pulse widths must match the
        // recurrence of Eq. (2)
        let c = spf();
        let th = c.theory().unwrap();
        let d0 = th.delta0_tilde + 0.02;
        let run = c
            .simulate(WorstCaseAdversary, &Signal::pulse(0.0, d0).unwrap(), 400.0)
            .unwrap();
        let rec = crate::recurrence::WorstCaseRecurrence::new(c.delay_pair().clone(), c.bounds());
        let predicted = rec.trajectory(d0, 50);
        let stats = PulseStats::of(&run.or_signal);
        let simulated = stats.up_times();
        // simulated[0] is the input pulse itself (possibly extended by the
        // feedback); compare the subsequent train
        let n = predicted
            .len()
            .min(simulated.len().saturating_sub(1))
            .min(6);
        assert!(n >= 2, "need at least two comparable pulses");
        for k in 0..n {
            let sim_w = simulated[k + 1];
            let pred_w = predicted[k];
            assert!(
                (sim_w - pred_w).abs() < 1e-6,
                "pulse {k}: simulated {sim_w} vs predicted {pred_w}"
            );
        }
    }

    #[test]
    fn dimensioned_buffer_fields_are_sane() {
        let c = spf();
        let th = c.theory().unwrap();
        let buf = c.buffer();
        assert!(buf.v_th() > th.gamma);
        assert!(buf.tau() >= th.period);
        assert_eq!(c.bounds().plus(), 0.02);
        assert_eq!(c.delay_pair().t_p(), 0.5);
    }

    #[test]
    fn constraint_violation_propagates() {
        let res = SpfCircuit::dimensioned(
            ExpChannel::new(1.0, 0.5, 0.5).unwrap(),
            EtaBounds::new(2.0, 2.0).unwrap(),
        );
        assert!(matches!(res, Err(Error::ConstraintCViolated { .. })));
    }
}
