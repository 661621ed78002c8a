//! Adaptive-integrator validation: the Dormand–Prince RK45 pipeline
//! must agree with fine-step RK4 on analytic systems and on the
//! transistor-level chain, and its dense-output crossing times must
//! match bisection-refined RK4 traces to better than 1e-6 ps.

use faithful::analog::chain::InverterChain;
use faithful::analog::characterize::{Integrator, SweepConfig};
use faithful::analog::ode::{rk45, rk4_with, Rk45Options};
use faithful::analog::stimulus::Pulse;
use faithful::analog::supply::VddSource;
use faithful::analog::{SweepRunner, Waveform};
use proptest::prelude::*;

/// Bisection on a sampled trace's linear interpolant: refines the
/// crossing inside the first sample interval that brackets `threshold`
/// in the requested direction.
fn bisect_crossing(w: &Waveform, threshold: f64, rising: bool) -> Option<f64> {
    let s = w.samples();
    let (mut lo, mut hi) = (0..s.len() - 1)
        .map(|i| (w.t0() + i as f64 * w.dt(), w.t0() + (i + 1) as f64 * w.dt()))
        .zip(s.windows(2))
        .find_map(|((a, b), vs)| {
            let crossed = if rising {
                vs[0] < threshold && vs[1] >= threshold
            } else {
                vs[0] > threshold && vs[1] <= threshold
            };
            crossed.then_some((a, b))
        })?;
    let g_lo = w.value_at(lo) - threshold;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        let g_mid = w.value_at(mid) - threshold;
        if (g_mid >= 0.0) == (g_lo >= 0.0) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rk45_matches_fine_rk4_on_exponential_decay(
        rate in 0.2f64..3.0,
        t_end in 1.0f64..5.0,
    ) {
        let f = |_t: f64, y: &[f64], dy: &mut [f64]| dy[0] = -rate * y[0];
        let steps = (t_end / 1e-4).ceil() as usize;
        let mut reference = 0.0;
        rk4_with(0.0, &[1.0], t_end / steps as f64, steps, f, |_k, _t, y| reference = y[0]);
        let (y, stats) = rk45(
            0.0,
            t_end,
            &[1.0],
            &Rk45Options::default(),
            f,
            |_s| {},
        )
        .unwrap();
        prop_assert!((y[0] - reference).abs() < 1e-6, "{} vs {reference}", y[0]);
        // adaptive must be far cheaper than the fine reference
        prop_assert!(stats.accepted + stats.rejected < steps / 10);
    }

    #[test]
    fn rk45_matches_fine_rk4_on_harmonic_oscillator(
        omega in 0.3f64..3.0,
        t_end in 2.0f64..10.0,
    ) {
        let f = |_t: f64, y: &[f64], dy: &mut [f64]| {
            dy[0] = y[1];
            dy[1] = -omega * omega * y[0];
        };
        let steps = (t_end / 1e-4).ceil() as usize;
        let mut reference = [0.0; 2];
        rk4_with(0.0, &[1.0, 0.0], t_end / steps as f64, steps, f, |_k, _t, y| {
            reference.copy_from_slice(y);
        });
        let (y, _) = rk45(0.0, t_end, &[1.0, 0.0], &Rk45Options::default(), f, |_s| {}).unwrap();
        prop_assert!((y[0] - reference[0]).abs() < 1e-5, "{} vs {}", y[0], reference[0]);
        prop_assert!((y[1] - reference[1]).abs() < 1e-5, "{} vs {}", y[1], reference[1]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn rk45_crossings_match_rk4_on_a_3stage_chain(
        width in 30.0f64..110.0,
        vdd_level in 0.8f64..1.2,
    ) {
        let chain = InverterChain::umc90_like(3).unwrap();
        let vdd = VddSource::dc(vdd_level);
        let stim = Pulse::new(25.0, width, 8.0, vdd_level).unwrap();
        let t_end = 25.0 + width + 140.0;
        let thr = vdd_level / 2.0;
        let run = chain.simulate(&stim, &vdd, t_end, 0.01).unwrap();
        // tight tolerances: near-threshold supplies make the α-power
        // turn-on kink a real error source at the default setting
        let fast = chain
            .simulate_crossings(&stim, &vdd, t_end, thr, &Rk45Options::with_tolerances(1e-9, 1e-12))
            .unwrap();
        for i in 0..3 {
            let w = run.node(i);
            let mut dense: Vec<f64> = w
                .rising_crossings(thr)
                .into_iter()
                .chain(w.falling_crossings(thr))
                .collect();
            dense.sort_by(|a, b| a.total_cmp(b));
            let fast_times: Vec<f64> =
                fast.node(i).transitions().iter().map(|t| t.time).collect();
            prop_assert_eq!(fast_times.len(), dense.len(), "node {}", i);
            for (a, b) in fast_times.iter().zip(&dense) {
                prop_assert!((a - b).abs() < 1e-3, "node {}: {} vs {}", i, a, b);
            }
        }
    }
}

/// The acceptance bar of this pipeline: at tight tolerances, the
/// crossings-only fast path agrees with bisection on a very fine RK4
/// trace of the nominal 7-stage chain to better than 1e-6 ps on every
/// transition of every node.
#[test]
fn tight_rk45_crossings_match_rk4_bisection_to_1e6() {
    let chain = InverterChain::umc90_like(7).unwrap();
    let vdd = VddSource::dc(1.0);
    let stim = Pulse::new(60.0, 80.0, 10.0, 1.0).unwrap();
    let run = chain.simulate(&stim, &vdd, 400.0, 0.0005).unwrap();
    let opts = Rk45Options::with_tolerances(1e-10, 1e-13);
    let fast = chain
        .simulate_crossings(&stim, &vdd, 400.0, 0.5, &opts)
        .unwrap();
    let mut checked = 0;
    for i in 0..7 {
        for tr in fast.node(i).transitions() {
            let rising = tr.value == faithful::Bit::One;
            let t_ref = bisect_crossing(run.node(i), 0.5, rising)
                .filter(|t| (t - tr.time).abs() < 1.0)
                .or_else(|| {
                    // more than one transition per node: fall back to the
                    // interpolated crossing closest to the event
                    let w = run.node(i);
                    let all = if rising {
                        w.rising_crossings(0.5)
                    } else {
                        w.falling_crossings(0.5)
                    };
                    all.into_iter()
                        .min_by(|a, b| (a - tr.time).abs().total_cmp(&(b - tr.time).abs()))
                })
                .expect("reference crossing exists");
            assert!(
                (t_ref - tr.time).abs() < 1e-6,
                "node {i}: RK45 {} vs RK4-bisection {t_ref}",
                tr.time
            );
            checked += 1;
        }
    }
    assert!(checked >= 14, "only {checked} transitions checked");
}

/// The two characterization pipelines (dense RK4 and crossings-only
/// RK45) must produce the same physics: same sample counts, offsets and
/// delays within a few 1e-3 ps.
#[test]
fn characterize_agrees_between_rk4_and_rk45_pipelines() {
    let chain = InverterChain::umc90_like(7).unwrap();
    let vdd = VddSource::dc(1.0);
    let widths: Vec<f64> = (0..6).map(|i| 24.0 + 14.0 * i as f64).collect();
    let cfg_rk4 = SweepConfig {
        widths: widths.clone(),
        dt: 0.05,
        integrator: Integrator::Rk4,
        ..SweepConfig::default()
    };
    let cfg_rk45 = SweepConfig {
        widths,
        ..SweepConfig::default()
    };
    let runner = SweepRunner::new();
    let (up4, down4) = runner.characterize(&chain, &vdd, &cfg_rk4).unwrap();
    let (up5, down5) = runner.characterize(&chain, &vdd, &cfg_rk45).unwrap();
    assert_eq!(up4.len(), up5.len());
    assert_eq!(down4.len(), down5.len());
    for (a, b) in up4.iter().zip(&up5).chain(down4.iter().zip(&down5)) {
        assert_eq!(a.edge, b.edge);
        assert!((a.offset - b.offset).abs() < 1e-2, "{a:?} vs {b:?}");
        assert!((a.delay - b.delay).abs() < 1e-2, "{a:?} vs {b:?}");
    }
}

/// Parallel sweeps are bitwise reproducible for every worker count —
/// the analog pipeline is pure, so no seeds are involved at all.
#[test]
fn sweep_runner_is_deterministic_across_worker_counts() {
    let chain = InverterChain::umc90_like(7).unwrap();
    let vdd = VddSource::dc(1.0);
    let cfg = SweepConfig {
        widths: (0..9).map(|i| 22.0 + 11.0 * i as f64).collect(),
        ..SweepConfig::default()
    };
    let reference = SweepRunner::new()
        .with_workers(1)
        .characterize(&chain, &vdd, &cfg)
        .unwrap();
    for workers in [2, 4, 7] {
        let got = SweepRunner::new()
            .with_workers(workers)
            .characterize(&chain, &vdd, &cfg)
            .unwrap();
        assert_eq!(reference, got, "workers = {workers}");
    }
}
