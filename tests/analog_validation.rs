//! Integration of the analog substrate with the delay-model layer: the
//! Section V pipeline (characterize → model → deviations under
//! variations) reproduced end to end at test scale.

use faithful::analog::chain::InverterChain;
use faithful::analog::characterize::{to_empirical, to_piecewise, SweepConfig};
use faithful::analog::senseamp::SenseAmp;
use faithful::analog::stimulus::Pulse;
use faithful::analog::supply::VddSource;
use faithful::analog::sweep::SweepRunner;
use faithful::core::channel::{Channel, InvolutionChannel};
use faithful::core::delay::delta_min_of;
use faithful::core::delay::fit::fit_exp_channel;
use faithful::Edge;

/// One worker: every sweep runs inline, in width order (see
/// tests/experiment_facade.rs for the facade equivalents).
fn serial() -> SweepRunner {
    SweepRunner::new().with_workers(1)
}

fn test_config() -> SweepConfig {
    SweepConfig {
        widths: (0..10).map(|i| 20.0 + 11.0 * i as f64).collect(),
        dt: 0.1,
        ..SweepConfig::default()
    }
}

#[test]
fn characterized_delay_functions_saturate_and_increase() {
    let chain = InverterChain::umc90_like(7).unwrap();
    let vdd = VddSource::dc(1.0);
    let (up, down) = serial().characterize(&chain, &vdd, &test_config()).unwrap();
    for series in [&up, &down] {
        assert!(series.len() >= 6, "only {} samples", series.len());
        // increasing in T
        for w in series.windows(2) {
            assert!(w[1].delay >= w[0].delay - 0.05, "{series:?}");
        }
        // saturating: last increments much smaller than first
        let n = series.len();
        let d_first = series[1].delay - series[0].delay;
        let d_last = series[n - 1].delay - series[n - 2].delay;
        assert!(d_last < d_first * 0.6, "{d_first} vs {d_last}");
    }
}

#[test]
fn digital_model_predicts_analog_crossings_on_nominal_chain() {
    let chain = InverterChain::umc90_like(7).unwrap();
    let vdd = VddSource::dc(1.0);
    let cfg = test_config();
    let (up, down) = serial().characterize(&chain, &vdd, &cfg).unwrap();
    let pair = to_empirical(&up, &down).unwrap();

    // fresh pulse not in the sweep grid
    let stim = Pulse::new(60.0, 47.0, 10.0, 1.0).unwrap();
    let run = chain.simulate(&stim, &vdd, 400.0, 0.05).unwrap();
    let input = run.stage_input(cfg.stage).digitize(0.5).unwrap();
    let analog = run.node(cfg.stage).digitize(0.5).unwrap();
    let mut model = InvolutionChannel::new(pair);
    let predicted = model.apply(&input.complemented());
    assert_eq!(predicted.len(), analog.len());
    // The 47 ps pulse falls between sweep grid points and its first edge
    // probes the extrapolated saturation region, so a few ps of error on
    // ~35 ps delays remain — exactly the deterministic-model imperfection
    // that the η-shifts of Section V are there to absorb.
    for (p, a) in predicted.transitions().iter().zip(analog.transitions()) {
        assert!(
            (p.time - a.time).abs() < 3.0,
            "predicted {} vs analog {}",
            p.time,
            a.time
        );
    }
}

#[test]
fn supply_variation_deviations_are_small_and_sign_alternating() {
    // Fig. 8a: ±1 % VDD sine → sub-ps deviations, both signs, growing
    // with |phase| effect but bounded
    let chain = InverterChain::umc90_like(7).unwrap();
    let cfg = test_config();
    let (up, down) = serial()
        .characterize(&chain, &VddSource::dc(1.0), &cfg)
        .unwrap();
    let reference = to_empirical(&up, &down).unwrap();
    let mut any_positive = false;
    let mut any_negative = false;
    for phase in [0.0, 120.0, 240.0] {
        let vdd = VddSource::with_sine(1.0, 0.01, 120.0, phase).unwrap();
        for inverted in [false, true] {
            let devs = serial()
                .measure_deviations(&chain, &vdd, &cfg, &reference, inverted)
                .unwrap();
            for d in devs {
                assert!(d.deviation.abs() < 2.0, "{d:?}");
                if d.deviation > 0.0 {
                    any_positive = true;
                } else if d.deviation < 0.0 {
                    any_negative = true;
                }
            }
        }
    }
    assert!(any_positive && any_negative, "sine must swing both ways");
}

#[test]
fn width_variations_shift_deviations_like_fig_8b_8c() {
    let chain = InverterChain::umc90_like(7).unwrap();
    let vdd = VddSource::dc(1.0);
    let cfg = test_config();
    let (up, down) = serial().characterize(&chain, &vdd, &cfg).unwrap();
    let reference = to_empirical(&up, &down).unwrap();
    let mean_dev = |factor: f64| -> f64 {
        let varied = chain.scaled_width(factor).unwrap();
        let mut sum = 0.0;
        let mut n = 0;
        for inverted in [false, true] {
            for d in serial()
                .measure_deviations(&varied, &vdd, &cfg, &reference, inverted)
                .unwrap()
            {
                sum += d.deviation;
                n += 1;
            }
        }
        sum / n as f64
    };
    let wider = mean_dev(1.1); // Fig. 8b: faster → analog earlier → D < 0
    let narrower = mean_dev(0.9); // Fig. 8c: slower → D > 0
    assert!(wider < -0.2, "wider: {wider}");
    assert!(narrower > 0.2, "narrower: {narrower}");
}

#[test]
fn exp_channel_fit_approximates_measured_data_near_small_t() {
    // Fig. 9: an exp-channel fit misses at large T but is decent overall
    let chain = InverterChain::umc90_like(7).unwrap();
    let vdd = VddSource::dc(1.0);
    let cfg = test_config();
    let (up, down) = serial().characterize(&chain, &vdd, &cfg).unwrap();
    let ups: Vec<(f64, f64)> = up.iter().map(|s| (s.offset, s.delay)).collect();
    let downs: Vec<(f64, f64)> = down.iter().map(|s| (s.offset, s.delay)).collect();
    let fit = fit_exp_channel(&ups, &downs, None).unwrap();
    assert!(fit.rms < 3.0, "rms {} ps too large", fit.rms);
    // the fitted channel is a true involution with positive delta_min
    let dm = delta_min_of(&fit.channel).unwrap();
    assert!(dm > 0.0);
    // deviations of the fit against the analog chain exist but stay
    // bounded over the sampled range
    let devs = serial()
        .measure_deviations(&chain, &vdd, &cfg, &fit.channel, true)
        .unwrap();
    for d in &devs {
        assert_eq!(d.edge, Edge::Rising);
        assert!(d.deviation.abs() < 5.0, "{d:?}");
    }
}

#[test]
fn lower_vdd_shifts_the_whole_delay_curve_up_fig_7() {
    let chain = InverterChain::umc90_like(7).unwrap();
    let cfg = SweepConfig {
        widths: (0..6).map(|i| 30.0 + 18.0 * i as f64).collect(),
        dt: 0.1,
        ..SweepConfig::default()
    };
    let mean_delay = |v: f64| -> f64 {
        let cfg_v = SweepConfig {
            // keep comparable offsets: scale widths with slower switching
            widths: cfg.widths.iter().map(|w| w * (1.0 / v).powf(1.5)).collect(),
            tail: 600.0,
            ..cfg.clone()
        };
        let vdd = VddSource::dc(v);
        let s = serial().sweep_samples(&chain, &vdd, &cfg_v, false).unwrap();
        s.iter().map(|x| x.delay).sum::<f64>() / s.len() as f64
    };
    let d10 = mean_delay(1.0);
    let d08 = mean_delay(0.8);
    let d06 = mean_delay(0.6);
    assert!(d08 > d10 * 1.1, "{d08} vs {d10}");
    assert!(d06 > d08 * 1.1, "{d06} vs {d08}");
}

#[test]
fn sense_amp_preserves_crossing_order_and_delays_slightly() {
    let chain = InverterChain::umc90_like(7).unwrap();
    let stim = Pulse::new(60.0, 80.0, 10.0, 1.0).unwrap();
    let run = chain
        .simulate(&stim, &VddSource::dc(1.0), 400.0, 0.05)
        .unwrap();
    let amp = SenseAmp::umc90_like().unwrap();
    let raw = run.node(3);
    let scoped = amp.apply(raw).unwrap();
    // crossing at the scaled threshold (gain × VDD/2)
    let raw_cross = raw.rising_crossings(0.5);
    let scoped_cross = scoped.rising_crossings(0.5 * amp.gain());
    assert_eq!(raw_cross.len(), scoped_cross.len());
    for (r, s) in raw_cross.iter().zip(&scoped_cross) {
        assert!(s > r, "amp must add delay");
        assert!(s - r < 40.0, "one-pole lag bounded: {} ps", s - r);
    }
}

#[test]
fn piecewise_from_up_samples_is_involution_exact() {
    let chain = InverterChain::umc90_like(7).unwrap();
    let (up, _) = serial()
        .characterize(&chain, &VddSource::dc(1.0), &test_config())
        .unwrap();
    let pair = to_piecewise(&up).unwrap();
    // the derived pair satisfies the involution property by construction
    let (lo, hi) = pair.t_range();
    let report = faithful::core::delay::check_involution(&pair, lo, hi, 40);
    assert!(report.max_roundtrip_error < 1e-6, "{report:?}");
}

#[test]
fn supply_noise_hits_the_rising_edge_ground_noise_the_falling_edge() {
    // The paper's remark after Fig. 8a: V_DD variation mostly moves the
    // edge driven by the pull-up (output rising, PMOS), and "when varying
    // the ground level, the reverse case can be observed". Probe a single
    // inverter with a fixed stimulus and compare crossing-time spreads
    // over the modulation phase.
    use faithful::analog::supply::GroundSource;
    let chain = InverterChain::umc90_like(1).unwrap();
    let stim = Pulse::new(60.0, 80.0, 10.0, 1.0).unwrap();

    let crossings = |vdd: &VddSource, gnd: &GroundSource| -> (f64, f64) {
        let run = chain
            .simulate_with_ground(&stim, vdd, gnd, 300.0, 0.05)
            .unwrap();
        let fall = run.node(0).falling_crossings(0.5)[0];
        let rise = run.node(0).rising_crossings(0.5)[0];
        (fall, rise)
    };
    let spread = |xs: &[f64]| {
        xs.iter().cloned().fold(f64::MIN, f64::max) - xs.iter().cloned().fold(f64::MAX, f64::min)
    };

    // supply sine, ideal ground
    let (mut falls, mut rises) = (Vec::new(), Vec::new());
    for k in 0..8 {
        let vdd = VddSource::with_sine(1.0, 0.03, 90.0, k as f64 * 45.0).unwrap();
        let (f, r) = crossings(&vdd, &GroundSource::ideal());
        falls.push(f);
        rises.push(r);
    }
    let (vdd_fall_spread, vdd_rise_spread) = (spread(&falls), spread(&rises));

    // ground sine, clean supply
    let (mut falls, mut rises) = (Vec::new(), Vec::new());
    for k in 0..8 {
        let gnd = GroundSource::with_sine(0.03, 90.0, k as f64 * 45.0).unwrap();
        let (f, r) = crossings(&VddSource::dc(1.0), &gnd);
        falls.push(f);
        rises.push(r);
    }
    let (gnd_fall_spread, gnd_rise_spread) = (spread(&falls), spread(&rises));

    // the opposite edge still moves a little (the victim transistor
    // conducts during the input slew, referenced to the noisy rail), so
    // the asymmetry is a ratio, not a zero
    assert!(
        vdd_rise_spread > 1.3 * vdd_fall_spread,
        "V_DD noise must hit the rising (PMOS) edge harder: rise {vdd_rise_spread} vs fall {vdd_fall_spread}"
    );
    assert!(
        gnd_fall_spread > 1.3 * gnd_rise_spread,
        "ground noise must hit the falling (NMOS) edge harder: fall {gnd_fall_spread} vs rise {gnd_rise_spread}"
    );
}
