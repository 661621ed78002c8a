//! Analytic quantities of the faithfulness proof (Section IV).

use ivl_core::delay::DelayPair;
use ivl_core::noise::EtaBounds;

use crate::error::Error;

/// The closed set of quantities appearing in Lemmas 1–8 and Theorem 9,
/// computed for a delay pair and η bounds satisfying constraint (C).
///
/// All fields are public data: [`SpfTheory::compute`] derives them,
/// and a served result document carries them exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpfTheory {
    /// `δ_min` of the delay pair (Lemma 1).
    pub delta_min: f64,
    /// `η⁻` of the bounds used.
    pub eta_minus: f64,
    /// `η⁺` of the bounds used.
    pub eta_plus: f64,
    /// The smallest positive fixed point `τ` of
    /// `δ↓(η⁺ − τ) + δ↑(−η⁻ − τ) = τ` (Lemma 5). Equals the worst-case
    /// period `P`.
    pub tau: f64,
    /// Worst-case self-repeating up-time `∆ = δ↓(η⁺ − τ)` (Lemma 5);
    /// an upper bound on every pulse of an infinite train, with
    /// `∆ < δ_min`.
    pub delta_bar: f64,
    /// Worst-case period `P = τ`; `P − ∆` lower-bounds every down-time.
    pub period: f64,
    /// Worst-case duty cycle `γ = ∆/P < 1` (Lemma 6).
    pub gamma: f64,
    /// Lemma 8 threshold `∆̃₀`: input pulses longer than this resolve to
    /// a stable 1.
    pub delta0_tilde: f64,
    /// Growth ratio `a = 1 + δ′↑(0) > 1` of Lemma 7.
    pub growth: f64,
    /// Lemma 4 bound: input pulses with `∆₀ ≤ δ↑∞ − δ_min − η⁺ − η⁻`
    /// are filtered by the feedback channel.
    pub filter_bound: f64,
    /// Lemma 3 bound: input pulses with `∆₀ ≥ δ↑∞ + η⁺` lock the loop.
    pub lock_bound: f64,
}

impl SpfTheory {
    /// Computes all quantities for `delay` and `bounds`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ConstraintCViolated`] if constraint (C) fails and
    /// [`Error::Solver`] if a fixed-point bracket cannot be established
    /// (which constraint (C) rules out for exact involution pairs).
    pub fn compute<D: DelayPair + ?Sized>(delay: &D, bounds: EtaBounds) -> Result<Self, Error> {
        let delta_min = delay.delta_min();
        let (eta_minus, eta_plus) = (bounds.minus(), bounds.plus());
        let slack = delay.delta_down(-eta_plus) - delta_min - (eta_plus + eta_minus);
        if slack <= 0.0 {
            return Err(Error::ConstraintCViolated {
                minus: eta_minus,
                plus: eta_plus,
                slack,
            });
        }

        // τ: root of h(τ) = δ↓(η⁺−τ) + δ↑(−η⁻−τ) − τ, strictly
        // decreasing on (τ0, τ1) with h(τ0) > 0 under (C) and h(τ1) = −∞.
        let h =
            |tau: f64| delay.delta_down(eta_plus - tau) + delay.delta_up(-eta_minus - tau) - tau;
        let tau0 = eta_plus + delta_min;
        let tau1 = (delay.delta_down_inf() - eta_minus).min(delay.delta_up_inf() + eta_plus);
        let tau = bisect_decreasing(h, tau0, tau1).ok_or(Error::Solver {
            what: "tau: fixed point of eq. (6)",
        })?;

        let delta_bar = delay.delta_down(eta_plus - tau);
        let period = tau;
        let gamma = delta_bar / period;
        let growth = 1.0 + delay.d_delta_up(0.0);
        let up_inf = delay.delta_up_inf();
        let filter_bound = up_inf - delta_min - eta_plus - eta_minus;
        let lock_bound = up_inf + eta_plus;

        // ∆̃₀: root of g(∆₀) = ∆ with g increasing (Lemma 8), where
        // g(∆₀) = δ↓(∆₀ − η⁺ − δ↑∞) + ∆₀ − η⁻ − η⁺ − δ↑∞ is the width of
        // the first feedback pulse under the worst-case adversary.
        let g =
            |d0: f64| delay.delta_down(d0 - eta_plus - up_inf) + d0 - eta_minus - eta_plus - up_inf;
        let lo = eta_plus + up_inf - delta_min;
        let hi = eta_minus + eta_plus + up_inf;
        let delta0_tilde =
            bisect_increasing(|x| g(x) - delta_bar, lo, hi).ok_or(Error::Solver {
                what: "delta0_tilde: threshold of Lemma 8",
            })?;

        Ok(SpfTheory {
            delta_min,
            eta_minus,
            eta_plus,
            tau,
            delta_bar,
            period,
            gamma,
            delta0_tilde,
            growth,
            filter_bound,
            lock_bound,
        })
    }

    /// The worst-case first feedback pulse `∆₁ = g(∆₀)` for an input
    /// pulse of width `delta0` (Lemma 8), or `None` if it cancels.
    #[must_use]
    pub fn first_pulse<D: DelayPair + ?Sized>(&self, delay: &D, delta0: f64) -> Option<f64> {
        let up_inf = delay.delta_up_inf();
        let d1 = delay.delta_down(delta0 - self.eta_plus - up_inf) + delta0
            - self.eta_minus
            - self.eta_plus
            - up_inf;
        (d1.is_finite() && d1 > 0.0).then_some(d1)
    }

    /// Upper bound on the number of feedback pulses before stabilization
    /// for `∆₀ > ∆̃₀`: on the order of `log_a(1/(∆₀ − ∆̃₀))` plus the
    /// pulses needed to reach the lock bound (Theorem 9).
    #[must_use]
    pub fn stabilization_pulse_bound(&self, delta0: f64) -> Option<f64> {
        if delta0 <= self.delta0_tilde {
            return None;
        }
        let gap = delta0 - self.delta0_tilde;
        // pulses to grow the deviation from `gap` to the full lock bound
        let n = ((self.lock_bound / gap).ln() / self.growth.ln()).max(0.0);
        Some(n + 1.0)
    }

    /// Validates the inequality chain asserted by Lemma 5:
    /// `0 < η⁺ + δ_min < τ < min(−η⁻ + δ↓∞, η⁺ + δ↑∞)` and `∆ < δ_min`.
    #[must_use]
    pub fn satisfies_lemma5_inequalities<D: DelayPair + ?Sized>(&self, delay: &D) -> bool {
        let tau1 =
            (delay.delta_down_inf() - self.eta_minus).min(delay.delta_up_inf() + self.eta_plus);
        0.0 < self.eta_plus + self.delta_min
            && self.eta_plus + self.delta_min < self.tau
            && self.tau < tau1
            && self.delta_bar < self.delta_min
    }
}

/// Bisects a strictly decreasing function for its root in `(lo, hi)`.
fn bisect_decreasing<F: Fn(f64) -> f64>(f: F, mut lo: f64, mut hi: f64) -> Option<f64> {
    // bracket checks; partial_cmp makes the NaN → None behaviour explicit
    use std::cmp::Ordering::{Greater, Less};
    if lo.partial_cmp(&hi) != Some(Less) || f(lo).partial_cmp(&0.0) != Some(Greater) {
        return None;
    }
    // f(hi) may be −∞; that is a valid bracket
    if f(hi).partial_cmp(&0.0) != Some(Less) {
        return None;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if f(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Bisects a strictly increasing function for its root in `(lo, hi)`.
fn bisect_increasing<F: Fn(f64) -> f64>(f: F, lo: f64, hi: f64) -> Option<f64> {
    bisect_decreasing(|x| -f(x), lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_core::delay::{DelayPair, ExpChannel, RationalPair};

    fn exp() -> ExpChannel {
        ExpChannel::new(1.0, 0.5, 0.5).unwrap()
    }

    #[test]
    fn computes_for_zero_eta() {
        // η = 0 degenerates to the DATE'15 singular pulse train
        let d = exp();
        let th = SpfTheory::compute(&d, EtaBounds::zero()).unwrap();
        // τ solves δ↓(−τ) + δ↑(−τ) = τ; for the symmetric channel
        // 2δ(−τ) = τ, and ∆ = δ↓(−τ) = τ/2 → duty cycle exactly ½
        assert!((th.gamma - 0.5).abs() < 1e-9, "gamma = {}", th.gamma);
        assert!((th.delta_bar - th.tau / 2.0).abs() < 1e-9);
        assert!(th.satisfies_lemma5_inequalities(&d));
    }

    #[test]
    fn fixed_point_satisfies_equation_6() {
        let d = exp();
        let b = EtaBounds::new(0.03, 0.05).unwrap();
        let th = SpfTheory::compute(&d, b).unwrap();
        let lhs = d.delta_down(b.plus() - th.tau) + d.delta_up(-b.minus() - th.tau);
        assert!((lhs - th.tau).abs() < 1e-9, "h(tau) != 0");
        // and ∆ is the fixed point of the worst-case map f (eq. (2))
        let f = |x: f64| {
            d.delta_down(x - b.plus() - d.delta_up(-x)) + x - b.minus() - b.plus() - d.delta_up(-x)
        };
        assert!((f(th.delta_bar) - th.delta_bar).abs() < 1e-9);
    }

    #[test]
    fn lemma5_inequalities_hold_across_parameterizations() {
        for (tau, tp, vth) in [(1.0, 0.5, 0.5), (0.3, 0.1, 0.4), (2.5, 1.0, 0.6)] {
            let d = ExpChannel::new(tau, tp, vth).unwrap();
            for eta in [0.0, 0.01, 0.05] {
                let b = EtaBounds::new(eta, eta).unwrap();
                if !b.satisfies_constraint_c(&d) {
                    continue;
                }
                let th = SpfTheory::compute(&d, b).unwrap();
                assert!(
                    th.satisfies_lemma5_inequalities(&d),
                    "({tau},{tp},{vth}) eta={eta}: {th:?}"
                );
                assert!(th.gamma < 1.0);
                assert!(
                    th.gamma <= th.delta_min / (th.delta_min + eta) + 1e-9,
                    "Lemma 6 refinement"
                );
                assert!(th.growth > 1.0);
            }
        }
    }

    #[test]
    fn constraint_c_violation_is_rejected() {
        let d = exp();
        let b = EtaBounds::new(1.0, 1.0).unwrap();
        assert!(matches!(
            SpfTheory::compute(&d, b),
            Err(Error::ConstraintCViolated { .. })
        ));
    }

    #[test]
    fn eta_grows_delta_bar_but_keeps_it_below_delta_min() {
        // Larger adversary power *lowers* the worst-case map f, and since
        // the fixed point is expanding (f′ > 1, Lemma 7), the
        // self-sustaining pulse width ∆ moves up with η — yet stays below
        // δ_min (Lemma 5).
        let d = exp();
        let th0 = SpfTheory::compute(&d, EtaBounds::zero()).unwrap();
        let th1 = SpfTheory::compute(&d, EtaBounds::new(0.02, 0.02).unwrap()).unwrap();
        let th2 = SpfTheory::compute(&d, EtaBounds::new(0.05, 0.05).unwrap()).unwrap();
        assert!(th1.delta_bar > th0.delta_bar);
        assert!(th2.delta_bar > th1.delta_bar);
        for th in [th0, th1, th2] {
            assert!(th.delta_bar < th.delta_min);
        }
        // the metastable window of Theorem 9 widens with η
        assert!(th2.lock_bound - th2.filter_bound > th0.lock_bound - th0.filter_bound);
    }

    #[test]
    fn delta0_tilde_is_a_g_root_and_orders_correctly() {
        let d = exp();
        let b = EtaBounds::new(0.02, 0.03).unwrap();
        let th = SpfTheory::compute(&d, b).unwrap();
        // g(∆̃₀) = ∆
        let first = th.first_pulse(&d, th.delta0_tilde).unwrap();
        assert!((first - th.delta_bar).abs() < 1e-8);
        // ordering: filter bound < ∆̃₀ < lock bound
        assert!(th.filter_bound < th.delta0_tilde);
        assert!(th.delta0_tilde < th.lock_bound);
    }

    #[test]
    fn first_pulse_none_below_filter_bound() {
        let d = exp();
        let b = EtaBounds::new(0.02, 0.02).unwrap();
        let th = SpfTheory::compute(&d, b).unwrap();
        assert!(th.first_pulse(&d, th.filter_bound * 0.9).is_none());
        assert!(th.first_pulse(&d, th.delta0_tilde * 1.05).is_some());
    }

    #[test]
    fn stabilization_bound_shrinks_with_distance() {
        let d = exp();
        let th = SpfTheory::compute(&d, EtaBounds::zero()).unwrap();
        let near = th
            .stabilization_pulse_bound(th.delta0_tilde + 1e-6)
            .unwrap();
        let far = th.stabilization_pulse_bound(th.delta0_tilde + 0.1).unwrap();
        assert!(near > far, "{near} vs {far}");
        assert!(th.stabilization_pulse_bound(th.delta0_tilde).is_none());
    }

    #[test]
    fn works_with_rational_pair() {
        let d = RationalPair::new(2.0, 1.0, 2.0).unwrap();
        let b = EtaBounds::new(0.02, 0.02).unwrap();
        assert!(b.satisfies_constraint_c(&d));
        let th = SpfTheory::compute(&d, b).unwrap();
        assert!(th.satisfies_lemma5_inequalities(&d));
        assert!(th.delta_bar > 0.0);
    }

    #[test]
    fn asymmetric_eta_bounds() {
        let d = exp();
        let only_plus = SpfTheory::compute(&d, EtaBounds::new(0.0, 0.08).unwrap()).unwrap();
        let only_minus = SpfTheory::compute(&d, EtaBounds::new(0.08, 0.0).unwrap()).unwrap();
        assert!(only_plus.satisfies_lemma5_inequalities(&d));
        assert!(only_minus.satisfies_lemma5_inequalities(&d));
        assert_ne!(only_plus.tau, only_minus.tau);
    }
}
