//! CMOS inverters over the alpha-power MOSFET model.

use crate::error::Error;
use crate::mosfet::{AlphaPowerParams, Mosfet};

/// A CMOS inverter: pull-down NMOS, pull-up PMOS, and a lumped output
/// load capacitance (fF) including wire and fan-out.
///
/// The output node obeys `C·dV_out/dt = I_P − I_N` with the PMOS
/// evaluated in mirrored convention
/// (`V_GS^P = V_DD − V_in`, `V_DS^P = V_DD − V_out`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inverter {
    nmos: Mosfet,
    pmos: Mosfet,
    c_load: f64,
}

impl Inverter {
    /// Creates an inverter.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `c_load ≤ 0`.
    pub fn new(nmos: Mosfet, pmos: Mosfet, c_load: f64) -> Result<Self, Error> {
        if !(c_load.is_finite() && c_load > 0.0) {
            return Err(Error::InvalidParameter {
                name: "c_load",
                value: c_load,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Inverter { nmos, pmos, c_load })
    }

    /// The UMC-90-like inverter of the paper's ASIC: 0.36 µm NMOS,
    /// 0.70 µm PMOS, with `c_load` fF of output load.
    ///
    /// # Errors
    ///
    /// As [`Inverter::new`].
    pub fn umc90_like(c_load: f64) -> Result<Self, Error> {
        Inverter::new(
            Mosfet::new(AlphaPowerParams::umc90_nmos(), 0.36)?,
            Mosfet::new(AlphaPowerParams::umc90_pmos(), 0.70)?,
            c_load,
        )
    }

    /// The pull-down transistor.
    #[must_use]
    pub fn nmos(&self) -> Mosfet {
        self.nmos
    }

    /// The pull-up transistor.
    #[must_use]
    pub fn pmos(&self) -> Mosfet {
        self.pmos
    }

    /// The output load (fF).
    #[must_use]
    pub fn c_load(&self) -> f64 {
        self.c_load
    }

    /// Returns a copy with both transistor widths scaled by `factor`
    /// (drive-strength process variation; the loads stay untouched, as
    /// in the paper's Fig. 8b/8c experiment where the DUT's drive varies
    /// against a fixed measurement load).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `factor ≤ 0`.
    pub fn scaled_width(&self, factor: f64) -> Result<Self, Error> {
        Ok(Inverter {
            nmos: self.nmos.scaled_width(factor)?,
            pmos: self.pmos.scaled_width(factor)?,
            c_load: self.c_load,
        })
    }

    /// Returns a copy with a different load capacitance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `c_load ≤ 0`.
    pub fn with_load(&self, c_load: f64) -> Result<Self, Error> {
        Inverter::new(self.nmos, self.pmos, c_load)
    }

    /// Net charging current (mA) into the output node for input voltage
    /// `v_in`, output voltage `v_out`, supply `v_dd` and ground level
    /// `v_ss` (`0.0` for an ideal ground): the NMOS sees `V_GS = v_in − v_ss`
    /// and `V_DS = v_out − v_ss`.
    #[must_use]
    pub fn output_current_rails(&self, v_in: f64, v_out: f64, v_dd: f64, v_ss: f64) -> f64 {
        let i_n = self.nmos.drain_current(v_in - v_ss, v_out - v_ss);
        let i_p = self.pmos.drain_current(v_dd - v_in, v_dd - v_out);
        i_p - i_n
    }

    /// `dV_out/dt` in V/ps, with the rails as in
    /// [`output_current_rails`](Inverter::output_current_rails).
    #[must_use]
    pub fn dv_out_rails(&self, v_in: f64, v_out: f64, v_dd: f64, v_ss: f64) -> f64 {
        self.output_current_rails(v_in, v_out, v_dd, v_ss) / self.c_load
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::rk4_flat;

    fn inv() -> Inverter {
        Inverter::umc90_like(5.0).unwrap()
    }

    #[test]
    fn validation() {
        let i = inv();
        assert!(Inverter::new(i.nmos(), i.pmos(), 0.0).is_err());
        assert!(i.with_load(-1.0).is_err());
        assert!(i.scaled_width(0.0).is_err());
        assert_eq!(i.c_load(), 5.0);
    }

    #[test]
    fn dc_behaviour() {
        let i = inv();
        // input low → output pulled high: at v_out just below VDD the
        // PMOS still sources current, NMOS is off
        assert!(i.output_current_rails(0.0, 0.5, 1.0, 0.0) > 0.0);
        // input high → output pulled low
        assert!(i.output_current_rails(1.0, 0.5, 1.0, 0.0) < 0.0);
        // rails are stable
        assert_eq!(i.output_current_rails(0.0, 1.0, 1.0, 0.0), 0.0);
        assert_eq!(i.output_current_rails(1.0, 0.0, 1.0, 0.0), 0.0);
    }

    #[test]
    fn transient_settles_to_inverted_rail() {
        let i = inv();
        // input steps high at t = 0, output starts at VDD
        let trace = rk4_flat(0.0, &[1.0], 0.05, 2000, |_t, y, dy| {
            dy[0] = i.dv_out_rails(1.0, y[0], 1.0, 0.0);
        });
        let v_final = *trace.last().unwrap();
        assert!(v_final < 0.01, "output must settle low: {v_final}");
        // and the transition passes the midpoint within tens of ps
        let crossed = trace.iter().position(|&v| v < 0.5).unwrap();
        let t_cross = crossed as f64 * 0.05;
        assert!(
            (1.0..60.0).contains(&t_cross),
            "implausible delay {t_cross} ps"
        );
    }

    #[test]
    fn wider_device_switches_faster() {
        let slow = inv();
        let fast = slow.scaled_width(1.5).unwrap();
        let cross = |i: Inverter| {
            let trace = rk4_flat(0.0, &[1.0], 0.05, 4000, |_t, y, dy| {
                dy[0] = i.dv_out_rails(1.0, y[0], 1.0, 0.0);
            });
            trace.iter().position(|&v| v < 0.5).unwrap()
        };
        assert!(cross(fast) < cross(slow));
    }

    #[test]
    fn lower_vdd_switches_slower() {
        let i = inv();
        let cross = |vdd: f64| {
            let trace = rk4_flat(0.0, &[vdd], 0.05, 40000, |_t, y, dy| {
                dy[0] = i.dv_out_rails(vdd, y[0], vdd, 0.0);
            });
            trace
                .iter()
                .position(|&v| v < vdd / 2.0)
                .expect("must cross")
        };
        // time ≈ C·(VDD/2)/I with I ∝ (VDD − V_T)^α: the 0.6 V crossing
        // is ~1.6× slower; near-threshold supplies (0.35 V) are far worse
        let fast = cross(1.0);
        let slow = cross(0.6);
        assert!(
            slow as f64 > 1.3 * fast as f64,
            "0.6 V must be slower: {slow} vs {fast}"
        );
        let crawling = cross(0.30);
        assert!(
            crawling as f64 > 8.0 * fast as f64,
            "near-threshold must crawl: {crawling} vs {fast}"
        );
    }
}
