//! Per-node energy accounting.
//!
//! The paper's platform (MICA motes on 2×AA batteries) lives or dies by
//! its energy budget; heartbeat-period choices trade tracking
//! responsiveness against battery life. This module meters the three
//! dominant sinks at MICA-era current draws (3 V supply):
//!
//! * **transmit** — ~12 mA while the radio serialises a frame;
//! * **receive / listen** — ~4.5 mA while decoding one;
//! * **CPU active** — ~5 mA while the processor works.
//!
//! Idle draw is not modelled (it is workload-independent and would only
//! add a constant), so the meter reports the *marginal* energy of protocol
//! activity — exactly what parameter ablations need to compare.
//!
//! ```
//! use envirotrack_node::energy::EnergyMeter;
//! use envirotrack_sim::time::SimDuration;
//!
//! let mut meter = EnergyMeter::new();
//! meter.charge_tx(SimDuration::from_millis(9));
//! meter.charge_rx(SimDuration::from_millis(9));
//! meter.charge_cpu(SimDuration::from_millis(20));
//! assert!(meter.total_millijoules() > 0.0);
//! ```

use envirotrack_sim::time::SimDuration;

/// Supply voltage of a 2×AA mote, in volts.
pub(crate) const SUPPLY_VOLTS: f64 = 3.0;
/// Radio transmit draw, in milliamps (MICA at full power).
pub(crate) const TX_MILLIAMPS: f64 = 12.0;
/// Radio receive/decode draw, in milliamps.
pub(crate) const RX_MILLIAMPS: f64 = 4.5;
/// CPU active draw, in milliamps.
pub(crate) const CPU_MILLIAMPS: f64 = 5.0;

/// A per-node marginal-energy meter. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyMeter {
    tx_mj: f64,
    rx_mj: f64,
    cpu_mj: f64,
}

fn millijoules(milliamps: f64, span: SimDuration) -> f64 {
    // mA × V × s = mW × s = mJ.
    milliamps * SUPPLY_VOLTS * span.as_secs_f64()
}

impl EnergyMeter {
    /// A zeroed meter.
    #[must_use]
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Charges one radio transmission of the given airtime.
    pub fn charge_tx(&mut self, airtime: SimDuration) {
        self.tx_mj += millijoules(TX_MILLIAMPS, airtime);
    }

    /// Charges one frame reception of the given airtime.
    pub fn charge_rx(&mut self, airtime: SimDuration) {
        self.rx_mj += millijoules(RX_MILLIAMPS, airtime);
    }

    /// Charges CPU-active time.
    pub fn charge_cpu(&mut self, busy: SimDuration) {
        self.cpu_mj += millijoules(CPU_MILLIAMPS, busy);
    }

    /// Energy spent transmitting, in millijoules.
    #[must_use]
    pub fn tx_millijoules(&self) -> f64 {
        self.tx_mj
    }

    /// Energy spent receiving, in millijoules.
    #[must_use]
    pub fn rx_millijoules(&self) -> f64 {
        self.rx_mj
    }

    /// Energy spent computing, in millijoules.
    #[must_use]
    pub fn cpu_millijoules(&self) -> f64 {
        self.cpu_mj
    }

    /// Total marginal energy, in millijoules.
    #[must_use]
    pub fn total_millijoules(&self) -> f64 {
        self.tx_mj + self.rx_mj + self.cpu_mj
    }

    /// Adds another meter's totals into this one (fleet aggregation).
    pub fn merge(&mut self, other: &EnergyMeter) {
        self.tx_mj += other.tx_mj;
        self.rx_mj += other.rx_mj;
        self.cpu_mj += other.cpu_mj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_follow_the_current_model() {
        let mut m = EnergyMeter::new();
        m.charge_tx(SimDuration::from_secs(1));
        assert!((m.tx_millijoules() - 36.0).abs() < 1e-9); // 12 mA × 3 V × 1 s
        m.charge_rx(SimDuration::from_secs(2));
        assert!((m.rx_millijoules() - 27.0).abs() < 1e-9); // 4.5 × 3 × 2
        m.charge_cpu(SimDuration::from_millis(500));
        assert!((m.cpu_millijoules() - 7.5).abs() < 1e-9); // 5 × 3 × 0.5
        assert!((m.total_millijoules() - 70.5).abs() < 1e-9);
    }

    #[test]
    fn transmitting_costs_more_than_receiving_the_same_frame() {
        let mut tx = EnergyMeter::new();
        let mut rx = EnergyMeter::new();
        let airtime = SimDuration::from_millis(9);
        tx.charge_tx(airtime);
        rx.charge_rx(airtime);
        assert!(tx.total_millijoules() > rx.total_millijoules());
    }

    #[test]
    fn merge_sums_componentwise() {
        let mut a = EnergyMeter::new();
        a.charge_tx(SimDuration::from_secs(1));
        let mut b = EnergyMeter::new();
        b.charge_rx(SimDuration::from_secs(1));
        b.charge_cpu(SimDuration::from_secs(1));
        a.merge(&b);
        assert!((a.total_millijoules() - (36.0 + 13.5 + 15.0)).abs() < 1e-9);
    }
}
