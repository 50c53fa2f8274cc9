//! LogP-flavoured cost model and per-rank simulated clock.

/// Machine parameters of the simulated cluster.
///
/// Defaults are calibrated to a mid-2000s commodity Linux cluster like the
/// Firefly system in the paper: ~5 ns per abstract graph operation
/// (a few arithmetic ops + a cache-resident memory access), ~20 µs MPI
/// point-to-point latency, and ~1 GB/s effective interconnect bandwidth.
/// Only *ratios* matter for the reproduced curves.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Seconds per abstract compute operation.
    pub seconds_per_op: f64,
    /// Per-message latency in seconds (MPI α).
    pub latency: f64,
    /// Seconds per payload byte (MPI β, inverse bandwidth).
    pub seconds_per_byte: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seconds_per_op: 5e-9,
            latency: 2e-5,
            seconds_per_byte: 1e-9,
        }
    }
}

impl CostModel {
    /// A model with free communication — isolates compute scaling.
    pub fn compute_only(seconds_per_op: f64) -> Self {
        CostModel {
            seconds_per_op,
            latency: 0.0,
            seconds_per_byte: 0.0,
        }
    }

    /// Transfer time of a payload of `bytes` bytes.
    #[inline]
    pub fn transfer(&self, bytes: usize) -> f64 {
        self.latency + self.seconds_per_byte * bytes as f64
    }
}

/// Per-rank simulated clock. Monotone: every charge moves it forward.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimClock {
    now: f64,
}

impl SimClock {
    /// Current simulated time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Charge `ops` compute operations under `model`.
    #[inline]
    pub fn charge_ops(&mut self, model: &CostModel, ops: u64) {
        casbn_obs::counter_add("distsim.ops", ops);
        self.now += model.seconds_per_op * ops as f64;
    }

    /// Charge a message send of `bytes` (sender-side overhead = latency).
    #[inline]
    pub fn charge_send(&mut self, model: &CostModel, bytes: usize) -> f64 {
        self.now += model.latency;
        // arrival time at the receiver
        self.now + model.seconds_per_byte * bytes as f64
    }

    /// Account a message arriving at `arrival` (receiver blocks until the
    /// message is in).
    #[inline]
    pub fn charge_recv(&mut self, arrival: f64) {
        if arrival > self.now {
            self.now = arrival;
        }
    }

    /// Synchronise with a barrier whose release time is `release`.
    #[inline]
    pub fn sync_to(&mut self, release: f64) {
        if release > self.now {
            self.now = release;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_accumulate() {
        let m = CostModel::compute_only(1e-6);
        let mut c = SimClock::default();
        c.charge_ops(&m, 1000);
        assert!((c.now() - 1e-3).abs() < 1e-12);
        c.charge_ops(&m, 1000);
        assert!((c.now() - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn send_charges_latency_and_bandwidth() {
        let m = CostModel {
            seconds_per_op: 0.0,
            latency: 1.0,
            seconds_per_byte: 0.5,
        };
        let mut c = SimClock::default();
        let arrival = c.charge_send(&m, 4);
        assert!((c.now() - 1.0).abs() < 1e-12, "sender pays latency");
        assert!((arrival - 3.0).abs() < 1e-12, "arrival at 1 + 4*0.5");
    }

    #[test]
    fn recv_waits_for_late_messages_only() {
        let mut c = SimClock::default();
        c.sync_to(5.0);
        c.charge_recv(3.0); // already past arrival: no wait
        assert!((c.now() - 5.0).abs() < 1e-12);
        c.charge_recv(8.0);
        assert!((c.now() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn default_model_ratios_sane() {
        let m = CostModel::default();
        // one message costs as much as thousands of graph ops — the regime
        // that makes border-edge communication expensive
        assert!(m.latency / m.seconds_per_op > 1e3);
    }
}
