//! The fluid queue model.
//!
//! Aggregate traffic (attack load, legitimate query load) is modeled as a
//! *fluid*: a rate in queries/second that changes at discrete instants.
//! This hybrid style — fluid for bulk traffic, discrete per-VP probes —
//! keeps a 48-hour, multi-million-qps scenario tractable while
//! preserving the queueing behaviour the paper observes (loss and
//! bufferbloat-driven RTT inflation at overloaded sites, §3.3.2).

use crate::time::{SimDuration, SimTime};

/// A leaky-bucket / fluid queue that converts offered load vs. capacity
/// into loss fraction and queueing delay.
///
/// This is the model behind the paper's observation that overloaded sites
/// show RTTs inflated from ~30 ms to 1–2 s ("industrial-scale bufferbloat",
/// §3.3.2): routers in front of a site buffer deeply, so sustained overload
/// fills the buffer and every accepted query sees the full drain time.
#[derive(Debug, Clone)]
pub struct FluidQueue {
    /// Service capacity, queries per second.
    pub capacity_qps: f64,
    /// Buffer depth in queries. Queries beyond this are dropped.
    pub buffer_queries: f64,
    /// Current backlog in queries.
    backlog: f64,
    /// Last time the backlog was updated.
    updated: SimTime,
}

impl FluidQueue {
    pub fn new(capacity_qps: f64, buffer_queries: f64) -> Self {
        assert!(capacity_qps > 0.0);
        assert!(buffer_queries >= 0.0);
        FluidQueue {
            capacity_qps,
            buffer_queries,
            backlog: 0.0,
            updated: SimTime::ZERO,
        }
    }

    /// Current backlog in queries.
    pub fn backlog(&self) -> f64 {
        self.backlog
    }

    /// Advance the queue to time `t` under constant offered load
    /// `offered_qps` since the last update. Returns the fraction of offered
    /// load dropped in the interval (0 if the buffer never filled).
    pub fn advance(&mut self, t: SimTime, offered_qps: f64) -> f64 {
        assert!(t >= self.updated, "queue time went backwards");
        assert!(offered_qps >= 0.0);
        let dt = (t - self.updated).as_secs_f64();
        self.updated = t;
        if dt == 0.0 {
            return 0.0;
        }
        let net = offered_qps - self.capacity_qps;
        let offered_total = offered_qps * dt;
        let dropped;
        if net <= 0.0 {
            // Draining. Backlog falls linearly to zero, nothing dropped.
            self.backlog = (self.backlog + net * dt).max(0.0);
            dropped = 0.0;
        } else {
            // Filling. Time until the buffer is full:
            let headroom = (self.buffer_queries - self.backlog).max(0.0);
            let t_fill = headroom / net;
            if t_fill >= dt {
                self.backlog += net * dt;
                dropped = 0.0;
            } else {
                // Buffer full for the remainder: everything beyond capacity
                // is dropped.
                self.backlog = self.buffer_queries;
                dropped = net * (dt - t_fill);
            }
        }
        if offered_total > 0.0 {
            (dropped / offered_total).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Queueing delay currently experienced by an accepted query: the time
    /// to drain the backlog ahead of it.
    pub fn queue_delay(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.backlog / self.capacity_qps)
    }

    /// Instantaneous drop probability for a *probe* arriving now under the
    /// given offered load: 0 when the buffer has room, else the fraction of
    /// arrivals that cannot be served.
    pub fn drop_probability(&self, offered_qps: f64) -> f64 {
        if self.backlog < self.buffer_queries || offered_qps <= self.capacity_qps {
            0.0
        } else {
            1.0 - self.capacity_qps / offered_qps
        }
    }

    /// Utilization of the service capacity by the given offered load.
    pub fn utilization(&self, offered_qps: f64) -> f64 {
        offered_qps / self.capacity_qps
    }

    /// Reset to an empty queue at time `t` (e.g. after a route withdrawal
    /// empties a site's catchment).
    pub fn reset(&mut self, t: SimTime) {
        assert!(t >= self.updated);
        self.backlog = 0.0;
        self.updated = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn queue_underload_never_drops() {
        let mut q = FluidQueue::new(100.0, 1000.0);
        let loss = q.advance(t(100), 50.0);
        assert_eq!(loss, 0.0);
        assert_eq!(q.backlog(), 0.0);
        assert_eq!(q.queue_delay(), SimDuration::ZERO);
    }

    #[test]
    fn queue_overload_fills_then_drops() {
        // capacity 100 qps, buffer 1000 queries, offered 200 qps.
        // Fill time = 1000/(200-100) = 10 s. Over 20 s, 10 s of overflow
        // drops (200-100)*10 = 1000 of 4000 offered => 25% loss.
        let mut q = FluidQueue::new(100.0, 1000.0);
        let loss = q.advance(t(20), 200.0);
        assert!((loss - 0.25).abs() < 1e-9, "loss={loss}");
        assert_eq!(q.backlog(), 1000.0);
        // Queue delay = 1000/100 = 10 s of bufferbloat.
        assert_eq!(q.queue_delay(), SimDuration::from_secs(10));
        assert!((q.drop_probability(200.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn queue_drains_after_overload() {
        let mut q = FluidQueue::new(100.0, 1000.0);
        q.advance(t(20), 200.0); // full
        let loss = q.advance(t(40), 50.0); // drains at 50 qps net
        assert_eq!(loss, 0.0);
        assert_eq!(q.backlog(), 0.0);
    }

    #[test]
    fn queue_reset_clears_backlog() {
        let mut q = FluidQueue::new(100.0, 1000.0);
        q.advance(t(20), 200.0);
        q.reset(t(21));
        assert_eq!(q.backlog(), 0.0);
        assert_eq!(q.drop_probability(200.0), 0.0);
    }
}
