//! Piecewise-constant fluid rate signals.
//!
//! Aggregate traffic (attack load, legitimate query load) is modeled as a
//! *fluid*: a rate in queries/second that changes at discrete instants.
//! This hybrid style — fluid for bulk traffic, discrete events for probe
//! packets — keeps a 48-hour, multi-million-qps scenario tractable while
//! preserving the queueing behaviour the paper observes (loss and
//! bufferbloat-driven RTT inflation at overloaded sites, §3.3.2).

use crate::time::{SimDuration, SimTime};

/// A rate signal: value changes at breakpoints and is constant in between.
///
/// Breakpoints are kept sorted by construction; `set_from` truncates any
/// later history, which matches how simulations build signals forward in
/// time.
#[derive(Debug, Clone, Default)]
pub struct RateSignal {
    /// `(since, rate)` pairs sorted by `since`; the signal is 0 before the
    /// first breakpoint.
    points: Vec<(SimTime, f64)>,
}

impl RateSignal {
    /// A signal that is zero everywhere.
    pub fn zero() -> Self {
        RateSignal { points: Vec::new() }
    }

    /// A signal constant at `rate` from time zero.
    pub fn constant(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite());
        RateSignal {
            points: vec![(SimTime::ZERO, rate)],
        }
    }

    /// Set the rate from `t` onward, discarding any breakpoints at or after
    /// `t` (simulations only ever extend signals forward).
    pub fn set_from(&mut self, t: SimTime, rate: f64) {
        assert!(
            rate >= 0.0 && rate.is_finite(),
            "rate must be >= 0, got {rate}"
        );
        while let Some(&(since, _)) = self.points.last() {
            if since >= t {
                self.points.pop();
            } else {
                break;
            }
        }
        // Skip no-op breakpoints to keep the vector compact.
        if self.points.last().map(|&(_, r)| r) == Some(rate) {
            return;
        }
        if self.points.is_empty() && rate == 0.0 {
            return;
        }
        self.points.push((t, rate));
    }

    /// The rate at instant `t`.
    pub fn at(&self, t: SimTime) -> f64 {
        match self.points.binary_search_by(|&(since, _)| since.cmp(&t)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Integrate the signal over `[from, to)`: total quantity (e.g. number
    /// of queries) carried in the window.
    pub fn integrate(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(to >= from);
        if self.points.is_empty() || from == to {
            return 0.0;
        }
        let mut total = 0.0;
        let mut cursor = from;
        // Index of the first breakpoint strictly after `from`.
        let mut idx = match self.points.binary_search_by(|&(since, _)| since.cmp(&from)) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        let mut rate = self.at(from);
        while cursor < to {
            let next = match self.points.get(idx) {
                Some(&(since, _)) if since < to => since,
                _ => to,
            };
            total += rate * (next - cursor).as_secs_f64();
            if next < to {
                rate = self.points[idx].1;
                idx += 1;
            }
            cursor = next;
        }
        total
    }

    /// The mean rate over `[from, to)`.
    pub fn mean(&self, from: SimTime, to: SimTime) -> f64 {
        let span = (to - from).as_secs_f64();
        if span == 0.0 {
            return 0.0;
        }
        self.integrate(from, to) / span
    }

    /// All breakpoints `(since, rate)` in order. Mostly for tests and
    /// debugging.
    pub fn breakpoints(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Times at which the signal changes within `[from, to)`, including
    /// `from` itself. Useful for stepping a queue model across exactly the
    /// intervals where its input is constant.
    pub fn change_points(&self, from: SimTime, to: SimTime) -> Vec<SimTime> {
        let mut out = vec![from];
        for &(since, _) in &self.points {
            if since > from && since < to {
                out.push(since);
            }
        }
        out
    }
}

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
    fn zero_signal_is_zero() {
        let s = RateSignal::zero();
        assert_eq!(s.at(t(5)), 0.0);
        assert_eq!(s.integrate(t(0), t(100)), 0.0);
    }

    #[test]
    fn constant_signal() {
        let s = RateSignal::constant(3.0);
        assert_eq!(s.at(SimTime::ZERO), 3.0);
        assert_eq!(s.at(t(1000)), 3.0);
        assert_eq!(s.integrate(t(10), t(20)), 30.0);
    }

    #[test]
    fn step_changes_apply_from_breakpoint() {
        let mut s = RateSignal::zero();
        s.set_from(t(10), 5.0);
        s.set_from(t(20), 1.0);
        assert_eq!(s.at(t(9)), 0.0);
        assert_eq!(s.at(t(10)), 5.0);
        assert_eq!(s.at(t(19)), 5.0);
        assert_eq!(s.at(t(20)), 1.0);
        // 0*10 + 5*10 + 1*10
        assert_eq!(s.integrate(t(0), t(30)), 60.0);
        assert_eq!(s.mean(t(0), t(30)), 2.0);
    }

    #[test]
    fn set_from_truncates_future() {
        let mut s = RateSignal::zero();
        s.set_from(t(10), 5.0);
        s.set_from(t(20), 9.0);
        s.set_from(t(15), 2.0); // rewrites history after t=15
        assert_eq!(s.at(t(20)), 2.0);
        assert_eq!(s.breakpoints().len(), 2);
    }

    #[test]
    fn redundant_breakpoints_are_skipped() {
        let mut s = RateSignal::zero();
        s.set_from(t(0), 0.0);
        assert!(s.breakpoints().is_empty());
        s.set_from(t(5), 2.0);
        s.set_from(t(7), 2.0);
        assert_eq!(s.breakpoints().len(), 1);
    }

    #[test]
    fn change_points_cover_window() {
        let mut s = RateSignal::zero();
        s.set_from(t(10), 5.0);
        s.set_from(t(20), 1.0);
        assert_eq!(s.change_points(t(5), t(25)), vec![t(5), t(10), t(20)]);
        assert_eq!(s.change_points(t(12), t(18)), vec![t(12)]);
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
