//! Run instrumentation: two span hooks that `sim::run`, `engine::drive`
//! and the subsystems call around their work, and the [`SpanRecorder`]
//! that aggregates them.
//!
//! Spans nest by static name, so a path reads `drive/probes`.
//! Instrumentation lives *outside* simulation state — observers see the
//! run but cannot influence it, so a run's outputs are identical
//! whether or not anything is listening. What happened lives in the
//! metrics registry and when it happened in the event trace; spans say
//! where the wall time went.

use crate::engine::profile::{SpanProfile, SpanStat};
use std::time::Instant;

/// Observer hooks for a simulation run: enter and exit a named span.
/// Every `enter` is matched by an `exit` of the same name, innermost
/// first.
pub trait Instrumentation {
    fn enter(&mut self, span: &'static str);
    fn exit(&mut self, span: &'static str);
}

/// The do-nothing observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopInstrumentation;

impl Instrumentation for NoopInstrumentation {
    fn enter(&mut self, _span: &'static str) {}
    fn exit(&mut self, _span: &'static str) {}
}

/// One node of the live span tree.
#[derive(Debug)]
struct Node {
    stat: SpanStat,
    children: Vec<usize>,
}

/// The span observer [`run`](crate::sim::run) always installs: count,
/// total and max wall time per span path. Once a path has been seen,
/// entering and exiting it again allocates nothing.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    /// `nodes[0]` is the unnamed root every top-level span hangs off.
    nodes: Vec<Node>,
    /// Open spans, innermost last: (node, start in ns since `epoch`).
    open: Vec<(usize, u64)>,
}

impl Default for SpanRecorder {
    fn default() -> SpanRecorder {
        SpanRecorder {
            epoch: Instant::now(),
            nodes: vec![Node {
                stat: SpanStat::new("", None),
                children: Vec::new(),
            }],
            open: Vec::new(),
        }
    }
}

impl SpanRecorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// [`Instrumentation::enter`] at a given clock reading, in ns since
    /// the recorder was created.
    pub(crate) fn enter_at(&mut self, span: &'static str, now_ns: u64) {
        let parent = self.open.last().map_or(0, |&(node, _)| node);
        let found = self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].stat.name == span);
        let node = found.unwrap_or_else(|| {
            let idx = self.nodes.len();
            let parent_stat = parent.checked_sub(1);
            self.nodes.push(Node {
                stat: SpanStat::new(span, parent_stat),
                children: Vec::new(),
            });
            self.nodes[parent].children.push(idx);
            idx
        });
        self.open.push((node, now_ns));
    }

    /// [`Instrumentation::exit`] at a given clock reading.
    pub(crate) fn exit_at(&mut self, span: &'static str, now_ns: u64) {
        match self.open.pop() {
            Some((node, start)) => {
                debug_assert_eq!(self.nodes[node].stat.name, span, "spans must nest");
                self.nodes[node].stat.record(now_ns.saturating_sub(start));
            }
            None => debug_assert!(false, "exit {span:?} without an enter"),
        }
    }

    /// Freeze the aggregate. Spans still open are closed at the current
    /// instant, so the profile stays well-formed.
    pub fn finish(mut self) -> SpanProfile {
        let now = self.now_ns();
        while let Some(&(node, _)) = self.open.last() {
            let name = self.nodes[node].stat.name;
            self.exit_at(name, now);
        }
        SpanProfile::new(self.nodes.into_iter().skip(1).map(|n| n.stat).collect())
    }
}

impl Instrumentation for SpanRecorder {
    fn enter(&mut self, span: &'static str) {
        let now = self.now_ns();
        self.enter_at(span, now);
    }

    fn exit(&mut self, span: &'static str) {
        let now = self.now_ns();
        self.exit_at(span, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enter `path`'s spans at `start` and exit them all at `end`.
    fn span(rec: &mut SpanRecorder, path: &[&'static str], start: u64, end: u64) {
        for &name in path {
            rec.enter_at(name, start);
        }
        for &name in path.iter().rev() {
            rec.exit_at(name, end);
        }
    }

    #[test]
    fn collector_accumulates_ticks_and_extremes() {
        let mut rec = SpanRecorder::default();
        rec.enter_at("drive", 0);
        span(&mut rec, &["fluid"], 0, 5_000);
        span(&mut rec, &["fluid"], 5_000, 12_000);
        span(&mut rec, &["probes"], 12_000, 15_000);
        rec.exit_at("drive", 20_000);
        let spans = rec.finish();
        let fluid = spans.get("drive/fluid").expect("fluid span");
        assert_eq!(
            (fluid.count, fluid.total_ns, fluid.max_ns),
            (2, 12_000, 7_000)
        );
        assert_eq!(spans.get("drive/probes").map(|s| s.count), Some(1));
        assert_eq!(spans.get("drive").map(|s| s.total_ns), Some(20_000));
        assert_eq!(spans.ticks("fluid"), 2);
        assert_eq!(spans.ticks("faults"), 0);
    }

    #[test]
    fn finish_spans_are_not_ticks() {
        let mut rec = SpanRecorder::default();
        rec.enter_at("drive", 0);
        span(&mut rec, &["probes"], 0, 5);
        span(&mut rec, &["probes", "finish"], 5, 9);
        span(&mut rec, &["faults", "finish"], 9, 10);
        rec.exit_at("drive", 10);
        let spans = rec.finish();
        assert_eq!(spans.get("drive/probes").map(|s| s.count), Some(2));
        assert_eq!(spans.ticks("probes"), 1);
        assert_eq!(spans.ticks("faults"), 0);
    }

    #[test]
    fn collector_accumulates_phase_wall_time() {
        let mut rec = SpanRecorder::default();
        rec.enter("drive");
        rec.exit("drive");
        rec.enter("drive");
        rec.exit("drive");
        let spans = rec.finish();
        assert_eq!(spans.stats().len(), 1);
        assert_eq!(spans.get("drive").map(|s| s.count), Some(2));
    }

    #[test]
    fn nested_paths_aggregate_count_total_and_max() {
        let mut rec = SpanRecorder::default();
        for (start, end) in [(0, 100), (100, 400), (400, 450)] {
            span(&mut rec, &["drive", "probes", "execute"], start, end);
        }
        // The same name under another parent is another path.
        span(&mut rec, &["finalize", "execute"], 450, 460);
        let spans = rec.finish();
        let exec = spans.get("drive/probes/execute").expect("nested span");
        assert_eq!((exec.count, exec.total_ns, exec.max_ns), (3, 450, 300));
        assert_eq!(spans.get("finalize/execute").map(|s| s.total_ns), Some(10));
        assert!(spans.get("probes").is_none(), "paths are rooted");
        assert_eq!(spans.stats().len(), 5);
    }

    #[test]
    fn repeated_path_allocates_no_new_node() {
        let mut rec = SpanRecorder::default();
        span(&mut rec, &["drive", "probes", "record"], 0, 1);
        let (paths, nodes_cap, open_cap) =
            (rec.nodes.len(), rec.nodes.capacity(), rec.open.capacity());
        let children_caps: Vec<usize> = rec.nodes.iter().map(|n| n.children.capacity()).collect();
        for t in 1..1_000 {
            span(&mut rec, &["drive", "probes", "record"], t, t + 1);
        }
        assert_eq!(rec.nodes.len(), paths);
        assert_eq!(rec.nodes.capacity(), nodes_cap);
        assert_eq!(rec.open.capacity(), open_cap);
        let after: Vec<usize> = rec.nodes.iter().map(|n| n.children.capacity()).collect();
        assert_eq!(after, children_caps);
        assert_eq!(
            rec.finish().get("drive/probes/record").map(|s| s.count),
            Some(1_000)
        );
    }

    #[test]
    fn noop_observer_compiles_all_hooks() {
        let mut n = NoopInstrumentation;
        let obs: &mut dyn Instrumentation = &mut n;
        obs.enter("drive");
        obs.exit("drive");
    }
}
