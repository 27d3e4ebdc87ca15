//! The frozen span aggregate a run hands out as
//! [`SimOutput::spans`](crate::sim::SimOutput::spans): count, total and
//! max wall time per span path (`build_world`, `drive/probes`,
//! `build_world/substrate`, ...), rendered as a breakdown table or exported as chrome://tracing
//! trace-event JSON.
//!
//! Wall times are host measurements and vary run to run; span paths and
//! counts are a pure function of the scenario.

use crate::render::TextTable;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Duration;

/// Aggregate of one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// The span's own name: the last segment of its path.
    pub name: &'static str,
    /// Index of the enclosing span in [`SpanProfile::stats`]; `None`
    /// for a top-level span.
    pub parent: Option<usize>,
    /// Times the span was entered and exited.
    pub count: u64,
    /// Wall time summed over every entry.
    pub total_ns: u64,
    /// Longest single entry.
    pub max_ns: u64,
}

impl SpanStat {
    pub(crate) fn new(name: &'static str, parent: Option<usize>) -> SpanStat {
        SpanStat {
            name,
            parent,
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }

    pub(crate) fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns)
    }
}

/// Every span path of a run, parents before children, siblings in the
/// order they were first entered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanProfile {
    stats: Vec<SpanStat>,
    /// `/`-joined path of each entry of `stats`.
    paths: Vec<String>,
}

impl SpanProfile {
    pub(crate) fn new(stats: Vec<SpanStat>) -> SpanProfile {
        let mut paths: Vec<String> = Vec::with_capacity(stats.len());
        for s in &stats {
            let path = match s.parent {
                Some(p) => format!("{}/{}", paths[p], s.name),
                None => s.name.to_string(),
            };
            paths.push(path);
        }
        SpanProfile { stats, paths }
    }

    pub fn stats(&self) -> &[SpanStat] {
        &self.stats
    }

    /// The `/`-joined path of `stats()[i]`.
    pub fn path(&self, i: usize) -> &str {
        &self.paths[i]
    }

    /// The aggregate for `path`, e.g. `"drive/probes"`.
    pub fn get(&self, path: &str) -> Option<&SpanStat> {
        let i = self.paths.iter().position(|p| p == path)?;
        Some(&self.stats[i])
    }

    /// Ticks of the engine subsystem `name`: the count of
    /// `drive/<name>` less its `drive/<name>/finish`; 0 when it never
    /// ticked.
    pub fn ticks(&self, subsystem: &str) -> u64 {
        let count = |path: &str| self.get(path).map_or(0, |s| s.count);
        let name = format!("drive/{subsystem}");
        count(&name) - count(&format!("{name}/finish"))
    }

    /// The breakdown as one text table, one row per path in
    /// [`stats`](Self::stats) order, with each span's share of its
    /// parent's wall time.
    pub fn breakdown(&self) -> TextTable {
        let mut table = TextTable::new(
            "Where the time went",
            &["span", "count", "total ms", "mean µs", "max µs", "% parent"],
        );
        for (s, path) in self.stats.iter().zip(&self.paths) {
            let mean_us = s.total_ns as f64 / s.count.max(1) as f64 / 1e3;
            let share = match s.parent {
                Some(p) if self.stats[p].total_ns > 0 => {
                    format!(
                        "{:.1}",
                        100.0 * s.total_ns as f64 / self.stats[p].total_ns as f64
                    )
                }
                _ => "–".to_string(),
            };
            table.row(vec![
                path.clone(),
                s.count.to_string(),
                format!("{:.2}", s.total_ns as f64 / 1e6),
                format!("{mean_us:.1}"),
                format!("{:.1}", s.max_ns as f64 / 1e3),
                share,
            ]);
        }
        table
    }

    /// Export as a chrome://tracing trace-event JSON array laid out as a
    /// flame graph of the aggregate: one `X` event per span path, top
    /// level spans back to back from 0, each child starting where its
    /// previous sibling ended inside its parent, `dur` its total wall
    /// time (clamped into the parent). `args` carry the path, the entry
    /// count and the max. Timestamps are microseconds, sorted.
    pub fn chrome_trace(&self) -> String {
        let n = self.stats.len();
        // (start, end) in ns; `cursor` is where the next child starts.
        let mut span = vec![(0u64, 0u64); n];
        let mut cursor = vec![0u64; n];
        let mut top_cursor = 0u64;
        // Parents precede their children in `stats`.
        for (i, s) in self.stats.iter().enumerate() {
            let (at, limit) = match s.parent {
                Some(p) => (&mut cursor[p], span[p].1),
                None => (&mut top_cursor, u64::MAX),
            };
            let start = (*at).min(limit);
            let end = start.saturating_add(s.total_ns).min(limit);
            *at = end;
            span[i] = (start, end);
            cursor[i] = start;
        }
        let mut events: Vec<(u64, Value)> = Vec::with_capacity(n);
        for (i, s) in self.stats.iter().enumerate() {
            let (ts, end) = (span[i].0 / 1_000, span[i].1 / 1_000);
            let mut args = BTreeMap::new();
            args.insert("path".into(), Value::String(self.paths[i].clone()));
            args.insert("count".into(), Value::Number(s.count as f64));
            args.insert("max_us".into(), Value::Number((s.max_ns / 1_000) as f64));
            let mut obj = BTreeMap::new();
            obj.insert("name".into(), Value::String(s.name.to_string()));
            obj.insert("ph".into(), Value::String("X".into()));
            obj.insert("ts".into(), Value::Number(ts as f64));
            obj.insert("dur".into(), Value::Number((end - ts) as f64));
            obj.insert("pid".into(), Value::Number(1.0));
            obj.insert("tid".into(), Value::Number(1.0));
            obj.insert("args".into(), Value::Object(args));
            events.push((ts, Value::Object(obj)));
        }
        // Stable: a parent stays ahead of a child starting with it.
        events.sort_by_key(|&(ts, _)| ts);
        Value::Array(events.into_iter().map(|(_, v)| v).collect()).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::instrument::SpanRecorder;

    /// build_world, then a drive of two fluid and one probe tick (with
    /// execute/record children), then finalize; times in ns.
    fn profile_fixture() -> SpanProfile {
        let mut rec = SpanRecorder::default();
        rec.enter_at("build_world", 0);
        rec.exit_at("build_world", 1_000_000);
        rec.enter_at("drive", 1_000_000);
        for (start, end) in [(1_100_000, 1_400_000), (2_000_000, 2_500_000)] {
            rec.enter_at("fluid", start);
            rec.exit_at("fluid", end);
        }
        rec.enter_at("probes", 3_000_000);
        rec.enter_at("execute", 3_000_000);
        rec.exit_at("execute", 3_600_000);
        rec.enter_at("record", 3_600_000);
        rec.exit_at("record", 3_900_000);
        rec.exit_at("probes", 4_000_000);
        rec.exit_at("drive", 5_000_000);
        rec.enter_at("finalize", 5_000_000);
        rec.exit_at("finalize", 5_200_000);
        rec.finish()
    }

    #[test]
    fn profiler_collects_nested_phases_and_ticks() {
        let p = profile_fixture();
        let paths: Vec<&str> = (0..p.stats().len()).map(|i| p.path(i)).collect();
        assert_eq!(
            paths,
            [
                "build_world",
                "drive",
                "drive/fluid",
                "drive/probes",
                "drive/probes/execute",
                "drive/probes/record",
                "finalize"
            ]
        );
        assert_eq!(p.ticks("fluid"), 2);
        assert_eq!(p.ticks("probes"), 1);
        let fluid = p.get("drive/fluid").expect("fluid");
        assert_eq!(fluid.total(), Duration::from_micros(800));
        assert_eq!(fluid.max_ns, 500_000);
        assert_eq!(
            p.get("drive/probes/execute").map(|s| s.total_ns),
            Some(600_000)
        );
    }

    #[test]
    fn finish_closes_dangling_phases() {
        let mut rec = SpanRecorder::default();
        rec.enter_at("drive", 0);
        rec.enter_at("fluid", 0);
        let p = rec.finish();
        let (drive, fluid) = (
            p.get("drive").expect("drive"),
            p.get("drive/fluid").expect("fluid"),
        );
        assert_eq!((drive.count, fluid.count), (1, 1));
        assert!(fluid.total_ns <= drive.total_ns);
    }

    #[test]
    fn breakdown_aggregates_subsystems() {
        let table = profile_fixture().breakdown();
        let rows: Vec<(&str, &str)> = table
            .rows
            .iter()
            .map(|r| (r[0].as_str(), r[1].as_str()))
            .collect();
        assert_eq!(rows[2], ("drive/fluid", "2"));
        assert_eq!(rows[4], ("drive/probes/execute", "1"));
        assert_eq!(rows[6], ("finalize", "1"));
        // fluid: 0.8 ms of a 4 ms drive; execute 0.6 of a 1 ms probe tick.
        assert_eq!(table.rows[2][2], "0.80");
        assert_eq!(table.rows[2][5], "20.0");
        assert_eq!(table.rows[4][5], "60.0");
        assert_eq!(table.rows[0][5], "–");
    }

    #[test]
    fn chrome_trace_is_sorted_and_balanced() {
        let p = profile_fixture();
        let json = Value::parse(&p.chrome_trace()).expect("valid JSON");
        let events = json.as_array().expect("array");
        assert_eq!(events.len(), p.stats().len());
        let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_f64).expect(k);
        let ts: Vec<f64> = events.iter().map(|e| field(e, "ts")).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "unsorted ts: {ts:?}");
        let mut interval: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for e in events {
            let args = e.get("args").expect("args");
            let path = args.get("path").and_then(Value::as_str).expect("path");
            assert!(args.get("count").and_then(Value::as_f64).expect("count") >= 1.0);
            assert!(field(e, "dur") >= 0.0);
            interval.insert(
                path.to_string(),
                (field(e, "ts"), field(e, "ts") + field(e, "dur")),
            );
        }
        for (path, (start, end)) in &interval {
            if let Some((parent, _)) = path.rsplit_once('/') {
                let (ps, pe) = interval[parent];
                assert!(ps <= *start && *end <= pe, "{path} escapes {parent}");
            }
        }
        // Flame layout: build_world then drive back to back; drive's
        // first child starts with it.
        assert_eq!(interval["build_world"], (0.0, 1_000.0));
        assert_eq!(interval["drive"], (1_000.0, 5_000.0));
        assert_eq!(interval["drive/fluid"], (1_000.0, 1_800.0));
        assert_eq!(interval["drive/probes"], (1_800.0, 2_800.0));
    }
}
