//! Observability tour: run a scenario, then print the run's three
//! records — the metrics registry (what happened), the span breakdown
//! (where the wall time went) and the event log (when it happened) —
//! and export the span aggregate as chrome://tracing JSON.
//!
//! The event log is printed in full, one event per line. It carries
//! only simulated time, so two runs of the same scenario print it byte
//! for byte the same.
//!
//! ```text
//! cargo run --release --example trace_export [-- --small] [--out FILE]
//! ```
//!
//! * `--small` — use the scaled-down configuration (default: the full
//!   Nov-2015 scenario);
//! * `--out FILE` — where to write the trace-event JSON (default
//!   `trace_events.json`). Open it at `chrome://tracing` or in Perfetto.

use rootcast::{render_metrics, run, ScenarioConfig};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let out_path: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("trace_events.json"));

    let cfg = if small {
        ScenarioConfig::small()
    } else {
        ScenarioConfig::nov2015()
    };

    eprintln!(
        "running {} scenario ...",
        if small { "small" } else { "full Nov-2015" }
    );
    let t0 = std::time::Instant::now();
    let out = run(&cfg).expect("valid scenario");
    eprintln!("simulation finished in {:.1?}\n", t0.elapsed());

    // 1. The metrics registry, frozen at end of run.
    for table in render_metrics(&out.metrics) {
        println!("{table}\n");
    }

    // 2. Wall-time breakdown per span path.
    println!("{}\n", out.spans.breakdown());

    // 3. The event log, every event.
    println!("=== Event log: {} events ===", out.trace.len());
    for (i, ev) in out.trace.iter().enumerate() {
        println!("  #{i:<6} t={:>14}ns  {:?}", ev.t.as_nanos(), ev.kind);
    }
    println!();

    // 4. chrome://tracing export.
    let json = out.spans.chrome_trace();
    std::fs::write(&out_path, &json).expect("write trace JSON");
    eprintln!(
        "wrote {} bytes of trace-event JSON to {}",
        json.len(),
        out_path.display()
    );
}
