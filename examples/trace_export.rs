//! Observability tour: run a scenario with the event trace enabled, then
//! print the run's three records — the metrics registry (what
//! happened), the span breakdown (where the wall time went) and a digest
//! of the structured event trace (when it happened) — and export the
//! span aggregate as chrome://tracing JSON.
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

    let mut cfg = if small {
        ScenarioConfig::small()
    } else {
        ScenarioConfig::nov2015()
    };
    cfg.trace.enabled = true;
    cfg.trace.capacity = 65_536;

    eprintln!(
        "running {} scenario with tracing (capacity {}) ...",
        if small { "small" } else { "full Nov-2015" },
        cfg.trace.capacity
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

    // 3. Structured event trace digest.
    let trace = &out.trace;
    println!(
        "=== Event trace: {} events kept (capacity {}), {} dropped ===",
        trace.events.len(),
        trace.capacity,
        trace.dropped_events
    );
    for ev in trace.events.iter().take(20) {
        println!("  #{:<6} t={:>14}ns  {:?}", ev.seq, ev.t_nanos, ev.kind);
    }
    if trace.events.len() > 20 {
        println!("  ... {} more", trace.events.len() - 20);
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
