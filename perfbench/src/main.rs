//! The rootcast benchmark: one workload per invocation, driven through
//! the public `rootcast` API.
//!
//! ```text
//! rootcast-perfbench --workload <paper_canonical|pulse_sweep|wide_topology>
//!     --seed <n> --seconds <s> --trace <0|1>
//!     [--rev <id>] [--rustc <version>] [--out-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run. The last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the environment. The full result (and, traced, every span)
//! is also written to `<out-dir>/<workload>-seed<n>-trace<k>.json`.
//! Any failed check makes the exit code non-zero.

mod analysis;
mod spans;
mod stats;
mod traced;
mod untraced;
mod workloads;

use stats::Tally;
use std::process::ExitCode;
use workloads::Workload;

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit `f64` carries; non-finite values
/// (which no metric should produce) become 0 so the line stays JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    rustc: String,
    out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match get("--trace").ok_or("missing --trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rev: get("--rev").unwrap_or("unknown").to_string(),
        rustc: get("--rustc").unwrap_or("unknown").to_string(),
        out_dir: get("--out-dir").unwrap_or("perfbench/results").to_string(),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rootcast-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // Pin the top-level fan-out to the machine's core count from the
    // benchmark side. The pinned count does not reach threads the
    // library spawns, so a sweep's per-run workers fan out again per
    // letter; the sweep's own fan-out is pinned to SWEEP_THREADS.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(nproc)
        .build()
        .expect("thread pool");
    let threads = pool.current_num_threads();

    let mut tally = Tally::default();
    let (metrics, spans) = pool.install(|| {
        if args.trace {
            let t = traced::run(args.workload, args.seed, &mut tally);
            (t.metrics, Some(t.spans))
        } else {
            let m = untraced::run(args.workload, args.seed, args.seconds, &mut tally);
            (m, None)
        }
    });

    let env = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"threads\": {threads}, \"sweep_threads\": {}, \"rev\": {}, \"rustc\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        workloads::SWEEP_THREADS,
        json_str(&args.rev),
        json_str(&args.rustc),
    );
    let correct = tally.failed() == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed(),
        metrics.to_json()
    );

    let path = format!(
        "{}/{}-seed{}-trace{}.json",
        args.out_dir,
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let errors: Vec<String> = tally.errors.iter().map(|e| json_str(e)).collect();
    // In digests.txt's format, ready to record.
    let digests: Vec<String> = tally
        .digests
        .iter()
        .map(|(label, d)| {
            json_str(&format!(
                "{} {} {label} {d:016x}",
                args.workload.name(),
                args.seed
            ))
        })
        .collect();
    let spans_json = spans.map_or_else(|| "[]".to_string(), |s| s.borrow().to_json());
    let file = format!(
        "{{\"env\": {env},\n\"result\": {result},\n\"errors\": [{}],\n\"digests\": [{}],\n\"spans\": {spans_json}}}\n",
        errors.join(", "),
        digests.join(",\n")
    );
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, file))
    {
        eprintln!("rootcast-perfbench: writing {path}: {e}");
        return ExitCode::FAILURE;
    }

    println!("{{\"env\": {env}}}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
