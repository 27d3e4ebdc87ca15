//! # rootcast
//!
//! Reproduction toolkit for *"Anycast vs. DDoS: Evaluating the November
//! 2015 Root DNS Event"* (IMC 2016).
//!
//! The crate wires the rootcast substrate stack — topology, BGP anycast
//! routing, DNS, attack workloads, the Atlas-like measurement platform,
//! and RSSAC reporting — into the canonical Nov 30 / Dec 1 2015 scenario,
//! and provides one analysis module per table/figure of the paper.
//!
//! ## Quick start
//!
//! ```no_run
//! use rootcast::{ScenarioConfig, sim};
//!
//! let cfg = ScenarioConfig::small();
//! let out = sim::run(&cfg).expect("valid scenario");
//! let k = out.pipeline.letter(rootcast::Letter::K);
//! println!("K-root successful VPs per bin: {:?}", k.success.values());
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod config;
pub mod deployment;
pub mod engine;
pub mod error;
pub mod policy_model;
pub mod render;
pub mod sim;
pub mod sweep;

pub use config::{ConfigError, ScenarioConfig, SiteOverride};
pub use deployment::{nl_deployment, nov2015_deployments, LetterDeployment};
pub use engine::{
    render_metrics, FaultKind, FaultPlan, FaultSpec, Instrumentation, NoopInstrumentation,
    SpanProfile, SpanRecorder, SpanStat, Substrate, Subsystem, TraceEvent, TraceEventKind,
};
pub use error::{AnalysisError, RootcastError, SweepError};
pub use sim::{run, run_with_substrate, SimOutput};
pub use sweep::{
    output_digest, run_sweep, run_sweep_with, ConfigPatch, SeedMode, SweepAxis, SweepOptions,
    SweepPlan, SweepRecord, SweepReport, SweepRun,
};

// Re-export the vocabulary sweeps are written in: site tuning plus the
// attack-schedule types ConfigPatch accepts.
pub use rootcast_anycast::{SiteTuning, StressPolicy};
pub use rootcast_attack::{AttackSchedule, AttackWindow};

// Re-export the vocabulary types users need to consume the outputs.
pub use rootcast_dns::Letter;
pub use rootcast_netsim::{BinnedSeries, MetricsSnapshot, SimDuration, SimTime};
