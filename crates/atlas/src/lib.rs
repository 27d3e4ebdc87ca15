//! # rootcast-atlas
//!
//! A RIPE-Atlas-like measurement platform for the rootcast reproduction
//! of *"Anycast vs. DDoS"* (IMC 2016): the instrument through which every
//! catchment figure in the paper is observed.
//!
//! * [`vp`] — the vantage-point fleet: ~9000 probes, Europe-heavy,
//!   including the old-firmware and hijacked populations the cleaning
//!   stage must remove;
//! * [`probe`] — CHAOS probe execution against a service's
//!   [`TargetView`] (timeouts at 5 s, loss draws, RTT jitter, hijack
//!   middleboxes);
//! * [`clean`] — the paper's §2.4.1 cleaning pipeline: firmware
//!   filtering and hijack detection (bad identity + RTT < 7 ms);
//! * [`pipeline`] — streaming 10-minute binning with the site > error >
//!   timeout preference, producing the aggregates behind Figures 3–8 and
//!   10–14 without materializing ~90 M raw measurements.

#![forbid(unsafe_code)]

pub mod clean;
pub mod pipeline;
pub mod probe;
pub mod vp;

pub use clean::{clean_fleet, clean_outcome, CleanObs, CleaningReport, ExclusionReason, FastObs};
pub use pipeline::{
    raster_code, FlipEvent, LetterData, LetterShard, MeasurementPipeline, PipelineConfig,
    PipelineError, ProbeOutcomeStats, Raster, RecordSlot, ServerWatch,
};
pub use probe::{
    execute_probe, execute_probe_fused, IndexedView, ProbeFlags, RawMeasurement, RawOutcome,
    TargetView, ATLAS_TIMEOUT, UNJITTERED_SITE_BOUND, UNMEASURED_RTT,
};
pub use vp::{FleetParams, VantagePoint, VpFleet, VpId, MIN_FIRMWARE};
