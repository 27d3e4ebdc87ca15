//! # rootcast-rssac
//!
//! RSSAC-002 operator reporting for the rootcast reproduction of
//! *"Anycast vs. DDoS"* (IMC 2016): daily per-letter query/response
//! volumes, unique-source counts, and 16-byte-binned size histograms —
//! including the *best-effort under-reporting* failure mode that makes
//! Table 3's raw numbers inconsistent across letters and forces the
//! paper's lower/upper-bound estimation.

#![forbid(unsafe_code)]

pub mod report;

pub use report::{gbps, DailyReport, RssacCollector, SizeHistogram, SIZE_BIN};
