//! Small helpers: order statistics, failure bookkeeping and the
//! process's memory high-water mark.

use std::collections::{BTreeMap, BTreeSet};

/// The `q`-quantile (0..=1) of `xs` by nearest rank; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median; for an even count, the mean of the two middle values.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Scenarios attempted in this invocation and the ones that errored or
/// failed an output check, with the reasons, plus the output digest of
/// the first run of each scenario label.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    failed: BTreeSet<u64>,
    pub errors: Vec<String>,
    pub digests: BTreeMap<String, u64>,
}

impl Tally {
    /// Count one more scenario and return its index.
    pub fn attempt(&mut self) -> u64 {
        self.attempted += 1;
        self.attempted - 1
    }

    pub fn fail(&mut self, scenario: u64, why: String) {
        eprintln!("check failed (scenario {scenario}): {why}");
        self.failed.insert(scenario);
        self.errors.push(why);
    }

    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }
}

/// Reset the process's resident-set high-water mark to its current
/// RSS (`/proc/self/clear_refs`); false where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process, in MB (`VmHWM`), since the
/// start or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
