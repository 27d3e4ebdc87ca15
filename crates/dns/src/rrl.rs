//! Response Rate Limiting (RRL).
//!
//! Verisign reported that RRL "identified duplicated queries to drop 60%
//! of the responses" during the Nov. 30 event (§2.3), and the paper
//! attributes the query/response asymmetry in Table 3 to it. RRL tracks
//! per-source response rates and suppresses responses beyond a budget.
//!
//! The fluid traffic model never sees individual sources, so RRL is
//! modelled in its analytic steady state: the fraction of responses a
//! per-source budget suppresses, given how the offered rate splits
//! across sources. Per-packet simulation of 5 Mq/s over 48 h is out of
//! scope; the analytic form is exact for the steady state.

/// Analytic steady-state RRL suppression for the fluid model.
///
/// If each attacking source block offers `qps_per_source` queries/s and
/// RRL allows `limit` responses/s per block, the suppressed fraction of
/// responses is `max(0, 1 - limit/qps_per_source)`. With the Nov. 30
/// parameters (top-200 sources carrying 68% of 5 Mq/s → ≈17 kq/s each,
/// limit 5/s) suppression approaches 1 for heavy hitters; blended over
/// the observed source distribution it lands near the reported 60%.
pub fn steady_state_suppression(qps_per_source: f64, limit_per_source: f64) -> f64 {
    if qps_per_source <= 0.0 {
        return 0.0;
    }
    (1.0 - limit_per_source / qps_per_source).max(0.0)
}

/// Blended suppression over a two-class source model: a fraction
/// `heavy_share` of queries from `n_heavy` heavy sources, the rest from
/// sources too slow to trip RRL. Mirrors Verisign's description of the
/// event (top 200 addresses = 68% of queries).
pub fn blended_suppression(
    total_qps: f64,
    heavy_share: f64,
    n_heavy: usize,
    limit_per_source: f64,
) -> f64 {
    assert!((0.0..=1.0).contains(&heavy_share));
    if total_qps <= 0.0 || n_heavy == 0 {
        return 0.0;
    }
    let heavy_qps_each = total_qps * heavy_share / n_heavy as f64;
    heavy_share * steady_state_suppression(heavy_qps_each, limit_per_source)
}

/// RRL's effect as an aggregate: given an offered response rate, the
/// rate actually sent.
pub fn effective_response_rate(offered_qps: f64, suppression: f64) -> f64 {
    offered_qps * (1.0 - suppression.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_suppression_matches_intuition() {
        // A source at exactly the limit loses nothing.
        assert_eq!(steady_state_suppression(5.0, 5.0), 0.0);
        // A 50 q/s source keeps 10% of responses.
        assert!((steady_state_suppression(50.0, 5.0) - 0.9).abs() < 1e-12);
        assert_eq!(steady_state_suppression(0.0, 5.0), 0.0);
    }

    #[test]
    fn blended_suppression_near_verisign_report() {
        // Nov 30 at A-root: ~5 Mq/s, top 200 sources = 68% of queries.
        let s = blended_suppression(5_000_000.0, 0.68, 200, 5.0);
        // Heavy sources are suppressed ≈ 100%, so blended ≈ 68% — the
        // same order as Verisign's reported 60% response drop.
        assert!((0.55..=0.69).contains(&s), "suppression {s}");
    }

    #[test]
    fn effective_rate_clamps() {
        assert_eq!(effective_response_rate(100.0, 0.25), 75.0);
        assert_eq!(effective_response_rate(100.0, 2.0), 0.0);
        assert_eq!(effective_response_rate(100.0, -1.0), 100.0);
    }
}
