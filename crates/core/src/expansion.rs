//! Incremental endpoint growth (paper §VII-C).
//!
//! "SF can seamlessly handle incremental changes in the number of
//! endpoints … a network with 10,830 endpoints can be extended by ≈1500
//! endpoints before the performance drops by more than 10%."
//!
//! This module quantifies that claim with the analytic flow model: for a
//! Slim Fly instance, it computes the uniform-traffic saturation bound
//! at each concentration `p` and reports how many endpoints can be added
//! (by filling spare router ports) before the bound falls more than
//! `tolerance` below the balanced configuration's.

use sf_flow::uniform_channel_loads;
use sf_topo::SlimFly;

/// One step of the growth curve.
#[derive(Clone, Copy, Debug)]
pub struct GrowthStep {
    /// Endpoints per router.
    pub p: u32,
    /// Total endpoints.
    pub n: usize,
    /// Analytic uniform saturation bound (1.0 = full injection rate).
    pub saturation: f64,
    /// Relative performance vs the balanced configuration.
    pub relative: f64,
}

/// Computes the endpoint-growth curve from the balanced concentration up
/// to `p_max` (inclusive).
pub fn growth_curve(sf: &SlimFly, p_max: u32) -> Vec<GrowthStep> {
    let p0 = sf.balanced_concentration();
    let mut out = Vec::new();
    let mut base = f64::NAN;
    for p in p0..=p_max.max(p0) {
        let net = sf.network_with_concentration(p);
        let sat = uniform_channel_loads(&net)
            .expect("an intact Slim Fly is connected")
            .saturation_bound();
        if p == p0 {
            base = sat;
        }
        out.push(GrowthStep {
            p,
            n: net.num_endpoints(),
            saturation: sat,
            relative: sat / base,
        });
    }
    out
}

/// Maximum number of endpoints that can be added to the balanced
/// configuration before the analytic saturation bound drops more than
/// `tolerance` (e.g. 0.10 for the paper's 10%).
pub fn max_extension(sf: &SlimFly, tolerance: f64) -> usize {
    let p0 = sf.balanced_concentration();
    let base_n = sf.num_routers() * p0 as usize;
    let curve = growth_curve(sf, p0 + 8);
    curve
        .iter()
        .take_while(|s| s.relative >= 1.0 - tolerance)
        .last()
        .map(|s| s.n - base_n)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_curve_monotone_decreasing() {
        let sf = SlimFly::new(7).unwrap();
        let curve = growth_curve(&sf, sf.balanced_concentration() + 4);
        assert_eq!(curve.len(), 5);
        for w in curve.windows(2) {
            assert!(w[1].saturation <= w[0].saturation + 1e-9);
            assert_eq!(w[1].p, w[0].p + 1);
            assert!(w[1].n > w[0].n);
        }
        assert!((curve[0].relative - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_extension_claim_q19() {
        // §VII-C: N = 10830 extensible by ≈1500 endpoints within a 10%
        // performance budget — i.e. roughly two extra endpoints per
        // router (+722 or +1444). Accept the band [722, 2166].
        let sf = SlimFly::new(19).unwrap();
        let ext = max_extension(&sf, 0.10);
        assert!(
            (722..=2166).contains(&ext),
            "extension {ext} outside the paper's ≈1500 band"
        );
    }

    #[test]
    fn zero_tolerance_allows_nothing() {
        let sf = SlimFly::new(7).unwrap();
        // With (near-)zero tolerance only the balanced point qualifies.
        let ext = max_extension(&sf, 1e-9);
        assert_eq!(ext, 0);
    }

    #[test]
    fn oversubscribed_relative_below_one() {
        let sf = SlimFly::new(9).unwrap();
        let curve = growth_curve(&sf, sf.balanced_concentration() + 3);
        for s in &curve[1..] {
            assert!(s.relative < 1.0);
            assert!(s.relative > 0.4, "graceful degradation, not collapse");
        }
    }
}
