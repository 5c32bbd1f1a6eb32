//! Cost and power models (§VI-B, §VI-C).
//!
//! * **Cables**: cost in $/Gb/s is a linear function of length,
//!   different for electric and optical; multiplied by the link data
//!   rate. The paper's fits for Mellanox IB FDR10 40 Gb/s QSFP:
//!   electric `0.4079·x + 0.5771`, optical `0.0919·x + 2.7452`.
//! * **Routers**: cost is linear in radix (`350.4·k − 892.3` from the
//!   Mellanox IB FDR10 fit) — the router chip price is development-
//!   dominated while SerDes scale with ports.
//! * **Power**: each port has 4 lanes, one SerDes per lane at ≈0.7 W
//!   (§VI-C), i.e. 2.8 W per port.

use crate::layout::{CableInventory, Layout, INTRA_RACK_M};
use sf_topo::Network;

/// A linear cost function `f(x) = a·x + b`.
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    /// Slope.
    pub a: f64,
    /// Intercept.
    pub b: f64,
}

impl Linear {
    /// Evaluates the fit.
    pub fn at(&self, x: f64) -> f64 {
        self.a * x + self.b
    }
}

/// Cable + router pricing and the power model.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// $/Gb/s for electric cables as a function of length (m).
    pub electric: Linear,
    /// $/Gb/s for optical cables as a function of length (m).
    pub fiber: Linear,
    /// Link data rate in Gb/s.
    pub gbps: f64,
    /// Router cost as a function of radix.
    pub router: Linear,
    /// Watts per SerDes lane.
    pub watts_per_lane: f64,
    /// Lanes per port.
    pub lanes_per_port: f64,
    /// Model name for reports.
    pub name: &'static str,
}

impl CostModel {
    /// Mellanox IB FDR10 40 Gb/s QSFP cables + FDR10 routers (Fig 11/13,
    /// the paper's headline numbers).
    pub fn fdr10() -> Self {
        CostModel {
            electric: Linear {
                a: 0.4079,
                b: 0.5771,
            },
            fiber: Linear {
                a: 0.0919,
                b: 2.7452,
            },
            gbps: 40.0,
            router: Linear {
                a: 350.4,
                b: -892.3,
            },
            watts_per_lane: 0.7,
            lanes_per_port: 4.0,
            name: "Mellanox IB FDR10 40Gb/s QSFP",
        }
    }

    /// Mellanox IB QDR56 56 Gb/s QSFP cables (Fig 13 variant).
    /// Approximation: same $-per-cable-meter as FDR10, expressed per
    /// Gb/s at the higher rate.
    pub fn qdr56() -> Self {
        let scale = 40.0 / 56.0;
        CostModel {
            electric: Linear {
                a: 0.4079 * scale,
                b: 0.5771 * scale,
            },
            fiber: Linear {
                a: 0.0919 * scale,
                b: 2.7452 * scale,
            },
            gbps: 56.0,
            router: Linear {
                a: 350.4,
                b: -892.3,
            },
            watts_per_lane: 0.7,
            lanes_per_port: 4.0,
            name: "Mellanox IB QDR56 56Gb/s QSFP (approx.)",
        }
    }

    /// Elpeus Ethernet 10 Gb/s SFP+ cables (Fig 12 variant). Cheaper
    /// cables, lower rate: higher $/Gb/s (approximation).
    pub fn sfp10() -> Self {
        CostModel {
            electric: Linear {
                a: 0.8158,
                b: 1.1542,
            },
            fiber: Linear {
                a: 0.1838,
                b: 5.4904,
            },
            gbps: 10.0,
            router: Linear {
                a: 350.4,
                b: -892.3,
            },
            watts_per_lane: 0.7,
            lanes_per_port: 4.0,
            name: "Elpeus Ethernet 10Gb/s SFP+ (approx.)",
        }
    }

    /// Cost of one electric cable of the given length.
    pub fn electric_cable_cost(&self, len_m: f64) -> f64 {
        self.electric.at(len_m) * self.gbps
    }

    /// Cost of one optical cable of the given length.
    pub fn fiber_cable_cost(&self, len_m: f64) -> f64 {
        self.fiber.at(len_m) * self.gbps
    }

    /// Cost of one router of the given radix.
    pub fn router_cost(&self, radix: usize) -> f64 {
        self.router.at(radix as f64).max(0.0)
    }

    /// Power of one router of the given radix (all ports active).
    pub fn router_power_w(&self, radix: usize) -> f64 {
        radix as f64 * self.lanes_per_port * self.watts_per_lane
    }
}

/// Aggregated cost/power roll-up for one network.
#[derive(Clone, Debug)]
pub struct CostBreakdown {
    /// Topology instance name.
    pub name: String,
    /// Endpoints.
    pub n: usize,
    /// Routers.
    pub nr: usize,
    /// Maximum router radix (ports to buy).
    pub radix: usize,
    /// Electric router-router cables.
    pub electric_cables: usize,
    /// Optical router-router cables.
    pub fiber_cables: usize,
    /// Total router cost ($).
    pub router_cost: f64,
    /// Total cable cost ($), including endpoint cables.
    pub cable_cost: f64,
    /// Total network power (W).
    pub power_w: f64,
}

impl CostBreakdown {
    /// Computes the full roll-up for a network under a cost model.
    ///
    /// Endpoint cables are counted as 1 m electric cables (the paper's
    /// Table IV is inconsistent about them; we include them uniformly
    /// for every topology).
    pub fn compute(net: &Network, model: &CostModel) -> Self {
        let layout = Layout::new(net);
        let inv = CableInventory::new(net, &layout);
        Self::from_inventory(net, model, &inv)
    }

    /// Roll-up from a precomputed cable inventory.
    pub fn from_inventory(net: &Network, model: &CostModel, inv: &CableInventory) -> Self {
        let mut cable_cost = 0.0;
        for &len in &inv.electric {
            cable_cost += model.electric_cable_cost(len);
        }
        for &len in &inv.fiber {
            cable_cost += model.fiber_cable_cost(len);
        }
        cable_cost += inv.endpoint_cables as f64 * model.electric_cable_cost(INTRA_RACK_M);

        let mut router_cost = 0.0;
        let mut power = 0.0;
        for r in 0..net.num_routers() as u32 {
            let k = net.router_radix(r);
            router_cost += model.router_cost(k);
            power += model.router_power_w(k);
        }

        CostBreakdown {
            name: net.name.clone(),
            n: net.num_endpoints(),
            nr: net.num_routers(),
            radix: net.max_router_radix(),
            electric_cables: inv.num_electric(),
            fiber_cables: inv.num_fiber(),
            router_cost,
            cable_cost,
            power_w: power,
        }
    }

    /// Total network cost ($).
    pub fn total_cost(&self) -> f64 {
        self.router_cost + self.cable_cost
    }

    /// Cost per endpoint ($/node).
    pub fn cost_per_endpoint(&self) -> f64 {
        self.total_cost() / self.n.max(1) as f64
    }

    /// Power per endpoint (W/node).
    pub fn power_per_endpoint(&self) -> f64 {
        self.power_w / self.n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_topo::SlimFly;

    #[test]
    fn cable_fits_match_paper_coefficients() {
        let m = CostModel::fdr10();
        // §VI-B1: electric f(1) = 0.985 $/Gb/s → ~$39.40 per 40 Gb/s cable.
        assert!((m.electric_cable_cost(1.0) - 39.4).abs() < 0.1);
        // optic f(5) = 3.2047 $/Gb/s → ~$128.19.
        assert!((m.fiber_cable_cost(5.0) - 128.188).abs() < 0.1);
    }

    #[test]
    fn router_cost_fit() {
        let m = CostModel::fdr10();
        // §VI-B2: f(k) = 350.4k − 892.3.
        assert!((m.router_cost(43) - (350.4 * 43.0 - 892.3)).abs() < 1e-9);
        assert_eq!(m.router_cost(1), 0.0, "clamped at zero");
    }

    #[test]
    fn power_matches_table_iv_slimfly() {
        // Table IV: SF N=10830, k=43..44: power/node 8.02 W.
        // Nr·2.8·k/N = 722·2.8·43/10830 = 8.026.
        let m = CostModel::fdr10();
        assert!((m.router_power_w(43) - 120.4).abs() < 1e-9);
        let sf = SlimFly::new(19).unwrap();
        let net = sf.network();
        let b = CostBreakdown::compute(&net, &m);
        // Our routers are radix-44 (k' = 29 + p = 15), paper rounds to 43.
        let per_node = b.power_per_endpoint();
        assert!(
            (7.9..=8.5).contains(&per_node),
            "SF power per node = {per_node}"
        );
    }

    #[test]
    fn slimfly_cost_per_node_near_paper() {
        // Table IV: SF cost/node ≈ $1033 under FDR10 pricing (our cable
        // accounting includes endpoint links; accept a ±15% band).
        let sf = SlimFly::new(19).unwrap();
        let net = sf.network();
        let b = CostBreakdown::compute(&net, &CostModel::fdr10());
        let c = b.cost_per_endpoint();
        assert!((900.0..=1250.0).contains(&c), "SF(q=19) cost/node = {c}");
    }

    #[test]
    fn slimfly_cheaper_than_dragonfly_by_about_quarter() {
        // §VI-B4: "In all cases, SF is ≈25% more cost-effective than DF."
        let sf = SlimFly::new(19).unwrap().network();
        let df = sf_topo::dragonfly::Dragonfly::paper_table4_variant().network();
        let m = CostModel::fdr10();
        let csf = CostBreakdown::compute(&sf, &m).cost_per_endpoint();
        let cdf = CostBreakdown::compute(&df, &m).cost_per_endpoint();
        let saving = 1.0 - csf / cdf;
        assert!(
            (0.10..=0.40).contains(&saving),
            "SF saving vs DF = {saving} (SF {csf} vs DF {cdf})"
        );
    }

    #[test]
    fn slimfly_more_power_efficient_than_dragonfly() {
        // §VI-C: SF is over 25% more energy-efficient than DF.
        let sf = SlimFly::new(19).unwrap().network();
        let df = sf_topo::dragonfly::Dragonfly::paper_table4_variant().network();
        let m = CostModel::fdr10();
        let psf = CostBreakdown::compute(&sf, &m).power_per_endpoint();
        let pdf = CostBreakdown::compute(&df, &m).power_per_endpoint();
        assert!(psf < pdf, "SF {psf} W/node must beat DF {pdf} W/node");
        // Table IV: DF 10.9 vs SF 8.02 → ~26% saving.
        let saving = 1.0 - psf / pdf;
        assert!((0.15..=0.40).contains(&saving), "saving = {saving}");
    }

    #[test]
    fn low_radix_topologies_cost_more_per_node() {
        // Table IV: tori/hypercubes are significantly more expensive per
        // node than SF (more routers per endpoint).
        let m = CostModel::fdr10();
        let sf = SlimFly::new(11).unwrap().network(); // N = 2178
        let hc = sf_topo::hypercube::Hypercube::new(11).network(); // N = 2048
        let csf = CostBreakdown::compute(&sf, &m).cost_per_endpoint();
        let chc = CostBreakdown::compute(&hc, &m).cost_per_endpoint();
        assert!(
            chc > 2.0 * csf,
            "hypercube {chc} should dwarf SF {csf} per node"
        );
    }

    #[test]
    fn cost_model_variants_preserve_ordering() {
        // §VI-B1: other cable families change relative differences by
        // only a few percent — orderings must hold.
        let sf = SlimFly::new(11).unwrap().network();
        let df = sf_topo::dragonfly::Dragonfly::balanced_from_radix(sf.max_router_radix() as u32)
            .network();
        for m in [CostModel::fdr10(), CostModel::qdr56(), CostModel::sfp10()] {
            let csf = CostBreakdown::compute(&sf, &m).cost_per_endpoint();
            let cdf = CostBreakdown::compute(&df, &m).cost_per_endpoint();
            assert!(csf < cdf, "{}: SF {csf} vs DF {cdf}", m.name);
        }
    }

    #[test]
    fn breakdown_totals_consistent() {
        let net = SlimFly::new(5).unwrap().network();
        let b = CostBreakdown::compute(&net, &CostModel::fdr10());
        assert!((b.total_cost() - (b.router_cost + b.cable_cost)).abs() < 1e-9);
        assert_eq!(b.n, 200);
        assert_eq!(b.nr, 50);
        assert!(b.cost_per_endpoint() > 0.0);
        assert_eq!(b.electric_cables + b.fiber_cables, net.graph.num_edges());
    }
}
