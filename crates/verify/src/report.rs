//! The paper's §IV-D VC-count experiment as one shared implementation:
//! `sf-bench table vc_count` and the EXPERIMENTS.md "Static verification"
//! section both render from [`vc_requirements`].

use crate::assign::{
    all_pairs_min_paths, hop_index_is_deadlock_free, layered_vc_count, vcs_required,
};
use crate::wormhole::wormhole_cdg;
use sf_graph::Graph;
use sf_routing::{RoutingSpec, RoutingTables};

/// Minimum VC counts of one network under the three §IV-D schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcRequirements {
    /// Hop-index scheme: max hop count over all-pairs minimal paths.
    pub hop_index: usize,
    /// Executable proof that the hop-index CDG is acyclic.
    pub hop_index_acyclic: bool,
    /// Smallest VC budget whose *wormhole-aware* minimal-routing CDG
    /// (engine allocation semantics, clamping included) is acyclic.
    pub wormhole_min: usize,
    /// DFSSSP-style greedy layered assignment: virtual layers used.
    pub layered: usize,
}

/// Computes the §IV-D VC requirements of one network: hop-index count,
/// minimal acyclic wormhole budget, and the greedy layered count.
pub fn vc_requirements(g: &Graph, tables: &RoutingTables, seed: u64) -> VcRequirements {
    let paths = all_pairs_min_paths(g, seed);
    let hop_index = vcs_required(&paths);
    let hop_index_acyclic = hop_index_is_deadlock_free(&paths);
    // The monotone certificate guarantees acyclicity at V = diameter,
    // so the search below always terminates within the bound.
    let diam = tables.max_distance() as usize;
    let mut wormhole_min = diam.max(1);
    for v in 1..=diam.max(1) {
        let w = wormhole_cdg(g, tables, &RoutingSpec::Min, v)
            .expect("MIN needs no router construction");
        if w.cdg.is_acyclic() {
            wormhole_min = v;
            break;
        }
    }
    let layered = layered_vc_count(&paths);
    VcRequirements {
        hop_index,
        hop_index_acyclic,
        wormhole_min,
        layered,
    }
}

/// One row of the VC-count table.
#[derive(Debug, Clone)]
pub struct VcRow {
    /// Network name.
    pub network: String,
    /// Router count.
    pub routers: usize,
    /// The computed requirements.
    pub req: VcRequirements,
}

/// Renders the EXPERIMENTS.md "Static verification" table: one row per
/// network, one column per VC-assignment scheme.
pub fn render_vc_markdown(rows: &[VcRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "| network | routers | hop-index VCs (MIN) | wormhole min VCs (MIN) | layered VLs (DFSSSP-style) |\n",
    );
    out.push_str("|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {}{} | {} | {} |\n",
            r.network,
            r.routers,
            r.req.hop_index,
            if r.req.hop_index_acyclic {
                ""
            } else {
                " (cyclic!)"
            },
            r.req.wormhole_min,
            r.req.layered,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slimfly_requirements_match_the_paper_band() {
        let g = sf_topo::SlimFly::new(5).unwrap().router_graph();
        let t = RoutingTables::new(&g);
        let req = vc_requirements(&g, &t, 42);
        assert_eq!(req.hop_index, 2, "diameter-2 minimal paths");
        assert!(req.hop_index_acyclic);
        assert!(req.wormhole_min <= 2);
        assert!(
            (1..=4).contains(&req.layered),
            "SF ≈ 3 band, got {}",
            req.layered
        );
    }

    #[test]
    fn markdown_renders_one_row_per_network() {
        let rows = vec![VcRow {
            network: "sf-test".into(),
            routers: 50,
            req: VcRequirements {
                hop_index: 2,
                hop_index_acyclic: true,
                wormhole_min: 2,
                layered: 3,
            },
        }];
        let md = render_vc_markdown(&rows);
        assert!(md.contains("| sf-test | 50 | 2 | 2 | 3 |"));
        assert_eq!(md.lines().count(), 3);
    }
}
