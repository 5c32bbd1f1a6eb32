//! Table IV: detailed cost & power comparison at N ≈ 10,830 / k ≈ 43 —
//! the paper's flagship cost table.
//!
//! Usage: `table4_cost_power [--specs sf:q=19,df:p=11]` (semicolon- or
//! comma-free spec lists are awkward in CSV flags, so `--specs` takes a
//! `;`-separated list).
//!
//! Output: CSV with one row per configuration:
//! `topology,endpoints,routers,radix,electric,fiber,cost_per_node,power_per_node`.
//!
//! Paper checkpoints: SF $1,033 & 8.02 W/node; DF(k=43) $1,365 & 10.9;
//! FBF-3 ~$1,5xx; FT-3 most expensive of the high-radix group; tori/HC
//! 2–6× SF. Cable *counts* differ from the paper's: we count from an
//! explicit layout and include endpoint cables.

use sf_bench::{print_csv_row, run_cli};
use slimfly::prelude::*;

/// The paper's Table IV configurations (as close as integer parameters
/// allow; see EXPERIMENTS.md E15), as declarative specs.
const TABLE_IV: &str = "torus3:k=22;torus:dims=6x6x6x6x8;hc:d=13;lh:d=13,l=3;ft3:p=22,full;\
                        dln:nr=4020,y=31;fbf:c=12,dims=3;df:p=11;df:a=22,h=11,p=11,g=45;sf:q=19";

fn main() {
    run_cli(|args| {
        let model = CostModel::fdr10();
        let raw = args.get("specs")?.unwrap_or(TABLE_IV);
        let specs = raw
            .split(';')
            .map(|s| s.trim().parse::<TopologySpec>())
            .collect::<Result<Vec<_>, _>>()?;

        print_csv_row(&[
            "topology".into(),
            "endpoints".into(),
            "routers".into(),
            "radix".into(),
            "electric_cables".into(),
            "fiber_cables".into(),
            "cost_per_node".into(),
            "power_per_node_w".into(),
        ]);
        for topo in &specs {
            let b = Experiment::on(topo.clone()).cost(&model)?;
            print_csv_row(&[
                b.name.clone(),
                b.n.to_string(),
                b.nr.to_string(),
                b.radix.to_string(),
                b.electric_cables.to_string(),
                b.fiber_cables.to_string(),
                format!("{:.0}", b.cost_per_endpoint()),
                format!("{:.2}", b.power_per_endpoint()),
            ]);
        }
        Ok(())
    })
}
