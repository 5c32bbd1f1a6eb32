//! Figures 11c/12c/13c: total network cost vs network size for all
//! topologies, under the three cable-pricing families.
//!
//! Usage: `fig11c_total_cost [--sizes 256,512,1024,...] [--model fdr10|qdr56|sfp10|all]`
//! Output: CSV `model,topology,endpoints,routers,total_cost,cost_per_node`.
//! Paper shape: SF cheapest overall (~50% below FT-3, ~25% below DF at
//! 10K endpoints); low-radix topologies (tori, HC, LH) most expensive
//! per node.

use sf_bench::{print_csv_row, run_cli};
use slimfly::prelude::*;

fn main() {
    run_cli(|args| {
        let sizes = args.list("sizes", &[512usize, 1024, 2048, 4096, 10_000])?;
        let which = args.get("model")?.unwrap_or("fdr10");
        let models: Vec<CostModel> = match which {
            "fdr10" => vec![CostModel::fdr10()],
            "qdr56" => vec![CostModel::qdr56()],
            "sfp10" => vec![CostModel::sfp10()],
            "all" => vec![CostModel::fdr10(), CostModel::qdr56(), CostModel::sfp10()],
            other => {
                return Err(SfError::Cli(format!(
                    "--model: expected fdr10|qdr56|sfp10|all, got {other:?}"
                )))
            }
        };

        print_csv_row(&[
            "model".into(),
            "topology".into(),
            "endpoints".into(),
            "routers".into(),
            "total_cost".into(),
            "cost_per_node".into(),
        ]);
        for &n in &sizes {
            for topo in spec::roster(n) {
                let net = topo.build()?;
                for m in &models {
                    let b = CostBreakdown::compute(&net, m);
                    print_csv_row(&[
                        m.name.into(),
                        net.name.clone(),
                        b.n.to_string(),
                        b.nr.to_string(),
                        format!("{:.0}", b.total_cost()),
                        format!("{:.0}", b.cost_per_endpoint()),
                    ]);
                }
            }
        }
        Ok(())
    })
}
