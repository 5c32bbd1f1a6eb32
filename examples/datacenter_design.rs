//! Datacenter design study: size a Slim Fly for a target machine,
//! compare against a Dragonfly of comparable size, and print the
//! physical layout and bill of materials (§VI of the paper).
//!
//! Run with: `cargo run --release --example datacenter_design -- [endpoints]`

use slimfly::cost::{CableInventory, Layout};
use slimfly::prelude::*;

fn main() -> Result<(), SfError> {
    let target: u64 = match std::env::args().nth(1) {
        None => 10_000,
        Some(raw) => raw
            .parse()
            .map_err(|_| SfError::Cli(format!("endpoints: cannot parse {raw:?}")))?,
    };

    // Pick the smallest balanced Slim Fly covering the target.
    let cfg = zoo::recommend(target).expect("a config exists");
    println!(
        "recommended Slim Fly: q={} (δ={}) → Nr={}, N={}, k={} ports",
        cfg.q, cfg.delta, cfg.nr, cfg.n, cfg.k
    );
    let sf_spec = TopologySpec::slimfly(cfg.q);
    let net = sf_spec.build()?;

    // Physical layout (§VI-A).
    let layout = Layout::new(&net);
    let inv = CableInventory::new(&net, &layout);
    println!(
        "layout: {} racks ({} routers each), grid {} racks wide",
        layout.num_racks,
        net.num_routers() as u32 / layout.num_racks,
        layout.width
    );
    println!(
        "cables: {} electric (intra-rack), {} fiber (avg {:.1} m), {} endpoint links",
        inv.num_electric(),
        inv.num_fiber(),
        inv.avg_fiber_len(),
        inv.endpoint_cables
    );

    // Bill of materials under the three cable families (§VI-B).
    for model in [CostModel::fdr10(), CostModel::qdr56(), CostModel::sfp10()] {
        let b = CostBreakdown::compute(&net, &model);
        println!(
            "BOM [{}]: routers ${:.0}k + cables ${:.0}k = ${:.0}/endpoint",
            model.name,
            b.router_cost / 1e3,
            b.cable_cost / 1e3,
            b.cost_per_endpoint()
        );
    }

    // Balanced Dragonfly of comparable size (§VI-B4; the paper compares
    // against balanced DFs — unbalanced same-radix DFs found by raw
    // search can be far worse and overstate SF's advantage).
    let df_spec = TopologySpec::dragonfly_balanced(spec::dragonfly_p_near(cfg.n as usize));
    let model = CostModel::fdr10();
    let b_sf = CostBreakdown::compute(&net, &model);
    let b_df = Experiment::on(df_spec.clone()).cost(&model)?;
    println!(
        "vs Dragonfly {df_spec}: N={}, Nr={}, ${:.0}/endpoint, {:.2} W/endpoint",
        b_df.n,
        b_df.nr,
        b_df.cost_per_endpoint(),
        b_df.power_per_endpoint()
    );
    println!(
        "Slim Fly saves {:.0}% cost and {:.0}% power per endpoint (paper: ≈25% for both)",
        100.0 * (1.0 - b_sf.cost_per_endpoint() / b_df.cost_per_endpoint()),
        100.0 * (1.0 - b_sf.power_per_endpoint() / b_df.power_per_endpoint())
    );
    Ok(())
}
