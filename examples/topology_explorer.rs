//! Topology explorer: print the §VII-A "library of practical
//! topologies" — every balanced Slim Fly configuration up to a size
//! budget — and structural metrics for a chosen entry.
//!
//! Run with: `cargo run --release --example topology_explorer -- [max_endpoints]`

use slimfly::prelude::*;
use slimfly_workspace::outln;

fn main() -> Result<(), SfError> {
    let max: u64 = match std::env::args().nth(1) {
        None => 20_000,
        Some(raw) => raw
            .parse()
            .map_err(|_| SfError::Cli(format!("max_endpoints: cannot parse {raw:?}")))?,
    };

    outln!("balanced Slim Fly configurations with N ≤ {max}:");
    outln!(
        "{:>10} {:>4} {:>3} {:>4} {:>4} {:>4} {:>7} {:>8}",
        "spec",
        "q",
        "δ",
        "k'",
        "p",
        "k",
        "Nr",
        "N"
    );
    let configs = zoo::balanced_slimflies_up_to(max);
    for c in &configs {
        outln!(
            "{:>10} {:>4} {:>3} {:>4} {:>4} {:>4} {:>7} {:>8}",
            TopologySpec::slimfly(c.q).to_string(),
            c.q,
            c.delta,
            c.k_prime,
            c.p,
            c.k,
            c.nr,
            c.n
        );
    }
    outln!(
        "{} variants ({} discounting the q=3 toy; paper §VII-A: 11) vs {} balanced Dragonflies (paper: 8)\n",
        configs.len(),
        configs.iter().filter(|c| c.q >= 4).count(),
        zoo::balanced_dragonflies_up_to(max).len()
    );

    // Deep-dive on the largest one that stays quick to analyze.
    if let Some(c) = configs.iter().find(|c| c.n >= 500) {
        let spec = TopologySpec::slimfly(c.q);
        let net = spec.build()?;
        outln!("deep dive on {}:", net.summary());
        outln!(
            "  diameter = {:?}, avg distance = {:.3}",
            metrics::diameter(&net.graph),
            metrics::average_distance(&net.graph).unwrap()
        );
        let weights: Vec<u64> = net.concentration.iter().map(|&c| c as u64).collect();
        let bis = partition::bisect_weighted(&net.graph, &weights, 8, 42, 0);
        outln!(
            "  bisection ≈ {} links ({:.2}×N/2 at 10 Gb/s: {:.0} Gb/s)",
            bis.cut,
            bis.cut as f64 / (net.num_endpoints() as f64 / 2.0),
            bis.cut as f64 * 10.0
        );
        // The flow model through the same experiment API the benches use.
        let flow = Experiment::on(spec).flow()?;
        outln!(
            "  analytic uniform saturation bound = {:.2} of full injection",
            flow.saturation_bound
        );
    }
    Ok(())
}
