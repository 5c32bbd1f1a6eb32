//! Routing-scheme shoot-out on a Slim Fly (§IV–§V): MIN, Valiant,
//! UGAL-L, UGAL-G and FatPaths-style layered multipath under benign
//! (uniform) and adversarial (worst-case) traffic, plus the
//! deadlock-freedom check of §IV-D.
//!
//! Every scheme is selected through the `RoutingSpec` string grammar —
//! the same strings work as `routing` keys in the plan files under
//! `figures/`.
//!
//! Run with: `cargo run --release --example routing_comparison -- [q]`

use slimfly::prelude::*;
use slimfly::verify::{
    all_pairs_min_paths, hop_index_is_deadlock_free, layered_vc_count, vcs_required,
};

fn main() -> Result<(), SfError> {
    let q: u32 = match std::env::args().nth(1) {
        None => 7,
        Some(raw) => raw
            .parse()
            .map_err(|_| SfError::Cli(format!("q: cannot parse {raw:?}")))?,
    };
    let spec = TopologySpec::slimfly(q);
    let net = spec.build()?;
    let sf = SlimFly::new(q)?;
    println!("network: {}", net.summary());

    // Deadlock freedom (§IV-D).
    let paths = all_pairs_min_paths(&net.graph, 1);
    println!(
        "deadlock: hop-index scheme needs {} VCs for minimal routing (acyclic: {}), \
         DFSSSP-style layering uses {} layers (paper: 2 VCs / ~3 layers)",
        vcs_required(&paths),
        hop_index_is_deadlock_free(&paths),
        layered_vc_count(&paths)
    );

    let cfg = SimConfig {
        warmup: 800,
        measure: 1_600,
        drain: 4_000,
        ..Default::default()
    };
    // The full scheme roster by spec string — `fatpaths:layers=3` is
    // the layered-multipath newcomer (Besta et al. 2020); everything
    // else matches the paper's Fig 6 legend.
    let schemes = [
        "min",
        "val",
        "ugal-l:c=4",
        "ugal-g:c=4",
        "fatpaths:layers=3",
    ];

    for (traffic, loads) in [
        (TrafficSpec::Uniform, vec![0.2, 0.5, 0.8]),
        (TrafficSpec::WorstCase, vec![0.05, 0.15, 0.3]),
    ] {
        println!("\ntraffic: {traffic}");
        println!(
            "{:>12} {:>8} {:>10} {:>10} {:>10}",
            "routing", "offered", "latency", "accepted", "hops"
        );
        let records = Experiment::on(spec.clone())
            .routing_strs(&schemes)
            .traffic(traffic)
            .loads(&loads)
            .sim(cfg)
            .run()?;
        for r in records {
            println!(
                "{:>12} {:>8.2} {:>10.1} {:>10.2} {:>10.2}{}",
                r.routing,
                r.offered,
                r.latency,
                r.accepted,
                r.avg_hops,
                if r.saturated { "  (saturated)" } else { "" }
            );
        }
    }
    println!(
        "\nexpected shape (paper Fig 6a/6d): MIN best on uniform; MIN collapses on \
         worst-case (~1/(p+1) = {:.2}) while VAL/UGAL recover to 40–45%",
        1.0 / (sf.balanced_concentration() as f64 + 1.0)
    );
    Ok(())
}
