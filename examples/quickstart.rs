//! Quickstart: build the paper's flagship Slim Fly from a declarative
//! spec, inspect its structure, route a packet, and run a load sweep
//! through the fluent experiment builder.
//!
//! Run with: `cargo run --release --example quickstart`

use slimfly::prelude::*;

fn main() -> Result<(), SfError> {
    // 1. The flagship network of §V as a declarative spec: q = 19 →
    //    722 routers, 10,830 endpoints, diameter 2, router radix 44.
    let spec: TopologySpec = "sf:q=19".parse()?;
    let net = spec.build()?;
    println!("network: {}", net.summary());

    // 2. Structural properties (§III).
    let diameter = metrics::diameter(&net.graph).unwrap();
    let avg = metrics::average_distance(&net.graph).unwrap();
    println!("  diameter = {diameter} (paper: 2)");
    println!("  average router distance = {avg:.3}");
    println!(
        "  average endpoint hops (uniform traffic) = {:.3}",
        average_hops_uniform(&net)
    );

    // 3. Minimal routing (§IV-A): route between two endpoints.
    let tables = RoutingTables::new(&net.graph);
    let gen = slimfly::routing::paths::PathGen::new(&net.graph, &tables);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let (src, dst) = (0u32, net.num_endpoints() as u32 - 1);
    let (rs, rd) = (net.endpoint_router(src), net.endpoint_router(dst));
    let path = gen.min_path(rs, rd, &mut rng);
    println!("  minimal route endpoint {src} -> {dst}: routers {path:?}");

    // 4. A short cycle-accurate load sweep at 30% uniform load (§V-A),
    //    through the experiment builder.
    let records = Experiment::on(spec)
        .routing(RoutingSpec::Min)
        .traffic(TrafficSpec::Uniform)
        .loads(&[0.3])
        .sim(SimConfig {
            warmup: 500,
            measure: 1_000,
            drain: 2_000,
            ..Default::default()
        })
        .run()?;
    let r = &records[0];
    println!(
        "  sim @ 30% load: latency = {:.1} cycles, accepted = {:.2}, hops = {:.2}",
        r.latency, r.accepted, r.avg_hops
    );
    println!("  as CSV:  {}", r.to_csv());
    println!("  as JSON: {}", r.to_json());

    // 5. What does it cost (§VI)?
    let cost = Experiment::on("sf:q=19").cost(&CostModel::fdr10())?;
    println!(
        "  cost = ${:.0}/endpoint, power = {:.2} W/endpoint (paper: $1,033 and 8.02 W)",
        cost.cost_per_endpoint(),
        cost.power_per_endpoint()
    );
    Ok(())
}
