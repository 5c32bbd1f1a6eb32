//! Criterion micro-benchmarks: construction speed, routing-table builds,
//! partitioner quality/throughput, and simulator cycle rate.
//!
//! These measure the partitioner's multi-start cost and how simulator
//! throughput scales.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sf_routing::RoutingTables;
use sf_sim::{SimConfig, Simulator};
use sf_topo::SlimFly;
use sf_traffic::TrafficPattern;

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    for q in [5u32, 11, 19, 25] {
        group.bench_with_input(BenchmarkId::new("slimfly_mms", q), &q, |b, &q| {
            b.iter(|| {
                let sf = SlimFly::new(q).unwrap();
                std::hint::black_box(sf.router_graph())
            })
        });
    }
    group.finish();
}

fn bench_routing_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_tables");
    for q in [5u32, 11, 19] {
        let sf = SlimFly::new(q).unwrap();
        let g = sf.router_graph();
        group.bench_with_input(BenchmarkId::new("apsp", q), &g, |b, g| {
            b.iter(|| std::hint::black_box(RoutingTables::new(g)))
        });
    }
    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition");
    group.sample_size(10);
    for q in [5u32, 11] {
        let sf = SlimFly::new(q).unwrap();
        let g = sf.router_graph();
        for starts in [1usize, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("fm_bisect_q{q}"), starts),
                &starts,
                |b, &starts| {
                    b.iter(|| std::hint::black_box(sf_graph::partition::bisect(&g, starts, 1)))
                },
            );
        }
    }
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    let sf = SlimFly::new(5).unwrap();
    let net = sf.network();
    let tables = RoutingTables::new(&net.graph);
    let pattern = TrafficPattern::uniform(net.num_endpoints() as u32);
    let cfg = SimConfig {
        warmup: 200,
        measure: 800,
        drain: 1_000,
        ..Default::default()
    };
    for load in [0.2f64, 0.6] {
        group.bench_with_input(
            BenchmarkId::new("sf_q5_min_1k_cycles", format!("load{load}")),
            &load,
            |b, &load| {
                b.iter(|| {
                    let sim =
                        Simulator::new(&net, &tables, &sf_routing::MinRouter, &pattern, load, cfg);
                    std::hint::black_box(sim.run())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_construction,
    bench_routing_tables,
    bench_partition,
    bench_simulator
);
criterion_main!(benches);
