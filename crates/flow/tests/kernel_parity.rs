//! Property test: the MIN-ECMP kernel is bit-identical to its reference.
//!
//! `reference` below is the per-destination kernel as it stood before
//! the sparse-column and recorded-next-hop paths: a dense demand column
//! per destination, a common-neighbour fast path for diameter-2
//! destinations and a reverse-BFS propagation that re-scans adjacency
//! lists. The lowerings built on it (MIN, Valiant, FatPaths) are
//! rebuilt here on the reference and compared with the library's
//! lowerings by `f64::to_bits` on every channel, across:
//!
//! * random ring-plus-matching graphs of diameter 2–5;
//! * `sf:q=5` and `sf:q=7` with random cables removed;
//! * disconnected graphs, where both sides must fail with the same
//!   [`FlowError::UnroutableDemand`];
//!
//! under uniform traffic, random partial permutations and shift.
//! Concentrations up to 8 put several sources behind one middle router
//! with non-dyadic ECMP shares, so a changed summation order shows in
//! the last bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sf_flow::{fatpaths_loads, min_loads, valiant_loads, Demand, EdgeIndex, FlowError};
use sf_graph::Graph;
use sf_routing::router::FATPATHS_SEED;
use sf_routing::{FatPathsRouter, RoutingTables};
use sf_topo::random_dln::RandomDln;
use sf_topo::{Network, SlimFly, TopologyKind};
use sf_traffic::TrafficPattern;

/// The kernel as it was before the rework, kept verbatim.
mod reference {
    use rayon::prelude::*;
    use sf_flow::{EdgeIndex, FlowError};
    use sf_graph::Graph;

    pub fn min_loads_dense<F>(g: &Graph, idx: &EdgeIndex, fill: F) -> Result<Vec<f64>, FlowError>
    where
        F: Fn(u32, &mut [f64]) -> f64 + Sync,
    {
        let nr = g.num_vertices();
        let nc = idx.num_channels();
        if nr == 0 {
            return Ok(Vec::new());
        }
        let rev = idx.reverse_map();
        let nchunks = 16usize.min(nr);
        let per = nr.div_ceil(nchunks);
        let partial: Vec<Result<Vec<f64>, FlowError>> = (0..nchunks)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|ci| {
                let mut load = vec![0.0f64; nc];
                let mut dem = vec![0.0f64; nr];
                let mut mark = vec![false; nr];
                let mut aux = vec![0.0f64; nr];
                let mut touched: Vec<u32> = Vec::new();
                let mut dist = vec![u32::MAX; nr];
                let mut order: Vec<u32> = Vec::with_capacity(nr);
                for d in (ci * per) as u32..((ci + 1) * per).min(nr) as u32 {
                    let total = fill(d, &mut dem);
                    dem[d as usize] = 0.0;
                    if total <= 0.0 {
                        continue;
                    }
                    dest_loads(
                        g,
                        idx,
                        &rev,
                        d,
                        &dem,
                        &mut mark,
                        &mut aux,
                        &mut touched,
                        &mut dist,
                        &mut order,
                        &mut load,
                    )?;
                }
                Ok(load)
            })
            .collect();
        let mut load = vec![0.0f64; nc];
        for part in partial {
            for (a, b) in load.iter_mut().zip(part?) {
                *a += b;
            }
        }
        Ok(load)
    }

    #[allow(clippy::too_many_arguments)]
    fn dest_loads(
        g: &Graph,
        idx: &EdgeIndex,
        rev: &[u32],
        d: u32,
        dem: &[f64],
        mark: &mut [bool],
        aux: &mut [f64],
        touched: &mut Vec<u32>,
        dist: &mut [u32],
        order: &mut Vec<u32>,
        load: &mut [f64],
    ) -> Result<(), FlowError> {
        let nr = g.num_vertices();
        for &v in g.neighbors(d) {
            mark[v as usize] = true;
        }
        // Count two-hop minimal paths s → m → d through common neighbors.
        for &m in g.neighbors(d) {
            for &s in g.neighbors(m) {
                if s != d && !mark[s as usize] {
                    if aux[s as usize] == 0.0 {
                        touched.push(s);
                    }
                    aux[s as usize] += 1.0;
                }
            }
        }
        // The fast path is valid iff every demand source is d itself, a
        // neighbor, or a two-hop source.
        let mut fast = true;
        for (s, &ds) in dem.iter().enumerate() {
            if ds > 0.0 && s != d as usize && !mark[s] && aux[s] == 0.0 {
                fast = false;
                break;
            }
        }
        if fast {
            let dbase = idx.base(d);
            for (jm, &m) in g.neighbors(d).iter().enumerate() {
                // Traffic relayed through (or originated at) m all exits on
                // the m → d channel.
                let mut acc = dem[m as usize];
                let mbase = idx.base(m);
                for (j, &s) in g.neighbors(m).iter().enumerate() {
                    if s != d && !mark[s as usize] {
                        let ds = dem[s as usize];
                        if ds > 0.0 {
                            let c = ds / aux[s as usize];
                            load[rev[(mbase + j as u32) as usize] as usize] += c;
                            acc += c;
                        }
                    }
                }
                if acc > 0.0 {
                    load[rev[(dbase + jm as u32) as usize] as usize] += acc;
                }
            }
        }
        for &v in g.neighbors(d) {
            mark[v as usize] = false;
        }
        for &s in touched.iter() {
            aux[s as usize] = 0.0;
        }
        touched.clear();
        if fast {
            return Ok(());
        }

        // General case: BFS from d, then propagate demand from far to near,
        // splitting equally over minimal next hops.
        dist[d as usize] = 0;
        order.push(d);
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            let du = dist[u as usize];
            for &v in g.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    order.push(v);
                }
            }
        }
        for (s, &ds) in dem.iter().enumerate() {
            if ds > 0.0 && dist[s] == u32::MAX {
                return Err(FlowError::UnroutableDemand {
                    src: s as u32,
                    dst: d,
                });
            }
        }
        debug_assert!(order.len() <= nr);
        for &u in order.iter().rev() {
            if u == d {
                continue;
            }
            let f = aux[u as usize] + dem[u as usize];
            if f <= 0.0 {
                continue;
            }
            let du = dist[u as usize];
            let nbrs = g.neighbors(u);
            let mut n_min = 0u32;
            for &v in nbrs {
                if dist[v as usize] == du - 1 {
                    n_min += 1;
                }
            }
            let share = f / n_min as f64;
            let ubase = idx.base(u);
            for (j, &v) in nbrs.iter().enumerate() {
                if dist[v as usize] == du - 1 {
                    load[(ubase + j as u32) as usize] += share;
                    aux[v as usize] += share;
                }
            }
        }
        for &u in order.iter() {
            dist[u as usize] = u32::MAX;
            aux[u as usize] = 0.0;
        }
        order.clear();
        Ok(())
    }
}

/// MIN on the reference kernel (as `min_loads` composes it).
fn ref_min(net: &Network, idx: &EdgeIndex, demand: &Demand) -> Result<Vec<f64>, FlowError> {
    reference::min_loads_dense(&net.graph, idx, |d, buf| demand.fill_dest(d, buf))
}

/// Valiant on the reference kernel (as `valiant_loads` composes it).
fn ref_valiant(net: &Network, idx: &EdgeIndex, demand: &Demand) -> Result<Vec<f64>, FlowError> {
    let g = &net.graph;
    let nr = g.num_vertices();
    if nr <= 2 {
        return ref_min(net, idx, demand);
    }
    let inv = 1.0 / (nr as f64 - 2.0);
    let p1 = reference::min_loads_dense(g, idx, |m, buf| {
        let mut total = 0.0;
        for (s, slot) in buf.iter_mut().enumerate() {
            let s = s as u32;
            let v = if s == m {
                0.0
            } else {
                ((demand.row_sum(s) - demand.rate(s, m)) * inv).max(0.0)
            };
            *slot = v;
            total += v;
        }
        total
    })?;
    let p2 = reference::min_loads_dense(g, idx, |d, buf| {
        let mut total = 0.0;
        for (m, slot) in buf.iter_mut().enumerate() {
            let m = m as u32;
            let v = if m == d {
                0.0
            } else {
                ((demand.col_sum(d) - demand.rate(m, d)) * inv).max(0.0)
            };
            *slot = v;
            total += v;
        }
        total
    })?;
    Ok(p1.iter().zip(&p2).map(|(a, b)| a + b).collect())
}

/// FatPaths on the reference kernel (as `fatpaths_loads` composes it).
fn ref_fatpaths(
    net: &Network,
    idx: &EdgeIndex,
    demand: &Demand,
    tables: &RoutingTables,
    num_layers: usize,
) -> Result<Vec<f64>, FlowError> {
    let g = &net.graph;
    let nr = g.num_vertices();
    let fp = FatPathsRouter::build(g, tables, num_layers, FATPATHS_SEED).map_err(|e| {
        FlowError::UnsupportedRouting {
            label: format!("fatpaths:layers={num_layers}"),
            reason: e.to_string(),
        }
    })?;
    let nl = fp.num_layers();
    let lw = 1.0 / nl as f64;
    let mut load = vec![0.0f64; idx.num_channels()];
    for l in 0..nl {
        let lg = fp.layer_graph(l);
        let lidx = EdgeIndex::new(lg);
        let ll = reference::min_loads_dense(lg, &lidx, |d, buf| demand.fill_dest(d, buf))?;
        for u in 0..nr as u32 {
            let lb = lidx.base(u);
            for (j, &v) in lg.neighbors(u).iter().enumerate() {
                let x = ll[(lb + j as u32) as usize];
                if x != 0.0 {
                    load[idx.id(u, v) as usize] += x * lw;
                }
            }
        }
    }
    Ok(load)
}

/// Both sides succeed with bit-identical loads, or fail with the same error.
fn assert_same(label: &str, got: Result<Vec<f64>, FlowError>, want: Result<Vec<f64>, FlowError>) {
    match (got, want) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.len(), b.len(), "{label}: channel count");
            for (c, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{label}: channel {c} carries {x:e}, reference {y:e}"
                );
            }
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: errors differ"),
        (a, b) => panic!(
            "{label}: kernel {:?} vs reference {:?}",
            a.map(|_| "loads"),
            b.map(|_| "loads")
        ),
    }
}

/// Compares MIN, Valiant and FatPaths(2) against the reference.
fn assert_lowerings_match(label: &str, net: &Network, demand: &Demand) {
    let idx = EdgeIndex::new(&net.graph);
    assert_same(
        &format!("{label} min"),
        min_loads(net, &idx, demand).map(|rl| rl.load),
        ref_min(net, &idx, demand),
    );
    assert_same(
        &format!("{label} val"),
        valiant_loads(net, &idx, demand).map(|rl| rl.load),
        ref_valiant(net, &idx, demand),
    );
    let tables = RoutingTables::new(&net.graph);
    assert_same(
        &format!("{label} fatpaths"),
        fatpaths_loads(net, &idx, demand, &tables, 2).map(|rl| rl.load),
        ref_fatpaths(net, &idx, demand, &tables, 2),
    );
}

fn network(g: Graph, p: u32, name: String) -> Network {
    Network::with_uniform_concentration(g, p, name, TopologyKind::Other)
}

/// A ring of `2·half` routers plus `y` random perfect matchings.
fn ring_matchings(half: usize, y: u32, seed: u64) -> Graph {
    RandomDln::new(half * 2, y, seed).router_graph()
}

/// `sf:q` with a random `permille`‰ of its cables removed.
fn sf_minus_cables(q: u32, permille: u32, seed: u64) -> Graph {
    let g = SlimFly::new(q).unwrap().network().graph;
    let mut edges = g.edge_list();
    edges.shuffle(&mut StdRng::seed_from_u64(seed));
    let cut = edges.len() * permille as usize / 1000;
    g.without_edges(&edges[..cut])
}

/// Two disjoint ring-plus-matching components.
fn disconnected(half: usize, y: u32, seed: u64) -> Graph {
    let a = ring_matchings(half, y, seed);
    let b = ring_matchings(half + 1, y, seed ^ 0x5eed);
    let off = a.num_vertices() as u32;
    let mut edges = a.edge_list();
    edges.extend(b.edge_list().into_iter().map(|(u, v)| (u + off, v + off)));
    Graph::from_edges(a.num_vertices() + b.num_vertices(), &edges)
}

/// `kind` 0: uniform; 1: a seeded random partial permutation keeping
/// about `keep`% of the endpoints active; 2: shift.
fn demand(net: &Network, kind: u32, seed: u64, keep: u32) -> Demand {
    let n = net.num_endpoints();
    match kind {
        0 => Demand::uniform(net),
        1 => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut targets: Vec<u32> = (0..n as u32).collect();
            targets.shuffle(&mut rng);
            let mut perm = vec![u32::MAX; n];
            for (s, slot) in perm.iter_mut().enumerate() {
                if rng.gen_range(0u32..100) < keep && targets[s] != s as u32 {
                    *slot = targets[s];
                }
            }
            Demand::from_pattern(net, &TrafficPattern::permutation(perm, "randperm"))
        }
        _ => Demand::from_pattern(net, &TrafficPattern::shift(n as u32)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ring_matchings_match_reference(
        (half, y, tseed) in (3usize..=32, 1u32..=3, 0u64..1_000_000),
        p in 1u32..=8,
        (kind, dseed, keep) in (0u32..3, 0u64..1_000_000, 20u32..=100),
    ) {
        let net = network(ring_matchings(half, y, tseed), p, format!("ring({half},{y},{tseed})"));
        let dem = demand(&net, kind, dseed, keep);
        assert_lowerings_match(&format!("{} demand {kind}/{dseed}", net.name), &net, &dem);
    }

    #[test]
    fn degraded_slim_flies_match_reference(
        (q, permille, tseed) in (prop::sample::select(vec![5u32, 7]), 0u32..=150, 0u64..1_000_000),
        p in 1u32..=8,
        (kind, dseed, keep) in (0u32..3, 0u64..1_000_000, 20u32..=100),
    ) {
        let net = network(sf_minus_cables(q, permille, tseed), p, format!("sf{q}-{permille}‰/{tseed}"));
        let dem = demand(&net, kind, dseed, keep);
        assert_lowerings_match(&format!("{} demand {kind}/{dseed}", net.name), &net, &dem);
    }

    #[test]
    fn disconnected_graphs_fail_like_reference(
        (half, y, tseed) in (3usize..=12, 1u32..=2, 0u64..1_000_000),
        (kind, dseed) in (0u32..3, 0u64..1_000_000),
    ) {
        let net = network(disconnected(half, y, tseed), 1, format!("split({half},{y},{tseed})"));
        // Keep every endpoint active so demand crosses the cut.
        let dem = demand(&net, kind, dseed, 100);
        let idx = EdgeIndex::new(&net.graph);
        if dem.net_mass() > 0.0 {
            let err = ref_min(&net, &idx, &dem).expect_err("demand crosses the cut");
            prop_assert!(matches!(err, FlowError::UnroutableDemand { .. }), "{err:?}");
        }
        assert_lowerings_match(&format!("{} demand {kind}/{dseed}", net.name), &net, &dem);
    }
}

/// The random family spans the diameters the suite claims to cover.
#[test]
fn ring_matchings_span_diameters_two_to_five() {
    let mut seen = [false; 6];
    for half in 3..=32 {
        for y in 1..=3 {
            let g = ring_matchings(half, y, 7 * half as u64 + y as u64);
            let dmax = RoutingTables::new(&g).max_distance() as usize;
            if dmax < seen.len() {
                seen[dmax] = true;
            }
        }
    }
    assert!(seen[2..=5].iter().all(|&s| s), "diameters seen: {seen:?}");
}
