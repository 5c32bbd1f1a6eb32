//! `compare`: the benchmark's own acceptance rule applied to two sets of
//! result files written by `run`, one set per commit.

use crate::config::{Config, Metric};
use crate::stats::{median, quartiles, rel_iqr};
use std::path::PathBuf;
use toml::Value;

/// A gain needs at least this share of pairwise wins.
const PAIR_WINS: f64 = 0.9;

/// Values of one (workload, metric) across a set of result files, in
/// file order.
fn values(files: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            f.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_float()
        })
        .collect()
}

fn load(paths: &[PathBuf]) -> Result<Vec<Value>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            toml::json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// The gain rule: the change wins at least [`PAIR_WINS`] of the pairs
/// (file i of each set; ties count for neither) and the medians differ
/// by more than the parent's interquartile range.
fn gain(m: &Metric, parent: &[f64], change: &[f64]) -> bool {
    let better = |c: f64, p: f64| if m.lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let iqr = quartiles(parent).map_or(0.0, |(q1, q3)| q3 - q1);
    let (mp, mc) = (median(parent), median(change));
    pairs > 0 && wins as f64 >= PAIR_WINS * pairs as f64 && better(mc, mp) && (mc - mp).abs() > iqr
}

/// Prints one verdict per (workload, end-to-end metric) and checks each
/// `claims` entry (`workload:metric`) by the gain rule. Returns false
/// when a metric got worse beyond its bound or a claim is not met.
pub fn compare(
    cfg: &Config,
    parent: &[PathBuf],
    change: &[PathBuf],
    claims: &[String],
) -> Result<bool, String> {
    let (pf, cf) = (load(parent)?, load(change)?);
    let mut ok = true;
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "parent", "change", "delta", "bound"
    );
    for (w, _) in &cfg.workloads {
        for m in &cfg.end_to_end {
            let (p, c) = (values(&pf, w, &m.name), values(&cf, w, &m.name));
            if p.is_empty() || c.is_empty() {
                println!("{w:<14} {:<12} no data", m.name);
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let (mp, mc) = (median(&p), median(&c));
            let delta = (mc - mp) / mp;
            let worse = if m.lower_is_better { delta } else { -delta };
            let spread = rel_iqr(&p).unwrap_or(0.0).max(rel_iqr(&c).unwrap_or(0.0));
            let all_better = c.iter().all(|&x| {
                p.iter()
                    .all(|&y| if m.lower_is_better { x < y } else { x > y })
            });
            let verdict = if gain(m, &p, &c) || (spread > bound && all_better) {
                "better"
            } else if spread > bound {
                "unresolved (spread wider than the bound)"
            } else if worse > bound {
                ok = false;
                "WORSE beyond bound"
            } else {
                "within bound"
            };
            println!(
                "{w:<14} {:<12} {mp:>12.6} {mc:>12.6} {:>+7.1}% {:>6.0}%  {verdict}",
                m.name,
                delta * 100.0,
                bound * 100.0
            );
        }
    }
    for claim in claims {
        let (w, name) = claim
            .split_once(':')
            .ok_or_else(|| format!("--claim {claim:?}: expected workload:metric"))?;
        let m = cfg
            .end_to_end
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("--claim {claim:?}: no end-to-end metric {name:?}"))?;
        let met = gain(m, &values(&pf, w, name), &values(&cf, w, name));
        ok &= met;
        println!("claim {w} {name}: {}", if met { "met" } else { "NOT met" });
    }
    Ok(ok)
}
