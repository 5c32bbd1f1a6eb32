//! What the benchmark measures: the workloads (embedded plans and
//! pinned digests) and the metric dictionary, read from the
//! repository's `BENCHMARK.json` so names, units and bounds live in one
//! place.

use toml::Value;

/// One workload: an embedded experiment plan plus the record digests
/// pinned for its default seed.
pub struct Workload {
    pub name: &'static str,
    pub plan: &'static str,
    pub pins: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "q19_uniform",
        plan: include_str!("../workloads/q19_uniform.toml"),
        pins: include_str!("../expected/q19_uniform.digests"),
    },
    Workload {
        name: "q7_saturation",
        plan: include_str!("../workloads/q7_saturation.toml"),
        pins: include_str!("../expected/q7_saturation.digests"),
    },
    Workload {
        name: "flow_scale",
        plan: include_str!("../workloads/flow_scale.toml"),
        pins: include_str!("../expected/flow_scale.digests"),
    },
    Workload {
        name: "q19_faults",
        plan: include_str!("../workloads/q19_faults.toml"),
        pins: include_str!("../expected/q19_faults.digests"),
    },
];

/// Scheduler workers for every untraced run. Fixed, not derived from
/// the machine, so results compare across hosts of the same size: 2 is
/// the core count of the host the bounds were calibrated on.
pub const WORKERS: usize = 2;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One metric of the dictionary.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Regression bound as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
pub struct Config {
    pub run_seconds: u64,
    /// `(name, why)` in file order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Config {
    /// Parses the embedded `BENCHMARK.json` and checks that its
    /// workloads are exactly the embedded plans.
    pub fn load() -> Result<Config, String> {
        let v = toml::json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let run_seconds = v
            .get("run_seconds")
            .and_then(Value::as_int)
            .filter(|&s| s > 0)
            .ok_or("BENCHMARK.json: run_seconds must be a positive integer")?
            as u64;
        let workloads = array(&v, "workloads")?
            .iter()
            .map(|w| Ok((string(w, "name")?, string(w, "why")?)))
            .collect::<Result<Vec<_>, String>>()?;
        let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
        let embedded: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        if names != embedded {
            return Err(format!(
                "BENCHMARK.json workloads {names:?} differ from the embedded plans {embedded:?}"
            ));
        }
        Ok(Config {
            run_seconds,
            workloads,
            end_to_end: metrics(&v, "end_to_end")?,
            per_layer: metrics(&v, "per_layer")?,
        })
    }
}

pub fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (expected one of {all:?})")
    })
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: {key} must be an array"))
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: every entry needs a string {key:?}"))
}

fn metrics(v: &Value, key: &str) -> Result<Vec<Metric>, String> {
    array(v, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                lower_is_better: match string(m, "better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: m.get("bound").and_then(Value::as_float),
            })
        })
        .collect()
}
