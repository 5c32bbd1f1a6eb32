//! `sf_benchmark` — the figure pipeline measured end to end and layer by
//! layer. See README.md beside this package for the metric dictionary
//! and the workloads.
//!
//! ```text
//! sf_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! sf_benchmark run   [--workload NAME]... [--seed N] [--seconds S] [--out PATH]
//! sf_benchmark trace [--workload NAME]... [--seed N] [--spans DIR] [--out PATH]
//! sf_benchmark compare PARENT.json... -- CHANGE.json... [--claim WORKLOAD:METRIC]...
//! sf_benchmark bless [--workload NAME]...
//! sf_benchmark list
//! ```
//!
//! The first form measures one workload in this process and prints its
//! metrics, ending with one JSON line. `run` and `trace` run that form
//! once per workload, each in its own child process, one after another.
//! The exit code is non-zero only for harness errors; failed jobs are
//! reported through the `failed` count.

mod check;
mod compare;
mod config;
mod measure;
mod stats;
mod trace;

use config::{workload, Config, Metric, WORKLOADS};
use measure::Scratch;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = {
        let scratch = Scratch::new();
        match dispatch(&args, &scratch) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("sf_benchmark: error: {e}");
                2
            }
        }
    };
    std::process::exit(code);
}

fn dispatch(args: &[String], scratch: &Scratch) -> Result<i32, String> {
    let cfg = Config::load()?;
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("run") => suite(&cfg, rest, false),
        Some("trace") => suite(&cfg, rest, true),
        Some("compare") => compare_cmd(&cfg, rest),
        Some("bless") => bless(rest, scratch),
        Some("list") => {
            list(&cfg);
            Ok(0)
        }
        _ => one(&cfg, args, scratch),
    }
}

/// `--name value` flags; a flag may repeat.
struct Flags(BTreeMap<String, Vec<String>>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .filter(|n| allowed.contains(n))
                .ok_or_else(|| {
                    format!(
                        "unexpected argument {a:?} (flags: --{})",
                        allowed.join(" --")
                    )
                })?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.entry(name.to_string()).or_default().push(value.clone());
        }
        Ok(Flags(map))
    }

    fn all(&self, name: &str) -> &[String] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn one<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.all(name) {
            [] => Ok(None),
            [v] => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} {v:?} is not valid")),
            _ => Err(format!("--{name} given more than once")),
        }
    }
}

/// Measures one workload in this process (the `command` form
/// `BENCHMARK.json` names) and prints its metrics and the JSON result
/// line.
fn one(cfg: &Config, args: &[String], scratch: &Scratch) -> Result<i32, String> {
    let f = Flags::parse(args, &["workload", "seed", "seconds", "trace", "spans"])?;
    let name: String = f.one("workload")?.ok_or("--workload is required")?;
    let w = workload(&name)?;
    let seed: Option<u64> = f.one("seed")?;
    let seconds: f64 = f.one("seconds")?.unwrap_or(cfg.run_seconds as f64);
    let traced = match f.one::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t} (expected 0 or 1)")),
    };
    let spans: Option<PathBuf> = f.one("spans")?;

    let out = if traced {
        trace::trace_workload(w, seed, scratch, spans.as_deref())?
    } else {
        measure::run_workload(w, seed, seconds, scratch)?
    };

    let wanted = if traced {
        &cfg.per_layer
    } else {
        &cfg.end_to_end
    };
    let mut metrics: Vec<(&Metric, f64)> = Vec::new();
    for m in wanted {
        let v = *out
            .metrics
            .get(m.name.as_str())
            .ok_or_else(|| format!("BENCHMARK.json names {:?}, which is not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("{} measured as {v}", m.name));
        }
        println!("{name} {} {v} {}", m.name, m.unit);
        metrics.push((m, v));
    }
    for n in &out.notes {
        println!("{name} note: {n}");
    }
    println!(
        "{name} digests: {}",
        if out.pinned { "pinned" } else { "unpinned" }
    );
    let (attempted, failed) = (out.attempted, out.failed);
    println!(
        "{name} fail_frac {} ratio",
        failed as f64 / attempted.max(1) as f64
    );
    for why in out.failures.iter().take(20) {
        eprintln!("{name} failed: {why}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(0)
}

/// The workloads a suite command selects: every `--workload` given, or
/// all of them.
fn selected(f: &Flags) -> Result<Vec<&'static str>, String> {
    if f.all("workload").is_empty() {
        return Ok(WORKLOADS.iter().map(|w| w.name).collect());
    }
    f.all("workload")
        .iter()
        .map(|n| workload(n).map(|w| w.name))
        .collect()
}

/// `run` / `trace`: each workload in its own child process, one after
/// another; writes the collected result lines to one JSON file.
fn suite(cfg: &Config, args: &[String], traced: bool) -> Result<i32, String> {
    let f = Flags::parse(args, &["workload", "seed", "seconds", "out", "spans"])?;
    let seed: Option<u64> = f.one("seed")?;
    let seconds: u64 = f.one("seconds")?.unwrap_or(cfg.run_seconds);
    let kind = if traced { "trace" } else { "run" };
    let out: PathBuf = f
        .one("out")?
        .unwrap_or_else(|| Path::new(Scratch::ROOT).join(format!("{kind}.json")));
    let spans: PathBuf = f
        .one("spans")?
        .unwrap_or_else(|| Path::new(Scratch::ROOT).join("spans"));
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut results = Vec::new();
    for name in selected(&f)? {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(s) = seed {
            cmd.args(["--seed", &s.to_string()]);
        }
        if traced {
            cmd.arg("--spans").arg(spans.join(format!("{name}.jsonl")));
        }
        let child = cmd
            .output()
            .map_err(|e| format!("cannot start the {name} child: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        if !child.status.success() || toml::json::from_str(last).is_err() {
            return Err(format!("workload {name} failed to run ({})", child.status));
        }
        results.push(format!("\"{name}\": {last}"));
    }
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    // `"plan"`: each plan's own seed (the one the digests are pinned at).
    let seed_json = seed.map_or("\"plan\"".to_string(), |s| s.to_string());
    std::fs::write(
        &out,
        format!(
            "{{\"kind\": \"{kind}\", \"seed\": {seed_json}, \"seconds\": {seconds}, \"workloads\": {{{}}}}}\n",
            results.join(", ")
        ),
    )
    .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    if traced {
        println!("spans in {}", spans.display());
    }
    Ok(0)
}

fn compare_cmd(cfg: &Config, args: &[String]) -> Result<i32, String> {
    let (mut parent, mut change, mut claims) = (Vec::new(), Vec::new(), Vec::new());
    let mut it = args.iter();
    let mut second = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--" => second = true,
            "--claim" => claims.push(it.next().ok_or("--claim needs workload:metric")?.clone()),
            path if second => change.push(PathBuf::from(path)),
            path => parent.push(PathBuf::from(path)),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("usage: compare PARENT.json... -- CHANGE.json... [--claim W:M]...".into());
    }
    Ok(if compare::compare(cfg, &parent, &change, &claims)? {
        0
    } else {
        1
    })
}

/// Rewrites the pinned digests of the selected workloads at their
/// default seed and the current engine epoch. Run only when the records
/// are meant to change, after an engine-epoch bump.
fn bless(args: &[String], scratch: &Scratch) -> Result<i32, String> {
    let f = Flags::parse(args, &["workload"])?;
    for name in selected(&f)? {
        let w = workload(name)?;
        let (mut set, _) = measure::setup(w.plan, None)?;
        let dir = scratch.dir("bless")?;
        let cache = slimfly::ResultCache::open(dir.path()).map_err(|e| e.to_string())?;
        let cold = measure::pass(&mut set, &cache)?;
        let check = measure::check_cold(&set, &cold, None, None)?;
        if let Some((id, why)) = check
            .failures
            .iter()
            .enumerate()
            .find_map(|(id, v)| v.as_ref().map(|v| (id, v)))
        {
            return Err(format!("{name}: job {id} fails, refusing to pin it: {why}"));
        }
        let pins = check::Pins {
            epoch: slimfly::sim::ENGINE_EPOCH,
            seed: measure::plan_seed(&measure::parse_plan(w.plan, None)?)?,
            digests: check.digests.into_iter().flatten().collect(),
        };
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("expected")
            .join(format!("{name}.digests"));
        std::fs::write(&path, pins.render(name, &set))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "{name}: pinned {} digests at epoch {} seed {} in {}",
            pins.digests.len(),
            pins.epoch,
            pins.seed,
            path.display()
        );
    }
    Ok(0)
}

fn list(cfg: &Config) {
    println!("workloads:");
    for (name, why) in &cfg.workloads {
        println!("  {name:<14} {why}");
    }
    for (title, metrics) in [
        ("end-to-end", &cfg.end_to_end),
        ("per-layer", &cfg.per_layer),
    ] {
        println!("{title} metrics:");
        for m in metrics {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
            println!(
                "  {:<24} {:<6} {} is better{bound}",
                m.name,
                m.unit,
                if m.lower_is_better { "lower" } else { "higher" }
            );
        }
    }
}
