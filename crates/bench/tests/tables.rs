//! The static paper tables behind `sf-bench table <name>`: each one
//! rejects a misspelt flag before it computes, and each one's output
//! is pinned byte for byte against `tests/golden/<name>.csv`.
//!
//! Regenerate the goldens after an intentional change with:
//! `SF_BLESS=1 cargo test -p sf-bench --test tables`

use sf_bench::tables::TABLES;
use sf_bench::SweepArgs;
use slimfly::SfError;
use std::path::Path;

fn args(argv: &[&str]) -> SweepArgs {
    SweepArgs::from_vec(argv.iter().map(|s| s.to_string()).collect())
}

/// A table reads and checks its flags before any work: a misspelt one
/// is a typed error naming it, returned before a single row is
/// computed. (A table that computed first would return `Ok` here, and
/// at its default sizes would also make this test slow.)
#[test]
fn every_table_rejects_an_unknown_flag_before_work() {
    for (name, table) in TABLES {
        match table(&args(&["table", name, "--no-such-flag"])) {
            Err(SfError::Cli(msg)) => {
                assert!(msg.contains("unknown flag --no-such-flag"), "{name}: {msg}")
            }
            Err(e) => panic!("{name}: expected a flag error, got {e}"),
            Ok(_) => panic!("{name}: accepted --no-such-flag"),
        }
    }
}

/// The flags each golden is captured at: the table's defaults, except
/// where a debug build would take seconds (fig1 at its default sizes
/// takes about 40 s).
fn golden_flags(name: &str) -> &'static [&'static str] {
    match name {
        "fig1_avg_hops" => &["--sizes", "256,512"],
        "table3_disconnect" => &["--sizes", "256"],
        "resil_diameter" | "resil_pathlen" => &["--size", "256"],
        _ => &[],
    }
}

/// Every table's stdout, byte for byte. A table without a golden file
/// fails, so a new table must be pinned when it is registered.
///
/// Where a golden is captured at the paper's own configuration, it
/// states how far this reproduction lands from the paper's figures:
///
/// - `table4_cost_power`: SF(q=19) costs $1,099 and 8.21 W per
///   endpoint here; the paper gives $1,033 and 8.02 W (+6.4% and
///   +2.4%). The Dragonfly with k = 43 (`df:a=22,h=11,p=11,g=45`)
///   costs $1,432 and 10.95 W per endpoint; the paper gives $1,365
///   and 10.9 W (+4.9% and +0.5%). Cables are counted from an explicit
///   layout and include endpoint cables, which the paper's counts do
///   not.
/// - `fig5a_moore2`: k' = 96 gives 8,192 routers against a Moore bound
///   of 9,217 (0.889), as in the paper.
/// - `zoo_variants`: 12 balanced Slim Flies up to 20,000 endpoints, 11
///   of them with q ≥ 4 as in the paper's count of 11, and 8 balanced
///   Dragonflies as in the paper (the counts go to stderr).
#[test]
fn every_table_matches_its_golden() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let bless = std::env::var_os("SF_BLESS").is_some();
    let mut drifted = Vec::new();
    for (name, table) in TABLES {
        let mut argv = vec!["table", name];
        argv.extend(golden_flags(name));
        let got = table(&args(&argv)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let golden = dir.join(format!("{name}.csv"));
        if bless {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&golden, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
            panic!(
                "{name}: no golden at {}; bless it with SF_BLESS=1",
                golden.display()
            )
        });
        if got != want {
            drifted.push(*name);
        }
    }
    assert!(
        drifted.is_empty(),
        "tables drifted from tests/golden: {drifted:?}; if intentional, regenerate with \
         SF_BLESS=1 cargo test -p sf-bench --test tables"
    );
}
