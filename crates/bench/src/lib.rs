//! # sf-bench — benchmark harness for the Slim Fly paper
//!
//! One binary, `sf-bench`: `sf-bench table <name>` prints a static
//! table or figure of the paper's evaluation (the [`tables`]
//! registry), and `sf-bench run` runs a simulation figure, which is a
//! plan file under `figures/` (`sf-bench run figures/fig6.toml`).
//! Every table is a thin declarative program over the `slimfly`
//! experiment API: topologies come from
//! [`slimfly::spec::TopologySpec`] (and the [`slimfly::spec::roster`]
//! registry), and flags are parsed by the shared [`SweepArgs`] parser —
//! no per-table argument scanning or topology dispatch.

use slimfly::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::str::FromStr;

pub mod tables;

/// Writes one stdout line verbatim (pre-quoted CSV such as
/// [`Record::to_csv`], and plain status lines), exiting quietly when
/// the consumer hung up (`sf-bench … | head` must not panic with a
/// broken-pipe backtrace).
pub fn print_raw_line(line: &str) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("stdout write failed: {e}");
    }
}

/// A [`slimfly::sink::RecordSink`] that streams CSV rows to stdout as
/// jobs finish (broken-pipe-safe, like [`print_raw_line`]).
pub struct StdoutCsvSink;

impl slimfly::sink::RecordSink for StdoutCsvSink {
    fn begin(&mut self) -> Result<(), SfError> {
        print_raw_line(Record::CSV_HEADER);
        Ok(())
    }

    fn record(&mut self, r: &Record) -> Result<(), SfError> {
        print_raw_line(&r.to_csv());
        Ok(())
    }
}

/// The shared CLI parser of `sf-bench` and its tables.
///
/// Grammar: boolean flags (`--quiet`), valued flags (`--size 1024`),
/// comma-separated lists (`--loads 0.1,0.2`), and bare positional
/// values *before* any flag (`table vc_count --q 7`). Unknown flags,
/// valued flags without a value, and malformed values surface as typed
/// [`SfError::Cli`] errors, never panics or silent defaults.
#[derive(Clone, Debug, Default)]
pub struct SweepArgs {
    argv: Vec<String>,
    /// Flag names the command has queried — the recognized-flag set
    /// for [`SweepArgs::check_unknown_flags`].
    queried: RefCell<BTreeSet<String>>,
}

impl SweepArgs {
    /// Parses the process arguments (excluding the program name).
    pub fn parse() -> Self {
        SweepArgs::from_vec(std::env::args().skip(1).collect())
    }

    /// Builds from an explicit vector (tests).
    pub fn from_vec(argv: Vec<String>) -> Self {
        SweepArgs {
            argv,
            queried: RefCell::new(BTreeSet::new()),
        }
    }

    fn note(&self, name: &str) {
        self.queried.borrow_mut().insert(name.to_string());
    }

    /// True when the boolean flag `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.note(name);
        let tag = format!("--{name}");
        self.argv.contains(&tag)
    }

    /// Raw value of `--name`, when present. A valued flag that is the
    /// last token, or is followed by another `--` token, is an error:
    /// it must neither fall back to the default nor take the next
    /// flag's name as its value.
    pub fn get(&self, name: &str) -> Result<Option<&str>, SfError> {
        self.note(name);
        let tag = format!("--{name}");
        let Some(i) = self.argv.iter().position(|a| *a == tag) else {
            return Ok(None);
        };
        match self.argv.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.as_str())),
            _ => Err(SfError::Cli(format!("{tag} needs a value"))),
        }
    }

    /// The `idx`-th bare positional argument (0-based). Positionals
    /// must precede any `--flag`: the scan stops at the first flag
    /// token, since flag arity is unknowable here.
    pub fn positional(&self, idx: usize) -> Option<&str> {
        self.argv
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .nth(idx)
            .map(String::as_str)
    }

    /// Value of `--name` parsed as `T`, or `default` when absent.
    pub fn value<T: FromStr>(&self, name: &str, default: T) -> Result<T, SfError> {
        match self.get(name)? {
            None => Ok(default),
            Some(raw) => raw
                .parse::<T>()
                .map_err(|_| SfError::Cli(format!("--{name}: cannot parse {raw:?}"))),
        }
    }

    /// Comma-separated list value of `--name`, or `default` when absent.
    pub fn list<T: FromStr + Clone>(&self, name: &str, default: &[T]) -> Result<Vec<T>, SfError> {
        match self.get(name)? {
            None => Ok(default.to_vec()),
            Some(raw) => raw
                .split(',')
                .map(|v| {
                    v.parse::<T>().map_err(|_| {
                        SfError::Cli(format!("--{name}: cannot parse list item {v:?}"))
                    })
                })
                .collect(),
        }
    }

    /// Errors on any `--flag` in the argv the command never queried —
    /// typo protection. Every command calls it once it has read its
    /// flags and before it does any work, so a misspelt flag costs
    /// nothing and prints nothing on stdout.
    pub fn check_unknown_flags(&self) -> Result<(), SfError> {
        let queried = self.queried.borrow();
        for token in &self.argv {
            if let Some(name) = token.strip_prefix("--") {
                if !queried.contains(name) {
                    let accepts = if queried.is_empty() {
                        "this command takes no flags".to_string()
                    } else {
                        let known: Vec<String> = queried.iter().map(|n| format!("--{n}")).collect();
                        format!("this command accepts: {}", known.join(", "))
                    };
                    return Err(SfError::Cli(format!("unknown flag --{name} ({accepts})")));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> SweepArgs {
        SweepArgs::from_vec(s.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn sweep_args_flags_values_lists() {
        let a = args(&["--large", "--size", "512", "--loads", "0.1,0.5"]);
        assert!(a.flag("large"));
        assert!(!a.flag("small"));
        assert_eq!(a.value("size", 0usize).unwrap(), 512);
        assert_eq!(a.value("missing", 7u32).unwrap(), 7);
        assert_eq!(a.list("loads", &[0.9f64]).unwrap(), vec![0.1, 0.5]);
        assert_eq!(a.list("missing", &[0.9f64]).unwrap(), vec![0.9]);
    }

    #[test]
    fn sweep_args_typed_errors() {
        let a = args(&["--size", "many"]);
        assert!(matches!(
            a.value("size", 0usize).unwrap_err(),
            SfError::Cli(_)
        ));
        let a = args(&["--topo", "zz:q=1"]);
        assert!(matches!(
            a.value("topo", TopologySpec::slimfly(5)).unwrap_err(),
            SfError::Cli(_)
        ));
        let a = args(&["--traffic", "wurst"]);
        assert!(matches!(
            a.value("traffic", TrafficSpec::Uniform).unwrap_err(),
            SfError::Cli(_)
        ));
    }

    #[test]
    fn sweep_args_spec_and_positional() {
        let a = args(&["--topo", "df:p=3"]);
        assert_eq!(
            a.value("topo", TopologySpec::slimfly(5)).unwrap(),
            TopologySpec::dragonfly_balanced(3)
        );
        assert_eq!(
            a.value("other", TopologySpec::slimfly(5)).unwrap(),
            TopologySpec::slimfly(5)
        );

        // Positionals come before flags; the scan stops at the first
        // flag token.
        let a = args(&["4096", "extra", "--size", "512"]);
        assert_eq!(a.positional(0), Some("4096"));
        assert_eq!(a.positional(1), Some("extra"));
        assert_eq!(a.positional(2), None);
        let a = args(&["--size", "512", "late"]);
        assert_eq!(a.positional(0), None);
    }

    #[test]
    fn valued_flags_without_a_value_are_errors() {
        // `--quiet --out` must not run and write nothing; `--out
        // --quiet` must not write a file named `--quiet`; a trailing
        // `--workers` must not fall back to the default.
        for (argv, name) in [
            (&["run", "f.toml", "--quiet", "--out"][..], "out"),
            (&["run", "f.toml", "--out", "--quiet"][..], "out"),
            (&["run", "f.toml", "--workers"][..], "workers"),
        ] {
            let err = args(argv).value(name, String::new()).unwrap_err();
            assert!(matches!(err, SfError::Cli(_)), "{err}");
            assert!(
                err.to_string().contains(&format!("--{name} needs a value")),
                "{err}"
            );
        }
        let a = args(&["--loads", "--size", "512"]);
        assert!(a.list("loads", &[0.5f64]).is_err());
        assert_eq!(a.value("size", 0usize).unwrap(), 512);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let a = args(&["--trafic", "worst"]);
        let _ = a.get("traffic");
        let err = a.check_unknown_flags().unwrap_err();
        assert!(matches!(err, SfError::Cli(_)), "{err}");
        assert!(err.to_string().contains("--trafic"));
        assert!(
            err.to_string().contains("--traffic"),
            "suggests known flags"
        );

        // A command that reads no flag says so, rather than listing an
        // empty set.
        let err = args(&["validate", "f.toml", "--quite"])
            .check_unknown_flags()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad command line: unknown flag --quite (this command takes no flags)"
        );

        let a = args(&["--traffic", "worst"]);
        assert_eq!(a.get("traffic").unwrap(), Some("worst"));
        assert!(a.check_unknown_flags().is_ok());
    }
}
