//! Workspace umbrella crate: re-exports the `slimfly` facade for the
//! examples in `examples/` and the cross-crate integration tests in
//! `tests/`, and gives the examples one stdout writer ([`outln!`]).
//! Library users should depend on the `slimfly` crate directly.

pub use slimfly;

/// `println!` for the examples, safe on a closed pipe: when stdout's
/// reader has gone (`quickstart | head -1`), the process exits quietly
/// with status 0 instead of panicking, as `sf-bench` does.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_line(format_args!($($arg)*))
    };
}

/// Writes `args` and a newline to stdout through [`outln!`]; exits the
/// process with status 0 if stdout is a closed pipe.
pub fn write_line(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{args}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("stdout write failed: {e}");
    }
}
