//! The `eq_lint` binary: runs the workspace static-analysis pass.
//!
//! ```text
//! cargo run -p eq_lint                         # lint the workspace
//! cargo run -p eq_lint -- --deny-warnings      # warnings fail too (CI)
//! cargo run -p eq_lint -- --root DIR           # lint another tree
//! cargo run -p eq_lint -- --policy FILE        # explicit policy file
//! ```
//!
//! Exit status: 0 clean, 1 violations (or warnings under
//! `--deny-warnings`), 2 usage or I/O/policy error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut root: Option<PathBuf> = None;
    let mut policy_path: Option<PathBuf> = None;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--root" => match argv.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a value"),
            },
            "--policy" => match argv.next() {
                Some(v) => policy_path = Some(PathBuf::from(v)),
                None => return usage("--policy needs a value"),
            },
            "--help" | "-h" => {
                println!(
                    "eq_lint: serving-tier invariant checks\n\
                     usage: eq_lint [--deny-warnings] [--root DIR] [--policy FILE]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // Default root: the workspace this binary was built from, so
    // `cargo run -p eq_lint` works from any directory.
    let root = root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let policy_path = policy_path.unwrap_or_else(|| root.join("lint.toml"));

    let policy = match eq_lint::load_policy(&policy_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("eq_lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match eq_lint::run(&root, &policy) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("eq_lint: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render());
    if report.is_clean(deny_warnings) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("eq_lint: {message}\nusage: eq_lint [--deny-warnings] [--root DIR] [--policy FILE]");
    ExitCode::from(2)
}
