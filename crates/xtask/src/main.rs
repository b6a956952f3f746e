//! `minos-xtask` — workspace static analysis.
//!
//! Usage:
//!   `cargo run -p minos-xtask -- lint [--json] [--root <path>]`
//!   `cargo run -p minos-xtask -- spec [--check | --write] [--root <path>]`
//!   `cargo run -p minos-xtask -- rules`
//!   `cargo run -p minos-xtask -- code-lines <files…>`
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use minos_xtask::{lint_workspace, spec, spec_workspace, SourceFile, RULES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: minos-xtask lint [--json] [--root <path>] \
                     | minos-xtask spec [--check | --write] [--root <path>] \
                     | minos-xtask rules \
                     | minos-xtask code-lines <file.rs>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter();
    let cmd = match args.next().map(String::as_str) {
        Some(cmd @ ("lint" | "spec")) => cmd,
        Some("rules") => {
            for r in RULES {
                println!("{:5} [{}] {}", r.code, r.pass, r.summary);
            }
            return ExitCode::SUCCESS;
        }
        Some("code-lines") => return run_code_lines(args.as_slice()),
        other => {
            eprintln!("{USAGE}");
            if let Some(o) = other {
                eprintln!("unknown subcommand {o:?}");
            }
            return ExitCode::from(2);
        }
    };

    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut check = false;
    let mut write = false;
    while let Some(arg) = args.next() {
        match (cmd, arg.as_str()) {
            (_, "--root") => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            ("lint", "--json") => json = true,
            ("spec", "--check") => check = true,
            ("spec", "--write") => write = true,
            (_, other) => {
                eprintln!("unknown argument {other:?} for {cmd}");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if check && write {
        eprintln!("--check and --write are mutually exclusive");
        return ExitCode::from(2);
    }
    // The xtask crate lives at <workspace>/crates/xtask, so the default
    // workspace root is two levels up from the manifest.
    let root =
        root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."));

    if cmd == "spec" {
        return run_spec(&root, check, write);
    }
    run_lint(&root, json)
}

fn run_lint(root: &Path, json: bool) -> ExitCode {
    match lint_workspace(root) {
        Ok(outcome) if json => {
            let objects: Vec<String> = outcome.errors.iter().map(|d| d.to_json()).collect();
            println!("[{}]", objects.join(","));
            if outcome.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(outcome) if outcome.is_clean() => {
            println!(
                "minos-xtask lint: {} files clean (wire tags, panic-freedom, queue growth, \
                 alloc hygiene, unit-safety, text/voice symmetry, codec coverage)",
                outcome.checked_files
            );
            ExitCode::SUCCESS
        }
        Ok(outcome) => {
            for d in &outcome.errors {
                eprintln!("{d}");
            }
            eprintln!(
                "minos-xtask lint: {} finding(s) across {} files",
                outcome.errors.len(),
                outcome.checked_files
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("minos-xtask lint: I/O error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `spec`: print the extracted spec JSON; `--write` updates the committed
/// golden; `--check` additionally diffs against it. Conformance (`X001`)
/// findings always fail the run.
fn run_spec(root: &Path, check: bool, write: bool) -> ExitCode {
    let outcome = match spec_workspace(root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("minos-xtask spec: I/O error: {e}");
            return ExitCode::from(2);
        }
    };
    if !outcome.errors.is_empty() {
        for d in &outcome.errors {
            eprintln!("{d}");
        }
        eprintln!("minos-xtask spec: {} conformance finding(s)", outcome.errors.len());
        return ExitCode::FAILURE;
    }
    let rendered = outcome.spec.to_json();
    if write {
        let path = root.join(spec::GOLDEN_FILE);
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("minos-xtask spec: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("minos-xtask spec: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("minos-xtask spec: wrote {}", spec::GOLDEN_FILE);
        return ExitCode::SUCCESS;
    }
    if check {
        let drift = spec::check_golden(root, &outcome.spec);
        if !drift.is_empty() {
            for d in &drift {
                eprintln!("{d}");
            }
            return ExitCode::FAILURE;
        }
        println!("minos-xtask spec: extraction matches {}", spec::GOLDEN_FILE);
        return ExitCode::SUCCESS;
    }
    print!("{rendered}");
    ExitCode::SUCCESS
}

/// `code-lines`: the library code lines of each file (see
/// [`SourceFile::code_line_count`]), then their total.
fn run_code_lines(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut total = 0;
    for path in paths {
        let count = match SourceFile::load(Path::new(path), path) {
            Ok(file) => file.code_line_count(),
            Err(e) => {
                eprintln!("minos-xtask code-lines: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        println!("{count:6} {path}");
        total += count;
    }
    println!("{total:6} total");
    ExitCode::SUCCESS
}
