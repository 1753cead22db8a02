//! The `inca-lint` command line.
//!
//! ```text
//! inca-lint [--root DIR] [--ownership FILE] [--report FILE] [--quiet]
//! ```
//!
//! Scans `crates/*/src/**/*.rs` under `--root` (default: the current
//! directory) — plus the tests, benches and examples cargo builds, for
//! the uses `dead-pub` and `narrow-pub` need — prints findings,
//! optionally writes `LINT_report.json`, and exits 1 if any unwaived
//! violation remains and 2 if a file cannot be read or parsed.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut ownership: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--ownership" => match args.next() {
                Some(v) => ownership = Some(PathBuf::from(v)),
                None => return usage("--ownership needs a file"),
            },
            "--report" => match args.next() {
                Some(v) => report_path = Some(PathBuf::from(v)),
                None => return usage("--report needs a file"),
            },
            "--quiet" => quiet = true,
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let ownership_file = ownership.unwrap_or_else(|| root.join("DESIGN.md"));
    let owners = inca_lint::load_ownership(&ownership_file);
    if owners.is_none() && !quiet {
        eprintln!(
            "inca-lint: no telemetry ownership map in {} — skipping the telemetry-ownership rule",
            ownership_file.display()
        );
    }

    let run = match inca_lint::run(&root, owners.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("inca-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let violations = run.violations();
    if !quiet {
        for f in &run.findings {
            let tag = if f.waived { "waived" } else { "VIOLATION" };
            println!("{}:{}: [{}] {} ({})", f.file, f.line, f.rule, f.message, tag);
        }
        let waived = run.findings.len() - violations.len();
        println!(
            "inca-lint: {} files, {} violation(s), {} waived",
            run.files_scanned,
            violations.len(),
            waived
        );
    }

    if let Some(path) = report_path {
        let json = inca_lint::report::render(&run.findings, run.files_scanned);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("inca-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("inca-lint: {err}");
    }
    eprintln!("usage: inca-lint [--root DIR] [--ownership FILE] [--report FILE] [--quiet]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
