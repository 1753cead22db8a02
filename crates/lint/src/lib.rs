//! `inca-lint`: a self-contained static analyzer for the INCA workspace.
//!
//! The pipeline (see `DESIGN.md` §10) runs in five stages:
//!
//! 1. **lex** (`lexer`) — tokens, waiver comments, `// SAFETY:` lines;
//! 2. **parse** (`ast`) — an item-level AST per file: fns with their
//!    parameters, return types and bodies, impls, structs and unions
//!    with their fields, enums with their variants, consts, use-trees,
//!    declaration lines and `#[cfg(test)]` spans. It is the only
//!    structure parser: no rule re-parses tokens for these. A file the
//!    parser cannot recover cleanly fails the run;
//! 3. **per-file rules** (`rules`) — `raw-unit`, `determinism`,
//!    `panic-path`, `telemetry-ownership`, `safety-comment`,
//!    `event-coverage`;
//! 4. **workspace semantics** (`symbols`, `callgraph`, `taint`,
//!    `deadpub`) — a symbol table over every crate, a conservative call
//!    graph, the `determinism-taint` pass that propagates
//!    nondeterminism sources to report-serialization sinks, printing
//!    full source → sink call chains, and the `dead-pub`/`narrow-pub`
//!    pass over every file cargo builds;
//! 5. **waiver audit** (`rules::check_stale_waivers`) — the global
//!    `stale-waiver` rule flags `lint: allow(..)` comments that no
//!    longer suppress anything.
//!
//! The analyzer is dependency-free and deterministic: the emitted
//! `LINT_report.json` is byte-identical across runs of the same tree.
//! Run it with `cargo run -p inca-lint`; it exits non-zero when any
//! unwaived violation exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod callgraph;
mod deadpub;
mod lexer;
pub mod report;
mod rules;
mod symbols;
mod taint;

use std::path::{Path, PathBuf};

use ast::Ast;
use callgraph::CallGraph;
use lexer::{Lexed, Token};
use rules::SourceFile;
pub use rules::{Finding, OwnershipMap};
use symbols::SymbolTable;

/// Everything one lint run produces.
pub struct LintRun {
    /// All findings (violations and waived), sorted by file, line, rule.
    pub findings: Vec<Finding>,
    /// Number of `crates/*/src` files scanned.
    pub files_scanned: usize,
}

impl LintRun {
    /// Findings that are not waived — the CI-failing set.
    #[must_use]
    pub fn violations(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.waived).collect()
    }
}

/// Collects every `crates/<name>/src/**/*.rs` under `root`, in sorted
/// order. Returns `(crate_name, path)` pairs.
///
/// # Errors
///
/// Returns a message naming the unreadable directory.
pub(crate) fn collect_sources(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    for (name, dir) in crate_dirs(root)? {
        walk_rs(&dir.join("src"), &name, &mut out)?;
    }
    Ok(out)
}

/// Collects the other `.rs` files cargo builds, whose identifiers can
/// name a public item: `crates/<name>/{tests,benches,examples}` and the
/// root package's `src`, `tests` and `examples` (root files carry an
/// empty crate name).
fn collect_consumers(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    for (name, dir) in crate_dirs(root)? {
        for sub in ["tests", "benches", "examples"] {
            walk_rs(&dir.join(sub), &name, &mut out)?;
        }
    }
    for sub in ["src", "tests", "examples"] {
        walk_rs(&root.join(sub), "", &mut out)?;
    }
    Ok(out)
}

/// `(name, path)` of every directory under `root/crates`, sorted.
fn crate_dirs(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let crates_dir = root.join("crates");
    let entries =
        std::fs::read_dir(&crates_dir).map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut dirs: Vec<(String, PathBuf)> = entries
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .filter_map(|p| Some((p.file_name()?.to_str()?.to_string(), p)))
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// Appends the `.rs` files under `dir` (if it exists), sorted, skipping
/// `fixtures` directories: they hold workspaces of their own, which
/// cargo does not build.
fn walk_rs(dir: &Path, crate_name: &str, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    fn go(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries.filter_map(std::result::Result::ok) {
            let p = entry.path();
            if p.is_dir() {
                if !p.ends_with("fixtures") {
                    go(&p, files)?;
                }
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
        Ok(())
    }
    if dir.is_dir() {
        let mut files = Vec::new();
        go(dir, &mut files)?;
        files.sort();
        out.extend(files.into_iter().map(|f| (crate_name.to_string(), f)));
    }
    Ok(())
}

/// Reads, lexes and parses each file.
///
/// # Errors
///
/// Returns a message naming a file that cannot be read, or the file and
/// line where the parser could not recover.
fn load(root: &Path, paths: Vec<(String, PathBuf)>) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::with_capacity(paths.len());
    for (crate_name, path) in paths {
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        let file = SourceFile::new(&rel, &crate_name, file_name, &src);
        if let Some(e) = file.ast.errors.first() {
            return Err(format!("cannot parse {rel}:{}: {}", e.line, e.message));
        }
        files.push(file);
    }
    Ok(files)
}

/// Runs the full pipeline over the workspace at `root`.
///
/// `owners` is `None` when no ownership map is available (the
/// telemetry-ownership rule is then skipped).
///
/// # Errors
///
/// Returns a message if the source tree cannot be read or a file does
/// not parse.
pub fn run(root: &Path, owners: Option<&OwnershipMap>) -> Result<LintRun, String> {
    let files = load(root, collect_sources(root)?)?;
    let consumers = load(root, collect_consumers(root)?)?;

    // Workspace symbols and call graph.
    let meta: Vec<(String, String)> =
        files.iter().map(|f| (f.crate_name.clone(), f.rel_path.clone())).collect();
    let pairs: Vec<(&Ast, &[Token])> = files.iter().map(|f| (&f.ast, f.lexed.tokens.as_slice())).collect();
    let table = SymbolTable::build(&meta, &pairs);
    let streams: Vec<&[Token]> = files.iter().map(|f| f.lexed.tokens.as_slice()).collect();
    let graph = CallGraph::build(&table, &streams);

    // Stage 3: per-file rules.
    let mut findings = Vec::new();
    for file in &files {
        rules::check_raw_unit(file, &mut findings);
        rules::check_determinism(file, &table, &mut findings);
        rules::check_panic_path(file, &mut findings);
        rules::check_safety_comment(file, &mut findings);
        if let Some(map) = owners {
            rules::check_telemetry_ownership(file, map, &mut findings);
            if file.crate_name == "telemetry" && file.file_name == "event.rs" {
                rules::check_event_coverage(file, map, &mut findings);
            }
        }
    }

    // Stage 4: the workspace-global passes.
    let lexeds: Vec<&Lexed> = files.iter().map(|f| &f.lexed).collect();
    taint::run(&table, &graph, &streams, &lexeds, &mut findings);
    deadpub::check_public_items(&files, &consumers, &mut findings);

    // Stage 5: the stale-waiver audit sees every finding above.
    rules::check_stale_waivers(&files, &mut findings);

    findings.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(LintRun { findings, files_scanned: files.len() })
}

/// Loads the telemetry ownership map from a DESIGN.md-style file.
///
/// Returns `None` when the file does not exist or holds no map.
#[must_use]
pub fn load_ownership(path: &Path) -> Option<OwnershipMap> {
    let text = std::fs::read_to_string(path).ok()?;
    let map = rules::parse_ownership(&text);
    if map.is_empty() {
        None
    } else {
        Some(map)
    }
}
