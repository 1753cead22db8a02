//! The per-file lint rules (plus the global `stale-waiver` pass).
//!
//! * `raw-unit` (L1) — public items whose names carry a unit suffix
//!   (`_j`, `_s`, `_pj`, `_mm2`, `_hz`) must be typed with an
//!   `inca-units` newtype, not a bare `f64`/`f32`.
//! * `determinism` (L2) — report-producing crates (`inca-sim`,
//!   `inca-serve`, `inca-net`) must not read wall clocks or entropy, and
//!   their report files (the taint pass's sinks) must not iterate
//!   hash-ordered collections. The
//!   iteration check runs over the AST + symbol table (covers
//!   `use .. as ..` aliases and local `let` rebindings of hash-typed
//!   fields, honors the sort-before-serialize sanitizer).
//! * `panic-path` (L3) — library code must not call `unwrap`/`expect`
//!   or invoke `panic!`-family macros outside `#[cfg(test)]`.
//! * `telemetry-ownership` (L4) — `record(Event::…)`/`incr(Event::…)`
//!   call sites must live in the crate that owns the event per the
//!   machine-readable map in `DESIGN.md`.
//! * `safety-comment` (L5) — every non-test `unsafe { … }` block (the
//!   `std::arch` SIMD kernels) must carry a `// SAFETY:` comment on the
//!   same line or within the three lines above it.
//! * `event-coverage` (L6) — every variant of the telemetry `Event`
//!   enum must have an owner line in the DESIGN.md map; a new event
//!   without one would dodge L4 entirely.
//! * `stale-waiver` (L8, global) — every `// lint: allow(rule)` comment
//!   must still suppress at least one finding (of any rule, including
//!   the `determinism-taint` pass in `taint.rs`, which is L7); a waiver
//!   that no longer bites is dead documentation and must be removed.
//! * `dead-pub` (L9, global) — lives in `deadpub.rs`: a public item
//!   that nothing names outside its own definition and tests.
//! * `narrow-pub` (L10, global) — the same pass: a public item that
//!   nothing outside its own crate names except tests and benches.
//!
//! Every rule is waivable per line with `// lint: allow(rule-name)` —
//! on the offending line or the line directly above. Waived findings
//! are counted and reported, never silently dropped.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::ast::{Ast, ItemKind};
use crate::lexer::{Lexed, Token};
use crate::symbols::SymbolTable;
use crate::taint::SourceKind;

/// The `inca-units` newtype names L1 accepts as "typed".
const UNIT_TYPES: [&str; 9] = [
    "Energy",
    "Time",
    "Power",
    "Area",
    "Frequency",
    "PowerDensity",
    "EnergyDensity",
    "EnergyPerBit",
    "EnergyPerBeat",
];

/// Name suffixes L1 recognizes as unit-bearing.
const UNIT_SUFFIXES: [&str; 5] = ["_j", "_s", "_pj", "_mm2", "_hz"];

/// One finding (violation or waived violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`raw-unit`, `determinism`, `panic-path`,
    /// `telemetry-ownership`, `safety-comment`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Whether a `lint: allow` comment waived this finding.
    pub waived: bool,
}

/// One source file prepared for rule checks.
pub(crate) struct SourceFile {
    /// Workspace-relative path (used in findings).
    pub(crate) rel_path: String,
    /// The `<name>` of the owning `crates/<name>/` directory.
    pub(crate) crate_name: String,
    /// Bare file name (`report.rs`).
    pub(crate) file_name: String,
    /// Lexed tokens and waivers.
    pub(crate) lexed: Lexed,
    /// Token indices inside `#[cfg(test)]` code (excluded from rules).
    pub(crate) test_mask: Vec<bool>,
    /// Item-level AST (a lint run fails on a file with parse errors).
    pub(crate) ast: Ast,
}

impl SourceFile {
    /// Lexes and parses `src` and computes the `#[cfg(test)]` mask.
    #[must_use]
    pub(crate) fn new(rel_path: &str, crate_name: &str, file_name: &str, src: &str) -> Self {
        let lexed = crate::lexer::lex(src);
        let ast = crate::ast::parse(&lexed.tokens);
        let test_mask = ast.test_mask(&lexed.tokens);
        Self {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            file_name: file_name.to_string(),
            lexed,
            test_mask,
            ast,
        }
    }

    fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// Records a finding, consulting the waiver map.
    pub(crate) fn push(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
        out.push(Finding {
            rule,
            file: self.rel_path.clone(),
            line,
            message,
            waived: self.lexed.is_waived(rule, line),
        });
    }
}

/// L1: public unit-suffixed fns, fields, consts and statics must use
/// `inca-units` newtypes.
pub(crate) fn check_raw_unit(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.crate_name == "units" {
        return; // the definitions themselves
    }
    let raw = |name: &str, (start, end): (usize, usize)| {
        let ty = &file.tokens()[start..=end];
        let has = |names: &[&str]| ty.iter().any(|t| t.ident().is_some_and(|id| names.contains(&id)));
        has_unit_suffix(name) && has(&["f64", "f32"]) && !has(&UNIT_TYPES)
    };
    let item = |name: &str| {
        format!("public item `{name}` has a unit suffix but a bare float type; use an inca-units newtype")
    };
    file.ast.walk(&mut |it| {
        if it.cfg_test {
            return;
        }
        match &it.kind {
            ItemKind::Fn { ret: Some(ret), .. } if it.public && raw(&it.name, *ret) => file.push(
                out,
                "raw-unit",
                it.decl_line,
                format!(
                    "public fn `{}` has a unit suffix but returns a bare float; return an inca-units newtype",
                    it.name
                ),
            ),
            ItemKind::Const { ty } | ItemKind::Static { ty } if it.public && raw(&it.name, *ty) => {
                file.push(out, "raw-unit", it.decl_line, item(&it.name));
            }
            ItemKind::Struct { fields } | ItemKind::Union { fields } => {
                for f in fields.iter().filter(|f| f.public && !f.cfg_test && raw(&f.name, f.ty)) {
                    file.push(out, "raw-unit", f.line, item(&f.name));
                }
            }
            _ => {}
        }
    });
}

/// Whether `name`, in either case, ends in a unit suffix.
fn has_unit_suffix(name: &str) -> bool {
    let lower = name.to_lowercase();
    UNIT_SUFFIXES.iter().any(|s| lower.ends_with(s))
}

/// L2: determinism in report-producing crates.
///
/// Clock/entropy idents are flagged from the token stream (they are
/// unambiguous wherever they appear, `use` lines included). On report
/// paths, *iteration* of a hash-typed value is flagged, resolved
/// through `use .. as ..` aliases, struct fields and `let` rebindings,
/// with the sort-before-serialize sanitizer honored.
pub(crate) fn check_determinism(file: &SourceFile, table: &SymbolTable, out: &mut Vec<Finding>) {
    if file.crate_name != "sim" && file.crate_name != "serve" && file.crate_name != "net" {
        return;
    }
    let toks = file.tokens();
    for (idx, t) in toks.iter().enumerate() {
        if file.test_mask[idx] {
            continue;
        }
        let Some(id) = t.ident() else { continue };
        match id {
            "Instant" | "SystemTime" => file.push(
                out,
                "determinism",
                t.line,
                format!("`{id}` reads the wall clock; report crates must stay virtual-time deterministic"),
            ),
            "thread_rng" | "from_entropy" => file.push(
                out,
                "determinism",
                t.line,
                format!("`{id}` draws OS entropy; use a seeded `StdRng` stream instead"),
            ),
            _ => {}
        }
    }
    if !crate::taint::is_report_file(&file.crate_name, &file.file_name) {
        return;
    }
    for info in table.fns.iter().filter(|f| f.file == file.rel_path && !f.cfg_test) {
        let Some(body) = info.body else { continue };
        let sites =
            crate::taint::fn_sources(table, toks, &info.params, body, info.container.as_deref(), &file.lexed);
        for s in sites {
            if s.kind == SourceKind::HashIter {
                file.push(
                    out,
                    "determinism",
                    s.line,
                    format!("{}; report paths must use `BTreeMap` or sort before emitting", s.desc),
                );
            }
        }
    }
}

/// L8 (global, runs last): flags `// lint: allow(rule)` comments that
/// no longer suppress any finding.
///
/// A waiver at line `L` covers findings at `L` and `L + 1` (see
/// [`Lexed::is_waived`]); it is *live* iff some waived finding of the
/// named rule sits in that window. Dead waivers are documentation debt:
/// they claim an exemption that the code no longer needs, and they
/// would silently re-arm if the finding ever came back shifted by a
/// line. `stale-waiver` waivers themselves are exempt from the
/// recursion (a waiver for this rule marks an intentionally-kept
/// waiver, e.g. one covering generated code that toggles).
pub(crate) fn check_stale_waivers(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let mut extra = Vec::new();
    for file in files {
        for (&line, rules) in &file.lexed.waivers {
            for rule in rules {
                if rule == "stale-waiver" {
                    continue;
                }
                let live = findings.iter().any(|f| {
                    f.waived
                        && f.rule == rule
                        && f.file == file.rel_path
                        && (f.line == line || f.line == line + 1)
                });
                if !live {
                    extra.push(Finding {
                        rule: "stale-waiver",
                        file: file.rel_path.clone(),
                        line,
                        message: format!(
                            "`lint: allow({rule})` no longer suppresses any finding; remove the waiver"
                        ),
                        waived: file.lexed.is_waived("stale-waiver", line),
                    });
                }
            }
        }
    }
    findings.extend(extra);
}

/// L3: no panic paths in non-test library code.
///
/// Binary entry points (`src/main.rs`, `src/bin/**`) are exempt: a CLI
/// that cannot proceed should abort with a message, and those crates'
/// library surface is checked separately.
pub(crate) fn check_panic_path(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.file_name == "main.rs" || file.rel_path.contains("/src/bin/") {
        return;
    }
    let toks = file.tokens();
    for (idx, t) in toks.iter().enumerate() {
        if file.test_mask[idx] {
            continue;
        }
        let Some(id) = t.ident() else { continue };
        match id {
            "unwrap" | "expect" => {
                let dotted = idx > 0 && toks[idx - 1].is_punct('.');
                let called = toks.get(idx + 1).is_some_and(|n| n.is_punct('('));
                if dotted && called {
                    file.push(
                        out,
                        "panic-path",
                        t.line,
                        format!("`.{id}()` panics on the error path; return a typed error or add a documented waiver"),
                    );
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if toks.get(idx + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                file.push(
                    out,
                    "panic-path",
                    t.line,
                    format!("`{id}!` aborts the process; return a typed error or add a documented waiver"),
                );
            }
            _ => {}
        }
    }
}

/// The telemetry ownership map: event variant → crates allowed to record
/// it.
pub type OwnershipMap = BTreeMap<String, BTreeSet<String>>;

/// L4: `record(Event::…)`/`incr(Event::…)` call sites must live in an
/// owning crate.
pub(crate) fn check_telemetry_ownership(file: &SourceFile, owners: &OwnershipMap, out: &mut Vec<Finding>) {
    if file.crate_name == "telemetry" {
        return; // the definitions and their plumbing
    }
    let toks = file.tokens();
    for idx in 0..toks.len() {
        if file.test_mask[idx] {
            continue;
        }
        // Match `Event :: Variant`.
        if toks[idx].ident() != Some("Event")
            || !(toks.get(idx + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(idx + 2).is_some_and(|t| t.is_punct(':')))
        {
            continue;
        }
        let Some(variant) = toks.get(idx + 3).and_then(Token::ident) else { continue };
        // Only call sites: `record(` or `incr(` within the few preceding
        // tokens (allowing `tel :: record ( tel :: Event`).
        let window_start = idx.saturating_sub(6);
        let is_call_site =
            toks[window_start..idx].iter().any(|t| matches!(t.ident(), Some("record" | "incr")));
        if !is_call_site {
            continue;
        }
        let Some(allowed) = owners.get(variant) else {
            file.push(
                out,
                "telemetry-ownership",
                toks[idx].line,
                format!("`Event::{variant}` is not in the DESIGN.md ownership map; add it under §10"),
            );
            continue;
        };
        if !allowed.contains(&file.crate_name) {
            file.push(
                out,
                "telemetry-ownership",
                toks[idx].line,
                format!(
                    "`Event::{variant}` is owned by {:?} but recorded from crate `{}`",
                    allowed.iter().cloned().collect::<Vec<_>>(),
                    file.crate_name
                ),
            );
        }
    }
}

/// L5: every `unsafe { … }` block must be justified by a `// SAFETY:`
/// comment on the same line or within the three lines above it.
///
/// Only block expressions are checked: `unsafe fn`/`unsafe impl`/
/// `unsafe trait` declarations state their contract in `# Safety` doc
/// sections instead (and their *callers* are the `unsafe { … }` blocks
/// this rule covers). `#[cfg(test)]` code is exempt like every rule.
pub(crate) fn check_safety_comment(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = file.tokens();
    for (idx, t) in toks.iter().enumerate() {
        if file.test_mask[idx] || t.ident() != Some("unsafe") {
            continue;
        }
        if !toks.get(idx + 1).is_some_and(|n| n.is_punct('{')) {
            continue;
        }
        let line = t.line;
        let covered = (line.saturating_sub(3)..=line).any(|l| file.lexed.safety_lines.contains(&l));
        if !covered {
            file.push(
                out,
                "safety-comment",
                line,
                "`unsafe` block without a `// SAFETY:` comment; state the upheld invariant on the line(s) above".to_string(),
            );
        }
    }
}

/// L6: every `Event` variant must have an owner in the DESIGN.md map.
///
/// Runs only over the telemetry crate's `event.rs` (the single source
/// of the taxonomy). Without this check, adding a variant and recording
/// it from anywhere would pass L4 with the misleading "not in the map"
/// message pointing at the call site instead of the definition.
pub(crate) fn check_event_coverage(file: &SourceFile, owners: &OwnershipMap, out: &mut Vec<Finding>) {
    file.ast.walk(&mut |it| {
        let ItemKind::Enum { variants } = &it.kind else { return };
        if it.name != "Event" || it.cfg_test {
            return;
        }
        for v in variants.iter().filter(|v| !owners.contains_key(&v.name)) {
            file.push(
                out,
                "event-coverage",
                v.line,
                format!(
                    "`Event::{}` has no owner in the DESIGN.md telemetry-ownership map; add a `{}: <crates>` line under §10",
                    v.name, v.name
                ),
            );
        }
    });
}

/// Parses the ownership map from DESIGN.md: a fenced code block whose
/// info string contains `lint:telemetry-ownership`, with one
/// `Variant: crate1, crate2` line per event.
#[must_use]
pub(crate) fn parse_ownership(design_md: &str) -> OwnershipMap {
    let mut map = OwnershipMap::new();
    let mut inside = false;
    for line in design_md.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("```") {
            if inside {
                break;
            }
            inside = trimmed.contains("lint:telemetry-ownership");
            continue;
        }
        if !inside || trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some((variant, crates)) = trimmed.split_once(':') {
            let set: BTreeSet<String> =
                crates.split(',').map(|c| c.trim().to_string()).filter(|c| !c.is_empty()).collect();
            map.insert(variant.trim().to_string(), set);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        rule: fn(&SourceFile, &mut Vec<Finding>),
        crate_name: &str,
        file_name: &str,
        src: &str,
    ) -> Vec<Finding> {
        let f = SourceFile::new("crates/x/src/lib.rs", crate_name, file_name, src);
        let mut out = Vec::new();
        rule(&f, &mut out);
        out
    }

    #[test]
    fn raw_unit_flags_float_fn_and_field() {
        let src = "
            pub fn energy_j(&self) -> f64 { 0.0 }
            pub struct S { pub latency_s: f64, pub count: u64 }
            pub const RATE_HZ: f64 = 1.0;
        ";
        let f = run(check_raw_unit, "demo", "lib.rs", src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|v| v.rule == "raw-unit" && !v.waived));
    }

    #[test]
    fn a_cfg_test_field_hides_only_itself() {
        // A test-only field is test code; the fields and items after it
        // are not.
        let src = "
            pub struct Probe {
                #[cfg(test)]
                pub seen_s: f64,
                pub count: u64,
            }
            pub fn energy_j() -> f64 { 0.0 }
            fn read() -> u64 { parse().unwrap() }
        ";
        let file = SourceFile::new("crates/x/src/lib.rs", "demo", "lib.rs", src);
        let mut out = Vec::new();
        check_raw_unit(&file, &mut out);
        check_panic_path(&file, &mut out);
        let got: Vec<(&str, u32)> = out.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(got, [("raw-unit", 7), ("panic-path", 8)], "{out:?}");
    }

    #[test]
    fn raw_unit_accepts_newtypes_and_nonpublic() {
        let src = "
            pub fn energy_j(&self) -> Energy { Energy::ZERO }
            pub struct S { pub latency_s: Time, area_mm2: f64 }
            pub(crate) fn leakage_j() -> f64 { 0.0 }
            pub fn beats(&self) -> u64 { 0 }
        ";
        assert!(run(check_raw_unit, "demo", "lib.rs", src).is_empty());
    }

    #[test]
    fn raw_unit_waiver_is_counted_not_dropped() {
        let src = "pub fn read_pulse_s(&self) -> f64 { 0.0 } // lint: allow(raw-unit)";
        let f = run(check_raw_unit, "demo", "lib.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].waived);
    }

    #[test]
    fn raw_unit_skips_units_crate() {
        let src = "pub fn joules_j(&self) -> f64 { 0.0 }";
        assert!(run(check_raw_unit, "units", "lib.rs", src).is_empty());
    }

    fn run_det(crate_name: &str, file_name: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::new(&format!("crates/x/src/{file_name}"), crate_name, file_name, src);
        let mut out = Vec::new();
        check_determinism(&f, &table_for(&f), &mut out);
        out
    }

    fn table_for(file: &SourceFile) -> SymbolTable {
        let files = vec![(file.crate_name.clone(), file.rel_path.clone())];
        let pairs = vec![(&file.ast, file.lexed.tokens.as_slice())];
        SymbolTable::build(&files, &pairs)
    }

    #[test]
    fn determinism_flags_clock_entropy_and_report_hashmap() {
        let src = "
            use std::time::Instant;
            fn seed() { let r = rand::thread_rng(); }
            fn report() { let m: HashMap<u32, u32> = HashMap::new(); m.keys().count(); }
        ";
        let f = run_det("sim", "report.rs", src);
        assert!(f.iter().any(|v| v.message.contains("Instant")));
        assert!(f.iter().any(|v| v.message.contains("thread_rng")));
        assert!(f.iter().any(|v| v.message.contains("BTreeMap")));
    }

    #[test]
    fn determinism_allows_hashmap_off_report_paths_and_other_crates() {
        let src = "fn cache() { let m: HashMap<u32, u32> = HashMap::new(); m.keys().count(); }";
        assert!(run_det("serve", "backend.rs", src).is_empty());
        assert!(run_det("circuit", "report.rs", src).is_empty());
    }

    #[test]
    fn determinism_semantic_flags_iteration_not_declaration() {
        let src = "
            use std::collections::HashMap;
            pub fn report() -> usize {
                let m: HashMap<u32, u32> = HashMap::new();
                m.keys().count()
            }
            pub fn build() -> HashMap<u32, u32> { HashMap::new() }
        ";
        let file = SourceFile::new("crates/x/src/report.rs", "sim", "report.rs", src);
        assert!(file.ast.is_clean());
        let table = table_for(&file);
        let mut out = Vec::new();
        check_determinism(&file, &table, &mut out);
        // Only `.keys()` in `report` is flagged — `build` declares and
        // returns a map without iterating it.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`.keys()`"), "{}", out[0].message);
    }

    #[test]
    fn determinism_semantic_covers_alias_and_rebinding_blind_spots() {
        let src = "
            use std::collections::HashMap as Cache;
            pub struct R { pub rows: Cache<u32, f64> }
            impl R {
                pub fn dump(&self) -> f64 {
                    let m = &self.rows;
                    m.values().sum()
                }
            }
        ";
        let file = SourceFile::new("crates/x/src/metrics.rs", "serve", "metrics.rs", src);
        assert!(file.ast.is_clean());
        let table = table_for(&file);
        let mut out = Vec::new();
        check_determinism(&file, &table, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`.values()`"), "{}", out[0].message);
    }

    #[test]
    fn determinism_semantic_honors_sort_before_serialize() {
        let src = "
            use std::collections::HashMap;
            pub fn render(m: &HashMap<u32, f64>) -> String {
                let mut rows: Vec<_> = m.iter().collect();
                rows.sort_by_key(|(k, _)| **k);
                format!(\"{rows:?}\")
            }
        ";
        let file = SourceFile::new("crates/x/src/report.rs", "sim", "report.rs", src);
        let table = table_for(&file);
        let mut out = Vec::new();
        check_determinism(&file, &table, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn stale_waivers_are_flagged_and_live_ones_kept() {
        // The panic-path waiver on line 2 is live; the raw-unit waiver
        // on line 3 suppresses nothing.
        let src =
            "\nfn lib() { x.unwrap(); } // lint: allow(panic-path)\nfn g() {} // lint: allow(raw-unit)\n";
        let file = SourceFile::new("crates/x/src/lib.rs", "demo", "lib.rs", src);
        let mut findings = Vec::new();
        check_panic_path(&file, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].waived);
        let files = vec![file];
        check_stale_waivers(&files, &mut findings);
        let stale: Vec<&Finding> = findings.iter().filter(|f| f.rule == "stale-waiver").collect();
        assert_eq!(stale.len(), 1, "{findings:?}");
        assert_eq!(stale[0].line, 3);
        assert!(stale[0].message.contains("allow(raw-unit)"), "{}", stale[0].message);
        assert!(!stale[0].waived);
    }

    #[test]
    fn stale_waiver_waivers_exempt_themselves() {
        // An intentionally-kept waiver: `allow(stale-waiver)` on the
        // same line shields the dead `allow(determinism)`.
        let src = "fn g() {} // lint: allow(determinism, stale-waiver)\n";
        let file = SourceFile::new("crates/x/src/lib.rs", "demo", "lib.rs", src);
        let mut findings = Vec::new();
        let files = vec![file];
        check_stale_waivers(&files, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "stale-waiver");
        assert!(findings[0].waived, "{findings:?}");
    }

    #[test]
    fn panic_path_flags_unwrap_expect_macros() {
        let src = "
            fn f() { x.unwrap(); y.expect(\"msg\"); panic!(\"boom\"); unreachable!(); }
        ";
        let f = run(check_panic_path, "demo", "lib.rs", src);
        assert_eq!(f.len(), 4, "{f:?}");
    }

    #[test]
    fn panic_path_skips_cfg_test_and_counts_waivers() {
        let src = "
            fn lib() { x.expect(\"invariant\"); } // lint: allow(panic-path)
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.unwrap(); panic!(); }
            }
        ";
        let f = run(check_panic_path, "demo", "lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].waived);
    }

    #[test]
    fn expected_ident_is_not_expect() {
        let src = "fn f() { let expected = 3; expect_fn(); }";
        assert!(run(check_panic_path, "demo", "lib.rs", src).is_empty());
    }

    #[test]
    fn panic_path_exempts_binary_entry_points() {
        let src = "fn main() { run().expect(\"cli aborts with a message\"); }";
        for (rel, name) in [
            ("crates/bench/src/main.rs", "main.rs"),
            ("crates/bench/src/bin/experiments.rs", "experiments.rs"),
        ] {
            let f = SourceFile::new(rel, "bench", name, src);
            let mut out = Vec::new();
            check_panic_path(&f, &mut out);
            assert!(out.is_empty(), "{rel}: {out:?}");
        }
        // The same code in a library file is still flagged.
        assert_eq!(run(check_panic_path, "bench", "lib.rs", src).len(), 1);
    }

    #[test]
    fn safety_comment_flags_bare_unsafe_blocks() {
        let src = "
            fn f(x: &[u64]) -> u64 {
                unsafe { *x.get_unchecked(0) }
            }
        ";
        let f = run(check_safety_comment, "xbar", "simd.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "safety-comment");
        assert!(!f[0].waived);
    }

    #[test]
    fn safety_comment_accepts_nearby_comment() {
        let src = "
            fn f(x: &[u64]) -> u64 {
                // SAFETY: the caller guarantees `x` is non-empty,
                // so index 0 is in bounds.
                unsafe { *x.get_unchecked(0) }
            }
            fn g(x: &[u64]) -> u64 {
                unsafe { *x.get_unchecked(0) } // SAFETY: same line
            }
        ";
        assert!(run(check_safety_comment, "xbar", "simd.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_window_is_three_lines() {
        let src = "
            fn f(x: &[u64]) -> u64 {
                // SAFETY: too far away to count
                let _pad = 0;
                let _pad2 = 0;
                let _pad3 = 0;
                unsafe { *x.get_unchecked(0) }
            }
        ";
        assert_eq!(run(check_safety_comment, "xbar", "simd.rs", src).len(), 1);
    }

    #[test]
    fn safety_comment_skips_declarations_tests_and_counts_waivers() {
        let src = "
            unsafe fn raw(p: *const u64) -> u64 { unsafe { *p } } // lint: allow(safety-comment)
            #[cfg(test)]
            mod tests {
                fn t(x: &[u64]) { let _ = unsafe { *x.get_unchecked(0) }; }
            }
        ";
        let f = run(check_safety_comment, "xbar", "simd.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].waived);
    }

    #[test]
    fn ownership_parses_and_enforces() {
        let md = "
# Design

```text lint:telemetry-ownership
SramRead: sim
XbarReadPulse: xbar, core
```
";
        let owners = parse_ownership(md);
        assert_eq!(owners.len(), 2);
        let good = SourceFile::new(
            "crates/sim/src/a.rs",
            "sim",
            "a.rs",
            "fn f() { tel::record(tel::Event::SramRead, 1); }",
        );
        let bad = SourceFile::new(
            "crates/serve/src/b.rs",
            "serve",
            "b.rs",
            "fn f() { record(Event::SramRead, 1); }",
        );
        let unknown =
            SourceFile::new("crates/sim/src/c.rs", "sim", "c.rs", "fn f() { incr(Event::Mystery); }");
        let mut out = Vec::new();
        check_telemetry_ownership(&good, &owners, &mut out);
        assert!(out.is_empty(), "{out:?}");
        check_telemetry_ownership(&bad, &owners, &mut out);
        assert_eq!(out.len(), 1);
        check_telemetry_ownership(&unknown, &owners, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out[1].message.contains("not in the DESIGN.md ownership map"));
    }

    #[test]
    fn event_coverage_flags_unmapped_variants() {
        let src = "
            pub enum Event {
                XbarReadPulse,
                ServeSloViolation,
            }
            impl Event {
                pub const fn name(self) -> &'static str {
                    match self {
                        Event::XbarReadPulse => \"xbar_read_pulses\",
                        Event::ServeSloViolation => \"serve_slo_violations\",
                    }
                }
            }
        ";
        let f = SourceFile::new("crates/telemetry/src/event.rs", "telemetry", "event.rs", src);
        let ItemKind::Enum { variants } = &f.ast.items[0].kind else { panic!("{:?}", f.ast.items) };
        assert_eq!(
            variants.iter().map(|v| (v.name.as_str(), v.line)).collect::<Vec<_>>(),
            [("XbarReadPulse", 3), ("ServeSloViolation", 4)],
            "match arms must not parse as variants"
        );
        let owners = parse_ownership("```lint:telemetry-ownership\nXbarReadPulse: xbar\n```");
        let mut out = Vec::new();
        check_event_coverage(&f, &owners, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "event-coverage");
        assert!(out[0].message.contains("ServeSloViolation"));
    }

    #[test]
    fn event_coverage_is_silent_when_fully_mapped_or_absent() {
        let src = "pub enum Event { A, B }";
        let f = SourceFile::new("crates/telemetry/src/event.rs", "telemetry", "event.rs", src);
        let owners = parse_ownership("```lint:telemetry-ownership\nA: sim\nB: serve\n```");
        let mut out = Vec::new();
        check_event_coverage(&f, &owners, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // A file without the enum yields nothing.
        let g = SourceFile::new("crates/telemetry/src/lib.rs", "telemetry", "lib.rs", "fn x() {}");
        check_event_coverage(&g, &owners, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn ownership_ignores_non_call_references() {
        let owners = parse_ownership("```lint:telemetry-ownership\nSramRead: sim\n```");
        let f = SourceFile::new(
            "crates/serve/src/b.rs",
            "serve",
            "b.rs",
            "fn f() { let e = Event::SramRead; match e { Event::SramRead => {} _ => {} } }",
        );
        let mut out = Vec::new();
        check_telemetry_ownership(&f, &owners, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
