//! `dead-pub` (L9) and `narrow-pub` (L10): public items that nothing
//! names, and public items that only their own crate and tests name.
//!
//! An *item* is a bare-`pub` fn, struct, enum, trait, type alias, const
//! or static — or a `pub` fn or const of an inherent `impl` — defined in
//! `crates/*/src` outside `#[cfg(test)]`. `dead-pub` flags it when no
//! identifier in any file cargo builds names it, leaving out:
//!
//! * its own definition (the item's whole span);
//! * `impl` headers whose self type it is;
//! * definitions of the same name anywhere (`fn name`, `struct name`, …);
//! * `use` and `pub use` lines — a re-export is not a caller;
//! * the `#[cfg(test)]` code of its own file.
//!
//! `narrow-pub` flags an item of a library crate that `dead-pub` finds
//! live when no *outside use* names it. An outside use is a name in
//! another cargo target that is neither a test nor a bench: a
//! `src/main.rs` or `src/bin/**` binary, an example, the root facade.
//! Integration tests, criterion benches and `#[cfg(test)]` code anywhere
//! are not outside uses, and neither is any use inside the item's own
//! crate (its own file included) — except a name in the signature, `pub`
//! field or variant of another public item, which the compiler requires
//! to be at least as visible (`private_interfaces`). An associated item
//! of a type that is not bare-`pub` is out of `narrow-pub`'s scope: the
//! type already bounds it. Binary targets' items are out of scope too.
//!
//! A name resolves the way rustc resolves it. `Type::name` (and
//! `Self::name` inside `impl Type`) names only `Type`'s associated
//! items; `module::name` names only the free items of the workspace
//! crates or modules called `module` (a crate is `<dir>` or
//! `inca_<dir>`); `crate::`, `self::` or `super::` names only the free
//! items of the same crate. An unqualified name names only free items:
//! Rust never resolves a bare name to an inherent associated item.
//! `.name` names associated items only when a call follows (`(` or
//! `::<`); otherwise it is a field access and names nothing. A module
//! qualifier the workspace does not define (`std`, the `inca` facade)
//! narrows nothing among free items, and a qualifier that is not a
//! name (`<T>::`, `<$Q>::`) narrows nothing at all, so the rule errs
//! towards keeping an item alive.
//!
//! A waiver on a type covers its inherent items too: the consumer it
//! names reaches the type through them.
//!
//! [`SymbolTable::resolve`]: crate::symbols::SymbolTable::resolve

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Item, ItemKind};
use crate::lexer::Token;
use crate::rules::{Finding, SourceFile};

/// Keywords whose next identifier is a definition, not a use.
const DEFINERS: [&str; 9] = ["fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod"];

/// One public item that could be dead or too public.
struct PubItem<'a> {
    name: &'a str,
    kind: &'static str,
    /// The inherent `impl`'s self type, for associated items.
    container: Option<&'a str>,
    /// Crate, file and inline module names the item lives under.
    modules: BTreeSet<String>,
    /// Index of the defining file in the item-source list.
    file: usize,
    span: (usize, usize),
    /// The declaration line, where the finding and its waiver sit.
    line: u32,
}

/// The cargo target a file belongs to, as far as `narrow-pub` cares.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Target<'a> {
    /// The library of the named crate (`crates/<name>/src`, binaries
    /// left out).
    Lib(&'a str),
    /// An integration test or a criterion bench.
    TestOrBench,
    /// A binary, an example or the root facade: an outside user.
    Outside,
}

impl<'a> Target<'a> {
    fn of(file: &'a SourceFile) -> Self {
        let path = file
            .rel_path
            .strip_prefix("crates/")
            .map_or(file.rel_path.as_str(), |rest| rest.split_once('/').map_or(rest, |(_, below)| below));
        let is_crate = file.rel_path.starts_with("crates/");
        if path.starts_with("tests/") || path.starts_with("benches/") {
            Self::TestOrBench
        } else if is_crate
            && path.starts_with("src/")
            && path != "src/main.rs"
            && !path.starts_with("src/bin/")
        {
            Self::Lib(&file.crate_name)
        } else {
            Self::Outside
        }
    }
}

/// How a reference was qualified.
enum Qual {
    /// A bare name: free items only.
    Bare,
    /// A qualifier that narrows nothing (`<T>::name`).
    Any,
    /// `Type::name`: associated items of `Type` only.
    Type(String),
    /// `.name(` or `.name::<`: a method call, so associated items only.
    Member,
    /// `module::name`: free items under `module` only.
    Module(String),
    /// `crate::name`, `self::name`, `super::name`: free items of the
    /// referencing crate.
    SameCrate,
}

/// One identifier that may name an item.
struct Ref {
    qual: Qual,
    /// Index into the combined file list (item sources first).
    file: usize,
    tok: usize,
    in_test: bool,
    /// Inside the signature, `pub` field or variant of a public item.
    in_sig: bool,
}

/// Flags every item of `sources` (the `crates/*/src` files) that no
/// identifier in `sources` or `consumers` (tests, benches, examples and
/// the root package) names (`dead-pub`), or that only its own crate and
/// tests name (`narrow-pub`).
pub(crate) fn check_public_items(sources: &[SourceFile], consumers: &[SourceFile], out: &mut Vec<Finding>) {
    let mut items = Vec::new();
    let mut known: BTreeSet<String> = BTreeSet::new();
    for (idx, file) in sources.iter().enumerate() {
        let modules = file_modules(file);
        known.extend(modules.iter().cloned());
        collect_items(&file.ast.items, idx, &modules, &mut items, &mut known);
    }
    let all: Vec<&SourceFile> = sources.iter().chain(consumers).collect();
    let targets: Vec<Target> = all.iter().map(|f| Target::of(f)).collect();
    // Bare-`pub` types of library crates: their inherent items are in
    // `narrow-pub`'s scope and their signatures are public.
    let pub_types: BTreeSet<(&str, &str)> = items
        .iter()
        .filter(|t| matches!(t.kind, "struct" | "enum") && matches!(targets[t.file], Target::Lib(_)))
        .map(|t| (sources[t.file].crate_name.as_str(), t.name))
        .collect();
    let surface = |t: &PubItem<'_>| {
        matches!(targets[t.file], Target::Lib(_))
            && t.container.is_none_or(|c| pub_types.contains(&(sources[t.file].crate_name.as_str(), c)))
    };
    let mut refs: BTreeMap<&str, Vec<Ref>> = BTreeMap::new();
    for (idx, file) in all.iter().enumerate() {
        let mut sig = vec![false; file.lexed.tokens.len()];
        if matches!(targets[idx], Target::Lib(_)) {
            mark_signatures(file, &|c| pub_types.contains(&(file.crate_name.as_str(), c)), &mut sig);
        }
        collect_refs(file, idx, &sig, &mut refs);
    }
    // A waiver on a type covers its inherent items.
    let waived_types = |rule: &str| -> BTreeSet<(&str, &str)> {
        items
            .iter()
            .filter(|t| matches!(t.kind, "struct" | "enum"))
            .filter(|t| sources[t.file].lexed.is_waived(rule, t.line))
            .map(|t| (sources[t.file].crate_name.as_str(), t.name))
            .collect()
    };
    let (dead_waived, narrow_waived) = (waived_types("dead-pub"), waived_types("narrow-pub"));
    for item in &items {
        let file = &sources[item.file];
        let covered = |set: &BTreeSet<(&str, &str)>| {
            item.container.is_some_and(|c| set.contains(&(file.crate_name.as_str(), c)))
        };
        // The item's own definition, and the `#[cfg(test)]` code of its file.
        let own =
            |r: &Ref| r.file == item.file && (r.in_test || (item.span.0..=item.span.1).contains(&r.tok));
        let uses: Vec<&Ref> = refs.get(item.name).map_or_else(Vec::new, |rs| {
            rs.iter().filter(|r| names(r, item, &all[r.file].crate_name, &file.crate_name, &known)).collect()
        });
        let path = match item.container {
            Some(c) => format!("{}::{c}::{}", file.crate_name, item.name),
            None => format!("{}::{}", file.crate_name, item.name),
        };
        let line = item.line;
        let live = covered(&dead_waived) || uses.iter().any(|r| !own(r));
        if !live {
            file.push(
                out,
                "dead-pub",
                line,
                format!(
                    "public {} `{path}` is named nowhere outside its definition and its own tests; delete it, or waive it naming the result or ROADMAP item that consumes it",
                    item.kind
                ),
            );
            continue;
        }
        let outside = uses.iter().any(|r| {
            !own(r)
                && !r.in_test
                && (r.in_sig || ![Target::TestOrBench, targets[item.file]].contains(&targets[r.file]))
        });
        // A type waived as planned API keeps its inherent items public.
        if surface(item) && !outside && !covered(&narrow_waived) && !covered(&dead_waived) {
            let testers: BTreeSet<&str> = uses
                .iter()
                .filter(|r| {
                    targets[r.file] == Target::TestOrBench
                        || (r.in_test && targets[r.file] != targets[item.file])
                })
                .map(|r| all[r.file].rel_path.as_str())
                .collect();
            let fix = if testers.is_empty() {
                "is named only inside its own crate; make it `pub(crate)` or private".to_string()
            } else {
                let files: Vec<&str> = testers.into_iter().collect();
                format!(
                    "is named outside its own crate only by tests and benches ({}); move it next to them, or waive it naming them",
                    files.join(", ")
                )
            };
            file.push(out, "narrow-pub", line, format!("public {} `{path}` {fix}", item.kind));
        }
    }
}

/// Whether reference `r` (in crate `ref_crate`) can name `item` (in
/// crate `item_crate`).
fn names(r: &Ref, item: &PubItem<'_>, ref_crate: &str, item_crate: &str, known: &BTreeSet<String>) -> bool {
    match &r.qual {
        Qual::Bare => item.container.is_none(),
        Qual::Any => true,
        Qual::Type(t) => item.container == Some(t.as_str()),
        Qual::Member => item.container.is_some(),
        Qual::Module(m) => item.container.is_none() && (item.modules.contains(m) || !known.contains(m)),
        Qual::SameCrate => item.container.is_none() && ref_crate == item_crate,
    }
}

/// Marks the tokens of `file` that the compiler holds to a public
/// item's visibility: public fn signatures, public struct headers and
/// `pub` fields, whole public enums, traits and type aliases, the types
/// of public consts and statics, and the associated types of trait
/// impls. Inherent and trait impls count only on a type `pub_type`
/// accepts.
fn mark_signatures(file: &SourceFile, pub_type: &dyn Fn(&str) -> bool, sig: &mut [bool]) {
    let mut todo: Vec<&Item> = file.ast.items.iter().collect();
    while let Some(it) = todo.pop() {
        if it.cfg_test {
            continue;
        }
        let (start, end) = it.span;
        match &it.kind {
            ItemKind::Mod => todo.extend(&it.children),
            ItemKind::Impl { type_name, trait_name, .. } if pub_type(type_name) => {
                for m in it.children.iter().filter(|m| !m.cfg_test) {
                    match (&m.kind, trait_name) {
                        (ItemKind::TypeAlias, Some(_)) => sig[m.span.0..=m.span.1].fill(true),
                        (ItemKind::Fn { .. } | ItemKind::Const { .. }, None) if m.public => todo.push(m),
                        _ => {}
                    }
                }
            }
            _ if !it.public => {}
            ItemKind::Fn { body, .. } => sig[start..body.map_or(end, |b| b.0)].fill(true),
            // A struct's header and `pub` fields; private fields stay
            // unmarked.
            ItemKind::Struct { fields } => {
                sig[start..=end].fill(true);
                for f in fields.iter().filter(|f| !f.public) {
                    sig[f.span.0..=f.span.1].fill(false);
                }
            }
            ItemKind::Enum { .. } | ItemKind::Union { .. } | ItemKind::Trait | ItemKind::TypeAlias => {
                sig[start..=end].fill(true);
            }
            ItemKind::Const { ty } | ItemKind::Static { ty } => sig[start..=ty.1].fill(true),
            _ => {}
        }
    }
}

/// The module names a file's items live under: its crate (`<dir>` and
/// `inca_<dir>`) and the path below `src/` (`lib`, `main` and `mod`
/// name no module).
fn file_modules(file: &SourceFile) -> BTreeSet<String> {
    let mut out = BTreeSet::from([file.crate_name.clone(), format!("inca_{}", file.crate_name)]);
    let below = file.rel_path.split_once("/src/").map_or("", |(_, rest)| rest);
    for seg in below.split('/') {
        let seg = seg.strip_suffix(".rs").unwrap_or(seg);
        if !matches!(seg, "lib" | "main" | "mod" | "") {
            out.insert(seg.to_string());
        }
    }
    out
}

fn collect_items<'a>(
    items: &'a [Item],
    file: usize,
    modules: &BTreeSet<String>,
    out: &mut Vec<PubItem<'a>>,
    known: &mut BTreeSet<String>,
) {
    for it in items.iter().filter(|it| !it.cfg_test) {
        let push = |out: &mut Vec<PubItem<'a>>, it: &'a Item, kind, container| {
            out.push(PubItem {
                name: &it.name,
                kind,
                container,
                modules: modules.clone(),
                file,
                span: it.span,
                line: it.decl_line,
            });
        };
        match &it.kind {
            ItemKind::Mod => {
                known.insert(it.name.clone());
                let mut inner = modules.clone();
                inner.insert(it.name.clone());
                collect_items(&it.children, file, &inner, out, known);
            }
            ItemKind::Impl { type_name, trait_name: None, .. } => {
                for m in it.children.iter().filter(|m| m.public && !m.cfg_test) {
                    match m.kind {
                        ItemKind::Fn { .. } => push(out, m, "method", Some(type_name.as_str())),
                        ItemKind::Const { .. } => push(out, m, "const", Some(type_name.as_str())),
                        _ => {}
                    }
                }
            }
            _ if !it.public => {}
            ItemKind::Fn { .. } => push(out, it, "fn", None),
            ItemKind::Struct { .. } => push(out, it, "struct", None),
            ItemKind::Enum { .. } => push(out, it, "enum", None),
            ItemKind::Trait => push(out, it, "trait", None),
            ItemKind::TypeAlias => push(out, it, "type", None),
            ItemKind::Const { .. } => push(out, it, "const", None),
            ItemKind::Static { .. } => push(out, it, "static", None),
            _ => {}
        }
    }
}

/// Records every identifier of `file` that may name an item.
fn collect_refs<'f>(file: &'f SourceFile, idx: usize, sig: &[bool], refs: &mut BTreeMap<&'f str, Vec<Ref>>) {
    let toks = &file.lexed.tokens;
    let mut skip = vec![false; toks.len()];
    // (body start, body end, self type) of every impl, for `Self::`.
    let mut impls: Vec<(usize, usize, &str)> = Vec::new();
    // `use path::Name as Alias;` — the alias names what `Name` names.
    let mut aliases: BTreeMap<&str, &str> = BTreeMap::new();
    file.ast.walk(&mut |it| match &it.kind {
        ItemKind::Impl { type_name, body: (open, close), .. } => {
            // An impl header's own self type is not a use of it.
            for i in it.span.0..*open {
                if toks[i].ident() == Some(type_name.as_str()) {
                    skip[i] = true;
                }
            }
            impls.push((*open, *close, type_name));
        }
        ItemKind::Use { imports } => {
            // A re-export is not a caller.
            skip[it.span.0..=it.span.1].fill(true);
            for (path, bound) in imports {
                if let Some(last) = path.last().filter(|&last| last != bound && bound != "*") {
                    aliases.insert(bound, last);
                }
            }
        }
        _ => {}
    });
    let mut i = 0usize;
    while i < toks.len() {
        let Some(name) = toks[i].ident().map(|n| aliases.get(n).copied().unwrap_or(n)) else {
            i += 1;
            continue;
        };
        let prev = |k: usize| i.checked_sub(k).and_then(|j| toks.get(j));
        let defined = prev(1).and_then(Token::ident).is_some_and(|p| DEFINERS.contains(&p))
            || (prev(1).and_then(Token::ident) == Some("mut")
                && prev(2).and_then(Token::ident) == Some("static"))
            || (prev(1).is_some_and(|t| t.is_punct('!'))
                && prev(2).and_then(Token::ident) == Some("macro_rules"));
        if !skip[i] && !defined {
            let path_sep = |j: usize| toks.get(j).is_some_and(|t| t.is_punct(':'));
            let qualified = i >= 2 && path_sep(i - 1) && path_sep(i - 2);
            let called = toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                || (path_sep(i + 1) && path_sep(i + 2) && toks.get(i + 3).is_some_and(|t| t.is_punct('<')));
            let qual = if prev(1).is_some_and(|t| t.is_punct('.')) {
                if !called {
                    // A field access names no item.
                    i += 1;
                    continue;
                }
                Qual::Member
            } else if !qualified {
                Qual::Bare
            } else {
                match prev(3).and_then(Token::ident) {
                    Some("Self") => impls
                        .iter()
                        .filter(|(s, e, _)| (*s..=*e).contains(&i))
                        .max_by_key(|(s, _, _)| *s)
                        .map_or(Qual::Any, |(_, _, t)| Qual::Type((*t).to_string())),
                    Some("crate" | "self" | "super") => Qual::SameCrate,
                    Some(q) if q.starts_with(|c: char| c.is_uppercase()) => {
                        Qual::Type(aliases.get(q).copied().unwrap_or(q).to_string())
                    }
                    Some(q) => Qual::Module(q.to_string()),
                    None => Qual::Any,
                }
            };
            refs.entry(name).or_default().push(Ref {
                qual,
                file: idx,
                tok: i,
                in_test: file.test_mask[i],
                in_sig: sig[i],
            });
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the pass over `(rel_path, crate, src)` triples, item sources
    /// first, and returns every finding.
    fn findings(sources: &[(&str, &str, &str)], consumers: &[(&str, &str, &str)]) -> Vec<Finding> {
        let mk = |(rel, krate, src): &(&str, &str, &str)| {
            let name = rel.rsplit('/').next().unwrap_or(rel);
            SourceFile::new(rel, krate, name, src)
        };
        let sources: Vec<SourceFile> = sources.iter().map(mk).collect();
        let consumers: Vec<SourceFile> = consumers.iter().map(mk).collect();
        let mut out = Vec::new();
        check_public_items(&sources, &consumers, &mut out);
        out
    }

    /// The item paths `rule` flags (unwaived).
    fn flagged_by(
        rule: &str,
        sources: &[(&str, &str, &str)],
        consumers: &[(&str, &str, &str)],
    ) -> Vec<String> {
        findings(sources, consumers)
            .iter()
            .filter(|f| !f.waived && f.rule == rule)
            .map(|f| f.message.split('`').nth(1).unwrap_or("").to_string())
            .collect()
    }

    fn flagged(sources: &[(&str, &str, &str)], consumers: &[(&str, &str, &str)]) -> Vec<String> {
        flagged_by("dead-pub", sources, consumers)
    }

    fn narrowed(sources: &[(&str, &str, &str)], consumers: &[(&str, &str, &str)]) -> Vec<String> {
        flagged_by("narrow-pub", sources, consumers)
    }

    #[test]
    fn a_re_export_alone_is_not_a_use() {
        let lib = "mod inner; pub use inner::Only;";
        let inner = "pub struct Only;";
        let got = flagged(&[("crates/a/src/lib.rs", "a", lib), ("crates/a/src/inner.rs", "a", inner)], &[]);
        assert_eq!(got, ["a::Only"]);
        let user = "use inca_a::Only; fn main() { let _ = Only; }";
        let got = flagged(
            &[("crates/a/src/lib.rs", "a", lib), ("crates/a/src/inner.rs", "a", inner)],
            &[("crates/a/tests/t.rs", "a", user)],
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn a_module_qualifier_picks_its_own_crate() {
        let got = flagged(
            &[
                ("crates/a/src/lib.rs", "a", "pub fn f() {}"),
                ("crates/b/src/lib.rs", "b", "pub fn f() {}"),
                ("crates/c/src/lib.rs", "c", "pub fn g() { inca_a::f(); } pub fn h() { g(); }"),
            ],
            &[("tests/t.rs", "", "fn main() { inca_c::h(); }")],
        );
        assert_eq!(got, ["b::f"]);
    }

    #[test]
    fn a_type_qualifier_picks_its_own_impl() {
        let src = "
            pub fn sweep() {}
            pub struct Noise;
            impl Noise { pub fn sweep() {} }
        ";
        let got = flagged(
            &[("crates/a/src/lib.rs", "a", src)],
            &[("crates/a/tests/t.rs", "a", "fn main() { inca_a::Noise::sweep(); }")],
        );
        assert_eq!(got, ["a::sweep"]);
    }

    #[test]
    fn a_type_in_a_live_signature_of_its_own_file_is_live() {
        let src = "pub struct Config; pub fn run(c: Config) {}";
        let got =
            flagged(&[("crates/a/src/lib.rs", "a", src)], &[("examples/e.rs", "", "fn main() { run(x); }")]);
        assert!(got.is_empty(), "{got:?}");
        // Without a caller only `run` is flagged; `Config` follows once
        // `run` is deleted.
        assert_eq!(flagged(&[("crates/a/src/lib.rs", "a", src)], &[]), ["a::run"]);
    }

    #[test]
    fn a_trait_used_only_by_another_crates_impl_is_live() {
        let got = flagged(
            &[
                ("crates/a/src/lib.rs", "a", "pub trait Layer { fn go(&self); }"),
                ("crates/b/src/lib.rs", "b", "struct X; impl inca_a::Layer for X { fn go(&self) {} }"),
            ],
            &[],
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn an_impl_header_is_not_a_use_of_its_self_type() {
        let src = "
            pub struct Lone;
            impl Lone { fn private(&self) {} }
            impl Clone for Lone { fn clone(&self) -> Self { Self } }
        ";
        assert_eq!(flagged(&[("crates/a/src/lib.rs", "a", src)], &[]), ["a::Lone"]);
    }

    #[test]
    fn uses_in_other_files_tests_integration_tests_benches_and_examples_are_live() {
        let lib = "pub fn probe() {}";
        let other_test = "pub fn x() {} #[cfg(test)] mod tests { #[test] fn t() { crate::probe(); } }";
        let got = flagged(&[("crates/a/src/lib.rs", "a", lib), ("crates/a/src/x.rs", "a", other_test)], &[]);
        assert_eq!(got, ["a::x"]);
        for consumer in
            ["crates/a/tests/t.rs", "crates/a/benches/b.rs", "crates/a/examples/e.rs", "tests/t.rs"]
        {
            let got = flagged(
                &[("crates/a/src/lib.rs", "a", lib)],
                &[(consumer, "a", "fn main() { inca_a::probe(); }")],
            );
            assert!(got.is_empty(), "{consumer}: {got:?}");
        }
    }

    #[test]
    fn a_use_only_in_its_own_tests_is_not() {
        let src = "
            pub fn oracle() -> u32 { oracle_inner() }
            fn oracle_inner() -> u32 { 1 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { assert_eq!(super::oracle(), 1); }
            }
        ";
        assert_eq!(flagged(&[("crates/a/src/lib.rs", "a", src)], &[]), ["a::oracle"]);
    }

    #[test]
    fn recursion_and_same_named_definitions_are_not_uses() {
        let got = flagged(
            &[
                ("crates/a/src/lib.rs", "a", "pub fn walk(n: u32) { if n > 0 { walk(n - 1) } }"),
                ("crates/b/src/lib.rs", "b", "pub struct Walker; impl Walker { fn walk(&self) {} }"),
            ],
            &[("crates/b/tests/t.rs", "b", "fn main() { let w = inca_b::Walker; }")],
        );
        assert_eq!(got, ["a::walk"]);
    }

    #[test]
    fn self_qualifier_resolves_to_the_impl_type() {
        let src = "
            pub struct A;
            impl A { pub fn new() -> Self { Self::make() } pub fn make() -> Self { A } }
            pub struct B;
            impl B { pub fn make() -> Self { B } }
        ";
        let got = flagged(
            &[("crates/a/src/lib.rs", "a", src)],
            &[("crates/a/tests/t.rs", "a", "fn main() { inca_a::A::new(); inca_a::B; }")],
        );
        assert_eq!(got, ["a::B::make"]);
    }

    #[test]
    fn a_member_access_names_only_associated_items() {
        let src = "pub fn summarize() {} pub struct E; impl E { pub fn summarize(&self) {} }";
        let got = flagged(
            &[("crates/a/src/lib.rs", "a", src)],
            &[("crates/a/tests/t.rs", "a", "fn main(e: inca_a::E) { e.summarize(); }")],
        );
        assert_eq!(got, ["a::summarize"]);
    }

    #[test]
    fn a_field_access_or_a_bare_name_does_not_name_a_method() {
        let src = "
            pub struct Buf { len: usize }
            impl Buf { pub fn new() -> Self { Buf { len: 0 } } pub fn len(&self) -> usize { self.len } }
        ";
        let user = "fn main() { let b = inca_a::Buf::new(); let len = b.len; assert_eq!(len, 0); }";
        let got = flagged(&[("crates/a/src/lib.rs", "a", src)], &[("crates/a/tests/t.rs", "a", user)]);
        assert_eq!(got, ["a::Buf::len"]);
    }

    #[test]
    fn a_method_call_or_an_open_qualifier_names_a_method() {
        let src = "
            pub struct Buf;
            impl Buf {
                pub fn len(&self) -> usize { 0 }
                pub fn get<T: Default>(&self) -> T { T::default() }
                pub fn make() -> Self { Buf }
            }
        ";
        let user = "
            fn build<T>() { <T>::make(); }
            fn main(b: inca_a::Buf) { b.len(); b.get::<u8>(); }
        ";
        let got = flagged(&[("crates/a/src/lib.rs", "a", src)], &[("crates/a/tests/t.rs", "a", user)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn waivers_keep_named_consumers_and_cover_a_types_impl() {
        let src = "
            // lint: allow(dead-pub) consumer: EXPERIMENTS.md hw-inference
            pub fn kept() {}
            #[must_use]
            pub fn gone() -> u32 { 0 }
            #[derive(Debug)]
            // lint: allow(dead-pub) consumer: a ROADMAP item
            pub struct Planned;
            impl Planned { pub fn new() -> Self { Self } }
        ";
        let out = findings(&[("crates/a/src/lib.rs", "a", src)], &[]);
        let got: Vec<(u32, bool)> =
            out.iter().filter(|f| f.rule == "dead-pub").map(|f| (f.line, f.waived)).collect();
        assert_eq!(got, [(3, true), (5, false), (8, true)]);
    }

    #[test]
    fn a_use_as_alias_names_what_it_imports() {
        let src = "pub struct Model; impl Model { pub fn heavy() {} } pub fn build() {}";
        let user = "use inca_a::Model as M; use inca_a::build as make; fn main() { M::heavy(); make(); }";
        let sources = [("crates/a/src/lib.rs", "a", src)];
        let consumers = [("examples/e.rs", "", user)];
        // Without the alias `build` reads as dead and `Model::heavy` as
        // named by no outside user.
        assert!(flagged(&sources, &consumers).is_empty());
        assert!(narrowed(&sources, &consumers).is_empty());
    }

    #[test]
    fn a_binary_or_an_example_keeps_an_item_public() {
        let lib = ("crates/a/src/lib.rs", "a", "pub fn run() {}");
        let main = "fn main() { inca_a::run(); }";
        for (bin, krate) in [
            ("crates/a/src/main.rs", "a"),
            ("crates/a/src/bin/tool.rs", "a"),
            ("crates/b/src/bin/tool/main.rs", "b"),
        ] {
            let got = narrowed(&[lib, (bin, krate, main)], &[]);
            assert!(got.is_empty(), "{bin}: {got:?}");
        }
        for (example, krate) in [("examples/e.rs", ""), ("crates/b/examples/e.rs", "b")] {
            let got = narrowed(&[lib], &[(example, krate, main)]);
            assert!(got.is_empty(), "{example}: {got:?}");
        }
        // A binary's own public items are out of scope.
        let got =
            narrowed(&[("crates/a/src/bin/tool.rs", "a", "pub fn helper() {} fn main() { helper(); }")], &[]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn a_name_in_another_public_signature_keeps_an_item_public() {
        let src = "
            pub struct Reading(pub u32);
            pub struct Unit;
            pub struct Hidden;
            pub enum Mode { Fast(Unit) }
            pub struct Meter { pub unit: Unit, hidden: Hidden }
            impl Meter { pub fn read(&self, _: Mode) -> Reading { Reading(0) } }
            fn private(_: Hidden) {}
        ";
        let user = "fn main() { let m: inca_a::Meter = make(); m.read(x); }";
        let got = narrowed(&[("crates/a/src/lib.rs", "a", src)], &[("examples/e.rs", "", user)]);
        // `Reading` is in a public signature, `Unit` in a `pub` field and a
        // variant, `Mode` in a signature; `Hidden` only in a private field
        // and a private fn.
        assert_eq!(got, ["a::Hidden"]);
    }

    #[test]
    fn a_caller_in_its_own_file_tests_or_benches_does_not_keep_it_public() {
        let src = "
            pub fn local() -> u32 { 1 }
            pub fn oracle() -> u32 { local() }
            #[cfg(test)]
            mod tests { #[test] fn t() { assert_eq!(super::oracle(), 1); } }
        ";
        let other_test = "#[cfg(test)] mod tests { #[test] fn t() { inca_a::oracle(); } }";
        let call = "fn main() { inca_a::oracle(); }";
        let sources = [("crates/a/src/lib.rs", "a", src), ("crates/b/src/lib.rs", "b", other_test)];
        let consumers = [
            ("crates/a/tests/t.rs", "a", call),
            ("crates/a/benches/b.rs", "a", call),
            ("tests/t.rs", "", call),
        ];
        assert_eq!(narrowed(&sources, &consumers), ["a::local", "a::oracle"]);
        // The finding names the tests and benches that keep it alive.
        let out = findings(&sources, &consumers);
        let oracle = out.iter().find(|f| f.message.contains("`a::oracle`")).map(|f| f.message.as_str());
        assert!(
            oracle.is_some_and(|m| m
                .contains("(crates/a/benches/b.rs, crates/a/tests/t.rs, crates/b/src/lib.rs, tests/t.rs)")),
            "{oracle:?}"
        );
    }

    #[test]
    fn no_item_is_both_dead_and_narrow() {
        let src = "pub fn unused() {} pub fn local() {} fn f() { local(); }";
        let got: Vec<(&str, String)> = findings(&[("crates/a/src/lib.rs", "a", src)], &[])
            .iter()
            .map(|f| (f.rule, f.message.split('`').nth(1).unwrap_or("").to_string()))
            .collect();
        assert_eq!(got, [("dead-pub", "a::unused".to_string()), ("narrow-pub", "a::local".to_string())]);
    }

    #[test]
    fn a_narrow_pub_waiver_on_a_type_covers_its_items() {
        let src = "
            // lint: allow(narrow-pub) needed by: crates/a/tests/t.rs
            pub struct Oracle;
            impl Oracle { pub fn new() -> Self { Oracle } }
        ";
        let call = "fn main() { inca_a::Oracle::new(); }";
        let out = findings(&[("crates/a/src/lib.rs", "a", src)], &[("crates/a/tests/t.rs", "a", call)]);
        let got: Vec<(&str, u32, bool)> = out.iter().map(|f| (f.rule, f.line, f.waived)).collect();
        assert_eq!(got, [("narrow-pub", 3, true)]);
    }
}
