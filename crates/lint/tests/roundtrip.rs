//! Lexer → parser → pretty-print round-trip.
//!
//! Two halves, one property: re-lexing `pretty_print`ed tokens and
//! re-parsing must reproduce the exact item outline (kind, name, line,
//! nesting). The exhaustive half runs the property over every `.rs`
//! file in the real workspace — the tree the linter actually guards —
//! and doubles as the "every file parses" regression gate. The
//! proptest half fuzzes synthetic files assembled from the grammar the
//! parser claims to cover: generics, trait impls, nested modules,
//! `#[cfg(test)]` masking, use-trees, and item-level macros.

use std::path::{Path, PathBuf};

use inca_lint::ast::{outline, parse, pretty_print};
use inca_lint::lexer::lex;
use proptest::prelude::*;

/// All `.rs` files under `crates/*/src` of the real workspace.
fn workspace_sources() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out = Vec::new();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates dir");
    for entry in crates {
        let src = entry.expect("crate entry").path().join("src");
        if src.is_dir() {
            let mut stack = vec![src];
            while let Some(dir) = stack.pop() {
                for f in std::fs::read_dir(&dir).expect("src dir") {
                    let p = f.expect("src entry").path();
                    if p.is_dir() {
                        stack.push(p);
                    } else if p.extension().is_some_and(|e| e == "rs") {
                        out.push(p);
                    }
                }
            }
        }
    }
    out.sort();
    out
}

fn assert_round_trips(src: &str, what: &dyn std::fmt::Display) {
    let lexed = lex(src);
    let ast = parse(&lexed.tokens);
    assert!(ast.is_clean(), "{what}: parse errors {:?}", ast.errors);
    let printed = pretty_print(&lexed.tokens);
    let relexed = lex(&printed);
    let reparsed = parse(&relexed.tokens);
    assert!(reparsed.is_clean(), "{what}: reparse errors {:?}", reparsed.errors);
    assert_eq!(outline(&ast), outline(&reparsed), "{what}: outline drifted across the round trip");
}

#[test]
fn every_workspace_file_round_trips_item_boundaries() {
    let files = workspace_sources();
    assert!(files.len() > 100, "workspace walk found only {} files", files.len());
    for path in files {
        let src = std::fs::read_to_string(&path).expect("read source");
        assert_round_trips(&src, &path.display());
    }
}

/// SplitMix64: one deterministic synthetic file per drawn seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Appends one random item (possibly nesting more) to `out`.
fn gen_item(state: &mut u64, counter: &mut u32, depth: u32, out: &mut String) {
    *counter += 1;
    let n = *counter;
    match mix(state) % 10 {
        0 => out.push_str(&format!("fn f{n}(x: u32) -> u32 {{ x + {n} }}\n")),
        1 => out.push_str(&format!(
            "pub fn g{n}<T: Clone, F: Fn(u32) -> u32>(v: Vec<T>, f: F) -> Option<T> \
             where T: Default {{ let _ = f({n}); v.first().cloned() }}\n"
        )),
        2 => out.push_str(&format!("pub struct S{n}<A> {{ pub a: A, b: Vec<Vec<u8>> }}\n")),
        3 => out.push_str(&format!("enum E{n} {{ One(u32), Two {{ x: u8 }}, Three }}\n")),
        4 => out.push_str(&format!(
            "pub struct T{n};\nimpl T{n} {{ fn m(&self) -> u32 {{ {n} }} fn a() {{}} }}\n\
             impl std::fmt::Debug for T{n} {{\n\
             fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {{ write!(f, \"t\") }}\n}}\n"
        )),
        5 => {
            out.push_str(&format!("mod m{n} {{\n"));
            let kids = 1 + mix(state) % 3;
            for _ in 0..kids {
                if depth < 3 {
                    gen_item(state, counter, depth + 1, out);
                } else {
                    *counter += 1;
                    out.push_str(&format!("pub const LEAF{}: u32 = 1;\n", *counter));
                }
            }
            out.push_str("}\n");
        }
        6 => out.push_str(&format!(
            "pub trait Tr{n}: Send {{ fn req(&self); fn def(&self) {{ self.req(); }} }}\n"
        )),
        7 => out.push_str(&format!("use std::collections::{{BTreeMap, btree_map::Entry as Entry{n}}};\n")),
        8 => out.push_str(&format!(
            "#[cfg(test)]\nmod t{n} {{\n#[test]\nfn check{n}() {{ assert_eq!({n}, {n}); }}\n}}\n"
        )),
        _ => out.push_str(&format!(
            "const C{n}: [u8; 2] = {{ let x = {n} as u8; [x; 2] }};\nstatic S_{n}: u32 = {n};\n"
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Synthetic files drawn from the parser's grammar round-trip their
    /// outlines exactly.
    #[test]
    fn synthetic_files_round_trip_item_boundaries(seed in any::<u64>(), items in 1usize..12) {
        let mut state = seed;
        let mut counter = 0u32;
        let mut src = String::from("//! synthetic round-trip input\n");
        for _ in 0..items {
            gen_item(&mut state, &mut counter, 0, &mut src);
        }
        assert_round_trips(&src, &format!("seed {seed:#x}"));
    }
}
