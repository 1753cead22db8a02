//! A conservative workspace call graph over the symbol table.
//!
//! Call sites are recognized syntactically in each fn body's token
//! range — `name(..)`, `Qualifier::name(..)`, `recv.name(..)` — and
//! resolved by `SymbolTable::resolve`. Resolution over-approximates
//! (a method name may hit several impls); the taint pass on top prefers
//! a spurious edge over a missed one.

use std::collections::BTreeSet;

use crate::lexer::Token;
use crate::symbols::{CallKind, CallRef, FnId, SymbolTable};

/// Keywords that look like calls syntactically but are control flow.
const NOT_CALLS: [&str; 10] = ["if", "while", "for", "match", "loop", "return", "fn", "move", "in", "else"];

/// Extracts every call reference inside `[start, end]` of a token
/// stream (a fn body, braces included).
#[must_use]
pub(crate) fn extract_calls(tokens: &[Token], start: usize, end: usize) -> Vec<CallRef> {
    let mut out = Vec::new();
    let mut i = start;
    while i <= end && i < tokens.len() {
        let Some(name) = tokens[i].ident() else {
            i += 1;
            continue;
        };
        // A call is `ident (`; `ident !(` is a macro and `ident {` a
        // struct literal — neither resolves to a fn.
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) || NOT_CALLS.contains(&name) {
            i += 1;
            continue;
        }
        let kind = if i > start && tokens[i - 1].is_punct('.') {
            CallKind::Method
        } else if i >= start + 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':') {
            match tokens.get(i.wrapping_sub(3)).and_then(Token::ident) {
                Some(q) => CallKind::Qualified(q.to_string()),
                // `<T as Trait>::name(..)` — the qualifier is a closed
                // generic; treat as free-form name match.
                None => CallKind::Qualified(String::new()),
            }
        } else {
            CallKind::Free
        };
        out.push(CallRef { name: name.to_string(), kind, line: tokens[i].line });
        i += 1;
    }
    out
}

/// One resolved edge: caller → callee at `line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Edge {
    /// Callee fn.
    pub(crate) callee: FnId,
    /// 1-indexed line of the call site in the caller's file.
    pub(crate) line: u32,
}

/// The workspace call graph: `edges[caller]` lists resolved callees.
#[derive(Debug, Default)]
pub(crate) struct CallGraph {
    /// Adjacency, indexed by [`FnId`], sorted and deduplicated.
    pub(crate) edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Builds the graph. `token_streams[file_idx]` must align with the
    /// `file_idx` recorded in the symbol table's fns.
    #[must_use]
    pub(crate) fn build(table: &SymbolTable, token_streams: &[&[Token]]) -> Self {
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); table.fns.len()];
        for (caller, info) in table.fns.iter().enumerate() {
            let Some((start, end)) = info.body else { continue };
            let tokens = token_streams[info.file_idx];
            let mut seen: BTreeSet<(FnId, u32)> = BTreeSet::new();
            for call in extract_calls(tokens, start, end) {
                for callee in table.resolve(&call) {
                    if callee != caller && seen.insert((callee, call.line)) {
                        edges[caller].push(Edge { callee, line: call.line });
                    }
                }
            }
            edges[caller].sort_by_key(|e| (e.callee, e.line));
        }
        Self { edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{parse, Ast};
    use crate::lexer::lex;

    fn graph(srcs: &[(&str, &str)]) -> (SymbolTable, CallGraph) {
        let lexed: Vec<_> = srcs.iter().map(|(_, s)| lex(s)).collect();
        let asts: Vec<_> = lexed.iter().map(|l| parse(&l.tokens)).collect();
        for a in &asts {
            assert!(a.is_clean(), "{:?}", a.errors);
        }
        let files: Vec<(String, String)> =
            srcs.iter().map(|(c, _)| (c.to_string(), format!("crates/{c}/src/lib.rs"))).collect();
        let pairs: Vec<(&Ast, &[Token])> =
            asts.iter().zip(&lexed).map(|(a, l)| (a, l.tokens.as_slice())).collect();
        let table = SymbolTable::build(&files, &pairs);
        let streams: Vec<&[Token]> = lexed.iter().map(|l| l.tokens.as_slice()).collect();
        let cg = CallGraph::build(&table, &streams);
        (table, cg)
    }

    fn id(table: &SymbolTable, name: &str) -> FnId {
        table.by_name[name][0]
    }

    #[test]
    fn free_qualified_and_method_calls_resolve() {
        let (table, cg) = graph(&[(
            "a",
            "
            pub fn leaf() {}
            struct T;
            impl T {
                pub fn new() -> T { T }
                pub fn step(&self) { leaf(); }
            }
            pub fn driver() {
                let t = T::new();
                t.step();
            }
            ",
        )]);
        let callees = |n: &str| -> Vec<String> {
            cg.edges[id(&table, n)].iter().map(|e| table.fns[e.callee].name.clone()).collect()
        };
        assert_eq!(callees("driver"), ["new", "step"]);
        assert_eq!(callees("step"), ["leaf"]);
        assert!(callees("leaf").is_empty());
    }

    #[test]
    fn cross_crate_calls_resolve_by_name() {
        let (table, cg) = graph(&[
            ("core", "pub fn shared_worker() {}"),
            ("serve", "pub fn run() { inca_core::shared_worker(); }"),
        ]);
        let run = id(&table, "run");
        assert_eq!(cg.edges[run].len(), 1);
        assert_eq!(table.fns[cg.edges[run][0].callee].crate_name, "core");
    }

    #[test]
    fn macros_struct_literals_and_keywords_are_not_calls() {
        let (table, cg) = graph(&[(
            "a",
            "
            pub fn target() {}
            pub fn body() {
                println!(\"target()\");
                if (1 + 1) == 2 {}
                for x in (0..3) { let _ = x; }
                match (1) { _ => {} }
            }
            ",
        )]);
        assert!(cg.edges[id(&table, "body")].is_empty());
    }

    #[test]
    fn method_resolution_is_conservative_across_impls() {
        let (table, cg) = graph(&[(
            "a",
            "
            struct A; struct B;
            impl A { pub fn tick(&self) {} }
            impl B { pub fn tick(&self) {} }
            pub fn drive(a: &A) { a.tick(); }
            ",
        )]);
        // Name-based resolution links both impls: over-approximation.
        assert_eq!(cg.edges[id(&table, "drive")].len(), 2);
    }

    #[test]
    fn self_calls_do_not_edge_to_self() {
        let (table, cg) = graph(&[("a", "pub fn rec(n: u32) { if n > 0 { rec(n - 1); } }")]);
        assert!(cg.edges[id(&table, "rec")].is_empty());
    }
}
