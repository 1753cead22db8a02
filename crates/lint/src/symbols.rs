//! The workspace symbol table: every function definition across all
//! crates, plus the two name families the determinism passes need —
//! aliases of `HashMap`/`HashSet` introduced by `use .. as ..`, and
//! struct fields whose declared type is hash-ordered.
//!
//! Resolution is deliberately *name-based and conservative*: a method
//! call `.foo()` may resolve to every workspace method named `foo`.
//! Over-approximation is the safe direction for a taint pass — a false
//! edge can only add a finding that a human then waives with a
//! justification; a missed edge would silently unsound the guarantee.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::ast::{Ast, Item, ItemKind};
use crate::lexer::Token;

/// Index of a function in [`SymbolTable::fns`].
pub(crate) type FnId = usize;

/// One function definition.
#[derive(Debug, Clone)]
pub(crate) struct FnInfo {
    /// Owning crate (`crates/<name>`).
    pub(crate) crate_name: String,
    /// Workspace-relative file path.
    pub(crate) file: String,
    /// Index of the file in the scan order (into the caller's file
    /// list).
    pub(crate) file_idx: usize,
    /// Bare function name.
    pub(crate) name: String,
    /// Enclosing impl'd type or trait name, when the fn is an
    /// associated item.
    pub(crate) container: Option<String>,
    /// Whether the parameter list starts with `self`.
    pub(crate) is_method: bool,
    /// 1-indexed line of the item.
    pub(crate) line: u32,
    /// `(name, type range)` of each `name: Type` parameter.
    pub(crate) params: Vec<(String, (usize, usize))>,
    /// Token range of the braced body in the owning file's stream.
    pub(crate) body: Option<(usize, usize)>,
    /// Whether the fn is `#[cfg(test)]` (directly or via a parent).
    pub(crate) cfg_test: bool,
}

impl FnInfo {
    /// `crate::Container::name`-style display path for findings.
    #[must_use]
    pub(crate) fn display(&self) -> String {
        match &self.container {
            Some(c) => format!("{}::{}::{}", self.crate_name, c, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// Workspace-wide symbols.
#[derive(Debug, Default)]
pub(crate) struct SymbolTable {
    /// Every function definition, in scan order.
    pub(crate) fns: Vec<FnInfo>,
    /// name → fn ids (all containers).
    pub(crate) by_name: BTreeMap<String, Vec<FnId>>,
    /// Names that denote a hash-ordered collection type anywhere in the
    /// workspace: `HashMap`, `HashSet`, plus every `use .. as ..` alias
    /// of one (transitively, workspace-wide — a re-export in crate A
    /// imported by crate B keeps its taint).
    pub(crate) hash_names: BTreeSet<String>,
    /// `(type name, field name or tuple index)` pairs whose declared
    /// field type is hash-ordered.
    pub(crate) hash_fields: BTreeSet<(String, String)>,
}

impl SymbolTable {
    /// Builds the table from `(file ast, file tokens)` pairs in scan
    /// order. `files` supplies `(crate_name, rel_path)` metadata
    /// aligned by index.
    #[must_use]
    pub(crate) fn build(files: &[(String, String)], asts: &[(&Ast, &[Token])]) -> Self {
        let mut table = Self::default();
        table.hash_names.insert("HashMap".to_string());
        table.hash_names.insert("HashSet".to_string());

        // Pass 1: aliases to fixpoint (an alias of an alias still
        // counts; two passes close any realistic chain, iterate until
        // stable to be exact).
        loop {
            let before = table.hash_names.len();
            for (ast, _) in asts {
                ast.walk(&mut |it| {
                    if let ItemKind::Use { imports } = &it.kind {
                        for (path, binding) in imports {
                            if binding == "*" {
                                continue;
                            }
                            let last = path.last().map(String::as_str).unwrap_or_default();
                            if table.hash_names.contains(last) && binding != last {
                                table.hash_names.insert(binding.clone());
                            }
                        }
                    }
                });
            }
            if table.hash_names.len() == before {
                break;
            }
        }

        // Pass 2: fns and hash-typed struct fields.
        for (idx, ((crate_name, rel_path), (ast, tokens))) in files.iter().zip(asts).enumerate() {
            collect_items(&ast.items, None, &mut |item, container| match &item.kind {
                ItemKind::Fn { body, has_self, params, .. } => {
                    let id = table.fns.len();
                    table.fns.push(FnInfo {
                        crate_name: crate_name.clone(),
                        file: rel_path.clone(),
                        file_idx: idx,
                        name: item.name.clone(),
                        container: container.map(String::from),
                        is_method: *has_self,
                        line: item.line,
                        params: params.clone(),
                        body: *body,
                        cfg_test: item.cfg_test,
                    });
                    table.by_name.entry(item.name.clone()).or_default().push(id);
                }
                ItemKind::Struct { fields } => {
                    for f in fields {
                        if table.is_hash_type(&tokens[f.ty.0..=f.ty.1]) {
                            table.hash_fields.insert((item.name.clone(), f.name.clone()));
                        }
                    }
                }
                _ => {}
            });
        }
        table
    }

    /// Whether `name` denotes a hash-ordered collection type.
    #[must_use]
    pub(crate) fn is_hash_name(&self, name: &str) -> bool {
        self.hash_names.contains(name)
    }

    /// Whether the type tokens `ty` name a hash-ordered collection type.
    #[must_use]
    pub(crate) fn is_hash_type(&self, ty: &[Token]) -> bool {
        ty.iter().any(|t| t.ident().is_some_and(|id| self.is_hash_name(id)))
    }

    /// Resolves a call reference to candidate definitions.
    ///
    /// * Method calls (`recv.name(..)`) → every method named `name`.
    /// * Qualified calls (`Q::name(..)`) → fns named `name` inside an
    ///   impl/trait of `Q` when any exist, else every fn named `name`
    ///   (the qualifier may be a module path segment).
    /// * Free calls (`name(..)`) → free fns named `name`; when none
    ///   exists the call is a closure/std call and resolves to nothing.
    #[must_use]
    pub(crate) fn resolve(&self, call: &CallRef) -> Vec<FnId> {
        let Some(candidates) = self.by_name.get(&call.name) else { return Vec::new() };
        match &call.kind {
            CallKind::Method => candidates.iter().copied().filter(|&id| self.fns[id].is_method).collect(),
            CallKind::Qualified(q) => {
                let scoped: Vec<FnId> = candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].container.as_deref() == Some(q.as_str()))
                    .collect();
                if scoped.is_empty()
                    && (q.is_empty() || q == "self" || q == "crate" || q == "super" || is_module_like(q))
                {
                    candidates.clone()
                } else {
                    scoped
                }
            }
            CallKind::Free => {
                candidates.iter().copied().filter(|&id| self.fns[id].container.is_none()).collect()
            }
        }
    }
}

/// Lowercase first letter ⇒ probably a module path segment, so the
/// qualified call may reach any same-named fn.
fn is_module_like(q: &str) -> bool {
    q.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
}

/// How a call site referenced its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CallKind {
    /// `recv.name(..)`
    Method,
    /// `Qualifier::name(..)` — the *last* qualifier segment.
    Qualified(String),
    /// `name(..)`
    Free,
}

/// One call site inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CallRef {
    /// Callee name.
    pub(crate) name: String,
    /// Reference shape.
    pub(crate) kind: CallKind,
    /// 1-indexed source line of the call.
    pub(crate) line: u32,
}

/// Visits every item with its enclosing impl/trait container name.
fn collect_items<'a>(items: &'a [Item], container: Option<&str>, f: &mut impl FnMut(&'a Item, Option<&str>)) {
    for it in items {
        f(it, container);
        let inner = match &it.kind {
            ItemKind::Impl { type_name, .. } => Some(type_name.as_str()),
            ItemKind::Trait => Some(it.name.as_str()),
            _ => container,
        };
        collect_items(&it.children, inner, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    fn build(srcs: &[(&str, &str)]) -> (SymbolTable, Vec<crate::lexer::Lexed>) {
        let lexed: Vec<_> = srcs.iter().map(|(_, s)| lex(s)).collect();
        let asts: Vec<_> = lexed.iter().map(|l| parse(&l.tokens)).collect();
        let files: Vec<(String, String)> =
            srcs.iter().map(|(c, _)| (c.to_string(), format!("crates/{c}/src/lib.rs"))).collect();
        let pairs: Vec<(&Ast, &[Token])> =
            asts.iter().zip(&lexed).map(|(a, l)| (a, l.tokens.as_slice())).collect();
        (SymbolTable::build(&files, &pairs), lexed)
    }

    #[test]
    fn hash_aliases_close_transitively() {
        let (table, _) = build(&[
            ("a", "pub use std::collections::HashMap as Cache;"),
            ("b", "use crate::a::Cache as LocalMap;"),
        ]);
        assert!(table.is_hash_name("HashMap"));
        assert!(table.is_hash_name("Cache"));
        assert!(table.is_hash_name("LocalMap"));
        assert!(!table.is_hash_name("BTreeMap"));
    }

    #[test]
    fn hash_fields_are_recorded() {
        let (table, _) = build(&[(
            "a",
            "
            use std::collections::HashMap as Cache;
            pub struct S { pub plain: u32, cache: Cache<u32, u32>, set: std::collections::HashSet<u8> }
            pub struct Tuple(HashMap<u8, u8>);
            ",
        )]);
        assert!(table.hash_fields.contains(&("S".to_string(), "cache".to_string())));
        assert!(table.hash_fields.contains(&("S".to_string(), "set".to_string())));
        assert!(!table.hash_fields.contains(&("S".to_string(), "plain".to_string())));
    }

    #[test]
    fn fns_record_container_and_receiver() {
        let (table, _) = build(&[(
            "a",
            "
            pub fn free() {}
            struct T;
            impl T { pub fn method(&self) {} pub fn assoc() {} }
            trait Tr { fn default_m(&self) { self.default_m(); } }
            ",
        )]);
        let find = |n: &str| table.by_name.get(n).map(|v| &table.fns[v[0]]);
        assert!(find("free").is_some_and(|f| f.container.is_none() && !f.is_method));
        assert!(find("method").is_some_and(|f| f.container.as_deref() == Some("T") && f.is_method));
        assert!(find("assoc").is_some_and(|f| f.container.as_deref() == Some("T") && !f.is_method));
        assert!(find("default_m").is_some_and(|f| f.container.as_deref() == Some("Tr")));
    }

    #[test]
    fn resolve_scopes_by_kind() {
        let (table, _) = build(&[(
            "a",
            "
            pub fn go() {}
            struct T;
            impl T { pub fn go(&self) {} }
            struct U;
            impl U { pub fn go() {} }
            ",
        )]);
        let method = table.resolve(&CallRef { name: "go".into(), kind: CallKind::Method, line: 1 });
        assert_eq!(method.len(), 1);
        assert!(table.fns[method[0]].is_method);
        let qual =
            table.resolve(&CallRef { name: "go".into(), kind: CallKind::Qualified("U".into()), line: 1 });
        assert_eq!(qual.len(), 1);
        assert_eq!(table.fns[qual[0]].container.as_deref(), Some("U"));
        let free = table.resolve(&CallRef { name: "go".into(), kind: CallKind::Free, line: 1 });
        assert_eq!(free.len(), 1);
        assert!(table.fns[free[0]].container.is_none());
    }
}
