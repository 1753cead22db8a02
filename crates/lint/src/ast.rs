//! A recursive-descent item-level parser over the lexer's token stream.
//!
//! The parser recovers the *structure* of a Rust file — functions,
//! impls, traits, structs, enums, modules, use-trees — without parsing
//! expression grammar: a function body is kept as a token range for the
//! call-graph and taint passes to scan. Strings and comments were
//! already consumed by the lexer, so brace/paren/bracket counting is
//! exact; the only delicate balance is `<`/`>` in generics, where `->`
//! and comparison contexts must not be miscounted.
//!
//! Files the parser cannot handle produce `ParseError`s, and a lint run
//! that meets one fails with the file and line.

use crate::lexer::{Tok, Token};

/// What kind of item a node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn name(..) { .. }` — `body` is the token range of the braced
    /// block (inclusive of both braces), absent for bodiless
    /// declarations (trait methods, extern fns).
    Fn {
        /// Token range `[start, end]` of the braced body, if any.
        body: Option<(usize, usize)>,
        /// Whether the parameter list starts with a `self` receiver.
        has_self: bool,
    },
    /// `struct name`, unit/tuple/braced.
    Struct,
    /// `enum name { .. }`.
    Enum,
    /// `union name { .. }`.
    Union,
    /// `trait name { .. }` — children hold default methods.
    Trait,
    /// `impl Type { .. }` / `impl Trait for Type { .. }`.
    Impl {
        /// Last path ident of the implemented type (`Foo` in
        /// `impl<T> fmt::Debug for Foo<T>`).
        type_name: String,
        /// Last path ident of the trait, for trait impls.
        trait_name: Option<String>,
    },
    /// `mod name;` or `mod name { .. }` — children hold nested items.
    Mod,
    /// One `use` statement, flattened into simple imports.
    Use {
        /// `(path segments, bound name)` pairs; glob imports bind `"*"`.
        imports: Vec<(Vec<String>, String)>,
    },
    /// `const NAME: T = ..;`
    Const,
    /// `static NAME: T = ..;`
    Static,
    /// `type Name = ..;`
    TypeAlias,
    /// `macro_rules! name { .. }` or an item-level macro invocation.
    Macro,
    /// `extern crate name;` / `extern { .. }` foreign block.
    Extern,
}

/// One parsed item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// The kind, with kind-specific payload.
    pub kind: ItemKind,
    /// Item name (`""` for impls — see `ItemKind::Impl` — and globs).
    pub name: String,
    /// 1-indexed line of the defining keyword.
    pub line: u32,
    /// Token range `[start, end]` (inclusive) covering the whole item,
    /// attributes included.
    pub span: (usize, usize),
    /// Whether the item (or an enclosing one) is `#[cfg(test)]`.
    pub cfg_test: bool,
    /// Whether the item's visibility is a bare `pub` (not `pub(crate)`
    /// and friends).
    pub public: bool,
    /// Nested items (mod / impl / trait bodies).
    pub children: Vec<Item>,
}

/// A recoverable parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-indexed line where recovery started.
    pub line: u32,
    /// What the parser was looking at.
    pub message: String,
}

/// The parse result for one file.
#[derive(Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Recovered errors; non-empty means the file did not parse.
    pub errors: Vec<ParseError>,
}

impl Ast {
    /// Depth-first visit of every item (parents before children).
    pub(crate) fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Item)) {
        fn go<'a>(items: &'a [Item], f: &mut impl FnMut(&'a Item)) {
            for it in items {
                f(it);
                go(&it.children, f);
            }
        }
        go(&self.items, f);
    }
}

/// Parses a whole token stream into items.
#[must_use]
pub(crate) fn parse(tokens: &[Token]) -> Ast {
    let mut ast = Ast::default();
    let mut p = Parser { toks: tokens, errors: Vec::new() };
    ast.items = p.items(0, tokens.len(), false);
    ast.errors = p.errors;
    ast
}

struct Parser<'a> {
    toks: &'a [Token],
    errors: Vec<ParseError>,
}

/// Keywords that can begin (or qualify) an item.
const QUALIFIERS: [&str; 6] = ["pub", "default", "const", "unsafe", "async", "extern"];

impl<'a> Parser<'a> {
    fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    fn ident(&self, i: usize) -> Option<&'a str> {
        self.toks.get(i).and_then(Token::ident)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(c))
    }

    /// Parses items in `[start, end)`; `in_test` marks an enclosing
    /// `#[cfg(test)]`.
    fn items(&mut self, start: usize, end: usize, in_test: bool) -> Vec<Item> {
        let mut out = Vec::new();
        let mut i = start;
        while i < end {
            match self.item(i, end, in_test) {
                Some(item) => {
                    i = item.span.1 + 1;
                    out.push(item);
                }
                None => {
                    // Recovery: skip to just past the next `;` or a
                    // balanced `}` at depth 0, whichever comes first.
                    self.errors.push(ParseError {
                        line: self.line(i),
                        message: format!("unrecognized item starting at `{}`", describe(&self.toks[i])),
                    });
                    i = self.recover(i, end);
                }
            }
        }
        out
    }

    fn recover(&self, start: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut i = start;
        while i < end {
            let t = &self.toks[i];
            // A token that can start an item at depth 0 ends the skip
            // (but never the very first token — `item` already rejected
            // it, so stopping there would loop forever).
            if depth == 0 && i > start && Self::starts_item(t) {
                return i;
            }
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                if depth == 0 {
                    return i + 1;
                }
                depth -= 1;
                if depth == 0 && t.is_punct('}') {
                    return i + 1;
                }
            } else if t.is_punct(';') && depth == 0 {
                return i + 1;
            }
            i += 1;
        }
        end
    }

    /// Whether `t` can begin a new item (used to bound error recovery).
    fn starts_item(t: &Token) -> bool {
        t.is_punct('#')
            || matches!(
                t.ident(),
                Some(
                    "fn" | "pub"
                        | "struct"
                        | "enum"
                        | "union"
                        | "trait"
                        | "impl"
                        | "mod"
                        | "use"
                        | "const"
                        | "static"
                        | "type"
                        | "macro_rules"
                        | "unsafe"
                        | "extern"
                        | "async"
                )
            )
    }

    /// Tries to parse one item at `i`. Returns `None` when `i` does not
    /// start anything the grammar knows (caller recovers).
    fn item(&mut self, start: usize, end: usize, in_test: bool) -> Option<Item> {
        let mut i = start;
        let mut cfg_test = in_test;

        // Attributes: outer `#[..]` and inner `#![..]`.
        while self.is_punct(i, '#') {
            let mut j = i + 1;
            if self.is_punct(j, '!') {
                j += 1;
            }
            if !self.is_punct(j, '[') {
                return None;
            }
            let close = self.skip_balanced(j, end, '[', ']')?;
            if attr_is_cfg_test(&self.toks[j..=close]) {
                cfg_test = true;
            }
            i = close + 1;
        }
        if i >= end {
            // Attribute-only tail (inner attributes at file top already
            // consumed): treat as a zero-item macro span.
            return (i > start).then(|| Item {
                kind: ItemKind::Macro,
                name: String::new(),
                line: self.line(start),
                span: (start, i - 1),
                cfg_test,
                public: false,
                children: Vec::new(),
            });
        }

        // Visibility and qualifiers.
        let mut saw_extern = false;
        let public = self.ident(i) == Some("pub") && !self.is_punct(i + 1, '(');
        while let Some(id) = self.ident(i) {
            if !QUALIFIERS.contains(&id) {
                break;
            }
            // `const` is both a qualifier (`const fn`) and an item
            // keyword (`const NAME: ..`): only treat it as a qualifier
            // when `fn` territory follows.
            if id == "const" && !matches!(self.ident(i + 1), Some("fn" | "unsafe" | "extern" | "async")) {
                break;
            }
            saw_extern = id == "extern";
            i += 1;
            if id == "pub" && self.is_punct(i, '(') {
                i = self.skip_balanced(i, end, '(', ')')? + 1;
            }
        }
        // `extern { .. }` foreign block / `extern crate name;`.
        if saw_extern && self.is_punct(i, '{') {
            let close = self.skip_balanced(i, end, '{', '}')?;
            return Some(self.mk(ItemKind::Extern, "", start, close, cfg_test));
        }
        if saw_extern && self.ident(i) == Some("crate") {
            let semi = self.find_semi(i, end)?;
            let name = self.ident(i + 1).unwrap_or_default().to_string();
            return Some(self.mk(ItemKind::Extern, &name, start, semi, cfg_test));
        }

        let kw = self.ident(i)?;
        let item = match kw {
            "fn" => self.parse_fn(start, i, end, cfg_test),
            "struct" | "enum" | "union" | "trait" => self.parse_type_item(kw, start, i, end, cfg_test),
            "impl" => self.parse_impl(start, i, end, cfg_test),
            "mod" => self.parse_mod(start, i, end, cfg_test),
            "use" => self.parse_use(start, i, end, cfg_test),
            "const" | "static" => {
                let mut j = i + 1;
                if self.ident(j) == Some("mut") {
                    j += 1;
                }
                let name = self.ident(j).unwrap_or_default().to_string();
                let semi = self.find_semi(j, end)?;
                let kind = if kw == "const" { ItemKind::Const } else { ItemKind::Static };
                Some(self.mk(kind, &name, start, semi, cfg_test))
            }
            "type" => {
                let name = self.ident(i + 1).unwrap_or_default().to_string();
                let semi = self.find_semi(i + 1, end)?;
                Some(self.mk(ItemKind::TypeAlias, &name, start, semi, cfg_test))
            }
            "macro_rules" => {
                // `macro_rules ! name { .. }`
                let mut j = i + 1;
                if self.is_punct(j, '!') {
                    j += 1;
                }
                let name = self.ident(j).unwrap_or_default().to_string();
                j += 1;
                let close = self.skip_balanced(j, end, '{', '}')?;
                Some(self.mk(ItemKind::Macro, &name, start, close, cfg_test))
            }
            _ => {
                // Item-level macro invocation: `name!( .. );` / `name! { .. }`.
                if self.is_punct(i + 1, '!') {
                    let j = i + 2;
                    let close = if self.is_punct(j, '{') {
                        self.skip_balanced(j, end, '{', '}')?
                    } else if self.is_punct(j, '(') {
                        let c = self.skip_balanced(j, end, '(', ')')?;
                        if self.is_punct(c + 1, ';') {
                            c + 1
                        } else {
                            c
                        }
                    } else if self.is_punct(j, '[') {
                        let c = self.skip_balanced(j, end, '[', ']')?;
                        if self.is_punct(c + 1, ';') {
                            c + 1
                        } else {
                            c
                        }
                    } else {
                        return None;
                    };
                    return Some(self.mk(ItemKind::Macro, kw, start, close, cfg_test));
                }
                None
            }
        };
        item.map(|item| Item { public, ..item })
    }

    fn mk(&self, kind: ItemKind, name: &str, start: usize, end_tok: usize, cfg_test: bool) -> Item {
        Item {
            kind,
            name: name.to_string(),
            line: self.line(start),
            span: (start, end_tok),
            cfg_test,
            public: false,
            children: Vec::new(),
        }
    }

    fn parse_fn(&mut self, start: usize, kw: usize, end: usize, cfg_test: bool) -> Option<Item> {
        let name = self.ident(kw + 1)?.to_string();
        let mut i = kw + 2;
        if self.is_punct(i, '<') {
            i = self.skip_generics(i, end)? + 1;
        }
        if !self.is_punct(i, '(') {
            return None;
        }
        let params_close = self.skip_balanced(i, end, '(', ')')?;
        let has_self = self.toks[i + 1..params_close].iter().take(4).any(|t| t.ident() == Some("self"));
        // Return type / where clause: scan to the body `{` or a `;` at
        // bracket depth 0. `<`/`>` never nest braces, so only (), [] and
        // {} matter — and `{` here *is* the body.
        let mut j = params_close + 1;
        let mut depth = 0usize;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.checked_sub(1)?;
            } else if depth == 0 && t.is_punct(';') {
                return Some(self.mk(ItemKind::Fn { body: None, has_self }, &name, start, j, cfg_test));
            } else if depth == 0 && t.is_punct('{') {
                let close = self.skip_balanced(j, end, '{', '}')?;
                let kind = ItemKind::Fn { body: Some((j, close)), has_self };
                return Some(self.mk(kind, &name, start, close, cfg_test));
            }
            j += 1;
        }
        None
    }

    /// `struct`/`enum`/`union`/`trait` — name, generics, then either a
    /// `;`, a tuple body + `;`, or a braced body. Trait bodies are
    /// parsed recursively (default methods feed the call graph).
    fn parse_type_item(
        &mut self,
        kw: &str,
        start: usize,
        kw_idx: usize,
        end: usize,
        cfg_test: bool,
    ) -> Option<Item> {
        let name = self.ident(kw_idx + 1)?.to_string();
        let mut i = kw_idx + 2;
        if self.is_punct(i, '<') {
            i = self.skip_generics(i, end)? + 1;
        }
        let kind = match kw {
            "struct" => ItemKind::Struct,
            "enum" => ItemKind::Enum,
            "union" => ItemKind::Union,
            _ => ItemKind::Trait,
        };
        // Scan past where-clauses / tuple bodies / supertrait lists.
        let mut depth = 0usize;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.checked_sub(1)?;
            } else if t.is_punct('<') && depth == 0 {
                i = self.skip_generics(i, end)?;
            } else if depth == 0 && t.is_punct(';') {
                return Some(self.mk(kind, &name, start, i, cfg_test));
            } else if depth == 0 && t.is_punct('{') {
                let close = self.skip_balanced(i, end, '{', '}')?;
                let mut item = self.mk(kind, &name, start, close, cfg_test);
                if kw == "trait" {
                    item.children = self.items(i + 1, close, cfg_test);
                }
                return Some(item);
            }
            i += 1;
        }
        None
    }

    fn parse_impl(&mut self, start: usize, kw: usize, end: usize, cfg_test: bool) -> Option<Item> {
        let mut i = kw + 1;
        if self.is_punct(i, '<') {
            i = self.skip_generics(i, end)? + 1;
        }
        // Collect path idents up to `for` / `{`, tracking generics.
        let mut before_for: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut seen_for = false;
        let mut depth = 0usize;
        let body_open = loop {
            if i >= end {
                return None;
            }
            let t = &self.toks[i];
            if t.is_punct('<') && depth == 0 {
                i = self.skip_generics(i, end)? + 1;
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.checked_sub(1)?;
            } else if depth == 0 && t.is_punct('{') {
                break i;
            } else if depth == 0 && t.ident() == Some("where") {
                // Type path is complete; skip the where clause.
            } else if depth == 0 && t.ident() == Some("for") {
                seen_for = true;
            } else if depth == 0 {
                if let Some(id) = t.ident() {
                    if seen_for {
                        after_for.push(id.to_string());
                    } else {
                        before_for.push(id.to_string());
                    }
                }
            }
            i += 1;
        };
        let close = self.skip_balanced(body_open, end, '{', '}')?;
        let (type_path, trait_path) =
            if seen_for { (after_for, Some(before_for)) } else { (before_for, None) };
        let type_name = type_path.last().cloned().unwrap_or_default();
        let trait_name = trait_path.and_then(|p| p.last().cloned());
        let mut item =
            self.mk(ItemKind::Impl { type_name: type_name.clone(), trait_name }, "", start, close, cfg_test);
        item.name = type_name;
        item.children = self.items(body_open + 1, close, cfg_test);
        Some(item)
    }

    fn parse_mod(&mut self, start: usize, kw: usize, end: usize, cfg_test: bool) -> Option<Item> {
        let name = self.ident(kw + 1)?.to_string();
        if self.is_punct(kw + 2, ';') {
            return Some(self.mk(ItemKind::Mod, &name, start, kw + 2, cfg_test));
        }
        if !self.is_punct(kw + 2, '{') {
            return None;
        }
        let close = self.skip_balanced(kw + 2, end, '{', '}')?;
        let mut item = self.mk(ItemKind::Mod, &name, start, close, cfg_test);
        item.children = self.items(kw + 3, close, cfg_test);
        Some(item)
    }

    fn parse_use(&mut self, start: usize, kw: usize, end: usize, cfg_test: bool) -> Option<Item> {
        let semi = self.find_semi(kw, end)?;
        let mut imports = Vec::new();
        let mut prefix: Vec<String> = Vec::new();
        collect_use(&self.toks[kw + 1..semi], &mut prefix, &mut imports);
        let mut item = self.mk(ItemKind::Use { imports }, "", start, semi, cfg_test);
        item.name = "use".to_string();
        Some(item)
    }

    /// Index of the `;` ending a simple item, tracking every bracket
    /// kind (const values may hold `{ .. }` literals).
    fn find_semi(&self, mut i: usize, end: usize) -> Option<usize> {
        let mut depth = 0usize;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth = depth.checked_sub(1)?;
            } else if t.is_punct(';') && depth == 0 {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// From an opening delimiter at `i`, the index of its matching
    /// close. Only the named pair is counted — safe because strings and
    /// comments never reach the token stream.
    fn skip_balanced(&self, i: usize, end: usize, open: char, close: char) -> Option<usize> {
        debug_assert!(self.is_punct(i, open));
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            j += 1;
        }
        None
    }

    /// From a `<` at `i`, the index of the matching `>`. `->` arrows
    /// inside fn-pointer types must not close the list, and `>>` is two
    /// separate closes.
    fn skip_generics(&self, i: usize, end: usize) -> Option<usize> {
        debug_assert!(self.is_punct(i, '<'));
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                let arrow = j > 0 && self.toks[j - 1].is_punct('-');
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
            }
            j += 1;
        }
        None
    }
}

/// Whether an attribute token slice (from `[` to `]`) is `cfg(test)` —
/// including `cfg(all(test, ..))` / `cfg(any(.., test))` forms, which
/// also compile the item only under test.
fn attr_is_cfg_test(attr: &[Token]) -> bool {
    let mut saw_cfg = false;
    for (k, t) in attr.iter().enumerate() {
        match t.ident() {
            Some("cfg") => saw_cfg = true,
            // Reject `cfg(feature = "test")`-ish: `test` must be a
            // bare word followed by `)` or `,`.
            Some("test")
                if saw_cfg && attr.get(k + 1).is_some_and(|n| n.is_punct(')') || n.is_punct(',')) =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Flattens a use-tree token slice into `(path, binding)` imports.
fn collect_use(toks: &[Token], prefix: &mut [String], out: &mut Vec<(Vec<String>, String)>) {
    let mut segment: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if let Some(id) = t.ident() {
            if id == "as" {
                // `path as alias`
                if let Some(alias) = toks.get(i + 1).and_then(Token::ident) {
                    let mut path = prefix.to_vec();
                    path.append(&mut segment);
                    out.push((path, alias.to_string()));
                    return;
                }
            }
            segment.push(id.to_string());
            i += 1;
        } else if t.is_punct(':') {
            i += 1; // path separator (`::` is two tokens)
        } else if t.is_punct('{') {
            // Group: recurse per comma-separated element.
            let close = matching(toks, i, '{', '}');
            let inner = &toks[i + 1..close];
            let mut new_prefix = prefix.to_vec();
            new_prefix.append(&mut segment);
            for part in split_top_commas(inner) {
                collect_use(part, &mut new_prefix.clone(), out);
            }
            return;
        } else if t.is_punct('*') {
            let mut path = prefix.to_vec();
            path.append(&mut segment);
            out.push((path, "*".to_string()));
            return;
        } else {
            i += 1;
        }
    }
    if !segment.is_empty() {
        let mut path = prefix.to_vec();
        path.append(&mut segment);
        let last = path.last().cloned().unwrap_or_default();
        out.push((path, last));
    }
}

fn matching(toks: &[Token], i: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

fn split_top_commas(toks: &[Token]) -> Vec<&[Token]> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (j, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct(',') && depth == 0 {
            parts.push(&toks[start..j]);
            start = j + 1;
        }
    }
    if start < toks.len() {
        parts.push(&toks[start..]);
    }
    parts
}

fn describe(t: &Token) -> String {
    match &t.tok {
        Tok::Ident(s) => s.clone(),
        Tok::Punct(c) => c.to_string(),
        Tok::Number => "<number>".to_string(),
        Tok::Lifetime => "<lifetime>".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    impl Ast {
        /// Whether the whole file parsed without recovery.
        pub(crate) fn is_clean(&self) -> bool {
            self.errors.is_empty()
        }
    }

    /// Re-emits a token stream as compilable-shaped text preserving line
    /// structure: a token on source line `n` is printed on output line `n`,
    /// so a re-lex sees identical line numbers. Numbers print as `0` and
    /// lifetimes as `'a` (the lexer collapses both), which is exactly what
    /// the round-trip property needs: item *boundaries*, not literal
    /// values, survive.
    pub(crate) fn pretty_print(tokens: &[Token]) -> String {
        let mut out = String::new();
        let mut line = 1u32;
        let mut first = true;
        for t in tokens {
            while line < t.line {
                out.push('\n');
                line += 1;
                first = true;
            }
            if !first {
                out.push(' ');
            }
            match &t.tok {
                Tok::Ident(s) => out.push_str(s),
                Tok::Punct(c) => out.push(*c),
                Tok::Number => out.push('0'),
                Tok::Lifetime => out.push_str("'a"),
            }
            first = false;
        }
        out.push('\n');
        out
    }

    /// A stable one-line-per-item outline (kind, name, line, nesting) used
    /// by the round-trip tests: two parses agree iff their outlines match.
    pub(crate) fn outline(ast: &Ast) -> String {
        fn go(items: &[Item], depth: usize, out: &mut String) {
            for it in items {
                let kind = match &it.kind {
                    ItemKind::Fn { body, .. } => {
                        if body.is_some() {
                            "fn"
                        } else {
                            "fn-decl"
                        }
                    }
                    ItemKind::Struct => "struct",
                    ItemKind::Enum => "enum",
                    ItemKind::Union => "union",
                    ItemKind::Trait => "trait",
                    ItemKind::Impl { type_name, trait_name } => {
                        out.push_str(&"  ".repeat(depth));
                        match trait_name {
                            Some(tr) => out.push_str(&format!("impl {tr} for {type_name} @{}\n", it.line)),
                            None => out.push_str(&format!("impl {type_name} @{}\n", it.line)),
                        }
                        go(&it.children, depth + 1, out);
                        continue;
                    }
                    ItemKind::Mod => "mod",
                    ItemKind::Use { .. } => "use",
                    ItemKind::Const => "const",
                    ItemKind::Static => "static",
                    ItemKind::TypeAlias => "type",
                    ItemKind::Macro => "macro",
                    ItemKind::Extern => "extern",
                };
                out.push_str(&"  ".repeat(depth));
                out.push_str(&format!("{kind} {} @{}\n", it.name, it.line));
                go(&it.children, depth + 1, out);
            }
        }
        let mut out = String::new();
        go(&ast.items, 0, &mut out);
        out
    }

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src).tokens)
    }

    fn names(ast: &Ast) -> Vec<(String, String)> {
        let mut out = Vec::new();
        ast.walk(&mut |it| {
            let kind = match &it.kind {
                ItemKind::Fn { .. } => "fn",
                ItemKind::Struct => "struct",
                ItemKind::Enum => "enum",
                ItemKind::Union => "union",
                ItemKind::Trait => "trait",
                ItemKind::Impl { .. } => "impl",
                ItemKind::Mod => "mod",
                ItemKind::Use { .. } => "use",
                ItemKind::Const => "const",
                ItemKind::Static => "static",
                ItemKind::TypeAlias => "type",
                ItemKind::Macro => "macro",
                ItemKind::Extern => "extern",
            };
            out.push((kind.to_string(), it.name.clone()));
        });
        out
    }

    #[test]
    fn parses_fns_structs_and_generics() {
        let src = "
            pub fn plain(x: u32) -> u32 { x + 1 }
            fn generic<T: Clone, const N: usize>(v: Vec<T>) -> Option<T> where T: Default { v.first().cloned() }
            pub struct Pair<A, B>(A, B);
            struct Braced { a: u32, b: Vec<Vec<u8>> }
            enum E<T> { One(T), Two }
        ";
        let ast = parse_src(src);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        assert_eq!(
            names(&ast),
            [("fn", "plain"), ("fn", "generic"), ("struct", "Pair"), ("struct", "Braced"), ("enum", "E")]
                .map(|(k, n)| (k.to_string(), n.to_string()))
        );
    }

    #[test]
    fn fn_arrow_in_generics_does_not_close_them() {
        let src = "fn takes<F: Fn(u32) -> u32>(f: F) -> u32 { f(1) }\nfn after() {}";
        let ast = parse_src(src);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        assert_eq!(ast.items.len(), 2);
        assert_eq!(ast.items[1].name, "after");
    }

    #[test]
    fn impls_capture_type_and_trait() {
        let src = "
            impl Foo { fn method(&self) {} fn assoc() {} }
            impl<T> core::fmt::Debug for Bar<T> { fn fmt(&self) {} }
        ";
        let ast = parse_src(src);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let ItemKind::Impl { type_name, trait_name } = &ast.items[0].kind else { panic!() };
        assert_eq!((type_name.as_str(), trait_name.is_none()), ("Foo", true));
        let ItemKind::Impl { type_name, trait_name } = &ast.items[1].kind else { panic!() };
        assert_eq!((type_name.as_str(), trait_name.as_deref()), ("Bar", Some("Debug")));
        let ItemKind::Fn { has_self, .. } = ast.items[0].children[0].kind else { panic!() };
        assert!(has_self);
        let ItemKind::Fn { has_self, .. } = ast.items[0].children[1].kind else { panic!() };
        assert!(!has_self);
    }

    #[test]
    fn nested_modules_and_cfg_test_masking() {
        let src = "
            mod outer {
                pub fn live() {}
                #[cfg(test)]
                mod tests {
                    fn helper() {}
                }
            }
            #[cfg(test)]
            fn top_test_helper() {}
        ";
        let ast = parse_src(src);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let mut flags = Vec::new();
        ast.walk(&mut |it| {
            if matches!(it.kind, ItemKind::Fn { .. }) {
                flags.push((it.name.clone(), it.cfg_test));
            }
        });
        assert_eq!(
            flags,
            vec![
                ("live".to_string(), false),
                ("helper".to_string(), true),
                ("top_test_helper".to_string(), true)
            ]
        );
    }

    #[test]
    fn public_means_bare_pub() {
        let ast = parse_src("pub fn a() {} pub(crate) fn b() {} fn c() {} #[derive(Debug)] pub struct S;");
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let vis: Vec<(&str, bool)> = ast.items.iter().map(|it| (it.name.as_str(), it.public)).collect();
        assert_eq!(vis, [("a", true), ("b", false), ("c", false), ("S", true)]);
    }

    #[test]
    fn use_trees_flatten_with_aliases_groups_and_globs() {
        let src = "
            use std::collections::HashMap as Cache;
            use std::collections::{BTreeMap, hash_map::Entry};
            use crate::prelude::*;
        ";
        let ast = parse_src(src);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let mut imports = Vec::new();
        ast.walk(&mut |it| {
            if let ItemKind::Use { imports: im } = &it.kind {
                imports.extend(im.iter().cloned());
            }
        });
        let find = |name: &str| imports.iter().find(|(_, b)| b == name).map(|(p, _)| p.join("::"));
        assert_eq!(find("Cache").as_deref(), Some("std::collections::HashMap"));
        assert_eq!(find("BTreeMap").as_deref(), Some("std::collections::BTreeMap"));
        assert_eq!(find("Entry").as_deref(), Some("std::collections::hash_map::Entry"));
        assert_eq!(find("*").as_deref(), Some("crate::prelude"));
    }

    #[test]
    fn traits_parse_default_methods_as_children() {
        let src = "
            pub trait Runner: Send {
                fn run(&self);
                fn twice(&self) { self.run(); self.run(); }
            }
        ";
        let ast = parse_src(src);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let kids = &ast.items[0].children;
        assert_eq!(kids.len(), 2);
        assert!(matches!(kids[0].kind, ItemKind::Fn { body: None, .. }));
        assert!(matches!(kids[1].kind, ItemKind::Fn { body: Some(_), .. }));
    }

    #[test]
    fn consts_with_brace_values_and_macros_parse() {
        let src = "
            pub const LUT: [u8; 4] = { let x = 3; [x; 4] };
            static mut COUNTER: u32 = 0;
            macro_rules! gen { ($x:ident) => { fn $x() {} }; }
            gen!(made);
            thread_local! { static TL: u32 = 0; }
        ";
        let ast = parse_src(src);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let kinds: Vec<String> = names(&ast).iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(kinds, ["const", "static", "macro", "macro", "macro"]);
    }

    #[test]
    fn recovery_reports_errors_and_continues() {
        let src = "fn good() {}\n???\nfn also_good() {}";
        let ast = parse_src(src);
        assert!(!ast.is_clean());
        let fn_names: Vec<String> =
            names(&ast).into_iter().filter(|(k, _)| k == "fn").map(|(_, n)| n).collect();
        assert_eq!(fn_names, ["good", "also_good"]);
    }

    #[test]
    fn pretty_print_round_trips_outline() {
        let src = "
            use std::collections::HashMap as Cache;
            pub struct S { m: Cache<u32, u32> }
            impl S {
                pub fn sum(&self) -> u32 { self.m.values().sum() }
            }
            mod inner { pub fn f<T: Fn() -> u32>(g: T) -> u32 { g() } }
        ";
        let lexed = lex(src);
        let ast = parse(&lexed.tokens);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let printed = pretty_print(&lexed.tokens);
        let relexed = lex(&printed);
        let reparsed = parse(&relexed.tokens);
        assert!(reparsed.is_clean(), "{:?}", reparsed.errors);
        assert_eq!(outline(&ast), outline(&reparsed));
    }

    /// Lexer → parser → pretty-print round-trip.
    ///
    /// Two halves, one property: re-lexing `pretty_print`ed tokens and
    /// re-parsing must reproduce the exact item outline (kind, name,
    /// line, nesting). The exhaustive half runs the property over every
    /// `.rs` file in the real workspace — the tree the linter actually
    /// guards — and doubles as the "every file parses" regression gate.
    /// The proptest half fuzzes synthetic files assembled from the
    /// grammar the parser claims to cover: generics, trait impls, nested
    /// modules, `#[cfg(test)]` masking, use-trees, and item-level macros.
    mod roundtrip {
        use std::path::{Path, PathBuf};

        use super::{outline, pretty_print};
        use crate::ast::parse;
        use crate::lexer::lex;
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
    }
}
