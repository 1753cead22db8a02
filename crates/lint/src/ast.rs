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
//! It is the linter's only structure parser: every rule reads struct
//! fields, return and const types, enum variants, declaration lines and
//! `#[cfg(test)]` spans from the items built here.
//!
//! Files the parser cannot handle produce `ParseError`s, and a lint run
//! that meets one fails with the file and line.

use crate::lexer::{Tok, Token};

/// What kind of item a node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ItemKind {
    /// `fn name(..) { .. }` — `body` is the token range of the braced
    /// block (inclusive of both braces), absent for bodiless
    /// declarations (trait methods, extern fns).
    Fn {
        /// Token range `[start, end]` of the braced body, if any.
        body: Option<(usize, usize)>,
        /// Whether the parameter list starts with a `self` receiver.
        has_self: bool,
        /// `(name, type range)` of each `name: Type` parameter; receivers
        /// and destructuring patterns are left out.
        params: Vec<(String, (usize, usize))>,
        /// Token range `[start, end]` of the return type after `->`, up
        /// to a `where` clause, if any.
        ret: Option<(usize, usize)>,
    },
    /// `struct name`, unit/tuple/braced.
    Struct {
        /// Fields in declaration order (none for a unit struct).
        fields: Vec<Field>,
    },
    /// `enum name { .. }`.
    Enum {
        /// Variants in declaration order.
        variants: Vec<Variant>,
    },
    /// `union name { .. }`.
    Union {
        /// Fields in declaration order.
        fields: Vec<Field>,
    },
    /// `trait name { .. }` — children hold default methods.
    Trait,
    /// `impl Type { .. }` / `impl Trait for Type { .. }`.
    Impl {
        /// Last path ident of the implemented type (`Foo` in
        /// `impl<T> fmt::Debug for Foo<T>`).
        type_name: String,
        /// Last path ident of the trait, for trait impls.
        trait_name: Option<String>,
        /// Token range `[start, end]` of the braced body.
        body: (usize, usize),
    },
    /// `mod name;` or `mod name { .. }` — children hold nested items.
    Mod,
    /// One `use` statement, flattened into simple imports.
    Use {
        /// `(path segments, bound name)` pairs; glob imports bind `"*"`.
        imports: Vec<(Vec<String>, String)>,
    },
    /// `const NAME: T = ..;`
    Const {
        /// Token range `[start, end]` of `T`.
        ty: (usize, usize),
    },
    /// `static NAME: T = ..;`
    Static {
        /// Token range `[start, end]` of `T`.
        ty: (usize, usize),
    },
    /// `type Name = ..;`
    TypeAlias,
    /// `macro_rules! name { .. }` or an item-level macro invocation.
    Macro,
    /// `extern crate name;` / `extern { .. }` foreign block.
    Extern,
}

/// One parsed item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Item {
    /// The kind, with kind-specific payload.
    pub(crate) kind: ItemKind,
    /// Item name (`""` for impls — see `ItemKind::Impl` — and globs).
    pub(crate) name: String,
    /// 1-indexed line of the item's first token, attributes included:
    /// a `determinism-taint` finding on a fn (and the waiver that makes
    /// it a barrier) sits on the line of its first attribute.
    pub(crate) line: u32,
    /// 1-indexed line of the item's first token after its attributes,
    /// where `raw-unit`, `dead-pub` and `narrow-pub` report it.
    pub(crate) decl_line: u32,
    /// Token range `[start, end]` (inclusive) covering the whole item,
    /// attributes included.
    pub(crate) span: (usize, usize),
    /// Whether the item (or an enclosing one) is `#[cfg(test)]`.
    pub(crate) cfg_test: bool,
    /// Whether the item's visibility is a bare `pub` (not `pub(crate)`
    /// and friends).
    pub(crate) public: bool,
    /// Nested items (mod / impl / trait bodies).
    pub(crate) children: Vec<Item>,
}

/// One struct or union field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Field {
    /// The field's name, or its index in a tuple struct (`"0"`, `"1"`, …).
    pub(crate) name: String,
    /// 1-indexed line of the field's first token after its attributes.
    pub(crate) line: u32,
    /// Token range `[start, end]` of the whole field, attributes included.
    pub(crate) span: (usize, usize),
    /// Token range `[start, end]` of the field's type.
    pub(crate) ty: (usize, usize),
    /// Whether the field is bare `pub`.
    pub(crate) public: bool,
    /// Whether the field (or its item) is `#[cfg(test)]`.
    pub(crate) cfg_test: bool,
}

/// One enum variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Variant {
    /// The variant's name.
    pub(crate) name: String,
    /// 1-indexed line of the name.
    pub(crate) line: u32,
    /// Token range `[start, end]` of the whole variant, attributes included.
    pub(crate) span: (usize, usize),
    /// Whether the variant (or its enum) is `#[cfg(test)]`.
    pub(crate) cfg_test: bool,
}

/// A recoverable parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParseError {
    /// 1-indexed line where recovery started.
    pub(crate) line: u32,
    /// What the parser was looking at.
    pub(crate) message: String,
}

/// The parse result for one file.
#[derive(Debug, Default)]
pub(crate) struct Ast {
    /// Top-level items in source order.
    pub(crate) items: Vec<Item>,
    /// Recovered errors; non-empty means the file did not parse.
    pub(crate) errors: Vec<ParseError>,
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

    /// Marks the tokens of `toks`, the stream this AST was parsed from,
    /// that are `#[cfg(test)]` code, which every rule leaves out: test
    /// items, fields and variants, and the test statements of fn bodies,
    /// attributes included.
    pub(crate) fn test_mask(&self, toks: &[Token]) -> Vec<bool> {
        let mut mask = vec![false; toks.len()];
        self.walk(&mut |it| {
            let mut spans = vec![(it.cfg_test, it.span)];
            match &it.kind {
                ItemKind::Struct { fields } | ItemKind::Union { fields } => {
                    spans.extend(fields.iter().map(|f| (f.cfg_test, f.span)));
                }
                ItemKind::Enum { variants } => spans.extend(variants.iter().map(|v| (v.cfg_test, v.span))),
                ItemKind::Fn { body: Some((open, close)), .. } if !it.cfg_test => {
                    spans.extend(body_tests(toks, open + 1, *close).into_iter().map(|s| (true, s)));
                }
                _ => {}
            }
            for (_, (start, end)) in spans.into_iter().filter(|(test, _)| *test) {
                mask[start..=end].fill(true);
            }
        });
        mask
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

/// Keywords that can qualify an item after its visibility.
const QUALIFIERS: [&str; 5] = ["default", "const", "unsafe", "async", "extern"];

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

    /// Skips the outer `#[..]` and inner `#![..]` attributes at `i`:
    /// the index after them, and whether one is `#[cfg(test)]`.
    fn attrs(&self, mut i: usize, end: usize) -> Option<(usize, bool)> {
        let mut cfg_test = false;
        while self.is_punct(i, '#') {
            let mut j = i + 1;
            if self.is_punct(j, '!') {
                j += 1;
            }
            if !self.is_punct(j, '[') {
                return None;
            }
            let close = balanced(self.toks, j, end, '[', ']')?;
            cfg_test |= attr_is_cfg_test(&self.toks[j..=close]);
            i = close + 1;
        }
        Some((i, cfg_test))
    }

    /// Skips a visibility at `i`: the index after it, and whether it is
    /// a bare `pub` (not `pub(crate)` and friends).
    fn visibility(&self, i: usize, end: usize) -> Option<(usize, bool)> {
        if self.ident(i) != Some("pub") {
            Some((i, false))
        } else if self.is_punct(i + 1, '(') {
            Some((balanced(self.toks, i + 1, end, '(', ')')? + 1, false))
        } else {
            Some((i + 1, true))
        }
    }

    /// Tries to parse one item at `i`. Returns `None` when `i` does not
    /// start anything the grammar knows (caller recovers).
    fn item(&mut self, start: usize, end: usize, in_test: bool) -> Option<Item> {
        let (decl, test) = self.attrs(start, end)?;
        let cfg_test = in_test || test;
        if decl >= end {
            // Attribute-only tail (inner attributes at file top already
            // consumed): treat as a zero-item macro span.
            return (decl > start).then(|| self.mk(ItemKind::Macro, "", start, decl - 1, cfg_test));
        }

        // Visibility and qualifiers.
        let (mut i, public) = self.visibility(decl, end)?;
        let mut saw_extern = false;
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
        }
        let item = if saw_extern && self.is_punct(i, '{') {
            // `extern { .. }` foreign block.
            let close = balanced(self.toks, i, end, '{', '}')?;
            Some(self.mk(ItemKind::Extern, "", start, close, cfg_test))
        } else {
            let kw = self.ident(i)?;
            match kw {
                // `extern crate name;`
                "crate" if saw_extern => {
                    let semi = self.find_semi(i, end)?;
                    let name = self.ident(i + 1).unwrap_or_default();
                    Some(self.mk(ItemKind::Extern, name, start, semi, cfg_test))
                }
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
                    let name = self.ident(j)?;
                    if !self.is_punct(j + 1, ':') {
                        return None;
                    }
                    let semi = self.find_semi(j, end)?;
                    // The type runs from past `NAME:` to the `=` outside
                    // its generics (or to the `;`).
                    let eq = top_level(self.toks, j + 2, semi, true, |t| t.is_punct('=')).unwrap_or(semi);
                    if eq <= j + 2 {
                        return None;
                    }
                    let ty = (j + 2, eq - 1);
                    let kind = if kw == "const" { ItemKind::Const { ty } } else { ItemKind::Static { ty } };
                    Some(self.mk(kind, name, start, semi, cfg_test))
                }
                "type" => {
                    let name = self.ident(i + 1).unwrap_or_default();
                    let semi = self.find_semi(i + 1, end)?;
                    Some(self.mk(ItemKind::TypeAlias, name, start, semi, cfg_test))
                }
                "macro_rules" => {
                    // `macro_rules ! name { .. }`
                    let mut j = i + 1;
                    if self.is_punct(j, '!') {
                        j += 1;
                    }
                    let name = self.ident(j).unwrap_or_default();
                    j += 1;
                    let close = balanced(self.toks, j, end, '{', '}')?;
                    Some(self.mk(ItemKind::Macro, name, start, close, cfg_test))
                }
                // Item-level macro invocation: `name!( .. );` / `name! { .. }`.
                _ if self.is_punct(i + 1, '!') => {
                    let j = i + 2;
                    let close = if self.is_punct(j, '{') {
                        balanced(self.toks, j, end, '{', '}')?
                    } else {
                        let c = if self.is_punct(j, '(') {
                            balanced(self.toks, j, end, '(', ')')?
                        } else if self.is_punct(j, '[') {
                            balanced(self.toks, j, end, '[', ']')?
                        } else {
                            return None;
                        };
                        if self.is_punct(c + 1, ';') {
                            c + 1
                        } else {
                            c
                        }
                    };
                    Some(self.mk(ItemKind::Macro, kw, start, close, cfg_test))
                }
                _ => None,
            }
        };
        item.map(|item| Item { public, decl_line: self.line(decl), ..item })
    }

    fn mk(&self, kind: ItemKind, name: &str, start: usize, end_tok: usize, cfg_test: bool) -> Item {
        Item {
            kind,
            name: name.to_string(),
            line: self.line(start),
            decl_line: self.line(start),
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
        let params_close = balanced(self.toks, i, end, '(', ')')?;
        let has_self = self.toks[i + 1..params_close].iter().take(4).any(|t| t.ident() == Some("self"));
        let params = self.params(i + 1, params_close);
        // Return type / where clause: scan to the body `{` or a `;` at
        // bracket depth 0. `<`/`>` never nest braces, so only (), [] and
        // {} matter — and `{` here *is* the body.
        let ret_start = (self.is_punct(params_close + 1, '-') && self.is_punct(params_close + 2, '>'))
            .then_some(params_close + 3);
        let mut ret_stop = None;
        let mut j = params_close + 1;
        let mut depth = 0usize;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.checked_sub(1)?;
            } else if depth == 0 && t.ident() == Some("where") {
                ret_stop.get_or_insert(j);
            } else if depth == 0 && (t.is_punct(';') || t.is_punct('{')) {
                let stop = ret_stop.unwrap_or(j);
                let ret = ret_start.filter(|&s| s < stop).map(|s| (s, stop - 1));
                let body =
                    if t.is_punct('{') { Some((j, balanced(self.toks, j, end, '{', '}')?)) } else { None };
                let close = body.map_or(j, |(_, c)| c);
                let kind = ItemKind::Fn { body, has_self, params, ret };
                return Some(self.mk(kind, &name, start, close, cfg_test));
            }
            j += 1;
        }
        None
    }

    /// The `name: Type` parameters in `[start, end)`, as `(name, type
    /// range)`.
    fn params(&self, start: usize, end: usize) -> Vec<(String, (usize, usize))> {
        let mut out = Vec::new();
        for (a, b) in split_top_commas(&self.toks[start..end], true) {
            let (a, b) = (start + a, start + b);
            let Some((mut i, _)) = self.attrs(a, b) else { continue };
            while matches!(self.ident(i), Some("mut" | "ref")) {
                i += 1;
            }
            if let (Some(name), true) = (self.ident(i), self.is_punct(i + 1, ':')) {
                if name != "self" && i + 2 < b {
                    out.push((name.to_string(), (i + 2, b - 1)));
                }
            }
        }
        out
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
        let mut fields = Vec::new();
        if kw == "struct" && self.is_punct(i, '(') {
            let close = balanced(self.toks, i, end, '(', ')')?;
            fields = self.fields(i + 1, close, cfg_test, false);
            i = close + 1;
        }
        // Scan past where-clauses / supertrait lists to the `;` or the
        // braced body.
        let mut depth = 0usize;
        let (close, body) = loop {
            let t = self.toks.get(i).filter(|_| i < end)?;
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.checked_sub(1)?;
            } else if t.is_punct('<') && depth == 0 {
                i = self.skip_generics(i, end)?;
            } else if depth == 0 && t.is_punct(';') {
                break (i, None);
            } else if depth == 0 && t.is_punct('{') {
                break (balanced(self.toks, i, end, '{', '}')?, Some(i + 1));
            }
            i += 1;
        };
        if let (Some(open), "struct" | "union") = (body, kw) {
            fields = self.fields(open, close, cfg_test, true);
        }
        let kind = match kw {
            "struct" => ItemKind::Struct { fields },
            "union" => ItemKind::Union { fields },
            "enum" => ItemKind::Enum {
                variants: body.map_or_else(Vec::new, |open| self.variants(open, close, cfg_test)),
            },
            _ => ItemKind::Trait,
        };
        let mut item = self.mk(kind, &name, start, close, cfg_test);
        if let (Some(open), "trait") = (body, kw) {
            item.children = self.items(open, close, cfg_test);
        }
        Some(item)
    }

    /// The fields of a struct or union body `[start, end)`: `name: Type`
    /// when `named`, else tuple fields named by their index.
    fn fields(&self, start: usize, end: usize, in_test: bool, named: bool) -> Vec<Field> {
        let mut out = Vec::new();
        for (a, b) in split_top_commas(&self.toks[start..end], true) {
            let (a, b) = (start + a, start + b);
            let Some((decl, test)) = self.attrs(a, b) else { continue };
            let Some((mut i, public)) = self.visibility(decl, b) else { continue };
            let name = if !named {
                out.len().to_string()
            } else if let (Some(name), true) = (self.ident(i), self.is_punct(i + 1, ':')) {
                i += 2;
                name.to_string()
            } else {
                continue;
            };
            if i < b {
                let cfg_test = in_test || test;
                out.push(Field {
                    name,
                    line: self.line(decl),
                    span: (a, b - 1),
                    ty: (i, b - 1),
                    public,
                    cfg_test,
                });
            }
        }
        out
    }

    /// The variants of an enum body `[start, end)`.
    fn variants(&self, start: usize, end: usize, in_test: bool) -> Vec<Variant> {
        let mut out = Vec::new();
        for (a, b) in split_top_commas(&self.toks[start..end], false) {
            let (a, b) = (start + a, start + b);
            let Some((i, test)) = self.attrs(a, b) else { continue };
            if let Some(name) = self.ident(i).filter(|_| i < b) {
                let cfg_test = in_test || test;
                out.push(Variant { name: name.to_string(), line: self.line(i), span: (a, b - 1), cfg_test });
            }
        }
        out
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
        let close = balanced(self.toks, body_open, end, '{', '}')?;
        let (type_path, trait_path) =
            if seen_for { (after_for, Some(before_for)) } else { (before_for, None) };
        let type_name = type_path.last().cloned().unwrap_or_default();
        let trait_name = trait_path.and_then(|p| p.last().cloned());
        let mut item = self.mk(
            ItemKind::Impl { type_name: type_name.clone(), trait_name, body: (body_open, close) },
            "",
            start,
            close,
            cfg_test,
        );
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
        let close = balanced(self.toks, kw + 2, end, '{', '}')?;
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
    fn find_semi(&self, i: usize, end: usize) -> Option<usize> {
        top_level(self.toks, i, end, false, |t| t.is_punct(';'))
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

/// Whether an attribute token slice (from `[` to `]`) compiles its item
/// only under test: `cfg(test)`, or `cfg(all(..))` with `test` as a
/// direct member. `cfg(not(test))` and `cfg(any(.., test))` items are
/// product code.
fn attr_is_cfg_test(attr: &[Token]) -> bool {
    let [_, cfg, open, pred @ .., close, _] = attr else { return false };
    if cfg.ident() != Some("cfg") || !open.is_punct('(') || !close.is_punct(')') {
        return false;
    }
    let is_test = |p: &[Token]| matches!(p, [t] if t.ident() == Some("test"));
    match pred {
        [all, open, members @ .., close]
            if all.ident() == Some("all") && open.is_punct('(') && close.is_punct(')') =>
        {
            split_top_commas(members, false).into_iter().any(|(a, b)| is_test(&members[a..b]))
        }
        _ => is_test(pred),
    }
}

/// The `#[cfg(test)]` statements of a fn body `[start, end)`, attributes
/// included. Bodies are not parsed, so a statement runs from its
/// attributes to its first `;` or `,` outside brackets, or to the `}`
/// closing the first block it opens (a block, a nested item, the first
/// branch of an `if`).
fn body_tests(toks: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let open = if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) { i + 2 } else { i + 1 };
        match toks[i].is_punct('#').then(|| balanced(toks, open, end, '[', ']')).flatten() {
            Some(close) if attr_is_cfg_test(&toks[open..=close]) => {
                let stmt = statement_end(toks, close + 1, end);
                out.push((i, stmt));
                i = stmt + 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// The last token of the statement that starts at `start`, before
/// `end` or a close bracket that nothing in it opened.
fn statement_end(toks: &[Token], start: usize, end: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().take(end).skip(start) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            let Some(d) = depth.checked_sub(1) else { return j - 1 };
            depth = d;
            if depth == 0 && t.is_punct('}') {
                return j;
            }
        } else if depth == 0 && (t.is_punct(';') || t.is_punct(',')) {
            return j;
        }
    }
    end - 1
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
            let close = balanced(toks, i, toks.len(), '{', '}').unwrap_or(toks.len());
            let inner = &toks[i + 1..close];
            let mut new_prefix = prefix.to_vec();
            new_prefix.append(&mut segment);
            for (a, b) in split_top_commas(inner, false) {
                collect_use(&inner[a..b], &mut new_prefix.clone(), out);
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

/// From an `open` delimiter at `i`, the index of its matching `close`
/// before `end`. Only the named pair is counted — safe because strings
/// and comments never reach the token stream.
pub(crate) fn balanced(toks: &[Token], i: usize, end: usize, open: char, close: char) -> Option<usize> {
    if !toks.get(i).is_some_and(|t| t.is_punct(open)) {
        return None;
    }
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().take(end).skip(i) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the first token in `toks[start..end]` outside every bracket
/// (and, with `angles`, every generic list) for which `stop` holds;
/// `None` at a close bracket that nothing opened.
fn top_level(
    toks: &[Token],
    start: usize,
    end: usize,
    angles: bool,
    stop: impl Fn(&Token) -> bool,
) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().take(end).skip(start) {
        let arrow = i > 0 && toks[i - 1].is_punct('-');
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || (angles && t.is_punct('<')) {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.checked_sub(1)?;
        } else if angles && t.is_punct('>') && !arrow {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && stop(t) {
            return Some(i);
        }
    }
    None
}

/// Splits `toks` at its top-level commas into half-open index ranges;
/// `angles` counts generic lists as brackets too.
fn split_top_commas(toks: &[Token], angles: bool) -> Vec<(usize, usize)> {
    let mut parts = Vec::new();
    let mut start = 0;
    while start < toks.len() {
        let comma = top_level(toks, start, toks.len(), angles, |t| t.is_punct(',')).unwrap_or(toks.len());
        parts.push((start, comma));
        start = comma + 1;
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
                    ItemKind::Struct { .. } => "struct",
                    ItemKind::Enum { .. } => "enum",
                    ItemKind::Union { .. } => "union",
                    ItemKind::Trait => "trait",
                    ItemKind::Impl { type_name, trait_name, .. } => {
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
                    ItemKind::Const { .. } => "const",
                    ItemKind::Static { .. } => "static",
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
                ItemKind::Struct { .. } => "struct",
                ItemKind::Enum { .. } => "enum",
                ItemKind::Union { .. } => "union",
                ItemKind::Trait => "trait",
                ItemKind::Impl { .. } => "impl",
                ItemKind::Mod => "mod",
                ItemKind::Use { .. } => "use",
                ItemKind::Const { .. } => "const",
                ItemKind::Static { .. } => "static",
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
        let ItemKind::Impl { type_name, trait_name, .. } = &ast.items[0].kind else { panic!() };
        assert_eq!((type_name.as_str(), trait_name.is_none()), ("Foo", true));
        let ItemKind::Impl { type_name, trait_name, .. } = &ast.items[1].kind else { panic!() };
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

    /// The tokens of `range` separated by spaces.
    fn spell(tokens: &[Token], (start, end): (usize, usize)) -> String {
        tokens[start..=end].iter().map(describe).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn cfg_test_is_test_or_an_all_with_test_as_a_member() {
        let src = "
            #[cfg(test)] fn a() {}
            #[cfg(all(test, feature = \"x\"))] fn b() {}
            #[cfg(not(test))] fn c() {}
            #[cfg(any(unix, test))] fn d() {}
            #[cfg(all(unix, not(test)))] fn e() {}
            #[cfg_attr(test, derive(Debug))] fn f() {}
        ";
        let ast = parse_src(src);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let flags: Vec<(&str, bool)> = ast.items.iter().map(|it| (it.name.as_str(), it.cfg_test)).collect();
        assert_eq!(flags, [("a", true), ("b", true), ("c", false), ("d", false), ("e", false), ("f", false)]);
    }

    #[test]
    fn line_is_the_first_attribute_and_decl_line_the_item() {
        // A waived `determinism-taint` barrier is reported on its first
        // attribute's line, so its waiver sits above the attributes.
        let ast = parse_src("#[must_use]\n#[inline]\npub fn f() -> u32 { 0 }\npub const X: u32 = 1;");
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let lines: Vec<(u32, u32)> = ast.items.iter().map(|it| (it.line, it.decl_line)).collect();
        assert_eq!(lines, [(1, 3), (4, 4)]);
    }

    #[test]
    fn fields_carry_name_visibility_test_flag_and_type() {
        let src = "
            pub struct S<F> {
                #[cfg(test)]
                pub probe_s: f64,
                /// A boxed callback.
                pub(crate) call: Box<dyn Fn(u32) -> f64>,
                #[doc(hidden)] pub rate_hz: F,
            }
            pub struct Pair(pub u32, Vec<(u8, u8)>) where u8: Copy;
            pub struct Unit;
        ";
        let lexed = lex(src);
        let ast = parse(&lexed.tokens);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let fields = |it: &Item| {
            let ItemKind::Struct { fields } = &it.kind else { panic!("{it:?}") };
            fields
                .iter()
                .map(|f| (f.name.clone(), f.line, f.public, f.cfg_test, spell(&lexed.tokens, f.ty)))
                .collect::<Vec<_>>()
        };
        let row =
            |name: &str, line, public, test, ty: &str| (name.to_string(), line, public, test, ty.to_string());
        assert_eq!(
            fields(&ast.items[0]),
            [
                row("probe_s", 4, true, true, "f64"),
                row("call", 6, false, false, "Box < dyn Fn ( u32 ) - > f64 >"),
                row("rate_hz", 7, true, false, "F"),
            ]
        );
        assert_eq!(
            fields(&ast.items[1]),
            [row("0", 9, true, false, "u32"), row("1", 9, false, false, "Vec < ( u8 , u8 ) >")]
        );
        assert!(fields(&ast.items[2]).is_empty());
        // Only the test field is masked, its attribute included.
        let mask = ast.test_mask(&lexed.tokens);
        let masked: Vec<String> =
            lexed.tokens.iter().zip(&mask).filter(|(_, m)| **m).map(|(t, _)| describe(t)).collect();
        assert_eq!(masked, ["#", "[", "cfg", "(", "test", ")", "]", "pub", "probe_s", ":", "f64"]);
    }

    #[test]
    fn test_statements_in_fn_bodies_are_masked_and_nothing_after_them() {
        let src = "
            fn f(x: Option<u32>) -> u32 {
                #[cfg(test)]
                { x.unwrap(); }
                #[cfg(test)]
                let probe = x.expect(\"set\");
                match x {
                    #[cfg(test)]
                    Some(7) => panic!(),
                    _ => {}
                }
                #[cfg(not(test))]
                let shipped = x.unwrap_or(0);
                #[cfg(test)]
                fn helper() { None::<u32>.unwrap(); }
                keep()
            }
        ";
        let lexed = lex(src);
        let ast = parse(&lexed.tokens);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let mask = ast.test_mask(&lexed.tokens);
        let masked: Vec<&str> =
            lexed.tokens.iter().zip(&mask).filter(|(_, m)| **m).filter_map(|(t, _)| t.ident()).collect();
        let test = ["cfg", "test"];
        let expected = [
            &test[..],
            &["x", "unwrap"],
            &test,
            &["let", "probe", "x", "expect"],
            &test,
            &["Some", "panic"],
            &test,
            &["fn", "helper", "None", "u32", "unwrap"],
        ]
        .concat();
        assert_eq!(masked, expected);
    }

    #[test]
    fn fns_carry_their_return_type_and_consts_their_type() {
        let src = "
            pub fn samples<T>(v: &[T]) -> impl Iterator<Item = f64> + '_ where T: Copy { v.iter().map(|_| 0.0) }
            fn unit() {}
            fn decl(&self) -> [f64; 4];
            pub static mut RATE_HZ: Box<dyn Iterator<Item = f64>> = make();
            const N: usize = 4;
        ";
        let lexed = lex(src);
        let ast = parse(&lexed.tokens);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let types: Vec<Option<String>> = ast
            .items
            .iter()
            .map(|it| match &it.kind {
                ItemKind::Fn { ret, .. } => ret.map(|r| spell(&lexed.tokens, r)),
                ItemKind::Const { ty } | ItemKind::Static { ty } => Some(spell(&lexed.tokens, *ty)),
                _ => panic!("{it:?}"),
            })
            .collect();
        assert_eq!(
            types,
            [
                Some("impl Iterator < Item = f64 > + <lifetime>".to_string()),
                None,
                Some("[ f64 ; <number> ]".to_string()),
                Some("Box < dyn Iterator < Item = f64 > >".to_string()),
                Some("usize".to_string()),
            ]
        );
    }

    #[test]
    fn fn_params_carry_names_and_types() {
        let src = "fn f(&mut self, mut rows: HashMap<u8, (u8, u8)>, (a, b): (u8, u8), #[allow(x)] cb: impl Fn(u8) -> u8) {}";
        let lexed = lex(src);
        let ast = parse(&lexed.tokens);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let ItemKind::Fn { params, has_self, .. } = &ast.items[0].kind else { panic!("{:?}", ast.items) };
        let got: Vec<(&str, String)> =
            params.iter().map(|(n, ty)| (n.as_str(), spell(&lexed.tokens, *ty))).collect();
        assert!(has_self);
        assert_eq!(
            got,
            [
                ("rows", "HashMap < u8 , ( u8 , u8 ) >".to_string()),
                ("cb", "impl Fn ( u8 ) - > u8".to_string())
            ]
        );
    }

    #[test]
    fn enums_carry_their_variants_and_lines() {
        let src = "
            pub enum Event {
                /// Documented.
                A,
                #[cfg(test)]
                B(u32, u8),
                C { x: u8, y: u8 },
                D = 4,
            }
        ";
        let ast = parse_src(src);
        assert!(ast.is_clean(), "{:?}", ast.errors);
        let ItemKind::Enum { variants } = &ast.items[0].kind else { panic!("{:?}", ast.items) };
        let got: Vec<(&str, u32, bool)> =
            variants.iter().map(|v| (v.name.as_str(), v.line, v.cfg_test)).collect();
        assert_eq!(got, [("A", 4), ("B", 6), ("C", 7), ("D", 8)].map(|(n, l)| (n, l, n == "B")));
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
