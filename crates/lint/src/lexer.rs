//! A minimal Rust lexer: just enough structure for line-accurate rule
//! checks without a full parse.
//!
//! The token stream keeps identifiers, single-character punctuation and
//! number placeholders; comments, strings and char literals are consumed
//! (never tokenized), so rule patterns can match on idents without being
//! fooled by prose or string payloads. Waiver comments of the form
//! `// lint: allow(rule-name)` are collected into a per-line map as a
//! side product of lexing, and so are the lines of `// SAFETY: …`
//! comments (consumed by the `safety-comment` rule).

use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    /// An identifier or keyword.
    Ident(String),
    /// A single punctuation character (`.`, `(`, `!`, …).
    Punct(char),
    /// A numeric literal (value discarded; placeholder keeps positions).
    Number,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// A token plus the 1-indexed source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    /// The token itself.
    pub(crate) tok: Tok,
    /// 1-indexed line number.
    pub(crate) line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    #[must_use]
    pub(crate) fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    #[must_use]
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }
}

/// The result of lexing one file: tokens plus waiver annotations.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    /// The token stream, in source order.
    pub(crate) tokens: Vec<Token>,
    /// `line → rule names` waived on that line (and the line after it),
    /// harvested from `// lint: allow(rule)` comments.
    pub(crate) waivers: BTreeMap<u32, BTreeSet<String>>,
    /// Lines carrying a `// SAFETY:` comment (the `safety-comment` rule
    /// requires one near every `unsafe` block).
    pub(crate) safety_lines: BTreeSet<u32>,
}

impl Lexed {
    /// Whether `rule` is waived at `line` — true when a waiver comment
    /// sits on the same line or on the line directly above.
    #[must_use]
    pub(crate) fn is_waived(&self, rule: &str, line: u32) -> bool {
        let hit = |l: u32| self.waivers.get(&l).is_some_and(|s| s.contains(rule));
        hit(line) || (line > 0 && hit(line - 1))
    }
}

/// Lexes `src` into tokens and waiver annotations.
#[must_use]
pub(crate) fn lex(src: &str) -> Lexed {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if matches!(bytes.get(i + 1), Some('/')) => {
                // Line comment: scan for a waiver directive, then skip.
                let start = i;
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                // Doc comments (`///`, `//!`) *describe* code — a
                // waiver-syntax example inside one must not register as
                // a real waiver (the stale-waiver rule would then flag
                // every doc mention of the syntax).
                let is_doc = matches!(bytes.get(start + 2), Some('/' | '!'));
                if !is_doc {
                    collect_waivers(&text, line, &mut out.waivers);
                }
                if text.contains("SAFETY:") {
                    out.safety_lines.insert(line);
                }
            }
            '/' if matches!(bytes.get(i + 1), Some('*')) => {
                // Block comment, nested per Rust.
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == '/' && matches!(bytes.get(i + 1), Some('*')) {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && matches!(bytes.get(i + 1), Some('/')) {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => i = skip_string(&bytes, i, &mut line),
            'r' | 'b' if starts_raw_or_byte_string(&bytes, i) => {
                i = skip_raw_or_byte_string(&bytes, i, &mut line);
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`).
                let next = bytes.get(i + 1).copied();
                let after = bytes.get(i + 2).copied();
                let is_lifetime =
                    matches!(next, Some(n) if n.is_alphabetic() || n == '_') && after != Some('\'');
                if is_lifetime {
                    i += 1;
                    while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                        i += 1;
                    }
                    out.tokens.push(Token { tok: Tok::Lifetime, line });
                } else {
                    // Char literal: consume up to the closing quote,
                    // honoring escapes.
                    i += 1;
                    while i < bytes.len() && bytes[i] != '\'' {
                        if bytes[i] == '\\' {
                            i += 1;
                        }
                        if bytes[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let ident: String = bytes[start..i].iter().collect();
                out.tokens.push(Token { tok: Tok::Ident(ident), line });
            }
            c if c.is_ascii_digit() => {
                // Number literal, including `1e-9`, `0x1f`, `1_000.5f64`.
                i += 1;
                while i < bytes.len() {
                    let d = bytes[i];
                    let exp_sign = (d == '+' || d == '-') && matches!(bytes.get(i - 1), Some('e' | 'E'));
                    if d.is_alphanumeric() || d == '_' || d == '.' || exp_sign {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token { tok: Tok::Number, line });
            }
            c => {
                out.tokens.push(Token { tok: Tok::Punct(c), line });
                i += 1;
            }
        }
    }
    out
}

/// Whether position `i` starts a raw string (`r"`, `r#"`) or byte string
/// (`b"`, `br"`, `br#"`).
fn starts_raw_or_byte_string(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    if matches!(bytes.get(j), Some('r')) {
        j += 1;
        while matches!(bytes.get(j), Some('#')) {
            j += 1;
        }
    }
    j > i && matches!(bytes.get(j), Some('"'))
}

/// Skips a raw/byte string starting at `i`; returns the index past it.
fn skip_raw_or_byte_string(bytes: &[char], mut i: usize, line: &mut u32) -> usize {
    if bytes[i] == 'b' {
        i += 1;
    }
    let mut hashes = 0usize;
    if matches!(bytes.get(i), Some('r')) {
        i += 1;
        while matches!(bytes.get(i), Some('#')) {
            hashes += 1;
            i += 1;
        }
    }
    debug_assert!(matches!(bytes.get(i), Some('"')));
    i += 1; // opening quote
    if hashes == 0 && bytes.get(i - 2) != Some(&'r') {
        // Plain byte string `b"…"`: escapes apply.
        return skip_string(bytes, i - 1, line);
    }
    loop {
        match bytes.get(i) {
            None => return i,
            Some('\n') => {
                *line += 1;
                i += 1;
            }
            Some('"') => {
                let mut j = i + 1;
                let mut seen = 0usize;
                while seen < hashes && matches!(bytes.get(j), Some('#')) {
                    seen += 1;
                    j += 1;
                }
                if seen == hashes {
                    return j;
                }
                i += 1;
            }
            Some(_) => i += 1,
        }
    }
}

/// Skips a normal string literal whose opening `"` is at `i`.
fn skip_string(bytes: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            '\\' => {
                // An escaped newline (string line continuation) still
                // advances the source line counter.
                if bytes.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Parses `lint: allow(rule[, rule…])` directives out of one comment.
fn collect_waivers(comment: &str, line: u32, waivers: &mut BTreeMap<u32, BTreeSet<String>>) {
    let Some(pos) = comment.find("lint:") else { return };
    let rest = comment[pos + 5..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else { return };
    let Some(end) = rest.find(')') else { return };
    for rule in rest[..end].split(',') {
        let rule = rule.trim();
        if !rule.is_empty() {
            waivers.entry(line).or_default().insert(rule.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.iter().filter_map(|t| t.ident().map(String::from)).collect()
    }

    #[test]
    fn strings_and_comments_are_invisible() {
        let src = "
            // a comment mentioning unwrap()
            /* block with panic! inside */
            let s = \"string with expect(\";
            real_ident();
        ";
        assert_eq!(idents(src), vec!["let", "s", "real_ident"]);
    }

    #[test]
    fn raw_strings_are_invisible() {
        let src = format!("let r = r{h}\"raw unwrap . here\"{h};", h = "#");
        assert_eq!(idents(&src), vec!["let", "r"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = toks.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        assert_eq!(lifetimes, 2);
        // Char payloads never become idents.
        assert!(!idents("let c = 'x';").contains(&"x".to_string()));
    }

    #[test]
    fn numbers_including_exponents_collapse() {
        let toks = lex("let e = 4e-12 + 0x1f + 1_000.5f64;");
        let numbers = toks.tokens.iter().filter(|t| t.tok == Tok::Number).count();
        assert_eq!(numbers, 3);
    }

    #[test]
    fn lines_are_tracked() {
        let l = lex("a\nb\n\nc");
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn string_line_continuations_count_lines() {
        // `\` at end of line inside a string spans lines; tokens after the
        // string must still carry accurate line numbers.
        let l = lex("let s = \"a\\\n b\\\n c\";\nafter();");
        let after = l.tokens.iter().find(|t| t.ident() == Some("after")).map(|t| t.line);
        assert_eq!(after, Some(4));
    }

    #[test]
    fn waivers_cover_own_and_next_line() {
        let l =
            lex("// lint: allow(panic-path)\nfoo();\nbar();\nbaz(); // lint: allow(raw-unit, determinism)\n");
        assert!(l.is_waived("panic-path", 1));
        assert!(l.is_waived("panic-path", 2));
        assert!(!l.is_waived("panic-path", 3));
        assert!(l.is_waived("raw-unit", 4));
        assert!(l.is_waived("determinism", 4));
        assert!(!l.is_waived("panic-path", 4));
    }

    #[test]
    fn safety_comment_lines_are_collected() {
        let l = lex(
            "// SAFETY: bounds checked above\nunsafe { go() }\n// plain comment\nx(); // SAFETY: inline\n",
        );
        assert!(l.safety_lines.contains(&1));
        assert!(!l.safety_lines.contains(&3));
        assert!(l.safety_lines.contains(&4));
    }
}
