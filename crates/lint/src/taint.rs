//! The determinism taint pass: nondeterminism *sources* are propagated
//! through the call graph to report-serialization *sinks*, and every
//! source that a sink can reach produces a finding carrying the full
//! sink → … → source call chain.
//!
//! Sources (detected per fn body, `#[cfg(test)]` excluded):
//!
//! * wall clock — `Instant`, `SystemTime`;
//! * OS entropy — `thread_rng`, `from_entropy`;
//! * host-shape branching — `available_parallelism`;
//! * thread identity / join order — `ThreadId`, `thread::current`;
//! * unordered collection iteration — `.iter()`/`.keys()`/`.values()`/
//!   `.drain()`/… on a `HashMap`/`HashSet`-typed receiver, tracked
//!   through `use .. as ..` aliases, struct fields and local `let`
//!   rebindings;
//! * unordered float reduction — `+=` onto an accumulator captured by a
//!   closure passed to `par_map_indexed`/`for_each_chunk`/
//!   `for_each_chunk_with` (per-index writes through closure parameters
//!   are ordered and not flagged).
//!
//! Sinks are every fn defined in a report-serializing file
//! ([`REPORT_FILES`]): `core/experiments.rs` (the artifact writers),
//! `sim/report.rs` and `serve/{obs,fleet,metrics,sweep}.rs`.
//!
//! Sanitizers: a hash-iteration source whose enclosing fn later calls a
//! `.sort*()` method is considered order-restored and dropped (the
//! sort-before-serialize idiom). Everything else needs a waiver:
//! `// lint: allow(determinism-taint)` on the source line kills one
//! site; on a fn's declaration it turns the fn into a *barrier* whose
//! subtree no longer taints callers — both are counted in the report,
//! never silently dropped.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::VecDeque;

use crate::ast::balanced;
use crate::callgraph::CallGraph;
use crate::lexer::{Lexed, Token};
use crate::rules::Finding;
use crate::symbols::{FnId, SymbolTable};

/// The rule name this pass reports under.
pub(crate) const RULE: &str = "determinism-taint";

/// Iteration methods whose order is unspecified on hash collections.
const ITER_METHODS: [&str; 8] =
    ["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "into_keys"];

/// Sort methods that restore a total order before serialization.
const SORT_METHODS: [&str; 7] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sort_by_cached_key",
];

/// Exec-pool entry points whose closures run on worker threads.
const PAR_ENTRY_POINTS: [&str; 3] = ["par_map_indexed", "for_each_chunk", "for_each_chunk_with"];

/// Formatting macros: a hash-typed value passed as an explicit argument
/// Debug/Display-formats its entries in unspecified order. (Inline
/// captures like `format!("{m:?}")` live inside the string literal,
/// which the lexer consumes — a documented blind spot.)
const FORMAT_MACROS: [&str; 7] = ["format", "write", "writeln", "println", "print", "eprintln", "eprint"];

/// The report-serializing files, as `(crate, file name)`: every fn
/// defined in one is a sink of this pass, and the `determinism` rule
/// checks their hash iteration.
const REPORT_FILES: [(&str, &str); 6] = [
    ("core", "experiments.rs"),
    ("sim", "report.rs"),
    ("serve", "obs.rs"),
    ("serve", "fleet.rs"),
    ("serve", "metrics.rs"),
    ("serve", "sweep.rs"),
];

/// Whether `file_name` of crate `crate_name` writes a report.
pub(crate) fn is_report_file(crate_name: &str, file_name: &str) -> bool {
    REPORT_FILES.contains(&(crate_name, file_name))
}

/// What family a nondeterminism source belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SourceKind {
    /// `Instant` / `SystemTime`.
    WallClock,
    /// `thread_rng` / `from_entropy`.
    Entropy,
    /// `available_parallelism`.
    HostShape,
    /// `ThreadId` / `thread::current`.
    ThreadId,
    /// Iteration over a hash-ordered collection.
    HashIter,
    /// Captured-accumulator reduction in an exec-pool closure.
    Reduction,
}

/// One detected nondeterminism source site.
#[derive(Debug, Clone)]
pub(crate) struct SourceSite {
    /// Source family.
    pub(crate) kind: SourceKind,
    /// 1-indexed line.
    pub(crate) line: u32,
    /// Human-readable description (`\`Instant\` reads the wall clock`).
    pub(crate) desc: String,
    /// Whether `// lint: allow(determinism-taint)` covers the line.
    pub(crate) waived: bool,
}

/// Runs the pass. `lexeds[file_idx]`/`streams[file_idx]` align with the
/// symbol table's `file_idx`. Findings are appended to `out`.
pub(crate) fn run(
    table: &SymbolTable,
    graph: &CallGraph,
    streams: &[&[Token]],
    lexeds: &[&Lexed],
    out: &mut Vec<Finding>,
) {
    // 1. Per-fn sources.
    let mut own: BTreeMap<FnId, Vec<SourceSite>> = BTreeMap::new();
    for (fn_id, info) in table.fns.iter().enumerate() {
        if info.cfg_test {
            continue;
        }
        let Some((start, end)) = info.body else { continue };
        let tokens = streams[info.file_idx];
        let sites = fn_sources(
            table,
            tokens,
            &info.params,
            (start, end),
            info.container.as_deref(),
            lexeds[info.file_idx],
        );
        if !sites.is_empty() {
            own.insert(fn_id, sites);
        }
    }

    // 2. Which fns are (transitively) tainted, barriers ignored — used
    //    to tell live barriers from stale waivers.
    let tainted = tainted_set(table, graph, &own);

    // 3. BFS from every sink through non-barrier edges; the first
    //    (shortest) chain to each source site wins.
    let mut sink_fns: Vec<FnId> = table
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.cfg_test && f.body.is_some() && is_report_file(&f.crate_name, file_name(&f.file)))
        .map(|(id, _)| id)
        .collect();
    sink_fns.sort_by_key(|&id| (table.fns[id].file.clone(), table.fns[id].line));

    // source key (fn, line, desc) → (chain, waived); barrier fn → chain.
    let mut hits: BTreeMap<(FnId, u32, String), (Vec<FnId>, bool)> = BTreeMap::new();
    let mut barriers_used: BTreeMap<FnId, Vec<FnId>> = BTreeMap::new();
    for &sink in &sink_fns {
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut visited: BTreeSet<FnId> = BTreeSet::new();
        let mut q = VecDeque::new();
        visited.insert(sink);
        q.push_back(sink);
        while let Some(f) = q.pop_front() {
            if let Some(sites) = own.get(&f) {
                let chain = chain_to(sink, f, &parent);
                for s in sites {
                    let key = (f, s.line, s.desc.clone());
                    let entry = hits.entry(key).or_insert_with(|| (chain.clone(), s.waived));
                    if chain.len() < entry.0.len() {
                        entry.0 = chain.clone();
                    }
                }
            }
            for e in &graph.edges[f] {
                let callee = &table.fns[e.callee];
                if callee.cfg_test || visited.contains(&e.callee) {
                    continue;
                }
                if is_barrier(table, lexeds, e.callee) {
                    if tainted.contains(&e.callee) {
                        let mut chain = chain_to(sink, f, &parent);
                        chain.push(e.callee);
                        let cur = barriers_used.entry(e.callee).or_insert_with(|| chain.clone());
                        if chain.len() < cur.len() {
                            *cur = chain;
                        }
                    }
                    continue;
                }
                visited.insert(e.callee);
                parent.insert(e.callee, f);
                q.push_back(e.callee);
            }
        }
    }

    // 4. Findings: sources first, then barriers, in stable order.
    for ((fn_id, line, desc), (chain, waived)) in &hits {
        let info = &table.fns[*fn_id];
        out.push(Finding {
            rule: RULE,
            file: info.file.clone(),
            line: *line,
            message: format!(
                "{desc} reaches report sink `{}`: {}",
                table.fns[chain[0]].display(),
                render_chain(table, chain, *line)
            ),
            waived: *waived,
        });
    }
    for (barrier, chain) in &barriers_used {
        let info = &table.fns[*barrier];
        out.push(Finding {
            rule: RULE,
            file: info.file.clone(),
            line: info.line,
            message: format!(
                "taint barrier `{}` holds back a tainted subtree from report sink `{}`: {}",
                info.display(),
                table.fns[chain[0]].display(),
                render_chain(table, chain, info.line)
            ),
            waived: true,
        });
    }
}

fn file_name(rel: &str) -> &str {
    rel.rsplit('/').next().unwrap_or(rel)
}

fn is_barrier(table: &SymbolTable, lexeds: &[&Lexed], id: FnId) -> bool {
    let f = &table.fns[id];
    lexeds[f.file_idx].is_waived(RULE, f.line)
}

fn chain_to(sink: FnId, f: FnId, parent: &BTreeMap<FnId, FnId>) -> Vec<FnId> {
    let mut chain = vec![f];
    let mut cur = f;
    while cur != sink {
        cur = parent[&cur];
        chain.push(cur);
    }
    chain.reverse();
    chain
}

fn render_chain(table: &SymbolTable, chain: &[FnId], src_line: u32) -> String {
    let mut s = String::new();
    for (i, id) in chain.iter().enumerate() {
        if i > 0 {
            s.push_str(" -> ");
        }
        s.push_str(&format!("`{}`", table.fns[*id].display()));
    }
    if let Some(last) = chain.last() {
        s.push_str(&format!(" (source at {}:{src_line})", table.fns[*last].file));
    }
    s
}

/// Fns from which a source is reachable, barriers ignored (reverse
/// reachability over the call graph).
fn tainted_set(
    table: &SymbolTable,
    graph: &CallGraph,
    own: &BTreeMap<FnId, Vec<SourceSite>>,
) -> BTreeSet<FnId> {
    let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); table.fns.len()];
    for (caller, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            rev[e.callee].push(caller);
        }
    }
    let mut tainted: BTreeSet<FnId> = own.keys().copied().collect();
    let mut q: VecDeque<FnId> = tainted.iter().copied().collect();
    while let Some(f) = q.pop_front() {
        for &caller in &rev[f] {
            if tainted.insert(caller) {
                q.push_back(caller);
            }
        }
    }
    tainted
}

/// Scans one fn body for source sites. Also used by the per-file
/// `determinism` rule (AST mode), which filters by [`SourceKind`].
pub(crate) fn fn_sources(
    table: &SymbolTable,
    tokens: &[Token],
    params: &[(String, (usize, usize))],
    body: (usize, usize),
    container: Option<&str>,
    lexed: &Lexed,
) -> Vec<SourceSite> {
    let (start, end) = body;
    let mut found = Vec::new();
    let container = container.map(ToOwned::to_owned);

    // Lines (token indices) where a `.sort*()` call happens — the
    // sort-before-serialize sanitizer window is "later in this fn".
    let sort_positions: Vec<usize> = (start..=end)
        .filter(|&i| {
            tokens[i].ident().is_some_and(|id| SORT_METHODS.contains(&id))
                && i > 0
                && tokens[i - 1].is_punct('.')
                && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        })
        .collect();
    let sorted_after = |i: usize| sort_positions.iter().any(|&p| p > i);

    // Hash-typed locals: parameters first, then `let` bindings in
    // order, so a rebinding chain (`let m = &self.cache;`) propagates.
    let mut hash_locals: BTreeSet<String> = params
        .iter()
        .filter(|(_, (a, b))| table.is_hash_type(&tokens[*a..=*b]))
        .map(|(name, _)| name.clone())
        .collect();

    let push = |found: &mut Vec<SourceSite>, kind: SourceKind, line: u32, desc: String| {
        found.push(SourceSite { kind, line, desc, waived: lexed.is_waived(RULE, line) });
    };

    let mut i = start;
    while i <= end {
        let t = &tokens[i];
        let Some(id) = t.ident() else {
            i += 1;
            continue;
        };
        match id {
            "Instant" | "SystemTime" => {
                push(&mut found, SourceKind::WallClock, t.line, format!("`{id}` reads the wall clock"));
            }
            "thread_rng" | "from_entropy" => {
                push(&mut found, SourceKind::Entropy, t.line, format!("`{id}` draws OS entropy"));
            }
            "available_parallelism" => {
                push(
                    &mut found,
                    SourceKind::HostShape,
                    t.line,
                    "`available_parallelism` branches on host shape".to_string(),
                );
            }
            "ThreadId" => {
                push(
                    &mut found,
                    SourceKind::ThreadId,
                    t.line,
                    "`ThreadId` observes thread identity".to_string(),
                );
            }
            "current"
                if i >= 3
                    && tokens[i - 1].is_punct(':')
                    && tokens[i - 2].is_punct(':')
                    && tokens[i - 3].ident() == Some("thread") =>
            {
                push(
                    &mut found,
                    SourceKind::ThreadId,
                    t.line,
                    "`thread::current` observes thread identity".to_string(),
                );
            }
            "let" => {
                // Classify the binding but keep scanning the
                // initializer tokens for sources — `let t = Instant::now()`
                // must still flag `Instant`.
                if let Some((name, is_hash, _)) =
                    let_binding(table, tokens, i, end, &hash_locals, container.as_deref())
                {
                    if is_hash {
                        hash_locals.insert(name);
                    }
                }
            }
            m if ITER_METHODS.contains(&m)
                && i > start
                && tokens[i - 1].is_punct('.')
                && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                let recv = receiver_chain(tokens, start, i - 1);
                if receiver_is_hash(table, &recv, &hash_locals, container.as_deref()) && !sorted_after(i) {
                    push(
                        &mut found,
                        SourceKind::HashIter,
                        t.line,
                        format!(
                            "`.{m}()` on hash-ordered `{}` iterates in unspecified order",
                            recv.join(".")
                        ),
                    );
                }
            }
            "for" => {
                // `for <pat> in <expr> {` — direct iteration over a
                // hash-typed binding without a method call.
                let src = for_loop_hash(table, tokens, i, end, &hash_locals, container.as_deref());
                if let Some(src) = src.filter(|_| !sorted_after(i)) {
                    push(
                        &mut found,
                        SourceKind::HashIter,
                        t.line,
                        format!("`for` loop over hash-ordered `{src}` iterates in unspecified order"),
                    );
                }
            }
            m if FORMAT_MACROS.contains(&m) && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) => {
                if let Some(close) = balanced(tokens, i + 2, end + 1, '(', ')') {
                    for (line, name) in
                        hash_format_args(table, tokens, i + 2, close, &hash_locals, container.as_deref())
                    {
                        push(
                            &mut found,
                            SourceKind::HashIter,
                            line,
                            format!(
                                "hash-ordered `{name}` passed to `{m}!` formats its entries in unspecified order"
                            ),
                        );
                    }
                }
            }
            p if PAR_ENTRY_POINTS.contains(&p) && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) => {
                let close = match balanced(tokens, i + 1, end + 1, '(', ')') {
                    Some(c) => c,
                    None => {
                        i += 1;
                        continue;
                    }
                };
                for (line, acc) in captured_reductions(tokens, i + 1, close) {
                    push(
                        &mut found,
                        SourceKind::Reduction,
                        line,
                        format!(
                            "`+=` onto captured accumulator `{acc}` inside a `{p}` closure is an unordered reduction"
                        ),
                    );
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Deduplicate sites that two detectors both saw (e.g. a `for` loop
    // over `.keys()`).
    found.sort_by_key(|a| (a.line, a.desc.clone()));
    found.dedup_by(|a, b| a.line == b.line && a.desc == b.desc);
    found
}

/// Handles one `let` statement at `i`; returns `(bound name, is hash,
/// index after the statement's init scan)` for simple ident patterns.
fn let_binding(
    table: &SymbolTable,
    tokens: &[Token],
    i: usize,
    end: usize,
    hash_locals: &BTreeSet<String>,
    container: Option<&str>,
) -> Option<(String, bool, usize)> {
    let mut j = i + 1;
    while tokens.get(j).is_some_and(|t| matches!(t.ident(), Some("mut" | "ref"))) {
        j += 1;
    }
    let name = tokens.get(j)?.ident()?.to_string();
    j += 1;
    let mut is_hash = false;
    // Optional `: Type`.
    if tokens.get(j).is_some_and(|t| t.is_punct(':')) {
        let mut angle = 0i32;
        j += 1;
        while j <= end {
            let t = &tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !tokens[j - 1].is_punct('-') {
                angle -= 1;
            } else if angle <= 0 && (t.is_punct('=') || t.is_punct(';')) {
                break;
            } else if let Some(id) = t.ident() {
                if table.is_hash_name(id) {
                    is_hash = true;
                }
            }
            j += 1;
        }
    }
    // Initializer: `= expr ;` — hash-typed when the expression mentions
    // a hash type, an existing hash local, or a hash field of `self`,
    // *unless* it ends in an ordering-erasing call (`.len()` etc. keep
    // it simple: consuming adapters that return non-collections are not
    // modeled; the iteration detectors still require a hash receiver).
    if tokens.get(j).is_some_and(|t| t.is_punct('=')) {
        let mut depth = 0usize;
        let mut k = j + 1;
        while k <= end {
            let t = &tokens[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(';') {
                break;
            } else if let Some(id) = t.ident() {
                if table.is_hash_name(id) || hash_locals.contains(id) {
                    is_hash = true;
                } else if id == "self" && tokens.get(k + 1).is_some_and(|t| t.is_punct('.')) {
                    if let Some(field) = tokens.get(k + 2).and_then(Token::ident) {
                        if field_is_hash(table, container, field) {
                            is_hash = true;
                        }
                    }
                }
            }
            k += 1;
        }
        return Some((name, is_hash, k));
    }
    Some((name, is_hash, j))
}

fn field_is_hash(table: &SymbolTable, container: Option<&str>, field: &str) -> bool {
    match container {
        // Inside `impl T`: exact field lookup on T…
        Some(c) if table.hash_fields.iter().any(|(s, _)| s == c) => {
            table.hash_fields.contains(&(c.to_string(), field.to_string()))
        }
        // …otherwise conservative: any struct's hash field of that name.
        _ => table.hash_fields.iter().any(|(_, f)| f == field),
    }
}

/// The receiver ident chain ending at the `.` at `dot` (exclusive),
/// outermost segment first: `self.cache.inner.iter()` → `[self, cache,
/// inner]`. Balanced `(..)`/`[..]` groups are skipped backwards.
fn receiver_chain(tokens: &[Token], start: usize, dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut k = dot; // index of the `.`
    loop {
        if k <= start {
            break;
        }
        let mut j = k - 1;
        // Skip a trailing call/index group backwards.
        while j > start && (tokens[j].is_punct(')') || tokens[j].is_punct(']')) {
            let (open, close) = if tokens[j].is_punct(')') { ('(', ')') } else { ('[', ']') };
            let mut depth = 0usize;
            while j > start {
                if tokens[j].is_punct(close) {
                    depth += 1;
                } else if tokens[j].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j -= 1;
            }
            if j > start {
                j -= 1;
            }
        }
        let Some(id) = tokens.get(j).and_then(Token::ident) else { break };
        chain.push(id.to_string());
        // Continue through `.` or `::`.
        if j > start && tokens[j - 1].is_punct('.') {
            k = j - 1;
        } else if j > start + 1 && tokens[j - 1].is_punct(':') && tokens[j - 2].is_punct(':') {
            k = j - 1; // walk past `::` like `.` (path receiver)
            if k > start {
                k -= 1;
            }
        } else {
            break;
        }
    }
    chain.reverse();
    chain
}

fn receiver_is_hash(
    table: &SymbolTable,
    chain: &[String],
    hash_locals: &BTreeSet<String>,
    container: Option<&str>,
) -> bool {
    match chain {
        [] => false,
        [only] => hash_locals.contains(only) || table.is_hash_name(only),
        [root, rest @ ..] => {
            if table.is_hash_name(root) || hash_locals.contains(root) {
                return true;
            }
            // `self.field...` / `binding.field...`: any segment that is
            // a known hash field taints the receiver.
            let fields: Vec<&String> = rest.iter().collect();
            if root == "self" {
                fields.iter().any(|f| field_is_hash(table, container, f))
            } else {
                fields.iter().any(|f| table.hash_fields.iter().any(|(_, hf)| hf == f.as_str()))
            }
        }
    }
}

/// Detects `for <pat> in <expr> {` where `<expr>` names a hash binding
/// directly (method-call iteration is handled elsewhere). Returns the
/// offending name.
fn for_loop_hash(
    table: &SymbolTable,
    tokens: &[Token],
    i: usize,
    end: usize,
    hash_locals: &BTreeSet<String>,
    container: Option<&str>,
) -> Option<String> {
    // Find `in` at depth 0 (the pattern may hold tuples).
    let mut j = i + 1;
    let mut depth = 0usize;
    while j <= end {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.ident() == Some("in") {
            break;
        } else if depth == 0 && t.is_punct('{') {
            return None; // not a for loop shape we understand
        }
        j += 1;
    }
    // Expression tokens until the body `{` at depth 0.
    let mut k = j + 1;
    let mut depth = 0usize;
    let mut dotted = false;
    let mut candidate: Option<String> = None;
    while k <= end {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct('{') {
            break;
        } else if t.is_punct('.') {
            dotted = true; // method iteration — the `.iter()` family detector owns it
        } else if depth == 0 && !dotted {
            if let Some(id) = t.ident() {
                if hash_locals.contains(id) {
                    candidate = Some(id.to_string());
                } else if id == "self" {
                    if let Some(f) = tokens.get(k + 2).and_then(Token::ident) {
                        if tokens[k + 1].is_punct('.') && field_is_hash(table, container, f) {
                            candidate = Some(format!("self.{f}"));
                        }
                    }
                }
            }
        }
        k += 1;
    }
    if dotted {
        None
    } else {
        candidate
    }
}

/// Hash-typed values passed *whole* as format-macro arguments inside
/// `(open..close)`: `(line, name)` pairs. An ident followed by `.` or
/// `(` is a projection or call (its result may well be ordered) and an
/// ident preceded by `.`/`:` is a field/path segment — both skipped;
/// the iteration detectors own those shapes.
fn hash_format_args(
    table: &SymbolTable,
    tokens: &[Token],
    open: usize,
    close: usize,
    hash_locals: &BTreeSet<String>,
    container: Option<&str>,
) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut k = open + 1;
    while k < close {
        let t = &tokens[k];
        let Some(id) = t.ident() else {
            k += 1;
            continue;
        };
        let prev_projected = k > 0 && (tokens[k - 1].is_punct('.') || tokens[k - 1].is_punct(':'));
        let next = |o: usize| tokens.get(k + o);
        if id == "self" && next(1).is_some_and(|n| n.is_punct('.')) {
            if let Some(f) = next(2).and_then(Token::ident) {
                let projected = next(3).is_some_and(|n| n.is_punct('.') || n.is_punct('('));
                if field_is_hash(table, container, f) && !projected {
                    out.push((t.line, format!("self.{f}")));
                    k += 3;
                    continue;
                }
            }
        } else if !prev_projected
            && !next(1).is_some_and(|n| n.is_punct('.') || n.is_punct('('))
            && hash_locals.contains(id)
        {
            out.push((t.line, id.to_string()));
        }
        k += 1;
    }
    out
}

/// `+=` targets captured from outside any closure in a parallel-entry
/// call range `(open..close)`: `(line, accumulator name)` pairs.
fn captured_reductions(tokens: &[Token], open: usize, close: usize) -> Vec<(u32, String)> {
    // Names bound inside the call range: closure parameters and `let`s.
    let mut local: BTreeSet<String> = BTreeSet::new();
    let mut k = open;
    while k < close {
        let t = &tokens[k];
        if t.is_punct('|') {
            // Pipe group: collect idents to the matching `|` (params,
            // including pattern idents — over-collection only reduces
            // findings, the safe direction for a fallible heuristic).
            let mut j = k + 1;
            while j < close && !tokens[j].is_punct('|') {
                if let Some(id) = tokens[j].ident() {
                    local.insert(id.to_string());
                }
                j += 1;
            }
            k = j + 1;
            continue;
        }
        if t.ident() == Some("let") {
            if let Some(name) = tokens
                .get(k + 1)
                .and_then(Token::ident)
                .filter(|n| *n != "mut")
                .or_else(|| tokens.get(k + 2).and_then(Token::ident))
            {
                local.insert(name.to_string());
            }
        }
        k += 1;
    }
    let mut out = Vec::new();
    for k in open..close {
        if !(tokens[k].is_punct('+') && tokens.get(k + 1).is_some_and(|t| t.is_punct('='))) {
            continue;
        }
        // `a + = b` could also be `x += 1` desugared the same way —
        // the lexer splits `+=` into `+` `=`, always adjacent.
        let chain = receiver_chain_for_assign(tokens, open, k);
        let Some(root) = chain.first() else { continue };
        if !local.contains(root) && root != "self" {
            out.push((tokens[k].line, chain.join(".")));
        }
    }
    out
}

/// LHS root chain of an assignment operator at `op` (walk back over
/// `]`-groups, field accesses and the final ident).
fn receiver_chain_for_assign(tokens: &[Token], start: usize, op: usize) -> Vec<String> {
    if op == 0 {
        return Vec::new();
    }
    let mut j = op - 1;
    // Skip one `[..]` index group backwards.
    if tokens[j].is_punct(']') {
        let mut depth = 0usize;
        while j > start {
            if tokens[j].is_punct(']') {
                depth += 1;
            } else if tokens[j].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j -= 1;
        }
        if j > start {
            j -= 1;
        }
    }
    if tokens[j].ident().is_none() {
        return Vec::new();
    }
    // Reuse the receiver walk by treating the ident as preceded chain.
    let mut chain = vec![tokens[j].ident().map(String::from).unwrap_or_default()];
    while j > start + 1 && tokens[j - 1].is_punct('.') {
        j -= 2;
        // Another index group may sit here; stop at non-ident.
        match tokens.get(j).and_then(Token::ident) {
            Some(id) => chain.push(id.to_string()),
            None => break,
        }
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{parse, Ast};
    use crate::callgraph::CallGraph;
    use crate::lexer::lex;

    /// Builds everything and runs the pass over mini-crates. Each entry
    /// is `(crate, file_name, src)`.
    fn taint(srcs: &[(&str, &str, &str)]) -> Vec<Finding> {
        let lexed: Vec<_> = srcs.iter().map(|(_, _, s)| lex(s)).collect();
        let asts: Vec<_> = lexed.iter().map(|l| parse(&l.tokens)).collect();
        for a in &asts {
            assert!(a.is_clean(), "{:?}", a.errors);
        }
        let files: Vec<(String, String)> =
            srcs.iter().map(|(c, f, _)| (c.to_string(), format!("crates/{c}/src/{f}"))).collect();
        let pairs: Vec<(&Ast, &[Token])> =
            asts.iter().zip(&lexed).map(|(a, l)| (a, l.tokens.as_slice())).collect();
        let table = SymbolTable::build(&files, &pairs);
        let streams: Vec<&[Token]> = lexed.iter().map(|l| l.tokens.as_slice()).collect();
        let graph = CallGraph::build(&table, &streams);
        let lexeds: Vec<&Lexed> = lexed.iter().collect();
        let mut out = Vec::new();
        run(&table, &graph, &streams, &lexeds, &mut out);
        out
    }

    #[test]
    fn source_reaches_sink_with_full_chain() {
        let f = taint(&[
            (
                "serve",
                "backend.rs",
                "
                use std::collections::HashMap;
                pub struct Costs { pub table: HashMap<u32, f64> }
                impl Costs {
                    pub fn summary(&self) -> f64 { self.table.values().sum() }
                }
                ",
            ),
            (
                "serve",
                "metrics.rs",
                "
                pub fn render(c: &crate::backend::Costs) -> String {
                    format!(\"{}\", mid(c))
                }
                pub fn mid(c: &crate::backend::Costs) -> f64 { c.summary() }
                ",
            ),
        ]);
        let v: Vec<&Finding> = f.iter().filter(|f| !f.waived).collect();
        assert_eq!(v.len(), 1, "{f:?}");
        let msg = &v[0].message;
        assert!(msg.contains("`.values()`"), "{msg}");
        // The shortest chain wins: `mid` is itself in a sink file, one
        // hop closer than `render`.
        assert!(msg.contains("`serve::mid` -> `serve::Costs::summary`"), "{msg}");
        assert!(msg.contains("source at crates/serve/src/backend.rs:"), "{msg}");
    }

    #[test]
    fn non_sink_crates_do_not_report() {
        let f = taint(&[(
            "device",
            "cell.rs",
            "
            use std::collections::HashMap;
            pub fn loose() -> usize { let m: HashMap<u32, u32> = HashMap::new(); m.keys().count() }
            ",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn sort_before_serialize_sanitizes() {
        let f = taint(&[(
            "sim",
            "report.rs",
            "
            use std::collections::HashMap;
            pub fn render(m: &HashMap<u32, f64>) -> String {
                let mut rows: Vec<_> = m.iter().collect();
                rows.sort_by_key(|(k, _)| **k);
                format!(\"{rows:?}\")
            }
            ",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn alias_and_local_rebinding_blind_spots_are_covered() {
        let f = taint(&[(
            "sim",
            "report.rs",
            "
            use std::collections::HashMap as Cache;
            pub struct R { pub by_layer: Cache<u32, f64> }
            impl R {
                pub fn dump(&self) -> String {
                    let m = &self.by_layer;
                    let total: f64 = m.values().sum();
                    format!(\"{total}\")
                }
            }
            ",
        )]);
        let v: Vec<&Finding> = f.iter().filter(|f| !f.waived).collect();
        assert_eq!(v.len(), 1, "{f:?}");
        assert!(v[0].message.contains("`.values()`"), "{}", v[0].message);
    }

    #[test]
    fn wall_clock_and_entropy_reach_sinks_transitively() {
        let f = taint(&[
            ("core", "lib.rs", "pub fn now_ms() -> u64 { let t = Instant::now(); 0 }"),
            ("core", "experiments.rs", "pub fn write_report() { let _ = crate::now_ms(); }"),
        ]);
        let v: Vec<&Finding> = f.iter().filter(|f| !f.waived).collect();
        assert_eq!(v.len(), 1, "{f:?}");
        assert!(v[0].message.contains("wall clock"), "{}", v[0].message);
        assert!(v[0].message.contains("`core::write_report` -> `core::now_ms`"), "{}", v[0].message);
    }

    #[test]
    fn source_waiver_and_fn_barrier_are_counted_not_dropped() {
        let src_waived = taint(&[(
            "serve",
            "sweep.rs",
            "
            pub fn grid() -> usize {
                std::thread::available_parallelism().map_or(1, usize::from) // lint: allow(determinism-taint)
            }
            ",
        )]);
        assert_eq!(src_waived.len(), 1, "{src_waived:?}");
        assert!(src_waived[0].waived);

        let barrier = taint(&[
            (
                "core",
                "lib.rs",
                "
                // worker count only partitions index-keyed work. lint: allow(determinism-taint)
                pub fn pool_size() -> usize {
                    std::thread::available_parallelism().map_or(1, usize::from)
                }
                ",
            ),
            ("core", "experiments.rs", "pub fn write_all() { let _ = crate::pool_size(); }"),
        ]);
        assert_eq!(barrier.len(), 1, "{barrier:?}");
        assert!(barrier[0].waived);
        assert!(barrier[0].message.contains("taint barrier"), "{}", barrier[0].message);
    }

    #[test]
    fn captured_float_reduction_is_flagged_but_param_writes_are_not() {
        let f = taint(&[(
            "serve",
            "sweep.rs",
            "
            pub fn bad(points: &[f64]) -> f64 {
                let mut total = 0.0;
                par_map_indexed(4, points.len(), |state, i| { total += points[i]; });
                total
            }
            pub fn good(points: &[f64]) -> Vec<f64> {
                par_map_indexed(4, points.len(), |state, i| { let mut acc = 0.0; acc += points[i]; acc })
            }
            ",
        )]);
        let v: Vec<&Finding> = f.iter().filter(|f| !f.waived).collect();
        assert_eq!(v.len(), 1, "{f:?}");
        assert!(v[0].message.contains("`total`"), "{}", v[0].message);
    }

    #[test]
    fn format_macro_args_flag_whole_hash_values_only() {
        let f = taint(&[(
            "sim",
            "report.rs",
            "
            use std::collections::HashMap;
            pub fn emit(rows: &HashMap<String, f64>) -> String {
                format!(\"{:?}\", rows)
            }
            pub fn emit_len(rows: &HashMap<String, f64>) -> String {
                format!(\"{}\", rows.len())
            }
            ",
        )]);
        let v: Vec<&Finding> = f.iter().filter(|f| !f.waived).collect();
        assert_eq!(v.len(), 1, "{f:?}");
        assert!(v[0].message.contains("passed to `format!`"), "{}", v[0].message);
    }

    #[test]
    fn every_report_file_exists() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (krate, file) in REPORT_FILES {
            let path = root.join("crates").join(krate).join("src").join(file);
            assert!(path.is_file(), "{} is listed as a report file but does not exist", path.display());
        }
    }

    #[test]
    fn cfg_test_fns_are_invisible() {
        let f = taint(&[(
            "sim",
            "report.rs",
            "
            #[cfg(test)]
            fn helper() { let t = Instant::now(); }
            pub fn render() -> String { String::new() }
            ",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
