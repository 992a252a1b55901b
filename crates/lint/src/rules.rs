//! The rule engine: khist's project-specific invariants as lexical checks.
//!
//! Every rule exists because some load-bearing, property-tested guarantee
//! (sharded ≡ dedicated-monitor bit-identity, push ≡ pull replay, one
//! file pass per batch) would otherwise only fail *after* the offending
//! code shipped. The rules move those failures to lint time:
//!
//! | rule | invariant it protects |
//! |------|-----------------------|
//! | `default-hasher` | `RandomState` iteration order would break bit-identity across processes |
//! | `wall-clock` | `Monitor` and everything under it stays clock-free; timing lives in `api.rs` (plus one budgeted reactor read in `crates/serve`) |
//! | `no-panic` | library hot paths in `crates/{core,oracle}` return `Result`, not aborts |
//! | `checked-indexing` | same, for `x[i]` bounds panics |
//! | `seed-discipline` | all randomness derives from `stream_seed`/`window_seed`, never ad-hoc SplitMix64 |
//! | `thread-discipline` | no unscoped OS threads outside the vendored crossbeam scope |
//! | `float-cmp` | no bare `f64` `==`/`!=`; JSON floats go through `finite_or_null` |
//! | `forbid-unsafe` | every non-vendor crate root carries `#![forbid(unsafe_code)]` |
//! | `justified-allow` | every `#[allow(…)]` carries a same-line justification comment |
//! | `hot-path-alloc` | functions marked `// lint:hot-path` stay free of the obvious allocators |
//!
//! Being lexical, the rules are approximations: they see tokens, not
//! types. Each rule documents its approximation; the `lint:allow` escape
//! hatch (see [`crate::allow`]) covers the rest, with a mandatory reason
//! so every exemption is self-documenting.

use crate::allow::Allows;
use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::lexer::{Lexed, Token, TokenKind};

/// Every rule name, in documentation order. `lint:allow` directives must
/// name one of these.
pub const RULE_NAMES: &[&str] = &[
    "default-hasher",
    "wall-clock",
    "no-panic",
    "checked-indexing",
    "seed-discipline",
    "thread-discipline",
    "float-cmp",
    "forbid-unsafe",
    "justified-allow",
    "hot-path-alloc",
];

/// One-line summaries, aligned with [`RULE_NAMES`] (for `khist-lint rules`).
pub const RULE_SUMMARIES: &[(&str, &str)] = &[
    (
        "default-hasher",
        "no RandomState HashMap/HashSet in library code: iteration order is per-process random",
    ),
    (
        "wall-clock",
        "Instant/SystemTime only inside crates/core/src/api.rs; crates/serve may hold Instant values but gets exactly one Instant::now, in reactor.rs",
    ),
    (
        "no-panic",
        "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in crates/{core,oracle} library code",
    ),
    (
        "checked-indexing",
        "no x[i] bounds-panicking indexing in crates/{core,oracle} library code",
    ),
    (
        "seed-discipline",
        "seed derivation only via khist_oracle::{stream_seed,window_seed}; no raw SplitMix64",
    ),
    (
        "thread-discipline",
        "no std::thread::spawn; workers go through the vendored crossbeam scope",
    ),
    (
        "float-cmp",
        "no bare f64 ==/!= against float literals; JSON floats go through finite_or_null",
    ),
    (
        "forbid-unsafe",
        "every non-vendor crate root carries #![forbid(unsafe_code)]",
    ),
    (
        "justified-allow",
        "every #[allow(...)] needs a same-line justification comment",
    ),
    (
        "hot-path-alloc",
        "no format!/to_string/String::from/Vec::new inside a // lint:hot-path function",
    ),
];

/// Keywords that can legally precede `[` without forming an index
/// expression (`return [a, b]` is an array literal even when written
/// without a space).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// Runs every applicable rule over one lexed file.
pub fn check_file(ctx: &FileContext, lexed: &Lexed, allows: &Allows) -> Vec<Diagnostic> {
    if ctx.is_vendor {
        return Vec::new();
    }
    let tokens = &lexed.tokens;
    let in_test = test_region_mask(tokens);
    let mut raw: Vec<Diagnostic> = Vec::new();

    // Line-of-code rules share one pass over the token stream.
    for (i, tok) in tokens.iter().enumerate() {
        let exempt_nonlib = ctx.is_test_like || in_test[i];
        if !exempt_nonlib {
            default_hasher(ctx, tok, &mut raw);
            wall_clock(ctx, tok, &mut raw);
            seed_discipline(ctx, tok, &mut raw);
            thread_discipline(ctx, tokens, i, &mut raw);
            float_cmp(ctx, tokens, i, &mut raw);
        }
        if ctx.is_core_or_oracle && !exempt_nonlib {
            no_panic(ctx, tokens, i, &mut raw);
            checked_indexing(ctx, tokens, i, &mut raw);
        }
        // The allow-justification rule applies everywhere, tests included:
        // an unexplained `#[allow]` in a test is the same review hazard.
        justified_allow(ctx, lexed, tokens, i, &mut raw);
    }
    wall_clock_serve(ctx, tokens, &in_test, &mut raw);
    forbid_unsafe(ctx, tokens, &mut raw);
    hot_path_alloc(ctx, lexed, &mut raw);

    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| !allows.suppresses(d.rule, d.line))
        .collect();
    out.extend(allows.errors.iter().cloned());
    out
}

/// Marks every token inside a test-gated region: a `#[cfg(test)]` /
/// `#[test]` attribute extends over the item it annotates (to the
/// matching `}` of the item's body, or the `;` of a body-less item).
/// `#[cfg(not(test))]` is *not* test-gated and stays linted.
fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let Some(attr_end) = attribute_extent(tokens, i) else {
            i += 1;
            continue;
        };
        if !attr_marks_test(&tokens[i..attr_end]) {
            i = attr_end;
            continue;
        }
        // Extend over any further stacked attributes, then the item.
        let mut j = attr_end;
        while let Some(next_end) = attribute_extent(tokens, j) {
            j = next_end;
        }
        let region_end = item_extent(tokens, j);
        for flag in mask.iter_mut().take(region_end).skip(i) {
            *flag = true;
        }
        i = region_end;
    }
    mask
}

/// When `tokens[start]` begins an attribute (`#[…]` or `#![…]`), returns
/// the index one past its closing `]`.
fn attribute_extent(tokens: &[Token], start: usize) -> Option<usize> {
    if !tokens.get(start)?.is_punct('#') {
        return None;
    }
    let mut i = start + 1;
    if tokens.get(i)?.is_punct('!') {
        i += 1;
    }
    if !tokens.get(i)?.is_punct('[') {
        return None;
    }
    let mut depth = 0usize;
    for (j, tok) in tokens.iter().enumerate().skip(i) {
        if tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
    }
    None
}

/// `true` when an attribute token slice gates its item on tests:
/// mentions `test` (as in `cfg(test)`, `cfg(all(test, …))`, `#[test]`)
/// without a negating `not`.
fn attr_marks_test(attr: &[Token]) -> bool {
    attr.iter()
        .any(|t| t.is_ident("test") || t.is_ident("bench"))
        && !attr.iter().any(|t| t.is_ident("not"))
}

/// Returns the index one past the item starting at `start`: past the
/// matching `}` of the first top-level brace block, or past the first
/// top-level `;` (whichever comes first).
fn item_extent(tokens: &[Token], start: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    for (j, tok) in tokens.iter().enumerate().skip(start) {
        if tok.kind != TokenKind::Punct {
            continue;
        }
        match tok.text.as_bytes().first() {
            Some(b'(') => paren += 1,
            Some(b')') => paren -= 1,
            Some(b'[') => bracket += 1,
            Some(b']') => bracket -= 1,
            Some(b'{') => brace += 1,
            Some(b'}') => {
                brace -= 1;
                if brace == 0 && paren == 0 && bracket == 0 {
                    return j + 1;
                }
            }
            Some(b';') if brace == 0 && paren == 0 && bracket == 0 => return j + 1,
            _ => {}
        }
    }
    tokens.len()
}

/// `default-hasher`: `HashMap`/`HashSet` (and naming the default hasher
/// itself) in library code. Iteration order of `RandomState` maps differs
/// per process, which would silently break the bit-identity invariants
/// the moment a map is iterated into output. Approximation: the rule
/// cannot see whether a custom hasher parameter is supplied — allow such
/// uses explicitly.
fn default_hasher(ctx: &FileContext, tok: &Token, out: &mut Vec<Diagnostic>) {
    if tok.kind != TokenKind::Ident {
        return;
    }
    if matches!(
        tok.text.as_str(),
        "HashMap" | "HashSet" | "RandomState" | "DefaultHasher"
    ) {
        out.push(Diagnostic::new(
            "default-hasher",
            &ctx.path,
            tok.line,
            format!(
                "{} uses the per-process-random default hasher; use BTreeMap/BTreeSet \
                 (or a fixed hasher plus sorted iteration) so output order is deterministic",
                tok.text
            ),
        ));
    }
}

/// `wall-clock`: `Instant`/`SystemTime` outside the designated boundary
/// (`crates/core/src/api.rs`). The pure state machines (`Monitor` and
/// below) must stay replayable: push ≡ pull holds only if nothing in
/// them observes time. `crates/serve` gets its own arm of this rule
/// ([`wall_clock_serve`]): a reactor cannot be clock-free, but it can be
/// clock-*disciplined*.
fn wall_clock(ctx: &FileContext, tok: &Token, out: &mut Vec<Diagnostic>) {
    if ctx.is_clock_boundary || ctx.is_serve || tok.kind != TokenKind::Ident {
        return;
    }
    if matches!(tok.text.as_str(), "Instant" | "SystemTime") {
        out.push(Diagnostic::new(
            "wall-clock",
            &ctx.path,
            tok.line,
            format!(
                "{} outside the api.rs wall-clock boundary; route timing through \
                 khist_core::api's timed() helper so replayable state stays clock-free",
                tok.text
            ),
        ));
    }
}

/// The `crates/serve` arm of `wall-clock`. The reactor must observe time
/// (flush deadlines are real), so bare `Instant` — the *type*, plumbed
/// around as parameters and fields — is legal throughout serve library
/// code. What stays budgeted is *reading* the clock: exactly one
/// `Instant::now` call site is allowed, in `reactor.rs` (its `clock()`
/// fn), so every deadline decision traces to a single read per loop
/// iteration and the rest of the crate stays replayable given those
/// values. `SystemTime` is flagged unconditionally — wall-clock
/// timestamps have no business in serve output. This is a per-file pass
/// (not per-token like the others) because "the first read is free"
/// requires counting across the whole token stream.
fn wall_clock_serve(
    ctx: &FileContext,
    tokens: &[Token],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    if !ctx.is_serve {
        return;
    }
    let mut budget = usize::from(ctx.is_serve_reactor);
    for (i, tok) in tokens.iter().enumerate() {
        if ctx.is_test_like || in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if tok.is_ident("SystemTime") {
            out.push(Diagnostic::new(
                "wall-clock",
                &ctx.path,
                tok.line,
                "SystemTime in crates/serve; the reactor reads the monotonic clock only \
                 — wall-clock timestamps never enter serve state or output"
                    .to_string(),
            ));
            continue;
        }
        let reads_clock = tok.is_ident("Instant")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::PathSep)
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("now"));
        if !reads_clock {
            continue;
        }
        if budget > 0 {
            budget -= 1;
        } else if ctx.is_serve_reactor {
            out.push(Diagnostic::new(
                "wall-clock",
                &ctx.path,
                tok.line,
                "second Instant::now in the reactor; crates/serve budgets exactly one \
                 clock site (reactor.rs's clock()) — thread the Instant through as a value"
                    .to_string(),
            ));
        } else {
            out.push(Diagnostic::new(
                "wall-clock",
                &ctx.path,
                tok.line,
                "Instant::now outside the reactor's single clock site (reactor.rs); \
                 take an Instant parameter instead of reading the clock"
                    .to_string(),
            ));
        }
    }
}

/// `no-panic`: `.unwrap()`/`.expect(…)` and the panicking macros in
/// `crates/{core,oracle}` library code. A panic in the substrate aborts
/// every stream a shard owns; hot paths return `Result`. (`assert!` and
/// `debug_assert!` are deliberately exempt: they state invariants, and
/// removing them would hide bugs, not handle them.)
fn no_panic(ctx: &FileContext, tokens: &[Token], i: usize, out: &mut Vec<Diagnostic>) {
    let tok = &tokens[i];
    if tok.kind != TokenKind::Ident {
        return;
    }
    let method = matches!(
        tok.text.as_str(),
        "unwrap" | "unwrap_err" | "expect" | "expect_err"
    ) && i > 0
        && tokens[i - 1].is_punct('.');
    let makro = matches!(
        tok.text.as_str(),
        "panic" | "unreachable" | "todo" | "unimplemented"
    ) && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
    if method || makro {
        out.push(Diagnostic::new(
            "no-panic",
            &ctx.path,
            tok.line,
            format!(
                "{}{} can abort the process from library code; return a Result (or \
                 lint:allow with the invariant that makes it unreachable)",
                if method { "." } else { "" },
                tok.text
            ),
        ));
    }
}

/// `checked-indexing`: `x[i]` (also `f()[i]`, `x[i][j]`, `&x[a..b]`) in
/// `crates/{core,oracle}` library code — every one is a bounds panic
/// waiting for a refactor. Approximation: an index expression is a `[`
/// written *adjacent* to an identifier, `)`, or `]`; array literals,
/// attributes, and types never match that shape.
fn checked_indexing(ctx: &FileContext, tokens: &[Token], i: usize, out: &mut Vec<Diagnostic>) {
    let tok = &tokens[i];
    if !tok.is_punct('[') || i == 0 {
        return;
    }
    let prev = &tokens[i - 1];
    if prev.end != tok.start {
        return;
    }
    let indexes = match prev.kind {
        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
        TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
        _ => false,
    };
    if indexes {
        out.push(Diagnostic::new(
            "checked-indexing",
            &ctx.path,
            tok.line,
            "bounds-panicking index expression in library code; use .get()/.get_mut(), \
             iterators, or lint:allow with the invariant that keeps the index in bounds"
                .to_string(),
        ));
    }
}

/// `seed-discipline`: naming SplitMix64 (or its golden-gamma constant)
/// outside `crates/oracle`. Per-stream and per-window randomness must
/// derive from `stream_seed`/`window_seed` so a report's provenance is
/// always `(base seed, key, window)` — a second ad-hoc derivation would
/// fork the seed universe.
fn seed_discipline(ctx: &FileContext, tok: &Token, out: &mut Vec<Diagnostic>) {
    if ctx.is_seed_home {
        return;
    }
    let named = tok.kind == TokenKind::Ident && tok.text.to_ascii_lowercase().contains("splitmix");
    let constant = tok.kind == TokenKind::Int
        && tok
            .text
            .to_ascii_lowercase()
            .replace('_', "")
            .contains("9e3779b97f4a7c15");
    if named || constant {
        out.push(Diagnostic::new(
            "seed-discipline",
            &ctx.path,
            tok.line,
            "raw SplitMix64 seed derivation outside khist-oracle; use \
             khist_oracle::{stream_seed, window_seed} so every seed's provenance is \
             (base, key, window)"
                .to_string(),
        ));
    }
}

/// `thread-discipline`: `thread::spawn` / `thread::Builder` (i.e. raw,
/// unscoped OS threads). Workers go through the vendored crossbeam scope,
/// which joins them before results are observed — an unjoined thread is a
/// nondeterminism and shutdown hazard.
fn thread_discipline(ctx: &FileContext, tokens: &[Token], i: usize, out: &mut Vec<Diagnostic>) {
    let tok = &tokens[i];
    if !tok.is_ident("thread") {
        return;
    }
    let pathy = tokens
        .get(i + 1)
        .is_some_and(|t| t.kind == TokenKind::PathSep)
        && tokens
            .get(i + 2)
            .is_some_and(|t| t.is_ident("spawn") || t.is_ident("Builder"));
    if pathy {
        out.push(Diagnostic::new(
            "thread-discipline",
            &ctx.path,
            tok.line,
            "raw std::thread outside the vendored crossbeam scope; scoped workers are \
             joined before results are observed — spawn via crossbeam::scope"
                .to_string(),
        ));
    }
}

/// `float-cmp`: `==`/`!=` with a float literal operand, plus direct
/// `Value::F64(…)` construction outside the `finite_or_null` boundary.
/// Approximation: a lexer cannot type general `a == b`; comparing
/// *against a float literal* is the unambiguous lexical core of the
/// mistake (exact-zero guards are real and earn a `lint:allow`).
fn float_cmp(ctx: &FileContext, tokens: &[Token], i: usize, out: &mut Vec<Diagnostic>) {
    let tok = &tokens[i];
    if tok.kind == TokenKind::CmpOp {
        let float_operand = (i > 0 && tokens[i - 1].kind == TokenKind::Float)
            || tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Float);
        if float_operand {
            out.push(Diagnostic::new(
                "float-cmp",
                &ctx.path,
                tok.line,
                format!(
                    "bare `{}` against a float literal; compare with an epsilon or \
                     total_cmp, or lint:allow an exact-zero guard",
                    tok.text
                ),
            ));
        }
    }
    // Value::F64(x) bypasses finite_or_null: a non-finite statistic would
    // reach the JSON writer (which rejects it) instead of becoming null.
    if !ctx.is_clock_boundary
        && tok.is_ident("Value")
        && tokens
            .get(i + 1)
            .is_some_and(|t| t.kind == TokenKind::PathSep)
        && tokens.get(i + 2).is_some_and(|t| t.is_ident("F64"))
    {
        out.push(Diagnostic::new(
            "float-cmp",
            &ctx.path,
            tok.line,
            "direct Value::F64 construction bypasses finite_or_null (api.rs); non-finite \
             statistics must serialize as null"
                .to_string(),
        ));
    }
}

/// `forbid-unsafe`: crate roots must carry `#![forbid(unsafe_code)]`.
/// `forbid` (not `deny`) so no downstream `#[allow]` can re-enable it.
fn forbid_unsafe(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if !ctx.is_crate_root {
        return;
    }
    let found = tokens
        .windows(3)
        .any(|w| w[0].is_ident("forbid") && w[1].is_punct('(') && w[2].is_ident("unsafe_code"));
    if !found {
        out.push(Diagnostic::new(
            "forbid-unsafe",
            &ctx.path,
            1,
            "crate root is missing #![forbid(unsafe_code)]".to_string(),
        ));
    }
}

/// `hot-path-alloc`: the obvious allocating constructs — `format!`,
/// `.to_string()`, `String::from`, `Vec::new` — inside a function marked
/// with a `// lint:hot-path` comment (placed directly above the `fn`,
/// after any doc comments). The mark is opt-in: it states a measured
/// zero-allocation contract (see `tests/engine_zero_alloc.rs`), and this
/// rule keeps casual edits from quietly re-introducing per-record heap
/// traffic. Approximation: `Vec::new` itself does not allocate until
/// pushed into — it is flagged because a fresh `Vec` in a hot path is a
/// growth allocation waiting to happen; hoist the buffer into reusable
/// scratch, or `lint:allow` with the reason it stays empty.
fn hot_path_alloc(ctx: &FileContext, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let tokens = &lexed.tokens;
    for comment in &lexed.comments {
        if comment.text.trim() != "lint:hot-path" {
            continue;
        }
        let Some(start) = tokens.iter().position(|t| t.line > comment.line) else {
            continue;
        };
        let end = item_extent(tokens, start);
        for (i, tok) in tokens.iter().enumerate().take(end).skip(start) {
            if tok.kind != TokenKind::Ident {
                continue;
            }
            let flagged = match tok.text.as_str() {
                "format" => tokens.get(i + 1).is_some_and(|t| t.is_punct('!')),
                "to_string" => i > 0 && tokens[i - 1].is_punct('.'),
                "from" => {
                    i >= 2
                        && tokens[i - 1].kind == TokenKind::PathSep
                        && tokens[i - 2].is_ident("String")
                }
                "new" => {
                    i >= 2
                        && tokens[i - 1].kind == TokenKind::PathSep
                        && tokens[i - 2].is_ident("Vec")
                }
                _ => false,
            };
            if flagged {
                out.push(Diagnostic::new(
                    "hot-path-alloc",
                    &ctx.path,
                    tok.line,
                    "heap allocation inside a lint:hot-path function; hoist it into \
                     reusable scratch (or lint:allow with why it cannot recur warm)"
                        .to_string(),
                ));
            }
        }
    }
}

/// `justified-allow`: every `#[allow(…)]` / `#![allow(…)]` needs a
/// same-line `//` comment saying why — an unexplained allow is a
/// suppressed warning nobody can review.
fn justified_allow(
    ctx: &FileContext,
    lexed: &Lexed,
    tokens: &[Token],
    i: usize,
    out: &mut Vec<Diagnostic>,
) {
    let tok = &tokens[i];
    if !tok.is_punct('#') {
        return;
    }
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1;
    }
    if !(tokens.get(j).is_some_and(|t| t.is_punct('['))
        && tokens.get(j + 1).is_some_and(|t| t.is_ident("allow")))
    {
        return;
    }
    let line = tok.line;
    let justified = lexed
        .comments
        .iter()
        .any(|c| c.line == line && !c.text.trim().is_empty());
    if !justified {
        out.push(Diagnostic::new(
            "justified-allow",
            &ctx.path,
            line,
            "#[allow(...)] without a same-line justification comment; say why the \
             lint is wrong here"
                .to_string(),
        ));
    }
}
