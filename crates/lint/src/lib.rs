//! `khist-lint`: in-repo static analysis that mechanically enforces the
//! workspace's determinism, purity, and no-panic invariants.
//!
//! The khist workspace carries load-bearing guarantees that ordinary
//! tests only catch *after* a violation ships: sharded `Engine` output is
//! bit-identical per stream to a dedicated `Monitor`, a pushed window
//! replays bit-identically pull-side, and a `Session` batch costs one
//! file pass. All three die quietly the day someone iterates a
//! `RandomState` map into output, reads the clock inside `Monitor`,
//! or derives a seed outside `stream_seed`/`window_seed`. This crate
//! moves those failures to lint time.
//!
//! It is deliberately self-contained: a hand-rolled lexer
//! ([`lexer`] — comment-, string-, and attribute-aware), path-based rule
//! scoping ([`context`]), nine project-specific rules ([`rules`]), and a
//! reasoned escape hatch ([`allow`]):
//!
//! ```text
//! // lint:allow(rule-name): why this exact line is exempt
//! // lint:allow-file(rule-name): why this whole file is exempt
//! ```
//!
//! Entry points: [`lint_workspace`] walks a workspace root (skipping
//! `vendor/` and `target/`); [`lint_source`] lints one file's text under
//! a virtual path (what the fixture tests use). The `khist-lint` binary
//! wraps them (`check [--json] [--root PATH]`, `rules`).

#![forbid(unsafe_code)]

pub mod allow;
pub mod context;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

pub use diag::{Diagnostic, LintReport};
pub use rules::{RULE_NAMES, RULE_SUMMARIES};

/// Lints one file's source text as if it lived at `virtual_path`
/// (workspace-relative, `/`-separated). Path placement decides which
/// rules apply — see [`context::FileContext::classify`].
pub fn lint_source(virtual_path: &str, source: &str) -> Vec<Diagnostic> {
    let ctx = context::FileContext::classify(virtual_path);
    let lexed = lexer::lex(source);
    let allows = allow::Allows::parse(virtual_path, &lexed.comments);
    rules::check_file(&ctx, &lexed, &allows)
}

/// Walks `root` and lints every `.rs` file outside `vendor/`, `target/`,
/// and the fixture corpus. Diagnostics come back sorted by
/// `(file, line, rule)`.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let files = walk::collect_files(root)?;
    let mut report = LintReport {
        diagnostics: Vec::new(),
        files_scanned: files.len(),
    };
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(file)?;
        report.diagnostics.extend(lint_source(&rel, &source));
    }
    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_core_file_stays_clean() {
        let diags = lint_source(
            "crates/core/src/example.rs",
            "pub fn double(xs: &[u64]) -> Vec<u64> {\n    xs.iter().map(|x| x * 2).collect()\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn rule_names_and_summaries_stay_in_sync() {
        assert_eq!(RULE_NAMES.len(), RULE_SUMMARIES.len());
        for (name, (summary_name, _)) in RULE_NAMES.iter().zip(RULE_SUMMARIES) {
            assert_eq!(name, summary_name);
        }
    }

    #[test]
    fn doc_comment_examples_never_fire() {
        // Doctests routinely unwrap; the lexer files them under comments.
        let diags = lint_source(
            "crates/core/src/example.rs",
            "/// ```\n/// let x = foo().unwrap();\n/// ```\npub fn foo() -> Option<u32> { None }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn test_modules_inside_library_files_are_exempt() {
        let src = "pub fn ok() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n    #[test]\n    fn t() { ok(); Some(1).unwrap(); }\n}\n";
        assert!(lint_source("crates/core/src/example.rs", src).is_empty());
        // The same unwrap outside the test mod fires.
        let bad = "pub fn bad() { Some(1).unwrap(); }\n";
        let diags = lint_source("crates/core/src/example.rs", bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "no-panic");
    }

    #[test]
    fn allows_suppress_and_malformed_allows_report() {
        let src =
            "pub fn f() { Some(1).unwrap(); } // lint:allow(no-panic): just-constructed Some\n";
        assert!(lint_source("crates/core/src/example.rs", src).is_empty());
        let bad = "pub fn f() { Some(1).unwrap(); } // lint:allow(no-panic)\n";
        let diags = lint_source("crates/core/src/example.rs", bad);
        assert_eq!(diags.len(), 2, "{diags:?}"); // the unwrap AND the bad directive
    }
}
