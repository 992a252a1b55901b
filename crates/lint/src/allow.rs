//! The escape hatch: `lint:allow` directives parsed out of the comment
//! stream.
//!
//! Two forms, both requiring a non-empty reason after the colon:
//!
//! ```text
//! // lint:allow(rule-name): why this exact line is exempt
//! // lint:allow-file(rule-name): why this whole file is exempt
//! ```
//!
//! A line-level allow suppresses the named rule on its own line and the
//! line directly below it, so it works both as a trailing comment and as
//! a standalone comment above the flagged line. A file-level allow
//! (conventionally placed near the top of the file) suppresses the rule
//! everywhere in the file.
//!
//! Malformed directives — unknown rule name, missing reason — are not
//! silently ignored: they become `bad-allow-directive` diagnostics, so an
//! allow that would quietly fail to suppress is caught at lint time.

use crate::diag::Diagnostic;
use crate::lexer::LineComment;
use crate::rules::RULE_NAMES;

/// One parsed `lint:allow` / `lint:allow-file` directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// The rule the directive suppresses.
    pub rule: String,
    /// 1-based line the directive sits on.
    pub line: u32,
    /// `true` for `lint:allow-file`.
    pub file_wide: bool,
}

/// The directives of one file plus any malformed-directive diagnostics.
#[derive(Debug, Default)]
pub struct Allows {
    directives: Vec<AllowDirective>,
    /// Diagnostics for malformed directives, reported under
    /// `bad-allow-directive`.
    pub errors: Vec<Diagnostic>,
}

impl Allows {
    /// Parses every comment of a file into directives.
    pub fn parse(path: &str, comments: &[LineComment]) -> Allows {
        let mut out = Allows::default();
        for comment in comments {
            let text = comment.text.trim();
            let Some(rest) = text.strip_prefix("lint:allow") else {
                continue;
            };
            let (file_wide, rest) = match rest.strip_prefix("-file") {
                Some(rest) => (true, rest),
                None => (false, rest),
            };
            match parse_body(rest) {
                Ok(rule) if RULE_NAMES.contains(&rule) => {
                    out.directives.push(AllowDirective {
                        rule: rule.to_string(),
                        line: comment.line,
                        file_wide,
                    });
                }
                Ok(rule) => out.errors.push(Diagnostic::new(
                    "bad-allow-directive",
                    path,
                    comment.line,
                    format!("lint:allow names unknown rule '{rule}'"),
                )),
                Err(why) => out.errors.push(Diagnostic::new(
                    "bad-allow-directive",
                    path,
                    comment.line,
                    why,
                )),
            }
        }
        out
    }

    /// `true` when `rule` is suppressed at `line` by some directive.
    pub fn suppresses(&self, rule: &str, line: u32) -> bool {
        self.directives
            .iter()
            .any(|d| d.rule == rule && (d.file_wide || d.line == line || d.line + 1 == line))
    }
}

/// Parses `(rule-name): reason`, requiring a non-empty reason.
fn parse_body(rest: &str) -> Result<&str, String> {
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("lint:allow is missing its '(rule-name)'".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("lint:allow has an unclosed '(rule-name)'".to_string());
    };
    let rule = rest[..close].trim();
    let after = rest[close + 1..].trim_start();
    let Some(reason) = after.strip_prefix(':') else {
        return Err("lint:allow needs ': reason' after the rule name".to_string());
    };
    if reason.trim().is_empty() {
        return Err("lint:allow reason must not be empty".to_string());
    }
    Ok(rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn allows_of(src: &str) -> Allows {
        Allows::parse("f.rs", &lex(src).comments)
    }

    #[test]
    fn trailing_and_preceding_allows_suppress() {
        let a = allows_of("x(); // lint:allow(no-panic): invariant-backed\n");
        assert!(a.errors.is_empty());
        assert!(a.suppresses("no-panic", 1));
        assert!(a.suppresses("no-panic", 2), "line below is covered");
        assert!(!a.suppresses("no-panic", 3));
        assert!(!a.suppresses("wall-clock", 1), "other rules unaffected");
    }

    #[test]
    fn file_wide_allows_cover_every_line() {
        let a = allows_of("// lint:allow-file(checked-indexing): prefix arrays\n");
        assert!(a.errors.is_empty());
        assert!(a.suppresses("checked-indexing", 999));
    }

    #[test]
    fn missing_reason_unknown_rule_and_bad_shape_are_errors() {
        for bad in [
            "// lint:allow(no-panic):",
            "// lint:allow(no-panic)",
            "// lint:allow(not-a-rule): reason",
            "// lint:allow no-panic: reason",
        ] {
            let a = allows_of(bad);
            assert_eq!(a.errors.len(), 1, "{bad}");
            assert_eq!(a.errors[0].rule, "bad-allow-directive");
        }
    }

    #[test]
    fn ordinary_comments_are_not_directives() {
        let a = allows_of("// mentions lint:allow only in prose? no — must start with it\n");
        // The comment does not *start* with `lint:allow`, so it is prose.
        assert!(a.errors.is_empty());
        assert!(!a.suppresses("no-panic", 1));
    }
}
