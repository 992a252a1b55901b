//! Diagnostics and their human/JSON renderings.
//!
//! The linter's whole output is a list of [`Diagnostic`]s; the CLI either
//! pretty-prints them (`file:line: [rule] message`) or emits one JSON
//! object (`--json`) for CI. JSON is written by hand — the linter owns no
//! dependencies, vendored or otherwise, so it can never be broken by the
//! code it checks.

/// One finding: a rule violation at a `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Name of the violated rule (or `bad-allow-directive`).
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// What went wrong and what to do instead.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        rule: &'static str,
        file: impl Into<String>,
        line: u32,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The outcome of linting a file set.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every diagnostic, sorted by `(file, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// `true` when the scan found nothing.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Deterministic output order regardless of walk order.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Renders the report as a single JSON object (machine output for the
    /// CI `static-analysis` job).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"files_scanned\": ");
        out.push_str(&self.files_scanned.to_string());
        out.push_str(",\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"rule\": ");
            json_str(&mut out, d.rule);
            out.push_str(", \"file\": ");
            json_str(&mut out, &d.file);
            out.push_str(", \"line\": ");
            out.push_str(&d.line.to_string());
            out.push_str(", \"message\": ");
            json_str(&mut out, &d.message);
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }
}

/// Appends `s` as a JSON string literal (quotes, backslashes, and control
/// characters escaped).
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_sorts() {
        let mut report = LintReport {
            diagnostics: vec![
                Diagnostic::new("no-panic", "b.rs", 2, "say \"no\""),
                Diagnostic::new("no-panic", "a.rs", 9, "tab\there"),
            ],
            files_scanned: 2,
        };
        report.sort();
        assert_eq!(report.diagnostics[0].file, "a.rs");
        let json = report.to_json();
        assert!(json.contains("\\\"no\\\""));
        assert!(json.contains("tab\\there"));
        assert!(json.contains("\"files_scanned\": 2"));
    }

    #[test]
    fn empty_report_is_clean_valid_json() {
        let report = LintReport::default();
        assert!(report.is_clean());
        assert_eq!(
            report.to_json(),
            "{\n  \"files_scanned\": 0,\n  \"diagnostics\": []\n}"
        );
    }
}
