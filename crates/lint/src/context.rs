//! Per-file rule scoping: which rules apply where.
//!
//! Rules are deliberately scoped by *path*, not by configuration: the
//! layout of this workspace (library crates vs. the bench harness vs.
//! integration tests vs. the one designated wall-clock boundary) is the
//! configuration, and encoding it here keeps the linter's behavior
//! reviewable in one place.

/// Everything the rules need to know about a file beyond its tokens.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// Vendored shim code: linted by nothing (the walker skips `vendor/`
    /// outright; this guards direct [`crate::lint_source`] calls too).
    pub is_vendor: bool,
    /// Test-like code — integration tests, examples, criterion benches,
    /// and the whole `crates/bench` measurement harness. Exempt from the
    /// determinism/purity rules: measuring wall time and unwrapping in a
    /// test is the point, not a bug.
    pub is_test_like: bool,
    /// Library code of `crates/core` or `crates/oracle`: the deterministic
    /// substrate where the no-panic and checked-indexing rules apply.
    pub is_core_or_oracle: bool,
    /// The one file allowed to read the wall clock (`crates/core/src/api.rs`)
    /// — every timing measurement funnels through its `timed` helper.
    pub is_clock_boundary: bool,
    /// Library code of `crates/oracle`: the one home of raw SplitMix64
    /// seed derivation (`stream_seed`/`window_seed`).
    pub is_seed_home: bool,
    /// Library code of `crates/serve`: the reactor plumbs deadlines as
    /// `Instant` *values*, so `wall-clock` switches from flagging the
    /// type name to flagging clock *reads* (`Instant::now`) there.
    pub is_serve: bool,
    /// The reactor itself (`crates/serve/src/reactor.rs`) — the one
    /// serve file granted a single budgeted `Instant::now` call site.
    pub is_serve_reactor: bool,
    /// A crate root (`src/lib.rs` or `crates/*/src/lib.rs`) that must
    /// carry `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
}

impl FileContext {
    /// Classifies a workspace-relative path (`/`-separated).
    pub fn classify(path: &str) -> FileContext {
        let components: Vec<&str> = path.split('/').collect();
        let is_vendor = components.contains(&"vendor");
        let is_test_like = components.contains(&"tests")
            || components.contains(&"examples")
            || components.contains(&"benches")
            || path.starts_with("crates/bench/");
        FileContext {
            path: path.to_string(),
            is_vendor,
            is_test_like,
            is_core_or_oracle: (path.starts_with("crates/core/src/")
                || path.starts_with("crates/oracle/src/"))
                && !is_test_like,
            is_clock_boundary: path == "crates/core/src/api.rs",
            is_seed_home: path.starts_with("crates/oracle/src/"),
            is_serve: path.starts_with("crates/serve/src/"),
            is_serve_reactor: path == "crates/serve/src/reactor.rs",
            is_crate_root: path == "src/lib.rs"
                || (components.len() == 4
                    && components[0] == "crates"
                    && components[2] == "src"
                    && components[3] == "lib.rs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_workspace_layout() {
        let core = FileContext::classify("crates/core/src/engine.rs");
        assert!(core.is_core_or_oracle && !core.is_test_like && !core.is_clock_boundary);

        let api = FileContext::classify("crates/core/src/api.rs");
        assert!(api.is_clock_boundary && api.is_core_or_oracle);

        let oracle = FileContext::classify("crates/oracle/src/oracle.rs");
        assert!(oracle.is_seed_home && oracle.is_core_or_oracle);

        let bench = FileContext::classify("crates/bench/src/runner.rs");
        assert!(bench.is_test_like);

        let test = FileContext::classify("tests/engine_sharding.rs");
        assert!(test.is_test_like && !test.is_core_or_oracle);

        let example = FileContext::classify("examples/fleet_monitor.rs");
        assert!(example.is_test_like);

        for root in [
            "src/lib.rs",
            "crates/core/src/lib.rs",
            "crates/lint/src/lib.rs",
        ] {
            assert!(FileContext::classify(root).is_crate_root, "{root}");
        }
        assert!(!FileContext::classify("crates/core/src/api.rs").is_crate_root);
        let vendored = FileContext::classify("vendor/rand/src/lib.rs");
        assert!(vendored.is_vendor && !vendored.is_crate_root);

        let crate_tests = FileContext::classify("crates/oracle/tests/x.rs");
        assert!(crate_tests.is_test_like && !crate_tests.is_core_or_oracle);

        let reactor = FileContext::classify("crates/serve/src/reactor.rs");
        assert!(reactor.is_serve && reactor.is_serve_reactor && !reactor.is_core_or_oracle);
        let conn = FileContext::classify("crates/serve/src/conn.rs");
        assert!(conn.is_serve && !conn.is_serve_reactor);
        let serve_tests = FileContext::classify("crates/serve/tests/x.rs");
        assert!(serve_tests.is_test_like && !serve_tests.is_serve);
    }
}
