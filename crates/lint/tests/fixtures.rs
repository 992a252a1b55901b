//! Fixture corpus: every rule has a `bad_*` fixture that must produce an
//! exact set of diagnostics and a `good_*` counterpart that must lint clean.
//!
//! Fixtures are linted through [`khist_lint::lint_source`] under a *virtual*
//! path, because most rules are path-scoped (e.g. `no-panic` only bites in
//! `crates/{core,oracle}` library code). The directory walker deliberately
//! skips `fixtures/`, so the intentionally-bad files never pollute a real
//! `khist-lint check` run.

use khist_lint::lint_source;

/// Lints a fixture under `virtual_path` and returns `(rule, line)` pairs.
fn run(virtual_path: &str, source: &str) -> Vec<(String, u32)> {
    lint_source(virtual_path, source)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect()
}

/// Asserts a bad fixture yields exactly `expected` and its good twin is clean.
fn check_pair(virtual_path: &str, bad: &str, good: &str, expected: &[(&str, u32)]) {
    let got = run(virtual_path, bad);
    let want: Vec<(String, u32)> = expected.iter().map(|&(r, l)| (r.to_string(), l)).collect();
    assert_eq!(got, want, "bad fixture under {virtual_path}");
    assert_eq!(
        run(virtual_path, good),
        Vec::<(String, u32)>::new(),
        "good fixture under {virtual_path}"
    );
}

#[test]
fn default_hasher_fixtures() {
    check_pair(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/bad_default_hasher.rs"),
        include_str!("fixtures/good_default_hasher.rs"),
        &[
            ("default-hasher", 2),
            ("default-hasher", 4),
            ("default-hasher", 5),
        ],
    );
}

#[test]
fn wall_clock_fixtures() {
    check_pair(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/bad_wall_clock.rs"),
        include_str!("fixtures/good_wall_clock.rs"),
        &[("wall-clock", 2), ("wall-clock", 5)],
    );
}

#[test]
fn wall_clock_is_permitted_at_the_api_boundary() {
    // The same clock-reading code is legal inside the one wall-clock door.
    let src = include_str!("fixtures/bad_wall_clock.rs");
    assert_eq!(run("crates/core/src/api.rs", src), vec![]);
}

#[test]
fn wall_clock_serve_reactor_gets_one_budgeted_read() {
    // In reactor.rs the first Instant::now is the budgeted clock site;
    // the second read and any SystemTime mention are flagged.
    check_pair(
        "crates/serve/src/reactor.rs",
        include_str!("fixtures/bad_wall_clock_serve.rs"),
        include_str!("fixtures/good_wall_clock_serve.rs"),
        &[("wall-clock", 9), ("wall-clock", 12), ("wall-clock", 13)],
    );
}

#[test]
fn wall_clock_serve_non_reactor_files_have_no_budget() {
    // The same single-clock-site code is illegal outside reactor.rs: other
    // serve files may hold Instant values but never read the clock.
    let src = include_str!("fixtures/good_wall_clock_serve.rs");
    assert_eq!(
        run("crates/serve/src/conn.rs", src),
        vec![("wall-clock".to_string(), 6)]
    );
}

#[test]
fn wall_clock_serve_allows_bare_instant_values() {
    // Plumbing Instant around (parameters, fields, arithmetic) without a
    // clock read lints clean anywhere in the serve crate.
    let src = "use std::time::Instant;\nfn later(now: Instant) -> Instant { now }\n";
    assert_eq!(run("crates/serve/src/protocol.rs", src), vec![]);
}

#[test]
fn thread_discipline_applies_inside_the_serve_reactor() {
    // The reactor is single-threaded by contract; spawning is flagged
    // there exactly as in core.
    let src = include_str!("fixtures/bad_thread_discipline.rs");
    assert_eq!(
        run("crates/serve/src/reactor.rs", src),
        vec![("thread-discipline".to_string(), 3)]
    );
}

#[test]
fn no_panic_fixtures() {
    check_pair(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/bad_no_panic.rs"),
        include_str!("fixtures/good_no_panic.rs"),
        &[("no-panic", 3)],
    );
}

#[test]
fn no_panic_is_exempt_in_test_paths() {
    let src = include_str!("fixtures/bad_no_panic.rs");
    assert_eq!(run("tests/fixture.rs", src), vec![]);
}

#[test]
fn checked_indexing_fixtures() {
    check_pair(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/bad_checked_indexing.rs"),
        include_str!("fixtures/good_checked_indexing.rs"),
        &[("checked-indexing", 3)],
    );
}

#[test]
fn seed_discipline_fixtures() {
    check_pair(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/bad_seed_discipline.rs"),
        include_str!("fixtures/good_seed_discipline.rs"),
        &[("seed-discipline", 2), ("seed-discipline", 3)],
    );
}

#[test]
fn seed_discipline_is_permitted_inside_khist_oracle() {
    // khist-oracle owns the SplitMix64 finalizer; the same tokens are legal there.
    let src = include_str!("fixtures/bad_seed_discipline.rs");
    assert_eq!(run("crates/oracle/src/fixture.rs", src), vec![]);
}

#[test]
fn thread_discipline_fixtures() {
    check_pair(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/bad_thread_discipline.rs"),
        include_str!("fixtures/good_thread_discipline.rs"),
        &[("thread-discipline", 3)],
    );
}

#[test]
fn float_cmp_fixtures() {
    check_pair(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/bad_float_cmp.rs"),
        include_str!("fixtures/good_float_cmp.rs"),
        &[("float-cmp", 3)],
    );
}

#[test]
fn forbid_unsafe_fixtures() {
    check_pair(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/bad_forbid_unsafe.rs"),
        include_str!("fixtures/good_forbid_unsafe.rs"),
        &[("forbid-unsafe", 1)],
    );
}

#[test]
fn forbid_unsafe_only_applies_to_crate_roots() {
    // A non-root module does not need (or get flagged for) the attribute.
    let src = include_str!("fixtures/bad_forbid_unsafe.rs");
    assert_eq!(run("crates/demo/src/inner.rs", src), vec![]);
}

#[test]
fn justified_allow_fixtures() {
    check_pair(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/bad_justified_allow.rs"),
        include_str!("fixtures/good_justified_allow.rs"),
        &[("justified-allow", 2)],
    );
}

#[test]
fn hot_path_alloc_fixtures() {
    // The mark is opt-in and path-independent: lint under a non-core
    // virtual path to show it bites outside crates/{core,oracle} too.
    check_pair(
        "src/fixture.rs",
        include_str!("fixtures/bad_hot_path_alloc.rs"),
        include_str!("fixtures/good_hot_path_alloc.rs"),
        &[
            ("hot-path-alloc", 5),
            ("hot-path-alloc", 6),
            ("hot-path-alloc", 7),
            ("hot-path-alloc", 8),
        ],
    );
}

#[test]
fn hot_path_alloc_covers_the_fleet_crate() {
    // The rollup accumulation in khist-fleet carries `lint:hot-path`
    // marks; the rule must bite under that crate's paths exactly as it
    // does in core — and leave cold report rendering alone.
    check_pair(
        "crates/fleet/src/summary.rs",
        include_str!("fixtures/bad_hot_path_alloc_fleet.rs"),
        include_str!("fixtures/good_hot_path_alloc_fleet.rs"),
        &[("hot-path-alloc", 5), ("hot-path-alloc", 6)],
    );
}

#[test]
fn hot_path_alloc_covers_the_parallel_route_path() {
    // The engine's route/probe/group functions carry `lint:hot-path`
    // marks; the rule must bite under the engine's own virtual path —
    // where checked-indexing and no-panic also apply, so both fixtures
    // are written in the same discipline as the real routing code.
    check_pair(
        "crates/core/src/engine.rs",
        include_str!("fixtures/bad_hot_path_alloc_route.rs"),
        include_str!("fixtures/good_hot_path_alloc_route.rs"),
        &[("hot-path-alloc", 5), ("hot-path-alloc", 7)],
    );
}

#[test]
fn malformed_allow_directive_is_itself_a_diagnostic() {
    let got = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/bad_allow_directive.rs"),
    );
    assert_eq!(got, vec![("bad-allow-directive".to_string(), 3)]);
}
