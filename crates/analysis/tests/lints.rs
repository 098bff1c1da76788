//! Fixture tests: one known-bad and one known-good snippet per lint,
//! asserting the exact diagnostics (lint name + line) the scanner emits.
//! The fixtures live in `tests/fixtures/` — a directory the workspace
//! walker skips, so committed bad code never fails the real lint run.

use fsd_analysis::{lint_source, LintConfig};

fn variants() -> Vec<String> {
    ["Serial", "Queue", "Object", "Hybrid", "Direct", "Auto"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

fn cfg(path: &str) -> LintConfig {
    LintConfig {
        variants: variants(),
        path: path.to_string(),
    }
}

/// `(lint, line)` pairs of every finding, in sorted order.
fn findings(src: &str, path: &str) -> Vec<(&'static str, u32)> {
    lint_source(src, &cfg(path))
        .into_iter()
        .map(|f| (f.lint, f.line))
        .collect()
}

#[test]
fn variant_exhaustive_flags_catch_alls_and_gaps() {
    let bad = include_str!("fixtures/bad_variant_match.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![("variant-exhaustive", 3), ("variant-exhaustive", 11)]
    );
    let good = include_str!("fixtures/good_variant_match.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn variant_exhaustive_reports_missing_variant_names() {
    let bad = include_str!("fixtures/bad_variant_match.rs");
    let out = lint_source(bad, &cfg("crates/core/src/fixture.rs"));
    assert!(
        out[0].message.contains("Auto")
            && out[0].message.contains("Hybrid")
            && out[0].message.contains("Object"),
        "diagnostic must name the unnamed variants: {}",
        out[0].message
    );
}

#[test]
fn billing_pair_flags_unbalanced_windows() {
    let bad = include_str!("fixtures/bad_billing_pair.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![("billing-pair", 2)]
    );
    let good = include_str!("fixtures/good_billing_pair.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn raw_channel_name_flags_inline_literals() {
    let bad = include_str!("fixtures/bad_raw_channel_name.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![("raw-channel-name", 3), ("raw-channel-name", 7)]
    );
    let good = include_str!("fixtures/good_raw_channel_name.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn teardown_pair_flags_orphan_provisioners() {
    let bad = include_str!("fixtures/bad_teardown_pair.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![
            ("teardown-pair", 2),
            ("teardown-pair", 6),
            ("teardown-pair", 10),
        ]
    );
    let good = include_str!("fixtures/good_teardown_pair.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn teardown_pair_is_scoped_to_core_and_comm() {
    // The same orphan provisioners outside crates/core//crates/comm pass:
    // other crates do not manage cloud resources.
    let bad = include_str!("fixtures/bad_teardown_pair.rs");
    assert_eq!(findings(bad, "crates/sched/src/fixture.rs"), vec![]);
}

#[test]
fn no_unwrap_flags_the_panic_family() {
    let bad = include_str!("fixtures/bad_no_unwrap.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![
            ("no-unwrap", 3),
            ("no-unwrap", 7),
            ("no-unwrap", 13),
            ("no-unwrap", 18)
        ]
    );
    let good = include_str!("fixtures/good_no_unwrap.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn no_unwrap_exempts_tests_benches_and_bins() {
    let bad = include_str!("fixtures/bad_no_unwrap.rs");
    for path in [
        "crates/core/tests/fixture.rs",
        "crates/core/benches/fixture.rs",
        "crates/core/src/bin/tool.rs",
        "tests/fixture.rs",
    ] {
        assert_eq!(findings(bad, path), vec![], "{path} must be exempt");
    }
}

#[test]
fn no_unwrap_treats_a_package_main_rs_as_a_bin() {
    let src = include_str!("fixtures/bin_main_unreachable.rs");
    for path in [
        "perfbench/src/main.rs",
        "crates/bench/src/main.rs",
        "src/main.rs",
    ] {
        assert_eq!(findings(src, path), vec![], "{path} is a bin crate root");
    }
    // The same code in a library module is still flagged.
    for path in ["perfbench/src/harness.rs", "crates/core/src/main_loop.rs"] {
        assert_eq!(findings(src, path), vec![("no-unwrap", 6)], "{path}");
    }
}

#[test]
fn lock_across_blocking_flags_live_guards() {
    let bad = include_str!("fixtures/bad_lock_across_blocking.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![("lock-across-blocking", 4), ("lock-across-blocking", 10)]
    );
    let good = include_str!("fixtures/good_lock_across_blocking.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn retry_idempotent_flags_consuming_ops_in_retry_closures() {
    let bad = include_str!("fixtures/bad_retry_idempotent.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![("retry-idempotent", 3), ("retry-idempotent", 10)]
    );
    let good = include_str!("fixtures/good_retry_idempotent.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn comm_real_wait_flags_wait_primitives_outside_the_mailbox() {
    let bad = include_str!("fixtures/bad_comm_real_wait.rs");
    assert_eq!(
        findings(bad, "crates/comm/src/fixture.rs"),
        vec![
            ("comm-real-wait", 1),
            ("comm-real-wait", 2),
            ("comm-real-wait", 4),
            ("comm-real-wait", 8),
            ("comm-real-wait", 14),
            ("comm-real-wait", 15)
        ]
    );
    // The mailbox owns the one real-time wait; other crates are out of
    // scope.
    for path in ["crates/comm/src/mailbox.rs", "crates/core/src/fixture.rs"] {
        assert_eq!(findings(bad, path), vec![], "{path} is exempt");
    }
    // Blocking through the mailbox is the sanctioned shape, and test
    // modules may time themselves.
    let good = include_str!("fixtures/good_comm_real_wait.rs");
    assert_eq!(findings(good, "crates/comm/src/fixture.rs"), vec![]);
}

#[test]
fn allow_comment_silences_only_the_named_line() {
    let src = include_str!("fixtures/allow_escape_hatch.rs");
    // The documented panic! is silenced; the undocumented unwrap is not.
    assert_eq!(
        findings(src, "crates/core/src/fixture.rs"),
        vec![("no-unwrap", 11)]
    );
}
