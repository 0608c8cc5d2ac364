//! Per-rule fixture tests: every rule gets one positive fixture (the
//! violation is reported, at the expected place) and one negative
//! fixture (the sanctioned idiom stays silent). Fixtures live under
//! `tests/fixtures/` and are *tokenized, never compiled* — the virtual
//! path passed to `check_source` selects the file class and the
//! path-based whitelists, so the same bytes can be a finding in engine
//! code and sanctioned inside `crates/dist`.

use dcd_lint::check_source;

/// Runs a fixture under a virtual path, returning `(rule, line)` pairs.
fn lint(virtual_path: &str, src: &str) -> Vec<(String, u32)> {
    check_source(virtual_path, src).into_iter().map(|d| (d.rule.to_string(), d.line)).collect()
}

fn rules(findings: &[(String, u32)]) -> Vec<&str> {
    findings.iter().map(|(r, _)| r.as_str()).collect()
}

// ------------------------------------------------- hash-iteration-order

#[test]
fn hash_iteration_positive_flags_escaping_order() {
    let src = include_str!("fixtures/hash_iteration_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["hash-iteration-order"], "{findings:?}");
    assert_eq!(findings[0].1, 9, "the `for .. in &m` loop is the leak");
}

#[test]
fn hash_iteration_negative_sanctions_sorts_and_reductions() {
    let src = include_str!("fixtures/hash_iteration_neg.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hash_iteration_ignores_test_code() {
    let src = include_str!("fixtures/hash_iteration_pos.rs");
    let findings = lint("tests/fixture.rs", src);
    assert!(findings.is_empty(), "test files may iterate freely: {findings:?}");
}

// ------------------------------------------------------- relaxed-atomic

#[test]
fn relaxed_atomic_positive_flags_relaxed_and_bare_unsafe() {
    let src = include_str!("fixtures/relaxed_atomic_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["relaxed-atomic", "relaxed-atomic"], "{findings:?}");
    assert_eq!(findings[0].1, 4, "`Ordering::Relaxed` outside the audited modules");
    assert_eq!(findings[1].1, 5, "`unsafe` without a SAFETY comment");
}

#[test]
fn relaxed_atomic_negative_allows_audited_modules_and_safety_comment() {
    let src = include_str!("fixtures/relaxed_atomic_neg.rs");
    for audited in ["crates/dist/src/ledger.rs", "crates/obs/src/registry.rs"] {
        let findings = lint(audited, src);
        assert!(findings.is_empty(), "{audited}: {findings:?}");
    }
}

#[test]
fn relaxed_atomics_flagged_outside_the_obs_registry() {
    // The registry whitelist is file-exact: the same accumulator idiom
    // elsewhere in `crates/obs` is still a finding.
    let src = include_str!("fixtures/relaxed_atomic_neg.rs");
    let findings = lint("crates/obs/src/trace.rs", src);
    assert_eq!(rules(&findings), ["relaxed-atomic"], "{findings:?}");
}

// ------------------------------------------------ duplicate-detect-loop

#[test]
fn duplicate_detect_loop_positive_flags_handrolled_validation() {
    let src = include_str!("fixtures/duplicate_detect_loop_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["duplicate-detect-loop"], "{findings:?}");
    assert_eq!(findings[0].1, 12, "the outer per-group loop is the duplicate");
}

#[test]
fn duplicate_detect_loop_negative_sanctions_kernel_and_maintenance() {
    let src = include_str!("fixtures/duplicate_detect_loop_neg.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "kernel delegation + bookkeeping stay silent: {findings:?}");
}

#[test]
fn duplicate_detect_loop_is_exempt_inside_the_kernel_and_the_oracle() {
    // The kernel is the one place the shape is *supposed* to live, and
    // the oracle the one independent second spelling it is pinned to.
    let src = include_str!("fixtures/duplicate_detect_loop_pos.rs");
    for home in ["crates/cfd/src/kernel.rs", "crates/cfd/src/oracle.rs"] {
        let findings = lint(home, src);
        assert!(findings.is_empty(), "{home}: {findings:?}");
    }
}

// ------------------------------------------------------ bad-suppression

#[test]
fn suppression_without_reason_is_flagged_and_does_not_excuse() {
    let src = include_str!("fixtures/suppression_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    let mut found = rules(&findings);
    found.sort_unstable();
    assert_eq!(found, ["bad-suppression", "relaxed-atomic"]);
}

#[test]
fn suppression_with_reason_filters_the_finding() {
    let src = include_str!("fixtures/suppression_neg.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(
        findings.is_empty(),
        "a reasoned multi-line allow covers the next code line: {findings:?}"
    );
}

#[test]
fn suppression_naming_an_unknown_rule_is_flagged() {
    let src = "// dcd-lint: allow(no-such-rule) — typo'd rule id\nfn f() {}\n";
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["bad-suppression"], "{findings:?}");
}

// --------------------------------------------------- unused-suppression

#[test]
fn unused_suppression_positive_flags_the_stale_allow() {
    let src = include_str!("fixtures/unused_suppression_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["unused-suppression"], "{findings:?}");
    assert_eq!(findings[0].1, 5, "the allow line itself is the finding site");
}

#[test]
fn unused_suppression_negative_stays_silent_for_live_allows() {
    let src = include_str!("fixtures/unused_suppression_neg.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "the allow excuses a real relaxed-atomic finding: {findings:?}");
}
