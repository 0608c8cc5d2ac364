//! The lint gate's own gate: the workspace must be clean under
//! `dcd_lint`. Every pre-existing violation was either fixed or given
//! an inline `// dcd-lint: allow(<rule>) — <reason>` with a real
//! justification, so any regression shows up here (and in CI) with a
//! rendered `file:line` diagnostic.

use std::path::Path;

use dcd_lint::{check_workspace, render, Format, RULE_IDS};

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = check_workspace(&root).expect("workspace sources should be readable");

    assert!(
        report.checked_files > 50,
        "workspace walk looks truncated: only {} files checked",
        report.checked_files
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace has lint findings:\n{}",
        render(&report.diagnostics, report.checked_files, Format::Text)
    );
}

#[test]
fn the_rule_set_is_pinned() {
    // Adding a rule must be a conscious act: it needs a describe()/
    // explain() entry, fixtures, and a README row. This pin makes a
    // drive-by rule (or a silently dropped one) a test failure pointing
    // at the full checklist.
    assert_eq!(
        RULE_IDS,
        [
            "hash-iteration-order",
            "stray-thread",
            "wall-clock",
            "relaxed-atomic",
            "duplicate-detect-loop",
            "exhaustive-dispatch",
            "unused-suppression",
            "bad-suppression",
        ]
    );
}

/// The engine dependency DAG, as `(crate dir, allowed [dependencies])`.
/// rustc cannot resolve a `dcd_x::` path without a manifest edge, so
/// pinning the manifests pins the layering at every reference.
const LAYERS: [(&str, &[&str]); 9] = [
    ("relation", &["serde"]),
    ("obs", &[]),
    ("cfd", &["dcd-relation", "dcd-obs", "serde"]),
    ("dist", &["dcd-relation", "dcd-obs"]),
    ("core", &["dcd-relation", "dcd-obs", "dcd-cfd", "dcd-dist", "serde"]),
    ("incr", &["dcd-relation", "dcd-obs", "dcd-cfd", "dcd-dist", "dcd-core"]),
    ("vertical", &["dcd-relation", "dcd-obs", "dcd-cfd", "dcd-dist", "dcd-core"]),
    ("complexity", &["dcd-relation", "dcd-cfd", "dcd-dist"]),
    ("datagen", &["dcd-relation", "dcd-cfd", "dcd-dist", "rand"]),
];

/// The keys of a manifest's `[dependencies]` table (dev-dependencies
/// legitimately cut across layers and are not read).
fn dependencies(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest is readable");
    let table = text.lines().skip_while(|l| l.trim() != "[dependencies]").skip(1);
    table
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('=').map(|(key, _)| key.trim().to_string()))
        .collect()
}

#[test]
fn the_manifests_implement_the_layering() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for (dir, allowed) in LAYERS {
        let deps = dependencies(&crates.join(dir).join("Cargo.toml"));
        assert_eq!(deps.is_empty(), allowed.is_empty(), "dcd_{dir}: table not read: {deps:?}");
        for dep in deps {
            assert!(allowed.contains(&dep.as_str()), "dcd_{dir} may not depend on `{dep}`");
        }
    }
    // The compat stand-ins sit outside the engine DAG entirely.
    for dir in ["serde", "serde_derive", "rand", "proptest", "criterion"] {
        for dep in dependencies(&crates.join("compat").join(dir).join("Cargo.toml")) {
            assert!(!dep.starts_with("dcd-"), "compat/{dir} reaches back into `{dep}`");
        }
    }
}
