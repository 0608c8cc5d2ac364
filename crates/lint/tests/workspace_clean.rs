//! The lint gate's own gate: the workspace must be clean under
//! `dcd_lint`, so any regression shows up here (and in CI) with a
//! rendered `file:line` diagnostic. A finding is fixed, or excused
//! inline with `// dcd-lint: allow(<rule>) — <reason>`; none is in the
//! tree today. Also pinned here: the rule set, the crate layering, and
//! the allow-list of the invariants clippy carries.

use std::path::Path;

use dcd_lint::engine::workspace_files;
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
            "relaxed-atomic",
            "duplicate-detect-loop",
            "unused-suppression",
            "bad-suppression",
        ]
    );
}

/// The engine dependency DAG, as `(crate dir, allowed [dependencies])`.
/// rustc cannot resolve a `dcd_x::` path without a manifest edge, so
/// pinning the manifests pins the layering at every reference.
const LAYERS: [(&str, &[&str]); 9] = [
    ("relation", &[]),
    ("obs", &[]),
    ("cfd", &["dcd-relation", "dcd-obs"]),
    ("dist", &["dcd-relation", "dcd-obs"]),
    ("core", &["dcd-relation", "dcd-obs", "dcd-cfd", "dcd-dist"]),
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
    for dir in ["rand", "proptest"] {
        for dep in dependencies(&crates.join("compat").join(dir).join("Cargo.toml")) {
            assert!(!dep.starts_with("dcd-"), "compat/{dir} reaches back into `{dep}`");
        }
    }
}

/// "No host clock, no thread outside the pool" is `clippy.toml`'s
/// `disallowed-methods`; what this pins is the allow-list: the five
/// paths are listed, and the only way past them is a reasoned
/// `#[expect]` (never an `#[allow]`, which would outlive its finding) at
/// one of the four sanctioned sites.
#[test]
fn the_sanctioned_clock_and_thread_sites_stay_four() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let toml = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml exists");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::Builder::spawn",
    ] {
        assert!(toml.contains(&format!("path = \"{path}\"")), "clippy.toml lost `{path}`");
    }

    let mut sites = Vec::new();
    for file in workspace_files(&root).expect("workspace sources should be readable") {
        let rel = file.strip_prefix(&root).expect("walked from root").to_string_lossy().to_string();
        if rel.starts_with("crates/lint/") {
            continue; // this test and the rule docs name the lint
        }
        let text = std::fs::read_to_string(&file).expect("source is readable");
        for (at, _) in text.match_indices("clippy::disallowed_methods") {
            let open = text[..at].rfind("#[").expect("the lint is named inside an attribute");
            let close = at + text[at..].find(")]").expect("the attribute closes");
            assert_eq!(text[open..at].trim_end(), "#[expect(", "{rel}: only `#[expect]` may");
            assert!(text[at..close].contains("reason = \""), "{rel}: an expectation says why");
            sites.push(rel.clone());
        }
    }
    assert_eq!(
        sites,
        [
            "crates/bench/src/bin/experiments.rs",
            "crates/compat/rand/src/lib.rs",
            "crates/dist/src/pool.rs",
            "crates/dist/src/pool.rs",
        ]
    );
}
