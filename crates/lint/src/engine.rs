//! The workspace driver: discover files, classify them, collect the
//! workspace facts (which fns return hash containers), run the rules,
//! then filter suppressed findings and audit the suppressions
//! themselves.

use crate::diag::Diagnostic;
use crate::rules::{check_file, collect_facts, HashFacts, RULE_IDS};
use crate::source::{FileClass, SourceFile};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// A completed lint run.
#[derive(Debug)]
pub struct Report {
    /// Surviving (unsuppressed) findings, sorted by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files analyzed.
    pub checked_files: usize,
}

/// Lints every Rust source of the workspace rooted at `root`.
///
/// Skipped subtrees: `target/` (build output), `crates/lint/` (the
/// analyzer's own sources and fixtures quote the very patterns it
/// hunts), and anything named `fixtures` (deliberately violating test
/// inputs). Everything else under `src/`, `tests/`, `examples/` and
/// `crates/` is fair game.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let mut sources = Vec::new();
    for path in workspace_files(root)? {
        let rel = relative(&path, root);
        if rel.starts_with("crates/lint/") || rel.contains("/fixtures/") {
            continue;
        }
        let class = classify(&rel);
        let src = fs::read_to_string(&path)?;
        sources.push(SourceFile::parse(rel, class, &src));
    }

    Ok(Report { diagnostics: run_rules(&sources), checked_files: sources.len() })
}

/// Every `.rs` file under the workspace's `src/`, `tests/`, `examples/`
/// and `crates/` (build output aside), sorted.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Lints a single source string (the fixture tests' entry point): the
/// same pipeline as [`check_workspace`], over a one-file workspace.
pub fn check_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let class = classify(path);
    run_rules(&[SourceFile::parse(path.to_string(), class, src)])
}

/// The shared rule pipeline: pass 1 collects workspace facts, pass 2
/// runs every rule, pass 3 applies the suppressions and flags the
/// stale ones.
fn run_rules(sources: &[SourceFile]) -> Vec<Diagnostic> {
    let mut hash_facts = HashFacts::default();
    for file in sources {
        collect_facts(file, &mut hash_facts);
    }
    let mut raw = Vec::new();
    for file in sources {
        raw.extend(check_file(file, &hash_facts));
    }
    let mut diagnostics = apply_suppressions(sources, raw);
    diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    diagnostics
}

/// Filters findings covered by a reasoned `allow(..)` on the same or
/// previous line, then reports every well-formed suppression that
/// excused nothing as `unused-suppression` — a stale permission slip
/// is itself a finding. The two meta rules (`bad-suppression`,
/// `unused-suppression`) are never suppressible.
fn apply_suppressions(files: &[SourceFile], raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut used: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut out = Vec::new();
    for d in raw {
        if matches!(d.rule, "bad-suppression" | "unused-suppression") {
            out.push(d);
            continue;
        }
        let mut suppressed = false;
        for (fi, f) in files.iter().enumerate() {
            if f.path != d.file {
                continue;
            }
            for (si, s) in f.suppressions.iter().enumerate() {
                if s.rule == d.rule && (s.line == d.line || s.effective == d.line) {
                    used.insert((fi, si));
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            out.push(d);
        }
    }
    for (fi, f) in files.iter().enumerate() {
        for (si, s) in f.suppressions.iter().enumerate() {
            // Unknown rule names are already `bad-suppression`; the
            // meta rules cannot be allowed, so an allow naming them is
            // stale by construction.
            if !RULE_IDS.contains(&s.rule.as_str()) || used.contains(&(fi, si)) {
                continue;
            }
            out.push(Diagnostic {
                rule: "unused-suppression",
                file: f.path.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "`allow({})` excuses nothing: the rule does not fire on line {} — \
                     delete the stale suppression (or move it to the line that needs it)",
                    s.rule, s.effective
                ),
            });
        }
    }
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace(std::path::MAIN_SEPARATOR, "/")
}

/// Path-based file classification; see [`FileClass`].
pub fn classify(rel: &str) -> FileClass {
    let support = rel.starts_with("crates/compat/")
        || rel.starts_with("crates/bench/")
        || rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/examples/");
    if support {
        FileClass::Support
    } else {
        FileClass::Engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        assert_eq!(classify("src/api.rs"), FileClass::Engine);
        assert_eq!(classify("crates/core/src/runner.rs"), FileClass::Engine);
        assert_eq!(classify("crates/core/tests/prop.rs"), FileClass::Support);
        assert_eq!(classify("tests/prop_facade.rs"), FileClass::Support);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Support);
        assert_eq!(classify("crates/bench/src/lib.rs"), FileClass::Support);
        assert_eq!(classify("crates/compat/rand/src/lib.rs"), FileClass::Support);
    }

    #[test]
    fn suppression_on_same_or_previous_line_filters_the_finding() {
        let src = "fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed); // dcd-lint: allow(relaxed-atomic) — test of same-line allow\n}\n";
        assert!(check_source("crates/core/src/x.rs", src).is_empty());
        let src = "fn f(c: &AtomicU64) {\n    // dcd-lint: allow(relaxed-atomic) — test of line-above allow\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(check_source("crates/core/src/x.rs", src).is_empty());
        let src = "fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert_eq!(check_source("crates/core/src/x.rs", src).len(), 1);
    }

    #[test]
    fn reasonless_suppression_does_not_filter_and_is_reported() {
        let src = "fn f(c: &AtomicU64) {\n    // dcd-lint: allow(relaxed-atomic)\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        let diags = check_source("crates/core/src/x.rs", src);
        assert!(diags.iter().any(|d| d.rule == "relaxed-atomic"), "finding survives");
        assert!(
            diags.iter().any(|d| d.rule == "bad-suppression"),
            "and the bad allow is called out"
        );
    }

    #[test]
    fn suppression_that_excuses_nothing_is_flagged_as_unused() {
        let src = "fn f() {\n    // dcd-lint: allow(relaxed-atomic) — defensive, nothing here is atomic\n    let t = 1;\n}\n";
        let diags = check_source("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "unused-suppression");
        assert_eq!(diags[0].line, 2);
    }
}
