//! The allow-lists of the invariants the toolchain carries. Clippy (CI:
//! `-D warnings`) rejects a host-clock read, a thread outside the pool, an
//! atomic outside the audited module and a `for` over a hash container;
//! rustc rejects a `dcd_x::` path with no manifest edge and `unsafe` code
//! under a `#![forbid(unsafe_code)]` root. What neither can say is
//! *which* files may hold a sanctioned exception, *which* edges the
//! layering allows and *that* every root forbids `unsafe` — pinned here,
//! over the manifests and a walk of the sources.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `crates/`, `src/`, `tests/` and `examples/`,
/// as sorted root-relative paths (`benchmark/` is a workspace of its own
/// and times the host on purpose).
fn sources() -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("source directories are readable") {
            let path = entry.expect("directory entries are readable").path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        walk(&root().join(dir), &mut files);
    }
    let mut rel: Vec<String> = files
        .iter()
        .map(|f| f.strip_prefix(root()).expect("walked from root").to_string_lossy().into_owned())
        .collect();
    rel.sort();
    rel
}

/// Every source but this file, as `(path, its non-comment lines)`:
/// comment lines may name a lint, an ordering or a keyword; only code can
/// use one.
fn code() -> Vec<(String, String)> {
    let code: Vec<(String, String)> = sources()
        .into_iter()
        .filter(|rel| rel != "tests/workspace_invariants.rs")
        .map(|rel| {
            let text = std::fs::read_to_string(root().join(&rel)).expect("source is readable");
            let code: Vec<&str> =
                text.lines().filter(|l| !l.trim_start().starts_with("//")).collect();
            (rel, code.join("\n"))
        })
        .collect();
    assert!(code.len() > 50, "source walk looks truncated: only {} files", code.len());
    code
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The engine dependency DAG, as `(crate dir, allowed [dependencies])`.
/// rustc cannot resolve a `dcd_x::` path without a manifest edge, so
/// pinning the manifests pins the layering at every reference.
const LAYERS: [(&str, &[&str]); 10] = [
    ("relation", &[]),
    ("obs", &[]),
    ("cfd", &["dcd-relation", "dcd-obs"]),
    ("dist", &["dcd-relation", "dcd-obs"]),
    ("core", &["dcd-relation", "dcd-obs", "dcd-cfd", "dcd-dist"]),
    ("incr", &["dcd-relation", "dcd-obs", "dcd-cfd", "dcd-dist", "dcd-core"]),
    ("vertical", &["dcd-relation", "dcd-obs", "dcd-cfd", "dcd-dist", "dcd-core"]),
    ("complexity", &["dcd-relation", "dcd-cfd", "dcd-dist"]),
    ("datagen", &["dcd-relation", "dcd-cfd", "dcd-dist", "rand"]),
    ("bench", &["dcd-relation", "dcd-cfd", "dcd-dist", "dcd-core", "dcd-datagen"]),
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
    let crates = root().join("crates");
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

/// The files whose non-comment lines hold an attribute naming `lint`,
/// once per attribute; each must be a reasoned `#[expect]` / `#![expect]`
/// (never an `#[allow]`, which would outlive its finding).
fn expectations_of(lint: &str, code: &[(String, String)]) -> Vec<String> {
    let mut sites = Vec::new();
    for (rel, text) in code {
        for (at, _) in text.match_indices(lint) {
            let open = text[..at].rfind('#').expect("the lint is named inside an attribute");
            let close = at + text[at..].find(")]").expect("the attribute closes");
            let head: String = text[open..at].split_whitespace().collect();
            assert!(head == "#[expect(" || head == "#![expect(", "{rel}: only `expect` may");
            assert!(text[at..close].contains("reason = \""), "{rel}: an expectation says why");
            sites.push(rel.clone());
        }
    }
    sites
}

/// "No host clock, no thread outside the pool, no atomic outside the
/// audited module" is `clippy.toml`'s `disallowed-methods` and
/// `disallowed-types`; what this pins is the allow-list: every path is
/// still listed, and the only way past one is a reasoned `expect` at one
/// of the four sanctioned call sites or in the one audited module, the
/// metrics registry's cells (`registry.rs`) — pure meters, and the only
/// code that may spell `Relaxed`. The run's own meters (clocks, ledger,
/// round, trace) are plain data owned by `RunCtx`, and a relation's chunk
/// size is a field it is built with; neither holds an atomic.
#[test]
fn the_sanctioned_clock_and_thread_sites_stay_four() {
    let toml = std::fs::read_to_string(root().join("clippy.toml")).expect("clippy.toml exists");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::Builder::spawn",
        "std::sync::atomic::AtomicU64",
        "std::sync::atomic::AtomicUsize",
        "std::sync::atomic::AtomicBool",
        "std::sync::atomic::AtomicI64",
        "std::sync::atomic::AtomicU32",
    ] {
        assert!(toml.contains(&format!("path = \"{path}\"")), "clippy.toml lost `{path}`");
    }

    let code = code();
    assert_eq!(
        expectations_of("clippy::disallowed_methods", &code),
        [
            "crates/bench/src/bin/experiments.rs",
            "crates/compat/rand/src/lib.rs",
            "crates/dist/src/pool.rs",
            "crates/dist/src/pool.rs",
        ]
    );
    assert_eq!(expectations_of("clippy::disallowed_types", &code), ["crates/obs/src/registry.rs"]);
    let relaxed: Vec<&str> = code
        .iter()
        .filter(|(_, text)| text.split(|c| !is_ident(c)).any(|word| word == "Relaxed"))
        .map(|(rel, _)| rel.as_str())
        .collect();
    assert_eq!(relaxed, ["crates/obs/src/registry.rs"]);
}

/// No crate holds `unsafe` code, and none can start to: every library
/// crate root forbids `unsafe_code` (which no inner `allow` can lift),
/// and no code line spells the keyword or an `allow` of the lint.
/// `benchmark/` is a workspace of its own and keeps its counting
/// allocator.
#[test]
fn every_crate_root_forbids_unsafe_code() {
    let code = code();
    let roots: Vec<&(String, String)> = code
        .iter()
        .filter(|(rel, _)| {
            rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
        })
        .collect();
    assert_eq!(roots.len(), 13, "the facade, the ten `LAYERS` crates, two compat stand-ins");
    for (rel, text) in roots {
        assert!(
            text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
            "{rel} does not forbid `unsafe_code`"
        );
    }
    for (rel, text) in &code {
        assert!(!text.split(|c| !is_ident(c)).any(|w| w == "unsafe"), "{rel} spells `unsafe`");
        assert!(!text.contains("allow(unsafe_code)"), "{rel} allows `unsafe_code`");
    }
}
