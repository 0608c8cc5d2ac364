//! The allow-lists of the invariants the toolchain carries. Clippy (CI:
//! `-D warnings`) rejects a host-clock read, a thread outside the pool,
//! any atomic and a `for` over a hash container; rustc rejects a
//! `dcd_x::` path with no manifest edge and `unsafe` code under a
//! `#![forbid(unsafe_code)]` root. What neither can say is
//! *which* files may hold a sanctioned exception, *which* edges the
//! layering allows, *that* every root forbids `unsafe`, *that* no
//! production source declares process-wide state, *which* production
//! source may mutate a partition's fragments in place, *which* may
//! price the wire and *which* may name `ViolationSet`'s fields — pinned
//! here, over the manifests and a walk of the sources.

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
    ("datagen", &["dcd-relation", "dcd-cfd", "dcd-dist"]),
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

/// The workspace members, in the root manifest's order.
fn members() -> Vec<String> {
    let text = std::fs::read_to_string(root().join("Cargo.toml")).expect("root manifest");
    let list = text.split_once("members = [").expect("a members list").1;
    let list = list.split_once(']').expect("the members list closes").0;
    list.split(',')
        .map(|m| m.trim().trim_matches('"').to_string())
        .filter(|m| !m.is_empty())
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
    // The façade builds against exactly the crates `src/` names; the
    // complexity artifacts and the data generator are its tests' and
    // examples' only (dev-dependencies).
    assert_eq!(
        dependencies(&root().join("Cargo.toml")),
        ["dcd-relation", "dcd-obs", "dcd-cfd", "dcd-dist", "dcd-core", "dcd-incr", "dcd-vertical"],
        "the root manifest's [dependencies]"
    );
    // The production graph is closed: no manifest, root included, builds
    // against anything but a `dcd-*` crate. The one compat stand-in
    // (`proptest`) is a dev-dependency only.
    let manifests = members().into_iter().map(|m| root().join(m).join("Cargo.toml"));
    for manifest in manifests.chain([root().join("Cargo.toml")]) {
        for dep in dependencies(&manifest) {
            assert!(dep.starts_with("dcd-"), "{} depends on `{dep}`", manifest.display());
        }
    }
    // The compat stand-in sits outside the engine DAG entirely.
    let proptest = dependencies(&crates.join("compat/proptest/Cargo.toml"));
    assert!(proptest.is_empty(), "compat/proptest reaches out to {proptest:?}");
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

/// "No host clock, no thread outside the pool, no atomic anywhere" is
/// `clippy.toml`'s `disallowed-methods` and `disallowed-types`; what
/// this pins is the allow-list: every path is still listed, the only way
/// past a method is a reasoned `expect` at one of the three sanctioned
/// call sites (the `experiments` binary's timer and the pool's two), and
/// there is no way past a type — no file expects `disallowed_types`, and
/// no file spells `Relaxed`. The run's meters and metrics (clocks,
/// ledger, round, registry, trace) are plain data owned by `RunCtx`.
#[test]
fn the_sanctioned_clock_and_thread_sites_stay_three() {
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
            "crates/dist/src/pool.rs",
            "crates/dist/src/pool.rs",
        ]
    );
    assert_eq!(expectations_of("clippy::disallowed_types", &code), [] as [&str; 0]);
    let relaxed: Vec<&str> = code
        .iter()
        .filter(|(_, text)| text.split(|c| !is_ident(c)).any(|word| word == "Relaxed"))
        .map(|(rel, _)| rel.as_str())
        .collect();
    assert_eq!(relaxed, [] as [&str; 0]);
}

/// The production sources (`src/` and every crate's `src/`) that declare
/// a `static` item or a `thread_local!`, once per declaration. A
/// `'static` lifetime and a string that says "static" are not
/// declarations.
fn process_wide(code: &[(String, String)]) -> Vec<String> {
    let mut sites = Vec::new();
    for (rel, text) in code {
        if rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/")) {
            let statics = text.split_whitespace().filter(|&word| word == "static").count();
            let n = statics + text.matches("thread_local!").count();
            sites.extend(std::iter::repeat_n(rel.clone(), n));
        }
    }
    sites
}

/// Nothing is process-wide: no production source declares a `static`
/// or a `thread_local!`, so every meter, metric and cache belongs to a
/// value its owner passes by reference, and no run can see another's.
/// A constant is a `const`.
#[test]
fn no_production_source_holds_process_wide_state() {
    assert_eq!(process_wide(&code()), [] as [&str; 0]);
}

/// The production sources as `(path, code)`: `src/` and every crate's
/// `src/`, each read up to its `#[cfg(test)]` module.
fn production(code: &[(String, String)]) -> Vec<(&str, &str)> {
    code.iter()
        .filter(|(rel, _)| {
            rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"))
        })
        .map(|(rel, text)| (rel.as_str(), text.split("#[cfg(test)]").next().unwrap_or_default()))
        .collect()
}

/// The production sources that call `method`, once per call.
fn production_calls(method: &str, code: &[(String, String)]) -> Vec<String> {
    let mut sites = Vec::new();
    for (rel, text) in production(code) {
        let calls = text.matches(&format!(".{method}(")).count();
        sites.extend(std::iter::repeat_n(rel.to_string(), calls));
    }
    sites
}

/// `HorizontalPartition::fragments_mut` hands out the fragments that
/// `validate` checked, so a caller can break the partition invariants
/// after construction; `DetectRequest::plan` checks a horizontal
/// partition again for that reason. No production source calls it: a
/// session changes its fragments through `HorizontalPartition::apply_delta`,
/// which keeps those invariants. Only `benchmark/` (a workspace of its
/// own, mirroring a session) and the tests that break a partition on
/// purpose still call it.
#[test]
fn fragments_mut_has_no_production_caller() {
    assert_eq!(production_calls("fragments_mut", &code()), Vec::<String>::new());
}

/// The code wire's format — `TID_CELLS` id cells per row, `CODE_BYTES`
/// per cell — has one owner: `dcd_dist::ledger` prices what an engine
/// ships (`ShipmentLedger::ship_rows`, `ShipmentLedger::control`), and
/// engines say only how many rows of which width, or how many counts.
/// No other production source names either constant, save the
/// `pub use` re-exports of `dcd_dist` and the facade.
#[test]
fn the_wire_format_has_one_owner() {
    const REEXPORTS: [&str; 2] = ["crates/dist/src/lib.rs", "src/lib.rs"];
    let code = code();
    let namers: Vec<&str> = production(&code)
        .into_iter()
        .filter(|&(rel, _)| rel != "crates/dist/src/ledger.rs")
        .filter(|&(rel, text)| {
            text.split(';')
                .filter(|stmt| {
                    !(REEXPORTS.contains(&rel) && stmt.trim_start().starts_with("pub use"))
                })
                .flat_map(|stmt| stmt.split(|c| !is_ident(c)))
                .any(|word| word == "TID_CELLS" || word == "CODE_BYTES")
        })
        .map(|(rel, _)| rel)
        .collect();
    assert_eq!(namers, [] as [&str; 0]);
}

/// `ViolationSet`'s two fields are `#[deprecated]`, so the clippy step
/// rejects a reader or writer of them; what this pins is the way past
/// it: the one file that names the lint in an `expect` or `allow` is
/// `dcd_cfd::violation`, which owns the sets.
#[test]
fn the_violation_sets_have_one_owner() {
    let code = code();
    let excusers: Vec<&str> = code
        .iter()
        .filter(|(_, text)| {
            text.split("expect(")
                .skip(1)
                .chain(text.split("allow(").skip(1))
                .any(|after| after.trim_start().starts_with("deprecated"))
        })
        .map(|(rel, _)| rel.as_str())
        .collect();
    assert_eq!(excusers, ["crates/cfd/src/violation.rs"]);
}

/// The library crate roots: the facade's and every crate's `src/lib.rs`.
fn crate_roots(code: &[(String, String)]) -> Vec<&(String, String)> {
    code.iter()
        .filter(|(rel, _)| {
            rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
        })
        .collect()
}

/// The one source that may spell `unsafe`: a test binary, outside every
/// crate root, whose counting `#[global_allocator]` pins
/// `Dictionary::heap_bytes` to the bytes the allocator hands out.
/// `GlobalAlloc` is an unsafe trait, so no allocator can be written
/// without the keyword.
const COUNTING_ALLOCATOR: &str = "crates/relation/tests/dictionary_bytes.rs";

/// No crate holds `unsafe` code, and none can start to: every library
/// crate root forbids `unsafe_code` (which no inner `allow` can lift),
/// and no code line spells the keyword or an `allow` of the lint — save
/// [`COUNTING_ALLOCATOR`], and there only to implement `GlobalAlloc`
/// by forwarding to `System`. `benchmark/` is a workspace of its own and
/// keeps its counting allocator.
#[test]
fn every_crate_root_forbids_unsafe_code() {
    let code = code();
    let roots = crate_roots(&code);
    assert_eq!(roots.len(), 12, "the facade, the ten `LAYERS` crates, the proptest stand-in");
    for (rel, text) in roots {
        assert!(
            text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
            "{rel} does not forbid `unsafe_code`"
        );
    }
    for (rel, text) in &code {
        let spells = text.split(|c| !is_ident(c)).any(|w| w == "unsafe");
        assert!(!spells || rel == COUNTING_ALLOCATOR, "{rel} spells `unsafe`");
        assert!(!text.contains("allow(unsafe_code)"), "{rel} allows `unsafe_code`");
    }
    // The allocator's uses: the trait impl, its four methods, and the
    // four calls into `System` they forward.
    let (_, allocator) = code.iter().find(|(rel, _)| rel == COUNTING_ALLOCATOR).expect("it exists");
    let uses: Vec<&str> = allocator.split("unsafe").skip(1).collect();
    let forwarding = |after: &&str| {
        ["impl GlobalAlloc for", "fn ", "{ System."]
            .iter()
            .any(|p| after.trim_start().starts_with(p))
    };
    assert!(uses.len() == 9 && uses.iter().all(forwarding), "{COUNTING_ALLOCATOR}: {uses:?}");
}

/// README's "current state" line states the tree's hard counts; each is
/// recounted here from the manifests and the sources.
#[test]
fn the_readme_counts_match_the_tree() {
    let readme = std::fs::read_to_string(root().join("README.md")).expect("README exists");
    let line = readme
        .lines()
        .find(|l| l.starts_with("**Current state:**"))
        .expect("README has a current-state line");
    let code = code();
    for (count, what) in [
        (members().len(), "workspace members"),
        (crate_roots(&code).len(), "library crate roots"),
        (
            expectations_of("clippy::disallowed_methods", &code).len(),
            "sanctioned clock/thread sites",
        ),
        (process_wide(&code).len(), "process-wide statics"),
    ] {
        assert!(
            line.contains(&format!(" {count} {what}")),
            "README should say {count} {what}: {line}"
        );
    }
}
