//! The rule set. Every rule guards one invariant the test suite pins
//! dynamically; the lint catches the *shortcut* that breaks it before a
//! property-test seed happens to.
//!
//! | rule id | invariant guarded |
//! |---|---|
//! | `hash-iteration-order` | bit-identical outputs across pool widths |
//! | `relaxed-atomic` | audited atomic orderings, justified `unsafe` |
//! | `duplicate-detect-loop` | group validation lives in `dcd_cfd::kernel` only |
//! | `unused-suppression` | allows excuse a live finding, or get deleted |
//! | `bad-suppression` | every allow parses and says why it is sound |
//!
//! Invariants a type can carry are not here: that every clock advance
//! lands in the trace, that every shipment is charged, and that the
//! ledger has one mutation authority are privacy facts of
//! `dcd_core::ctx::RunCtx` and `dcd_dist::ShipmentLedger`, enforced by
//! rustc; the crate DAG is enforced by the manifests (a `dcd_x::` path
//! does not resolve without a `[dependencies]` edge). Invariants a
//! compiler lint states exactly are not here either: no host clock and
//! no thread outside `dcd_dist::pool` are `disallowed-methods` in the
//! root `clippy.toml` (sanctioned sites carry a reasoned `#[expect]`),
//! and total `Topology`/`Algorithm` dispatch is
//! `clippy::wildcard_enum_match_arm`, denied on the root crate.
//!
//! The rules are token-window analyses, not AST passes: sound about
//! strings and comments (the tokenizer guarantees that), heuristic
//! about types. Where a heuristic over-approximates, the inline
//! `// dcd-lint: allow(<rule>) — <reason>` escape hatch documents the
//! reasoning right at the site it excuses.

use crate::diag::Diagnostic;
use crate::source::{FileClass, SourceFile};
use std::collections::BTreeSet;

/// All rule ids, in reporting order: three token-window rules (this
/// module), then the two that police the suppression mechanism itself
/// ([`crate::engine`]).
pub const RULE_IDS: [&str; 5] = [
    "hash-iteration-order",
    "relaxed-atomic",
    "duplicate-detect-loop",
    "unused-suppression",
    "bad-suppression",
];

/// One-line description per rule (the `rules` subcommand and README).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        "hash-iteration-order" => {
            "iterating a HashMap/HashSet/FxHashMap in engine code without an \
             order-restoring sink (sort, BTree collection, commutative reduction) \
             — the classic way pool-width determinism breaks"
        }
        "relaxed-atomic" => {
            "`Ordering::Relaxed` outside the audited dist modules and the \
             order-free `dcd_obs` metrics registry, or an `unsafe` block without \
             a `// SAFETY:` comment"
        }
        "duplicate-detect-loop" => {
            "a hand-rolled per-group tableau-validation loop outside \
             `dcd_cfd::kernel` — the group-validation semantics (distinct-RHS \
             conflict, wildcard/constant flagging) have exactly one home in \
             the engine (and one deliberately independent reference, \
             `dcd_cfd::oracle`); call `kernel::detect_grouped`/`detect_columns`/\
             `validate_group` instead"
        }
        "unused-suppression" => {
            "a well-formed `dcd-lint: allow(..)` whose rule no longer fires on \
             the covered line — stale permission slips get deleted, not inherited"
        }
        "bad-suppression" => {
            "a `dcd-lint:` marker that is malformed or missing its reason — every \
             allow must say why it is sound"
        }
        _ => "unknown rule",
    }
}

/// Long-form rationale per rule: what the rule analyses, why the
/// invariant matters, and how to fix or soundly suppress a finding.
/// This backs `dcd_lint explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "hash-iteration-order" => {
            "Engine outputs must be bit-identical across pool widths and chunk \
             sizes. Iterating a HashMap/FxHashMap leaks the hasher's order into \
             whatever consumes the loop, and that order varies run to run. The \
             rule resolves hash-typed bindings (local `let`s, fields, \
             hash-returning fns) and flags iterations whose statement window has \
             no order-restoring sink: a sort, a BTree collection, or a \
             commutative reduction (sum/count/min/max). Fix by sorting before \
             the order escapes; allow only with a proof it cannot."
        }
        "relaxed-atomic" => {
            "`Ordering::Relaxed` is correct only where commutativity, not \
             ordering, carries the contract — the audited ledger/pool counters \
             and the obs metrics registry. Anywhere else, pick the ordering the \
             happens-before argument needs and document it. The rule also \
             requires a `// SAFETY:` comment above every `unsafe` block."
        }
        "duplicate-detect-loop" => {
            "Group validation (distinct-RHS conflict, wildcard/constant \
             flagging) lives in `dcd_cfd::kernel` and nowhere else in the \
             engine — the workspace once carried five divergent copies. The \
             rule flags `for` bodies that re-implement the shape (hash \
             accumulation + RHS reads + flag decision + distinctness test) \
             without delegating to `validate_group`/`detect_grouped`/\
             `detect_columns`. One \
             second spelling is sanctioned by design and exempted by file \
             name next to `kernel.rs`: `crates/cfd/src/oracle.rs`, the \
             pairwise transcription of the paper's definition that the kernel \
             is tested against — a reference that delegated to the kernel \
             would check nothing."
        }
        "unused-suppression" => {
            "An `allow(..)` comment whose rule no longer fires on the covered \
             line is a stale permission slip: it documents a hazard that no \
             longer exists and will silently excuse the next, unrelated finding \
             on that line. The engine tracks which suppressions actually \
             matched a finding during the run and flags the rest. Fix by \
             deleting the comment (or re-pointing it at the line that needs it)."
        }
        "bad-suppression" => {
            "The accepted shape is `// dcd-lint: allow(<rule>) — <reason>`, \
             reason mandatory: an allow that does not say why it is sound is a \
             future regression with a permission slip. Malformed markers and \
             unknown rule names are findings; neither can be suppressed."
        }
        _ => return None,
    })
}

/// Hash-container type names the heuristic treats as unordered.
const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Iterator-producing methods on hash containers whose order leaks.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Tokens in a statement window that restore or neutralize iteration
/// order: explicit sorts, ordered collections, and order-insensitive
/// reductions.
const ORDER_SINKS: [&str; 19] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "sum",
    "count",
    "product",
    "min",
    "max",
    "all",
    "any",
    "len",
    "is_empty",
    "contains",
];

/// Facts collected across the whole workspace before per-file rules
/// run: which function names return hash containers. This feeds the
/// `hash-iteration-order` binding heuristic so `let g = group_by(..)`
/// is recognized across file boundaries. Field and parameter names, by
/// contrast, are resolved *per file* — short names like `lhs` or
/// `groups` recur all over the workspace with different types, and a
/// global name registry would drown the rule in collisions.
#[derive(Debug, Default)]
pub struct HashFacts {
    /// Function names whose return type mentions a hash container.
    pub hash_fns: BTreeSet<String>,
}

/// Scans one file's declarations into the global facts.
pub fn collect_facts(file: &SourceFile, facts: &mut HashFacts) {
    let n = file.code.len();
    for ci in 0..n {
        // `fn NAME ( .. ) -> ..Hash..` — record NAME.
        if file.text(ci) == "fn" && !file.text(ci + 2).is_empty() {
            let name = file.text(ci + 1).to_string();
            // Walk to the parameter close, then look for `->` and scan
            // the return type until the body/semicolon.
            let mut j = ci + 2;
            while j < n && file.text(j) != "(" {
                j += 1;
            }
            let mut d = 0i32;
            while j < n {
                match file.text(j) {
                    "(" => d += 1,
                    ")" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if file.text(j + 1) == "-" && file.text(j + 2) == ">" {
                let mut k = j + 3;
                while k < n && !matches!(file.text(k), "{" | ";" | "where") {
                    if HASH_TYPES.contains(&file.text(k)) {
                        facts.hash_fns.insert(name.clone());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
}

/// Per-file hash-typed names from `NAME: HashType<..>` declarations —
/// struct fields, fn parameters, and `let` ascriptions alike. The hash
/// type must be the *outermost* constructor: `groups: FxHashMap<..>`
/// counts, `clusters: Vec<(FxHashSet<..>, ..)>` does not (iterating
/// that `Vec` is ordered).
fn file_hash_names(file: &SourceFile) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for ci in 0..file.code.len() {
        if file.text(ci + 1) == ":"
            && HASH_TYPES.contains(&file.text(ci + 2))
            && file.text(ci + 3) == "<"
        {
            let name = file.text(ci);
            if !name.is_empty()
                && name.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                out.insert(name.to_string());
            }
        }
    }
    out
}

/// Runs every rule over one file.
pub fn check_file(file: &SourceFile, facts: &HashFacts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    hash_iteration_order(file, facts, &mut out);
    relaxed_atomic(file, &mut out);
    duplicate_detect_loop(file, &mut out);
    bad_suppression(file, &mut out);
    out
}

fn diag(file: &SourceFile, ci: usize, rule: &'static str, message: String) -> Diagnostic {
    let t = file.ct(ci);
    Diagnostic { rule, file: file.path.clone(), line: t.line, col: t.col, message }
}

// ---------------------------------------------------------------- rule 1

/// `hash-iteration-order`: engine code iterating a hash container whose
/// element order escapes. Binding-based: the rule first resolves which
/// local names / fields / function results are hash-typed, then flags
/// `for .. in <hash>` and `<hash>.iter()/keys()/values()/..` unless the
/// statement window contains an order sink (sort, BTree, commutative
/// reduction) or the elements land in another hash container.
fn hash_iteration_order(file: &SourceFile, facts: &HashFacts, out: &mut Vec<Diagnostic>) {
    if file.class != FileClass::Engine {
        return;
    }
    let n = file.code.len();
    // Local hash-typed bindings in this file.
    let mut local: BTreeSet<String> = BTreeSet::new();
    for ci in 0..n {
        if file.text(ci) != "let" {
            continue;
        }
        let mut j = ci + 1;
        if file.text(j) == "mut" {
            j += 1;
        }
        let name = file.text(j).to_string();
        if name.is_empty() || !name.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') {
            continue;
        }
        // Scan the rest of the statement (type + initializer). A type
        // ascription only counts when its outermost constructor is a
        // hash container (`Vec<(FxHashSet, ..)>` iterates in Vec order).
        let (_, end) = file.statement_window(j);
        let mut typed_hash = false;
        let mut k = j + 1;
        if file.text(k) == ":" {
            let mut t = k + 1;
            while matches!(file.text(t), "&" | "mut") {
                t += 1;
            }
            if HASH_TYPES.contains(&file.text(t)) {
                typed_hash = true;
            }
            while k <= end && !matches!(file.text(k), ";" | "=") {
                k += 1;
            }
        }
        if file.text(k) == "=" {
            // Initializer: `HashType::new()`, `.collect::<FxHashMap..>`,
            // a known hash-returning fn, or cloning a known hash binding.
            let lead = file.text(k + 1);
            if HASH_TYPES.contains(&lead)
                || (facts.hash_fns.contains(lead) && file.text(k + 2) == "(")
                || (local.contains(lead) && file.text(k + 2) == "clone")
            {
                typed_hash = true;
            }
            let mut m = k + 1;
            while m <= end && file.text(m) != ";" {
                if file.text(m) == "collect" {
                    // turbofish `collect::<FxHashMap<..>>`
                    let mut q = m + 1;
                    while q <= end && q < m + 8 {
                        if HASH_TYPES.contains(&file.text(q)) {
                            typed_hash = true;
                        }
                        q += 1;
                    }
                }
                m += 1;
            }
        }
        if typed_hash {
            local.insert(name);
        }
    }

    let fields = file_hash_names(file);
    let is_hash_name = |name: &str| local.contains(name) || fields.contains(name);

    let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
    let mut flag = |file: &SourceFile, ci: usize, what: &str, out: &mut Vec<Diagnostic>| {
        let line = file.ct(ci).line;
        if file.in_test_code(line) || !flagged_lines.insert(line) {
            return;
        }
        // Sanction: an order sink in the statement window, or the
        // elements land in a hash container again (order never escapes).
        let (a, b) = file.statement_window(ci);
        for w in a..=b {
            let t = file.text(w);
            if ORDER_SINKS.contains(&t) || HASH_TYPES.contains(&t) {
                return;
            }
            // `<hash>.extend(..)` / `<hash>.insert(..)` as the consumer.
            if (t == "extend" || t == "insert") && w >= 2 && file.text(w.wrapping_sub(1)) == "." {
                let recv = file.text(w - 2);
                if is_hash_name(recv) {
                    return;
                }
            }
        }
        out.push(diag(
            file,
            ci,
            "hash-iteration-order",
            format!(
                "iteration order of `{what}` is hash-randomized across runs and pool \
                 widths; sort the items (or collect into a BTree map/set) before the \
                 order can escape, or allow with the reason order cannot escape here"
            ),
        ));
    };

    for ci in 0..n {
        // `NAME . method(` where NAME is hash-typed.
        if file.text(ci + 1) == "."
            && HASH_ITER_METHODS.contains(&file.text(ci + 2))
            && file.text(ci + 3) == "("
        {
            let name = file.text(ci);
            let prev = if ci == 0 { "" } else { file.text(ci - 1) };
            let full = if prev == "." && file.text(ci.saturating_sub(2)) == "self" {
                // `self.field.iter()` — field lookup.
                file.text(ci).to_string()
            } else if prev == "." {
                continue; // some_expr.NAME.iter(): unknown receiver type
            } else {
                name.to_string()
            };
            if is_hash_name(&full) {
                flag(file, ci, &format!("{}.{}()", full, file.text(ci + 2)), out);
            }
            // Direct call of a hash-returning fn then iterated:
            // `group_by(..).iter()` handled below via `)` receiver.
        }
        // `hash_fn( .. ) . iter_method (` — iterate a fresh hash result.
        if facts.hash_fns.contains(file.text(ci)) && file.text(ci + 1) == "(" {
            // find matching close paren
            let mut d = 0i32;
            let mut j = ci + 1;
            while j < n {
                match file.text(j) {
                    "(" => d += 1,
                    ")" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if file.text(j + 1) == "." && HASH_ITER_METHODS.contains(&file.text(j + 2)) {
                flag(file, ci, &format!("{}(..).{}()", file.text(ci), file.text(j + 2)), out);
            }
        }
        // `for PAT in [&[mut]] NAME {` — direct container iteration.
        if file.text(ci) == "for" {
            // find `in` at the same nesting (patterns have no `in`).
            let mut j = ci + 1;
            while j < n && file.text(j) != "in" && file.text(j) != "{" {
                j += 1;
            }
            if file.text(j) != "in" {
                continue;
            }
            let mut k = j + 1;
            while matches!(file.text(k), "&" | "mut") {
                k += 1;
            }
            let (name, adv) = if file.text(k) == "self" && file.text(k + 1) == "." {
                (file.text(k + 2).to_string(), 3)
            } else {
                (file.text(k).to_string(), 1)
            };
            // Only a *direct* iteration (`for x in map {`): method chains
            // were flagged by the patterns above.
            if is_hash_name(&name) && file.text(k + adv) == "{" {
                flag(file, k, &format!("for .. in {name}"), out);
            }
        }
    }
}

// ---------------------------------------------------------------- rule 2

/// `relaxed-atomic`: `Relaxed` atomic orderings outside the audited
/// modules (`dcd_dist`'s `ledger.rs` — monotonic counters read after
/// the pool join; `pool.rs` — a work-claiming counter whose atomicity,
/// not ordering, carries the contract; `dcd_obs`'s `registry.rs` —
/// commutative metric accumulators read only from frozen snapshots),
/// plus `unsafe` without a `// SAFETY:` justification in the preceding
/// comment.
fn relaxed_atomic(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let whitelisted = file.path.ends_with("crates/dist/src/ledger.rs")
        || file.path.ends_with("crates/dist/src/pool.rs")
        || file.path.ends_with("crates/obs/src/registry.rs");
    for ci in 0..file.code.len() {
        if file.text(ci) == "Relaxed" && !whitelisted {
            out.push(diag(
                file,
                ci,
                "relaxed-atomic",
                "`Ordering::Relaxed` outside the audited `dcd_dist` ledger/pool \
                 modules and the `dcd_obs` registry; pick the ordering the \
                 happens-before argument needs and document it (see the atomics \
                 audit in `crates/dist`)"
                    .to_string(),
            ));
        }
    }
    // `unsafe` needs a SAFETY comment nearby — scan the *full* token
    // stream so comments are visible.
    for (ti, t) in file.tokens.iter().enumerate() {
        if t.is_comment() || t.text != "unsafe" {
            continue;
        }
        let justified = file.tokens[..ti]
            .iter()
            .rev()
            .take(6)
            .any(|p| p.is_comment() && p.text.contains("SAFETY"));
        if !justified {
            out.push(Diagnostic {
                rule: "relaxed-atomic",
                file: file.path.clone(),
                line: t.line,
                col: t.col,
                message: "`unsafe` without a `// SAFETY:` comment immediately above; \
                          state the invariant that makes this sound"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------- rule 3

/// `duplicate-detect-loop`: a hand-rolled group-validation loop outside
/// `dcd_cfd::kernel` (and outside `dcd_cfd::oracle`, the independent
/// reference the kernel is pinned against — the one second spelling
/// that exists on purpose). The workspace once carried five per-group
/// tableau-validation loops (columnar, code-row, value-wise, per-pattern
/// ×2); they were folded into the one kernel, and this rule is the
/// reintroduction ratchet. The shape flagged is a `for` body that does
/// all four things every duplicated loop did:
///
/// 1. accumulates into a hash container (`insert`/`or_insert`/..),
/// 2. reads RHS cells (an identifier mentioning `rhs`),
/// 3. decides a flag/conflict (an identifier mentioning `flag` or
///    `conflict`),
/// 4. compares for distinctness (`!=`, or a `> 1` distinct count).
///
/// A body that delegates to the kernel (`validate_group`, the scan
/// entry `detect_grouped` or its column front-end `detect_columns`, or
/// matching on `GroupVerdict`/building `RhsSpec`s) is sanctioned — that is the *intended* way to
/// run group validation, not a duplicate of it.
fn duplicate_detect_loop(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const HOMES: [&str; 2] = ["crates/cfd/src/kernel.rs", "crates/cfd/src/oracle.rs"];
    if file.class != FileClass::Engine || HOMES.iter().any(|home| file.path.ends_with(home)) {
        return;
    }
    const KERNEL_CALLS: [&str; 5] =
        ["validate_group", "detect_grouped", "detect_columns", "GroupVerdict", "RhsSpec"];
    const ACCUMULATORS: [&str; 4] = ["insert", "or_insert", "or_insert_with", "get_or_insert_with"];
    let n = file.code.len();
    for ci in 0..n {
        if file.text(ci) != "for" {
            continue;
        }
        // Loop head: `for PAT in EXPR {` — find the `in`, then the body.
        let mut j = ci + 1;
        while j < n && file.text(j) != "in" && file.text(j) != "{" {
            j += 1;
        }
        if file.text(j) != "in" {
            continue;
        }
        let mut b = j + 1;
        while b < n && !matches!(file.text(b), "{" | ";") {
            b += 1;
        }
        if file.text(b) != "{" {
            continue;
        }
        let end = file.matching_brace(b);
        let (mut accumulates, mut rhs, mut flags, mut compares) = (false, false, false, false);
        let mut sanctioned = false;
        for w in b..=end {
            let t = file.text(w);
            if KERNEL_CALLS.contains(&t) {
                sanctioned = true;
                break;
            }
            if ACCUMULATORS.contains(&t) {
                accumulates = true;
            }
            if t.contains("rhs") {
                rhs = true;
            }
            if t.contains("flag") || t.contains("conflict") {
                flags = true;
            }
            if (t == "!" && file.text(w + 1) == "=") || (t == ">" && file.text(w + 1) == "1") {
                compares = true;
            }
        }
        if !sanctioned
            && accumulates
            && rhs
            && flags
            && compares
            && !file.in_test_code(file.ct(ci).line)
        {
            out.push(diag(
                file,
                ci,
                "duplicate-detect-loop",
                "this loop re-implements per-group tableau validation (RHS \
                 accumulation + distinctness test + flag decision); the one \
                 group-validation kernel is `dcd_cfd::kernel` — instantiate \
                 `kernel::detect_grouped` over the rows (`detect_columns` for \
                 column slices, `validate_group` for a member list you keep) \
                 instead of duplicating its semantics"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------- rule 4

/// `bad-suppression`: malformed `dcd-lint:` markers. Not suppressible —
/// a suppression that cannot parse cannot excuse anything, least of all
/// itself.
fn bad_suppression(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (line, why) in &file.bad_suppressions {
        out.push(Diagnostic {
            rule: "bad-suppression",
            file: file.path.clone(),
            line: *line,
            col: 1,
            message: why.clone(),
        });
    }
    // Unknown rule names in otherwise well-formed suppressions.
    for s in &file.suppressions {
        if !RULE_IDS.contains(&s.rule.as_str()) {
            out.push(Diagnostic {
                rule: "bad-suppression",
                file: file.path.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "`allow({})` names an unknown rule; known rules: {}",
                    s.rule,
                    RULE_IDS.join(", ")
                ),
            });
        }
    }
}
