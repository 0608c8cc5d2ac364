//! The per-file analysis model: classified, tokenized source with the
//! structural bookkeeping rules need — `#[cfg(test)]` regions, brace
//! depth, statement windows and inline suppressions.

use crate::tokenizer::{tokenize, Token, TokenKind};

/// Where a file sits in the workspace — rules scope themselves by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Production engine code: `src/` of the root crate and of the
    /// engine crates. Every rule applies here.
    Engine,
    /// Everything that only drives or stands in for the engine: tests,
    /// examples, `crates/bench`, the `crates/compat` stand-ins. The two
    /// shape rules (`hash-iteration-order`, `duplicate-detect-loop`) are
    /// off; `relaxed-atomic` and the suppression pair still apply.
    Support,
}

/// One parsed `// dcd-lint: allow(<rule>) — <reason>` marker.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule id inside `allow(..)`.
    pub rule: String,
    /// Line the comment sits on.
    pub line: u32,
    /// First line after `line` holding a code token — a multi-line
    /// comment block suppresses the code line it introduces, not the
    /// comment's continuation lines. A suppression covers `line` and
    /// `effective`.
    pub effective: u32,
    /// The justification text after the closing parenthesis.
    pub reason: String,
}

/// A tokenized, classified source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Scope class (see [`FileClass`]).
    pub class: FileClass,
    /// The full lossless token stream (comments included).
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Brace depth *before* each code token (`code`-aligned).
    pub depth: Vec<u32>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items.
    pub test_ranges: Vec<(u32, u32)>,
    /// Parsed inline suppressions.
    pub suppressions: Vec<Suppression>,
    /// Suppression-shaped comments that were rejected (missing reason,
    /// unparsable rule list) — reported as `bad-suppression`.
    pub bad_suppressions: Vec<(u32, String)>,
}

impl SourceFile {
    /// Tokenizes and indexes one file.
    pub fn parse(path: String, class: FileClass, src: &str) -> SourceFile {
        let tokens = merge_path_separators(tokenize(src));
        let code: Vec<usize> = (0..tokens.len()).filter(|&i| !tokens[i].is_comment()).collect();
        let mut depth = Vec::with_capacity(code.len());
        let mut d: u32 = 0;
        for &ti in &code {
            depth.push(d);
            match tokens[ti].text.as_str() {
                "{" => d += 1,
                "}" => d = d.saturating_sub(1),
                _ => {}
            }
        }
        let (mut suppressions, bad_suppressions) = parse_suppressions(&tokens);
        for s in &mut suppressions {
            s.effective =
                code.iter().map(|&ti| tokens[ti].line).find(|&l| l > s.line).unwrap_or(s.line);
        }
        let mut file = SourceFile {
            path,
            class,
            tokens,
            code,
            depth,
            test_ranges: Vec::new(),
            suppressions,
            bad_suppressions,
        };
        file.test_ranges = file.find_cfg_test_ranges();
        file
    }

    /// The code token at code-index `ci` (panics on out-of-range).
    pub fn ct(&self, ci: usize) -> &Token {
        &self.tokens[self.code[ci]]
    }

    /// Text of the code token at `ci`, or `""` past the end.
    pub fn text(&self, ci: usize) -> &str {
        self.code.get(ci).map_or("", |&ti| self.tokens[ti].text.as_str())
    }

    /// Does the code token window starting at `ci` spell out `texts`?
    pub fn matches(&self, ci: usize, texts: &[&str]) -> bool {
        texts.iter().enumerate().all(|(k, want)| self.text(ci + k) == *want)
    }

    /// Is this line inside a `#[cfg(test)]` item?
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Code-index of the `}` matching the `{` at code-index `open`.
    pub fn matching_brace(&self, open: usize) -> usize {
        debug_assert_eq!(self.text(open), "{");
        let mut d = 0usize;
        for ci in open..self.code.len() {
            match self.text(ci) {
                "{" => d += 1,
                "}" => {
                    d -= 1;
                    if d == 0 {
                        return ci;
                    }
                }
                _ => {}
            }
        }
        self.code.len().saturating_sub(1)
    }

    /// The statement window around code-index `ci`: from just after the
    /// previous `;`/`{`/`}` through the end of this statement *and* the
    /// following statement (a common idiom collects hash iteration into
    /// a `Vec` on one line and sorts it on the next, which restores
    /// determinism — the window must see that sort). Both directions are
    /// capped so a pathological file cannot make this quadratic.
    pub fn statement_window(&self, ci: usize) -> (usize, usize) {
        const CAP: usize = 160;
        let mut start = ci;
        let floor = ci.saturating_sub(CAP);
        while start > floor {
            let t = self.text(start - 1);
            if t == ";" || t == "{" || t == "}" {
                break;
            }
            start -= 1;
        }
        let base = self.depth[ci.min(self.depth.len().saturating_sub(1))];
        let mut end = ci;
        let ceil = (ci + 2 * CAP).min(self.code.len().saturating_sub(1));
        let mut semis_at_base = 0;
        while end < ceil {
            let t = self.text(end);
            if t == ";" && self.depth[end] <= base {
                semis_at_base += 1;
                // Current statement plus the one after it.
                if semis_at_base == 2 {
                    break;
                }
            }
            end += 1;
        }
        (start, end)
    }

    /// `#[cfg(test)]`-covered line ranges: the attribute plus the item
    /// it decorates (through the matching close brace or terminating
    /// semicolon).
    fn find_cfg_test_ranges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut ci = 0;
        while ci + 5 < self.code.len() {
            if self.matches(ci, &["#", "[", "cfg", "(", "test", ")"]) {
                let start_line = self.ct(ci).line;
                // Skip to the end of this attribute, then over any
                // further attributes, to the decorated item.
                let mut j = ci + 6;
                while self.text(j) != "]" && j < self.code.len() {
                    j += 1;
                }
                j += 1;
                while self.text(j) == "#" && self.text(j + 1) == "[" {
                    let mut d = 0;
                    j += 1;
                    loop {
                        match self.text(j) {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            "" => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    j += 1;
                }
                // Find the item body: first `{` before a stray `;`.
                let mut k = j;
                let end_ci = loop {
                    match self.text(k) {
                        "{" => break self.matching_brace(k),
                        ";" | "" => break k,
                        _ => k += 1,
                    }
                };
                let end_line = self.code.get(end_ci).map_or(start_line, |&ti| self.tokens[ti].line);
                out.push((start_line, end_line));
                ci = end_ci.max(ci + 1);
            } else {
                ci += 1;
            }
        }
        out
    }
}

/// Joins adjacent `:` `:` punct tokens into one `::` token so rules can
/// match paths (`Ordering::Relaxed`) as three tokens, not four.
fn merge_path_separators(tokens: Vec<Token>) -> Vec<Token> {
    let mut out: Vec<Token> = Vec::with_capacity(tokens.len());
    for t in tokens {
        if t.kind == TokenKind::Punct && t.text == ":" {
            if let Some(prev) = out.last_mut() {
                if prev.kind == TokenKind::Punct
                    && prev.text == ":"
                    && prev.line == t.line
                    && prev.col + 1 == t.col
                {
                    prev.text.push(':');
                    continue;
                }
            }
        }
        out.push(t);
    }
    out
}

/// Parses every `dcd-lint:` marker out of the comment tokens. The
/// accepted shape is `dcd-lint: allow(<rule>[, <rule>…]) <sep> <reason>`
/// where `<sep>` is `—`, `--`, `-` or `:` (or just whitespace) and the
/// reason is mandatory — an allow that does not say *why* is a future
/// regression with a permission slip.
fn parse_suppressions(tokens: &[Token]) -> (Vec<Suppression>, Vec<(u32, String)>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        let Some(at) = t.text.find("dcd-lint:") else { continue };
        let rest = t.text[at + "dcd-lint:".len()..].trim();
        let Some(stripped) = rest.strip_prefix("allow") else {
            bad.push((t.line, "expected `allow(<rule>)` after `dcd-lint:`".to_string()));
            continue;
        };
        let stripped = stripped.trim_start();
        let (inner, after) = match stripped.strip_prefix('(').and_then(|s| s.split_once(')')) {
            Some(parts) => parts,
            None => {
                bad.push((t.line, "malformed `allow(...)` rule list".to_string()));
                continue;
            }
        };
        let reason = after
            .trim_start()
            .trim_start_matches(['—', '-', ':'])
            .trim()
            .trim_end_matches("*/")
            .trim()
            .to_string();
        if reason.is_empty() {
            bad.push((
                t.line,
                format!("suppression for `{inner}` has no reason; write `// dcd-lint: allow({inner}) — <why this is sound>`"),
            ));
            continue;
        }
        for rule in inner.split(',') {
            let rule = rule.trim();
            if rule.is_empty() {
                bad.push((t.line, "empty rule name in `allow(...)`".to_string()));
                continue;
            }
            ok.push(Suppression {
                rule: rule.to_string(),
                line: t.line,
                effective: t.line,
                reason: reason.clone(),
            });
        }
    }
    (ok, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("x.rs".into(), FileClass::Engine, src)
    }

    #[test]
    fn cfg_test_region_covers_the_mod_body() {
        let f = parse("fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n");
        assert_eq!(f.test_ranges, vec![(2, 5)]);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn cfg_test_with_extra_attributes() {
        let f = parse("#[cfg(test)]\n#[allow(deprecated)]\nmod tests {\n fn t() {}\n}\n");
        assert_eq!(f.test_ranges, vec![(1, 5)]);
    }

    #[test]
    fn path_separator_merges_only_when_adjacent() {
        let f = parse("a::b ; x : y");
        assert!((0..f.code.len()).any(|i| f.text(i) == "::"));
        assert!((0..f.code.len()).any(|i| f.text(i) == ":"));
    }

    #[test]
    fn suppression_requires_a_reason() {
        let f = parse("// dcd-lint: allow(relaxed-atomic)\nfn f() {}\n");
        assert!(f.suppressions.is_empty());
        assert_eq!(f.bad_suppressions.len(), 1);
        let f = parse(
            "// dcd-lint: allow(relaxed-atomic) — a statistic, read after the join\nfn f() {}\n",
        );
        assert_eq!(f.suppressions.len(), 1);
        assert_eq!(f.suppressions[0].rule, "relaxed-atomic");
        assert!(f.suppressions[0].reason.contains("statistic"));
        assert!(f.bad_suppressions.is_empty());
    }

    #[test]
    fn suppression_accepts_rule_lists_and_plain_dash() {
        let f = parse("// dcd-lint: allow(relaxed-atomic, hash-iteration-order) - a tally\n");
        assert_eq!(f.suppressions.len(), 2);
        assert!(f.suppressions.iter().any(|s| s.rule == "hash-iteration-order"));
    }

    #[test]
    fn statement_window_spans_to_next_statement() {
        let f =
            parse("fn f() { let v: Vec<u32> = m.keys().copied().collect(); v.sort(); done(); }");
        let ki = (0..f.code.len()).find(|&i| f.text(i) == "keys").unwrap();
        let (a, b) = f.statement_window(ki);
        let texts: Vec<&str> = (a..=b).map(|i| f.text(i)).collect();
        assert!(texts.contains(&"sort"), "window sees the next-statement sort: {texts:?}");
        assert!(!texts.contains(&"done"), "window stops after one extra statement");
    }

    #[test]
    fn depth_tracks_braces() {
        let f = parse("fn f() { if x { y(); } }");
        let yi = (0..f.code.len()).find(|&i| f.text(i) == "y").unwrap();
        assert_eq!(f.depth[yi], 2);
    }
}
