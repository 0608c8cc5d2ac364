//! Diagnostics: what a rule reports, and how it is rendered.

use std::fmt;

/// One finding: a rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule id, e.g. `hash-iteration-order`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation: what was matched and which invariant it risks.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: [{}] {}", self.file, self.line, self.col, self.rule, self.message)
    }
}

/// Output format of the `check` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One `file:line:col: [rule] message` line per finding.
    Text,
    /// A single machine-readable JSON document (stable field names, so
    /// future tooling can diff lint state across PRs).
    Json,
}

/// Escapes a string for embedding in a JSON document. Hand-rolled: the
/// lint pass is deliberately dependency-free.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a full lint report in the requested format.
pub fn render(diags: &[Diagnostic], checked_files: usize, format: Format) -> String {
    match format {
        Format::Text => {
            let mut out = String::new();
            for d in diags {
                out.push_str(&d.to_string());
                out.push('\n');
            }
            out.push_str(&format!(
                "dcd_lint: {} finding(s) across {} checked file(s)\n",
                diags.len(),
                checked_files
            ));
            out
        }
        Format::Json => {
            let mut out = String::from("{\n");
            out.push_str("  \"version\": 1,\n");
            out.push_str(&format!("  \"checked_files\": {checked_files},\n"));
            out.push_str(&format!("  \"findings\": {},\n", diags.len()));
            out.push_str("  \"diagnostics\": [");
            for (i, d) in diags.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
                    json_escape(d.rule),
                    json_escape(&d.file),
                    d.line,
                    d.col,
                    json_escape(&d.message)
                ));
            }
            if !diags.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("]\n}\n");
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: "relaxed-atomic",
            file: "crates/core/src/runner.rs".into(),
            line: 95,
            col: 17,
            message: "say \"why\"".into(),
        }
    }

    #[test]
    fn text_format_is_file_line_col_rule() {
        let out = render(&[sample()], 3, Format::Text);
        assert!(out.starts_with("crates/core/src/runner.rs:95:17: [relaxed-atomic]"));
        assert!(out.contains("1 finding(s) across 3 checked file(s)"));
    }

    #[test]
    fn json_format_escapes_and_counts() {
        let out = render(&[sample()], 3, Format::Json);
        assert!(out.contains("\"checked_files\": 3"));
        assert!(out.contains("\"findings\": 1"));
        assert!(out.contains(r#"say \"why\""#));
    }

    #[test]
    fn json_empty_report_is_valid() {
        let out = render(&[], 0, Format::Json);
        assert!(out.contains("\"diagnostics\": []"));
    }

    #[test]
    fn control_chars_escape_as_unicode() {
        assert_eq!(json_escape("a\u{1}b"), "a\\u0001b");
    }
}
