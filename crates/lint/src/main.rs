//! The `dcd_lint` command-line front end.
//!
//! ```text
//! cargo run -p dcd_lint -- check [--format text|json] [--root <path>]
//! cargo run -p dcd_lint -- rules
//! cargo run -p dcd_lint -- explain <rule>
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error. The CI
//! gate is the default invocation.

use dcd_lint::{check_workspace, describe, explain, render, Format, RULE_IDS};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut explain_rule: Option<String> = None;
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" | "rules" if cmd.is_none() => cmd = Some(a.clone()),
            "explain" if cmd.is_none() => {
                cmd = Some(a.clone());
                match it.next() {
                    Some(rule) => explain_rule = Some(rule.clone()),
                    None => {
                        eprintln!("dcd_lint: explain expects a rule id (see `dcd_lint rules`)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!("dcd_lint: --format expects `text` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("dcd_lint: --root expects a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("dcd_lint: unknown argument `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    match cmd.as_deref() {
        Some("rules") => {
            for rule in RULE_IDS {
                println!("{rule}\n    {}", describe(rule));
            }
            ExitCode::SUCCESS
        }
        Some("explain") => {
            let rule = explain_rule.expect("parsed above");
            match explain(&rule) {
                Some(text) => {
                    println!("{rule}\n    {}\n\n{}", describe(&rule), text);
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("dcd_lint: unknown rule `{rule}`; known rules:");
                    for r in RULE_IDS {
                        eprintln!("    {r}");
                    }
                    ExitCode::from(2)
                }
            }
        }
        Some("check") => {
            let root = match root.or_else(find_workspace_root) {
                Some(r) => r,
                None => {
                    eprintln!("dcd_lint: could not locate the workspace root (pass --root)");
                    return ExitCode::from(2);
                }
            };
            let report = match check_workspace(&root) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("dcd_lint: {e}");
                    return ExitCode::from(2);
                }
            };
            print!("{}", render(&report.diagnostics, report.checked_files, format));
            if report.diagnostics.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        _ => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: dcd_lint check [--format text|json] [--root <path>] | rules | explain <rule>"
    );
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
