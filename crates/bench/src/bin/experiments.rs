//! Regenerates the paper's evaluation figures as text tables.
//!
//! ```text
//! cargo run -p dcd-bench --release --bin experiments -- all
//! cargo run -p dcd-bench --release --bin experiments -- fig3a fig3e
//! DCD_SCALE=1.0 cargo run -p dcd-bench --release --bin experiments -- all
//! ```

use dcd_bench::figures::all_figures;
use dcd_bench::workloads::parse_scale;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figures = all_figures();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        figures.iter().map(|(id, _)| *id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };

    let scale = parse_scale(std::env::var("DCD_SCALE").ok().as_deref()).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    println!("distributed-cfd experiments (scale = {scale}; set DCD_SCALE=1.0 for paper scale)\n");
    let mut unknown = Vec::new();
    for want in wanted {
        match figures.iter().find(|(id, _)| *id == want) {
            Some((_, gen)) => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "a progress note for the person at the terminal; no figure reads it"
                )]
                let started = Instant::now();
                let fig = gen(scale);
                println!("{}", fig.to_table());
                println!("  [generated in {:.1?}]\n", started.elapsed());
            }
            None => unknown.push(want.to_string()),
        }
    }
    if !unknown.is_empty() {
        eprintln!(
            "unknown figure id(s): {} (known: {})",
            unknown.join(", "),
            figures.iter().map(|(id, _)| *id).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    }
}
