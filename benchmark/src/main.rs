//! The benchmark of this repository: one binary, five workloads,
//! end-to-end numbers with tracing off and per-layer numbers from a
//! separate traced pass. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload <name|all> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke] [--out <file>]
//! benchmark --compare <a> <b>
//! ```

mod alloc;
mod compare;
mod detect;
mod harness;
mod incr;
mod json;
mod layers;
mod metrics;
mod stats;
mod trace;
mod verify;
mod workloads;
mod yardstick;

use harness::Job;
use json::Json;
use metrics::{Outcome, Spec, END_TO_END, PER_LAYER};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Workload, FULL, SMOKE};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: benchmark --workload <cust_load|cust_dense|cust_sparse|xref_clust|cust_incr|all> \
[--seed <u64>] [--seconds <1..60>] [--trace <0|1>] [--smoke] [--out <file>]\n       \
benchmark --compare <a> <b>";

/// `BENCHMARK.json`'s `run_seconds`, for a run that does not say.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workloads: Vec<Workload>,
    /// Result file a run writes unless `--out` names one.
    result_file: String,
    seed: u64,
    seconds: f64,
    /// Which passes to run: end to end, traced.
    passes: Vec<bool>,
    smoke: bool,
    out: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = None;
    let mut smoke = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => {
                let (a, b) = (value()?, value()?);
                return Ok(Command::Compare(a.into(), b.into()));
            }
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(1.0..=60.0).contains(&seconds) {
                    return Err("--seconds must be within 1..60".into());
                }
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let all = workload == "all";
    let workloads = if all {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?]
    };
    // One workload runs one pass; `all` runs both unless told which.
    let passes = match trace {
        Some(t) => vec![t],
        None if all => vec![false, true],
        None => vec![false],
    };
    let result_file = match passes[..] {
        [traced] if !all => format!("result-{workload}-trace{}.json", u8::from(traced)),
        _ => format!("result-{workload}.json"),
    };
    Ok(Command::Run(Args { workloads, result_file, seed, seconds, passes, smoke, out }))
}

/// Result and trace files go under the build's target directory, which
/// the root `.gitignore` already covers.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

fn print_table(job: &Job, traced: bool, specs: &[Spec], outcome: &Outcome) {
    println!(
        "== {}  seed={}  trace={}  window={}  samples={}  verified={} failed={} ==",
        job.workload.name(),
        job.seed,
        u8::from(traced),
        job.seconds.map_or("smoke".to_string(), |s| format!("{s}s")),
        outcome.samples,
        outcome.attempted,
        outcome.failed,
    );
    println!("  why: {}", job.workload.why());
    for s in specs {
        let bound = s.bound.map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
        if let Some(v) = outcome.values.get(s.name) {
            println!("  {:<30} {v:>16.4} {:<8} ({}{bound})", s.name, s.unit, s.better.as_str());
        }
    }
    for (name, value, unit) in &outcome.info {
        println!("  {name:<30} {value:>16.4} {unit:<8} (no bound)");
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

fn write_file(path: &Path, text: &str, append: bool) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)
        .map_err(io)?;
    file.write_all(text.as_bytes()).map_err(io)
}

/// Runs every requested (workload, pass); `Ok(true)` when every output
/// verified.
fn run(args: &Args) -> Result<bool, String> {
    // The chunk layout is pinned, whatever `DCD_CHUNK_ROWS` says.
    dcd_relation::store::set_chunk_rows(Some(dcd_relation::DEFAULT_CHUNK_ROWS));
    let dir = out_dir();
    let mut records = String::new();
    let mut correct = true;
    for &workload in &args.workloads {
        for &traced in &args.passes {
            let job = Job {
                workload,
                scale: if args.smoke { &SMOKE } else { &FULL },
                seed: args.seed,
                seconds: (!args.smoke).then_some(args.seconds),
            };
            let (specs, outcome) = if traced {
                let mut tracer = trace::Tracer::new();
                let outcome = if workload == Workload::CustIncr {
                    incr::traced(&job, &mut tracer)
                } else {
                    detect::traced(&job, &mut tracer)
                };
                let path = dir.join(format!("trace-{}.json", workload.name()));
                write_file(&path, &(trace::to_json(tracer.spans()).render() + "\n"), false)?;
                let mut outcome = outcome?;
                let threads = std::thread::available_parallelism().map_or(1, usize::from);
                outcome.set("host.threads", threads as f64);
                (&PER_LAYER[..], outcome)
            } else if workload == Workload::CustIncr {
                (&END_TO_END[..], incr::end_to_end(&job)?)
            } else {
                (&END_TO_END[..], detect::end_to_end(&job)?)
            };
            correct &= outcome.failed == 0;
            print_table(&job, traced, specs, &outcome);
            let result = outcome.to_json(specs);
            let record = Json::obj([
                ("workload", Json::str(workload.name())),
                ("trace", Json::Num(f64::from(u8::from(traced)))),
                ("seed", Json::Num(args.seed as f64)),
                ("seconds", job.seconds.map_or(Json::Null, Json::Num)),
                ("samples", Json::Num(outcome.samples as f64)),
                (
                    "info",
                    Json::obj(outcome.info.iter().map(|(name, value, unit)| {
                        let entry = [("value", Json::Num(*value)), ("unit", Json::str(*unit))];
                        (*name, Json::obj(entry))
                    })),
                ),
                ("result", result.clone()),
            ]);
            records.push_str(&(record.render() + "\n"));
            // The contract's result object: the last line of a pass.
            println!("{}", result.render());
        }
    }
    match &args.out {
        Some(path) => write_file(path, &records, true)?,
        None => write_file(&dir.join(&args.result_file), &records, false)?,
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Command::Compare(a, b)) => {
            let read =
                |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
            read(&a).and_then(|a| Ok((a, read(&b)?))).and_then(|(a, b)| compare::compare(&a, &b))
        }
        Ok(Command::Run(args)) => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
