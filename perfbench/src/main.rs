//! `perfbench --workload <serve_hot|serve_mixed|value_ladder|all>
//!   --seed <n> --seconds <s> --trace <0|1> --defender <path>`
//!
//! With `--trace 0` it prints the end-to-end metrics of the workload;
//! with `--trace 1` it runs the traced pass and prints the per-layer
//! metrics. `--workload all` runs the three workloads and then the traced
//! pass. The last line of standard output is the JSON result.

use std::path::PathBuf;
use std::process::ExitCode;

use defender_perfbench::e2e::{self, Ctx};
use defender_perfbench::report::Report;
use defender_perfbench::{replay, server, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    defender: PathBuf,
}

/// Scratch files of a run (removed at exit) and span dumps of the traced
/// pass, relative to the repository root the benchmark runs from.
const WORK_DIR: &str = "perfbench/work";
const OUT_DIR: &str = "perfbench/out";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let need = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = need("--workload")?.to_owned();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_owned())?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_owned())?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other}")),
        },
        defender: PathBuf::from(need("--defender")?),
    })
}

fn run_workload(ctx: &Ctx, workload: &str) -> std::io::Result<Report> {
    match workload {
        "serve_hot" => Ok(e2e::serve_report(
            e2e::run_serve_hot(ctx, ctx.seconds, e2e::SETUP_REPS)?,
            e2e::HOT_SLO_MS,
        )),
        "serve_mixed" => Ok(e2e::serve_report(
            e2e::run_serve_mixed(ctx, ctx.seconds, e2e::SETUP_REPS)?,
            e2e::MIXED_SLO_MS,
        )),
        _ => e2e::run_value_ladder(ctx),
    }
}

fn run(args: &Args, ctx: &Ctx) -> std::io::Result<Report> {
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}; nproc {}; server: defender {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        server::invocation(&PathBuf::from("<fresh dir>")).join(" ")
    );
    if args.workload != "all" {
        let report = if args.trace {
            replay::traced_pass(ctx, OUT_DIR.as_ref())?
        } else {
            run_workload(ctx, &args.workload)?
        };
        print!("{}", report.table(&args.workload));
        return Ok(report);
    }
    let mut all = Report::default();
    let mut parts: Vec<(String, Report)> = Vec::new();
    for w in WORKLOADS {
        parts.push((w.to_owned(), run_workload(ctx, w)?));
    }
    parts.push((
        "traced".to_owned(),
        replay::traced_pass(ctx, OUT_DIR.as_ref())?,
    ));
    for (name, report) in parts {
        print!("{}", report.table(&name));
        all.tally.merge(report.tally);
        for m in report.metrics {
            all.add(&format!("{name}.{}", m.name), m.value, m.unit, m.samples);
        }
    }
    Ok(all)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.defender.is_file() {
        eprintln!("perfbench: no program at {}", args.defender.display());
        return ExitCode::from(2);
    }
    let work = PathBuf::from(WORK_DIR).join(format!("run{}", std::process::id()));
    let ctx = Ctx::new(args.defender.clone(), work.clone(), args.seed, args.seconds);
    let result = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
