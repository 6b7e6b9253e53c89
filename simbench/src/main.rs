//! Command line: `simbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints every metric by name and unit, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use std::process::ExitCode;

use cdp_obs::Json;
use simbench::plan::{Size, WorkloadId};
use simbench::run::{run, Options};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut id = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                id = Some(
                    WorkloadId::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        id: id.ok_or("--workload is required")?,
        size: Size::Bench,
        seed: seed.unwrap_or(simbench::check::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload chase_cdp|compute_base|zoo_sweep \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    print!("{}", report.metrics.render());
    println!(
        "digest {} seed {}: {:016x}",
        opts.id.name(),
        opts.seed,
        report.digest
    );
    for p in &report.problems {
        println!("FAILED {p}");
    }
    let mut out = Json::obj();
    out.set("correct", Json::Bool(report.correct()));
    out.set("attempted", Json::U64(report.attempted));
    out.set("failed", Json::U64(report.failed));
    out.set("metrics", report.metrics.to_json());
    println!("{out}");
    ExitCode::SUCCESS
}
