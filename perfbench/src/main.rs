//! Command line of the benchmark.
//!
//! ```text
//! clouds-perfbench --workload <kv_hot|ledger_2pc|dsm_spill|all> --seed <n>
//!                  --seconds <s> --trace <0|1> [--trace-out <dir>]
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), then as
//! its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 on a wrong answer or any failure.

use clouds_perfbench::workload::{Workload, ALL};
use clouds_perfbench::{run_end_to_end, run_traced, Outcome, TRACE_CAP};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    ALL.to_vec()
                } else {
                    vec![Workload::parse(&name).ok_or(format!("unknown workload {name}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The failure count is carried by `attempted`/`failed`, not as a metric.
const NOT_IN_JSON: &[&str] = &["failed_frac"];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        // Keep every span of set-up, warm-up and the window.
        std::env::set_var(clouds_obs::TRACE_CAP_ENV, TRACE_CAP.to_string());
    }
    let prefix = args.workloads.len() > 1;
    let mut json_metrics = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut error = None;
    for &w in &args.workloads {
        let spec = w.spec();
        let result: Result<Outcome, String> = if args.trace {
            run_traced(spec, args.seed, args.trace_out.as_deref())
        } else {
            run_end_to_end(spec, args.seed, args.seconds)
        };
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                error = Some(format!("{}: {e}", spec.name));
                break;
            }
        };
        for note in &out.notes {
            println!("{}  {note}", spec.name);
        }
        attempted += out.attempted;
        failed += out.failed;
        for m in &out.metrics {
            println!(
                "{}  {:<30} {:>14.4} {:<6} (n={})",
                spec.name, m.name, m.value, m.unit, m.samples
            );
            if NOT_IN_JSON.contains(&m.name.as_str()) {
                continue;
            }
            let key = if prefix {
                format!("{}.{}", spec.name, m.name)
            } else {
                m.name.clone()
            };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            json_metrics.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            ));
        }
    }
    if let Some(e) = &error {
        eprintln!("error: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        error.is_none(),
        attempted.max(1),
        failed,
        json_metrics.join(", ")
    );
    if error.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
