//! End-to-end benchmark of the durable EOS store on a real, fsync'd
//! `FileVolume`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload edit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! workload twice, untraced and then traced, and reports the per-layer
//! metrics of the traced run plus `obs.overhead_pct`, the traced run's
//! loss on the workload's headline metric. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Workloads and metrics are described in `METRICS.md`.

mod bench;
mod rng;
mod timed;
mod workloads;

use std::process::ExitCode;

use bench::{run_pass, Metric, Pass};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The end-to-end metrics the JSON result carries (`BENCHMARK.json`'s
/// `end_to_end`). The wall-clock rates and latencies are printed in the
/// report but not carried: on a shared virtual machine they move with
/// other tenants' load by more than any bound the result allows.
const RESULT_METRICS: [&str; 4] = ["setup_s", "write_amp", "read_amp", "space_amp"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end metric `obs.overhead_pct` compares, per workload.
fn headline(workload: &str) -> &'static str {
    match workload {
        "ingest" => "write_mb_s",
        "edit" => "txn_per_s",
        _ => "read_per_s",
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<28} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn report_pass(label: &str, pass: &Pass) {
    println!(
        "{label}: attempted {} failed {} error_frac {:.6} late_frac {:.6} ({} of {} open-loop sends late)",
        pass.attempted,
        pass.failed,
        pass.failed as f64 / pass.attempted.max(1) as f64,
        pass.late as f64 / pass.sends.max(1) as f64,
        pass.late,
        pass.sends
    );
    for p in &pass.problems {
        println!("  INCORRECT: {p}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eos-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let clients = workloads::make(&args.workload, args.seed).map_or(0, |w| w.clients());
    println!(
        "eos-perfbench workload={} seed={} seconds={} trace={} clients={clients} (flush: sync_on_commit, fsync per FileVolume::sync; threads available: {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let run = |traced: bool, setups: usize| {
        run_pass(&args.workload, args.seed, args.seconds, traced, setups)
    };
    let result = if args.trace {
        run(false, 1).and_then(|plain| run(true, 1).map(|traced| (plain, Some(traced))))
    } else {
        run(false, SETUPS).map(|plain| (plain, None))
    };
    let (plain, traced) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("eos-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report_pass("untraced", &plain);
    print_metrics("end-to-end (untraced):", &plain.end_to_end);
    let passes: Vec<&Pass> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    let mut correct = passes.iter().all(|p| p.problems.is_empty());
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let metrics = match &traced {
        None => plain
            .end_to_end
            .iter()
            .filter(|m| RESULT_METRICS.contains(&m.name.as_str()))
            .cloned()
            .collect(),
        Some(t) => {
            report_pass("traced", t);
            let key = headline(&args.workload);
            let (a, b) = (plain.get(key).unwrap_or(0.0), t.get(key).unwrap_or(0.0));
            let overhead = if a > 0.0 { 100.0 * (a - b) / a } else { 0.0 };
            let mut layers: Vec<Metric> = t.layers.clone();
            layers.push(Metric {
                name: "obs.overhead_pct".into(),
                value: overhead,
                unit: "%",
                samples: 2,
            });
            print_metrics("end-to-end (traced):", &t.end_to_end);
            print_metrics(
                &format!("per-layer (traced; obs.overhead_pct on {key}):"),
                &layers,
            );
            layers
        }
    };
    // A figure that could not be measured (say, a ratio over zero reads)
    // fails the run rather than leaving a hole in the result.
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        println!("  INCORRECT: {} was not measured", m.name);
        correct = false;
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .filter(|m| m.value.is_finite())
        .collect();
    println!(
        "correctness: {} (model equality live and after recovery, eos-check clean after recovery)",
        if correct { "ok" } else { "FAILED" }
    );
    println!("{}", json_result(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
