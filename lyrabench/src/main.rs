//! `lyrabench --workload <compile-mix|failover|replay|all> --seed <n>
//!           --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): runs the named workload for `--seconds`, prints
//! its metrics by name and its correctness verdicts, and ends with one JSON
//! line holding the end-to-end metrics (`op_cpu_ms_p50`, `op_cpu_ms_tail`,
//! `ops_per_cpu_s`, `peak_rss_mb`, `setup_s`; the times are CPU time).
//! `--workload all` runs the three workloads in turn from this one process
//! and prints every headline metric by name.
//!
//! Traced (`--trace 1`): runs every workload for a third of `--seconds`,
//! first half untraced, second half traced, so one traced run emits every
//! per-layer metric; prints the tracing overhead (traced minus untraced
//! median operation time), writes the spans to `out/trace-*.json`, and
//! ends with one JSON line holding the per-layer metrics.
//!
//! A run exits 0 whenever it prints the JSON line; `correct` and `failed`
//! in it carry the verdicts.

use std::process::ExitCode;

use lyrabench::{
    compile_mix, failover, layer_unit, per_layer_names, replay, stats, Kind, Outcome, RunCfg,
    Tracer, SETUP_REPEATS,
};

const WORKLOADS: [&str; 3] = ["compile-mix", "failover", "replay"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, cfg: &RunCfg) -> Outcome {
    match name {
        "compile-mix" => compile_mix::run(cfg),
        "failover" => failover::run(cfg),
        _ => replay::run(cfg),
    }
}

fn print_outcome(o: &Outcome) {
    println!(
        "{}: {} attempted, {} failed ({:.2}%), {} timed operations",
        o.workload,
        o.attempted,
        o.failed,
        100.0 * o.failed as f64 / o.attempted.max(1) as f64,
        o.op_ms.len()
    );
    for m in &o.named {
        println!("  {:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for (name, value, unit) in [
        ("op_cpu_ms_p50", o.op_cpu_ms_p50(), "ms"),
        ("op_cpu_ms_tail", o.op_cpu_ms_tail(), "ms"),
        ("ops_per_cpu_s", o.ops_per_cpu_s(), "1/s"),
    ] {
        println!("  {name:<24} {value:>14.4} {unit}");
    }
    println!(
        "  {:<24} {:>14.4} s (CPU, median of {})",
        "setup_s",
        o.setup_median_s(),
        o.setup_s.len()
    );
    for v in &o.verdicts {
        let status = match (v.ok, v.kind) {
            (true, _) => "ok",
            (false, Kind::Hard) => "FAIL",
            (false, Kind::Accounted) => "FAIL (counted as failed operations)",
            (false, Kind::Reported) => "FAIL (reported, not counted as failed operations)",
            (false, Kind::Info) => "note",
        };
        println!("  [{status}] {}: {}", v.check, v.detail);
    }
    for (key, value) in &o.counts {
        println!("  count {key} = {value}");
    }
}

/// The final JSON line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not a finite number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn untraced(args: &Args) -> String {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut outcomes = Vec::new();
    for name in names {
        let cfg = RunCfg {
            seed: args.seed,
            seconds: args.seconds,
            setup_repeats: SETUP_REPEATS,
            tail_samples: true,
            verify: true,
            tracer: Tracer::new(false),
        };
        let o = run_workload(name, &cfg);
        print_outcome(&o);
        outcomes.push(o);
    }
    let rss = stats::peak_rss_mb();
    println!("  {:<24} {:>14.4} MB", "peak_rss_mb", rss);
    let correct = outcomes.iter().all(Outcome::correct);
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    let metrics: Vec<(String, f64, &str)> = if let [o] = outcomes.as_slice() {
        vec![
            ("op_cpu_ms_p50".into(), o.op_cpu_ms_p50(), "ms"),
            ("op_cpu_ms_tail".into(), o.op_cpu_ms_tail(), "ms"),
            ("ops_per_cpu_s".into(), o.ops_per_cpu_s(), "1/s"),
            ("peak_rss_mb".into(), rss, "MB"),
            ("setup_s".into(), o.setup_median_s(), "s"),
        ]
    } else {
        let mut m: Vec<(String, f64, &str)> = outcomes
            .iter()
            .flat_map(|o| o.named.iter().map(|n| (n.name.clone(), n.value, n.unit)))
            .collect();
        m.push(("peak_rss_mb".into(), rss, "MB"));
        let setup: f64 = outcomes.iter().map(Outcome::setup_median_s).sum();
        m.push(("setup_s".into(), setup, "s"));
        m
    };
    result_line(correct, attempted, failed, &metrics)
}

fn traced(args: &Args) -> String {
    let tracer = Tracer::new(true);
    let share = args.seconds / WORKLOADS.len() as f64 / 2.0;
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for name in WORKLOADS {
        let mut halves = Vec::new();
        for on in [false, true] {
            let cfg = RunCfg {
                seed: args.seed,
                seconds: share,
                setup_repeats: 1,
                tail_samples: false,
                verify: on,
                tracer: if on {
                    tracer.clone()
                } else {
                    Tracer::new(false)
                },
            };
            halves.push(run_workload(name, &cfg));
        }
        // The untraced half only times operations; the traced half ran the
        // checks and carries the failure accounting.
        correct &= halves[1].correct();
        attempted += halves[1].attempted;
        failed += halves[1].failed;
        let (plain, with) = (halves[0].op_ms_p50(), halves[1].op_ms_p50());
        println!(
            "{name}: tracing overhead {:+.4} ms per operation ({:+.2}%): traced p50 {with:.4} ms \
             over {} ops, untraced p50 {plain:.4} ms over {} ops",
            with - plain,
            100.0 * (with - plain) / plain,
            halves[1].op_ms.len(),
            halves[0].op_ms.len(),
        );
        print_outcome(&halves[1]);
    }
    let path = lyrabench::out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match tracer.write_chrome_trace(&path) {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
    let layers = lyrabench::layer_metrics(&tracer);
    let mut metrics = Vec::new();
    for name in per_layer_names() {
        match layers.get(&name) {
            Some(&v) => metrics.push((name.clone(), v, layer_unit(&name))),
            None => {
                println!("per-layer metric {name} was not emitted");
                correct = false;
            }
        }
    }
    result_line(correct, attempted, failed, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lyrabench: {e}");
            eprintln!(
                "usage: lyrabench --workload <compile-mix|failover|replay|all> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "lyrabench workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let line = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
