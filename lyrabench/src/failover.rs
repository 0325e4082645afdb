//! `failover`: a closed loop of single-switch kills on a running NetCache
//! MULTI-SW k = 8 pod holding 20 000 seeded `cache_lookup` entries.
//!
//! Victims cycle over all eight switches in a seeded order per cycle. A
//! ToR kill moves entry shards; an Agg kill moves only code and globals.
//! Every event starts from a freshly installed `Runtime` (untimed set-up)
//! and a fresh `Compiler`, so each kill is a first occurrence. The timed
//! span runs from the kill to every survivor committing the new epoch:
//! re-sync (`fail_switch_with_channel`), `recompile_for_faults`, then
//! `apply_rollout` over a reliable channel. The anti-entropy audit runs
//! afterwards, outside the timed span.

use std::sync::Arc;
use std::time::Instant;

use lyra::{
    CompileOutput, CompileRequest, Compiler, FaultSet, Phase, ReliableChannel, RolloutConfig,
    Runtime, SolveProfile,
};
use lyra_apps::programs;

use crate::stats::Rng;
use crate::trace::PhaseSpans;
use crate::{multi_scopes, named, pod, Kind, Outcome, Repeats, RunCfg, Stopwatch, Verdict};

const K: usize = 8;
const ENTRIES: usize = 20_000;
const TABLE: &str = "cache_lookup";
/// Tail percentile: a failover costs about half a second here, so a 30 s
/// run holds the 40 events p75 needs but not the 100 of p90.
const TAIL_PCT: f64 = 75.0;

/// Per-layer metrics of this workload, each split by victim type.
pub const LAYER_METRICS: [&str; 16] = [
    "runtime.resync_ms",
    "runtime.resync_prepare_mb",
    "fault.recompile_ms",
    "fault.recompile.solve_ms",
    "fault.recompile.codegen_ms",
    "fault.instr_churn",
    "fault.entry_churn",
    "solver.decisions.failover",
    "rollout.commit_ms",
    "rollout.prepare_mb",
    "rollout.messages",
    "rollout.delta_prepares",
    "rollout.snapshot_prepares",
    "recovery.audit_ms",
    "recovery.findings",
    "runtime.install_ms",
];

fn phase_name(phase: Phase) -> Option<&'static str> {
    match phase {
        Phase::Solve => Some("fault.recompile.solve_ms"),
        Phase::Codegen => Some("fault.recompile.codegen_ms"),
        _ => None,
    }
}

struct Deployment {
    program: String,
    scopes: String,
    output: CompileOutput,
    entries: Vec<(u64, u64)>,
}

impl Deployment {
    fn request(&self) -> CompileRequest<'_> {
        CompileRequest::new(&self.program, &self.scopes, pod(K))
            .with_solve_profile(SolveProfile::default())
    }

    fn installed(&self) -> Runtime<'_> {
        let mut rt = Runtime::new(&self.output);
        rt.install_many(TABLE, &self.entries)
            .expect("seeded entries fit the cache table");
        rt
    }
}

fn class_of(victim: &str) -> &'static str {
    if victim.starts_with("ToR") {
        "tor"
    } else {
        "agg"
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut outcome = Outcome::new("failover", TAIL_PCT);
    let mut serving = None;
    for _ in 0..cfg.setup_repeats {
        let (dep, secs) = crate::timed(|| {
            let program = programs::netcache();
            let scopes = multi_scopes("netcache", K);
            let output = Compiler::new()
                .compile(&CompileRequest::new(&program, &scopes, pod(K)))
                .expect("serving NetCache pod compiles");
            let entries = crate::seeded_entries(ENTRIES, cfg.seed, 1 << 16);
            let dep = Deployment {
                program,
                scopes,
                output,
                entries,
            };
            drop(std::hint::black_box(dep.installed()));
            dep
        });
        outcome.setup_s.push(secs);
        serving = Some(dep);
    }
    let dep = serving.expect("at least one set-up repetition");
    let req = dep.request();
    let switches: Vec<String> = (1..=K / 2)
        .flat_map(|i| [format!("Agg{i}"), format!("ToR{i}")])
        .collect();

    let t = &cfg.tracer;
    let observer: Option<Arc<PhaseSpans>> = t.enabled().then(|| {
        Arc::new(PhaseSpans {
            tracer: t.clone(),
            names: phase_name,
        })
    });
    let mut rng = Rng::new(cfg.seed ^ 0xfa11);
    let mut placement_counts = Repeats::default();
    let mut solver_counts = Repeats::default();
    let mut problems = Vec::new();
    let mut prepare_mb = Vec::new();
    let start = Instant::now();
    // Whole cycles only, so every run kills each switch equally often, and
    // at least enough events for the tail percentile.
    while outcome.op_ms.len() < cfg.min_ops(TAIL_PCT) || start.elapsed().as_secs_f64() < cfg.seconds
    {
        let mut cycle = switches.clone();
        rng.shuffle(&mut cycle);
        for victim in &cycle {
            let class = class_of(victim);
            t.open(&format!("install.{class}"));
            let mut rt = t.span("runtime.install_ms", || dep.installed());
            t.close();
            let entries_before = rt.logical_entries().len();

            let mut compiler = Compiler::new();
            if let Some(obs) = &observer {
                compiler = compiler.with_observer(obs.clone());
            }
            let faults = FaultSet::new().with_switch(victim);
            let op = t.open(&format!("failover.{class}"));
            let began = Stopwatch::start();
            let resync = t.span("runtime.resync_ms", || {
                rt.fail_switch_with_channel(
                    victim,
                    &mut ReliableChannel::new(),
                    &RolloutConfig::default(),
                )
            });
            let recompile = t.span("fault.recompile_ms", || {
                compiler.recompile_for_faults(&req, &dep.output, &faults)
            });
            let (resync, recompiled) = match (resync, recompile) {
                (Ok(a), Ok(b)) => (a, b),
                (a, b) => {
                    t.close();
                    outcome.push_op(began.read());
                    outcome.attempted += 1;
                    outcome.failed += 1;
                    problems.push(format!(
                        "{victim}: re-sync {:?} / recompile {:?}",
                        a.err().map(|e| e.to_string()),
                        b.err().map(|e| e.to_string())
                    ));
                    continue;
                }
            };
            let config =
                RolloutConfig::default().with_scope_health(recompiled.scope_health.clone());
            let rollout = t.span("rollout.commit_ms", || {
                rt.apply_rollout(&recompiled.output, &mut ReliableChannel::new(), &config)
            });
            let elapsed = began.read();
            t.close();
            outcome.push_op(elapsed);
            outcome.attempted += 1;

            let audit_op = t.open(&format!("audit.{class}"));
            let audit = t.span("recovery.audit_ms", || rt.audit_switches());
            t.close();
            t.count(audit_op, "recovery.findings", audit.findings.len() as f64);

            let rollout = match rollout {
                Ok(r) => r,
                Err(e) => {
                    outcome.failed += 1;
                    problems.push(format!("{victim}: rollout did not start: {e}"));
                    continue;
                }
            };
            let entries_after = rt.logical_entries().len();
            let mut event_ok = true;
            if !resync.committed || !rollout.committed || rollout.rolled_back {
                event_ok = false;
                problems.push(format!(
                    "{victim}: re-sync committed {}, rollout committed {} rolled back {}",
                    resync.committed, rollout.committed, rollout.rolled_back
                ));
            }
            if !audit.clean() {
                event_ok = false;
                problems.push(format!(
                    "{victim}: audit found {} drifts",
                    audit.findings.len()
                ));
            }
            if entries_after != entries_before {
                event_ok = false;
                problems.push(format!(
                    "{victim}: logical entries {entries_before} before, {entries_after} after"
                ));
            }
            if !event_ok {
                outcome.failed += 1;
            }

            let mb = |bytes: u64| bytes as f64 / 1e6;
            prepare_mb.push(mb(resync.prepare_bytes + rollout.prepare_bytes));
            placement_counts.observe(
                victim,
                &[
                    ("resync_prepare_bytes", resync.prepare_bytes),
                    ("rollout_prepare_bytes", rollout.prepare_bytes),
                    ("messages", rollout.messages_sent),
                    ("entry_churn", recompiled.diff.entry_churn()),
                    ("instr_churn", recompiled.diff.total_churn() as u64),
                ],
            );
            solver_counts.observe(
                victim,
                &[
                    ("decisions", recompiled.output.solver.decisions),
                    ("conflicts", recompiled.output.solver.conflicts),
                ],
            );
            for (name, v) in [
                ("runtime.resync_prepare_mb", mb(resync.prepare_bytes)),
                ("fault.instr_churn", recompiled.diff.total_churn() as f64),
                ("fault.entry_churn", recompiled.diff.entry_churn() as f64),
                (
                    "solver.decisions.failover",
                    recompiled.output.solver.decisions as f64,
                ),
                ("rollout.prepare_mb", mb(rollout.prepare_bytes)),
                ("rollout.messages", rollout.messages_sent as f64),
                ("rollout.delta_prepares", rollout.delta_prepares as f64),
                (
                    "rollout.snapshot_prepares",
                    rollout.snapshot_prepares as f64,
                ),
            ] {
                t.count(op, name, v);
            }
        }
    }

    placement_counts.record_into(&mut outcome.counts);
    outcome.verdicts.push(Verdict::new(
        "every failover commits, audits clean and keeps the logical entry count",
        problems.is_empty(),
        Kind::Accounted,
        if problems.is_empty() {
            format!("{} failovers, {ENTRIES} entries each", outcome.attempted)
        } else {
            problems.join("; ")
        },
    ));
    outcome.verdicts.push(placement_counts.verdict(
        "per-victim prepare bytes, messages and churn repeat exactly",
        Kind::Hard,
    ));
    outcome.verdicts.push(solver_counts.verdict(
        "per-victim solver decisions and conflicts repeat (portfolio race; recorded, not asserted)",
        Kind::Info,
    ));
    outcome.named = vec![
        named("failover_ms_p50", outcome.op_ms_p50(), "ms"),
        named("failover_ms_p75", outcome.op_ms_tail(), "ms"),
        named(
            "failover_prepare_mb",
            prepare_mb.iter().sum::<f64>() / prepare_mb.len() as f64,
            "MB(modeled)",
        ),
    ];
    outcome
}
