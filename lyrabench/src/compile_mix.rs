//! `compile-mix`: a closed loop of compile jobs over a fixed catalogue.
//!
//! The catalogue holds three job families that load different layers: the
//! ten Figure 9 programs PER-SW on the Figure 1 network, targeting a
//! Tofino (P4-14), a Silicon One (P4-16) and a Trident-4 (NPL) switch,
//! where front-end and code generation are a visible share; LB and
//! NetCache MULTI-SW on fat-tree pods, where synthesis dominates; and
//! NetCache PER-SW on the same pods, which takes the per-switch grouping
//! path. The loop draws whole rounds, each a seeded permutation of the
//! catalogue, so every seed runs the same mix in a different order and the
//! latency distribution does not drift with the seed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use lyra::{
    check_output, CompileOutput, CompileRequest, Compiler, OracleConfig, Phase, SolveProfile,
    SolverStrategy,
};
use lyra_apps::{figure9_corpus, programs};
use lyra_topo::{figure1_network, resolve_scope, Topology};

use crate::stats::{median, percentile, Rng};
use crate::trace::PhaseSpans;
use crate::{multi_scopes, named, pod, Kind, Outcome, Repeats, RunCfg, Stopwatch, Verdict};

/// Pod sizes of the Figure 10 job families.
const KS: [usize; 3] = [8, 16, 32];
/// An operation is one round: every catalogue entry compiled once, in a
/// seeded order. Job times span 2 ms to 130 ms, and the entries split into
/// a fast half and a slow half, so the median job sits on the edge of the
/// fast cluster and jumps with small shifts; the round time is a sum over
/// the whole mix and does not. Tail over rounds: p75 needs 40 rounds, and
/// a 25 s run completes over 50.
const TAIL_PCT: f64 = 75.0;
/// Per-job tail printed by name (`compile_ms_p99`): needs 1000 jobs.
const JOB_TAIL_PCT: f64 = 99.0;
/// Differential cases per distinct artifact in each oracle pass.
/// NetCache artifacts carry 65536-slot registers, which makes each case
/// costly: 16 cases keep a pass to a few seconds.
const ORACLE_CASES: u64 = 16;
/// Entries whose output the oracle finds diverging from the IR interpreter
/// (LYR0601) under the fixed cases (`OracleConfig::default()`'s seed, the
/// one `lyrac --oracle` uses) when this benchmark was defined. These are
/// compiler defects, not failed compile jobs: the jobs compile, undegraded,
/// and pass `validate_all`. They are reported on every run and not counted
/// in `failed`, so `failed` does not grow with the number of jobs a run
/// completes. A fixed-case divergence on any other entry is counted: every
/// job of that entry fails.
const KNOWN_DIVERGENT: [&str; 5] = [
    "simple_router PER-SW fig1",
    "switch PER-SW fig1",
    "LB MULTI-SW k=8",
    "LB MULTI-SW k=16",
    "LB MULTI-SW k=32",
];

/// Per-layer metrics of this workload, each split by family.
pub const LAYER_METRICS: [&str; 18] = [
    "lang.parse_ms",
    "lang.check_ms",
    "ir.lower_ms",
    "ir.instrs",
    "topo.scopes_ms",
    "synth.solve_ms",
    "solver.decisions",
    "solver.conflicts",
    "solver.propagations",
    "solver.learned",
    "solver.restarts",
    "solver.reductions",
    "solver.workers_spawned",
    "solver.workers_cancelled",
    "codegen.ms",
    "codegen.artifacts",
    "codegen.bytes",
    "codegen.tables",
];
/// Measured by a standalone encode of the full model, which only MULTI-SW
/// jobs build (PER-SW jobs encode one representative switch per group).
pub const MULTI_ONLY_METRICS: [&str; 2] = ["synth.encode_ms", "synth.model_bools"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Fig9,
    Multi,
    Per,
}

impl Family {
    pub fn tag(self) -> &'static str {
        match self {
            Family::Fig9 => "fig9",
            Family::Multi => "multi",
            Family::Per => "per",
        }
    }
}

pub struct Job {
    pub name: String,
    pub family: Family,
    pub program: String,
    pub scopes: String,
    pub topology: Topology,
}

impl Job {
    fn request(&self, profile: SolveProfile) -> CompileRequest<'_> {
        CompileRequest::new(&self.program, &self.scopes, self.topology.clone())
            .with_solve_profile(profile)
    }
}

/// The fixed job catalogue.
pub fn catalogue() -> Vec<Job> {
    let mut jobs = Vec::new();
    for entry in figure9_corpus() {
        let scopes = entry
            .scopes
            .lines()
            .filter_map(|l| l.split(':').next())
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(|a| format!("{a}: [ ToR1,ToR3,Agg1 | PER-SW | - ]"))
            .collect::<Vec<_>>()
            .join("\n");
        jobs.push(Job {
            name: format!("{} PER-SW fig1", entry.name),
            family: Family::Fig9,
            program: entry.source,
            scopes,
            topology: figure1_network(),
        });
    }
    for k in KS {
        jobs.push(Job {
            name: format!("LB MULTI-SW k={k}"),
            family: Family::Multi,
            program: programs::load_balancer(1_000_000),
            scopes: multi_scopes("loadbalancer", k),
            topology: pod(k),
        });
        jobs.push(Job {
            name: format!("NetCache MULTI-SW k={k}"),
            family: Family::Multi,
            program: programs::netcache(),
            scopes: multi_scopes("netcache", k),
            topology: pod(k),
        });
        jobs.push(Job {
            name: format!("NetCache PER-SW k={k}"),
            family: Family::Per,
            program: programs::netcache(),
            scopes: "netcache: [ ToR*,Agg* | PER-SW | - ]".to_string(),
            topology: pod(k),
        });
    }
    jobs
}

fn phase_name(phase: Phase) -> Option<&'static str> {
    match phase {
        Phase::Parse => Some("lang.parse_ms"),
        Phase::Check => Some("lang.check_ms"),
        Phase::Lower => Some("ir.lower_ms"),
        Phase::Scopes => Some("topo.scopes_ms"),
        Phase::Solve => Some("synth.solve_ms"),
        Phase::Codegen => Some("codegen.ms"),
        _ => None,
    }
}

fn artifact_bytes(out: &CompileOutput) -> u64 {
    out.artifacts
        .iter()
        .map(|a| (a.code.len() + a.control_plane.len()) as u64)
        .sum()
}

fn record_counts(cfg: &RunCfg, op: usize, out: &CompileOutput) {
    let t = &cfg.tracer;
    let instrs: usize = out.ir.algorithms.iter().map(|a| a.instrs.len()).sum();
    t.count(op, "ir.instrs", instrs as f64);
    let s = &out.solver;
    for (name, v) in [
        ("solver.decisions", s.decisions),
        ("solver.conflicts", s.conflicts),
        ("solver.propagations", s.propagations),
        ("solver.learned", s.learned),
        ("solver.restarts", s.restarts),
        ("solver.reductions", s.reductions),
        ("solver.workers_spawned", s.workers_spawned),
        ("solver.workers_cancelled", s.workers_cancelled),
    ] {
        t.count(op, name, v as f64);
    }
    t.count(op, "codegen.artifacts", out.artifacts.len() as f64);
    t.count(op, "codegen.bytes", artifact_bytes(out) as f64);
    t.count(op, "codegen.tables", out.total_tables() as f64);
}

/// Time `lyra_synth::encode` of the full model of a MULTI-SW job.
fn trace_encode(cfg: &RunCfg, job: &Job, out: &CompileOutput) {
    let scopes: Vec<_> = lyra_lang::parse_scopes(&job.scopes)
        .expect("catalogue scopes parse")
        .iter()
        .map(|s| resolve_scope(&job.topology, s).expect("catalogue scopes resolve"))
        .collect();
    let opts = lyra_synth::EncodeOptions {
        symmetry_breaking: SolveProfile::default().symmetry_breaking,
        ..Default::default()
    };
    let t = &cfg.tracer;
    let op = t.open(&format!("encode.{}", job.family.tag()));
    let enc = t.span("synth.encode_ms", || {
        lyra_synth::encode(&out.ir, &job.topology, &scopes, &opts)
    });
    t.close();
    let enc = enc.expect("a compiled job's model encodes");
    t.count(op, "synth.model_bools", enc.model.num_bools() as f64);
}

/// Keep one artifact of each group that differs only in its switch name
/// (PER-SW replicas, symmetric MULTI-SW shards). The oracle's verdict on an
/// artifact depends only on its code, control stub, switch plan and the
/// shared IR, so checking one of each group checks them all.
fn distinct_artifacts(out: &mut CompileOutput) {
    let plans = &out.placement.switches;
    let mut seen = std::collections::BTreeSet::new();
    out.artifacts.retain(|a| {
        seen.insert((
            a.asic.clone(),
            a.code.replace(&a.switch, "\u{0}"),
            a.control_plane.replace(&a.switch, "\u{0}"),
            plans.get(&a.switch).map(|p| format!("{p:?}")),
        ))
    });
}

/// `name [codes]` when the oracle finds `out` diverging under `oracle`.
fn divergence(name: &str, out: &CompileOutput, oracle: &OracleConfig) -> Option<String> {
    let report = check_output(out, oracle);
    if report.is_clean() {
        return None;
    }
    let codes: std::collections::BTreeSet<String> = report
        .diagnostics
        .iter()
        .filter_map(|d| d.code.map(|c| c.to_string()))
        .collect();
    Some(format!(
        "{name} [{}]",
        codes.into_iter().collect::<Vec<_>>().join(",")
    ))
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut outcome = Outcome::new("compile-mix", TAIL_PCT);
    // Set-up: build the catalogue and compile every entry once, so lazy
    // initialisation and allocator growth happen before timing.
    let mut jobs = Vec::new();
    for _ in 0..cfg.setup_repeats {
        let (built, secs) = crate::timed(|| {
            let jobs = catalogue();
            for job in &jobs {
                let _ = Compiler::new().compile(&job.request(SolveProfile::default()));
            }
            jobs
        });
        outcome.setup_s.push(secs);
        jobs = built;
    }

    let mut rng = Rng::new(cfg.seed);
    let mut order: Vec<usize> = Vec::new();
    let mut broken = vec![false; jobs.len()];
    let mut portfolio = Repeats::default();
    let mut errors: BTreeMap<String, String> = BTreeMap::new();
    let observer: Option<Arc<PhaseSpans>> = cfg.tracer.enabled().then(|| {
        Arc::new(PhaseSpans {
            tracer: cfg.tracer.clone(),
            names: phase_name,
        })
    });
    let mut job_ms = Vec::new();
    let start = Instant::now();
    while outcome.op_ms.len() < cfg.min_ops(TAIL_PCT)
        || job_ms.len() < cfg.min_ops(JOB_TAIL_PCT)
        || start.elapsed().as_secs_f64() < cfg.seconds
    {
        let mut round: Vec<usize> = (0..jobs.len()).collect();
        rng.shuffle(&mut round);
        let (mut round_ms, mut round_cpu_ms) = (0.0, 0.0);
        for i in round {
            order.push(i);
            let job = &jobs[i];
            let mut compiler = Compiler::new();
            if let Some(obs) = &observer {
                compiler = compiler.with_observer(obs.clone());
            }
            let req = job.request(SolveProfile::default());
            let op = cfg.tracer.open(&format!("compile.{}", job.family.tag()));
            let t = Stopwatch::start();
            let result = compiler.compile(&req);
            let (wall_ms, cpu_ms) = t.read();
            cfg.tracer.close();
            job_ms.push(wall_ms);
            round_ms += wall_ms;
            round_cpu_ms += cpu_ms;
            let out = match result {
                Ok(out) => out,
                Err(e) => {
                    broken[i] = true;
                    errors.insert(job.name.clone(), format!("compile error: {e}"));
                    continue;
                }
            };
            if let Some(rung) = out.degraded {
                broken[i] = true;
                errors.insert(job.name.clone(), format!("degraded ({rung})"));
            }
            if let Err(e) = out.validate_all() {
                broken[i] = true;
                errors.insert(job.name.clone(), format!("validate_all: {e}"));
            }
            portfolio.observe(
                &job.name,
                &[
                    ("artifact_bytes", artifact_bytes(&out)),
                    ("decisions", out.solver.decisions),
                    ("conflicts", out.solver.conflicts),
                ],
            );
            if cfg.tracer.enabled() {
                record_counts(cfg, op, &out);
                if job.family == Family::Multi {
                    trace_encode(cfg, job, &out);
                }
            }
        }
        outcome.push_op((round_ms, round_cpu_ms));
    }

    // Determinism and oracle, per catalogue entry. The Sequential strategy
    // is one deterministic search per solve, so its counts must repeat
    // exactly across two compiles; the default portfolio reports the race
    // winner's counts, which are recorded above, not asserted. The first
    // Sequential output then goes through the oracle twice, so a verdict
    // never depends on which portfolio worker won a race. The fixed cases
    // make the counted verdict a function of the code alone; the cases
    // seeded from the run seed vary between seeds and find rarer
    // divergences on some of them (at definition NetChain on seeds 2 and
    // 54, NetCache PER-SW fig1 on seed 401), which are reported only.
    let fixed = OracleConfig {
        cases: ORACLE_CASES,
        seed: OracleConfig::default().seed,
    };
    let seeded = OracleConfig {
        cases: ORACLE_CASES,
        seed: Rng::new(cfg.seed ^ 0x0ac1e).next_u64(),
    };
    let mut sequential = Repeats::default();
    let (mut new_div, mut known_div, mut seeded_div) = (Vec::new(), Vec::new(), Vec::new());
    let mut known = vec![false; jobs.len()];
    let mut oracle_s = 0.0;
    for (i, job) in jobs.iter().enumerate().filter(|_| cfg.verify) {
        let profile = SolveProfile::default().with_strategy(SolverStrategy::Sequential);
        let mut first = None;
        for _ in 0..2 {
            match Compiler::new().compile(&job.request(profile.clone())) {
                Ok(out) => {
                    sequential.observe(
                        &format!("{}/sequential", job.name),
                        &[
                            ("decisions", out.solver.decisions),
                            ("conflicts", out.solver.conflicts),
                            ("propagations", out.solver.propagations),
                            ("artifact_bytes", artifact_bytes(&out)),
                        ],
                    );
                    first.get_or_insert(out);
                }
                Err(e) => {
                    broken[i] = true;
                    errors.insert(job.name.clone(), format!("sequential compile error: {e}"));
                }
            }
        }
        let Some(mut out) = first else {
            continue;
        };
        distinct_artifacts(&mut out);
        let t = Instant::now();
        if let Some(line) = divergence(&job.name, &out, &fixed) {
            if KNOWN_DIVERGENT.contains(&job.name.as_str()) {
                known[i] = true;
                known_div.push(line);
            } else {
                broken[i] = true;
                new_div.push(line);
            }
        }
        seeded_div.extend(divergence(&job.name, &out, &seeded));
        oracle_s += t.elapsed().as_secs_f64();
    }
    sequential.record_into(&mut outcome.counts);

    outcome.attempted = order.len() as u64;
    outcome.failed = order.iter().filter(|&&i| broken[i]).count() as u64;
    outcome.verdicts.push(Verdict::new(
        "every job compiles, undegraded, and passes validate_all",
        errors.is_empty(),
        Kind::Accounted,
        if errors.is_empty() {
            format!("{} jobs", order.len())
        } else {
            errors
                .iter()
                .map(|(k, v)| format!("{k}: {v}"))
                .collect::<Vec<_>>()
                .join("; ")
        },
    ));
    let oracle_detail = format!(
        "{} entries, {ORACLE_CASES} cases per distinct artifact, {oracle_s:.1} s for both passes",
        jobs.len(),
    );
    outcome.verdicts.push(Verdict::new(
        "oracle (check_output on the Sequential-strategy output, fixed cases) agrees with the IR \
         interpreter on every entry not listed as a known defect",
        new_div.is_empty(),
        Kind::Accounted,
        if new_div.is_empty() {
            oracle_detail.clone()
        } else {
            format!(
                "{} new divergent entries ({oracle_detail}): {}",
                new_div.len(),
                new_div.join("; ")
            )
        },
    ));
    let known_jobs = order.iter().filter(|&&i| known[i]).count();
    let cleared: Vec<&str> = KNOWN_DIVERGENT
        .iter()
        .copied()
        .filter(|name| cfg.verify && !jobs.iter().zip(&known).any(|(j, &k)| k && j.name == *name))
        .collect();
    outcome.verdicts.push(Verdict::new(
        "known oracle divergences under the fixed cases, not counted as failed jobs",
        known_div.is_empty(),
        Kind::Reported,
        format!(
            "{} of {} listed entries diverge: {}; their jobs are {known_jobs} of {} ({:.2}%); \
             no longer diverging: {}",
            known_div.len(),
            KNOWN_DIVERGENT.len(),
            if known_div.is_empty() {
                "none".to_string()
            } else {
                known_div.join("; ")
            },
            order.len(),
            100.0 * known_jobs as f64 / order.len().max(1) as f64,
            if cleared.is_empty() {
                "none".to_string()
            } else {
                cleared.join("; ")
            },
        ),
    ));
    outcome.verdicts.push(Verdict::new(
        "oracle under cases seeded from --seed agrees with the IR interpreter (not counted)",
        seeded_div.is_empty(),
        Kind::Reported,
        if seeded_div.is_empty() {
            oracle_detail
        } else {
            format!(
                "{} of {} entries diverge: {}",
                seeded_div.len(),
                jobs.len(),
                seeded_div.join("; ")
            )
        },
    ));
    outcome.verdicts.push(sequential.verdict(
        "sequential-strategy counts repeat exactly (decisions, conflicts, propagations, artifact bytes)",
        Kind::Hard,
    ));
    let mut race = portfolio.verdict(
        "default-portfolio counts repeat (race winner's counts; recorded, not asserted)",
        Kind::Info,
    );
    if !portfolio.varying.is_empty() {
        race.detail = format!(
            "{} of {} entries vary; {}",
            portfolio.varying.len(),
            jobs.len(),
            race.detail
        );
    }
    outcome.verdicts.push(race);

    outcome.named = vec![
        named("compile_ms_p50", median(&job_ms), "ms"),
        named("compile_ms_p99", percentile(&job_ms, JOB_TAIL_PCT), "ms"),
        named(
            "compile_jobs_per_s",
            job_ms.len() as f64 / (job_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        named("compile_round_ms_p50", outcome.op_ms_p50(), "ms"),
    ];
    outcome
}
