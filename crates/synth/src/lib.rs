#![warn(missing_docs)]
//! # lyra-synth — conditional synthesis, SMT encoding, and placement
//!
//! The back half of the Lyra compiler (§5 of the paper):
//!
//! * [`p4`] — conditional P4 synthesis (Algorithm 1): predicate blocks →
//!   match-action tables, with mutually-exclusive block merging and action
//!   folding;
//! * [`npl`] — conditional NPL synthesis: logical tables with multi-lookup
//!   merging, logical bus and registers;
//! * [`encode`] — the SMT model: deployment booleans `f_s(I)`, extern
//!   split counts `E_{e,s}`, chip resource budgets (memory blocks, tables,
//!   actions, atoms, PHV bits, parser TCAM, stage depth), flow-path,
//!   dependency, and co-location constraints;
//! * [`backend`] — the native CDCL(T) solver;
//! * [`place`] — solution → per-switch [`Placement`], including Algorithm
//!   2's carried values (bridge headers between cooperating switches);
//! * [`explain`] — post-UNSAT necessary-condition analysis naming the
//!   violated constraint family (memory, stages, PHV, tables).
//!
//! The one-call entry point is [`synthesize`].

pub mod backend;
pub mod encode;
pub mod explain;
pub mod greedy;
pub mod npl;
pub mod p4;
pub mod parser_deps;
pub mod place;
pub mod table;
pub mod util;

pub use backend::{Backend, SolveLimits, SolverStrategy};
pub use encode::{encode, EncodeError, EncodeOptions, Encoded, Objective, SynthUnit};
pub use explain::explain_infeasible;
pub use lyra_solver::ClauseStore as SolverClauseStore;
pub use p4::P4Options;
pub use place::{CarriedValue, Placement, SwitchPlan};
pub use table::{SynthAction, SynthTable, TableGroup, TableKind};

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use lyra_diag::{codes, Diagnostic};
use lyra_ir::IrProgram;
use lyra_solver::{BoolId, ClauseStore, IntId, Outcome, SearchStats, Solution};
use lyra_topo::{interchangeable_classes, ResolvedScope, SwitchId, Topology};

/// Synthesis failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum SynthError {
    /// Encoding failed (bad scopes, unknown ASIC, …).
    Encode(EncodeError),
    /// The constraints are unsatisfiable — the program cannot be placed in
    /// this network. Carries diagnostics naming the violated constraint
    /// family plus the solver statistics of the refutation.
    Infeasible {
        /// Explanation of the infeasibility, one diagnostic per provably
        /// violated constraint family (see [`explain_infeasible`]).
        diagnostics: Vec<Diagnostic>,
        /// Search effort spent proving UNSAT.
        stats: SearchStats,
    },
    /// The solver exhausted its decision budget without a verdict —
    /// distinct from [`SynthError::Infeasible`]: the program may still be
    /// placeable with a larger budget.
    BudgetExhausted {
        /// Search effort spent before giving up.
        stats: SearchStats,
    },
}

impl SynthError {
    /// Structured diagnostics for this failure.
    pub fn to_diagnostics(&self) -> Vec<Diagnostic> {
        match self {
            SynthError::Encode(e) => vec![e.to_diagnostic()],
            SynthError::Infeasible { diagnostics, .. } => diagnostics.clone(),
            SynthError::BudgetExhausted { stats } => vec![Diagnostic::error(
                codes::SOLVER_BUDGET,
                format!(
                    "solver budget exhausted after {} decisions without a verdict",
                    stats.decisions
                ),
            )
            .with_note(
                "the placement problem was neither solved nor refuted; retry with a \
                 larger decision budget",
            )],
        }
    }
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::Encode(e) => write!(f, "{e}"),
            SynthError::Infeasible { diagnostics, .. } => {
                write!(
                    f,
                    "no feasible placement: the program does not fit the target network's resources"
                )?;
                for d in diagnostics {
                    write!(f, "; {}", d.message)?;
                }
                Ok(())
            }
            SynthError::BudgetExhausted { .. } => {
                write!(f, "solver budget exhausted without a verdict")
            }
        }
    }
}

impl std::error::Error for SynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthError::Encode(e) => Some(e),
            SynthError::Infeasible { diagnostics, .. } => diagnostics
                .first()
                .map(|d| d as &(dyn std::error::Error + 'static)),
            SynthError::BudgetExhausted { .. } => None,
        }
    }
}

/// Which rung of the degradation ladder produced a result, when the
/// requested strategy could not reach a verdict inside its limits.
/// Absent (`None` on [`SynthResult::degraded`]) for a normal solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeRung {
    /// The portfolio (or the configured strategy) timed out; a sequential
    /// search with aggressive restarts found the placement during the
    /// grace window. The placement satisfies every constraint but skipped
    /// objective optimization guarantees.
    SequentialRestarts,
    /// All search rungs timed out; the placement came from greedy
    /// first-fit ([`greedy::greedy_solution`]) — whole algorithms on
    /// first-fitting path switches, checked against coarse capacity only.
    GreedyFirstFit,
}

impl std::fmt::Display for DegradeRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeRung::SequentialRestarts => write!(f, "sequential-restarts"),
            DegradeRung::GreedyFirstFit => write!(f, "greedy-first-fit"),
        }
    }
}

/// Result of a successful synthesis run.
#[derive(Debug)]
pub struct SynthResult {
    /// The solved placement.
    pub placement: Placement,
    /// The encoded model (kept for code generation, which needs the units).
    pub encoded: Encoded,
    /// Solver search statistics for this run.
    pub stats: SearchStats,
    /// Which degradation-ladder rung produced this result; `None` when the
    /// requested strategy solved within its limits.
    pub degraded: Option<DegradeRung>,
    /// True when the quotient fast path produced this result (a solve over
    /// class representatives, replicated and verified against the full
    /// model); false when the monolithic encoding was solved.
    pub quotient: bool,
}

/// Run the full back-end: synthesize conditional implementations, encode,
/// solve, and extract a placement.
pub fn synthesize(
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    opts: &EncodeOptions,
    backend: &Backend,
) -> Result<SynthResult, SynthError> {
    synthesize_hinted(ir, topo, scopes, opts, backend, None)
}

/// [`synthesize`] seeded with a previous placement: instruction deployment
/// variables get phase hints matching the old solution, so unchanged parts
/// of the program tend to stay where they were (§8 "Synthesizing
/// incremental changes"). Only the native backend honors hints.
pub fn synthesize_hinted(
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    opts: &EncodeOptions,
    backend: &Backend,
    previous: Option<&Placement>,
) -> Result<SynthResult, SynthError> {
    synthesize_full(
        ir,
        topo,
        scopes,
        opts,
        backend,
        SolverStrategy::default(),
        previous,
    )
}

/// The fully-parameterized entry point: [`synthesize_hinted`] under an
/// explicit [`SolverStrategy`] (sequential search or a portfolio race).
pub fn synthesize_full(
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    opts: &EncodeOptions,
    backend: &Backend,
    strategy: SolverStrategy,
    previous: Option<&Placement>,
) -> Result<SynthResult, SynthError> {
    synthesize_limited(
        ir,
        topo,
        scopes,
        opts,
        backend,
        strategy,
        previous,
        &SynthLimits::default(),
    )
}

/// Watchdog limits on a synthesis run, plus the scale accelerations
/// (quotient decomposition and warm-start clause reuse) that ride along
/// into the solver.
#[derive(Debug, Clone, Default)]
pub struct SynthLimits {
    /// Wall-clock deadline for the *requested* strategy. Expiry does not
    /// fail the compile: the degradation ladder runs instead.
    pub deadline: Option<std::time::Instant>,
    /// Decision budget per search (overrides the solver default).
    pub max_decisions: Option<u64>,
    /// Extra wall-clock granted to the sequential-restarts rung after the
    /// main deadline expires. Zero with a set deadline means any expiry
    /// falls straight through to greedy first-fit.
    pub grace: std::time::Duration,
    /// Try scope-based decomposition first: solve a quotient model over
    /// interchangeable-switch class representatives, replicate the
    /// solution, and verify it against the full encoding — falling back to
    /// the monolithic solve on any mismatch. Also enables
    /// connected-component splitting inside the solver.
    pub decomposition: bool,
    /// Learned-clause store shared across synthesis runs (warm-start
    /// re-solve), keyed by encoding fingerprint so stale clauses never
    /// replay.
    pub warm: Option<Arc<ClauseStore>>,
}

/// One typed bundle of every solver-configuration knob: strategy, watchdog
/// limits, and the datacenter-scale accelerations (symmetry breaking,
/// decomposition, warm start). This is the single public entry point for
/// configuring how placements are solved — `CompileRequest::with_solve_profile`
/// in the driver, `--solve-profile` in `lyrac`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveProfile {
    /// How to run the solver (one search or a portfolio race).
    pub strategy: SolverStrategy,
    /// Wall-clock budget for the solve phase; expiry triggers the
    /// degradation ladder rather than a failure.
    pub deadline: Option<std::time::Duration>,
    /// Decision budget per search (overrides the solver default).
    pub decision_budget: Option<u64>,
    /// Emit lexicographic tie-breaking constraints over interchangeable
    /// switches (see `lyra_topo::symmetry`).
    pub symmetry_breaking: bool,
    /// Solve per-pod quotient subproblems and replicate, with verified
    /// stitching and monolithic fallback.
    pub decomposition: bool,
    /// Persist learned clauses and variable activity across solves of the
    /// same encoding (incremental re-solve after faults).
    pub warm_start: bool,
}

impl Default for SolveProfile {
    /// The balanced default: portfolio race with every scale acceleration
    /// enabled.
    fn default() -> Self {
        SolveProfile {
            strategy: SolverStrategy::default(),
            deadline: None,
            decision_budget: None,
            symmetry_breaking: true,
            decomposition: true,
            warm_start: true,
        }
    }
}

impl SolveProfile {
    /// Lowest-latency preset: one sequential search with every scale
    /// acceleration on. Best for small problems and tight compile loops
    /// where portfolio spawn overhead dominates.
    pub fn fast() -> Self {
        SolveProfile {
            strategy: SolverStrategy::Sequential,
            ..SolveProfile::default()
        }
    }

    /// Reference preset: a monolithic portfolio race with symmetry
    /// breaking, decomposition, and warm start all *disabled* — the
    /// encoding the accelerations are differentially tested against.
    pub fn thorough() -> Self {
        SolveProfile {
            strategy: SolverStrategy::Portfolio { workers: 0 },
            deadline: None,
            decision_budget: None,
            symmetry_breaking: false,
            decomposition: false,
            warm_start: false,
        }
    }

    /// The default profile under a wall-clock deadline (the degradation
    /// ladder runs on expiry).
    pub fn deadline(d: std::time::Duration) -> Self {
        SolveProfile {
            deadline: Some(d),
            ..SolveProfile::default()
        }
    }

    /// Replace the solver strategy.
    pub fn with_strategy(mut self, strategy: SolverStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, d: std::time::Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set the per-search decision budget.
    pub fn with_decision_budget(mut self, decisions: u64) -> Self {
        self.decision_budget = Some(decisions);
        self
    }

    /// Toggle symmetry breaking.
    pub fn with_symmetry_breaking(mut self, on: bool) -> Self {
        self.symmetry_breaking = on;
        self
    }

    /// Toggle quotient/component decomposition.
    pub fn with_decomposition(mut self, on: bool) -> Self {
        self.decomposition = on;
        self
    }

    /// Toggle warm-start clause reuse.
    pub fn with_warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }
}

impl SynthLimits {
    /// True when no limit is configured — the ladder never triggers and
    /// budget exhaustion surfaces as [`SynthError::BudgetExhausted`],
    /// preserving the historical contract.
    fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_decisions.is_none()
    }
}

/// [`synthesize_full`] under [`SynthLimits`], with graceful degradation.
///
/// The program is encoded **once**; on [`Outcome::Unknown`] from the
/// requested strategy the ladder walks down on the same model:
///
/// 1. the requested strategy (portfolio by default) under the deadline;
/// 2. one sequential search with aggressive restarts, given `grace` extra
///    wall-clock — fast at finding *a* model, no optimality;
/// 3. greedy first-fit placement (no search at all).
///
/// A result produced by rung 2 or 3 carries [`SynthResult::degraded`] so
/// the driver can surface a degraded-result diagnostic. `Unsat` at rung 1
/// or 2 is a genuine refutation and still fails with
/// [`SynthError::Infeasible`]; only when every rung is exhausted does the
/// compile fail with [`SynthError::BudgetExhausted`].
#[allow(clippy::too_many_arguments)]
pub fn synthesize_limited(
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    opts: &EncodeOptions,
    backend: &Backend,
    strategy: SolverStrategy,
    previous: Option<&Placement>,
    limits: &SynthLimits,
) -> Result<SynthResult, SynthError> {
    // Quotient fast path: for symmetric MULTI-SW problems, solve over one
    // representative per interchangeable-switch class, replicate, and
    // verify against the full model. Any failure (ineligible topology,
    // solver timeout, verification mismatch) falls through to the
    // monolithic ladder below — the quotient can only ever *add* a faster
    // route to the same verified answer. Incremental re-solves take it
    // too, on the classes of the topology they solve over (for a failover
    // recompile, the survivors), provided the previous placement is
    // uniform across every class: the representative's hints then stand
    // for every member, so stability hints and replication agree.
    let mut quotient_stats = SearchStats::default();
    if limits.decomposition
        && !opts.stage_detail
        && opts.objective == Objective::Feasible
        && scopes
            .iter()
            .any(|s| s.deploy == lyra_lang::DeployMode::MultiSwitch)
    {
        let classes = interchangeable_classes(topo, scopes);
        if !classes.is_empty() && previous.is_none_or(|p| uniform_across(p, topo, &classes)) {
            let (result, stats) = try_quotient(
                ir, topo, scopes, opts, backend, strategy, previous, limits, &classes,
            );
            match result {
                Some(res) => return Ok(res),
                // Carry any effort the failed attempt spent into the
                // monolithic run's totals, so reporting stays honest.
                None => quotient_stats = stats,
            }
        }
    }

    let enc = encode(ir, topo, scopes, opts).map_err(SynthError::Encode)?;
    let (hints, int_hints) = stability_hints(&enc, topo, previous);

    // Rung 1: the requested strategy under the configured limits.
    let mut total = quotient_stats;
    let (outcome, stats) = backend::solve_with_limits(
        &enc.model,
        enc.objective.as_ref(),
        backend,
        &hints,
        strategy,
        &backend::SolveLimits {
            deadline: limits.deadline,
            max_decisions: limits.max_decisions,
            aggressive_restarts: false,
            decomposition: limits.decomposition,
            warm: limits.warm.clone(),
            int_hints: int_hints.clone(),
        },
    );
    total.absorb(stats);
    let finish = |enc: Encoded, sol, total, degraded| {
        let placement = place::extract(&enc, ir, topo, &sol);
        Ok(SynthResult {
            placement,
            encoded: enc,
            stats: total,
            degraded,
            quotient: false,
        })
    };
    match outcome {
        Outcome::Sat(sol) => return finish(enc, sol, total, None),
        Outcome::Unsat => {
            return Err(SynthError::Infeasible {
                diagnostics: explain::explain_infeasible(&enc, ir, topo, opts),
                stats: total,
            })
        }
        Outcome::Unknown if limits.is_unlimited() => {
            // No limit was set, so Unknown means the solver's own decision
            // budget ran out — the historical failure, not a ladder case.
            return Err(SynthError::BudgetExhausted { stats: total });
        }
        Outcome::Unknown => {}
    }

    // Rung 2: sequential, aggressive restarts, grace window.
    if !limits.grace.is_zero() {
        let (outcome, stats) = backend::solve_with_limits(
            &enc.model,
            enc.objective.as_ref(),
            backend,
            &hints,
            SolverStrategy::Sequential,
            &backend::SolveLimits {
                deadline: Some(std::time::Instant::now() + limits.grace),
                max_decisions: None,
                aggressive_restarts: true,
                decomposition: false,
                warm: limits.warm.clone(),
                int_hints: int_hints.clone(),
            },
        );
        total.absorb(stats);
        match outcome {
            Outcome::Sat(sol) => {
                return finish(enc, sol, total, Some(DegradeRung::SequentialRestarts))
            }
            Outcome::Unsat => {
                return Err(SynthError::Infeasible {
                    diagnostics: explain::explain_infeasible(&enc, ir, topo, opts),
                    stats: total,
                })
            }
            Outcome::Unknown => {}
        }
    }

    // Rung 3: no search at all.
    match greedy::greedy_solution(&enc, ir, topo) {
        Ok(sol) => finish(enc, sol, total, Some(DegradeRung::GreedyFirstFit)),
        // Greedy failing is not a refutation — a real solver run might
        // still succeed by splitting algorithms — so report exhaustion.
        Err(_) => Err(SynthError::BudgetExhausted { stats: total }),
    }
}

/// Bool phase hints and int value hints for one encoding's variables.
type StabilityHints = (Vec<(BoolId, bool)>, Vec<(IntId, i64)>);

/// Stability hints seeding a re-solve from `previous`: every instruction
/// deployment variable of `enc` is hinted to whether the previous placement
/// ran that instruction on that switch, and every extern-count variable to
/// the switch's previous shard size. The solver branches to these values
/// first where the constraints still admit them, so a re-plan moves only
/// what it must. Switches are matched by name, so `topo` may be a degraded
/// copy of the one `previous` was solved on. Both vectors are empty without
/// a previous placement.
fn stability_hints(enc: &Encoded, topo: &Topology, previous: Option<&Placement>) -> StabilityHints {
    let Some(prev) = previous else {
        return (Vec::new(), Vec::new());
    };
    let plan = |sw: SwitchId| prev.switches.get(&topo.switch(sw).name);
    let bools = enc
        .instr_var
        .iter()
        .map(|((alg, sw, instr), &var)| {
            let was_there = plan(*sw)
                .and_then(|p| p.instrs.get(alg))
                .is_some_and(|is| is.contains(instr));
            (var, was_there)
        })
        .collect();
    let ints = enc
        .extern_var
        .iter()
        .map(|((e, sw), &var)| {
            let count = plan(*sw)
                .and_then(|p| p.extern_entries.get(e))
                .copied()
                .unwrap_or(0);
            (var, count as i64)
        })
        .collect();
    (bools, ints)
}

/// True when `previous` places the same instructions and the same extern
/// shard sizes on every member of each class — the only priors whose
/// stability hints a quotient solve can honor, since replication gives
/// every member its representative's assignment. Every quotient-solved
/// placement is uniform; a prior that is not stays on the monolithic path.
fn uniform_across(previous: &Placement, topo: &Topology, classes: &[Vec<SwitchId>]) -> bool {
    let footprint = |sw: SwitchId| {
        previous
            .switches
            .get(&topo.switch(sw).name)
            .map(|p| (&p.instrs, &p.extern_entries))
            .filter(|(instrs, entries)| !instrs.is_empty() || !entries.is_empty())
    };
    classes.iter().all(|class| {
        let rep = footprint(class[0]);
        class[1..].iter().all(|&sw| footprint(sw) == rep)
    })
}

/// Quotient solving: collapse every interchangeable-switch class to its
/// smallest member, solve the (much smaller) quotient encoding, replicate
/// the representative's assignment onto every class member, and verify the
/// replicated solution against the *full* encoding with
/// [`Solution::satisfies`]. Returns `(None, effort)` whenever anything
/// disqualifies the attempt — the caller falls back to the monolithic
/// solve, so this path never changes what is solvable, only how fast.
///
/// A `previous` placement (uniform across `classes`, which the caller
/// checks) seeds the quotient solve through [`stability_hints`] on the
/// quotient encoding: each representative carries its class's shared
/// prior, so the replicated result keeps what the prior kept.
///
/// Soundness does not rest on the class analysis: whatever the quotient
/// produces is accepted *only* after the full model check passes, so a
/// wrong class could at worst waste the quotient solve. The class analysis
/// (`lyra_topo::symmetry`) exists to make the check overwhelmingly likely
/// to pass: verified transpositions map constraints to constraints, so a
/// per-class-constant assignment satisfying the quotient constraints
/// satisfies the full path/resource families too. The full model is
/// encoded only once the quotient solve has returned `Sat`.
///
/// The quotient encodes with symmetry breaking *off*: lex tie-breaking aux
/// variables are internal to the monolithic encoding and are not recorded
/// in [`Encoded`]'s maps, so replication could not populate them; and the
/// quotient has already collapsed the orbits lex ordering would prune.
#[allow(clippy::too_many_arguments)]
fn try_quotient(
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    opts: &EncodeOptions,
    backend: &Backend,
    strategy: SolverStrategy,
    previous: Option<&Placement>,
    limits: &SynthLimits,
    classes: &[Vec<SwitchId>],
) -> (Option<SynthResult>, SearchStats) {
    let mut rep_map: BTreeMap<SwitchId, SwitchId> = BTreeMap::new();
    for class in classes {
        let r = class[0]; // classes are sorted; the smallest id represents
        for &s in class {
            rep_map.insert(s, r);
        }
    }
    let rep = |s: SwitchId| rep_map.get(&s).copied().unwrap_or(s);

    // Quotient scopes: representative switches, mapped + deduplicated
    // paths. A mapped path revisiting a switch (two hops collapsing into
    // one representative) has no counterpart in the path encoding — give
    // up before solving anything.
    let mut q_scopes: Vec<ResolvedScope> = Vec::with_capacity(scopes.len());
    for scope in scopes {
        let mut switches: Vec<SwitchId> = scope.switches.iter().map(|&s| rep(s)).collect();
        switches.sort_unstable();
        switches.dedup();
        let mut paths: Vec<Vec<SwitchId>> = Vec::new();
        for p in &scope.paths {
            let mapped: Vec<SwitchId> = p.iter().map(|&s| rep(s)).collect();
            let distinct: BTreeSet<SwitchId> = mapped.iter().copied().collect();
            if distinct.len() != mapped.len() {
                return (None, SearchStats::default());
            }
            if !paths.contains(&mapped) {
                paths.push(mapped);
            }
        }
        q_scopes.push(ResolvedScope {
            algorithm: scope.algorithm.clone(),
            switches,
            deploy: scope.deploy,
            paths,
        });
    }
    if q_scopes
        .iter()
        .zip(scopes)
        .all(|(q, s)| q.switches.len() == s.switches.len())
    {
        return (None, SearchStats::default()); // quotient is no smaller
    }

    let mut q_opts = opts.clone();
    q_opts.symmetry_breaking = false;
    let Ok(q_enc) = encode(ir, topo, &q_scopes, &q_opts) else {
        return (None, SearchStats::default());
    };
    let (hints, int_hints) = stability_hints(&q_enc, topo, previous);

    let (outcome, stats) = backend::solve_with_limits(
        &q_enc.model,
        None,
        backend,
        &hints,
        strategy,
        &backend::SolveLimits {
            deadline: limits.deadline,
            max_decisions: limits.max_decisions,
            aggressive_restarts: false,
            decomposition: true,
            warm: limits.warm.clone(),
            int_hints,
        },
    );
    let Outcome::Sat(q_sol) = outcome else {
        // Unknown → monolithic retry. Unsat is *not* propagated as a
        // refutation of the full problem: the quotient forces per-class-
        // uniform placements, a strictly stronger model.
        return (None, stats);
    };
    let Ok(full) = encode(ir, topo, scopes, &q_opts) else {
        return (None, stats);
    };

    // Replicate: every full-model variable takes its representative's
    // value; anything unmapped keeps a safe default and is caught by the
    // verification below.
    let replicate = || -> Option<Solution> {
        let mut bools = vec![false; full.model.num_bools()];
        let mut ints: Vec<i64> = full.model.int_decls().map(|(_, d)| d.lo).collect();
        for ((alg, sw, instr), &v) in &full.instr_var {
            let q = q_enc.instr_var.get(&(alg.clone(), rep(*sw), *instr))?;
            bools[v.index()] = q_sol.bool(*q);
        }
        for ((e, sw), &v) in &full.extern_var {
            let q = q_enc.extern_var.get(&(e.clone(), rep(*sw)))?;
            ints[v.index()] = q_sol.int(*q);
        }
        for (&sw, &v) in &full.switch_used {
            let q = q_enc.switch_used.get(&rep(sw))?;
            bools[v.index()] = q_sol.bool(*q);
        }
        for ((sw, alg, table), &v) in &full.table_valid {
            let q = q_enc
                .table_valid
                .get(&(rep(*sw), alg.clone(), table.clone()))?;
            bools[v.index()] = q_sol.bool(*q);
        }
        for ((sw, alg, table), &v) in &full.table_depth {
            let q = q_enc
                .table_depth
                .get(&(rep(*sw), alg.clone(), table.clone()))?;
            ints[v.index()] = q_sol.int(*q);
        }
        Some(Solution::from_parts(bools, ints))
    };
    let Some(sol) = replicate() else {
        return (None, stats);
    };
    // The load-bearing check: the replicated assignment must satisfy every
    // constraint of the full encoding, or the quotient result is discarded.
    if !sol.satisfies(&full.model) {
        return (None, stats);
    }
    let placement = place::extract(&full, ir, topo, &sol);
    (
        Some(SynthResult {
            placement,
            encoded: full,
            stats,
            degraded: None,
            quotient: true,
        }),
        SearchStats::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_ir::frontend;
    use lyra_lang::parse_scopes;
    use lyra_topo::{figure1_network, resolve_scope};

    const LB_SRC: &str = r#"
        pipeline[LB]{loadbalancer};
        algorithm loadbalancer {
            extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
            extern dict<bit[32] vip, bit[8] group>[1024] vip_table;
            bit[32] hash;
            hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
            if (hash in conn_table) {
                ipv4.dstAddr = conn_table[hash];
            }
        }
    "#;

    fn lb_setup() -> (IrProgram, Topology, Vec<ResolvedScope>) {
        let ir = frontend(LB_SRC).unwrap();
        let topo = figure1_network();
        let scopes = parse_scopes(
            "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
        )
        .unwrap();
        let resolved: Vec<ResolvedScope> = scopes
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        (ir, topo, resolved)
    }

    #[test]
    fn lb_places_with_native_backend() {
        let (ir, topo, scopes) = lb_setup();
        let res = synthesize(
            &ir,
            &topo,
            &scopes,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .expect("LB placement must be feasible");
        // Every instruction deployed somewhere; conn_table fully placed on
        // every path.
        assert!(res.placement.used_switches() >= 1);
        let total_conn: u64 = res
            .placement
            .switches
            .values()
            .filter_map(|p| p.extern_entries.get("conn_table"))
            .sum();
        assert!(total_conn >= 1024, "conn_table entries: {total_conn}");
    }

    #[test]
    fn synthesis_reports_solver_stats() {
        let (ir, topo, scopes) = lb_setup();
        let res = synthesize(
            &ir,
            &topo,
            &scopes,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .expect("LB placement must be feasible");
        assert!(
            res.stats.decisions + res.stats.propagations > 0,
            "solving a non-trivial model must record search effort"
        );
    }

    #[test]
    fn per_switch_scope_copies_everywhere() {
        let ir = frontend(
            r#"
            pipeline[P]{int_in};
            algorithm int_in {
                extern list<bit[32] ip>[128] watch;
                if (ipv4.src_ip in watch) { int_enable = 1; }
            }
            "#,
        )
        .unwrap();
        let topo = figure1_network();
        let scopes = parse_scopes("int_in: [ ToR* | PER-SW | - ]").unwrap();
        let resolved: Vec<ResolvedScope> = scopes
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        let res = synthesize(
            &ir,
            &topo,
            &resolved,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .unwrap();
        // All four ToRs get the full program.
        assert_eq!(res.placement.used_switches(), 4);
        for (name, plan) in &res.placement.switches {
            assert!(name.starts_with("ToR"));
            assert_eq!(plan.extern_entries.get("watch"), Some(&128));
            assert!(!plan.tables.is_empty());
        }
    }

    #[test]
    fn infeasible_when_table_exceeds_scope_capacity() {
        // A 100M-entry table cannot fit any single Agg switch pair.
        let ir = frontend(
            r#"
            pipeline[P]{big};
            algorithm big {
                extern dict<bit[32] k, bit[32] v>[100000000] huge;
                if (k in huge) { x = 1; }
            }
            "#,
        )
        .unwrap();
        let topo = figure1_network();
        let scopes =
            parse_scopes("big: [ Agg3,Agg4,ToR3,ToR4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]")
                .unwrap();
        let resolved: Vec<ResolvedScope> = scopes
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        let err = synthesize(
            &ir,
            &topo,
            &resolved,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .unwrap_err();
        let SynthError::Infeasible { diagnostics, .. } = err else {
            panic!("expected Infeasible, got {err:?}");
        };
        // The explanation must name the violated family (memory) and the
        // offending extern.
        assert!(
            diagnostics.iter().any(|d| {
                d.code == Some(lyra_diag::codes::INFEASIBLE_MEMORY) && d.message.contains("huge")
            }),
            "diagnostics: {diagnostics:?}"
        );
    }

    #[test]
    fn unprogrammable_scope_is_error() {
        let ir = frontend("pipeline[P]{a}; algorithm a { x = 1; }").unwrap();
        let topo = figure1_network();
        let scopes = parse_scopes("a: [ Core* | PER-SW | - ]").unwrap();
        let resolved: Vec<ResolvedScope> = scopes
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        let err = synthesize(
            &ir,
            &topo,
            &resolved,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .unwrap_err();
        assert!(matches!(err, SynthError::Encode(_)));
    }

    #[test]
    fn expired_deadline_degrades_to_greedy() {
        let (ir, topo, scopes) = lb_setup();
        let limits = SynthLimits {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            grace: std::time::Duration::ZERO,
            ..Default::default()
        };
        let res = synthesize_limited(
            &ir,
            &topo,
            &scopes,
            &EncodeOptions::default(),
            &Backend::Native,
            SolverStrategy::Sequential,
            None,
            &limits,
        )
        .expect("ladder must produce a degraded placement, not fail");
        assert_eq!(res.degraded, Some(DegradeRung::GreedyFirstFit));
        // The greedy placement still covers every flow path's extern needs.
        let total_conn: u64 = res
            .placement
            .switches
            .values()
            .filter_map(|p| p.extern_entries.get("conn_table"))
            .sum();
        assert!(total_conn >= 1024, "conn_table entries: {total_conn}");
        assert!(res.placement.used_switches() >= 1);
    }

    #[test]
    fn grace_window_runs_sequential_restarts_rung() {
        let (ir, topo, scopes) = lb_setup();
        let limits = SynthLimits {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            grace: std::time::Duration::from_secs(30),
            ..Default::default()
        };
        let res = synthesize_limited(
            &ir,
            &topo,
            &scopes,
            &EncodeOptions::default(),
            &Backend::Native,
            SolverStrategy::Sequential,
            None,
            &limits,
        )
        .expect("grace window is ample for the small LB model");
        // The small LB model solves well inside the grace window, so the
        // ladder stops at the sequential-restarts rung with a placement
        // that satisfies the full constraint model.
        assert_eq!(res.degraded, Some(DegradeRung::SequentialRestarts));
    }

    #[test]
    fn unlimited_synthesis_is_undegraded() {
        let (ir, topo, scopes) = lb_setup();
        let res = synthesize(
            &ir,
            &topo,
            &scopes,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .unwrap();
        assert_eq!(res.degraded, None);
    }

    #[test]
    fn greedy_solution_satisfies_placement_shape() {
        let (ir, topo, scopes) = lb_setup();
        let enc = encode(&ir, &topo, &scopes, &EncodeOptions::default()).unwrap();
        let sol = greedy::greedy_solution(&enc, &ir, &topo).unwrap();
        let placement = place::extract(&enc, &ir, &topo, &sol);
        // Whole-algorithm hosting: each hosting switch carries every
        // instruction of the algorithm.
        let n_instrs = ir.algorithm("loadbalancer").unwrap().instrs.len();
        for plan in placement.switches.values() {
            if let Some(is) = plan.instrs.get("loadbalancer") {
                assert_eq!(is.len(), n_instrs, "greedy never splits an algorithm");
            }
        }
        // Both Agg->ToR path families are covered (Agg3 and Agg4 are the
        // first programmable hops of their respective paths).
        assert!(placement.used_switches() >= 1);
    }

    #[test]
    fn min_switches_objective_compacts() {
        let ir = frontend(
            r#"
            pipeline[P]{small};
            algorithm small {
                bit[32] x;
                x = ipv4.srcAddr + 1;
                ipv4.dstAddr = x;
            }
            "#,
        )
        .unwrap();
        let topo = figure1_network();
        let scopes =
            parse_scopes("small: [ Agg3,Agg4,ToR3,ToR4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]")
                .unwrap();
        let resolved: Vec<ResolvedScope> = scopes
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        let opts = EncodeOptions {
            objective: Objective::MinSwitches,
            ..Default::default()
        };
        let res = synthesize(&ir, &topo, &resolved, &opts, &Backend::Native).unwrap();
        // The whole program fits on the two Aggs (one per path entry) —
        // minimizing switch count must not use more than 2.
        assert!(
            res.placement.used_switches() <= 2,
            "used {} switches",
            res.placement.used_switches()
        );
    }
}
