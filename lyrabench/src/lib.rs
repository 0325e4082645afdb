//! The Lyra benchmark: three workloads, one per end-to-end path.
//!
//! * `compile-mix` — closed loop of compile jobs drawn from a fixed
//!   catalogue (the compile path users wait on);
//! * `failover` — closed loop of single-switch kills on a running NetCache
//!   pod (the self-healing MTTR path);
//! * `replay` — seeded traffic through the compiled data plane of two
//!   deployments (the packet path).
//!
//! Each workload returns an [`Outcome`]: per-operation latencies, set-up
//! times, the failure accounting, correctness verdicts and the counts the
//! determinism check compares. Layer timings come from a separate traced
//! run ([`trace::Tracer`]); end-to-end numbers only from untraced runs.

pub mod compile_mix;
pub mod failover;
pub mod replay;
pub mod stats;
pub mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lyra_topo::{fat_tree_pod, Topology};

pub use trace::Tracer;

/// Set-up is repeated this many times per untraced run; `setup_s` is the
/// median, so a few slow repetitions (each set-up compiles with the
/// default portfolio, whose CPU time depends on which worker wins the
/// race) do not move it.
pub const SETUP_REPEATS: usize = 7;

/// One workload run's settings.
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// How many times the set-up is performed (and timed).
    pub setup_repeats: usize,
    /// Keep measuring past `seconds` until the workload's tail percentile
    /// has ten samples beyond it (untraced runs, which report it).
    pub tail_samples: bool,
    /// Run the correctness checks that follow the measured loop (oracle,
    /// repeat checks); off only for the untraced half of a traced run,
    /// which exists to time operations.
    pub verify: bool,
    pub tracer: Arc<Tracer>,
}

/// How a failed check counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A failure makes the run incorrect (`"correct": false`).
    Hard,
    /// A failure is already counted in `failed` as a failed operation.
    Accounted,
    /// A defect of the program that the benchmark reports on every run but
    /// counts neither in `failed` nor against `correct`: the known oracle
    /// divergences, and those that only some seeds' cases find.
    Reported,
    /// Recorded and printed; not a correctness condition.
    Info,
}

#[derive(Debug, Clone)]
pub struct Verdict {
    pub check: String,
    pub ok: bool,
    pub kind: Kind,
    pub detail: String,
}

impl Verdict {
    pub fn new(check: &str, ok: bool, kind: Kind, detail: impl Into<String>) -> Self {
        Verdict {
            check: check.to_string(),
            ok,
            kind,
            detail: detail.into(),
        }
    }
}

/// A metric printed by name in the human-readable report.
#[derive(Debug, Clone)]
pub struct Named {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn named(name: &str, value: f64, unit: &'static str) -> Named {
    Named {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    /// Operations attempted and failed (compile jobs, failovers, packets).
    pub attempted: u64,
    pub failed: u64,
    /// Wall-clock latency of every measured operation, in ms.
    pub op_ms: Vec<f64>,
    /// CPU time of every measured operation, in ms (same order): the
    /// whole process's, or for replay its worker thread's.
    pub op_cpu_ms: Vec<f64>,
    /// The tail percentile this workload reports (the highest one its run
    /// length supports with ten samples beyond it).
    pub tail_pct: f64,
    /// Process CPU time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// The headline metrics of this workload, printed by name.
    pub named: Vec<Named>,
    pub verdicts: Vec<Verdict>,
    /// Deterministic counts keyed by operation and count name, as first
    /// seen in this run; printed so later changes can cite them.
    pub counts: BTreeMap<String, u64>,
}

impl Outcome {
    pub fn new(workload: &'static str, tail_pct: f64) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            op_ms: Vec::new(),
            op_cpu_ms: Vec::new(),
            tail_pct,
            setup_s: Vec::new(),
            named: Vec::new(),
            verdicts: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.verdicts.iter().all(|v| v.ok || v.kind != Kind::Hard)
    }

    /// Record one measured operation.
    pub fn push_op(&mut self, (wall_ms, cpu_ms): (f64, f64)) {
        self.op_ms.push(wall_ms);
        self.op_cpu_ms.push(cpu_ms);
    }

    pub fn op_ms_p50(&self) -> f64 {
        stats::median(&self.op_ms)
    }

    pub fn op_ms_tail(&self) -> f64 {
        stats::percentile(&self.op_ms, self.tail_pct)
    }

    pub fn op_cpu_ms_p50(&self) -> f64 {
        stats::median(&self.op_cpu_ms)
    }

    pub fn op_cpu_ms_tail(&self) -> f64 {
        stats::percentile(&self.op_cpu_ms, self.tail_pct)
    }

    /// Operations per CPU second of timed work (checks made between
    /// operations are outside the timed regions and do not count).
    pub fn ops_per_cpu_s(&self) -> f64 {
        self.op_cpu_ms.len() as f64 / (self.op_cpu_ms.iter().sum::<f64>() / 1e3)
    }

    pub fn setup_median_s(&self) -> f64 {
        stats::median(&self.setup_s)
    }
}

/// First-seen counts per operation key; every repeat of the key must
/// reproduce them exactly.
#[derive(Default)]
pub struct Repeats {
    first: BTreeMap<String, Vec<(&'static str, u64)>>,
    pub compared: u64,
    pub mismatches: Vec<String>,
    /// Keys whose counts differed between repeats.
    pub varying: BTreeSet<String>,
}

impl Repeats {
    pub fn observe(&mut self, key: &str, counts: &[(&'static str, u64)]) {
        match self.first.get(key) {
            None => {
                self.first.insert(key.to_string(), counts.to_vec());
            }
            Some(prev) => {
                self.compared += 1;
                for ((name, a), (_, b)) in prev.iter().zip(counts) {
                    if a != b {
                        self.mismatches.push(format!("{key} {name}: {a} then {b}"));
                        self.varying.insert(key.to_string());
                    }
                }
            }
        }
    }

    pub fn record_into(&self, counts: &mut BTreeMap<String, u64>) {
        for (key, values) in &self.first {
            for (name, v) in values {
                counts.insert(format!("{key}/{name}"), *v);
            }
        }
    }

    /// The exact-repeat verdict for these counts.
    pub fn verdict(&self, check: &str, kind: Kind) -> Verdict {
        let detail = if self.mismatches.is_empty() {
            format!(
                "{} keys, {} repeats compared, all identical",
                self.first.len(),
                self.compared
            )
        } else {
            format!(
                "{} of {} repeats differ: {}",
                self.mismatches.len(),
                self.compared,
                self.mismatches
                    .iter()
                    .take(4)
                    .cloned()
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        };
        Verdict::new(check, self.mismatches.is_empty(), kind, detail)
    }
}

/// Directory for trace files (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl RunCfg {
    /// Operations the measured loop must complete, besides running for
    /// `seconds`: enough for `tail_pct` when the run reports it, else one.
    pub fn min_ops(&self, tail_pct: f64) -> usize {
        if self.tail_samples {
            stats::samples_for(tail_pct)
        } else {
            1
        }
    }
}

/// Time `f` as one set-up repetition: process CPU seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Stopwatch::start();
    let out = f();
    (out, t.read().1 / 1e3)
}

/// Wall-clock and process CPU time of one timed region.
pub struct Stopwatch {
    wall: Instant,
    cpu_ms: f64,
    own_cpu_ms: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_ms: stats::process_cpu_ms(),
            own_cpu_ms: stats::thread_cpu_ms(),
        }
    }

    /// (wall ms, CPU ms) since [`Stopwatch::start`].
    pub fn read(&self) -> (f64, f64) {
        (
            ms(self.wall.elapsed()),
            stats::process_cpu_ms() - self.cpu_ms,
        )
    }

    /// CPU ms since [`Stopwatch::start`] of every thread but the calling
    /// one: the work of the threads a call spawned, without the caller's.
    pub fn spawned_cpu_ms(&self) -> f64 {
        self.read().1 - (stats::thread_cpu_ms() - self.own_cpu_ms)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The Figure 10 pod: k/2 Trident-4 Aggs over k/2 Tofino ToRs.
pub fn pod(k: usize) -> Topology {
    fat_tree_pod(k, "tofino-32q", "trident4")
}

/// MULTI-SW scope of `alg` over the whole pod, Aggs to ToRs.
pub fn multi_scopes(alg: &str, k: usize) -> String {
    let aggs: Vec<String> = (1..=k / 2).map(|i| format!("Agg{i}")).collect();
    let tors: Vec<String> = (1..=k / 2).map(|i| format!("ToR{i}")).collect();
    format!(
        "{alg}: [ ToR*,Agg* | MULTI-SW | ({}->{}) ]",
        aggs.join(","),
        tors.join(",")
    )
}

/// `n` distinct keys drawn uniformly below `key_bound`, ascending, with
/// seeded values below `value_bound`.
pub fn uniform_entries(n: usize, seed: u64, key_bound: u64, value_bound: u64) -> Vec<(u64, u64)> {
    assert!(n as u64 <= key_bound, "{n} distinct keys below {key_bound}");
    let mut rng = stats::Rng::new(seed);
    let mut keys = BTreeSet::new();
    while keys.len() < n {
        keys.insert(rng.below(key_bound));
    }
    keys.into_iter()
        .map(|k| (k, rng.below(value_bound)))
        .collect()
}

/// `n` distinct ascending keys with seeded values below `value_bound`.
pub fn seeded_entries(n: usize, seed: u64, value_bound: u64) -> Vec<(u64, u64)> {
    let mut rng = stats::Rng::new(seed);
    let mut key = 0u64;
    (0..n)
        .map(|_| {
            key += 1 + rng.below(7);
            (key, rng.below(value_bound))
        })
        .collect()
}

/// Per-layer metrics the traced run emits, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<String> {
    let mut names = Vec::new();
    for m in compile_mix::LAYER_METRICS {
        names.push(m.to_string());
        for fam in ["fig9", "multi", "per"] {
            names.push(format!("{m}.{fam}"));
        }
    }
    for m in compile_mix::MULTI_ONLY_METRICS {
        names.push(m.to_string());
        names.push(format!("{m}.multi"));
    }
    for m in failover::LAYER_METRICS {
        for class in ["tor", "agg"] {
            names.push(format!("{m}.{class}"));
        }
    }
    for m in replay::LAYER_METRICS {
        for class in ["netcache", "lb"] {
            names.push(format!("{m}.{class}"));
        }
    }
    names
}

/// Per-layer metrics of a traced run: the compile-mix metrics pooled over
/// job families and split by family, the others split only.
pub fn layer_metrics(tracer: &Tracer) -> BTreeMap<String, f64> {
    let unsplit = [
        compile_mix::LAYER_METRICS.as_slice(),
        &compile_mix::MULTI_ONLY_METRICS,
    ]
    .concat();
    tracer.layer_metrics(&unsplit)
}

/// Unit of a per-layer metric, from its name.
pub fn layer_unit(name: &str) -> &'static str {
    if name.contains("_ms") || name.contains(".ms") {
        "ms"
    } else if name.contains("_mb") {
        "MB"
    } else if name.contains("ns_per_pkt") {
        "ns"
    } else if name.contains("effects_per_kpkt") {
        "1/kpkt"
    } else if name.contains("kpps") {
        "kpps"
    } else {
        "count"
    }
}
