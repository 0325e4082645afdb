//! `replay`: seeded traffic through the compiled data plane, one worker.
//!
//! Fixed-size chunks alternate between two deployments that use the data
//! plane differently: NetCache MULTI-SW k = 8 with a small hot table
//! (register reads, and per-packet register writes isolated per packet),
//! and LB MULTI-SW k = 8 with 10^5 `conn_table` entries (lookup-heavy).
//! The LB keys are drawn uniformly over the 32-bit space `crc32_hash`
//! produces, so nearly every lookup misses (hit rate about 10^5 / 2^32)
//! after a binary search that ends anywhere in the table; the placement
//! replicates the table on the four ToRs, 16 bytes an entry, so the
//! searched data is 4 x 1.6 MB. One operation is a chunk of each, timed
//! by the packet-processing time the replay reports (wall clock) and by
//! the CPU time of the replay worker (the serving-plane snapshot each
//! `replay_compiled` call takes first, on the calling thread, is not
//! packet work and is in neither).
//! Chunk seeds cycle through a short seeded list, so every chunk seed
//! repeats within a run and its effects and digest must repeat exactly.

use std::time::Instant;

use lyra::{
    replay_compiled, replay_interpreted, CompileOutput, CompileRequest, CompiledDeployment,
    Compiler, ReplayConfig, Runtime,
};
use lyra_apps::programs;

use crate::stats::Rng;
use crate::{multi_scopes, named, pod, Kind, Outcome, Repeats, RunCfg, Stopwatch, Verdict};

const K: usize = 8;
/// Packets per chunk.
const CHUNK: u64 = 1 << 17;
/// Distinct chunk seeds per deployment.
const CHUNK_SEEDS: usize = 8;
/// Packets in the interpreter comparison prefix.
const PREFIX: u64 = 20_000;
/// NetCache hot keys: replayed key fields are mostly small values, so
/// installing keys 0..256 gives a mix of cache hits and misses.
const NETCACHE_HOT_KEYS: u64 = 256;
/// LB `conn_table` entries, keys uniform over 32 bits.
const LB_ENTRIES: usize = 100_000;
/// Tail percentile. The LB lookups run out of the shared L3, so a chunk
/// slows by up to 2x while a neighbour on the host thrashes it; a p90
/// over 100-odd pairs moved by a fifth between runs of one seed, p75
/// (40 pairs) less.
const TAIL_PCT: f64 = 75.0;

/// Per-layer metrics of this workload, each split by deployment.
pub const LAYER_METRICS: [&str; 5] = [
    "dataplane.build_ms",
    "dataplane.ops",
    "dataplane.ns_per_pkt",
    "dataplane.effects_per_kpkt",
    "dataplane.interp_kpps",
];

struct Serving {
    class: &'static str,
    output: CompileOutput,
    table: &'static str,
    entries: Vec<(u64, u64)>,
}

impl Serving {
    fn build(class: &'static str, seed: u64) -> Serving {
        let (program, alg, table, entries) = match class {
            "netcache" => {
                let mut rng = Rng::new(seed ^ 0x4e43);
                let hot = (0..NETCACHE_HOT_KEYS)
                    .map(|k| (k, rng.below(1 << 16)))
                    .collect();
                (programs::netcache(), "netcache", "cache_lookup", hot)
            }
            _ => (
                programs::load_balancer(1_000_000),
                "loadbalancer",
                "conn_table",
                crate::uniform_entries(LB_ENTRIES, seed ^ 0x4c42, 1 << 32, 1 << 32),
            ),
        };
        let scopes = multi_scopes(alg, K);
        let output = Compiler::new()
            .compile(&CompileRequest::new(&program, &scopes, pod(K)))
            .expect("serving replay deployment compiles");
        Serving {
            class,
            output,
            table,
            entries,
        }
    }

    fn runtime(&self) -> Runtime<'_> {
        let mut rt = Runtime::new(&self.output);
        rt.install_many(self.table, &self.entries)
            .expect("seeded entries fit the table");
        rt
    }
}

fn config(packets: u64, workers: usize, seed: u64) -> ReplayConfig {
    ReplayConfig::default()
        .with_packets(packets)
        .with_workers(workers)
        .with_seed(seed)
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut outcome = Outcome::new("replay", TAIL_PCT);
    let t = &cfg.tracer;
    let mut deployments = Vec::new();
    for _ in 0..cfg.setup_repeats {
        let (built, secs) = crate::timed(|| {
            ["netcache", "lb"].map(|class| {
                let op = t.open(&format!("setup.{class}"));
                let serving = Serving::build(class, cfg.seed);
                drop(std::hint::black_box(serving.runtime()));
                let dep = t.span("dataplane.build_ms", || {
                    CompiledDeployment::new(&serving.output)
                });
                t.close();
                t.count(op, "dataplane.ops", dep.op_count() as f64);
                serving
            })
        });
        outcome.setup_s.push(secs);
        deployments = Vec::from(built);
    }
    let runtimes: Vec<Runtime<'_>> = deployments.iter().map(Serving::runtime).collect();
    let mut rng = Rng::new(cfg.seed ^ 0x7e91a);
    let seeds: Vec<Vec<u64>> = deployments
        .iter()
        .map(|_| (0..CHUNK_SEEDS).map(|_| rng.next_u64()).collect())
        .collect();

    let mut repeats = Repeats::default();
    let mut delivered = [0u64; 2];
    let mut busy_s = [0f64; 2];
    let mut exposure = 0;
    let mut panics = 0;
    let start = Instant::now();
    let mut chunk = 0usize;
    while chunk < cfg.min_ops(TAIL_PCT) || start.elapsed().as_secs_f64() < cfg.seconds {
        let (mut pair_ms, mut pair_cpu_ms) = (0.0, 0.0);
        for (d, (serving, rt)) in deployments.iter().zip(&runtimes).enumerate() {
            let seed = seeds[d][chunk % CHUNK_SEEDS];
            let op = t.open(&format!("replay.{}", serving.class));
            // The call builds the serving-plane snapshot on this thread and
            // runs the packets on the worker it spawns; only the worker's
            // CPU time is packet work.
            let cpu = Stopwatch::start();
            let report = replay_compiled(rt, &config(CHUNK, 1, seed));
            pair_cpu_ms += cpu.spawned_cpu_ms();
            t.close();
            pair_ms += crate::ms(report.elapsed);
            t.count(
                op,
                "dataplane.ns_per_pkt",
                report.elapsed.as_nanos() as f64 / report.delivered.max(1) as f64,
            );
            t.count(
                op,
                "dataplane.effects_per_kpkt",
                report.effects as f64 * 1e3 / report.delivered.max(1) as f64,
            );
            outcome.attempted += report.packets;
            outcome.failed += report.packets - report.delivered;
            exposure += report.mixed_epoch_exposure;
            panics += report.worker_panics;
            delivered[d] += report.delivered;
            busy_s[d] += report.elapsed.as_secs_f64();
            repeats.observe(
                &format!("{}/chunk{}", serving.class, chunk % CHUNK_SEEDS),
                &[
                    ("delivered", report.delivered),
                    ("effects", report.effects),
                    ("digest", report.digest),
                ],
            );
        }
        outcome.push_op((pair_ms, pair_cpu_ms));
        chunk += 1;
    }

    // Checks on a prefix of the first chunk seed, outside the timed loop.
    let lb = 1;
    let lb_compiled = replay_compiled(&runtimes[lb], &config(PREFIX, 1, seeds[lb][0]));
    let lb_interp = replay_interpreted(&runtimes[lb], &config(PREFIX, 1, seeds[lb][0]));
    let nc = 0;
    let nc_one = replay_compiled(&runtimes[nc], &config(PREFIX, 1, seeds[nc][0]));
    let nc_two = replay_compiled(&runtimes[nc], &config(PREFIX, 2, seeds[nc][0]));
    if t.enabled() {
        let nc_interp = replay_interpreted(&runtimes[nc], &config(PREFIX, 1, seeds[nc][0]));
        for (class, r) in [("netcache", &nc_interp), ("lb", &lb_interp)] {
            let op = t.open(&format!("interp.{class}"));
            t.close();
            t.count(op, "dataplane.interp_kpps", r.pps / 1e3);
        }
    }

    repeats.record_into(&mut outcome.counts);
    outcome.verdicts.push(Verdict::new(
        "every packet delivered",
        outcome.failed == 0,
        Kind::Accounted,
        format!(
            "{} of {} packets not delivered",
            outcome.failed, outcome.attempted
        ),
    ));
    outcome.verdicts.push(Verdict::new(
        "zero mixed-epoch exposure and no worker panics",
        exposure == 0 && panics == 0,
        Kind::Hard,
        format!("{exposure} mixed-epoch packets, {panics} worker panics"),
    ));
    outcome.verdicts.push(Verdict::new(
        "LB compiled effects equal the interpreter's",
        lb_compiled.effects == lb_interp.effects && lb_compiled.delivered == lb_interp.delivered,
        Kind::Hard,
        format!(
            "{} packets: compiled {} effects, interpreter {}",
            PREFIX, lb_compiled.effects, lb_interp.effects
        ),
    ));
    outcome.verdicts.push(Verdict::new(
        "NetCache digest independent of the worker count",
        nc_one.digest == nc_two.digest && nc_one.effects == nc_two.effects,
        Kind::Hard,
        format!(
            "{} packets: 1 worker {:016x}, 2 workers {:016x}",
            PREFIX, nc_one.digest, nc_two.digest
        ),
    ));
    outcome.verdicts.push(repeats.verdict(
        "per-chunk-seed delivered, effects and digest repeat exactly",
        Kind::Hard,
    ));
    outcome.named = vec![
        named(
            "replay_mpps_netcache",
            delivered[nc] as f64 / busy_s[nc] / 1e6,
            "Mpps",
        ),
        named(
            "replay_mpps_lb",
            delivered[lb] as f64 / busy_s[lb] / 1e6,
            "Mpps",
        ),
    ];
    outcome
}
