//! Self-test of the traced run: spans nest inside the operation they time,
//! the layer times of an operation sum to no more than the operation, and
//! the traced run emits exactly the per-layer metrics `BENCHMARK.json`
//! names. Run with `cargo test --release` (the workloads are slow in debug
//! builds).

use std::sync::{Arc, OnceLock};

use lyrabench::{compile_mix, failover, per_layer_names, replay, RunCfg, Tracer};

/// One short traced pass over every workload, shared by the tests.
fn traced() -> &'static Arc<Tracer> {
    static TRACER: OnceLock<Arc<Tracer>> = OnceLock::new();
    TRACER.get_or_init(|| {
        let tracer = Tracer::new(true);
        let cfg = RunCfg {
            seed: 7,
            seconds: 0.01,
            setup_repeats: 1,
            tail_samples: false,
            verify: false,
            tracer: tracer.clone(),
        };
        compile_mix::run(&cfg);
        failover::run(&cfg);
        replay::run(&cfg);
        tracer
    })
}

#[test]
fn spans_nest_inside_their_operation_and_layers_sum_within_it() {
    let spans = traced().spans();
    assert!(!spans.is_empty());
    let mut child_sum_ns = vec![0u64; spans.len()];
    for s in &spans {
        assert!(s.start_ns <= s.end_ns, "{} ends before it starts", s.name);
        let Some(p) = s.parent else {
            assert_eq!(s.op, s.id, "root span {} is its own operation", s.name);
            continue;
        };
        let parent = &spans[p];
        assert_eq!(
            s.op, parent.op,
            "{} and its parent belong to one operation",
            s.name
        );
        assert!(
            parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
            "{} [{}, {}] escapes its parent {} [{}, {}]",
            s.name,
            s.start_ns,
            s.end_ns,
            parent.name,
            parent.start_ns,
            parent.end_ns
        );
        child_sum_ns[p] += s.end_ns - s.start_ns;
    }
    for s in &spans {
        let own = s.end_ns - s.start_ns;
        assert!(
            child_sum_ns[s.id] <= own,
            "layer spans of {} sum to {} ns, more than its {} ns",
            s.name,
            child_sum_ns[s.id],
            own
        );
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric_of_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench = lyra_diag::json::parse(&text).expect("BENCHMARK.json parses");
    let declared: Vec<String> = bench
        .get("per_layer")
        .and_then(|v| v.as_array())
        .expect("per_layer array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("metric name")
                .to_string()
        })
        .collect();
    assert_eq!(declared, per_layer_names(), "BENCHMARK.json per_layer list");

    let emitted = lyrabench::layer_metrics(traced());
    let missing: Vec<&String> = declared
        .iter()
        .filter(|n| !emitted.contains_key(*n))
        .collect();
    assert!(
        missing.is_empty(),
        "per-layer metrics not emitted: {missing:?}"
    );
    for name in &declared {
        assert!(emitted[name].is_finite(), "{name} is not a finite number");
    }
}
