//! In-memory span and counter trace for the traced run.
//!
//! Every operation the benchmark times (a compile job, a failover, a replay
//! chunk pair, a set-up step) is a root span; the calls it makes into each
//! layer's public functions are child spans, and the counts a layer reports
//! are attached to the open operation. Spans stay in memory and are written
//! out once, as a Chrome trace-event file, when the run ends. A disabled
//! tracer records nothing, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lyra::{CompileObserver, Phase};

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Root span (operation) this span belongs to; a root is its own op.
    pub op: usize,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

#[derive(Default)]
struct Buf {
    spans: Vec<Span>,
    /// Indices of spans still open, innermost last.
    open: Vec<usize>,
    /// (op, name, value).
    counters: Vec<(usize, String, f64)>,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    buf: Mutex<Buf>,
}

impl Tracer {
    pub fn new(on: bool) -> Arc<Self> {
        Arc::new(Tracer {
            on,
            t0: Instant::now(),
            buf: Mutex::new(Buf::default()),
        })
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn buf(&self) -> MutexGuard<'_, Buf> {
        self.buf
            .lock()
            .expect("trace buffer lock poisoned by a panicking recorder")
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span (or as a new
    /// operation when none is open); returns its id.
    pub fn open(&self, name: &str) -> usize {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        let mut b = self.buf();
        let id = b.spans.len();
        let parent = b.open.last().copied();
        let op = parent.map_or(id, |p| b.spans[p].op);
        b.spans.push(Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        b.open.push(id);
        id
    }

    /// Close the innermost open span.
    pub fn close(&self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let mut b = self.buf();
        let id = b.open.pop().expect("close() without a matching open()");
        b.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _ = self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Record a closed child span of the innermost open span that ended
    /// now and lasted `elapsed` (for layers that report their own timing
    /// after the fact).
    pub fn record_elapsed(&self, name: &str, elapsed: Duration) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let mut b = self.buf();
        let Some(&parent) = b.open.last() else {
            return;
        };
        let id = b.spans.len();
        let op = b.spans[parent].op;
        // Not clamped to the parent's start: a phase that reports more time
        // than its operation took must show up as an escaping span.
        let start_ns = end_ns.saturating_sub(elapsed.as_nanos() as u64);
        b.spans.push(Span {
            id,
            parent: Some(parent),
            op,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
    }

    /// Attach a count to operation `op` (an id [`Tracer::open`] returned
    /// for a root span).
    pub fn count(&self, op: usize, name: &str, value: f64) {
        if !self.on {
            return;
        }
        self.buf().counters.push((op, name.to_string(), value));
    }

    pub fn spans(&self) -> Vec<Span> {
        self.buf().spans.clone()
    }

    /// Per-layer metrics: for each operation, the durations of its spans
    /// and its counts are summed by name; a `_ms`/`.ms` metric is then the
    /// median of those per-operation sums and a count is their mean. Every
    /// metric is reported under the operation class (the root span's name
    /// after its first `.`, e.g. `fig9` for `compile.fig9`) as
    /// `<metric>.<class>`, and, for names in `unsplit`, also pooled over
    /// every class as `<metric>`.
    pub fn layer_metrics(&self, unsplit: &[&str]) -> BTreeMap<String, f64> {
        let b = self.buf();
        // (metric, class) -> per-op sums keyed by op id.
        let mut per_op: BTreeMap<(String, String), BTreeMap<usize, f64>> = BTreeMap::new();
        let class_of = |op: usize| -> String {
            let root = &b.spans[op].name;
            root.split_once('.')
                .map_or(String::new(), |(_, c)| c.to_string())
        };
        for s in b.spans.iter().filter(|s| s.parent.is_some()) {
            *per_op
                .entry((s.name.clone(), class_of(s.op)))
                .or_default()
                .entry(s.op)
                .or_default() += s.dur_ms();
        }
        for (op, name, v) in &b.counters {
            *per_op
                .entry((name.clone(), class_of(*op)))
                .or_default()
                .entry(*op)
                .or_default() += v;
        }
        let is_time = |m: &str| m.ends_with("_ms") || m.ends_with(".ms");
        let reduce = |m: &str, vals: Vec<f64>| {
            if is_time(m) {
                crate::stats::median(&vals)
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        let mut out = BTreeMap::new();
        let mut pooled: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for ((metric, class), ops) in per_op {
            let vals: Vec<f64> = ops.values().copied().collect();
            if unsplit.contains(&metric.as_str()) {
                pooled.entry(metric.clone()).or_default().extend(&vals);
            }
            out.insert(format!("{metric}.{class}"), reduce(&metric, vals));
        }
        for (metric, vals) in pooled {
            let v = reduce(&metric, vals);
            out.insert(metric, v);
        }
        out
    }

    /// Write every span as a Chrome trace-event JSON file.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let b = self.buf();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, s) in b.spans.iter().enumerate() {
            let sep = if i + 1 == b.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"op\":{},\"parent\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Records compile phases as spans under the open operation, using the
/// phase durations the compiler reports (the PER-SW path interleaves
/// code generation with solving, so wall-clock start/end events would
/// misattribute it). `names` maps a phase to its metric name; phases it
/// maps to `None` are not recorded.
pub struct PhaseSpans {
    pub tracer: Arc<Tracer>,
    pub names: fn(Phase) -> Option<&'static str>,
}

impl CompileObserver for PhaseSpans {
    fn on_phase_end(&self, phase: Phase, elapsed: Duration) {
        if let Some(name) = (self.names)(phase) {
            self.tracer.record_elapsed(name, elapsed);
        }
    }
}
