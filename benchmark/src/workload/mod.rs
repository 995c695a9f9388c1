//! The three workloads and what they share: input loading, timing,
//! output checks and metric bookkeeping.

pub mod pagerank;
pub mod ppr;
pub mod serve;

use crate::input::{self, RmatSpec};
use crate::json::Json;
use crate::trace::Tracer;
use pcpm_core::algebra::PlusF32;
use pcpm_core::{Engine, PcpmConfig};
use pcpm_graph::Csr;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// A workload the benchmark can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 20-iteration PageRank on a scale-22 graph (the paper's regime).
    Pagerank,
    /// Batches of 16 single-seed PPR queries on a scale-14 graph.
    PprBatch,
    /// Closed-loop mixed reads and updates against the TCP server.
    ServeMixed,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Pagerank, Workload::PprBatch, Workload::ServeMixed];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pagerank => "pagerank-rmat22",
            Workload::PprBatch => "ppr-batch16-rmat14",
            Workload::ServeMixed => "serve-mixed-rmat14",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The input graph for `seed`.
    pub fn spec(self, seed: u64) -> RmatSpec {
        let (scale, edge_factor) = match self {
            Workload::Pagerank => (22, 16),
            Workload::PprBatch => (14, 8),
            Workload::ServeMixed => (14, 8),
        };
        RmatSpec {
            scale,
            edge_factor,
            seed,
        }
    }

    /// Runs the workload; `ctx.traced` adds the per-layer measurements.
    pub fn run(self, ctx: &mut Ctx) -> Result<Outcome, String> {
        match self {
            Workload::Pagerank => pagerank::run(ctx),
            Workload::PprBatch => ppr::run(ctx),
            Workload::ServeMixed => serve::run(ctx),
        }
    }
}

/// What a workload run needs from the command line.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// How long the main operation loop runs.
    pub seconds: f64,
    /// Directory for cached inputs and result files.
    pub work: PathBuf,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Span recorder; disabled in timed runs.
    pub tr: Tracer,
}

/// Every unit a metric may carry.
pub const UNITS: [&str; 10] = [
    "s", "ms", "ns", "1/s", "MiB", "B", "GB/s", "ratio", "x", "count",
];

/// A named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (PageRank runs, PPR batches, requests).
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// Descriptions of the first 20 failures.
    pub failures: Vec<String>,
    /// The gated end-to-end metrics, shared by every workload.
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end figures, under their own names.
    pub report: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Working-set sizes to set against the caches.
    pub sizes: Vec<(&'static str, u64)>,
    /// Further facts for the result file.
    pub notes: Vec<(String, Json)>,
}

impl Outcome {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an operation already counted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Adds a gated end-to-end metric.
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64) {
        self.end_to_end.push(metric(name, unit, value));
    }

    /// Adds a workload-named end-to-end figure.
    pub fn reported(&mut self, name: &str, unit: &'static str, value: f64) {
        self.report.push(metric(name, unit, value));
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.layers.push(metric(name, unit, value));
    }

    /// Adds the gated metrics every workload reports (set-up time, peak
    /// memory, 90th-percentile operation time) and `ops_failed_frac`.
    pub fn common(&mut self, setup_s: &[f64], op_ms: &[f64]) {
        let peak = crate::sys::peak_rss_mib().unwrap_or(f64::NAN);
        self.e2e("setup_s", "s", med(setup_s));
        self.e2e("peak_rss_mb", "MiB", peak);
        self.e2e(
            "op_p90_ms",
            "ms",
            crate::stats::percentile(op_ms, 90.0).unwrap_or(f64::NAN),
        );
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.reported("ops_failed_frac", "ratio", frac);
        if let Some(t) = crate::stats::tail(op_ms) {
            self.notes.push((
                "op_tail_ms".into(),
                Json::obj([
                    ("percentile", Json::Num(t.p)),
                    ("value", Json::Num(t.value)),
                    ("samples", Json::from(t.samples as u64)),
                ]),
            ));
        }
        self.notes.push((
            "op_ms".into(),
            Json::Arr(op_ms.iter().map(|&x| Json::Num(x)).collect()),
        ));
    }
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `xs`, NaN when empty.
pub fn med(xs: &[f64]) -> f64 {
    crate::stats::median(xs).unwrap_or(f64::NAN)
}

/// Times `f`, returning its result and the wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Loads the workload's input graph, generating it first (in a child
/// process, so generation memory stays out of this process's peak) when
/// the cache has no valid copy.
pub fn load_graph(ctx: &mut Ctx, spec: &RmatSpec) -> Result<Csr, String> {
    let path = input::cache_path(&ctx.work, spec);
    if !path.exists() {
        generate_in_child(ctx, spec, &path)?;
    }
    let s = ctx.tr.begin("graph.load");
    let arrays = match input::read_cached(spec, &path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("# cached input rejected ({e}); generating it again");
            generate_in_child(ctx, spec, &path)?;
            input::read_cached(spec, &path).map_err(|e| e.to_string())?
        }
    };
    let g = input::into_csr(spec, arrays);
    ctx.tr.end(s);
    g
}

/// Runs `gen` in a child process, inside a `bench.gen_input` span.
fn generate_in_child(ctx: &mut Ctx, spec: &RmatSpec, path: &std::path::Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let s = ctx.tr.begin("bench.gen_input");
    let status = Command::new(exe)
        .arg("gen")
        .args([
            spec.scale.to_string(),
            spec.edge_factor.to_string(),
            spec.seed.to_string(),
        ])
        .arg(path)
        .status();
    ctx.tr.end(s);
    let status = status.map_err(|e| format!("cannot start the input generator: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("input generator failed: {status}"))
    }
}

/// Seconds every core is kept busy before timing starts.
const WARM_UP_S: f64 = 3.0;

/// Keeps every core busy for [`WARM_UP_S`], in a `bench.warm_up` span.
/// After an idle spell a virtual machine's processors can run slowly for
/// a few seconds; timing starts only after this.
pub fn warm_up(ctx: &mut Ctx) {
    let span = ctx.tr.begin("bench.warm_up");
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let until = Instant::now() + Duration::from_secs_f64(WARM_UP_S);
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut x = t as u64 + 1;
                while Instant::now() < until {
                    for _ in 0..10_000 {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    }
                    std::hint::black_box(x);
                }
            });
        }
    });
    ctx.tr.end(span);
}

/// Runs `op` repeatedly until `seconds` have passed and at least
/// `min_ops` ran; returns each call's wall time in ms.
fn repeat_for(seconds: f64, min_ops: usize, mut op: impl FnMut() -> Duration) -> Vec<f64> {
    let t0 = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut times = Vec::new();
    while times.len() < min_ops || t0.elapsed() < deadline {
        times.push(ms(op()));
    }
    times
}

/// Operation times of a run's main loop.
pub struct OpTimes {
    /// Untraced reference operations (traced run only), ms.
    pub untraced_ms: Vec<f64>,
    /// The measured operations, ms (traced ones in the traced run).
    pub ms: Vec<f64>,
}

impl OpTimes {
    /// Every operation time, untraced and traced.
    pub fn all(&self) -> Vec<f64> {
        self.untraced_ms.iter().chain(&self.ms).copied().collect()
    }
}

/// Runs the main operation loop for `--seconds`, after one untimed
/// operation that fills caches and finishes lazy set-up (its output is
/// still checked). `op` gets the tracer to record into. The traced run
/// spends the first half untraced, inside one `bench.untraced_reference`
/// span, so the traced half can be set against it.
pub fn op_loop(
    ctx: &mut Ctx,
    min_ops: usize,
    mut op: impl FnMut(&mut Tracer) -> Duration,
) -> OpTimes {
    let mut off = Tracer::new(false);
    let s = ctx.tr.begin("bench.warm_op");
    op(&mut off);
    ctx.tr.end(s);
    if !ctx.traced {
        let ms = repeat_for(ctx.seconds, min_ops, || op(&mut ctx.tr));
        return OpTimes {
            untraced_ms: Vec::new(),
            ms,
        };
    }
    let half = ctx.seconds / 2.0;
    let min_half = min_ops.div_ceil(2);
    let s = ctx.tr.begin("bench.untraced_reference");
    let untraced_ms = repeat_for(half, min_half, || op(&mut off));
    ctx.tr.end(s);
    let ms = repeat_for(half, min_half, || op(&mut ctx.tr));
    OpTimes { untraced_ms, ms }
}

/// Builds the engine `reps` times, one alive at a time, timing each
/// build for `setup_s`; returns the last engine and the times in s.
pub fn build_engines(
    ctx: &mut Ctx,
    graph: &Csr,
    cfg: PcpmConfig,
    reps: usize,
) -> Result<(Engine<PlusF32>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut engine = None;
    for _ in 0..reps.max(1) {
        drop(engine.take());
        let s = ctx.tr.begin("core.build");
        let (e, took) = timed(|| Engine::<PlusF32>::builder(graph).config(cfg).build());
        ctx.tr.end(s);
        times.push(took.as_secs_f64());
        engine = Some(e.map_err(|e| format!("engine build failed: {e}"))?);
    }
    Ok((engine.expect("at least one build"), times))
}

/// Medians of single `Engine::step` calls.
pub struct StepTimes {
    /// Wall time, ms.
    pub wall_ms: f64,
    /// Scatter phase from `PhaseTimings`, ms.
    pub scatter_ms: f64,
    /// Gather phase from `PhaseTimings`, ms.
    pub gather_ms: f64,
}

/// Deterministic dense input vector number `q` for an `n`-node engine.
pub fn step_input(n: usize, q: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 31 + q * 7) % 17 + 1) as f32 / n as f32)
        .collect()
}

/// Times `reps` single Q=1 steps, each in a span named `name`.
pub fn time_steps(
    ctx: &mut Ctx,
    engine: &mut Engine<PlusF32>,
    name: &'static str,
    reps: usize,
) -> Result<StepTimes, String> {
    let n = engine.num_src() as usize;
    let x = step_input(n, 0);
    let mut y = vec![0.0f32; n];
    let (mut wall, mut scatter, mut gather) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let s = ctx.tr.begin(name);
        let (t, took) = timed(|| engine.step(&x, &mut y));
        ctx.tr.end(s);
        let t = t.map_err(|e| format!("{name} failed: {e}"))?;
        wall.push(ms(took));
        scatter.push(ms(t.scatter));
        gather.push(ms(t.gather));
    }
    Ok(StepTimes {
        wall_ms: med(&wall),
        scatter_ms: med(&scatter),
        gather_ms: med(&gather),
    })
}

/// Whether two score vectors are bit-identical.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether `scores` has `n` finite entries.
pub fn well_formed(scores: &[f32], n: usize) -> bool {
    scores.len() == n && scores.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_wants_n_finite_scores() {
        assert!(well_formed(&[0.5, 0.25], 2));
        assert!(!well_formed(&[0.5, f32::NAN], 2));
        assert!(!well_formed(&[0.5], 2));
        assert!(same_bits(&[0.5], &[0.5]) && !same_bits(&[0.5], &[-0.5]));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
