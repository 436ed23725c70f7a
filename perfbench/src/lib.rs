//! # arc-perfbench — query text in, verified result out
//!
//! One run takes a workload and a seed, generates catalogs and query
//! texts, drives the system only through its public calls and checks
//! every result against a reference computed before timing. Each
//! workload is a closed loop with one client: the next operation is sent
//! when the previous one has completed.
//!
//! * Untraced (`--trace 0`): the end-to-end metrics, with every time
//!   normalised to the host's speed (see [`speed`]).
//! * Traced (`--trace 1`): untraced turns (registry counter deltas, the
//!   overhead baseline) alternate with traced turns (one bench-side span
//!   per layer call), then diagnostics run outside any query span
//!   (`EXPLAIN`, profiling, the threads=1/threads=2 re-runs). Prints the
//!   per-layer metrics and writes the spans as Chrome-trace JSON.

pub mod query;
pub mod speed;
pub mod trace;
pub mod workloads;

use arc_core::json::Json;
use query::{execute, expected, lower, EngineCfg, Fingerprint, Lowered, Modality};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use speed::Meter;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Tracer, QUERY};
use workloads::{apply_write, Kind, Op, Scale, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Every timed phase completes at least this many queries, so at least
/// ten samples lie beyond the 90th percentile.
pub const MIN_QUERIES: usize = 100;
/// Diagnostics (explain, profile, thread re-runs) cover at most this many
/// distinct texts, evenly spaced over the workload's texts.
pub const DIAG_QUERIES: usize = 64;

/// End-to-end metrics, printed by the untraced mode: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by the traced mode: name and unit.
pub const PER_LAYER: [(&str, &str); 19] = [
    ("parser.parse_us", "us"),
    ("sql.to_arc_us", "us"),
    ("datalog.lower_us", "us"),
    ("engine.new_us", "us"),
    ("plan.explain_us", "us"),
    ("plan.cache_hit_ratio", "ratio"),
    ("plan.runs_per_query", "count"),
    ("engine.eval_ms", "ms"),
    ("engine.rows_per_result", "ratio"),
    ("engine.semijoin.hit_ratio", "ratio"),
    ("engine.rebuilds_per_write", "count"),
    ("fixpoint.eval_ms", "ms"),
    ("fixpoint.facts_per_ms", "1/ms"),
    ("exec.morsels_per_query", "count"),
    ("exec.speedup_t2", "ratio"),
    ("stats.analyze_ms", "ms"),
    ("guard.degradations", "count"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Kind,
    /// Generation seed.
    pub seed: u64,
    /// Timed seconds (split in two halves in traced mode).
    pub seconds: f64,
    /// Traced mode.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Corrupt the first reference (the self-check of the checker).
    pub corrupt_reference: bool,
    /// Where traced mode writes its Chrome-trace JSON.
    pub trace_out: Option<PathBuf>,
}

impl Options {
    /// Parse `--workload W --seed N --seconds S --trace 0|1` plus the
    /// self-check's `--scale tiny` and `--corrupt-reference`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: Kind::Interactive,
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: Scale::Full,
            corrupt_reference: false,
            trace_out: None,
        };
        let mut workload = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--corrupt-reference" {
                o.corrupt_reference = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Kind::parse(value)
                            .ok_or_else(|| bad("expected interactive, analytic or recursive"))?,
                    )
                }
                "--seed" => o.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    o.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                    if !o.seconds.is_finite() || o.seconds <= 0.0 {
                        return Err(bad("expected a positive number"));
                    }
                }
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                "--scale" => {
                    o.scale = match value.as_str() {
                        "full" => Scale::Full,
                        "tiny" => Scale::Tiny,
                        _ => return Err(bad("expected full or tiny")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        o.workload = workload.ok_or("--workload is required")?;
        Ok(o)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (0: the layer does not run here).
    pub samples: usize,
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Queries attempted in the measured phase(s).
    pub attempted: u64,
    /// Errors, panics, guard trips and wrong results among them.
    pub failed: u64,
    /// The mode's metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines and the JSON record, printed before the
    /// result line.
    pub lines: Vec<String>,
}

impl Report {
    /// `failed / attempted`.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::obj([("value", Json::Float(m.value)), ("unit", text(m.unit))]);
                (m.name.to_string(), value)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median_ns(samples: &[u64], scale: f64) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&n| n as f64 / scale).collect();
    quantile(&v, 0.5)
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build facts every record carries.
pub fn host() -> Vec<(&'static str, String)> {
    vec![
        ("commit", env!("PERFBENCH_COMMIT").to_string()),
        ("toolchain", env!("PERFBENCH_RUSTC").to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
    ]
}

/// Live state of the measured loop.
struct State<'w> {
    wl: &'w Workload,
    /// The catalogs as set up, restored between cycles of a workload that
    /// writes (empty otherwise).
    pristine: Vec<arc_engine::Catalog>,
    catalogs: Vec<arc_engine::Catalog>,
    expected: Vec<Option<Result<Fingerprint, String>>>,
    analyze_ms: Vec<f64>,
}

/// Latencies kept for the quantiles: every sample up to `cap`, then a
/// uniform reservoir of `cap`, so the benchmark's own memory does not
/// grow with the system's throughput (and show in `peak_rss_mb`).
struct Samples {
    cap: usize,
    seen: u64,
    kept: Vec<f64>,
    rng: StdRng,
}

/// Reservoir size of a phase's latencies.
const RESERVOIR: usize = 1 << 16;
/// Reservoir size of one query text's latencies.
const PER_QUERY_RESERVOIR: usize = 128;

impl Samples {
    fn new(cap: usize) -> Samples {
        Samples {
            cap,
            seen: 0,
            kept: Vec::new(),
            rng: StdRng::seed_from_u64(cap as u64),
        }
    }

    fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            if self.kept.is_empty() {
                self.kept.reserve_exact(self.cap);
            }
            self.kept.push(x);
        } else {
            let j = self.rng.gen_range(0..self.seen) as usize;
            if j < self.cap {
                self.kept[j] = x;
            }
        }
    }

    /// Add another set's samples (traced mode merges its turns; the
    /// union is no longer capped).
    fn absorb(&mut self, other: Samples) {
        self.seen += other.seen;
        self.kept.extend(other.kept);
    }

    fn quantile(&self, q: f64) -> f64 {
        quantile(&self.kept, q)
    }
}

/// Throughput (queries/s) and the 50th and 90th latency percentiles (ms)
/// of a run.
#[derive(Debug, Clone, Copy)]
struct Figures {
    qps: f64,
    p50: f64,
    p90: f64,
}

/// What one timed phase measured. Times are normalised to the host's
/// speed (see [`speed`]); `raw_*` are the same as wall time.
struct Phase {
    latencies: Samples,
    raw_latencies: Samples,
    /// Query index → its latencies.
    by_query: BTreeMap<usize, Samples>,
    attempted: u64,
    ok: u64,
    failures: BTreeMap<String, u64>,
    writes: u64,
    timed: Duration,
    raw_timed: Duration,
    /// Probe times (ms).
    probes: Vec<f64>,
    by_modality: BTreeMap<Modality, u64>,
    /// Rows of the verified results (derived facts, for programs).
    result_rows: u64,
}

impl Default for Phase {
    fn default() -> Phase {
        Phase {
            latencies: Samples::new(RESERVOIR),
            raw_latencies: Samples::new(RESERVOIR),
            by_query: BTreeMap::new(),
            attempted: 0,
            ok: 0,
            failures: BTreeMap::new(),
            writes: 0,
            timed: Duration::ZERO,
            raw_timed: Duration::ZERO,
            probes: Vec::new(),
            by_modality: BTreeMap::new(),
            result_rows: 0,
        }
    }
}

impl Phase {
    /// Add another phase's measurements to this one.
    fn absorb(&mut self, other: Phase) {
        self.latencies.absorb(other.latencies);
        self.raw_latencies.absorb(other.raw_latencies);
        for (qi, v) in other.by_query {
            self.by_query
                .entry(qi)
                .or_insert_with(|| Samples::new(PER_QUERY_RESERVOIR))
                .absorb(v);
        }
        self.attempted += other.attempted;
        self.ok += other.ok;
        for (reason, n) in other.failures {
            *self.failures.entry(reason).or_default() += n;
        }
        self.writes += other.writes;
        self.timed += other.timed;
        self.raw_timed += other.raw_timed;
        self.probes.extend(other.probes);
        for (m, n) in other.by_modality {
            *self.by_modality.entry(m).or_default() += n;
        }
        self.result_rows += other.result_rows;
    }

    /// Take normalised durations back from the meter: a write (`None`)
    /// or a query (`Some(index)`).
    fn timed(&mut self, done: Vec<(Option<usize>, Duration)>) {
        for (op, dt) in done {
            self.timed += dt;
            if let Some(qi) = op {
                let ms = dt.as_secs_f64() * 1e3;
                self.latencies.push(ms);
                self.by_query
                    .entry(qi)
                    .or_insert_with(|| Samples::new(PER_QUERY_RESERVOIR))
                    .push(ms);
            }
        }
    }

    /// The reported figures. A stream (`interactive`) reports its verified
    /// queries per second of timed time and the percentiles of all its
    /// latencies. A fixed cycle reports the cycle as it runs when each
    /// text takes its median latency of the run.
    fn figures(&self, wl: &Workload) -> Figures {
        if wl.whole_cycles {
            let medians: Vec<f64> = wl
                .ops
                .iter()
                .filter_map(|op| match op {
                    Op::Query(qi) => Some(self.by_query[qi].quantile(0.5)),
                    Op::Write(_) => None,
                })
                .collect();
            Figures {
                qps: medians.len() as f64 / (medians.iter().sum::<f64>() / 1e3),
                p50: quantile(&medians, 0.5),
                p90: quantile(&medians, 0.9),
            }
        } else {
            Figures {
                qps: self.ok as f64 / self.timed.as_secs_f64(),
                p50: self.latencies.quantile(0.5),
                p90: self.latencies.quantile(0.9),
            }
        }
    }
}

impl State<'_> {
    /// Run the cycle from its start until `budget` of timed work and
    /// `min_queries` queries are done.
    fn phase(&mut self, budget: Duration, min_queries: usize, tr: &mut Tracer) -> Phase {
        let wl = self.wl;
        let mut p = Phase::default();
        let mut meter = Meter::new();
        let n = wl.ops.len();
        let mut i = 0usize;
        loop {
            let pos = i % n;
            let done = p.raw_timed >= budget && p.attempted as usize >= min_queries;
            if done && (pos == 0 || !wl.whole_cycles) {
                break;
            }
            if pos == 0 && wl.has_writes() {
                self.catalogs = self.pristine.clone();
            }
            let normalised = match &wl.ops[pos] {
                Op::Write(w) => {
                    let t = Instant::now();
                    let analyze = apply_write(&mut self.catalogs[w.catalog], w);
                    let dt = t.elapsed();
                    p.raw_timed += dt;
                    p.writes += 1;
                    self.analyze_ms.push(analyze.as_secs_f64() * 1e3);
                    meter.push(None, dt)
                }
                Op::Query(qi) => {
                    let q = &wl.queries[*qi];
                    tr.next_query();
                    let t = Instant::now();
                    let token = tr.begin(QUERY);
                    let catalog = &self.catalogs[q.catalog];
                    let res = catch_unwind(AssertUnwindSafe(|| {
                        execute(q, catalog, &wl.cfg, wl.eval_span, tr)
                    }));
                    tr.end(token);
                    let dt = t.elapsed();
                    p.raw_timed += dt;
                    p.raw_latencies.push(dt.as_secs_f64() * 1e3);
                    p.attempted += 1;
                    *p.by_modality.entry(q.modality).or_default() += 1;
                    let verdict = match (res, &self.expected[pos]) {
                        (Err(_), _) => Err("panic".to_string()),
                        (Ok(Err(e)), _) => {
                            Err(format!("error in {}.{}: {e}", q.label, q.modality.name()))
                        }
                        (Ok(Ok(_)), Some(Err(e))) => Err(format!("no reference: {e}")),
                        (Ok(Ok(rel)), Some(Ok(fp))) => {
                            if Fingerprint::of(&rel.rows) == *fp {
                                p.result_rows += rel.len() as u64;
                                Ok(())
                            } else {
                                Err(format!("wrong result: {}.{}", q.label, q.modality.name()))
                            }
                        }
                        (Ok(Ok(_)), None) => unreachable!("query ops have references"),
                    };
                    match verdict {
                        Ok(()) => p.ok += 1,
                        Err(reason) => *p.failures.entry(reason).or_default() += 1,
                    }
                    meter.push(Some(*qi), dt)
                }
            };
            p.timed(normalised);
            i += 1;
        }
        p.timed(meter.flush());
        p.probes = meter.probes;
        p
    }
}

/// Build catalogs, analyze them, run every distinct query once. Returns
/// the catalogs, the `Catalog::analyze` times and the set-up's time,
/// normalised to the host's speed like the timed phase's.
fn set_up(wl: &Workload) -> (Vec<arc_engine::Catalog>, Vec<f64>, Duration) {
    let mut meter = Meter::new();
    let mut total = Duration::ZERO;
    let mut add = |done: Vec<((), Duration)>| total += done.iter().map(|d| d.1).sum::<Duration>();
    let mut analyze_ms = Vec::new();
    let mut catalogs = Vec::with_capacity(wl.catalogs.len());
    for recipe in &wl.catalogs {
        let t = Instant::now();
        let mut c = recipe();
        let a = Instant::now();
        c.analyze();
        analyze_ms.push(a.elapsed().as_secs_f64() * 1e3);
        add(meter.push((), t.elapsed()));
        catalogs.push(c);
    }
    let mut off = Tracer::new(false);
    for q in &wl.queries {
        let t = Instant::now();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            execute(q, &catalogs[q.catalog], &wl.cfg, wl.eval_span, &mut off)
        }));
        add(meter.push((), t.elapsed()));
    }
    add(meter.flush());
    (catalogs, analyze_ms, total)
}

/// The reference of every query op, computed by replaying the cycle's
/// writes on a copy of the catalogs.
fn references(
    wl: &Workload,
    catalogs: &[arc_engine::Catalog],
    corrupt: bool,
) -> Vec<Option<Result<Fingerprint, String>>> {
    let mut replay = if wl.has_writes() {
        catalogs.to_vec()
    } else {
        Vec::new()
    };
    let mut version = vec![0u64; catalogs.len()];
    let mut memo: HashMap<(usize, u64), Result<Fingerprint, String>> = HashMap::new();
    let mut out = Vec::with_capacity(wl.ops.len());
    for op in &wl.ops {
        match op {
            Op::Write(w) => {
                apply_write(&mut replay[w.catalog], w);
                version[w.catalog] += 1;
                out.push(None);
            }
            Op::Query(qi) => {
                let q = &wl.queries[*qi];
                let current = if replay.is_empty() { catalogs } else { &replay };
                let fp = memo
                    .entry((*qi, version[q.catalog]))
                    .or_insert_with(|| expected(q, &current[q.catalog]))
                    .clone();
                out.push(Some(fp));
            }
        }
    }
    if corrupt {
        if let Some(Some(Ok(fp))) = out.iter_mut().find(|e| e.is_some()) {
            *fp = fp.corrupted();
        }
    }
    out
}

/// Per-query diagnostics outside any query span: `EXPLAIN`, a profiled
/// run (operator actuals), and the same evaluation at threads 1 and 2.
#[derive(Default)]
struct Diagnostics {
    actuals: u64,
    result_rows: u64,
    profiled: usize,
    t1: Duration,
    t2: Duration,
    paired: usize,
    /// `label.modality` → threads-1 time ÷ threads-2 time.
    speedups: Vec<(String, f64)>,
}

fn diagnose(st: &State, tr: &mut Tracer) -> Diagnostics {
    let wl = st.wl;
    let mut d = Diagnostics::default();
    let mut off = Tracer::new(false);
    let step = wl.queries.len().div_ceil(DIAG_QUERIES).max(1);
    for q in wl.queries.iter().step_by(step) {
        tr.next_query();
        let catalog = &st.catalogs[q.catalog];
        let Ok(lowered) = lower(q, catalog, &mut off) else {
            continue;
        };
        let conv = q.modality.conventions();
        let engine = wl.cfg.engine(catalog, conv);
        let _ = tr.span("plan.explain", || match &lowered {
            Lowered::Collection(c) => engine.explain_collection(c),
            Lowered::Program(p) => engine.explain_program(p),
        });
        let profiled = tr.span("engine.profile", || match &lowered {
            Lowered::Collection(c) => engine
                .profile_collection(c)
                .map(|(rel, prof)| (rel.len(), prof)),
            Lowered::Program(p) => engine.profile_program(p).map(|(out, prof)| {
                let rows = out
                    .query
                    .as_ref()
                    .or_else(|| out.defined.get(&q.head))
                    .map_or(0, |r| r.len());
                (rows, prof)
            }),
        });
        if let Ok((rows, prof)) = profiled {
            d.actuals += prof.ops.values().map(|s| s.rows_out).sum::<u64>();
            d.result_rows += rows as u64;
            d.profiled += 1;
        }
        let mut timed_at = |threads: usize, name: &'static str| {
            let cfg = EngineCfg { threads, ..wl.cfg };
            let engine = cfg.engine(catalog, conv);
            let t = Instant::now();
            let ok = tr.span(name, || query::evaluate(&engine, &lowered, &q.head).is_ok());
            ok.then(|| t.elapsed())
        };
        if let (Some(a), Some(b)) = (timed_at(1, "exec.threads1"), timed_at(2, "exec.threads2")) {
            d.t1 += a;
            d.t2 += b;
            d.paired += 1;
            let label = format!("{}.{}", q.label, q.modality.name());
            d.speedups.push((label, a.as_secs_f64() / b.as_secs_f64()));
        }
    }
    d
}

fn ratio(num: u64, den: u64) -> f64 {
    ratio_f(num as f64, den as f64)
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run one workload at one seed.
pub fn run(opts: &Options) -> Report {
    let generating = Instant::now();
    let wl = workloads::build(opts.workload, opts.seed, opts.scale);
    let mut bench_only = generating.elapsed();

    let mut setup_s = Vec::new();
    let mut analyze_ms = Vec::new();
    let mut catalogs = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut catalogs));
        let (c, a, took) = set_up(&wl);
        setup_s.push(took.as_secs_f64());
        catalogs = c;
        analyze_ms.extend(a);
    }
    let referencing = Instant::now();
    let expected = references(&wl, &catalogs, opts.corrupt_reference);
    bench_only += referencing.elapsed();
    // Only a workload that writes needs a pristine copy to restore.
    let pristine = if wl.has_writes() {
        catalogs.clone()
    } else {
        Vec::new()
    };
    let mut st = State {
        wl: &wl,
        pristine,
        catalogs,
        expected,
        analyze_ms,
    };

    let budget = Duration::from_secs_f64(opts.seconds);
    let mut lines = Vec::new();
    let (measured, metrics) = if !opts.trace {
        let p = st.phase(budget, MIN_QUERIES, &mut Tracer::new(false));
        let n = p.latencies.seen as usize;
        let f = p.figures(&wl);
        let metrics = vec![
            metric(0, f.qps, n),
            metric(1, f.p50, n),
            metric(2, f.p90, n),
            metric(3, quantile(&setup_s, 0.5), setup_s.len()),
            metric(4, peak_rss_mb(), 1),
        ];
        (p, metrics)
    } else {
        traced(&mut st, budget, opts, &mut lines)
    };

    let report_lines = describe(opts, &wl, &measured, &metrics, &st.analyze_ms, bench_only);
    lines.splice(0..0, report_lines);
    Report {
        attempted: measured.attempted,
        failed: measured.attempted - measured.ok,
        metrics,
        lines,
    }
}

fn metric(i: usize, value: f64, samples: usize) -> Metric {
    Metric {
        name: END_TO_END[i].0,
        value: if value.is_finite() { value } else { 0.0 },
        unit: END_TO_END[i].1,
        samples,
    }
}

fn layer(name: &'static str, value: f64, samples: usize) -> Metric {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("declared per-layer metric");
    Metric {
        name,
        value: if samples == 0 || !value.is_finite() {
            0.0
        } else {
            value
        },
        unit,
        samples,
    }
}

fn traced(
    st: &mut State,
    budget: Duration,
    opts: &Options,
    lines: &mut Vec<String>,
) -> (Phase, Vec<Metric>) {
    // Untraced (A) and traced (B) segments alternate in short turns, so
    // the host's drift weighs on both sides of the overhead ratio alike.
    let turn = budget / 10;
    let (mut a, mut b) = (Phase::default(), Phase::default());
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut tr = Tracer::new(true);
    while a.raw_timed + b.raw_timed < budget
        || (a.attempted.min(b.attempted) as usize) < MIN_QUERIES
    {
        let before = arc_trace::snapshot();
        a.absorb(st.phase(turn, 1, &mut Tracer::new(false)));
        for (k, v) in arc_trace::snapshot().diff(&before).counters {
            *counters.entry(k).or_default() += v;
        }
        b.absorb(st.phase(turn, 1, &mut tr));
    }
    if st.wl.has_writes() {
        st.catalogs = st.pristine.clone();
    }
    let diag = diagnose(st, &mut tr);
    // Per-text speed-ups fit on one line only for the fixed-cycle workloads.
    if st.wl.queries.len() <= 16 {
        let each: Vec<String> = diag
            .speedups
            .iter()
            .map(|(label, x)| format!("{label}={x:.3}"))
            .collect();
        lines.push(format!("# exec.speedup_t2 by query: {}", each.join(" ")));
    }

    let spans = |name: &str| tr.samples(name);
    let us = |name: &'static str, span: &str| {
        let s = spans(span);
        layer(name, median_ns(s, 1e3), s.len())
    };
    let ms = |name: &'static str, span: &str| {
        let s = spans(span);
        layer(name, median_ns(s, 1e6), s.len())
    };
    let queries = a.attempted;
    let c = |k: &str| counters.get(k).copied().unwrap_or(0);
    let hits = c("plan.cache.hit");
    let lookups = hits + c("plan.cache.miss");
    let rebuilds = c("engine.column.chunk_builds")
        + c("engine.index.hash.builds")
        + c("engine.index.ordered.builds")
        + c("engine.selection.builds");
    let fix = spans("fixpoint.eval");
    let fix_ms: f64 = fix.iter().map(|&n| n as f64 / 1e6).sum();
    let facts = b.result_rows;
    let (unattributed, query_spans) = tr.unattributed_share();
    let p50_a = a.latencies.quantile(0.5);
    let p50_b = b.latencies.quantile(0.5);
    let metrics = vec![
        us("parser.parse_us", "parser.parse"),
        us("sql.to_arc_us", "sql.to_arc"),
        us("datalog.lower_us", "datalog.lower"),
        us("engine.new_us", "engine.new"),
        us("plan.explain_us", "plan.explain"),
        layer(
            "plan.cache_hit_ratio",
            ratio(hits, lookups),
            lookups as usize,
        ),
        layer(
            "plan.runs_per_query",
            ratio(c("plan.runs"), queries),
            queries as usize,
        ),
        ms("engine.eval_ms", "engine.eval"),
        layer(
            "engine.rows_per_result",
            ratio(diag.actuals, diag.result_rows),
            diag.profiled,
        ),
        layer(
            "engine.semijoin.hit_ratio",
            ratio(c("engine.semijoin.hits"), c("engine.semijoin.probes")),
            c("engine.semijoin.probes") as usize,
        ),
        layer(
            "engine.rebuilds_per_write",
            ratio(rebuilds, a.writes),
            a.writes as usize,
        ),
        ms("fixpoint.eval_ms", "fixpoint.eval"),
        layer("fixpoint.facts_per_ms", facts as f64 / fix_ms, fix.len()),
        layer(
            "exec.morsels_per_query",
            ratio(c("exec.morsels"), queries),
            queries as usize,
        ),
        layer(
            "exec.speedup_t2",
            diag.t1.as_secs_f64() / diag.t2.as_secs_f64(),
            diag.paired,
        ),
        layer(
            "stats.analyze_ms",
            quantile(&st.analyze_ms, 0.5),
            st.analyze_ms.len(),
        ),
        layer(
            "guard.degradations",
            c("guard.degradations") as f64,
            queries as usize,
        ),
        layer("bench.unattributed_share", unattributed, query_spans),
        layer(
            "bench.trace_overhead_ratio",
            p50_b / p50_a,
            b.latencies.seen.min(a.latencies.seen) as usize,
        ),
    ];
    if let Some(path) = &opts.trace_out {
        let meta = Json::obj([
            ("workload", text(opts.workload.name())),
            ("seed", Json::Int(opts.seed as i64)),
        ]);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(path, tr.chrome_json(&meta)));
        lines.push(match written {
            Ok(()) => format!("# spans: {}", path.display()),
            Err(e) => format!("# spans not written to {}: {e}", path.display()),
        });
    }
    // Every query of both kinds of segment counts as attempted.
    b.absorb(a);
    (b, metrics)
}

/// The lines printed before the result line: what ran, on which host,
/// every metric with its unit and sample count, and the JSON record.
fn describe(
    opts: &Options,
    wl: &Workload,
    p: &Phase,
    metrics: &[Metric],
    analyze_ms: &[f64],
    bench_only: Duration,
) -> Vec<String> {
    let host = host();
    let failed = p.attempted - p.ok;
    let failed_ratio = ratio(failed, p.attempted);
    let share = |m: Modality| ratio(p.by_modality.get(&m).copied().unwrap_or(0), p.attempted);
    let mut lines = vec![
        format!(
            "# perfbench workload={} seed={} seconds={} trace={} scale={:?}",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.scale
        ),
        format!(
            "# host {}",
            host.iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!("# sizes: {}", wl.sizes),
        format!(
            "# bench-only work (generation, references): {:.3} s",
            bench_only.as_secs_f64()
        ),
        format!(
            "# mix: modality arc={:.3} sql={:.3} datalog={:.3}; repeat share {:.3}; write share {:.3} ({} writes); {} queries",
            share(Modality::Arc),
            share(Modality::Sql),
            share(Modality::Datalog),
            wl.repeat_share,
            wl.write_share(),
            p.writes,
            p.attempted
        ),
        format!(
            "# metric failed_ratio = {failed_ratio} ratio ({failed} of {} attempted)",
            p.attempted
        ),
    ];
    for (reason, n) in &p.failures {
        lines.push(format!("# failure x{n}: {reason}"));
    }
    for m in metrics {
        lines.push(format!(
            "# metric {} = {} {} (samples {})",
            m.name, m.value, m.unit, m.samples
        ));
    }
    let mut per_label: BTreeMap<String, (Vec<f64>, u64)> = BTreeMap::new();
    for (qi, v) in &p.by_query {
        let q = &wl.queries[*qi];
        let e = per_label
            .entry(format!("{}.{}", q.label, q.modality.name()))
            .or_default();
        e.0.extend(&v.kept);
        e.1 += v.seen;
    }
    let by_label = per_label
        .into_iter()
        .map(|(label, (v, seen))| {
            let figures = Json::obj([
                ("p10_ms", Json::Float(quantile(&v, 0.1))),
                ("p50_ms", Json::Float(quantile(&v, 0.5))),
                ("p90_ms", Json::Float(quantile(&v, 0.9))),
                ("samples", Json::Int(seen as i64)),
            ]);
            (label, figures)
        })
        .collect();
    let metric_json = metrics
        .iter()
        .map(|m| {
            let figures = Json::obj([
                ("value", Json::Float(m.value)),
                ("unit", text(m.unit)),
                ("samples", Json::Int(m.samples as i64)),
            ]);
            (m.name.to_string(), figures)
        })
        .collect();
    let mut record = Json::obj([
        ("workload", text(opts.workload.name())),
        ("seed", Json::Int(opts.seed as i64)),
        ("seconds", Json::Float(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("queries", Json::Int(p.attempted as i64)),
        ("writes", Json::Int(p.writes as i64)),
        (
            "raw_qps",
            Json::Float(ratio_f(p.ok as f64, p.raw_timed.as_secs_f64())),
        ),
        ("raw_p50_ms", Json::Float(p.raw_latencies.quantile(0.5))),
        ("raw_p90_ms", Json::Float(p.raw_latencies.quantile(0.9))),
        ("probes", Json::Int(p.probes.len() as i64)),
        ("probe_p10_ms", Json::Float(quantile(&p.probes, 0.1))),
        ("probe_p50_ms", Json::Float(quantile(&p.probes, 0.5))),
        ("probe_p90_ms", Json::Float(quantile(&p.probes, 0.9))),
        ("failed_ratio", Json::Float(failed_ratio)),
        ("render_fallbacks", Json::Int(wl.render_fallbacks as i64)),
        ("analyze_samples", Json::Int(analyze_ms.len() as i64)),
        ("bench_only_s", Json::Float(bench_only.as_secs_f64())),
        ("metrics", Json::Obj(metric_json)),
        ("by_query", Json::Obj(by_label)),
    ]);
    if let Json::Obj(fields) = &mut record {
        for (k, v) in host {
            fields.insert(k.to_string(), Json::Str(v));
        }
    }
    lines.push(Json::obj([("record", record)]).to_string());
    lines
}
