//! The two engine workloads, native-plummer and sim-svm: all six tree
//! builders run in turn on one warm `SimEngine`, and every run is checked
//! against a 1-processor LOCAL reference computed outside the timed region.
//!
//! Native runs report times in wall nanoseconds and simulated runs in
//! cycles of the modelled machine; dividing by 1e6 gives ms or Mcycles.

use std::time::{Duration, Instant};

use bh_core::app::{PhaseSample, ProcRecord};
use bh_core::prelude::*;
use bh_core::trace::SpanRecord;

use crate::report::{geomean, median, pct, peak_rss_mb, Checks, Outcome};

/// The paper's protocol: warm-up steps, then measured steps.
pub const WARMUP_STEPS: usize = 2;
pub const MEASURED_STEPS: usize = 2;

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

/// Largest allowed gap between the summed layers of a step and the step's
/// span, as a share of the span (median over an algorithm's runs).
pub const ADD_UP_TOL: f64 = 0.01;

/// Fewest traced rounds a probe makes, so the add-up check has a median.
pub const MIN_ROUNDS: usize = 3;

/// Position tolerance against the reference, as in
/// `tests/cross_algorithm.rs`: the rebuild algorithms construct the same
/// tree and agree to rounding; UPDATE keeps a structurally different tree
/// after its first step.
fn tolerance(alg: Algorithm) -> f64 {
    if alg == Algorithm::Update {
        5e-3
    } else {
        1e-9
    }
}

/// The run configuration: k = 8, group size 16, 2 warm-up + 2 measured.
pub fn config(alg: Algorithm) -> SimConfig {
    let mut cfg = SimConfig::new(alg);
    cfg.k = 8;
    cfg.group_size = 16;
    cfg.warmup_steps = WARMUP_STEPS;
    cfg.measured_steps = MEASURED_STEPS;
    cfg
}

/// Final state of the 1-processor LOCAL reference run.
pub fn reference(bodies: &[Body]) -> Vec<Body> {
    SimEngine::new(NativeEnv::new(1))
        .run_with_state(&config(Algorithm::Local), bodies)
        .1
}

/// A run passes when its final tree validated and its final positions
/// match the reference.
pub fn check_state(
    alg: Algorithm,
    stats: &RunStats,
    state: &[Body],
    reference: &[Body],
) -> Result<(), String> {
    if let Some(e) = &stats.validation_error {
        return Err(format!("{alg}: tree validation failed: {e}"));
    }
    if state.len() != reference.len() {
        return Err(format!(
            "{alg}: {} bodies, expected {}",
            state.len(),
            reference.len()
        ));
    }
    let worst = state
        .iter()
        .zip(reference)
        .map(|(a, b)| a.pos.dist(b.pos))
        .fold(0.0, f64::max);
    if worst < tolerance(alg) {
        Ok(())
    } else {
        Err(format!(
            "{alg}: final positions differ from the reference by {worst:e} (tolerance {:e})",
            tolerance(alg)
        ))
    }
}

/// Generate the bodies, create the engine and make its first allocation
/// (a run of zero steps), `SETUP_REPEATS` times. Returns each set-up's
/// seconds and the last set-up's bodies and engine. Only one engine is
/// alive at a time, so the process's peak memory is the workload's own.
pub fn setup<E: Env>(
    make_env: &impl Fn() -> E,
    n: usize,
    seed: u64,
) -> (Vec<f64>, Vec<Body>, SimEngine<E>) {
    let mut alloc = config(Algorithm::Orig);
    alloc.warmup_steps = 0;
    alloc.measured_steps = 0;
    alloc.validate = false;
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // The previous engine's pool joins here, outside the timed region.
        drop(last.take());
        let t = Instant::now();
        let bodies = Model::Plummer.generate(n, seed);
        let mut engine = SimEngine::new(make_env());
        engine.run(&alloc, &bodies);
        times.push(t.elapsed().as_secs_f64());
        last = Some((bodies, engine));
    }
    let (bodies, engine) = last.expect("SETUP_REPEATS > 0");
    (times, bodies, engine)
}

/// One checked run and its wall time.
pub struct Sample {
    pub alg: Algorithm,
    pub wall: Duration,
    pub stats: RunStats,
}

/// Run `alg` once and check the result. With `corrupt` set, the final
/// state is perturbed before the check (and the flag cleared), which the
/// check must count as a failure.
pub fn run_checked<E: Env>(
    engine: &mut SimEngine<E>,
    alg: Algorithm,
    bodies: &[Body],
    reference: &[Body],
    checks: &mut Checks,
    corrupt: &mut bool,
) -> Sample {
    let cfg = config(alg);
    let t = Instant::now();
    let (stats, mut state) = engine.run_with_state(&cfg, bodies);
    let wall = t.elapsed();
    if std::mem::take(corrupt) {
        state[0].pos.x += 1e-3;
    }
    checks.record(check_state(alg, &stats, &state, reference));
    Sample { alg, wall, stats }
}

/// All six algorithms in turn.
pub fn round<E: Env>(
    engine: &mut SimEngine<E>,
    bodies: &[Body],
    reference: &[Body],
    checks: &mut Checks,
    corrupt: &mut bool,
) -> Vec<Sample> {
    Algorithm::ALL
        .iter()
        .map(|&alg| run_checked(engine, alg, bodies, reference, checks, corrupt))
        .collect()
}

/// Median of `f` over each algorithm's runs, in `Algorithm::ALL` order.
fn per_alg_median(rounds: &[Vec<Sample>], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    Algorithm::ALL
        .iter()
        .map(|&alg| {
            let of: Vec<f64> = rounds
                .iter()
                .flatten()
                .filter(|s| s.alg == alg)
                .map(&f)
                .collect();
            median(&of)
        })
        .collect()
}

/// An untraced engine workload: compute the reference, set up, one warm
/// round, then rounds until `seconds` have passed (at least one).
pub fn workload<E: Env>(
    make_env: impl Fn() -> E,
    n: usize,
    seed: u64,
    seconds: f64,
    mut corrupt: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let reference = reference(&Model::Plummer.generate(n, seed));
    let (setup_times, bodies, mut engine) = setup(&make_env, n, seed);
    round(
        &mut engine,
        &bodies,
        &reference,
        &mut out.checks,
        &mut false,
    );

    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(round(
            &mut engine,
            &bodies,
            &reference,
            &mut out.checks,
            &mut corrupt,
        ));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| round_rate(n, r.iter().map(|s| s.wall)))
        .collect();
    // Each algorithm is one class of job with its median run time as its
    // latency; the percentiles are over the six classes (p99 is the slowest
    // algorithm). A few dozen runs cannot support a pooled p99, which would
    // be the single slowest run.
    let latencies = per_alg_median(&rounds, |s| s.wall.as_secs_f64() * 1e3);
    out.set("setup_s", median(&setup_times));
    // A round is six jobs of n × 4 body-steps each.
    let body_steps_per_s = median(&rates);
    let body_steps_per_job = (n * (WARMUP_STEPS + MEASURED_STEPS)) as f64;
    out.set("body_steps_per_s", body_steps_per_s);
    out.set("jobs_per_s", body_steps_per_s / body_steps_per_job);
    out.set("latency_ms_p50", pct(&latencies, 50.0));
    out.set("latency_ms_p99", pct(&latencies, 99.0));
    out.set("peak_rss_mb", peak_rss_mb());

    out.note(format!(
        "{} timed rounds of {} runs, n={n}",
        rounds.len(),
        Algorithm::ALL.len()
    ));
    let per_alg = per_alg_median(&rounds, |s| {
        s.stats.total_time() as f64 / MEASURED_STEPS as f64 / 1e6
    });
    let cells: Vec<String> = Algorithm::ALL
        .iter()
        .zip(&per_alg)
        .map(|(alg, v)| format!("{alg} {v:.3}"))
        .collect();
    out.note(format!(
        "step time per measured step (ms natively, Mcycles simulated): {}; geomean {:.3}",
        cells.join(", "),
        geomean(&per_alg)
    ));
    out
}

/// What a traced layer probe collected.
pub struct Probe {
    /// Untraced rounds, interleaved with the traced ones.
    pub untraced: Vec<Vec<Sample>>,
    /// Traced rounds: each run with the spans it recorded.
    pub traced: Vec<Vec<(Sample, Vec<SpanRecord>)>>,
    pub checks: Checks,
}

/// Alternate untraced and traced rounds (one warm round each first) until
/// `seconds` have passed, at least `MIN_ROUNDS` pairs.
pub fn probe<E: Env>(make_env: impl Fn() -> E, n: usize, seed: u64, seconds: f64) -> Probe {
    let mut checks = Checks::default();
    let bodies = Model::Plummer.generate(n, seed);
    let reference = reference(&bodies);
    let mut plain = SimEngine::new(make_env());
    let mut traced = SimEngine::new(TraceEnv::new(make_env()));
    let procs = plain.env().num_procs();
    let mut no = false;
    round(&mut plain, &bodies, &reference, &mut checks, &mut no);
    round(&mut traced, &bodies, &reference, &mut checks, &mut no);

    let start = Instant::now();
    let mut out_plain = Vec::new();
    let mut out_traced = Vec::new();
    loop {
        out_plain.push(round(&mut plain, &bodies, &reference, &mut checks, &mut no));
        let mut runs = Vec::new();
        for alg in Algorithm::ALL {
            let before = span_counts(traced.env(), procs);
            let sample = run_checked(&mut traced, alg, &bodies, &reference, &mut checks, &mut no);
            runs.push((sample, spans_since(traced.env(), &before)));
        }
        out_traced.push(runs);
        if out_traced.len() >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Probe {
        untraced: out_plain,
        traced: out_traced,
        checks,
    }
}

fn span_counts<E: Env>(env: &TraceEnv<E>, procs: usize) -> Vec<usize> {
    let mut counts = vec![0; procs];
    for s in env.spans() {
        counts[s.proc] += 1;
    }
    counts
}

/// Spans recorded after `before` was taken (spans are kept per processor,
/// in order).
fn spans_since<E: Env>(env: &TraceEnv<E>, before: &[usize]) -> Vec<SpanRecord> {
    let mut seen = vec![0; before.len()];
    env.spans()
        .into_iter()
        .filter(|s| {
            seen[s.proc] += 1;
            seen[s.proc] > before[s.proc]
        })
        .collect()
}

/// One run's layers per measured step, in the environment's unit, from
/// the critical-path processor's record.
#[derive(Debug, Clone, Copy)]
pub struct StepLayers {
    pub build: f64,
    pub flatten: f64,
    pub sort: f64,
    pub partition: f64,
    pub force: f64,
    pub update: f64,
}

impl StepLayers {
    pub fn sum(&self) -> f64 {
        self.build + self.flatten + self.sort + self.partition + self.force + self.update
    }
}

/// The processor whose phases took longest: the critical path.
fn critical(sample: &Sample) -> Result<&ProcRecord, String> {
    sample
        .stats
        .procs_records
        .iter()
        .max_by_key(|r| r.steps.iter().map(PhaseSample::total).sum::<u64>())
        .ok_or_else(|| format!("{}: no processor records", sample.alg))
}

/// Split a run into layers. Build is the tree phase minus flatten minus
/// sort.
pub fn step_layers(sample: &Sample) -> Result<StepLayers, String> {
    let alg = sample.alg;
    let rec = critical(sample)?;
    let sum = |f: fn(&PhaseSample) -> u64| rec.steps.iter().map(f).sum::<u64>() as f64;
    let tree = sum(|s| s.tree);
    let (flatten, sort) = (rec.flatten_time as f64, rec.sort_time as f64);
    if flatten + sort > tree {
        return Err(format!(
            "{alg}: flatten {flatten} + sort {sort} exceed the tree phase {tree}"
        ));
    }
    let m = sample.stats.measured_steps as f64;
    Ok(StepLayers {
        build: (tree - flatten - sort) / m,
        flatten: flatten / m,
        sort: sort / m,
        partition: sum(|s| s.partition) / m,
        force: sum(|s| s.force) / m,
        update: sum(|s| s.update) / m,
    })
}

/// The critical-path processor's time per measured step, measured
/// independently of its record: from the first to the last of its spans
/// in each measured step of a traced run.
pub fn step_span(sample: &Sample, spans: &[SpanRecord]) -> Result<f64, String> {
    let proc = critical(sample)?.proc;
    let stats = &sample.stats;
    let first = stats.warmup_steps as u32;
    let mut step = 0.0;
    for s in first..first + stats.measured_steps as u32 {
        let mine = spans.iter().filter(|sp| sp.proc == proc && sp.step == s);
        let start = mine.clone().map(|sp| sp.start).min();
        let end = mine.map(|sp| sp.end).max();
        match (start, end) {
            (Some(a), Some(b)) => step += (b - a) as f64,
            _ => return Err(format!("{}: no spans for step {s}", sample.alg)),
        }
    }
    Ok(step / stats.measured_steps as f64)
}

/// An algorithm's layers add up when, in its median traced run, they sum
/// to the step span within `ADD_UP_TOL`. Each run is its layers and its
/// step span. The median, because natively a thread preempted between two
/// spans of one run leaves time no span covers.
pub fn check_add_up(alg: Algorithm, runs: &[(StepLayers, f64)]) -> Result<(), String> {
    let gaps: Vec<f64> = runs
        .iter()
        .map(|(l, step)| (l.sum() - step).abs() / step)
        .collect();
    let gap = median(&gaps);
    if gap <= ADD_UP_TOL {
        Ok(())
    } else {
        Err(format!(
            "{alg}: the layers and the step span are {:.2}% apart in the median run",
            100.0 * gap
        ))
    }
}

/// Wall time of a run minus the time its step spans cover (warm-up
/// included, the union over processors): the engine's reset, validation
/// and hand-off cost. Native spans only (they share the wall clock's unit).
pub fn run_overhead_ns(sample: &Sample, spans: &[SpanRecord]) -> f64 {
    let mut intervals: Vec<(u64, u64)> = spans.iter().map(|sp| (sp.start, sp.end)).collect();
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    sample.wall.as_nanos() as f64 - covered as f64
}

/// Per-algorithm layer metrics with the unit `suffix` (`ms` or
/// `mcycles`), each the median over the untraced rounds: tracing adds work
/// to every lock acquire, which only the locking builders would pay.
/// Checks that each algorithm's layers add up in the traced rounds.
pub fn phase_layers(probe: &Probe, suffix: &str, out: &mut Outcome) {
    let mut traced: Vec<(Algorithm, (StepLayers, f64))> = Vec::new();
    for (sample, spans) in probe.traced.iter().flatten() {
        match step_layers(sample).and_then(|l| Ok((l, step_span(sample, spans)?))) {
            Ok(run) => traced.push((sample.alg, run)),
            Err(e) => out.checks.record(Err(e)),
        }
    }
    let mut plain: Vec<(Algorithm, StepLayers)> = Vec::new();
    for sample in probe.untraced.iter().flatten() {
        match step_layers(sample) {
            Ok(l) => plain.push((sample.alg, l)),
            Err(e) => out.checks.record(Err(e)),
        }
    }
    for alg in Algorithm::ALL {
        let runs: Vec<(StepLayers, f64)> = traced
            .iter()
            .filter(|(a, _)| *a == alg)
            .map(|(_, r)| *r)
            .collect();
        out.checks.record(check_add_up(alg, &runs));
        let runs: Vec<StepLayers> = plain
            .iter()
            .filter(|(a, _)| *a == alg)
            .map(|(_, l)| *l)
            .collect();
        let of = |f: fn(&StepLayers) -> f64| {
            median(&runs.iter().map(|l| f(l) / 1e6).collect::<Vec<_>>())
        };
        out.set(format!("algorithms.build_{suffix}.{alg}"), of(|l| l.build));
        if alg.builds_flat_directly() {
            out.set(format!("algorithms.morton.sort_{suffix}"), of(|l| l.sort));
        } else {
            out.set(format!("tree.flatten_{suffix}.{alg}"), of(|l| l.flatten));
        }
        out.set(format!("partition.{suffix}.{alg}"), of(|l| l.partition));
        out.set(format!("force.{suffix}.{alg}"), of(|l| l.force));
        out.set(format!("update_phase.{suffix}.{alg}"), of(|l| l.update));
    }
}

/// Body-steps per second of a round of six runs with these wall times.
pub fn round_rate(n: usize, walls: impl IntoIterator<Item = Duration>) -> f64 {
    let secs: f64 = walls.into_iter().map(|w| w.as_secs_f64()).sum();
    (n * (WARMUP_STEPS + MEASURED_STEPS) * Algorithm::ALL.len()) as f64 / secs
}
