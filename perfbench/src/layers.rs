//! The traced run: per-layer metrics for every layer, each measured on the
//! workload that exercises it (native phases on native-plummer, simulated
//! phases and the protocol engine on sim-svm, the serve layers on
//! serve-mix). Its output does not depend on `--workload`. Layer values
//! come from the untraced rounds of each probe; the traced rounds serve the
//! add-up check, the engine's run overhead and the cost of tracing.

use bh_core::env::CtxStats;
use bh_core::prelude::*;
use ssmp::{platform, Machine};

use crate::engine::{self, phase_layers, round_rate, run_overhead_ns, MEASURED_STEPS};
use crate::report::{geomean, median, Outcome};

/// The builders that take locks in the tree phase; SPACE and MORTON are
/// lock-free, so their lock metrics would read zero by construction.
const LOCKING: [Algorithm; 4] = [
    Algorithm::Orig,
    Algorithm::Local,
    Algorithm::Update,
    Algorithm::Partree,
];

/// Native layers: phase times in ms, the force kernel's counters, barrier
/// wait, engine overhead and the cost of tracing itself.
pub fn native(n: usize, procs: usize, seed: u64, seconds: f64) -> Outcome {
    let probe = engine::probe(|| NativeEnv::new(procs), n, seed, seconds);
    let mut out = Outcome::default();
    phase_layers(&probe, "ms", &mut out);

    let runs: Vec<_> = probe.untraced.iter().flatten().collect();
    let sum = |f: &dyn Fn(&RunStats) -> f64| runs.iter().map(|s| f(&s.stats)).sum::<f64>();
    let interactions = sum(&|s| s.force_interactions() as f64);
    let entries = sum(&|s| s.force_list_entries() as f64);
    let groups = sum(&|s| s.force_groups() as f64);
    let force_s = sum(&|s| s.force_time() as f64 / 1e9);
    out.set("force.interactions_per_s", interactions / force_s);
    out.set("force.list_len", entries / groups);
    out.set("force.list_reuse", interactions / entries);
    out.set(
        "harness.barrier_wait_share",
        sum(&|s| s.barrier_wait_total() as f64)
            / sum(&|s| (s.total_time() * s.procs as u64) as f64),
    );

    let overheads: Vec<f64> = probe
        .traced
        .iter()
        .flatten()
        .map(|(sample, spans)| run_overhead_ns(sample, spans) / 1e6)
        .collect();
    out.set("engine.run_overhead_ms", median(&overheads));

    let traced: Vec<f64> = probe
        .traced
        .iter()
        .map(|r| round_rate(n, r.iter().map(|(s, _)| s.wall)))
        .collect();
    let plain: Vec<f64> = probe
        .untraced
        .iter()
        .map(|r| round_rate(n, r.iter().map(|s| s.wall)))
        .collect();
    let (traced, plain) = (median(&traced), median(&plain));
    out.set("trace_overhead", traced / plain);
    out.note(format!(
        "native probe: n={n}, P={procs}, {} traced + {} untraced rounds; \
         traced {traced:.0} vs untraced {plain:.0} body-steps/s",
        probe.traced.len(),
        probe.untraced.len()
    ));
    out.checks.merge(probe.checks);
    out
}

/// Protocol events a simulated processor paid for: misses, page faults and
/// lock acquires.
fn events(c: &CtxStats) -> f64 {
    (c.local_misses + c.remote_misses + c.page_faults + c.lock_acquires) as f64
}

/// Simulated layers on Typhoon-0 HLRC: phase cycles, lock and imbalance
/// effects of each builder, and the protocol engine's own host cost.
pub fn sim(n: usize, procs: usize, seed: u64, seconds: f64) -> Outcome {
    let probe = engine::probe(
        || Machine::new(platform::typhoon0_hlrc(procs), procs),
        n,
        seed,
        seconds,
    );
    let mut out = Outcome::default();
    phase_layers(&probe, "mcycles", &mut out);

    let m = MEASURED_STEPS as f64;
    let all_phases = |s: &RunStats, f: fn(&CtxStats) -> u64| -> f64 {
        s.procs_records
            .iter()
            .flat_map(|r| r.phases.iter())
            .map(f)
            .sum::<u64>() as f64
    };
    let mut step_mcycles = Vec::new();
    for alg in Algorithm::ALL {
        let runs: Vec<&RunStats> = probe
            .untraced
            .iter()
            .flatten()
            .filter(|s| s.alg == alg)
            .map(|s| &s.stats)
            .collect();
        let per =
            |f: &dyn Fn(&RunStats) -> f64| median(&runs.iter().map(|s| f(s)).collect::<Vec<_>>());
        if LOCKING.contains(&alg) {
            out.set(
                format!("algorithms.lock_acquires.{alg}"),
                per(&|s| s.tree_locks_per_proc().iter().sum::<u64>() as f64 / m),
            );
            out.set(
                format!("algorithms.lock_wait_share.{alg}"),
                per(&|s| {
                    let wait: u64 = s.procs_records.iter().map(|r| r.tree_lock_wait).sum();
                    let busy: u64 = s
                        .procs_records
                        .iter()
                        .map(|r| r.phases[Phase::Tree.index()].time)
                        .sum();
                    wait as f64 / busy as f64
                }),
            );
        }
        out.set(
            format!("algorithms.imbalance.{alg}"),
            per(&|s| s.tree_imbalance()),
        );
        out.set(
            format!("ssmp.page_faults.{alg}"),
            per(&|s| all_phases(s, |c| c.page_faults) / m),
        );
        step_mcycles.push(per(&|s| s.total_time() as f64 / m / 1e6));
    }
    out.set("ssmp.step_mcycles", geomean(&step_mcycles));

    let per_step: Vec<f64> = probe
        .untraced
        .iter()
        .map(|r| {
            let total: f64 = r
                .iter()
                .map(|s| {
                    s.stats
                        .procs_records
                        .iter()
                        .flat_map(|rec| rec.phases.iter())
                        .map(events)
                        .sum::<f64>()
                })
                .sum();
            total / (m * r.len() as f64)
        })
        .collect();
    out.set("ssmp.events_per_step", median(&per_step));
    let ns_per_event: Vec<f64> = probe
        .untraced
        .iter()
        .map(|r| {
            let wall: f64 = r.iter().map(|s| s.wall.as_nanos() as f64).sum();
            let ev: f64 = r
                .iter()
                .flat_map(|s| s.stats.procs_records.iter())
                .map(|rec| events(&rec.final_stats))
                .sum();
            wall / ev
        })
        .collect();
    out.set("ssmp.host_ns_per_event", median(&ns_per_event));
    out.note(format!(
        "sim probe: Typhoon-0 HLRC, n={n}, P={procs}, {} traced + {} untraced rounds",
        probe.traced.len(),
        probe.untraced.len()
    ));
    out.checks.merge(probe.checks);
    out
}
