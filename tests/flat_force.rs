//! Equivalence of the two force-phase kernels: the batched
//! traversal/evaluation kernel over the flat tree snapshot and the
//! recursive walk over the shared tree.
//!
//! At `group_size = 1` the batched kernel degenerates to a per-body list
//! emitted by an explicit-stack pre-order DFS visiting children in octant
//! order — the exact traversal of the recursive walk — and applied in that
//! order; the flatten pass prunes the same husk/empty nodes the recursive
//! walk skips, so on a deterministic build (one processor) the
//! floating-point operation sequence is identical and results must match
//! **bitwise**. At `group_size > 1` every body's interaction *multiset* is
//! still identical (the group bounding-box classification is conservative)
//! but the summation order differs, so those runs agree to ≤1e-12 relative
//! instead. With several
//! processors the leaf body order of the lock-based builders depends on
//! scheduling, which reassociates leaf and center-of-mass summations; there
//! the runs agree to the cross-algorithm suite's documented tolerance.

use bh_repro::bh_core::force::{group_window, zone_group_windows};
use bh_repro::bh_core::prelude::*;
use bh_repro::bh_core::rng::SmallRng;

/// Run `steps` steps and return the final bodies. `group_size` is the
/// batched kernel's group size (only meaningful when `flat` is true).
fn run_grouped(
    alg: Algorithm,
    procs: usize,
    flat: bool,
    group_size: usize,
    bodies: &[Body],
    steps: usize,
) -> Vec<Body> {
    let env = NativeEnv::new(procs);
    let mut cfg = SimConfig::new(alg);
    cfg.warmup_steps = 0;
    cfg.measured_steps = steps;
    cfg.flat_force = flat;
    cfg.group_size = group_size;
    let (stats, state) = run_simulation_with_state(&env, &cfg, bodies);
    stats.assert_valid();
    state
}

fn run(alg: Algorithm, procs: usize, flat: bool, bodies: &[Body], steps: usize) -> Vec<Body> {
    // The bitwise reference configuration: per-body lists.
    run_grouped(alg, procs, flat, 1, bodies, steps)
}

fn assert_bitwise(label: &str, a: &[Body], b: &[Body]) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        for (p, q) in [
            (x.pos.x, y.pos.x),
            (x.pos.y, y.pos.y),
            (x.pos.z, y.pos.z),
            (x.vel.x, y.vel.x),
            (x.vel.y, y.vel.y),
            (x.vel.z, y.vel.z),
        ] {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{label}: body {i} differs ({p:?} vs {q:?})"
            );
        }
    }
}

/// Worst relative position difference between two final states.
fn worst_rel(a: &[Body], b: &[Body]) -> f64 {
    let mut worst = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        worst = worst.max(x.pos.dist(y.pos) / x.pos.norm().max(1.0));
    }
    worst
}

#[test]
fn flat_walk_is_bitwise_identical_on_one_processor() {
    let bodies = Model::Plummer.generate(1200, 42);
    for alg in Algorithm::ALL {
        if alg.builds_flat_directly() {
            // MORTON has no recursive walk to compare against (it never
            // builds the linked tree); its own bitwise gate is below.
            continue;
        }
        let flat = run(alg, 1, true, &bodies, 3);
        let rec = run(alg, 1, false, &bodies, 3);
        assert_bitwise(&format!("{alg} flat vs recursive"), &flat, &rec);
    }
}

#[test]
fn grouped_kernel_matches_per_body_within_tolerance() {
    // At group_size > 1 the interaction multiset is unchanged (the
    // bounding-sphere classification is conservative; the mixed band is
    // resolved per member with the exact criterion) — only the summation
    // order differs, so the drift over a few steps stays far below the
    // 1e-12 relative bound for every algorithm and several group sizes.
    // The reference is group_size = 1, bitwise equal to the per-body walk
    // (`flat_walk_is_bitwise_identical_on_one_processor` and the MORTON
    // gate below).
    let bodies = Model::Plummer.generate(1000, 42);
    for alg in Algorithm::ALL {
        let per_body = run_grouped(alg, 1, true, 1, &bodies, 2);
        for gs in [2, 16, 33] {
            let grouped = run_grouped(alg, 1, true, gs, &bodies, 2);
            let worst = worst_rel(&grouped, &per_body);
            assert!(
                worst < 1e-12,
                "{alg} gs={gs}: grouped vs per-body drifted by {worst:e}"
            );
        }
    }
}

#[test]
fn grouped_kernel_interaction_totals_match_per_body() {
    // Conservative classification means the *count* of interactions is
    // identical too, not just the physics: the batched kernel reports the
    // same total at every group size (the per-step costs it stores are
    // what costzones partitions on).
    let env = NativeEnv::new(1);
    let bodies = Model::Plummer.generate(600, 9);
    let mut totals = Vec::new();
    for gs in [1usize, 4, 16, 64] {
        let mut cfg = SimConfig::new(Algorithm::Morton);
        cfg.warmup_steps = 0;
        cfg.measured_steps = 2;
        cfg.group_size = gs;
        let stats = run_simulation(&env, &cfg, &bodies);
        stats.assert_valid();
        assert!(stats.force_groups() > 0, "gs={gs}: no groups recorded");
        assert!(stats.force_list_entries() > 0, "gs={gs}: empty lists");
        totals.push(stats.force_interactions());
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "interaction totals vary with group size: {totals:?}"
    );
}

#[test]
fn partial_list_evaluation_waste_is_bounded() {
    // A deterministic guard on the evaluation's wasted arithmetic, with no
    // timing: partial-list entries are evaluated only in the chunks that
    // name the member, so pairs computed per interaction applied stay near
    // 1. A full scan of the partial list costs 1.63 at gs=16 and 2.34 at
    // gs=64 on this input; chunk skipping gives 1.10 and 1.17.
    let bodies = Model::Plummer.generate(2048, 1);
    for (gs, bound) in [(16usize, 1.2), (64, 1.3)] {
        let env = NativeEnv::new(1);
        let mut cfg = SimConfig::new(Algorithm::Local);
        cfg.warmup_steps = 1;
        cfg.measured_steps = 1;
        cfg.group_size = gs;
        let stats = run_simulation(&env, &cfg, &bodies);
        stats.assert_valid();
        let ratio = stats.force_eval_ratio();
        assert!(
            (1.0..=bound).contains(&ratio),
            "gs={gs}: {} pairs evaluated for {} interactions (ratio {ratio:.3} > {bound})",
            stats.force_pairs_evaluated(),
            stats.force_interactions()
        );
    }
}

#[test]
fn group_boundaries_never_change_list_membership() {
    // Randomized property: group windows are aligned to absolute order
    // indices, so *which bodies share a list* is a function of
    // (index, group_size, n) alone — no zone partition can change it, and
    // the applied sub-ranges of any partition tile [0, n) exactly once.
    let mut rng = SmallRng::seed_from_u64(0x6c69_7374);
    for case in 0..200u32 {
        let n = rng.gen_range_usize(1, 400);
        let gs = rng.gen_range_usize(1, 50);
        let procs = rng.gen_range_usize(1, 9);
        // Random monotone zone cuts over [0, n).
        let mut cuts: Vec<usize> = (0..procs - 1)
            .map(|_| rng.gen_range_usize(0, n + 1))
            .collect();
        cuts.sort_unstable();
        let mut bounds = vec![0];
        bounds.extend(cuts);
        bounds.push(n);
        let mut covered = vec![0u32; n];
        for q in 0..procs {
            let (s, e) = (bounds[q], bounds[q + 1]);
            for (w0, w1, a0, a1) in zone_group_windows(s, e, gs, n) {
                assert!(s <= a0 && a1 <= e, "case {case}: applied range leaves zone");
                for (i, c) in covered.iter_mut().enumerate().take(a1).skip(a0) {
                    assert_eq!(
                        group_window(i, gs, n),
                        (w0, w1),
                        "case {case}: zone [{s},{e}) changed body {i}'s group"
                    );
                    *c += 1;
                }
            }
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "case {case}: applied ranges do not tile [0, {n}) exactly once"
        );
    }
}

#[test]
fn flat_walk_matches_recursive_in_parallel() {
    let bodies = Model::TwoClusterCollision.generate(1500, 7);
    for alg in Algorithm::ALL {
        if alg.builds_flat_directly() {
            continue;
        }
        // Default config: the batched kernel vs the recursive walk.
        let flat = run_grouped(alg, 4, true, 16, &bodies, 2);
        let rec = run_grouped(alg, 4, false, 16, &bodies, 2);
        let mut worst = 0.0f64;
        for (a, b) in flat.iter().zip(&rec) {
            worst = worst.max(a.pos.dist(b.pos));
        }
        assert!(worst < 1e-9, "{alg}: flat vs recursive diverged by {worst}");
    }
}

#[test]
fn morton_matches_sequential_builder_bitwise_on_one_processor() {
    // MORTON builds the flat tree straight from the sorted key array, so its
    // reference is not a recursive walk of its own tree (there is none) but
    // the sequential builder itself: for a given body set and leaf threshold
    // the octree is unique, the quantized key path routes exactly like the
    // geometric descent, leaves hold bodies in ascending id, and both walks
    // visit children in octant order — the floating-point op sequence is
    // identical, so one-processor trajectories must match bitwise (with
    // per-body lists; larger groups reorder summation by design).
    use bh_repro::bh_core::seq_app::seq_run;
    let bodies = Model::Plummer.generate(1200, 42);
    let steps = 3;
    let par = run(Algorithm::Morton, 1, true, &bodies, steps);
    let mut seq = bodies.clone();
    let cfg = SimConfig::new(Algorithm::Morton);
    seq_run(&mut seq, cfg.k, &cfg.force, cfg.dt, steps);
    assert_bitwise("MORTON vs sequential", &par, &seq);
}

#[test]
fn morton_is_bitwise_processor_count_independent() {
    // The sorted (key, id) array is schedule-independent, the leaf partition
    // is determined by keys and k alone, and every node's mass summation
    // runs over a fixed order (ascending id in leaves, octant order in
    // cells) — so the processor count must not perturb a single bit. This
    // runs the default (batched, group_size = 16) kernel: group windows are
    // aligned to absolute order indices and a split window is traversed
    // identically by both owners, so grouping preserves the property.
    let bodies = Model::TwoClusterCollision.generate(1500, 7);
    let one = run_grouped(Algorithm::Morton, 1, true, 16, &bodies, 2);
    for procs in [2, 4] {
        let many = run_grouped(Algorithm::Morton, procs, true, 16, &bodies, 2);
        assert_bitwise(&format!("MORTON {procs}p vs 1p"), &one, &many);
    }
}

#[test]
fn flat_walk_is_valid_on_simulated_platform() {
    // The cooperative flatten uses plain loads/stores separated by barriers;
    // it must produce a correct snapshot under a simulated machine's timing
    // as well (physics agreement with the native run).
    use bh_repro::ssmp::{platform, Machine};
    let bodies = Model::Plummer.generate(800, 23);
    let native = run_grouped(Algorithm::Space, 2, true, 16, &bodies, 2);
    let machine = Machine::new(platform::origin2000(4), 4);
    let mut cfg = SimConfig::new(Algorithm::Space);
    cfg.warmup_steps = 0;
    cfg.measured_steps = 2;
    let (stats, simulated) = run_simulation_with_state(&machine, &cfg, &bodies);
    stats.assert_valid();
    assert!(stats.flatten_cycles() > 0, "flatten cost must be charged");
    assert!(
        stats.force_groups() > 0 && stats.force_list_entries() > 0,
        "batched kernel must report list metrics on simulated platforms"
    );
    for (a, b) in native.iter().zip(&simulated) {
        assert!(a.pos.dist(b.pos) < 1e-9, "simulation changed the physics");
    }
}
