//! Run state and the persistent simulation engine.
//!
//! [`prepare`] is the one place a run's shared state is allocated and its
//! builder configured. [`crate::app::run_simulation`] calls it with an
//! empty slot and a throwaway worker pool, so it pays the full setup cost
//! on every call — threads spawned and joined, `World`/`SharedTree`/
//! `FlatTree` allocated from scratch. That is fine for a single run but
//! dominates short runs in an experiment sweep, where hundreds of jobs
//! share the same body count and leaf threshold. `SimEngine` keeps both
//! alive:
//!
//! - the [`WorkerPool`] is created once and parks between jobs;
//! - the shared state is `reset()` (not reallocated) whenever the next
//!   job's shape — body count, leaf threshold, tree layout, flat-force
//!   setting — matches the previous one; an incompatible job simply
//!   reallocates.
//!
//! Because `reset()` restores exactly the state a fresh allocation starts
//! with, a reused engine produces **bitwise-identical physics** to a fresh
//! [`crate::app::run_simulation`] call for the same config and bodies
//! (`tests/engine_reuse.rs` certifies this). Timing-derived statistics may
//! of course differ on native environments.

use std::collections::HashMap;

use crate::algorithms::{Algorithm, Builder};
use crate::app::{self, RunStats, SimConfig};
use crate::body::Body;
use crate::env::Env;
use crate::force::ForceScratch;
use crate::harness::WorkerPool;
use crate::tree::flat::FlatTree;
use crate::tree::types::{SharedTree, TreeLayout};
use crate::world::World;

/// The allocation-shape key plus the allocations themselves.
pub(crate) struct EngineState {
    n: usize,
    k: usize,
    layout: TreeLayout,
    has_flat: bool,
    pub(crate) world: World,
    pub(crate) tree: SharedTree,
    pub(crate) flat: Option<FlatTree>,
    /// Interaction-list scratch for the batched force kernel; allocated
    /// with (and shaped like) the flat snapshot.
    pub(crate) force_scratch: Option<ForceScratch>,
    /// One builder per algorithm, kept because some algorithms (Update)
    /// own per-processor scratch arrays sized to `n`.
    builders: HashMap<Algorithm, Builder>,
}

impl EngineState {
    /// Allocate the state for `cfg` over `bodies`, including the builder
    /// for `cfg.algorithm`. The order is fixed — world, tree, builder, flat
    /// snapshot, force scratch — because a simulated machine hands out
    /// addresses in allocation order, and addresses decide cache and page
    /// placement.
    fn new<E: Env>(env: &E, cfg: &SimConfig, bodies: &[Body]) -> EngineState {
        let n = bodies.len();
        let layout = cfg.algorithm.layout();
        let world = World::new(env, bodies);
        let tree = SharedTree::new(env, n, cfg.k, layout);
        let builders = HashMap::from([(cfg.algorithm, Builder::new(env, cfg.algorithm, n, cfg.k))]);
        let flat = cfg.flat_force.then(|| FlatTree::new(env, n, cfg.k, layout));
        let force_scratch = flat
            .as_ref()
            .map(|f| ForceScratch::new(env, f, n, env.num_procs()));
        EngineState {
            n,
            k: cfg.k,
            layout,
            has_flat: cfg.flat_force,
            world,
            tree,
            flat,
            force_scratch,
            builders,
        }
    }

    /// Whether a job of `cfg` over `n` bodies can run on this allocation.
    fn fits(&self, cfg: &SimConfig, n: usize) -> bool {
        self.n == n
            && self.k == cfg.k
            && self.layout == cfg.algorithm.layout()
            && self.has_flat == cfg.flat_force
    }

    /// Restore the state a fresh allocation over `bodies` starts with.
    fn reset(&mut self, bodies: &[Body]) {
        self.world.reset(bodies);
        self.tree.reset();
        if let Some(flat) = &self.flat {
            flat.reset();
        }
        if let Some(scratch) = &self.force_scratch {
            // Hygiene, like FlatTree::reset: evaluation only ever reads
            // entries the same step's traversal emitted.
            scratch.reset();
        }
    }
}

/// Make `slot` ready to run `cfg` over `bodies` — reset in place when its
/// shape fits, freshly allocated otherwise — and return the state with
/// `cfg.algorithm`'s builder, configured from `cfg`. The single allocation
/// path of both [`crate::app::run_simulation`] (an empty slot) and
/// [`SimEngine`] (its cached slot).
pub(crate) fn prepare<'s, E: Env>(
    env: &E,
    slot: &'s mut Option<EngineState>,
    cfg: &SimConfig,
    bodies: &[Body],
) -> (&'s EngineState, &'s Builder) {
    let n = bodies.len();
    match slot {
        Some(st) if st.fits(cfg, n) => st.reset(bodies),
        _ => *slot = Some(EngineState::new(env, cfg, bodies)),
    }
    let st = slot.as_mut().expect("state prepared above");
    let builder = st
        .builders
        .entry(cfg.algorithm)
        .or_insert_with(|| Builder::new(env, cfg.algorithm, n, cfg.k));
    // The threshold/rebalance knobs live on the builder; set them from this
    // job's config so a cached builder carries nothing over from the
    // previous job.
    builder.space_threshold = match cfg.space_threshold {
        Some(t) => t.max(1),
        None => crate::algorithms::space::default_threshold(n, env.num_procs(), cfg.k),
    };
    builder.space_rebalance = cfg.space_rebalance.max(0.0);
    if cfg.algorithm.builds_flat_directly() {
        // Like FlatTree::reset: keep reused-engine runs bitwise
        // indistinguishable from fresh ones (each step overwrites every
        // workspace slot it reads, so this is hygiene, not correctness).
        builder.morton_scratch().reset();
    }
    let st: &'s EngineState = st;
    (st, &st.builders[&cfg.algorithm])
}

/// A reusable simulation engine bound to one environment.
pub struct SimEngine<E: Env> {
    env: E,
    pool: WorkerPool,
    state: Option<EngineState>,
}

impl<E: Env> SimEngine<E> {
    /// Spin up the worker pool for `env`; no simulation state is allocated
    /// until the first run.
    pub fn new(env: E) -> SimEngine<E> {
        let pool = WorkerPool::new(env.num_procs());
        SimEngine {
            env,
            pool,
            state: None,
        }
    }

    /// The engine's environment (e.g. to inspect a checker or trace sink
    /// after runs).
    pub fn env(&self) -> &E {
        &self.env
    }

    /// Run one job; see [`crate::app::run_simulation`]. State from a prior
    /// compatible job is reset and reused instead of reallocated.
    pub fn run(&mut self, cfg: &SimConfig, bodies: &[Body]) -> RunStats {
        self.run_with_state(cfg, bodies).0
    }

    /// Run one job and also return the final body state; see
    /// [`crate::app::run_simulation_with_state`].
    pub fn run_with_state(&mut self, cfg: &SimConfig, bodies: &[Body]) -> (RunStats, Vec<Body>) {
        let (state, builder) = prepare(&self.env, &mut self.state, cfg, bodies);
        app::execute(&self.env, &self.pool, cfg, state, builder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::NativeEnv;
    use crate::model::Model;

    #[test]
    fn engine_reallocates_on_shape_change_and_reuses_otherwise() {
        let mut engine = SimEngine::new(NativeEnv::new(2));
        let small = Model::Plummer.generate(48, 7);
        let large = Model::Plummer.generate(96, 7);
        let mut cfg = SimConfig::new(Algorithm::Partree);
        cfg.warmup_steps = 1;
        cfg.measured_steps = 1;

        engine.run(&cfg, &small).assert_valid();
        assert_eq!(engine.state.as_ref().unwrap().n, 48);
        // Same shape: reuse (the builder map remembers the algorithm).
        engine.run(&cfg, &small).assert_valid();
        assert_eq!(engine.state.as_ref().unwrap().builders.len(), 1);
        // New body count: reallocate, dropping cached builders.
        engine.run(&cfg, &large).assert_valid();
        let st = engine.state.as_ref().unwrap();
        assert_eq!(st.n, 96);
        assert_eq!(st.builders.len(), 1);
    }

    #[test]
    fn engine_switches_algorithms_within_one_allocation() {
        let mut engine = SimEngine::new(NativeEnv::new(2));
        let bodies = Model::Plummer.generate(64, 11);
        for alg in [Algorithm::Local, Algorithm::Update, Algorithm::Space] {
            let mut cfg = SimConfig::new(alg);
            cfg.warmup_steps = 1;
            cfg.measured_steps = 1;
            engine.run(&cfg, &bodies).assert_valid();
        }
        // Local/Update/Space share the per-processor layout: one allocation,
        // three cached builders.
        assert_eq!(engine.state.as_ref().unwrap().builders.len(), 3);
    }
}
