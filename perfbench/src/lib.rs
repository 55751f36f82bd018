//! The repository benchmark: three workloads that drive the Barnes-Hut
//! engine, the simulator and the job server through their public APIs,
//! check every result, and report end-to-end metrics (untraced runs) or
//! per-layer metrics (traced runs). See `README.md` beside this crate.

pub mod engine;
pub mod host;
pub mod layers;
pub mod report;
pub mod serve;

use ssmp::{platform, Machine};

use bh_core::env::NativeEnv;
use report::Outcome;

/// Simulated and native processors of the engine workloads.
pub const PROCS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NativePlummer,
    SimSvm,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::NativePlummer,
        Workload::SimSvm,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NativePlummer => "native-plummer",
            Workload::SimSvm => "sim-svm",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Busy host threads and client connections the workload uses. A
    /// traced run measures every layer, so it needs the most of any.
    pub fn load(self, traced: bool) -> (usize, usize) {
        match (self, traced) {
            (_, true) | (Workload::ServeMix, false) => {
                (serve::WORKERS.max(PROCS), serve::CONNECTIONS)
            }
            _ => (PROCS, 0),
        }
    }
}

/// Problem sizes. `Sizes::FULL` is the benchmark; the self-test uses
/// `Sizes::TINY`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub native_n: usize,
    pub sim_n: usize,
    pub serve_n: usize,
    /// The churn tenant's body counts: more shapes than the engine cache
    /// holds.
    pub churn_n: [usize; 3],
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        native_n: 32768,
        sim_n: 8192,
        serve_n: 2048,
        churn_n: [1920, 1984, 2112],
    };
    pub const TINY: Sizes = Sizes {
        native_n: 512,
        sim_n: 256,
        serve_n: 128,
        churn_n: [96, 112, 144],
    };
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizes: Sizes,
    /// Perturb one final state (or served digest) before it is checked,
    /// to show the check counts it as a failure.
    pub corrupt: bool,
}

/// Share of a traced run's time given to each probe.
const NATIVE_SHARE: f64 = 0.4;
const SIM_SHARE: f64 = 0.3;
const SERVE_SHARE: f64 = 0.3;

/// Run the workload (untraced) or every layer probe (traced).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let s = &opts.sizes;
    let native = || NativeEnv::new(PROCS);
    let sim = || Machine::new(platform::typhoon0_hlrc(PROCS), PROCS);
    if opts.traced {
        let mut out = layers::native(s.native_n, PROCS, opts.seed, opts.seconds * NATIVE_SHARE);
        out.absorb(layers::sim(
            s.sim_n,
            PROCS,
            opts.seed,
            opts.seconds * SIM_SHARE,
        ));
        out.absorb(serve::layers(
            s.serve_n,
            &s.churn_n,
            opts.seed,
            opts.seconds * SERVE_SHARE,
        )?);
        return Ok(out);
    }
    Ok(match opts.workload {
        Workload::NativePlummer => {
            engine::workload(native, s.native_n, opts.seed, opts.seconds, opts.corrupt)
        }
        Workload::SimSvm => engine::workload(sim, s.sim_n, opts.seed, opts.seconds, opts.corrupt),
        Workload::ServeMix => {
            serve::workload(s.serve_n, &s.churn_n, opts.seed, opts.seconds, opts.corrupt)?
        }
    })
}
