//! serve-mix: an in-process bh-serve behind a unix socket, driven in a
//! closed loop by two connections with one job outstanding each. Tenant
//! `steady` repeats one engine shape (the cache-hit path); tenant `churn`
//! cycles through more shapes than the engine cache holds, so every one of
//! its jobs misses. Every response's digest must equal a direct
//! `SimEngine` run of the same spec.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bh_core::prelude::*;
use bh_serve::cache::AnyEngine;
use bh_serve::client::Client;
use bh_serve::exec::run_job;
use bh_serve::job::{digest_bodies, JobSpec};
use bh_serve::json::Json;
use bh_serve::server::{Server, ServerConfig, ServerStats};
use bh_serve::transport::{self, Endpoint};

use crate::report::{median, pct, peak_rss_mb, Checks, Outcome};

/// Executor workers; each runs a 1-processor job, so two busy threads.
pub const WORKERS: usize = 2;
/// Client connections, one per tenant.
pub const CONNECTIONS: usize = 2;
const ENGINE_CAPACITY: usize = 2;
const QUEUE_CAPACITY: usize = 8;
const SETUP_REPEATS: usize = 15;
/// Window length of the served load's metrics.
const WINDOW_S: f64 = 4.0;
/// Direct `run_job` calls per tenant in the traced probe.
const EXEC_SAMPLES: usize = 24;
/// How far the direct exec p50 may exceed the served latency p50, as a
/// share of the latency, before the layers count as not adding up. The two
/// are measured seconds apart on a host whose speed drifts, so this bounds
/// gross errors (a mispaired spec, a unit slip), not the overhead.
const OVERHEAD_TOL: f64 = 0.5;
const PINGS: usize = 200;

const TENANTS: [&str; CONNECTIONS] = ["steady", "churn"];

/// The job specs of both tenants and the digests a direct run gives.
pub struct Mix {
    specs: [Vec<JobSpec>; CONNECTIONS],
    digests: [Vec<u64>; CONNECTIONS],
}

impl Mix {
    /// `steady` runs one spec of `n` bodies; `churn` cycles through one
    /// spec per entry of `churn_n`, which must name more distinct sizes
    /// than the engine cache holds. Jobs are native, 1 processor, PARTREE,
    /// 1 warm-up + 1 measured step.
    pub fn new(n: usize, churn_n: &[usize], seed: u64) -> Mix {
        assert!(churn_n.len() > ENGINE_CAPACITY && !churn_n.contains(&n));
        // The protocol carries integers up to u32::MAX.
        let seed = seed % (1 << 31);
        let spec = |n: usize, seed: u64| {
            let mut s = JobSpec::defaults(n);
            s.seed = seed;
            s
        };
        let steady = vec![spec(n, seed)];
        let churn: Vec<JobSpec> = churn_n
            .iter()
            .enumerate()
            .map(|(i, &n)| spec(n, seed + 1 + i as u64))
            .collect();
        let digests = [
            steady.iter().map(direct_digest).collect(),
            churn.iter().map(direct_digest).collect(),
        ];
        Mix {
            specs: [steady, churn],
            digests,
        }
    }
}

/// Digest of a direct `SimEngine` run of `spec`.
fn direct_digest(spec: &JobSpec) -> u64 {
    let (_, finals) =
        SimEngine::new(NativeEnv::new(spec.procs)).run_with_state(&spec.config(), &spec.bodies());
    digest_bodies(&finals)
}

fn request(id: &str, tenant: &str, spec: &JobSpec) -> String {
    format!(
        "{{\"op\":\"job\",\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"algorithm\":\"{}\",\
         \"platform\":\"native\",\"n\":{},\"procs\":{},\"steps\":{},\"warmup\":{},\"k\":{},\
         \"group_size\":{},\"seed\":{}}}",
        spec.algorithm,
        spec.n,
        spec.procs,
        spec.steps,
        spec.warmup,
        spec.k,
        spec.group_size,
        spec.seed
    )
}

/// A response passes when it is `ok` and carries the expected digest.
/// With `corrupt` set, the received digest is flipped first (and the flag
/// cleared), which must count as a failure.
fn check_response(line: &str, expected: u64, corrupt: &mut bool) -> Result<(), String> {
    let doc = Json::parse(line).map_err(|e| format!("unparsable response {line:?}: {e}"))?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("job failed: {line}"));
    }
    let digest = doc
        .get("digest")
        .and_then(Json::as_str)
        .and_then(|d| u64::from_str_radix(d, 16).ok())
        .ok_or_else(|| format!("response without a digest: {line}"))?;
    let digest = if std::mem::take(corrupt) {
        !digest
    } else {
        digest
    };
    if digest == expected {
        Ok(())
    } else {
        Err(format!(
            "served digest {digest:016x} differs from the direct run's {expected:016x}"
        ))
    }
}

/// A started server and its connected clients.
struct Running {
    listener: JoinHandle<io::Result<ServerStats>>,
    clients: Vec<Client>,
}

/// Start the server, connect both clients and wait for a ping on each.
fn start() -> Result<Running, String> {
    let server = Server::start(ServerConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        engine_capacity: ENGINE_CAPACITY,
        ..Default::default()
    });
    // A relative path keeps the socket inside the working directory and
    // under the unix socket path length limit; the counter keeps servers
    // started concurrently in one process (the self-test) apart.
    static STARTED: AtomicUsize = AtomicUsize::new(0);
    let endpoint = Endpoint::Unix(PathBuf::from(format!(
        ".perfbench-{}-{}.sock",
        std::process::id(),
        STARTED.fetch_add(1, Ordering::Relaxed)
    )));
    let listener = transport::spawn(server, endpoint.clone());
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let mut c = connect(&endpoint)?;
        let pong = c
            .request("{\"op\":\"ping\"}")
            .map_err(|e| format!("ping failed: {e}"))?;
        if !pong.contains("\"pong\":true") {
            return Err(format!("unexpected ping response {pong}"));
        }
        clients.push(c);
    }
    Ok(Running { listener, clients })
}

/// Connect as soon as the listener is bound. (`Client::connect_with_retry`
/// sleeps 20 ms between attempts, which would dominate the set-up time.)
fn connect(endpoint: &Endpoint) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match Client::connect(endpoint) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("cannot connect to the server: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_micros(100)),
        }
    }
}

/// Close the clients, shut the server down and wait for it to drain.
fn stop(mut running: Running) -> Result<ServerStats, String> {
    let mut last = running.clients.pop().expect("a running server has clients");
    drop(running.clients);
    let ack = last
        .request("{\"op\":\"shutdown\"}")
        .map_err(|e| format!("shutdown failed: {e}"))?;
    if !ack.contains("\"shutdown\":true") {
        return Err(format!("unexpected shutdown response {ack}"));
    }
    drop(last);
    running
        .listener
        .join()
        .map_err(|_| "the server's listener panicked".to_string())?
        .map_err(|e| format!("the server's listener failed: {e}"))
}

/// One served job.
struct Served {
    tenant: usize,
    ok: bool,
    latency: Duration,
    body_steps: usize,
    /// Completion time since the loop started.
    done: Duration,
}

/// Each client sends its tenant's next job when the previous one returns,
/// until `seconds` have passed (at least one job each).
fn closed_loop(
    clients: &mut [Client],
    mix: &Mix,
    seconds: f64,
    corrupt: bool,
) -> (Vec<Served>, Checks) {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                scope.spawn(move || {
                    let (specs, digests) = (&mix.specs[t], &mix.digests[t]);
                    let mut corrupt = corrupt && t == 0;
                    let mut checks = Checks::default();
                    let mut served = Vec::new();
                    for k in 0.. {
                        let i = k % specs.len();
                        let line = request(&format!("{}-{k}", TENANTS[t]), TENANTS[t], &specs[i]);
                        let sent = Instant::now();
                        let response = client.request(&line);
                        let latency = sent.elapsed();
                        let broken = response.is_err();
                        let result = response
                            .map_err(|e| format!("connection failed: {e}"))
                            .and_then(|r| check_response(&r, digests[i], &mut corrupt));
                        served.push(Served {
                            tenant: t,
                            ok: result.is_ok(),
                            latency,
                            body_steps: specs[i].n * (specs[i].warmup + specs[i].steps),
                            done: start.elapsed(),
                        });
                        checks.record(result);
                        if broken || start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                    }
                    (served, checks)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut checks = Checks::default();
        for h in handles {
            let (served, c) = h.join().expect("a load client panicked");
            all.extend(served);
            checks.merge(c);
        }
        (all, checks)
    })
}

fn latencies_ms<'a>(served: impl IntoIterator<Item = &'a Served>) -> Vec<f64> {
    served
        .into_iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect()
}

/// The untraced serve-mix workload.
pub fn workload(
    n: usize,
    churn_n: &[usize],
    seed: u64,
    seconds: f64,
    corrupt: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mix = Mix::new(n, churn_n, seed);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut running = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(r) = running.take() {
            stop(r)?;
        }
        let t = Instant::now();
        running = Some(start()?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut running = running.expect("SETUP_REPEATS > 0");
    let (_, warm) = closed_loop(&mut running.clients, &mix, 0.0, false);
    out.checks.merge(warm);
    let (served, checks) = closed_loop(&mut running.clients, &mix, seconds, corrupt);
    out.checks.merge(checks);
    let stats = stop(running)?;

    let wall = served
        .iter()
        .map(|s| s.done)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    // Each metric is the median over windows of the run, so a host stall
    // spoils one window rather than the whole run.
    let windows = ((wall / WINDOW_S) as usize).max(1);
    let len = wall / windows as f64;
    let mut by_window: Vec<Vec<&Served>> = vec![Vec::new(); windows];
    for s in &served {
        by_window[((s.done.as_secs_f64() / len) as usize).min(windows - 1)].push(s);
    }
    let per = |f: &dyn Fn(&[&Served]) -> f64| {
        median(
            &by_window
                .iter()
                .filter(|w| !w.is_empty())
                .map(|w| f(w))
                .collect::<Vec<_>>(),
        )
    };
    out.set("setup_s", median(&setups));
    out.set(
        "body_steps_per_s",
        per(&|w| {
            w.iter()
                .filter(|s| s.ok)
                .map(|s| s.body_steps)
                .sum::<usize>() as f64
                / len
        }),
    );
    out.set(
        "jobs_per_s",
        per(&|w| w.iter().filter(|s| s.ok).count() as f64 / len),
    );
    out.set(
        "latency_ms_p50",
        per(&|w| pct(&latencies_ms(w.iter().copied()), 50.0)),
    );
    out.set(
        "latency_ms_p99",
        per(&|w| pct(&latencies_ms(w.iter().copied()), 99.0)),
    );
    out.set("peak_rss_mb", peak_rss_mb());
    for (t, name) in TENANTS.iter().enumerate() {
        let mine = latencies_ms(served.iter().filter(|s| s.tenant == t));
        out.note(format!(
            "tenant {name}: {} jobs, latency p50 {:.3} ms, p99 {:.3} ms",
            mine.len(),
            pct(&mine, 50.0),
            pct(&mine, 99.0)
        ));
    }
    out.note(format!(
        "{} jobs in {wall:.3} s ({windows} windows); engine cache {} hits, {} misses, {} evictions; queue depth high-water mark {}",
        served.len(),
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        stats.depth_hwm
    ));
    Ok(out)
}

fn field(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("stats response lacks '{key}'"))
}

/// Direct `run_job` timings on the served specs, both tenants at once as
/// the server's two workers run them: steady on one warm engine, churn on
/// a fresh engine per job, as the server's cache serves them.
struct Direct {
    warm: AnyEngine,
    exec: [Vec<f64>; CONNECTIONS],
    fresh: Vec<f64>,
    churned: usize,
}

/// Time one `run_job` call in ms and check its digest.
fn timed_job(engine: &mut AnyEngine, spec: &JobSpec, expected: u64, checks: &mut Checks) -> f64 {
    let t = Instant::now();
    let outcome = run_job(engine, spec);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    checks.record(if outcome.digest == expected {
        Ok(())
    } else {
        Err(format!(
            "direct run_job digest {:016x} differs",
            outcome.digest
        ))
    });
    ms
}

impl Direct {
    fn new(mix: &Mix) -> Direct {
        let steady = &mix.specs[0][0];
        let mut warm = AnyEngine::fresh(&steady.shape());
        run_job(&mut warm, steady);
        Direct {
            warm,
            exec: Default::default(),
            fresh: Vec::new(),
            churned: 0,
        }
    }

    /// Time `count` jobs of each tenant, one thread per tenant.
    fn sample(&mut self, mix: &Mix, count: usize, checks: &mut Checks) {
        let (warm, first) = (&mut self.warm, self.churned);
        self.churned += count;
        let (steady, churn) = std::thread::scope(|scope| {
            let steady = scope.spawn(move || {
                let mut c = Checks::default();
                let (spec, digest) = (&mix.specs[0][0], mix.digests[0][0]);
                let ms: Vec<f64> = (0..count)
                    .map(|_| timed_job(warm, spec, digest, &mut c))
                    .collect();
                (ms, c)
            });
            let churn = scope.spawn(move || {
                let mut c = Checks::default();
                let (mut ms, mut fresh) = (Vec::new(), Vec::new());
                for k in first..first + count {
                    let i = k % mix.specs[1].len();
                    let spec = &mix.specs[1][i];
                    let f = Instant::now();
                    let mut engine = AnyEngine::fresh(&spec.shape());
                    fresh.push(f.elapsed().as_secs_f64() * 1e3);
                    ms.push(timed_job(&mut engine, spec, mix.digests[1][i], &mut c));
                }
                (ms, fresh, c)
            });
            (
                steady.join().expect("steady direct runs panicked"),
                churn.join().expect("churn direct runs panicked"),
            )
        });
        self.exec[0].extend(steady.0);
        checks.merge(steady.1);
        self.exec[1].extend(churn.0);
        self.fresh.extend(churn.1);
        checks.merge(churn.2);
    }
}

/// The serve layers: direct execution, cache, queue and transport, from a
/// short served load plus direct `run_job` calls on the same specs.
pub fn layers(n: usize, churn_n: &[usize], seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mix = Mix::new(n, churn_n, seed);
    // Direct runs come half before and half after the served load, so a
    // drift in host speed affects both sides of latency = exec + overhead.
    let mut direct = Direct::new(&mix);
    direct.sample(&mix, EXEC_SAMPLES / 2, &mut out.checks);
    let mut running = start()?;
    let (_, warm) = closed_loop(&mut running.clients, &mix, 0.0, false);
    out.checks.merge(warm);
    let (served, checks) = closed_loop(&mut running.clients, &mix, seconds, false);
    out.checks.merge(checks);

    let client = &mut running.clients[0];
    let stats = client
        .request("{\"op\":\"stats\"}")
        .map_err(|e| format!("stats request failed: {e}"))?;
    let stats = Json::parse(&stats).map_err(|e| format!("unparsable stats response: {e}"))?;
    let (hits, misses) = (field(&stats, "cache_hits")?, field(&stats, "cache_misses")?);
    out.set("serve.cache.hit_rate", hits / (hits + misses));
    out.set("serve.queue.depth_p50", field(&stats, "depth_p50")?);
    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        client
            .request("{\"op\":\"ping\"}")
            .map_err(|e| format!("ping failed: {e}"))?;
        pings.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.set("serve.ping_us_p50", median(&pings));
    stop(running)?;

    direct.sample(&mix, EXEC_SAMPLES / 2, &mut out.checks);
    let exec = &direct.exec;
    out.set("serve.exec_ms_p50.steady", median(&exec[0]));
    out.set("serve.exec_ms_p50.churn", median(&exec[1]));
    out.set("serve.cache.fresh_ms", median(&direct.fresh));

    // Latency = exec + overhead: pair each served job with a direct exec
    // sample of its tenant so both medians describe the same job mix.
    let latencies = latencies_ms(&served);
    let paired: Vec<f64> = served
        .iter()
        .enumerate()
        .map(|(j, s)| exec[s.tenant][j % exec[s.tenant].len()])
        .collect();
    let (lat, ex) = (pct(&latencies, 50.0), pct(&paired, 50.0));
    let overhead = lat - ex;
    out.set("serve.overhead_ms_p50", overhead);
    out.checks.record(if overhead >= -OVERHEAD_TOL * lat {
        Ok(())
    } else {
        Err(format!(
            "direct exec p50 {ex:.3} ms exceeds the served latency p50 {lat:.3} ms"
        ))
    });
    out.note(format!(
        "serve probe: {} jobs; latency p50 {lat:.3} ms = exec p50 {ex:.3} ms + overhead {overhead:.3} ms (derived)",
        served.len()
    ));
    Ok(out)
}
