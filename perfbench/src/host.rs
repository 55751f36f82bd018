//! Host facts stamped on every result, and the admission rule that keeps a
//! workload from oversubscribing the host.

use std::fs;

/// What the host offers, as far as a result depends on it.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    /// Cache levels of CPU 0, e.g. `L1d 32K, L1i 32K, L2 4096K`.
    pub caches: String,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mut caches = Vec::new();
        for i in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
            let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
            else {
                break;
            };
            let suffix = match kind.trim() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            caches.push(format!("L{}{suffix} {}", level.trim(), size.trim()));
        }
        let caches = if caches.is_empty() {
            "unknown".to_string()
        } else {
            caches.join(", ")
        };
        Host { nproc, cpu, caches }
    }
}

/// Refuse a workload that needs more busy host threads, or more client
/// connections, than the host has processors: its timings would measure
/// the scheduler, not the program.
pub fn admit(threads: usize, connections: usize, nproc: usize) -> Result<(), String> {
    if threads > nproc || connections > nproc {
        return Err(format!(
            "refusing to run: the workload uses {threads} host threads and {connections} \
             connections but the host has {nproc} processors"
        ));
    }
    Ok(())
}
