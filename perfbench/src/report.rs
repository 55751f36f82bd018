//! The metric declaration, correctness bookkeeping and the result line.
//!
//! `BENCHMARK.json` at the repository root is the one declaration of every
//! metric's name and unit: the binary embeds it and refuses to print a
//! result whose metric set differs from the declared list for the mode
//! (end-to-end for untraced runs, per-layer for traced ones).

use std::collections::BTreeMap;

use bh_serve::json::{escape, Json};

const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// Run-to-run spread recorded from repeated runs: one line per metric,
/// `<workload or "trace">\t<metric>\t<IQR/median>\t<runs>`.
const NOISE: &str = include_str!("../noise.tsv");

/// A per-layer metric whose recorded spread exceeds this share of its
/// median is marked informational: too noisy to read a change from.
pub const STEADY_SPREAD: f64 = 0.10;

/// One declared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
}

/// The metrics `BENCHMARK.json` declares for traced (per-layer) or untraced
/// (end-to-end) runs, in declaration order.
pub fn declared(traced: bool) -> Vec<Declared> {
    let doc = Json::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
    let key = if traced { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks the '{key}' list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("a '{key}' entry lacks '{f}'"))
                    .to_string()
            };
            Declared {
                name: field("name"),
                unit: field("unit"),
            }
        })
        .collect()
}

/// Operations attempted and the ones whose correctness check failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation and its check result.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(msg);
            }
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(16);
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one run measured: metric values by name, the checks, and
/// human-readable notes printed above the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    pub checks: Checks,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.values.extend(other.values);
        self.checks.merge(other.checks);
        self.notes.extend(other.notes);
    }
}

/// The last line of the benchmark's output. Fails when the measured set
/// differs from the declaration or a value is not a finite number.
pub fn result_line(traced: bool, outcome: &Outcome) -> Result<String, String> {
    let declared = declared(traced);
    let missing: Vec<&str> = declared
        .iter()
        .filter(|d| !outcome.values.contains_key(&d.name))
        .map(|d| d.name.as_str())
        .collect();
    let extra: Vec<&str> = outcome
        .values
        .keys()
        .filter(|k| !declared.iter().any(|d| &d.name == *k))
        .map(String::as_str)
        .collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(format!(
            "measured metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
        ));
    }
    let mut fields = Vec::with_capacity(declared.len());
    for d in &declared {
        let v = outcome.values[&d.name];
        if !v.is_finite() {
            return Err(format!("metric {} is not a finite number: {v}", d.name));
        }
        fields.push(format!(
            "{}:{{\"value\":{v},\"unit\":{}}}",
            escape(&d.name),
            escape(&d.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted,
        outcome.checks.failed,
        fields.join(",")
    ))
}

/// One report line per metric: value, unit and the recorded noise.
/// `scope` is the workload name for end-to-end metrics, `trace` for
/// per-layer ones.
pub fn metric_lines(traced: bool, scope: &str, outcome: &Outcome) -> Vec<String> {
    declared(traced)
        .iter()
        .filter_map(|d| {
            let v = outcome.values.get(&d.name)?;
            let noise = match recorded_noise(scope, &d.name) {
                Some((spread, runs)) => {
                    let status = if traced && spread > STEADY_SPREAD {
                        " informational (not steady)"
                    } else {
                        ""
                    };
                    format!("noise IQR/median {spread:.4} over {runs} runs{status}")
                }
                None => "noise not recorded".to_string(),
            };
            Some(format!("{:<34} {:>16.6} {:<8} {noise}", d.name, v, d.unit))
        })
        .collect()
}

/// The recorded spread (IQR as a share of the median) and run count.
pub fn recorded_noise(scope: &str, metric: &str) -> Option<(f64, usize)> {
    NOISE.lines().find_map(|line| {
        let mut cols = line.split('\t');
        let (s, m) = (cols.next()?, cols.next()?);
        if s != scope || m != metric {
            return None;
        }
        Some((cols.next()?.parse().ok()?, cols.next()?.parse().ok()?))
    })
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of an unsorted sample.
pub fn pct(values: &[f64], p: f64) -> f64 {
    bh_core::app::percentile_f64(values, p)
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
