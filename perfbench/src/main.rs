//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints a report, then one JSON result line; exits 1
//! when a correctness check failed and 2 on a usage or set-up error.

use std::process::ExitCode;

use perfbench::host::{admit, Host};
use perfbench::report::{metric_lines, result_line};
use perfbench::{run, Options, Sizes, Workload};

const USAGE: &str =
    "usage: perfbench --workload <native-plummer|sim-svm|serve-mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.ok_or("missing --trace")?,
        sizes: Sizes::FULL,
        corrupt: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let (threads, connections) = opts.workload.load(opts.traced);
    if let Err(e) = admit(threads, connections, host.nproc) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", opts.workload.name());
            return ExitCode::from(2);
        }
    };
    let line = match result_line(opts.traced, &outcome) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let scope = if opts.traced {
        "trace"
    } else {
        opts.workload.name()
    };
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.traced)
    );
    println!(
        "# host: nproc={} cpu={:?} caches=[{}] threads={threads} connections={connections}",
        host.nproc, host.cpu, host.caches
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in metric_lines(opts.traced, scope, &outcome) {
        println!("# {m}");
    }
    let checks = &outcome.checks;
    println!(
        "# checks: {} attempted, {} failed, failed_frac {}",
        checks.attempted,
        checks.failed,
        checks.failed_frac()
    );
    for f in &checks.failures {
        println!("# FAILED: {f}");
    }
    println!("{line}");
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
