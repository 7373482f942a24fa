//! Command-line entry point.
//!
//! ```text
//! dista-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric (name, value, unit, sample count), the
//! run's envelope as one JSON line, and, as the last line, the result
//! object `{"correct", "attempted", "failed", "metrics"}`: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. The
//! envelope and the traced run's spans are also written under `out/`
//! next to this crate. `--workload all` runs every workload in its own
//! child process, one after another.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use dista_perfbench::stats::{json_num, json_str, quartiles, Metric};
use dista_perfbench::{run, spans_jsonl, RunSpec, WorkloadKind};

/// Spans written to the trace file (the rest stay in memory only).
const SPAN_FILE_CAP: usize = 20_000;

/// What the envelope records about the host.
struct Host {
    /// CPUs available before pinning.
    nproc: usize,
    /// The CPU the run is pinned to, if pinning worked.
    cpu: Option<usize>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(PathBuf::from).unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn metric_json(m: &Metric) -> String {
    format!(
        "{{\"value\": {}, \"unit\": {}}}",
        json_num(m.value),
        json_str(m.unit)
    )
}

fn envelope(spec: &RunSpec, host: &Host, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let (q1, med, q3) = quartiles(&m.samples);
            format!(
                "{}: {{\"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"samples\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_num(med),
                json_num(q1),
                json_num(q3),
                m.samples.len(),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"commit\": {}, \"nproc\": {}, \"pinned_cpu\": {}, \"seed\": {}, \"runs\": {}, \"setups\": {}, \"ops\": {}, \"trace\": {}, \"metrics\": {{{}}}}}",
        json_str(spec.workload.name()),
        json_str(&commit()),
        host.nproc,
        host.cpu.map_or("null".to_string(), |c| c.to_string()),
        spec.seed,
        spec.rounds,
        spec.setups,
        spec.ops,
        spec.trace,
        body.join(", ")
    )
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(kind: WorkloadKind, args: &Args, host: &Host) -> ExitCode {
    let spec = RunSpec::standard(kind, args.seed, args.seconds, args.trace);
    let outcome = run(&spec);
    for e in &outcome.errors {
        eprintln!("FAILED {}: {e}", kind.name());
    }
    let mut all = outcome.end_to_end.clone();
    all.extend(outcome.per_layer.iter().cloned());
    println!(
        "workload {} seed {}: {} timed ops in {} rounds, {} set-ups",
        kind.name(),
        spec.seed,
        spec.ops,
        spec.rounds,
        spec.setups
    );
    for m in &all {
        println!(
            "  {:<26} {:>16.4} {:<6} samples={}",
            m.name,
            m.value,
            m.unit,
            m.samples.len()
        );
    }
    let env = envelope(&spec, host, &all);
    println!("{env}");
    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        kind.name(),
        spec.seed,
        u8::from(spec.trace)
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), format!("{env}\n")))
        .and_then(|()| {
            if spec.trace {
                std::fs::write(
                    dir.join(format!("{stem}.spans.jsonl")),
                    spans_jsonl(&outcome.spans, SPAN_FILE_CAP),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("could not write under {}: {e}", dir.display());
    }
    let reported = if spec.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| format!("{}: {}", json_str(&m.name), metric_json(m)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate this executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for kind in WorkloadKind::ALL {
        let status = Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Bytes in glibc's `cpu_set_t` (1024 CPUs).
const CPU_SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// Pins this process to the highest-numbered CPU it may run on, and
/// returns that CPU. Every thread the program starts later inherits the
/// mask, so each hand-off between the driving thread and a server
/// thread is a context switch on one CPU instead of a cross-CPU wake-up,
/// whose cost depends on what else the host is running.
fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly the `cpusetsize`
    // passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_BYTES * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly the `cpusetsize`
    // passed, and pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } == 0).then_some(cpu)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match WorkloadKind::parse(&args.workload) {
        Some(kind) => {
            // Read before pinning, which narrows what this reports.
            let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
            let host = Host {
                nproc,
                cpu: pin_to_one_cpu(),
            };
            if host.cpu.is_none() {
                eprintln!("could not pin to one CPU; running unpinned");
            }
            run_one(kind, &args, &host)
        }
        None => {
            eprintln!("unknown workload {:?}", args.workload);
            ExitCode::from(2)
        }
    }
}
