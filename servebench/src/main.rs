//! `servebench` — the serving benchmark of the EIE reproduction.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `workloads`) against the default build
//! through the public `eie-core`/`eie-serve` API, checks every answer
//! against the functional golden model and the serving accounting
//! identity, and prints a record header, one line per metric, and a
//! final JSON result line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the workload untraced and then traced for half the
//! time each, runs the per-layer probes, reports the per-layer metrics
//! and writes the spans out. Exits 1 when a check fails and 2 on bad
//! arguments or a run that could not complete. See `README.md`.

mod fixtures;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use eie_core::backend::lane_isa;
use eie_core::percentile;
use eie_serve::ServerConfig;

use crate::report::{metric, quote, Metric};
use crate::stats::{mean, median, tail_percentile, Summary};
use crate::trace::Tracer;
use crate::workloads::{Fallible, Tally, Workload, WorkloadRun, SETUP_REPEATS};

const USAGE: &str = "usage: servebench --workload <alexnet-tcp|alexnet-offline|registry-churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Trace files live beside the executable, inside the build directory.
fn work_dir() -> Fallible<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or("the executable has no directory")?
        .join("servebench-work");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// This process's artifact directory, removed when the run ends, so
/// concurrent runs never read each other's half-written artifacts.
struct ArtifactDir(PathBuf);

impl ArtifactDir {
    fn create(work: &std::path::Path) -> Fallible<Self> {
        let dir = work.join(format!("artifacts-{}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for ArtifactDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {} failed: {e}", args.workload.name());
            ExitCode::from(2)
        }
    }
}

/// Runs the workload, prints the report, and returns whether every
/// check passed.
fn run(args: &Args) -> Fallible<bool> {
    let dir = work_dir()?;
    let artifacts = ArtifactDir::create(&dir)?;
    let tracer = Tracer::new(args.trace);
    let start = Instant::now();
    let alex = match (args.workload, args.trace) {
        (Workload::RegistryChurn, false) => None,
        _ => Some(fixtures::alexnet(&artifacts.0, args.seed)?),
    };
    let churn = match (args.workload, args.trace) {
        (Workload::RegistryChurn, _) | (_, true) => Some(fixtures::churn(&artifacts.0, args.seed)?),
        _ => None,
    };
    let fixture_s = start.elapsed().as_secs_f64();
    let alex_ref = || alex.as_ref().expect("the AlexNet fixture is built");
    let churn_ref = || churn.as_ref().expect("the churn fixture is built");
    let run = match args.workload {
        Workload::AlexnetTcp => workloads::alexnet_tcp(alex_ref(), args.seconds, &tracer)?,
        Workload::AlexnetOffline => workloads::alexnet_offline(alex_ref(), args.seconds, &tracer)?,
        Workload::RegistryChurn => {
            workloads::registry_churn(churn_ref(), args.seed, args.seconds, &tracer)?
        }
    };
    let probes = if args.trace {
        probes::run_all(alex_ref(), churn_ref(), args.seed, &tracer)?
    } else {
        Vec::new()
    };
    let peak_rss = report::peak_rss_mib()?;

    let tallies: Vec<&Tally> = std::iter::once(&run.untraced).chain(&run.traced).collect();
    let attempted: usize = tallies.iter().map(|t| t.attempted).sum();
    let failed: usize = tallies.iter().map(|t| t.failed).sum();
    let wrong: usize = tallies.iter().map(|t| t.wrong).sum();
    let mut problems = checks(&run, wrong);

    let u = &run.untraced;
    let tail_p = tail_percentile(u.latency_ms.len(), args.workload.tail_cap());
    let cold_ms = match args.workload {
        Workload::RegistryChurn => median(&u.cold_ms),
        _ => median(&run.setup_ttfa_ms),
    };
    let end_to_end = vec![
        metric("setup_s", median(&run.setup_s), "s"),
        metric("latency_p50_ms", percentile(&u.latency_ms, 50.0), "ms"),
        metric("latency_tail_ms", percentile(&u.latency_ms, tail_p), "ms"),
        metric("throughput_fps", u.throughput_fps(), "frames/s"),
        metric(
            "slo_share",
            u.within_slo as f64 / u.attempted as f64,
            "share",
        ),
        metric("cold_ttfa_p50_ms", cold_ms, "ms"),
    ];

    let mut record = header(args, &run, fixture_s, tail_p, peak_rss);
    let mut metrics = if args.trace {
        let spans = tracer.take();
        let t = run
            .traced
            .as_ref()
            .expect("a traced run has a traced segment");
        let (per_layer, overhead) = per_layer(args.workload, &run, t, wrong, &spans, probes);
        record.push_str(&overhead);
        record.push('}');
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        fs::write(
            &path,
            format!(
                "{{\"record\": {record},\n\"spans\": {}}}\n",
                trace::spans_json(&spans)
            ),
        )?;
        println!("spans written to {}", path.display());
        per_layer
    } else {
        record.push('}');
        end_to_end
    };
    for m in &mut metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is {}", m.name, m.value));
            // JSON has no NaN or infinity; the run already fails.
            m.value = 0.0;
        }
    }

    println!("{record}");
    for m in &metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        eprintln!("servebench: check failed: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

/// The correctness gate: golden outputs, the accounting identity on
/// every side it was read, and the served-request count.
fn checks(run: &WorkloadRun, wrong: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if wrong > 0 {
        problems.push(format!("{wrong} answers differ from the golden output"));
    }
    for (source, acc) in &run.accounting {
        if !acc.holds() {
            problems.push(format!(
                "accepted = requests + shed + expired + failed is broken ({source}): {acc:?}"
            ));
        }
    }
    let (seen, served) = run.served;
    if seen != served {
        problems.push(format!(
            "the client saw {seen} answers, the server counted {served}"
        ));
    }
    if run.server_errors > 0 {
        problems.push(format!(
            "the server reported {} survived errors",
            run.server_errors
        ));
    }
    problems
}

/// The record header, left open so a traced run can append to it.
fn header(args: &Args, run: &WorkloadRun, fixture_s: f64, tail_p: f64, peak_rss: f64) -> String {
    let u = &run.untraced;
    let ladder: Vec<String> = [75.0, 90.0, 95.0, 98.0, 99.0]
        .iter()
        .map(|&p| format!("\"p{p}\": {}", percentile(&u.latency_ms, p)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load = match args.workload {
        Workload::AlexnetTcp => format!(
            "open loop, {} req/s over {} connections",
            workloads::TCP_RATE_HZ,
            workloads::TCP_CONNECTIONS
        ),
        Workload::AlexnetOffline => {
            "blocking submit paced by backpressure, 1 submitter + 1 waiter".into()
        }
        Workload::RegistryChurn => "closed loop, 1 connection, seeded uniform model order".into(),
    };
    let accounting: Vec<String> = run
        .accounting
        .iter()
        .map(|(source, a)| {
            format!(
                "{{\"source\": {}, \"accepted\": {}, \"requests\": {}, \"shed\": {}, \"expired\": {}, \"failed\": {}}}",
                quote(source), a.accepted, a.requests, a.shed, a.expired, a.failed
            )
        })
        .collect();
    format!(
        "{{\"schema\": \"servebench/1\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"build\": {{\"profile\": {}, \"eie_core_features\": \"default\", \"lane_isa\": {}}}, \
         \"nproc\": {nproc}, \"server_config\": {}, \"num_pes\": {}, \"scale\": 1, \"git_rev\": {}, \
         \"load\": {}, \"slo_ms\": {}, \"fixture_s\": {fixture_s}, \"setup_repeats\": {SETUP_REPEATS}, \
         \"tail\": {{\"percentile\": {tail_p}, \"samples\": {}}}, \"latency_ms_at\": {{{}}}, \
         \"counts\": {{\"attempted\": {}, \"answered\": {}, \"wrong\": {}, \"failed\": {}}}, \
         \"summaries\": {{\"setup_s\": {}, \"setup_ttfa_ms\": {}, \"latency_ms\": {}, \"cold_ms\": {}}}, \
         \"peak_rss_mib\": {peak_rss}, \"accounting\": [{}]",
        quote(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        quote(if cfg!(debug_assertions) { "debug" } else { "release" }),
        quote(lane_isa()),
        quote(&ServerConfig::default().to_string()),
        eie_core::EieConfig::default().num_pes,
        quote(&report::git_rev()),
        quote(&load),
        args.workload.slo_ms(),
        u.latency_ms.len(),
        ladder.join(", "),
        u.attempted,
        u.answered,
        u.wrong,
        u.failed,
        Summary::of(&run.setup_s).json(),
        Summary::of(&run.setup_ttfa_ms).json(),
        Summary::of(&u.latency_ms).json(),
        Summary::of(&u.cold_ms).json(),
        accounting.join(", "),
    )
}

/// The per-layer metrics of a traced run, and the record fields on
/// tracing overhead and self time.
fn per_layer(
    workload: Workload,
    run: &WorkloadRun,
    t: &Tally,
    wrong: usize,
    spans: &[trace::Span],
    probes: Vec<Metric>,
) -> (Vec<Metric>, String) {
    // The headline cost per request: latency where requests wait on
    // each other one at a time, time per frame where the queue is full.
    let headline = |tally: &Tally| match workload {
        Workload::AlexnetOffline => 1e3 / tally.throughput_fps(),
        _ => percentile(&tally.latency_ms, 50.0),
    };
    let (untraced_ms, traced_ms) = (headline(&run.untraced), headline(t));
    let overhead = traced_ms / untraced_ms - 1.0;
    let self_times = trace::self_time_summary(spans);
    let request_self_us = self_times.get("request").map_or(0.0, |s| s.median);
    let attempted = run.untraced.attempted + t.attempted;
    let errors = run.untraced.failed + t.failed + wrong;
    let lookups = run.registry_hits + run.registry_loads;
    let mut out = vec![
        metric("queue_wait_us", median(&t.queue_us), "us"),
        metric("batch_size_mean", mean(&t.coalesced), "count"),
        metric("shed_count", run.shed as f64, "count"),
        metric(
            "registry_hit_share",
            if lookups == 0 {
                0.0
            } else {
                run.registry_hits as f64 / lookups as f64
            },
            "share",
        ),
        metric("registry_loads", run.registry_loads as f64, "count"),
        metric("registry_evictions", run.registry_evictions as f64, "count"),
        metric("generator_lag_p99_ms", percentile(&t.lag_ms, 99.0), "ms"),
        metric("error_share", errors as f64 / attempted as f64, "share"),
        metric("request_self_us", request_self_us, "us"),
        metric("trace_overhead_share", overhead, "share"),
    ];
    out.extend(probes);
    let self_json: Vec<String> = self_times
        .iter()
        .map(|(name, s)| format!("{}: {}", quote(name), s.json()))
        .collect();
    let record = format!(
        ", \"tracing\": {{\"headline_untraced_ms\": {untraced_ms}, \"headline_traced_ms\": {traced_ms}, \
         \"overhead_share\": {overhead}, \"spans\": {}, \"self_time_us\": {{{}}}}}",
        spans.len(),
        self_json.join(", ")
    );
    (out, record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_documented_command_line() {
        assert_eq!(
            args("--workload registry-churn --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: Workload::RegistryChurn,
                seed: 7,
                seconds: 10.0,
                trace: true,
            })
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload alexnet-tcp --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload alexnet-tcp --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload alexnet-tcp --seed 1 --trace 0").is_err());
        assert!(args("--workload alexnet-tcp --seed").is_err());
    }
}
