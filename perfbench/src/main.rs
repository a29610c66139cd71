//! perfbench: the repository's one benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-point --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Four workloads drive the serving stack from one process (see
//! `BENCHMARK.json` for why the listed ones were chosen):
//!
//! * `serve-point` — a real `hd_server` with coalescing on, two closed-loop
//!   keep-alive clients sending cheap single-vector queries;
//! * `serve-passthrough` — the same with coalescing off, over a page cache
//!   half the index's size;
//! * `engine-scan` — in-process `Engine::search_batch` at the paper's
//!   operating point over an index about 13× larger than its page cache,
//!   built under a memory budget so the build spills;
//! * `mixed-write` — one durable writer (insert/delete 1:1) and one reader
//!   against an engine with background compaction.
//!
//! With `--trace 0` the run reports end-to-end numbers. With `--trace 1`
//! the timed window is split into alternating untraced and traced quarters
//! (their difference is the tracing overhead) and the run then times each layer's
//! public functions on the workload's own inputs ([`layers`]). Correctness
//! is checked in the same run; any mismatch prints `"correct": false` and
//! exits nonzero. The last line of standard output is one JSON object.
//! Work files go under `perfbench_out/` in the current directory, which
//! also receives the run record and, for traced runs, the spans.

mod engine_scan;
mod http;
mod layers;
mod mixed_write;
mod record;
mod serve_point;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use hd_bench::table;
use hd_core::api::AnnIndex;
use record::{Machine, Measured, RunRecord};
use stats::OpLog;
use trace::Tracer;

/// The end-to-end metrics an untraced run's result line carries (the
/// `end_to_end` list of BENCHMARK.json). Tail percentiles and the write
/// numbers are printed and recorded but not gated, and so is peak RSS:
/// the buffer pool's LRU queue grows with every cache hit, so peak RSS
/// rises with throughput and a faster program would read as a memory
/// regression. CHANGES.md gives their measured spread.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "qps",
    "query_p50_ms",
    "cpu_ms_per_op",
    "physical_reads_per_query",
    "logical_reads_per_query",
    "recall",
    "space_amp",
];
/// Directory (relative to the working directory) for work files, run
/// records and span dumps.
const OUT_DIR: &str = "perfbench_out";
/// How many times an untraced run sets its workload up; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 3;
/// Engine pool threads and client threads, fixed so results compare
/// across machines with different core counts.
pub const ENGINE_THREADS: usize = 2;
pub const CLIENT_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    ServePoint,
    ServePassthrough,
    EngineScan,
    MixedWrite,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "serve-point" => Some(Self::ServePoint),
            "serve-passthrough" => Some(Self::ServePassthrough),
            "engine-scan" => Some(Self::EngineScan),
            "mixed-write" => Some(Self::MixedWrite),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ServePoint => "serve-point",
            Self::ServePassthrough => "serve-passthrough",
            Self::EngineScan => "engine-scan",
            Self::MixedWrite => "mixed-write",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = number("--trace")?;
    if trace > 1 {
        return Err("--trace must be 0 or 1".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: trace == 1,
    })
}

/// Operations of one timed window.
#[derive(Debug, Default)]
pub struct Phase {
    pub queries: OpLog,
    pub writes: OpLog,
    /// How late the open-loop writer ran at worst, in milliseconds.
    pub write_lag_ms: f64,
    pub wall_s: f64,
    /// Process CPU seconds (all threads) spent during the window.
    pub cpu_s: f64,
}

impl Phase {
    fn qps(&self) -> f64 {
        self.queries.succeeded() as f64 / self.wall_s
    }

    fn write_ops_s(&self) -> f64 {
        self.writes.succeeded() as f64 / self.wall_s
    }

    fn merge(&mut self, other: Phase) {
        self.queries.merge(other.queries);
        self.writes.merge(other.writes);
        self.write_lag_ms = self.write_lag_ms.max(other.write_lag_ms);
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub machine: Machine,
    pub config: Vec<(String, f64)>,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// The untraced window (the whole run when untraced).
    pub phase: Phase,
    /// The traced quarters of a traced run.
    pub traced: Option<Phase>,
    /// Mean recall@k and the number of answers it averages.
    pub recall: (f64, usize),
    /// The engine's page reads over the timed window (traced or not).
    pub io: hd_core::api::IoSnapshot,
    pub space_amp: f64,
    /// Correctness mismatches; empty when every check passed.
    pub errors: Vec<String>,
    pub layers: Vec<Measured>,
    /// What the run's checks do not cover.
    pub notes: Vec<String>,
}

/// Sets a workload up `repeats` times, timing each `build`, and keeps the
/// last; earlier ones go to `teardown` (untimed) before the next attempt.
pub fn repeated_setup<T>(
    repeats: usize,
    mut build: impl FnMut(usize) -> std::io::Result<T>,
    mut teardown: impl FnMut(T) -> std::io::Result<()>,
) -> std::io::Result<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(repeats);
    for attempt in 0.. {
        let t0 = Instant::now();
        let built = build(attempt)?;
        times.push(t0.elapsed().as_secs_f64());
        if attempt + 1 >= repeats {
            return Ok((built, times));
        }
        teardown(built)?;
    }
    unreachable!("the loop returns on its last attempt")
}

/// Runs the timed part of a workload: one window when untraced. When
/// traced, four quarter windows alternate untraced, traced, untraced,
/// traced, so drift over the run falls on both sides of the overhead.
/// Returns (untraced, traced).
pub fn timed_windows(
    args: &Args,
    tracer: &mut Tracer,
    mut window: impl FnMut(f64, &mut Tracer) -> Phase,
) -> (Phase, Option<Phase>) {
    let mut window = |seconds: f64, tr: &mut Tracer| {
        let cpu0 = process_cpu_s();
        let mut p = window(seconds, tr);
        p.cpu_s = process_cpu_s() - cpu0;
        p
    };
    let seconds = args.seconds as f64;
    if !args.trace {
        return (window(seconds, tracer), None);
    }
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    for _ in 0..2 {
        tracer.set_recording(false);
        untraced.merge(window(seconds / 4.0, tracer));
        tracer.set_recording(true);
        traced.merge(window(seconds / 4.0, tracer));
    }
    (untraced, Some(traced))
}

pub fn setups(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        SETUP_REPEATS
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU seconds (user + system, all threads) this process has used.
fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (100 per second
    // on Linux); the command name before them is parenthesised.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// Bytes on disk per byte of live vector data.
pub fn space_amp(engine: &hd_engine::Engine) -> f64 {
    let live_bytes = engine.health().live_len as f64 * AnnIndex::dim(engine) as f64 * 4.0;
    engine.disk_bytes() as f64 / live_bytes
}

/// Compactions the engine has installed, from its `WriteStats`.
pub fn compactions(engine: &hd_engine::Engine) -> u64 {
    AnnIndex::stats(engine).write.compactions
}

/// Peak resident set size (VmHWM) of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fresh work directory for this process.
pub fn work_dir(workload: Workload) -> std::io::Result<PathBuf> {
    let dir = Path::new(OUT_DIR).join(format!("work-{}-{}", workload.name(), std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn latency_metrics(prefix: &str, log: &OpLog) -> Vec<Measured> {
    let s = log.summary();
    let n = s.samples as u64;
    let mut out = vec![Measured::new(&format!("{prefix}_p50_ms"), "ms", s.p50, n)];
    for (name, value) in [("p90", s.p90), ("p99", s.p99)] {
        if let Some(v) = value {
            out.push(Measured::new(&format!("{prefix}_{name}_ms"), "ms", v, n));
        }
    }
    out
}

/// End-to-end numbers of one window, excluding set-up and whole-run ones.
fn window_metrics(p: &Phase) -> Vec<Measured> {
    let ops = p.queries.succeeded() + p.writes.succeeded();
    let mut out = vec![
        Measured::new("qps", "1/s", p.qps(), p.queries.attempted()),
        Measured::new(
            "cpu_ms_per_op",
            "ms",
            p.cpu_s * 1e3 / ops.max(1) as f64,
            ops,
        ),
    ];
    out.extend(latency_metrics("query", &p.queries));
    if p.writes.attempted() > 0 {
        out.push(Measured::new(
            "write_ops_s",
            "1/s",
            p.write_ops_s(),
            p.writes.attempted(),
        ));
        out.extend(latency_metrics("write", &p.writes));
    }
    out
}

fn print_window(title: &str, p: &Phase) {
    println!("\n=== {title} ({:.2} s) ===", p.wall_s);
    println!(
        "queries: {:.1}/s, {}; attempted {}, failed {}",
        p.qps(),
        p.queries.summary().describe(),
        p.queries.attempted(),
        p.queries.failed
    );
    if p.writes.attempted() > 0 {
        println!(
            "writes:  {:.1}/s, {} from when due; attempted {}, failed {}; \
             the writer ran at most {:.3} ms late",
            p.write_ops_s(),
            p.writes.summary().describe(),
            p.writes.attempted(),
            p.writes.failed,
            p.write_lag_ms
        );
    }
}

fn print_measured(title: &str, list: &[Measured]) {
    let widths = [30usize, 16, 8, 9];
    table::header(title, &["metric", "value", "unit", "samples"], &widths);
    for m in list {
        table::row(
            &[
                m.name.clone(),
                format!("{:.4}", m.value),
                m.unit.clone(),
                m.samples.to_string(),
            ],
            &widths,
        );
    }
}

fn json_metrics(list: &[Measured]) -> String {
    let items: Vec<String> = list
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Picks `names` out of `list`, in order; every one must be present and
/// finite.
fn select(list: &[Measured], names: &[&str]) -> Result<Vec<Measured>, String> {
    names
        .iter()
        .map(|name| match list.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() => Ok(m.clone()),
            Some(m) => Err(format!("{name} is not finite ({})", m.value)),
            None => Err(format!("{name} was not measured")),
        })
        .collect()
}

fn run(args: &Args) -> std::io::Result<(Outcome, Tracer)> {
    let mut tracer = Tracer::new(Instant::now(), false);
    let outcome = match args.workload {
        Workload::ServePoint => serve_point::run(args, serve_point::POINT, &mut tracer)?,
        Workload::ServePassthrough => {
            serve_point::run(args, serve_point::PASSTHROUGH, &mut tracer)?
        }
        Workload::EngineScan => engine_scan::run(args, &mut tracer)?,
        Workload::MixedWrite => mixed_write::run(args, &mut tracer)?,
    };
    Ok((outcome, tracer))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve-point|serve-passthrough|engine-scan|mixed-write \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let (outcome, tracer) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let rss = peak_rss_mb();

    let p = &outcome.phase;
    let ops = p.queries.attempted() + p.writes.attempted();
    let failed = p.queries.failed + p.writes.failed;
    let mut metrics = vec![Measured::new(
        "setup_s",
        "s",
        stats::median(&outcome.setup_s),
        outcome.setup_s.len() as u64,
    )];
    metrics.extend(window_metrics(p));
    let queries =
        p.queries.succeeded() + outcome.traced.as_ref().map_or(0, |t| t.queries.succeeded());
    // Page reads over the timed window: those that reached the files and
    // those the buffer pool served.
    for (name, reads) in [
        ("physical_reads_per_query", outcome.io.physical_reads),
        ("logical_reads_per_query", outcome.io.logical_reads),
    ] {
        metrics.push(Measured::new(
            name,
            "count",
            reads as f64 / queries.max(1) as f64,
            queries,
        ));
    }
    metrics.push(Measured::new(
        "recall",
        "ratio",
        outcome.recall.0,
        outcome.recall.1 as u64,
    ));
    metrics.push(Measured::new("space_amp", "ratio", outcome.space_amp, 1));
    metrics.push(Measured::new("peak_rss_mb", "MB", rss, 1));
    metrics.push(Measured::new(
        "error_rate",
        "ratio",
        if ops == 0 {
            0.0
        } else {
            failed as f64 / ops as f64
        },
        ops,
    ));

    println!(
        "perfbench {}: seed {}, {} s, trace {}; nproc {}, engine threads {}, server threads {}, \
         client threads {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.machine.nproc,
        outcome.machine.engine_threads,
        outcome.machine.server_threads,
        outcome.machine.client_threads
    );
    for (k, v) in &outcome.config {
        println!("  {k} = {v}");
    }
    for n in &outcome.notes {
        println!("  note: {n}");
    }
    print_window(
        if args.trace {
            "untraced quarters"
        } else {
            "timed window"
        },
        p,
    );

    let mut overhead = Vec::new();
    if let Some(t) = &outcome.traced {
        print_window("traced quarters", t);
        let untraced = window_metrics(p);
        for m in window_metrics(t) {
            if let Some(u) = untraced.iter().find(|u| u.name == m.name) {
                overhead.push(Measured::new(
                    &m.name,
                    &m.unit,
                    m.value - u.value,
                    m.samples,
                ));
            }
        }
    }
    print_measured("end-to-end", &metrics);
    if args.trace {
        print_measured(
            "tracing overhead (traced minus untraced quarters)",
            &overhead,
        );
        layers::print_table(&outcome.layers);
    }
    for e in outcome.errors.iter().take(20) {
        eprintln!("correctness: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "\ncorrectness: {} ({} mismatches)",
        if correct { "ok" } else { "FAILED" },
        outcome.errors.len()
    );

    let traced_ops = outcome.traced.as_ref().map_or((0, 0), |t| {
        (
            t.queries.attempted() + t.writes.attempted(),
            t.queries.failed + t.writes.failed,
        )
    });
    let record = RunRecord {
        workload: args.workload.name().into(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        machine: outcome.machine.clone(),
        config: outcome.config.clone(),
        correct,
        attempted: ops + traced_ops.0,
        failed: failed + traced_ops.1,
        metrics: metrics.clone(),
        layers: outcome.layers.clone(),
        overhead,
        notes: outcome.notes.clone(),
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let out = Path::new(OUT_DIR);
    let written = std::fs::write(
        out.join(format!("{stem}.record.json")),
        record.to_json().render(),
    )
    .and_then(|()| {
        if args.trace {
            tracer.write_jsonl(&out.join(format!("{stem}.spans.jsonl")))
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        eprintln!("perfbench: writing the run record failed: {e}");
        std::process::exit(1);
    }

    // The result line: the end-to-end metrics of BENCHMARK.json when
    // untraced, the per-layer ones when traced.
    let names: Vec<&str> = if args.trace {
        layers::LAYERS.iter().map(|l| l.name).collect()
    } else {
        END_TO_END.to_vec()
    };
    let reported = match select(
        if args.trace {
            &outcome.layers
        } else {
            &metrics
        },
        &names,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        record.attempted.max(1),
        record.failed,
        json_metrics(&reported)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "pb --workload engine-scan --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Workload::EngineScan);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        assert!(parse_args(&argv("pb --workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "pb --workload serve-point --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("pb --workload serve-point --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn result_line_carries_every_named_metric() {
        let list = [
            Measured::new("a", "ms", 1.25, 3),
            Measured::new("b", "ms", f64::INFINITY, 3),
        ];
        let picked = select(&list, &["a"]).expect("present and finite");
        let parsed = hd_telemetry::json::parse(&json_metrics(&picked)).expect("valid JSON");
        assert_eq!(
            parsed
                .get("a")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.25)
        );
        assert!(select(&list, &["b"]).is_err());
        assert!(select(&list, &["c"]).is_err());
    }

    /// BENCHMARK.json must name exactly what the code reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let root = hd_telemetry::json::parse(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String, String)> {
            root.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(|v| v.as_str())
                            .expect("string field")
                            .to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let e2e: Vec<String> = list("end_to_end").into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(e2e, END_TO_END);
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), layers::LAYERS.len());
        for ((name, unit, better), spec) in per_layer.iter().zip(layers::LAYERS) {
            assert_eq!(
                (name.as_str(), unit.as_str(), better.as_str()),
                (spec.name, spec.unit, spec.better)
            );
        }
        for w in root
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
        {
            let name = w
                .get("name")
                .and_then(|v| v.as_str())
                .expect("workload name");
            assert!(Workload::parse(name).is_some(), "unknown workload {name}");
        }
    }
}
