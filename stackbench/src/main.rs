//! `lll-stackbench` — one benchmark for the served stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path stackbench/Cargo.toml -- \
//!     --workload oltp-uniform --seed 1 --seconds 30 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) starts `lll-server` in-process on
//! loopback with the library defaults, drives the workload through the
//! shipped blocking `Client`, checks every answer, and prints the
//! end-to-end metrics. A traced run (`--trace 1`) also replays the
//! workload's operation stream through the public functions of every
//! layer beneath the server, with a span around each call, and prints the
//! per-layer ledger. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any wrong answer makes
//! the run exit non-zero. See `stackbench/README.md`.

mod alloc;
mod check;
mod gen;
mod ledger;
mod serve;
mod stats;

use serve::{Outcome, RunCfg, Sizes};
use stats::median;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OltpUniform,
    AppendDurable,
    LoadScan,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "oltp-uniform" => Some(Self::OltpUniform),
            "append-durable" => Some(Self::AppendDurable),
            "load-scan" => Some(Self::LoadScan),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::OltpUniform => "oltp-uniform",
            Self::AppendDurable => "append-durable",
            Self::LoadScan => "load-scan",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: lll-stackbench --workload <oltp-uniform|append-durable|load-scan> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let num = |s: String, flag: &str| s.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let args = Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: num(get("--seed")?, "--seed")?,
        seconds: num(get("--seconds")?, "--seconds")?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    };
    Ok(args)
}

/// One reported metric: name, value, unit, and the samples behind it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric { name: name.into(), value, unit, samples }
}

/// The end-to-end metrics of one timed log (the whole timed window, or one
/// half of a traced run's) plus the run-level ones. `windowed` takes the
/// rate as a median over windows; otherwise it is the total over `secs`.
pub fn end_to_end(out: &Outcome, log: &serve::Log, secs: f64, windowed: bool) -> Vec<Metric> {
    let q = |verb: gen::Verb, p: f64| {
        let s = &log.lat[verb as usize];
        (s.quantile_us(p), s.len() as u64)
    };
    let mut m = vec![metric("setup_s", median(&out.setup_s), "s", out.setup_s.len() as u64)];
    // The mixed workloads send uniform traffic, so their rate is a median
    // over windows; load-scan's phases differ, so its rate is the total.
    let ops_s = if windowed {
        stats::windowed_rate(&log.starts(), secs)
    } else {
        log.timed_ops as f64 / secs
    };
    m.push(metric("ops_s", ops_s, "1/s", log.timed_ops));
    for verb in [gen::Verb::Get, gen::Verb::Insert, gen::Verb::Range] {
        for (p, tag) in [(0.5, "p50"), (0.99, "p99")] {
            let (v, n) = q(verb, p);
            m.push(metric(format!("{}_{tag}_us", verb.name()), v, "us", n));
        }
    }
    m.push(metric("load_keys_s", median(&out.load_rates), "1/s", out.load_rates.len() as u64));
    m.push(metric("scan_keys_s", median(&out.scan_rates), "1/s", out.scan_rates.len() as u64));
    m.push(metric("recovery_s", median(&out.recovery_s), "s", out.recovery_s.len() as u64));
    let live = out.live_keys.max(1) as f64;
    m.push(metric("disk_bytes_per_key", out.disk_bytes as f64 / live, "B", 1));
    m.push(metric("heap_bytes_per_key", out.heap_bytes, "B", 1));
    m
}

/// The commit this tree was built from, read from `.git` directly (the
/// benchmark may run where no `git` binary or repository exists).
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(c) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The provenance stamp carried by every result.
fn provenance(args: &Args, sizes: &Sizes) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flush = match args.workload {
        Workload::AppendDurable => "FsyncPolicy::Always",
        _ => "none (in-memory server)",
    };
    format!(
        "{{\"commit\": {}, \"rustc\": {}, \"available_parallelism\": {cores}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"connections\": {}, \"flush_policy\": {}, \"sizes\": {}}}",
        json_str(&commit()),
        json_str(&rustc_version()),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        serve::CONNS,
        json_str(flush),
        json_str(&format!("{sizes:?}")),
    )
}

/// Reported on stderr and in the ledger, but left out of the result line:
/// on a shared 2-core machine their run-to-run spread is wider than the
/// largest bound a result-line metric may carry.
fn ungated(name: &str) -> bool {
    name.ends_with("_p99_us")
}

/// A JSON object of `metrics` by name: value and unit, and with
/// `samples` the sample count too.
pub fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>, samples: bool) -> String {
    let body: Vec<String> = metrics
        .map(|m| {
            let n = if samples { format!(", \"samples\": {}", m.samples) } else { String::new() };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn report(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        eprintln!("  {:<40} {:>16.4} {:<6} (n = {})", m.name, m.value, m.unit, m.samples);
    }
}

fn run(
    args: &Args,
    sizes: Sizes,
) -> Result<(Outcome, Vec<Metric>, Option<ledger::Ledger>), String> {
    let data_dir = PathBuf::from(".stackbench_data").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&data_dir).map_err(|e| format!("create {data_dir:?}: {e}"))?;
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        sizes,
        data_dir,
    };
    let result = (|| {
        let out = match args.workload {
            Workload::OltpUniform => serve::oltp_uniform(&cfg)?,
            Workload::AppendDurable => serve::append_durable(&cfg)?,
            Workload::LoadScan => serve::load_scan(&cfg)?,
        };
        let e2e = end_to_end(&out, &out.timed, out.timed_s, !out.load_phases);
        let ledger = if args.trace { Some(ledger::run(args.workload, &cfg, &out)?) } else { None };
        Ok((out, e2e, ledger))
    })();
    let _ = std::fs::remove_dir_all(&cfg.data_dir);
    let _ = std::fs::remove_dir(".stackbench_data");
    result
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The checker must be seen to fail on wrong replies before its passes
    // mean anything.
    let broken = check::self_test();
    if !broken.is_empty() {
        eprintln!("checker self-test failed: {broken:?}");
        std::process::exit(1);
    }
    eprintln!("checker self-test: every deliberately wrong reply was caught");
    let sizes = Sizes::default();
    let prov = provenance(&args, &sizes);
    let (out, e2e, ledger) = match run(&args, sizes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stackbench: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("provenance: {prov}");
    let title = format!("end-to-end ({}, seed {})", args.workload.name(), args.seed);
    report(&title, &e2e);
    let (attempted, failed) = (out.attempted(), out.failed());
    eprintln!(
        "  failed_frac = {failed} / {attempted} = {:.6}",
        failed as f64 / attempted.max(1) as f64
    );
    for e in out.errors() {
        eprintln!("  wrong answer: {e}");
    }
    let metrics = match &ledger {
        Some(l) => {
            report("end-to-end, untraced seconds", &l.untraced_e2e);
            report("end-to-end, traced seconds", &l.traced_e2e);
            eprintln!("tracing overhead (traced / untraced seconds - 1):");
            for (u, t) in l.untraced_e2e.iter().zip(&l.traced_e2e) {
                eprintln!("  {:<40} {:+.2}%", u.name, (t.value / u.value - 1.0) * 100.0);
            }
            report("per-layer ledger", &l.per_layer);
            if let Err(e) = l.write(&prov, &e2e) {
                eprintln!("stackbench: writing the ledger: {e}");
                std::process::exit(1);
            }
            &l.per_layer
        }
        None => &e2e,
    };
    println!("{{\"provenance\": {prov}}}");
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics.iter().filter(|m| !ungated(&m.name)), false)
    );
    if !correct {
        std::process::exit(1);
    }
}
