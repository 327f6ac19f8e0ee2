//! The repository's benchmark: three workloads of the pay-as-you-go
//! reconciliation loop, each driven from this one process through the
//! public APIs of `smn-core`, `smn-service`, `smn-storage` and
//! `smn-dist`. See `perfbench/README.md` for the workloads, the metrics
//! and how to read a trace.
//!
//! ```text
//! smn-perfbench --workload <paper-expert|crowd-serve|cluster-rounds>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod cluster;
mod crowd;
mod expert;
mod host;
mod inputs;
mod rep;
mod report;
mod sys;
mod trace;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [&str; 12] = [
    "setup_s",
    "answers_per_s",
    "question_p50_us",
    "question_p99_us",
    "answer_p50_us",
    "answer_p99_us",
    "commit_p50_us",
    "peak_rss_mb",
    "entropy_auc",
    "final_precision",
    "final_recall",
    "ok_share",
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [&str; 39] = [
    "core.fill_ms_p50",
    "core.refill_share",
    "core.assert_refill_us_p50",
    "core.assert_maintain_us_p50",
    "core.select_us_p50",
    "core.select_us_p99",
    "core.pool_mean",
    "core.assert_us_p50",
    "core.assert_us_p99",
    "serve.vote_us_p50",
    "serve.publish_us_p50",
    "serve.finish_ms",
    "serve.leased_share",
    "serve.flush_us_p50",
    "serve.flush_us_p99",
    "serve.flush_commits_mean",
    "serve.commit_wait_ticks_p50",
    "serve.commit_wait_ticks_p99",
    "serve.commit_us_p99",
    "storage.wal_bytes_per_commit",
    "storage.fsyncs_per_commit",
    "storage.recover_ms",
    "service.round_self_us_per_answer",
    "dist.model_gains_us_per_answer",
    "dist.model_what_if_us_per_answer",
    "dist.model_assert_us_per_answer",
    "dist.coordinator_self_us_per_answer",
    "dist.bootstrap_ms",
    "dist.rpcs_per_answer.gains",
    "dist.rpcs_per_answer.assert",
    "dist.rpcs_per_answer.what_if",
    "dist.bytes_per_answer",
    "dist.rtt_us_p50.gains",
    "dist.rtt_us_p99.gains",
    "dist.rtt_us_p50.assert",
    "dist.rtt_us_p50.what_if",
    "process.cpu_us_per_answer",
    "trace.overhead_share",
    "trace.unaccounted_share",
];

/// Per-layer metrics every workload measures.
pub const COMMON_LAYER_METRICS: [&str; 3] =
    ["process.cpu_us_per_answer", "trace.overhead_share", "trace.unaccounted_share"];

/// The unit of a per-layer metric, from its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.contains("_us") {
        "us"
    } else if name.contains("_ms") {
        "ms"
    } else if name.contains("bytes") {
        "bytes"
    } else if name.contains("share") || name.contains("_per_") {
        "ratio"
    } else {
        "count"
    }
}

/// Where runs leave their traces and their temporary durable stores.
pub const OUT_DIR: &str = ".bench_out";

/// One invocation's options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    /// The measuring budget of one phase: all of `--seconds`, or half of
    /// it for each of the untraced and traced phases of a traced run.
    pub fn budget(&self) -> Duration {
        let share = if self.trace { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {value} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A digest of the sources the measured program is built from, so a
/// result can be tied to its code where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for path in &files {
        bytes.extend_from_slice(path.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(path).unwrap_or_default());
    }
    format!("{:016x}/{}files", inputs::fnv(&bytes), files.len())
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run context stamped on every result and trace.
fn context(opts: &Opts, nproc: usize, cpus_allowed: &str) -> String {
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"commit\": {:?}, \"source_digest\": {:?}, \"cpu_model\": {:?}, \"nproc\": {nproc}, \
         \"cpus_allowed\": {cpus_allowed:?}, \"cpus_used\": {:?}, \"profile\": {profile:?}, \"workload\": {:?}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}}}",
        git_commit(),
        source_digest(),
        sys::cpu_model(),
        sys::cpus_allowed(),
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
    )
}

/// The per-layer metrics every traced workload reports, then the trace
/// file. `cpu_us_per_answer` and `rate_plain` come from the untraced
/// repetitions, which ran the same unit of work as the traced ones, so
/// `rate_traced / rate_plain` prices the tracing itself.
pub fn finish_trace(
    opts: &Opts,
    ctx: &str,
    spans: &[trace::Span],
    cpu_us_per_answer: f64,
    rate_plain: f64,
    rate_traced: f64,
    out: &mut Outcome,
) {
    out.metric("process.cpu_us_per_answer", cpu_us_per_answer, "us");
    out.metric("trace.overhead_share", 1.0 - rate_traced / rate_plain, "ratio");
    // the benchmark's own time between layer calls is what no layer
    // accounts for: the self time of the per-network root spans
    let selfs = trace::self_times(spans);
    let (mut wall, mut residual) = (0u64, 0u64);
    for (span, own) in spans.iter().zip(&selfs) {
        if span.parent.is_none() && span.name == "bench.network" {
            wall += span.end - span.start;
            residual += own;
        }
    }
    out.metric("trace.unaccounted_share", residual as f64 / wall.max(1) as f64, "ratio");
    println!("trace layers (name, spans, total ms, self ms, self share of wall):");
    for (name, (count, total, own)) in trace::totals(spans) {
        println!(
            "trace {name:<28} {count:>9} {:>12.3} {:>12.3} {:>8.4}",
            total as f64 / 1e6,
            own as f64 / 1e6,
            own as f64 / wall.max(1) as f64
        );
    }
    let path = Path::new(OUT_DIR).join(format!("trace-{}.tsv", opts.workload));
    match trace::write(&path, ctx, spans) {
        Ok(()) => println!("trace written to {} ({} spans)", path.display(), spans.len()),
        Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
    }
}

/// The child-process entry of `cluster-rounds`: one shard server.
fn shard_server() -> i32 {
    match cluster::shard_server_main() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("shard server: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(cluster::SHARD_SERVER_FLAG) {
        std::process::exit(shard_server());
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("smn-perfbench: {e}");
            std::process::exit(2);
        }
    };
    type Run = fn(&Opts, &str) -> Result<Outcome, String>;
    let (run, layers): (Run, &[&str]) = match opts.workload.as_str() {
        "paper-expert" => (expert::run, &expert::LAYER_METRICS),
        "crowd-serve" => (crowd::run, &crowd::LAYER_METRICS),
        "cluster-rounds" => (cluster::run, &cluster::LAYER_METRICS),
        other => {
            eprintln!("smn-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let (nproc, cpus_allowed) = (sys::nproc(), sys::cpus_allowed());
    // every workload runs on one CPU: handing work to a thread or process
    // on the other CPU costs a cross-core wake-up whose price on a shared
    // machine varies far more than the work itself. Pinning comes before
    // the context is stamped, so the context records the CPU used.
    if let Err(e) = sys::pin_to_last_cpu() {
        eprintln!("smn-perfbench: {e}");
        std::process::exit(1);
    }
    let ctx = context(&opts, nproc, &cpus_allowed);
    println!("context {ctx}");
    let mut outcome = match run(&opts, &ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("smn-perfbench: {e}");
            std::process::exit(1);
        }
    };
    if opts.trace {
        for name in PER_LAYER {
            if !layers.contains(&name) && !COMMON_LAYER_METRICS.contains(&name) {
                outcome.metric(name, 0.0, unit_of(name));
            }
        }
        outcome.select(&PER_LAYER);
        outcome.set_units(unit_of);
    } else {
        let share = if outcome.attempted == 0 {
            0.0
        } else {
            (outcome.attempted - outcome.failed) as f64 / outcome.attempted as f64
        };
        outcome.metric("ok_share", share, "ratio");
        outcome.select(&END_TO_END);
    }
    print!("{}", outcome.render());
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that run workloads: the span recorder is
    /// process-wide.
    pub fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_and_reject() {
        let o = parse(&args("--workload crowd-serve --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("crowd-serve", 7, 2.0, true)
        );
        assert_eq!(o.budget(), Duration::from_secs(1));
        assert!(parse(&args("--workload x --seed")).is_err());
        assert!(parse(&args("--workload x --seed 1 --trace 2")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
    }

    /// `(name, unit)` of every metric object in the `key` list of
    /// `BENCHMARK.json`, read without a JSON parser.
    fn listed(text: &str, key: &str) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("metric list");
        let list = &text[start..start + text[start..].find(']').expect("list end")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
            obj[at..at + obj[at..].find('"').expect("value end")].to_string()
        };
        list.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
    }

    #[test]
    fn the_benchmark_description_lists_every_metric() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let names: Vec<String> = listed(&text, "end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, END_TO_END);
        let expected: Vec<(String, String)> =
            PER_LAYER.iter().map(|n| (n.to_string(), unit_of(n).to_string())).collect();
        assert_eq!(listed(&text, "per_layer"), expected);
    }

    #[test]
    fn metric_names_fit_the_contract() {
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
    }
}
