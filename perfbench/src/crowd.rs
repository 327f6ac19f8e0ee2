//! `crowd-serve`: the request-driven [`ServingCore`].
//!
//! The `smn_datasets::open_loop` session stream of each webform
//! federation is submitted and pumped one event at a time by the
//! benchmark's own loop — a closed loop, so latencies are service times.
//! A crowd of three 10%-error workers gives k = 3 quality-weighted votes;
//! two commit threads, the default flush and fork caps, and a durable
//! store under `.bench_out`. Ingress, session forks, vote aggregation,
//! commit lanes, the WAL and publication do the work; information gain
//! does none (serving selects by entropy argmax). Each federation gets a
//! fresh core, so the O(|C|) session-fork cost stays bounded by one
//! federation's size. The event stream is the repository's serving
//! bench's (`smn_bench::serve::serve_events`): enough exchanges to
//! exhaust the answer capacity plus a fifth that starves, with a
//! publication tick every 256 events.

use crate::inputs::{derive, federation, Case};
use crate::rep::{self, Rep};
use crate::report::{mean, median, Outcome};
use crate::{host, sys, trace, Opts, OUT_DIR};
use smn_bench::serve::serve_events;
use smn_bench::sharding::bench_sampler;
use smn_core::ShardingConfig;
use smn_service::{Aggregation, Scheduler, ServeConfig, ServiceEvent, ServingCore};
use smn_storage::DurableStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metrics this workload measures.
pub const LAYER_METRICS: [&str; 13] = [
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
];

const STREAM_NETWORK: u64 = 11;
const STREAM_SAMPLER: u64 = 12;
const STREAM_CROWD: u64 = 13;
const STREAM_SESSIONS: u64 = 14;

/// Votes per question, and crowd size.
const K: usize = 3;
const ERROR_RATE: f64 = 0.1;

/// Flush samples the traced run collects for `serve.flush_us_p99`, and
/// the most repetitions it makes to collect them.
const MIN_FLUSHES: usize = 1010;
const MAX_TRACED_REPS: usize = 4;

/// Input size of a run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Webform clusters per federation.
    pub groups: usize,
    /// Federations of a run; a repetition serves every one of them.
    pub federations: usize,
    /// Sessions of the open-loop stream.
    pub sessions: u64,
}

/// The benchmark's size: 64 120-cluster federations (about 5k answers
/// each). Latency tails depend on a federation's few largest components:
/// one federation's answer p99 lies anywhere from about 20 to 50 µs, so
/// a few federations would make the pooled tail vary from seed to seed.
pub const FULL: Scale = Scale { groups: 120, federations: 64, sessions: 1024 };

/// Fewest repetitions a run makes.
const MIN_REPS: usize = 3;

/// Federations the untimed warm-up serves.
const WARM_UP_FEDERATIONS: usize = 8;

/// What the traced repetitions measured beyond a [`Rep`].
#[derive(Debug, Default)]
struct Layers {
    vote_us: Vec<f64>,
    publish_us: Vec<f64>,
    flush_us: Vec<f64>,
    flush_commits: Vec<f64>,
    finish_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    wait_ticks: Vec<f64>,
    leased: u64,
    question_events: u64,
    wal_bytes: u64,
    flushes: u64,
    commits: u64,
}

/// The serving configuration of federation `index`.
pub fn config(seed: u64, index: usize) -> ServeConfig {
    let i = index as u64;
    ServeConfig {
        sampler: bench_sampler(derive(seed, STREAM_SAMPLER, i)),
        sharding: ShardingConfig::default(),
        redundancy: K,
        aggregation: Aggregation::QualityWeighted,
        threads: 2,
        scheduler: Scheduler::Pool,
        seed: derive(seed, STREAM_CROWD, i),
        ..ServeConfig::default()
    }
}

/// Bytes of write-ahead log on disk under `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "log"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A durable-store directory unique to this process and federation.
fn store_dir(index: usize) -> PathBuf {
    Path::new(OUT_DIR).join("tmp").join(format!("crowd-{}-{index}", std::process::id()))
}

/// The federations of a run.
pub fn cases(seed: u64, scale: Scale) -> Vec<Case> {
    (0..scale.federations)
        .map(|i| federation(scale.groups, derive(seed, STREAM_NETWORK, i as u64)))
        .collect()
}

/// Serves federation `index` into `rep`: a fresh core serves its whole
/// stream; then, outside the timed phase, storage must have stayed
/// healthy and recovery must reproduce the served posteriors bit for
/// bit. Returns the federation's quality and output fingerprint.
fn serve(
    case: &Case,
    index: usize,
    seed: u64,
    scale: Scale,
    rep: &mut Rep,
    layers: &mut Layers,
) -> ((f64, f64, f64), String) {
    let traced = trace::on();
    let dir = store_dir(index);
    let _ = std::fs::remove_dir_all(&dir);
    let root = trace::enter("bench.network");
    trace::set_request(index, 0);
    let start = Instant::now();
    let built = {
        let _s = trace::enter("serve.new");
        ServingCore::new(
            case.network.clone(),
            case.truth.clone(),
            vec![ERROR_RATE; K],
            config(seed, index),
        )
        .map_err(|e| format!("{e:?}"))
        .and_then(|mut core| core.attach_durability(&dir).map(|()| core).map_err(|e| e.to_string()))
    };
    rep.setup_s += start.elapsed().as_secs_f64();
    drop(root);
    let mut core = match built {
        Ok(core) => core,
        Err(e) => {
            rep.check(false, || format!("federation {index}: building the core failed: {e}"));
            return ((0.0, 0.0, 0.0), String::new());
        }
    };
    let probs = core.base().probabilities();
    let uncertain = probs.iter().filter(|&&p| p > 0.0 && p < 1.0).count();
    let initial_entropy = core.base().entropy();
    let stream =
        serve_events(scale.sessions, uncertain, K, derive(seed, STREAM_SESSIONS, index as u64));

    let mut starts: Vec<Instant> = Vec::with_capacity(stream.len());
    let mut refused = Vec::new();
    let root = trace::enter("bench.network");
    let drive = Instant::now();
    for (op, &event) in stream.iter().enumerate() {
        trace::set_request(index, op + 1);
        let t0 = Instant::now();
        let span = trace::enter(match event {
            ServiceEvent::Question { .. } => "serve.question",
            ServiceEvent::Answer { .. } => "serve.answer",
            _ => "serve.publish",
        });
        if core.submit(event).is_err() {
            refused.push(op);
            continue;
        }
        starts.push(t0);
        let (flushes, commits) = (core.flushes(), core.commits().len());
        let published = traced.then(|| Arc::as_ptr(core.published()));
        core.pump();
        drop(span);
        let t1 = Instant::now();
        let us = (t1 - t0).as_secs_f64() * 1e6;
        match event {
            ServiceEvent::Question { .. } => rep.question_us.push(us),
            ServiceEvent::Answer { .. } => rep.answer_us.push(us),
            _ => {}
        }
        for c in &core.commits()[commits..] {
            rep.commit_us.push((t1 - starts[c.decided_clock as usize]).as_secs_f64() * 1e6);
        }
        if traced {
            let flushed = core.flushes() != flushes;
            if flushed {
                layers.flush_us.push(us);
                layers.flush_commits.push((core.commits().len() - commits) as f64);
            }
            match event {
                ServiceEvent::Question { .. } => layers.question_events += 1,
                ServiceEvent::Answer { .. } if !flushed => layers.vote_us.push(us),
                ServiceEvent::PublishTick if published != Some(Arc::as_ptr(core.published())) => {
                    layers.publish_us.push(us)
                }
                _ => {}
            }
        }
    }
    let wal = if traced { wal_bytes(&dir) } else { 0 };
    let t_finish = Instant::now();
    let report = {
        let _s = trace::enter("serve.finish");
        core.finish()
    };
    let t_end = Instant::now();
    rep.drive_s += (t_end - drive).as_secs_f64();
    drop(root);

    rep.check(refused.is_empty(), || {
        format!("federation {index}: events {refused:?} were refused at ingress")
    });
    rep.answers += report.questions_asked;
    let mut curve = vec![(0.0, 1.0)];
    curve
        .extend(report.commits.iter().map(|c| (c.effort_after, c.entropy_after / initial_entropy)));
    let quality = (crate::expert::auc(&curve), report.final_precision, report.final_recall);
    let json = serde_json::to_string(&report).expect("reports serialize");
    let fingerprint = format!("{:016x}/{}", crate::inputs::fnv(json.as_bytes()), json.len());
    if traced {
        layers.finish_ms.push((t_end - t_finish).as_secs_f64() * 1e3);
        layers.leased += report.questions_leased;
        layers
            .wait_ticks
            .extend(report.commits.iter().map(|c| (c.committed_clock - c.decided_clock) as f64));
        layers.wal_bytes += wal;
        layers.flushes += report.flushes;
        layers.commits += report.commits.len() as u64;
    }

    let error = core.durability_error().map(|e| e.to_string()).or(report.durability_error);
    rep.check(error.is_none(), || format!("federation {index}: durability error {error:?}"));
    // the core goes before recovery, so that recovery's memory is not
    // added to the serving core's
    let served = core.base().probabilities().to_vec();
    drop(core);
    let t = Instant::now();
    let recovered = {
        let _s = trace::enter("storage.recover");
        DurableStore::recover(&dir)
    };
    if traced {
        layers.recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    match recovered {
        Ok(r) => rep.check(same(r.network.probabilities(), &served), || {
            format!("federation {index}: recovered posteriors differ from the served ones")
        }),
        Err(e) => rep.check(false, || format!("federation {index}: recovery failed: {e}")),
    }
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        rep.check(false, || format!("removing {}: {e}", dir.display()));
    }
    (quality, fingerprint)
}

/// One repetition: every federation of the run, each on a fresh core,
/// so that every repetition serves the same mix of inputs however many
/// repetitions the measuring time holds.
fn unit(cases: &[Case], seed: u64, scale: Scale, layers: &mut Layers) -> Rep {
    let mut rep = Rep::default();
    let mut quality = Vec::with_capacity(cases.len());
    let mut fingerprints = Vec::with_capacity(cases.len());
    let ((), around) = host::bracket(|| {
        for (index, case) in cases.iter().enumerate() {
            let (q, fingerprint) = serve(case, index, seed, scale, &mut rep, layers);
            quality.push(q);
            fingerprints.push(fingerprint);
        }
    });
    rep.bracketed(around);
    rep.quality = crate::expert::mean_quality(&quality);
    rep.fingerprint = fingerprints.join(",");
    rep.seal();
    rep
}

/// Runs the workload at `scale`.
pub fn run_scaled(opts: &Opts, ctx: &str, scale: Scale) -> Outcome {
    let cases = cases(opts.seed, scale);
    let mut out = Outcome::default();
    // the untimed warm-up pass (see `rep`): federations are served one
    // after another on fresh cores, so a few of them reach the heap and
    // caches a whole repetition needs
    let warm = &cases[..cases.len().min(WARM_UP_FEDERATIONS)];
    unit(warm, opts.seed, scale, &mut Layers::default());
    let cpu0 = sys::cpu_seconds(None).unwrap_or(0.0);
    let plain = rep::repeat(opts.budget(), MIN_REPS, |_| {
        unit(&cases, opts.seed, scale, &mut Layers::default())
    });
    let cpu = sys::cpu_seconds(None).unwrap_or(0.0) - cpu0;
    rep::end_to_end(&plain, &mut out);
    if !opts.trace {
        if let Some(mib) = rep::peak_rss_mib(&plain) {
            out.metric("peak_rss_mb", mib, "MiB");
        }
        return out;
    }
    let mut t = Layers::default();
    trace::start();
    // repeat until the flush p99 has the samples it needs
    let start = Instant::now();
    let mut traced = Vec::new();
    while traced.is_empty()
        || start.elapsed() < opts.budget()
        || (t.flush_us.len() < MIN_FLUSHES && traced.len() < MAX_TRACED_REPS)
    {
        traced.push(unit(&cases, opts.seed, scale, &mut t));
    }
    let spans = trace::stop();
    out.percentiles("serve.vote", &t.vote_us, &[("serve.vote_us_p50", 0.5)], "us");
    out.percentiles("serve.publish", &t.publish_us, &[("serve.publish_us_p50", 0.5)], "us");
    out.metric("serve.finish_ms", median(&t.finish_ms), "ms");
    out.samples("serve.finish", t.finish_ms.len());
    out.metric("serve.leased_share", t.leased as f64 / t.question_events.max(1) as f64, "ratio");
    out.percentiles(
        "serve.flush",
        &t.flush_us,
        &[("serve.flush_us_p50", 0.5), ("serve.flush_us_p99", 0.99)],
        "us",
    );
    out.metric("serve.flush_commits_mean", mean(&t.flush_commits), "count");
    out.percentiles(
        "serve.commit_wait",
        &t.wait_ticks,
        &[("serve.commit_wait_ticks_p50", 0.5), ("serve.commit_wait_ticks_p99", 0.99)],
        "count",
    );
    // the commit p99 the end-to-end metrics leave out, unscaled
    let p99: Vec<Option<f64>> = traced.iter().map(|r| r.tails[2].at(0.99)).collect();
    out.supported("serve.commit_us_p99", 0.99, &p99, "us");
    out.metric(
        "storage.wal_bytes_per_commit",
        t.wal_bytes as f64 / t.commits.max(1) as f64,
        "bytes",
    );
    out.metric("storage.fsyncs_per_commit", t.flushes as f64 / t.commits.max(1) as f64, "ratio");
    out.metric("storage.recover_ms", median(&t.recover_ms), "ms");
    out.samples("storage.recover", t.recover_ms.len());
    let answers: u64 = plain.iter().map(|r| r.answers).sum();
    let cpu_us = cpu * 1e6 / answers.max(1) as f64;
    crate::finish_trace(
        opts,
        ctx,
        &spans,
        cpu_us,
        rep::median_rate(&plain),
        rep::median_rate(&traced),
        &mut out,
    );
    out
}

/// Runs the workload.
pub fn run(opts: &Opts, ctx: &str) -> Result<Outcome, String> {
    Ok(run_scaled(opts, ctx, FULL))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tiny_crowd_run_passes_its_checks_in_both_modes() {
        let _serial = crate::tests::serial();
        let scale = Scale { groups: 6, federations: 2, sessions: 32 };
        for trace in [false, true] {
            let opts = Opts { workload: "crowd-serve".into(), seed: 2, seconds: 0.0, trace };
            let out = run_scaled(&opts, "{}", scale);
            assert_eq!(out.failed, out.refused, "{:?}", out.failures);
            assert!(out.value("answers_per_s").unwrap() > 0.0);
            if trace {
                assert!(out.value("storage.wal_bytes_per_commit").unwrap() > 0.0);
                assert!(out.value("trace.unaccounted_share").unwrap() < 0.1);
            } else {
                assert!(out.value("final_precision").unwrap() > 0.5);
            }
        }
    }
}
