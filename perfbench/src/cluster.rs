//! `cluster-rounds`: the round-mode [`ReconciliationService`] over a
//! [`DistNetwork`] of two shard-server child processes on loopback TCP.
//!
//! Shards are sampled (`exact_threshold: 0`), the coordinator runs one
//! thread with `Scheduler::Inline`, k = 3 votes from three workers, and
//! every network is reconciled to completion. Frame encode/decode, TCP,
//! the servers' shard kernels and the dispatcher do the work; sessions
//! and storage do none. The core's assert and gain paths run remote and
//! routed here, against per-shard caches.
//!
//! The benchmark is pinned to one CPU before it spawns, and the servers
//! inherit the pinning: every lockstep RPC otherwise pays a cross-core
//! wake-up, which made unpinned runs both slower and far less steady.
//!
//! `run()` exposes no per-operation latency, so the model is wrapped in
//! [`Observed`], a delegating `ServeModel` + `GainSource` that times each
//! call: the gain lookups of a pick are the round's question, the what-if
//! batch that prices the votes is its answer, the routed assert its
//! commit. With tracing on, [`WireTap`] wraps each link to time RPCs.

use crate::inputs::{derive, federation, Case};
use crate::rep::{self, Rep};
use crate::report::{median, Outcome};
use crate::{host, sys, trace, Opts};
use smn_bench::sharding::bench_sampler;
use smn_core::feedback::{Assertion, Feedback};
use smn_core::{
    AssertError, GainCache, GainSource, MatchingNetwork, ProbabilisticNetwork, ReconciliationGoal,
    ShardingConfig,
};
use smn_dist::proto::{REQ_ASSERT, REQ_BOOTSTRAP, REQ_GAINS, REQ_WHAT_IF};
use smn_dist::{serve, DistNetwork, TcpTransport, Transport};
use smn_schema::CandidateId;
use smn_service::{Aggregation, ReconciliationService, Scheduler, ServeModel, ServiceConfig};
use smn_storage::Frame;
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Per-layer metrics this workload measures.
pub const LAYER_METRICS: [&str; 14] = [
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
];

/// The most repetitions a traced run makes to collect enough RPCs.
const MAX_TRACED_REPS: usize = 12;

/// The first argument that turns the benchmark binary into a shard server.
pub const SHARD_SERVER_FLAG: &str = "--shard-server";

/// Shard servers behind the coordinator.
pub const SERVERS: usize = 2;

const STREAM_NETWORK: u64 = 21;
const STREAM_SAMPLER: u64 = 22;
const STREAM_SERVICE: u64 = 23;

/// Votes per question, and crowd size.
const K: usize = 3;
const ERROR_RATE: f64 = 0.1;

/// Input size of a run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Webform clusters in the network.
    pub groups: usize,
    /// Fewest repetitions a run makes.
    pub min_reps: usize,
}

/// The benchmark's size: one 240-cluster network (about 10k answers)
/// per repetition.
pub const FULL: Scale = Scale { groups: 240, min_reps: 3 };

/// One shard server: binds a loopback listener, announces `PORT <n>` on
/// standard output, accepts one coordinator and serves it — one network
/// after another, each ended by the coordinator's shutdown request —
/// until the coordinator closes the link.
pub fn shard_server_main() -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let port = listener.local_addr().map_err(|e| format!("local addr: {e}"))?.port();
    println!("PORT {port}");
    let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    let mut link = TcpTransport::new(stream).map_err(|e| e.to_string())?;
    // Ok: one network ended; Err: the coordinator closed the link
    while serve(&mut link).is_ok() {}
    Ok(())
}

/// One coordinator-side link per shard server.
type Links = Vec<Box<dyn Transport>>;

/// A local shard server's thread.
type ServerThread = JoinHandle<Result<(), smn_dist::DistError>>;

/// The shard servers of a run.
pub enum Cluster {
    /// Child processes, one persistent TCP link each.
    Processes { children: Vec<Child>, streams: Vec<TcpStream> },
    /// In-process server threads (`spawn_local_cluster`), fresh per
    /// repetition — the deterministic harness of the tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Local,
}

impl Cluster {
    /// Spawns the shard-server child processes and connects to each.
    pub fn spawn() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut cluster = Cluster::Processes { children: Vec::new(), streams: Vec::new() };
        for _ in 0..SERVERS {
            let mut child = Command::new(&exe)
                .arg(SHARD_SERVER_FLAG)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn shard server: {e}"))?;
            let mut line = String::new();
            let read = child
                .stdout
                .take()
                .map(|out| BufReader::new(out).read_line(&mut line))
                .ok_or("shard server stdout")?;
            let Cluster::Processes { children, streams } = &mut cluster else { unreachable!() };
            children.push(child);
            read.map_err(|e| format!("read port line: {e}"))?;
            let port: u16 = line
                .trim()
                .strip_prefix("PORT ")
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("shard server announced {line:?}"))?;
            let stream = TcpStream::connect(("127.0.0.1", port))
                .map_err(|e| format!("connect shard server: {e}"))?;
            stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            streams.push(stream);
        }
        Ok(cluster)
    }

    /// Links for the next network, tapped when `wire` is given, and the
    /// server threads of a local cluster.
    fn links(&self, wire: Option<&Arc<WireStats>>) -> Result<(Links, Vec<ServerThread>), String> {
        let (plain, handles): (Links, _) = match self {
            Cluster::Processes { streams, .. } => {
                let mut links: Links = Vec::new();
                for s in streams {
                    let clone = s.try_clone().map_err(|e| format!("clone link: {e}"))?;
                    links.push(Box::new(TcpTransport::new(clone).map_err(|e| e.to_string())?));
                }
                (links, Vec::new())
            }
            Cluster::Local => {
                let (links, handles) = smn_dist::spawn_local_cluster(SERVERS);
                (links.into_iter().map(|l| Box::new(l) as Box<dyn Transport>).collect(), handles)
            }
        };
        let links = match wire {
            Some(w) => plain
                .into_iter()
                .map(|inner| {
                    Box::new(WireTap { inner, stats: Arc::clone(w), open: None })
                        as Box<dyn Transport>
                })
                .collect(),
            None => plain,
        };
        Ok((links, handles))
    }

    fn child_pids(&self) -> Vec<u32> {
        match self {
            Cluster::Processes { children, .. } => children.iter().map(Child::id).collect(),
            Cluster::Local => Vec::new(),
        }
    }

    /// Closes the links and waits for every server to exit.
    pub fn close(mut self) -> Result<(), String> {
        let Cluster::Processes { children, streams } = &mut self else { return Ok(()) };
        streams.clear();
        let mut result = Ok(());
        for mut child in children.drain(..) {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => result = Err(format!("shard server exited with {status}")),
                Err(e) => result = Err(format!("waiting for a shard server: {e}")),
            }
        }
        result
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // reached only when `close` was not: never leave servers behind
        if let Cluster::Processes { children, .. } = self {
            for child in children {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Bytes that crossed the tapped links, both directions.
#[derive(Debug, Default)]
pub struct WireStats {
    // statistics: they publish no other data
    bytes: AtomicU64,
    gains_rpcs: AtomicU64,
}

/// A `Transport` wrapper that records one leaf span per RPC, from the
/// request's send to the reply's receipt, and counts payload bytes.
struct WireTap {
    inner: Box<dyn Transport>,
    stats: Arc<WireStats>,
    open: Option<trace::Guard>,
}

fn rpc_span(kind: u32) -> &'static str {
    match kind {
        REQ_GAINS => "rpc.gains",
        REQ_WHAT_IF => "rpc.what_if",
        REQ_ASSERT => "rpc.assert",
        REQ_BOOTSTRAP => "rpc.bootstrap",
        _ => "rpc.other",
    }
}

impl Transport for WireTap {
    fn send(&mut self, kind: u32, payload: &[u8]) -> Result<(), smn_dist::DistError> {
        self.open = Some(trace::leaf(rpc_span(kind)));
        self.stats.bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
        if kind == REQ_GAINS {
            self.stats.gains_rpcs.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.send(kind, payload)
    }

    fn recv(&mut self) -> Result<Frame, smn_dist::DistError> {
        let frame = self.inner.recv();
        if let Ok(f) = &frame {
            self.stats.bytes.fetch_add(f.payload.len() as u64, Ordering::Relaxed);
        }
        self.open = None;
        frame
    }
}

/// Per-call latencies of the model, by round step.
#[derive(Debug, Default)]
pub struct Calls {
    /// Lease phases: from a pick's pool scan to the vote pricing.
    pub question_us: Vec<f64>,
    /// What-if batches (pricing a round's votes).
    pub what_if_us: Vec<f64>,
    /// Routed asserts (commits).
    pub assert_us: Vec<f64>,
    /// Asserts the model refused with a typed [`AssertError`]. The
    /// service integrates a refused approval as a disapproval ("flipped")
    /// and skips the commit if that is refused too.
    pub refused: u64,
    /// When the current round's pick started.
    pick_start: Option<Instant>,
}

/// A delegating model that times the round's steps in the wrapped one
/// and, with tracing on, records a span per call. It forwards every
/// `GainSource` method, provided ones included, so the wrapped model's
/// own implementations run unchanged.
pub struct Observed<M> {
    inner: M,
    calls: Mutex<Calls>,
}

impl<M> Observed<M> {
    pub fn new(inner: M) -> Self {
        Self { inner, calls: Mutex::new(Calls::default()) }
    }

    pub fn into_parts(self) -> (M, Calls) {
        (self.inner, self.calls.into_inner().expect("model call log poisoned"))
    }

    fn calls(&self) -> std::sync::MutexGuard<'_, Calls> {
        self.calls.lock().expect("model call log poisoned")
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce(&M) -> R) -> R {
        let _span = trace::enter(name);
        f(&self.inner)
    }
}

impl<M: ServeModel> GainSource for Observed<M> {
    fn gain_cache(&self) -> &Mutex<GainCache> {
        self.inner.gain_cache()
    }
    fn gain_structure_epoch(&self) -> u64 {
        self.inner.gain_structure_epoch()
    }
    fn gain_shard_epochs(&self) -> &[u64] {
        self.inner.gain_shard_epochs()
    }
    fn gain_shard_of(&self, c: CandidateId) -> usize {
        self.inner.gain_shard_of(c)
    }
    fn gain_shard_uncertain(&self, k: usize) -> Vec<CandidateId> {
        self.inner.gain_shard_uncertain(k)
    }
    fn compute_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        self.span("model.gains", |m| m.compute_gains(pool))
    }
    fn refresh_gain_cache(&self) {
        self.span("model.gains", |m| m.refresh_gain_cache())
    }
    fn cached_gain_window(&self) -> (Vec<CandidateId>, Vec<f64>) {
        self.span("model.gains", |m| m.cached_gain_window())
    }
    fn cached_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        self.span("model.gains", |m| m.cached_gains(pool))
    }
    fn warm_cached_gain(&self, c: CandidateId) -> Option<f64> {
        self.inner.warm_cached_gain(c)
    }
}

impl<M: ServeModel> ServeModel for Observed<M> {
    fn network(&self) -> &MatchingNetwork {
        self.inner.network()
    }
    fn feedback(&self) -> &Feedback {
        self.inner.feedback()
    }
    fn probability(&self, c: CandidateId) -> f64 {
        self.inner.probability(c)
    }
    fn entropy(&self) -> f64 {
        self.span("model.local", |m| m.entropy())
    }
    fn normalized_entropy(&self) -> f64 {
        self.span("model.local", |m| m.normalized_entropy())
    }
    fn effort(&self) -> f64 {
        self.inner.effort()
    }
    fn uncertain_candidates(&self) -> Vec<CandidateId> {
        // a round's pick starts with its pool scan
        self.calls().pick_start.get_or_insert_with(Instant::now);
        self.span("model.local", |m| m.uncertain_candidates())
    }
    fn shard_of(&self, c: CandidateId) -> usize {
        self.inner.shard_of(c)
    }
    fn information_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        self.span("model.gains", |m| m.information_gains(pool))
    }
    fn what_if_batch(&self, queries: &[(CandidateId, bool)]) -> Vec<f64> {
        let start = Instant::now();
        let mut calls = self.calls();
        if let Some(pick) = calls.pick_start.take() {
            calls.question_us.push((start - pick).as_secs_f64() * 1e6);
        }
        drop(calls);
        let values = self.span("model.what_if", |m| m.what_if_batch(queries));
        self.calls().what_if_us.push(start.elapsed().as_secs_f64() * 1e6);
        values
    }
    fn assert_candidate(&mut self, assertion: Assertion) -> Result<(), AssertError> {
        let start = Instant::now();
        let result = {
            let _span = trace::enter("model.assert");
            self.inner.assert_candidate(assertion)
        };
        let us = start.elapsed().as_secs_f64() * 1e6;
        let calls = self.calls.get_mut().expect("model call log poisoned");
        calls.assert_us.push(us);
        calls.refused += u64::from(result.is_err());
        result
    }
    fn as_local(&self) -> Option<&ProbabilisticNetwork> {
        self.inner.as_local()
    }
}

/// The service configuration.
pub fn config(seed: u64, index: usize) -> ServiceConfig {
    let i = index as u64;
    ServiceConfig {
        sampler: bench_sampler(derive(seed, STREAM_SAMPLER, i)),
        sharding: ShardingConfig { exact_threshold: 0, ..ShardingConfig::default() },
        redundancy: K,
        aggregation: Aggregation::Majority,
        threads: 1,
        scheduler: Scheduler::Inline,
        seed: derive(seed, STREAM_SERVICE, i),
        goal: ReconciliationGoal::Complete,
    }
}

/// The network of a run.
pub fn case(seed: u64, scale: Scale) -> Case {
    federation(scale.groups, derive(seed, STREAM_NETWORK, 0))
}

/// The in-process reference report: the same service over a
/// single-process `ProbabilisticNetwork`.
pub fn reference_report(case: &Case, config: ServiceConfig) -> String {
    let mut service = ReconciliationService::new(
        case.network.clone(),
        case.truth.clone(),
        vec![ERROR_RATE; K],
        config,
    );
    serde_json::to_string(&service.run()).expect("reports serialize")
}

/// What the traced repetitions measured beyond a [`Rep`].
#[derive(Debug, Default)]
struct Layers {
    wire_bytes: u64,
    gains_rpcs: u64,
}

/// One repetition: bootstrap the cluster from the network, reconcile it
/// to completion, shut the servers' shards down. Returns the repetition
/// and the serialized service report.
fn unit(
    cluster: &Cluster,
    case: &Case,
    seed: u64,
    layers: &mut Layers,
) -> Result<(Rep, String), String> {
    let cfg = config(seed, 0);
    let mut rep = Rep::default();
    let wire = trace::on().then(|| Arc::new(WireStats::default()));
    let (links, handles) = cluster.links(wire.as_ref())?;
    let root = trace::enter("bench.network");
    trace::set_request(0, 0);
    let start = Instant::now();
    let dist = {
        let _s = trace::enter("dist.new");
        DistNetwork::new(case.network.clone(), cfg.sampler, cfg.sharding, links)
            .map_err(|e| format!("bootstrap: {e}"))?
    };
    rep.setup_s = start.elapsed().as_secs_f64();
    let initial_entropy = dist.entropy();
    let mut service = ReconciliationService::with_model(
        Observed::new(dist),
        case.truth.clone(),
        vec![ERROR_RATE; K],
        cfg,
    );
    trace::set_request(0, 1);
    let start = Instant::now();
    let report = {
        let _s = trace::enter("service.run");
        service.run()
    };
    rep.drive_s = start.elapsed().as_secs_f64();
    drop(root);

    let (mut dist, calls) = service.into_model().into_parts();
    rep.question_us = calls.question_us;
    rep.answer_us = calls.what_if_us;
    rep.commit_us = calls.assert_us;
    rep.answers = report.questions_asked;
    // every refusal the model returned is one the report accounts for
    let outcomes = |what: &str| report.commits.iter().filter(|c| c.outcome == what).count();
    let expected = (outcomes("flipped") + 2 * outcomes("skipped")) as u64;
    rep.check(calls.refused == expected, || {
        format!("the model refused {} asserts, the report accounts for {expected}", calls.refused)
    });
    if let Some(w) = wire {
        layers.wire_bytes += w.bytes.load(Ordering::Relaxed);
        layers.gains_rpcs += w.gains_rpcs.load(Ordering::Relaxed);
    }
    let mut curve = vec![(0.0, 1.0)];
    curve
        .extend(report.commits.iter().map(|c| (c.effort_after, c.entropy_after / initial_entropy)));
    rep.quality = (crate::expert::auc(&curve), report.final_precision, report.final_recall);
    let json = serde_json::to_string(&report).expect("reports serialize");
    rep.fingerprint = format!("{:016x}/{}", crate::inputs::fnv(json.as_bytes()), json.len());
    let shutdown = dist.shutdown();
    rep.check(shutdown.is_ok(), || format!("shutdown: {shutdown:?}"));
    for h in handles {
        let joined = h.join();
        rep.check(matches!(joined, Ok(Ok(()))), || format!("a local server ended with {joined:?}"));
    }
    rep.seal();
    Ok((rep, json))
}

fn cpu_with_children(pids: &[u32]) -> f64 {
    sys::cpu_seconds(None).unwrap_or(0.0)
        + pids.iter().filter_map(|&p| sys::cpu_seconds(Some(p))).sum::<f64>()
}

/// Repeats the unit until `budget` has passed, at least `min` times and
/// until `enough` holds (or [`MAX_TRACED_REPS`] repetitions ran), keeping
/// repetition 0's report.
fn repeat(
    cluster: &Cluster,
    case: &Case,
    opts: &Opts,
    min: usize,
    layers: &mut Layers,
    enough: fn(&Layers) -> bool,
) -> Result<(Vec<Rep>, String), String> {
    let start = Instant::now();
    let mut first = String::new();
    let mut reps = Vec::new();
    while reps.len() < min
        || start.elapsed() < opts.budget()
        || (!enough(layers) && reps.len() < MAX_TRACED_REPS)
    {
        let (result, around) = host::bracket(|| unit(cluster, case, opts.seed, layers));
        let (mut rep, json) = result?;
        rep.bracketed(around);
        if reps.is_empty() {
            first = json;
        }
        reps.push(rep);
    }
    Ok((reps, first))
}

/// Runs the workload at `scale` on `cluster`.
pub fn run_on(opts: &Opts, ctx: &str, scale: Scale, cluster: &Cluster) -> Result<Outcome, String> {
    let case = case(opts.seed, scale);
    let mut out = Outcome::default();
    let pids = cluster.child_pids();
    // the untimed warm-up pass (see `rep`); its errors count
    unit(cluster, &case, opts.seed, &mut Layers::default())?;
    let cpu0 = cpu_with_children(&pids);
    let (plain, first) =
        repeat(cluster, &case, opts, scale.min_reps, &mut Layers::default(), |_| true)?;
    let cpu = cpu_with_children(&pids) - cpu0;
    // the servers' peaks, read before they stop; the coordinator's is
    // its peak over the repetitions, so the in-process reference below
    // is not counted
    let rss = rep::peak_rss_mib(&plain).map(|coordinator| {
        coordinator + pids.iter().filter_map(|&p| sys::peak_rss_mib(Some(p))).sum::<f64>()
    });
    rep::end_to_end(&plain, &mut out);
    let reference = reference_report(&case, config(opts.seed, 0));
    out.check(first == reference, || {
        "the cluster's service report differs from the in-process reference".into()
    });
    if !opts.trace {
        if let Some(mib) = rss {
            out.metric("peak_rss_mb", mib, "MiB");
        }
        return Ok(out);
    }
    let mut layers = Layers::default();
    trace::start();
    // a repetition sends only ~500 gain RPCs: repeat until their p99 has
    // the samples it needs
    let traced = repeat(cluster, &case, opts, 1, &mut layers, |l| l.gains_rpcs >= 1010);
    let spans = trace::stop();
    let (traced, traced_first) = traced?;
    out.check(traced_first == reference, || {
        "the traced cluster's service report differs from the in-process reference".into()
    });
    let answers: u64 = traced.iter().map(|r| r.answers).sum();
    let per = |x: f64| x / answers.max(1) as f64;
    let totals = trace::totals(&spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let us = |ns: u64| ns as f64 / 1e3;
    out.metric("service.round_self_us_per_answer", per(us(total("service.run").2)), "us");
    out.metric("dist.model_gains_us_per_answer", per(us(total("model.gains").1)), "us");
    out.metric("dist.model_what_if_us_per_answer", per(us(total("model.what_if").1)), "us");
    out.metric("dist.model_assert_us_per_answer", per(us(total("model.assert").1)), "us");
    let model_self: u64 = ["model.gains", "model.what_if", "model.assert", "model.local"]
        .iter()
        .map(|n| total(n).2)
        .sum();
    out.metric("dist.coordinator_self_us_per_answer", per(us(model_self)), "us");
    let boots: Vec<f64> =
        trace::durations_us(&spans, "dist.new").iter().map(|us| us / 1e3).collect();
    out.metric("dist.bootstrap_ms", median(&boots), "ms");
    out.samples("dist.bootstrap", boots.len());
    out.metric("dist.rpcs_per_answer.gains", per(total("rpc.gains").0 as f64), "count");
    out.metric("dist.rpcs_per_answer.assert", per(total("rpc.assert").0 as f64), "count");
    out.metric("dist.rpcs_per_answer.what_if", per(total("rpc.what_if").0 as f64), "count");
    out.metric("dist.bytes_per_answer", per(layers.wire_bytes as f64), "bytes");
    let rtt = |name| trace::durations_us(&spans, name);
    out.percentiles(
        "dist.rtt.gains",
        &rtt("rpc.gains"),
        &[("dist.rtt_us_p50.gains", 0.5), ("dist.rtt_us_p99.gains", 0.99)],
        "us",
    );
    out.percentiles(
        "dist.rtt.assert",
        &rtt("rpc.assert"),
        &[("dist.rtt_us_p50.assert", 0.5)],
        "us",
    );
    out.percentiles(
        "dist.rtt.what_if",
        &rtt("rpc.what_if"),
        &[("dist.rtt_us_p50.what_if", 0.5)],
        "us",
    );
    let plain_answers: u64 = plain.iter().map(|r| r.answers).sum();
    let cpu_us = cpu * 1e6 / plain_answers.max(1) as f64;
    crate::finish_trace(
        opts,
        ctx,
        &spans,
        cpu_us,
        rep::median_rate(&plain),
        rep::median_rate(&traced),
        &mut out,
    );
    Ok(out)
}

/// Runs the workload: spawns the shard servers (they inherit this
/// process's pinning), measures, and stops the servers.
pub fn run(opts: &Opts, ctx: &str) -> Result<Outcome, String> {
    let cluster = Cluster::spawn()?;
    let out = run_on(opts, ctx, FULL, &cluster);
    cluster.close()?;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_and_tracing_leave_the_report_byte_identical() {
        let _serial = crate::tests::serial();
        let scale = Scale { groups: 6, min_reps: 1 };
        let case = case(5, scale);
        let reference = reference_report(&case, config(5, 0));
        let mut layers = Layers::default();
        let (plain_rep, plain) = unit(&Cluster::Local, &case, 5, &mut layers).unwrap();
        trace::start();
        let traced = unit(&Cluster::Local, &case, 5, &mut layers);
        let spans = trace::stop();
        let (traced_rep, traced) = traced.unwrap();
        assert_eq!(plain, reference, "the observed model changed the report");
        assert_eq!(traced, reference, "tracing changed the report");
        assert_eq!(plain_rep.fingerprint, traced_rep.fingerprint);
        assert_eq!(plain_rep.failed, 0, "{:?}", plain_rep.failures);
        // every round is one question, one vote pricing and its commits
        let [question, answer, commit] = plain_rep.tails.map(|t| t.n);
        assert_eq!(question, answer);
        assert!(commit >= answer);
        for name in [
            "dist.new",
            "service.run",
            "model.what_if",
            "model.assert",
            "rpc.what_if",
            "rpc.assert",
        ] {
            assert!(spans.iter().any(|s| s.name == name), "no {name} span");
        }
        assert!(layers.wire_bytes > 0, "the wire tap counted no bytes");
    }

    #[test]
    fn a_tiny_cluster_run_passes_its_checks_in_both_modes() {
        let _serial = crate::tests::serial();
        for trace in [false, true] {
            let opts = Opts { workload: "cluster-rounds".into(), seed: 3, seconds: 0.0, trace };
            let out =
                run_on(&opts, "{}", Scale { groups: 6, min_reps: 2 }, &Cluster::Local).unwrap();
            // tiny runs cannot support every percentile; nothing else may fail
            assert_eq!(out.failed, out.refused, "{:?}", out.failures);
            assert!(out.value("answers_per_s").unwrap() > 0.0);
            if trace {
                assert!(out.value("dist.rpcs_per_answer.assert").unwrap() > 0.0);
                assert!(out.value("trace.unaccounted_share").unwrap() < 0.1);
            } else {
                assert!(out.value("entropy_auc").unwrap() > 0.0);
            }
        }
    }
}
