//! Fork/commit and multi-worker service measurements behind
//! `BENCH_service.json`.
//!
//! Two question sets, both on the federation scenario of the `sharding`
//! module:
//!
//! * **Snapshot costs** ([`measure_forking`]) — what the copy-on-write
//!   refactor prices each primitive at, per federation size:
//!   `fork_us` (must stay flat in the store size — `O(#shards)` pointer
//!   copies, no sample-matrix copy), `first_assert_cow_ms` (a commit on a
//!   freshly forked network: pays the one-shard copy), `owned_assert_ms`
//!   (a commit on an unshared network: the PR-2/PR-3 hot path, which must
//!   not regress — compare `BENCH_sharding.json`), and `what_if_us` (the
//!   exact what-if = fork + assert + entropy).
//! * **Service throughput** ([`measure_throughput`]) — aggregate
//!   questions per second of the full dispatch → evaluate → aggregate →
//!   commit pipeline at 1→8 workers (OS threads = workers) on the
//!   24-cluster federation. The JSON stores `questions` and `elapsed_ms`
//!   (derive `questions / (elapsed_ms / 1000)`), so the determinism smoke
//!   can scrub wall-clock and still compare everything else byte for
//!   byte.

use crate::sharding::{bench_sampler, bench_sharding, federation_network, owned_probe};
use serde::Serialize;
use smn_core::feedback::Assertion;
use smn_core::{ProbabilisticNetwork, ReconciliationGoal};
use smn_service::{Aggregation, ReconciliationService, ServiceConfig};
use std::time::Instant;

/// Federation sizes for the snapshot-cost points.
pub const FORK_GROUPS: [usize; 3] = [4, 12, 24];

/// Worker counts for the throughput scan.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One snapshot-cost point.
#[derive(Debug, Clone, Serialize)]
pub struct ForkPoint {
    /// Fused sub-networks.
    pub groups: usize,
    /// Candidate-set size `|C|`.
    pub candidates: usize,
    /// Shard count of the sharded representation.
    pub shards: usize,
    /// Distinct stored samples (what a deep copy would have to duplicate).
    pub distinct_samples: usize,
    /// Microseconds per sharded `fork()` (min over iters).
    pub sharded_fork_us: f64,
    /// Microseconds per whole-network `fork()` (min over iters).
    pub monolithic_fork_us: f64,
    /// Milliseconds for the first assertion on a fresh sharded fork (pays
    /// the one-shard copy-on-write).
    pub sharded_first_assert_cow_ms: f64,
    /// Milliseconds for the first assertion on a fresh whole-network fork
    /// (pays the whole-store copy-on-write).
    pub monolithic_first_assert_cow_ms: f64,
    /// Milliseconds per assertion on an *unshared* sharded network — the
    /// PR-3 hot path, must not regress.
    pub sharded_owned_assert_ms: f64,
    /// Milliseconds per assertion on an *unshared* whole-network model —
    /// the PR-2 hot path, must not regress.
    pub monolithic_owned_assert_ms: f64,
    /// Microseconds per exact `what_if` on the sharded network.
    pub sharded_what_if_us: f64,
}

/// One throughput point.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputPoint {
    /// Workers (= OS threads) driving the service.
    pub workers: usize,
    /// Redundancy `k`.
    pub redundancy: usize,
    /// Commits executed (the budget).
    pub commits: usize,
    /// Worker answers collected (deterministic).
    pub questions: u64,
    /// Final entropy after the run (deterministic).
    pub final_entropy: f64,
    /// Wall-clock of the run (min over iters).
    pub elapsed_ms: f64,
}

/// The full `BENCH_service.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceBench {
    /// Snapshot-cost points per federation size.
    pub forking: Vec<ForkPoint>,
    /// Throughput points at 1→8 workers on the 24-cluster federation.
    pub throughput: Vec<ThroughputPoint>,
}

fn min_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Measures the snapshot-cost points.
pub fn measure_forking(iters: usize) -> Vec<ForkPoint> {
    FORK_GROUPS
        .iter()
        .map(|&groups| {
            let net = federation_network(groups, 7);
            let sampler = bench_sampler(3);
            let mono = ProbabilisticNetwork::new(net.clone(), sampler);
            let sharded = ProbabilisticNetwork::new_sharded(net.clone(), sampler, bench_sharding());

            let sharded_fork_us = min_us(iters * 50, || drop(sharded.fork()));
            let monolithic_fork_us = min_us(iters * 50, || drop(mono.fork()));

            let (warm, probe) = owned_probe(&sharded);
            // first-assert-on-a-fork: the timer must exclude the fork
            let first_cow_ms = |pn: &ProbabilisticNetwork| {
                let mut best = f64::INFINITY;
                for _ in 0..iters.max(1) {
                    let mut fresh = pn.fork();
                    let start = Instant::now();
                    fresh.assert_candidate(Assertion { candidate: probe, approved: true }).unwrap();
                    best = best.min(start.elapsed().as_secs_f64() * 1e3);
                }
                best
            };
            let sharded_first_assert_cow_ms = first_cow_ms(&sharded);
            let monolithic_first_assert_cow_ms = first_cow_ms(&mono);

            // owned path: fork, unshare the probe's shard with a warm-up
            // assertion on a same-shard neighbour, then time the probe
            let owned_ms = |pn: &ProbabilisticNetwork| {
                let mut best = f64::INFINITY;
                for _ in 0..iters.max(1) {
                    let mut fresh = pn.fork();
                    fresh.assert_candidate(Assertion { candidate: warm, approved: false }).unwrap();
                    let start = Instant::now();
                    fresh.assert_candidate(Assertion { candidate: probe, approved: true }).unwrap();
                    best = best.min(start.elapsed().as_secs_f64() * 1e3);
                }
                best
            };
            let sharded_owned_assert_ms = owned_ms(&sharded);
            let monolithic_owned_assert_ms = owned_ms(&mono);

            let sharded_what_if_us = min_us(iters * 10, || {
                std::hint::black_box(sharded.what_if(probe, true));
            });

            ForkPoint {
                groups,
                candidates: net.candidate_count(),
                shards: sharded.shard_count(),
                distinct_samples: sharded.distinct_sample_count(),
                sharded_fork_us,
                monolithic_fork_us,
                sharded_first_assert_cow_ms,
                monolithic_first_assert_cow_ms,
                sharded_owned_assert_ms,
                monolithic_owned_assert_ms,
                sharded_what_if_us,
            }
        })
        .collect()
}

/// Measures service throughput at each worker count on the 24-cluster
/// federation (`iters` wall-clock repetitions, minimum kept): the full
/// crowd votes on every lease (`k = W`), so doubling the workers doubles
/// the questions answered per committed assertion — the workload whose
/// wall-clock the scoped thread pool must hold flat.
pub fn measure_throughput(iters: usize) -> Vec<ThroughputPoint> {
    let (net, fed_truth) = crate::sharding::federation_case(24, 7);
    WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let config = ServiceConfig {
                sampler: bench_sampler(3),
                sharding: bench_sharding(),
                redundancy: workers,
                aggregation: Aggregation::QualityWeighted,
                threads: workers,
                scheduler: smn_service::Scheduler::Pool,
                seed: 17,
                goal: ReconciliationGoal::Budget(48),
            };
            let mut questions = 0u64;
            let mut commits = 0usize;
            let mut final_entropy = 0.0;
            let mut best = f64::INFINITY;
            for _ in 0..iters.max(1) {
                let mut svc = ReconciliationService::new(
                    net.clone(),
                    fed_truth.clone(),
                    vec![0.1; workers],
                    config,
                );
                let start = Instant::now();
                let report = svc.run();
                best = best.min(start.elapsed().as_secs_f64() * 1e3);
                questions = report.questions_asked;
                commits = report.commits.len();
                final_entropy = report.final_entropy;
            }
            ThroughputPoint {
                workers,
                redundancy: workers,
                commits,
                questions,
                final_entropy,
                elapsed_ms: best,
            }
        })
        .collect()
}

/// Runs both measurement sets.
pub fn measure(iters: usize) -> ServiceBench {
    ServiceBench { forking: measure_forking(iters), throughput: measure_throughput(iters) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_cost_is_flat_while_stores_grow() {
        let points = measure_forking(1);
        assert_eq!(points.len(), FORK_GROUPS.len());
        let first = &points[0];
        let last = points.last().unwrap();
        assert!(
            last.distinct_samples > first.distinct_samples,
            "federation growth must grow the stores"
        );
        // O(#shards) pointer copies: the 6× larger store must not make the
        // fork anywhere near 6× slower (allow generous jitter)
        assert!(
            last.sharded_fork_us < first.sharded_fork_us * 20.0 + 50.0,
            "sharded fork cost exploded: {} -> {} us",
            first.sharded_fork_us,
            last.sharded_fork_us
        );
        for p in &points {
            assert!(p.sharded_fork_us < 1_000.0, "a fork must stay in microseconds");
            assert!(p.sharded_owned_assert_ms > 0.0);
            assert!(p.monolithic_owned_assert_ms > 0.0);
        }
    }

    #[test]
    fn throughput_points_are_deterministic_in_content() {
        let a = measure_throughput(1);
        let b = measure_throughput(1);
        assert_eq!(a.len(), WORKER_COUNTS.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.questions, y.questions);
            assert_eq!(x.commits, y.commits);
            assert_eq!(x.final_entropy, y.final_entropy);
        }
    }
}
