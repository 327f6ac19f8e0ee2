//! Whole-network-vs-sharded measurements behind `BENCH_sharding.json`.
//!
//! The multi-component scenario is a federation of small sparse webform
//! networks fused into one catalog
//! ([`smn_datasets::FederationSpec`]): many independent
//! conflict clusters, no cross-cluster candidates — exactly the regime
//! where the component-sharded `ProbabilisticNetwork` turns per-assertion
//! and information-gain cost local. Per federation size this module times,
//! for both partitions:
//!
//! * `fill_ms` — building the probabilistic network (initial sampling /
//!   per-shard exact enumeration);
//! * `assert_ms` — one `assert_candidate` (view maintenance + probability
//!   recompute) on a cloned network;
//! * `gains_ms` — one batch `information_gains` over every uncertain
//!   candidate (the Algorithm 1 selection step).
//!
//! Each point also records the differential evidence — the largest
//! absolute per-candidate probability delta and the entropy delta between
//! the partitions — and whether both sharded fills were
//! bit-deterministic, so the emitted JSON certifies correctness alongside
//! the win.

use crate::{matched_network, MatcherKind};
use serde::Serialize;
use smn_core::feedback::Assertion;
use smn_core::{MatchingNetwork, ProbabilisticNetwork, SamplerConfig, ShardingConfig};
use smn_datasets::{FederationSpec, SharingModel, Vocabulary};
use smn_schema::CandidateId;
use std::time::Instant;

/// Federation sizes measured (number of fused sub-networks); 12 is the
/// `webform_federation` preset shape.
pub const GROUPS: [usize; 3] = [4, 12, 24];

/// Builds the standard sharding bench scenario — a federation of `groups`
/// webform clusters (3 schemas each), matched by the calibrated
/// perturbation matcher — returning the network *and* its verified
/// matching (the service benches track precision/recall against it).
pub fn federation_case(
    groups: usize,
    seed: u64,
) -> (MatchingNetwork, Vec<smn_schema::Correspondence>) {
    let fed = FederationSpec {
        name: format!("Fed{groups}"),
        vocabulary: Vocabulary::web_form(),
        groups,
        schemas_per_group: 3,
        attrs_min: 8,
        attrs_max: 14,
        sharing: SharingModel::RankBiased { alpha: 1.3 },
    }
    .generate(seed);
    matched_network(&fed.dataset, &fed.graph, MatcherKind::perturbation(seed))
}

/// [`federation_case`] without the ground truth.
pub fn federation_network(groups: usize, seed: u64) -> MatchingNetwork {
    federation_case(groups, seed).0
}

/// Sampler configuration of the sharding bench: the §VI-B shape scaled to
/// interactive sizes.
pub fn bench_sampler(seed: u64) -> SamplerConfig {
    SamplerConfig { n_samples: 400, walk_steps: 4, n_min: 150, seed, anneal: true, chains: 1 }
}

/// Sharded configuration used by the benches: defaults, sequential fill
/// kept off so fill-time wins reflect locality *and* parallelism the way
/// a session would see them.
pub fn bench_sharding() -> ShardingConfig {
    ShardingConfig::default()
}

/// One measured federation size.
#[derive(Debug, Clone, Serialize)]
pub struct ShardingPoint {
    /// Fused sub-networks in the scenario.
    pub groups: usize,
    /// Resulting candidate-set size `|C|`.
    pub candidates: usize,
    /// Conflict components (= shard count of the sharded representation).
    pub components: usize,
    /// Candidates in the largest component.
    pub largest_component: usize,
    /// Whether the whole-network store concluded exhaustion (on the product
    /// instance space of a federation it generally cannot, which is why
    /// `max_probability_delta` is only meaningful when this is true).
    pub monolithic_exhausted: bool,
    /// Whether every shard ended exhausted (exact posteriors).
    pub sharded_exhausted: bool,
    /// Largest absolute per-candidate probability delta between the
    /// partitions (expected ≈ 0 when both are exhausted).
    pub max_probability_delta: f64,
    /// Absolute entropy delta between the partitions.
    pub entropy_delta: f64,
    /// Whether two independent sharded builds agreed bit-for-bit.
    pub deterministic: bool,
    /// Milliseconds to build the whole-network model (min over iters).
    pub monolithic_fill_ms: f64,
    /// Milliseconds to build the sharded network (min over iters).
    pub sharded_fill_ms: f64,
    /// Milliseconds per whole-network `assert_candidate` (min over iters).
    pub monolithic_assert_ms: f64,
    /// Milliseconds per sharded `assert_candidate` (min over iters).
    pub sharded_assert_ms: f64,
    /// Milliseconds per whole-network batch `information_gains` over the
    /// uncertain pool (min over iters).
    pub monolithic_gains_ms: f64,
    /// Milliseconds per sharded batch `information_gains` (min over
    /// iters).
    pub sharded_gains_ms: f64,
}

/// Two uncertain candidates sharing a shard — the warm-up-then-measure
/// pair of the owned-assert protocol: asserting the first unshares the
/// shard so timing the second measures the owned hot path, not the
/// copy-on-write. (On a whole-network model every candidate shares the
/// single shard, so any warm-up works.) Shared by this module's
/// `measure_point` and the `service` bench module.
pub fn owned_probe(pn: &ProbabilisticNetwork) -> (CandidateId, CandidateId) {
    let uncertain = pn.uncertain_candidates();
    uncertain
        .iter()
        .enumerate()
        .find_map(|(i, &a)| {
            uncertain[i + 1..].iter().find(|&&b| pn.shard_of(a) == pn.shard_of(b)).map(|&b| (a, b))
        })
        .expect("federation networks have a shard with two uncertain candidates")
}

fn min_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Measures one federation size; `iters` timing repetitions per quantity.
pub fn measure_point(groups: usize, iters: usize) -> ShardingPoint {
    let net = federation_network(groups, 7);
    let n = net.candidate_count();
    let sampler = bench_sampler(3);
    let sharding = bench_sharding();

    let mono = ProbabilisticNetwork::new(net.clone(), sampler);
    let sharded = ProbabilisticNetwork::new_sharded(net.clone(), sampler, sharding);
    let again = ProbabilisticNetwork::new_sharded(net.clone(), sampler, sharding);
    let deterministic = sharded.probabilities() == again.probabilities();
    let components = sharded.shard_count();
    let largest_component = {
        let comps = smn_constraints::Components::of_index(net.index());
        comps.largest()
    };
    let max_probability_delta = mono
        .probabilities()
        .iter()
        .zip(sharded.probabilities())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    let entropy_delta = (mono.entropy() - sharded.entropy()).abs();

    let monolithic_fill_ms =
        min_ms(iters, || drop(ProbabilisticNetwork::new(net.clone(), sampler)));
    let sharded_fill_ms =
        min_ms(iters, || drop(ProbabilisticNetwork::new_sharded(net.clone(), sampler, sharding)));

    // Since the copy-on-write refactor a clone *shares* its snapshots, so
    // the first assertion on it would pay the snapshot copy. This bench
    // tracks the owned hot path (comparable with the PR-2/PR-3 baselines
    // checked in as BENCH_sharding.json): a warm-up assertion in the
    // probe's shard unshares it before the timer starts. The copy-on-write
    // commit cost itself is measured separately in BENCH_service.json.
    let (warm, probe) = owned_probe(&sharded);
    let timed_assert = |pn: &ProbabilisticNetwork| {
        let mut best = f64::INFINITY;
        for _ in 0..iters.max(1) {
            let mut fresh = pn.clone();
            fresh.assert_candidate(Assertion { candidate: warm, approved: false }).unwrap();
            let start = Instant::now();
            fresh.assert_candidate(Assertion { candidate: probe, approved: true }).unwrap();
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    let monolithic_assert_ms = timed_assert(&mono);
    let sharded_assert_ms = timed_assert(&sharded);

    let pool = mono.uncertain_candidates();
    let monolithic_gains_ms = min_ms(iters, || drop(mono.information_gains(&pool)));
    let sharded_pool = sharded.uncertain_candidates();
    let sharded_gains_ms = min_ms(iters, || drop(sharded.information_gains(&sharded_pool)));

    ShardingPoint {
        groups,
        candidates: n,
        components,
        largest_component,
        monolithic_exhausted: mono.is_exhausted(),
        sharded_exhausted: sharded.is_exhausted(),
        max_probability_delta,
        entropy_delta,
        deterministic,
        monolithic_fill_ms,
        sharded_fill_ms,
        monolithic_assert_ms,
        sharded_assert_ms,
        monolithic_gains_ms,
        sharded_gains_ms,
    }
}

/// Measures all [`GROUPS`].
pub fn measure(iters: usize) -> Vec<ShardingPoint> {
    GROUPS.iter().map(|&g| measure_point(g, iters)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_point_is_deterministic_and_multi_component() {
        let p = measure_point(GROUPS[0], 1);
        assert!(p.deterministic, "same seed must reproduce the sharded posteriors");
        assert!(p.components >= p.groups, "a federation shards into at least one piece per group");
        assert!(p.candidates > 0);
        assert!(p.monolithic_fill_ms > 0.0 && p.sharded_fill_ms > 0.0);
        assert!(p.monolithic_assert_ms > 0.0 && p.sharded_assert_ms > 0.0);
    }
}
