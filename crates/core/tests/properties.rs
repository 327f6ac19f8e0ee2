//! Property-based tests for the probabilistic core.
//!
//! Networks are generated by perturbing identity ground truths over small
//! complete interaction graphs, which exercises both constraint kinds and
//! realistic conflict densities.

use proptest::prelude::*;
use smn_constraints::{BitSet, ConstraintConfig};
use smn_core::exact::{enumerate_instances, exact_probabilities};
use smn_core::feedback::Feedback;
use smn_core::instantiate::{instantiate, InstantiationConfig};
use smn_core::reconcile::{reconcile, ReconciliationGoal};
use smn_core::sampling::SamplerConfig;
use smn_core::selection::{InformationGainSelection, RandomSelection};
use smn_core::{entropy_of, GroundTruthOracle, MatchingNetwork, ProbabilisticNetwork};
use smn_matchers::matcher::match_network;
use smn_matchers::PerturbationMatcher;
use smn_schema::{AttributeId, CandidateId, CatalogBuilder, Correspondence, InteractionGraph};

/// Builds a perturbed network of `k` schemas × `m` attributes.
fn network(
    k: usize,
    m: usize,
    precision: f64,
    recall: f64,
    seed: u64,
) -> (MatchingNetwork, Vec<Correspondence>) {
    let mut b = CatalogBuilder::new();
    for s in 0..k {
        b.add_schema_with_attributes(format!("s{s}"), (0..m).map(|i| format!("a{s}_{i}"))).unwrap();
    }
    let cat = b.build();
    let g = InteractionGraph::complete(k);
    let mut truth = Vec::new();
    for s1 in 0..k {
        for s2 in (s1 + 1)..k {
            for i in 0..m {
                truth.push(Correspondence::new(
                    AttributeId::from_index(s1 * m + i),
                    AttributeId::from_index(s2 * m + i),
                ));
            }
        }
    }
    let matcher = PerturbationMatcher::new(truth.iter().copied(), precision, recall, seed);
    let cs = match_network(&matcher, &cat, &g).expect("valid candidates");
    (MatchingNetwork::new(cat, g, cs, ConstraintConfig::default()), truth)
}

fn sampler(seed: u64) -> SamplerConfig {
    SamplerConfig { anneal: true, n_samples: 150, walk_steps: 3, n_min: 60, seed, chains: 1 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every sampled instance is a matching instance per Definition 1:
    /// consistent, feedback-respecting, maximal.
    #[test]
    fn samples_are_matching_instances(seed in 0u64..500) {
        let (net, _) = network(3, 4, 0.6, 0.9, seed);
        let pn = ProbabilisticNetwork::new(net, sampler(seed));
        let fb = Feedback::new(pn.network().candidate_count());
        for inst in pn.samples() {
            prop_assert!(pn.network().index().is_consistent(inst));
            prop_assert!(pn.network().index().is_maximal(inst, fb.disapproved()));
        }
    }

    /// Probabilities are valid and asserted candidates are pinned to 0/1.
    #[test]
    fn probabilities_are_valid_and_respect_feedback(seed in 0u64..500, flips in any::<u64>()) {
        let (net, truth) = network(3, 4, 0.6, 0.9, seed);
        let truth_set: std::collections::HashSet<_> = truth.into_iter().collect();
        let mut pn = ProbabilisticNetwork::new(net, sampler(seed));
        let n = pn.network().candidate_count();
        // assert up to 6 candidates according to ground truth
        for i in 0..n.min(6) {
            if flips & (1 << i) != 0 {
                let c = CandidateId::from_index(i);
                let corr = pn.network().corr(c);
                let approved = truth_set.contains(&corr);
                // a correct oracle may still conflict if the perturbed truth
                // overlaps badly; skip rejected approvals
                let _ = pn.assert_candidate(smn_core::Assertion { candidate: c, approved });
            }
        }
        for (i, &p) in pn.probabilities().iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&p));
            let c = CandidateId::from_index(i);
            if pn.feedback().approved().contains(c) {
                prop_assert_eq!(p, 1.0);
            }
            if pn.feedback().disapproved().contains(c) {
                prop_assert_eq!(p, 0.0);
            }
        }
        let h = pn.entropy();
        prop_assert!(h >= 0.0 && h <= n as f64);
    }

    /// On exhausted stores the sampled probabilities equal the exact ones.
    #[test]
    fn exhausted_probabilities_are_exact(seed in 0u64..300) {
        let (net, _) = network(2, 4, 0.5, 0.9, seed);
        let pn = ProbabilisticNetwork::new(net, SamplerConfig { anneal: true,
            n_samples: 400, walk_steps: 3, n_min: 300, seed, chains: 1,
        });
        prop_assume!(pn.is_exhausted());
        let exact = exact_probabilities(pn.network(), &Feedback::new(pn.network().candidate_count()), 100_000);
        prop_assume!(exact.is_some());
        let exact = exact.unwrap();
        for (i, (&p, &q)) in exact.iter().zip(pn.probabilities()).enumerate() {
            prop_assert!((p - q).abs() < 1e-9, "candidate {i}: exact {p} vs sampled {q}");
        }
    }

    /// View maintenance after an assertion agrees with fresh enumeration
    /// under the same feedback (on exhausted stores).
    #[test]
    fn view_maintenance_matches_reenumeration(seed in 0u64..200, pick in any::<u32>(), approve in any::<bool>()) {
        let (net, _) = network(2, 4, 0.5, 0.9, seed);
        let n = net.candidate_count();
        prop_assume!(n > 0);
        let mut pn = ProbabilisticNetwork::new(net, SamplerConfig { anneal: true,
            n_samples: 400, walk_steps: 3, n_min: 300, seed, chains: 1,
        });
        prop_assume!(pn.is_exhausted());
        let c = CandidateId::from_index(pick as usize % n);
        prop_assume!(pn.assert_candidate(smn_core::Assertion { candidate: c, approved: approve }).is_ok());
        let mut fb = Feedback::new(n);
        if approve { fb.approve(c) } else { fb.disapprove(c) }
        if let Some(exact) = exact_probabilities(pn.network(), &fb, 100_000) {
            prop_assume!(pn.is_exhausted());
            for (i, (&p, &q)) in exact.iter().zip(pn.probabilities()).enumerate() {
                prop_assert!((p - q).abs() < 1e-9, "candidate {i}: exact {p} vs maintained {q}");
            }
        }
    }

    /// Instantiation returns a consistent, feedback-respecting, maximal
    /// instance and never beats the true optimum (checked by enumeration).
    #[test]
    fn instantiation_is_sound_and_bounded(seed in 0u64..300) {
        let (net, _) = network(3, 3, 0.6, 0.9, seed);
        let n = net.candidate_count();
        let fb = Feedback::new(n);
        let instances = enumerate_instances(&net, &fb, 200_000);
        prop_assume!(instances.is_some());
        let instances = instances.unwrap();
        prop_assume!(!instances.is_empty());
        let optimal = instances.iter().map(BitSet::count).max().unwrap();
        let pn = ProbabilisticNetwork::new(net, sampler(seed));
        let inst = instantiate(&pn, InstantiationConfig { iterations: 120, ..Default::default() });
        prop_assert!(pn.network().index().is_consistent(&inst.instance));
        prop_assert!(pn.feedback().respected_by(&inst.instance));
        prop_assert!(inst.instance.count() <= optimal, "cannot beat the enumerated optimum");
        prop_assert_eq!(inst.repair_distance, n - inst.instance.count());
    }

    /// Complete reconciliation with a consistent ground-truth oracle always
    /// drives entropy to zero, for both strategies.
    #[test]
    fn complete_reconciliation_terminates_certain(seed in 0u64..200, use_ig in any::<bool>()) {
        let (net, truth) = network(3, 3, 0.7, 0.9, seed);
        let mut pn = ProbabilisticNetwork::new(net, sampler(seed));
        let mut oracle = GroundTruthOracle::new(truth);
        let trace = if use_ig {
            let mut strat = InformationGainSelection::new(seed);
            reconcile(&mut pn, &mut strat, &mut oracle, ReconciliationGoal::Complete)
        } else {
            let mut strat = RandomSelection::new(seed);
            reconcile(&mut pn, &mut strat, &mut oracle, ReconciliationGoal::Complete)
        };
        prop_assert_eq!(pn.entropy(), 0.0);
        prop_assert!(pn.uncertain_candidates().is_empty());
        // entropy at the end of the trace matches the network
        if let Some(last) = trace.last() {
            prop_assert_eq!(last.entropy, 0.0);
        }
    }

    /// Information gain is bounded by the marginal entropy contribution of
    /// the asserted candidate plus the rest of the network: 0 ≤ IG ≤ H.
    #[test]
    fn information_gain_bounds(seed in 0u64..200) {
        let (net, _) = network(3, 3, 0.6, 0.9, seed);
        let pn = ProbabilisticNetwork::new(net, sampler(seed));
        let h = pn.entropy();
        for c in pn.uncertain_candidates() {
            let ig = pn.information_gain(c);
            prop_assert!(ig >= 0.0);
            prop_assert!(ig <= h + 1e-9, "IG {ig} exceeds H {h}");
        }
    }

    /// The entropy function is consistent with its probability vector.
    #[test]
    fn entropy_matches_probabilities(seed in 0u64..200) {
        let (net, _) = network(3, 4, 0.6, 0.9, seed);
        let pn = ProbabilisticNetwork::new(net, sampler(seed));
        prop_assert!((pn.entropy() - entropy_of(pn.probabilities())).abs() < 1e-9);
    }

    /// Differential: on exhausted stores the component-sharded network is
    /// indistinguishable from the whole-network one — per-candidate
    /// probabilities, entropy and batch information gains over the
    /// uncertain pool agree within 1e-12 (the factorized posterior is the
    /// same distribution, not an approximation of it).
    #[test]
    fn sharded_matches_monolithic_on_exhausted_stores(seed in 0u64..150) {
        use smn_core::ShardingConfig;
        let (net, _) = network(3, 3, 0.6, 0.9, seed);
        let exhaustive = SamplerConfig {
            anneal: true, n_samples: 500, walk_steps: 4, n_min: 400, seed, chains: 1,
        };
        let mono = ProbabilisticNetwork::new(net.clone(), exhaustive);
        prop_assume!(mono.is_exhausted());
        // the §III-B exhaustion rule (two failed refills) is a heuristic:
        // only compare when the whole-network store really holds all of Ω,
        // certified by exact enumeration — the sharded exact path is
        // complete by construction
        let all = enumerate_instances(&net, &Feedback::new(net.candidate_count()), 100_000);
        prop_assume!(all.is_some_and(|i| i.len() == mono.samples().len()));
        let sharded =
            ProbabilisticNetwork::new_sharded(net, exhaustive, ShardingConfig::default());
        prop_assert!(sharded.is_exhausted(), "every shard of an enumerable network exhausts");
        prop_assert!(sharded.shard_count() >= 1);
        for (i, (&p, &q)) in mono.probabilities().iter().zip(sharded.probabilities()).enumerate() {
            prop_assert!((p - q).abs() < 1e-12, "candidate {i}: whole {p} vs sharded {q}");
        }
        prop_assert!((mono.entropy() - sharded.entropy()).abs() < 1e-12);
        let pool = mono.uncertain_candidates();
        prop_assert_eq!(sharded.uncertain_candidates(), pool.clone());
        let (g_mono, g_sharded) = (mono.information_gains(&pool), sharded.information_gains(&pool));
        for ((&c, &a), &b) in pool.iter().zip(&g_mono).zip(&g_sharded) {
            prop_assert!((a - b).abs() < 1e-12, "gain of {c}: whole {a} vs sharded {b}");
            prop_assert!((sharded.information_gain(c) - b).abs() < 1e-12);
        }
    }

    /// Differential: a fixed assertion sequence drives both
    /// partitions through identical traces (bitwise-equal effort,
    /// entropy and verdicts) on exhausted stores.
    #[test]
    fn sharded_traces_match_monolithic(seed in 0u64..100) {
        use smn_core::ShardingConfig;
        let (net, truth) = network(3, 3, 0.7, 0.9, seed);
        let exhaustive = SamplerConfig {
            anneal: true, n_samples: 500, walk_steps: 4, n_min: 400, seed, chains: 1,
        };
        let mono = ProbabilisticNetwork::new(net.clone(), exhaustive);
        prop_assume!(mono.is_exhausted());
        let all = enumerate_instances(&net, &Feedback::new(net.candidate_count()), 100_000);
        prop_assume!(all.is_some_and(|i| i.len() == mono.samples().len()));
        let sharded =
            ProbabilisticNetwork::new_sharded(net, exhaustive, ShardingConfig::default());
        // random selection consumes the RNG identically on both sides, so
        // the fixed (seed-determined) assertion sequence is shared
        let run = |mut pn: ProbabilisticNetwork| {
            let mut strat = RandomSelection::new(seed ^ 0x5EED);
            let mut oracle = GroundTruthOracle::new(truth.iter().copied());
            let trace = reconcile(&mut pn, &mut strat, &mut oracle, ReconciliationGoal::Complete);
            (trace, pn.probabilities().to_vec())
        };
        let (trace_m, probs_m) = run(mono);
        let (trace_s, probs_s) = run(sharded);
        // identical assertion sequences must yield identical traces
        prop_assert_eq!(trace_m, trace_s);
        prop_assert_eq!(probs_m, probs_s);
    }
}
