//! Golden digests of the whole-network (one-block) partition.
//!
//! A seeded [`Session`] with the default (non-sharded) configuration runs
//! Algorithm 1 to completion on a Business-Partner-preset network, with a
//! truthful expert answering every question. The digest folds in every
//! question's candidate id and, after every answer, the bit pattern of
//! every entry of `P`; every 16th step also folds in the batched what-if
//! entropies of every uncertain candidate and the greedy seed. A second
//! digest pins one `commit_batch` over a fresh whole-network model. The
//! expected values were recorded while the whole network still had its
//! own store type, so they pin that the whole-network path — now a
//! one-block shard set — samples, prices gains, commits and maintains `P`
//! exactly as that store did.

use smn_constraints::ConstraintConfig;
use smn_core::feedback::Assertion;
use smn_core::{CommitExec, ProbabilisticNetwork};
use smn_core::{MatchingNetwork, Session, SessionConfig};
use smn_matchers::matcher::match_network;
use smn_matchers::PerturbationMatcher;
use smn_schema::{CandidateId, Correspondence};
use smn_testkit::fast_session_config;
use std::collections::HashSet;

/// FNV-1a over 64-bit words.
fn fold(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
    }
}

fn business_partner(seed: u64) -> (MatchingNetwork, Vec<Correspondence>) {
    let dataset = smn_datasets::presets::bp(seed);
    let graph = dataset.complete_graph();
    let truth = dataset.selective_matching(&graph);
    let matcher = PerturbationMatcher::new(truth.iter().copied(), 0.65, 0.85, seed);
    let candidates = match_network(&matcher, &dataset.catalog, &graph).expect("valid candidates");
    let network =
        MatchingNetwork::new(dataset.catalog, graph, candidates, ConstraintConfig::default());
    (network, truth)
}

/// Runs the session to completion and returns (answers, refills, digest).
fn run(config: SessionConfig) -> (usize, usize, u64) {
    let (network, truth) = business_partner(3);
    let truth: HashSet<Correspondence> = truth.into_iter().collect();
    let mut session = Session::new(network, config);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for p in session.network().probabilities() {
        fold(&mut digest, p.to_bits());
    }
    let (mut answers, mut refills) = (0, 0);
    while let Some(q) = session.next_question() {
        fold(&mut digest, u64::from(q.candidate.0));
        let before = session.network().distinct_sample_count();
        session.answer(q.candidate, truth.contains(&q.correspondence)).expect("truthful answer");
        for p in session.network().probabilities() {
            fold(&mut digest, p.to_bits());
        }
        answers += 1;
        if answers % 16 == 0 {
            let pn = session.network();
            let queries: Vec<(CandidateId, bool)> = pn
                .uncertain_candidates()
                .into_iter()
                .flat_map(|c| [(c, true), (c, false)])
                .collect();
            for h in pn.what_if_batch(&queries) {
                fold(&mut digest, h.to_bits());
            }
            for c in pn.greedy_seed(true).expect("samples exist").iter() {
                fold(&mut digest, u64::from(c.0));
            }
        }
        refills += usize::from(session.network().distinct_sample_count() > before);
    }
    (answers, refills, digest)
}

#[test]
fn whole_network_session_on_business_partner_is_pinned() {
    let config = fast_session_config(11);
    assert!(!config.sharding.enabled, "the default configuration samples the whole network");
    assert_eq!(run(config), (134, 10, 4596768112254612130), "whole-network session trace moved");
}

#[test]
fn whole_network_commit_batch_on_business_partner_is_pinned() {
    let (network, _) = business_partner(5);
    let mut pn = ProbabilisticNetwork::new(network, fast_session_config(5).sampler);
    // overlapping verdicts: conflicting approvals flip, repeats are no-ops
    let requests: Vec<Assertion> = (0..60)
        .map(|i| Assertion { candidate: CandidateId(i * 7 % 50), approved: i % 3 != 1 })
        .collect();
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for out in pn.commit_batch(&requests, CommitExec::Sequential) {
        let outcome = out.outcome as u64;
        fold(
            &mut digest,
            u64::from(out.candidate.0) << 8
                | outcome << 2
                | u64::from(out.approved) << 1
                | u64::from(out.mutated),
        );
        fold(&mut digest, out.shard as u64);
    }
    for p in pn.probabilities() {
        fold(&mut digest, p.to_bits());
    }
    assert_eq!(
        (pn.generation(), digest),
        (50, 16501027233365319009),
        "whole-network commit batch moved"
    );
}
