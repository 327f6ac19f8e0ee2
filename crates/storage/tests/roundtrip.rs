//! Snapshot round-trip properties over the standard fixture presets:
//! `save → load → save` is byte-identical, the loaded network matches the
//! live one bit for bit (probabilities are *recomputed* from the restored
//! samples through the same kernels), and loading then replaying a log
//! equals rebuilding from scratch and replaying — the structural half of
//! the durability contract (the crash half lives in `tests/crash.rs`).

use proptest::prelude::*;
use smn_core::feedback::Assertion;
use smn_core::persist::{apply_event, apply_to_history, NetworkEvent};
use smn_core::{ProbabilisticNetwork, SamplerConfig, ShardingConfig};
use smn_schema::CandidateId;
use smn_storage::{load_with_history, save_with_history, Durable};
use smn_testkit::{
    fast_sampler, fig1_network, perturbed_network, tiny_sampler, webform_federation,
};

/// Round-trips `pn` (with `history`) through the snapshot format and
/// checks every equality the format promises.
fn assert_round_trip(pn: &ProbabilisticNetwork, history: &[Assertion], applied_seq: u64) {
    let bytes = save_with_history(pn, history, applied_seq);
    let (loaded, loaded_history, loaded_seq) = load_with_history(&bytes).expect("clean load");
    assert_eq!(loaded_history, history, "history survives byte-identically");
    assert_eq!(loaded_seq, applied_seq);
    assert_eq!(loaded.to_state(), pn.to_state(), "structural state equality");
    assert_eq!(loaded.network().index(), pn.network().index(), "conflict index equality");
    assert_eq!(loaded.probabilities(), pn.probabilities(), "bit-identical probabilities");
    assert_eq!(loaded.entropy().to_bits(), pn.entropy().to_bits(), "bit-identical entropy");
    assert_eq!(loaded.effort(), pn.effort());
    assert_eq!(loaded.is_sharded(), pn.is_sharded());
    assert_eq!(loaded.shard_count(), pn.shard_count());
    let uncertain = pn.uncertain_candidates();
    assert_eq!(loaded.uncertain_candidates(), uncertain);
    let (ga, gb) = (loaded.information_gains(&uncertain), pn.information_gains(&uncertain));
    for ((&c, &a), &b) in uncertain.iter().zip(&ga).zip(&gb) {
        assert!((a - b).abs() < 1e-12, "gain of {c}: {a} vs {b}");
    }
    // the encoder is canonical: re-saving the loaded network reproduces
    // the exact input bytes
    assert_eq!(save_with_history(&loaded, &loaded_history, loaded_seq), bytes, "save∘load = id");
}

#[test]
fn fig1_round_trips_monolithic_and_sharded() {
    for sharded in [false, true] {
        let mut pn = if sharded {
            ProbabilisticNetwork::new_sharded(
                fig1_network(),
                tiny_sampler(5),
                ShardingConfig::default(),
            )
        } else {
            ProbabilisticNetwork::new(fig1_network(), tiny_sampler(5))
        };
        assert_round_trip(&pn, &[], 0);
        let a = Assertion { candidate: CandidateId(2), approved: true };
        pn.assert_candidate(a).unwrap();
        assert_round_trip(&pn, &[a], 3);
    }
}

#[test]
fn perturbed_preset_round_trips_in_the_sampled_regime() {
    let (net, _) = perturbed_network(3, 6, 0.7, 0.9, 11);
    // the whole-network block keeps a genuinely sampled (non-exhausted) store: the
    // round trip must restore Ω* and its RNG-free derived state exactly
    let mut pn = ProbabilisticNetwork::new(net, tiny_sampler(11));
    assert_round_trip(&pn, &[], 0);
    let a = Assertion { candidate: CandidateId(1), approved: false };
    let mut history = Vec::new();
    if pn.assert_candidate(a).is_ok() {
        history.push(a);
    }
    assert_round_trip(&pn, &history, 1);
}

#[test]
fn federation_preset_round_trips_sharded() {
    let (net, _) = webform_federation(4, 7);
    let mut pn = ProbabilisticNetwork::new_sharded(net, fast_sampler(7), ShardingConfig::default());
    assert_round_trip(&pn, &[], 0);
    let a = Assertion { candidate: CandidateId(0), approved: true };
    let mut history = Vec::new();
    if pn.assert_candidate(a).is_ok() {
        history.push(a);
    }
    assert_round_trip(&pn, &history, 1);
}

#[test]
fn durable_trait_is_the_historyless_special_case() {
    let pn = ProbabilisticNetwork::new(fig1_network(), tiny_sampler(5));
    let bytes = pn.save();
    assert_eq!(bytes, save_with_history(&pn, &[], 0));
    let loaded = ProbabilisticNetwork::load(&bytes).expect("clean load");
    assert_eq!(loaded.to_state(), pn.to_state());
}

proptest! {
    /// Any reachable assertion state of the fig1/perturbed presets
    /// round-trips byte-identically, and *load-then-replay* equals
    /// *rebuild-and-replay*: applying the same event suffix to the loaded
    /// network and to a freshly built network yields structurally equal
    /// results.
    #[test]
    fn reachable_states_round_trip_and_replay_agrees(
        preset in 0u8..2,
        seed in 0u64..64,
        verdicts in prop::collection::vec(any::<u32>(), 0..10),
        suffix in prop::collection::vec(any::<u32>(), 0..6),
    ) {
        let build = || {
            let net = match preset {
                0 => fig1_network(),
                _ => perturbed_network(3, 4, 0.7, 0.9, seed).0,
            };
            ProbabilisticNetwork::new_sharded(
                net,
                tiny_sampler(seed),
                ShardingConfig { exact_threshold: 64, exact_cap: 1 << 20, ..Default::default() },
            )
        };
        let mut pn = build();
        let mut history = Vec::new();
        for &v in &verdicts {
            let n = pn.network().candidate_count();
            if n == 0 { break; }
            let a = Assertion {
                candidate: CandidateId::from_index((v >> 1) as usize % n),
                approved: v & 1 != 0,
            };
            if pn.assert_candidate(a).is_ok() {
                history.push(a);
            }
        }
        let bytes = save_with_history(&pn, &history, history.len() as u64);
        let (loaded, h, seq) = load_with_history(&bytes).expect("clean load");
        prop_assert_eq!(&h, &history);
        prop_assert_eq!(save_with_history(&loaded, &h, seq), bytes, "byte-identical re-save");

        // load-then-replay ≡ rebuild-and-replay over an arbitrary suffix
        let mut replayed = loaded;
        let mut rebuilt = build();
        for &a in &history {
            // bring the rebuild to the snapshot state first
            rebuilt.assert_candidate(a).expect("history replays onto a fresh build");
        }
        let mut replayed_history = history.clone();
        let mut rebuilt_history = history;
        for &v in &suffix {
            let n = replayed.network().candidate_count();
            if n == 0 { break; }
            let event = NetworkEvent::Assert {
                candidate: CandidateId::from_index((v >> 1) as usize % n),
                approved: v & 1 != 0,
            };
            let (ra, rb) = (
                apply_event(&mut replayed, &event),
                apply_event(&mut rebuilt, &event),
            );
            prop_assert_eq!(&ra, &rb, "replay outcomes agree");
            if ra.is_ok() {
                apply_to_history(&mut replayed_history, &event);
                apply_to_history(&mut rebuilt_history, &event);
            }
        }
        prop_assert_eq!(replayed_history, rebuilt_history);
        prop_assert_eq!(replayed.to_state(), rebuilt.to_state(), "structural equality");
        prop_assert_eq!(replayed.probabilities(), rebuilt.probabilities());
        prop_assert!((replayed.entropy() - rebuilt.entropy()).abs() < 1e-12);
    }
}

/// The sampler configuration is preserved exactly — including a
/// multi-chain config, whose restored store must keep reporting the same
/// content it was saved with.
#[test]
fn config_fidelity_across_the_round_trip() {
    let config = SamplerConfig {
        n_samples: 120,
        walk_steps: 2,
        n_min: 40,
        seed: 99,
        anneal: false,
        chains: 2,
    };
    let pn = ProbabilisticNetwork::new(fig1_network(), config);
    let bytes = save_with_history(&pn, &[], 0);
    let (loaded, _, _) = load_with_history(&bytes).unwrap();
    assert_eq!(loaded.to_state().sampler, config);
    assert_eq!(loaded.probabilities(), pn.probabilities());
}

/// Golden bytes of a whole-network snapshot: a sampled (non-exhausted)
/// store after a few assertions, some of which refill it. The length and
/// FNV-1a digest were recorded while the whole network still had its own
/// store type, so the one-block shard set that replaced it must write
/// format v1 byte for byte — and, being byte-identical, snapshots of that store still load.
#[test]
fn whole_network_snapshot_bytes_are_pinned() {
    let (net, _) = perturbed_network(3, 6, 0.7, 0.9, 11);
    let mut pn = ProbabilisticNetwork::new(net, tiny_sampler(11));
    assert!(!pn.is_exhausted(), "the golden store must be genuinely sampled");
    let mut history = Vec::new();
    for (c, approved) in [(1, false), (4, true), (7, false), (0, true), (9, false)] {
        let a = Assertion { candidate: CandidateId(c), approved };
        if pn.assert_candidate(a).is_ok() {
            history.push(a);
        }
    }
    let bytes = save_with_history(&pn, &history, history.len() as u64);
    let digest = bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3));
    assert_eq!(
        (history.len(), bytes.len(), digest),
        (5, 5098, 10097591715585566999),
        "whole-network snapshot moved"
    );
    assert_round_trip(&pn, &history, history.len() as u64);
}
