//! Generated inputs. Every input derives from the workload seed, a
//! stream tag and an index, so a seed fixes a run's inputs and the
//! system only ever sees the generated networks. The generators are the
//! repository's own experiment harness (`smn-bench`).

use smn_bench::{matched_network, sharding, MatcherKind};
use smn_core::MatchingNetwork;
use smn_datasets::{DatasetSpec, SharingModel, Vocabulary};
use smn_schema::Correspondence;

/// A matched network and the ground truth of its graph.
pub struct Case {
    pub network: MatchingNetwork,
    pub truth: Vec<Correspondence>,
}

impl From<(MatchingNetwork, Vec<Correspondence>)> for Case {
    fn from((network, truth): (MatchingNetwork, Vec<Correspondence>)) -> Self {
        Case { network, truth }
    }
}

/// Derives an independent seed (splitmix64 over seed, stream and index).
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, for fingerprints of deterministic outputs.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// A network of the paper's Business Partner shape: 3 schemas of
/// `attrs.0..=attrs.1` attributes (the preset's 80–106 by default),
/// matched by the calibrated perturbation matcher (precision 0.65,
/// recall 0.85: the candidate quality the paper reports for its
/// matchers).
pub fn business_partner(seed: u64, attrs: (usize, usize)) -> Case {
    let dataset = DatasetSpec {
        name: "BP".into(),
        vocabulary: Vocabulary::business_partner(),
        schema_count: 3,
        attrs_min: attrs.0,
        attrs_max: attrs.1,
        sharing: SharingModel::RankBiased { alpha: 0.55 },
    }
    .generate(seed);
    let graph = dataset.complete_graph();
    matched_network(&dataset, &graph, MatcherKind::perturbation(seed)).into()
}

/// A federation of `groups` independent three-form webform clusters,
/// matched by the same calibrated perturbation matcher.
pub fn federation(groups: usize, seed: u64) -> Case {
    sharding::federation_case(groups, seed).into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed() {
        assert_ne!(derive(1, 0, 0), derive(1, 0, 1));
        assert_ne!(derive(1, 0, 0), derive(1, 1, 0));
        let a = federation(3, 9);
        let b = federation(3, 9);
        assert_eq!(a.network.candidate_count(), b.network.candidate_count());
        assert_eq!(a.truth, b.truth);
    }
}
