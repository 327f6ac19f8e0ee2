//! Remote-shard hooks: the per-server half of the distributed
//! reconciliation mode.
//!
//! The conflict-graph factorization that makes shards independent within
//! one process (see [`crate::shard`]) also makes them independent across
//! *processes*: a shard server can own a subset of the components and
//! answer every per-shard question — integrate an assertion, evaluate a
//! what-if entropy, scan information gains — without seeing any other
//! component's samples. [`ShardHost`] packages exactly that: the full
//! network *structure* (conflict index + component partition, which every
//! participant derives identically from the structure-only bootstrap
//! image) plus the sample state of the components this process owns.
//!
//! Determinism contract: every kernel a `ShardHost` runs is the *same
//! function* the single-process `ShardSet`
//! runs — shard `k` is seeded `seed + k` wherever it lives, evolution
//! rebuilds go through the shared `merged_inputs`/`split_inputs`
//! helpers, and exported shard state re-imports bit-identically through
//! the same [`persist`](crate::persist) re-recording path the snapshot
//! loader uses. A distributed run over any number of shard servers is
//! therefore byte-identical to the single-process run, which is what the
//! `smn-dist` differential certificate pins.

use crate::feedback::{Assertion, Feedback};
use crate::persist::{FeedbackState, NetworkState, ShardState};
use crate::probability::{gains_within, network_from_state, network_to_structure};
use crate::reconcile::StepOutcome;
use crate::sampling::{SampleStore, SamplerConfig};
use crate::shard::{
    build_evolved_shard, build_shards, commit_lane_local, entropy_after_local, merged_inputs,
    snapshot_entropy, snapshot_probabilities, split_inputs, ShardSnapshot, ShardingConfig,
};
use crate::MatchingNetwork;
use smn_constraints::components::ComponentEvolution;
use smn_constraints::Components;
use smn_schema::{AttributeId, CandidateId, SchemaError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One process's view of the sharded model: full structure, partial
/// sample state. The coordinator runs one with *no* owned components (a
/// pure structure mirror for routing, validation and global bookkeeping);
/// each shard server runs one owning its placement slice.
#[derive(Debug, Clone)]
pub struct ShardHost {
    network: MatchingNetwork,
    components: Arc<Components>,
    /// Sample state of the owned components, keyed by component id.
    owned: BTreeMap<usize, Arc<ShardSnapshot>>,
    sampler: SamplerConfig,
    sharding: ShardingConfig,
}

impl ShardHost {
    /// Builds a host owning the listed components: the partition and every
    /// sub-index derive from `network` exactly as
    /// `ShardSet::build` derives them, and each
    /// owned shard is built by the same seeded builder — so the union of
    /// the hosts' shards across servers is bit-identical to the
    /// single-process shard set. Owned shards fill through the same
    /// `build_shards` rule as the single-process build, across the worker
    /// pool when that pays (the result does not depend on it).
    ///
    /// Panics if an entry of `owned` is not a component id; validate
    /// wire-derived lists with [`Components::count`] via
    /// [`from_structure`](Self::from_structure) instead.
    pub fn new(
        network: MatchingNetwork,
        sampler: SamplerConfig,
        sharding: ShardingConfig,
        owned: &[usize],
    ) -> Self {
        let components = Components::of_index(network.index());
        let sub_indices = network.index().shard(&components);
        for &k in owned {
            assert!(k < components.count(), "owned component {k} out of range");
        }
        let subs = owned.iter().map(|&k| (k, sub_indices[k].clone())).collect();
        let shards = build_shards(subs, sampler, &sharding);
        let owned = owned.iter().copied().zip(shards).collect();
        Self { network, components: Arc::new(components), owned, sampler, sharding }
    }

    /// Reconstructs a host from a structure-only [`NetworkState`] (the
    /// bootstrap image a coordinator ships) and the owned-component list.
    /// Structure is validated like the snapshot loader validates it; the
    /// owned shards are then *built* here — samples never travel at
    /// bootstrap, so server fill cost scales with the owned slice.
    pub fn from_structure(state: &NetworkState, owned: &[usize]) -> Result<Self, String> {
        let network = network_from_state(state)?;
        let sharding = state
            .sharding
            .ok_or_else(|| "structure state carries no sharding config".to_string())?;
        let components = Components::of_index(network.index());
        if let Some(&bad) = owned.iter().find(|&&k| k >= components.count()) {
            return Err(format!("owned component {bad} of {}", components.count()));
        }
        Ok(Self::new(network, state.sampler, sharding, owned))
    }

    /// The structure-only image of this host's network — what a
    /// coordinator ships to bootstrap shard servers. Contains no feedback
    /// and no sample state.
    pub fn structure(&self) -> NetworkState {
        network_to_structure(&self.network, self.sampler, Some(self.sharding))
    }

    /// The underlying network structure.
    pub fn network(&self) -> &MatchingNetwork {
        &self.network
    }

    /// The conflict-component partition (identical on every participant).
    pub fn components(&self) -> &Components {
        &self.components
    }

    /// Number of conflict components.
    pub fn component_count(&self) -> usize {
        self.components.count()
    }

    /// Component ids this host owns sample state for, ascending.
    pub fn owned_components(&self) -> Vec<usize> {
        self.owned.keys().copied().collect()
    }

    /// Whether this host owns component `k`.
    pub fn owns(&self, k: usize) -> bool {
        self.owned.contains_key(&k)
    }

    /// The sampler configuration (shard `k` derives seed `seed + k`).
    pub fn sampler(&self) -> SamplerConfig {
        self.sampler
    }

    /// The sharding configuration.
    pub fn sharding(&self) -> ShardingConfig {
        self.sharding
    }

    /// Owning component of a global candidate.
    pub fn component_of(&self, c: CandidateId) -> usize {
        self.components.component_of(c)
    }

    /// An owned shard's Eq. 2 probabilities in local member order — the
    /// wire shape the coordinator scatters into its global vector.
    pub fn shard_probabilities(&self, k: usize) -> Option<Vec<f64>> {
        self.owned.get(&k).map(|s| snapshot_probabilities(s))
    }

    /// An owned shard's entropy contribution (Σ H(p) over members).
    pub fn shard_entropy(&self, k: usize) -> Option<f64> {
        self.owned.get(&k).map(|s| snapshot_entropy(s))
    }

    /// Integrates a coordinator-validated assertion into the owning shard
    /// — the same copy-on-write feedback + view-maintenance step as
    /// `ShardSet::assert` — and returns the
    /// shard's new probabilities. `None` if this host does not own the
    /// candidate's component.
    pub fn assert_unchecked(&mut self, candidate: CandidateId, approved: bool) -> Option<Vec<f64>> {
        let k = self.components.component_of(candidate);
        let lc = CandidateId::from_index(self.components.local_index(candidate));
        let snap = self.owned.get_mut(&k)?;
        let ShardSnapshot { index, feedback, store } = Arc::make_mut(snap);
        feedback.assert(Assertion { candidate: lc, approved });
        store.maintain_with_index(index, feedback, lc, approved);
        Some(snapshot_probabilities(snap))
    }

    /// Applies a lane of decided assertions (global ids, all of component
    /// `k`, in decision order) through the same validate/fallback ladder
    /// as `ShardSet::commit_lane`, installs the
    /// mutated snapshot and returns the per-event
    /// `(standing verdict, outcome, mutated)` triples plus the shard's
    /// probabilities when anything changed.
    #[allow(clippy::type_complexity)]
    pub fn commit_lane(
        &mut self,
        k: usize,
        events: &[Assertion],
    ) -> Option<(Vec<(bool, StepOutcome, bool)>, Option<Vec<f64>>)> {
        let local: Vec<Assertion> = events
            .iter()
            .map(|e| Assertion {
                candidate: CandidateId::from_index(self.components.local_index(e.candidate)),
                approved: e.approved,
            })
            .collect();
        let snap = self.owned.get_mut(&k)?;
        let (work, results) = commit_lane_local(snap, &local);
        let probs = work.map(|s| {
            *snap = Arc::new(s);
            snapshot_probabilities(snap)
        });
        Some((results, probs))
    }

    /// The entropy shard `k` would carry after hypothetically integrating
    /// `(candidate, approved)` — the remote half of the batched what-if
    /// composition `H' = H − H_k + H'_k`. The candidate is a global id of
    /// component `k`; validation (inertness) is the coordinator's job.
    pub fn entropy_after(&self, candidate: CandidateId, approved: bool) -> Option<f64> {
        let k = self.components.component_of(candidate);
        let lc = CandidateId::from_index(self.components.local_index(candidate));
        self.owned.get(&k).map(|s| entropy_after_local(s, lc, approved))
    }

    /// Expected information gains of the pool candidates (global ids, all
    /// of component `k`), through the same per-shard kernel the
    /// single-process gain scan uses over the same local probabilities.
    pub fn gains(&self, k: usize, pool: &[CandidateId]) -> Option<Vec<f64>> {
        let snap = self.owned.get(&k)?;
        let local_probs = snapshot_probabilities(snap);
        let locals: Vec<usize> = pool.iter().map(|&c| self.components.local_index(c)).collect();
        Some(gains_within(snap.store.matrix(), &local_probs, &locals))
    }

    /// Serializes an owned shard's sample state for shipment — the same
    /// [`ShardState`] a snapshot stores, so the importing side rebuilds it
    /// bit-identically through the snapshot loader's re-recording path.
    pub fn export_shard(&self, k: usize) -> Option<ShardState> {
        self.owned.get(&k).map(|s| ShardState {
            feedback: FeedbackState::of(&s.feedback),
            store: s.store.to_state(),
        })
    }

    /// Installs a shipped shard's sample state as component `k`, deriving
    /// the sub-index locally (sub-indices are canonical: every derivation
    /// path yields the same index, so a migrated shard continues exactly
    /// as it would have on its old server).
    pub fn import_shard(&mut self, k: usize, state: &ShardState) -> Result<(), String> {
        if k >= self.components.count() {
            return Err(format!("imported component {k} of {}", self.components.count()));
        }
        let m = self.components.members(k).len();
        if state.store.candidate_count != m {
            return Err(format!(
                "imported shard {k} store sized for {} of {m} members",
                state.store.candidate_count
            ));
        }
        let snap = ShardSnapshot {
            index: self.network.index().shard_component(&self.components, k),
            feedback: state.feedback.build(m)?,
            store: SampleStore::from_state(&state.store)?,
        };
        self.owned.insert(k, Arc::new(snap));
        Ok(())
    }

    /// Drops an owned shard (after it migrated elsewhere or dissolved).
    pub fn drop_shard(&mut self, k: usize) {
        self.owned.remove(&k);
    }

    /// Applies a network extension to the *structure*: appends the
    /// candidate, patches the conflict index, merges the coupled
    /// components and rekeys owned shards under the new numbering.
    /// Dissolved components' shards are dropped — the protocol exports
    /// them *before* broadcasting the event — and the merged component has
    /// no state until [`rebuild_merged`](Self::rebuild_merged) runs on its
    /// owner. Returns the arrival id and the partition evolution (remap,
    /// dissolved member lists, rebuilt component), identical on every
    /// participant.
    pub fn apply_extend(
        &mut self,
        x: AttributeId,
        y: AttributeId,
        confidence: f64,
    ) -> Result<(CandidateId, ComponentEvolution), SchemaError> {
        let id = self.network.extend(x, y, confidence)?;
        let evo = Arc::make_mut(&mut self.components).add_candidate(self.network.index());
        self.rekey_owned(&evo.remap);
        Ok((id, evo))
    }

    /// Applies a retirement to the structure: removes the candidate,
    /// patches the index, splits its component and rekeys owned shards.
    /// The dissolved shard is dropped (exported beforehand by the
    /// protocol); the split parts have no state until
    /// [`rebuild_part`](Self::rebuild_part) runs on their owners.
    pub fn apply_retire(&mut self, c: CandidateId) -> Result<ComponentEvolution, SchemaError> {
        if c.index() >= self.network.candidate_count() {
            return Err(SchemaError::UnknownCandidate(c));
        }
        self.network.retire(c)?;
        let evo = Arc::make_mut(&mut self.components).retire_candidate(self.network.index(), c);
        self.rekey_owned(&evo.remap);
        Ok(evo)
    }

    fn rekey_owned(&mut self, remap: &[Option<usize>]) {
        let old = std::mem::take(&mut self.owned);
        for (old_k, snap) in old {
            if let Some(new_k) = remap[old_k] {
                self.owned.insert(new_k, snap);
            }
        }
    }

    /// Rebuilds the merged component `k` after an extension from the
    /// absorbed sources' shipped states, each paired with its pre-merge
    /// member list and given in ascending *old* component order — the
    /// exact cross-combination order `ShardSet::extend`
    /// uses, which the carried-sample cap makes order-sensitive. Must run
    /// after [`apply_extend`](Self::apply_extend).
    pub fn rebuild_merged(
        &mut self,
        k: usize,
        absorbed: &[(Vec<CandidateId>, ShardState)],
    ) -> Result<(), String> {
        let arrival = CandidateId::from_index(self.network.candidate_count() - 1);
        let mut decoded = Vec::with_capacity(absorbed.len());
        for (members, state) in absorbed {
            if state.store.candidate_count != members.len() {
                return Err(format!(
                    "absorbed store sized for {} of {} members",
                    state.store.candidate_count,
                    members.len()
                ));
            }
            decoded.push((
                members,
                state.feedback.build(members.len())?,
                SampleStore::from_state(&state.store)?,
            ));
        }
        let sources: Vec<(&[CandidateId], &Feedback, &SampleStore)> =
            decoded.iter().map(|(m, f, s)| (m.as_slice(), f, s)).collect();
        let sub = self.network.index().shard_component(&self.components, k);
        let (feedback, carried) =
            merged_inputs(&self.components, &sub, arrival, &sources, self.sampler, &self.sharding);
        self.owned.insert(
            k,
            Arc::new(build_evolved_shard(k, sub, feedback, carried, self.sampler, &self.sharding)),
        );
        Ok(())
    }

    /// Rebuilds one split part `k` after a retirement from the dissolved
    /// shard's shipped state (`old_members` is its pre-event member list,
    /// ascending, still containing the retiree) — the same restrict +
    /// greedily-re-maximize carry-over as
    /// `ShardSet::retire`. Must run after
    /// [`apply_retire`](Self::apply_retire); every part owner receives the
    /// same old state.
    pub fn rebuild_part(
        &mut self,
        k: usize,
        old_members: &[CandidateId],
        old_state: &ShardState,
        retired: CandidateId,
    ) -> Result<(), String> {
        if old_state.store.candidate_count != old_members.len() {
            return Err(format!(
                "dissolved store sized for {} of {} members",
                old_state.store.candidate_count,
                old_members.len()
            ));
        }
        let old_feedback = old_state.feedback.build(old_members.len())?;
        let old_store = SampleStore::from_state(&old_state.store)?;
        let sub = self.network.index().shard_component(&self.components, k);
        let (feedback, carried) = split_inputs(
            &self.components,
            k,
            &sub,
            old_members,
            &old_feedback,
            &old_store,
            retired,
            &self.sharding,
        );
        self.owned.insert(
            k,
            Arc::new(build_evolved_shard(k, sub, feedback, carried, self.sampler, &self.sharding)),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probability::ProbabilisticNetwork;
    use crate::shard::ShardSet;
    use crate::testutil::perturbed_network;

    fn sampler() -> SamplerConfig {
        SamplerConfig { anneal: true, n_samples: 200, walk_steps: 3, n_min: 50, seed: 5, chains: 1 }
    }

    /// Sampled everywhere: force every component through the sampler so
    /// the tests exercise seed derivation, not just exact enumeration.
    fn sampled_cfg() -> ShardingConfig {
        ShardingConfig { exact_threshold: 0, ..Default::default() }
    }

    fn all_probs(host: &ShardHost) -> Vec<f64> {
        let n = host.network().candidate_count();
        let mut probs = vec![0.0; n];
        for k in host.owned_components() {
            let local = host.shard_probabilities(k).unwrap();
            for (j, &g) in host.components().members(k).iter().enumerate() {
                probs[g.index()] = local[j];
            }
        }
        probs
    }

    #[test]
    fn a_union_of_hosts_matches_the_single_process_shard_set() {
        for cfg in [ShardingConfig::default(), sampled_cfg()] {
            let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 9);
            let set = ShardSet::build(net.index(), sampler(), &cfg);
            let count = set.components.count();
            let n = net.candidate_count();
            let mut reference = vec![0.0; n];
            set.write_all_probabilities(&mut reference);
            // split ownership across two hosts by parity
            let even: Vec<usize> = (0..count).filter(|k| k % 2 == 0).collect();
            let odd: Vec<usize> = (0..count).filter(|k| k % 2 == 1).collect();
            let a = ShardHost::new(net.clone(), sampler(), cfg, &even);
            let b = ShardHost::new(net.clone(), sampler(), cfg, &odd);
            let mut union = vec![0.0; n];
            for host in [&a, &b] {
                for (g, &p) in all_probs(host).iter().enumerate() {
                    if p != 0.0 || host.owns(host.component_of(CandidateId::from_index(g))) {
                        union[g] = p;
                    }
                }
            }
            assert_eq!(union, reference, "host shards diverged from the shard set");
            for (k, shard) in set.shards.iter().enumerate() {
                let host = if k % 2 == 0 { &a } else { &b };
                let state = host.export_shard(k).unwrap();
                let rebuilt = SampleStore::from_state(&state.store).unwrap();
                assert_eq!(rebuilt.samples(), shard.store.samples(), "shard {k} samples");
            }
        }
    }

    #[test]
    fn bootstrap_round_trips_through_the_structure_image() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 11);
        let direct = ShardHost::new(net.clone(), sampler(), ShardingConfig::default(), &[0]);
        let image = direct.structure();
        let count = direct.component_count();
        let owned: Vec<usize> = (0..count).collect();
        let shipped = ShardHost::from_structure(&image, &owned).unwrap();
        assert_eq!(shipped.network().index(), net.index(), "structure image lost the index");
        assert_eq!(shipped.component_count(), count);
        assert_eq!(
            shipped.shard_probabilities(0),
            direct.shard_probabilities(0),
            "a bootstrapped server builds the same shard a direct host builds"
        );
        // invalid owned ids are a typed error, not a panic
        assert!(ShardHost::from_structure(&image, &[count]).is_err());
    }

    #[test]
    fn export_import_migrates_a_shard_bit_identically() {
        // sampled stores: the shipped state reproduces the posterior and
        // the what-if surface exactly (the sampler's *live* walk state
        // does not travel — which is why the distributed mode pins
        // ownership of intact shards instead of relocating them)
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 13);
        let count = ShardHost::new(net.clone(), sampler(), sampled_cfg(), &[]).component_count();
        let mut a =
            ShardHost::new(net.clone(), sampler(), sampled_cfg(), &(0..count).collect::<Vec<_>>());
        // integrate an assertion so the migrated state is not pristine
        let target = CandidateId::from_index(0);
        a.assert_unchecked(target, false).unwrap();
        let k = a.component_of(target);
        let state = a.export_shard(k).unwrap();
        let mut b = ShardHost::new(net.clone(), sampler(), sampled_cfg(), &[]);
        b.import_shard(k, &state).unwrap();
        assert_eq!(b.shard_probabilities(k), a.shard_probabilities(k));
        assert_eq!(b.entropy_after(target, false), a.entropy_after(target, false));
        // exhausted (exact) stores additionally maintain identically after
        // the trip — the same contract the crash-recovery harness certifies
        let count = ShardHost::new(net.clone(), sampler(), ShardingConfig::default(), &[])
            .component_count();
        let mut a = ShardHost::new(
            net.clone(),
            sampler(),
            ShardingConfig::default(),
            &(0..count).collect::<Vec<_>>(),
        );
        a.assert_unchecked(target, false).unwrap();
        let k = a.component_of(target);
        let mut b = ShardHost::new(net, sampler(), ShardingConfig::default(), &[]);
        b.import_shard(k, &a.export_shard(k).unwrap()).unwrap();
        assert_eq!(b.shard_probabilities(k), a.shard_probabilities(k));
        let next = a.components().members(k).iter().copied().find(|&c| c != target).unwrap();
        assert_eq!(a.assert_unchecked(next, true), b.assert_unchecked(next, true));
    }

    #[test]
    fn per_shard_queries_match_the_probabilistic_network() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 17);
        let pn =
            ProbabilisticNetwork::new_sharded(net.clone(), sampler(), ShardingConfig::default());
        let count = pn.shard_count();
        let host = ShardHost::new(
            net,
            sampler(),
            ShardingConfig::default(),
            &(0..count).collect::<Vec<_>>(),
        );
        assert_eq!(all_probs(&host), pn.probabilities());
        // gains through the host equal the single-process gain scan
        let pool = pn.uncertain_candidates();
        let reference = pn.information_gains(&pool);
        for k in 0..count {
            let locals: Vec<CandidateId> =
                pool.iter().copied().filter(|&c| host.component_of(c) == k).collect();
            if locals.is_empty() {
                continue;
            }
            let gains = host.gains(k, &locals).unwrap();
            for (c, g) in locals.iter().zip(&gains) {
                let pos = pool.iter().position(|x| x == c).unwrap();
                assert_eq!(*g, reference[pos], "gain of {c:?}");
            }
        }
    }

    /// Two disjoint one-to-one conflict clusters over a 2-schema catalog:
    /// `{c0 = a0–b0, c1 = a0–b1}` and `{c2 = a1–b2, c3 = a1–b3}` — the
    /// arrival `a1–b0` couples them into one component.
    fn two_cluster_network() -> crate::network::MatchingNetwork {
        use smn_schema::{AttributeId, CandidateSet, CatalogBuilder, InteractionGraph};
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["a0", "a1"]).unwrap();
        b.add_schema_with_attributes("B", ["b0", "b1", "b2", "b3"]).unwrap();
        let cat = b.build();
        let g = InteractionGraph::complete(2);
        let mut cs = CandidateSet::new(&cat);
        let a = AttributeId;
        cs.add(&cat, Some(&g), a(0), a(2), 0.9).unwrap(); // c0
        cs.add(&cat, Some(&g), a(0), a(3), 0.8).unwrap(); // c1
        cs.add(&cat, Some(&g), a(1), a(4), 0.8).unwrap(); // c2
        cs.add(&cat, Some(&g), a(1), a(5), 0.7).unwrap(); // c3
        crate::network::MatchingNetwork::new(
            cat,
            g,
            cs,
            smn_constraints::ConstraintConfig::default(),
        )
    }

    #[test]
    fn evolution_rebuilds_match_the_probabilistic_network() {
        use smn_schema::AttributeId;
        for cfg in [ShardingConfig::default(), sampled_cfg()] {
            let net = two_cluster_network();
            let mut pn = ProbabilisticNetwork::new_sharded(net.clone(), sampler(), cfg);
            let count = pn.shard_count();
            let mut host = ShardHost::new(net, sampler(), cfg, &(0..count).collect::<Vec<_>>());
            // -- extend: export the about-to-dissolve shards first, apply,
            //    then rebuild the merged component from the exports
            let (arrival_pn, merged_probs) = {
                let id = pn.extend(AttributeId(1), AttributeId(2), 0.6).unwrap();
                (id, pn.probabilities().to_vec())
            };
            let exports: Vec<(usize, Vec<CandidateId>, ShardState)> = host
                .owned_components()
                .iter()
                .map(|&k| (k, host.components().members(k).to_vec(), host.export_shard(k).unwrap()))
                .collect();
            let (arrival, evo) = host.apply_extend(AttributeId(1), AttributeId(2), 0.6).unwrap();
            assert_eq!(arrival, arrival_pn);
            let &[merged_k] = evo.rebuilt.as_slice() else { panic!("one merged component") };
            let absorbed: Vec<(Vec<CandidateId>, ShardState)> = evo
                .dissolved
                .iter()
                .map(|(old_k, members)| {
                    let (_, _, state) =
                        exports.iter().find(|(k, _, _)| k == old_k).expect("exported");
                    (members.clone(), state.clone())
                })
                .collect();
            host.rebuild_merged(merged_k, &absorbed).unwrap();
            assert_eq!(all_probs(&host), merged_probs, "merged rebuild diverged");
            // -- retire: same dance through the split path
            let retiree = arrival;
            let old_members_of: Vec<(usize, Vec<CandidateId>)> = host
                .owned_components()
                .iter()
                .map(|&k| (k, host.components().members(k).to_vec()))
                .collect();
            let exports: Vec<(usize, ShardState)> = host
                .owned_components()
                .iter()
                .map(|&k| (k, host.export_shard(k).unwrap()))
                .collect();
            pn.retire(retiree).unwrap();
            let evo = host.apply_retire(retiree).unwrap();
            let (old_k, old_members) = evo.dissolved.first().expect("retiree shard dissolves");
            let old_state =
                &exports.iter().find(|(k, _)| k == old_k).expect("exported dissolved shard").1;
            assert_eq!(
                old_members,
                &old_members_of.iter().find(|(k, _)| k == old_k).unwrap().1,
                "evolution reports the pre-event member list"
            );
            for &part_k in &evo.rebuilt {
                host.rebuild_part(part_k, old_members, old_state, retiree).unwrap();
            }
            assert_eq!(all_probs(&host), pn.probabilities(), "split rebuild diverged");
        }
    }

    #[test]
    fn commit_lane_and_assert_agree_with_the_shard_set_paths() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 13);
        let n = net.candidate_count();
        let mut set = ShardSet::build(net.index(), sampler(), &ShardingConfig::default());
        let count = set.components.count();
        let mut host = ShardHost::new(
            net,
            sampler(),
            ShardingConfig::default(),
            &(0..count).collect::<Vec<_>>(),
        );
        let target = CandidateId::from_index(0);
        let (k, _) = set.locate(target);
        let events: Vec<Assertion> = set.components.members(k)
            [..set.components.members(k).len().min(3)]
            .iter()
            .enumerate()
            .map(|(i, &c)| Assertion { candidate: c, approved: i % 2 == 0 })
            .collect();
        let mut probs = vec![0.0; n];
        set.write_all_probabilities(&mut probs);
        let (snap, expected) = set.commit_lane(k, &events);
        if let Some(s) = snap {
            set.shards[k] = Arc::new(s);
            set.write_shard_probabilities(k, &mut probs);
        }
        let (results, new_probs) = host.commit_lane(k, &events).unwrap();
        assert_eq!(results, expected);
        if let Some(local) = new_probs {
            for (j, &g) in host.components().members(k).iter().enumerate() {
                assert_eq!(local[j], probs[g.index()], "lane probability of {g:?}");
            }
        }
    }
}
