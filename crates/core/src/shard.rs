//! Component shards of the probabilistic model.
//!
//! The integrity constraints only couple candidates that share a conflict,
//! so the distribution over matching instances factorizes exactly over the
//! connected components of the conflict graph
//! ([`smn_constraints::Components`]): `I` is a matching
//! instance of the network iff every per-component restriction is a
//! matching instance of that component. `ShardSet` materializes a
//! partition of the candidates into blocks — one independent
//! [`SampleStore`] per block, running on a restricted, locally renumbered
//! [`smn_constraints::ConflictIndex`] — and is the one sample
//! representation behind [`ProbabilisticNetwork`](crate::ProbabilisticNetwork).
//! Two partitions are in use:
//!
//! * **whole network** (`ShardSet::whole`, the paper's Algorithm 3
//!   setup and the default) — one block holding every candidate in id
//!   order over the network's own index, so local ids are global ids;
//! * **component-sharded** (`ShardSet::build`) — one block per conflict
//!   component.
//!
//! What the component partition buys:
//!
//! * **Local assertions** — integrating feedback on `c` view-maintains and
//!   recomputes only the shard owning `c`, not the whole store.
//! * **Local information gain** — candidates of different components are
//!   statistically independent, so their co-occurrence terms contribute
//!   zero gain; the batch gain scan shrinks from `O(|pool|·n·S/64)` to a
//!   sum of per-shard costs.
//! * **Exact small shards** — components at or below
//!   [`ShardingConfig::exact_threshold`] candidates are enumerated with
//!   [`crate::exact::enumerate_with_index`]
//!   instead of sampled: their stores are born exhausted and their
//!   posteriors exact (Eq. 1).
//! * **Parallel fill** — shard stores fill independently across the
//!   persistent work-stealing pool ([`crate::pool`]), each seeded
//!   `seed + shard_id` in the spirit of the multi-chain sampler and merged
//!   in shard-id order, so the result is bit-deterministic for a fixed
//!   configuration regardless of scheduling or thread count.

use crate::entropy::binary_entropy;
use crate::exact;
use crate::feedback::{Assertion, Feedback};
use crate::pool;
use crate::reconcile::StepOutcome;
use crate::sampling::{SampleStore, SamplerConfig};
use smn_constraints::{BitSet, Components, ConflictIndex};
use smn_schema::CandidateId;
use std::sync::Arc;

/// Configuration of the sample partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingConfig {
    /// Whether the store is partitioned by conflict component;
    /// [`disabled`](ShardingConfig::disabled) keeps the whole-network
    /// partition — one always-sampled block over every candidate.
    pub enabled: bool,
    /// Components with at most this many candidates switch from sampling
    /// to exact enumeration (`0` samples everything).
    pub exact_threshold: usize,
    /// Instance cap for the exact-enumeration attempt; a small component
    /// that still exceeds it falls back to sampling.
    pub exact_cap: usize,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        Self { enabled: true, exact_threshold: 24, exact_cap: 4096 }
    }
}

impl ShardingConfig {
    /// The whole-network (one-block) configuration.
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::default() }
    }
}

/// One conflict component's snapshot: its restricted index, local feedback
/// and independent sample store. Candidate ids are shard-local; the
/// [`Components`] partition owns the global ↔ local mapping.
///
/// Snapshots are immutable behind `Arc` (see [`ShardSet`]): an assertion
/// copy-on-writes exactly the owning shard (`Arc::make_mut`), and even
/// that copy is thin — the sub-index is itself `Arc`-shared and the
/// store's sample matrix sits behind its own snapshot pointer, so the
/// first write after a fork duplicates one shard's feedback bitsets and
/// store overlay, nothing network-wide.
#[derive(Debug, Clone)]
pub(crate) struct ShardSnapshot {
    pub(crate) index: Arc<ConflictIndex>,
    pub(crate) feedback: Feedback,
    pub(crate) store: SampleStore,
}

impl ShardSnapshot {
    /// Eq. 2 over this shard's own store: the fraction of its samples
    /// containing local candidate `lc`. A store without samples (an empty
    /// block, or defensively contradictory local feedback) keeps its
    /// approvals certain and everything else at 0.
    fn probability(&self, lc: CandidateId) -> f64 {
        let matrix = self.store.matrix();
        match matrix.sample_count() {
            0 if self.feedback.approved().contains(lc) => 1.0,
            0 => 0.0,
            total => matrix.membership_count(lc) as f64 / total as f64,
        }
    }
}

/// The sample representation: the (shared) partition plus one
/// [`ShardSnapshot`] per block.
///
/// This is the copy-on-write layer behind
/// [`ProbabilisticNetwork::fork`](crate::ProbabilisticNetwork::fork):
/// cloning a `ShardSet` is `O(#shards)` pointer copies — no sample matrix,
/// conflict index or partition is duplicated until one side writes a
/// shard.
#[derive(Debug, Clone)]
pub(crate) struct ShardSet {
    pub(crate) components: Arc<Components>,
    pub(crate) shards: Vec<Arc<ShardSnapshot>>,
}

impl ShardSet {
    /// Partitions `index` into conflict components and builds every shard
    /// store (see [`build_shards`]).
    pub(crate) fn build(
        index: &ConflictIndex,
        sampler: SamplerConfig,
        sharding: &ShardingConfig,
    ) -> Self {
        let components = Components::of_index(index);
        let subs = index.shard(&components).into_iter().enumerate().collect();
        Self { components: Arc::new(components), shards: build_shards(subs, sampler, sharding) }
    }

    /// The whole-network partition: one block holding every candidate in
    /// id order, so its local ids are the global ids. The block shares the
    /// network's `index` instead of a restricted copy, carries `feedback`
    /// as its local feedback, and keeps `store` — always sampled and
    /// seeded `seed + 0`, which is exactly the paper's Algorithm 3 store.
    pub(crate) fn whole(index: Arc<ConflictIndex>, feedback: Feedback, store: SampleStore) -> Self {
        let n = index.candidate_count();
        let components =
            Components::from_members(n, vec![(0..n).map(CandidateId::from_index).collect()]);
        Self {
            components: Arc::new(components),
            shards: vec![Arc::new(ShardSnapshot { index, feedback, store })],
        }
    }

    /// Whether every shard store is exhausted — then the factorized
    /// posterior is exact over the whole network.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.shards.iter().all(|s| s.store.is_exhausted())
    }

    /// Total distinct samples across shards (the factorized store covers
    /// the *product* of these per-shard counts).
    pub(crate) fn distinct_samples(&self) -> usize {
        self.shards.iter().map(|s| s.store.len()).sum()
    }

    /// Owning shard and shard-local id of a global candidate.
    pub(crate) fn locate(&self, c: CandidateId) -> (usize, CandidateId) {
        (self.components.component_of(c), CandidateId::from_index(self.components.local_index(c)))
    }

    /// Whether approving `c` is consistent with the shard's earlier
    /// approvals (conflicts never leave the shard).
    pub(crate) fn approval_is_consistent(&self, c: CandidateId) -> bool {
        let (k, lc) = self.locate(c);
        let shard = &self.shards[k];
        shard.index.can_add(shard.feedback.approved(), lc)
    }

    /// Integrates an assertion: copy-on-writes the owning shard (a no-op
    /// copy when the snapshot is not shared with a fork), updates its
    /// feedback, view-maintains its store and rewrites that shard's slice
    /// of the global probability vector. Other shards are untouched — and
    /// stay shared with any fork by pointer.
    pub(crate) fn assert(&mut self, candidate: CandidateId, approved: bool, probs: &mut [f64]) {
        let (k, lc) = self.locate(candidate);
        let ShardSnapshot { index, feedback, store } = Arc::make_mut(&mut self.shards[k]);
        feedback.assert(Assertion { candidate: lc, approved });
        store.maintain_with_index(index, feedback, lc, approved);
        self.write_shard_probabilities(k, probs);
    }

    /// Writes the probabilities of every shard into the global vector.
    pub(crate) fn write_all_probabilities(&self, probs: &mut [f64]) {
        for k in 0..self.shards.len() {
            self.write_shard_probabilities(k, probs);
        }
    }

    /// Maintains the shard set for the candidate just appended to `index`
    /// (the patched global conflict index): the components its conflicts
    /// couple merge into one shard — still-consistent cross-combinations
    /// of their samples are carried over, and only that shard enumerates
    /// or refills — while every other shard survives verbatim. The merged
    /// shard's slice of `probs` is rewritten; nothing else moves (global
    /// ids are stable under arrival).
    pub(crate) fn extend(
        &mut self,
        index: &ConflictIndex,
        sampler: SamplerConfig,
        sharding: &ShardingConfig,
        probs: &mut [f64],
    ) {
        let c = CandidateId::from_index(index.candidate_count() - 1);
        let evo = Arc::make_mut(&mut self.components).add_candidate(index);
        let old_shards = std::mem::take(&mut self.shards);
        let mut new_shards: Vec<Option<Arc<ShardSnapshot>>> =
            (0..self.components.count()).map(|_| None).collect();
        // merge sources, paired with their pre-merge member lists (both
        // ascend by old component index)
        let mut absorbed: Vec<(&[CandidateId], Arc<ShardSnapshot>)> = Vec::new();
        {
            let mut dissolved = evo.dissolved.iter();
            for (old_k, shard) in old_shards.into_iter().enumerate() {
                match evo.remap[old_k] {
                    Some(new_k) => new_shards[new_k] = Some(shard),
                    None => {
                        let (dk, members) =
                            dissolved.next().expect("one dissolved entry per absorbed shard");
                        debug_assert_eq!(*dk, old_k);
                        absorbed.push((members.as_slice(), shard));
                    }
                }
            }
        }
        let &[merged_k] = evo.rebuilt.as_slice() else {
            unreachable!("an arrival always forms exactly one new component")
        };
        let sub = index.shard_component(&self.components, merged_k);
        let sources: Vec<(&[CandidateId], &Feedback, &SampleStore)> = absorbed
            .iter()
            .map(|(members, shard)| (*members, &shard.feedback, &shard.store))
            .collect();
        let (feedback, carried) =
            merged_inputs(&self.components, &sub, c, &sources, sampler, sharding);
        new_shards[merged_k] = Some(Arc::new(build_evolved_shard(
            merged_k, sub, feedback, carried, sampler, sharding,
        )));
        self.shards =
            new_shards.into_iter().map(|s| s.expect("every component assigned")).collect();
        self.write_shard_probabilities(merged_k, probs);
    }

    /// Maintains the shard set after `retired` was removed from `index`
    /// (already patched and id-compacted): only the retired candidate's
    /// shard dissolves — its surviving conflict components are re-extracted,
    /// their feedback carried over, and their stores rebuilt from the old
    /// shard's samples (restricted, deterministically re-maximized) plus a
    /// refill — while every other shard survives verbatim. The split
    /// parts' slices of `probs` are rewritten; `probs` must already be
    /// compacted to the new id space.
    pub(crate) fn retire(
        &mut self,
        index: &ConflictIndex,
        retired: CandidateId,
        sampler: SamplerConfig,
        sharding: &ShardingConfig,
        probs: &mut [f64],
    ) {
        let evo = Arc::make_mut(&mut self.components).retire_candidate(index, retired);
        // OLD global ids of the dissolving component (ascending, still
        // containing the retiree), moved out by the partition update
        let old_comp: &[CandidateId] =
            &evo.dissolved.first().expect("the retiree's component dissolves").1;
        let old_shards = std::mem::take(&mut self.shards);
        let mut new_shards: Vec<Option<Arc<ShardSnapshot>>> =
            (0..self.components.count()).map(|_| None).collect();
        let mut dissolved: Option<Arc<ShardSnapshot>> = None;
        for (old_k, shard) in old_shards.into_iter().enumerate() {
            match evo.remap[old_k] {
                Some(new_k) => new_shards[new_k] = Some(shard),
                None => dissolved = Some(shard),
            }
        }
        let old_shard = dissolved.expect("the retired candidate's shard dissolves");
        for &part_k in &evo.rebuilt {
            let sub = index.shard_component(&self.components, part_k);
            let (feedback, carried) = split_inputs(
                &self.components,
                part_k,
                &sub,
                old_comp,
                &old_shard.feedback,
                &old_shard.store,
                retired,
                sharding,
            );
            new_shards[part_k] = Some(Arc::new(build_evolved_shard(
                part_k, sub, feedback, carried, sampler, sharding,
            )));
        }
        self.shards =
            new_shards.into_iter().map(|s| s.expect("every component assigned")).collect();
        for &part_k in &evo.rebuilt {
            self.write_shard_probabilities(part_k, probs);
        }
    }

    /// Writes one shard's probabilities (Eq. 2 over its own store) into
    /// the global vector.
    pub(crate) fn write_shard_probabilities(&self, k: usize, probs: &mut [f64]) {
        let shard = &self.shards[k];
        for (j, &g) in self.components.members(k).iter().enumerate() {
            probs[g.index()] = shard.probability(CandidateId::from_index(j));
        }
    }

    /// Applies a lane of decided assertions (global candidate ids, all
    /// owned by shard `k`, in decision order) against a *working copy* of
    /// the shard and returns the new snapshot plus one
    /// `(standing verdict, outcome, mutated)` triple per event. `self` is
    /// untouched — the caller installs the snapshot (and mirrors the
    /// mutated events into the global feedback) afterwards, which is what
    /// lets disjoint lanes run on pool workers concurrently.
    ///
    /// Each event walks the service ladder: integrate as requested, fall
    /// back to a disapproval when the request is rejected, skip when even
    /// that contradicts standing feedback. Validation runs against the
    /// lane's working snapshot *before* any copy is made, so a lane of
    /// purely redundant events returns `None` — the shard is never cloned
    /// for work that turns out to be a no-op.
    pub(crate) fn commit_lane(
        &self,
        k: usize,
        events: &[Assertion],
    ) -> (Option<ShardSnapshot>, Vec<(bool, StepOutcome, bool)>) {
        let local: Vec<Assertion> = events
            .iter()
            .map(|e| Assertion {
                candidate: CandidateId::from_index(self.components.local_index(e.candidate)),
                approved: e.approved,
            })
            .collect();
        commit_lane_local(&self.shards[k], &local)
    }

    /// Entropy (bits) shard `k` would carry after hypothetically
    /// integrating the assertion `(lc, approved)` — the per-query kernel
    /// behind
    /// [`ProbabilisticNetwork::what_if_batch`](crate::ProbabilisticNetwork::what_if_batch).
    /// Runs the real integration (feedback update, view maintenance,
    /// refill) on a throwaway copy of the one snapshot; `self` is
    /// untouched. Entropy is additive over independent components, so the
    /// batch layer composes `H' = H − H_k + H'_k` from this without ever
    /// rebuilding the global probability vector.
    pub(crate) fn entropy_after(&self, k: usize, lc: CandidateId, approved: bool) -> f64 {
        entropy_after_local(&self.shards[k], lc, approved)
    }
}

/// The lane ladder of [`ShardSet::commit_lane`], over *shard-local*
/// candidate ids — the kernel shared with the remote
/// [`ShardHost`](crate::remote::ShardHost), whose lanes arrive already
/// localized.
pub(crate) fn commit_lane_local(
    base: &ShardSnapshot,
    events: &[Assertion],
) -> (Option<ShardSnapshot>, Vec<(bool, StepOutcome, bool)>) {
    let mut work: Option<ShardSnapshot> = None;
    let mut results = Vec::with_capacity(events.len());
    for event in events {
        let lc = event.candidate;
        // lane-local mirror of `ProbabilisticNetwork::validate_assertion`:
        // Some(would_mutate) for an acceptable verdict, None for a
        // rejected one (contradiction or inconsistent approval)
        let step = |snap: &ShardSnapshot, approved: bool| -> Option<bool> {
            if snap.feedback.is_asserted(lc) {
                let prev = snap.feedback.approved().contains(lc);
                return if prev == approved { Some(false) } else { None };
            }
            if approved && !snap.index.can_add(snap.feedback.approved(), lc) {
                return None;
            }
            Some(true)
        };
        let snap = work.as_ref().unwrap_or(base);
        let (approved, outcome, mutates) = match step(snap, event.approved) {
            Some(m) => (event.approved, StepOutcome::Integrated, m),
            None => match step(snap, false) {
                Some(m) => (false, StepOutcome::Flipped, m),
                None => (event.approved, StepOutcome::Skipped, false),
            },
        };
        if mutates {
            let target = work.get_or_insert_with(|| ShardSnapshot::clone(base));
            let ShardSnapshot { index, feedback, store } = target;
            feedback.assert(Assertion { candidate: lc, approved });
            store.maintain_with_index(index, feedback, lc, approved);
        }
        results.push((approved, outcome, mutates));
    }
    (work, results)
}

/// The hypothetical-integration kernel of [`ShardSet::entropy_after`],
/// over a bare snapshot — shared with the remote shard host.
pub(crate) fn entropy_after_local(base: &ShardSnapshot, lc: CandidateId, approved: bool) -> f64 {
    let mut snap = ShardSnapshot::clone(base);
    let ShardSnapshot { index, feedback, store } = &mut snap;
    feedback.assert(Assertion { candidate: lc, approved });
    store.maintain_with_index(index, feedback, lc, approved);
    snapshot_entropy(&snap)
}

/// One shard's Eq. 2 probabilities in *local* id order — the wire shape a
/// shard server reports, scattered into the global vector by the
/// coordinator.
pub(crate) fn snapshot_probabilities(snap: &ShardSnapshot) -> Vec<f64> {
    (0..snap.index.candidate_count())
        .map(|j| snap.probability(CandidateId::from_index(j)))
        .collect()
}

/// Merged-shard inputs for a network extension: the union feedback and the
/// carried-over cross-combined samples of the `absorbed` source shards
/// (each `(pre-merge member list, feedback, store)`, ascending by old
/// component index). `components` is the *post-evolution* partition and
/// `sub` the merged component's restricted index; `arrival` is the global
/// id of the candidate whose arrival merged them. Shared verbatim between
/// [`ShardSet::extend`] and the remote shard host's migration rebuild, so
/// a distributed merge is bit-identical to the single-process one.
pub(crate) fn merged_inputs(
    components: &Components,
    sub: &ConflictIndex,
    arrival: CandidateId,
    absorbed: &[(&[CandidateId], &Feedback, &SampleStore)],
    sampler: SamplerConfig,
    sharding: &ShardingConfig,
) -> (Feedback, Vec<BitSet>) {
    let m = sub.candidate_count();
    let local = |g: CandidateId| CandidateId::from_index(components.local_index(g));
    // merged local feedback: every absorbed shard's assertions remapped
    // old-local → global → merged-local (the arrival is unasserted, and
    // approvals of different components never conflict)
    let mut feedback = Feedback::new(m);
    for (members, source, _) in absorbed {
        for lc in source.approved().iter() {
            feedback.approve(local(members[lc.index()]));
        }
        for lc in source.disapproved().iter() {
            feedback.disapprove(local(members[lc.index()]));
        }
    }
    // sampled merges carry over cross-combined old samples: each
    // combination is maximal over the union of the old components, so
    // with the arrival inserted when addable (kept otherwise) it is a
    // matching instance of the merged component; the sampler refills
    // on top of them instead of restarting cold
    let carried = if m > sharding.exact_threshold {
        let cap = sampler.n_samples.max(sampler.n_min).max(1);
        let mut combos: Vec<BitSet> = vec![BitSet::new(m)];
        for (members, _, store) in absorbed {
            let mut next = Vec::new();
            'cross: for combo in &combos {
                for s in store.samples() {
                    let mut merged = combo.clone();
                    for lc in s.iter() {
                        merged.insert(local(members[lc.index()]));
                    }
                    next.push(merged);
                    if next.len() >= cap {
                        break 'cross;
                    }
                }
            }
            combos = next;
        }
        let lc_new = local(arrival);
        for inst in &mut combos {
            if sub.can_add(inst, lc_new) {
                inst.insert(lc_new);
            }
        }
        combos
    } else {
        Vec::new()
    };
    (feedback, carried)
}

/// One split part's inputs for a retirement: the restricted feedback and
/// the carried-over (restricted, deterministically re-maximized) samples
/// of the dissolved shard. `components` is the *post-retirement*
/// partition, `sub` the part's restricted index, `old_comp` the dissolved
/// component's OLD global ids (ascending, still containing the retiree)
/// and `old_feedback`/`old_store` the dissolved shard's state. Shared
/// verbatim between [`ShardSet::retire`] and the remote shard host.
#[allow(clippy::too_many_arguments)]
pub(crate) fn split_inputs(
    components: &Components,
    part_k: usize,
    sub: &ConflictIndex,
    old_comp: &[CandidateId],
    old_feedback: &Feedback,
    old_store: &SampleStore,
    retired: CandidateId,
    sharding: &ShardingConfig,
) -> (Feedback, Vec<BitSet>) {
    let m = sub.candidate_count();
    let part_members = components.members(part_k); // NEW global ids
                                                   // OLD-local id of an OLD global id within the dissolved shard
    let old_local = |g: CandidateId| {
        CandidateId::from_index(old_comp.binary_search(&g).expect("member of the old shard"))
    };
    // NEW global id → OLD global id (undo the retirement compaction)
    let unshift = |g: CandidateId| if g >= retired { CandidateId(g.0 + 1) } else { g };
    let mut feedback = Feedback::new(m);
    for (j, &g) in part_members.iter().enumerate() {
        let ol = old_local(unshift(g));
        let lc = CandidateId::from_index(j);
        if old_feedback.approved().contains(ol) {
            feedback.approve(lc);
        } else if old_feedback.disapproved().contains(ol) {
            feedback.disapprove(lc);
        }
    }
    // sampled parts carry over the old samples, restricted to the
    // part and greedily re-maximized: retirement can unblock
    // candidates that conflicted only with the departed one
    let carried = if m > sharding.exact_threshold {
        old_store
            .samples()
            .iter()
            .map(|s| {
                let mut inst = BitSet::new(m);
                for (j, &g) in part_members.iter().enumerate() {
                    if s.contains(old_local(unshift(g))) {
                        inst.insert(CandidateId::from_index(j));
                    }
                }
                complete_greedily(sub, &feedback, &mut inst);
                inst
            })
            .collect()
    } else {
        Vec::new()
    };
    (feedback, carried)
}

/// Entropy of one shard snapshot: `Σ H(p)` over its local Eq. 2
/// probabilities.
pub(crate) fn snapshot_entropy(snap: &ShardSnapshot) -> f64 {
    (0..snap.index.candidate_count())
        .map(|j| binary_entropy(snap.probability(CandidateId::from_index(j))))
        .sum()
}

/// Builds one shard: exact enumeration for small components, the
/// Algorithm 3 sampler otherwise; seeded `seed + shard_id` either way.
pub(crate) fn build_shard(
    k: usize,
    sub: Arc<ConflictIndex>,
    sampler: SamplerConfig,
    sharding: &ShardingConfig,
) -> ShardSnapshot {
    let feedback = Feedback::new(sub.candidate_count());
    build_evolved_shard(k, sub, feedback, Vec::new(), sampler, sharding)
}

/// The general shard builder behind both the initial
/// [`ShardSet::build`] and the evolution paths: exact enumeration (under
/// the given feedback) for small components, the Algorithm 3 sampler
/// seeded with any `carried`-over instances otherwise; shard `k` is
/// seeded `seed + k` either way.
pub(crate) fn build_evolved_shard(
    k: usize,
    sub: Arc<ConflictIndex>,
    feedback: Feedback,
    carried: Vec<BitSet>,
    sampler: SamplerConfig,
    sharding: &ShardingConfig,
) -> ShardSnapshot {
    let m = sub.candidate_count();
    let config = SamplerConfig { seed: sampler.seed.wrapping_add(k as u64), ..sampler };
    let exact_attempt = if m <= sharding.exact_threshold {
        exact::enumerate_with_index(&sub, &feedback, sharding.exact_cap)
    } else {
        None
    };
    let store = match exact_attempt {
        Some(instances) => SampleStore::from_instances(m, instances, config),
        None => SampleStore::with_carried(&sub, &feedback, config, carried),
    };
    ShardSnapshot { index: sub, feedback, store }
}

/// Extends `inst` to a maximal consistent instance by scanning candidates
/// in ascending id order — the deterministic (RNG-free) re-maximization
/// used on carried-over samples after a retirement.
pub(crate) fn complete_greedily(index: &ConflictIndex, feedback: &Feedback, inst: &mut BitSet) {
    for j in 0..index.candidate_count() {
        let c = CandidateId::from_index(j);
        if !inst.contains(c) && !feedback.disapproved().contains(c) && index.can_add(inst, c) {
            inst.insert(c);
        }
    }
}

/// Builds the listed `(shard id, sub-index)` blocks, one task per shard
/// across the persistent work-stealing pool when that pays: at least one
/// shard must be *sampled* (all-exact builds are microseconds of
/// enumeration and run faster sequentially than any cross-thread
/// handoff), there must be more than one shard, and the pool must have
/// more than one thread. Each store depends only on its own sub-index and
/// seed, and [`pool::WorkerPool::run`] returns results in submission
/// order, so the result is identical to the sequential build regardless
/// of scheduling.
pub(crate) fn build_shards(
    subs: Vec<(usize, Arc<ConflictIndex>)>,
    sampler: SamplerConfig,
    sharding: &ShardingConfig,
) -> Vec<Arc<ShardSnapshot>> {
    let any_sampled = subs.iter().any(|(_, sub)| sub.candidate_count() > sharding.exact_threshold);
    if !(any_sampled && subs.len() > 1 && pool::global().threads() > 1) {
        return subs
            .into_iter()
            .map(|(k, sub)| Arc::new(build_shard(k, sub, sampler, sharding)))
            .collect();
    }
    let tasks: Vec<pool::Task<'_, Arc<ShardSnapshot>>> = subs
        .into_iter()
        .map(|(k, sub)| {
            Box::new(move || Arc::new(build_shard(k, sub, sampler, sharding)))
                as pool::Task<'_, Arc<ShardSnapshot>>
        })
        .collect();
    pool::global().run(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1_network, perturbed_network};

    fn sampler() -> SamplerConfig {
        SamplerConfig { anneal: true, n_samples: 200, walk_steps: 3, n_min: 50, seed: 5, chains: 1 }
    }

    #[test]
    fn fig1_is_a_single_exact_shard() {
        let net = fig1_network();
        let set = ShardSet::build(net.index(), sampler(), &ShardingConfig::default());
        assert_eq!(set.shards.len(), 1, "fig1's conflict graph is connected");
        assert!(set.is_exhausted(), "5 candidates ≤ exact threshold");
        assert_eq!(set.distinct_samples(), 4, "all four maximal instances");
        let mut probs = vec![0.0; 5];
        set.write_all_probabilities(&mut probs);
        for p in probs {
            assert!((p - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_threshold_zero_samples_every_shard() {
        let net = fig1_network();
        let cfg = ShardingConfig { exact_threshold: 0, ..Default::default() };
        let set = ShardSet::build(net.index(), sampler(), &cfg);
        // the sampler still exhausts the tiny space, by refill detection
        assert!(set.is_exhausted());
        assert_eq!(set.distinct_samples(), 4);
    }

    #[test]
    fn parallel_and_sequential_builds_agree() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 9);
        let set = ShardSet::build(net.index(), sampler(), &ShardingConfig::default());
        let sharding = ShardingConfig::default();
        let seq: Vec<ShardSnapshot> = net
            .index()
            .shard(&set.components)
            .into_iter()
            .enumerate()
            .map(|(k, sub)| build_shard(k, sub, sampler(), &sharding))
            .collect();
        assert_eq!(set.shards.len(), seq.len());
        for (a, b) in set.shards.iter().zip(&seq) {
            assert_eq!(a.store.samples(), b.store.samples(), "fills must not depend on scheduling");
        }
    }

    #[test]
    fn whole_partition_is_one_block_over_the_shared_index() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 9);
        let n = net.candidate_count();
        let index = Arc::new(net.index().clone());
        let feedback = Feedback::new(n);
        let store = SampleStore::with_index(&index, &feedback, sampler());
        let set = ShardSet::whole(index.clone(), feedback, store);
        assert_eq!(set.shards.len(), 1);
        assert!(Arc::ptr_eq(&set.shards[0].index, &index), "the block shares the index");
        for c in (0..n).map(CandidateId::from_index) {
            assert_eq!(set.locate(c), (0, c), "local ids are global ids");
        }
    }

    #[test]
    fn commit_lane_matches_sequential_assertions() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 13);
        let n = net.candidate_count();
        let set = ShardSet::build(net.index(), sampler(), &ShardingConfig::default());
        let target = CandidateId::from_index(0);
        let (k, _) = set.locate(target);
        let members: Vec<CandidateId> = set.components.members(k).to_vec();
        let events: Vec<Assertion> = members
            .iter()
            .take(3)
            .enumerate()
            .map(|(i, &c)| Assertion { candidate: c, approved: i % 2 == 0 })
            .collect();
        // reference: the same ladder, one `assert` at a time
        let mut seq = set.clone();
        let mut seq_probs = vec![0.0; n];
        seq.write_all_probabilities(&mut seq_probs);
        for e in &events {
            let (_, lc) = seq.locate(e.candidate);
            let decision = {
                let shard = &seq.shards[k];
                let step = |approved: bool| -> Option<bool> {
                    if shard.feedback.is_asserted(lc) {
                        let prev = shard.feedback.approved().contains(lc);
                        if prev == approved {
                            Some(false)
                        } else {
                            None
                        }
                    } else if approved && !shard.index.can_add(shard.feedback.approved(), lc) {
                        None
                    } else {
                        Some(true)
                    }
                };
                match step(e.approved) {
                    Some(m) => Some((e.approved, m)),
                    None => step(false).map(|m| (false, m)),
                }
            };
            if let Some((approved, true)) = decision {
                seq.assert(e.candidate, approved, &mut seq_probs);
            }
        }
        // lane: one batch
        let mut lane = set.clone();
        let (snap, results) = lane.commit_lane(k, &events);
        let mut lane_probs = vec![0.0; n];
        if let Some(s) = snap {
            lane.shards[k] = Arc::new(s);
        }
        lane.write_all_probabilities(&mut lane_probs);
        assert_eq!(results.len(), events.len());
        assert_eq!(lane_probs, seq_probs, "lane commit diverged from sequential asserts");
        assert_eq!(lane.shards[k].store.samples(), seq.shards[k].store.samples());
    }

    #[test]
    fn redundant_lane_never_clones_the_shard() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 13);
        let n = net.candidate_count();
        let mut set = ShardSet::build(net.index(), sampler(), &ShardingConfig::default());
        let target = CandidateId::from_index(0);
        let (k, _) = set.locate(target);
        let mut probs = vec![0.0; n];
        set.write_all_probabilities(&mut probs);
        set.assert(target, false, &mut probs);
        let before = Arc::as_ptr(&set.shards[k]);
        // a lane of same-way re-assertions and contradiction-skips must not
        // copy-on-write the shard at all
        let events = vec![
            Assertion { candidate: target, approved: false }, // same-way no-op
            Assertion { candidate: target, approved: true },  // contradiction → fallback no-op
        ];
        let (snap, results) = set.commit_lane(k, &events);
        assert!(snap.is_none(), "redundant lane allocated a working snapshot");
        assert_eq!(results[0], (false, StepOutcome::Integrated, false));
        assert_eq!(results[1], (false, StepOutcome::Flipped, false));
        assert_eq!(Arc::as_ptr(&set.shards[k]), before, "shard pointer must be untouched");
    }

    #[test]
    fn assertion_touches_only_the_owning_shard() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 13);
        let n = net.candidate_count();
        let mut set = ShardSet::build(net.index(), sampler(), &ShardingConfig::default());
        if set.shards.len() < 2 {
            return; // degenerate draw: nothing cross-shard to observe
        }
        let mut probs = vec![0.0; n];
        set.write_all_probabilities(&mut probs);
        let before: Vec<Vec<_>> = set.shards.iter().map(|s| s.store.samples().to_vec()).collect();
        let target = CandidateId::from_index(0);
        let (k, _) = set.locate(target);
        set.assert(target, false, &mut probs);
        for (i, shard) in set.shards.iter().enumerate() {
            if i != k {
                assert_eq!(shard.store.samples(), &before[i][..], "foreign shard touched");
            }
        }
        assert_eq!(probs[0], 0.0);
    }
}
