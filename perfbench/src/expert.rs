//! `paper-expert`: the paper's Algorithm 1 as [`Session`] runs it.
//!
//! One simulated expert answers from ground truth in a closed loop on one
//! thread (`next_question`, `answer`, repeat) until every candidate of a
//! network is reconciled. A repetition reconciles a batch of
//! Business-Partner-shaped networks; a single network is about 0.05 s of
//! work, far too little to time on its own. `SessionConfig::default()`
//! (seeds derived from the workload seed) means the monolithic
//! 1000-sample store and cached information-gain selection, so the
//! sampler and gain selection do nearly all the work, and sharding,
//! serving, storage and dist do none.

use crate::inputs::{business_partner, derive, Case};
use crate::rep::{self, Rep};
use crate::report::{mean, Outcome};
use crate::{host, sys, trace, Opts};
use smn_core::{SamplerConfig, Session, SessionConfig};
use smn_schema::Correspondence;
use std::collections::HashSet;
use std::time::Instant;

/// Per-layer metrics this workload measures.
pub const LAYER_METRICS: [&str; 9] = [
    "core.fill_ms_p50",
    "core.refill_share",
    "core.assert_refill_us_p50",
    "core.assert_maintain_us_p50",
    "core.select_us_p50",
    "core.select_us_p99",
    "core.pool_mean",
    "core.assert_us_p50",
    "core.assert_us_p99",
];

const STREAM_NETWORK: u64 = 1;
const STREAM_SAMPLER: u64 = 2;
const STREAM_STRATEGY: u64 = 3;

/// Input size of a run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Attribute range of the three schemas of each network.
    pub attrs: (usize, usize),
    /// Networks reconciled per repetition.
    pub networks: usize,
    /// Fewest repetitions a run makes.
    pub min_reps: usize,
}

/// The benchmark's size: the Business Partner preset's 80–106 attributes,
/// 32 networks (about 4.6k answers) per repetition.
pub const FULL: Scale = Scale { attrs: (80, 106), networks: 32, min_reps: 3 };

/// What the traced repetitions measured beyond a [`Rep`].
#[derive(Debug, Default)]
struct Layers {
    fill_ms: Vec<f64>,
    select_us: Vec<f64>,
    assert_us: Vec<f64>,
    /// Per answer: whether it refilled the sample store.
    refilled: Vec<bool>,
    /// Uncertain candidates before each question.
    pool: Vec<f64>,
}

fn config(seed: u64, index: usize) -> SessionConfig {
    let i = index as u64;
    SessionConfig {
        sampler: SamplerConfig {
            seed: derive(seed, STREAM_SAMPLER, i),
            ..SamplerConfig::default()
        },
        strategy_seed: derive(seed, STREAM_STRATEGY, i),
        ..SessionConfig::default()
    }
}

/// The networks of a run.
pub fn cases(seed: u64, scale: Scale) -> Vec<Case> {
    (0..scale.networks)
        .map(|i| business_partner(derive(seed, STREAM_NETWORK, i as u64), scale.attrs))
        .collect()
}

/// Entropy AUC, precision and recall averaged over networks.
pub fn mean_quality(quality: &[(f64, f64, f64)]) -> (f64, f64, f64) {
    let avg = |f: fn(&(f64, f64, f64)) -> f64| mean(&quality.iter().map(f).collect::<Vec<_>>());
    (avg(|q| q.0), avg(|q| q.1), avg(|q| q.2))
}

/// Area under a normalized-entropy-over-effort curve (trapezoids).
pub fn auc(curve: &[(f64, f64)]) -> f64 {
    curve.windows(2).map(|w| (w[1].0 - w[0].0) * (w[0].1 + w[1].1) / 2.0).sum()
}

/// Reconciles one network to completion. Returns its quality and the
/// asked-candidate digest.
fn reconcile(
    case: &Case,
    cfg: SessionConfig,
    net: usize,
    rep: &mut Rep,
    layers: &mut Layers,
) -> ((f64, f64, f64), u64) {
    let traced = trace::on();
    let truth: HashSet<Correspondence> = case.truth.iter().copied().collect();
    let _root = trace::enter("bench.network");
    trace::set_request(net, 0);
    let start = Instant::now();
    let mut session = {
        let _s = trace::enter("session.new");
        Session::new(case.network.clone(), cfg)
    };
    let setup = start.elapsed().as_secs_f64();
    rep.setup_s += setup;
    if traced {
        layers.fill_ms.push(setup * 1e3);
    }

    let mut errors = Vec::new();
    let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
    let mut curve = vec![(0.0, 1.0)];
    for op in 1.. {
        trace::set_request(net, op);
        if traced {
            let probs = session.network().probabilities();
            layers.pool.push(probs.iter().filter(|&&p| p > 0.0 && p < 1.0).count() as f64);
        }
        let t0 = Instant::now();
        let question = {
            let _s = trace::enter("session.next_question");
            session.next_question()
        };
        let t1 = Instant::now();
        rep.drive_s += (t1 - t0).as_secs_f64();
        let Some(q) = question else { break };
        let samples_before = if traced { session.network().distinct_sample_count() } else { 0 };
        let t1 = Instant::now();
        let result = {
            let _s = trace::enter("session.answer");
            session.answer(q.candidate, truth.contains(&q.correspondence))
        };
        let t2 = Instant::now();
        rep.drive_s += (t2 - t1).as_secs_f64();
        let (select_us, assert_us) = ((t1 - t0).as_secs_f64() * 1e6, (t2 - t1).as_secs_f64() * 1e6);
        rep.question_us.push(select_us);
        rep.answer_us.push(assert_us);
        rep.commit_us.push((t2 - t0).as_secs_f64() * 1e6);
        if traced {
            layers.select_us.push(select_us);
            layers.assert_us.push(assert_us);
            layers.refilled.push(session.network().distinct_sample_count() > samples_before);
        }
        rep.answers += 1;
        if let Err(e) = result {
            errors.push(format!("answer {}: {e:?}", q.candidate.0));
        }
        digest = (digest ^ u64::from(q.candidate.0)).wrapping_mul(0x0100_0000_01B3);
        curve.push((session.effort(), session.network().normalized_entropy()));
    }
    rep.check(errors.is_empty(), || format!("network {net}: {}", errors.join("; ")));
    let pn = session.network();
    let n = pn.network().candidate_count();
    let majority = smn_constraints::BitSet::from_ids(
        n,
        (0..n).map(smn_schema::CandidateId::from_index).filter(|&c| pn.probability(c) > 0.5),
    );
    let pr = smn_core::PrecisionRecall::of_instance(pn.network(), &majority, truth);
    ((auc(&curve), pr.precision, pr.recall), digest)
}

/// One repetition: every network of the run, reconciled to completion.
fn unit(cases: &[Case], seed: u64, layers: &mut Layers) -> Rep {
    let mut rep = Rep::default();
    let mut quality = Vec::with_capacity(cases.len());
    let mut digests = Vec::with_capacity(cases.len());
    let ((), around) = host::bracket(|| {
        for (i, case) in cases.iter().enumerate() {
            let (q, digest) = reconcile(case, config(seed, i), i, &mut rep, layers);
            quality.push(q);
            digests.push(format!("{digest:016x}"));
        }
    });
    rep.bracketed(around);
    rep.quality = mean_quality(&quality);
    rep.fingerprint = format!("{} {:?}", digests.join(","), rep.quality);
    rep.seal();
    rep
}

/// Runs the workload at `scale`.
pub fn run_scaled(opts: &Opts, ctx: &str, scale: Scale) -> Outcome {
    let cases = cases(opts.seed, scale);
    let mut out = Outcome::default();
    // the untimed warm-up pass (see `rep`)
    unit(&cases, opts.seed, &mut Layers::default());
    let cpu0 = sys::cpu_seconds(None).unwrap_or(0.0);
    let plain = rep::repeat(opts.budget(), scale.min_reps, |_| {
        unit(&cases, opts.seed, &mut Layers::default())
    });
    let cpu = sys::cpu_seconds(None).unwrap_or(0.0) - cpu0;
    rep::end_to_end(&plain, &mut out);
    if !opts.trace {
        if let Some(mib) = rep::peak_rss_mib(&plain) {
            out.metric("peak_rss_mb", mib, "MiB");
        }
        return out;
    }
    let mut layers = Layers::default();
    trace::start();
    let traced = rep::repeat(opts.budget(), 1, |_| unit(&cases, opts.seed, &mut layers));
    let spans = trace::stop();
    out.percentiles("core.fill", &layers.fill_ms, &[("core.fill_ms_p50", 0.5)], "ms");
    let refills = layers.refilled.iter().filter(|&&r| r).count();
    out.metric("core.refill_share", refills as f64 / layers.refilled.len().max(1) as f64, "ratio");
    let split = |want: bool| -> Vec<f64> {
        layers
            .assert_us
            .iter()
            .zip(&layers.refilled)
            .filter(|&(_, &r)| r == want)
            .map(|(&a, _)| a)
            .collect()
    };
    out.percentiles(
        "core.assert_refill",
        &split(true),
        &[("core.assert_refill_us_p50", 0.5)],
        "us",
    );
    out.percentiles(
        "core.assert_maintain",
        &split(false),
        &[("core.assert_maintain_us_p50", 0.5)],
        "us",
    );
    out.percentiles(
        "core.select",
        &layers.select_us,
        &[("core.select_us_p50", 0.5), ("core.select_us_p99", 0.99)],
        "us",
    );
    out.metric("core.pool_mean", mean(&layers.pool), "count");
    out.percentiles(
        "core.assert",
        &layers.assert_us,
        &[("core.assert_us_p50", 0.5), ("core.assert_us_p99", 0.99)],
        "us",
    );
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
    fn a_tiny_expert_run_passes_its_checks_in_both_modes() {
        let _serial = crate::tests::serial();
        let scale = Scale { attrs: (10, 14), networks: 3, min_reps: 2 };
        for trace in [false, true] {
            let opts = Opts { workload: "paper-expert".into(), seed: 4, seconds: 0.0, trace };
            let out = run_scaled(&opts, "{}", scale);
            assert_eq!(out.failed, out.refused, "{:?}", out.failures);
            assert!(out.value("answers_per_s").unwrap() > 0.0);
            if trace {
                assert!(out.value("core.pool_mean").unwrap() > 0.0);
                assert!(out.value("trace.unaccounted_share").unwrap() < 0.1);
            } else {
                let auc = out.value("entropy_auc").unwrap();
                assert!(auc > 0.0 && auc < 1.0, "entropy AUC {auc}");
                assert_eq!(out.value("final_precision"), Some(1.0), "a truthful expert");
            }
        }
    }
}
