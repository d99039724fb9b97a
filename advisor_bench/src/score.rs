//! Held-out quality, computed here from raw predictions and raw
//! simulated times (not through the program's evaluators).
//!
//! * `oc_accuracy`: share of held-out (stencil, GPU) pairs whose
//!   predicted OC falls in the merged class of gpusim's best OC.
//! * `oc_perf_pct`: geometric mean over the same pairs of best time
//!   over all OCs ÷ best time of the predicted OC, ×100. A predicted OC
//!   that crashes on every sampled setting scores the slowest OC that
//!   ran, the cost of falling back to the worst working choice.
//! * `time_mape`: mean absolute percentage error of the predicted time
//!   against the simulated time, over the first sampled setting of every
//!   OC that ran, per held-out stencil and GPU.

use crate::trace;
use crate::workload::Workload;
use stencilmart::api::Predictor;
use stencilmart::dataset::ProfiledCorpus;
use stencilmart::pcc::OcMerging;
use stencilmart_gpusim::{profile_corpus_multi, GpuArch, GpuId, ProfileConfig, StencilProfile};
use stencilmart_stencil::pattern::StencilPattern;

/// Held-out quality of one bundle on one held-out set.
#[derive(Debug, Clone)]
pub struct Quality {
    /// Class accuracy, %.
    pub accuracy_pct: f64,
    /// Accuracy of always predicting the training set's most frequent
    /// class on each GPU, %.
    pub majority_pct: f64,
    /// Share of the oracle's performance reached, % (geometric mean).
    pub perf_pct: f64,
    /// Time MAPE, % (NaN when times were not scored).
    pub mape_pct: f64,
    /// Held-out (stencil, GPU) pairs attempted.
    pub pairs: usize,
    /// Held-out instances whose time was predicted.
    pub instances: usize,
    /// Pairs whose predicted OC crashed on every sampled setting.
    pub crashed_choices: usize,
}

/// Score `predictor` (whose merging is `merging`) on `count` held-out
/// stencils of `seed`; `majority[g]` is the training set's most
/// frequent class on `GpuId::ALL[g]`. Times are scored only when
/// `with_times`. A failed or non-positive prediction is an error.
pub fn score(
    w: &Workload,
    seed: u64,
    count: usize,
    predictor: &mut Predictor,
    merging: &OcMerging,
    majority: &[usize],
    with_times: bool,
) -> Result<Quality, String> {
    let held = w.heldout_patterns(seed, count)?;
    let archs: Vec<GpuArch> = GpuId::ALL.iter().map(|&g| GpuArch::preset(g)).collect();
    let pc = ProfileConfig {
        samples_per_oc: w.cfg.samples_per_oc,
        noise: w.cfg.noise,
        seed: w.heldout_profile_seed(seed),
    };
    let profiles = trace::span("score.profile_heldout", || {
        profile_corpus_multi(&held, w.cfg.grid_for(w.dim), &archs, &pc)
    });
    let mut q = Quality {
        accuracy_pct: 0.0,
        majority_pct: 0.0,
        perf_pct: 0.0,
        mape_pct: f64::NAN,
        pairs: held.len() * GpuId::ALL.len(),
        instances: 0,
        crashed_choices: 0,
    };
    let (mut scored, mut correct, mut majority_hits, mut log_perf) = (0, 0, 0, 0.0);
    let mut ape_sum = 0.0;
    for (gi, &gpu) in GpuId::ALL.iter().enumerate() {
        let predicted = trace::span("score.best_oc", || predictor.best_oc_batch(&held, gpu));
        for (si, pred) in predicted.into_iter().enumerate() {
            let pred = pred.map_err(|e| format!("held-out best_oc on {gpu}: {e}"))?;
            let profile = &profiles[gi][si];
            let Some(best) = profile.best_oc() else {
                continue; // no OC ran at all: nothing to score against
            };
            let best_ms = best.best().expect("a best OC has a best instance").time_ms;
            let truth = merging.class_of(best.oc.index());
            scored += 1;
            correct += usize::from(truth.is_some() && truth == merging.class_of(pred.index()));
            majority_hits += usize::from(truth == Some(majority[gi]));
            let pred_ms = profile.time_for(&pred).unwrap_or_else(|| {
                q.crashed_choices += 1;
                profile.worst_best_time_ms().expect("some OC ran")
            });
            log_perf += (best_ms / pred_ms).ln();
        }
        if with_times {
            let (n, sum) = trace::span("score.predict_time", || {
                time_errors(predictor, &held, &profiles[gi], gpu)
            })?;
            q.instances += n;
            ape_sum += sum;
        }
    }
    if scored == 0 || (with_times && q.instances == 0) {
        return Err("no held-out pair could be scored".to_string());
    }
    q.accuracy_pct = 100.0 * correct as f64 / scored as f64;
    q.majority_pct = 100.0 * majority_hits as f64 / scored as f64;
    q.perf_pct = 100.0 * (log_perf / scored as f64).exp();
    if with_times {
        q.mape_pct = 100.0 * ape_sum / q.instances as f64;
    }
    Ok(q)
}

/// Predict the time of the first sampled setting of every OC that ran;
/// returns the count and the sum of absolute relative errors.
fn time_errors(
    predictor: &mut Predictor,
    held: &[StencilPattern],
    profiles: &[StencilProfile],
    gpu: GpuId,
) -> Result<(usize, f64), String> {
    let (mut n, mut sum) = (0, 0.0);
    for (pattern, profile) in held.iter().zip(profiles) {
        for outcome in &profile.per_oc {
            let Some(inst) = outcome.instances.first() else {
                continue;
            };
            let t = match predictor.predict_time_ms(pattern, &outcome.oc, &inst.params, gpu) {
                Ok(t) if t.is_finite() && t > 0.0 => t,
                other => {
                    return Err(format!(
                        "held-out time for {} on {gpu} is {other:?}, not a finite positive time",
                        outcome.oc.name()
                    ))
                }
            };
            sum += (t - inst.time_ms).abs() / inst.time_ms;
            n += 1;
        }
    }
    Ok((n, sum))
}

/// The most frequent class of the training labels on each GPU of
/// `GpuId::ALL`, counted from the training corpus profiles.
pub fn majority_classes(w: &Workload, merging: &OcMerging) -> Result<Vec<usize>, String> {
    let corpus = ProfiledCorpus::build(&w.cfg, w.dim);
    GpuId::ALL
        .iter()
        .map(|&gpu| {
            let mut counts = vec![0usize; merging.classes()];
            for profile in corpus.profiles_for(gpu) {
                if let Some(class) = profile
                    .best_oc()
                    .and_then(|b| merging.class_of(b.oc.index()))
                {
                    counts[class] += 1;
                }
            }
            counts
                .iter()
                .enumerate()
                .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
                .map(|(i, _)| i)
                .ok_or_else(|| "the merging has no classes".to_string())
        })
        .collect()
}
