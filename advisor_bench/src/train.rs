//! The training step, run as a child process so its peak resident
//! memory is its own.
//!
//! Untraced, it times `StencilMart::train` plus `save` from config to
//! bundle on disk, then checks that `Predictor::from_mart` on the
//! trained instance and `Predictor::load` on the saved file answer
//! identically. Traced, it calls the pipeline's steps one at a time
//! inside spans and saves that bundle; the run compares it with an
//! untraced child's bundle ([`same_models`]).

use crate::report::Metric;
use crate::trace::{self, Span};
use crate::workload::{self, Workload};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;
use stencilmart::api::{Predictor, StencilMart};
use stencilmart::bundle::{BundleProvenance, ModelBundle};
use stencilmart::dataset::{ClassificationDataset, ProfiledCorpus, RegressionDataset};
use stencilmart::models::{
    classifier_train_config, gbdt_classifier_config, gbdt_regressor_config, regressor_train_config,
    ClassifierKind, MlpShape, RegressorKind, TrainedClassifier, TrainedRegressor,
};
use stencilmart::shard::dedup_plan;
use stencilmart_gpusim::{profile_corpus_tasks, GpuArch, GpuId, OptCombo, ParamSetting};
use stencilmart_stencil::generator::StencilGenerator;
use stencilmart_stencil::pattern::StencilPattern;

/// What a training child reports, as one JSON line on its stdout.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChildReport {
    /// Wall seconds from config to bundle on disk.
    pub train_s: f64,
    /// Peak resident memory of the child, MB.
    pub train_rss_mb: f64,
    /// Answers compared between `from_mart` and `load` (untraced).
    pub from_mart_answers: u64,
    /// Per-layer metrics of the staged pipeline (traced).
    pub per_layer: Vec<Metric>,
    /// Spans recorded in the child (traced).
    pub spans: Vec<Span>,
    /// Failed checks.
    pub problems: Vec<String>,
}

/// Entry point of `advisor_bench train --workload W --seed N --bundle
/// PATH --trace 0|1 [--small]`. Prints one JSON line.
pub fn child_main(args: &[String]) -> i32 {
    match run(args) {
        Ok(report) => {
            println!("{}", serde_json::to_string(&report).expect("JSON renders"));
            0
        }
        Err(e) => {
            eprintln!("advisor_bench train: {e}");
            1
        }
    }
}

fn run(args: &[String]) -> Result<ChildReport, String> {
    let opts = crate::Args::parse(args)?;
    let w = workload::workload(&opts.workload, opts.small)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let bundle = opts.bundle.ok_or("train needs --bundle")?;
    let path = Path::new(&bundle);
    let mut report = ChildReport::default();
    let t0 = Instant::now();
    if opts.trace {
        trace::enable();
        report.per_layer = staged(&w, path)?;
        report.train_s = t0.elapsed().as_secs_f64();
        report.spans = trace::spans();
    } else {
        let mut mart = StencilMart::train(w.cfg.clone(), w.dim, w.classifier, w.regressor);
        mart.save(path, "advisor_bench")
            .map_err(|e| e.to_string())?;
        report.train_s = t0.elapsed().as_secs_f64();
        let held = w.heldout_patterns(opts.seed, w.heldout)?;
        report.from_mart_answers =
            compare_from_mart_and_load(&w, mart, path, &held, &mut report.problems)? as u64;
    }
    report.train_rss_mb = crate::host::status_bytes("self", "VmHWM")? as f64 / 1048576.0;
    Ok(report)
}

/// Ask the in-memory and the reloaded predictor the same questions:
/// best OC for every held-out stencil on every GPU, and the time of
/// every fifth OC on every GPU. Returns the number of answers compared;
/// each disagreement is added to `problems`.
fn compare_from_mart_and_load(
    w: &Workload,
    mart: StencilMart,
    path: &Path,
    held: &[StencilPattern],
    problems: &mut Vec<String>,
) -> Result<usize, String> {
    let mut mem = Predictor::from_mart(mart);
    let mut disk = Predictor::load(path).map_err(|e| format!("reloading the bundle: {e}"))?;
    let mut compared = 0;
    for gpu in GpuId::ALL {
        let a = mem.best_oc_batch(held, gpu);
        let b = disk.best_oc_batch(held, gpu);
        for (x, y) in a.iter().zip(&b) {
            compared += 1;
            if !matches!((x, y), (Ok(x), Ok(y)) if x == y) {
                problems.push(format!(
                    "best_oc on {gpu}: in-memory {x:?} but from disk {y:?}"
                ));
            }
        }
        for oc in OptCombo::enumerate().iter().step_by(5) {
            let params = ParamSetting::default_for_dim(oc, w.dim);
            let a = mem.predict_time_batch(held, oc, &params, gpu);
            let b = disk.predict_time_batch(held, oc, &params, gpu);
            for (x, y) in a.iter().zip(&b) {
                compared += 1;
                if !matches!((x, y), (Ok(x), Ok(y)) if x.to_bits() == y.to_bits()) {
                    problems.push(format!(
                        "predict_time {} on {gpu}: in-memory {x:?} but from disk {y:?}",
                        oc.name()
                    ));
                }
            }
        }
    }
    Ok(compared)
}

/// Work counts of one staged training, for the rate metrics.
#[derive(Debug, Clone, Default)]
struct Counts {
    classifier_rows: usize,
    regressor_rows: usize,
    instances: usize,
}

/// The pipeline one public step at a time, each inside a span, as
/// `StencilMart::train` and `ProfiledCorpus::build` call them; saves
/// the bundle to `path` and returns the per-layer metrics.
fn staged(w: &Workload, path: &Path) -> Result<Vec<Metric>, String> {
    let cfg = &w.cfg;
    let dim = w.dim;
    let mut counts = Counts::default();
    let bundle = trace::span("train", || -> Result<ModelBundle, String> {
        let patterns = trace::span("stencil.generate", || {
            StencilGenerator::new(cfg.seed ^ dim.rank() as u64).generate_corpus(
                dim,
                cfg.max_order,
                cfg.stencils_per_dim,
            )
        });
        let grid = cfg.grid_for(dim);
        let archs: Vec<GpuArch> = cfg.gpus.iter().map(|&g| GpuArch::preset(g)).collect();
        let per_gpu = trace::span("gpusim.profile", || {
            let plan = dedup_plan(&patterns);
            let unique: Vec<&StencilPattern> = plan.unique.iter().map(|&i| &patterns[i]).collect();
            let seeds: Vec<u64> = plan.unique.iter().map(|&i| i as u64).collect();
            let prof = profile_corpus_tasks(&unique, &seeds, grid, &archs, &cfg.profile_config());
            if unique.len() == patterns.len() {
                return prof; // no duplicates: already corpus-aligned
            }
            prof.into_iter()
                .map(|p| plan.slot_of.iter().map(|&s| p[s].clone()).collect())
                .collect::<Vec<_>>()
        });
        counts.instances = per_gpu
            .iter()
            .flatten()
            .flat_map(|p| p.per_oc.iter())
            .map(|o| o.instances.len() + o.crashes.len())
            .sum();
        let corpus = ProfiledCorpus {
            dim,
            grid,
            patterns,
            profiles: cfg.gpus.iter().copied().zip(per_gpu).collect(),
        };
        let merging = trace::span("pcc.merge", || corpus.derive_merging(cfg.oc_classes));
        let mut classifiers = Vec::new();
        for &gpu in &cfg.gpus {
            let ds = trace::span("dataset.build", || {
                ClassificationDataset::build(&corpus, &merging, gpu)
            });
            let all: Vec<usize> = (0..ds.len()).collect();
            let mut model = trace::span("models.classifier_fit", || {
                TrainedClassifier::train(
                    w.classifier,
                    dim,
                    ds.classes,
                    &ds.features,
                    &ds.tensors,
                    &ds.labels,
                    &all,
                    cfg.seed,
                )
            });
            classifiers.push((gpu, model.to_state()));
            counts.classifier_rows += ds.len();
        }
        let rds = trace::span("dataset.build", || RegressionDataset::build(&corpus, cfg));
        let all: Vec<usize> = (0..rds.len()).collect();
        let mut regressor = trace::span("models.regressor_fit", || {
            TrainedRegressor::train(
                w.regressor,
                dim,
                MlpShape::default(),
                &rds.features,
                &rds.tensors,
                &rds.target_ln_ms,
                &all,
                cfg.seed,
            )
        });
        counts.regressor_rows = rds.len();
        let bundle = ModelBundle {
            provenance: BundleProvenance::capture("advisor_bench", cfg),
            cfg: cfg.clone(),
            dim,
            merging,
            classifiers,
            regressor: regressor.to_state(),
            regression_cols: rds.features.cols(),
        };
        trace::span("bundle.save", || bundle.save(path)).map_err(|e| e.to_string())?;
        Ok(bundle)
    })?;

    let secs = |name: &str| trace::total(name).0;
    let profile_s = secs("gpusim.profile");
    let class_fit = secs("models.classifier_fit");
    let reg_fit = secs("models.regressor_fit");
    let (mut nn_samples, mut nn_s, mut trees, mut gbdt_s) = (0.0, 0.0, 0.0, 0.0);
    if w.classifier == ClassifierKind::Gbdt {
        let boosters = bundle.merging.classes() * cfg.gpus.len();
        trees += (gbdt_classifier_config(cfg.seed).rounds * boosters) as f64;
        gbdt_s += class_fit;
    } else {
        nn_samples += (counts.classifier_rows * classifier_train_config(cfg.seed).epochs) as f64;
        nn_s += class_fit;
    }
    if w.regressor == RegressorKind::GbRegressor {
        trees += gbdt_regressor_config(cfg.seed).rounds as f64;
        gbdt_s += reg_fit;
    } else {
        nn_samples += (counts.regressor_rows * regressor_train_config(cfg.seed).epochs) as f64;
        nn_s += reg_fit;
    }
    // A layer the workload does not run reports 0.
    let rate = |n: f64, s: f64| if s > 0.0 { n / s } else { 0.0 };
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("bundle size: {e}"))?
        .len();
    Ok(vec![
        Metric::new("stencil.generate_s", "s", secs("stencil.generate")),
        Metric::new("gpusim.profile_s", "s", profile_s),
        Metric::new(
            "gpusim.instances_per_s",
            "1/s",
            rate(counts.instances as f64, profile_s),
        ),
        Metric::new("pcc.merge_s", "s", secs("pcc.merge")),
        Metric::new("dataset.build_s", "s", secs("dataset.build")),
        Metric::new("models.classifier_fit_s", "s", class_fit),
        Metric::new("models.regressor_fit_s", "s", reg_fit),
        Metric::new("nn.samples_per_s", "1/s", rate(nn_samples, nn_s)),
        Metric::new("gbdt.trees_per_s", "1/s", rate(trees, gbdt_s)),
        Metric::new("bundle.save_s", "s", secs("bundle.save")),
        Metric::new("bundle.bytes", "B", bytes as f64),
    ])
}

/// The staged pipeline and `StencilMart::train` must produce the same
/// merging and the same model weights (provenance aside).
pub fn same_models(staged: &ModelBundle, reference: &ModelBundle) -> Result<(), String> {
    fn render<T: serde::Serialize>(v: &T) -> String {
        serde_json::to_string(v).expect("bundle parts render")
    }
    let parts = [
        (
            "merging",
            render(&staged.merging),
            render(&reference.merging),
        ),
        (
            "classifiers",
            render(&staged.classifiers),
            render(&reference.classifiers),
        ),
        (
            "regressor",
            render(&staged.regressor),
            render(&reference.regressor),
        ),
        ("config", render(&staged.cfg), render(&reference.cfg)),
        (
            "regression columns",
            staged.regression_cols.to_string(),
            reference.regression_cols.to_string(),
        ),
    ];
    for (what, a, b) in parts {
        if a != b {
            return Err(format!(
                "the staged pipeline and StencilMart::train disagree on the {what}"
            ));
        }
    }
    Ok(())
}
