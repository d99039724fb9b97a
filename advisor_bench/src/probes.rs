//! Per-layer probes of the traced run: the stream's first requests
//! replayed in process, one public call per span, so each layer's cost
//! per request is measured where the work happens.

use crate::report::{median, Metric};
use crate::run::Served;
use crate::trace;
use crate::workload::{StreamReq, Workload};
use std::collections::HashSet;
use std::path::Path;
use stencilmart::api::Predictor;
use stencilmart::bundle::ModelBundle;
use stencilmart::models::{TrainedClassifier, TrainedRegressor};
use stencilmart::serve::engine::{Engine, EngineOptions};
use stencilmart::serve::{dispatch_batch, resolve_gpu, resolve_oc};
use stencilmart::wire::{encode_request, encode_response, FrameDecoder, Request};
use stencilmart_gpusim::{GpuArch, ParamSetting};
use stencilmart_ml::data::FeatureMatrix;
use stencilmart_stencil::canonical::canonical_key;
use stencilmart_stencil::features::{extract, FeatureConfig};
use stencilmart_stencil::tensor::BinaryTensor;

/// Bundle loads and predictor rebuilds timed per set-up layer.
const SETUP_REPEATS: usize = 5;

/// Mean microseconds per unit of the spans named `name`, `units` units
/// in all (0 when the workload has none).
fn us_per(name: &str, units: usize) -> f64 {
    if units == 0 {
        return 0.0;
    }
    trace::total(name).0 * 1e6 / units as f64
}

fn load(bundle: &Path) -> Result<Predictor, String> {
    Predictor::load(bundle).map_err(|e| format!("probe predictor: {e}"))
}

/// `bundle.load_s` and `api.from_bundle_s`: medians of repeated loads
/// and rebuilds.
pub fn setup_metrics(bundle: &Path) -> Result<Vec<Metric>, String> {
    for _ in 0..SETUP_REPEATS {
        let b = trace::span("bundle.load", || ModelBundle::load(bundle))
            .map_err(|e| format!("bundle load: {e}"))?;
        trace::span("api.from_bundle", || Predictor::from_bundle(b))
            .map_err(|e| format!("predictor rebuild: {e}"))?;
    }
    Ok(vec![
        Metric::new(
            "bundle.load_s",
            "s",
            median(&trace::durations("bundle.load")),
        ),
        Metric::new(
            "api.from_bundle_s",
            "s",
            median(&trace::durations("api.from_bundle")),
        ),
    ])
}

/// Every serving-side per-layer metric, from the stream's first
/// requests (`served.kept`).
pub fn serving_metrics(
    w: &Workload,
    bundle: &Path,
    served: &Served,
) -> Result<Vec<Metric>, String> {
    let kept = &served.kept;
    let n = kept.len();
    let reqs: Vec<Request> = kept.iter().map(|(r, _)| r.req.clone()).collect();
    let of_kind = |f: fn(&Request) -> bool| -> Vec<&StreamReq> {
        kept.iter().map(|(r, _)| r).filter(|r| f(&r.req)).collect()
    };
    let best: Vec<&StreamReq> = of_kind(|r| matches!(r, Request::BestOc { .. }));
    let times: Vec<&StreamReq> = of_kind(|r| matches!(r, Request::PredictTime { .. }));
    let ranks: Vec<&StreamReq> = of_kind(|r| matches!(r, Request::RankGpus { .. }));

    // Wire: decode every request frame, encode every daemon answer.
    let mut decoder = FrameDecoder::new();
    for (i, req) in reqs.iter().enumerate() {
        decoder.push(&encode_request(i as u64, req));
    }
    for _ in 0..n {
        trace::span("wire.decode", || decoder.next_frame())
            .map_err(|e| format!("decoding a request frame: {}", e.error))?
            .ok_or("a request frame went missing")?;
    }
    for (_, resp) in kept {
        trace::span("wire.encode", || encode_response(resp));
    }

    // Pattern identity and features.
    let mut distinct = Vec::new();
    let mut seen = HashSet::new();
    for (r, _) in kept {
        let key = trace::span("stencil.canonical_key", || canonical_key(&r.pattern));
        if seen.insert(key) {
            distinct.push(&r.pattern);
        }
    }
    for p in &distinct {
        trace::span("stencil.features", || {
            (
                extract(p, &FeatureConfig::table2()),
                extract(p, &FeatureConfig::extended()),
                BinaryTensor::canvas(p),
            )
        });
    }

    // The dispatch core and the engine around it, one request per
    // batch as the closed-loop client sends them; both predictors start
    // cold, as the daemon did.
    let mut direct = load(bundle)?;
    let engine = Engine::new(load(bundle)?, EngineOptions::default());
    let mut waits = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let d0 = trace::now_ns();
        trace::span("serve.dispatch", || {
            dispatch_batch(&mut direct, std::slice::from_ref(req))
        });
        let d = trace::now_ns() - d0;
        let s0 = trace::now_ns();
        trace::span("serve.submit_batch", || {
            engine.submit_batch(vec![(i as u64, req.clone())])
        });
        let s = trace::now_ns() - s0;
        waits.push((s as f64 - d as f64) * 1e-3);
    }
    engine.stop();

    // Predictor entry points, one request per call.
    let mut p = load(bundle)?;
    let mut asked = HashSet::new();
    for pass in 0..2 {
        for r in &best {
            let Request::BestOc { gpu, .. } = &r.req else {
                continue;
            };
            let gpu = resolve_gpu(gpu).map_err(|e| e.to_string())?;
            let fresh = pass == 0 && asked.insert((canonical_key(&r.pattern), gpu));
            let name = if fresh {
                "api.best_oc_miss"
            } else {
                "api.best_oc_hit"
            };
            trace::span(name, || {
                p.best_oc_batch(std::slice::from_ref(&r.pattern), gpu)
            });
        }
    }
    let misses = trace::total("api.best_oc_miss").1;
    let hits = trace::total("api.best_oc_hit").1;
    for r in &times {
        let Request::PredictTime { gpu, oc, .. } = &r.req else {
            continue;
        };
        let gpu = resolve_gpu(gpu).map_err(|e| e.to_string())?;
        let oc = resolve_oc(oc).map_err(|e| e.to_string())?;
        let params = ParamSetting::default_for_dim(&oc, w.dim);
        trace::span("api.predict_time", || {
            p.predict_time_batch(std::slice::from_ref(&r.pattern), &oc, &params, gpu)
        });
    }
    for r in &ranks {
        trace::span("api.rank_gpus", || {
            dispatch_batch(&mut p, std::slice::from_ref(&r.req))
        });
    }

    // The models alone, rebuilt from the bundle state, one row per call.
    let state = ModelBundle::load(bundle).map_err(|e| format!("bundle load: {e}"))?;
    let mut classifiers = Vec::new();
    for (gpu, cs) in state.classifiers.iter().cloned() {
        classifiers.push((gpu, TrainedClassifier::from_state(cs)?));
    }
    let mut regressor = TrainedRegressor::from_state(state.regressor.clone())?;
    for r in &best {
        let Request::BestOc { gpu, .. } = &r.req else {
            continue;
        };
        let gpu = resolve_gpu(gpu).map_err(|e| e.to_string())?;
        let Some((_, model)) = classifiers.iter_mut().find(|(g, _)| *g == gpu) else {
            return Err(format!("the bundle has no classifier for {gpu}"));
        };
        let f = FeatureMatrix::from_rows([extract(&r.pattern, &FeatureConfig::table2())
            .as_f32()
            .as_slice()]);
        let t = FeatureMatrix::from_rows([BinaryTensor::canvas(&r.pattern).data()]);
        trace::span("models.classifier_predict", || model.predict(&f, &t, &[0]));
    }
    for r in &times {
        let Request::PredictTime { gpu, oc, .. } = &r.req else {
            continue;
        };
        let gpu = resolve_gpu(gpu).map_err(|e| e.to_string())?;
        let oc = resolve_oc(oc).map_err(|e| e.to_string())?;
        let params = ParamSetting::default_for_dim(&oc, w.dim);
        let mut row = extract(&r.pattern, &FeatureConfig::extended()).as_f32();
        row.extend(oc.feature_vector().iter().map(|&v| v as f32));
        row.extend(params.feature_vector(&oc).iter().map(|&v| v as f32));
        row.extend(
            GpuArch::preset(gpu)
                .feature_vector()
                .iter()
                .map(|&v| v as f32),
        );
        if state.cfg.include_grid_size {
            row.push((state.cfg.grid_for(w.dim) as f32).log2());
        }
        let f = FeatureMatrix::from_rows([row.as_slice()]);
        let t = FeatureMatrix::from_rows([BinaryTensor::canvas(&r.pattern).data()]);
        trace::span("models.regressor_predict", || {
            regressor.predict_ln_rows(&f, &t)
        });
    }

    Ok(vec![
        Metric::new("wire.decode_us", "us/req", us_per("wire.decode", n)),
        Metric::new("wire.encode_us", "us/req", us_per("wire.encode", n)),
        Metric::new("serve.dispatch_us", "us/req", us_per("serve.dispatch", n)),
        Metric::new("serve.engine_wait_us", "us/req", median(&waits)),
        Metric::new(
            "stencil.canonical_key_us",
            "us/call",
            us_per("stencil.canonical_key", n),
        ),
        Metric::new(
            "stencil.features_us",
            "us/pattern",
            us_per("stencil.features", distinct.len()),
        ),
        Metric::new(
            "api.best_oc_hit_us",
            "us/req",
            us_per("api.best_oc_hit", hits),
        ),
        Metric::new(
            "api.best_oc_miss_us",
            "us/req",
            us_per("api.best_oc_miss", misses),
        ),
        Metric::new(
            "api.predict_time_us",
            "us/req",
            us_per("api.predict_time", times.len()),
        ),
        Metric::new(
            "api.rank_gpus_us",
            "us/req",
            us_per("api.rank_gpus", ranks.len()),
        ),
        Metric::new(
            "models.classifier_predict_us",
            "us/row",
            us_per("models.classifier_predict", best.len()),
        ),
        Metric::new(
            "models.regressor_predict_us",
            "us/row",
            us_per("models.regressor_predict", times.len()),
        ),
    ])
}
