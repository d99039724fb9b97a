//! One benchmark run: the advisor lifecycle of a workload, its checks
//! and its result line.

use crate::client::Client;
use crate::daemon::{self, Daemon};
use crate::report::{self, median, quantile, Metric, Ops};
use crate::score;
use crate::trace;
use crate::workload::{self, pattern_hash, Stream, StreamKind, StreamReq, Workload};
use crate::train::{self, ChildReport};
use crate::{host, probes, Args};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use stencilmart::api::Predictor;
use stencilmart::bundle::ModelBundle;
use stencilmart::wire::{Reply, Request, Response};

/// Held-out seed and size of the fixed reference set for the
/// majority-class check.
const REFERENCE_SEED: u64 = 0x5EF0_5EED;
const REFERENCE_HELDOUT: usize = 120;

/// Run and report; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    match run(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("advisor_bench: {e}");
            1
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = Args::parse(args)?;
    let w = workload::workload(&opts.workload, opts.small).ok_or_else(|| {
        format!(
            "unknown workload {:?}; choose one of {}",
            opts.workload,
            workload::NAMES.join(", ")
        )
    })?;
    let threads = host::pin_workers()?;
    println!(
        "host: logical_cores={} STENCILMART_THREADS={threads} simd_isa={} client_connections=1",
        host::logical_cores(),
        host::simd_isa()
    );
    let advisord = daemon::build()?;
    if opts.trace {
        trace::enable();
    }
    let dir = PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-pid{}",
        w.name,
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let outcome = lifecycle(&w, &opts, &advisord, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let run = outcome?;
    if opts.trace {
        let path =
            PathBuf::from(".bench_out").join(format!("trace-{}-seed{}.json", w.name, opts.seed));
        let spans = trace::spans();
        let text = serde_json::to_string(&spans).expect("spans render");
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace: {} spans written to {}", spans.len(), path.display());
    }
    for line in run.ops.lines() {
        println!("{line}");
    }
    for p in run.problems.iter().take(20) {
        println!("check failed: {p}");
    }
    if run.problems.len() > 20 {
        println!("check failed: … and {} more", run.problems.len() - 20);
    }
    println!(
        "{}",
        report::result_line(run.problems.is_empty(), &run.ops, &run.metrics)
    );
    Ok(())
}

/// What a lifecycle produced.
struct RunOutput {
    ops: Ops,
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

fn lifecycle(w: &Workload, opts: &Args, advisord: &Path, dir: &Path) -> Result<RunOutput, String> {
    let mut ops = Ops::default();
    let mut problems: Vec<String> = Vec::new();
    let bundle = dir.join("bundle.json");

    // Steps 1-2: corpus, training and bundle, in a child process, timed
    // `train_repeats` times. The traced run trains once untraced and
    // once stage by stage, and compares the two bundles. Training counts
    // as one operation either way, so traced and untraced runs attempt
    // the same.
    let untraced = Args {
        trace: false,
        ..opts.clone()
    };
    let repeats = if opts.trace { 1 } else { w.train_repeats };
    let mut children = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        children.push(trace::span("lifecycle.train", || {
            train_child(&untraced, &bundle)
        })?);
    }
    ops.record("train", true);
    let train_s = median(&children.iter().map(|c| c.train_s).collect::<Vec<_>>());
    let train_rss_mb = median(&children.iter().map(|c| c.train_rss_mb).collect::<Vec<_>>());
    for c in &children {
        problems.extend(c.problems.iter().cloned());
    }
    let from_mart_answers = children[0].from_mart_answers;
    let mut per_layer = Vec::new();
    if opts.trace {
        let staged_bundle = dir.join("staged.json");
        let staged = trace::span("lifecycle.train_staged", || {
            train_child(opts, &staged_bundle)
        })?;
        let load = |p: &Path| ModelBundle::load(p).map_err(|e| format!("loading {}: {e}", p.display()));
        if let Err(e) = train::same_models(&load(&staged_bundle)?, &load(&bundle)?) {
            problems.push(e);
        }
        problems.extend(staged.problems);
        per_layer = staged.per_layer;
        // Both sides are fresh child processes doing the same work,
        // bundle save included.
        per_layer.push(Metric::new(
            "trace.overhead_ratio",
            "ratio",
            staged.train_s / train_s,
        ));
    }
    ops.record("trained_model_checks", problems.is_empty());

    // The daemon and this client share one core from here on: the closed
    // loop alternates between them, and handing off on one core avoids
    // cross-core wake-ups, whose cost on a shared virtual machine drifts
    // by tens of percent from minute to minute.
    let cpu = host::pin_to_one_cpu()?;
    println!("serving: daemon and client pinned to cpu {cpu}");

    // Step 3: start the daemon on the bundle, repeatedly; the last start
    // serves the stream.
    let mut startups: Vec<f64> = Vec::new();
    let (daemon, mut client) = loop {
        let t0 = Instant::now();
        let (daemon, mut client, (answer, _)) = trace::span("lifecycle.daemon_start", || {
            let daemon = Daemon::start(advisord, &bundle)?;
            let mut client = Client::connect(&daemon.addr)?;
            let answer = client.call(&w.probe_request())?;
            Ok::<_, String>((daemon, client, answer))
        })?;
        startups.push(t0.elapsed().as_secs_f64());
        let ok = answer.result.is_ok();
        ops.record("daemon_start", ok);
        if !ok {
            problems.push(format!("start-up probe answered {:?}", answer.result));
        }
        if startups.len() == w.startups {
            break (daemon, client);
        }
        daemon.shutdown(&mut client)?;
    };

    // Step 4: the timed request stream.
    let pid = daemon.pid();
    let rss_before = host::status_bytes(&pid, "VmRSS")?;
    let served = trace::span("lifecycle.stream", || {
        stream(w, opts, &mut client, &mut ops, &mut problems)
    })?;
    let rss_after = host::status_bytes(&pid, "VmRSS")?;
    let daemon_hwm = host::status_bytes(&pid, "VmHWM")?;

    // Re-send the sample (memo hits now, offsets reshuffled) and ask a
    // fresh in-process predictor the same questions one per call.
    trace::span("lifecycle.verify", || {
        verify_sample(
            opts,
            &bundle,
            &mut client,
            &served,
            &mut ops,
            &mut problems,
        )
    })?;
    daemon.shutdown(&mut client)?;

    // Step 5: held-out quality of the bundle.
    let loaded = trace::span("lifecycle.load", || ModelBundle::load(&bundle))
        .map_err(|e| format!("loading the bundle: {e}"))?;
    ops.record("bundle_load", true);
    let mut predictor = Predictor::load(&bundle).map_err(|e| format!("loading: {e}"))?;
    ops.record("bundle_load", true);
    let majority = trace::span("lifecycle.training_majority", || {
        score::majority_classes(w, &loaded.merging)
    })?;
    let quality = trace::span("lifecycle.score", || {
        score::score(
            w,
            opts.seed,
            w.heldout,
            &mut predictor,
            &loaded.merging,
            &majority,
            true,
        )
    })?;
    ops.add("heldout_pair", quality.pairs as u64, 0);
    println!(
        "quality: pairs={} instances={} accuracy={:.2}% majority_class={:.2}% beats_majority_class={} perf={:.2}% mape={:.2}% crashed_choices={}",
        quality.pairs,
        quality.instances,
        quality.accuracy_pct,
        quality.majority_pct,
        quality.accuracy_pct > quality.majority_pct,
        quality.perf_pct,
        quality.mape_pct,
        quality.crashed_choices
    );
    // Whether the classifiers beat the most frequent training class is
    // judged on a fixed reference held-out set, so the verdict is the
    // same on every run; a classifier that does not beat it counts as
    // one failed operation.
    let reference = trace::span("lifecycle.reference", || {
        score::score(
            w,
            REFERENCE_SEED,
            REFERENCE_HELDOUT,
            &mut predictor,
            &loaded.merging,
            &majority,
            false,
        )
    })?;
    let beats = reference.accuracy_pct > reference.majority_pct;
    ops.record("beats_majority_class", beats);
    println!(
        "reference: accuracy={:.2}% majority_class={:.2}% beats_majority_class={beats}",
        reference.accuracy_pct, reference.majority_pct
    );
    if !(quality.perf_pct > 0.0 && quality.perf_pct <= 100.0) {
        problems.push(format!(
            "oc_perf_pct {} is outside (0, 100]",
            quality.perf_pct
        ));
    }
    println!("from_mart_vs_load: {from_mart_answers} answers compared");

    let metrics = if opts.trace {
        let mut m = per_layer;
        m.extend(probes::setup_metrics(&bundle)?);
        m.extend(probes::serving_metrics(w, &bundle, &served)?);
        m.push(Metric::new(
            "api.memo_bytes_per_pattern",
            "B/pattern",
            rss_after.saturating_sub(rss_before) as f64 / served.distinct_patterns as f64,
        ));
        m
    } else {
        let lat_ms: Vec<f64> = served.latencies.iter().map(|s| s * 1e3).collect();
        vec![
            Metric::new("train_s", "s", train_s),
            Metric::new("setup_s", "s", median(&startups)),
            Metric::new("serve_rps", "req/s", median(&served.round_rates)),
            Metric::new("serve_p50_ms", "ms", median(&lat_ms)),
            Metric::new("train_rss_mb", "MB", train_rss_mb),
            Metric::new("serve_rss_mb", "MB", daemon_hwm as f64 / 1048576.0),
            Metric::new("oc_accuracy", "%", quality.accuracy_pct),
            Metric::new("oc_perf_pct", "%", quality.perf_pct),
            Metric::new("time_mape", "%", quality.mape_pct),
        ]
    };
    println!(
        "serving: requests={} seconds={:.3} latency_p99_ms={:.3} round_rps_q1/q2/q3={:.0}/{:.0}/{:.0} startups={} distinct_patterns={} daemon_rss_growth_kb={}",
        served.latencies.len(),
        served.seconds,
        1e3 * quantile(&served.latencies, 0.99),
        quantile(&served.round_rates, 0.25),
        quantile(&served.round_rates, 0.5),
        quantile(&served.round_rates, 0.75),
        startups.len(),
        served.distinct_patterns,
        rss_after.saturating_sub(rss_before) / 1024
    );
    Ok(RunOutput {
        ops,
        metrics,
        problems,
    })
}

fn train_child(opts: &Args, bundle: &Path) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let offset = trace::now_ns();
    let out = Command::new(exe)
        .arg("train")
        .args(opts.to_flags())
        .arg("--bundle")
        .arg(bundle)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the training child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the training child failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or("the training child printed nothing")?;
    let report: ChildReport =
        serde_json::from_str(line).map_err(|e| format!("training child output: {e}"))?;
    trace::adopt(report.spans.clone(), offset);
    Ok(report)
}

/// What the stream left for the checks and the probes.
pub struct Served {
    /// Per-request latency, seconds.
    pub latencies: Vec<f64>,
    /// Requests per second of each round.
    pub round_rates: Vec<f64>,
    /// Seconds spent in the timed rounds.
    pub seconds: f64,
    /// Distinct patterns the daemon saw (start-up probe included).
    pub distinct_patterns: usize,
    /// A seeded reservoir sample of requests and their answers.
    pub sample: Vec<(StreamReq, Reply)>,
    /// The first requests and answers, for the traced probes.
    pub kept: Vec<(StreamReq, Response)>,
}

/// Stream the run's rounds, checking every answer as it arrives.
fn stream(
    w: &Workload,
    opts: &Args,
    client: &mut Client,
    ops: &mut Ops,
    problems: &mut Vec<String>,
) -> Result<Served, String> {
    let mut source = Stream::new(w, opts.seed);
    let mut rng = ChaCha8Rng::seed_from_u64(workload::derive(opts.seed, 0x5A4D_504C));
    let mut latencies = Vec::new();
    let mut round_rates = Vec::new();
    let mut seconds = 0.0;
    let mut seen = 0usize;
    let mut distinct: HashSet<u64> = HashSet::from([pattern_hash(&w.probe_pattern())]);
    let mut first_answer: HashMap<String, Reply> = HashMap::new();
    let mut sample: Vec<(StreamReq, Reply)> = Vec::new();
    let mut kept: Vec<(StreamReq, Response)> = Vec::new();
    let keep = if opts.trace { w.probe_requests } else { 0 };
    for _ in 0..w.rounds(opts.seconds) {
        let round = source.next_round();
        let reqs: Vec<Request> = round.iter().map(|r| r.req.clone()).collect();
        let mut answers: Vec<(Response, f64)> = Vec::with_capacity(round.len());
        let t0 = Instant::now();
        for req in &reqs {
            answers.push(trace::span("client.call", || client.call(req))?);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        seconds += elapsed;
        round_rates.push(reqs.len() as f64 / elapsed);
        for (r, (resp, latency)) in round.into_iter().zip(answers) {
            latencies.push(latency);
            distinct.insert(pattern_hash(&r.pattern));
            let reply = match check_answer(&r, &resp) {
                Ok(reply) => {
                    ops.record(r.kind.name(), true);
                    reply
                }
                Err(why) => {
                    ops.record(r.kind.name(), false);
                    problems.push(why);
                    continue;
                }
            };
            if w.stream == StreamKind::Hot {
                let first = first_answer
                    .entry(r.answer_key())
                    .or_insert_with(|| reply.clone());
                if !same_reply(first, &reply) {
                    problems.push(format!(
                        "a memo hit answered {reply:?} but the first ask got {first:?}"
                    ));
                }
            }
            // Reservoir sample of `sample_checks` requests.
            if sample.len() < w.sample_checks {
                sample.push((r.clone(), reply));
            } else {
                let j = rng.gen_range(0..=seen);
                if j < w.sample_checks {
                    sample[j] = (r.clone(), reply);
                }
            }
            seen += 1;
            if kept.len() < keep {
                kept.push((r, resp));
            }
        }
    }
    Ok(Served {
        latencies,
        round_rates,
        seconds,
        distinct_patterns: distinct.len(),
        sample,
        kept,
    })
}

/// The reply of a successful answer of the right shape; rankings list
/// exactly the criterion's GPUs with ascending, positive, finite
/// scores, and times are positive and finite.
fn check_answer(r: &StreamReq, resp: &Response) -> Result<Reply, String> {
    let reply = resp
        .result
        .clone()
        .map_err(|(kind, msg)| format!("{} failed: {kind}: {msg}", r.kind.name()))?;
    match (&r.req, &reply) {
        (Request::BestOc { .. }, Reply::BestOc { oc }) => {
            if stencilmart_gpusim::OptCombo::parse(oc).is_none() {
                return Err(format!("best_oc answered an unknown OC {oc:?}"));
            }
        }
        (Request::PredictTime { .. }, Reply::Time { ms }) => {
            if !(ms.is_finite() && *ms > 0.0) {
                return Err(format!("predict_time answered {ms}"));
            }
        }
        (Request::RankGpus { .. }, Reply::Ranking(items)) => {
            let want: HashSet<String> = r
                .kind
                .ranked_gpus()
                .unwrap_or_default()
                .iter()
                .map(|g| g.name().to_string())
                .collect();
            let got: HashSet<String> = items.iter().map(|(g, _)| g.clone()).collect();
            if items.len() != want.len() || got != want {
                return Err(format!("{} listed {got:?}, not {want:?}", r.kind.name()));
            }
            let scores_ok = items.iter().all(|(_, s)| s.is_finite() && *s > 0.0)
                && items.windows(2).all(|p| p[0].1 <= p[1].1);
            if !scores_ok {
                return Err(format!(
                    "{} scores are not ascending, positive and finite: {items:?}",
                    r.kind.name()
                ));
            }
        }
        _ => return Err(format!("{} got a {reply:?} reply", r.kind.name())),
    }
    Ok(reply)
}

/// Bitwise reply equality (times compare by their bits).
fn same_reply(a: &Reply, b: &Reply) -> bool {
    match (a, b) {
        (Reply::Time { ms: x }, Reply::Time { ms: y }) => x.to_bits() == y.to_bits(),
        (Reply::Ranking(x), Reply::Ranking(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
        }
        _ => a == b,
    }
}

/// Re-send the sample with reshuffled offsets (memo hits by now) and
/// ask a fresh in-process predictor, loaded from the same bundle, the
/// same questions one request per call. Both must match the stream's
/// answers exactly.
fn verify_sample(
    opts: &Args,
    bundle: &Path,
    client: &mut Client,
    served: &Served,
    ops: &mut Ops,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(workload::derive(opts.seed, 0x5245_5345));
    let resent: Vec<Request> = served
        .sample
        .iter()
        .map(|(r, _)| r.reshuffled(&mut rng))
        .collect();
    let mut again = Vec::with_capacity(resent.len());
    for req in &resent {
        again.push(client.call(req)?);
    }
    let mut fresh = Predictor::load(bundle).map_err(|e| format!("fresh predictor: {e}"))?;
    ops.record("bundle_load", true);
    for (((r, first), (resp, _)), req) in served.sample.iter().zip(&again).zip(&resent) {
        let ok = matches!(&resp.result, Ok(reply) if same_reply(reply, first));
        ops.record("resend", ok);
        if !ok {
            problems.push(format!(
                "re-sent {} answered {:?} but the stream got {first:?}",
                r.kind.name(),
                resp.result
            ));
        }
        let local = stencilmart::serve::dispatch_batch(&mut fresh, std::slice::from_ref(req))
            .pop()
            .expect("one answer per request");
        let ok = matches!(&local, Ok(reply) if same_reply(reply, first));
        ops.record("inprocess_check", ok);
        if !ok {
            problems.push(format!(
                "in-process {} answered {local:?} but the daemon answered {first:?}",
                r.kind.name()
            ));
        }
    }
    Ok(())
}
