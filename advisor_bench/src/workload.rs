//! The two workloads: what each trains on, which stencils it is scored
//! on, and the request stream it sends to the daemon.
//!
//! Three seeds feed a run:
//!
//! * the **training seed** is the `PipelineConfig` seed of the preset
//!   and does not depend on `--seed`, so every run trains the same
//!   models and `train_s` and the quality metrics compare across runs;
//! * the **held-out seed** is derived from `--seed`; held-out stencils
//!   that also occur in the training corpus are dropped;
//! * the **stream seed** is derived from `--seed` and drives the request
//!   mix, the pattern pool and the order of re-sent offsets.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use stencilmart::advisor::Criterion;
use stencilmart::config::PipelineConfig;
use stencilmart::models::{ClassifierKind, RegressorKind};
use stencilmart::wire::{PatternSpec, Request};
use stencilmart_gpusim::{GpuId, OptCombo};
use stencilmart_stencil::canonical;
use stencilmart_stencil::generator::{GeneratorConfig, StencilGenerator};
use stencilmart_stencil::pattern::{Dim, StencilPattern};

/// Salt for the held-out stencil generator.
const HELDOUT_SALT: u64 = 0x4845_4C44_4F55_5431;
/// Salt for the held-out profiling noise and parameter samples.
const HELDOUT_PROFILE_SALT: u64 = 0x4845_4C44_5052_4F46;
/// Salt for the request stream.
const STREAM_SALT: u64 = 0x5354_5245_414D_5331;

/// SplitMix64 finalizer: derive an independent seed from `seed` and a
/// salt.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which request stream a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// A small pool of patterns sent again and again (memo hits).
    Hot,
    /// A pattern never sent before on every request (memo misses).
    Novel,
}

/// One workload: training preset, held-out size and request stream.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Stencil dimensionality of corpus, held-out set and stream.
    pub dim: Dim,
    /// Training configuration (corpus size, profiling budget, seed).
    pub cfg: PipelineConfig,
    /// OC classifier mechanism.
    pub classifier: ClassifierKind,
    /// Time regressor mechanism.
    pub regressor: RegressorKind,
    /// Trainings per run; `train_s` and `train_rss_mb` are their
    /// medians.
    pub train_repeats: usize,
    /// Held-out stencils scored per run.
    pub heldout: usize,
    /// Request stream shape.
    pub stream: StreamKind,
    /// Requests per round.
    pub round: usize,
    /// Rounds sent per `--seconds` of run length: the stream is a fixed
    /// list that lasts half to all of that on the reference host,
    /// whose speed varies by phase, so every run with the same
    /// `--seconds` sends the same number of requests.
    pub rounds_per_second: usize,
    /// Mix weights of best_oc, predict_time, rank perf and rank cost:
    /// a request is of a kind with probability weight ÷ sum.
    pub mix: [u32; 4],
    /// Daemon start-ups timed for `setup_s` (about two seconds of
    /// start-up work in all).
    pub startups: usize,
    /// Requests re-sent after the stream and checked against a fresh
    /// in-process predictor.
    pub sample_checks: usize,
    /// Requests replayed in process by the traced probes.
    pub probe_requests: usize,
}

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 2] = ["nn2d_hot", "gbdt3d_novel"];

/// Look up a workload; `small` shrinks every size for the benchmark's
/// own tests.
pub fn workload(name: &str, small: bool) -> Option<Workload> {
    let mut w = match name {
        "nn2d_hot" => Workload {
            name: "nn2d_hot",
            dim: Dim::D2,
            cfg: PipelineConfig::default(),
            classifier: ClassifierKind::ConvNet,
            regressor: RegressorKind::Mlp,
            train_repeats: 1,
            heldout: 120,
            stream: StreamKind::Hot,
            round: 512,
            rounds_per_second: 23,
            mix: [9, 9, 1, 1],
            startups: 41,
            sample_checks: 256,
            probe_requests: 4096,
        },
        "gbdt3d_novel" => Workload {
            name: "gbdt3d_novel",
            dim: Dim::D3,
            cfg: PipelineConfig::paper(),
            classifier: ClassifierKind::Gbdt,
            regressor: RegressorKind::GbRegressor,
            train_repeats: 3,
            heldout: 120,
            stream: StreamKind::Novel,
            round: 512,
            rounds_per_second: 13,
            mix: [2, 2, 1, 1],
            startups: 11,
            sample_checks: 256,
            probe_requests: 2048,
        },
        _ => return None,
    };
    if small {
        // The 2-D corpus keeps its size, so the small ConvNet
        // classifiers are the full workload's and face the same
        // majority-class check; only the regressor's rows shrink.
        w.cfg = match w.dim {
            Dim::D2 => PipelineConfig {
                max_regression_rows: 800,
                ..w.cfg
            },
            _ => PipelineConfig {
                stencils_per_dim: 16,
                samples_per_oc: 2,
                max_regression_rows: 800,
                ..PipelineConfig::default()
            },
        };
        w.heldout = 12;
        w.round = 64;
        w.rounds_per_second = 4;
        w.startups = 2;
        w.sample_checks = 32;
        w.probe_requests = 128;
    }
    Some(w)
}

impl Workload {
    /// The training corpus patterns, generated exactly as
    /// `ProfiledCorpus::build` generates them.
    pub fn training_patterns(&self) -> Vec<StencilPattern> {
        let mut gen = StencilGenerator::new(self.cfg.seed ^ self.dim.rank() as u64);
        gen.generate_corpus(self.dim, self.cfg.max_order, self.cfg.stencils_per_dim)
    }

    /// `count` held-out stencils for a run seed: generated from a seed
    /// disjoint from training, minus any pattern the training corpus
    /// contains.
    pub fn heldout_patterns(&self, seed: u64, count: usize) -> Result<Vec<StencilPattern>, String> {
        let train: HashSet<StencilPattern> = self.training_patterns().into_iter().collect();
        let mut gen = StencilGenerator::new(derive(seed, HELDOUT_SALT));
        let held: Vec<StencilPattern> = gen
            .generate_corpus(self.dim, self.cfg.max_order, 2 * count + 16)
            .into_iter()
            .filter(|p| !train.contains(p))
            .take(count)
            .collect();
        if held.len() < count {
            return Err(format!(
                "only {} held-out stencils are disjoint from training, {} wanted",
                held.len(),
                count
            ));
        }
        Ok(held)
    }

    /// Rounds a run of `seconds` sends.
    pub fn rounds(&self, seconds: u64) -> usize {
        self.rounds_per_second * seconds as usize
    }

    /// Profiling seed of the held-out stencils for a run seed.
    pub fn heldout_profile_seed(&self, seed: u64) -> u64 {
        derive(seed, HELDOUT_PROFILE_SALT)
    }

    /// The canonical stencil the start-up probe asks about; a novel
    /// stream never sends it.
    fn probe_name(&self) -> &'static str {
        match self.dim {
            Dim::D3 => "star3d2r",
            _ => "star2d2r",
        }
    }

    /// The pattern of the start-up probe.
    pub fn probe_pattern(&self) -> StencilPattern {
        canonical::by_name(self.probe_name())
            .expect("the probe is a canonical stencil")
            .pattern
    }

    /// The start-up probe: the first request each daemon start answers.
    pub fn probe_request(&self) -> Request {
        Request::BestOc {
            gpu: GpuId::V100.name().to_string(),
            pattern: PatternSpec::Name(self.probe_name().to_string()),
        }
    }
}

/// Kind of one stream request, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReqKind {
    /// `best_oc`.
    BestOc,
    /// `predict_time`.
    PredictTime,
    /// `rank_gpus` by pure performance.
    RankPerf,
    /// `rank_gpus` by cost efficiency.
    RankCost,
}

impl ReqKind {
    /// Stable name used in the accounting lines.
    pub fn name(self) -> &'static str {
        match self {
            ReqKind::BestOc => "best_oc",
            ReqKind::PredictTime => "predict_time",
            ReqKind::RankPerf => "rank_gpus_perf",
            ReqKind::RankCost => "rank_gpus_cost",
        }
    }

    /// The GPUs a ranking of this kind must list.
    pub fn ranked_gpus(self) -> Option<Vec<GpuId>> {
        match self {
            ReqKind::RankPerf => Some(Criterion::PurePerformance.gpus()),
            ReqKind::RankCost => Some(Criterion::CostEfficiency.gpus()),
            _ => None,
        }
    }
}

/// One request of the stream, with what the checks need to know.
#[derive(Debug, Clone)]
pub struct StreamReq {
    /// The wire request.
    pub req: Request,
    /// Its kind.
    pub kind: ReqKind,
    /// The pattern it names (resolved), so re-sends can reshuffle it.
    pub pattern: StencilPattern,
    /// Whether the pattern travels as a canonical name.
    pub by_name: bool,
}

impl StreamReq {
    /// Answer identity: requests with the same key must get the same
    /// answer, however the pattern was spelled.
    pub fn answer_key(&self) -> String {
        let pattern = stencilmart_stencil::canonical::canonical_key(&self.pattern);
        match &self.req {
            Request::BestOc { gpu, .. } => format!("best|{gpu}|{pattern}"),
            Request::PredictTime { gpu, oc, .. } => format!("time|{gpu}|{oc}|{pattern}"),
            Request::RankGpus { criterion, oc, .. } => {
                format!("rank|{criterion}|{oc}|{pattern}")
            }
            _ => format!("other|{pattern}"),
        }
    }

    /// The same request with the pattern's offsets re-sent in a fresh
    /// shuffled order (names stay names).
    pub fn reshuffled(&self, rng: &mut ChaCha8Rng) -> Request {
        if self.by_name {
            return self.req.clone();
        }
        with_pattern(&self.req, shuffled_offsets(&self.pattern, rng))
    }
}

fn with_pattern(req: &Request, spec: PatternSpec) -> Request {
    match req {
        Request::BestOc { gpu, .. } => Request::BestOc {
            gpu: gpu.clone(),
            pattern: spec,
        },
        Request::PredictTime { gpu, oc, .. } => Request::PredictTime {
            gpu: gpu.clone(),
            pattern: spec,
            oc: oc.clone(),
        },
        Request::RankGpus { criterion, oc, .. } => Request::RankGpus {
            criterion: criterion.clone(),
            pattern: spec,
            oc: oc.clone(),
        },
        other => other.clone(),
    }
}

/// A 64-bit hash of a pattern's canonical point set.
pub fn pattern_hash(p: &StencilPattern) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// The neighbor offsets of a pattern (center implicit) in shuffled
/// order.
fn shuffled_offsets(p: &StencilPattern, rng: &mut ChaCha8Rng) -> PatternSpec {
    let mut points: Vec<[i32; 3]> = p
        .points()
        .iter()
        .filter(|o| !o.is_center())
        .map(|o| o.c)
        .collect();
    points.shuffle(rng);
    PatternSpec::Offsets {
        rank: p.dim().rank() as u8,
        points,
    }
}

/// An endless, seed-determined request stream, produced one round at a
/// time.
pub struct Stream {
    w: Workload,
    rng: ChaCha8Rng,
    /// Hot pool: the canonical stencils of the workload's
    /// dimensionality, `(pattern, name)`.
    pool: Vec<(StencilPattern, String)>,
    /// Novel source and the hashes of the patterns already sent (equal
    /// patterns hash equal, so none is sent twice).
    gen: StencilGenerator,
    sent: HashSet<u64>,
    next_order: u8,
    ocs: Vec<OptCombo>,
}

impl Stream {
    /// The stream of a workload for a run seed.
    pub fn new(w: &Workload, seed: u64) -> Stream {
        let stream_seed = derive(seed, STREAM_SALT);
        let pool = match w.stream {
            StreamKind::Hot => canonical::suite()
                .into_iter()
                .filter(|c| c.pattern.dim() == w.dim)
                .map(|c| (c.pattern, c.name))
                .collect(),
            StreamKind::Novel => Vec::new(),
        };
        // The start-up probe's pattern is never part of a novel stream.
        let sent = HashSet::from([pattern_hash(&w.probe_pattern())]);
        Stream {
            w: w.clone(),
            rng: ChaCha8Rng::seed_from_u64(stream_seed),
            pool,
            gen: StencilGenerator::new(stream_seed ^ 0x4E57),
            sent,
            next_order: 1,
            ocs: OptCombo::enumerate(),
        }
    }

    /// The next round of requests.
    pub fn next_round(&mut self) -> Vec<StreamReq> {
        (0..self.w.round).map(|_| self.next_req()).collect()
    }

    fn next_pattern(&mut self) -> (StencilPattern, PatternSpec, bool) {
        match self.w.stream {
            StreamKind::Hot => {
                let i = self.rng.gen_range(0..self.pool.len());
                let (p, name) = self.pool[i].clone();
                // Either spelling, equally often: the name, or the
                // offsets in a fresh shuffled order.
                if self.rng.gen_bool(0.5) {
                    (p, PatternSpec::Name(name), true)
                } else {
                    let spec = shuffled_offsets(&p, &mut self.rng);
                    (p, spec, false)
                }
            }
            // Drawn the way `generate_corpus` draws the training corpus:
            // orders round-robin, keep probability uniform in
            // [0.25, 0.75), symmetric four times in five.
            StreamKind::Novel => loop {
                let mut cfg = GeneratorConfig::new(self.w.dim, self.next_order);
                cfg.keep_prob = 0.25 + 0.5 * self.rng.gen::<f64>();
                cfg.symmetric = self.rng.gen_bool(0.8);
                let p = self.gen.generate(&cfg);
                if self.sent.insert(pattern_hash(&p)) {
                    self.next_order = self.next_order % self.w.cfg.max_order + 1;
                    let spec = shuffled_offsets(&p, &mut self.rng);
                    return (p, spec, false);
                }
            },
        }
    }

    fn next_req(&mut self) -> StreamReq {
        let roll = self.rng.gen_range(0..self.w.mix.iter().sum::<u32>());
        let [b, t, rp, _] = self.w.mix;
        let kind = if roll < b {
            ReqKind::BestOc
        } else if roll < b + t {
            ReqKind::PredictTime
        } else if roll < b + t + rp {
            ReqKind::RankPerf
        } else {
            ReqKind::RankCost
        };
        let gpu = GpuId::ALL[self.rng.gen_range(0..GpuId::ALL.len())]
            .name()
            .to_string();
        let oc = self.ocs[self.rng.gen_range(0..self.ocs.len())].name();
        let (pattern, spec, by_name) = self.next_pattern();
        let req = match kind {
            ReqKind::BestOc => Request::BestOc { gpu, pattern: spec },
            ReqKind::PredictTime => Request::PredictTime {
                gpu,
                pattern: spec,
                oc,
            },
            ReqKind::RankPerf | ReqKind::RankCost => Request::RankGpus {
                criterion: if kind == ReqKind::RankPerf {
                    "perf"
                } else {
                    "cost"
                }
                .to_string(),
                pattern: spec,
                oc,
            },
        };
        StreamReq {
            req,
            kind,
            pattern,
            by_name,
        }
    }
}
