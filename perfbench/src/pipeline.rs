//! The paper's offline pipeline, timed from outside: data graph and encoder
//! (set-up), exact-count labelling, training, and held-out scoring.

use crate::trace::Tracer;
use alss_core::{
    EncodingKind, LearnedSketch, LssConfig, Parallelism, SketchConfig, TrainConfig, Workload,
};
use alss_datasets::queries::WorkloadSpec;
use alss_datasets::{by_name, generate_workload};
use alss_graph::extract::{extract_query, ExtractOptions};
use alss_graph::io::to_text;
use alss_graph::Graph;
use alss_matching::Semantics;
use alss_nn::AdamConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Synthetic dataset (`alss_datasets::by_name`): the small-world `yeast`
/// analogue, whose 4- and 8-node queries label in milliseconds.
pub const DATASET: &str = "yeast";
/// Labelled query sizes.
pub const SIZES: [usize; 2] = [4, 8];
/// Exact-count budget per query (`generate_workload`'s default).
pub const BUDGET: u64 = 20_000_000;
/// ProNE embedding dimension.
const PRONE_DIM: usize = 32;
/// Seconds spent calling `estimate` over the held-out set.
const PREDICT_SECS: f64 = 0.2;
/// Labelling passes per pipeline run: labelling is the shortest timed
/// step, so it gets more samples.
const LABEL_PASSES: usize = 2;

/// Sizes of the offline pipeline for one workload.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Dataset scale.
    pub scale: f64,
    /// Labelled queries per size.
    pub per_size: usize,
    /// Share of the labelled queries used for training.
    pub train_frac: f64,
    /// Training epochs.
    pub epochs: usize,
}

/// Everything the pipeline produced and measured.
pub struct Offline {
    /// The data graph.
    pub data: Graph,
    /// The trained sketch.
    pub sketch: LearnedSketch,
    /// Sketch settings.
    pub sketch_cfg: SketchConfig,
    /// Training queries.
    pub train: Workload,
    /// Held-out queries.
    pub held: Workload,
    /// Seconds of data-graph generation plus encoder build.
    pub setup_s: f64,
    /// Seconds of the encoder build (ProNE) alone.
    pub prone_s: f64,
    /// Candidate queries the labeller counted exactly.
    pub candidates: usize,
    /// Labelled queries kept.
    pub labelled: usize,
    /// Seconds of each labelling pass.
    pub label_s: Vec<f64>,
    /// Training wall time.
    pub train_s: f64,
    /// `(true, estimated)` counts over the held-out set.
    pub pairs: Vec<(f64, f64)>,
    /// `estimate` calls per second, one caller.
    pub predict_qps: f64,
}

/// Sketch settings used by every workload: the paper's LSS-emb with the
/// §6.1 architecture.
pub fn sketch_config(cfg: &PipelineConfig, seed: u64, threads: usize) -> SketchConfig {
    SketchConfig {
        encoding: EncodingKind::Embedding,
        hops: 3,
        model: LssConfig {
            dropout: 0.1,
            ..LssConfig::default()
        },
        train: TrainConfig {
            epochs: cfg.epochs,
            batch_size: 4,
            adam: AdamConfig {
                lr: 5e-3,
                weight_decay: 1e-5,
                lr_decay: 0.98,
                ..AdamConfig::default()
            },
            seed,
            parallelism: Parallelism::fixed(threads),
        },
        prone_dim: PRONE_DIM,
        seed,
    }
}

fn workload_spec(cfg: &PipelineConfig, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        sizes: SIZES.to_vec(),
        per_size: cfg.per_size,
        semantics: Semantics::Homomorphism,
        budget_per_query: BUDGET,
        wildcard_prob: 0.0,
        induced: false,
        seed,
    }
}

/// Number of candidates `generate_workload` counts for `spec`: its
/// candidate loop, without the counting.
fn candidate_count(data: &Graph, spec: &WorkloadSpec) -> usize {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let opts = ExtractOptions {
        induced: spec.induced,
        extra_edge_prob: 0.4,
        wildcard_prob: spec.wildcard_prob,
        drop_edge_labels: false,
    };
    let mut total = 0;
    for &size in &spec.sizes {
        let mut seen = HashSet::new();
        for _ in 0..spec.per_size * 10 {
            if seen.len() >= spec.per_size * 3 {
                break;
            }
            if let Some(q) = extract_query(data, size, &opts, &mut rng) {
                seen.insert(to_text(&q));
            }
        }
        total += seen.len();
    }
    total
}

/// Run the pipeline once. Every step is deterministic, so repeated runs
/// produce the same sketch and differ only in their timings.
pub fn run(
    cfg: &PipelineConfig,
    seed: u64,
    threads: usize,
    tr: &mut Tracer,
) -> Result<Offline, String> {
    let sketch_cfg = sketch_config(cfg, seed, threads);

    // Set-up: data graph plus encoder.
    let t0 = Instant::now();
    let span = tr.enter("datasets.generate", 0, 0);
    let data = by_name(DATASET, cfg.scale, seed).ok_or("unknown dataset")?;
    tr.exit(span);
    let t1 = Instant::now();
    let span = tr.enter("embedding.encoder_build", 0, 0);
    let encoder = LearnedSketch::build_encoder(&data, &sketch_cfg);
    tr.exit(span);
    let prone_s = t1.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();

    // Labelling by exact counting.
    let spec = workload_spec(cfg, seed);
    let candidates = candidate_count(&data, &spec);
    let mut label_s = Vec::with_capacity(LABEL_PASSES);
    let mut workload = Workload::new();
    for _ in 0..LABEL_PASSES {
        let t = Instant::now();
        let span = tr.enter("datasets.generate_workload", 0, 0);
        workload = generate_workload(&data, &spec);
        tr.exit(span);
        label_s.push(t.elapsed().as_secs_f64());
    }
    if workload.len() < 40 {
        return Err(format!("only {} queries labelled", workload.len()));
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5_917);
    let (train, held) = workload.stratified_split(cfg.train_frac, &mut rng);

    // Training at the fixed epoch count.
    let t = Instant::now();
    let span = tr.enter("core.train", 0, 0);
    let (sketch, _report) = LearnedSketch::train_with_encoder(encoder, &train, &sketch_cfg);
    tr.exit(span);
    let train_s = t.elapsed().as_secs_f64();

    // Held-out accuracy, then estimate throughput from one caller.
    let pairs: Vec<(f64, f64)> = held
        .queries
        .iter()
        .map(|q| (q.count as f64, sketch.estimate(&q.graph)))
        .collect();
    let t = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t.elapsed().as_secs_f64() < PREDICT_SECS {
        for q in &held.queries {
            black_box(sketch.estimate(black_box(&q.graph)));
        }
        calls += held.len();
    }
    let predict_qps = calls as f64 / t.elapsed().as_secs_f64();

    Ok(Offline {
        labelled: workload.len(),
        data,
        sketch,
        sketch_cfg,
        train,
        held,
        setup_s,
        prone_s,
        candidates,
        label_s,
        train_s,
        pairs,
        predict_qps,
    })
}
