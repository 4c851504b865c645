//! Criterion: node-embedding pre-training throughput (the "Embedding"
//! column of Table 4) — ProNE vs DeepWalk on the label-augmented graph.

#![allow(clippy::expect_used, reason = "a benchmark aborts on a broken fixture")]

use alss_datasets::by_name;
use alss_embedding::prone::{prone, ProneConfig};
use alss_embedding::skipgram::SkipGramConfig;
use alss_embedding::{deepwalk, DeepWalkConfig};
use alss_graph::augmented::label_augmented_graph;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_embeddings(c: &mut Criterion) {
    let data = by_name("yeast", 0.1, 0).expect("dataset");
    let aug = label_augmented_graph(&data);
    let mut group = c.benchmark_group("embedding_pretrain");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));

    group.bench_function("prone_dim32", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(0);
            let cfg = ProneConfig {
                dim: 32,
                ..Default::default()
            };
            black_box(prone(&aug.graph, &cfg, &mut rng).len())
        })
    });
    group.bench_function("deepwalk_dim32", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(0);
            let cfg = DeepWalkConfig {
                walks_per_node: 2,
                walk_length: 10,
                skipgram: SkipGramConfig {
                    dim: 32,
                    epochs: 1,
                    ..Default::default()
                },
            };
            black_box(deepwalk(&aug.graph, &cfg, &mut rng).len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_embeddings);
criterion_main!(benches);
