//! Criterion: LSS prediction latency vs query size (the learned-sketch
//! series of Figs. 8–9 — prediction cost depends only on the architecture
//! and query size, not on the data graph).

#![allow(clippy::expect_used, reason = "a benchmark aborts on a broken fixture")]

use alss_core::workload::LabeledQuery;
use alss_core::{LearnedSketch, SketchConfig, TrainConfig, Workload};
use alss_datasets::by_name;
use alss_datasets::queries::unlabeled_pool;
use alss_matching::{count_homomorphisms, Budget};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_predict(c: &mut Criterion) {
    let data = by_name("yeast", 0.1, 0).expect("dataset");
    // tiny training pass just to have realistic weights
    let train: Vec<LabeledQuery> = unlabeled_pool(&data, &[3, 4], 10, 0.0, 1)
        .into_iter()
        .filter_map(|g| {
            let cnt = count_homomorphisms(&data, &g, &Budget::new(2_000_000)).ok()?;
            Some(LabeledQuery::new(g, cnt.max(1)))
        })
        .collect();
    let mut cfg = SketchConfig::tiny();
    cfg.train = TrainConfig::quick(5);
    let (sketch, _) = LearnedSketch::train(&data, &Workload::from_queries(train), &cfg);

    let mut group = c.benchmark_group("lss_predict");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for size in [4usize, 8, 16, 32] {
        let Some(q) = unlabeled_pool(&data, &[size], 1, 0.0, 2 + size as u64).pop() else {
            continue;
        };
        let encoded = sketch.encode(&q);
        group.bench_with_input(BenchmarkId::new("encoded", size), &encoded, |b, eq| {
            b.iter(|| black_box(sketch.model().predict(eq).count()))
        });
        group.bench_with_input(BenchmarkId::new("end_to_end", size), &q, |b, q| {
            b.iter(|| black_box(sketch.estimate(q)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_predict);
criterion_main!(benches);
