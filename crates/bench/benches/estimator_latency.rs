//! Criterion: per-query estimation latency of the G-CARE baselines
//! (the baseline series of Fig. 8).

#![allow(clippy::expect_used, reason = "a benchmark aborts on a broken fixture")]

use alss_datasets::by_name;
use alss_datasets::queries::unlabeled_pool;
use alss_estimators::{
    BoundSketch, CardinalityEstimator, CharacteristicSets, CorrelatedSampling, JSub, LabelIndex,
    SumRdf, WanderJoin,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_estimators(c: &mut Criterion) {
    let data = by_name("yeast", 0.1, 0).expect("dataset");
    let idx = LabelIndex::new(&data);
    let cset = CharacteristicSets::new(&data);
    let sumrdf = SumRdf::new(&data);
    let cs = CorrelatedSampling::new(&data, 0.3, 7, 20_000_000);
    let wj = WanderJoin::new(&idx, 500);
    let jsub = JSub::new(&idx, 500);
    let bs = BoundSketch::new(&data);
    let estimators: Vec<&dyn CardinalityEstimator> = vec![&cset, &sumrdf, &cs, &wj, &jsub, &bs];

    let queries = unlabeled_pool(&data, &[4, 8], 2, 0.0, 3);
    let mut group = c.benchmark_group("estimator_latency");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for est in estimators {
        for (i, q) in queries.iter().enumerate() {
            group.bench_with_input(
                BenchmarkId::new(est.name(), format!("{}n_q{}", q.num_nodes(), i)),
                q,
                |b, q| {
                    let mut rng = SmallRng::seed_from_u64(9);
                    b.iter(|| black_box(est.estimate(q, &mut rng).count))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_estimators);
criterion_main!(benches);
