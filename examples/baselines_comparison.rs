//! Run every cardinality estimator in the repository — the seven G-CARE
//! baselines and the learned sketch — over one workload and print a
//! side-by-side accuracy/latency/failure comparison (a miniature Fig. 4 +
//! Fig. 5 + Fig. 8 in one table).
//!
//! Run: `cargo run --release --example baselines_comparison`

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example prints its results and aborts on a broken fixture"
)]

use alss::core::{LearnedSketch, QErrorStats, SketchConfig};
use alss::datasets::queries::WorkloadSpec;
use alss::datasets::{by_name, generate_workload};
use alss::estimators::{
    BoundSketch, CardinalityEstimator, CharacteristicSets, CorrelatedSampling, Impr, JSub,
    LabelIndex, SumRdf, WanderJoin,
};
use alss::matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let data = by_name("yeast", 0.2, 0).expect("known dataset");
    let workload = generate_workload(
        &data,
        &WorkloadSpec {
            sizes: vec![4, 6, 8],
            per_size: 25,
            semantics: Semantics::Homomorphism,
            ..Default::default()
        },
    );
    let mut rng = SmallRng::seed_from_u64(6);
    let (train, test) = workload.stratified_split(0.8, &mut rng);
    println!(
        "comparing estimators on {} held-out queries (sizes {:?})\n",
        test.len(),
        test.sizes()
    );

    let mut cfg = SketchConfig::tiny();
    cfg.encoding = alss::core::EncodingKind::Embedding;
    cfg.train = alss::core::TrainConfig::quick(100);
    let (sketch, _) = LearnedSketch::train(&data, &train, &cfg);

    let idx = LabelIndex::new(&data);
    let cset = CharacteristicSets::new(&data);
    let sumrdf = SumRdf::new(&data);
    let impr = Impr::new(&data, 500, 16);
    let cs = CorrelatedSampling::new(&data, 0.3, 7, 50_000_000);
    let wj = WanderJoin::new(&idx, 1000);
    let jsub = JSub::new(&idx, 1000);
    let bs = BoundSketch::new(&data);
    let baselines: Vec<&dyn CardinalityEstimator> =
        vec![&cset, &sumrdf, &impr, &cs, &wj, &jsub, &bs];

    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "method", "median-q", "gmean-q", "max-q", "failed%", "ms/query"
    );

    // learned sketch first
    {
        let t0 = Instant::now();
        let pairs: Vec<(f64, f64)> = test
            .queries
            .iter()
            .map(|q| (q.count as f64, sketch.estimate(&q.graph)))
            .collect();
        let ms = t0.elapsed().as_secs_f64() * 1000.0 / test.len() as f64;
        let s = QErrorStats::from_pairs(&pairs).expect("non-empty");
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>12.1} {:>10.0} {:>10.3}",
            "LSS", s.median, s.geo_mean, s.max, 0.0, ms
        );
    }

    for est in baselines {
        let mut erng = SmallRng::seed_from_u64(8);
        let mut pairs = Vec::new();
        let mut failures = 0usize;
        let mut total = 0usize;
        let t0 = Instant::now();
        for q in &test.queries {
            // IMPR is restricted to 3-5-node queries
            if est.name().starts_with("IMPR") && !(3..=5).contains(&q.size()) {
                continue;
            }
            total += 1;
            let e = est.estimate(&q.graph, &mut erng);
            if e.failed {
                failures += 1;
            }
            pairs.push((q.count as f64, e.clamped()));
        }
        if total == 0 {
            continue;
        }
        let ms = t0.elapsed().as_secs_f64() * 1000.0 / total as f64;
        let s = QErrorStats::from_pairs(&pairs).expect("non-empty");
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>12.1} {:>10.0} {:>10.3}",
            est.name(),
            s.median,
            s.geo_mean,
            s.max,
            100.0 * failures as f64 / total as f64,
            ms
        );
    }
    println!("\n(BS is a guaranteed upper bound — large q-error by design; CSET/SumRDF");
    println!("underestimate via independence/uniformity; samplers fail on selective queries)");
}
