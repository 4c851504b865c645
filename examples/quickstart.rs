//! Quickstart: train a learned sketch on a small synthetic data graph and
//! compare its estimates against exact counts and a sampling baseline.
//!
//! Run: `cargo run --release --example quickstart`

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example prints its results and aborts on a broken fixture"
)]

use alss::core::{LearnedSketch, QErrorStats, SketchConfig};
use alss::datasets::queries::WorkloadSpec;
use alss::datasets::{by_name, generate_workload};
use alss::estimators::{CardinalityEstimator, LabelIndex, WanderJoin};
use alss::matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // 1. A synthetic analogue of the paper's yeast dataset (Table 2).
    let data = by_name("yeast", 0.2, 0).expect("known dataset");
    println!(
        "data graph: {} nodes, {} edges, {} labels",
        data.num_nodes(),
        data.num_edges(),
        data.num_node_labels()
    );

    // 2. A labeled workload: random connected query graphs with exact
    //    homomorphism counts (Table 3).
    let workload = generate_workload(
        &data,
        &WorkloadSpec {
            sizes: vec![3, 4, 6],
            per_size: 40,
            semantics: Semantics::Homomorphism,
            ..Default::default()
        },
    );
    println!("workload: {} labeled queries", workload.len());

    // 3. Train / test split and sketch training (LSS, §4).
    let mut rng = SmallRng::seed_from_u64(1);
    let (train, test) = workload.stratified_split(0.8, &mut rng);
    let mut cfg = SketchConfig::tiny();
    cfg.model = alss::core::LssConfig {
        hidden: 32,
        gnn_layers: 2,
        dropout: 0.0,
        att_hidden: 32,
        att_heads: 2,
        mlp_hidden: 32,
        num_classes: 12,
        lambda: 1.0 / 3.0,
        ..Default::default()
    };
    cfg.train = alss::core::TrainConfig::quick(100);
    let (sketch, report) = LearnedSketch::train(&data, &train, &cfg);
    println!(
        "trained {} weights in {:.2}s ({} epochs, final loss {:.3})",
        sketch.model().num_weights(),
        report.duration.as_secs_f64(),
        report.epoch_losses.len(),
        report.epoch_losses.last().copied().unwrap_or(f64::NAN)
    );

    // 4. Evaluate on held-out queries and compare with Wander Join.
    let eval_pairs = |name: &str, pairs: Vec<(f64, f64)>| {
        let stats = QErrorStats::from_pairs(&pairs).expect("non-empty test set");
        println!("{name:8} {}", stats.render());
    };
    let lss_pairs: Vec<(f64, f64)> = test
        .queries
        .iter()
        .map(|q| (q.count as f64, sketch.estimate(&q.graph)))
        .collect();

    let idx = LabelIndex::new(&data);
    let wj = WanderJoin::new(&idx, 1000);
    let mut wj_rng = SmallRng::seed_from_u64(2);
    let wj_pairs: Vec<(f64, f64)> = test
        .queries
        .iter()
        .map(|q| {
            let e = wj.estimate(&q.graph, &mut wj_rng);
            (q.count as f64, e.count.max(1.0))
        })
        .collect();

    println!("\nq-error on {} held-out queries:", test.len());
    eval_pairs("LSS", lss_pairs);
    eval_pairs("WJ", wj_pairs);

    // 5. Estimate one ad-hoc query.
    let q = &test.queries[0];
    println!(
        "\nexample query ({} nodes): true count {}, LSS estimate {:.0}",
        q.size(),
        q.count,
        sketch.estimate(&q.graph)
    );
}
