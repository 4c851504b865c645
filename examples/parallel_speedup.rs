//! Measure the data-parallel training speedup and verify the determinism
//! contract end-to-end: train the same model on a ≥200-query workload at
//! several thread counts, report wall-clock per configuration, and check
//! that epoch losses and final parameters are bit-identical throughout.
//!
//! Run: `cargo run --release --example parallel_speedup [-- <threads...>]`

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example prints its results and aborts on a broken fixture"
)]

use alss::core::train::{encode_workload_with, train_model, TrainConfig};
use alss::core::{Encoder, LssConfig, LssModel, Parallelism};
use alss::datasets::queries::WorkloadSpec;
use alss::datasets::{by_name, generate_workload};
use alss::matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn param_bits(model: &LssModel) -> Vec<u32> {
    let store = model.store();
    store
        .ids()
        .flat_map(|id| store.value(id).data().iter().map(|x| x.to_bits()))
        .collect()
}

fn main() {
    let thread_counts: Vec<usize> = {
        let args: Vec<usize> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if args.is_empty() {
            vec![1, 2, 4]
        } else {
            args
        }
    };

    let data = by_name("yeast", 0.2, 0).expect("known dataset");
    let workload = generate_workload(
        &data,
        &WorkloadSpec {
            sizes: vec![3, 4, 5, 6],
            per_size: 60,
            semantics: Semantics::Homomorphism,
            ..Default::default()
        },
    );
    println!("workload: {} labeled queries", workload.len());
    assert!(
        workload.len() >= 200,
        "speedup run needs a ≥200-query workload"
    );

    let enc = Encoder::frequency(&data, 3);
    let model_cfg = LssConfig {
        dropout: 0.2,
        ..LssConfig::tiny()
    };
    let items = encode_workload_with(&enc, &workload, Parallelism::auto());

    let mut baseline: Option<(f64, Vec<u64>, Vec<u32>)> = None;
    for &threads in &thread_counts {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut model = LssModel::new(model_cfg, enc.node_dim(), enc.edge_dim(), &mut rng);
        let cfg = TrainConfig {
            epochs: 10,
            parallelism: Parallelism::fixed(threads),
            ..TrainConfig::default()
        };
        let report = train_model(&mut model, &items, &cfg);
        let secs = report.duration.as_secs_f64();
        let loss_bits: Vec<u64> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
        let bits = param_bits(&model);
        match &baseline {
            None => {
                println!(
                    "threads={threads:>2}  {secs:>7.2}s  (baseline, final loss {:.4})",
                    report.epoch_losses.last().copied().unwrap_or(f64::NAN)
                );
                baseline = Some((secs, loss_bits, bits));
            }
            Some((base_secs, base_losses, base_bits)) => {
                let identical = *base_losses == loss_bits && *base_bits == bits;
                println!(
                    "threads={threads:>2}  {secs:>7.2}s  speedup {:.2}x  bit-identical: {identical}",
                    base_secs / secs
                );
                assert!(
                    identical,
                    "determinism contract violated at threads={threads}"
                );
            }
        }
    }
}
