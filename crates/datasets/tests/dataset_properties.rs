//! Property tests over the synthetic-dataset generators and workload
//! machinery.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code: a panic IS the failure report, and fixtures are tiny"
)]

use alss_datasets::queries::{generate_workload, unlabeled_pool, WorkloadSpec};
use alss_datasets::zipf::{calibrate_exponent, entropy_of, zipf_probs};
use alss_datasets::{all_specs, by_name};
use alss_matching::{count_homomorphisms, Budget, Semantics};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn zipf_probs_are_a_distribution(k in 1usize..200, s in 0.0f64..5.0) {
        let p = zipf_probs(k, s);
        prop_assert_eq!(p.len(), k);
        let total: f64 = p.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| x >= 0.0));
        // monotone non-increasing
        prop_assert!(p.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn calibration_is_accurate_within_range(k in 3usize..100, frac in 0.1f64..0.95) {
        let target = frac * (k as f64).ln();
        let s = calibrate_exponent(k, target);
        let achieved = entropy_of(&zipf_probs(k, s));
        prop_assert!((achieved - target).abs() < 0.02, "target {} got {}", target, achieved);
    }

    #[test]
    fn generated_workload_counts_are_correct(seed in 0u64..20) {
        let data = by_name("yeast", 0.05, seed).unwrap();
        let w = generate_workload(
            &data,
            &WorkloadSpec {
                sizes: vec![3],
                per_size: 4,
                semantics: Semantics::Homomorphism,
                budget_per_query: 2_000_000,
                wildcard_prob: 0.0,
                induced: false,
                seed,
            },
        );
        for q in &w.queries {
            let truth = count_homomorphisms(&data, &q.graph, &Budget::unlimited()).unwrap();
            prop_assert_eq!(q.count, truth, "stored count mismatches recount");
        }
    }

    #[test]
    fn pools_contain_connected_subgraphs_of_requested_sizes(seed in 0u64..20) {
        let data = by_name("aids", 0.02, seed).unwrap();
        for q in unlabeled_pool(&data, &[3, 4], 5, 0.2, seed) {
            prop_assert!(q.is_connected());
            prop_assert!(q.num_nodes() == 3 || q.num_nodes() == 4);
        }
    }
}

#[test]
fn all_dataset_specs_scale_monotonically() {
    let small = all_specs(0.05);
    let large = all_specs(0.2);
    for (s, l) in small.iter().zip(&large) {
        assert_eq!(s.name, l.name);
        assert!(s.nodes <= l.nodes, "{}: {} > {}", s.name, s.nodes, l.nodes);
    }
}

#[test]
fn every_dataset_generates_connected_enough_graphs() {
    // not necessarily fully connected, but the largest component should be
    // substantial for every family except the molecule forest
    for spec in all_specs(0.05) {
        let g = alss_datasets::generate(&spec, 9);
        let mut seen = vec![false; g.num_nodes()];
        let mut best = 0usize;
        for start in g.nodes() {
            if seen[start as usize] {
                continue;
            }
            let mut stack = vec![start];
            seen[start as usize] = true;
            let mut size = 0;
            while let Some(v) = stack.pop() {
                size += 1;
                for &u in g.neighbors(v) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        stack.push(u);
                    }
                }
            }
            best = best.max(size);
        }
        let frac = best as f64 / g.num_nodes() as f64;
        let floor = if spec.name == "aids" { 0.005 } else { 0.5 };
        assert!(
            frac >= floor,
            "{}: largest component only {:.1}%",
            spec.name,
            frac * 100.0
        );
    }
}
