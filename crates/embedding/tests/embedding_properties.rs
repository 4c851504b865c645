//! Property tests for the embedding pipelines: output validity across
//! random graphs, spectral-operator invariants, and walk correctness.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code: a panic IS the failure report, and fixtures are tiny"
)]

use alss_embedding::prone::{bessel_j, prone, spectral_propagate, ProneConfig};
use alss_embedding::walks::{biased_walks, uniform_walks};
use alss_embedding::Embedding;
use alss_graph::{Graph, GraphBuilder};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (2usize..=20).prop_flat_map(|n| {
        proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 1..=3 * n).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(n);
                for v in 0..n as u32 {
                    b.set_label(v, 0);
                }
                for (u, v) in edges {
                    if u != v {
                        b.add_edge(u, v);
                    }
                }
                b.build()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prone_embeddings_are_finite_unit_rows(g in arbitrary_graph(), seed in 0u64..50) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = ProneConfig { dim: 4, ..Default::default() };
        let emb = prone(&g, &cfg, &mut rng);
        prop_assert_eq!(emb.len(), g.num_nodes());
        for v in 0..emb.len() {
            let norm: f32 = emb.vector(v).iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!(norm.is_finite());
            // propagation row-normalizes (or leaves a zero row)
            prop_assert!(norm < 1.0 + 1e-4);
        }
    }

    #[test]
    fn spectral_propagation_preserves_shape(g in arbitrary_graph(), dim in 1usize..5) {
        let n = g.num_nodes();
        let initial = Embedding::new(
            dim,
            (0..n * dim).map(|i| ((i * 37 % 11) as f32 - 5.0) / 5.0).collect(),
        );
        let out = spectral_propagate(&g, &initial, 6, 0.2, 0.5);
        prop_assert_eq!(out.len(), n);
        prop_assert_eq!(out.dim(), dim);
        for v in 0..n {
            prop_assert!(out.vector(v).iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn uniform_walks_only_traverse_edges(g in arbitrary_graph(), seed in 0u64..50) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for walk in uniform_walks(&g, 1, 6, &mut rng) {
            for w in walk.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn biased_walks_only_traverse_edges(g in arbitrary_graph(), seed in 0u64..50) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for walk in biased_walks(&g, 1, 6, 0.5, 2.0, &mut rng) {
            for w in walk.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn bessel_recurrence_holds(k in 1usize..8) {
        // J_{k-1}(x) + J_{k+1}(x) = (2k/x) J_k(x)
        let x = 0.7f64;
        let lhs = bessel_j(k - 1, x) + bessel_j(k + 1, x);
        let rhs = (2.0 * k as f64 / x) * bessel_j(k, x);
        prop_assert!((lhs - rhs).abs() < 1e-10, "{} vs {}", lhs, rhs);
    }
}
