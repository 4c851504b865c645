//! Property tests over the baseline estimators: summary-based estimators
//! are exact on the structures they model, samplers are unbiased where
//! analysis says so, and all estimators degrade gracefully.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code: a panic IS the failure report, and fixtures are tiny"
)]

use alss_estimators::{
    BoundSketch, CardinalityEstimator, CharacteristicSets, CorrelatedSampling, JSub, LabelIndex,
    SumRdf, WanderJoin,
};
use alss_graph::{Graph, GraphBuilder};
use alss_matching::{count_homomorphisms, Budget};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn labeled_graph() -> impl Strategy<Value = Graph> {
    (4usize..=12).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u32..3, n),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32), n..=3 * n),
        )
            .prop_map(move |(labels, edges)| {
                let mut b = GraphBuilder::new(n);
                b.set_labels(&labels);
                for (u, v) in edges {
                    if u != v {
                        b.add_edge(u, v);
                    }
                }
                b.build()
            })
    })
}

fn path_query(labels: &[u32]) -> Graph {
    let edges: Vec<(u32, u32)> = (1..labels.len() as u32).map(|i| (i - 1, i)).collect();
    let mut b = GraphBuilder::new(labels.len());
    b.set_labels(labels);
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sumrdf_exact_on_single_edge_queries(d in labeled_graph(), l1 in 0u32..3, l2 in 0u32..3) {
        let s = SumRdf::new(&d);
        let q = path_query(&[l1, l2]);
        let truth = count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap() as f64;
        let mut rng = SmallRng::seed_from_u64(0);
        let est = s.estimate(&q, &mut rng).count;
        // single-edge estimates are exact by construction of the summary
        prop_assert!((est - truth).abs() < 1e-6 * truth.max(1.0) + 1e-6,
            "SumRDF {} vs truth {}", est, truth);
    }

    #[test]
    fn cset_exact_on_single_edge_queries(d in labeled_graph(), l1 in 0u32..3, l2 in 0u32..3) {
        let cs = CharacteristicSets::new(&d);
        let q = path_query(&[l1, l2]);
        let truth = count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap() as f64;
        let mut rng = SmallRng::seed_from_u64(0);
        let est = cs.estimate(&q, &mut rng).count;
        prop_assert!((est - truth).abs() < 1e-6 * truth.max(1.0) + 1e-6,
            "CSET {} vs truth {}", est, truth);
    }

    #[test]
    fn bound_sketch_upper_bounds(d in labeled_graph(), l1 in 0u32..3, l2 in 0u32..3, l3 in 0u32..3) {
        let bs = BoundSketch::new(&d);
        let mut rng = SmallRng::seed_from_u64(1);
        for q in [path_query(&[l1, l2]), path_query(&[l1, l2, l3])] {
            let truth = count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap() as f64;
            let e = bs.estimate(&q, &mut rng);
            prop_assert!(e.count + 1e-6 >= truth, "BS {} < {}", e.count, truth);
        }
    }

    #[test]
    fn wj_zero_iff_failed(d in labeled_graph(), l1 in 0u32..3, l2 in 0u32..3) {
        let idx = LabelIndex::new(&d);
        let wj = WanderJoin::new(&idx, 400);
        let mut rng = SmallRng::seed_from_u64(2);
        let e = wj.estimate(&path_query(&[l1, l2]), &mut rng);
        prop_assert_eq!(e.failed, e.count == 0.0);
    }

    #[test]
    fn cs_full_probability_is_exact(d in labeled_graph(), l1 in 0u32..3, l2 in 0u32..3) {
        let cs = CorrelatedSampling::new(&d, 1.0, 3, 1_000_000_000);
        let q = path_query(&[l1, l2]);
        let truth = count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap() as f64;
        let mut rng = SmallRng::seed_from_u64(3);
        let e = cs.estimate(&q, &mut rng);
        if truth == 0.0 {
            prop_assert!(e.failed);
        } else {
            prop_assert!((e.count - truth).abs() < 1e-6);
        }
    }

    #[test]
    fn jsub_tree_extraction_preserves_nodes_and_labels(d in labeled_graph()) {
        // any connected query: the acyclic subquery keeps all nodes/labels
        let q = path_query(&[0, 1, 2]);
        let t = JSub::acyclic_subquery(&q);
        prop_assert_eq!(t.num_nodes(), q.num_nodes());
        for v in q.nodes() {
            prop_assert_eq!(t.label(v), q.label(v));
        }
        let _ = d;
    }
}

/// WJ is (approximately) unbiased: averaging many independent estimates
/// approaches the true count on an abundant query.
#[test]
fn wj_mean_of_estimates_approaches_truth() {
    let mut b = GraphBuilder::new(12);
    for v in 0..12 {
        b.set_label(v, v % 2);
    }
    for u in 0..12u32 {
        for v in (u + 1)..12 {
            if (u + v) % 3 != 0 {
                b.add_edge(u, v);
            }
        }
    }
    let d = b.build();
    let idx = LabelIndex::new(&d);
    let q = path_query(&[0, 1, 0]);
    let truth = count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap() as f64;
    assert!(truth > 0.0);
    let wj = WanderJoin::new(&idx, 2000);
    let mut total = 0.0;
    let runs = 20;
    for seed in 0..runs {
        let mut rng = SmallRng::seed_from_u64(seed);
        total += wj.estimate(&q, &mut rng).count;
    }
    let mean = total / runs as f64;
    let rel = (mean - truth).abs() / truth;
    assert!(rel < 0.1, "WJ mean {mean} vs truth {truth} (rel {rel})");
}
