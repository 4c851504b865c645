//! Integration of the GHD optimizer (§6.6) with the graph/matching/core
//! crates: decomposition validity, plan costing, and the oracle property
//! that a perfect cost estimator picks the true-cheapest plan.

#![allow(
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    clippy::float_cmp,
    reason = "test code: a panic IS the failure report, and fixtures are tiny"
)]
use alss::datasets::by_name;
use alss::datasets::queries::{assign_pattern_labels, unlabeled_patterns};
use alss::ghd::enumerate_ghds;
use alss::ghd::plan::{agm_cost, choose_plan, true_cost, RelationIndex};
use alss::graph::labels::LabelStats;
use alss::matching::{count_homomorphisms, Budget};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn decompositions_partition_query_edges() {
    let data = by_name("wordnet", 0.1, 0).expect("dataset");
    for pattern in unlabeled_patterns(&data, 4, 5, 1) {
        let decomps = enumerate_ghds(&pattern, 3);
        assert!(!decomps.is_empty());
        let m = pattern.num_edges();
        for d in &decomps {
            let mut covered = vec![false; m];
            for bag in &d.bags {
                for &e in &bag.edges {
                    assert!(!covered[e], "edge {e} in two bags");
                    covered[e] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "edges uncovered");
            // bag subqueries are connected and label-preserving
            for b in 0..d.bags.len() {
                let (bq, orig) = d.bag_query(&pattern, b);
                assert!(bq.is_connected());
                for v in bq.nodes() {
                    assert_eq!(bq.label(v), pattern.label(orig[v as usize]));
                }
            }
        }
    }
}

#[test]
fn oracle_estimator_achieves_minimum_true_cost() {
    let data = by_name("wordnet", 0.1, 2).expect("dataset");
    let stats = LabelStats::new(&data);
    let mut rng = SmallRng::seed_from_u64(3);
    let budget = Budget::unlimited();
    let mut exercised = 0;
    for pattern in unlabeled_patterns(&data, 4, 4, 5) {
        let q = assign_pattern_labels(&pattern, &stats, 2, &mut rng);
        let decomps = enumerate_ghds(&q, 3);
        if decomps.len() < 2 {
            continue;
        }
        // true cost of every plan
        let costs: Vec<u64> = decomps
            .iter()
            .map(|d| true_cost(&data, &q, d, &budget).expect("within budget"))
            .collect();
        let min_cost = *costs.iter().min().unwrap();
        // plan chosen with the exact counter as cost model
        let pick = choose_plan(&q, &decomps, |bq| {
            count_homomorphisms(&data, bq, &Budget::unlimited()).unwrap() as f64
        });
        assert_eq!(
            costs[pick.index], min_cost,
            "oracle estimator must pick a min-true-cost plan"
        );
        exercised += 1;
    }
    assert!(exercised > 0, "no multi-plan patterns exercised");
}

#[test]
fn agm_plan_cost_upper_bounds_true_cost() {
    let data = by_name("wordnet", 0.1, 4).expect("dataset");
    let stats = LabelStats::new(&data);
    let rel = RelationIndex::new(&data);
    let mut rng = SmallRng::seed_from_u64(5);
    let budget = Budget::unlimited();
    for pattern in unlabeled_patterns(&data, 4, 4, 7) {
        let q = assign_pattern_labels(&pattern, &stats, 3, &mut rng);
        let decomps = enumerate_ghds(&q, 3);
        for d in &decomps {
            // AGM bound per bag ≥ true bag count ⇒ max ≥ max
            let mut est = 0.0f64;
            for b in 0..d.bags.len() {
                let (bq, _) = d.bag_query(&q, b);
                est = est.max(agm_cost(&rel, &bq));
            }
            let truth = true_cost(&data, &q, d, &budget).unwrap() as f64;
            assert!(
                est + 1e-6 >= truth,
                "AGM plan cost {est} < true cost {truth}"
            );
        }
    }
}
