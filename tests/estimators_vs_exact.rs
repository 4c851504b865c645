//! Cross-crate checks of every baseline estimator against the exact
//! engine on generated datasets and extracted queries.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::float_cmp,
    reason = "test code: a panic IS the failure report, and fixtures are tiny"
)]
use alss::datasets::by_name;
use alss::datasets::queries::unlabeled_pool;
use alss::estimators::{
    BoundSketch, CardinalityEstimator, CharacteristicSets, CorrelatedSampling, Impr, JSub,
    LabelIndex, SumRdf, WanderJoin,
};
use alss::graph::Graph;
use alss::matching::{count_homomorphisms, count_isomorphisms, Budget};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn data() -> Graph {
    by_name("yeast", 0.1, 7).expect("dataset")
}

fn queries(data: &Graph) -> Vec<Graph> {
    unlabeled_pool(data, &[3, 4, 5], 8, 0.1, 9)
}

#[test]
fn all_estimators_return_finite_nonnegative_counts() {
    let d = data();
    let idx = LabelIndex::new(&d);
    let cset = CharacteristicSets::new(&d);
    let sumrdf = SumRdf::new(&d);
    let impr = Impr::new(&d, 100, 10);
    let cs = CorrelatedSampling::new(&d, 0.4, 5, 20_000_000);
    let wj = WanderJoin::new(&idx, 300);
    let jsub = JSub::new(&idx, 300);
    let bs = BoundSketch::new(&d);
    let all: Vec<&dyn CardinalityEstimator> = vec![&cset, &sumrdf, &impr, &cs, &wj, &jsub, &bs];
    let mut rng = SmallRng::seed_from_u64(0);
    for q in queries(&d) {
        for est in &all {
            if est.name().starts_with("IMPR") && !(3..=5).contains(&q.num_nodes()) {
                continue;
            }
            let e = est.estimate(&q, &mut rng);
            assert!(
                e.count.is_finite() && e.count >= 0.0,
                "{}: bad estimate {:?}",
                est.name(),
                e
            );
            if e.failed {
                assert_eq!(e.count, 0.0, "{}: failure must report 0", est.name());
            }
        }
    }
}

#[test]
fn bound_sketch_upper_bounds_every_query() {
    let d = data();
    let bs = BoundSketch::new(&d);
    let mut rng = SmallRng::seed_from_u64(1);
    for q in queries(&d) {
        let truth = count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap() as f64;
        let e = bs.estimate(&q, &mut rng);
        assert!(
            e.count + 1e-6 >= truth,
            "BS {} must upper-bound truth {truth}",
            e.count
        );
    }
}

#[test]
fn jsub_upper_bounds_wj_target_on_cyclic_queries() {
    // JSUB estimates the acyclic relaxation, whose true count upper-bounds
    // the cyclic query's true count.
    let d = data();
    for q in queries(&d) {
        if q.num_edges() < q.num_nodes() {
            continue; // acyclic: relaxation is the query itself
        }
        let tree = JSub::acyclic_subquery(&q);
        let c_tree = count_homomorphisms(&d, &tree, &Budget::unlimited()).unwrap();
        let c_full = count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap();
        assert!(c_tree >= c_full, "tree {c_tree} < cyclic {c_full}");
    }
}

#[test]
fn wander_join_converges_to_truth_on_simple_queries() {
    let d = data();
    let idx = LabelIndex::new(&d);
    let wj = WanderJoin::new(&idx, 30_000);
    let mut rng = SmallRng::seed_from_u64(2);
    let mut checked = 0;
    for q in unlabeled_pool(&d, &[3], 5, 1.0, 11) {
        // fully-wildcard 3-node queries: abundant matches, low variance
        let truth = count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap() as f64;
        if truth < 100.0 {
            continue;
        }
        let e = wj.estimate(&q, &mut rng);
        assert!(!e.failed);
        let ratio = e.count / truth;
        assert!(
            (0.5..2.0).contains(&ratio),
            "WJ {} vs truth {truth} (ratio {ratio})",
            e.count
        );
        checked += 1;
    }
    assert!(checked > 0, "no queries exercised");
}

#[test]
fn iso_estimates_track_iso_counts_not_hom() {
    let d = data();
    let idx = LabelIndex::new(&d);
    let wj_iso = WanderJoin::new_isomorphism(&idx, 20_000);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut checked = 0;
    for q in unlabeled_pool(&d, &[3], 5, 1.0, 13) {
        let iso = count_isomorphisms(&d, &q, &Budget::unlimited()).unwrap() as f64;
        if iso < 100.0 {
            continue;
        }
        let e = wj_iso.estimate(&q, &mut rng);
        assert!(!e.failed);
        let ratio = e.count / iso;
        assert!(
            (0.4..2.5).contains(&ratio),
            "WJ-iso {} vs iso truth {iso}",
            e.count
        );
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn selective_labels_cause_sampling_failure() {
    // a query whose label combination never occurs adjacently
    let d = data();
    let idx = LabelIndex::new(&d);
    // find two labels never adjacent in the data graph
    let mut adjacent = std::collections::HashSet::new();
    for e in d.edges() {
        let (a, b) = (d.label(e.u), d.label(e.v));
        adjacent.insert((a.min(b), a.max(b)));
    }
    let k = d.num_node_labels() as u32;
    let mut found = None;
    'outer: for a in 0..k {
        for b in a..k {
            if !adjacent.contains(&(a, b)) {
                found = Some((a, b));
                break 'outer;
            }
        }
    }
    let Some((a, b)) = found else {
        return; // dense label co-occurrence; nothing to test
    };
    let q = alss::graph::builder::graph_from_edges(&[a, b], &[(0, 1)]);
    let wj = WanderJoin::new(&idx, 200);
    let mut rng = SmallRng::seed_from_u64(4);
    let e = wj.estimate(&q, &mut rng);
    assert!(e.failed, "impossible label pair must fail sampling");
}
