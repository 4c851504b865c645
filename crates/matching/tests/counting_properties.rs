//! Property tests: the backtracking engine against a brute-force
//! reference counter that enumerates *all* `|V|^{|V_q|}` mappings.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code: a panic IS the failure report, and fixtures are tiny"
)]

use alss_graph::{label_matches, Graph, GraphBuilder, WILDCARD};
use alss_matching::{count_homomorphisms, count_isomorphisms, Budget};
use proptest::prelude::*;

/// Brute force: try every function `V_q → V`.
fn brute_force_count(data: &Graph, query: &Graph, injective: bool) -> u64 {
    let n = data.num_nodes();
    let k = query.num_nodes();
    if k == 0 {
        return 1;
    }
    let mut count = 0u64;
    let mut map = vec![0usize; k];
    'outer: loop {
        // check current mapping
        let ok = (0..k).all(|qv| label_matches(query.label(qv as u32), data.label(map[qv] as u32)))
            && query.edges().all(|e| {
                match data.edge_label(map[e.u as usize] as u32, map[e.v as usize] as u32) {
                    Some(dl) => label_matches(e.label, dl),
                    None => false,
                }
            })
            && (!injective || {
                let mut seen = std::collections::HashSet::new();
                map.iter().all(|&m| seen.insert(m))
            });
        if ok {
            count += 1;
        }
        // odometer increment
        for digit in map.iter_mut().take(k) {
            *digit += 1;
            if *digit < n {
                continue 'outer;
            }
            *digit = 0;
        }
        break;
    }
    count
}

fn small_graph(max_nodes: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (1usize..=max_nodes).prop_flat_map(move |n| {
        let max_edges = n * n;
        (
            proptest::collection::vec(0u32..labels, n),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..=max_edges),
        )
            .prop_map(move |(node_labels, edges)| {
                let mut b = GraphBuilder::new(n);
                b.set_labels(&node_labels);
                for (u, v) in edges {
                    if u != v {
                        b.add_edge(u, v);
                    }
                }
                b.build()
            })
    })
}

/// Connected query with 1..=3 nodes (brute force is |V|^3 at most).
fn small_query() -> impl Strategy<Value = Graph> {
    (1usize..=3, proptest::bool::ANY).prop_flat_map(|(k, wild)| {
        proptest::collection::vec(0u32..3, k).prop_map(move |mut labels| {
            if wild && !labels.is_empty() {
                labels[0] = WILDCARD;
            }
            let mut b = GraphBuilder::new(k);
            b.set_labels(&labels);
            for i in 1..k as u32 {
                b.add_edge(i - 1, i);
            }
            if k == 3 {
                b.add_edge(0, 2); // triangle
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engine_matches_brute_force_homomorphism(
        d in small_graph(6, 3),
        q in small_query(),
    ) {
        let expected = brute_force_count(&d, &q, false);
        let got = count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn engine_matches_brute_force_isomorphism(
        d in small_graph(6, 3),
        q in small_query(),
    ) {
        let expected = brute_force_count(&d, &q, true);
        let got = count_isomorphisms(&d, &q, &Budget::unlimited()).unwrap();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn budget_never_changes_successful_results(
        d in small_graph(6, 3),
        q in small_query(),
        budget in 1u64..2000,
    ) {
        // if the budgeted run completes, it must agree with unlimited
        let unlimited = count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap();
        if let Ok(c) = count_homomorphisms(&d, &q, &Budget::new(budget)) {
            prop_assert_eq!(c, unlimited);
        }
    }
}

#[test]
fn brute_force_reference_sanity() {
    // K3, single-edge query: 6 ordered homomorphisms, 6 injective
    let d = {
        let mut b = GraphBuilder::new(3);
        for v in 0..3 {
            b.set_label(v, 0);
        }
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        b.build()
    };
    let q = {
        let mut b = GraphBuilder::new(2);
        b.set_label(0, 0).set_label(1, 0);
        b.add_edge(0, 1);
        b.build()
    };
    assert_eq!(brute_force_count(&d, &q, false), 6);
    assert_eq!(brute_force_count(&d, &q, true), 6);
}
