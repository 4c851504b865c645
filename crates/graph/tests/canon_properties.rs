//! Property tests for canonical query hashing: the hash must be invariant
//! under node permutations (isomorphic re-numberings), and structurally
//! distinct queries must essentially never share a key.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code: a panic IS the failure report, and fixtures are tiny"
)]

use alss_graph::canon::{canonical_hash, canonical_key};
use alss_graph::{Graph, GraphBuilder, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Rebuild `g` with node `v` renamed to `perm[v]` (labels, extra labels,
/// and edge labels carried along) — an explicit isomorphism.
fn permuted(g: &Graph, perm: &[NodeId]) -> Graph {
    let mut b = GraphBuilder::new(g.num_nodes());
    for v in g.nodes() {
        b.set_label(perm[v as usize], g.label(v));
        for &extra in g.extra_labels(v) {
            b.add_extra_label(perm[v as usize], extra);
        }
    }
    for e in g.edges() {
        let (u, v) = (perm[e.u as usize], perm[e.v as usize]);
        if e.label == alss_graph::WILDCARD {
            b.add_edge(u, v);
        } else {
            b.add_labeled_edge(u, v, e.label);
        }
    }
    b.build()
}

fn random_permutation(n: usize, rng: &mut SmallRng) -> Vec<NodeId> {
    let mut perm: Vec<NodeId> = (0..n as u32).collect();
    // Fisher-Yates
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (1usize..=9).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u32..4, n),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 0u32..3), 0..=2 * n),
            proptest::collection::vec(0u32..3, n),
        )
            .prop_map(move |(labels, edges, extras)| {
                let mut b = GraphBuilder::new(n);
                b.set_labels(&labels);
                for (v, &x) in extras.iter().enumerate() {
                    // sparse extra labels: only on every third node
                    if v % 3 == 0 && x != labels[v] {
                        b.add_extra_label(v as u32, x);
                    }
                }
                for (u, v, l) in edges {
                    if u != v && !b.has_edge(u, v) {
                        b.add_labeled_edge(u, v, l);
                    }
                }
                b.build()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any node renumbering of a query hashes identically.
    #[test]
    fn node_permutations_hash_identically(g in arbitrary_graph(), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..4 {
            let perm = random_permutation(g.num_nodes(), &mut rng);
            let h = permuted(&g, &perm);
            prop_assert_eq!(canonical_key(&g), canonical_key(&h));
        }
    }

    /// Graphs whose cheap structural invariants differ (label multiset,
    /// degree sequence, node/edge counts) must never share a hash: these
    /// pairs are guaranteed non-isomorphic, so a shared hash would be a
    /// genuine cache-poisoning collision.
    #[test]
    fn distinct_structures_do_not_collide(a in arbitrary_graph(), b in arbitrary_graph()) {
        let mut la: Vec<u32> = a.node_labels().to_vec();
        let mut lb: Vec<u32> = b.node_labels().to_vec();
        la.sort_unstable();
        lb.sort_unstable();
        let mut da: Vec<usize> = a.nodes().map(|v| a.degree(v)).collect();
        let mut db: Vec<usize> = b.nodes().map(|v| b.degree(v)).collect();
        da.sort_unstable();
        db.sort_unstable();
        let structurally_distinct = la != lb
            || da != db
            || a.num_nodes() != b.num_nodes()
            || a.num_edges() != b.num_edges();
        if structurally_distinct {
            prop_assert_ne!(canonical_hash(&a), canonical_hash(&b));
        }
    }
}

/// Deterministic sweep: every pair in a family of small structurally
/// distinct queries gets a distinct key (collision rate ~0 in practice).
#[test]
fn small_query_family_is_collision_free() {
    let mut family: Vec<Graph> = Vec::new();
    // paths, stars, cycles, triangles with varied label patterns
    for labels in [
        vec![0u32, 0, 0],
        vec![0, 0, 1],
        vec![0, 1, 0],
        vec![0, 1, 2],
        vec![1, 1, 1],
    ] {
        family.push(alss_graph::builder::graph_from_edges(
            &labels,
            &[(0, 1), (1, 2)],
        ));
        family.push(alss_graph::builder::graph_from_edges(
            &labels,
            &[(0, 1), (1, 2), (0, 2)],
        ));
    }
    for labels in [vec![0u32, 0, 0, 0], vec![0, 1, 0, 1], vec![0, 1, 2, 0]] {
        family.push(alss_graph::builder::graph_from_edges(
            &labels,
            &[(0, 1), (1, 2), (2, 3)],
        ));
        family.push(alss_graph::builder::graph_from_edges(
            &labels,
            &[(0, 1), (0, 2), (0, 3)],
        ));
        family.push(alss_graph::builder::graph_from_edges(
            &labels,
            &[(0, 1), (1, 2), (2, 3), (0, 3)],
        ));
    }
    // `graph_from_edges` numbering vs canonical form: dedupe true
    // isomorphic duplicates first (0,1,0 path == 0,1,0 reversed etc.)
    let mut keys: Vec<(usize, u64)> = Vec::new();
    for (i, g) in family.iter().enumerate() {
        keys.push((i, canonical_hash(g)));
    }
    for (i, (ia, ha)) in keys.iter().enumerate() {
        for (ib, hb) in keys.iter().skip(i + 1) {
            let (a, b) = (&family[*ia], &family[*ib]);
            let mut la: Vec<u32> = a.node_labels().to_vec();
            let mut lb: Vec<u32> = b.node_labels().to_vec();
            la.sort_unstable();
            lb.sort_unstable();
            let same_shape =
                a.num_nodes() == b.num_nodes() && a.num_edges() == b.num_edges() && la == lb;
            if !same_shape {
                assert_ne!(ha, hb, "graphs {ia} and {ib} collide");
            }
        }
    }
}
