//! Property tests for the LP machinery: the fractional edge cover against
//! a brute-force integral cover, and AGM-bound invariants.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code: a panic IS the failure report, and fixtures are tiny"
)]

use alss_ghd::cover::{agm_bound, fractional_edge_cover};
use alss_ghd::enumerate::{enumerate_ghds, is_alpha_acyclic};
use alss_graph::{Graph, GraphBuilder, WILDCARD};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn connected_graph(max_nodes: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_nodes).prop_flat_map(|n| {
        (
            proptest::collection::vec(1u32..n.max(2) as u32, n - 1),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..=n),
        )
            .prop_map(move |(spine, extra)| {
                let mut b = GraphBuilder::new(n);
                for v in 0..n as u32 {
                    b.set_label(v, WILDCARD);
                }
                for (i, r) in spine.iter().enumerate() {
                    let child = (i + 1) as u32;
                    b.add_edge(r % child, child);
                }
                for (u, v) in extra {
                    if u != v {
                        b.add_edge(u, v);
                    }
                }
                b.build()
            })
    })
}

/// Brute-force minimum *integral* edge cover size (exponential; graphs are
/// tiny).
fn min_integral_cover(g: &Graph) -> Option<usize> {
    let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.u, e.v)).collect();
    let m = edges.len();
    if m == 0 || m > 12 {
        return None;
    }
    let mut best = None;
    'mask: for mask in 1u32..(1 << m) {
        let mut covered = vec![false; g.num_nodes()];
        for (i, &(u, v)) in edges.iter().enumerate() {
            if mask & (1 << i) != 0 {
                covered[u as usize] = true;
                covered[v as usize] = true;
            }
        }
        for c in &covered {
            if !c {
                continue 'mask;
            }
        }
        let size = mask.count_ones() as usize;
        if best.is_none_or(|b| size < b) {
            best = Some(size);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fractional_cover_bounded_by_integral_cover(g in connected_graph(6)) {
        let (rho, x) = fractional_edge_cover(&g).expect("connected graph");
        // every vertex covered
        let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.u, e.v)).collect();
        for v in g.nodes() {
            let cov: f64 = edges
                .iter()
                .zip(&x)
                .filter(|(&(a, b), _)| a == v || b == v)
                .map(|(_, &xi)| xi)
                .sum();
            prop_assert!(cov >= 1.0 - 1e-6, "vertex {} uncovered: {}", v, cov);
        }
        // ρ* ≤ integral cover, and ≥ n/2 (each edge covers ≤ 2 vertices)
        if let Some(int_cover) = min_integral_cover(&g) {
            prop_assert!(rho <= int_cover as f64 + 1e-6);
        }
        prop_assert!(rho >= g.num_nodes() as f64 / 2.0 - 1e-6);
    }

    #[test]
    fn agm_bound_monotone_in_relation_sizes(g in connected_graph(5)) {
        let m = g.num_edges();
        let small = vec![10.0; m];
        let large = vec![1000.0; m];
        let b_small = agm_bound(&g, &small).expect("solvable");
        let b_large = agm_bound(&g, &large).expect("solvable");
        prop_assert!(b_small <= b_large + 1e-6);
    }

    #[test]
    fn agm_uniform_equals_rho_power(g in connected_graph(5)) {
        let n = 100.0f64;
        let m = g.num_edges();
        let (rho, _) = fractional_edge_cover(&g).expect("connected");
        let bound = agm_bound(&g, &vec![n; m]).expect("solvable");
        let expect = n.powf(rho);
        prop_assert!(
            (bound - expect).abs() / expect < 1e-4,
            "bound {} vs N^rho {}", bound, expect
        );
    }

    #[test]
    fn every_enumerated_ghd_is_acyclic_over_bags(g in connected_graph(5)) {
        if g.num_edges() > 8 {
            return Ok(()); // keep enumeration fast
        }
        for d in enumerate_ghds(&g, 3) {
            let sets: Vec<BTreeSet<u32>> = d
                .bags
                .iter()
                .map(|b| b.nodes.iter().copied().collect())
                .collect();
            prop_assert!(is_alpha_acyclic(&sets));
        }
    }
}
