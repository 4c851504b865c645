//! Request traffic for the serve phase, generated from the workload seed.

use alss_graph::extract::{extract_query, ExtractOptions};
use alss_graph::io::to_text;
use alss_graph::{canonical_key, CanonicalKey, Graph, GraphBuilder};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// One request the client will send: which query, in which numbering, and
/// whether it carries `deadline_ms:0`.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Index of the query in the workload's query set.
    pub query: usize,
    /// Query text in `alss_graph::io` format, as sent.
    pub text: String,
    /// Node count of the query.
    pub nodes: u32,
    /// Whether the request carries `deadline_ms:0` (forced fallback).
    pub deadline0: bool,
}

/// Extraction options shared by every generated query (those of the
/// library's workload generator).
pub fn extract_options() -> ExtractOptions {
    ExtractOptions {
        induced: false,
        extra_edge_prob: 0.4,
        wildcard_prob: 0.0,
        drop_edge_labels: false,
    }
}

/// `count` connected queries of the given sizes (round-robin), pairwise
/// distinct under `canonical_key` and distinct from `exclude`.
pub fn distinct_queries(
    data: &Graph,
    sizes: &[usize],
    count: usize,
    exclude: &mut HashSet<CanonicalKey>,
    rng: &mut SmallRng,
) -> Vec<Graph> {
    let opts = extract_options();
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 50 {
        let size = sizes[attempts % sizes.len()];
        attempts += 1;
        if let Some(q) = extract_query(data, size, &opts, rng) {
            if exclude.insert(canonical_key(&q)) {
                out.push(q);
            }
        }
    }
    out
}

/// The same query under a uniformly random renumbering of its nodes.
pub fn renumber(g: &Graph, rng: &mut SmallRng) -> Graph {
    let n = g.num_nodes();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(rng);
    let mut b = GraphBuilder::new(n);
    for v in g.nodes() {
        let p = perm[v as usize];
        b.set_label(p, g.label(v));
        for &extra in g.extra_labels(v) {
            b.add_extra_label(p, extra);
        }
    }
    for e in g.edges() {
        b.add_labeled_edge(perm[e.u as usize], perm[e.v as usize], e.label);
    }
    b.build()
}

/// Spec for query `idx` of `queries`, optionally renumbered.
pub fn spec(
    queries: &[Graph],
    idx: usize,
    renumbered: bool,
    deadline0: bool,
    rng: &mut SmallRng,
) -> Spec {
    let g = &queries[idx];
    let text = if renumbered {
        to_text(&renumber(g, rng))
    } else {
        to_text(g)
    };
    Spec {
        query: idx,
        text,
        nodes: u32::try_from(g.num_nodes()).unwrap_or(u32::MAX),
        deadline0,
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Weights `1 / (rank + 1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let x = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len().saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alss_graph::builder::graph_from_edges;
    use rand::SeedableRng;

    #[test]
    fn renumbering_keeps_the_canonical_key() {
        let g = graph_from_edges(&[0, 1, 2, 1], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            let r = renumber(&g, &mut rng);
            assert_eq!(canonical_key(&r), canonical_key(&g));
            assert_eq!(r.num_edges(), g.num_edges());
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(64, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut hits = [0usize; 64];
        for _ in 0..10_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[10]);
        assert!(hits.iter().all(|&h| h < 10_000));
    }
}
