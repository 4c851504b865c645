//! The serving path extends the workspace determinism contract: the same
//! checkpoint + query must produce a bit-identical estimate at any
//! `--threads` setting and any batch size, on both the model path and the
//! degraded fallback path. Companion to `alss-core`'s determinism suite
//! (which CI runs under an `ALSS_THREADS` matrix).

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "test code: a panic IS the failure report, and fixtures are tiny"
)]

use alss_core::{LabeledQuery, LearnedSketch, Parallelism, SketchConfig, Workload};
use alss_graph::builder::graph_from_edges;
use alss_graph::io::to_text;
use alss_graph::Graph;
use alss_serve::{BatchConfig, Client, ServeConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn data_graph() -> Graph {
    graph_from_edges(&[0, 0, 1, 1, 2], &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
}

fn fixtures(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("alss-serve-det-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = data_graph();
    let graph_path = dir.join("graph.txt");
    std::fs::write(&graph_path, to_text(&data)).unwrap();
    let queries = [
        (vec![0u32, 0], vec![(0u32, 1u32)], 10u64),
        (vec![0, 1], vec![(0, 1)], 100),
        (vec![0, 1, 2], vec![(0, 1), (1, 2)], 5_000),
        (vec![0, 0, 1], vec![(0, 1), (1, 2)], 1_000),
    ]
    .into_iter()
    .map(|(l, e, c)| LabeledQuery::new(graph_from_edges(&l, &e), c))
    .collect();
    let (sketch, _) = LearnedSketch::train(
        &data,
        &Workload::from_queries(queries),
        &SketchConfig::tiny(),
    );
    let sketch_path = dir.join("sketch.json");
    sketch.save(&sketch_path).unwrap();
    (graph_path, sketch_path)
}

fn query_set() -> Vec<String> {
    [
        (vec![0u32, 0], vec![(0u32, 1u32)]),
        (vec![0, 1], vec![(0, 1)]),
        (vec![1, 2], vec![(0, 1)]),
        (vec![0, 0, 1], vec![(0, 1), (1, 2)]),
        (vec![0, 1, 2], vec![(0, 1), (1, 2)]),
        (vec![2, 2, 1], vec![(0, 1), (1, 2)]),
    ]
    .into_iter()
    .map(|(l, e)| to_text(&graph_from_edges(&l, &e)))
    .collect()
}

/// Serve the fixture at a given thread count / batch size and return the
/// bit patterns of every answer: model answers first, then degraded
/// (deadline-0) answers for a disjoint id range.
fn answer_bits(graph: &Path, sketch: &Path, threads: usize, batch: usize) -> Vec<u64> {
    let cfg = ServeConfig {
        data_path: graph.to_path_buf(),
        model_path: Some(sketch.to_path_buf()),
        batch: BatchConfig {
            batch_size: batch,
            parallelism: Parallelism::fixed(threads),
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = alss_serve::serve(&cfg).unwrap();
    let mut client = Client::connect(&handle.addr.to_string(), Duration::from_secs(5)).unwrap();
    let mut bits = Vec::new();
    for (i, q) in query_set().iter().enumerate() {
        let resp = client.estimate(i as u64, q, None).unwrap();
        assert!(resp.ok && !resp.degraded, "{}", resp.error);
        bits.push(resp.log10.to_bits());
        bits.push(resp.magnitude_class);
    }
    // Fresh structures for the fallback path (must miss the cache).
    for (i, (l, e)) in [
        (vec![2u32, 0], vec![(0u32, 1u32)]),
        (vec![1, 1, 0], vec![(0, 1), (1, 2)]),
    ]
    .into_iter()
    .enumerate()
    {
        let q = to_text(&graph_from_edges(&l, &e));
        let resp = client.estimate(100 + i as u64, &q, Some(0)).unwrap();
        assert!(resp.ok && resp.degraded, "{}", resp.error);
        bits.push(resp.log10.to_bits());
    }
    handle.stop();
    handle.join();
    bits
}

#[test]
fn estimates_are_bit_identical_across_thread_counts_and_batch_sizes() {
    let (graph, sketch) = fixtures("threads");
    let baseline = answer_bits(&graph, &sketch, 1, 1);
    for (threads, batch) in [(2, 4), (4, 16)] {
        let got = answer_bits(&graph, &sketch, threads, batch);
        assert_eq!(
            got, baseline,
            "serving diverges at threads={threads} batch={batch}"
        );
    }
}
