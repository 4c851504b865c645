//! Query optimization with a learned cost model (§6.6): enumerate GHD
//! join plans for cyclic self-join queries and pick the cheapest —
//! costing bags either with the classical AGM bound or with the learned
//! sketch — then compare the *true* costs of the chosen plans.
//!
//! Run: `cargo run --release --example query_optimizer`

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example prints its results and aborts on a broken fixture"
)]

use alss::core::workload::{LabeledQuery, Workload};
use alss::core::{LearnedSketch, SketchConfig};
use alss::datasets::by_name;
use alss::datasets::queries::{assign_pattern_labels, unlabeled_patterns};
use alss::ghd::enumerate_ghds;
use alss::ghd::plan::{agm_cost, choose_plan, true_cost, RelationIndex};
use alss::graph::labels::LabelStats;
use alss::matching::{count_homomorphisms, Budget};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let data = by_name("wordnet", 0.3, 0).expect("known dataset");
    let stats = LabelStats::new(&data);
    let mut rng = SmallRng::seed_from_u64(5);

    // train the sketch on small random-labeled patterns
    let num_labels = alss::graph::label_id(data.num_node_labels());
    let mut train = Vec::new();
    for size in [3usize, 4] {
        for p in unlabeled_patterns(&data, size, 60, 11 + size as u64) {
            let mut b = alss::graph::GraphBuilder::new(p.num_nodes());
            for v in p.nodes() {
                b.set_label(v, rng.gen_range(0..num_labels));
            }
            for e in p.edges() {
                b.add_edge(e.u, e.v);
            }
            let q = b.build();
            if let Ok(c) = count_homomorphisms(&data, &q, &Budget::new(10_000_000)) {
                train.push(LabeledQuery::new(q, c.max(1)));
            }
        }
    }
    println!("training cost model on {} labeled patterns", train.len());
    let (sketch, _) =
        LearnedSketch::train(&data, &Workload::from_queries(train), &SketchConfig::tiny());

    let rel_index = RelationIndex::new(&data);
    let mut lss_total_log = 0.0f64;
    let mut agm_total_log = 0.0f64;
    let mut shown = 0;
    for pattern in unlabeled_patterns(&data, 4, 8, 77) {
        let q = assign_pattern_labels(&pattern, &stats, 2, &mut rng);
        let decomps = enumerate_ghds(&q, 3);
        if decomps.len() < 2 {
            continue;
        }
        let agm_pick = choose_plan(&q, &decomps, |bq| agm_cost(&rel_index, bq));
        let lss_pick = choose_plan(&q, &decomps, |bq| sketch.estimate(bq));
        let budget = Budget::new(50_000_000);
        let (Some(ca), Some(cl)) = (
            true_cost(&data, &q, &decomps[agm_pick.index], &budget),
            true_cost(&data, &q, &decomps[lss_pick.index], &budget),
        ) else {
            continue;
        };
        shown += 1;
        agm_total_log += (ca.max(1) as f64).log10();
        lss_total_log += (cl.max(1) as f64).log10();
        println!(
            "query {shown}: {} GHD plans | true cost of AGM plan = {ca}, of LSS plan = {cl}{}",
            decomps.len(),
            if cl < ca { "  <- LSS cheaper" } else { "" }
        );
    }
    if shown > 0 {
        println!(
            "\ngeometric-mean true plan cost: AGM 10^{:.2} vs LSS 10^{:.2}",
            agm_total_log / shown as f64,
            lss_total_log / shown as f64
        );
    }
}
