//! The traced run's per-layer measurements.
//!
//! [`replay`] pushes the run's request sequence, in serving order, through
//! the same public functions `alss serve` calls, with a span around each
//! call. The probes time the layers that the serve path does not reach on
//! every workload (query sizes it did not send, the network layers at the
//! checkpoint's shapes, training, matching and the G-CARE baselines) on the
//! workload's own data.

use crate::pipeline::Offline;
use crate::stats::{q_errors, Samples};
use crate::trace::Tracer;
use crate::traffic::{distinct_queries, Spec};
use alss_core::EncodedQuery;
use alss_estimators::{
    BoundSketch, CardinalityEstimator, CharacteristicSets, CorrelatedSampling, Impr, JSub,
    LabelIndex, SumRdf, WanderJoin,
};
use alss_graph::io::from_text;
use alss_graph::{canonical_key, decompose, Graph};
use alss_matching::{count_homomorphisms, count_homomorphisms_parallel, Budget};
use alss_nn::{Activation, Adam, GinEncoder, Mlp, ParamStore, SelfAttention, Tape};
use alss_serve::engine::{fallback_outcome, Outcome};
use alss_serve::proto::{from_line, to_line};
use alss_serve::{CachedEstimate, Request, Response, ShardedLru};
use rand::rngs::mock::StepRng;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Sizes keyed in the `core.*_us.n<size>` metrics.
pub const PROBE_SIZES: [usize; 4] = [4, 8, 16, 32];

/// Server settings the replay mirrors.
pub struct ReplayConfig {
    /// Cache capacity.
    pub cache: usize,
    /// Cache shards.
    pub shards: usize,
    /// Wander-Join walks of the fallback.
    pub wj_samples: usize,
}

/// Per-request compute time (µs) of the replay: the request span minus the
/// extra `decompose` call the replay makes to time that layer.
pub type ComputeUs = HashMap<u64, f64>;

/// Replay `order` (request id and spec, in serving order). Returns the
/// total wall time in seconds and each request's compute time.
pub fn replay(
    tr: &mut Tracer,
    order: &[(u64, &Spec)],
    off: &Offline,
    cfg: &ReplayConfig,
) -> Result<(f64, ComputeUs), String> {
    let cache = ShardedLru::new(cfg.cache, cfg.shards);
    let index = LabelIndex::new(&off.data);
    let wj = WanderJoin::new(&index, cfg.wj_samples.max(1));
    let lines: Vec<String> = order
        .iter()
        .map(|(id, s)| {
            to_line(&Request::estimate(
                *id,
                s.text.clone(),
                s.deadline0.then_some(0),
            ))
        })
        .collect::<Result<_, _>>()?;
    let hops = off.sketch.encoder().hops();
    let mut compute = HashMap::with_capacity(order.len());
    let start = Instant::now();
    for ((id, spec), line) in order.iter().zip(&lines) {
        let (id, tag) = (*id, spec.nodes);
        let t0 = Instant::now();
        let root = tr.enter("serve.request", id, tag);
        let s = tr.enter("serve.proto.parse", id, tag);
        let req: Request = from_line(line)?;
        tr.exit(s);
        let s = tr.enter("graph.parse", id, tag);
        let q = from_text(&req.query).map_err(|e| e.to_string())?;
        tr.exit(s);
        let s = tr.enter("graph.canon", id, tag);
        let key = canonical_key(&q);
        tr.exit(s);
        let s = tr.enter("serve.cache.get", id, tag);
        let hit = cache.get(&key);
        tr.exit(s);
        let mut extra = 0.0;
        let (outcome, cached) = match hit {
            Some(h) => (
                Outcome {
                    log10: h.log10,
                    magnitude_class: h.magnitude_class,
                    degraded: false,
                },
                true,
            ),
            None if req.deadline_ms == Some(0) => {
                let s = tr.enter("serve.fallback", id, tag);
                let out = fallback_outcome(&wj, &q, key.hash);
                tr.exit(s);
                (out, false)
            }
            None => {
                let t = Instant::now();
                let s = tr.enter("graph.decompose", id, tag);
                black_box(decompose(&q, hops));
                tr.exit(s);
                extra = t.elapsed().as_secs_f64() * 1e6;
                let s = tr.enter("core.encode", id, tag);
                let enc = off.sketch.encoder().encode_query(&q);
                tr.exit(s);
                let s = tr.enter("core.predict", id, tag);
                let pred = off.sketch.model().predict(&enc);
                tr.exit(s);
                let out = Outcome {
                    log10: pred.log10_count,
                    magnitude_class: u64::try_from(pred.top_class()).unwrap_or(u64::MAX),
                    degraded: false,
                };
                let s = tr.enter("serve.cache.insert", id, tag);
                cache.insert(
                    key,
                    CachedEstimate {
                        log10: out.log10,
                        magnitude_class: out.magnitude_class,
                    },
                );
                tr.exit(s);
                (out, false)
            }
        };
        let resp = Response {
            id,
            ok: true,
            estimate: 10f64.powf(outcome.log10).max(1.0),
            log10: outcome.log10,
            magnitude_class: outcome.magnitude_class,
            degraded: outcome.degraded,
            cached,
            ..Response::default()
        };
        let s = tr.enter("serve.proto.write", id, tag);
        black_box(to_line(&resp)?);
        tr.exit(s);
        tr.exit(root);
        compute.insert(id, t0.elapsed().as_secs_f64() * 1e6 - extra);
    }
    Ok((start.elapsed().as_secs_f64(), compute))
}

/// Named per-layer values produced by the probes.
pub type Values = BTreeMap<String, f64>;

fn mid(v: Vec<f64>) -> f64 {
    Samples::new(v).middle().unwrap_or(f64::NAN)
}

/// Time encode/predict on queries of every probe size, and the fallback
/// estimator on `fallback_queries` (when the replay produced too few
/// fallback spans of its own).
pub fn probe_serving(
    tr: &mut Tracer,
    off: &Offline,
    seed: u64,
    fallback_queries: &[Graph],
    wj_samples: usize,
) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9_0BE);
    let mut item = 1u64 << 40;
    for size in PROBE_SIZES {
        let tag = u32::try_from(size).unwrap_or(u32::MAX);
        for q in distinct_queries(&off.data, &[size], 12, &mut HashSet::new(), &mut rng) {
            item += 1;
            let s = tr.enter("core.encode", item, tag);
            let enc = off.sketch.encoder().encode_query(&q);
            tr.exit(s);
            let s = tr.enter("core.predict", item, tag);
            black_box(off.sketch.model().predict(&enc));
            tr.exit(s);
        }
    }
    let index = LabelIndex::new(&off.data);
    let wj = WanderJoin::new(&index, wj_samples.max(1));
    for q in fallback_queries {
        item += 1;
        let hash = canonical_key(q).hash;
        let s = tr.enter("serve.fallback", item, 0);
        black_box(fallback_outcome(&wj, q, hash));
        tr.exit(s);
    }
}

/// GIN, attention and MLP at the checkpoint's shapes on 32-node queries.
pub fn probe_network(tr: &mut Tracer, off: &Offline, seed: u64) {
    let cfg = *off.sketch.model().config();
    let enc = off.sketch.encoder();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA_77);
    let mut store = ParamStore::new();
    let gin = GinEncoder::with_options(
        &mut store,
        "probe.gin",
        enc.node_dim(),
        cfg.hidden,
        cfg.gnn_layers,
        enc.edge_dim(),
        cfg.dropout,
        Activation::Relu,
        cfg.gnn_aggregation,
        &mut rng,
    );
    let att = SelfAttention::new(
        &mut store,
        "probe.att",
        cfg.hidden,
        cfg.att_hidden,
        cfg.att_heads,
        &mut rng,
    );
    let mlp = Mlp::new(
        &mut store,
        "probe.mlp",
        &[att.out_dim(), cfg.mlp_hidden, 1 + cfg.num_classes],
        Activation::Relu,
        cfg.dropout,
        &mut rng,
    );
    let queries: Vec<EncodedQuery> =
        distinct_queries(&off.data, &[32], 12, &mut HashSet::new(), &mut rng)
            .iter()
            .map(|q| enc.encode_query(q))
            .collect();
    let mut item = 2u64 << 40;
    for _ in 0..3 {
        for q in &queries {
            item += 1;
            let mut tape = Tape::new(false);
            let mut step = StepRng::new(0, 1);
            let s = tr.enter("nn.gin", item, 32);
            let reps: Vec<_> = q
                .subs
                .iter()
                .map(|sub| {
                    let x = tape.input(sub.features.clone());
                    let es = sub.edge_sums.as_ref().map(|m| tape.input(m.clone()));
                    gin.encode(&mut tape, &store, x, &sub.adj, es, &mut step)
                })
                .collect();
            let h_q = tape.concat_rows(&reps);
            tr.exit(s);
            let s = tr.enter("nn.attention", item, 32);
            let (e_q, _) = att.forward(&mut tape, &store, h_q);
            tr.exit(s);
            let s = tr.enter("nn.mlp", item, 32);
            black_box(mlp.forward(&mut tape, &store, e_q, &mut step));
            tr.exit(s);
        }
    }
}

/// One training item (loss + backward) and Adam steps on a copy of the
/// trained model.
pub fn probe_training(tr: &mut Tracer, off: &Offline) {
    let mut model = off.sketch.model().clone();
    let mut adam = Adam::new(off.sketch_cfg.train.adam, model.store());
    let mut rng = SmallRng::seed_from_u64(off.sketch_cfg.seed ^ 0x7_EA1);
    let items: Vec<(EncodedQuery, u64)> = off
        .train
        .queries
        .iter()
        .take(64)
        .map(|q| (off.sketch.encode(&q.graph), q.count))
        .collect();
    let mut item = 3u64 << 40;
    for (k, (enc, count)) in items.iter().enumerate() {
        item += 1;
        let s = tr.enter("core.train_item", item, 0);
        let mut tape = Tape::new(true);
        let loss = model.loss(&mut tape, enc, *count, &mut rng);
        tape.backward(loss, model.store_mut());
        tr.exit(s);
        if k % 4 == 3 {
            let s = tr.enter("nn.adam", item, 0);
            adam.step(model.store_mut());
            tr.exit(s);
            model.store_mut().zero_grads();
        }
    }
}

/// Exact counting, sequential and "parallel", on labelled queries of each
/// labelled size. Returns the speed-up and whether both counts agreed.
pub fn probe_matching(tr: &mut Tracer, off: &Offline, budget: u64) -> (f64, bool) {
    let mut by_size: BTreeMap<usize, Vec<&Graph>> = BTreeMap::new();
    for q in off.train.queries.iter().chain(&off.held.queries) {
        let v = by_size.entry(q.size()).or_default();
        if v.len() < 32 {
            v.push(&q.graph);
        }
    }
    let (mut seq, mut par, mut agree) = (0.0, 0.0, true);
    let mut item = 4u64 << 40;
    for (size, queries) in by_size {
        let tag = u32::try_from(size).unwrap_or(u32::MAX);
        for q in queries {
            item += 1;
            let t = Instant::now();
            let s = tr.enter("matching.count", item, tag);
            let a = count_homomorphisms(&off.data, q, &Budget::new(budget));
            tr.exit(s);
            seq += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let s = tr.enter("matching.count_parallel", item, tag);
            let b = count_homomorphisms_parallel(&off.data, q, &Budget::new(budget));
            tr.exit(s);
            par += t.elapsed().as_secs_f64();
            agree &= a.ok() == b.ok();
        }
    }
    (seq / par, agree)
}

/// The seven G-CARE baselines on the held-out set: median µs per estimate
/// and median q-error, keyed `estimators.<name>.*`.
pub fn probe_estimators(tr: &mut Tracer, off: &Offline, seed: u64, out: &mut Values) {
    let data = &off.data;
    let idx = LabelIndex::new(data);
    let cset = CharacteristicSets::new(data);
    let sumrdf = SumRdf::new(data);
    let impr = Impr::new(data, 500, 16);
    let cs = CorrelatedSampling::new(data, 0.3, seed, 5_000_000);
    let wj = WanderJoin::new(&idx, 1000);
    let jsub = JSub::new(&idx, 1000);
    let bs = BoundSketch::new(data);
    let all: [(&'static str, &dyn CardinalityEstimator); 7] = [
        ("estimators.cset", &cset),
        ("estimators.sumrdf", &sumrdf),
        ("estimators.impr", &impr),
        ("estimators.cs", &cs),
        ("estimators.wj", &wj),
        ("estimators.jsub", &jsub),
        ("estimators.bs", &bs),
    ];
    let held = &off.held.queries[..off.held.len().min(100)];
    let mut item = 5u64 << 40;
    for (span_name, est) in all {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE57);
        let mut pairs = Vec::new();
        for q in held {
            // IMPR is defined for 3–5-node queries only.
            if span_name == "estimators.impr" && !(3..=5).contains(&q.size()) {
                continue;
            }
            item += 1;
            let s = tr.enter(span_name, item, 0);
            let e = est.estimate(&q.graph, &mut rng);
            tr.exit(s);
            pairs.push((q.count as f64, e.clamped()));
        }
        out.insert(format!("{span_name}.us"), mid(tr.self_us(span_name)));
        out.insert(
            format!("{span_name}.qerror_p50"),
            q_errors(&pairs).middle().unwrap_or(f64::NAN),
        );
    }
}

/// Median self time (µs) of spans `name`, optionally only those tagged `tag`.
pub fn span_median(tr: &Tracer, name: &str, tag: Option<u32>) -> f64 {
    mid(tr.self_us_where(name, |s| tag.is_none_or(|t| s.tag == t)))
}
