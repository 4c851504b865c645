//! `alss-perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-miss|serve-hot|offline --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs the paper's offline pipeline (data graph, ProNE
//! encoder, exact-count labelling, training, held-out scoring) and then
//! serves the trained sketch from the real `alss serve` binary under an open
//! and a closed loop. The workloads differ in the sizes of the pipeline and
//! in the traffic; see `perfbench/README.md`. The last stdout line is the
//! result object; the line before it is the full run record.

mod layers;
mod load;
mod pipeline;
mod server;
mod stats;
mod trace;
mod traffic;

use alss_core::LearnedSketch;
use alss_graph::io::from_text;
use alss_graph::{canonical_key, CanonicalKey, Graph};
use alss_serve::Request;
use layers::{span_median, ReplayConfig, Values, PROBE_SIZES};
use load::{Outgoing, Record};
use pipeline::{Offline, PipelineConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use server::{ServeFlags, Server};
use stats::{median_of, q_errors, Samples};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;
use traffic::{distinct_queries, Spec, Zipf};

/// Total open-loop arrival rate, requests per second over all connections.
const OPEN_RATE: f64 = 100.0;
/// Share of the measured seconds given to the open loop (rest: closed loop).
const OPEN_SHARE: f64 = 0.75;
/// Requests each closed-loop connection keeps in flight. With more than
/// one, replies arrive in bursts whose ACK timing flips throughput between
/// two levels from run to run while the server's reply stall persists.
const WINDOW: usize = 1;
/// Every `STATS_EVERY`-th open-loop slot samples `stats` instead.
const STATS_EVERY: usize = 25;
/// Rounds per run. Each runs the offline pipeline and a few server
/// launches; their timings are medians over the rounds.
const ROUNDS: usize = 8;
/// Server launches per round; the serve workloads' `setup_s` is the median
/// over every launch of the run.
const LAUNCHES_PER_ROUND: usize = 2;
/// Seed of the offline pipeline's inputs (data graph, labelled workload,
/// split, training). Fixed, so every run scores the same sketch and the
/// quality metrics compare commits rather than datasets; `--seed` drives
/// the serve traffic, the renumberings and the probe queries.
const DATASET_SEED: u64 = 7;
/// Renumberings per query for `iso_spread_log10` outside `serve-hot`.
const ISO_RENUMBERINGS: usize = 8;
/// Fallback Wander-Join walks (the `alss serve` default).
const WJ_SAMPLES: usize = 64;
/// Request specs prepared for each closed-loop run (cycled if exhausted).
const CLOSED_SPECS: usize = 20_000;

/// What the serve phase sends.
#[derive(Clone, Debug)]
enum Traffic {
    /// Distinct queries of mixed sizes, each sent once per pass over a pool
    /// several times larger than the cache.
    Miss {
        pool: usize,
        sizes: &'static [usize],
    },
    /// Zipf-skewed hot queries, each request freshly renumbered; a share of
    /// requests carries `deadline_ms:0` and draws from a disjoint set of
    /// queries the model never answers.
    Hot {
        hot: usize,
        fallback: usize,
        zipf_s: f64,
        deadline_share: f64,
    },
}

#[derive(Clone, Debug)]
struct WorkloadConfig {
    name: &'static str,
    pipeline: PipelineConfig,
    traffic: Traffic,
    flags: ServeFlags,
}

fn workload_config(name: &str, threads: usize) -> Option<WorkloadConfig> {
    let flags = ServeFlags {
        cache: 256,
        shards: 8,
        batch: 16,
        threads,
    };
    let small = PipelineConfig {
        scale: 0.2,
        per_size: 400,
        train_frac: 0.25,
        epochs: 3,
    };
    let hot = Traffic::Hot {
        hot: 64,
        fallback: 16,
        zipf_s: 1.0,
        deadline_share: 0.1,
    };
    let (name, pipeline, traffic) = match name {
        "serve-miss" => (
            "serve-miss",
            small,
            Traffic::Miss {
                pool: 4 * flags.cache,
                sizes: &[4, 8, 16, 32],
            },
        ),
        "serve-hot" => ("serve-hot", small, hot),
        "offline" => (
            "offline",
            PipelineConfig {
                scale: 0.5,
                per_size: 300,
                train_frac: 2.0 / 3.0,
                epochs: 3,
            },
            // The client-side metrics need some traffic; the hot mix keeps
            // the serve layers' share of the work small.
            hot,
        ),
        _ => return None,
    };
    Some(WorkloadConfig {
        name,
        pipeline,
        traffic,
        flags,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".to_string());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Every request of the serve phase, by id.
struct Traffics {
    queries: Vec<Graph>,
    warm: Vec<Spec>,
    open: Vec<Spec>,
    closed: Vec<Spec>,
}

const WARM_BASE: u64 = 1;
const OPEN_BASE: u64 = 1 << 32;
const STATS_BASE: u64 = 2 << 32;
const CLOSED_BASE: u64 = 3 << 32;

impl Traffics {
    fn spec(&self, id: u64) -> Option<&Spec> {
        let idx = |base: u64| usize::try_from(id - base).ok();
        match id {
            id if id >= CLOSED_BASE => {
                idx(CLOSED_BASE).map(|i| &self.closed[i % self.closed.len()])
            }
            id if id >= STATS_BASE => None,
            id if id >= OPEN_BASE => idx(OPEN_BASE).and_then(|i| self.open.get(i)),
            _ => idx(WARM_BASE).and_then(|i| self.warm.get(i)),
        }
    }
}

fn build_traffic(cfg: &WorkloadConfig, off: &Offline, seed: u64, open_n: usize) -> Traffics {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7_AFF1C);
    match &cfg.traffic {
        Traffic::Miss { pool, sizes } => {
            let queries = distinct_queries(&off.data, sizes, *pool, &mut HashSet::new(), &mut rng);
            let mut order: Vec<usize> = (0..queries.len()).collect();
            order.shuffle(&mut rng);
            let mut at =
                |k: usize| traffic::spec(&queries, order[k % order.len()], false, false, &mut rng);
            let open = (0..open_n).map(&mut at).collect();
            let closed = (open_n..open_n + CLOSED_SPECS).map(&mut at).collect();
            Traffics {
                queries,
                warm: Vec::new(),
                open,
                closed,
            }
        }
        Traffic::Hot {
            hot,
            fallback,
            zipf_s,
            deadline_share,
        } => {
            let mut seen = HashSet::new();
            let mut queries =
                distinct_queries(&off.data, &[4, 5, 6, 7, 8], *hot, &mut seen, &mut rng);
            let hot = queries.len();
            queries.extend(distinct_queries(
                &off.data,
                &[4, 5, 6, 7, 8],
                *fallback,
                &mut seen,
                &mut rng,
            ));
            let (zh, zf) = (
                Zipf::new(hot, *zipf_s),
                Zipf::new(queries.len() - hot, *zipf_s),
            );
            let warm = (0..hot)
                .map(|i| traffic::spec(&queries, i, true, false, &mut rng))
                .collect();
            let mut draw = |_| {
                if rng.gen::<f64>() < *deadline_share {
                    let i = hot + zf.sample(&mut rng);
                    traffic::spec(&queries, i, true, true, &mut rng)
                } else {
                    let i = zh.sample(&mut rng);
                    traffic::spec(&queries, i, true, false, &mut rng)
                }
            };
            let open = (0..open_n).map(&mut draw).collect();
            let closed = (0..CLOSED_SPECS).map(&mut draw).collect();
            Traffics {
                queries,
                warm,
                open,
                closed,
            }
        }
    }
}

fn request_for(id: u64, spec: &Spec) -> Result<Outgoing, String> {
    Outgoing::new(&Request::estimate(
        id,
        spec.text.clone(),
        spec.deadline0.then_some(0),
    ))
}

/// Everything the serve phase observed.
struct ServeRun {
    /// Every record in serving order: the warm-up, then each closed-loop
    /// chunk and the open loop, each by arrival time.
    served: Vec<Record>,
    ok_in_window: u64,
    window_s: f64,
    rss_mb: f64,
}

/// Request-id ranges of the open loop (including its `stats` samples).
fn in_open_loop(id: u64) -> bool {
    (OPEN_BASE..CLOSED_BASE).contains(&id)
}

impl ServeRun {
    fn open(&self) -> impl Iterator<Item = &Record> {
        self.served.iter().filter(|r| in_open_loop(r.id))
    }
}

fn launch(bin: &Path, dir: &Path, cfg: &WorkloadConfig) -> Result<(Server, f64), String> {
    let graph = dir.join("data.graph");
    let sketch = dir.join("sketch.json");
    Server::launch(bin, dir, &graph, &sketch, &cfg.flags)
}

fn by_arrival(mut v: Vec<Record>) -> Vec<Record> {
    v.sort_by_key(|r| (r.recv.unwrap_or(Duration::MAX), r.id));
    v
}

/// The serve phase against one long-running server.
struct Serving<'a> {
    server: Server,
    t: &'a Traffics,
    conns: usize,
    run: ServeRun,
}

impl<'a> Serving<'a> {
    /// Start on `server` with the warm-up: one request per hot query, one
    /// at a time, so the first answer each query gets is settled before
    /// the measured loops.
    fn start(server: Server, t: &'a Traffics, conns: usize) -> Result<Self, String> {
        let mut served = Vec::new();
        for (i, s) in t.warm.iter().enumerate() {
            let item = (Duration::ZERO, 0, request_for(WARM_BASE + i as u64, s)?);
            let mut conn = load::OpenConns::connect(server.addr, 1)?;
            served.extend(conn.run(&[item], Duration::from_secs(10))?);
        }
        Ok(Serving {
            server,
            t,
            conns,
            run: ServeRun {
                served,
                ok_in_window: 0,
                window_s: 0.0,
                rss_mb: 0.0,
            },
        })
    }

    /// The whole open loop at the fixed rate, round-robin over the
    /// connections.
    fn open_loop(&mut self) -> Result<(), String> {
        let gap = Duration::from_secs_f64(1.0 / OPEN_RATE);
        let plan: Vec<(Duration, usize, Outgoing)> = (self.t.open.iter().enumerate())
            .map(|(i, spec)| {
                let due = gap * u32::try_from(i).map_err(|_| "open loop too long")?;
                let out = if i % STATS_EVERY == STATS_EVERY - 1 {
                    Outgoing::new(&Request {
                        id: STATS_BASE + i as u64,
                        ..Request::control("stats")
                    })?
                } else {
                    request_for(OPEN_BASE + i as u64, spec)?
                };
                Ok((due, i % self.conns, out))
            })
            .collect::<Result<_, String>>()?;
        let mut conns = load::OpenConns::connect(self.server.addr, self.conns)?;
        let records = conns.run(&plan, Duration::from_secs(5))?;
        self.run.served.extend(by_arrival(records));
        // Peak RSS under the open loop's steady traffic. The closed loop's
        // connections can land two large queries in one batch by chance,
        // which made the peak after it vary between runs.
        self.run.rss_mb = self.server.peak_rss_mb()?;
        Ok(())
    }

    /// The closed loop, for `dur`.
    fn closed_loop(&mut self, dur: Duration) -> Result<(), String> {
        let t = self.t;
        let make = |id: u64| {
            let spec = t.spec(id).unwrap_or(&t.closed[0]);
            request_for(id, spec).unwrap_or_else(|_| Outgoing {
                id,
                line: Vec::new(),
            })
        };
        let closed = load::closed_loop(
            self.server.addr,
            self.conns,
            WINDOW,
            dur,
            CLOSED_BASE,
            &make,
        )?;
        self.run.ok_in_window += closed.ok_in_window;
        self.run.window_s += closed.window.as_secs_f64();
        self.run.served.extend(by_arrival(closed.records));
        Ok(())
    }

    /// Stop the server and hand back the records.
    fn finish(self) -> Result<ServeRun, String> {
        self.server.stop()?;
        Ok(self.run)
    }
}

/// Timings of every round, for medians.
#[derive(Default)]
struct Rounds {
    setup: Vec<f64>,
    prone: Vec<f64>,
    label: Vec<f64>,
    train: Vec<f64>,
    predict: Vec<f64>,
    launch: Vec<f64>,
}

impl Rounds {
    fn add(&mut self, o: &Offline) {
        self.setup.push(o.setup_s);
        self.prone.push(o.prone_s);
        self.label.extend(&o.label_s);
        self.train.push(o.train_s);
        self.predict.push(o.predict_qps);
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"setup_s\":{:?},\"prone_s\":{:?},\"label_s\":{:?},\"train_s\":{:?},\
             \"predict_qps\":{:?}}}",
            self.setup, self.prone, self.label, self.train, self.predict
        )
    }
}

/// Outcome of the correctness gate.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    fresh: u64,
    cached: u64,
    degraded: u64,
    deadline0: u64,
}

impl Gate {
    fn violation(&mut self, msg: String) {
        self.failed += 1;
        if self.violations.len() < 20 {
            self.violations.push(msg);
        }
    }
}

/// In-process `log10` of a query text, memoised.
struct Oracle<'a> {
    sketch: &'a LearnedSketch,
    memo: HashMap<String, f64>,
}

impl Oracle<'_> {
    fn log10(&mut self, text: &str) -> Result<f64, String> {
        if let Some(&v) = self.memo.get(text) {
            return Ok(v);
        }
        let g = from_text(text).map_err(|e| e.to_string())?;
        let v = self.sketch.predict(&g).log10_count;
        self.memo.insert(text.to_string(), v);
        Ok(v)
    }
}

fn check(run: &ServeRun, t: &Traffics, oracle: &mut Oracle<'_>) -> Result<Gate, String> {
    let mut gate = Gate::default();
    let mut first: HashMap<CanonicalKey, f64> = HashMap::new();
    let keys: Vec<CanonicalKey> = t.queries.iter().map(canonical_key).collect();
    for rec in &run.served {
        gate.attempted += 1;
        let Some(resp) = rec.resp.as_ref().filter(|r| r.ok) else {
            gate.violation(format!("request {} failed or got no reply", rec.id));
            continue;
        };
        let Some(spec) = t.spec(rec.id) else {
            continue; // a `stats` sample
        };
        gate.deadline0 += u64::from(spec.deadline0);
        if resp.degraded != spec.deadline0 {
            gate.violation(format!(
                "request {}: degraded={} but deadline0={}",
                rec.id, resp.degraded, spec.deadline0
            ));
        }
        if resp.degraded {
            gate.degraded += 1;
            continue;
        }
        let key = keys[spec.query];
        if resp.cached {
            gate.cached += 1;
            match first.get(&key) {
                Some(v) if v.to_bits() == resp.log10.to_bits() => {}
                other => gate.violation(format!(
                    "request {}: cached log10 {} but first answer {other:?}",
                    rec.id, resp.log10
                )),
            }
        } else {
            gate.fresh += 1;
            let want = oracle.log10(&spec.text)?;
            if want.to_bits() != resp.log10.to_bits() {
                gate.violation(format!(
                    "request {}: served log10 {} but in-process predict {want}",
                    rec.id, resp.log10
                ));
            }
        }
        first.entry(key).or_insert(resp.log10);
    }
    Ok(gate)
}

/// Mean over queries of (max − min) in-process `log10` across numberings.
fn iso_spread(
    cfg: &WorkloadConfig,
    t: &Traffics,
    run: &ServeRun,
    off: &Offline,
    oracle: &mut Oracle<'_>,
    seed: u64,
) -> Result<f64, String> {
    let mut texts: BTreeMap<usize, BTreeSet<&str>> = BTreeMap::new();
    let owned: Vec<String>;
    if let Traffic::Hot { .. } = cfg.traffic {
        // The renumberings this run sent in its warm-up and open loop.
        for rec in run.served.iter().filter(|r| r.id < CLOSED_BASE) {
            if let Some(spec) = t.spec(rec.id).filter(|s| !s.deadline0) {
                texts
                    .entry(spec.query)
                    .or_default()
                    .insert(spec.text.as_str());
            }
        }
    } else {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x150);
        let base: Vec<&Graph> = off.held.queries.iter().take(64).map(|q| &q.graph).collect();
        owned = base
            .iter()
            .flat_map(|g| {
                let mut v = vec![alss_graph::io::to_text(g)];
                for _ in 0..ISO_RENUMBERINGS {
                    v.push(alss_graph::io::to_text(&traffic::renumber(g, &mut rng)));
                }
                v
            })
            .collect();
        for (i, text) in owned.iter().enumerate() {
            texts
                .entry(i / (ISO_RENUMBERINGS + 1))
                .or_default()
                .insert(text.as_str());
        }
    }
    let mut spreads = Vec::new();
    for set in texts.values() {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for text in set {
            let v = oracle.log10(text)?;
            lo = lo.min(v);
            hi = hi.max(v);
        }
        spreads.push(hi - lo);
    }
    if spreads.is_empty() {
        return Err("no queries for the renumbering spread".to_string());
    }
    Ok(spreads.iter().sum::<f64>() / spreads.len() as f64)
}

/// A named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// JSON number: finite values in Rust's shortest round-trip form; a
/// non-finite value (a failed percentile) as the largest finite double.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                esc(&m.name),
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn git_sha(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn pct(s: &Samples, q: f64, what: &str) -> Result<f64, String> {
    s.percentile(q)
        .ok_or_else(|| format!("{what}: {} samples are too few for p{}", s.len(), q * 100.0))
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    record: String,
}

fn run(args: &Args, root: &Path, work: &Path) -> Result<Outcome, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = workload_config(&args.workload, threads)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let bin = server::build_alss(root)?;
    let mut tr = Tracer::new(args.trace);

    // The first pipeline pass produces the sketch the server loads.
    let mut rounds = Rounds::default();
    let off = pipeline::run(&cfg.pipeline, DATASET_SEED, threads, &mut tr)?;
    rounds.add(&off);
    std::fs::write(work.join("data.graph"), alss_graph::io::to_text(&off.data))
        .map_err(|e| format!("write data graph: {e}"))?;
    off.sketch
        .save(work.join("sketch.json"))
        .map_err(|e| format!("write sketch: {e}"))?;

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let open_n = (OPEN_RATE * args.seconds * OPEN_SHARE).round() as usize;
    let traffic = build_traffic(&cfg, &off, args.seed, open_n);
    let (server, setup) = launch(&bin, work, &cfg)?;
    rounds.launch.push(setup);
    let mut serving = Serving::start(server, &traffic, threads)?;

    // Rounds: a pipeline pass (after the first) and a few extra server
    // launches, so every timing is sampled across the whole run and
    // reported as a median. The open loop and then the closed loop run
    // once each, uninterrupted, half-way through.
    for r in 0..ROUNDS {
        if r > 0 {
            rounds.add(&pipeline::run(
                &cfg.pipeline,
                DATASET_SEED,
                threads,
                &mut tr,
            )?);
        }
        for _ in 0..LAUNCHES_PER_ROUND {
            let (extra, setup) = launch(&bin, work, &cfg)?;
            rounds.launch.push(setup);
            extra.stop()?;
        }
        if r + 1 == ROUNDS / 2 {
            serving.open_loop()?;
            serving.closed_loop(Duration::from_secs_f64(args.seconds * (1.0 - OPEN_SHARE)))?;
        }
    }
    let run = serving.finish()?;

    let mut oracle = Oracle {
        sketch: &off.sketch,
        memo: HashMap::new(),
    };
    let mut gate = check(&run, &traffic, &mut oracle)?;
    let spread = iso_spread(&cfg, &traffic, &run, &off, &mut oracle, args.seed)?;
    let qerr = q_errors(&off.pairs);
    gate.attempted += off.pairs.len() as u64;
    gate.failed += qerr.failed() as u64;

    // End-to-end metrics.
    let estimates: Vec<&Record> = run
        .open()
        .filter(|r| traffic.spec(r.id).is_some())
        .collect();
    let lat = Samples::new(estimates.iter().map(|r| r.latency_ms()).collect());
    let late = Samples::new(run.open().filter_map(Record::late_ms).collect());
    let mut e2e = Vec::new();
    let setup = if cfg.name == "offline" {
        &rounds.setup
    } else {
        &rounds.launch
    };
    metric(&mut e2e, "setup_s", median_of(setup), "s");
    metric(&mut e2e, "p50_ms", pct(&lat, 0.5, "latency")?, "ms");
    metric(&mut e2e, "p99_ms", pct(&lat, 0.99, "latency")?, "ms");
    metric(
        &mut e2e,
        "saturation_qps",
        run.ok_in_window as f64 / run.window_s,
        "1/s",
    );
    metric(&mut e2e, "server_rss_mb", run.rss_mb, "MB");
    metric(&mut e2e, "qerror_p50", pct(&qerr, 0.5, "q-error")?, "ratio");
    metric(
        &mut e2e,
        "qerror_p95",
        pct(&qerr, 0.95, "q-error")?,
        "ratio",
    );
    metric(&mut e2e, "iso_qerror", 10f64.powf(spread), "ratio");

    // Per-layer metrics: only the traced run computes them.
    let mut layer = Vec::new();
    if args.trace {
        layer = per_layer(&cfg, &off, &traffic, &run, &mut tr, args.seed)?;
        metric(
            &mut layer,
            "embedding.prone_s",
            median_of(&rounds.prone),
            "s",
        );
        metric(
            &mut layer,
            "label_qps",
            off.candidates as f64 / median_of(&rounds.label),
            "1/s",
        );
        metric(&mut layer, "train_s", median_of(&rounds.train), "s");
        metric(&mut layer, "predict_qps", median_of(&rounds.predict), "1/s");
        metric(&mut layer, "iso_spread_log10", spread, "log10");
        let spans = root
            .join(".perfbench_out")
            .join(format!("spans-{}-seed{}.jsonl", cfg.name, args.seed));
        tr.write_jsonl(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
    }

    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"run_record\":{{\"git_sha\":\"{}\",\"nproc\":{threads},\"workload\":\"{}\",\
         \"seed\":{},\"seconds\":{},\"trace\":{},\"config\":{{\"dataset\":\"{}\",\
         \"scale\":{},\"label_sizes\":{:?},\"per_size\":{},\"train_frac\":{},\"epochs\":{},\
         \"traffic\":\"{}\",\"open_rate_qps\":{OPEN_RATE},\
         \"open_requests\":{open_n},\"closed_window\":{WINDOW},\"connections\":{threads},\
         \"rounds\":{ROUNDS},\"launches_per_round\":{LAUNCHES_PER_ROUND},\"server_flags\":\"--cache {} --shards {} --batch {} --threads {}\"}},\
         \"latency_ms\":{{\"p90\":{},\"p95\":{},\"p99\":{},\"max\":{}}},\
         \"samples\":{{\"latency\":{},\"latency_failed\":{},\"heldout\":{},\"candidates\":{},\
         \"labelled\":{},\"closed_loop_sent\":{}}},\"gate\":{{\"fresh\":{},\"cached\":{},\
         \"degraded\":{},\"deadline0\":{},\"violations\":[{}]}},\"gen_late_p99_ms\":{},\
         \"launch_s\":{:?},\"rounds\":{},\"end_to_end\":{},\"per_layer\":{}}}}}",
        esc(&git_sha(root)),
        cfg.name,
        args.seed,
        args.seconds,
        args.trace,
        pipeline::DATASET,
        cfg.pipeline.scale,
        pipeline::SIZES,
        cfg.pipeline.per_size,
        cfg.pipeline.train_frac,
        cfg.pipeline.epochs,
        esc(&format!("{:?}", cfg.traffic)),
        cfg.flags.cache,
        cfg.flags.shards,
        cfg.flags.batch,
        cfg.flags.threads,
        num(lat.percentile(0.9).unwrap_or(f64::NAN)),
        num(lat.percentile(0.95).unwrap_or(f64::NAN)),
        num(lat.percentile(0.99).unwrap_or(f64::NAN)),
        num(lat.max().unwrap_or(f64::NAN)),
        lat.len(),
        lat.failed(),
        off.pairs.len(),
        off.candidates,
        off.labelled,
        run.served.iter().filter(|r| r.id >= CLOSED_BASE).count(),
        gate.fresh,
        gate.cached,
        gate.degraded,
        gate.deadline0,
        gate.violations
            .iter()
            .map(|v| format!("\"{}\"", esc(v)))
            .collect::<Vec<_>>()
            .join(","),
        num(late.percentile(0.99).or(late.max()).unwrap_or(f64::NAN)),
        rounds.launch,
        rounds.to_json(),
        metrics_json(&e2e),
        metrics_json(&layer),
    );
    Ok(Outcome {
        correct: gate.failed == 0,
        attempted: gate.attempted,
        failed: gate.failed,
        end_to_end: e2e,
        per_layer: layer,
        record,
    })
}

fn per_layer(
    cfg: &WorkloadConfig,
    off: &Offline,
    t: &Traffics,
    run: &ServeRun,
    tr: &mut Tracer,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    let mut m = Vec::new();
    let estimates: Vec<(&Record, &Spec)> = run
        .open()
        .filter_map(|r| t.spec(r.id).map(|s| (r, s)))
        .collect();
    let answered: Vec<(&Record, &alss_serve::Response)> = estimates
        .iter()
        .filter_map(|(r, _)| r.resp.as_ref().filter(|x| x.ok).map(|x| (*r, x)))
        .collect();
    let wire: Vec<f64> = answered
        .iter()
        .map(|(r, x)| r.latency_ms() * 1e3 - x.latency_us as f64)
        .collect();
    let server_us: Vec<f64> = answered.iter().map(|(_, x)| x.latency_us as f64).collect();
    let model_answers = answered.iter().filter(|(_, x)| !x.degraded).count();
    let hits = answered.iter().filter(|(_, x)| x.cached).count();
    let depth_max = run
        .open()
        .filter(|r| t.spec(r.id).is_none())
        .filter_map(|r| r.resp.as_ref().map(|x| x.log10))
        .fold(0.0f64, f64::max);

    // Replay the served sequence twice: untraced, then traced.
    let order: Vec<(u64, &Spec)> = run
        .served
        .iter()
        .filter_map(|r| t.spec(r.id).map(|s| (r.id, s)))
        .collect();
    let rcfg = ReplayConfig {
        cache: cfg.flags.cache,
        shards: cfg.flags.shards,
        wj_samples: WJ_SAMPLES,
    };
    let (plain_s, _) = layers::replay(&mut Tracer::new(false), &order, off, &rcfg)?;
    let (traced_s, compute) = layers::replay(tr, &order, off, &rcfg)?;
    // Queue wait of every fresh model answer: server time minus the same
    // request's compute in the replay.
    let queue: Vec<f64> = run
        .served
        .iter()
        .filter_map(|r| r.resp.as_ref().map(|x| (r.id, x)))
        .filter(|(_, x)| x.ok && !x.cached && !x.degraded)
        .filter_map(|(id, x)| compute.get(&id).map(|c| x.latency_us as f64 - c))
        .collect();

    let fallback_probe: Vec<Graph> = if tr.self_us("serve.fallback").len() < 20 {
        t.queries.iter().take(64).cloned().collect()
    } else {
        Vec::new()
    };
    layers::probe_serving(tr, off, seed, &fallback_probe, WJ_SAMPLES);
    layers::probe_network(tr, off, seed);
    layers::probe_training(tr, off);
    let (par_speedup, agree) = layers::probe_matching(tr, off, pipeline::BUDGET);
    if !agree {
        return Err("sequential and parallel exact counts disagree".to_string());
    }
    let mut est = Values::new();
    layers::probe_estimators(tr, off, seed, &mut est);

    let mid = |v: Vec<f64>| Samples::new(v).middle().unwrap_or(f64::NAN);
    metric(&mut m, "serve.wire_p50_us", mid(wire), "us");
    metric(&mut m, "serve.server_p50_us", mid(server_us), "us");
    metric(&mut m, "serve.queue_p50_us", mid(queue), "us");
    metric(&mut m, "serve.queue_depth_max", depth_max, "count");
    metric(
        &mut m,
        "serve.cache.hit_frac",
        hits as f64 / model_answers.max(1) as f64,
        "frac",
    );
    for (name, span) in [
        ("serve.cache.get_us", "serve.cache.get"),
        ("serve.cache.insert_us", "serve.cache.insert"),
        ("serve.proto.parse_us", "serve.proto.parse"),
        ("serve.proto.write_us", "serve.proto.write"),
        ("serve.fallback_us", "serve.fallback"),
        ("graph.parse_us", "graph.parse"),
        ("graph.canon_us", "graph.canon"),
        ("graph.decompose_us", "graph.decompose"),
    ] {
        metric(&mut m, name, span_median(tr, span, None), "us");
    }
    for size in PROBE_SIZES {
        let tag = Some(u32::try_from(size).unwrap_or(u32::MAX));
        metric(
            &mut m,
            &format!("core.encode_us.n{size}"),
            span_median(tr, "core.encode", tag),
            "us",
        );
        metric(
            &mut m,
            &format!("core.predict_us.n{size}"),
            span_median(tr, "core.predict", tag),
            "us",
        );
    }
    for (name, span) in [
        ("nn.gin_us", "nn.gin"),
        ("nn.attention_us", "nn.attention"),
        ("nn.mlp_us", "nn.mlp"),
        ("core.train_item_us", "core.train_item"),
        ("nn.adam_us", "nn.adam"),
    ] {
        metric(&mut m, name, span_median(tr, span, None), "us");
    }
    for size in pipeline::SIZES {
        let tag = Some(u32::try_from(size).unwrap_or(u32::MAX));
        metric(
            &mut m,
            &format!("matching.count_us.n{size}"),
            span_median(tr, "matching.count", tag),
            "us",
        );
    }
    metric(&mut m, "matching.par_speedup", par_speedup, "x");
    metric(
        &mut m,
        "datasets.label_keep_frac",
        off.labelled as f64 / off.candidates.max(1) as f64,
        "frac",
    );
    for (name, value) in est {
        let unit = if name.ends_with(".us") { "us" } else { "ratio" };
        metric(&mut m, &name, value, unit);
    }
    metric(
        &mut m,
        "trace.overhead_frac",
        traced_s / plain_s - 1.0,
        "frac",
    );
    Ok(m)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let work = root.join(".perfbench_out").join(format!(
        "work-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &root, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(out) => {
            let metrics = if args.trace {
                &out.per_layer
            } else {
                &out.end_to_end
            };
            println!("{}", out.record);
            println!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
                out.correct,
                out.attempted,
                out.failed,
                metrics_json(metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
