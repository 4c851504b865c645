//! The TCP estimate server.
//!
//! One listener thread accepts connections; each connection gets a handler
//! thread reading NDJSON [`Request`] lines and writing one [`Response`]
//! line per request, in request order. Estimate requests first consult the
//! sharded canonical cache, then go through the micro-batcher; control
//! requests (`ping`, `stats`, `shutdown`) are answered inline.
//!
//! Shutdown is cooperative: a `shutdown` request (or [`ServerHandle::stop`])
//! flips an atomic flag and pokes the listener with a loopback connection
//! so `accept` returns; the listener then joins every live handler before
//! exiting, so a telemetry snapshot taken after [`ServerHandle::join`] sees
//! all request counters.

use crate::batch::{BatchConfig, Batcher, Job};
use crate::cache::ShardedLru;
use crate::engine::{load_sketch_with_retry, Outcome};
use crate::proto::{from_line, to_line, Request, Response};
use alss_graph::{canonical_key, io::from_text, Graph};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick a free port.
    pub addr: String,
    /// Data graph file (alss text format).
    pub data_path: PathBuf,
    /// Trained checkpoint. `None` (or a path that keeps failing) starts
    /// the server in degraded mode: every answer comes from the fallback.
    pub model_path: Option<PathBuf>,
    /// Checkpoint read attempts before giving up (transient errors only).
    pub load_attempts: u32,
    /// Initial retry backoff; doubles per attempt.
    pub load_backoff: Duration,
    /// Estimate-cache capacity (entries).
    pub cache_capacity: usize,
    /// Estimate-cache shard count.
    pub cache_shards: usize,
    /// Micro-batching knobs.
    pub batch: BatchConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_path: PathBuf::new(),
            model_path: None,
            load_attempts: 3,
            load_backoff: Duration::from_millis(50),
            cache_capacity: 4096,
            cache_shards: 8,
            batch: BatchConfig::default(),
        }
    }
}

struct Shared {
    batcher: Batcher,
    cache: Arc<ShardedLru>,
    stop: AtomicBool,
    /// `true` when the model failed to load and every answer is degraded.
    modelless: bool,
}

/// A running server. Obtain via [`serve`]; stop via [`ServerHandle::stop`]
/// + [`ServerHandle::join`] or a client `shutdown` request.
pub struct ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    listener_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Ask the server to stop accepting and drain.
    pub fn stop(&self) {
        request_stop(&self.shared, self.addr);
    }

    /// Block until the listener (and every handler it joined) has exited.
    pub fn join(mut self) {
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
    }

    /// `true` once a stop was requested.
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }
}

fn request_stop(shared: &Shared, addr: SocketAddr) {
    if !shared.stop.swap(true, Ordering::SeqCst) {
        // Unblock the accept loop; errors are fine — the listener may
        // already be gone.
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    }
}

/// Load the data graph and checkpoint, bind the listener, and spawn the
/// accept loop. Returns once the socket is bound and the batcher is live.
pub fn serve(cfg: &ServeConfig) -> Result<ServerHandle, String> {
    let data_text = std::fs::read_to_string(&cfg.data_path)
        .map_err(|e| format!("data graph {}: {e}", cfg.data_path.display()))?;
    let data: Graph = from_text(&data_text)
        .map_err(|e| format!("data graph {}: {e}", cfg.data_path.display()))?;

    let (model, modelless) = match &cfg.model_path {
        None => (None, true),
        Some(path) => match load_sketch_with_retry(path, cfg.load_attempts, cfg.load_backoff) {
            Ok(sketch) => (Some(sketch), false),
            Err(e) => {
                // Degraded mode is an operational state, not a startup
                // failure: answer everything from the fallback estimator.
                alss_telemetry::counter("serve.model_load_failed").inc();
                alss_telemetry::event("serve.model_load_failed", &[("error", e.as_str().into())]);
                (None, true)
            }
        },
    };

    let cache = Arc::new(ShardedLru::new(cfg.cache_capacity, cfg.cache_shards));
    let batcher = Batcher::spawn(model, data, Arc::clone(&cache), cfg.batch)
        .map_err(|e| format!("spawn batcher: {e}"))?;

    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;

    let shared = Arc::new(Shared {
        batcher,
        cache,
        stop: AtomicBool::new(false),
        modelless,
    });
    alss_telemetry::event(
        "serve.listening",
        &[("addr", addr.to_string().as_str().into())],
    );

    let loop_shared = Arc::clone(&shared);
    let listener_thread = std::thread::Builder::new()
        .name("alss-serve-accept".to_string())
        .spawn(move || accept_loop(&listener, addr, &loop_shared))
        .map_err(|e| format!("spawn accept loop: {e}"))?;

    Ok(ServerHandle {
        addr,
        shared,
        listener_thread: Some(listener_thread),
    })
}

fn accept_loop(listener: &TcpListener, addr: SocketAddr, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("alss-serve-conn".to_string())
            .spawn(move || handle_connection(stream, addr, &conn_shared));
        match spawned {
            Ok(h) => handlers.push(h),
            Err(_) => alss_telemetry::counter("serve.spawn_failed").inc(),
        }
        // Opportunistically reap finished handlers so the vec stays small.
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn handle_connection(stream: TcpStream, addr: SocketAddr, shared: &Shared) {
    // A finite read timeout lets idle handlers notice the stop flag, so
    // the listener's shutdown join cannot hang on an open connection.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    // Accumulate across timeouts with `read_until` (unlike `read_line`, it
    // keeps already-read bytes in the buffer when a read times out).
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,                             // EOF
            Ok(_) if !buf.ends_with(b"\n") => continue, // partial line
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let line = String::from_utf8_lossy(&buf).into_owned();
        buf.clear();
        if line.trim().is_empty() {
            continue;
        }
        let _span = alss_telemetry::Span::enter("serve.request");
        alss_telemetry::counter("serve.request").inc();
        alss_telemetry::event("serve.request", &[]);
        let started = Instant::now();
        let mut shutdown = false;
        let mut response = match from_line::<Request>(&line) {
            Ok(req) => {
                shutdown = req.op == "shutdown";
                dispatch(&req, shared)
            }
            Err(e) => {
                alss_telemetry::counter("serve.parse_error").inc();
                Response::failure(0, e)
            }
        };
        response.latency_us = us_since(started);
        alss_telemetry::histogram("serve.latency_us").record(response.latency_us);
        let Ok(out_line) = to_line(&response) else {
            break;
        };
        if writer
            .write_all(out_line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .is_err()
        {
            break;
        }
        if shutdown {
            // Acknowledge first, then stop the listener.
            request_stop(shared, addr);
            break;
        }
    }
}

/// Elapsed microseconds, saturated into `u64`.
fn us_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn dispatch(req: &Request, shared: &Shared) -> Response {
    match req.op.as_str() {
        "" | "estimate" => estimate_response(req, shared),
        "ping" => Response {
            id: req.id,
            ok: true,
            ..Response::default()
        },
        "stats" => stats_response(req, shared),
        // The stop flag is flipped by the connection handler *after* this
        // acknowledgement is written, so the client always sees it.
        "shutdown" => Response {
            id: req.id,
            ok: true,
            ..Response::default()
        },
        other => Response::failure(req.id, format!("unknown op {other:?}")),
    }
}

/// `stats` reuses the numeric response fields: `estimate` = cache entries,
/// `log10` = queue depth, `magnitude_class` = cache capacity. `degraded`
/// reports modelless mode.
fn stats_response(req: &Request, shared: &Shared) -> Response {
    Response {
        id: req.id,
        ok: true,
        estimate: shared.cache.len() as f64,
        log10: shared.batcher.queue_depth() as f64,
        magnitude_class: shared.cache.capacity() as u64,
        degraded: shared.modelless,
        ..Response::default()
    }
}

fn estimate_response(req: &Request, shared: &Shared) -> Response {
    let query = match from_text(&req.query) {
        Ok(q) => q,
        Err(e) => return Response::failure(req.id, format!("query: {e}")),
    };
    let key = canonical_key(&query);

    if let Some(hit) = shared.cache.get(&key) {
        alss_telemetry::counter("serve.cache_hit").inc();
        alss_telemetry::event("serve.cache_hit", &[]);
        return ok_response(
            req.id,
            Outcome {
                log10: hit.log10,
                magnitude_class: hit.magnitude_class,
                degraded: false,
            },
            true,
        );
    }
    alss_telemetry::counter("serve.cache_miss").inc();

    let (reply_tx, reply_rx) = sync_channel(1);
    let job = Job {
        id: req.id,
        graph: query,
        key,
        enqueued: Instant::now(),
        deadline: req.deadline_ms.map(Duration::from_millis),
        reply: reply_tx,
    };
    if let Err(e) = shared.batcher.submit(job) {
        return Response::failure(req.id, e);
    }
    match reply_rx.recv() {
        Ok(outcome) => ok_response(req.id, outcome, false),
        Err(_) => Response::failure(req.id, "server shutting down"),
    }
}

fn ok_response(id: u64, outcome: Outcome, cached: bool) -> Response {
    Response {
        id,
        ok: true,
        // Linear-scale counts are ≥ 1, matching `Prediction::count()`;
        // `log10` stays the model's raw output.
        estimate: 10f64.powf(outcome.log10).max(1.0),
        log10: outcome.log10,
        magnitude_class: outcome.magnitude_class,
        degraded: outcome.degraded,
        cached,
        ..Response::default()
    }
}
