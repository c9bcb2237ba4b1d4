//! `defender-serve`: cache-first batched equilibrium serving over a
//! std-only HTTP front.
//!
//! This crate turns the batch solver into an always-on service. The
//! front is a hand-rolled HTTP/1.1 listener ([`http`]); the engine
//! behind it ([`solver`]) is cache-first — every request canonicalizes
//! its graph and probes the [`defender_cache`] memo, so isomorphic
//! re-queries are answered in O(canonical form) without touching the
//! LP — with in-flight coalescing (one solve fans out to all concurrent
//! waiters of a class) and micro-batched misses fanned over
//! [`defender_par`]. Overload sheds with `429 + Retry-After` instead of
//! queueing unboundedly.
//!
//! # Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/solve` | graph6 or edge list + `(k, ν)` → equilibrium |
//! | `GET /v1/metrics` | obs snapshot + judged counters |
//! | `GET /v1/healthz` | liveness + queue depth |
//! | `POST /v1/shutdown` | graceful stop (flushes the cache sidecar) |
//!
//! # Telemetry
//!
//! The request path ticks `srv.*` counters (requests, hits, misses,
//! coalesced, batches, shed, ...), a queue-depth gauge, and latency /
//! batch-size histograms, and wraps requests and batch rounds in
//! `span!` lanes, so `defender profile` and the bench gate cover
//! serving like any experiment. Live counters are warm-variant by
//! design; the jobs/warmth-invariant judged view is exposed as the
//! `judged` object of `GET /v1/metrics` (see [`solver`] docs).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod api;
pub mod client;
pub mod http;
pub mod solver;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use defender_cache::EquilibriumCache;
use defender_core::best_response::{attacker_best_response, defender_best_response_auto};
use defender_core::bipartite::a_tuple_bipartite_report;
use defender_core::pure::pure_ne_existence;
use defender_core::tree::a_tuple_tree_report;
use defender_graph::properties;
use defender_obs as obs;
use defender_obs::json::JsonObject;

use crate::api::{parse_solve_request, render_error, render_solve_response, SolveOutcome};
use crate::http::{HttpError, ReadOutcome, RequestReader, ResponseWriter};
use crate::solver::{request_game, Solver, SolverConfig, TUPLE_LIMIT};

/// Server tunables; every knob has a CLI flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Cache directory for the persisted sidecar (in-memory when absent).
    pub cache_dir: Option<PathBuf>,
    /// Worker-pool width for batched solves (0 = all cores).
    pub jobs: usize,
    /// Minimum spacing between solve-round starts; see
    /// [`SolverConfig::batch_window`](crate::solver::SolverConfig::batch_window).
    pub batch_window: Duration,
    /// Bound on queued solve classes; sheds past ¾ of this.
    pub max_queue: usize,
    /// Request body bound in bytes (413 beyond it).
    pub max_body: usize,
    /// Per-request solve deadline.
    pub deadline: Duration,
    /// Largest instance (vertices) the server will solve.
    pub max_vertices: usize,
    /// Concurrent-connection bound (503 beyond it).
    pub max_connections: usize,
    /// How often the dirty cache sidecar is flushed.
    pub flush_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir: None,
            jobs: 0,
            batch_window: Duration::from_millis(5),
            max_queue: 64,
            max_body: 64 * 1024,
            deadline: Duration::from_secs(10),
            max_vertices: 64,
            max_connections: 64,
            flush_interval: Duration::from_secs(2),
        }
    }
}

/// State shared by the accept loop, connection handlers, and the flusher.
struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    cache: Arc<EquilibriumCache>,
    solver: Arc<Solver>,
    stop: AtomicBool,
    connections: AtomicUsize,
}

/// A running server; keep it to stop it.
pub struct Server {
    shared: Arc<Shared>,
    accept: Mutex<Option<JoinHandle<()>>>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr())
            .finish()
    }
}

impl Server {
    /// Binds, starts the solve engine and accept/flusher threads, and
    /// returns without blocking. `defender_par` width is set from
    /// `config.jobs`.
    ///
    /// # Errors
    ///
    /// Bind failures and cache-open failures.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        obs::enable();
        if config.jobs > 0 {
            defender_par::set_jobs(config.jobs);
        }
        let cache = Arc::new(match &config.cache_dir {
            Some(dir) => EquilibriumCache::open(dir)?,
            None => EquilibriumCache::in_memory(),
        });
        let solver = Solver::start(
            Arc::clone(&cache),
            SolverConfig {
                batch_window: config.batch_window,
                max_queue: config.max_queue,
                deadline: config.deadline,
            },
        );
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            config,
            addr,
            cache,
            solver,
            stop: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("srv-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared))?;

        let flush_shared = Arc::clone(&shared);
        let flusher = std::thread::Builder::new()
            .name("srv-flush".to_owned())
            .spawn(move || flush_loop(&flush_shared))?;

        Ok(Server {
            shared,
            accept: Mutex::new(Some(accept)),
            flusher: Mutex::new(Some(flusher)),
        })
    }

    /// The bound address (useful with `:0` ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Blocks until the server stops (via [`Server::shutdown`] or a
    /// `POST /v1/shutdown`), then flushes the cache sidecar.
    pub fn wait(&self) {
        let accept = self.lock_thread(&self.accept);
        if let Some(handle) = accept {
            let _ = handle.join();
        }
        let flusher = self.lock_thread(&self.flusher);
        if let Some(handle) = flusher {
            let _ = handle.join();
        }
        self.shared.solver.shutdown();
        // Final unconditional flush: batched flushing must never lose
        // the tail of the store at exit.
        let _ = self.shared.cache.persist();
    }

    /// Requests a stop and unblocks the accept loop.
    pub fn shutdown(&self) {
        request_stop(&self.shared);
    }

    fn lock_thread(&self, slot: &Mutex<Option<JoinHandle<()>>>) -> Option<JoinHandle<()>> {
        slot.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
    }
}

/// Sets the stop flag and pokes the accept loop awake with a throwaway
/// connection (std has no listener interruption).
fn request_stop(shared: &Shared) {
    if shared.stop.swap(true, Ordering::AcqRel) {
        return;
    }
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_secs(1));
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // Every reply is one write (see `ResponseWriter`); with Nagle off
        // it leaves at once instead of waiting on the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let active = shared.connections.fetch_add(1, Ordering::AcqRel) + 1;
        obs::gauge!("srv.connections").set(active as u64);
        if active > shared.config.max_connections {
            let err = HttpError {
                status: 503,
                kind: "Overloaded",
                message: format!("connection limit {} reached", shared.config.max_connections),
            };
            let mut stream = stream;
            let _ =
                http::write_response(&mut stream, err.status, &render_error(&err), false, Some(1));
            release_connection(shared);
            continue;
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("srv-conn".to_owned())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                release_connection(&conn_shared);
            });
        if spawned.is_err() {
            release_connection(shared);
        }
    }
}

fn release_connection(shared: &Shared) {
    let active = shared.connections.fetch_sub(1, Ordering::AcqRel) - 1;
    obs::gauge!("srv.connections").set(active as u64);
}

/// Flushes the dirty sidecar on an interval until stop, then once more.
/// Sleeps in 100 ms steps so shutdown stays prompt under long intervals.
fn flush_loop(shared: &Shared) {
    'outer: loop {
        let mut slept = Duration::ZERO;
        while slept < shared.config.flush_interval {
            if shared.stop.load(Ordering::Acquire) {
                break 'outer;
            }
            let step = Duration::from_millis(100).min(shared.config.flush_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
        let _ = shared.cache.flush_if_dirty();
    }
    let _ = shared.cache.flush_if_dirty();
}

/// Serves one connection: strict incremental parsing, pipelining, and a
/// close on the first unframeable request. A peer disconnecting
/// mid-response surfaces as a write error and simply ends the loop —
/// no panic path is reachable from the network.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    // Idle/stalled peers release the thread after the deadline + slack.
    let _ = stream.set_read_timeout(Some(shared.config.deadline + Duration::from_secs(5)));
    let mut reader = RequestReader::new(shared.config.max_body);
    let mut writer = ResponseWriter::default();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match reader.next_request(&mut stream) {
            ReadOutcome::Closed => return,
            ReadOutcome::Error(err) => {
                obs::counter!("srv.errors").incr();
                let _ = writer.write(&mut stream, err.status, &render_error(&err), false, None);
                return;
            }
            ReadOutcome::Request(request) => {
                let _span = obs::span!("srv.request");
                obs::counter!("srv.requests").incr();
                let t0 = obs::trace::elapsed_ns();
                let keep_alive = request.keep_alive;
                let (status, body, retry_after) = route(&request, shared);
                obs::histogram!("srv.latency_ns")
                    .record(obs::trace::elapsed_ns().saturating_sub(t0));
                if status >= 400 {
                    obs::counter!("srv.errors").incr();
                }
                if writer
                    .write(&mut stream, status, &body, keep_alive, retry_after)
                    .is_err()
                {
                    return; // peer went away mid-response
                }
                if !keep_alive {
                    return;
                }
                if request.method == "POST" && request.path == "/v1/shutdown" {
                    return;
                }
            }
        }
    }
}

/// Dispatches one parsed request to its endpoint.
fn route(request: &http::Request, shared: &Shared) -> (u16, Vec<u8>, Option<u64>) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/solve") => match solve_endpoint(&request.body, shared) {
            Ok(body) => (200, body, None),
            Err(err) => {
                let retry = (err.status == 429 || err.status == 503)
                    .then(|| (shared.config.batch_window.as_millis() as u64 / 1000).max(1));
                (err.status, render_error(&err), retry)
            }
        },
        ("GET", "/v1/metrics") => (200, metrics_endpoint(shared), None),
        ("GET", "/v1/healthz") => (200, healthz_endpoint(shared), None),
        ("POST", "/v1/shutdown") => {
            request_stop(shared);
            (200, b"{\"status\": \"stopping\"}".to_vec(), None)
        }
        (_, "/v1/solve" | "/v1/metrics" | "/v1/healthz" | "/v1/shutdown") => {
            let err = HttpError {
                status: 405,
                kind: "MethodNotAllowed",
                message: format!("{} is not valid for {}", request.method, request.path),
            };
            (err.status, render_error(&err), None)
        }
        (_, path) => {
            let err = HttpError {
                status: 404,
                kind: "NotFound",
                message: format!("no route for {path}"),
            };
            (err.status, render_error(&err), None)
        }
    }
}

fn solve_endpoint(body: &[u8], shared: &Shared) -> Result<Vec<u8>, HttpError> {
    let parsed = parse_solve_request(body, shared.config.max_vertices)?;
    let game = request_game(&parsed.graph, parsed.k, parsed.nu)?;
    let served = shared.solver.solve(&game)?;

    // The paper-side extras are combinatorial (no LP): pure existence
    // (Thm 3.1), the A_tuple construction on forests / bipartite graphs
    // (Alg. 4.12), and both best responses against the equilibrium.
    let pure = pure_ne_existence(&game);
    let a_tuple_report = a_tuple_tree_report(&game)
        .map(|r| ("tree", r))
        .ok()
        .or_else(|| {
            properties::is_bipartite(game.graph())
                .then(|| {
                    a_tuple_bipartite_report(&game)
                        .map(|r| ("bipartite", r))
                        .ok()
                })
                .flatten()
        });
    let attacker_br = attacker_best_response(&game, &served.equilibrium.config);
    let defender_br = defender_best_response_auto(&game, &served.equilibrium.config, TUPLE_LIMIT);

    Ok(render_solve_response(
        &game,
        &SolveOutcome {
            canonical: &served.canonical,
            status: served.status,
            equilibrium: &served.equilibrium,
            pure: &pure,
            a_tuple: a_tuple_report.as_ref().map(|(route, r)| (*route, r)),
            attacker_br,
            defender_br: (&defender_br.0, defender_br.1, defender_br.2),
        },
    ))
}

fn metrics_endpoint(shared: &Shared) -> Vec<u8> {
    let snapshot = obs::snapshot();
    let mut judged = JsonObject::new();
    for (name, v) in shared.solver.judged_counters() {
        judged.field_u64(&name, v);
    }
    let mut doc = JsonObject::new();
    doc.field_raw("snapshot", &snapshot.to_json());
    doc.field_raw("judged", &judged.finish());
    doc.field_u64("served_classes", shared.solver.served_classes() as u64);
    doc.field_u64("cached_classes", shared.cache.len() as u64);
    doc.finish().into_bytes()
}

fn healthz_endpoint(shared: &Shared) -> Vec<u8> {
    let mut doc = JsonObject::new();
    doc.field_str("status", "ok");
    doc.field_u64("cached_classes", shared.cache.len() as u64);
    doc.field_u64(
        "connections",
        shared.connections.load(Ordering::Acquire) as u64,
    );
    doc.finish().into_bytes()
}
