//! The traced pass: per-layer metrics.
//!
//! Each per-layer metric is measured on the workload whose end-to-end
//! numbers it explains, so the pass covers all three workloads whatever
//! `--workload` names:
//!
//! - short real-server probes of `serve_hot` and `serve_mixed` give the
//!   wire share of latency and the server's own counts, as
//!   `/v1/metrics` deltas scraped outside the load window;
//! - in-process replays of the seeded inputs call each layer's public
//!   functions in the order the server or `defender value` calls them,
//!   with one span per call, and give each layer's self time;
//! - the `serve_hot` replay also runs with spans off, which gives the
//!   tracing overhead.

use std::collections::BTreeMap;
use std::io::{self, Cursor};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use defender_cache::EquilibriumCache;
use defender_core::best_response::{attacker_best_response, defender_best_response_auto};
use defender_core::bipartite::a_tuple_bipartite_report;
use defender_core::characterization::{verify_mixed_ne, VerificationMode};
use defender_core::model::TupleGame;
use defender_core::pure::pure_ne_existence;
use defender_core::solve::solve_exact;
use defender_core::tree::a_tuple_tree_report;
use defender_core::tuple::{all_tuples, Tuple};
use defender_graph::canonical::canonical_form;
use defender_graph::{properties, Graph, VertexId};
use defender_lp::solve_zero_sum;
use defender_num::Ratio;
use defender_obs as obs;
use defender_obs::json::JsonValue;
use defender_obs::HistStat;
use defender_serve::api::{parse_solve_request, render_solve_response, CacheStatus, SolveOutcome};
use defender_serve::http::{write_response, ReadOutcome, RequestReader};
use defender_serve::solver::{request_game, Solver, SolverConfig, TUPLE_LIMIT};
use defender_serve::ServeConfig;

use crate::client::request_bytes;
use crate::e2e::{self, Ctx, MIXED_RATE};
use crate::plan::{self, Request, Rung, VALUE_LIMIT};
use crate::report::{Report, Tally};
use crate::server;
use crate::stats::{median, quantile};
use crate::trace::{Span, Spans, Tracer};

/// Requests per `serve_hot` replay, and replays with spans on and off.
const HOT_REQUESTS: usize = 2000;
const HOT_REPS: usize = 3;
/// Timed repetitions of the small per-call measurements.
const SMALL_REPS: usize = 5;

/// An in-process solve engine configured like the benchmark's server.
struct Engine {
    cache: Arc<EquilibriumCache>,
    solver: Arc<Solver>,
}

impl Engine {
    fn new(dir: Option<&Path>) -> io::Result<Engine> {
        let cache = Arc::new(match dir {
            Some(d) => EquilibriumCache::open(d)?,
            None => EquilibriumCache::in_memory(),
        });
        let solver = Solver::start(
            Arc::clone(&cache),
            SolverConfig {
                batch_window: Duration::from_millis(server::BATCH_WINDOW_MS),
                max_queue: server::MAX_QUEUE,
                deadline: Duration::from_millis(server::DEADLINE_MS),
            },
        );
        Ok(Engine { cache, solver })
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.solver.shutdown();
    }
}

/// One `/v1/solve` request through the serving layers, in the server's
/// order; the cache status and the value on success.
fn serve_one(tr: &mut Tracer, eng: &Engine, wire: &[u8]) -> Result<(CacheStatus, String), String> {
    let max_body = ServeConfig::default().max_body;
    let max_vertices = ServeConfig::default().max_vertices;
    let mut reader = RequestReader::new(max_body);
    let req = match tr.span("http.read", || reader.next_request(&mut Cursor::new(wire))) {
        ReadOutcome::Request(r) => r,
        other => return Err(format!("request did not frame: {other:?}")),
    };
    let parsed = tr
        .span("api.parse", || parse_solve_request(&req.body, max_vertices))
        .map_err(|e| e.message)?;
    let game = request_game(&parsed.graph, parsed.k, parsed.nu).map_err(|e| e.message)?;
    let form = tr.span("canonical.form", || canonical_form(game.graph()));
    let probed = tr.span("cache.probe", || {
        eng.cache
            .probe(&game, &form, TUPLE_LIMIT)
            .map(|eq| (eq, form.key()))
    });
    let (eq, canonical, status) = match probed {
        Some((eq, key)) => (eq, key, CacheStatus::Hit),
        None => {
            let served = tr
                .span("solver.solve", || eng.solver.solve(&game))
                .map_err(|e| e.message)?;
            (served.equilibrium, served.canonical, served.status)
        }
    };
    let (pure, a_tuple, attacker_br, defender_br) = tr.span("core.extras", || {
        let pure = pure_ne_existence(&game);
        let a_tuple = a_tuple_tree_report(&game)
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
        let attacker_br = attacker_best_response(&game, &eq.config);
        let defender_br = defender_best_response_auto(&game, &eq.config, TUPLE_LIMIT);
        (pure, a_tuple, attacker_br, defender_br)
    });
    let body = tr.span("api.render", || {
        render_solve_response(
            &game,
            &SolveOutcome {
                canonical: &canonical,
                status,
                equilibrium: &eq,
                pure: &pure,
                a_tuple: a_tuple.as_ref().map(|(route, r)| (*route, r)),
                attacker_br,
                defender_br: (&defender_br.0, defender_br.1, defender_br.2),
            },
        )
    });
    let mut out = Vec::with_capacity(body.len() + 128);
    tr.span("http.write", || {
        write_response(&mut out, 200, &body, true, None)
    })
    .map_err(|e| e.to_string())?;
    Ok((status, eq.value.to_string()))
}

fn wire_of(req: &Request) -> Vec<u8> {
    request_bytes("POST", "/v1/solve", req.body.as_bytes())
}

fn counters() -> BTreeMap<String, u64> {
    obs::snapshot().counters.into_iter().collect()
}

fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> f64 {
    let a = after.get(name).copied().unwrap_or(0);
    let b = before.get(name).copied().unwrap_or(0);
    a.saturating_sub(b) as f64
}

/// Counter `name` of a `/v1/metrics` document.
fn served_counter(doc: &JsonValue, name: &str) -> u64 {
    doc.get("snapshot")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

fn served_delta(run: &e2e::ServeRun, name: &str) -> f64 {
    served_counter(&run.after, name).saturating_sub(served_counter(&run.before, name)) as f64
}

/// Median of the server's `srv.latency_ns` histogram over the window, in
/// ms, from the bucket deltas of the two scrapes.
fn server_latency_p50_ms(run: &e2e::ServeRun) -> f64 {
    let buckets = |doc: &JsonValue| -> BTreeMap<u64, u64> {
        let Some(hists) = doc
            .get("snapshot")
            .and_then(|s| s.get("histograms"))
            .and_then(JsonValue::as_array)
        else {
            return BTreeMap::new();
        };
        hists
            .iter()
            .filter(|h| h.get("name").and_then(JsonValue::as_str) == Some("srv.latency_ns"))
            .flat_map(|h| {
                h.get("buckets")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[])
            })
            .filter_map(|b| Some((b.get("log2")?.as_u64()?, b.get("count")?.as_u64()?)))
            .collect()
    };
    let before = buckets(&run.before);
    let after = buckets(&run.after);
    let delta: Vec<(usize, u64)> = after
        .iter()
        .map(|(&i, &c)| (i as usize, c - before.get(&i).copied().unwrap_or(0)))
        .filter(|&(_, c)| c > 0)
        .collect();
    let stat = HistStat {
        name: "srv.latency_ns".to_owned(),
        count: delta.iter().map(|&(_, c)| c).sum(),
        sum: 0,
        buckets: delta,
    };
    stat.p50() / 1e6
}

/// Warms an engine with one request per pool class, untraced.
fn warm(eng: &Engine, tally: &mut Tally) {
    let mut off = Tracer::new(false, Instant::now());
    for req in plan::warmup() {
        record(
            tally,
            serve_one(&mut off, eng, &wire_of(&req)),
            &req.value,
            None,
        );
    }
}

fn record(
    tally: &mut Tally,
    outcome: Result<(CacheStatus, String), String>,
    want: &str,
    want_status: Option<CacheStatus>,
) -> Option<CacheStatus> {
    match outcome {
        Ok((status, value)) if value == want && want_status.map_or(true, |w| w == status) => {
            tally.ok(status.as_str());
            Some(status)
        }
        Ok((status, value)) => {
            tally.fail(format!(
                "replay: value {value} ({}), pinned {want}",
                status.as_str()
            ));
            None
        }
        Err(e) => {
            tally.fail(format!("replay: {e}"));
            None
        }
    }
}

/// The `serve_hot` replay: warm-up, then `HOT_REPS` alternations of a
/// traced and an untraced pass over the same isomorph requests.
fn hot_replay(ctx: &Ctx, r: &mut Report) -> Spans {
    let eng = Engine::new(None).expect("an in-memory cache cannot fail to open");
    let before = counters();
    warm(&eng, &mut r.tally);
    let after = counters();
    r.add(
        "lp.warm_rejected",
        delta(&before, &after, "lp.warm.rejected"),
        "count",
        1,
    );
    let wires: Vec<(Vec<u8>, String)> = plan::hot_plan(ctx.seed, HOT_REQUESTS)
        .iter()
        .map(|q| (wire_of(q), q.value.clone()))
        .collect();
    let epoch = Instant::now();
    let mut spans = Spans::default();
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    for _ in 0..HOT_REPS {
        for traced in [true, false] {
            let mut tr = Tracer::new(traced, epoch);
            let t0 = Instant::now();
            for (i, (wire, want)) in wires.iter().enumerate() {
                tr.begin("request", i as u64);
                let outcome = serve_one(&mut tr, &eng, wire);
                tr.end();
                record(&mut r.tally, outcome, want, Some(CacheStatus::Hit));
            }
            let wall = t0.elapsed().as_secs_f64();
            if traced {
                on_s.push(wall);
                spans.push_lane(tr.into_spans());
            } else {
                off_s.push(wall);
            }
        }
    }
    let us = |name: &str| spans.self_us(name);
    for (metric, span) in [
        ("http.read_us", "http.read"),
        ("http.write_us", "http.write"),
        ("api.parse_us", "api.parse"),
        ("api.render_us", "api.render"),
        ("cache.probe_us", "cache.probe"),
        ("core.extras_us", "core.extras"),
    ] {
        let v = us(span);
        r.add(metric, median(&v), "us", v.len());
    }
    let canon = us("canonical.form");
    r.add("canonical.form_p50_us", median(&canon), "us", canon.len());
    r.add(
        "canonical.form_p99_us",
        quantile(&canon, 0.99),
        "us",
        canon.len(),
    );
    r.add(
        "trace.overhead_ratio",
        median(&on_s) / median(&off_s),
        "1",
        on_s.len(),
    );
    spans
}

/// `first_equilibrium_supports` on the k = 1 pool classes with at most
/// six edges: the warm-start hint the server computes on those misses.
fn support_hint(r: &mut Report) {
    let graphs: Vec<_> = plan::pool()
        .into_iter()
        .filter(|(_, g, _)| g.edges.len() <= 6)
        .map(|(_, g, _)| canonical_form(&g.to_graph()).to_graph())
        .collect();
    let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); graphs.len()];
    let mut hints = 0;
    for _ in 0..SMALL_REPS {
        for (g, times) in graphs.iter().zip(per_class.iter_mut()) {
            let incidence: Vec<Vec<Ratio>> = g
                .edges()
                .map(|e| {
                    let ends = g.endpoints(e);
                    (0..g.vertex_count())
                        .map(|v| {
                            if ends.contains(VertexId::new(v)) {
                                Ratio::ONE
                            } else {
                                Ratio::ZERO
                            }
                        })
                        .collect()
                })
                .collect();
            let game = defender_game::TwoPlayerMatrixGame::zero_sum(incidence);
            let t0 = Instant::now();
            let found = std::hint::black_box(defender_game::first_equilibrium_supports(&game));
            times.push(t0.elapsed().as_secs_f64() * 1e6);
            hints += usize::from(found.is_some());
        }
    }
    r.notes.push(format!(
        "support hints found {hints} of {} (None is a cold solve, not a failure)",
        graphs.len() * SMALL_REPS
    ));
    let total: f64 = per_class.iter().map(|t| median(t)).sum();
    r.add("game.support_hint_us", total, "us", graphs.len());
}

/// One replay thread's spans, tally, and cache status per arrival.
type ReplayLane = (Vec<Span>, Tally, Vec<(u64, CacheStatus)>);

/// The `serve_mixed` replay: the open-loop plan on two threads against
/// an in-process engine over a cache directory, then the cache's own
/// persist and open at the final store size.
fn mixed_replay(ctx: &Ctx, seconds: f64, r: &mut Report) -> io::Result<Spans> {
    let dir = ctx.fresh_dir("replay_cache")?;
    let plan = plan::mixed_plan(ctx.seed, MIXED_RATE, seconds);
    let eng = Engine::new(Some(&dir))?;
    warm(&eng, &mut r.tally);
    let epoch = Instant::now();
    let start = Instant::now();
    let eng_ref = &eng;
    let plan_ref = &plan;
    let lanes: Vec<ReplayLane> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..e2e::CONNECTIONS)
            .map(|lane| {
                s.spawn(move || {
                    let mut tr = Tracer::new(true, epoch);
                    let mut tally = Tally::default();
                    let mut statuses = Vec::new();
                    for (i, req) in plan_ref
                        .arrivals
                        .iter()
                        .enumerate()
                        .skip(lane)
                        .step_by(e2e::CONNECTIONS)
                    {
                        let due = start + req.due;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        tr.begin("request", i as u64);
                        let outcome = serve_one(&mut tr, eng_ref, &wire_of(req));
                        tr.end();
                        if let Some(st) = record(&mut tally, outcome, &req.value, None) {
                            statuses.push((i as u64, st));
                        }
                    }
                    (tr.into_spans(), tally, statuses)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut spans = Spans::default();
    let mut statuses = BTreeMap::new();
    for (lane, tally, st) in lanes {
        spans.push_lane(lane);
        r.tally.merge(tally);
        statuses.extend(st);
    }
    let solve_ms = spans.by_request_ms("solver.solve");
    let mut miss_ms = Vec::new();
    let mut wait_ms = Vec::new();
    for (i, status) in &statuses {
        let (Some(ms), CacheStatus::Miss) = (solve_ms.get(i), status) else {
            continue;
        };
        miss_ms.push(*ms);
        if let Some(f) = plan.arrivals[*i as usize].fresh {
            wait_ms.push(ms - plan.fresh[f].solve_ms);
        }
    }
    r.add("solver.miss_p50_ms", median(&miss_ms), "ms", miss_ms.len());
    r.add(
        "solver.miss_p99_ms",
        quantile(&miss_ms, 0.99),
        "ms",
        miss_ms.len(),
    );
    r.add("solver.wait_ms", median(&wait_ms), "ms", wait_ms.len());

    let mut persist_ms = Vec::new();
    for _ in 0..SMALL_REPS {
        let t0 = Instant::now();
        eng.cache.persist()?;
        persist_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let entries = eng.cache.len();
    drop(eng);
    let mut open_ms = Vec::new();
    for _ in 0..SMALL_REPS {
        let t0 = Instant::now();
        let reopened = EquilibriumCache::open(&dir)?;
        open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if reopened.len() != entries {
            r.tally.fail(format!(
                "reopened cache has {} entries, stored {entries}",
                reopened.len()
            ));
        }
    }
    r.add("cache.persist_ms", median(&persist_ms), "ms", entries);
    r.add("cache.open_ms", median(&open_ms), "ms", entries);
    Ok(spans)
}

/// The LP matrix `solve_exact` builds: one row per tuple, a 1 for each
/// vertex the tuple covers.
fn ratio_matrix(graph: &Graph, tuples: &[Tuple]) -> Vec<Vec<Ratio>> {
    tuples
        .iter()
        .map(|t| {
            let mut row = vec![Ratio::ZERO; graph.vertex_count()];
            for v in t.vertices(graph) {
                row[v.index()] = Ratio::ONE;
            }
            row
        })
        .collect()
}

/// The `value_ladder` replay: what `defender value` runs per rung, with
/// metrics off as in the CLI, plus the Thm 3.4 verifier and A_tuple on
/// the bipartite rungs; then the LP again with counters on. Each rung's
/// replay is followed at once by a real `defender value` call on it, so
/// the solve share compares times taken back to back.
fn ladder_replay(ctx: &Ctx, r: &mut Report) -> io::Result<Spans> {
    let rungs: Vec<Rung> = plan::ladder_rungs(ctx.seed);
    let files = e2e::prepare_rungs(ctx, &rungs)?;
    let mut cli_ms = 0.0;
    obs::disable();
    let epoch = Instant::now();
    let mut tr = Tracer::new(true, epoch);
    let mut tuples = 0usize;
    let mut rejected = Vec::new();
    let mut matrices = Vec::new();
    for (i, rung) in rungs.iter().enumerate() {
        let g = rung.graph.to_graph();
        let game = TupleGame::new(&g, rung.k, 1).expect("rungs are valid games");
        tr.begin("rung", i as u64);
        let rung_tuples = tr
            .span("core.tuples", || all_tuples(&g, rung.k, VALUE_LIMIT))
            .expect("ladder rungs are within the tuple limit");
        tuples += rung_tuples.len();
        let eq = tr.span("core.solve", || solve_exact(&game, VALUE_LIMIT));
        let matrix = ratio_matrix(&g, &rung_tuples);
        let lp = tr.span("lp.solve", || solve_zero_sum(&matrix));
        if rung.bipartite {
            let at = tr.span("core.a_tuple", || a_tuple_bipartite_report(&game));
            if at.map(|a| a.ne.hit_probability().to_string()).ok() != Some(rung.value.clone()) {
                r.tally.fail(format!(
                    "{}: A_tuple disagrees with the pinned value",
                    rung.name
                ));
            }
        }
        match eq {
            Ok(eq) if eq.value.to_string() == rung.value => {
                let verified = tr.span("core.verify", || {
                    verify_mixed_ne(&game, &eq.config, VerificationMode::Auto)
                });
                r.tally.ok("rung");
                if !verified.is_ok_and(|rep| rep.is_equilibrium()) {
                    rejected.push(rung.name.clone());
                }
            }
            Ok(eq) => r.tally.fail(format!(
                "{}: value {}, pinned {}",
                rung.name, eq.value, rung.value
            )),
            Err(e) => r.tally.fail(format!("{}: {e}", rung.name)),
        }
        if lp.map(|s| s.value.to_string()).ok() != Some(rung.value.clone()) {
            r.tally.fail(format!(
                "{}: LP value differs from the pinned value",
                rung.name
            ));
        }
        tr.end();
        matrices.push(matrix);
        let call = e2e::ladder_pass(
            &ctx.defender,
            std::slice::from_ref(rung),
            &files[i..=i],
            &mut r.tally,
        );
        cli_ms += call.iter().flatten().sum::<f64>();
    }
    r.notes.push(format!(
        "Thm 3.4 verifier rejects the LP config on: {rejected:?}"
    ));
    let mut spans = Spans::default();
    spans.push_lane(tr.into_spans());

    obs::enable();
    let before = counters();
    for m in &matrices {
        let _ = std::hint::black_box(solve_zero_sum(m));
    }
    let after = counters();

    let ms_sum = |name: &str| spans.self_ns(name).iter().sum::<f64>() / 1e6;
    let n = rungs.len();
    r.add("core.solve_ms", ms_sum("core.solve"), "ms", n);
    r.add("value.ladder_s", cli_ms / 1e3, "s", n);
    r.add("core.solve_share", ms_sum("core.solve") / cli_ms, "1", n);
    r.add("core.tuples", tuples as f64, "count", n);
    r.add("lp.solve_ms", ms_sum("lp.solve"), "ms", n);
    r.add(
        "lp.pivots",
        delta(&before, &after, "lp.simplex.pivots"),
        "count",
        n,
    );
    r.add(
        "num.accum_reductions",
        delta(&before, &after, "num.accum_reductions"),
        "count",
        n,
    );
    r.add(
        "num.gcd_skipped",
        delta(&before, &after, "num.gcd_skipped"),
        "count",
        n,
    );
    let bip = rungs.iter().filter(|x| x.bipartite).count();
    r.add("core.a_tuple_us", ms_sum("core.a_tuple") * 1e3, "us", bip);
    r.add("core.verify_ms", ms_sum("core.verify"), "ms", n);
    let per_rung = spans.self_ns("core.solve");
    for (rung, ns) in rungs.iter().zip(&per_rung) {
        r.add(&format!("core.solve_ms.{}", rung.name), ns / 1e6, "ms", 1);
    }
    Ok(spans)
}

/// Runs the whole traced pass and returns the per-layer metrics.
pub fn traced_pass(ctx: &Ctx, out: &Path) -> io::Result<Report> {
    let mut r = Report::default();
    let probe_s = (ctx.seconds / 3.0).max(2.0);

    // Real-server probes, tracing off, one set-up each.
    let hot = e2e::run_serve_hot(ctx, probe_s, 1)?;
    r.tally.merge(hot.warmup.clone());
    r.tally.merge(hot.window.tally.clone());
    let client_p50 = median(&hot.window.latency_ms);
    let server_p50 = server_latency_p50_ms(&hot);
    let wire_p50 = client_p50 - server_p50;
    let samples = hot.window.latency_ms.len();
    r.add("http.wire_p50_ms", wire_p50, "ms", samples);
    r.add("http.wire_share", wire_p50 / client_p50, "1", samples);
    let solves = hot.window.tally.attempted as f64;
    r.add(
        "cache.hit_ratio",
        served_delta(&hot, "srv.hits") / solves,
        "1",
        hot.window.tally.attempted as usize,
    );
    r.notes.push(format!(
        "serve_hot probe: client p50 {client_p50:.3} ms, server p50 {server_p50:.3} ms"
    ));

    let mixed = e2e::run_serve_mixed(ctx, probe_s, 1)?;
    r.tally.merge(mixed.warmup.clone());
    r.tally.merge(mixed.window.tally.clone());
    let batches = served_delta(&mixed, "srv.batches");
    r.add(
        "solver.batch_mean",
        served_delta(&mixed, "srv.batched") / batches,
        "count",
        batches as usize,
    );
    let misses = served_delta(&mixed, "srv.misses");
    let coalesced = served_delta(&mixed, "srv.coalesced");
    r.add(
        "solver.coalesced_ratio",
        coalesced / (misses + coalesced),
        "1",
        (misses + coalesced) as usize,
    );
    r.add("solver.shed", served_delta(&mixed, "srv.shed"), "count", 1);
    r.add(
        "solver.deadline",
        served_delta(&mixed, "srv.deadline"),
        "count",
        1,
    );
    let late = &mixed.window.late_ms;
    r.add("gen.late_p99_ms", quantile(late, 0.99), "ms", late.len());

    // In-process traced replays.
    let ladder = ladder_replay(ctx, &mut r)?;
    let hot_spans = hot_replay(ctx, &mut r);
    support_hint(&mut r);
    let mixed_spans = mixed_replay(ctx, probe_s, &mut r)?;
    std::fs::create_dir_all(out)?;
    for (part, spans) in [
        ("serve_hot", &hot_spans),
        ("serve_mixed", &mixed_spans),
        ("value_ladder", &ladder),
    ] {
        let path = out.join(format!("spans_{part}.ndjson"));
        spans.write_json(&path)?;
        r.notes.push(format!(
            "{} spans written to {}",
            spans.count(),
            path.display()
        ));
    }
    Ok(r)
}
