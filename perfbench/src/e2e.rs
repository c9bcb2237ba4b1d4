//! The end-to-end workloads, run against the real `defender` binary with
//! tracing off: `serve_hot` (closed loop, all hits), `serve_mixed` (open
//! loop, hits beside fresh solves) and `value_ladder` (sequential
//! `defender value` calls).

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use defender_obs::json::JsonValue;

use crate::client::{value_and_cache, Client, Response};
use crate::plan::{self, Request, Rung};
use crate::report::{Report, Tally};
use crate::server::ServerProc;
use crate::stats::{gmean, median, quantile};

/// Client connections, and load threads, of the serve workloads.
pub const CONNECTIONS: usize = 2;
/// Server set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Rung-file writes per run of `value_ladder`; `setup_s` is their median.
const LADDER_SETUP_REPS: usize = 25;
/// Open-loop arrival rate of `serve_mixed`, per second.
pub const MIXED_RATE: f64 = 15.0;
/// Latency limits of `slo_ratio`.
pub const HOT_SLO_MS: f64 = 10.0;
pub const MIXED_SLO_MS: f64 = 250.0;
/// A request that takes longer than this fails.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);

/// Where a run finds the program and keeps its scratch files.
#[derive(Debug)]
pub struct Ctx {
    pub defender: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    next_dir: std::cell::Cell<usize>,
}

impl Ctx {
    pub fn new(defender: PathBuf, work: PathBuf, seed: u64, seconds: f64) -> Ctx {
        Ctx {
            defender,
            work,
            seed,
            seconds,
            next_dir: std::cell::Cell::new(0),
        }
    }

    /// A new empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, stem: &str) -> io::Result<PathBuf> {
        let i = self.next_dir.get();
        self.next_dir.set(i + 1);
        let dir = self.work.join(format!("{stem}{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// Checks one `/v1/solve` answer; the cache label on success.
pub fn check(resp: io::Result<Response>, want: &str) -> Result<String, String> {
    let resp = resp.map_err(|e| format!("transport: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "status {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    let (value, cache) =
        value_and_cache(&resp.body).ok_or_else(|| "unparseable 200 body".to_owned())?;
    if value != want {
        return Err(format!("value {value}, pinned {want}"));
    }
    Ok(cache)
}

/// Spawns a server on a fresh cache directory and warms every pool
/// class; returns it with the set-up time in seconds.
fn setup_server(ctx: &Ctx, tally: &mut Tally) -> io::Result<(ServerProc, f64)> {
    let cache = ctx.fresh_dir("cache")?;
    let t0 = Instant::now();
    let server = ServerProc::spawn(&ctx.defender, &cache)?;
    let mut client = Client::connect(server.addr, REQUEST_TIMEOUT)?;
    for req in plan::warmup() {
        match check(client.post("/v1/solve", req.body.as_bytes()), &req.value) {
            Ok(label) => tally.ok(&format!("warmup_{label}")),
            Err(e) => {
                tally.fail(format!("warm-up: {e}"));
                client = Client::connect(server.addr, REQUEST_TIMEOUT)?;
            }
        }
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// `reps` set-ups; the last server stays up for the window.
fn setups(ctx: &Ctx, reps: usize, tally: &mut Tally) -> io::Result<(ServerProc, Vec<f64>)> {
    let mut times = Vec::new();
    loop {
        let (server, t) = setup_server(ctx, tally)?;
        times.push(t);
        if times.len() >= reps {
            return Ok((server, times));
        }
    }
}

/// What one load window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub tally: Tally,
    pub latency_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub within_slo: u64,
    pub seconds: f64,
}

impl Window {
    fn merge(&mut self, other: Window) {
        self.tally.merge(other.tally);
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.within_slo += other.within_slo;
        self.seconds = self.seconds.max(other.seconds);
    }

    fn record(&mut self, outcome: Result<String, String>, latency_ms: f64, slo_ms: f64) {
        match outcome {
            Ok(label) => {
                self.tally.ok(&label);
                self.latency_ms.push(latency_ms);
                if latency_ms <= slo_ms {
                    self.within_slo += 1;
                }
            }
            Err(e) => self.tally.fail(e),
        }
    }
}

/// Closed loop: each connection sends its next request when the last is
/// answered, cycling through `plan`, until `seconds` have passed.
fn closed_loop(addr: SocketAddr, plan: &[Request], seconds: f64, hits_only: bool) -> Window {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut total = Window::default();
    std::thread::scope(|s| {
        let lanes: Vec<_> = (0..CONNECTIONS)
            .map(|lane| {
                s.spawn(move || {
                    let mut w = Window::default();
                    let mut client = Client::connect(addr, REQUEST_TIMEOUT);
                    let mut i = lane;
                    while Instant::now() < stop {
                        let req = &plan[i % plan.len()];
                        i += CONNECTIONS;
                        let Ok(c) = client.as_mut() else {
                            w.tally.fail("connect failed".to_owned());
                            client = Client::connect(addr, REQUEST_TIMEOUT);
                            continue;
                        };
                        let t0 = Instant::now();
                        let resp = c.post("/v1/solve", req.body.as_bytes());
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let mut outcome = check(resp, &req.value);
                        if hits_only {
                            outcome = outcome.and_then(|label| match label.as_str() {
                                "hit" => Ok(label),
                                other => Err(format!("cache {other} after warm-up")),
                            });
                        }
                        if outcome.is_err() {
                            client = Client::connect(addr, REQUEST_TIMEOUT);
                        }
                        w.record(outcome, ms, HOT_SLO_MS);
                    }
                    w.seconds = start.elapsed().as_secs_f64();
                    w
                })
            })
            .collect();
        for lane in lanes {
            total.merge(lane.join().expect("load thread panicked"));
        }
    });
    total
}

/// Sleeps until about a millisecond before `due`, then spins, so the
/// generator's own wake-up delay stays out of the measured latency.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + Duration::from_millis(1) {
        std::thread::sleep(due - now - Duration::from_millis(1));
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Open loop: arrival `i` goes out on connection `i mod 2` at its due
/// time, or as soon as that connection is free if it is late. Latency
/// runs from the due time.
fn open_loop(addr: SocketAddr, arrivals: &[Request]) -> Window {
    let start = Instant::now();
    let mut total = Window::default();
    std::thread::scope(|s| {
        let lanes: Vec<_> = (0..CONNECTIONS)
            .map(|lane| {
                s.spawn(move || {
                    let mut w = Window::default();
                    let mut client = Client::connect(addr, REQUEST_TIMEOUT);
                    for req in arrivals.iter().skip(lane).step_by(CONNECTIONS) {
                        let due = start + req.due;
                        wait_until(due);
                        let sent = Instant::now();
                        w.late_ms
                            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                        let Ok(c) = client.as_mut() else {
                            w.tally.fail("connect failed".to_owned());
                            client = Client::connect(addr, REQUEST_TIMEOUT);
                            continue;
                        };
                        let resp = c.post("/v1/solve", req.body.as_bytes());
                        let ms = due.elapsed().as_secs_f64() * 1e3;
                        let outcome = check(resp, &req.value);
                        if outcome.is_err() {
                            client = Client::connect(addr, REQUEST_TIMEOUT);
                        }
                        w.record(outcome, ms, MIXED_SLO_MS);
                    }
                    w.seconds = start.elapsed().as_secs_f64();
                    w
                })
            })
            .collect();
        for lane in lanes {
            total.merge(lane.join().expect("load thread panicked"));
        }
    });
    total
}

/// `GET /v1/metrics`, outside any measured window.
fn scrape(addr: SocketAddr) -> io::Result<JsonValue> {
    let resp = Client::connect(addr, REQUEST_TIMEOUT)?.get("/v1/metrics")?;
    let text = String::from_utf8(resp.body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "metrics body"))?;
    defender_obs::json::parse(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A serve run: set-ups, then the load window on the last server, with
/// `/v1/metrics` scraped before and after the window.
pub struct ServeRun {
    pub setup_s: Vec<f64>,
    pub window: Window,
    pub before: JsonValue,
    pub after: JsonValue,
    pub warmup: Tally,
}

/// `reps` set-ups, then a load window of `seconds`.
pub fn run_serve_hot(ctx: &Ctx, seconds: f64, reps: usize) -> io::Result<ServeRun> {
    let plan = plan::hot_plan(ctx.seed, 4096);
    let mut warmup = Tally::default();
    let (mut server, setup_s) = setups(ctx, reps, &mut warmup)?;
    let before = scrape(server.addr)?;
    let window = closed_loop(server.addr, &plan, seconds, true);
    let after = scrape(server.addr)?;
    server.stop();
    Ok(ServeRun {
        setup_s,
        window,
        before,
        after,
        warmup,
    })
}

/// `reps` set-ups, then a load window of `seconds`.
pub fn run_serve_mixed(ctx: &Ctx, seconds: f64, reps: usize) -> io::Result<ServeRun> {
    let plan = plan::mixed_plan(ctx.seed, MIXED_RATE, seconds);
    let mut warmup = Tally::default();
    let (mut server, setup_s) = setups(ctx, reps, &mut warmup)?;
    let before = scrape(server.addr)?;
    let window = open_loop(server.addr, &plan.arrivals);
    let after = scrape(server.addr)?;
    server.stop();
    Ok(ServeRun {
        setup_s,
        window,
        before,
        after,
        warmup,
    })
}

/// The end-to-end metrics of a serve run.
pub fn serve_report(run: ServeRun, slo_ms: f64) -> Report {
    let w = &run.window;
    let mut r = Report {
        tally: run.warmup.clone(),
        ..Report::default()
    };
    r.tally.merge(w.tally.clone());
    let n = w.latency_ms.len();
    let attempted = w.tally.attempted.max(1) as f64;
    r.notes.push(format!(
        "slo_ratio {:.6} (1, limit {slo_ms} ms, n={})  error_ratio {:.6} (1, n={})",
        w.within_slo as f64 / attempted,
        w.tally.attempted,
        r.tally.failed as f64 / r.tally.attempted.max(1) as f64,
        r.tally.attempted
    ));
    if !w.late_ms.is_empty() {
        r.notes.push(format!(
            "gen.late_p50_ms {:.3}  gen.late_p99_ms {:.3} (n={})",
            median(&w.late_ms),
            quantile(&w.late_ms, 0.99),
            w.late_ms.len()
        ));
    }
    // Printed, not judged: p99 has too few samples beyond it, and the
    // sub-millisecond p50 of serve_mixed follows the host's speed phases.
    r.notes.push(format!(
        "p50_ms {:.6}  p99_ms {:.6} (ms, n={n})",
        median(&w.latency_ms),
        quantile(&w.latency_ms, 0.99)
    ));
    r.add("setup_s", median(&run.setup_s), "s", run.setup_s.len());
    r.add("req_per_s", n as f64 / w.seconds, "1/s", n);
    r.add("p90_ms", quantile(&w.latency_ms, 0.9), "ms", n);
    r
}

/// Writes every rung's edge-list file into `dir`.
fn write_rungs(dir: &Path, rungs: &[Rung]) -> io::Result<Vec<PathBuf>> {
    rungs
        .iter()
        .map(|r| {
            let path = dir.join(format!("{}.edges", r.name));
            std::fs::write(&path, r.graph.edge_file())?;
            Ok(path)
        })
        .collect()
}

/// One `defender value` call; the value it printed.
fn value_call(defender: &Path, file: &Path, k: usize) -> Result<String, String> {
    let out = Command::new(defender)
        .arg("value")
        .arg("--graph")
        .arg(file)
        .args(["--k", &k.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("exit {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .next()
        .and_then(|l| l.strip_prefix("exact game value (catch probability): "))
        .and_then(|l| l.split(' ').next())
        .map(str::to_owned)
        .ok_or_else(|| format!("unexpected output {text:?}"))
}

/// The rung files of `value_ladder` in a fresh directory.
pub fn prepare_rungs(ctx: &Ctx, rungs: &[Rung]) -> io::Result<Vec<PathBuf>> {
    write_rungs(&ctx.fresh_dir("rungs")?, rungs)
}

/// One sequential pass of `defender value` calls over every rung; each
/// call's time in ms, `None` where the call failed.
pub fn ladder_pass(
    defender: &Path,
    rungs: &[Rung],
    files: &[PathBuf],
    tally: &mut Tally,
) -> Vec<Option<f64>> {
    rungs
        .iter()
        .zip(files)
        .map(|(rung, file)| {
            let t0 = Instant::now();
            let outcome = value_call(defender, file, rung.k);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match outcome {
                Ok(v) if v == rung.value => {
                    tally.ok("value");
                    Some(ms)
                }
                Ok(v) => {
                    tally.fail(format!("{}: value {v}, pinned {}", rung.name, rung.value));
                    None
                }
                Err(e) => {
                    tally.fail(format!("{}: {e}", rung.name));
                    None
                }
            }
        })
        .collect()
}

/// `value_ladder`: sequential passes over every rung until `seconds`
/// have passed (at least one pass). Not one of the judged workloads: on a
/// shared machine its compute-bound times drift too much between runs.
pub fn run_value_ladder(ctx: &Ctx) -> io::Result<Report> {
    let rungs = plan::ladder_rungs(ctx.seed);
    let mut setup_s = Vec::new();
    let mut files = Vec::new();
    for _ in 0..LADDER_SETUP_REPS {
        let t0 = Instant::now();
        files = prepare_rungs(ctx, &rungs)?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut r = Report::default();
    let mut rung_ms: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    let mut pass_s = Vec::new();
    let start = Instant::now();
    while pass_s.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let p0 = Instant::now();
        let calls = ladder_pass(&ctx.defender, &rungs, &files, &mut r.tally);
        pass_s.push(p0.elapsed().as_secs_f64());
        for (times, ms) in rung_ms.iter_mut().zip(calls) {
            times.extend(ms);
        }
    }
    let window = start.elapsed().as_secs_f64();
    let call_ms: Vec<f64> = rung_ms.iter().flatten().copied().collect();
    let per_rung: Vec<f64> = rung_ms.iter().map(|t| median(t)).collect();
    let n = call_ms.len();
    r.notes.push(format!(
        "error_ratio {:.6} (1, n={})",
        r.tally.failed as f64 / r.tally.attempted.max(1) as f64,
        r.tally.attempted
    ));
    r.add("setup_s", median(&setup_s), "s", setup_s.len());
    r.add("req_per_s", n as f64 / window, "1/s", n);
    r.add("p50_ms", median(&call_ms), "ms", n);
    r.add("p90_ms", quantile(&call_ms, 0.9), "ms", n);
    r.add("ladder_s", median(&pass_s), "s", pass_s.len());
    r.add("ladder_gmean_ms", gmean(&per_rung), "ms", n);
    Ok(r)
}
