//! The benchmark's HTTP client against an in-process server, and the
//! pinned values against the exact solver.

use std::net::TcpListener;
use std::time::Duration;

use defender_core::model::TupleGame;
use defender_core::solve::solve_exact;
use defender_perfbench::client::{value_and_cache, Client};
use defender_perfbench::e2e::check;
use defender_perfbench::plan::{self, VALUE_LIMIT};
use defender_serve::{ServeConfig, Server};

fn server() -> Server {
    Server::start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    })
    .expect("server starts on an ephemeral port")
}

#[test]
fn keep_alive_requests_are_framed_and_checked() {
    let server = server();
    let mut client = Client::connect(server.addr(), Duration::from_secs(10)).unwrap();
    assert_eq!(client.get("/v1/healthz").unwrap().status, 200);

    let c5 = &plan::pool_classes()[0];
    assert_eq!(c5.name, "C5_k1");
    let body = plan::solve_body(&c5.graph, c5.k, true);
    let first = client.post("/v1/solve", body.as_bytes());
    assert_eq!(check(first, "2/5").as_deref(), Ok("miss"));

    // An isomorph as an edge list, on the same connection: a hit.
    let mut rng = plan::Rng::new(3);
    let iso = c5.graph.relabeled(&rng.permutation(c5.graph.n));
    let second = client.post("/v1/solve", plan::solve_body(&iso, 1, false).as_bytes());
    assert_eq!(check(second, "2/5").as_deref(), Ok("hit"));

    // A wrong pinned value and a non-200 answer both fail the check.
    let again = client.post("/v1/solve", body.as_bytes());
    assert!(check(again, "1/2").is_err());
    let bad = client.post("/v1/solve", b"{\"k\": 1}").unwrap();
    assert_eq!(bad.status, 400);
    assert!(value_and_cache(&bad.body).is_none());
    assert_eq!(client.get("/nowhere").unwrap().status, 404);

    assert_eq!(client.post("/v1/shutdown", b"").unwrap().status, 200);
    server.wait();
}

#[test]
fn every_warm_up_class_is_answered_with_its_pinned_value() {
    let server = server();
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();
    for req in plan::warmup() {
        let resp = client.post("/v1/solve", req.body.as_bytes());
        assert!(check(resp, &req.value).is_ok(), "{}", req.body);
    }
    server.shutdown();
    server.wait();
}

#[test]
fn a_silent_server_is_a_timeout_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = Client::connect(addr, Duration::from_millis(200)).unwrap();
    let (_held, _) = listener.accept().unwrap();
    assert!(client.get("/v1/healthz").is_err());
}

#[test]
fn pinned_values_match_the_exact_solver() {
    for c in plan::pool_classes() {
        let g = c.graph.to_graph();
        let game = TupleGame::new(&g, c.k, 1).unwrap();
        let value = solve_exact(&game, VALUE_LIMIT).unwrap().value.to_string();
        assert_eq!(value, c.value, "{}", c.name);
    }
    // grid4x4_k3 takes seconds even optimized; every run checks it.
    for r in plan::ladder_rungs(1) {
        if r.name == "grid4x4_k3" {
            continue;
        }
        let g = r.graph.to_graph();
        let game = TupleGame::new(&g, r.k, 1).unwrap();
        let value = solve_exact(&game, VALUE_LIMIT).unwrap().value.to_string();
        assert_eq!(value, r.value, "{}", r.name);
    }
}
