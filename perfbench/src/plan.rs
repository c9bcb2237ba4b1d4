//! Seeded inputs: the graph pool, the ladder rungs, their pinned values,
//! and the request plans of each workload.
//!
//! Every input is a pure function of the workload seed. The benchmark
//! builds its graphs, relabelings and graph6 strings itself, so a change
//! to the program's generators or encoders cannot change the inputs.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use defender_core::model::TupleGame;
use defender_core::solve::solve_exact;
use defender_graph::canonical::canonical_form;
use defender_graph::{Graph, GraphBuilder};

/// Tuple-enumeration ceiling of `defender value` (its `--limit` default).
pub const VALUE_LIMIT: usize = 200_000;

/// SplitMix64: small, seedable, and owned by the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// A simple undirected graph as an edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edges {
    pub n: usize,
    pub edges: Vec<(usize, usize)>,
}

impl Edges {
    fn new(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Edges {
        Edges {
            n,
            edges: edges.into_iter().collect(),
        }
    }

    pub fn relabeled(&self, perm: &[usize]) -> Edges {
        Edges::new(self.n, self.edges.iter().map(|&(u, v)| (perm[u], perm[v])))
    }

    pub fn to_graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.n);
        for &(u, v) in &self.edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Strict graph6 (n ≤ 62), written out here rather than borrowed from
    /// the program under test.
    pub fn graph6(&self) -> String {
        assert!(self.n <= 62, "graph6 short form only");
        let mut adj = vec![vec![false; self.n]; self.n];
        for &(u, v) in &self.edges {
            adj[u][v] = true;
            adj[v][u] = true;
        }
        let bits: Vec<bool> = (1..self.n)
            .flat_map(|j| (0..j).map(move |i| (i, j)))
            .map(|(i, j)| adj[i][j])
            .collect();
        let mut out = String::new();
        out.push((63 + self.n as u8) as char);
        for chunk in bits.chunks(6) {
            let mut x = 0u8;
            for (i, &b) in chunk.iter().enumerate() {
                if b {
                    x |= 1 << (5 - i);
                }
            }
            out.push((63 + x) as char);
        }
        out
    }

    /// The edge-list file format `defender value --graph` reads.
    pub fn edge_file(&self) -> String {
        let mut out = format!("n {}\n", self.n);
        for &(u, v) in &self.edges {
            out.push_str(&format!("{u} {v}\n"));
        }
        out
    }
}

fn cycle(n: usize) -> Edges {
    Edges::new(n, (0..n).map(|i| (i, (i + 1) % n)))
}

fn path(n: usize) -> Edges {
    Edges::new(n, (1..n).map(|i| (i - 1, i)))
}

fn star(leaves: usize) -> Edges {
    Edges::new(leaves + 1, (1..=leaves).map(|i| (0, i)))
}

fn complete(n: usize) -> Edges {
    Edges::new(n, (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))))
}

fn complete_bipartite(a: usize, b: usize) -> Edges {
    Edges::new(a + b, (0..a).flat_map(|i| (0..b).map(move |j| (i, a + j))))
}

fn petersen() -> Edges {
    Edges::new(
        10,
        (0..5).flat_map(|i| [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)]),
    )
}

/// Wheel with a rim of `rim` vertices around hub 0.
fn wheel(rim: usize) -> Edges {
    Edges::new(
        rim + 1,
        (1..=rim).flat_map(|i| [(0, i), (i, if i == rim { 1 } else { i + 1 })]),
    )
}

fn ladder(n: usize) -> Edges {
    let rungs = (0..n).map(|i| (i, n + i));
    let rails = (1..n).flat_map(|i| [(i - 1, i), (n + i - 1, n + i)]);
    Edges::new(2 * n, rungs.chain(rails))
}

fn grid(rows: usize, cols: usize) -> Edges {
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                edges.push((v, v + 1));
            }
            if r + 1 < rows {
                edges.push((v, v + cols));
            }
        }
    }
    Edges::new(rows * cols, edges)
}

fn hypercube(d: u32) -> Edges {
    let n = 1usize << d;
    Edges::new(
        n,
        (0..n).flat_map(|v| {
            (0..d)
                .map(move |b| (v, v ^ (1 << b)))
                .filter(|&(v, w)| w > v)
        }),
    )
}

/// A connected random graph: a random recursive tree plus `extra` random
/// non-edges, then a random relabeling so the tree order does not show.
fn random_connected(rng: &mut Rng, n: usize, extra: usize) -> Edges {
    let mut set: BTreeSet<(usize, usize)> = (1..n).map(|v| (rng.below(v), v)).collect();
    let mut added = 0;
    while added < extra {
        let (u, v) = (rng.below(n), rng.below(n));
        let e = (u.min(v), u.max(v));
        if u != v && set.insert(e) {
            added += 1;
        }
    }
    Edges::new(n, set).relabeled(&rng.permutation(n))
}

/// Connected `G(n, p)` with `p = num/den`: a random tree, then every other
/// pair with probability `p`.
fn gnp_connected(rng: &mut Rng, n: usize, num: u64, den: u64) -> Edges {
    let mut set: BTreeSet<(usize, usize)> = (1..n).map(|v| (rng.below(v), v)).collect();
    for u in 0..n {
        for v in u + 1..n {
            if !set.contains(&(u, v)) && rng.chance(num, den) {
                set.insert((u, v));
            }
        }
    }
    Edges::new(n, set)
}

/// The twelve pool graphs of the serve workloads with the pinned game
/// value (one attacker) at k = 1, 2, 3. On the bipartite graphs the value
/// is k/α (Thm 5.1); on the others it is min(1, 2k/n).
pub fn pool() -> Vec<(&'static str, Edges, [&'static str; 3])> {
    vec![
        ("C5", cycle(5), ["2/5", "4/5", "1"]),
        ("C7", cycle(7), ["2/7", "4/7", "6/7"]),
        ("P6", path(6), ["1/3", "2/3", "1"]),
        ("S5", star(5), ["1/5", "2/5", "3/5"]),
        ("K4", complete(4), ["1/2", "1", "1"]),
        ("K2,3", complete_bipartite(2, 3), ["1/3", "2/3", "1"]),
        ("Petersen", petersen(), ["1/5", "2/5", "3/5"]),
        ("W6", wheel(6), ["2/7", "4/7", "6/7"]),
        ("ladder4", ladder(4), ["1/4", "1/2", "3/4"]),
        ("grid3x3", grid(3, 3), ["1/5", "2/5", "3/5"]),
        ("grid3x4", grid(3, 4), ["1/6", "1/3", "1/2"]),
        ("Q3", hypercube(3), ["1/4", "1/2", "3/4"]),
    ]
}

/// One pool class: a pool graph at one k.
#[derive(Debug, Clone)]
pub struct Class {
    pub name: String,
    pub graph: Edges,
    pub k: usize,
    pub value: String,
}

pub fn pool_classes() -> Vec<Class> {
    let mut out = Vec::new();
    for (name, graph, values) in pool() {
        for (i, value) in values.iter().enumerate() {
            out.push(Class {
                name: format!("{name}_k{}", i + 1),
                graph: graph.clone(),
                k: i + 1,
                value: (*value).to_owned(),
            });
        }
    }
    out
}

/// A `/v1/solve` body for `g` at `k` with one attacker, as graph6 or as
/// an edge list.
pub fn solve_body(g: &Edges, k: usize, as_graph6: bool) -> String {
    if as_graph6 {
        // graph6 bytes lie in '?'..='~'; only the backslash needs a JSON escape.
        let g6 = g.graph6().replace('\\', "\\\\");
        format!("{{\"graph6\": \"{g6}\", \"k\": {k}, \"nu\": 1}}")
    } else {
        let pairs: Vec<String> = g.edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
        format!(
            "{{\"edges\": [{}], \"n\": {}, \"k\": {k}, \"nu\": 1}}",
            pairs.join(","),
            g.n
        )
    }
}

/// One planned `/v1/solve` request.
#[derive(Debug, Clone)]
pub struct Request {
    pub body: String,
    /// Pinned (pool) or reference (fresh) game value.
    pub value: String,
    /// Index into [`MixedPlan::fresh`] for fresh classes.
    pub fresh: Option<usize>,
    /// Open-loop due time from the start of the window.
    pub due: Duration,
}

/// The warm-up: one request per pool class, in canonical pool labeling.
pub fn warmup() -> Vec<Request> {
    pool_classes()
        .into_iter()
        .map(|c| Request {
            body: solve_body(&c.graph, c.k, true),
            value: c.value,
            fresh: None,
            due: Duration::ZERO,
        })
        .collect()
}

fn pool_isomorph(rng: &mut Rng, classes: &[Class], as_graph6: bool) -> Request {
    let c = &classes[rng.below(classes.len())];
    let g = c.graph.relabeled(&rng.permutation(c.graph.n));
    Request {
        body: solve_body(&g, c.k, as_graph6),
        value: c.value.clone(),
        fresh: None,
        due: Duration::ZERO,
    }
}

/// `serve_hot`: seeded isomorphs of the 36 pool classes, alternately
/// graph6 and edge-list bodies. A closed loop cycles through it.
pub fn hot_plan(seed: u64, len: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let classes = pool_classes();
    (0..len)
        .map(|i| pool_isomorph(&mut rng, &classes, i % 2 == 0))
        .collect()
}

/// A fresh class of `serve_mixed`, with the reference solve's value and
/// wall time (the in-process `solve_exact`, no cache, no hint).
#[derive(Debug, Clone)]
pub struct Fresh {
    pub graph: Edges,
    pub k: usize,
    pub value: String,
    pub solve_ms: f64,
}

#[derive(Debug, Clone)]
pub struct MixedPlan {
    pub arrivals: Vec<Request>,
    pub fresh: Vec<Fresh>,
}

/// `serve_mixed`: `rate` arrivals per second for `seconds`. About 20% are
/// fresh connected graphs on 8–11 vertices at k ∈ {2, 3}, distinct by
/// canonical form from the pool and from each other; a quarter of those
/// are followed, at the same due time, by an isomorph of themselves.
pub fn mixed_plan(seed: u64, rate: f64, seconds: f64) -> MixedPlan {
    let mut rng = Rng::new(seed ^ 0x006d_6978_6564);
    let classes = pool_classes();
    let mut seen: BTreeSet<(String, usize)> = classes
        .iter()
        .map(|c| (canonical_form(&c.graph.to_graph()).key(), c.k))
        .collect();
    let total = (rate * seconds).round().max(1.0) as usize;
    let step = Duration::from_secs_f64(1.0 / rate);
    let mut arrivals: Vec<Request> = Vec::with_capacity(total + 1);
    let mut fresh: Vec<Fresh> = Vec::new();
    while arrivals.len() < total {
        let due = step * arrivals.len() as u32;
        let as_graph6 = arrivals.len() % 2 == 0;
        if !rng.chance(1, 5) {
            let mut req = pool_isomorph(&mut rng, &classes, as_graph6);
            req.due = due;
            arrivals.push(req);
            continue;
        }
        let f = loop {
            let n = 8 + rng.below(4);
            let extra = 1 + rng.below(3);
            let g = random_connected(&mut rng, n, extra);
            let k = 2 + rng.below(2);
            if seen.insert((canonical_form(&g.to_graph()).key(), k)) {
                break reference_solve(g, k);
            }
        };
        let idx = fresh.len();
        arrivals.push(Request {
            body: solve_body(&f.graph, f.k, as_graph6),
            value: f.value.clone(),
            fresh: Some(idx),
            due,
        });
        if rng.chance(1, 4) {
            let iso = f.graph.relabeled(&rng.permutation(f.graph.n));
            arrivals.push(Request {
                body: solve_body(&iso, f.k, !as_graph6),
                value: f.value.clone(),
                fresh: Some(idx),
                due,
            });
        }
        fresh.push(f);
    }
    MixedPlan { arrivals, fresh }
}

fn reference_solve(graph: Edges, k: usize) -> Fresh {
    let g = graph.to_graph();
    let game = TupleGame::new(&g, k, 1).expect("fresh graphs are connected and k ≤ m");
    let t0 = Instant::now();
    let eq = solve_exact(&game, VALUE_LIMIT).expect("fresh classes are small");
    let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
    Fresh {
        value: eq.value.to_string(),
        graph,
        k,
        solve_ms,
    }
}

/// One rung of `value_ladder`.
#[derive(Debug, Clone)]
pub struct Rung {
    pub name: String,
    pub graph: Edges,
    pub k: usize,
    pub value: String,
    pub bipartite: bool,
}

/// The ladder: family instances in their standard labeling and two
/// connected G(10, 0.35) graphs drawn once from a fixed generator seed,
/// each at a fixed k with its pinned value. A relabeling would change the
/// simplex pivot path, and with it the time of the larger rungs
/// severalfold, so the run seed only shuffles the order of the rungs.
pub fn ladder_rungs(seed: u64) -> Vec<Rung> {
    let mut gnp = Rng::new(0x6c61_6464_6572);
    let gnp1 = gnp_connected(&mut gnp, 10, 35, 100);
    let gnp2 = gnp_connected(&mut gnp, 10, 35, 100);
    let fixed = [
        ("P8_k1", path(8), 1, "1/4", true),
        ("C12_k2", cycle(12), 2, "1/3", true),
        ("grid3x4_k2", grid(3, 4), 2, "1/3", true),
        ("grid3x4_k3", grid(3, 4), 3, "1/2", true),
        ("Q3_k3", hypercube(3), 3, "3/4", true),
        ("grid4x4_k3", grid(4, 4), 3, "3/8", true),
        ("Petersen_k1", petersen(), 1, "1/5", false),
        ("Petersen_k2", petersen(), 2, "2/5", false),
        ("Petersen_k3", petersen(), 3, "3/5", false),
        ("C13_k3", cycle(13), 3, "6/13", false),
        ("W7_k3", wheel(7), 3, "3/4", false),
        ("K6_k3", complete(6), 3, "1", false),
        ("gnp1_k2", gnp1, 2, "2/5", false),
        ("gnp2_k2", gnp2, 2, "2/5", false),
    ];
    let mut rungs: Vec<Rung> = fixed
        .into_iter()
        .map(|(name, graph, k, value, bipartite)| Rung {
            name: name.to_owned(),
            graph,
            k,
            value: value.to_owned(),
            bipartite,
        })
        .collect();
    let order = Rng::new(seed ^ 0x6c61_6464_6572).permutation(rungs.len());
    let mut shuffled: Vec<Option<Rung>> = rungs.drain(..).map(Some).collect();
    order
        .into_iter()
        .map(|i| {
            shuffled[i]
                .take()
                .expect("a permutation visits each rung once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_graph::graph6::from_graph6;

    #[test]
    fn graph6_matches_the_program_decoder() {
        for (_, g, _) in pool() {
            let decoded = from_graph6(&g.graph6()).unwrap();
            assert_eq!(decoded.vertex_count(), g.n);
            assert_eq!(decoded.edge_count(), g.edges.len());
            for &(u, v) in &g.edges {
                assert!(decoded.has_edge(
                    defender_graph::VertexId::new(u),
                    defender_graph::VertexId::new(v)
                ));
            }
        }
    }

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        let a: Vec<String> = hot_plan(7, 50).into_iter().map(|r| r.body).collect();
        let b: Vec<String> = hot_plan(7, 50).into_iter().map(|r| r.body).collect();
        let c: Vec<String> = hot_plan(8, 50).into_iter().map(|r| r.body).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let m1 = mixed_plan(3, 15.0, 4.0);
        let m2 = mixed_plan(3, 15.0, 4.0);
        assert_eq!(m1.arrivals.len(), m2.arrivals.len());
        assert!(m1
            .arrivals
            .iter()
            .zip(&m2.arrivals)
            .all(|(x, y)| x.body == y.body && x.due == y.due));
    }

    #[test]
    fn pool_has_36_classes() {
        assert_eq!(pool_classes().len(), 36);
        assert_eq!(ladder_rungs(1).len(), 14);
    }
}
