//! Canonical forms: an isomorphism-invariant labeling, key, and hash.
//!
//! `Π_k(G)` depends on `G` only up to isomorphism, so a solver that
//! memoizes equilibria (see `defender-cache`) needs a *canonical form*:
//! a relabeling of the vertices that every graph isomorphic to `G` maps
//! to identically. Two graphs then share a cache entry exactly when
//! their canonical edge lists (equivalently, their canonical graph6
//! strings) are equal.
//!
//! The algorithm is individualization–refinement, exact at every size
//! (no hash-based shortcuts):
//!
//! 1. **Iterative color refinement** (1-dimensional Weisfeiler–Leman):
//!    vertices are repeatedly re-colored by the multiset of their
//!    neighbors' colors until the partition stabilizes. Color ids are
//!    assigned in sorted-signature order, so the refined partition is a
//!    pure function of the isomorphism class.
//! 2. **Individualization**: when refinement stalls on a non-discrete
//!    partition (regular and vertex-transitive graphs), the search
//!    branches on the vertices of the first non-singleton color class,
//!    individualizes each, re-refines, and recurses. The canonical
//!    labeling is the *first* discrete leaf, in depth-first order, whose
//!    relabeled edge list is lexicographically smallest.
//! 3. **Pruning by automorphisms.** Two leaves with equal edge lists
//!    give an automorphism `γ = best⁻¹ ∘ leaf`, which the search records.
//!    At each node it skips a vertex that lies in one orbit with an
//!    already-branched sibling, the orbits being those of the recorded
//!    automorphisms that fix the node's individualized path pointwise
//!    (a small union–find). When a new automorphism maps the branch it
//!    was found in onto the best leaf's, the rest of that branch is
//!    abandoned. A twin prune (vertices of one class with identical
//!    neighborhoods are swapped by an automorphism) still runs first: it
//!    keeps complete and complete-bipartite graphs linear before any
//!    leaf exists to yield automorphisms.
//!
//! **Why pruning does not change the output.** An automorphism that
//! fixes a node's path preserves its coloring, so it carries one child
//! subtree onto another leaf for leaf, with the same edge lists. The
//! skipped subtree therefore holds no leaf smaller than the minimum of
//! the earlier sibling already searched, and the first minimal leaf,
//! kept with a strict `<`, is never in it. `key()` and `relabel()` are
//! byte-identical to those of the unpruned search, which the tests keep
//! as an oracle.
//!
//! Everything is `Vec`/sort based — no `HashMap`, no iteration-order
//! dependence — so the determinism lint holds and the canonical form is
//! bit-stable across platforms. The differential tests pin the search
//! against the unpruned search on random relabelings of symmetric
//! families and on random graphs, against brute-force minimization over
//! all `n!` permutations on an ≤8-vertex corpus, and against random
//! relabelings of every generator family.

use crate::builder::GraphBuilder;
use crate::graph::Graph;

/// The canonical labeling of a graph: a vertex permutation, the edge
/// list it induces, and an isomorphism-invariant hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalForm {
    vertex_count: usize,
    /// `relabel[v]` is the canonical label of original vertex `v`.
    relabel: Vec<usize>,
    /// Canonically relabeled edges, each `(lo, hi)`, sorted.
    edges: Vec<(usize, usize)>,
    hash: u64,
}

impl CanonicalForm {
    /// Number of vertices (shared by the original and canonical graphs).
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// The canonical label of each original vertex: `relabel()[v]` is
    /// where vertex `v` lands in the canonical graph.
    #[must_use]
    pub fn relabel(&self) -> &[usize] {
        &self.relabel
    }

    /// The inverse permutation: `inverse()[c]` is the original vertex
    /// carrying canonical label `c`. This is the map a cache hit uses to
    /// pull a memoized equilibrium back onto the query labeling.
    #[must_use]
    pub fn inverse(&self) -> Vec<usize> {
        let mut inv = vec![0; self.relabel.len()];
        for (v, &c) in self.relabel.iter().enumerate() {
            inv[c] = v;
        }
        inv
    }

    /// The canonical edge list: relabeled endpoints, each `(lo, hi)`,
    /// sorted lexicographically. Equal across a whole isomorphism class.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Materializes the canonical graph. Isomorphic inputs build
    /// byte-identical graphs (same adjacency, same edge ids).
    #[must_use]
    pub fn to_graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.vertex_count);
        for &(u, v) in &self.edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// The canonical key: the graph6 encoding of the canonical graph.
    /// The codec is strict and bijective, so key equality is exactly
    /// isomorphism of the underlying graphs. Encodes straight from the
    /// canonical edge list — no [`Graph`] is built, so computing a key
    /// never ticks the `graph.build.*` counters.
    #[must_use]
    pub fn key(&self) -> String {
        crate::graph6::encode_edge_list(self.vertex_count, &self.edges)
    }

    /// FNV-1a hash over the canonical form — equal for isomorphic
    /// graphs, and cheap to compare before the full key.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// Computes the canonical form of `g` by individualization–refinement,
/// pruned by the automorphisms the search discovers.
///
/// The canonical labeling is the first discrete leaf, in depth-first
/// order over the individualization tree, whose relabeled edge list is
/// lexicographically smallest. Two sibling branches that one
/// automorphism fixing their parent's path maps onto each other are
/// images of each other, leaf for leaf, with equal edge lists; so the
/// later one can never hold that first minimal leaf, and skipping it
/// leaves the labeling exactly what the exhaustive search returns.
///
/// Exact at every size; worst-case exponential in pathological strongly
/// regular graphs, but fast on the workspace's generator families: the
/// twin prune collapses complete/star/bipartite blowups, and the orbit
/// prune cuts vertex-transitive graphs (cycles, hypercubes, Petersen)
/// down to a few root-to-leaf paths.
#[must_use]
pub fn canonical_form(g: &Graph) -> CanonicalForm {
    let n = g.vertex_count();
    let adj = adjacency_lists(g);
    let mut search = Search::new(&adj);
    search.node(vec![0; n]);
    let (edges, relabel) = search
        .best
        .map_or((Vec::new(), Vec::new()), |leaf| (leaf.edges, leaf.labels));
    let hash = fnv1a(n, &edges);
    CanonicalForm {
        vertex_count: n,
        relabel,
        edges,
        hash,
    }
}

/// Brute-force canonicalization: the lexicographically smallest relabeled
/// edge list over *all* `n!` vertex permutations. Exponential — the
/// differential oracle the search is pinned against in tests.
///
/// # Panics
///
/// Panics when `g` has more than 8 vertices (40320 permutations is the
/// intended ceiling for an oracle).
#[must_use]
pub fn brute_force_canonical_edges(g: &Graph) -> Vec<(usize, usize)> {
    let n = g.vertex_count();
    assert!(
        n <= 8,
        "brute-force canonicalization is capped at 8 vertices"
    );
    let raw: Vec<(usize, usize)> = g
        .edges()
        .map(|e| {
            let ep = g.endpoints(e);
            (ep.u().index(), ep.v().index())
        })
        .collect();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best: Option<Vec<(usize, usize)>> = None;
    permute(&mut perm, 0, &mut |p| {
        let edges = relabeled_edges(&raw, p);
        if best.as_ref().map_or(true, |b| edges < *b) {
            best = Some(edges);
        }
    });
    best.unwrap_or_default()
}

/// Sorted adjacency lists indexed by vertex.
fn adjacency_lists(g: &Graph) -> Vec<Vec<usize>> {
    let n = g.vertex_count();
    let mut adj = vec![Vec::new(); n];
    for e in g.edges() {
        let ep = g.endpoints(e);
        adj[ep.u().index()].push(ep.v().index());
        adj[ep.v().index()].push(ep.u().index());
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    adj
}

/// Applies `relabel` to `raw` edges and returns them normalized
/// (`(lo, hi)` each, sorted) for lexicographic comparison.
fn relabeled_edges(raw: &[(usize, usize)], relabel: &[usize]) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = raw
        .iter()
        .map(|&(u, v)| {
            let (a, b) = (relabel[u], relabel[v]);
            (a.min(b), a.max(b))
        })
        .collect();
    edges.sort_unstable();
    edges
}

/// Scratch buffers for color refinement, allocated once per search and
/// reused by every round at every node.
struct Refiner {
    /// Vertex `v`'s sorted neighbor colors sit at
    /// `signatures[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    signatures: Vec<usize>,
    /// Every vertex, grouped by color, cells in ascending color order.
    order: Vec<usize>,
    /// The next round's color of `order[i]`.
    next: Vec<usize>,
}

impl Refiner {
    fn new(adj: &[Vec<usize>]) -> Refiner {
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        offsets.push(0);
        let mut total = 0;
        for list in adj {
            total += list.len();
            offsets.push(total);
        }
        Refiner {
            offsets,
            signatures: vec![0; total],
            order: Vec::with_capacity(adj.len()),
            next: Vec::with_capacity(adj.len()),
        }
    }

    /// Refines `colors` (dense ids `0..k`) to the coarsest stable
    /// partition respecting neighbor-color multisets. Each round sorts
    /// every cell by its vertices' neighbor-color multisets and numbers
    /// the pieces densely in (color, multiset) order, so cells keep
    /// their relative order, a round that splits nothing is the fixed
    /// point, and the result is isomorphism-invariant.
    fn refine(&mut self, adj: &[Vec<usize>], colors: &mut [usize]) {
        let Refiner {
            offsets,
            signatures,
            order,
            next,
        } = self;
        let n = colors.len();
        order.clear();
        order.extend(0..n);
        order.sort_unstable_by_key(|&v| colors[v]);
        let mut cell_count = colors.iter().max().map_or(0, |&c| c + 1);
        loop {
            next.clear();
            let mut id = 0;
            let mut start = 0;
            while start < n {
                let color = colors[order[start]];
                let len = order[start..]
                    .iter()
                    .take_while(|&&v| colors[v] == color)
                    .count();
                let cell = &mut order[start..start + len];
                start += len;
                if len == 1 {
                    next.push(id);
                    id += 1;
                    continue;
                }
                for &v in cell.iter() {
                    let sig = &mut signatures[offsets[v]..offsets[v + 1]];
                    for (slot, &u) in sig.iter_mut().zip(&adj[v]) {
                        *slot = colors[u];
                    }
                    sig.sort_unstable();
                }
                let sig = |v: usize| &signatures[offsets[v]..offsets[v + 1]];
                cell.sort_unstable_by(|&a, &b| sig(a).cmp(sig(b)));
                next.push(id);
                for pair in cell.windows(2) {
                    if sig(pair[0]) != sig(pair[1]) {
                        id += 1;
                    }
                    next.push(id);
                }
                id += 1;
            }
            if id == cell_count {
                return;
            }
            cell_count = id;
            for (&v, &c) in order.iter().zip(next.iter()) {
                colors[v] = c;
            }
        }
    }
}

/// Whether `u` and `v` (same refinement class) are twins: identical
/// neighborhoods once each other is excluded. The transposition
/// `(u v)` is then a color-preserving automorphism, so branching on
/// both cannot improve the canonical leaf — the prune that keeps
/// cliques and bicliques out of factorial territory before the search
/// has reached any leaf to discover automorphisms from.
fn twins(adj: &[Vec<usize>], u: usize, v: usize) -> bool {
    let nu = adj[u].iter().copied().filter(|&w| w != v);
    let nv = adj[v].iter().copied().filter(|&w| w != u);
    nu.eq(nv)
}

/// Union–find over the vertices: the orbits of the automorphisms merged
/// into it so far.
struct Orbits {
    parent: Vec<usize>,
}

impl Orbits {
    fn new(n: usize) -> Orbits {
        Orbits {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    /// Joins every vertex's orbit with its image's under `gamma`.
    fn merge(&mut self, gamma: &[usize]) {
        for (v, &w) in gamma.iter().enumerate() {
            let (a, b) = (self.find(v), self.find(w));
            if a != b {
                self.parent[a.max(b)] = a.min(b);
            }
        }
    }

    fn same(&mut self, u: usize, v: usize) -> bool {
        self.find(u) == self.find(v)
    }
}

/// A discrete leaf of the search.
struct Leaf {
    /// Relabeled edges, each `(lo, hi)`, sorted.
    edges: Vec<(usize, usize)>,
    /// The leaf's coloring: `labels[v]` is the label of vertex `v`.
    labels: Vec<usize>,
    /// The vertices individualized from the root down to the leaf.
    path: Vec<usize>,
}

/// The individualization–refinement search over one graph.
struct Search<'a> {
    adj: &'a [Vec<usize>],
    /// Every edge once, as `(u, v)` with `u < v`.
    raw: Vec<(usize, usize)>,
    refiner: Refiner,
    /// The vertices individualized from the root down to the current node.
    path: Vec<usize>,
    /// The first minimal leaf so far.
    best: Option<Leaf>,
    /// Automorphisms found so far, the identity excluded:
    /// `gamma[v]` is the image of `v`.
    automorphisms: Vec<Vec<usize>>,
    /// Set when a leaf shows that the rest of the branch it lies in,
    /// below the node at this depth, mirrors a branch already searched:
    /// deeper nodes return at once.
    unwind_to: Option<usize>,
}

impl<'a> Search<'a> {
    fn new(adj: &'a [Vec<usize>]) -> Search<'a> {
        let raw = adj
            .iter()
            .enumerate()
            .flat_map(|(u, list)| {
                list.iter()
                    .copied()
                    .filter(move |&v| u < v)
                    .map(move |v| (u, v))
            })
            .collect();
        Search {
            adj,
            raw,
            refiner: Refiner::new(adj),
            path: Vec::new(),
            best: None,
            automorphisms: Vec::new(),
            unwind_to: None,
        }
    }

    /// Refines `colors` and scores the leaf if it is discrete; otherwise
    /// branches on each vertex of the first non-singleton cell that no
    /// earlier branch already covers (a twin, or the same orbit of the
    /// automorphisms that fix this node's path).
    fn node(&mut self, mut colors: Vec<usize>) {
        self.refiner.refine(self.adj, &mut colors);
        let color_count = colors.iter().max().map_or(0, |&c| c + 1);
        let mut sizes = vec![0_usize; color_count];
        for &c in &colors {
            sizes[c] += 1;
        }
        // First non-singleton class (smallest color id — isomorphism-invariant).
        let Some(target) = sizes.iter().position(|&s| s >= 2) else {
            // Discrete: the coloring *is* the relabeling (dense ids).
            self.leaf(colors);
            return;
        };
        let depth = self.path.len();
        let cell: Vec<usize> = (0..colors.len()).filter(|&v| colors[v] == target).collect();
        let mut orbits = Orbits::new(colors.len());
        let mut merged = 0;
        let mut branched: Vec<usize> = Vec::new();
        for &v in &cell {
            // Only automorphisms fixing the path preserve this coloring.
            for gamma in &self.automorphisms[merged..] {
                if self.path.iter().all(|&p| gamma[p] == p) {
                    orbits.merge(gamma);
                }
            }
            merged = self.automorphisms.len();
            if branched
                .iter()
                .any(|&u| orbits.same(u, v) || twins(self.adj, u, v))
            {
                continue;
            }
            branched.push(v);
            let mut child = colors.clone();
            child[v] = color_count; // individualize: fresh unique color
            self.path.push(v);
            self.node(child);
            self.path.pop();
            if let Some(to) = self.unwind_to {
                if to < depth {
                    return;
                }
                self.unwind_to = None;
            }
        }
    }

    /// Scores a discrete leaf. A strictly smaller edge list replaces the
    /// best leaf; an equal one yields the automorphism
    /// `γ = best⁻¹ ∘ leaf`.
    fn leaf(&mut self, labels: Vec<usize>) {
        let edges = relabeled_edges(&self.raw, &labels);
        let best = match &self.best {
            Some(best) if edges >= best.edges => best,
            _ => {
                self.best = Some(Leaf {
                    edges,
                    labels,
                    path: self.path.clone(),
                });
                return;
            }
        };
        if edges != best.edges {
            return;
        }
        let mut inverse = vec![0; labels.len()];
        for (v, &c) in best.labels.iter().enumerate() {
            inverse[c] = v;
        }
        let gamma: Vec<usize> = labels.iter().map(|&c| inverse[c]).collect();
        if gamma.iter().enumerate().all(|(v, &w)| v == w) {
            return;
        }
        // The paths part at `split`. When γ fixes their common prefix
        // and carries this leaf's branch vertex onto the best leaf's,
        // the rest of this branch is the image of one already searched.
        let split = self
            .path
            .iter()
            .zip(&best.path)
            .take_while(|(a, b)| a == b)
            .count();
        let prefix_fixed = self.path[..split].iter().all(|&p| gamma[p] == p);
        let mirrored = self
            .path
            .get(split)
            .zip(best.path.get(split))
            .is_some_and(|(&x, &u)| gamma[x] == u);
        if prefix_fixed && mirrored {
            self.unwind_to = Some(split);
        }
        self.automorphisms.push(gamma);
    }
}

/// Heap's algorithm over `perm[at..]`, invoking `visit` on every full
/// permutation.
fn permute(perm: &mut Vec<usize>, at: usize, visit: &mut impl FnMut(&[usize])) {
    if at == perm.len() {
        visit(perm);
        return;
    }
    for i in at..perm.len() {
        perm.swap(at, i);
        permute(perm, at + 1, visit);
        perm.swap(at, i);
    }
}

/// FNV-1a over the vertex count and canonical edge endpoints.
fn fnv1a(n: usize, edges: &[(usize, usize)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |value: u64| {
        for byte in value.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(n as u64);
    for &(u, v) in edges {
        mix(u as u64);
        mix(v as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use defender_num::rng::{Rng, StdRng};

    /// Relabels `g` by a uniformly random permutation drawn from `rng`.
    fn shuffled(g: &Graph, rng: &mut StdRng) -> Graph {
        let n = g.vertex_count();
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        let mut edges: Vec<(usize, usize)> = g
            .edges()
            .map(|e| {
                let ep = g.endpoints(e);
                (perm[ep.u().index()], perm[ep.v().index()])
            })
            .collect();
        // Shuffle edge insertion order too: canonical form must not
        // depend on edge ids.
        rng.shuffle(&mut edges);
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// The canonical relabeling really is a permutation mapping `g`'s
    /// edges onto the canonical edge list.
    fn assert_valid_labeling(g: &Graph, form: &CanonicalForm) {
        let n = g.vertex_count();
        let mut seen = vec![false; n];
        for &c in form.relabel() {
            assert!(c < n && !seen[c], "relabel is a permutation");
            seen[c] = true;
        }
        let raw: Vec<(usize, usize)> = g
            .edges()
            .map(|e| {
                let ep = g.endpoints(e);
                (ep.u().index(), ep.v().index())
            })
            .collect();
        assert_eq!(
            relabeled_edges(&raw, form.relabel()),
            form.edges(),
            "relabel carries the original edges onto the canonical list"
        );
    }

    /// The minimal discrete leaf found so far: `(canonical edges, relabeling)`.
    type BestLeaf = Option<(Vec<(usize, usize)>, Vec<usize>)>;

    /// The exhaustive search the pruned one replaced: the same
    /// individualization tree with only the twin prune, refined with a
    /// fresh `Vec` per vertex per round. `canonical_form` must return
    /// exactly what this returns.
    fn exhaustive_canonical_form(g: &Graph) -> CanonicalForm {
        let n = g.vertex_count();
        let adj = adjacency_lists(g);
        let mut best: BestLeaf = None;
        exhaustive_search(&adj, vec![0; n], &mut best);
        let (edges, relabel) = best.unwrap_or((Vec::new(), Vec::new()));
        let hash = fnv1a(n, &edges);
        CanonicalForm {
            vertex_count: n,
            relabel,
            edges,
            hash,
        }
    }

    fn exhaustive_refine(adj: &[Vec<usize>], colors: &mut Vec<usize>) {
        let n = adj.len();
        loop {
            let mut sigs: Vec<(usize, Vec<usize>, usize)> = (0..n)
                .map(|v| {
                    let mut nc: Vec<usize> = adj[v].iter().map(|&u| colors[u]).collect();
                    nc.sort_unstable();
                    (colors[v], nc, v)
                })
                .collect();
            sigs.sort();
            let mut next_colors = vec![0; n];
            let mut next = 0;
            for i in 0..n {
                if i > 0 && (sigs[i].0, &sigs[i].1) != (sigs[i - 1].0, &sigs[i - 1].1) {
                    next += 1;
                }
                next_colors[sigs[i].2] = next;
            }
            if next_colors == *colors {
                return;
            }
            *colors = next_colors;
        }
    }

    fn exhaustive_search(adj: &[Vec<usize>], mut colors: Vec<usize>, best: &mut BestLeaf) {
        let n = adj.len();
        exhaustive_refine(adj, &mut colors);
        let color_count = colors.iter().max().map_or(0, |&c| c + 1);
        if color_count == n {
            let raw: Vec<(usize, usize)> = (0..n)
                .flat_map(|u| {
                    adj[u]
                        .iter()
                        .copied()
                        .filter(move |&v| u < v)
                        .map(move |v| (u, v))
                })
                .collect();
            let edges = relabeled_edges(&raw, &colors);
            if best.as_ref().map_or(true, |(b, _)| edges < *b) {
                *best = Some((edges, colors));
            }
            return;
        }
        let target = (0..color_count)
            .find(|&c| colors.iter().filter(|&&x| x == c).count() >= 2)
            .unwrap_or(0);
        let cell: Vec<usize> = (0..n).filter(|&v| colors[v] == target).collect();
        let mut branched: Vec<usize> = Vec::new();
        for &v in &cell {
            if branched.iter().any(|&u| twins(adj, u, v)) {
                continue;
            }
            branched.push(v);
            let mut child = colors.clone();
            child[v] = color_count;
            exhaustive_search(adj, child, best);
        }
    }

    /// The prism `C_n × K_2`: two `n`-cycles joined by rungs.
    fn prism(n: usize) -> Graph {
        let mut b = GraphBuilder::new(2 * n);
        for i in 0..n {
            let j = (i + 1) % n;
            b.add_edge(i, j).add_edge(n + i, n + j).add_edge(i, n + i);
        }
        b.build()
    }

    #[test]
    fn pruned_search_returns_exactly_the_exhaustive_form() {
        // Symmetric families are where the orbit prune fires; random
        // graphs are where it must stay out of the way. Every input is
        // relabeled at random first, so the search meets each graph in
        // many labelings.
        let mut rng = StdRng::seed_from_u64(0x0B17);
        let mut families: Vec<Graph> = vec![
            generators::petersen(),
            generators::hypercube(3),
            generators::hypercube(4),
            generators::circulant(8, &[1, 2]),
            generators::circulant(9, &[1, 3]),
            generators::circulant(10, &[1, 3]),
            generators::circulant(12, &[1, 5]),
            generators::circulant(12, &[2, 3]),
            generators::complete(6),
            generators::star(6),
        ];
        for n in 3..=7 {
            families.push(prism(n));
            families.push(generators::ladder(n));
            families.push(generators::wheel(n + 1));
        }
        for n in 2..=4 {
            families.push(generators::complete_bipartite(n, n));
        }
        for (rows, cols) in [(2, 3), (3, 3), (3, 4), (4, 4)] {
            families.push(generators::grid(rows, cols));
        }
        for n in 3..=12 {
            families.push(generators::cycle(n));
        }
        let mut corpus: Vec<Graph> = Vec::new();
        for g in &families {
            for _ in 0..8 {
                corpus.push(shuffled(g, &mut rng));
            }
        }
        for n in 1..=11 {
            for p in [0.2, 0.35, 0.5, 0.7] {
                for _ in 0..6 {
                    corpus.push(generators::gnp(n, p, &mut rng));
                }
            }
        }
        for (i, g) in corpus.iter().enumerate() {
            let pruned = canonical_form(g);
            let oracle = exhaustive_canonical_form(g);
            assert_eq!(pruned.key(), oracle.key(), "graph {i}: key");
            assert_eq!(pruned.relabel(), oracle.relabel(), "graph {i}: relabel");
        }
    }

    #[test]
    fn matches_brute_force_on_small_corpus() {
        // Every graph the oracle can afford: named families ≤ 8 vertices
        // plus random gnp graphs. The search's canonical form and the
        // n!-permutation oracle are different representatives of the same
        // isomorphism class, so the differential pin is class structure:
        // over the corpus **and** random relabelings of it, the two must
        // induce exactly the same partition into isomorphism classes —
        // equal search keys ⟺ equal brute-force minima.
        let mut corpus: Vec<Graph> = vec![
            generators::path(2),
            generators::path(5),
            generators::path(8),
            generators::cycle(3),
            generators::cycle(6),
            generators::cycle(8),
            generators::star(7),
            generators::wheel(6),
            generators::complete(4),
            generators::complete(7),
            generators::complete_bipartite(2, 4),
            generators::complete_bipartite(3, 3),
            generators::grid(2, 4),
            generators::hypercube(3),
            generators::ladder(4),
        ];
        let mut rng = StdRng::seed_from_u64(0xCA_0BEF);
        for n in 4..=8 {
            for _ in 0..6 {
                corpus.push(generators::gnp(n, 0.5, &mut rng));
            }
        }
        // Random relabelings join the corpus so the pin also covers
        // isomorphic-but-differently-labeled pairs.
        for i in 0..corpus.len() {
            let h = shuffled(&corpus[i], &mut rng);
            corpus.push(h);
        }
        type EdgeList = Vec<(usize, usize)>;
        let forms: Vec<(EdgeList, EdgeList)> = corpus
            .iter()
            .map(|g| {
                let form = canonical_form(g);
                assert_valid_labeling(g, &form);
                (form.edges().to_vec(), brute_force_canonical_edges(g))
            })
            .collect();
        for (i, (search_i, brute_i)) in forms.iter().enumerate() {
            for (j, (search_j, brute_j)) in forms.iter().enumerate().skip(i + 1) {
                let same_n = corpus[i].vertex_count() == corpus[j].vertex_count();
                assert_eq!(
                    same_n && search_i == search_j,
                    same_n && brute_i == brute_j,
                    "graphs {i} and {j}: search and oracle must agree on isomorphism"
                );
            }
        }
    }

    #[test]
    fn invariant_under_random_relabelings_of_every_family() {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let families: Vec<(&str, Graph)> = vec![
            ("path", generators::path(9)),
            ("cycle", generators::cycle(11)),
            ("star", generators::star(9)),
            ("wheel", generators::wheel(8)),
            ("complete", generators::complete(9)),
            ("complete_bipartite", generators::complete_bipartite(3, 5)),
            ("grid", generators::grid(3, 4)),
            ("hypercube", generators::hypercube(4)),
            ("petersen", generators::petersen()),
            ("ladder", generators::ladder(5)),
            ("circulant", generators::circulant(10, &[1, 3])),
            ("random_tree", generators::random_tree(10, &mut rng)),
            ("gnp_connected", generators::gnp_connected(9, 0.4, &mut rng)),
            (
                "random_bipartite",
                generators::random_bipartite(4, 5, 0.6, &mut rng),
            ),
            (
                "random_regular",
                generators::random_regular(10, 3, &mut rng),
            ),
        ];
        for (name, g) in &families {
            let reference = canonical_form(g);
            assert_valid_labeling(g, &reference);
            for _ in 0..5 {
                let h = shuffled(g, &mut rng);
                let form = canonical_form(&h);
                assert_valid_labeling(&h, &form);
                assert_eq!(
                    form.edges(),
                    reference.edges(),
                    "{name}: canonical edges must survive relabeling"
                );
                assert_eq!(form.key(), reference.key(), "{name}: canonical key");
                assert_eq!(form.hash(), reference.hash(), "{name}: canonical hash");
            }
        }
    }

    #[test]
    fn distinguishes_non_isomorphic_graphs() {
        // Same degree sequence, different graphs: C6 vs two triangles is
        // not constructible here (disconnected), so use C6 vs the prism
        // complement trick: C6 and K_{3,3} minus a perfect matching are
        // both 2-regular on 6 vertices — the latter IS C6, so instead
        // compare graphs where refinement alone cannot tell: C6 vs
        // 2×C3 needs disconnection; use C5 vs P5 and K4 vs K4 minus an
        // edge as basic sanity, plus the classic refinement-hard pair
        // C6 vs C3+C3 via a builder.
        let c5 = canonical_form(&generators::cycle(5));
        let p5 = canonical_form(&generators::path(5));
        assert_ne!(c5.edges(), p5.edges());
        assert_ne!(c5.key(), p5.key());

        let k4 = canonical_form(&generators::complete(4));
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(0, 3)
            .add_edge(1, 2)
            .add_edge(1, 3);
        let k4_minus = canonical_form(&b.build());
        assert_ne!(k4.edges(), k4_minus.edges());

        // Disconnected 2-regular on 6 vertices vs C6: identical degree
        // sequences, distinguishable only by structure.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
        b.add_edge(3, 4).add_edge(4, 5).add_edge(5, 3);
        let two_triangles = canonical_form(&b.build());
        let c6 = canonical_form(&generators::cycle(6));
        assert_ne!(two_triangles.edges(), c6.edges());
        assert_ne!(two_triangles.hash(), c6.hash());
    }

    #[test]
    fn inverse_round_trips_the_relabeling() {
        let g = generators::petersen();
        let form = canonical_form(&g);
        let inv = form.inverse();
        for v in 0..g.vertex_count() {
            assert_eq!(inv[form.relabel()[v]], v);
        }
    }

    #[test]
    fn key_is_the_graph6_of_the_canonical_graph() {
        let g = generators::complete(4);
        let form = canonical_form(&g);
        // K4 is unique up to isomorphism; its graph6 form is "C~".
        assert_eq!(form.key(), "C~");
        let round = crate::graph6::from_graph6(&form.key()).unwrap();
        assert_eq!(round.vertex_count(), 4);
        assert_eq!(round.edge_count(), 6);
    }

    #[test]
    fn empty_and_single_vertex_graphs_are_total() {
        let empty = canonical_form(&GraphBuilder::new(0).build());
        assert_eq!(empty.vertex_count(), 0);
        assert!(empty.edges().is_empty());
        let one = canonical_form(&GraphBuilder::new(1).build());
        assert_eq!(one.relabel(), &[0]);
    }
}
