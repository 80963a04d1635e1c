//! Seeded input generators.
//!
//! Everything a workload feeds the engine is drawn here from the workload
//! seed; the engine never sees the seed itself.  The generator is a local
//! splitmix64 so that a change to the repository's own `rand` stand-in
//! cannot silently change the benchmark's inputs.

use ndlog::{Database, Tuple, Value};
use netsim::{LinkSchedule, Topology};

/// An undirected link `(a, b, cost)`.
pub type Edge = (u32, u32, i64);

/// Nodes of every workload topology: a complete binary tree of depth 4.
pub const NODES: u32 = 31;

/// Chords laid over the tree for `cold_build` and `churn_read`: four
/// shortcuts across subtrees.  Fixed, so that every op of every run
/// enumerates the same simple paths (the work a build or a flap does grows
/// with their number); seeds vary labels, costs, events and reads.  With
/// them a build or a commit takes over 100 ms on the reference box, long
/// enough that each op averages over the host's sub-second speed swings.
pub const CHORDS_DENSE: [Edge; 4] = [(15, 30, 2), (7, 22, 3), (19, 26, 1), (4, 13, 2)];

/// Chords for `dist_converge`: two shortcuts between cousins.  An episode
/// ships every path change over lossy links, so two chords already make it
/// a 200 ms op.
pub const CHORDS_SPARSE: [Edge; 2] = [(3, 4, 2), (11, 14, 3)];

/// splitmix64: a tiny, fully specified generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005e_ed0f_fa57_5eed)
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

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// A link cost in `1..=4` other than `old`.
    pub fn new_cost(&mut self, old: i64) -> i64 {
        let c = 1 + self.below(3) as i64;
        if c >= old {
            c + 1
        } else {
            c
        }
    }
}

/// Undirected weighted edges of the binary tree (unit costs) plus
/// `chords`.
pub fn base_edges(chords: &[Edge]) -> Vec<Edge> {
    let mut edges: Vec<Edge> = (1..NODES).map(|i| ((i - 1) / 2, i, 1)).collect();
    edges.extend_from_slice(chords);
    edges
}

pub fn topology(edges: &[Edge]) -> Topology {
    let mut t = Topology::empty(NODES);
    for &(a, b, c) in edges {
        t.add_edge(a, b, c);
    }
    t
}

/// The path-vector program over `edges` as source text: the paper's rules
/// followed by one symmetric pair of `link` facts per edge.
pub fn program_text(edges: &[Edge]) -> String {
    let mut text = String::from(ndlog::programs::PATH_VECTOR);
    for &(a, b, c) in edges {
        text.push_str(&format!("link(@#{a},#{b},{c}).\nlink(@#{b},#{a},{c}).\n"));
    }
    text
}

/// A node relabeling.  The path-vector program treats addresses only as
/// identities, so the database over a relabeled topology is the relabeled
/// database: one reference serves every relabeled op, while each op still
/// gets link facts, path vectors and hash keys of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relabel {
    map: Vec<u32>,
    inverse: Vec<u32>,
}

impl Relabel {
    pub fn random(rng: &mut Rng) -> Self {
        let mut map: Vec<u32> = (0..NODES).collect();
        rng.shuffle(&mut map);
        let mut inverse = vec![0; map.len()];
        for (i, &m) in map.iter().enumerate() {
            inverse[m as usize] = i as u32;
        }
        Relabel { map, inverse }
    }

    pub fn edges(&self, edges: &[Edge]) -> Vec<Edge> {
        edges
            .iter()
            .map(|&(a, b, c)| (self.map[a as usize], self.map[b as usize], c))
            .collect()
    }

    /// Map a database over relabeled nodes back to the original labels.
    pub fn restore(&self, db: &Database, rels: &[&str]) -> Database {
        let mut out = Database::new();
        for &rel in rels {
            for t in db.relation(rel) {
                out.insert(rel, self.restore_tuple(t));
            }
        }
        out
    }

    fn restore_tuple(&self, t: &Tuple) -> Tuple {
        t.iter().map(|v| self.restore_value(v)).collect()
    }

    fn restore_value(&self, v: &Value) -> Value {
        match v {
            Value::Addr(a) => Value::Addr(self.inverse[*a as usize]),
            Value::List(vs) => Value::List(vs.iter().map(|v| self.restore_value(v)).collect()),
            other => other.clone(),
        }
    }
}

/// The relations a path-vector database is compared on.
pub const PV_RELATIONS: [&str; 4] = ["link", "path", "bestPathCost", "bestPath"];

/// The from-scratch oracle's database over `edges`, restricted to
/// [`PV_RELATIONS`], and the seconds it took: parse the program text, open
/// a `Session::oracle()`, read its database.
pub fn oracle(edges: &[Edge]) -> ndlog::Result<(Database, f64)> {
    let t0 = std::time::Instant::now();
    let prog = ndlog::parse_program(&program_text(edges))?;
    let db = project(
        &ndlog::Session::open(&prog).oracle()?.database(),
        &PV_RELATIONS,
    );
    Ok((db, t0.elapsed().as_secs_f64()))
}

/// The relations of `db` listed in `rels`, nothing else (the distributed
/// runtime adds localization helpers that are not part of the program's
/// answer).
pub fn project(db: &Database, rels: &[&str]) -> Database {
    let mut out = Database::new();
    for &rel in rels {
        for t in db.relation(rel) {
            out.insert(rel, t.clone());
        }
    }
    out
}

/// One `churn_read` transaction: a link fails, the link that failed in the
/// previous transaction comes back with a new cost, and a third link's
/// cost changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnTxn {
    pub down: Edge,
    pub up: Option<Edge>,
    pub metric: (u32, u32, i64, i64),
    /// `(src, dst)` of the point queries that follow the commit.
    pub reads: Vec<(u32, u32)>,
}

/// The `churn_read` op sequence: `txns` transactions whose failing links
/// come from one [`Deck`] and whose cost changes come from another, so
/// every run fails and re-costs each link about equally often (exactly as
/// often when `txns` is a multiple of the link count) and runs differ in
/// order, costs and reads but sample the same mix of work.  Returns the
/// transactions and the edge list (with costs) after each one.
pub fn churn_sequence(
    rng: &mut Rng,
    base: &[Edge],
    txns: usize,
    reads_per_txn: usize,
) -> (Vec<ChurnTxn>, Vec<Vec<Edge>>) {
    let mut cost: Vec<i64> = base.iter().map(|e| e.2).collect();
    let (mut deck, mut metric_deck) = (Deck::default(), Deck::default());
    let mut down: Option<usize> = None;
    let mut out = Vec::with_capacity(txns);
    let mut states = Vec::with_capacity(txns);
    for _ in 0..txns {
        // The failing link is not the one already down; the cost change
        // hits a third link.
        let avoid: Vec<usize> = down.into_iter().collect();
        let e = deck.deal(rng, base.len(), 1, &avoid)[0];
        let up = down.map(|u| {
            cost[u] = rng.new_cost(cost[u]);
            (base[u].0, base[u].1, cost[u])
        });
        let avoid: Vec<usize> = down.into_iter().chain([e]).collect();
        let m = metric_deck.deal(rng, base.len(), 1, &avoid)[0];
        let old = cost[m];
        cost[m] = rng.new_cost(old);
        let reads = (0..reads_per_txn)
            .map(|_| {
                let s = rng.below(NODES as usize) as u32;
                let d = (s + 1 + rng.below(NODES as usize - 1) as u32) % NODES;
                (s, d)
            })
            .collect();
        out.push(ChurnTxn {
            down: (base[e].0, base[e].1, cost[e]),
            up,
            metric: (base[m].0, base[m].1, old, cost[m]),
            reads,
        });
        down = Some(e);
        states.push(
            base.iter()
                .enumerate()
                .filter(|&(i, _)| Some(i) != down)
                .map(|(i, &(a, b, _))| (a, b, cost[i]))
                .collect(),
        );
    }
    (out, states)
}

/// Links dealt in seeded passes: each pass deals every link once, in a
/// fresh order.  Drawing a run's churn from one deck makes every run hit
/// each link about equally often, so runs differ in order and timing but
/// not in which links (root links cost far more than leaf links) they hit.
#[derive(Debug, Default)]
pub struct Deck {
    cards: Vec<usize>,
}

impl Deck {
    /// `k` distinct links out of `n`, none in `avoid`.  A card this hand
    /// cannot take goes back for a later hand.
    pub fn deal(&mut self, rng: &mut Rng, n: usize, k: usize, avoid: &[usize]) -> Vec<usize> {
        let mut hand = Vec::with_capacity(k);
        let mut again = Vec::new();
        while hand.len() < k {
            if self.cards.is_empty() {
                self.cards = (0..n).collect();
                rng.shuffle(&mut self.cards);
            }
            let c = self.cards.pop().expect("refilled above");
            if hand.contains(&c) || avoid.contains(&c) {
                again.push(c);
            } else {
                hand.push(c);
            }
        }
        self.cards.extend(again);
        hand
    }
}

/// `ops` rounded to the nearest multiple of `period`, the ops after which
/// every deck in use has dealt whole passes, so that every long run deals
/// each link equally often.  Runs shorter than half a period keep `ops`.
pub fn whole_periods(ops: usize, period: usize) -> usize {
    if ops < period / 2 {
        ops
    } else {
        ((ops + period / 2) / period).max(1) * period
    }
}

/// One `dist_converge` episode's churn: three link flaps and two metric
/// flaps on five distinct links from `deck`, ten events on a 20-tick grid
/// from tick 30, each failure or cost change undone by a later event.  The
/// network ends on the topology it started from, so one reference database
/// checks every episode.
pub fn flap_schedule(rng: &mut Rng, deck: &mut Deck, edges: &[Edge]) -> Vec<LinkSchedule> {
    let picks = deck.deal(rng, edges.len(), 5, &[]);
    let mut slots: Vec<u64> = (0..10).collect();
    rng.shuffle(&mut slots);
    let at = |s: u64| 30 + 20 * s;
    let mut out = Vec::with_capacity(10);
    for (k, &e) in picks.iter().enumerate() {
        let (a, b, c) = edges[e];
        let (s0, s1) = (
            slots[2 * k].min(slots[2 * k + 1]),
            slots[2 * k].max(slots[2 * k + 1]),
        );
        if k < 3 {
            out.push(LinkSchedule::down(at(s0), a, b));
            out.push(LinkSchedule::up(at(s1), a, b));
        } else {
            out.push(LinkSchedule::metric(at(s0), a, b, rng.new_cost(c)));
            out.push(LinkSchedule::metric(at(s1), a, b, c));
        }
    }
    out.sort_by_key(|s| s.at);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything one workload seed generates, for the dense and sparse
    /// topologies alike.
    fn inputs(seed: u64) -> (Relabel, Vec<ChurnTxn>, Vec<LinkSchedule>) {
        let mut rng = Rng::new(seed);
        let relabel = Relabel::random(&mut rng);
        let (txns, _) = churn_sequence(&mut rng, &base_edges(&CHORDS_DENSE), 8, 4);
        let schedule = flap_schedule(&mut rng, &mut Deck::default(), &base_edges(&CHORDS_SPARSE));
        (relabel, txns, schedule)
    }

    #[test]
    fn one_seed_one_input_and_another_seed_another() {
        assert_eq!(inputs(1), inputs(1));
        let (r1, t1, s1) = inputs(1);
        let (r2, t2, s2) = inputs(2);
        assert_ne!(r1, r2);
        assert_ne!(t1, t2);
        assert_ne!(s1, s2);
    }

    #[test]
    fn churn_fails_every_link_evenly_and_tracks_the_topology() {
        let base = base_edges(&CHORDS_DENSE);
        let (txns, states) = churn_sequence(&mut Rng::new(3), &base, 2 * base.len(), 4);
        for e in &base {
            let fails = txns
                .iter()
                .filter(|t| (t.down.0, t.down.1) == (e.0, e.1))
                .count();
            assert!((1..=3).contains(&fails), "{e:?} failed {fails} times");
            let recosts = txns
                .iter()
                .filter(|t| (t.metric.0, t.metric.1) == (e.0, e.1))
                .count();
            assert!(
                (1..=3).contains(&recosts),
                "{e:?} re-costed {recosts} times"
            );
        }
        // After each transaction exactly the link it failed is missing.
        for (t, state) in txns.iter().zip(&states) {
            assert_eq!(state.len(), base.len() - 1);
            assert!(!state.iter().any(|e| (e.0, e.1) == (t.down.0, t.down.1)));
        }
    }

    #[test]
    fn flap_schedules_heal_and_the_deck_spreads_links_evenly() {
        let edges = base_edges(&CHORDS_SPARSE);
        let topo = topology(&edges);
        let mut rng = Rng::new(5);
        let mut deck = Deck::default();
        let mut hits = vec![0usize; edges.len()];
        for _ in 0..edges.len() {
            let s = flap_schedule(&mut rng, &mut deck, &edges);
            assert_eq!(s.len(), 10);
            assert_eq!(
                LinkSchedule::final_topology(&s, &topo).edge_list(),
                topo.edge_list()
            );
            for e in &s {
                let i = edges
                    .iter()
                    .position(|&(a, b, _)| (a, b) == (e.a, e.b))
                    .expect("known link");
                hits[i] += 1;
            }
        }
        // Five links per episode, two events per link: every link carries
        // ten events over as many episodes as there are links.
        assert!(hits.iter().all(|&h| h == 10), "{hits:?}");
    }

    #[test]
    fn relabel_restores_what_it_moved() {
        let r = Relabel::random(&mut Rng::new(9));
        let mut db = Database::new();
        db.insert(
            "path",
            vec![
                Value::Addr(1),
                Value::List(vec![Value::Addr(1), Value::Addr(2)]),
                Value::Int(3),
            ],
        );
        let moved = r.edges(&[(1, 2, 3)])[0];
        let mut there = Database::new();
        there.insert(
            "path",
            vec![
                Value::Addr(moved.0),
                Value::List(vec![Value::Addr(moved.0), Value::Addr(moved.1)]),
                Value::Int(3),
            ],
        );
        assert_eq!(r.restore(&there, &["path"]), db);
    }
}
