//! The three workloads and their preparation: graph generation, store
//! building, request sequences, the update script and the reference
//! answers. Nothing here is timed as part of a metric.
//!
//! Each workload's graph and query population are part of its
//! definition and fixed (the email analog of the dataset registry,
//! `shard_baseline`'s 10⁶-vertex graph, a fixed traffic ranking); the
//! benchmark seed draws the order requests arrive in, the update script
//! and the per-cycle shuffles. Seeded graphs moved `query_qps` by more
//! than its bound from seed to seed, which would hide a regression.

use crate::check::{fingerprint, is_exact};
use ic_core::{Aggregation, Query};
use ic_engine::{EdgeUpdate, Engine};
use ic_gen::datasets::{by_name, Profile};
use ic_gen::workload::{mixed_query_traffic, TrafficProfile};
use ic_gen::{pareto_weights, stream_graph, GraphSeed, StreamSpec};
use ic_graph::WeightedGraph;
use ic_store::shard::{build_shard_stores, DEFAULT_MAX_SHARD_VERTICES};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cache-hit reads over the served email analog.
    HotRead,
    /// Cold reads under a live update stream with standing queries.
    Churn,
    /// Large-reply reads over a 10⁶-vertex graph in three shard stores.
    BigSharded,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::HotRead, Workload::Churn, Workload::BigSharded];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::Churn => "churn",
            Workload::BigSharded => "big-sharded",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One sentence on why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::HotRead => {
                "Every timed query is a plan-time cache hit, so the serve layer (wire, \
                 admission window, reply write) and engine planning do all the work and the \
                 solvers none: it shows serve-layer changes and must not move on solver changes."
            }
            Workload::Churn => {
                "An UPDATE every 10th request on one connection moves the epoch and invalidates \
                 cached answers, so solvers, k-core maintenance, index repair and subscription \
                 refresh do most of the work and serve costs are a small share."
            }
            Workload::BigSharded => {
                "The only workload on memory-mapped shard stores: it exercises store lazy \
                 verification, shard scatter/gather and the multi-million-id reply path."
            }
        }
    }

    /// Whether the workload serves a single `Engine` (else a
    /// `ShardedEngine`).
    pub fn single_store(self) -> bool {
        !matches!(self, Workload::BigSharded)
    }
}

/// One request a connection sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Query `distinct[i]`.
    Query(u32),
    /// Apply `script[i]`.
    Update(u32),
}

/// Where the served graph lives on disk.
pub enum Stores {
    /// One ICS1 store.
    Single(PathBuf),
    /// A directory of shard stores, and the shard files in index order.
    Sharded {
        /// The directory `ShardedEngine::open_dir` opens.
        dir: PathBuf,
        /// `shard-NNNN.ics1`, in shard-index order.
        shards: Vec<PathBuf>,
    },
}

/// A prepared workload.
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The generated graph; dropped for `big-sharded` once the stores
    /// and references are built.
    pub graph: Option<WeightedGraph>,
    /// Vertex and edge count of the generated graph.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// The persisted stores.
    pub stores: Stores,
    /// Bytes on disk across the stores.
    pub store_bytes: u64,
    /// The distinct queries the traffic draws from.
    pub distinct: Vec<Query>,
    /// Epoch-0 reference fingerprint per distinct query (`None` for
    /// local search, which is verified instead).
    pub reference: Vec<Option<u64>>,
    /// Per-connection request sequences (cycled when exhausted).
    pub ops: [Vec<Op>; 2],
    /// The update script (`churn` only).
    pub script: Vec<Vec<EdgeUpdate>>,
    /// Standing queries held by connection 1 (`churn` only).
    pub subscriptions: Vec<Query>,
    /// Seconds spent preparing (not part of any metric).
    pub prep_secs: f64,
}

/// Worker threads per engine, as the served engine uses them.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Requests per connection sequence before it cycles.
const OPS_PER_CONN: usize = 60_000;
/// Queries in one traffic round of the email workloads.
const ROUND: usize = 400;
/// Seed of the email workloads' template popularity ranking.
const TRAFFIC_SEED: u64 = 0x7AFF_1C5E;
/// Every `UPDATE_EVERY`-th request on `churn`'s connection 0 is an UPDATE.
pub const UPDATE_EVERY: usize = 10;
/// Edges per UPDATE frame.
const CHUNK_EDGES: usize = 8;
/// Every `CORE_EVERY`-th chunk cuts into the dense core.
const CORE_EVERY: usize = 4;
/// Remove/insert chunk pairs in the update script (cycled).
const SCRIPT_PAIRS: usize = 200;
/// `big-sharded` graph: vertices, target edges, persisted `k` levels.
const BIG_N: usize = 1_000_000;
const BIG_M: usize = 4_000_000;
const BIG_KS: [usize; 2] = [4, 8];
/// Extra copies of the popular query per `big-sharded` cycle.
const POPULAR_EXTRA: usize = 6;

/// splitmix64: the benchmark's own deterministic stream.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Flushes freshly written stores to disk, so their write-back does
/// not land inside a timed window.
fn settle(paths: &[PathBuf]) {
    for path in paths {
        std::fs::File::open(path)
            .and_then(|f| f.sync_all())
            .expect("flush a store to disk");
    }
}

/// Builds the workload's inputs under `work_dir` (created by the caller).
pub fn prepare(workload: Workload, seed: u64, work_dir: &Path) -> Prepared {
    let t = Instant::now();
    let mut prepared = match workload {
        Workload::HotRead | Workload::Churn => prepare_email(workload, seed, work_dir),
        Workload::BigSharded => prepare_big(seed, work_dir),
    };
    prepared.prep_secs = t.elapsed().as_secs_f64();
    prepared
}

fn prepare_email(workload: Workload, seed: u64, work_dir: &Path) -> Prepared {
    let mut rng = SplitMix::new(seed);
    let spec = by_name(Profile::Quick, "email").expect("the email analog is registered");
    let wg = spec.generate_weighted();
    let (n, m) = (wg.num_vertices(), wg.num_edges());

    // Zipf-popular mixed traffic. One round of it is drawn from a fixed
    // popularity ranking (part of the workload's definition); every
    // round repeats that multiset in a seeded order, so a run's solver
    // work does not hinge on how many heavy-tailed draws it happened to
    // get. Rounds are dealt alternately to the two connections.
    let round: Vec<Query> = mixed_query_traffic(
        ROUND,
        &TrafficProfile::paper_defaults(spec.k_grid),
        GraphSeed(TRAFFIC_SEED),
    )
    .iter()
    .map(ic_bench::batch::to_engine_query)
    .collect();
    let mut distinct: Vec<Query> = Vec::new();
    let mut cycle: Vec<u32> = round
        .iter()
        .map(|q| match distinct.iter().position(|d| d == q) {
            Some(idx) => idx as u32,
            None => {
                distinct.push(*q);
                distinct.len() as u32 - 1
            }
        })
        .collect();
    let mut ops: [Vec<Op>; 2] = [Vec::new(), Vec::new()];
    while ops[1].len() < OPS_PER_CONN {
        rng.shuffle(&mut cycle);
        for (i, &q) in cycle.iter().enumerate() {
            ops[i % 2].push(Op::Query(q));
        }
    }

    // The reference engine answers every distinct query once; its warm
    // state (memoized levels and forests) is what the store persists,
    // as an operator would ship it.
    let reference_engine = Engine::with_threads(wg.clone(), threads());
    let reference = reference_engine
        .run_batch(&distinct)
        .into_iter()
        .zip(&distinct)
        .map(|(answer, q)| {
            let answer = answer.unwrap_or_else(|e| panic!("reference failed on {q:?}: {e}"));
            is_exact(q).then(|| fingerprint(&answer))
        })
        .collect();
    let store = work_dir.join("email.ics1");
    reference_engine
        .persist(&store)
        .expect("persist the email store");
    settle(std::slice::from_ref(&store));
    let store_bytes = std::fs::metadata(&store).map_or(0, |m| m.len());

    let (script, subscriptions) = if workload == Workload::Churn {
        let script = update_script(&wg, &mut rng);
        // Connection 0 sends an UPDATE as every 10th request, in place
        // of a query, walking the script in order.
        let mut next_chunk = 0u32;
        let mut with_updates = Vec::with_capacity(ops[0].len());
        for (i, op) in ops[0].iter().enumerate() {
            if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
                with_updates.push(Op::Update(next_chunk % script.len() as u32));
                next_chunk += 1;
            } else {
                with_updates.push(*op);
            }
        }
        ops[0] = with_updates;
        (script, subscription_mix())
    } else {
        (Vec::new(), Vec::new())
    };

    Prepared {
        workload,
        graph: Some(wg),
        n,
        m,
        stores: Stores::Single(store),
        store_bytes,
        distinct,
        reference,
        ops,
        script,
        subscriptions,
        prep_secs: 0.0,
    }
}

/// The 16 standing queries of `churn`: min/max/sum over k 4–6.
fn subscription_mix() -> Vec<Query> {
    (0..16usize)
        .map(|i| {
            let k = 4 + i % 3;
            match i % 4 {
                0 | 2 => Query::new(k, 1 + i % 8, Aggregation::Min),
                1 => Query::new(k, 1 + i % 8, Aggregation::Max),
                _ => Query::new(k, 1 + i % 3, Aggregation::Sum),
            }
        })
        .collect()
}

/// Remove/insert chunks of existing edges: each chunk's edges are
/// removed by one UPDATE and restored by the next, so every UPDATE moves
/// the epoch and the script cycles without wearing the cores down. Most
/// chunks touch only the periphery (both endpoints below the smallest
/// subscribed k); every 4th cuts into the dense core.
fn update_script(wg: &WeightedGraph, rng: &mut SplitMix) -> Vec<Vec<EdgeUpdate>> {
    let cores = ic_kcore::core_decomposition(wg.graph()).core_numbers;
    let min_k = 4u32;
    let mut periphery: Vec<(u32, u32)> = Vec::new();
    let mut core: Vec<(u32, u32)> = Vec::new();
    for (u, v) in wg.graph().edges() {
        if cores[u as usize] < min_k && cores[v as usize] < min_k {
            periphery.push((u, v));
        } else {
            core.push((u, v));
        }
    }
    rng.shuffle(&mut periphery);
    rng.shuffle(&mut core);
    let (mut pi, mut ci) = (0usize, 0usize);
    let mut script = Vec::with_capacity(2 * SCRIPT_PAIRS);
    for chunk in 0..SCRIPT_PAIRS {
        let (pool, cursor) = if chunk % CORE_EVERY == CORE_EVERY - 1 {
            (&core, &mut ci)
        } else {
            (&periphery, &mut pi)
        };
        let edges: Vec<(u32, u32)> = (0..CHUNK_EDGES)
            .map(|i| pool[(*cursor + i) % pool.len()])
            .collect();
        *cursor = (*cursor + CHUNK_EDGES) % pool.len();
        script.push(
            edges
                .iter()
                .map(|&(u, v)| EdgeUpdate::Remove { u, v })
                .collect(),
        );
        script.push(
            edges
                .iter()
                .map(|&(u, v)| EdgeUpdate::Insert { u, v })
                .collect(),
        );
    }
    script
}

fn prepare_big(seed: u64, work_dir: &Path) -> Prepared {
    let mut rng = SplitMix::new(seed);
    // shard_baseline's graph and weights (BENCH_shard.json).
    let spec = StreamSpec::ChungLu {
        n: BIG_N,
        target_m: BIG_M,
        gamma: 2.5,
        seed: GraphSeed(42),
    };
    let g = stream_graph(&spec);
    let w = pareto_weights(BIG_N, 1.5, GraphSeed(42 ^ 0x9e37_79b9));
    let wg = WeightedGraph::new(g, w).expect("streamed graph and weights pair up");
    let (n, m) = (wg.num_vertices(), wg.num_edges());

    let dir = work_dir.join("shards");
    let shards = build_shard_stores(&wg, &BIG_KS, DEFAULT_MAX_SHARD_VERTICES, &dir)
        .expect("build the shard stores");
    settle(&shards);
    let store_bytes = shards
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();

    // The paper's sweep: min/max at k in {4, 8}, r in {5, 10, 15, 20}.
    let distinct: Vec<Query> = BIG_KS
        .iter()
        .flat_map(|&k| {
            [5usize, 10, 15, 20].into_iter().flat_map(move |r| {
                [
                    Query::new(k, r, Aggregation::Min),
                    Query::new(k, r, Aggregation::Max),
                ]
            })
        })
        .collect();
    // Reference answers from an unsharded in-process engine, one query
    // at a time so only one multi-million-id answer is alive at once.
    let reference_engine = Engine::with_threads(wg, threads());
    let reference = distinct
        .iter()
        .map(|q| {
            let answer = reference_engine
                .run_batch(std::slice::from_ref(q))
                .remove(0)
                .unwrap_or_else(|e| panic!("reference failed on {q:?}: {e}"));
            reference_engine.clear_result_cache();
            Some(fingerprint(&answer))
        })
        .collect();
    drop(reference_engine);

    // Each connection walks seeded shuffles of one cycle: the sweep once
    // plus the popular query (top-10 max at k = 8, a dashboard's query)
    // six more times. Min answers return in a few ms and max answers in
    // 5-200 ms, so an even cycle would put the median on the seam
    // between the two; the popular query's block holds it instead.
    let popular = distinct
        .iter()
        .position(|q| *q == Query::new(8, 10, Aggregation::Max))
        .expect("the sweep holds the popular query") as u32;
    let mut cycle: Vec<u32> = (0..distinct.len() as u32).collect();
    cycle.extend([popular; POPULAR_EXTRA]);
    let ops = [0, 1].map(|_| {
        let mut seq = Vec::new();
        while seq.len() < 4096 {
            rng.shuffle(&mut cycle);
            seq.extend(cycle.iter().map(|&i| Op::Query(i)));
        }
        seq
    });

    Prepared {
        workload: Workload::BigSharded,
        graph: None,
        n,
        m,
        stores: Stores::Sharded { dir, shards },
        store_bytes,
        distinct,
        reference,
        ops,
        script: Vec::new(),
        subscriptions: Vec::new(),
        prep_secs: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_shuffles_are_permutations() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items: Vec<u32> = (0..50).collect();
        a.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("warm"), None);
    }
}
