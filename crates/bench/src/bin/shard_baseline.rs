//! Machine-readable baseline for million-node sharded serving: the
//! PR-8 pipeline end to end, with every number gated on bit-identity.
//!
//! One streamed Chung-Lu graph (default 10⁶ vertices — generated in
//! two passes, no edge list ever materialized) is built two ways:
//!
//! * a single unsharded `ICS1` store (decomposition + default-k level
//!   + min/max forests), and
//! * a directory of per-shard stores (`ic_store::shard`), partitioned
//!   by connected component and k-level range.
//!
//! Measured, in order:
//!
//! 1. **Cold start** — process-equivalent first-query latency from the
//!    single store, opened memory-mapped (lazy per-section
//!    verification, pages faulted on demand) vs. into an owned buffer
//!    (full read + eager checksum). The mmap number must win: that is
//!    the point of the mapped path (`--assert-mmap-wins` makes it a
//!    hard gate for CI).
//! 2. **Bit-identity** — before any sharded timing, a min/max/sum
//!    query sample through [`ic_shard::ShardedEngine`] is asserted
//!    byte-equal to the unsharded engine. A fast sharded answer that
//!    differs would be worthless; this gate is unconditional.
//! 3. **Steady state** — index-served queries/sec, unsharded vs.
//!    sharded scatter-gather (result caches cleared every round).
//! 4. **Serving** — the same sharded backend behind a real
//!    `ic_serve::Server` on loopback TCP: per-query p50 and aggregate
//!    throughput, because "serves a million-node graph" means through
//!    the network front end, not just a library call.
//!
//! ```text
//! cargo run -p ic-bench --release --bin shard_baseline -- \
//!     --n 1000000 --target-m 4000000 --ks 4,8 --out BENCH_shard.json \
//!     --assert-mmap-wins
//! ```

use ic_bench::report::median;
use ic_bench::runner::time_once;
use ic_core::Aggregation;
use ic_engine::{Engine, OpenOptions, Query};
use ic_gen::{pareto_weights, stream_graph, GraphSeed, StreamSpec};
use ic_graph::WeightedGraph;
use ic_serve::{Client, Outcome, Response, ServeConfig, Server};
use ic_shard::ShardedEngine;
use ic_store::shard::{build_shard_stores, DEFAULT_MAX_SHARD_VERTICES};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

struct Config {
    n: usize,
    target_m: usize,
    ks: Vec<usize>,
    shard_cap: usize,
    runs: usize,
    out: String,
    assert_mmap_wins: bool,
}

struct Numbers {
    n: usize,
    m: usize,
    gen_secs: f64,
    store_secs: f64,
    store_bytes: u64,
    shards_secs: f64,
    shard_count: usize,
    shard_bytes: u64,
    mmap_first_query_secs: f64,
    owned_first_query_secs: f64,
    sharded_first_query_secs: f64,
    identity_queries: usize,
    unsharded_qps: f64,
    sharded_qps: f64,
    serve_p50_ms: f64,
    serve_qps: f64,
}

/// The cold-start probe: index-served top-10 min at the smallest
/// persisted `k`.
fn probe(k: usize) -> Query {
    Query::new(k, 10, Aggregation::Min)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Largest `n` at which the identity sample still includes the
/// solver-served sum family. TIC-exact enumerates over the whole
/// k-core, so at million scale a single sum query runs for minutes —
/// past this size the gate sticks to the index-served extremal
/// families (output-sensitive at any `n`) and the sum/surplus merge
/// identity is carried by the in-process oracle proptest
/// (`crates/shard/tests/merge_prop.rs`) at sizes where it is feasible.
const SUM_IDENTITY_MAX_VERTICES: usize = 200_000;

/// Query sample for the identity gate: index-served min/max at every
/// persisted `k`, plus — when the graph is small enough — one
/// solver-served sum and one surplus query at the densest `k` (the sum
/// peel is the path where a total-weight mismatch would show).
fn identity_sample(ks: &[usize], n: usize) -> Vec<Query> {
    let mut sample: Vec<Query> = ks
        .iter()
        .flat_map(|&k| {
            [
                Query::new(k, 1, Aggregation::Min),
                Query::new(k, 10, Aggregation::Min),
                Query::new(k, 10, Aggregation::Max),
            ]
        })
        .collect();
    if n <= SUM_IDENTITY_MAX_VERTICES {
        let kmax = ks.iter().copied().max().unwrap_or(2);
        sample.push(Query::new(kmax, 5, Aggregation::Sum));
        sample.push(Query::new(kmax, 5, Aggregation::SumSurplus { alpha: 1.0 }));
    } else {
        eprintln!(
            "[identity] n = {n} > {SUM_IDENTITY_MAX_VERTICES}: sum/surplus dropped from the \
             gate (TIC-exact over the full k-core; merge identity held by merge_prop.rs)"
        );
    }
    sample
}

/// Steady-state throughput: min/max r-sweep at `k`, caches cleared
/// between rounds so every query is a live serve.
fn steady_qps<C, R>(clear: C, run: R, k: usize, rounds: usize) -> f64
where
    C: Fn(),
    R: Fn(&[Query]) -> usize,
{
    let sweep: Vec<Query> = (1..=8usize)
        .map(|r| Query::new(k, r, Aggregation::Min))
        .chain((1..=8usize).map(|r| Query::new(k, r, Aggregation::Max)))
        .collect();
    let mut total = 0.0f64;
    let mut served = 0usize;
    for _ in 0..rounds {
        clear();
        let (t, answered) = time_once(|| run(&sweep));
        assert_eq!(answered, sweep.len(), "steady-state query failed");
        total += t;
        served += sweep.len();
    }
    served as f64 / total.max(1e-12)
}

/// Drives `queries` through a real loopback server backed by the
/// sharded engine: returns (p50 latency ms, qps).
fn serve_leg(dir: &Path, queries: &[Query], clients: usize) -> (f64, f64) {
    let sharded = ShardedEngine::open_dir(dir).expect("open shards for serving");
    let server = Server::bind_backend(Arc::new(sharded), "127.0.0.1:0", ServeConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();

    let per = queries.len().div_ceil(clients.max(1));
    let t = Instant::now();
    let workers: Vec<_> = queries
        .chunks(per)
        .map(|slice| {
            let slice = slice.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut latencies_ms = Vec::with_capacity(slice.len());
                for (i, q) in slice.iter().enumerate() {
                    let t0 = Instant::now();
                    let response = client.call(i as u64, q).expect("serve query");
                    assert!(
                        matches!(
                            response,
                            Response::Reply {
                                outcome: Outcome::Complete(_) | Outcome::Degraded { .. },
                                ..
                            }
                        ),
                        "served query must be answered, got {response:?}"
                    );
                    latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies_ms
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(queries.len());
    for w in workers {
        latencies_ms.extend(w.join().expect("client thread"));
    }
    let wall = t.elapsed().as_secs_f64();
    server.shutdown();
    server.join();

    latencies_ms.sort_by(f64::total_cmp);
    let p50 = latencies_ms[latencies_ms.len() / 2];
    (p50, queries.len() as f64 / wall.max(1e-12))
}

fn measure(config: &Config) -> Numbers {
    let scratch = std::env::temp_dir().join(format!("ic-shard-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let store: PathBuf = scratch.join("full.ics1");
    let shards_dir: PathBuf = scratch.join("shards");

    // Streamed generation: two passes, no edge list.
    let spec = StreamSpec::ChungLu {
        n: config.n,
        target_m: config.target_m,
        gamma: 2.5,
        seed: GraphSeed(42),
    };
    let t = Instant::now();
    let g = stream_graph(&spec);
    let w = pareto_weights(config.n, 1.5, GraphSeed(42 ^ 0x9e37_79b9));
    let wg = WeightedGraph::new(g, w).expect("streamed weights pair");
    let gen_secs = t.elapsed().as_secs_f64();
    let (n, m) = (wg.num_vertices(), wg.num_edges());
    eprintln!("[gen] {n} vertices, {m} edges in {gen_secs:.2}s");

    // Single unsharded store, warmed the way an operator would.
    let t = Instant::now();
    let unsharded = Engine::with_threads(wg.clone(), 0);
    let warm: Vec<Query> = config
        .ks
        .iter()
        .flat_map(|&k| {
            [
                Query::new(k, 10, Aggregation::Min),
                Query::new(k, 10, Aggregation::Max),
            ]
        })
        .collect();
    for r in unsharded.run_batch(&warm) {
        r.expect("warmup answers");
    }
    unsharded.persist(&store).expect("persist store");
    let store_secs = t.elapsed().as_secs_f64();
    let store_bytes = std::fs::metadata(&store).map(|s| s.len()).unwrap_or(0);
    eprintln!("[store] {store_bytes} bytes in {store_secs:.2}s");

    // Per-shard stores over the same graph.
    let t = Instant::now();
    let shard_paths =
        build_shard_stores(&wg, &config.ks, config.shard_cap, &shards_dir).expect("shard build");
    let shards_secs = t.elapsed().as_secs_f64();
    let shard_bytes = dir_bytes(&shards_dir);
    eprintln!(
        "[shards] {} shard(s), {shard_bytes} bytes in {shards_secs:.2}s",
        shard_paths.len()
    );
    drop(wg);

    // Cold start: mapped vs owned vs sharded, median over runs.
    let k0 = config.ks.iter().copied().min().unwrap_or(2);
    let cold = |options: &OpenOptions| {
        let (t, _) = time_once(|| {
            let engine =
                Engine::open_with_options(&store, &options.clone().threads(1)).expect("open");
            for r in engine.run_batch(&[probe(k0)]) {
                r.expect("probe answer");
            }
        });
        t
    };
    let mut mmap_samples: Vec<f64> = (0..config.runs)
        .map(|_| cold(&OpenOptions::default()))
        .collect();
    let mut owned_samples: Vec<f64> = (0..config.runs)
        .map(|_| cold(&OpenOptions::default().owned_buffer()))
        .collect();
    let mut sharded_samples: Vec<f64> = (0..config.runs)
        .map(|_| {
            let (t, _) = time_once(|| {
                let sharded = ShardedEngine::open_dir(&shards_dir).expect("open shards");
                let (_, answers) =
                    sharded.run_batch_pinned(&[probe(k0)], &ic_engine::BatchOptions::default());
                for r in answers {
                    r.expect("probe answer");
                }
            });
            t
        })
        .collect();
    let mmap_first_query_secs = median(&mut mmap_samples);
    let owned_first_query_secs = median(&mut owned_samples);
    let sharded_first_query_secs = median(&mut sharded_samples);
    eprintln!(
        "[cold] mmap {mmap_first_query_secs:.4}s, owned {owned_first_query_secs:.4}s, \
         sharded {sharded_first_query_secs:.4}s"
    );
    if config.assert_mmap_wins {
        assert!(
            mmap_first_query_secs < owned_first_query_secs,
            "mapped cold start ({mmap_first_query_secs:.4}s) must beat the owned-buffer copy \
             ({owned_first_query_secs:.4}s)"
        );
    }

    // Bit-identity gate before any sharded timing.
    let sharded = ShardedEngine::open_dir(&shards_dir).expect("open shards");
    let sample = identity_sample(&config.ks, config.n);
    let options = ic_engine::BatchOptions::default();
    let want = unsharded.run_batch_pinned(&sample, &options).1;
    let got = sharded.run_batch_pinned(&sample, &options).1;
    for ((q, w), g) in sample.iter().zip(&want).zip(&got) {
        let w = w.as_ref().expect("unsharded answer");
        let g = g.as_ref().expect("sharded answer");
        assert_eq!(w, g, "sharded answer diverged on {q:?}");
    }
    eprintln!("[identity] {} queries bit-identical", sample.len());

    // Steady state, both backends.
    let unsharded_qps = steady_qps(
        || unsharded.clear_result_cache(),
        |sweep| {
            unsharded
                .run_batch(sweep)
                .into_iter()
                .filter(|r| r.is_ok())
                .count()
        },
        k0,
        config.runs,
    );
    let sharded_qps = steady_qps(
        || sharded.clear_result_cache(),
        |sweep| {
            sharded
                .run_batch_pinned(sweep, &options)
                .1
                .into_iter()
                .filter(|r| r.is_ok())
                .count()
        },
        k0,
        config.runs,
    );
    eprintln!("[steady] unsharded {unsharded_qps:.1} qps, sharded {sharded_qps:.1} qps");

    // Through the real network front end.
    let serve_queries: Vec<Query> = (0..64)
        .map(|i| {
            let k = config.ks[i % config.ks.len()];
            let r = 1 + (i % 8);
            if i % 2 == 0 {
                Query::new(k, r, Aggregation::Min)
            } else {
                Query::new(k, r, Aggregation::Max)
            }
        })
        .collect();
    let (serve_p50_ms, serve_qps) = serve_leg(&shards_dir, &serve_queries, 4);
    eprintln!("[serve] p50 {serve_p50_ms:.2}ms, {serve_qps:.1} qps over loopback");

    std::fs::remove_dir_all(&scratch).ok();
    Numbers {
        n,
        m,
        gen_secs,
        store_secs,
        store_bytes,
        shards_secs,
        shard_count: shard_paths.len(),
        shard_bytes,
        mmap_first_query_secs,
        owned_first_query_secs,
        sharded_first_query_secs,
        identity_queries: sample.len(),
        unsharded_qps,
        sharded_qps,
        serve_p50_ms,
        serve_qps,
    }
}

fn render(config: &Config, x: &Numbers) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"ic-bench/shard-baseline/v1\",");
    let _ = writeln!(
        out,
        "  \"pipeline\": \"streamed Chung-Lu graph -> single ICS1 store and per-shard stores -> \
         mmap vs owned cold start -> bit-identity gate -> steady qps -> loopback ic-serve\","
    );
    let _ = writeln!(out, "  \"runs\": {},", config.runs);
    out.push_str("  \"dataset\": {\n");
    let _ = writeln!(out, "    \"n\": {},", x.n);
    let _ = writeln!(out, "    \"m\": {},", x.m);
    let _ = writeln!(out, "    \"ks\": {:?},", config.ks);
    let _ = writeln!(out, "    \"gen_secs\": {:.3}", x.gen_secs);
    out.push_str("  },\n");
    out.push_str("  \"build\": {\n");
    let _ = writeln!(out, "    \"store_secs\": {:.3},", x.store_secs);
    let _ = writeln!(out, "    \"store_bytes\": {},", x.store_bytes);
    let _ = writeln!(out, "    \"shards_secs\": {:.3},", x.shards_secs);
    let _ = writeln!(out, "    \"shard_count\": {},", x.shard_count);
    let _ = writeln!(out, "    \"shard_cap_vertices\": {},", config.shard_cap);
    let _ = writeln!(out, "    \"shard_bytes\": {}", x.shard_bytes);
    out.push_str("  },\n");
    out.push_str("  \"cold_first_query\": {\n");
    let _ = writeln!(out, "    \"mmap_secs\": {:.6},", x.mmap_first_query_secs);
    let _ = writeln!(out, "    \"owned_secs\": {:.6},", x.owned_first_query_secs);
    let _ = writeln!(
        out,
        "    \"sharded_secs\": {:.6},",
        x.sharded_first_query_secs
    );
    let _ = writeln!(
        out,
        "    \"mmap_speedup\": {:.2}",
        x.owned_first_query_secs / x.mmap_first_query_secs.max(1e-12)
    );
    out.push_str("  },\n");
    out.push_str("  \"identity\": {\n");
    let _ = writeln!(out, "    \"queries_checked\": {},", x.identity_queries);
    let _ = writeln!(out, "    \"bit_identical\": true");
    out.push_str("  },\n");
    out.push_str("  \"steady\": {\n");
    let _ = writeln!(out, "    \"unsharded_qps\": {:.1},", x.unsharded_qps);
    let _ = writeln!(out, "    \"sharded_qps\": {:.1}", x.sharded_qps);
    out.push_str("  },\n");
    out.push_str("  \"serve\": {\n");
    let _ = writeln!(out, "    \"p50_ms\": {:.3},", x.serve_p50_ms);
    let _ = writeln!(out, "    \"qps\": {:.1}", x.serve_qps);
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = Config {
        n: 1_000_000,
        target_m: 4_000_000,
        ks: vec![4, 8],
        shard_cap: DEFAULT_MAX_SHARD_VERTICES,
        runs: 3,
        out: "BENCH_shard.json".to_string(),
        assert_mmap_wins: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => {
                i += 1;
                config.n = args[i].parse().expect("--n");
            }
            "--target-m" => {
                i += 1;
                config.target_m = args[i].parse().expect("--target-m");
            }
            "--ks" => {
                i += 1;
                config.ks = args[i]
                    .split(',')
                    .map(|s| s.trim().parse().expect("--ks"))
                    .collect();
            }
            "--shard-cap" => {
                i += 1;
                config.shard_cap = args[i].parse().expect("--shard-cap");
            }
            "--runs" => {
                i += 1;
                config.runs = args[i].parse::<usize>().expect("--runs").max(1);
            }
            "--out" => {
                i += 1;
                config.out = args[i].clone();
            }
            "--assert-mmap-wins" => config.assert_mmap_wins = true,
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }

    let numbers = measure(&config);
    let json = render(&config, &numbers);
    std::fs::write(&config.out, &json).expect("write bench json");
    println!("wrote {}", config.out);
}
