//! Machine-readable baseline for the serving front end: what admission
//! batching buys over the naive one-query-per-connection loop.
//!
//! For each dataset and each client count, the same Zipf-popular mixed
//! workload is driven through two front ends over real loopback TCP:
//!
//! * **batched** — one `ic_serve::Server` with the default admission
//!   window; every client keeps a persistent connection and runs a
//!   closed loop. Concurrent arrivals coalesce into shared
//!   `Engine::run_batch_pinned` calls, so the engine gets its
//!   batch-wide planning (dedup, r-family merging, k-grouping).
//! * **per_connection** — the front end a caller would write first: a
//!   fresh TCP connection per query against a zero-window server, one
//!   single-query engine batch at a time.
//!
//! Each point reports p50/p99 per-query latency and aggregate
//! throughput, plus the server's own batching stats. The CI gate
//! (`--assert-batched-wins`) requires batched throughput to beat the
//! per-connection baseline at the largest client count.
//!
//! A final `obs_overhead` section prices the observability layer:
//! warm-serving throughput is measured in interleaved reps with
//! tracing enabled versus runtime-disabled (`ic_obs::set_enabled`),
//! and `--assert-obs-overhead <pct>` gates the regression.
//!
//! ```text
//! cargo run -p ic-bench --release --bin serve_baseline -- \
//!     --datasets email --clients 1,4,8 --queries 96 --out BENCH_serve.json
//! ```

use ic_bench::report::json_escape;
use ic_engine::{Engine, Query};
use ic_gen::datasets::{by_name, Profile};
use ic_gen::workload::{mixed_query_traffic, TrafficProfile};
use ic_gen::GraphSeed;
use ic_serve::{Client, Outcome, Response, ServeConfig, Server};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct ModePoint {
    p50_ms: f64,
    p99_ms: f64,
    qps: f64,
    engine_batches: u64,
    largest_batch: u64,
}

struct TrialPoint {
    clients: usize,
    queries: usize,
    batched: ModePoint,
    per_connection: ModePoint,
}

struct Block {
    dataset: String,
    n: usize,
    m: usize,
    points: Vec<TrialPoint>,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Worker count for the served engines: every core the host has.
fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Splits `queries` into `clients` contiguous slices (the last client
/// absorbs the remainder).
fn slices(queries: &[Query], clients: usize) -> Vec<Vec<Query>> {
    let per = queries.len() / clients;
    (0..clients)
        .map(|c| {
            let hi = if c + 1 == clients {
                queries.len()
            } else {
                (c + 1) * per
            };
            queries[c * per..hi].to_vec()
        })
        .collect()
}

fn reply_is_answered(response: &Response) -> bool {
    matches!(
        response,
        Response::Reply {
            outcome: Outcome::Complete(_) | Outcome::Degraded { .. },
            ..
        }
    )
}

/// Closed-loop trial against one server: each client thread issues its
/// slice one query at a time, measuring per-query round-trip latency.
/// `persistent` keeps one connection per client; otherwise every query
/// pays a fresh connect (the one-query-per-connection baseline).
fn run_trial(
    engine: Arc<Engine>,
    config: ServeConfig,
    queries: &[Query],
    clients: usize,
    persistent: bool,
) -> ModePoint {
    let server = Server::bind(engine, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let total = queries.len();

    let t = Instant::now();
    let workers: Vec<_> = slices(queries, clients)
        .into_iter()
        .map(|slice| {
            std::thread::spawn(move || {
                let mut latencies_ms = Vec::with_capacity(slice.len());
                let mut conn = persistent.then(|| Client::connect(addr).expect("connect"));
                for (i, q) in slice.iter().enumerate() {
                    let t0 = Instant::now();
                    let response = match conn.as_mut() {
                        Some(client) => client.call(i as u64, q).expect("serve query"),
                        None => {
                            let mut one = Client::connect(addr).expect("connect");
                            one.call(i as u64, q).expect("serve query")
                        }
                    };
                    assert!(
                        reply_is_answered(&response),
                        "bench queries must be answered, got {response:?}"
                    );
                    latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies_ms
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(total);
    for w in workers {
        latencies_ms.extend(w.join().expect("client thread"));
    }
    let wall = t.elapsed().as_secs_f64();

    let stats = server.stats();
    assert_eq!(stats.admitted, total as u64, "no bench query may be shed");
    server.shutdown();
    server.join();

    latencies_ms.sort_by(f64::total_cmp);
    ModePoint {
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        qps: total as f64 / wall,
        engine_batches: stats.batches,
        largest_batch: stats.largest_batch,
    }
}

struct ObsOverhead {
    dataset: String,
    clients: usize,
    queries: usize,
    reps_per_mode: usize,
    enabled_qps: f64,
    disabled_qps: f64,
    overhead_pct: f64,
}

/// Prices the observability layer on warm serving throughput. One
/// engine is warmed first (result cache populated, every code path
/// faulted in), then reps alternate tracing-enabled and
/// runtime-disabled; the best rep per mode stands, so scheduler noise
/// cannot inflate the reported overhead. Counters keep counting while
/// disabled (by design — `Server::stats` stays truthful), so what this
/// measures is the cost of the *timing*: `Instant::now` pairs,
/// histogram observes, and trace span recording.
fn measure_obs_overhead(
    dataset: &str,
    wg: &ic_graph::WeightedGraph,
    queries: &[Query],
    clients: usize,
) -> ObsOverhead {
    let engine = Arc::new(Engine::with_threads(wg.clone(), all_cores()));
    let _ = run_trial(
        Arc::clone(&engine),
        ServeConfig::default(),
        queries,
        clients,
        true,
    );
    let reps = 3;
    let mut enabled_qps = 0.0f64;
    let mut disabled_qps = 0.0f64;
    for rep in 0..reps * 2 {
        let on = rep % 2 == 0;
        ic_obs::set_enabled(on);
        let point = run_trial(
            Arc::clone(&engine),
            ServeConfig::default(),
            queries,
            clients,
            true,
        );
        if on {
            enabled_qps = enabled_qps.max(point.qps);
        } else {
            disabled_qps = disabled_qps.max(point.qps);
        }
    }
    ic_obs::set_enabled(true);
    ObsOverhead {
        dataset: dataset.to_string(),
        clients,
        queries: queries.len(),
        reps_per_mode: reps,
        enabled_qps,
        disabled_qps,
        overhead_pct: (1.0 - enabled_qps / disabled_qps) * 100.0,
    }
}

fn render(blocks: &[Block], obs: &ObsOverhead) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"ic-bench/serve-baseline/v1\",");
    let _ = writeln!(out, "  \"profile\": \"quick\",");
    let _ = writeln!(
        out,
        "  \"batched\": \"persistent connections into one admission-batching server (default window): concurrent arrivals coalesce into shared engine batches\","
    );
    let _ = writeln!(
        out,
        "  \"per_connection\": \"the naive front end: a fresh TCP connection per query against a zero-window server, one single-query engine batch at a time\","
    );
    out.push_str("  \"datasets\": [\n");
    let mut best_speedup = 0.0f64;
    for (bi, b) in blocks.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"dataset\": \"{}\",", json_escape(&b.dataset));
        let _ = writeln!(out, "      \"n\": {},", b.n);
        let _ = writeln!(out, "      \"m\": {},", b.m);
        out.push_str("      \"points\": [\n");
        for (pi, p) in b.points.iter().enumerate() {
            let speedup = p.batched.qps / p.per_connection.qps;
            best_speedup = best_speedup.max(speedup);
            let _ = writeln!(
                out,
                "        {{\"clients\": {}, \"queries\": {}, \
                 \"batched\": {{\"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"qps\": {:.1}, \"engine_batches\": {}, \"largest_batch\": {}}}, \
                 \"per_connection\": {{\"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"qps\": {:.1}, \"engine_batches\": {}, \"largest_batch\": {}}}, \
                 \"qps_speedup\": {:.2}}}{}",
                p.clients,
                p.queries,
                p.batched.p50_ms,
                p.batched.p99_ms,
                p.batched.qps,
                p.batched.engine_batches,
                p.batched.largest_batch,
                p.per_connection.p50_ms,
                p.per_connection.p99_ms,
                p.per_connection.qps,
                p.per_connection.engine_batches,
                p.per_connection.largest_batch,
                speedup,
                if pi + 1 == b.points.len() { "" } else { "," }
            );
        }
        out.push_str("      ]\n");
        out.push_str(if bi + 1 == blocks.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"obs_overhead\": {\n");
    let _ = writeln!(
        out,
        "    \"note\": \"warm serving throughput, tracing enabled vs runtime-disabled (ic_obs::set_enabled), best of {} interleaved reps per mode\",",
        obs.reps_per_mode
    );
    let _ = writeln!(out, "    \"dataset\": \"{}\",", json_escape(&obs.dataset));
    let _ = writeln!(out, "    \"clients\": {},", obs.clients);
    let _ = writeln!(out, "    \"queries\": {},", obs.queries);
    let _ = writeln!(out, "    \"enabled_qps\": {:.1},", obs.enabled_qps);
    let _ = writeln!(out, "    \"disabled_qps\": {:.1},", obs.disabled_qps);
    let _ = writeln!(out, "    \"overhead_pct\": {:.2}", obs.overhead_pct);
    out.push_str("  },\n");
    out.push_str("  \"summary\": {\n");
    let _ = writeln!(out, "    \"best_qps_speedup\": {best_speedup:.2}");
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut datasets = vec!["email".to_string()];
    let mut out_path = "BENCH_serve.json".to_string();
    let mut client_counts = vec![1usize, 4, 8];
    let mut queries_per_trial = 96usize;
    let mut assert_batched_wins = false;
    let mut assert_obs_overhead: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--datasets" => {
                i += 1;
                datasets = args[i].split(',').map(|s| s.trim().to_string()).collect();
            }
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            "--clients" => {
                i += 1;
                client_counts = args[i]
                    .split(',')
                    .map(|s| s.trim().parse().expect("--clients takes integers"))
                    .collect();
            }
            "--queries" => {
                i += 1;
                queries_per_trial = args[i].parse().expect("--queries takes an integer");
            }
            "--assert-batched-wins" => assert_batched_wins = true,
            "--assert-obs-overhead" => {
                i += 1;
                assert_obs_overhead =
                    Some(args[i].parse().expect("--assert-obs-overhead takes a pct"));
            }
            other => panic!(
                "unknown argument {other:?} \
                 (expected --datasets/--out/--clients/--queries/--assert-batched-wins\
                 /--assert-obs-overhead)"
            ),
        }
        i += 1;
    }
    assert!(
        !client_counts.is_empty() && client_counts.iter().all(|&c| c >= 1),
        "--clients needs at least one positive count"
    );

    let mut blocks = Vec::new();
    // The observability price is measured once, on the first dataset at
    // the widest client count (where per-query tracing bites hardest).
    let mut obs_input: Option<(String, ic_graph::WeightedGraph, Vec<Query>)> = None;
    for name in &datasets {
        let spec =
            by_name(Profile::Quick, name).unwrap_or_else(|| panic!("unknown dataset {name:?}"));
        eprintln!("[serve_baseline] generating {name} ...");
        let wg = spec.generate_weighted();
        let (n, m) = (wg.num_vertices(), wg.num_edges());
        let profile = TrafficProfile::paper_defaults(spec.k_grid);

        let mut points = Vec::new();
        for (ci, &clients) in client_counts.iter().enumerate() {
            let queries: Vec<Query> =
                mixed_query_traffic(queries_per_trial, &profile, GraphSeed(7000 + ci as u64))
                    .iter()
                    .map(ic_bench::batch::to_engine_query)
                    .collect();

            // Fresh engines per mode: both start with a cold result
            // cache, so neither inherits the other's warm answers.
            let batched = run_trial(
                Arc::new(Engine::with_threads(wg.clone(), all_cores())),
                ServeConfig::default(),
                &queries,
                clients,
                true,
            );
            let per_connection = run_trial(
                Arc::new(Engine::with_threads(wg.clone(), all_cores())),
                ServeConfig {
                    admission_window: Duration::ZERO,
                    ..ServeConfig::default()
                },
                &queries,
                clients,
                false,
            );
            eprintln!(
                "  {clients} clients x {} queries: batched p50 {:.2}ms p99 {:.2}ms {:.0} qps \
                 ({} batches, largest {}); per-connection p50 {:.2}ms p99 {:.2}ms {:.0} qps \
                 -> {:.2}x",
                queries.len(),
                batched.p50_ms,
                batched.p99_ms,
                batched.qps,
                batched.engine_batches,
                batched.largest_batch,
                per_connection.p50_ms,
                per_connection.p99_ms,
                per_connection.qps,
                batched.qps / per_connection.qps,
            );
            if obs_input.is_none() && ci + 1 == client_counts.len() {
                obs_input = Some((name.clone(), wg.clone(), queries.clone()));
            }
            points.push(TrialPoint {
                clients,
                queries: queries.len(),
                batched,
                per_connection,
            });
        }
        blocks.push(Block {
            dataset: name.clone(),
            n,
            m,
            points,
        });
    }

    let (obs_dataset, obs_wg, obs_queries) = obs_input.expect("at least one trial ran");
    let obs_clients = client_counts.iter().copied().max().expect("non-empty");
    eprintln!("[serve_baseline] pricing observability ({obs_clients} clients, warm engine) ...");
    let obs = measure_obs_overhead(&obs_dataset, &obs_wg, &obs_queries, obs_clients);
    eprintln!(
        "  obs enabled {:.0} qps vs disabled {:.0} qps -> {:.2}% overhead",
        obs.enabled_qps, obs.disabled_qps, obs.overhead_pct
    );

    let json = render(&blocks, &obs);
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("{json}");
    eprintln!("[serve_baseline] wrote {out_path}");

    if assert_batched_wins {
        for b in &blocks {
            let widest = b
                .points
                .iter()
                .max_by_key(|p| p.clients)
                .expect("at least one client count");
            assert!(
                widest.batched.qps > widest.per_connection.qps,
                "{}: batched admission ({:.1} qps) must beat the one-query-per-connection \
                 baseline ({:.1} qps) at {} clients",
                b.dataset,
                widest.batched.qps,
                widest.per_connection.qps,
                widest.clients
            );
        }
        eprintln!("[serve_baseline] batched admission beats per-connection on every dataset");
    }
    if let Some(limit) = assert_obs_overhead {
        assert!(
            obs.overhead_pct <= limit,
            "observability overhead {:.2}% exceeds the {limit}% budget \
             (enabled {:.1} qps vs disabled {:.1} qps)",
            obs.overhead_pct,
            obs.enabled_qps,
            obs.disabled_qps
        );
        eprintln!(
            "[serve_baseline] observability overhead {:.2}% within the {limit}% budget",
            obs.overhead_pct
        );
    }
}
