//! Machine-readable perf baseline for the batched multi-query engine.
//!
//! For each dataset, synthesizes `--runs` independent mixed 64-query
//! batches (ticks of Zipf-popular traffic over the dataset's `k` grid:
//! min/max/sum exact, approximate sum, sum-surplus, and
//! size-constrained local search) and measures the aggregate wall-clock
//! over all ticks for three ways of answering them:
//!
//! * **sequential** — the one-query-at-a-time loop every caller writes
//!   without the engine: a direct solver call per query, each
//!   recomputing the core decomposition and building a fresh arena;
//! * **batched_cold** — a fresh [`ic_engine::Engine`] per tick: plan
//!   (validate, dedup, merge r-families, group by `k`), execute on the
//!   worker pool, including all lazy snapshot memoization — the
//!   single-batch speedup, aggregated over several independent draws so
//!   one lucky or unlucky batch cannot dominate the number;
//! * **batched_warm** — one engine serving every tick: the steady-state
//!   regime with warm snapshot levels, pooled arenas, and the
//!   cross-batch result cache absorbing repeat queries.
//!
//! Before timing, batched output is cross-checked against the
//! sequential loop (bit-identical on deterministic solver paths; the
//! conformance suite covers this exhaustively). Writes
//! `BENCH_batch.json`:
//!
//! ```text
//! cargo run -p ic-bench --release --bin batch_baseline -- \
//!     --datasets email,youtube,friendster --queries 64 --out BENCH_batch.json
//! ```
//!
//! Set `IC_BATCH_PROFILE=1` to dump the most expensive tick-0 queries
//! (sequential cost) per dataset before timing starts.

use ic_bench::batch::{solve_sequential, to_engine_query};
use ic_bench::report::{json_escape, median};
use ic_bench::runner::time_once;
use ic_core::Aggregation;
use ic_engine::{Constraint, Engine, PlanStats, Query};
use ic_gen::datasets::{by_name, Profile};
use ic_gen::workload::{mixed_query_traffic, TrafficProfile};
use ic_gen::GraphSeed;
use std::fmt::Write as _;

struct Block {
    dataset: String,
    n: usize,
    m: usize,
    stats: PlanStats,
    warm_cache_hits: usize,
    sequential_secs: f64,
    batched_cold_secs: f64,
    batched_warm_secs: f64,
    /// Streamed-session latencies for one min and one max query.
    ttfr: [Ttfr; 2],
}

/// Time-to-first-result of a progressive session vs the full-batch
/// latency of the same query (medians over several runs, cache cleared
/// between runs so every measurement is a live solver run).
struct Ttfr {
    direction: &'static str,
    k: usize,
    r: usize,
    /// `Engine::submit(q)` + first `next()`.
    first_result_secs: f64,
    /// `Engine::run_batch(&[q])` to completion.
    full_batch_secs: f64,
    /// Draining the whole stream (prefix contract sanity: also
    /// cross-checked bit-for-bit against the batch result).
    stream_total_secs: f64,
}

/// Measures streamed TTFR vs full-batch latency for one query on a
/// warm-snapshot engine (the serving steady state).
fn measure_ttfr(engine: &Engine, direction: &'static str, q: Query, runs: usize) -> Ttfr {
    // Warm the snapshot level and pin the reference answer.
    let reference = engine.run_batch(&[q])[0].clone().expect("ttfr query valid");
    engine.clear_result_cache();
    let streamed: Vec<_> = engine.submit(q).expect("ttfr query valid").collect();
    assert_eq!(streamed, reference, "stream/batch divergence on {q:?}");

    let mut first = Vec::with_capacity(runs);
    let mut full = Vec::with_capacity(runs);
    let mut total = Vec::with_capacity(runs);
    for _ in 0..runs {
        engine.clear_result_cache();
        let (t, _) = time_once(|| engine.run_batch(&[q]));
        full.push(t);
        engine.clear_result_cache();
        let (t, stream) = time_once(|| {
            let mut s = engine.submit(q).expect("ttfr query valid");
            let first = s.next();
            (s, first)
        });
        first.push(t);
        drop(stream); // cancellation: the unread suffix is never computed
        engine.clear_result_cache();
        let (t, _) = time_once(|| engine.submit(q).expect("ttfr query valid").count());
        total.push(t);
    }
    Ttfr {
        direction,
        k: q.k,
        r: q.r,
        first_result_secs: median(&mut first),
        full_batch_secs: median(&mut full),
        stream_total_secs: median(&mut total),
    }
}

fn render(blocks: &[Block], queries: usize, ticks: usize, threads: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"ic-bench/batch-baseline/v1\",");
    let _ = writeln!(out, "  \"profile\": \"quick\",");
    let _ = writeln!(out, "  \"queries_per_batch\": {queries},");
    let _ = writeln!(out, "  \"ticks\": {ticks},");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(
        out,
        "  \"baseline\": \"one-query-at-a-time loop over the direct solvers (fresh decomposition + arena per query), aggregated over all ticks\","
    );
    let _ = writeln!(
        out,
        "  \"batched\": \"ic-engine run_batch: shared snapshot, dedup, min/max + exact-sum r-family merges, local-search family pool sharing, pooled arenas (cold = fresh engine per tick, warm = one engine + result cache across ticks)\","
    );
    out.push_str("  \"datasets\": [\n");
    let mut cold: Vec<f64> = Vec::new();
    let mut warm: Vec<f64> = Vec::new();
    for (bi, b) in blocks.iter().enumerate() {
        let sc = b.sequential_secs / b.batched_cold_secs.max(1e-12);
        let sw = b.sequential_secs / b.batched_warm_secs.max(1e-12);
        cold.push(sc);
        warm.push(sw);
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"dataset\": \"{}\",", json_escape(&b.dataset));
        let _ = writeln!(out, "      \"n\": {},", b.n);
        let _ = writeln!(out, "      \"m\": {},", b.m);
        let _ = writeln!(
            out,
            "      \"tick0_plan\": {{\"total_queries\": {}, \"answered_at_plan\": {}, \"sequential_runs\": {}, \"solver_runs\": {}, \"k_levels\": {}}},",
            b.stats.total_queries,
            b.stats.answered_at_plan,
            b.stats.sequential_runs,
            b.stats.solver_runs,
            b.stats.k_levels
        );
        let _ = writeln!(out, "      \"warm_cache_hits\": {},", b.warm_cache_hits);
        out.push_str("      \"ttfr\": [\n");
        for (ti, t) in b.ttfr.iter().enumerate() {
            let sp = t.full_batch_secs / t.first_result_secs.max(1e-12);
            let _ = writeln!(
                out,
                "        {{\"direction\": \"{}\", \"k\": {}, \"r\": {}, \"first_result_secs\": {:.6}, \"full_batch_secs\": {:.6}, \"stream_total_secs\": {:.6}, \"ttfr_speedup\": {:.2}}}{}",
                t.direction,
                t.k,
                t.r,
                t.first_result_secs,
                t.full_batch_secs,
                t.stream_total_secs,
                sp,
                if ti + 1 == b.ttfr.len() { "" } else { "," }
            );
        }
        out.push_str("      ],\n");
        let _ = writeln!(out, "      \"sequential_secs\": {:.6},", b.sequential_secs);
        let _ = writeln!(
            out,
            "      \"batched_cold_secs\": {:.6},",
            b.batched_cold_secs
        );
        let _ = writeln!(
            out,
            "      \"batched_warm_secs\": {:.6},",
            b.batched_warm_secs
        );
        let _ = writeln!(out, "      \"speedup_cold\": {sc:.2},");
        let _ = writeln!(out, "      \"speedup_warm\": {sw:.2}");
        out.push_str(if bi + 1 == blocks.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    let gmean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            (xs.iter().map(|s| s.ln()).sum::<f64>() / xs.len() as f64).exp()
        }
    };
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let ttfr: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.ttfr.iter())
        .map(|t| t.full_batch_secs / t.first_result_secs.max(1e-12))
        .collect();
    out.push_str("  \"summary\": {\n");
    let _ = writeln!(out, "    \"min_speedup_cold\": {:.2},", min(&cold));
    let _ = writeln!(out, "    \"geomean_speedup_cold\": {:.2},", gmean(&cold));
    let _ = writeln!(out, "    \"min_speedup_warm\": {:.2},", min(&warm));
    let _ = writeln!(out, "    \"geomean_speedup_warm\": {:.2},", gmean(&warm));
    let _ = writeln!(out, "    \"min_ttfr_speedup\": {:.2},", min(&ttfr));
    let _ = writeln!(out, "    \"geomean_ttfr_speedup\": {:.2}", gmean(&ttfr));
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut datasets = vec![
        "email".to_string(),
        "youtube".to_string(),
        "friendster".to_string(),
    ];
    let mut out_path = "BENCH_batch.json".to_string();
    let mut runs = 5usize;
    let mut queries = 64usize;
    let mut threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut traffic_seed: u64 = 0;
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
            "--runs" => {
                i += 1;
                runs = args[i].parse().expect("--runs takes an integer");
            }
            "--queries" => {
                i += 1;
                queries = args[i].parse().expect("--queries takes an integer");
            }
            "--threads" => {
                i += 1;
                threads = args[i].parse().expect("--threads takes an integer");
            }
            "--traffic-seed" => {
                i += 1;
                traffic_seed = args[i].parse().expect("--traffic-seed takes an integer");
            }
            other => panic!(
                "unknown argument {other:?} (expected --datasets/--out/--runs/--queries/--threads/--traffic-seed)"
            ),
        }
        i += 1;
    }

    let mut blocks: Vec<Block> = Vec::new();
    for name in &datasets {
        let spec =
            by_name(Profile::Quick, name).unwrap_or_else(|| panic!("unknown dataset {name:?}"));
        eprintln!("[batch_baseline] generating {name} ...");
        let wg = spec.generate_weighted();
        let (n, m) = (wg.num_vertices(), wg.num_edges());
        let profile = TrafficProfile::paper_defaults(spec.k_grid);
        let batches: Vec<Vec<Query>> = (0..runs as u64)
            .map(|tick| {
                mixed_query_traffic(
                    queries,
                    &profile,
                    GraphSeed(spec.seed ^ traffic_seed ^ tick.wrapping_mul(0x9E37_79B9)),
                )
                .iter()
                .map(to_engine_query)
                .collect()
            })
            .collect();
        let batch = &batches[0];

        // Correctness cross-check before any timing: the batched answers
        // must match the one-at-a-time answers. Deterministic solver
        // paths must be bit-identical at any thread count; local-search
        // paths are compared only when one worker makes them exactly
        // sequential (see par_local_search's docs).
        let check_engine = Engine::with_threads(wg.clone(), threads);
        let stats = check_engine.plan(batch).stats;
        eprintln!(
            "[batch_baseline] {name}: tick 0 has {} queries -> {} solver runs ({} k levels)",
            stats.total_queries, stats.solver_runs, stats.k_levels
        );
        let batched = check_engine.run_batch(batch);
        for (qi, (q, got)) in batch.iter().zip(&batched).enumerate() {
            let expect = solve_sequential(&wg, q);
            let deterministic = matches!(q.constraint, Constraint::Unconstrained) || threads == 1;
            if deterministic {
                assert_eq!(got, &expect, "query #{qi} diverged: {q:?}");
            }
        }

        if std::env::var("IC_BATCH_PROFILE").is_ok() {
            let mut per: Vec<(String, f64)> = Vec::new();
            for q in batch {
                let (t, _) = time_once(|| solve_sequential(&wg, q));
                per.push((format!("{q:?}"), t));
            }
            per.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (q, t) in per.iter().take(15) {
                eprintln!("  {t:.4}s  {q}");
            }
            let tot: f64 = per.iter().map(|x| x.1).sum();
            eprintln!("  total sequential {tot:.3}s over {} queries", per.len());
        }

        eprintln!("[batch_baseline] {name}: timing sequential loop over {runs} ticks");
        let mut sequential_secs = 0.0;
        for b in &batches {
            let (t, _) = time_once(|| {
                b.iter()
                    .map(|q| solve_sequential(&wg, q))
                    .collect::<Vec<_>>()
            });
            sequential_secs += t;
        }

        eprintln!("[batch_baseline] {name}: timing batched (cold engine per tick)");
        let mut batched_cold_secs = 0.0;
        let mut clones: Vec<_> = (0..runs).map(|_| wg.clone()).collect();
        for b in &batches {
            let fresh = Engine::with_threads(clones.pop().expect("one clone per tick"), threads);
            let (t, _) = time_once(|| fresh.run_batch(b));
            batched_cold_secs += t;
        }

        eprintln!("[batch_baseline] {name}: timing batched (warm serving session)");
        let warm_engine = Engine::with_threads(wg.clone(), threads);
        let mut batched_warm_secs = 0.0;
        let mut warm_cache_hits = 0usize;
        for b in &batches {
            warm_cache_hits += warm_engine.plan(b).stats.cache_hits;
            let (t, _) = time_once(|| warm_engine.run_batch(b));
            batched_warm_secs += t;
        }

        eprintln!("[batch_baseline] {name}: timing streamed sessions (time-to-first-result)");
        // Warm-snapshot engine: the serving steady state a progressive
        // session runs in. k = the grid's smallest value (largest core,
        // the most events to stream over), r = the paper's deepest sweep
        // point.
        let ttfr_engine = Engine::with_threads(wg.clone(), threads);
        let kq = spec.k_grid[0];
        let ttfr = [
            measure_ttfr(&ttfr_engine, "min", Query::new(kq, 20, Aggregation::Min), 5),
            measure_ttfr(&ttfr_engine, "max", Query::new(kq, 20, Aggregation::Max), 5),
        ];
        for t in &ttfr {
            eprintln!(
                "  [{}] first result {:.4}s vs full batch {:.4}s ({:.1}x), stream total {:.4}s",
                t.direction,
                t.first_result_secs,
                t.full_batch_secs,
                t.full_batch_secs / t.first_result_secs.max(1e-12),
                t.stream_total_secs
            );
        }

        blocks.push(Block {
            dataset: name.clone(),
            n,
            m,
            stats,
            warm_cache_hits,
            sequential_secs,
            batched_cold_secs,
            batched_warm_secs,
            ttfr,
        });
    }

    let json = render(&blocks, queries, runs, threads);
    std::fs::write(&out_path, &json).expect("write BENCH_batch.json");
    println!("{json}");
    eprintln!("[batch_baseline] wrote {out_path}");
}
