//! Machine-readable baseline for the resilience layer: what deadline
//! checkpoints cost, and what a deadline buys.
//!
//! Two measurements per dataset, written to `BENCH_resilience.json`:
//!
//! * **warm_batch** — the `BENCH_batch` warm path (served engine, cold
//!   result cache) with and without a loose, never-firing deadline
//!   armed on every query. The batch holds only queries whose armed and
//!   unarmed routes run the same solver (exact/ε TIC, local search) so
//!   the difference is the cooperative checkpoints, not a route change
//!   (armed min/max deliberately bypass the extremum forest, which
//!   would measure the bypass, not the checkpoint). This is the number
//!   the CI no-op assertion gates (`--assert-overhead <pct>`, with a
//!   small absolute noise floor so micro-runs cannot flake).
//! * **solver_overhead** — the same pair one layer down, per solver:
//!   the stamped min-peel ([`MinMaxEmission`]) and the exact TIC drain
//!   ([`TicEmission`]) with and without a live budget. Supplementary
//!   detail (sub-millisecond on quick graphs, so noisy); not gated.
//! * **degraded** — latency and yield of a deadline-armed exact sum
//!   query at deadlines set to fractions of its full latency: how fast
//!   a degraded (certified-prefix) answer comes back versus the full
//!   one, and how much of the ranking each deadline buys.
//!
//! ```text
//! cargo run -p ic-bench --release --bin resilience_baseline -- \
//!     --datasets email --runs 5 --assert-overhead 2 --out BENCH_resilience.json
//! ```
//!
//! Built without the `failpoints` feature (the default), every
//! `fail_point!` site in these hot loops expands to nothing — the
//! overhead measured here is purely the deadline checkpoint.

use ic_bench::report::{json_escape, median};
use ic_bench::runner::time_once;
use ic_core::algo::{MinMaxEmission, TicEmission};
use ic_core::Aggregation;
use ic_engine::{AnswerStatus, BatchOptions, Engine, Query};
use ic_gen::datasets::{by_name, Profile};
use ic_kcore::{Budget, GraphSnapshot, PeelArena};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Absolute noise floor for the overhead assertion: medians closer than
/// this are timing noise on a quick-profile graph, not checkpoint cost.
const NOISE_FLOOR_SECS: f64 = 0.002;

/// A loose budget that never fires but keeps every checkpoint live.
fn loose_budget() -> Arc<Budget> {
    Arc::new(Budget::within(Duration::from_secs(3600)))
}

struct OverheadPair {
    plain_secs: f64,
    armed_secs: f64,
}

impl OverheadPair {
    fn overhead_pct(&self) -> f64 {
        if self.plain_secs <= 0.0 {
            return 0.0;
        }
        (self.armed_secs / self.plain_secs - 1.0) * 100.0
    }

    /// Whether the armed run is within `pct` percent of the plain run
    /// (or inside the absolute noise floor).
    fn within(&self, pct: f64) -> bool {
        self.armed_secs - self.plain_secs <= NOISE_FLOOR_SECS || self.overhead_pct() <= pct
    }
}

struct DegradedPoint {
    deadline_frac: f64,
    deadline_secs: f64,
    latency_secs: f64,
    status: String,
    communities: usize,
    proven_prefix_len: usize,
}

struct Block {
    dataset: String,
    n: usize,
    m: usize,
    k: usize,
    r: usize,
    warm_batch: OverheadPair,
    peel: OverheadPair,
    tic: OverheadPair,
    full_secs: f64,
    degraded: Vec<DegradedPoint>,
}

/// Median time of `runs` samples of `f` (each sample re-runs the full
/// solver; results are consumed to keep the work observable).
fn sample<F: FnMut() -> usize>(runs: usize, mut f: F) -> f64 {
    let mut times = Vec::with_capacity(runs);
    let mut sink = 0usize;
    for _ in 0..runs {
        let (t, n) = time_once(&mut f);
        sink = sink.wrapping_add(n);
        times.push(t);
    }
    std::hint::black_box(sink);
    median(&mut times)
}

/// Stamped min-peel + full drain, with and without a live budget.
fn peel_overhead(snap: &GraphSnapshot, k: usize, r: usize, runs: usize) -> OverheadPair {
    let mut arena = PeelArena::for_graph(snap.graph());
    let plain_secs = sample(runs, || {
        let em = MinMaxEmission::start_min(snap, k, r, &mut arena).expect("bench query valid");
        let mut n = 0usize;
        let mut em = em;
        while em.next_community(snap.weighted()).is_some() {
            n += 1;
        }
        n
    });
    let armed_secs = sample(runs, || {
        let budget = loose_budget();
        let em = MinMaxEmission::start_min_budgeted(snap, k, r, &mut arena, &budget)
            .expect("bench query valid")
            .expect("a one-hour budget never expires");
        let mut n = 0usize;
        let mut em = em;
        while em.next_community(snap.weighted()).is_some() {
            n += 1;
        }
        n
    });
    OverheadPair {
        plain_secs,
        armed_secs,
    }
}

/// Exact TIC emission drain, with and without a live budget.
fn tic_overhead(snap: &GraphSnapshot, k: usize, r: usize, runs: usize) -> OverheadPair {
    let mut arena = PeelArena::for_graph(snap.graph());
    let run = |armed: bool, arena: &mut PeelArena| {
        let mut em =
            TicEmission::start_on(snap, k, r, Aggregation::Sum, 0.0).expect("bench query valid");
        if armed {
            em.set_budget(Some(loose_budget()));
        }
        let mut n = 0usize;
        while em.next_community(snap.weighted(), arena).is_some() {
            n += 1;
        }
        arena.set_budget(None);
        n
    };
    let plain_secs = sample(runs, || run(false, &mut arena));
    let armed_secs = sample(runs, || run(true, &mut arena));
    OverheadPair {
        plain_secs,
        armed_secs,
    }
}

/// The deadline-comparable warm traffic: only queries whose armed and
/// unarmed plans run the same solver, so arming changes nothing but the
/// checkpoints. Min/max stay out — unarmed they are forest-served,
/// armed they peel, and that route change is not checkpoint cost.
fn warm_queries(k: usize, r: usize) -> Vec<Query> {
    vec![
        Query::new(k, r, Aggregation::Sum),
        Query::new(k + 1, r, Aggregation::Sum),
        Query::new(k, r, Aggregation::Sum).approx(0.2),
        Query::new(k, r.min(5), Aggregation::Average).size_bound(k + 3, true),
    ]
}

/// The warm `BENCH_batch` path with and without deadlines armed: a
/// served engine, result cache cleared before every sample so each
/// batch pays full solve cost, and the armed variant attaching a loose
/// (never-firing) one-hour deadline to every query.
fn warm_batch_overhead(eng: &Engine, k: usize, r: usize, runs: usize) -> OverheadPair {
    let plain = warm_queries(k, r);
    let armed: Vec<Query> = plain
        .iter()
        .map(|q| q.deadline(Duration::from_secs(3600)))
        .collect();
    let opts = BatchOptions::new();
    // Prime once so snapshot levels and thread pools are warm for both.
    for res in eng.run_batch_pinned(&plain, &opts).1 {
        assert!(res.is_ok(), "warm bench queries must be valid");
    }
    let measure = |batch: &[Query]| {
        sample(runs, || {
            eng.clear_result_cache();
            let answers = eng.run_batch_pinned(batch, &opts).1;
            answers
                .iter()
                .map(|res| {
                    res.as_ref()
                        .expect("loose deadline never fires")
                        .communities
                        .len()
                })
                .sum()
        })
    };
    let plain_secs = measure(&plain);
    let armed_secs = measure(&armed);
    OverheadPair {
        plain_secs,
        armed_secs,
    }
}

fn render(blocks: &[Block], runs: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"ic-bench/resilience-baseline/v1\",");
    let _ = writeln!(out, "  \"profile\": \"quick\",");
    let _ = writeln!(out, "  \"runs\": {runs},");
    let _ = writeln!(
        out,
        "  \"warm_batch\": \"the warm BENCH_batch path (served engine, cold result cache) with a loose (never-firing) one-hour deadline armed on every query vs unarmed: the cost of the cooperative checkpoints in the solver hot loops\","
    );
    let _ = writeln!(
        out,
        "  \"solver_overhead\": \"the same pair one solver down (stamped min-peel and exact TIC drain, budgeted vs not); sub-millisecond on quick graphs, so informational only\","
    );
    let _ = writeln!(
        out,
        "  \"degraded\": \"deadline-armed exact sum query at deadlines set to fractions of its full latency: latency, completeness status, and certified-prefix yield\","
    );
    out.push_str("  \"datasets\": [\n");
    let mut worst = 0.0f64;
    for (bi, b) in blocks.iter().enumerate() {
        worst = worst.max(b.warm_batch.overhead_pct());
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"dataset\": \"{}\",", json_escape(&b.dataset));
        let _ = writeln!(out, "      \"n\": {},", b.n);
        let _ = writeln!(out, "      \"m\": {},", b.m);
        let _ = writeln!(out, "      \"k\": {},", b.k);
        let _ = writeln!(out, "      \"r\": {},", b.r);
        let _ = writeln!(
            out,
            "      \"warm_batch\": {{\"plain_secs\": {:.6}, \"armed_secs\": {:.6}, \"overhead_pct\": {:.2}}},",
            b.warm_batch.plain_secs,
            b.warm_batch.armed_secs,
            b.warm_batch.overhead_pct()
        );
        let _ = writeln!(
            out,
            "      \"solver_overhead\": {{\"peel\": {{\"plain_secs\": {:.6}, \"armed_secs\": {:.6}, \"overhead_pct\": {:.2}}}, \"tic\": {{\"plain_secs\": {:.6}, \"armed_secs\": {:.6}, \"overhead_pct\": {:.2}}}}},",
            b.peel.plain_secs,
            b.peel.armed_secs,
            b.peel.overhead_pct(),
            b.tic.plain_secs,
            b.tic.armed_secs,
            b.tic.overhead_pct()
        );
        let _ = writeln!(out, "      \"full_secs\": {:.6},", b.full_secs);
        out.push_str("      \"degraded\": [\n");
        for (di, d) in b.degraded.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{\"deadline_frac\": {:.3}, \"deadline_secs\": {:.6}, \"latency_secs\": {:.6}, \"status\": \"{}\", \"communities\": {}, \"proven_prefix_len\": {}}}{}",
                d.deadline_frac,
                d.deadline_secs,
                d.latency_secs,
                json_escape(&d.status),
                d.communities,
                d.proven_prefix_len,
                if di + 1 == b.degraded.len() { "" } else { "," }
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
    out.push_str("  \"summary\": {\n");
    let _ = writeln!(out, "    \"max_warm_batch_overhead_pct\": {worst:.2}");
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut datasets = vec!["email".to_string()];
    let mut out_path = "BENCH_resilience.json".to_string();
    let mut runs = 5usize;
    let mut assert_overhead: Option<f64> = None;
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
            "--assert-overhead" => {
                i += 1;
                assert_overhead = Some(args[i].parse().expect("--assert-overhead takes a percent"));
            }
            other => panic!(
                "unknown argument {other:?} (expected --datasets/--out/--runs/--assert-overhead)"
            ),
        }
        i += 1;
    }

    let mut blocks: Vec<Block> = Vec::new();
    for name in &datasets {
        let spec =
            by_name(Profile::Quick, name).unwrap_or_else(|| panic!("unknown dataset {name:?}"));
        eprintln!("[resilience_baseline] generating {name} ...");
        let wg = spec.generate_weighted();
        let (n, m) = (wg.num_vertices(), wg.num_edges());
        let k = spec.k_grid[0];
        let r = 20usize;
        let snap = GraphSnapshot::new(wg.clone());
        snap.level(k); // warm the level so neither variant pays it

        eprintln!("[resilience_baseline] {name}: checkpoint overhead over {runs} runs");
        let eng = Engine::with_threads(wg.clone(), 2);
        let warm_batch = warm_batch_overhead(&eng, k, r, runs);
        eprintln!(
            "  warm batch {:.4}s -> {:.4}s ({:+.2}%)",
            warm_batch.plain_secs,
            warm_batch.armed_secs,
            warm_batch.overhead_pct()
        );
        let peel = peel_overhead(&snap, k, r, runs);
        let tic = tic_overhead(&snap, k, r, runs);
        eprintln!(
            "  peel {:.4}s -> {:.4}s ({:+.2}%), tic {:.4}s -> {:.4}s ({:+.2}%)",
            peel.plain_secs,
            peel.armed_secs,
            peel.overhead_pct(),
            tic.plain_secs,
            tic.armed_secs,
            tic.overhead_pct()
        );

        // Degraded vs full latency: the engine-served armed sum query at
        // tightening deadlines.
        let q = Query::new(k, r, Aggregation::Sum);
        let mut full_samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            eng.clear_result_cache();
            let (t, res) = time_once(|| eng.run_batch(&[q]));
            assert!(res[0].is_ok(), "bench query must be valid");
            full_samples.push(t);
        }
        let full_secs = median(&mut full_samples);

        let mut degraded = Vec::new();
        for frac in [0.125f64, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let deadline = Duration::from_secs_f64((full_secs * frac).max(1e-6));
            eng.clear_result_cache();
            let armed = [q.deadline(deadline)];
            let (latency_secs, got) =
                time_once(|| eng.run_batch_pinned(&armed, &BatchOptions::default()).1);
            let (status, communities, proven) = match &got[0] {
                Ok(ans) => match ans.status {
                    AnswerStatus::Complete => {
                        ("complete", ans.communities.len(), ans.communities.len())
                    }
                    AnswerStatus::Degraded {
                        proven_prefix_len, ..
                    } => ("degraded", ans.communities.len(), proven_prefix_len),
                    _ => ("unknown", ans.communities.len(), 0),
                },
                Err(e) => {
                    eprintln!("  deadline {deadline:?}: {e}");
                    ("deadline_exceeded", 0, 0)
                }
            };
            eprintln!(
                "  deadline {:.4}s ({}%): {} in {:.4}s, {} communities ({} proven)",
                deadline.as_secs_f64(),
                (frac * 100.0) as u32,
                status,
                latency_secs,
                communities,
                proven
            );
            degraded.push(DegradedPoint {
                deadline_frac: frac,
                deadline_secs: deadline.as_secs_f64(),
                latency_secs,
                status: status.to_string(),
                communities,
                proven_prefix_len: proven,
            });
        }

        blocks.push(Block {
            dataset: name.clone(),
            n,
            m,
            k,
            r,
            warm_batch,
            peel,
            tic,
            full_secs,
            degraded,
        });
    }

    let json = render(&blocks, runs);
    std::fs::write(&out_path, &json).expect("write BENCH_resilience.json");
    println!("{json}");
    eprintln!("[resilience_baseline] wrote {out_path}");

    if let Some(pct) = assert_overhead {
        for b in &blocks {
            let pair = &b.warm_batch;
            assert!(
                pair.within(pct),
                "{}: warm-batch checkpoint overhead {:.2}% exceeds the {pct}% budget \
                 (plain {:.6}s vs armed {:.6}s)",
                b.dataset,
                pair.overhead_pct(),
                pair.plain_secs,
                pair.armed_secs
            );
        }
        eprintln!(
            "[resilience_baseline] warm-batch checkpoint overhead within {pct}% on every dataset"
        );
    }
}
