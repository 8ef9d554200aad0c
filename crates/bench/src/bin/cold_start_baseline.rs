//! Machine-readable cold-start baseline for the `ic-store` subsystem.
//!
//! For each dataset, materializes both ways a serving process can come
//! up and measures **first-query latency** (process start → first top-r
//! answer) plus steady-state **queries/sec** once warm:
//!
//! * **raw** — the pre-store path: read the text edge list + weights
//!   file from disk, build the CSR, construct an
//!   [`ic_engine::Engine`], and answer one min query (which pays the
//!   core decomposition and peel on the spot);
//! * **store** — [`Engine::open`] on a prebuilt `ICS1` file: one
//!   checksummed read seeds the snapshot with the graph, its
//!   decomposition, the default-`k` core level, and the min/max
//!   community forests, so the first query is **index-served** in
//!   output-sensitive time.
//!
//! Before timing, the store-opened answers are cross-checked
//! bit-for-bit against the raw-built engine on a min/max/sum sweep —
//! a store that loads fast but answers differently would be worthless.
//! Writes `BENCH_store.json`:
//!
//! ```text
//! cargo run -p ic-bench --release --bin cold_start_baseline -- \
//!     --datasets email,youtube,friendster --out BENCH_store.json
//! ```

use ic_bench::report::{json_escape, median};
use ic_bench::runner::time_once;
use ic_core::Aggregation;
use ic_engine::{Engine, OpenOptions, Query};
use ic_gen::datasets::{by_name, DatasetSpec, Profile};
use ic_graph::{io, WeightedGraph};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

struct Block {
    dataset: String,
    n: usize,
    m: usize,
    k: usize,
    store_bytes: u64,
    raw_first_query_secs: f64,
    store_first_query_secs: f64,
    raw_qps: f64,
    store_qps: f64,
}

/// The cold-start probe: top-10 min communities at the dataset's
/// default `k` — the index-served fast path the store exists for.
fn probe(k: usize) -> Query {
    Query::new(k, 10, Aggregation::Min)
}

/// Raw cold start: text files → CSR → engine → first answer.
fn raw_first_query(edges: &Path, weights: &Path, k: usize) -> f64 {
    let (t, _) = time_once(|| {
        let g = io::read_edge_list_file(edges).expect("edge list readable");
        let w = io::read_weights(std::fs::File::open(weights).expect("weights file"))
            .expect("weights readable");
        let wg = WeightedGraph::new(g, w).expect("weights valid");
        let engine = Engine::with_threads(wg, 1);
        engine.run_batch(&[probe(k)])
    });
    t
}

/// Store cold start: `Engine::open` → first answer.
fn store_first_query(store: &Path, k: usize) -> f64 {
    let (t, _) = time_once(|| {
        let engine = Engine::open_with_options(store, &OpenOptions::default().threads(1))
            .expect("store opens");
        engine.run_batch(&[probe(k)])
    });
    t
}

/// Steady-state throughput over a small min/max r-sweep, result cache
/// cleared between rounds so every query is a live serve.
fn steady_qps(engine: &Engine, k: usize, rounds: usize) -> f64 {
    let sweep: Vec<Query> = (1..=8usize)
        .map(|r| Query::new(k, r, Aggregation::Min))
        .chain((1..=8usize).map(|r| Query::new(k, r, Aggregation::Max)))
        .collect();
    let mut total = 0.0f64;
    let mut served = 0usize;
    for _ in 0..rounds {
        engine.clear_result_cache();
        let (t, results) = time_once(|| engine.run_batch(&sweep));
        assert!(results.iter().all(|r| r.is_ok()));
        total += t;
        served += sweep.len();
    }
    served as f64 / total.max(1e-12)
}

fn prepare_inputs(spec: &DatasetSpec, dir: &Path) -> (PathBuf, PathBuf, PathBuf, WeightedGraph) {
    let wg = spec.generate_weighted();
    let edges = dir.join(format!("{}.edges", spec.name));
    let weights = dir.join(format!("{}.weights", spec.name));
    let store = dir.join(format!("{}.ics1", spec.name));
    let mut edge_out = Vec::new();
    io::write_edge_list(wg.graph(), &mut edge_out).expect("serialize edges");
    std::fs::write(&edges, edge_out).expect("write edges");
    let mut weight_out = Vec::new();
    io::write_weights(wg.weights(), &mut weight_out).expect("serialize weights");
    std::fs::write(&weights, weight_out).expect("write weights");

    // Build the store the way an operator would: warm one engine at the
    // default k (level + min/max forests), persist.
    let engine = Engine::with_threads(wg.clone(), 1);
    let k = spec.default_k;
    let warm = vec![
        Query::new(k, 10, Aggregation::Min),
        Query::new(k, 10, Aggregation::Max),
    ];
    let _ = engine.run_batch(&warm);
    engine.persist(&store).expect("persist store");
    (edges, weights, store, wg)
}

fn render(blocks: &[Block], runs: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"ic-bench/cold-start-baseline/v1\",");
    let _ = writeln!(out, "  \"profile\": \"quick\",");
    let _ = writeln!(out, "  \"runs\": {runs},");
    let _ = writeln!(
        out,
        "  \"baseline\": \"cold start from raw artifacts: read text edge list + weights, build CSR, construct engine, answer top-10 min at the dataset default k (pays decomposition + peel)\","
    );
    let _ = writeln!(
        out,
        "  \"store\": \"Engine::open on a prebuilt ICS1 file: one checksummed read seeds graph, decomposition, default-k level, and min/max community forests; first query is index-served\","
    );
    out.push_str("  \"datasets\": [\n");
    let mut speedups: Vec<f64> = Vec::new();
    for (bi, b) in blocks.iter().enumerate() {
        let speedup = b.raw_first_query_secs / b.store_first_query_secs.max(1e-12);
        speedups.push(speedup);
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"dataset\": \"{}\",", json_escape(&b.dataset));
        let _ = writeln!(out, "      \"n\": {},", b.n);
        let _ = writeln!(out, "      \"m\": {},", b.m);
        let _ = writeln!(out, "      \"k\": {},", b.k);
        let _ = writeln!(out, "      \"store_bytes\": {},", b.store_bytes);
        let _ = writeln!(
            out,
            "      \"raw_first_query_secs\": {:.6},",
            b.raw_first_query_secs
        );
        let _ = writeln!(
            out,
            "      \"store_first_query_secs\": {:.6},",
            b.store_first_query_secs
        );
        let _ = writeln!(out, "      \"raw_qps\": {:.1},", b.raw_qps);
        let _ = writeln!(out, "      \"store_qps\": {:.1},", b.store_qps);
        let _ = writeln!(out, "      \"cold_start_speedup\": {speedup:.2}");
        out.push_str(if bi + 1 == blocks.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let gmean = if speedups.is_empty() {
        0.0
    } else {
        (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp()
    };
    out.push_str("  \"summary\": {\n");
    let _ = writeln!(out, "    \"min_cold_start_speedup\": {min:.2},");
    let _ = writeln!(out, "    \"geomean_cold_start_speedup\": {gmean:.2}");
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
    let mut out_path = "BENCH_store.json".to_string();
    let mut runs = 5usize;
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
            other => panic!("unknown argument {other:?} (expected --datasets/--out/--runs)"),
        }
        i += 1;
    }

    let dir = std::env::temp_dir().join(format!("ic-cold-start-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut blocks = Vec::new();
    for name in &datasets {
        let spec =
            by_name(Profile::Quick, name).unwrap_or_else(|| panic!("unknown dataset {name:?}"));
        eprintln!("[cold_start] preparing {name} (edge list + weights + store) ...");
        let (edges, weights, store, wg) = prepare_inputs(&spec, &dir);
        let k = spec.default_k;

        // Correctness first: the store-opened engine must answer a
        // min/max/sum sweep bit-identically to the raw-built engine.
        let raw_engine = Engine::with_threads(wg.clone(), 1);
        let opened = Engine::open_with_options(&store, &OpenOptions::default().threads(1))
            .expect("store opens");
        let sweep: Vec<Query> = [1usize, 5, 20]
            .iter()
            .flat_map(|&r| {
                [
                    Query::new(k, r, Aggregation::Min),
                    Query::new(k, r, Aggregation::Max),
                    Query::new(k, r, Aggregation::Sum),
                ]
            })
            .collect();
        let expect = raw_engine.run_batch(&sweep);
        let got = opened.run_batch(&sweep);
        for ((q, a), b) in sweep.iter().zip(&expect).zip(&got) {
            assert_eq!(
                a.as_ref().unwrap(),
                b.as_ref().unwrap(),
                "store-opened engine diverged on {q:?}"
            );
        }

        eprintln!("[cold_start] {name}: timing first-query latency over {runs} runs");
        let mut raw_samples = Vec::with_capacity(runs);
        let mut store_samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            raw_samples.push(raw_first_query(&edges, &weights, k));
            store_samples.push(store_first_query(&store, k));
        }
        let raw_first = median(&mut raw_samples);
        let store_first = median(&mut store_samples);

        eprintln!("[cold_start] {name}: timing steady-state throughput");
        let raw_qps = steady_qps(&raw_engine, k, 3);
        let store_qps = steady_qps(&opened, k, 3);

        eprintln!(
            "[cold_start] {name}: first query raw {raw_first:.4}s vs store {store_first:.4}s \
             ({:.1}x); qps raw {raw_qps:.0} vs store {store_qps:.0}",
            raw_first / store_first.max(1e-12)
        );
        blocks.push(Block {
            dataset: name.clone(),
            n: wg.num_vertices(),
            m: wg.num_edges(),
            k,
            store_bytes: std::fs::metadata(&store).map(|m| m.len()).unwrap_or(0),
            raw_first_query_secs: raw_first,
            store_first_query_secs: store_first,
            raw_qps,
            store_qps,
        });
    }

    let json = render(&blocks, runs);
    std::fs::write(&out_path, &json).expect("write BENCH_store.json");
    println!("{json}");
    eprintln!("[cold_start] wrote {out_path}");
    std::fs::remove_dir_all(&dir).ok();
}
