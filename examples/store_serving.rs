//! Build once, serve many: the `ic-store` cold-start story across two
//! simulated process lifetimes.
//!
//! ```text
//! cargo run -p ic-bench --release --example store_serving
//! ```
//!
//! **Lifetime 1** (the build/deploy job) generates the graph, serves a
//! little traffic — which warms the snapshot's core level and extremum
//! community forests — and persists the whole serving state with
//! [`Engine::persist`].
//!
//! **Lifetime 2** (every serving process thereafter) calls
//! [`Engine::open`]: one checksummed read, no edge-list parse, no CSR
//! rebuild, no core decomposition — and the first `min`/`max` query is
//! answered from the persisted forest in output-sensitive time, bit
//! for bit what lifetime 1 answered.

use ic_core::Aggregation;
use ic_engine::{Engine, Query};
use ic_gen::datasets::{by_name, Profile};
use std::time::Instant;

fn main() {
    let spec = by_name(Profile::Quick, "email").unwrap();
    let k = spec.default_k;
    let dir = std::env::temp_dir().join(format!("ic-store-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("email.ics1");

    let sweep: Vec<Query> = (1..=10usize)
        .flat_map(|r| {
            [
                Query::new(k, r, Aggregation::Min),
                Query::new(k, r, Aggregation::Max),
            ]
        })
        .chain(std::iter::once(Query::new(k, 3, Aggregation::Sum)))
        .collect();

    // ---- Lifetime 1: build, serve, persist ---------------------------
    let t = Instant::now();
    let wg = spec.generate_weighted();
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let engine = Engine::with_threads(wg, threads);
    let stats = engine.plan(&sweep).stats; // plan before serving: live stats
    let expect = engine.run_batch(&sweep);
    println!(
        "[lifetime 1] built engine + served {} queries in {:.1?} \
         ({} index-routed)",
        sweep.len(),
        t.elapsed(),
        stats.index_routed,
    );
    let t = Instant::now();
    engine.persist(&path).unwrap();
    let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "[lifetime 1] persisted warm serving state to {} ({size} bytes) in {:.1?}",
        path.display(),
        t.elapsed()
    );
    drop(engine); // process 1 exits

    // ---- Lifetime 2: open, serve, verify -----------------------------
    let t = Instant::now();
    let served = Engine::open(&path).unwrap();
    let opened_in = t.elapsed();
    let t = Instant::now();
    let first = served.run_batch(&[Query::new(k, 5, Aggregation::Min)]);
    println!(
        "[lifetime 2] opened store in {opened_in:.1?}; first query answered in {:.1?} \
         (index-served, no decomposition, no peel)",
        t.elapsed()
    );
    let top = first[0].as_ref().unwrap();
    for (i, c) in top.iter().enumerate() {
        println!("  #{} value {:.6}, {} members", i + 1, c.value, c.len());
    }

    // Every answer matches lifetime 1 bit for bit.
    let got = served.run_batch(&sweep);
    let identical = expect
        .iter()
        .zip(&got)
        .all(|(a, b)| a.as_ref().unwrap() == b.as_ref().unwrap());
    println!("[lifetime 2] full sweep re-served: bit-identical to lifetime 1: {identical}");
    assert!(identical, "store-served answers diverged");

    // The graph stays mutable: updates move the engine to a new epoch,
    // whose snapshot rebuilds its indexes lazily — persisted state is
    // never served across an update.
    let before = served.epoch();
    let epoch = served
        .try_apply(&[ic_engine::EdgeUpdate::Remove { u: 0, v: 1 }])
        .unwrap();
    if epoch > before {
        let post = served.run_batch(&[Query::new(k, 5, Aggregation::Min)]);
        println!(
            "[lifetime 2] after an edge update ({epoch}): indexes rebuilt lazily, \
             top-5 min still served ({} communities)",
            post[0].as_ref().map(|c| c.len()).unwrap_or(0)
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
