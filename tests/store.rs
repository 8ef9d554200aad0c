//! Persistence conformance: `persist → open` must be **bit-identical**
//! to the in-memory engine, and corrupt stores must **fail closed**.
//!
//! Property-based over the same four graph families as the solver
//! conformance suite (ER, Barabási-Albert, Chung-Lu, planted
//! partition), plus a quantized weight model that forces value ties —
//! the case where index rank order, peel tie-breaks, and persisted rank
//! arrays could drift apart if any layer cut a corner:
//!
//! * the graph, weights, core decomposition, and every persisted forest
//!   round-trip bit-for-bit through `ICS1` bytes;
//! * a store-loaded engine answers a min/max/sum query sweep exactly
//!   like a fresh engine built from the original graph;
//! * truncations, byte flips, and unknown versions all surface as typed
//!   [`StoreError`]s — never a panic, never a silently wrong answer.

use ic_core::algo::ExtremumIndex;
use ic_core::{Aggregation, Extremum, Query};
use ic_engine::{Engine, OpenOptions};
use ic_gen::{
    barabasi_albert, chung_lu, gnm, pareto_weights, planted_partition, rank_weights,
    uniform_weights, GraphSeed, PlantedPartitionConfig,
};
use ic_graph::{Graph, WeightedGraph};
use ic_kcore::{core_decomposition, GraphSnapshot};
use ic_store::{StoreBuilder, StoreError, StoreFile};
use proptest::prelude::*;

/// One synthetic workload drawn from the four graph families. Weight
/// model 3 quantizes to a handful of distinct values, forcing the tie
/// paths through every layer.
fn arb_workload() -> impl Strategy<Value = WeightedGraph> {
    (
        0u32..4,      // family: ER / BA / Chung-Lu / planted
        0u32..4,      // weights: uniform / pareto / rank / quantized ties
        20usize..64,  // vertices
        any::<u64>(), // seed
    )
        .prop_map(|(family, weight_model, n, seed)| {
            let g: Graph = match family {
                0 => gnm(n, n * 2, GraphSeed(seed)),
                1 => barabasi_albert(n, 3, GraphSeed(seed)),
                2 => chung_lu(n, n * 2, 2.5, GraphSeed(seed)),
                _ => planted_partition(
                    &PlantedPartitionConfig {
                        communities: 4,
                        community_size: (n / 4).max(2),
                        p_in: 0.6,
                        p_out: 0.03,
                    },
                    GraphSeed(seed),
                ),
            };
            let n = g.num_vertices();
            let w: Vec<f64> = match weight_model {
                0 => uniform_weights(n, 0.5, 50.0, GraphSeed(seed ^ 0xabcd)),
                1 => pareto_weights(n, 1.5, GraphSeed(seed ^ 0xabcd)),
                2 => rank_weights(n, GraphSeed(seed ^ 0xabcd)),
                // Heavy ties: at most five distinct weights.
                _ => (0..n).map(|i| ((i * 7 + 3) % 5) as f64 + 1.0).collect(),
            };
            WeightedGraph::new(g, w).unwrap()
        })
}

/// Warm a snapshot the way served traffic would, then serialize it.
fn store_bytes_for(wg: &WeightedGraph, ks: &[usize]) -> Vec<u8> {
    let snap = GraphSnapshot::new(wg.clone());
    let decomp = snap.decomposition();
    let levels: Vec<_> = ks.iter().map(|&k| snap.level(k)).collect();
    let forests: Vec<_> = ks
        .iter()
        .flat_map(|&k| {
            [
                ExtremumIndex::cached(&snap, k, Extremum::Min),
                ExtremumIndex::cached(&snap, k, Extremum::Max),
            ]
        })
        .collect();
    let mut builder = StoreBuilder::new(snap.weighted());
    builder.decomposition(&decomp);
    for level in &levels {
        builder.level(level);
    }
    for forest in &forests {
        builder.forest(forest.parts());
    }
    builder.to_bytes().expect("consistent store")
}

fn query_sweep(ks: &[usize]) -> Vec<Query> {
    let mut queries = Vec::new();
    for &k in ks {
        for r in [1usize, 3, 100] {
            queries.push(Query::new(k, r, Aggregation::Min));
            queries.push(Query::new(k, r, Aggregation::Max));
            queries.push(Query::new(k, r, Aggregation::Sum));
        }
    }
    queries
}

/// A randomized update script: batches of abstract (insert?, u, v)
/// ops, folded onto the graph's vertex range at runtime (self-loops
/// dropped). Removes of absent edges and inserts of present ones are
/// in distribution on purpose: no-op batches must not advance state.
fn arb_script() -> impl Strategy<Value = Vec<Vec<(bool, u32, u32)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), 1..8),
        1..4,
    )
}

fn concrete_batch(batch: &[(bool, u32, u32)], n: usize) -> Vec<ic_engine::EdgeUpdate> {
    use ic_engine::EdgeUpdate;
    batch
        .iter()
        .filter_map(|&(insert, a, b)| {
            let u = a % n as u32;
            let v = b % n as u32;
            if u == v {
                return None;
            }
            Some(if insert {
                EdgeUpdate::Insert { u, v }
            } else {
                EdgeUpdate::Remove { u, v }
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `persist → open` ≡ in-memory, bit for bit: structures and top-r
    /// answers.
    #[test]
    fn store_round_trip_is_bit_identical(wg in arb_workload()) {
        let ks = [1usize, 2];
        let bytes = store_bytes_for(&wg, &ks);
        let file = StoreFile::from_bytes(&bytes).expect("fresh store validates");
        let contents = file.load().expect("fresh store loads");

        // Graph, weights, decomposition: exact.
        prop_assert_eq!(contents.weighted.graph(), wg.graph());
        prop_assert_eq!(contents.weighted.weights(), wg.weights());
        let decomp = contents.decomposition.as_ref().expect("persisted");
        prop_assert_eq!(decomp, &core_decomposition(wg.graph()));

        // Forests: exact equality with a fresh build, both directions.
        prop_assert_eq!(contents.forests.len(), 2 * ks.len());
        for forest in &contents.forests {
            let fresh = ExtremumIndex::build(&wg, forest.k(), forest.extremum());
            prop_assert_eq!(forest, &fresh);
        }

        // A store-loaded engine answers exactly like a fresh one.
        let fresh = Engine::with_threads(wg.clone(), 1);
        let opened = Engine::from_snapshot(contents.into_snapshot(), 1);
        let sweep = query_sweep(&ks);
        let a = fresh.run_batch(&sweep);
        let b = opened.run_batch(&sweep);
        for ((q, x), y) in sweep.iter().zip(&a).zip(&b) {
            prop_assert_eq!(
                x.as_ref().expect("valid query"),
                y.as_ref().expect("valid query"),
                "store-loaded engine diverged on {:?}", q
            );
        }
    }

    /// The evolving-store contract, property-based: a store-opened
    /// engine driven through a randomized update script must keep
    /// answering exactly like a fresh engine built from the mutated
    /// graph — the persisted (pre-update) forests are never served
    /// post-`apply`, and the forests the post-apply snapshot *does*
    /// carry (incrementally repaired where the touched region was
    /// small) are bit-identical to full rebuilds.
    #[test]
    fn applied_store_engines_never_serve_stale_state(
        wg in arb_workload(),
        script in arb_script(),
    ) {
        let ks = [1usize, 2];
        let bytes = store_bytes_for(&wg, &ks);
        let contents = StoreFile::from_bytes(&bytes).expect("valid store").load().expect("loads");
        let opened = Engine::from_snapshot(contents.into_snapshot(), 1);
        let sweep = query_sweep(&ks);

        // Warm the persisted forests into the serving path before any
        // mutation, so staleness (if the engine ever leaked them) would
        // actually be observable.
        for r in opened.run_batch(&sweep) {
            r.expect("pre-update answers");
        }

        let n = wg.num_vertices();
        for batch in &script {
            let updates = concrete_batch(batch, n);
            if updates.is_empty() {
                continue;
            }
            opened.try_apply(&updates).unwrap();

            // Ground truth: a fresh engine over the mutated graph.
            let mutated = opened.snapshot().weighted().clone();
            let fresh = Engine::with_threads(mutated.clone(), 1);
            let a = opened.run_batch(&sweep);
            let b = fresh.run_batch(&sweep);
            for ((q, x), y) in sweep.iter().zip(&a).zip(&b) {
                prop_assert_eq!(
                    x.as_ref().expect("valid query"),
                    y.as_ref().expect("valid query"),
                    "store-opened engine served stale state after {:?} on {:?}",
                    updates, q
                );
            }

            // Whatever forests the post-apply snapshot carries —
            // incrementally repaired or rebuilt on demand — must be
            // bit-identical to a from-scratch build on the mutated
            // graph.
            for (_, _, forest) in opened
                .snapshot()
                .memoized_extensions::<ExtremumIndex>()
            {
                let rebuilt = ExtremumIndex::build(&mutated, forest.k(), forest.extremum());
                prop_assert_eq!(
                    forest.as_ref(), &rebuilt,
                    "post-apply forest diverged from a full rebuild"
                );
            }
        }
    }

    /// Any truncation fails closed with a typed error.
    #[test]
    fn truncated_stores_fail_closed(wg in arb_workload(), frac in 0.0f64..1.0) {
        let bytes = store_bytes_for(&wg, &[2]);
        let cut = ((bytes.len() as f64) * frac) as usize; // always < len
        let result = StoreFile::from_bytes(&bytes[..cut]);
        prop_assert!(result.is_err(), "truncation at {} of {} accepted", cut, bytes.len());
        prop_assert!(matches!(
            result.expect_err("just asserted"),
            StoreError::Corrupt { .. } | StoreError::Unsupported { .. }
        ));
    }

    /// Any single flipped byte fails closed with a typed error.
    #[test]
    fn flipped_bytes_fail_closed(wg in arb_workload(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = store_bytes_for(&wg, &[2]);
        let pos = ((bytes.len() as f64) * pos_frac) as usize;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= 1u8 << bit;
        match StoreFile::from_bytes(&bytes) {
            Err(
                StoreError::Corrupt { .. }
                | StoreError::Unsupported { .. }
                | StoreError::Missing { .. }
                | StoreError::Graph(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
            Ok(_) => prop_assert!(false, "flip at byte {} bit {} accepted", pos, bit),
        }
    }
}

/// The staleness story: a store-opened engine that then mutates its
/// graph must never serve the persisted (pre-update) structures — the
/// post-`apply` snapshot starts with empty caches and rebuilds lazily,
/// so answers equal a fresh engine on the mutated graph, bit for bit.
#[test]
fn persisted_indexes_are_not_served_across_apply() {
    use ic_engine::EdgeUpdate;
    let wg = WeightedGraph::new(
        gnm(120, 360, GraphSeed(21)),
        rank_weights(120, GraphSeed(22)),
    )
    .unwrap();
    let bytes = store_bytes_for(&wg, &[2]);
    let contents = StoreFile::from_bytes(&bytes).unwrap().load().unwrap();
    let opened = Engine::from_snapshot(contents.into_snapshot(), 1);

    // Mutate through the opened engine: remove a handful of edges that
    // exist, insert a couple that do not.
    let updates: Vec<EdgeUpdate> = wg
        .graph()
        .edges()
        .take(5)
        .map(|(u, v)| EdgeUpdate::Remove { u, v })
        .chain([
            EdgeUpdate::Insert { u: 0, v: 119 },
            EdgeUpdate::Insert { u: 1, v: 118 },
        ])
        .collect();
    let epoch = opened.try_apply(&updates).unwrap();
    assert!(epoch.index() > 0, "edge set changed");

    // A fresh engine built from the mutated graph is the ground truth.
    let fresh = Engine::with_threads(opened.snapshot().weighted().clone(), 1);
    let sweep = query_sweep(&[1, 2]);
    let a = opened.run_batch(&sweep);
    let b = fresh.run_batch(&sweep);
    for ((q, x), y) in sweep.iter().zip(&a).zip(&b) {
        assert_eq!(
            x.as_ref().unwrap(),
            y.as_ref().unwrap(),
            "post-apply store engine served stale state on {q:?}"
        );
    }
}

/// Wrong format versions are refused with the dedicated error, not a
/// parse attempt.
#[test]
fn unknown_versions_are_refused() {
    let wg = WeightedGraph::unit_weights(gnm(20, 40, GraphSeed(7)));
    let mut bytes = store_bytes_for(&wg, &[1]);
    for version in [0u8, 2, 200] {
        bytes[4] = version;
        match StoreFile::from_bytes(&bytes) {
            Err(StoreError::Unsupported { version: v }) => assert_eq!(v, version as u32),
            other => panic!("expected Unsupported for version {version}, got {other:?}"),
        }
    }
}

/// End-to-end through the engine's own entry points and a real file:
/// persist a served engine, reopen it, and cross-check answers — the
/// two-process-lifetimes story the store exists for.
#[test]
fn engine_persist_open_file_round_trip() {
    let wg = WeightedGraph::new(
        chung_lu(300, 900, 2.4, GraphSeed(11)),
        rank_weights(300, GraphSeed(12)),
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("ic-store-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("served.ics1");

    let sweep = query_sweep(&[1, 2, 3]);
    let first = Engine::with_threads(wg.clone(), 2);
    let expect = first.run_batch(&sweep);
    first.persist(&path).unwrap();
    drop(first); // "process" 1 exits

    // "process" 2 cold start
    let second = Engine::open_with_options(&path, &OpenOptions::default().threads(2)).unwrap();
    let got = second.run_batch(&sweep);
    for ((q, x), y) in sweep.iter().zip(&expect).zip(&got) {
        assert_eq!(
            x.as_ref().unwrap(),
            y.as_ref().unwrap(),
            "reopened engine diverged on {q:?}"
        );
    }
    // Deep verification of the artifact itself.
    StoreFile::open(&path).unwrap().verify_deep().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
