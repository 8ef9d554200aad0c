//! The progressive-session and mutable-engine contracts, held as
//! property tests (PR 3's acceptance criteria):
//!
//! 1. **Stream-prefix conformance** — for every solver path and any
//!    `n`, `submit(q).take(n)` equals the first `n` entries of
//!    `run_batch(&[q])`, bit for bit, on ER / Barabási-Albert /
//!    Chung-Lu / planted graphs (including tie-heavy weight models and
//!    the edge cases `r = 1`, `r > #communities`, `k > degeneracy`).
//! 2. **Post-`apply` conformance** — after any script of edge
//!    insertions/deletions, the engine answers every query exactly like
//!    a *fresh* engine built from scratch on the mutated graph, the
//!    epoch advances, and pre-update cache entries are never served.
//! 3. **Isolation** — streams opened before an `apply` keep answering
//!    on the snapshot they were submitted against.

use ic_core::Aggregation;
use ic_engine::prelude::*;
use ic_gen::{
    barabasi_albert, chung_lu, gnm, pareto_weights, planted_partition, rank_weights,
    uniform_weights, GraphSeed, PlantedPartitionConfig,
};
use ic_graph::{Graph, WeightedGraph};
use proptest::prelude::*;

/// One synthetic workload drawn from the four graph families with a
/// seed-derived weight model (the tie-heavy rank model included).
fn arb_workload() -> impl Strategy<Value = WeightedGraph> {
    (
        0u32..4,      // family: ER / BA / Chung-Lu / planted
        0u32..3,      // weights: uniform / pareto / rank permutation
        24usize..64,  // vertices
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
                _ => rank_weights(n, GraphSeed(seed ^ 0xabcd)),
            };
            WeightedGraph::new(g, w).unwrap()
        })
}

/// The queries whose progressive paths the suite pins: every solver
/// route the engine streams (min/max incremental, exact TIC
/// incremental, approximate TIC buffered, local-search buffered).
fn probe_queries(k: usize, r: usize) -> Vec<Query> {
    vec![
        Query::new(k, r, Aggregation::Min),
        Query::new(k, r, Aggregation::Max),
        Query::new(k, r, Aggregation::Sum),
        Query::new(k, r, Aggregation::SumSurplus { alpha: 0.5 }),
        Query::new(k, r, Aggregation::Sum).approx(0.2),
        Query::new(k, r, Aggregation::Average).size_bound(k + 4, true),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// submit(q).take(n) ≡ run_batch(&[q])[..n] bit for bit, for every
    /// solver path and a spread of n, including full drains.
    #[test]
    fn stream_prefix_equals_batch_prefix(wg in arb_workload(), k in 1usize..4) {
        let eng = Engine::with_threads(wg.clone(), 2);
        for r in [1usize, 4, 10_000] {
            for q in probe_queries(k, r) {
                // The heuristic local-search path is only bit-pinned
                // across *runs* at one worker; at two workers its
                // stream/batch agreement is guaranteed through the
                // shared cache entry, so we only clear the cache (to
                // force a live stream) on the deterministic paths. The
                // live constrained path is covered at one worker below.
                let deterministic = !matches!(q.solver().unwrap(), Solver::LocalSearch);
                let batch = eng.run_batch(&[q])[0].clone().unwrap();
                if deterministic {
                    eng.clear_result_cache();
                }
                let streamed: Vec<Community> = eng.submit(q).unwrap().collect();
                prop_assert_eq!(&streamed, &batch, "full drain {:?}", q);
                // Genuine prefixes: a fresh stream per n, cancelled early.
                for n in [0usize, 1, batch.len() / 2, batch.len().saturating_sub(1)] {
                    let n = n.min(batch.len());
                    if deterministic {
                        eng.clear_result_cache();
                    }
                    let prefix: Vec<Community> = eng.submit(q).unwrap().take(n).collect();
                    prop_assert_eq!(&prefix[..], &batch[..n], "take({}) of {:?}", n, q);
                }
                // Cached resubmission must stream the same answer (a
                // fully drained live stream memoizes its result).
                let cached: Vec<Community> = eng.submit(q).unwrap().collect();
                prop_assert_eq!(&cached, &batch, "cached drain {:?}", q);
            }
        }
        // Live (uncached) constrained path: one worker makes the
        // heuristic bit-deterministic, so stream ≡ batch directly.
        let eng1 = Engine::with_threads(wg.clone(), 1);
        let q = Query::new(k, 3, Aggregation::Average).size_bound(k + 4, true);
        let batch = eng1.run_batch(&[q])[0].clone().unwrap();
        eng1.clear_result_cache();
        let streamed: Vec<Community> = eng1.submit(q).unwrap().collect();
        prop_assert_eq!(&streamed, &batch, "live constrained stream");
        // k > degeneracy streams nothing.
        let kk = ic_kcore::degeneracy(wg.graph()) as usize + 1;
        let mut empty = eng.submit(Query::new(kk, 3, Aggregation::Min)).unwrap();
        prop_assert!(empty.next().is_none());
    }

    /// After a random script of edge updates, the mutated engine answers
    /// identically to a from-scratch engine on the updated graph; epochs
    /// advance exactly when the edge set changes; the cache never serves
    /// across epochs.
    #[test]
    fn apply_matches_fresh_engine_on_mutated_graph(
        wg in arb_workload(),
        k in 1usize..4,
        script in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 1..24),
    ) {
        let n = wg.num_vertices() as u32;
        // One worker throughout: the constrained probes run the
        // heuristic path, which is only bit-pinned across independent
        // engines at a single worker (multi-worker execution semantics
        // are covered by conformance.rs).
        let eng = Engine::with_threads(wg.clone(), 1);
        // Warm the cache under epoch 0 so staleness would be caught.
        let probes = probe_queries(k, 4);
        let before = eng.run_batch(&probes);

        // Self-loops never change the edge set, and `try_apply` refuses
        // them typed, so the script leaves them out.
        let updates: Vec<EdgeUpdate> = script
            .iter()
            .map(|&(u, v, insert)| (u % n, v % n, insert))
            .filter(|&(u, v, _)| u != v)
            .map(|(u, v, insert)| {
                if insert {
                    EdgeUpdate::Insert { u, v }
                } else {
                    EdgeUpdate::Remove { u, v }
                }
            })
            .collect();
        let e0 = eng.epoch();
        let e1 = eng.try_apply(&updates).unwrap();

        // Reference: the same edge script applied to a plain edge set.
        // `changed` is tracked per update exactly like the maintainer
        // does (an insert-then-remove of the same edge nets to nothing
        // but still counts as a change and must advance the epoch).
        let mut edges: std::collections::BTreeSet<(u32, u32)> = wg
            .graph()
            .edges()
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        let mut changed = false;
        for up in &updates {
            let (u, v) = up.endpoints();
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            match up {
                EdgeUpdate::Insert { .. } => changed |= edges.insert(key),
                _ => changed |= edges.remove(&key),
            }
        }
        let edge_list: Vec<(u32, u32)> = edges.iter().copied().collect();
        let fresh_graph = ic_graph::graph_from_edges(n as usize, &edge_list);
        prop_assert_eq!(
            e1 > e0,
            changed,
            "epoch advances iff some update changed the edge set"
        );

        let fresh = Engine::with_threads(
            WeightedGraph::new(fresh_graph, wg.weights().to_vec()).unwrap(),
            1,
        );
        let mutated = eng.run_batch(&probes);
        let reference = fresh.run_batch(&probes);
        for ((q, got), expect) in probes.iter().zip(&mutated).zip(&reference) {
            match (got, expect) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "post-apply {:?}", q),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "ok/err divergence on {:?}", q),
            }
        }
        // Streams agree too: a post-apply submit answers like the fresh
        // engine's batch, proving streams read the swapped snapshot.
        for (q, expect) in probes.iter().zip(&reference) {
            if let Ok(expect) = expect {
                eng.clear_result_cache();
                let streamed: Vec<Community> = eng.submit(*q).unwrap().collect();
                prop_assert_eq!(&streamed, expect, "post-apply stream {:?}", q);
            }
        }
        drop(before);
    }
}

/// Deterministic end-to-end walk: update, re-query, stream — on the
/// paper's running example, with a pre-apply stream held open across the
/// update to pin snapshot isolation.
#[test]
fn apply_isolation_and_requery_walkthrough() {
    let wg = ic_core::figure1::figure1();
    let eng = Engine::with_threads(wg.clone(), 2);
    let q = Query::new(2, 3, Aggregation::Min);
    let original = eng.run_batch(&[q])[0].clone().unwrap();

    // Open a stream, then mutate underneath it.
    eng.clear_result_cache();
    let pre_stream = eng.submit(q).unwrap();
    let e1 = eng
        .try_apply(&[
            EdgeUpdate::Remove { u: 4, v: 5 }, // v5-v6
            EdgeUpdate::Insert { u: 0, v: 9 }, // v1-v10
        ])
        .unwrap();
    assert_eq!(e1.index(), 1);

    // The pre-apply stream still answers on its pinned snapshot.
    let streamed: Vec<Community> = pre_stream.collect();
    assert_eq!(streamed, original, "stream isolation across apply");

    // Post-apply answers equal a fresh engine on the mutated graph.
    let fresh = Engine::with_threads(eng.snapshot().weighted().clone(), 2);
    assert_eq!(
        eng.run_batch(&[q])[0].as_ref().unwrap(),
        fresh.run_batch(&[q])[0].as_ref().unwrap()
    );

    // Reverting the changes restores the original answers (epoch still
    // advances — epochs are history positions, not content hashes).
    let e2 = eng
        .try_apply(&[
            EdgeUpdate::Insert { u: 4, v: 5 },
            EdgeUpdate::Remove { u: 0, v: 9 },
        ])
        .unwrap();
    assert_eq!(e2.index(), 2);
    assert_eq!(eng.run_batch(&[q])[0].as_ref().unwrap(), &original);
}

/// The builder vocabulary round-trips through the prelude and the
/// engine: one import surface serves batch, stream, and update code.
#[test]
fn prelude_covers_the_serving_vocabulary() {
    let wg = ic_core::figure1::figure1();
    let engine = Engine::with_threads(wg, 1);
    let q: Query = Query::builder(2, 2, Aggregation::Sum).build().unwrap();
    let solver: Solver = q.solver().unwrap();
    assert_eq!(solver, Solver::TicExact);
    let batch: Vec<Result<Vec<Community>, SearchError>> = engine.run_batch(&[q]);
    let streamed: Vec<Community> = {
        engine.clear_result_cache();
        engine.submit(q).unwrap().collect()
    };
    assert_eq!(&streamed, batch[0].as_ref().unwrap());
    let epoch: Epoch = engine
        .try_apply(&[EdgeUpdate::Remove { u: 0, v: 1 }])
        .unwrap();
    assert_eq!(epoch.index(), 1);
    let snap: std::sync::Arc<GraphSnapshot> = engine.snapshot();
    assert_eq!(snap.graph().num_edges(), 16);
}
