//! The paper's second motivating application (Section I, "Group
//! Recommendation"): suggest interest groups in a social network, ranked
//! by the *average* influence of their members, without recommending the
//! same users twice — served through a progressive query session.
//!
//! The pre-PR-3 version of this example called
//! `local_search_nonoverlapping` directly. Here the same product flow
//! runs on the engine's session API: [`Engine::submit`] opens a
//! [`ResultStream`] of candidate groups in rank order, and the serving
//! loop *pulls* candidates one at a time, keeping the disjoint ones
//! until the slate is full. Rank order is guaranteed to match
//! `run_batch` prefix-for-prefix, so consuming the stream early never
//! changes what the user sees. (Size-constrained queries have no
//! incremental solver hook — the stream buffers a completed local
//! search, so the laziness here is in *consumption*, not solver work;
//! submit a `min`/`max`/`sum` query to see genuinely pay-per-pull
//! streaming, e.g. in `batch_service.rs`.)
//!
//! ```text
//! cargo run -p ic-bench --release --example group_recommendation
//! ```

use ic_core::verify::check_community;
use ic_engine::prelude::*;
use ic_gen::{pagerank_weights, planted_partition, GraphSeed, PlantedPartitionConfig};
use ic_graph::WeightedGraph;

fn main() {
    // A social network with eight interest clusters.
    let graph = planted_partition(
        &PlantedPartitionConfig {
            communities: 8,
            community_size: 25,
            p_in: 0.4,
            p_out: 0.01,
        },
        GraphSeed(11),
    );
    // Influence = PageRank, exactly like the paper's experiments.
    let weights = pagerank_weights(&graph);
    let wg = WeightedGraph::new(graph, weights).expect("valid weights");

    println!(
        "social network: {} users, {} ties",
        wg.num_vertices(),
        wg.num_edges()
    );

    // Recommend up to 4 disjoint groups of at most 12 members whose
    // every member knows at least 4 others in the group. The stream is
    // asked for a deep candidate list (r = 16) so the disjointness
    // filter below never runs dry; only as many candidates as the
    // slate needs are ever *consumed*.
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let engine = Engine::with_threads(wg.clone(), threads);
    let query = Query::builder(4, 16, Aggregation::Average)
        .size_bound(12, true)
        .build()
        .expect("valid recommendation query");

    let slate_size = 4;
    let mut slate: Vec<Community> = Vec::new();
    let mut considered = 0usize;
    let mut stream = engine.submit(query).expect("valid recommendation query");
    for candidate in stream.by_ref() {
        considered += 1;
        // Non-overlap policy: a candidate sharing a user with an
        // already-recommended group is skipped (TONIC-style greedy).
        if slate.iter().any(|g| g.overlaps(&candidate)) {
            continue;
        }
        slate.push(candidate);
        if slate.len() == slate_size {
            break; // slate full; unread candidates are simply discarded
        }
    }
    drop(stream);

    println!(
        "\nrecommended groups (ranked by average member influence; \
         {considered} candidates pulled):"
    );
    for (i, g) in slate.iter().enumerate() {
        // Which planted cluster does the group live in?
        let cluster = g.vertices[0] / 25;
        let pure = g.vertices.iter().all(|&v| v / 25 == cluster);
        println!(
            "  #{} avg influence {:.5}, {} members, cluster {}{}",
            i + 1,
            g.value,
            g.len(),
            cluster,
            if pure { "" } else { " (mixed)" }
        );
        check_community(&wg, 4, Some(12), Aggregation::Average, g).expect("valid group");
    }

    // Sanity: recommendations never overlap.
    for (i, a) in slate.iter().enumerate() {
        for b in &slate[i + 1..] {
            assert!(!a.overlaps(b), "slate must be disjoint");
        }
    }
    println!("\nno user appears in two recommendations ✓");
}
