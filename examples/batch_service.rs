//! A query service on the ic-serve front end: mixed multi-user traffic
//! over real TCP sockets against one shared engine.
//!
//! ```text
//! cargo run -p ic-bench --release --example batch_service
//! ```
//!
//! Simulates three ticks of a query service: each tick, four clients
//! pipeline Zipf-popular mixed queries (min/max/sum families,
//! approximate sum, size-constrained avg) over their own connections.
//! Server-side **admission batching** coalesces the concurrent arrivals
//! into a handful of `Engine::run_batch_pinned` calls, so the engine
//! still gets the batch-wide planning — dedup, min/max r-family
//! merging, k-grouping — that a one-query-per-request front end would
//! forfeit. The sequential loop a caller would write without any of
//! this runs after each tick for comparison.
//!
//! The shutdown path is checked: every in-flight reply must be flushed
//! and accounted for before the server acks the drain.

use ic_bench::batch::{solve_sequential, to_engine_query};
use ic_engine::{Engine, Query};
use ic_gen::datasets::{by_name, Profile};
use ic_gen::workload::{mixed_query_traffic, TrafficProfile};
use ic_gen::GraphSeed;
use ic_serve::{Client, Outcome, Response, ServeConfig, Server};
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 4;
const QUERIES_PER_TICK: usize = 64;

fn main() {
    let spec = by_name(Profile::Quick, "email").unwrap();
    let wg = spec.generate_weighted();
    println!(
        "serving {} ({} vertices, {} edges)",
        spec.name,
        wg.num_vertices(),
        wg.num_edges()
    );

    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let engine = Arc::new(Engine::with_threads(wg.clone(), threads));
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServeConfig::default())
        .expect("bind an ephemeral loopback port");
    let addr = server.local_addr();
    println!("ic-serve listening on {addr} ({CLIENTS} clients per tick)\n");

    let profile = TrafficProfile::paper_defaults(spec.k_grid);

    let mut sequential_total = 0.0;
    let mut served_total = 0.0;
    let mut expected_replies = 0u64;
    for tick in 0..3u64 {
        let batch: Vec<Query> =
            mixed_query_traffic(QUERIES_PER_TICK, &profile, GraphSeed(1000 + tick))
                .iter()
                .map(to_engine_query)
                .collect();
        expected_replies += batch.len() as u64;

        // Four clients, each pipelining its slice of the tick over its
        // own connection; the server coalesces across all of them.
        let t = Instant::now();
        let per_client = batch.len() / CLIENTS;
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let slice: Vec<Query> = batch[c * per_client..(c + 1) * per_client].to_vec();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for (i, q) in slice.iter().enumerate() {
                        let id = (c * per_client + i) as u64;
                        client.send(id, q).expect("send query");
                    }
                    let t0 = Instant::now();
                    let mut first = None;
                    let mut complete = 0usize;
                    let mut other = 0usize;
                    for _ in 0..slice.len() {
                        match client.recv().expect("receive reply") {
                            Response::Reply {
                                id,
                                outcome: Outcome::Complete(communities),
                                ..
                            } => {
                                complete += 1;
                                if first.is_none() {
                                    let top = communities.first().map_or(f64::NAN, |c| c.value);
                                    first = Some((id, top, t0.elapsed()));
                                }
                            }
                            _ => other += 1,
                        }
                    }
                    (first, complete, other)
                })
            })
            .collect();
        let mut complete = 0usize;
        let mut other = 0usize;
        let mut first = None;
        for w in workers {
            let (f, c, o) = w.join().expect("client thread");
            complete += c;
            other += o;
            if first.is_none() {
                first = f;
            }
        }
        let served = t.elapsed();
        served_total += served.as_secs_f64();

        // The loop a caller would write without the serving layer.
        let t = Instant::now();
        for q in &batch {
            let _ = solve_sequential(&wg, q);
        }
        let sequential = t.elapsed();
        sequential_total += sequential.as_secs_f64();

        let (fi, fv, ft) = first.expect("at least one complete reply");
        println!(
            "tick {tick}: {} queries over {CLIENTS} connections -> {complete} complete, \
             {other} degraded/error; served {served:.1?} \
             (first reply: query #{fi} value {fv:.6} after {ft:.1?}), \
             sequential loop {sequential:.1?}",
            batch.len(),
        );
    }

    let stats = server.stats();
    println!(
        "\n3 ticks: served {served_total:.3}s vs sequential {sequential_total:.3}s \
         ({:.1}x); {} queries admitted in {} engine batches (largest {})",
        sequential_total / served_total,
        stats.admitted,
        stats.batches,
        stats.largest_batch
    );
    assert_eq!(
        stats.admitted, expected_replies,
        "every query of every tick was admitted (none shed)"
    );

    // Checked final flush: park one last burst in the admission window,
    // then drain. The contract is flush-then-ack — all replies must
    // come back before the ShutdownAck, none dropped.
    let mut closer = Client::connect(addr).expect("connect");
    let finale: Vec<Query> = mixed_query_traffic(8, &profile, GraphSeed(4242))
        .iter()
        .map(to_engine_query)
        .collect();
    for (i, q) in finale.iter().enumerate() {
        closer.send(i as u64, q).expect("send final burst");
    }
    let tail = closer.shutdown_and_drain().expect("drain must ack");
    let flushed = tail
        .iter()
        .filter(|r| matches!(r, Response::Reply { .. }))
        .count();
    assert_eq!(
        flushed,
        finale.len(),
        "drain flushed every in-flight reply before acking"
    );
    server.join();
    println!(
        "drain: {} in-flight replies flushed before the ack; server joined clean",
        flushed
    );

    // Progressive sessions: one query, communities in rank order as the
    // peel produces them. The first answer lands well before a full
    // batch would; dropping the stream cancels the rest.
    let q = Query::new(spec.k_grid[0], 20, ic_core::Aggregation::Min);
    engine.clear_result_cache();
    let t = Instant::now();
    let mut stream = engine.submit(q).expect("valid streamed query");
    if let Some(first) = stream.next() {
        println!(
            "\nstreamed {q:?}: first community (value {:.6}, {} members) after {:.1?}",
            first.value,
            first.len(),
            t.elapsed()
        );
    }
    let rest = stream.count(); // drain to show the prefix keeps coming
    println!("stream delivered {} more communities in rank order", rest);
}
