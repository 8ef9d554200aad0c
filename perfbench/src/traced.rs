//! The traced run's instruments, all outside the program: a
//! `QueryBackend` wrapper that times the server's calls into the real
//! `Engine` / `ShardedEngine` / `SubscriptionManager`, and in-process
//! replays of the layers a served request cannot isolate (solvers,
//! k-core maintenance, subscription refresh, per-shard scatter).

use crate::stats;
use crate::workload::{Prepared, Stores};
use ic_core::{Community, Query, Solver};
use ic_engine::{BatchOptions, EdgeUpdate, Engine, EngineError, Epoch, QueryAnswer, QueryBackend};
use ic_shard::ShardedEngine;
use ic_sub::{SubscriptionId, SubscriptionManager};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the wrapper forwards to.
pub enum Inner {
    /// A single-store engine.
    Engine(Arc<Engine>),
    /// A single-store engine behind a benchmark-owned subscription
    /// manager holding the standing queries (`churn`): UPDATEs go
    /// through `SubscriptionManager::apply`, so refresh stays on the
    /// ack path even though a wrapped server has no hub.
    Subs(SubscriptionManager, Mutex<SubState>),
    /// The scatter-gather front.
    Sharded(ShardedEngine),
}

/// The manager-held standing queries, mirrored from their deltas.
pub struct SubState {
    ids: Vec<SubscriptionId>,
    /// Per standing query, the answer rebuilt from its deltas.
    pub mirrors: Vec<Option<Vec<Community>>>,
    /// Applies whose notifications did not rebuild their answers.
    pub broken_deltas: u64,
}

/// One timed call into the wrapped backend.
pub struct Call {
    /// `engine.run_batch_pinned`, `shard.run_batch_pinned` or `sub.apply`.
    pub name: &'static str,
    /// Entry.
    pub start: Instant,
    /// Return.
    pub end: Instant,
    /// The batch's queries (empty for applies).
    pub queries: Vec<Query>,
}

/// A `QueryBackend` that times every call it forwards.
pub struct Traced {
    inner: Inner,
    calls: Mutex<Vec<Call>>,
}

impl Traced {
    /// Wraps `inner`.
    pub fn new(inner: Inner) -> Traced {
        Traced {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Wraps a subscription manager over `engine` holding `standing`.
    pub fn with_subscriptions(engine: Arc<Engine>, standing: &[Query]) -> Traced {
        let manager = SubscriptionManager::new(engine);
        let mut state = SubState {
            ids: Vec::new(),
            mirrors: Vec::new(),
            broken_deltas: 0,
        };
        for q in standing {
            match manager.subscribe(*q) {
                Ok(sub) => {
                    state.ids.push(sub.id);
                    state.mirrors.push(Some(sub.answer));
                }
                Err(_) => {
                    state.ids.push(SubscriptionId(u64::MAX));
                    state.mirrors.push(None);
                }
            }
        }
        Traced::new(Inner::Subs(manager, Mutex::new(state)))
    }

    /// Takes every call recorded so far, in start order.
    pub fn take_calls(&self) -> Vec<Call> {
        let mut calls = std::mem::take(&mut *self.calls.lock().expect("call log poisoned"));
        calls.sort_by_key(|c| c.start);
        calls
    }

    /// The manager-held mirrors (`churn`).
    pub fn sub_state(&self) -> Option<&Mutex<SubState>> {
        match &self.inner {
            Inner::Subs(_, state) => Some(state),
            _ => None,
        }
    }

    fn log(&self, name: &'static str, start: Instant, queries: Vec<Query>) {
        let end = Instant::now();
        self.calls.lock().expect("call log poisoned").push(Call {
            name,
            start,
            end,
            queries,
        });
    }
}

impl QueryBackend for Traced {
    fn run_batch_pinned(
        &self,
        queries: &[Query],
        options: &BatchOptions,
    ) -> (Epoch, Vec<Result<QueryAnswer, EngineError>>) {
        let start = Instant::now();
        let (name, out) = match &self.inner {
            Inner::Engine(e) => (
                "engine.run_batch_pinned",
                e.run_batch_pinned(queries, options),
            ),
            Inner::Subs(m, _) => (
                "engine.run_batch_pinned",
                m.engine().run_batch_pinned(queries, options),
            ),
            Inner::Sharded(s) => (
                "shard.run_batch_pinned",
                s.run_batch_pinned(queries, options),
            ),
        };
        self.log(name, start, queries.to_vec());
        out
    }

    fn apply_updates(&self, updates: &[EdgeUpdate]) -> Result<Epoch, EngineError> {
        let start = Instant::now();
        let out = match &self.inner {
            Inner::Engine(e) => e.try_apply(updates),
            Inner::Subs(m, state) => m.apply(updates).map(|report| {
                let mut state = state.lock().expect("subscription state poisoned");
                for n in report.notifications {
                    let Some(i) = state.ids.iter().position(|id| *id == n.id) else {
                        continue;
                    };
                    let rebuilt = state.mirrors[i]
                        .as_deref()
                        .map(|old| ic_sub::replay(old, &n.deltas));
                    if rebuilt.as_ref() != Some(&n.answer) {
                        state.broken_deltas += 1;
                    }
                    state.mirrors[i] = rebuilt;
                }
                report.epoch
            }),
            Inner::Sharded(s) => s.apply_updates(updates),
        };
        self.log("sub.apply", start, Vec::new());
        out
    }

    fn obs_registry(&self) -> Option<&ic_obs::Registry> {
        match &self.inner {
            Inner::Engine(e) => Some(e.obs_registry()),
            Inner::Subs(m, _) => Some(m.engine().obs_registry()),
            Inner::Sharded(s) => Some(s.obs_registry()),
        }
    }
}

/// A solver class's metric suffix.
pub fn solver_name(solver: Solver) -> &'static str {
    match solver {
        Solver::MinPeel => "min_peel",
        Solver::MaxPeel => "max_peel",
        Solver::TicExact => "tic_exact",
        Solver::TicApprox => "tic_approx",
        Solver::LocalSearch => "local_search",
        _ => "other",
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Each distinct query replayed once on a cold result cache; per query,
/// the solve time in ms on the slowest engine it routes to.
pub struct SolveReplay {
    /// Per distinct query: `(solver, ms)`.
    pub per_query: Vec<(Solver, f64)>,
    /// `big-sharded` only: per distinct query, per routed shard, the
    /// warm-cache batch time in ms (what a steady-state scatter costs).
    pub scatter: Vec<Vec<(usize, f64)>>,
}

impl SolveReplay {
    /// Median solve ms per solver class.
    pub fn by_solver(&self) -> BTreeMap<&'static str, f64> {
        let mut groups: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for &(solver, ms) in &self.per_query {
            groups.entry(solver_name(solver)).or_default().push(ms);
        }
        groups
            .into_iter()
            .filter_map(|(k, v)| stats::median(&v).map(|m| (k, m)))
            .collect()
    }
}

/// Replays the distinct queries on freshly opened engines: the single
/// store, or each routed shard store.
pub fn replay_solves(prep: &Prepared) -> SolveReplay {
    let routes: Vec<Vec<usize>>;
    let engines: Vec<Engine> = match &prep.stores {
        Stores::Single(path) => {
            routes = vec![vec![0]; prep.distinct.len()];
            vec![Engine::open(path).expect("open the store for the solve replay")]
        }
        Stores::Sharded { dir, shards } => {
            let front = ShardedEngine::open_dir(dir).expect("open the shards for routing");
            routes = prep.distinct.iter().map(|q| front.route(q.k)).collect();
            shards
                .iter()
                .map(|p| Engine::open(p).expect("open a shard store for the replay"))
                .collect()
        }
    };
    let run = |engine: &Engine, q: &Query| -> f64 {
        let t = Instant::now();
        let answer = engine.run_batch(std::slice::from_ref(q));
        let ms = ms_since(t);
        assert!(answer[0].is_ok(), "replayed query failed: {q:?}");
        ms
    };
    let per_query = prep
        .distinct
        .iter()
        .zip(&routes)
        .map(|(q, route)| {
            let slowest = route
                .iter()
                .map(|&si| {
                    engines[si].clear_result_cache();
                    run(&engines[si], q)
                })
                .fold(0.0f64, f64::max);
            (q.solver().expect("distinct queries are valid"), slowest)
        })
        .collect();
    let scatter = if matches!(prep.stores, Stores::Sharded { .. }) {
        prep.distinct
            .iter()
            .zip(&routes)
            .map(|(q, route)| {
                route
                    .iter()
                    .map(|&si| {
                        run(&engines[si], q); // fill the cache
                        let reps: Vec<f64> = (0..3).map(|_| run(&engines[si], q)).collect();
                        (si, stats::median(&reps).expect("three repetitions"))
                    })
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    SolveReplay { per_query, scatter }
}

/// The `churn` script replayed in-process on fresh engines.
pub struct UpdateReplay {
    /// `Engine::try_apply_journaled` per UPDATE, ms.
    pub kcore_ms: Vec<f64>,
    /// Vertices the cascades touched per UPDATE.
    pub touched: Vec<f64>,
    /// `SubscriptionManager::apply` per UPDATE, ms.
    pub sub_ms: Vec<f64>,
    /// Standing queries skipped by the journal, summed.
    pub skipped: u64,
    /// Standing queries refreshed, summed.
    pub refreshed: u64,
}

/// Replays the first `count` script chunks through k-core maintenance
/// alone and through the subscription manager with the standing queries.
pub fn replay_updates(prep: &Prepared, count: usize) -> UpdateReplay {
    let Stores::Single(path) = &prep.stores else {
        unreachable!("updates replay on single-store workloads only");
    };
    let script: Vec<&Vec<EdgeUpdate>> = prep.script.iter().cycle().take(count).collect();
    let open = || Engine::open(path).expect("open the store for the update replay");

    let kcore = open();
    let mut kcore_ms = Vec::with_capacity(count);
    let mut touched = Vec::with_capacity(count);
    for chunk in &script {
        let t = Instant::now();
        let outcome = kcore
            .try_apply_journaled(chunk)
            .expect("script updates are valid");
        kcore_ms.push(ms_since(t));
        touched.push(
            outcome
                .records
                .iter()
                .map(|r| r.touched.len())
                .sum::<usize>() as f64,
        );
    }

    let manager = SubscriptionManager::new(Arc::new(open()));
    for q in &prep.subscriptions {
        manager.subscribe(*q).expect("standing queries subscribe");
    }
    let mut out = UpdateReplay {
        kcore_ms,
        touched,
        sub_ms: Vec::with_capacity(count),
        skipped: 0,
        refreshed: 0,
    };
    for chunk in &script {
        let t = Instant::now();
        let report = manager.apply(chunk).expect("script updates are valid");
        out.sub_ms.push(ms_since(t));
        out.skipped += report.skipped as u64;
        out.refreshed += report.refreshed as u64;
    }
    out
}
