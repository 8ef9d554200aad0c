//! Answer checks applied to every reply.
//!
//! * `min`/`max` peel and TIC answers are deterministic: they must be
//!   bit-identical to an in-process reference `Engine` at the same
//!   epoch. Replies are compared through a 64-bit fingerprint over
//!   every member id and every value's bit pattern, so a multi-million
//!   id reply need not be kept in memory.
//! * Local-search answers are heuristic: each community must pass
//!   `ic_core::verify::check_community` (cohesion, connectivity, size
//!   bound, value) and the list may hold at most `r` of them.

use crate::drive::{Ack, Got, Reply};
use crate::workload::{threads, Prepared};
use ic_core::verify::{check_community, Violation};
use ic_core::{Community, Constraint, Query, Solver};
use ic_engine::Engine;
use ic_graph::WeightedGraph;
use std::collections::BTreeMap;

/// Fingerprint of an answer: every community's size, member ids and
/// value bits, in rank order.
pub fn fingerprint(answer: &[Community]) -> u64 {
    let mut h = Fold::new();
    h.add(answer.len() as u64);
    for c in answer {
        h.add(c.vertices.len() as u64);
        for &v in &c.vertices {
            h.add(u64::from(v));
        }
        h.add(c.value.to_bits());
    }
    h.finish()
}

/// A word-at-a-time multiply-rotate fold (FxHash-style); fast enough to
/// run inline on a client thread over 10⁷ ids.
struct Fold(u64);

impl Fold {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn new() -> Fold {
        Fold(0x6A09_E667_F3BC_C908)
    }

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }

    fn finish(&self) -> u64 {
        let x = self.0 ^ (self.0 >> 29);
        x.wrapping_mul(Self::K) ^ (x >> 32)
    }
}

/// Whether a query's answers are checked by identity (deterministic
/// solvers) or by verification (local search).
pub fn is_exact(query: &Query) -> bool {
    !matches!(query.solver(), Ok(Solver::LocalSearch))
}

/// Why a reply failed its check.
#[derive(Clone, Debug, PartialEq)]
pub enum Mismatch {
    /// A local-search answer holds more than `r` communities.
    TooMany(usize),
    /// A local-search community is invalid.
    Invalid(Violation),
}

/// Checks a local-search answer against the graph it was served from.
pub fn verify_answer(
    wg: &WeightedGraph,
    query: &Query,
    answer: &[Community],
) -> Result<(), Mismatch> {
    if answer.len() > query.r {
        return Err(Mismatch::TooMany(answer.len()));
    }
    let bound = match query.constraint {
        Constraint::SizeBound { s, .. } => Some(s),
        _ => None,
    };
    for c in answer {
        check_community(wg, query.k, bound, query.aggregation, c).map_err(Mismatch::Invalid)?;
    }
    Ok(())
}

/// The outcome of checking one drive.
#[derive(Debug, Default)]
pub struct Checked {
    /// Replies checked.
    pub replies: u64,
    /// Request ids of replies that failed their check (or whose epoch
    /// the reference could not reach).
    pub bad: Vec<u64>,
    /// Standing queries whose delta-replayed mirror differs from a fresh
    /// re-solve at the final epoch (or was lost).
    pub mirror_mismatches: u64,
}

/// Checks every reply of a drive. Epoch-0 replies are checked against
/// the prepared references; later epochs (`churn`) against a reference
/// engine that replays connection 0's UPDATEs in send order, whose
/// epoch must match each ack. `mirrors`, when given, are the standing
/// queries' delta-replayed answers, compared with a fresh re-solve at
/// the final epoch.
pub fn check_drive(
    prep: &Prepared,
    replies: &[Reply],
    acks: &[Ack],
    mirrors: Option<&[Option<Vec<Community>>]>,
) -> Checked {
    let mut out = Checked {
        replies: replies.len() as u64,
        ..Checked::default()
    };
    let mut by_epoch: BTreeMap<u64, Vec<&Reply>> = BTreeMap::new();
    for reply in replies {
        by_epoch.entry(reply.epoch).or_default().push(reply);
    }
    let graph = prep.graph.as_ref();
    if let Some(at_zero) = by_epoch.remove(&0) {
        for reply in at_zero {
            let q = &prep.distinct[reply.query as usize];
            let ok = match (&reply.got, prep.reference[reply.query as usize], graph) {
                (Got::Fingerprint(fp), Some(want), _) => *fp == want,
                (Got::Answer(answer), None, Some(wg)) => verify_answer(wg, q, answer).is_ok(),
                _ => false,
            };
            if !ok {
                out.bad.push(reply.id);
            }
        }
    }
    if by_epoch.is_empty() && mirrors.is_none() {
        return out;
    }
    let unreached = |by_epoch: BTreeMap<u64, Vec<&Reply>>| {
        by_epoch
            .into_values()
            .flatten()
            .map(|r| r.id)
            .collect::<Vec<u64>>()
    };
    let Some(wg) = graph else {
        out.bad.extend(unreached(by_epoch));
        return out;
    };
    let reference = Engine::with_threads(wg.clone(), threads());
    let mut in_step = true;
    for ack in acks {
        let got = reference.try_apply(&prep.script[ack.chunk as usize]);
        in_step = match (got, ack.epoch) {
            (Ok(epoch), Some(want)) => epoch.index() == want,
            // No ack: assume the server applied it; a later ack's epoch
            // shows whether it did.
            (Ok(_), None) => true,
            (Err(_), _) => false,
        };
        if !in_step {
            break;
        }
        if let Some(at_epoch) = by_epoch.remove(&reference.epoch().index()) {
            out.bad.extend(check_at(&reference, prep, &at_epoch));
        }
    }
    // Replies at an epoch the reference never reached cannot be vouched for.
    out.bad.extend(unreached(by_epoch));
    if let Some(mirrors) = mirrors {
        let fresh = reference.run_batch(&prep.subscriptions);
        for (mirror, fresh) in mirrors.iter().zip(fresh) {
            let same = in_step && matches!((mirror, fresh), (Some(m), Ok(f)) if *m == f);
            out.mirror_mismatches += u64::from(!same);
        }
    }
    out
}

/// Checks replies served at the reference engine's current epoch.
fn check_at(reference: &Engine, prep: &Prepared, replies: &[&Reply]) -> Vec<u64> {
    let mut wanted: Vec<u32> = replies
        .iter()
        .filter(|r| matches!(r.got, Got::Fingerprint(_)))
        .map(|r| r.query)
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    let queries: Vec<Query> = wanted.iter().map(|&q| prep.distinct[q as usize]).collect();
    let fingerprints: Vec<Option<u64>> = reference
        .run_batch(&queries)
        .iter()
        .map(|a| a.as_ref().ok().map(|a| fingerprint(a)))
        .collect();
    let snapshot = reference.snapshot();
    let mut bad = Vec::new();
    for reply in replies {
        let q = &prep.distinct[reply.query as usize];
        let ok = match &reply.got {
            Got::Fingerprint(fp) => wanted
                .binary_search(&reply.query)
                .is_ok_and(|i| fingerprints[i] == Some(*fp)),
            Got::Answer(answer) => verify_answer(snapshot.weighted(), q, answer).is_ok(),
        };
        if !ok {
            bad.push(reply.id);
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::Aggregation;
    use ic_graph::graph_from_edges;

    /// Two triangles joined by a bridge edge, weights 1..=6.
    fn graph() -> WeightedGraph {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        WeightedGraph::new(g, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    fn solve(wg: &WeightedGraph, query: Query) -> Vec<Community> {
        Engine::with_threads(wg.clone(), 1)
            .run_batch(&[query])
            .remove(0)
            .expect("query answers")
    }

    #[test]
    fn fingerprint_rejects_a_tampered_exact_answer() {
        let wg = graph();
        let answer = solve(&wg, Query::new(2, 2, Aggregation::Min));
        assert_eq!(answer.len(), 2);
        let reference = fingerprint(&answer);
        assert_eq!(fingerprint(&answer.clone()), reference);

        let mut swapped_member = answer.clone();
        swapped_member[0].vertices[0] ^= 1;
        let mut nudged_value = answer.clone();
        nudged_value[1].value = f64::from_bits(nudged_value[1].value.to_bits() + 1);
        let mut reordered = answer.clone();
        reordered.swap(0, 1);
        let mut truncated = answer.clone();
        truncated.pop();
        for tampered in [swapped_member, nudged_value, reordered, truncated] {
            assert_ne!(fingerprint(&tampered), reference);
        }
    }

    #[test]
    fn verifier_accepts_local_search_and_rejects_a_tampered_community() {
        let wg = graph();
        let query = Query::builder(2, 2, Aggregation::Average)
            .size_bound(3, true)
            .build()
            .expect("valid constrained query");
        assert!(!is_exact(&query));
        let answer = solve(&wg, query);
        assert!(!answer.is_empty());
        assert_eq!(verify_answer(&wg, &query, &answer), Ok(()));

        // A member swapped for a vertex outside the triangle breaks cohesion.
        let mut broken = answer.clone();
        let outsider = if broken[0].vertices.contains(&0) {
            5
        } else {
            0
        };
        broken[0].vertices[0] = outsider;
        broken[0].vertices.sort_unstable();
        assert!(matches!(
            verify_answer(&wg, &query, &broken),
            Err(Mismatch::Invalid(_))
        ));

        // A stale value is caught even when the members are right.
        let mut revalued = answer.clone();
        revalued[0].value += 1.0;
        assert!(matches!(
            verify_answer(&wg, &query, &revalued),
            Err(Mismatch::Invalid(Violation::WrongValue { .. }))
        ));

        // More than r communities is rejected outright.
        let mut padded = answer.clone();
        padded.extend(answer.iter().cloned());
        padded.extend(answer.iter().cloned());
        assert_eq!(
            verify_answer(&wg, &query, &padded),
            Err(Mismatch::TooMany(padded.len()))
        );
    }
}
