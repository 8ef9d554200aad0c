//! The load generator: two client connections, each on its own thread,
//! in a closed loop (`Client::call` blocks, so a connection sends its
//! next request only after the previous reply). Every outcome is
//! accounted; nothing aborts the run.

use crate::check::{fingerprint, is_exact};
use crate::workload::{Op, Prepared};
use ic_core::Community;
use ic_serve::{Client, ClientError, Outcome, Response, WireNotification};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What a successful query reply is checked with later.
pub enum Got {
    /// Fingerprint of a deterministic answer.
    Fingerprint(u64),
    /// A local-search answer, kept for verification.
    Answer(Vec<Community>),
}

/// One answered query, as the checker needs it.
pub struct Reply {
    /// The request id it answered.
    pub id: u64,
    /// Index into `Prepared::distinct`.
    pub query: u32,
    /// The epoch that answered it.
    pub epoch: u64,
    /// The answer's image.
    pub got: Got,
}

/// One attempted request and its client-observed interval.
pub struct Request {
    /// The request id (unique per run: connection in the high bits).
    pub id: u64,
    /// What was sent.
    pub op: Op,
    /// Before the request was written.
    pub start: Instant,
    /// After its reply was read (or the failure observed).
    pub end: Instant,
    /// Whether it succeeded (an answer or an ack).
    pub ok: bool,
    /// Vertex ids carried by the reply.
    pub ids: u64,
}

/// An UPDATE's outcome: the script chunk and the acked epoch.
pub struct Ack {
    /// Index into `Prepared::script`.
    pub chunk: u32,
    /// `None` when no ack arrived.
    pub epoch: Option<u64>,
}

/// Why requests failed.
#[derive(Default, Clone, Copy)]
pub struct Failures {
    /// Shed with `Overloaded`.
    pub shed: u64,
    /// Typed errors, degraded answers and unexpected frames.
    pub typed: u64,
    /// Lost connections (each followed by a reconnect).
    pub lost: u64,
}

impl Failures {
    fn add(&mut self, other: &Failures) {
        self.shed += other.shed;
        self.typed += other.typed;
        self.lost += other.lost;
    }

    /// Every failed request.
    pub fn total(&self) -> u64 {
        self.shed + self.typed + self.lost
    }
}

/// Standing queries held over the wire, mirrored from their deltas.
pub struct Mirrors {
    /// Per standing query: the answer rebuilt from the initial reply
    /// and every notification since (`None` if the subscribe failed).
    pub answers: Vec<Option<Vec<Community>>>,
    /// Notifications whose deltas did not rebuild the answer they carried.
    pub broken_deltas: u64,
    /// Notifications received.
    pub notifications: u64,
}

/// Everything one drive produced.
pub struct Drive {
    /// Every attempted request, both connections.
    pub requests: Vec<Request>,
    /// Every successful query reply.
    pub replies: Vec<Reply>,
    /// Connection 0's UPDATEs, in send order.
    pub acks: Vec<Ack>,
    /// Failure counts.
    pub failures: Failures,
    /// Wire-held standing queries (`churn`, untraced).
    pub mirrors: Option<Mirrors>,
    /// When the clock started.
    pub start: Instant,
    /// How long connections kept sending, seconds.
    pub seconds: f64,
}

/// Base of the subscription ids connection 1 uses.
const SUB_ID_BASE: u64 = 1 << 40;

/// Drives both connections against `addr` for `seconds`. With
/// `subscribe`, connection 1 first registers `prep.subscriptions` and
/// mirrors their notifications.
pub fn drive(addr: SocketAddr, prep: &Prepared, seconds: f64, subscribe: bool) -> Drive {
    // Connect and subscribe before the clock starts.
    let ready: Vec<Conn> = (0..2)
        .map(|c| Conn::new(c, addr, prep, subscribe && c == 1))
        .collect();
    let barrier = Barrier::new(2);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let conns: Vec<Conn> = std::thread::scope(|scope| {
        let handles: Vec<_> = ready
            .into_iter()
            .map(|mut conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    conn.run(deadline);
                    // Connection 1 takes its last notifications only
                    // after connection 0's final UPDATE is acked.
                    barrier.wait();
                    conn.finish();
                    conn
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Drive {
        requests: Vec::new(),
        replies: Vec::new(),
        acks: Vec::new(),
        failures: Failures::default(),
        mirrors: None,
        start,
        seconds,
    };
    for conn in conns {
        out.failures.add(&conn.failures);
        out.requests.extend(conn.requests);
        out.replies.extend(conn.replies);
        out.acks.extend(conn.acks);
        if conn.mirrors.is_some() {
            out.mirrors = conn.mirrors;
        }
    }
    out
}

/// One connection's state.
struct Conn<'a> {
    idx: usize,
    addr: SocketAddr,
    prep: &'a Prepared,
    client: Option<Client>,
    next_id: u64,
    requests: Vec<Request>,
    replies: Vec<Reply>,
    acks: Vec<Ack>,
    failures: Failures,
    mirrors: Option<Mirrors>,
}

impl<'a> Conn<'a> {
    fn new(idx: usize, addr: SocketAddr, prep: &'a Prepared, subscribe: bool) -> Conn<'a> {
        let mut conn = Conn {
            idx,
            addr,
            prep,
            client: None,
            next_id: 0,
            requests: Vec::new(),
            replies: Vec::new(),
            acks: Vec::new(),
            failures: Failures::default(),
            mirrors: subscribe.then(|| Mirrors {
                answers: vec![None; prep.subscriptions.len()],
                broken_deltas: 0,
                notifications: 0,
            }),
        };
        conn.connect(Instant::now() + Duration::from_secs(10));
        conn
    }

    /// (Re)connects, re-registering the standing queries; retries until
    /// `give_up`.
    fn connect(&mut self, give_up: Instant) {
        while self.client.is_none() && Instant::now() < give_up {
            match Client::connect(self.addr) {
                Ok(client) => self.client = Some(client),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let (Some(client), Some(mirrors)) = (self.client.as_mut(), self.mirrors.as_mut()) else {
            return;
        };
        for (i, q) in self.prep.subscriptions.iter().enumerate() {
            mirrors.answers[i] = match client.subscribe(SUB_ID_BASE + i as u64, q) {
                Ok(Response::Reply {
                    outcome: Outcome::Complete(answer),
                    ..
                }) => Some(answer),
                _ => None,
            };
        }
    }

    fn run(&mut self, deadline: Instant) {
        let ops = &self.prep.ops[self.idx];
        let mut i = 0usize;
        while Instant::now() < deadline {
            let op = ops[i % ops.len()];
            i += 1;
            self.send(op);
            if self.client.is_none() {
                self.connect(deadline);
            }
        }
    }

    /// Sends one request and accounts its outcome.
    fn send(&mut self, op: Op) {
        self.next_id += 1;
        let id = ((self.idx as u64) << 48) | self.next_id;
        let Some(client) = self.client.as_mut() else {
            return;
        };
        let start = Instant::now();
        let result = match op {
            Op::Query(q) => client.call(id, &self.prep.distinct[q as usize]),
            Op::Update(c) => client.update(id, &self.prep.script[c as usize]),
        };
        let end = Instant::now();
        let mut ids = 0u64;
        let ok = match (op, result) {
            (
                Op::Query(q),
                Ok(Response::Reply {
                    epoch,
                    outcome: Outcome::Complete(answer),
                    ..
                }),
            ) => {
                ids = answer.iter().map(|c| c.vertices.len() as u64).sum();
                let got = if is_exact(&self.prep.distinct[q as usize]) {
                    Got::Fingerprint(fingerprint(&answer))
                } else {
                    Got::Answer(answer)
                };
                self.replies.push(Reply {
                    id,
                    query: q,
                    epoch,
                    got,
                });
                true
            }
            (Op::Update(chunk), Ok(Response::UpdateAck { epoch, .. })) => {
                self.acks.push(Ack {
                    chunk,
                    epoch: Some(epoch),
                });
                true
            }
            (op, result) => {
                if let Op::Update(chunk) = op {
                    self.acks.push(Ack { chunk, epoch: None });
                }
                self.fail(op, result);
                false
            }
        };
        self.requests.push(Request {
            id,
            op,
            start,
            end,
            ok,
            ids,
        });
        self.take_notifications();
    }

    fn fail(&mut self, op: Op, result: Result<Response, ClientError>) {
        match result {
            Ok(Response::Overloaded { .. }) => self.failures.shed += 1,
            Ok(other) => {
                if self.failures.typed < 3 {
                    eprintln!("[conn {}] {op:?} failed: {other:?}", self.idx);
                }
                self.failures.typed += 1;
            }
            Err(e) => {
                eprintln!("[conn {}] {op:?} lost the connection: {e}", self.idx);
                self.failures.lost += 1;
                self.client = None;
            }
        }
    }

    /// Applies every queued notification to the mirrors.
    fn take_notifications(&mut self) {
        let (Some(client), Some(mirrors)) = (self.client.as_mut(), self.mirrors.as_mut()) else {
            return;
        };
        while let Some(n) = client.poll_notification() {
            mirror(mirrors, n);
        }
    }

    /// After both connections stopped: a STATS round trip on connection
    /// 1 flushes every notification queued ahead of it.
    fn finish(&mut self) {
        if self.mirrors.is_none() {
            return;
        }
        if let Some(client) = self.client.as_mut() {
            let _ = client.stats(u64::MAX);
        }
        self.take_notifications();
    }
}

fn mirror(mirrors: &mut Mirrors, n: WireNotification) {
    mirrors.notifications += 1;
    let Some(slot) =
        n.id.checked_sub(SUB_ID_BASE)
            .and_then(|i| mirrors.answers.get_mut(i as usize))
    else {
        mirrors.broken_deltas += 1;
        return;
    };
    // The mirror is rebuilt from the deltas alone; the full answer the
    // frame also carries is only the rebase point after a resync.
    let rebuilt = match slot.as_deref() {
        Some(old) if !n.resync => ic_sub::replay(old, &n.deltas),
        _ => n.answer.clone(),
    };
    if rebuilt != n.answer {
        mirrors.broken_deltas += 1;
    }
    *slot = Some(rebuilt);
}
