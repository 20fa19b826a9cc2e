//! Closed-loop clients against an in-process [`Server`].
//!
//! The daemon's callers (`Client::call`, `apistudy query`, planning
//! scripts) each wait for their reply before sending again, so the load
//! is a closed loop: one thread and one connection per client, exactly
//! one request in flight on each.
//!
//! A client keeps four bytes per request, its round trip, in room
//! reserved up front, and tallies each key's distinct replies; keys and
//! request ids follow from the client and the request's position. So the
//! benchmark's own memory hardly grows with throughput, and a faster
//! server does not read as a larger one in `peak_rss_mb`.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use apistudy_core::{Client, Request, Response, RetryPolicy, ServeStats, Server};

use crate::keys::{self, ColdKeys, SUGGEST_EVERY};
use crate::trace::Tracer;

/// Requests each client sends before the window opens: one whole hot
/// cycle, so every hot key is cached before timing starts.
const WARMUP: u32 = 8;

/// Deadline of every client call.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Round trips a client reserves room for per second of window, more
/// than any client has sent here. The log then never grows by
/// reallocation, whose copies would make `peak_rss_mb` jump with
/// throughput; reserved room that is never written is not resident.
const RESERVED_PER_SECOND: f64 = 250_000.0;

/// Equal slices of the window; the serve metrics are medians over them,
/// so a burst of load from other processes that spans less than half
/// the window does not set them.
pub const SLICES: usize = 10;

/// The requests clients send.
#[derive(Clone, Copy)]
pub enum Mix<'a> {
    /// The fixed hot cycle of [`keys::hot`].
    Hot,
    /// Never-repeating cold keys, numbered from `base`.
    Cold { keys: &'a ColdKeys, base: u32 },
}

impl Mix<'_> {
    /// Key of client `c`'s `j`-th request, among `clients` clients. Cold
    /// keys come in blocks of [`SUGGEST_EVERY`] per client, so every
    /// client sends the same share of `Suggest` requests.
    fn key(self, clients: u32, c: u32, j: u32) -> u32 {
        const B: u32 = SUGGEST_EVERY;
        match self {
            Mix::Hot => j % 8,
            Mix::Cold { base, .. } => base + B * (clients * (j / B) + c) + j % B,
        }
    }

    /// The request a key stands for.
    pub fn request(self, key: u32) -> Request {
        match self {
            Mix::Hot => keys::hot(key),
            Mix::Cold { keys, .. } => keys.request(key),
        }
    }
}

/// Distinct replies per key, each with how often it came back.
pub type Tally = HashMap<u32, Vec<(Response, u64)>>;

/// One answered request.
pub struct Served {
    /// Request id: the client in the high half, its sequence number in
    /// the low half.
    pub id: u64,
    pub key: u32,
    pub rtt: Duration,
    /// False for a warm-up request, answered before the window opened.
    pub timed: bool,
    /// The slice of the window the request was sent in.
    pub slice: usize,
}

/// One client's record.
struct Log {
    c: u32,
    /// Round trip of every answered request in nanoseconds, in send
    /// order, warm-up first.
    rtt_ns: Vec<u32>,
    /// Warm-up requests answered.
    warm: usize,
    /// Where in `rtt_ns` each slice of the window starts.
    cuts: Vec<usize>,
    replies: Tally,
    errors: Vec<String>,
    done: Instant,
    tracer: Option<Tracer>,
}

/// What one closed-loop window produced.
pub struct Load<'a> {
    mix: Mix<'a>,
    clients: u32,
    logs: Vec<Log>,
    /// From the window opening to the last timed reply.
    pub wall: Duration,
    /// Transport failures; each ended its client's loop.
    pub errors: Vec<String>,
    /// Server counters as the window opened, and after it closed.
    pub before: ServeStats,
    pub after: ServeStats,
    /// The clients' request spans, when traced.
    pub tracers: Vec<Tracer>,
}

impl<'a> Load<'a> {
    pub fn mix(&self) -> Mix<'a> {
        self.mix
    }

    /// Every answered request, warm-up included.
    pub fn served(&self) -> impl Iterator<Item = Served> + '_ {
        self.logs.iter().flat_map(move |log| {
            log.rtt_ns.iter().enumerate().map(move |(j, &ns)| Served {
                id: (u64::from(log.c) << 32) | j as u64,
                key: self.mix.key(self.clients, log.c, j as u32),
                rtt: Duration::from_nanos(u64::from(ns)),
                timed: j >= log.warm,
                slice: slice_of(&log.cuts, j),
            })
        })
    }

    /// Round trips of the timed requests, in microseconds, one vector per
    /// slice of the window.
    pub fn slices_us(&self) -> Vec<Vec<f64>> {
        let mut slices = vec![Vec::new(); SLICES];
        for s in self.timed() {
            slices[s.slice].push(s.rtt.as_secs_f64() * 1e6);
        }
        slices
    }

    /// Requests answered inside the window.
    pub fn timed(&self) -> impl Iterator<Item = Served> + '_ {
        self.served().filter(|s| s.timed)
    }

    /// Requests answered, warm-up included.
    pub fn answered(&self) -> u64 {
        self.logs.iter().map(|l| l.rtt_ns.len() as u64).sum()
    }

    /// Every client's reply tally, merged.
    pub fn replies(&self) -> Tally {
        let mut all = Tally::new();
        for log in &self.logs {
            for (&key, replies) in &log.replies {
                for (reply, n) in replies {
                    tally(&mut all, key, reply, *n);
                }
            }
        }
        all
    }

    /// Snapshot-cache hits and misses inside the window.
    pub fn cache(&self) -> (u64, u64) {
        (
            self.after.cache_hits - self.before.cache_hits,
            self.after.cache_misses - self.before.cache_misses,
        )
    }
}

/// The slice request `j` was sent in, given where each slice starts;
/// warm-up requests, sent before the first slice, count in the first.
fn slice_of(cuts: &[usize], j: usize) -> usize {
    cuts.partition_point(|&cut| cut <= j).saturating_sub(1)
}

/// Counts `n` more of `reply` for `key`.
fn tally(t: &mut Tally, key: u32, reply: &Response, n: u64) {
    let seen = t.entry(key).or_default();
    match seen.iter_mut().find(|(r, _)| r == reply) {
        Some((_, count)) => *count += n,
        None => seen.push((reply.clone(), n)),
    }
}

/// Runs `clients` closed-loop clients against `server`. Each connects and
/// sends [`WARMUP`] requests; once every client is warm the window opens
/// and each sends request after request until `window` has passed. With
/// `epoch`, every timed request is also a span.
pub fn closed_loop<'a>(
    server: &Server,
    clients: usize,
    window: Duration,
    mix: Mix<'a>,
    epoch: Option<Instant>,
) -> Load<'a> {
    let addr = server.addr();
    let (warm, go) = (Barrier::new(clients + 1), Barrier::new(clients + 1));
    let n = clients as u32;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                let gates = (&warm, &go);
                s.spawn(move || client(addr, (n, c), mix, window, gates, epoch))
            })
            .collect();
        warm.wait();
        let before = server.stats();
        go.wait();
        let start = Instant::now();
        let mut load = Load {
            mix,
            clients: n,
            logs: Vec::with_capacity(clients),
            wall: Duration::ZERO,
            errors: Vec::new(),
            before,
            after: before,
            tracers: Vec::new(),
        };
        for h in handles {
            let mut log = h.join().expect("client thread panicked");
            load.wall = load.wall.max(log.done.saturating_duration_since(start));
            load.errors.append(&mut log.errors);
            load.tracers.extend(log.tracer.take());
            load.logs.push(log);
        }
        load.after = server.stats();
        load
    })
}

/// One client: connect, warm up, wait for the window, then loop until it
/// closes. It reaches both gates whatever fails, so no one waits on it.
fn client(
    addr: SocketAddr,
    (clients, c): (u32, u32),
    mix: Mix<'_>,
    window: Duration,
    (warm, go): (&Barrier, &Barrier),
    epoch: Option<Instant>,
) -> Log {
    let reserved = WARMUP as usize + (window.as_secs_f64() * RESERVED_PER_SECOND) as usize;
    let mut log = Log {
        c,
        rtt_ns: Vec::with_capacity(reserved),
        warm: 0,
        cuts: Vec::with_capacity(SLICES),
        replies: Tally::new(),
        errors: Vec::new(),
        done: Instant::now(),
        tracer: epoch.map(Tracer::new),
    };
    let policy = RetryPolicy { seed: 0xC11E_4700 ^ u64::from(c), ..RetryPolicy::default() };
    let mut conn = match Client::connect(addr, policy, REQUEST_DEADLINE) {
        Ok(conn) => Some(conn),
        Err(e) => {
            log.errors.push(format!("client {c}: connect: {e}"));
            None
        }
    };
    let mut j = 0;
    if let Some(conn) = conn.as_mut() {
        while j < WARMUP && exchange(conn, &mut log, mix, (clients, c, j), false) {
            j += 1;
        }
    }
    log.warm = log.rtt_ns.len();
    warm.wait();
    go.wait();
    let (start, slice) = (Instant::now(), window / SLICES as u32);
    let end = start + window;
    if let Some(conn) = conn.as_mut().filter(|_| log.errors.is_empty()) {
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            while log.cuts.len() < SLICES && now >= start + slice * log.cuts.len() as u32 {
                log.cuts.push(log.rtt_ns.len());
            }
            if !exchange(conn, &mut log, mix, (clients, c, j), true) {
                break;
            }
            j += 1;
        }
    }
    log.done = Instant::now();
    log
}

/// Sends one request and logs its reply; false on a transport failure.
fn exchange(
    conn: &mut Client,
    log: &mut Log,
    mix: Mix<'_>,
    (clients, c, j): (u32, u32, u32),
    timed: bool,
) -> bool {
    let key = mix.key(clients, c, j);
    let req = mix.request(key);
    let start = Instant::now();
    let reply = conn.call(&req);
    let end = Instant::now();
    match reply {
        Ok(reply) => {
            if let (true, Some(t)) = (timed, log.tracer.as_mut()) {
                let id = (u64::from(c) << 32) | u64::from(j);
                t.record(span_name(&req), start, end, Some(id), 1);
            }
            let ns = (end - start).as_nanos();
            log.rtt_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
            tally(&mut log.replies, key, &reply, 1);
            true
        }
        Err(e) => {
            log.errors.push(format!("client {c}: request {j}: {e}"));
            false
        }
    }
}

/// The span name of a request's round trip.
fn span_name(req: &Request) -> &'static str {
    match req {
        Request::Ping => "serve.ping",
        Request::Importance { .. } => "serve.importance",
        Request::Completeness { .. } => "serve.completeness",
        Request::Suggest { .. } => "serve.suggest",
        _ => "serve.request",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn cold_keys_of_all_clients_are_distinct_and_share_suggests_evenly() {
        let ranking: Vec<u32> = (0..323).collect();
        let cold = ColdKeys::new(&ranking, &[40, 81, 145, 202], 5);
        let mix = Mix::Cold { keys: &cold, base: 1 << 20 };
        let (clients, per_client) = (3u32, 1000u32);
        let mut seen = HashSet::new();
        for c in 0..clients {
            let keys: Vec<u32> = (0..per_client).map(|j| mix.key(clients, c, j)).collect();
            let suggests = keys.iter().filter(|&&k| ColdKeys::is_suggest(k)).count() as u32;
            assert_eq!(suggests, per_client / SUGGEST_EVERY, "client {c}");
            for k in keys {
                assert!(k >= 1 << 20, "key {k} below the window's base");
                assert!(seen.insert(k), "key {k} sent twice");
            }
        }
    }

    #[test]
    fn requests_fall_in_the_slice_they_were_sent_in() {
        let cuts = [8, 100, 250];
        let slices: Vec<usize> = [0, 7, 8, 99, 100, 249, 250, 9999]
            .into_iter()
            .map(|j| slice_of(&cuts, j))
            .collect();
        assert_eq!(slices, vec![0, 0, 0, 0, 1, 1, 2, 2]);
        assert_eq!(slice_of(&[], 5), 0, "a client that never reached the window");
    }

    #[test]
    fn tallies_count_distinct_replies_per_key_and_merge() {
        let pong = |packages| Response::Pong { fingerprint: 1, generation: 0, packages };
        let mut a = Tally::new();
        for reply in [pong(3), pong(3), pong(4)] {
            tally(&mut a, 0, &reply, 1);
        }
        tally(&mut a, 7, &pong(3), 1);
        assert_eq!(a[&0], vec![(pong(3), 2), (pong(4), 1)]);
        let mut merged = a.clone();
        for (&key, replies) in &a {
            for (reply, n) in replies {
                tally(&mut merged, key, reply, *n);
            }
        }
        assert_eq!(merged[&0], vec![(pong(3), 4), (pong(4), 2)]);
        assert_eq!(merged[&7], vec![(pong(3), 2)]);
    }
}
