//! The footprint query daemon: a sealed study served over TCP by an
//! epoll reactor.
//!
//! [`Server`] holds the sealed [`Study`] in an immutable [`Arc`]
//! [`Snapshot`] and answers [`proto`](crate::proto) requests through a
//! readiness-driven event loop built on [`crate::sys`] — the modern
//! event-driven syscall surface this study measures (`epoll_create1`,
//! `epoll_wait`, `accept4`, `eventfd2`; see [`self_audit`]). One reactor
//! thread owns every connection's nonblocking state machine
//! (read-accumulate → decode → dispatch → write-drain with partial-write
//! buffering); a fixed worker pool executes the queries, so one expensive
//! `suggest --greedy` can never stall unrelated connections. Responses
//! complete out of order **across** connections but stay strictly ordered
//! **per** connection: a connection has at most one job in flight, and
//! every reply is appended to its write buffer in request order.
//!
//! The robustness contract, unchanged from the thread-per-connection
//! daemon it replaces:
//!
//! - **Untrusted wire.** Every frame is length-capped and checksummed
//!   before decode ([`proto::scan_frame`](crate::proto::scan_frame)
//!   classifies damage the moment it is provable); malformed input earns
//!   a classified [`Response::Err`], never a panic, and frame-level
//!   damage closes the connection (the stream is desynchronized).
//! - **Deadlines everywhere.** Idle, request (slowloris), and write
//!   (backpressure) budgets are absolute per-connection deadlines
//!   enforced by the epoll timeout — no per-connection polling wakeups.
//! - **Admission control.** At the connection cap, new sockets get an
//!   explicit `Busy` reply and are closed; [`Client`] retries with
//!   exponential backoff plus deterministic jitter.
//! - **Graceful drain.** `Shutdown` (or [`Server::shutdown`]) stops the
//!   acceptor, finishes in-flight work at frame boundaries, then returns
//!   from [`Server::wait`].
//! - **Atomic snapshot swap.** `Reload` re-runs the analysis and swaps
//!   the snapshot only under fingerprint compare-and-swap; connections
//!   opened before the swap keep answering from their pinned snapshot.
//!
//! On top of the reactor:
//!
//! - **Pipelined batch frames.** A [`Request::Batch`] bundles up to
//!   [`MAX_BATCH`] sub-requests into one frame, answered in order by one
//!   [`Response::Batch`]; [`Client::call_batch`] and
//!   [`Client::call_pipelined`] amortize framing and syscall cost for
//!   bulk consumers.
//! - **Snapshot-keyed query cache.** Pure queries (importance /
//!   completeness / suggest) are cached inside the [`Snapshot`] keyed by
//!   their canonical request bytes, so the cache is invalidated wholesale
//!   by the reload swap itself — a hit can never outlive its world. Hits
//!   are bit-identical to misses by construction: the cached value *is*
//!   the encoded reply payload. Hit/miss counters surface in
//!   [`ServeStats`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use apistudy_analysis::{content_hash, AnalysisOptions};
use apistudy_catalog::Api;

use crate::cache::fold_hash;
use crate::engine::CompletenessEngine;
use crate::frame::put_frame;
use crate::journal::{catalog_fingerprint, corpus_fingerprint};
use crate::metrics::Metrics;
use crate::planner::greedy_suggestions;
use crate::proto::{
    encode_frame, read_frame_by, scan_frame, ErrorCode, FrameError,
    Request, Response, FRAME_HEADER, MAX_BATCH, MAX_FRAME, MAX_PICKS,
};
use crate::study::Study;
use crate::sys::{
    accept_nonblocking, read_fd, write_fd, Epoll, EpollEvent, EventFd,
    SysErrorKind, EPOLLIN, EPOLLOUT,
};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Port to bind on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Admission cap: concurrent connections beyond this get a `Busy`
    /// reply and are closed.
    pub max_conns: usize,
    /// Budget for one request: frame arrival (slowloris bound), reply
    /// write (backpressure bound), and processing.
    pub request_deadline: Duration,
    /// How long a connection may sit idle between requests.
    pub idle_deadline: Duration,
    /// Query worker threads (`0` = auto: available parallelism clamped
    /// to 2..=8). The reactor thread is extra.
    pub workers: usize,
    /// Whether the snapshot-keyed query cache serves pure queries
    /// (importance / completeness / suggest). Off, every query computes.
    pub cache: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            port: 0,
            max_conns: 128,
            request_deadline: Duration::from_secs(5),
            idle_deadline: Duration::from_secs(60),
            workers: 0,
            cache: true,
        }
    }
}

fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 8)
}

// ---------------------------------------------------------------------------
// Snapshot + query cache
// ---------------------------------------------------------------------------

const CACHE_SHARDS: usize = 16;
/// Per-shard entry cap; a shard at the cap is cleared whole (the cache is
/// a throughput device, not a store — losing it costs recomputation only).
const CACHE_SHARD_CAP: usize = 4096;

/// The snapshot-keyed pure-query cache. Keys are the canonical request
/// encoding (hashed, with a full-bytes equality guard against collisions);
/// values are the encoded reply payload, so a hit returns the exact bytes
/// a miss would compute — bit-identity by construction. Living inside the
/// [`Snapshot`] means the reload swap *is* the invalidation: a new world
/// starts with an empty cache and the old one dies with its snapshot.
/// One cache shard: request-hash → (full request bytes, reply payload).
type CacheShard = HashMap<u64, (Vec<u8>, Vec<u8>)>;

struct QueryCache {
    shards: Vec<Mutex<CacheShard>>,
}

impl QueryCache {
    fn new() -> Self {
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, hash: u64) -> std::sync::MutexGuard<'_, CacheShard> {
        // A poisoned shard still holds valid entries; the panic that
        // poisoned it already surfaced elsewhere.
        match self.shards[(hash as usize) % CACHE_SHARDS].lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        }
    }

    /// The cached reply payload for this canonical request encoding.
    fn get(&self, req_bytes: &[u8]) -> Option<Vec<u8>> {
        let h = content_hash(req_bytes);
        let g = self.shard(h);
        g.get(&h)
            .filter(|(key, _)| key[..] == *req_bytes)
            .map(|(_, payload)| payload.clone())
    }

    fn put(&self, req_bytes: &[u8], payload: &[u8]) {
        let h = content_hash(req_bytes);
        let mut g = self.shard(h);
        if g.len() >= CACHE_SHARD_CAP {
            g.clear();
        }
        g.insert(h, (req_bytes.to_vec(), payload.to_vec()));
    }
}

/// One immutable, shared view of a sealed study. Swapped whole on
/// reload; never mutated (the embedded query cache is interior-locked
/// and memoizes pure functions of the snapshot only).
pub struct Snapshot {
    /// The sealed study (corpus plan + measured dataset).
    pub study: Study,
    /// The metrics index, built **once** at seal time and shared by every
    /// worker thread — a connection's first request no longer waits out a
    /// private index build (the old p99 wart). Results are bit-identical:
    /// the index holds exactly the state a per-connection build derives.
    pub index: std::sync::Arc<crate::metrics::MetricsIndex>,
    /// Identity: corpus ⊕ analysis-options ⊕ catalog fingerprints.
    pub fingerprint: u64,
    /// Monotonic generation, bumped on every successful swap.
    pub generation: u64,
    /// Pure-query memo, scoped to (and invalidated with) this snapshot.
    cache: QueryCache,
}

/// The snapshot identity surfaced in `Pong` and checked by `Reload`:
/// a fold of the corpus, analysis-options, and catalog fingerprints.
pub fn snapshot_fingerprint(study: &Study) -> u64 {
    let mut h = fold_hash(0, corpus_fingerprint(study.repo()));
    h = fold_hash(h, AnalysisOptions::default().fingerprint());
    fold_hash(h, catalog_fingerprint(&study.data().catalog))
}

impl Snapshot {
    /// Seals a study into a snapshot at the given generation, building
    /// the shared metrics index up front.
    pub fn seal(study: Study, generation: u64) -> Self {
        let fingerprint = snapshot_fingerprint(&study);
        let index = std::sync::Arc::new(
            crate::metrics::MetricsIndex::build(study.data()),
        );
        Self {
            study,
            index,
            fingerprint,
            generation,
            cache: QueryCache::new(),
        }
    }

    /// A metrics handle over the snapshot's prebuilt shared index:
    /// construction is a clone of an [`Arc`](std::sync::Arc), not an
    /// index build.
    pub fn metrics(&self) -> Metrics<'_> {
        Metrics::with_index(self.study.data(), self.index.clone())
    }
}

/// A reload recipe: re-runs the analysis and returns the fresh study
/// (typically [`Study::run_on`] resuming the daemon's boot store, so
/// completed shards replay at file-read cost).
pub type Rebuild = dyn Fn() -> Result<Study, String> + Send + Sync;

/// Monotonic counters describing a server's lifetime so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted into the reactor.
    pub connections: u64,
    /// Requests answered (including classified error replies; a batch
    /// frame counts once here, its sub-requests in `batch_requests`).
    pub served: u64,
    /// Connections rejected at the admission cap.
    pub rejected_busy: u64,
    /// Connections closed for frame damage (checksum / oversize /
    /// truncation).
    pub malformed: u64,
    /// Connections closed for blowing an idle, request, or write
    /// deadline.
    pub deadline_closed: u64,
    /// Successful snapshot swaps.
    pub reloads: u64,
    /// Pure queries answered from the snapshot's query cache.
    pub cache_hits: u64,
    /// Pure queries computed (and then cached).
    pub cache_misses: u64,
    /// Batch frames answered.
    pub batch_frames: u64,
    /// Sub-requests answered inside batch frames.
    pub batch_requests: u64,
    /// Classified syscall failures the reactor degraded through instead
    /// of panicking: fatal socket read/write errnos, failed epoll
    /// registrations or interest updates. Each one left the affected
    /// connection closed (or its interest stale until a deadline), never
    /// the reactor down.
    pub io_errors: u64,
    /// Times `accept4` hit fd exhaustion (`EMFILE`/`ENFILE`) and the
    /// reactor paused accepting: the emergency-fd reserve was spent to
    /// shed one queued connection with a classified `Busy`, and
    /// accepting resumed once a connection slot was released.
    pub accept_pauses: u64,
}

#[derive(Default)]
struct StatCells {
    connections: AtomicU64,
    served: AtomicU64,
    rejected_busy: AtomicU64,
    malformed: AtomicU64,
    deadline_closed: AtomicU64,
    reloads: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    batch_frames: AtomicU64,
    batch_requests: AtomicU64,
    io_errors: AtomicU64,
    accept_pauses: AtomicU64,
}

// ---------------------------------------------------------------------------
// Pinned-snapshot session holder
// ---------------------------------------------------------------------------

/// The reactor hands a connection's session back and forth between the
/// event loop and worker threads, so the session cannot be a plain
/// borrow-scoped engine the way the thread-per-connection daemon had it —
/// it must own its world. `SessionBox` pins the [`Arc<Snapshot>`] and
/// carries the engine plus the boxed metrics it borrows, with lifetimes
/// erased to `'static`; the declaration-order drop (engine, then metrics,
/// then snapshot) upholds the real lifetimes. This module and `sys` are
/// the crate's only `unsafe` carve-outs.
mod pinned {
    #![allow(unsafe_code)]

    use super::*;
    use crate::pipeline::StudyData;

    pub(super) struct SessionBox {
        engine: CompletenessEngine<'static, 'static>,
        _metrics: Box<Metrics<'static>>,
        _snap: Arc<Snapshot>,
    }

    impl SessionBox {
        pub(super) fn open(
            snap: &Arc<Snapshot>,
            supported: &HashSet<u32>,
        ) -> Self {
            let snap = Arc::clone(snap);
            // SAFETY: `snap` is kept alive in `_snap` for this value's
            // whole life, the Arc heap allocation never moves, and
            // `Snapshot` is immutable — so a `'static`-erased borrow of
            // its study data stays valid until drop, which releases the
            // engine (the borrower) first by declaration order.
            let data: &'static StudyData =
                unsafe { &*(snap.study.data() as *const StudyData) };
            let metrics =
                Box::new(Metrics::with_index(data, snap.index.clone()));
            // SAFETY: the box gives `Metrics` a stable heap address that
            // `_metrics` keeps alive for this value's whole life; only
            // `engine` borrows it, and `engine` drops first.
            let metrics_ref: &'static Metrics<'static> =
                unsafe { &*std::ptr::addr_of!(*metrics) };
            let engine =
                CompletenessEngine::for_syscalls(metrics_ref, supported);
            Self { engine, _metrics: metrics, _snap: snap }
        }

        pub(super) fn engine(
            &mut self,
        ) -> &mut CompletenessEngine<'static, 'static> {
            &mut self.engine
        }
    }
}

use pinned::SessionBox;

// ---------------------------------------------------------------------------
// Reactor ↔ worker plumbing
// ---------------------------------------------------------------------------

/// One unit of worker work: a run of decoded frames from one connection,
/// answered in order on the connection's pinned snapshot. Carrying the
/// session along means session requests execute on whichever worker picks
/// the job up, while per-connection ordering (one job in flight per
/// connection) keeps the session single-threaded.
struct Job {
    token: u64,
    items: Vec<Request>,
    snap: Arc<Snapshot>,
    session: Option<SessionBox>,
}

/// A finished job: the concatenated encoded reply frames, the session
/// handed back, and whether the connection must close after flushing.
struct Done {
    token: u64,
    bytes: Vec<u8>,
    session: Option<SessionBox>,
    close: bool,
}

struct JobQueue {
    queue: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    snapshot: RwLock<Arc<Snapshot>>,
    rebuild: Option<Box<Rebuild>>,
    opts: ServeOptions,
    drain: AtomicBool,
    reloading: AtomicBool,
    stats: StatCells,
    /// The reactor's doorbell: worker completions and drain requests ring
    /// it; epoll reports it readable.
    wakeup: EventFd,
    jobs: Mutex<JobQueue>,
    jobs_cv: Condvar,
    done: Mutex<Vec<Done>>,
}

fn lock_or_inner<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    }
}

impl Shared {
    /// Reads the live snapshot without ever panicking on a poisoned
    /// lock (a poisoned guard still holds a valid `Arc`).
    fn live(&self) -> Arc<Snapshot> {
        match self.snapshot.read() {
            Ok(g) => Arc::clone(&g),
            Err(e) => Arc::clone(&e.into_inner()),
        }
    }

    /// Raises the drain flag and rings the reactor's doorbell (no
    /// self-connect hack: the eventfd is exactly the cross-thread wakeup
    /// primitive this is for).
    fn begin_drain(&self) {
        if !self.drain.swap(true, Ordering::SeqCst) {
            let _ = self.wakeup.signal();
        }
    }

    fn push_done(&self, done: Done) {
        lock_or_inner(&self.done).push(done);
        let _ = self.wakeup.signal();
    }

    fn stats(&self) -> ServeStats {
        let s = &self.stats;
        ServeStats {
            connections: s.connections.load(Ordering::Relaxed),
            served: s.served.load(Ordering::Relaxed),
            rejected_busy: s.rejected_busy.load(Ordering::Relaxed),
            malformed: s.malformed.load(Ordering::Relaxed),
            deadline_closed: s.deadline_closed.load(Ordering::Relaxed),
            reloads: s.reloads.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            batch_frames: s.batch_frames.load(Ordering::Relaxed),
            batch_requests: s.batch_requests.load(Ordering::Relaxed),
            io_errors: s.io_errors.load(Ordering::Relaxed),
            accept_pauses: s.accept_pauses.load(Ordering::Relaxed),
        }
    }
}

/// A running query daemon. Dropping the handle does **not** stop the
/// server; call [`Server::shutdown`] then [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    reactor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds 127.0.0.1, seals `study` into the generation-0 snapshot, and
    /// starts the reactor plus the worker pool. `rebuild` powers `Reload`
    /// requests; without it reloads are refused as `BadRequest`.
    pub fn start(
        study: Study,
        rebuild: Option<Box<Rebuild>>,
        opts: ServeOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", opts.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let wakeup = EventFd::new().map_err(|e| {
            std::io::Error::other(format!("eventfd: {e}"))
        })?;
        let n_workers = resolve_workers(opts.workers);
        let shared = Arc::new(Shared {
            snapshot: RwLock::new(Arc::new(Snapshot::seal(study, 0))),
            rebuild,
            opts,
            drain: AtomicBool::new(false),
            reloading: AtomicBool::new(false),
            stats: StatCells::default(),
            wakeup,
            jobs: Mutex::new(JobQueue {
                queue: VecDeque::new(),
                closed: false,
            }),
            jobs_cv: Condvar::new(),
            done: Mutex::new(Vec::new()),
        });
        let mut workers = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let worker_shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("apistudy-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared))?,
            );
        }
        let reactor_shared = Arc::clone(&shared);
        let reactor = std::thread::Builder::new()
            .name("apistudy-reactor".into())
            .spawn(move || reactor_loop(listener, &reactor_shared))?;
        Ok(Self { shared, reactor: Some(reactor), workers, addr })
    }

    /// The bound address (ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live snapshot's fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.shared.live().fingerprint
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// [`self_audit`] of the live snapshot: the daemon's own serving
    /// syscall footprint, measured by the catalog it serves.
    pub fn self_audit(&self) -> Vec<AuditEntry> {
        self_audit(&self.shared.live())
    }

    /// Initiates graceful drain (idempotent): stop accepting, let
    /// in-flight requests finish at frame boundaries.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until the server has drained (reactor stopped, workers
    /// done) and returns the final counters.
    pub fn wait(mut self) -> ServeStats {
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        // The reactor closes the job queue on exit; restate it here so a
        // crashed reactor can never wedge the workers.
        lock_or_inner(&self.shared.jobs).closed = true;
        self.shared.jobs_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.stats()
    }
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

const TOK_LISTENER: u64 = 0;
const TOK_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
/// Bytes per nonblocking read attempt.
const READ_CHUNK: usize = 16 * 1024;
/// Read-buffer backpressure bound: stop reading a connection whose
/// accumulated-but-unparsed bytes reach two full frames.
const RBUF_CAP: usize = 2 * (MAX_FRAME + FRAME_HEADER);
/// Decoded-but-unanswered request backpressure bound per connection.
const PENDING_CAP: usize = 128;
/// Compact the write buffer once this many flushed bytes accumulate.
const WBUF_COMPACT: usize = 64 * 1024;
/// Most frames handed to one worker job (per-connection order is kept by
/// the one-job-in-flight rule, so the cap only bounds job granularity).
const JOB_CAP: usize = 32;
const EVENTS_CAP: usize = 256;
/// How soon a reactor whose listener re-registration failed tries again.
const RESUME_RETRY: Duration = Duration::from_millis(10);

/// Which budget a connection's (single, absolute) deadline enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DlKind {
    /// Waiting for the next frame to start.
    Idle,
    /// A frame has started arriving (the slowloris bound).
    Request,
    /// A reply is buffered and the peer is not draining it.
    Write,
}

/// A decoded frame waiting its turn, or a ready reply payload (parse
/// errors and inline fast-path answers) waiting to be framed in order.
enum PendingItem {
    Work(Request),
    Reply(Vec<u8>),
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// The world pinned at accept time; reloads never touch it.
    snap: Arc<Snapshot>,
    session: Option<SessionBox>,
    /// Read-accumulate buffer (unparsed wire bytes).
    rbuf: Vec<u8>,
    /// Write-drain buffer; `woff` is the flushed prefix.
    wbuf: Vec<u8>,
    woff: usize,
    pending: VecDeque<PendingItem>,
    /// One worker job in flight (per-connection ordering invariant).
    inflight: bool,
    /// Close once the write buffer drains (damage, Bye, drain notice).
    shut_after_flush: bool,
    /// The interest mask currently registered with epoll.
    interest: u32,
    deadline: Option<(Instant, DlKind)>,
}

impl Conn {
    fn new(stream: TcpStream, snap: Arc<Snapshot>) -> Self {
        Self {
            stream,
            snap,
            session: None,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            woff: 0,
            pending: VecDeque::new(),
            inflight: false,
            shut_after_flush: false,
            interest: EPOLLIN,
            deadline: None,
        }
    }

    fn has_unsent(&self) -> bool {
        self.woff < self.wbuf.len()
    }

    /// Queue a ready reply payload in request order.
    fn push_reply(&mut self, payload: Vec<u8>) {
        self.pending.push_back(PendingItem::Reply(payload));
    }

    /// The interest mask this state wants. Readable unless closing or
    /// backpressured; writable iff bytes are waiting.
    fn desired_interest(&self) -> u32 {
        let mut want = 0;
        if !self.shut_after_flush
            && self.pending.len() < PENDING_CAP
            && self.rbuf.len() < RBUF_CAP
        {
            want |= EPOLLIN;
        }
        if self.has_unsent() {
            want |= EPOLLOUT;
        }
        want
    }

    /// Re-derives which deadline kind applies and arms it **only on a
    /// kind transition** — deadlines are absolute, so re-arming the same
    /// kind would let steady trickle reset the clock forever.
    fn rearm(&mut self, opts: &ServeOptions) {
        let next = if self.has_unsent() {
            Some((DlKind::Write, opts.request_deadline))
        } else if !self.rbuf.is_empty() {
            Some((DlKind::Request, opts.request_deadline))
        } else if !self.inflight && self.pending.is_empty() {
            Some((DlKind::Idle, opts.idle_deadline))
        } else {
            // A job is in flight with nothing buffered either way: the
            // connection waits on us, not the peer. No deadline.
            None
        };
        match (next, self.deadline) {
            (None, _) => self.deadline = None,
            (Some((kind, _)), Some((_, armed))) if armed == kind => {}
            (Some((kind, budget)), _) => {
                self.deadline = Some((Instant::now() + budget, kind));
            }
        }
    }
}

/// What `service` decided about a connection's fate.
enum Verdict {
    Keep,
    Drop,
}

fn reactor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let run = reactor_run(&listener, shared);
    if run.is_err() {
        // The reactor cannot run (epoll/eventfd registration failed);
        // fall through to the common teardown so workers still exit.
    }
    lock_or_inner(&shared.jobs).closed = true;
    shared.jobs_cv.notify_all();
}

/// The emergency descriptor reserve for `EMFILE` recovery: one spare fd
/// (on `/dev/null`) held open in calm times. When `accept4` reports fd
/// exhaustion the reserve is spent — closed to free a descriptor so one
/// queued connection can still be accepted and told `Busy` — then
/// refilled once the table has room again. Without it, exhaustion means
/// the backlog silently rots: clients see an accepted-but-never-served
/// socket instead of a classified rejection.
struct FdReserve {
    spare: Option<std::fs::File>,
}

impl FdReserve {
    fn new() -> Self {
        Self { spare: std::fs::File::open("/dev/null").ok() }
    }

    /// Frees the spare descriptor (a no-op if already spent).
    fn spend(&mut self) {
        self.spare = None;
    }

    /// Re-opens the spare (a no-op if still held).
    fn refill(&mut self) {
        if self.spare.is_none() {
            self.spare = std::fs::File::open("/dev/null").ok();
        }
    }
}

fn reactor_run(
    listener: &TcpListener,
    shared: &Arc<Shared>,
) -> Result<(), crate::sys::SysError> {
    let ep = Epoll::new()?;
    ep.add(listener.as_raw_fd(), EPOLLIN, TOK_LISTENER)?;
    ep.add(shared.wakeup.raw(), EPOLLIN, TOK_WAKE)?;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = [EpollEvent { events: 0, token: 0 }; EVENTS_CAP];
    let mut ready: Vec<(u64, u32)> = Vec::with_capacity(EVENTS_CAP);
    let mut accepting = true;
    let mut drain_deadline: Option<Instant> = None;
    let mut reserve = FdReserve::new();
    // `Some(n)` while accepting is paused on fd exhaustion: the number
    // of live connections at pause time. Accepting resumes once a
    // connection has closed (fewer live than at the pause), which is
    // what frees a descriptor.
    let mut paused_at: Option<usize> = None;

    loop {
        // Fd-exhaustion recovery: a closed connection released a
        // descriptor, so re-register the listener and refill the spare.
        let mut resume_failed = false;
        if let Some(at) = paused_at {
            if accepting && (at == 0 || conns.len() < at) {
                reserve.refill();
                if ep
                    .add(listener.as_raw_fd(), EPOLLIN, TOK_LISTENER)
                    .is_ok()
                {
                    paused_at = None;
                } else {
                    resume_failed = true;
                }
            }
        }
        // Drain bookkeeping first: stop accepting, tell quiet
        // connections to go, and bound the whole wind-down.
        if shared.drain.load(Ordering::SeqCst) {
            if drain_deadline.is_none() {
                drain_deadline = Some(
                    Instant::now()
                        + shared.opts.request_deadline
                        + Duration::from_secs(2),
                );
            }
            if accepting {
                let _ = ep.del(listener.as_raw_fd());
                accepting = false;
            }
            let quiet: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| {
                    !c.inflight
                        && c.pending.is_empty()
                        && c.rbuf.is_empty()
                        && !c.has_unsent()
                        && !c.shut_after_flush
                })
                .map(|(t, _)| *t)
                .collect();
            for token in quiet {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.push_reply(
                        Response::err(ErrorCode::Draining, "server draining")
                            .encode(),
                    );
                    conn.shut_after_flush = true;
                    service(token, &mut conns, &ep, shared);
                }
            }
            if conns.is_empty() {
                return Ok(());
            }
            if drain_deadline.is_some_and(|at| Instant::now() >= at) {
                return Ok(());
            }
        }

        // The epoll timeout is the nearest armed deadline (or the drain
        // bound) — idle connections cost zero wakeups.
        let now = Instant::now();
        let mut next_at: Option<Instant> = drain_deadline;
        for conn in conns.values() {
            if let Some((at, _)) = conn.deadline {
                next_at =
                    Some(next_at.map_or(at, |cur: Instant| cur.min(at)));
            }
        }
        let mut timeout =
            next_at.map(|at| at.saturating_duration_since(now));
        // Completions may already be queued (pushed between the last
        // delivery and now, or their doorbell ring was swallowed by a
        // spurious eventfd EAGAIN). Don't sleep on work in hand — a
        // connection waiting on its own job carries no deadline, so a
        // lost wakeup here would otherwise strand it forever.
        if !lock_or_inner(&shared.done).is_empty() {
            timeout = Some(Duration::ZERO);
        }
        // A failed listener re-registration leaves no event to wake on:
        // with no connection left, nothing would retry it.
        if resume_failed {
            timeout =
                Some(timeout.map_or(RESUME_RETRY, |t| t.min(RESUME_RETRY)));
        }
        let batch = ep.wait(&mut events, timeout)?;
        ready.clear();
        ready.extend(batch.iter().map(|e| (e.data(), e.ready())));

        for &(token, mask) in &ready {
            match token {
                TOK_LISTENER => accept_burst(
                    listener,
                    &ep,
                    shared,
                    &mut conns,
                    &mut next_token,
                    accepting && paused_at.is_none(),
                    &mut reserve,
                    &mut paused_at,
                ),
                TOK_WAKE => {
                    let _ = shared.wakeup.drain();
                    // Completions (and the drain flag, handled at loop
                    // top) are what ring the bell.
                }
                _ => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    if mask & EPOLLIN != 0 {
                        handle_readable(conn, shared);
                    }
                    // EPOLLOUT / EPOLLERR / EPOLLHUP all resolve inside
                    // service: a flush attempt either progresses or
                    // classifies the failure.
                    service(token, &mut conns, &ep, shared);
                }
            }
        }

        deliver_completions(&mut conns, &ep, shared);
        expire_deadlines(&mut conns, &ep, shared);
    }
}

/// Accept everything queued on the listener (level-triggered epoll would
/// re-report, but draining the backlog per wakeup is cheaper).
#[allow(clippy::too_many_arguments)]
fn accept_burst(
    listener: &TcpListener,
    ep: &Epoll,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    accepting: bool,
    reserve: &mut FdReserve,
    paused_at: &mut Option<usize>,
) {
    if !accepting {
        return;
    }
    loop {
        let stream = match accept_nonblocking(listener) {
            Ok(Some(s)) => s,
            Ok(None) => return,
            Err(e) if e.kind() == SysErrorKind::FdExhausted => {
                // Out of descriptors. Spend the emergency reserve so one
                // queued connection can still be accepted and told Busy
                // (otherwise the backlog rots unanswered), then pause
                // accepting until a live connection closes.
                shared.stats.accept_pauses.fetch_add(1, Ordering::Relaxed);
                reserve.spend();
                if let Ok(Some(s)) = accept_nonblocking(listener) {
                    shared
                        .stats
                        .rejected_busy
                        .fetch_add(1, Ordering::Relaxed);
                    let frame = encode_frame(
                        &Response::err(
                            ErrorCode::Busy,
                            "server out of descriptors",
                        )
                        .encode(),
                    );
                    let _ = write_fd(s.as_raw_fd(), &frame);
                }
                let _ = ep.del(listener.as_raw_fd());
                *paused_at = Some(conns.len());
                return;
            }
            Err(_) => {
                shared.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if conns.len() >= shared.opts.max_conns {
            shared.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
            // Best-effort, nonblocking reject: the frame is far smaller
            // than a fresh socket's send buffer, so one write suffices
            // and a hostile peer cannot stall the reactor.
            let frame = encode_frame(
                &Response::err(ErrorCode::Busy, "connection cap reached")
                    .encode(),
            );
            let _ = write_fd(stream.as_raw_fd(), &frame);
            continue;
        }
        let _ = stream.set_nodelay(true);
        let token = *next_token;
        *next_token += 1;
        let mut conn = Conn::new(stream, shared.live());
        if ep.add(conn.stream.as_raw_fd(), EPOLLIN, token).is_err() {
            // Registration failed (ENOMEM): the connection can never be
            // served. Classify the degrade — a best-effort Busy so the
            // peer sees a reason, a counter so the footer shows it.
            shared.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            shared.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
            let frame = encode_frame(
                &Response::err(ErrorCode::Busy, "registration failed")
                    .encode(),
            );
            let _ = write_fd(conn.stream.as_raw_fd(), &frame);
            continue;
        }
        conn.rearm(&shared.opts);
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        conns.insert(token, conn);
    }
}

/// Read until the socket would block, then parse whole frames out of the
/// accumulation buffer.
fn handle_readable(conn: &mut Conn, shared: &Arc<Shared>) {
    let fd = conn.stream.as_raw_fd();
    let mut eof = false;
    while !conn.shut_after_flush && conn.rbuf.len() < RBUF_CAP {
        let old = conn.rbuf.len();
        conn.rbuf.resize(old + READ_CHUNK, 0);
        match read_fd(fd, &mut conn.rbuf[old..]) {
            Ok(0) => {
                conn.rbuf.truncate(old);
                eof = true;
                break;
            }
            Ok(n) => conn.rbuf.truncate(old + n),
            Err(e) => {
                conn.rbuf.truncate(old);
                match e.kind() {
                    SysErrorKind::WouldBlock => break,
                    SysErrorKind::Interrupted => continue,
                    kind => {
                        // Peer gone or fatal: nothing to flush to, close.
                        // A disconnect is the peer's business; anything
                        // else is our syscall failing — count it.
                        if kind != SysErrorKind::Disconnected {
                            shared
                                .stats
                                .io_errors
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        conn.shut_after_flush = true;
                        conn.pending.clear();
                        conn.wbuf.clear();
                        conn.woff = 0;
                        return;
                    }
                }
            }
        }
    }
    parse_frames(conn, shared);
    if eof && !conn.shut_after_flush {
        if conn.rbuf.is_empty() {
            // Clean close at a frame boundary: finish queued work, send
            // what is owed, then close silently.
            conn.shut_after_flush = true;
        } else {
            // Mid-frame EOF: a truncated frame.
            shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
            conn.rbuf.clear();
            conn.push_reply(
                Response::err(ErrorCode::BadFrame, "frame damaged").encode(),
            );
            conn.shut_after_flush = true;
        }
    }
}

/// Scan whole frames out of `rbuf`: valid ones become pending work (or a
/// `BadRequest` reply if the intact payload does not decode — framing is
/// still in sync, the connection survives); damage earns a classified
/// reply and closes the connection.
fn parse_frames(conn: &mut Conn, shared: &Arc<Shared>) {
    let mut at = 0usize;
    loop {
        if conn.shut_after_flush {
            break;
        }
        match scan_frame(&conn.rbuf[at..]) {
            Ok(None) => break,
            Ok(Some(total)) => {
                let payload = &conn.rbuf[at + FRAME_HEADER..at + total];
                match Request::decode(payload) {
                    Some(req) => {
                        conn.pending.push_back(PendingItem::Work(req))
                    }
                    None => {
                        shared.stats.served.fetch_add(1, Ordering::Relaxed);
                        conn.push_reply(
                            Response::err(
                                ErrorCode::BadRequest,
                                "undecodable request",
                            )
                            .encode(),
                        );
                    }
                }
                at += total;
            }
            Err(FrameError::TooLarge(n)) => {
                shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
                conn.push_reply(
                    Response::err(
                        ErrorCode::TooLarge,
                        format!("frame length {n} over cap"),
                    )
                    .encode(),
                );
                conn.shut_after_flush = true;
                at = conn.rbuf.len();
            }
            Err(_) => {
                shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
                conn.push_reply(
                    Response::err(ErrorCode::BadFrame, "frame damaged")
                        .encode(),
                );
                conn.shut_after_flush = true;
                at = conn.rbuf.len();
            }
        }
    }
    if at > 0 {
        conn.rbuf.drain(..at);
    }
}

/// Drive one connection forward: answer what can be answered inline,
/// dispatch a job if one is due, flush, update epoll interest, re-arm
/// the deadline, and drop the connection when it is finished or broken.
fn service(
    token: u64,
    conns: &mut HashMap<u64, Conn>,
    ep: &Epoll,
    shared: &Arc<Shared>,
) {
    let Some(conn) = conns.get_mut(&token) else { return };
    let job = pump(token, conn, shared);
    let verdict = flush(conn, shared);
    let gone = match verdict {
        Verdict::Drop => true,
        Verdict::Keep => {
            conn.shut_after_flush
                && !conn.has_unsent()
                && !conn.inflight
                && conn.pending.is_empty()
        }
    };
    if gone {
        let fd = conn.stream.as_raw_fd();
        let _ = ep.del(fd);
        conns.remove(&token);
    } else {
        let want = conn.desired_interest();
        if want != conn.interest {
            match ep.modify(conn.stream.as_raw_fd(), want, token) {
                Ok(()) => conn.interest = want,
                Err(_) => {
                    // Interest unchanged (ENOMEM on epoll_ctl): the old
                    // level-triggered mask still wakes us for what it
                    // covers, and whatever it misses is bounded by the
                    // connection's armed deadline — a counted degrade,
                    // never a reactor failure.
                    shared.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        conn.rearm(&shared.opts);
    }
    if let Some(job) = job {
        let mut q = lock_or_inner(&shared.jobs);
        if q.closed {
            // Tearing down: the job is dropped; the connection is about
            // to die with the reactor anyway.
            drop(q);
        } else {
            q.queue.push_back(job);
            drop(q);
            shared.jobs_cv.notify_one();
        }
    }
}

/// What the front of the pending queue is, decided without holding a
/// borrow across the mutation that consumes it.
enum Front {
    Empty,
    Reply,
    WorkInline(Vec<u8>),
    WorkJob,
}

/// Move pending items toward the wire in request order: frame ready
/// replies, answer fast-path work inline (`Ping`, cache hits, all-inline
/// batches — no worker round trip, the p50 path), and cut one job for
/// the worker pool at the first request that needs real compute.
fn pump(token: u64, conn: &mut Conn, shared: &Arc<Shared>) -> Option<Job> {
    while !conn.inflight {
        let front = match conn.pending.front() {
            None => Front::Empty,
            Some(PendingItem::Reply(_)) => Front::Reply,
            Some(PendingItem::Work(req)) => {
                match inline_payload(req, &conn.snap, shared) {
                    Some(payload) => Front::WorkInline(payload),
                    None => Front::WorkJob,
                }
            }
        };
        match front {
            Front::Empty => return None,
            Front::Reply => {
                let Some(PendingItem::Reply(payload)) =
                    conn.pending.pop_front()
                else {
                    return None;
                };
                put_reply(&mut conn.wbuf, &payload);
            }
            Front::WorkInline(payload) => {
                conn.pending.pop_front();
                shared.stats.served.fetch_add(1, Ordering::Relaxed);
                put_reply(&mut conn.wbuf, &payload);
            }
            Front::WorkJob => {
                let mut items = Vec::new();
                while items.len() < JOB_CAP
                    && matches!(
                        conn.pending.front(),
                        Some(PendingItem::Work(_))
                    )
                {
                    let Some(PendingItem::Work(req)) =
                        conn.pending.pop_front()
                    else {
                        break;
                    };
                    items.push(req);
                }
                conn.inflight = true;
                return Some(Job {
                    token,
                    items,
                    snap: Arc::clone(&conn.snap),
                    session: conn.session.take(),
                });
            }
        }
    }
    None
}

/// Frames one reply payload onto `out`. Every client's reader refuses a
/// frame over [`MAX_FRAME`] before reading its body, which would leave
/// the unread reply queued on the connection, so an over-cap payload is
/// replaced by a `TooLarge` error naming its size. One length comparison
/// per reply.
fn put_reply(out: &mut Vec<u8>, payload: &[u8]) {
    if payload.len() <= MAX_FRAME {
        put_frame(out, payload);
    } else {
        let msg = format!(
            "reply of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
            payload.len()
        );
        put_frame(out, &Response::err(ErrorCode::TooLarge, msg).encode());
    }
}

/// Write until the socket would block. Compacts the flushed prefix
/// lazily so steady pipelining never memmoves per frame. Short writes
/// (including injected 1-byte ones) advance `woff` and continue — the
/// drain state machine picks up from the exact short position.
fn flush(conn: &mut Conn, shared: &Arc<Shared>) -> Verdict {
    let fd = conn.stream.as_raw_fd();
    while conn.has_unsent() {
        match write_fd(fd, &conn.wbuf[conn.woff..]) {
            Ok(n) => conn.woff += n,
            Err(e) => match e.kind() {
                SysErrorKind::WouldBlock => break,
                SysErrorKind::Interrupted => continue,
                kind => {
                    if kind != SysErrorKind::Disconnected {
                        shared
                            .stats
                            .io_errors
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    return Verdict::Drop;
                }
            },
        }
    }
    if conn.woff >= WBUF_COMPACT {
        conn.wbuf.drain(..conn.woff);
        conn.woff = 0;
    }
    Verdict::Keep
}

/// Hand each finished job's bytes back to its connection (in request
/// order — one job in flight per connection makes this trivially true)
/// and re-service it, which may immediately cut the next job.
fn deliver_completions(
    conns: &mut HashMap<u64, Conn>,
    ep: &Epoll,
    shared: &Arc<Shared>,
) {
    let dones = std::mem::take(&mut *lock_or_inner(&shared.done));
    for done in dones {
        let Some(conn) = conns.get_mut(&done.token) else {
            // The connection died while its job ran; the session (and
            // its pinned snapshot) drop here.
            continue;
        };
        conn.inflight = false;
        conn.session = done.session;
        conn.wbuf.extend_from_slice(&done.bytes);
        if done.close {
            conn.shut_after_flush = true;
            conn.pending.clear();
        }
        service(done.token, conns, ep, shared);
    }
}

/// Close every connection whose armed deadline has passed, with the same
/// classified farewell the blocking daemon sent (best-effort: the peer
/// blew a deadline, it may not be reading).
fn expire_deadlines(
    conns: &mut HashMap<u64, Conn>,
    ep: &Epoll,
    shared: &Arc<Shared>,
) {
    let now = Instant::now();
    let expired: Vec<(u64, DlKind)> = conns
        .iter()
        .filter_map(|(t, c)| {
            c.deadline
                .and_then(|(at, kind)| (now >= at).then_some((*t, kind)))
        })
        .collect();
    for (token, kind) in expired {
        let Some(conn) = conns.remove(&token) else { continue };
        shared.stats.deadline_closed.fetch_add(1, Ordering::Relaxed);
        let fd = conn.stream.as_raw_fd();
        let _ = ep.del(fd);
        let farewell = match kind {
            DlKind::Idle => Some("idle deadline"),
            DlKind::Request => {
                Some("request deadline while receiving frame")
            }
            // The peer is not draining our bytes; saying goodbye would
            // just be more undrained bytes.
            DlKind::Write => None,
        };
        if let Some(msg) = farewell {
            let frame = encode_frame(
                &Response::err(ErrorCode::Deadline, msg).encode(),
            );
            let _ = write_fd(fd, &frame);
        }
    }
}

// ---------------------------------------------------------------------------
// Query execution: inline fast path + worker pool
// ---------------------------------------------------------------------------

/// Pure queries: deterministic functions of the snapshot alone, so their
/// encoded replies are cacheable (and an `UnknownApi` refusal is just as
/// deterministic as a number).
fn is_pure(req: &Request) -> bool {
    matches!(
        req,
        Request::Importance { .. }
            | Request::Completeness { .. }
            | Request::Suggest { .. }
    )
}

/// The reactor-thread fast path: answers that need no compute and no
/// session — `Ping`, cached pure queries, and batches made entirely of
/// those — skip the worker round trip. Returns the encoded reply payload,
/// or `None` to dispatch a job. Counters are committed only on success,
/// so a half-inlineable batch is not half-counted.
fn inline_payload(
    req: &Request,
    snap: &Arc<Snapshot>,
    shared: &Shared,
) -> Option<Vec<u8>> {
    fn one(req: &Request, snap: &Snapshot, cache_on: bool) -> Option<(Vec<u8>, bool)> {
        match req {
            Request::Ping => Some((pong(snap).encode(), false)),
            r if cache_on && is_pure(r) => {
                snap.cache.get(&r.encode()).map(|payload| (payload, true))
            }
            _ => None,
        }
    }
    let cache_on = shared.opts.cache;
    match req {
        Request::Batch(subs) => {
            let mut payload = vec![9u8];
            payload.extend_from_slice(&(subs.len() as u32).to_le_bytes());
            let mut hits = 0u64;
            for sub in subs {
                let (bytes, hit) = one(sub, snap, cache_on)?;
                payload.extend_from_slice(&bytes);
                hits += u64::from(hit);
            }
            // Whole batch inlined: commit the counters now, atomically
            // with consumption.
            let s = &shared.stats;
            s.batch_frames.fetch_add(1, Ordering::Relaxed);
            s.batch_requests.fetch_add(subs.len() as u64, Ordering::Relaxed);
            s.cache_hits.fetch_add(hits, Ordering::Relaxed);
            Some(payload)
        }
        _ => {
            let (payload, hit) = one(req, snap, cache_on)?;
            if hit {
                shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            Some(payload)
        }
    }
}

fn pong(snap: &Snapshot) -> Response {
    Response::Pong {
        fingerprint: snap.fingerprint,
        generation: snap.generation,
        packages: snap.study.data().packages.len() as u32,
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock_or_inner(&shared.jobs);
            loop {
                if let Some(job) = q.queue.pop_front() {
                    break Some(job);
                }
                if q.closed {
                    break None;
                }
                q = match shared.jobs_cv.wait(q) {
                    Ok(g) => g,
                    Err(e) => e.into_inner(),
                };
            }
        };
        let Some(job) = job else { return };
        let done = run_job(job, shared);
        shared.push_done(done);
    }
}

/// Answer a job's frames in order, concatenating the encoded reply
/// frames. A `Shutdown` closes the connection and discards any later
/// pipelined frames (matching the blocking daemon, which stopped reading
/// after `Bye`).
fn run_job(job: Job, shared: &Shared) -> Done {
    let Job { token, items, snap, mut session } = job;
    let mut bytes = Vec::new();
    let mut close = false;
    for req in items {
        let (payload, after_close) =
            answer_frame(&req, &snap, &mut session, shared);
        shared.stats.served.fetch_add(1, Ordering::Relaxed);
        put_reply(&mut bytes, &payload);
        if after_close {
            close = true;
            break;
        }
    }
    Done { token, bytes, session, close }
}

/// One top-level frame's encoded reply payload plus a close flag. A
/// batch answers each sub-request in its slot; sub-request failures are
/// classified `Err` slots, never frame failures.
fn answer_frame(
    req: &Request,
    snap: &Arc<Snapshot>,
    session: &mut Option<SessionBox>,
    shared: &Shared,
) -> (Vec<u8>, bool) {
    match req {
        Request::Batch(subs) => {
            let s = &shared.stats;
            s.batch_frames.fetch_add(1, Ordering::Relaxed);
            s.batch_requests.fetch_add(subs.len() as u64, Ordering::Relaxed);
            let mut payload = vec![9u8];
            payload.extend_from_slice(&(subs.len() as u32).to_le_bytes());
            let mut close = false;
            for sub in subs {
                let (bytes, sub_close) =
                    answer_one(sub, snap, session, shared);
                payload.extend_from_slice(&bytes);
                close |= sub_close;
            }
            (payload, close)
        }
        _ => answer_one(req, snap, session, shared),
    }
}

/// One request's encoded reply payload. Pure queries go through the
/// snapshot's cache; the cached value is the encoded payload itself, so
/// hits are bit-identical to misses by construction.
fn answer_one(
    req: &Request,
    snap: &Arc<Snapshot>,
    session: &mut Option<SessionBox>,
    shared: &Shared,
) -> (Vec<u8>, bool) {
    if is_pure(req) {
        if shared.opts.cache {
            let key = req.encode();
            if let Some(payload) = snap.cache.get(&key) {
                shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                return (payload, false);
            }
            let payload = pure_answer(req, snap).encode();
            snap.cache.put(&key, &payload);
            shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            return (payload, false);
        }
        return (pure_answer(req, snap).encode(), false);
    }
    match req {
        Request::Ping => (pong(snap).encode(), false),
        Request::SessionOpen { supported } => {
            if let Some(bad) = first_unknown(snap, supported) {
                return (unknown_api(bad).encode(), false);
            }
            let set: HashSet<u32> = supported.iter().copied().collect();
            let mut sb = SessionBox::open(snap, &set);
            let completeness = sb.engine().completeness();
            *session = Some(sb);
            (
                Response::Session {
                    delta_bits: 0f64.to_bits(),
                    completeness_bits: completeness.to_bits(),
                }
                .encode(),
                false,
            )
        }
        Request::SessionAdd { nr }
        | Request::SessionRemove { nr }
        | Request::SessionProbe { nr } => {
            if let Some(bad) = first_unknown(snap, &[*nr]) {
                return (unknown_api(bad).encode(), false);
            }
            let Some(sb) = session.as_mut() else {
                return (
                    Response::err(
                        ErrorCode::BadRequest,
                        "no session open (send SessionOpen first)",
                    )
                    .encode(),
                    false,
                );
            };
            let api = Api::Syscall(*nr);
            let engine = sb.engine();
            let delta = match req {
                Request::SessionAdd { .. } => engine.add_api(api),
                Request::SessionRemove { .. } => engine.remove_api(api),
                _ => engine.probe_gain(api),
            };
            (
                Response::Session {
                    delta_bits: delta.to_bits(),
                    completeness_bits: engine.completeness().to_bits(),
                }
                .encode(),
                false,
            )
        }
        Request::Reload { expect_fingerprint } => {
            (reload(*expect_fingerprint, shared).encode(), false)
        }
        Request::Shutdown => {
            shared.begin_drain();
            (Response::Bye.encode(), true)
        }
        // Pure requests were handled above; a nested Batch cannot decode,
        // so reaching here is defensive, not reachable from the wire.
        Request::Batch(_) => (
            Response::err(ErrorCode::BadRequest, "nested batch").encode(),
            false,
        ),
        Request::Importance { .. }
        | Request::Completeness { .. }
        | Request::Suggest { .. } => (
            Response::err(ErrorCode::Internal, "pure request fell through")
                .encode(),
            false,
        ),
    }
}

/// Computes a pure query directly against the snapshot (the cache-miss
/// path, and the whole path when the cache is off).
fn pure_answer(req: &Request, snap: &Snapshot) -> Response {
    let metrics = snap.metrics();
    match req {
        Request::Importance { nr } => {
            if let Some(bad) = first_unknown(snap, &[*nr]) {
                return unknown_api(bad);
            }
            let api = Api::Syscall(*nr);
            Response::Importance {
                importance_bits: metrics.importance(api).to_bits(),
                unweighted_bits: metrics.unweighted_importance(api).to_bits(),
            }
        }
        Request::Completeness { supported } => {
            if let Some(bad) = first_unknown(snap, supported) {
                return unknown_api(bad);
            }
            let set: HashSet<u32> = supported.iter().copied().collect();
            Response::Completeness {
                bits: metrics.syscall_completeness(&set).to_bits(),
            }
        }
        Request::Suggest { supported, limit } => {
            if let Some(bad) = first_unknown(snap, supported) {
                return unknown_api(bad);
            }
            let set: HashSet<u32> = supported.iter().copied().collect();
            let n = (*limit as usize).min(MAX_PICKS);
            let picks = greedy_suggestions(&metrics, &set, n)
                .into_iter()
                .map(|(nr, gain)| (nr, gain.to_bits()))
                .collect();
            Response::Suggest { picks }
        }
        _ => Response::err(ErrorCode::Internal, "not a pure request"),
    }
}

/// `Some(nr)` for the first syscall number not in the catalog.
fn first_unknown(snap: &Snapshot, nrs: &[u32]) -> Option<u32> {
    nrs.iter()
        .copied()
        .find(|&nr| snap.study.data().catalog.syscalls.by_number(nr).is_none())
}

fn unknown_api(nr: u32) -> Response {
    Response::err(ErrorCode::UnknownApi, format!("syscall {nr} not in catalog"))
}

/// Clears the one-reload-at-a-time flag on every exit path.
struct ReloadGuard<'a>(&'a AtomicBool);

impl Drop for ReloadGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

fn reload(expect_fingerprint: u64, shared: &Shared) -> Response {
    let Some(rebuild) = shared.rebuild.as_ref() else {
        return Response::err(
            ErrorCode::BadRequest,
            "reload not configured for this server",
        );
    };
    if shared
        .reloading
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return Response::err(ErrorCode::Busy, "reload already in progress");
    }
    let _guard = ReloadGuard(&shared.reloading);
    let live = shared.live();
    if live.fingerprint != expect_fingerprint {
        return Response::err(
            ErrorCode::BadRequest,
            format!(
                "fingerprint mismatch: live {:#018x}, expected {:#018x}",
                live.fingerprint, expect_fingerprint
            ),
        );
    }
    let study = match rebuild() {
        Ok(s) => s,
        Err(e) => {
            return Response::err(
                ErrorCode::Internal,
                format!("rebuild failed: {e}"),
            );
        }
    };
    // The swap is the cache invalidation: the fresh snapshot carries a
    // fresh (empty) cache, and the old cache dies with the old world once
    // its pinned connections let go.
    let next = Arc::new(Snapshot::seal(study, live.generation + 1));
    let reply = Response::Reload {
        fingerprint: next.fingerprint,
        generation: next.generation,
    };
    match shared.snapshot.write() {
        Ok(mut g) => *g = next,
        Err(e) => *e.into_inner() = next,
    }
    shared.stats.reloads.fetch_add(1, Ordering::Relaxed);
    reply
}

// ---------------------------------------------------------------------------
// Self-audit: the paper's methodology applied to ourselves
// ---------------------------------------------------------------------------

/// The syscalls the reactor serving path exercises (modern event-driven
/// surface): `eventfd2` is what glibc's flag-bearing `eventfd` wrapper
/// invokes, and `clone` is absent — connections are state machines, not
/// threads.
const REACTOR_SYSCALLS: &[&str] = &[
    "epoll_create1",
    "epoll_ctl",
    "epoll_wait",
    "eventfd2",
    "accept4",
    "socket",
    "bind",
    "listen",
    "setsockopt",
    "read",
    "write",
    "close",
];

/// One row of the daemon's syscall self-audit: a syscall the serving
/// path uses, resolved against the snapshot's own catalog and importance
/// metric — the study's methodology applied to the studying daemon.
#[derive(Debug, Clone, Copy)]
pub struct AuditEntry {
    /// Syscall name as audited.
    pub name: &'static str,
    /// Catalog number, if the catalog knows it.
    pub nr: Option<u32>,
    /// The snapshot's API-importance for it, as `f64` bits.
    pub importance_bits: Option<u64>,
}

/// Audits the daemon's own serving syscall footprint against the served
/// catalog: every syscall the reactor uses, with its catalog number and
/// measured importance.
pub fn self_audit(snap: &Snapshot) -> Vec<AuditEntry> {
    let metrics = snap.metrics();
    let table = &snap.study.data().catalog.syscalls;
    REACTOR_SYSCALLS
        .iter()
        .map(|&name| {
            let nr = table.by_name(name).map(|def| def.number);
            let importance_bits = nr
                .map(|nr| metrics.importance(Api::Syscall(nr)).to_bits());
            AuditEntry { name, nr, importance_bits }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Exponential backoff with deterministic jitter for connect and `Busy`
/// retries. Fully seeded: two clients with different seeds desynchronize
/// their retries (the point of jitter) while every run is reproducible.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum attempts before giving up.
    pub attempts: u32,
    /// First delay; doubles per attempt.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
    /// Jitter seed (vary per client).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(1500),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

fn xorshift64star(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based): `base << attempt`
    /// capped at `cap`, plus deterministic jitter in `[0, delay/2)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.cap);
        let half = (exp.as_millis() as u64) / 2;
        if half == 0 {
            return exp;
        }
        let jitter = xorshift64star(
            self.seed ^ (u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F)),
        ) % half;
        exp + Duration::from_millis(jitter)
    }
}

/// Client-side failures, classified.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, send, or receive).
    Io(std::io::Error),
    /// The reply frame was damaged or deadline-expired.
    Frame(FrameError),
    /// The reply frame was intact but not a valid response encoding.
    Protocol,
    /// A batch call was answered with a frame-level classified error
    /// instead of per-slot replies (e.g. `Busy` at admission).
    Rejected(ErrorCode, String),
    /// Retries exhausted; the last failure's description.
    Exhausted(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Frame(e) => write!(f, "reply frame: {e}"),
            ClientError::Protocol => write!(f, "undecodable reply"),
            ClientError::Rejected(code, msg) => {
                write!(f, "batch rejected ({}): {msg}", code.label())
            }
            ClientError::Exhausted(last) => {
                write!(f, "retries exhausted; last failure: {last}")
            }
        }
    }
}

impl ClientError {
    /// Whether reconnect-and-retry can plausibly cure this failure.
    /// Transport trouble (socket errors, the peer gone, a reply that
    /// never arrived, a draining server) is retryable; a **malformed or
    /// classified-fatal reply** (checksum mismatch, oversized frame,
    /// undecodable payload, a batch-level rejection) is not — the
    /// server answered, the answer is wrong, and backoff-and-jitter
    /// would just replay the same failure while hiding it from the
    /// caller.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Frame(e) => e.is_transport(),
            ClientError::Protocol => false,
            ClientError::Rejected(..) => false,
            ClientError::Exhausted(_) => false,
        }
    }
}

impl std::error::Error for ClientError {}

/// A blocking daemon client with backoff-and-jitter reconnects. Every
/// call arms a fresh **per-request** absolute deadline — a stalled reply
/// on a reused connection is cut at one request budget, never the idle
/// budget (the old per-connection arming bug).
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    policy: RetryPolicy,
    deadline: Duration,
}

impl Client {
    /// Connects with backoff (a just-restarted or busy daemon is retried
    /// per `policy`). `deadline` bounds every request/reply exchange.
    pub fn connect(
        addr: SocketAddr,
        policy: RetryPolicy,
        deadline: Duration,
    ) -> Result<Self, ClientError> {
        let mut last = String::from("no attempt made");
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(policy.delay(attempt - 1));
            }
            match TcpStream::connect_timeout(&addr, deadline) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(Self { addr, stream, policy, deadline });
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(ClientError::Exhausted(last))
    }

    fn send_by(
        &self,
        bytes: &[u8],
        deadline_at: Instant,
    ) -> Result<(), ClientError> {
        let remaining = deadline_at
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        self.stream
            .set_write_timeout(Some(remaining))
            .map_err(ClientError::Io)?;
        (&self.stream).write_all(bytes).map_err(ClientError::Io)?;
        (&self.stream).flush().map_err(ClientError::Io)
    }

    fn recv_by(&self, deadline_at: Instant) -> Result<Response, ClientError> {
        let payload = read_frame_by(&self.stream, deadline_at)
            .map_err(ClientError::Frame)?;
        Response::decode(&payload).ok_or(ClientError::Protocol)
    }

    /// One request/reply exchange on the current connection, no retry,
    /// under one per-request absolute deadline. Server-side `Err` replies
    /// come back as `Ok(Response::Err { .. })` — the exchange itself
    /// succeeded.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let deadline_at = Instant::now() + self.deadline;
        self.send_by(&encode_frame(&req.encode()), deadline_at)?;
        self.recv_by(deadline_at)
    }

    /// Answers many requests through [`Request::Batch`] frames (chunked
    /// at [`MAX_BATCH`]), returning per-request replies in order. A
    /// frame-level classified error (the whole batch refused) surfaces
    /// as [`ClientError::Rejected`]; per-request failures are `Err`
    /// entries in their slots.
    pub fn call_batch(
        &mut self,
        reqs: &[Request],
    ) -> Result<Vec<Response>, ClientError> {
        let mut out = Vec::with_capacity(reqs.len());
        for chunk in reqs.chunks(MAX_BATCH) {
            if chunk.len() == 1 {
                out.push(self.call(&chunk[0])?);
                continue;
            }
            match self.call(&Request::Batch(chunk.to_vec()))? {
                Response::Batch(subs) => out.extend(subs),
                Response::Err { code, msg } => {
                    return Err(ClientError::Rejected(code, msg));
                }
                _ => return Err(ClientError::Protocol),
            }
        }
        Ok(out)
    }

    /// Writes every request's frame back-to-back, then reads the replies
    /// in order — pipelining over one connection without batch framing,
    /// so heterogeneous requests (sessions included) amortize round
    /// trips. Each reply gets its own fresh per-request deadline; the
    /// combined write gets one.
    pub fn call_pipelined(
        &mut self,
        reqs: &[Request],
    ) -> Result<Vec<Response>, ClientError> {
        let mut wire = Vec::new();
        for req in reqs {
            wire.extend_from_slice(&encode_frame(&req.encode()));
        }
        self.send_by(&wire, Instant::now() + self.deadline)?;
        let mut out = Vec::with_capacity(reqs.len());
        for _ in reqs {
            out.push(self.recv_by(Instant::now() + self.deadline)?);
        }
        Ok(out)
    }

    /// [`Client::call`] with reconnect-and-retry on **retryable**
    /// transport failure ([`ClientError::is_retryable`]) and on
    /// `Busy`/`Draining` replies (the admission-control and
    /// crash-restart path). A fatal classified failure — a malformed
    /// reply (checksum, oversize, undecodable) or a batch rejection —
    /// returns immediately: the server answered and retrying the same
    /// wrong answer would only burn the backoff budget. **Not** safe
    /// for session requests — a reconnect silently drops the
    /// per-connection session; callers re-open sessions themselves.
    pub fn call_retrying(
        &mut self,
        req: &Request,
    ) -> Result<Response, ClientError> {
        let mut last = String::from("no attempt made");
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.policy.delay(attempt - 1));
                if let Ok(stream) =
                    TcpStream::connect_timeout(&self.addr, self.deadline)
                {
                    let _ = stream.set_nodelay(true);
                    self.stream = stream;
                }
            }
            match self.call(req) {
                Ok(Response::Err { code, msg })
                    if matches!(
                        code,
                        ErrorCode::Busy | ErrorCode::Draining
                    ) =>
                {
                    last = format!("{}: {msg}", code.label());
                }
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_retryable() => last = e.to_string(),
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::Exhausted(last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apistudy_corpus::Scale;
    use std::io::Read as _;

    fn small_study() -> Study {
        Study::run(Scale { packages: 120, installations: 20_000 }, 3)
    }

    fn test_opts() -> ServeOptions {
        ServeOptions {
            port: 0,
            max_conns: 8,
            request_deadline: Duration::from_secs(2),
            idle_deadline: Duration::from_secs(5),
            ..ServeOptions::default()
        }
    }

    fn client(server: &Server) -> Client {
        Client::connect(
            server.addr(),
            RetryPolicy::default(),
            Duration::from_secs(5),
        )
        .expect("connect")
    }

    #[test]
    fn answers_are_bit_identical_to_direct_library_calls() {
        let study = small_study();
        let reference = small_study();
        let m = reference.metrics();
        let server =
            Server::start(study, None, test_opts()).expect("start");
        let mut c = client(&server);

        let Response::Pong { fingerprint, generation, packages } =
            c.call(&Request::Ping).expect("ping")
        else {
            panic!("expected Pong");
        };
        assert_eq!(fingerprint, snapshot_fingerprint(&reference));
        assert_eq!(generation, 0);
        assert_eq!(packages as usize, reference.data().packages.len());

        for nr in [0u32, 1, 2, 60] {
            let Response::Importance { importance_bits, unweighted_bits } =
                c.call(&Request::Importance { nr }).expect("importance")
            else {
                panic!("expected Importance");
            };
            let api = Api::Syscall(nr);
            assert_eq!(importance_bits, m.importance(api).to_bits());
            assert_eq!(
                unweighted_bits,
                m.unweighted_importance(api).to_bits()
            );
        }

        let supported: Vec<u32> =
            m.importance_ranking(apistudy_catalog::ApiKind::Syscall)
                .iter()
                .take(40)
                .filter_map(|(api, _)| match api {
                    Api::Syscall(nr) => Some(*nr),
                    _ => None,
                })
                .collect();
        let set: HashSet<u32> = supported.iter().copied().collect();
        let Response::Completeness { bits } = c
            .call(&Request::Completeness { supported: supported.clone() })
            .expect("completeness")
        else {
            panic!("expected Completeness");
        };
        assert_eq!(bits, m.syscall_completeness(&set).to_bits());

        let Response::Suggest { picks } = c
            .call(&Request::Suggest {
                supported: supported.clone(),
                limit: 5,
            })
            .expect("suggest")
        else {
            panic!("expected Suggest");
        };
        let direct = greedy_suggestions(&m, &set, 5);
        assert_eq!(picks.len(), direct.len());
        for ((nr, bits), (dnr, gain)) in picks.iter().zip(direct.iter()) {
            assert_eq!(nr, dnr);
            assert_eq!(*bits, gain.to_bits());
        }

        // Session: open → probe → add → remove must match a scratch
        // engine op for op, bit for bit.
        let mut engine = CompletenessEngine::for_syscalls(&m, &set);
        let Response::Session { delta_bits, completeness_bits } = c
            .call(&Request::SessionOpen { supported })
            .expect("session open")
        else {
            panic!("expected Session");
        };
        assert_eq!(delta_bits, 0f64.to_bits());
        assert_eq!(completeness_bits, engine.completeness().to_bits());
        let probe_nr = direct.first().map(|(nr, _)| *nr).unwrap_or(231);
        for (req, direct_delta) in [
            (
                Request::SessionProbe { nr: probe_nr },
                engine.probe_gain(Api::Syscall(probe_nr)),
            ),
            (
                Request::SessionAdd { nr: probe_nr },
                engine.add_api(Api::Syscall(probe_nr)),
            ),
            (
                Request::SessionRemove { nr: probe_nr },
                engine.remove_api(Api::Syscall(probe_nr)),
            ),
        ] {
            let Response::Session { delta_bits, completeness_bits } =
                c.call(&req).expect("session op")
            else {
                panic!("expected Session");
            };
            assert_eq!(delta_bits, direct_delta.to_bits(), "{req:?}");
            assert_eq!(
                completeness_bits,
                engine.completeness().to_bits(),
                "{req:?}"
            );
        }

        server.shutdown();
        server.wait();
    }

    #[test]
    fn pipelined_and_batch_replies_are_ordered_and_bit_identical() {
        let study = small_study();
        let reference = small_study();
        let m = reference.metrics();
        let server =
            Server::start(study, None, test_opts()).expect("start");
        let mut c = client(&server);

        // A mixed bundle: cheap and expensive, interleaved, twice (the
        // second pass hits the cache through the same code path).
        let reqs: Vec<Request> = vec![
            Request::Importance { nr: 0 },
            Request::Ping,
            Request::Completeness { supported: vec![0, 1, 60] },
            Request::Suggest { supported: vec![0, 1], limit: 3 },
            Request::Importance { nr: 60 },
        ];
        let expect: Vec<Response> = reqs
            .iter()
            .map(|r| c.call(r).expect("direct call"))
            .collect();
        for pass in 0..2 {
            let batched = c.call_batch(&reqs).expect("batch");
            assert_eq!(batched.len(), reqs.len(), "pass {pass}");
            let piped = c.call_pipelined(&reqs).expect("pipelined");
            assert_eq!(piped.len(), reqs.len(), "pass {pass}");
            for (i, want) in expect.iter().enumerate() {
                assert_eq!(&batched[i], want, "batch slot {i} pass {pass}");
                assert_eq!(&piped[i], want, "pipeline slot {i} pass {pass}");
            }
        }
        // Direct bit-identity of one slot against the library.
        let Response::Importance { importance_bits, .. } = expect[0] else {
            panic!("expected Importance");
        };
        assert_eq!(importance_bits, m.importance(Api::Syscall(0)).to_bits());

        let stats = server.stats();
        assert!(stats.batch_frames >= 2, "batch frames: {stats:?}");
        assert!(
            stats.batch_requests >= 2 * reqs.len() as u64,
            "batch requests: {stats:?}"
        );
        server.shutdown();
        server.wait();
    }

    #[test]
    fn cache_hits_are_bit_identical_and_counted() {
        let study = small_study();
        let server =
            Server::start(study, None, test_opts()).expect("start");
        let mut c = client(&server);
        let req = Request::Suggest { supported: vec![0, 1, 60], limit: 4 };
        let cold = c.call(&req).expect("cold");
        let warm = c.call(&req).expect("warm");
        assert_eq!(cold, warm, "hit must be bit-identical to miss");
        assert_eq!(cold.encode(), warm.encode());
        let stats = server.stats();
        assert!(stats.cache_misses >= 1, "stats: {stats:?}");
        assert!(stats.cache_hits >= 1, "stats: {stats:?}");
        server.shutdown();
        server.wait();

        // The same queries with the cache off produce the same bytes and
        // never touch the counters.
        let opts = ServeOptions { cache: false, ..test_opts() };
        let server =
            Server::start(small_study(), None, opts).expect("start");
        let mut c = client(&server);
        let uncached = c.call(&req).expect("uncached");
        assert_eq!(uncached, cold, "cache off must not change answers");
        let again = c.call(&req).expect("uncached again");
        assert_eq!(again, cold);
        let stats = server.stats();
        assert_eq!(stats.cache_hits, 0, "stats: {stats:?}");
        assert_eq!(stats.cache_misses, 0, "stats: {stats:?}");
        server.shutdown();
        server.wait();
    }

    #[test]
    fn client_deadline_is_armed_per_request() {
        // A server that accepts and then never replies: each call must
        // be cut at its own request deadline, not the connection's
        // accumulated idle budget (the old per-connection arming bug).
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let hold = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            // Swallow everything; never write back.
            let mut sink = [0u8; 1024];
            while let Ok(n) = s.read(&mut sink) {
                if n == 0 {
                    break;
                }
            }
        });
        let mut c = Client::connect(
            addr,
            RetryPolicy { attempts: 1, ..RetryPolicy::default() },
            Duration::from_millis(300),
        )
        .expect("connect");
        for round in 0..2 {
            let t0 = Instant::now();
            let err = c.call(&Request::Ping).expect_err("no reply must fail");
            let took = t0.elapsed();
            assert!(
                matches!(err, ClientError::Frame(_)),
                "round {round}: {err:?}"
            );
            assert!(
                took >= Duration::from_millis(200),
                "round {round} cut too early: {took:?}"
            );
            assert!(
                took < Duration::from_millis(1500),
                "round {round} waited past its own budget: {took:?}"
            );
        }
        drop(c);
        let _ = hold.join();
    }

    #[test]
    fn self_audit_resolves_every_reactor_syscall() {
        let snap = Snapshot::seal(small_study(), 0);
        let audit = self_audit(&snap);
        assert_eq!(audit.len(), REACTOR_SYSCALLS.len());
        // Every reactor syscall is in the catalog the daemon serves —
        // the study can measure its own server.
        for entry in &audit {
            assert!(
                entry.nr.is_some() && entry.importance_bits.is_some(),
                "{} unresolved",
                entry.name
            );
        }
    }

    #[test]
    fn misuse_gets_classified_errors_not_panics() {
        let server =
            Server::start(small_study(), None, test_opts()).expect("start");
        let mut c = client(&server);

        // Unknown syscall number.
        let resp = c.call(&Request::Importance { nr: 99_999 }).expect("call");
        assert!(matches!(
            resp,
            Response::Err { code: ErrorCode::UnknownApi, .. }
        ));
        // Session op without a session.
        let resp = c.call(&Request::SessionAdd { nr: 0 }).expect("call");
        assert!(matches!(
            resp,
            Response::Err { code: ErrorCode::BadRequest, .. }
        ));
        // Reload on a server with no rebuild recipe.
        let resp = c
            .call(&Request::Reload { expect_fingerprint: 0 })
            .expect("call");
        assert!(matches!(
            resp,
            Response::Err { code: ErrorCode::BadRequest, .. }
        ));
        // Intact frame, garbage payload: classified reply, connection
        // survives.
        (&c.stream)
            .write_all(&encode_frame(&[0xFFu8, 1, 2, 3]))
            .expect("write");
        let payload = read_frame_by(
            &c.stream,
            Instant::now() + Duration::from_secs(2),
        )
        .expect("reply");
        assert!(matches!(
            Response::decode(&payload),
            Some(Response::Err { code: ErrorCode::BadRequest, .. })
        ));
        let resp = c.call(&Request::Ping).expect("still alive");
        assert!(matches!(resp, Response::Pong { .. }));

        server.shutdown();
        server.wait();
    }

    #[test]
    fn over_cap_reply_becomes_too_large_and_the_connection_survives() {
        // 64 Suggest plans of 256 picks each encode to a 196,933-byte
        // reply, three times MAX_FRAME, from an 849-byte request. The
        // client would refuse that frame unread; the daemon must answer
        // TooLarge instead and keep the connection in sync.
        let study =
            Study::run(Scale { packages: 150, installations: 14_250 }, 2016);
        let server = Server::start(study, None, test_opts()).expect("start");
        let mut c = Client::connect(
            server.addr(),
            RetryPolicy::default(),
            Duration::from_secs(120),
        )
        .expect("connect");
        let batch = Request::Batch(
            (0..MAX_BATCH as u32)
                .map(|i| Request::Suggest {
                    supported: vec![i],
                    limit: MAX_PICKS as u32,
                })
                .collect(),
        );
        assert!(encode_frame(&batch.encode()).len() <= MAX_FRAME);
        match c.call(&batch).expect("an answer, not a refused frame") {
            Response::Err { code: ErrorCode::TooLarge, msg } => {
                assert!(msg.contains("196933"), "size named: {msg}");
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert!(matches!(
            c.call(&Request::Ping).expect("ping after the refusal"),
            Response::Pong { .. }
        ));
        server.shutdown();
        server.wait();
    }

    #[test]
    fn damaged_frames_get_classified_replies_and_close() {
        let server =
            Server::start(small_study(), None, test_opts()).expect("start");

        // Checksum damage.
        let c = client(&server);
        let mut frame = encode_frame(&Request::Ping.encode());
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        (&c.stream).write_all(&frame).expect("send");
        let payload = read_frame_by(
            &c.stream,
            Instant::now() + Duration::from_secs(2),
        )
        .expect("reply");
        assert!(matches!(
            Response::decode(&payload),
            Some(Response::Err { code: ErrorCode::BadFrame, .. })
        ));

        // Oversized length prefix.
        let c = client(&server);
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        (&c.stream).write_all(&frame).expect("send");
        let payload = read_frame_by(
            &c.stream,
            Instant::now() + Duration::from_secs(2),
        )
        .expect("reply");
        assert!(matches!(
            Response::decode(&payload),
            Some(Response::Err { code: ErrorCode::TooLarge, .. })
        ));

        assert!(server.stats().malformed >= 2);
        server.shutdown();
        server.wait();
    }

    #[test]
    fn slowloris_is_cut_at_the_request_deadline() {
        let mut opts = test_opts();
        opts.request_deadline = Duration::from_millis(300);
        let server =
            Server::start(small_study(), None, opts).expect("start");
        let c = client(&server);
        let frame = encode_frame(&Request::Ping.encode());
        // Dribble one byte, then stall past the request deadline.
        (&c.stream).write_all(&frame[..1]).expect("first byte");
        let payload = read_frame_by(
            &c.stream,
            Instant::now() + Duration::from_secs(5),
        )
        .expect("deadline reply");
        assert!(matches!(
            Response::decode(&payload),
            Some(Response::Err { code: ErrorCode::Deadline, .. })
        ));
        assert!(server.stats().deadline_closed >= 1);
        server.shutdown();
        server.wait();
    }

    #[test]
    fn admission_control_rejects_with_busy_and_client_retries() {
        let mut opts = test_opts();
        opts.max_conns = 1;
        let server =
            Server::start(small_study(), None, opts).expect("start");
        // First client occupies the only slot.
        let mut first = client(&server);
        assert!(matches!(
            first.call(&Request::Ping).expect("ping"),
            Response::Pong { .. }
        ));
        // Second connection is told Busy explicitly.
        let mut second = Client::connect(
            server.addr(),
            RetryPolicy {
                attempts: 4,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(40),
                seed: 7,
            },
            Duration::from_secs(2),
        )
        .expect("tcp connect");
        let payload = read_frame_by(
            &second.stream,
            Instant::now() + Duration::from_secs(2),
        )
        .expect("busy reply");
        assert!(matches!(
            Response::decode(&payload),
            Some(Response::Err { code: ErrorCode::Busy, .. })
        ));
        // After the first client leaves, retrying succeeds.
        drop(first);
        let resp = second
            .call_retrying(&Request::Ping)
            .expect("retry after slot frees");
        assert!(matches!(resp, Response::Pong { .. }));
        assert!(server.stats().rejected_busy >= 1);
        server.shutdown();
        server.wait();
    }

    #[test]
    fn reload_swaps_atomically_and_pins_open_connections() {
        let study = small_study();
        let boot_fp = snapshot_fingerprint(&study);
        // The rebuild recipe returns a *different* corpus, so the swap is
        // observable: fingerprints differ across generations.
        let rebuild: Box<Rebuild> = Box::new(|| {
            Ok(Study::run(
                Scale { packages: 130, installations: 25_000 },
                23,
            ))
        });
        let server = Server::start(study, Some(rebuild), test_opts())
            .expect("start");
        let mut pinned = client(&server);
        let Response::Pong { fingerprint: old_fp, .. } =
            pinned.call(&Request::Ping).expect("ping")
        else {
            panic!("expected Pong");
        };
        assert_eq!(old_fp, boot_fp);

        let mut admin = Client::connect(
            server.addr(),
            RetryPolicy::default(),
            Duration::from_secs(30),
        )
        .expect("connect admin");
        // Wrong expected fingerprint: refused, nothing swapped.
        let resp = admin
            .call(&Request::Reload { expect_fingerprint: old_fp ^ 1 })
            .expect("call");
        assert!(matches!(
            resp,
            Response::Err { code: ErrorCode::BadRequest, .. }
        ));
        // Correct fingerprint: swapped, generation bumps.
        let Response::Reload { fingerprint: new_fp, generation } = admin
            .call(&Request::Reload { expect_fingerprint: old_fp })
            .expect("reload")
        else {
            panic!("expected Reload");
        };
        assert_ne!(new_fp, old_fp);
        assert_eq!(generation, 1);

        // The connection opened before the swap still answers from its
        // pinned snapshot; a fresh connection sees the new world.
        let Response::Pong { fingerprint, generation, .. } =
            pinned.call(&Request::Ping).expect("pinned ping")
        else {
            panic!("expected Pong");
        };
        assert_eq!(fingerprint, old_fp);
        assert_eq!(generation, 0);
        let mut fresh = client(&server);
        let Response::Pong { fingerprint, generation, .. } =
            fresh.call(&Request::Ping).expect("fresh ping")
        else {
            panic!("expected Pong");
        };
        assert_eq!(fingerprint, new_fp);
        assert_eq!(generation, 1);
        assert_eq!(server.stats().reloads, 1);
        server.shutdown();
        server.wait();
    }

    #[test]
    fn shutdown_request_drains_gracefully() {
        let server =
            Server::start(small_study(), None, test_opts()).expect("start");
        let mut c = client(&server);
        let resp = c.call(&Request::Shutdown).expect("shutdown");
        assert!(matches!(resp, Response::Bye));
        // wait() must return (bounded drain), and the port must refuse
        // new work afterwards.
        let stats = server.wait();
        assert!(stats.served >= 1);
    }

    #[test]
    fn backoff_delays_grow_and_jitter_deterministically() {
        let p = RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(400),
            seed: 42,
        };
        let d: Vec<Duration> = (0..5).map(|a| p.delay(a)).collect();
        // Monotone envelope: each delay's floor doubles until the cap.
        assert!(d[1] >= Duration::from_millis(20));
        assert!(d[2] >= Duration::from_millis(40));
        assert!(d[4] <= Duration::from_millis(400 + 200));
        // Deterministic: same policy, same delays.
        let again: Vec<Duration> = (0..5).map(|a| p.delay(a)).collect();
        assert_eq!(d, again);
        // Different seeds desynchronize.
        let q = RetryPolicy { seed: 43, ..p };
        assert_ne!(
            (0..5).map(|a| p.delay(a)).collect::<Vec<_>>(),
            (0..5).map(|a| q.delay(a)).collect::<Vec<_>>()
        );
    }
}
