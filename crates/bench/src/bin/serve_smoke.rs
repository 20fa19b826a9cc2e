//! CI smoke gate for the epoll-reactor query daemon.
//!
//! **In-process mode** (default): starts [`Server`] over the 150-package
//! reference corpus and drives three waves, failing unless every reply
//! is **bit-identical** to the direct library call:
//!
//! 1. the latency wave — 64 concurrent clients of 32 requests each
//!    (a ping/importance/completeness/suggest mix), gated on
//!    [`MIN_QPS`] and [`MAX_P99_MS`];
//! 2. the batch wave — pipelined [`Request::Batch`] frames, measuring
//!    the amortized sub-request throughput;
//! 3. the 256-client scaling point — a connection count the old
//!    thread-per-connection pool could not admit, which must complete
//!    with **zero** busy rejections and zero dropped connections.
//!
//! **Check mode** (`--check`, used by CI): never rewrites
//! BENCH_pipeline.json; instead fails if the measured numbers regress
//! past the absolute gates *or* fall more than 2x behind the committed
//! baseline keys, so a perf regression can't merge invisibly by
//! overwriting its own reference numbers.
//!
//! **Subprocess mode** (`--bin <path to apistudy>`): additionally boots
//! the real binary with an on-disk footprint store, `kill -9`s it
//! mid-service, restarts it against the same store, and requires the
//! restarted daemon to present the same fingerprint and bit-identical
//! answers to a client reconnecting with backoff — the crash/restart
//! gate, now exercising the reactor accept path. (A separate flag
//! because `CARGO_BIN_EXE_*` is not available to bench binaries; CI
//! passes `./target/release/apistudy`.)
//!
//! Usage: `serve_smoke [--clients N] [--requests N] [--no-json]
//! [--check] [--bin PATH]`.

use std::collections::HashSet;
use std::io::{BufRead as _, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use apistudy_bench::{record, recorded};
use apistudy_catalog::Api;
use apistudy_core::{
    greedy_suggestions, Client, Metrics, Request, Response, RetryPolicy,
    Server, ServeOptions, Study,
};
use apistudy_corpus::Scale;

/// Aggregate throughput floor on the latency wave. The reactor's inline
/// fast path answers pings and cache hits without a worker round trip,
/// so loopback throughput at 150 packages clears this with headroom;
/// the gate is the ISSUE 9 target (1.5x the thread-per-connection
/// baseline's 11.5k).
const MIN_QPS: f64 = 17_000.0;

/// p99 round-trip ceiling on the latency wave, milliseconds. The
/// thread-per-connection daemon measured 33.7 ms here (head-of-line
/// blocking behind slow queries); the reactor target is a third of
/// that.
const MAX_P99_MS: f64 = 11.0;

/// A `--check` run also compares against the committed
/// BENCH_pipeline.json keys: measured p99 may be at most this factor
/// above the recorded value, and qps at most this factor below.
const CHECK_SLACK: f64 = 2.0;

/// Client count for the scaling wave.
const SCALE_CLIENTS: usize = 256;

/// Requests per client on the scaling wave.
const SCALE_REQUESTS: usize = 8;

/// Same corpus as the serve_chaos suite and the `--scale 150 --seed
/// 2016` command line (`--scale N` implies `installations = 95·N`).
fn reference_study() -> Study {
    Study::run(Scale { packages: 150, installations: 14_250 }, 2016)
}

/// Syscall numbers the importance probes cycle through.
const PROBE_NRS: [u32; 4] = [0, 1, 9, 60];

/// The supported set used for completeness and suggest probes.
fn base_set() -> Vec<u32> {
    vec![0, 1, 2, 3, 9, 60, 231]
}

/// Ground truth computed once from the library, compared bit-for-bit
/// against every reply.
struct Expected {
    fingerprint: u64,
    importance: Vec<(u64, u64)>,
    completeness_bits: u64,
    picks: Vec<(u32, u64)>,
}

fn expected(study: &Study) -> Expected {
    let m = Metrics::new(study.data());
    let set: HashSet<u32> = base_set().into_iter().collect();
    Expected {
        fingerprint: apistudy_core::snapshot_fingerprint(study),
        importance: PROBE_NRS
            .iter()
            .map(|&nr| {
                (
                    m.importance(Api::Syscall(nr)).to_bits(),
                    m.unweighted_importance(Api::Syscall(nr)).to_bits(),
                )
            })
            .collect(),
        completeness_bits: m.syscall_completeness(&set).to_bits(),
        picks: greedy_suggestions(&m, &set, 3)
            .into_iter()
            .map(|(nr, gain)| (nr, gain.to_bits()))
            .collect(),
    }
}

/// The i-th request of the standard probe mix.
fn probe(i: usize) -> Request {
    match i % 8 {
        0 => Request::Ping,
        7 => Request::Suggest { supported: base_set(), limit: 3 },
        3 | 5 => Request::Completeness { supported: base_set() },
        k => Request::Importance { nr: PROBE_NRS[k % PROBE_NRS.len()] },
    }
}

/// Panics unless `resp` is the bit-identical answer to `probe(i)`.
fn verify(i: usize, resp: Response, exp: &Expected) {
    match (i % 8, resp) {
        (0, Response::Pong { fingerprint, .. }) => {
            assert_eq!(fingerprint, exp.fingerprint, "fingerprint drift")
        }
        (7, Response::Suggest { picks }) => {
            assert_eq!(picks, exp.picks, "suggest picks diverged")
        }
        (3 | 5, Response::Completeness { bits }) => assert_eq!(
            bits, exp.completeness_bits,
            "completeness bits diverged"
        ),
        (k, Response::Importance { importance_bits, unweighted_bits }) => {
            let want = exp.importance[k % PROBE_NRS.len()];
            assert_eq!(
                (importance_bits, unweighted_bits),
                want,
                "importance bits diverged for nr {}",
                PROBE_NRS[k % PROBE_NRS.len()]
            );
        }
        (_, other) => panic!("unexpected reply {other:?}"),
    }
}

/// Unmeasured requests each client runs before its timed loop, so the
/// wave measures steady-state serving rather than the thread-spawn and
/// connect stampede (one full probe-mix cycle warms the query cache).
const WARMUP: usize = 8;

/// One client's request loop: returns per-request latencies (ns).
/// Connects, runs [`WARMUP`] unmeasured requests, parks on `gate`
/// until every client is warm, then times `requests` round trips.
/// Panics on any non-bit-identical reply; the panic propagates through
/// the join and fails the gate.
fn client_load(
    addr: SocketAddr,
    seed: u64,
    requests: usize,
    gate: &std::sync::Barrier,
    exp: &Expected,
) -> Vec<u128> {
    let mut c = Client::connect(
        addr,
        RetryPolicy { seed, ..RetryPolicy::default() },
        Duration::from_secs(10),
    )
    .expect("connect to in-process server");
    for i in 0..WARMUP {
        verify(i, c.call(&probe(i)).expect("warm-up request"), exp);
    }
    gate.wait();
    let mut lat = Vec::with_capacity(requests);
    for i in 0..requests {
        let req = probe(i);
        let start = Instant::now();
        let resp = c.call(&req).expect("request failed");
        lat.push(start.elapsed().as_nanos());
        verify(i, resp, exp);
    }
    lat
}

/// One batch client's loop: `rounds` batches of `width` probe-mix
/// sub-requests over a single connection, every reply verified.
fn batch_load(
    addr: SocketAddr,
    seed: u64,
    rounds: usize,
    width: usize,
    exp: &Expected,
) {
    let mut c = Client::connect(
        addr,
        RetryPolicy { seed, ..RetryPolicy::default() },
        Duration::from_secs(10),
    )
    .expect("connect batch client");
    let reqs: Vec<Request> = (0..width).map(probe).collect();
    for _ in 0..rounds {
        let replies = c.call_batch(&reqs).expect("batch round");
        assert_eq!(replies.len(), width, "batch reply count");
        for (i, resp) in replies.into_iter().enumerate() {
            verify(i, resp, exp);
        }
    }
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// `--check`: compare the measured latency-wave numbers against the
/// committed baseline; a regression past [`CHECK_SLACK`] fails the run
/// even if the absolute gates still pass.
fn check_against_recorded(p99_us: u128, qps: f64) -> bool {
    let mut ok = true;
    if let Some(base) = recorded("serve_p99_us") {
        let cap = base as f64 * CHECK_SLACK;
        println!(
            "check: p99 {p99_us} us vs recorded {base} us (cap {cap:.0})"
        );
        if p99_us as f64 > cap {
            eprintln!("FAIL: p99 regressed past {CHECK_SLACK}x baseline");
            ok = false;
        }
    }
    if let Some(base) = recorded("serve_qps") {
        let floor = base as f64 / CHECK_SLACK;
        println!("check: {qps:.0} qps vs recorded {base} (floor {floor:.0})");
        if qps < floor {
            eprintln!("FAIL: qps regressed past {CHECK_SLACK}x baseline");
            ok = false;
        }
    }
    ok
}

/// Spawns the real binary serving the reference corpus, parses the
/// readiness line into (child, addr, fingerprint).
fn spawn_daemon(bin: &Path, extra: &[&str]) -> (Child, SocketAddr, u64) {
    let mut cmd = Command::new(bin);
    cmd.args(["--scale", "150", "--seed", "2016"]);
    cmd.args(extra);
    cmd.arg("serve");
    cmd.stdout(Stdio::piped());
    cmd.stderr(Stdio::null());
    cmd.env_remove("APISTUDY_JOURNAL_CRASH_AFTER");
    cmd.env_remove("APISTUDY_ITEM_DEADLINE_MS");
    cmd.env_remove("APISTUDY_CACHE");
    let mut child = cmd.spawn().expect("spawn apistudy serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let ready = BufReader::new(stdout)
        .lines()
        .map_while(|l| l.ok())
        .find(|l| l.starts_with("serving on "))
        .expect("daemon exited before readiness line");
    let addr: SocketAddr = ready
        .strip_prefix("serving on ")
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable readiness line {ready:?}"));
    let fingerprint = ready
        .split("fingerprint ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
        .unwrap_or_else(|| panic!("no fingerprint in {ready:?}"));
    (child, addr, fingerprint)
}

/// The crash/restart gate: kill -9 a store-backed daemon, restart it
/// against the same store, and require the restarted daemon to present
/// the same fingerprint and bit-identical answers to a client
/// reconnecting with backoff.
fn kill9_gate(bin: &Path, exp: &Expected) {
    let dir = std::env::temp_dir()
        .join(format!("apistudy-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let store = dir.join("footprints.apsf");
    let store_arg = store.to_str().expect("utf8 path");

    let (mut boot1, addr1, fp1) =
        spawn_daemon(bin, &["--store", store_arg]);
    assert_eq!(fp1, exp.fingerprint, "boot 1 fingerprint");
    let mut c = Client::connect(
        addr1,
        RetryPolicy::default(),
        Duration::from_secs(10),
    )
    .expect("connect to boot 1");
    match c.call(&Request::Importance { nr: 1 }).expect("boot 1 answers") {
        Response::Importance { importance_bits, unweighted_bits } => {
            assert_eq!(
                (importance_bits, unweighted_bits),
                exp.importance[1],
                "boot 1 importance bits"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }
    boot1.kill().expect("kill -9 boot 1");
    let _ = boot1.wait();

    // Restart against the same store: completed shards replay instead
    // of being re-measured, and the identity must carry over exactly.
    let restart = Instant::now();
    let (mut boot2, addr2, fp2) =
        spawn_daemon(bin, &["--resume", "--store", store_arg]);
    assert_eq!(fp2, exp.fingerprint, "boot 2 fingerprint after kill -9");
    let mut c = Client::connect(
        addr2,
        RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(400),
            seed: 0x5E12_5E12,
        },
        Duration::from_secs(10),
    )
    .expect("reconnect to boot 2 with backoff");
    match c.call(&Request::Importance { nr: 1 }).expect("boot 2 answers") {
        Response::Importance { importance_bits, unweighted_bits } => {
            assert_eq!(
                (importance_bits, unweighted_bits),
                exp.importance[1],
                "boot 2 importance bits after restart"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }
    // The restarted daemon must also take batch frames end to end.
    let reqs: Vec<Request> = (0..8).map(probe).collect();
    for (i, resp) in
        c.call_batch(&reqs).expect("boot 2 batch").into_iter().enumerate()
    {
        verify(i, resp, exp);
    }
    assert!(matches!(
        c.call(&Request::Shutdown).expect("shutdown boot 2"),
        Response::Bye
    ));
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match boot2.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "boot 2 must drain cleanly");
                break;
            }
            None if Instant::now() > deadline => {
                boot2.kill().ok();
                panic!("boot 2 hung past the drain deadline");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "kill -9 -> store replay -> reconnect: bit-identical in {:.1} s",
        restart.elapsed().as_secs_f64()
    );
}

fn main() {
    let mut clients = 64usize;
    let mut requests = 32usize;
    let mut write_json = true;
    let mut check = false;
    let mut bin: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let parse = |v: Option<String>| -> usize {
        v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            eprintln!(
                "usage: serve_smoke [--clients N] [--requests N] \
                 [--no-json] [--check] [--bin PATH]"
            );
            std::process::exit(2)
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => clients = parse(args.next()),
            "--requests" => requests = parse(args.next()),
            "--no-json" => write_json = false,
            "--check" => {
                check = true;
                write_json = false;
            }
            "--bin" => bin = args.next(),
            _ => {
                parse(None);
            }
        }
    }

    let study = reference_study();
    let exp = expected(&study);
    let server = Server::start(
        study,
        None,
        ServeOptions {
            max_conns: clients.max(SCALE_CLIENTS) + 8,
            ..ServeOptions::default()
        },
    )
    .expect("start in-process server");
    let addr = server.addr();

    // Wave 1: the latency wave — one request in flight per connection,
    // per-request round trips measured from a barrier all warm clients
    // park on (the main thread holds the extra slot and starts the
    // wall clock when the barrier releases).
    let gate = std::sync::Barrier::new(clients + 1);
    let (mut latencies, elapsed): (Vec<u128>, Duration) =
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    let (exp, gate) = (&exp, &gate);
                    s.spawn(move || {
                        client_load(
                            addr,
                            0xC0FFEE ^ i as u64,
                            requests,
                            gate,
                            exp,
                        )
                    })
                })
                .collect();
            gate.wait();
            let wall = Instant::now();
            let lat = handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect();
            (lat, wall.elapsed())
        });
    latencies.sort_unstable();
    let total = (clients * requests) as u64;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let qps = total as f64 / elapsed.as_secs_f64();
    println!(
        "{clients} clients x {requests} requests: p50 {:.0} us, p99 {:.0} \
         us, {qps:.0} qps",
        p50 as f64 / 1e3,
        p99 as f64 / 1e3,
    );

    // Wave 2: the batch wave — 8 clients x 8 rounds x 32-wide Batch
    // frames, measuring amortized sub-request throughput.
    const BATCH_CLIENTS: usize = 8;
    const BATCH_ROUNDS: usize = 8;
    const BATCH_WIDTH: usize = 32;
    let wall = Instant::now();
    std::thread::scope(|s| {
        for i in 0..BATCH_CLIENTS {
            let exp = &exp;
            s.spawn(move || {
                batch_load(
                    addr,
                    0xBA7C4 ^ i as u64,
                    BATCH_ROUNDS,
                    BATCH_WIDTH,
                    exp,
                )
            });
        }
    });
    let batch_subs = (BATCH_CLIENTS * BATCH_ROUNDS * BATCH_WIDTH) as u64;
    let batch_qps = batch_subs as f64 / wall.elapsed().as_secs_f64();
    println!(
        "{BATCH_CLIENTS} batch clients x {BATCH_ROUNDS} x {BATCH_WIDTH}-wide \
         frames: {batch_qps:.0} sub-requests/s"
    );

    // Wave 3: the scaling point — 256 concurrent connections, a count
    // the thread-per-connection pool refused at the door. Every connect
    // must land (rejected_busy stays 0) and every reply must verify.
    let gate = std::sync::Barrier::new(SCALE_CLIENTS + 1);
    // `scope` joins every client before returning, so `start.elapsed()`
    // afterwards spans barrier release to last reply.
    let start = std::thread::scope(|s| {
        for i in 0..SCALE_CLIENTS {
            let (exp, gate) = (&exp, &gate);
            s.spawn(move || {
                client_load(addr, 0x256C ^ i as u64, SCALE_REQUESTS, gate, exp)
            });
        }
        gate.wait();
        Instant::now()
    });
    let scale_total = (SCALE_CLIENTS * SCALE_REQUESTS) as u64;
    let scale_qps = scale_total as f64 / start.elapsed().as_secs_f64();
    println!(
        "{SCALE_CLIENTS} clients x {SCALE_REQUESTS} requests: \
         {scale_qps:.0} qps, zero drops"
    );

    server.shutdown();
    let stats = server.wait();
    let batch_frames = (BATCH_CLIENTS * BATCH_ROUNDS) as u64;
    let warmups = ((clients + SCALE_CLIENTS) * WARMUP) as u64;
    let expect_served = total + batch_frames + scale_total + warmups;
    assert!(
        stats.served >= expect_served,
        "server answered {} of {expect_served} requests",
        stats.served
    );
    assert_eq!(
        stats.rejected_busy, 0,
        "admission cap tripped under cap — dropped connections"
    );
    assert_eq!(stats.batch_frames, batch_frames, "batch frame count");
    assert_eq!(stats.batch_requests, batch_subs, "batch sub-request count");
    assert!(
        stats.cache_hits > 0,
        "repeated pure queries never hit the snapshot cache"
    );
    println!(
        "counters: {} served, cache {} hits / {} misses, batch {} frames",
        stats.served, stats.cache_hits, stats.cache_misses,
        stats.batch_frames
    );

    if write_json {
        if let Err(e) = record(&[
            ("serve_p50_us", p50 / 1000),
            ("serve_p99_us", p99 / 1000),
            ("serve_qps", qps as u128),
            ("serve_batch_qps", batch_qps as u128),
            ("serve_c256_qps", scale_qps as u128),
        ]) {
            eprintln!("could not update BENCH_pipeline.json: {e}");
        }
    }

    if let Some(bin) = bin {
        kill9_gate(Path::new(&bin), &exp);
    }

    let mut ok = true;
    let p99_ms = p99 as f64 / 1e6;
    if qps < MIN_QPS || p99_ms > MAX_P99_MS {
        eprintln!(
            "FAIL: {qps:.0} qps (gate {MIN_QPS}), p99 {p99_ms:.2} ms \
             (gate {MAX_P99_MS} ms)"
        );
        ok = false;
    }
    if check && !check_against_recorded(p99 / 1000, qps) {
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
    println!(
        "PASS: every reply bit-identical; >= {MIN_QPS} qps, p99 <= \
         {MAX_P99_MS} ms, {SCALE_CLIENTS} clients with zero drops"
    );
}
