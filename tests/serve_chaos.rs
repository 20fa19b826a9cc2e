//! Chaos harness for the query daemon, end to end through the real
//! binary: fuzzed bytes, truncated frames, slowloris writers, random
//! disconnects, and a mid-query `kill -9` — after every wave the daemon
//! must still answer, its stderr must show **zero panics**, every client
//! operation must complete within a bound (**zero hangs** — every socket
//! read in this file carries a deadline), and every reply must be
//! **bit-identical** to the direct library call.

use std::collections::HashSet;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apistudy::catalog::Api;
use apistudy::core::proto::encode_frame;
use apistudy::core::{
    greedy_suggestions, Client, ErrorCode, Request, Response, RetryPolicy,
    Study,
};
use apistudy::corpus::Scale;

/// The daemon's corpus recipe — must match the `--scale 150 --seed 2016`
/// command line (`--scale N` implies `installations = 95·N`).
fn reference_study() -> Study {
    Study::run(Scale { packages: 150, installations: 14_250 }, 2016)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("apistudy-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

struct Daemon {
    child: Child,
    addr: SocketAddr,
    fingerprint: u64,
    stderr_path: PathBuf,
}

impl Daemon {
    /// Spawns `apistudy … serve …`, waits for the readiness line, and
    /// parses the bound address and snapshot fingerprint from it.
    fn start(dir: &Path, tag: &str, pre: &[&str], serve: &[&str]) -> Self {
        let stderr_path = dir.join(format!("daemon-{tag}.stderr"));
        let stderr_file =
            std::fs::File::create(&stderr_path).expect("stderr file");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_apistudy"));
        cmd.args(["--scale", "150", "--seed", "2016"]);
        cmd.args(pre);
        cmd.arg("serve");
        cmd.args(serve);
        cmd.stdout(Stdio::piped());
        cmd.stderr(Stdio::from(stderr_file));
        cmd.env_remove("APISTUDY_JOURNAL_CRASH_AFTER");
        cmd.env_remove("APISTUDY_ITEM_DEADLINE_MS");
        cmd.env_remove("APISTUDY_CACHE");
        let mut child = cmd.spawn().expect("spawn daemon");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let ready = lines
            .next()
            .and_then(|l| l.ok())
            .unwrap_or_else(|| {
                let err = std::fs::read_to_string(&stderr_path)
                    .unwrap_or_default();
                panic!("daemon exited before readiness line; stderr:\n{err}")
            });
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
        Self { child, addr, fingerprint, stderr_path }
    }

    fn client(&self) -> Client {
        Client::connect(
            self.addr,
            RetryPolicy::default(),
            Duration::from_secs(10),
        )
        .expect("connect to daemon")
    }

    /// SIGKILL — the unclean death the store must survive.
    fn kill9(&mut self) {
        self.child.kill().expect("kill -9 daemon");
        let _ = self.child.wait();
    }

    /// Graceful stop through the protocol, then reap the process.
    fn shutdown(mut self) -> String {
        let mut c = self.client();
        assert!(matches!(
            c.call(&Request::Shutdown).expect("shutdown request"),
            Response::Bye
        ));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(
                        status.success(),
                        "daemon must exit cleanly after drain: {status:?}"
                    );
                    break;
                }
                None if Instant::now() > deadline => {
                    self.child.kill().ok();
                    panic!("daemon hung past the drain deadline");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    fn stderr_so_far(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }
}

fn assert_no_panics(stderr: &str) {
    assert!(
        !stderr.to_lowercase().contains("panic"),
        "daemon stderr shows a panic:\n{stderr}"
    );
}

/// Deterministic byte noise (no process randomness: every chaos run is
/// reproducible).
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.0 >> 16
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// A raw socket with every read deadline-bound — the harness itself must
/// never hang on a wedged daemon; it must fail the test instead.
fn raw_conn(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .expect("raw connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    s.set_write_timeout(Some(Duration::from_secs(10))).expect("timeout");
    s
}

/// The daemon must answer a ping with the expected identity — the
/// liveness probe after each chaos wave.
fn assert_alive(daemon: &Daemon) {
    let mut c = daemon.client();
    match c.call(&Request::Ping).expect("ping after chaos wave") {
        Response::Pong { fingerprint, .. } => {
            assert_eq!(fingerprint, daemon.fingerprint)
        }
        other => panic!("expected Pong, got {other:?}"),
    }
}

#[test]
fn chaos_waves_never_panic_and_answers_stay_bit_identical() {
    let dir = scratch("waves");
    // A short request deadline makes the slowloris wave fast; chaos
    // connections are cut at ~1.5 s instead of the 5 s default.
    let daemon = Daemon::start(
        &dir,
        "waves",
        &[],
        &["--request-deadline-ms", "1500"],
    );

    // Reference answers computed directly in this process.
    let reference = reference_study();
    let m = reference.metrics();
    let supported: HashSet<u32> = [0u32, 1, 2, 3, 9, 60, 231].into();
    let supported_vec: Vec<u32> = {
        let mut v: Vec<u32> = supported.iter().copied().collect();
        v.sort_unstable();
        v
    };

    let bit_identical = |daemon: &Daemon| {
        let mut c = daemon.client();
        for nr in [0u32, 1, 9, 60] {
            let Response::Importance { importance_bits, unweighted_bits } =
                c.call(&Request::Importance { nr }).expect("importance")
            else {
                panic!("expected Importance reply");
            };
            let api = Api::Syscall(nr);
            assert_eq!(
                importance_bits,
                m.importance(api).to_bits(),
                "importance({nr}) drifted from the library"
            );
            assert_eq!(unweighted_bits, m.unweighted_importance(api).to_bits());
        }
        let Response::Completeness { bits } = c
            .call(&Request::Completeness { supported: supported_vec.clone() })
            .expect("completeness")
        else {
            panic!("expected Completeness reply");
        };
        assert_eq!(bits, m.syscall_completeness(&supported).to_bits());
        let Response::Suggest { picks } = c
            .call(&Request::Suggest {
                supported: supported_vec.clone(),
                limit: 5,
            })
            .expect("suggest")
        else {
            panic!("expected Suggest reply");
        };
        let direct = greedy_suggestions(&m, &supported, 5);
        assert_eq!(
            picks,
            direct
                .into_iter()
                .map(|(nr, g)| (nr, g.to_bits()))
                .collect::<Vec<_>>(),
            "greedy picks drifted from the library"
        );
    };
    bit_identical(&daemon);

    // Wave 1: pure fuzz — garbage bytes, read whatever comes back.
    let mut noise = Noise(0xC4A0_5EED);
    for round in 0..24 {
        let mut s = raw_conn(daemon.addr);
        let garbage = noise.bytes(1 + (round * 37) % 513);
        let _ = s.write_all(&garbage);
        let mut sink = [0u8; 256];
        let _ = std::io::Read::read(&mut s, &mut sink);
    }
    assert_alive(&daemon);
    bit_identical(&daemon);

    // Wave 2: truncated frames — every strict prefix of a valid frame,
    // connection dropped mid-frame.
    let frame = encode_frame(&Request::Ping.encode());
    for cut in 1..frame.len() {
        let mut s = raw_conn(daemon.addr);
        let _ = s.write_all(&frame[..cut]);
        drop(s);
    }
    assert_alive(&daemon);

    // Wave 3: slowloris — a frame dribbled one byte at a time, far slower
    // than the request deadline. The daemon must classify and cut us off,
    // not wait forever.
    let mut s = raw_conn(daemon.addr);
    s.write_all(&frame[..1]).expect("first byte");
    let started = Instant::now();
    let reply = apistudy::core::read_frame_by(
        &s,
        Instant::now() + Duration::from_secs(15),
    )
    .expect("the daemon must reply before the harness deadline");
    assert!(
        matches!(
            Response::decode(&reply),
            Some(Response::Err { code: ErrorCode::Deadline, .. })
        ),
        "slowloris must earn a classified Deadline reply"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "slowloris cutoff took too long: {:?}",
        started.elapsed()
    );
    assert_alive(&daemon);

    // Wave 4: random disconnects — valid requests, connection dropped
    // without reading the reply; interleaved with half-written frames.
    for round in 0..24 {
        let mut s = raw_conn(daemon.addr);
        let full = encode_frame(
            &Request::Importance { nr: (round % 300) as u32 }.encode(),
        );
        let cut = if round % 3 == 0 {
            1 + (noise.next() as usize) % (full.len() - 1)
        } else {
            full.len()
        };
        let _ = s.write_all(&full[..cut]);
        drop(s);
    }
    assert_alive(&daemon);
    bit_identical(&daemon);

    // Wave 5: a frame that *claims* the maximum possible length.
    let mut s = raw_conn(daemon.addr);
    let mut huge = Vec::new();
    huge.extend_from_slice(&u32::MAX.to_le_bytes());
    huge.extend_from_slice(&0u64.to_le_bytes());
    s.write_all(&huge).expect("oversize header");
    let reply = apistudy::core::read_frame_by(
        &s,
        Instant::now() + Duration::from_secs(10),
    )
    .expect("oversize frames get a reply, not a hang");
    assert!(matches!(
        Response::decode(&reply),
        Some(Response::Err { code: ErrorCode::TooLarge, .. })
    ));
    assert_alive(&daemon);
    bit_identical(&daemon);

    assert_no_panics(&daemon.stderr_so_far());
    let stderr = daemon.shutdown();
    assert_no_panics(&stderr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mixed-framing load across an atomic snapshot reload: single-frame
/// clients, pipelined clients (many frames written back to back), and
/// Batch-frame clients all hammer the daemon while an admin client
/// triggers a `Reload`. The swap must be invisible — every reply before,
/// during, and after the reload stays bit-identical to the library
/// (the rebuild is deterministic, so the new snapshot answers with the
/// same bits), no client sees an error, and the generation bumps.
#[test]
fn reload_under_mixed_pipelined_and_single_frame_load_stays_bit_identical() {
    use std::sync::atomic::AtomicU64;

    let dir = scratch("reload-mix");
    let daemon = Daemon::start(&dir, "mix", &[], &[]);

    let reference = reference_study();
    let m = reference.metrics();
    let probe_nrs = [0u32, 1, 9, 60];
    let imp_bits: Vec<(u64, u64)> = probe_nrs
        .iter()
        .map(|&nr| {
            let api = Api::Syscall(nr);
            (
                m.importance(api).to_bits(),
                m.unweighted_importance(api).to_bits(),
            )
        })
        .collect();
    let supported_vec = vec![0u32, 1, 2, 3, 9, 60, 231];
    let supported: HashSet<u32> = supported_vec.iter().copied().collect();
    let completeness_bits = m.syscall_completeness(&supported).to_bits();

    // One probe-mix request and its bit-exact check, shared by all three
    // client shapes (index-stable so pipelined/batch replies line up).
    let request_at = |i: usize| -> Request {
        match i % 6 {
            0 => Request::Ping,
            5 => Request::Completeness { supported: supported_vec.clone() },
            k => Request::Importance { nr: probe_nrs[k % probe_nrs.len()] },
        }
    };
    let check_at = |i: usize, resp: &Response| match (i % 6, resp) {
        (0, Response::Pong { fingerprint, .. }) => {
            assert_eq!(*fingerprint, daemon.fingerprint, "fingerprint drift")
        }
        (5, Response::Completeness { bits }) => {
            assert_eq!(*bits, completeness_bits, "completeness drifted")
        }
        (k, Response::Importance { importance_bits, unweighted_bits }) => {
            assert_eq!(
                (*importance_bits, *unweighted_bits),
                imp_bits[k % probe_nrs.len()],
                "importance drifted mid-reload"
            );
        }
        (_, other) => panic!("unexpected reply {other:?}"),
    };

    let stop = AtomicBool::new(false);
    let rounds = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
    let all_past = |floor: [u64; 3]| {
        rounds
            .iter()
            .zip(floor)
            .all(|(r, f)| r.load(Ordering::SeqCst) >= f + 3)
    };

    std::thread::scope(|s| {
        // Shape 0: single-frame clients, one call per round trip.
        for t in 0..2 {
            let (stop, rounds) = (&stop, &rounds);
            let (request_at, check_at) = (&request_at, &check_at);
            let addr = daemon.addr;
            s.spawn(move || {
                let mut c = Client::connect(
                    addr,
                    RetryPolicy::default(),
                    Duration::from_secs(10),
                )
                .expect("single-frame client connects");
                let mut i = t;
                while !stop.load(Ordering::SeqCst) {
                    let resp = c
                        .call(&request_at(i))
                        .expect("single-frame call survives reload");
                    check_at(i, &resp);
                    i += 1;
                    rounds[0].fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        // Shape 1: pipelined clients — 12 frames written back to back,
        // replies read in order.
        for t in 0..2 {
            let (stop, rounds) = (&stop, &rounds);
            let (request_at, check_at) = (&request_at, &check_at);
            let addr = daemon.addr;
            s.spawn(move || {
                let mut c = Client::connect(
                    addr,
                    RetryPolicy::default(),
                    Duration::from_secs(10),
                )
                .expect("pipelined client connects");
                let reqs: Vec<Request> =
                    (t..t + 12).map(request_at).collect();
                while !stop.load(Ordering::SeqCst) {
                    let replies = c
                        .call_pipelined(&reqs)
                        .expect("pipelined wave survives reload");
                    for (k, resp) in replies.iter().enumerate() {
                        check_at(t + k, resp);
                    }
                    rounds[1].fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(3));
                }
            });
        }
        // Shape 2: batch clients — one 16-wide Batch frame per round.
        for t in 0..2 {
            let (stop, rounds) = (&stop, &rounds);
            let (request_at, check_at) = (&request_at, &check_at);
            let addr = daemon.addr;
            s.spawn(move || {
                let mut c = Client::connect(
                    addr,
                    RetryPolicy::default(),
                    Duration::from_secs(10),
                )
                .expect("batch client connects");
                let reqs: Vec<Request> =
                    (t..t + 16).map(request_at).collect();
                while !stop.load(Ordering::SeqCst) {
                    let replies = c
                        .call_batch(&reqs)
                        .expect("batch frame survives reload");
                    for (k, resp) in replies.iter().enumerate() {
                        check_at(t + k, resp);
                    }
                    rounds[2].fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(3));
                }
            });
        }

        // Let every shape make progress, then reload mid-flight.
        let flowing = Instant::now() + Duration::from_secs(10);
        while !all_past([0, 0, 0]) {
            assert!(Instant::now() < flowing, "load never started flowing");
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut admin = Client::connect(
            daemon.addr,
            RetryPolicy::default(),
            Duration::from_secs(60),
        )
        .expect("admin client connects");
        let Response::Pong { generation: gen_before, .. } =
            admin.call(&Request::Ping).expect("pre-reload ping")
        else {
            panic!("expected Pong");
        };
        let at_reload = [
            rounds[0].load(Ordering::SeqCst),
            rounds[1].load(Ordering::SeqCst),
            rounds[2].load(Ordering::SeqCst),
        ];
        match admin
            .call(&Request::Reload {
                expect_fingerprint: daemon.fingerprint,
            })
            .expect("reload completes under load")
        {
            Response::Reload { fingerprint, generation } => {
                assert_eq!(
                    fingerprint, daemon.fingerprint,
                    "deterministic rebuild must land on the same identity"
                );
                assert!(generation > gen_before, "generation must bump");
            }
            other => panic!("expected Reload reply, got {other:?}"),
        }
        // Every shape must keep answering bit-identically on the new
        // snapshot before the wave is allowed to stop.
        let recovered = Instant::now() + Duration::from_secs(20);
        while !all_past(at_reload) {
            assert!(
                Instant::now() < recovered,
                "clients stalled after the reload swap"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
    });

    assert_no_panics(&daemon.stderr_so_far());
    let stderr = daemon.shutdown();
    assert_no_panics(&stderr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Errno chaos through the real binary: the daemon runs with the
/// syscall-fault shim armed (`--sys-faults "*:auto@every7"`, three
/// seeds), injecting a site-plausible errno — `EINTR`, `EAGAIN`, short
/// I/O, `EMFILE`, `ENOMEM` — into every 7th shimmed syscall while
/// clients hammer real queries. Every reply must be bit-identical to
/// the direct library call or a classified error, the daemon must
/// drain cleanly, and its stderr must show zero panics and a non-zero
/// injection ledger.
///
/// The period is deliberately co-prime with the reactor's accept cycle
/// (5 shimmed syscalls per idle accept): a period of 5 *resonates* —
/// the injection lands on `epoll_ctl(ADD)` for every single new
/// connection, each one correctly classified `Busy` but availability
/// pinned at zero. With 7, the phase walks and every path gets hit.
#[test]
fn errno_chaos_replies_stay_bit_identical_or_classified() {
    let reference = reference_study();
    let m = reference.metrics();
    let probe_nrs = [0u32, 1, 9, 60];
    let imp_bits: Vec<u64> = probe_nrs
        .iter()
        .map(|&nr| m.importance(Api::Syscall(nr)).to_bits())
        .collect();

    for seed in [0xC4A0u64, 0xC4A1, 0xC4A2] {
        let dir = scratch(&format!("errno-{seed:x}"));
        let spec = format!("*:auto@every7;seed={seed}");
        let daemon = Daemon::start(
            &dir,
            "errno",
            &[],
            &["--request-deadline-ms", "1500", "--sys-faults", &spec],
        );

        let policy = RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(20),
            cap: Duration::from_millis(200),
            seed,
        };
        let mut clean = 0u32;
        let mut classified = 0u32;
        for round in 0..30u32 {
            // Fresh connections each round keep the accept path (and
            // its EMFILE pause/resume machinery) in the blast radius.
            let Ok(mut c) = Client::connect(
                daemon.addr,
                policy,
                Duration::from_secs(10),
            ) else {
                classified += 1;
                continue;
            };
            let nr = probe_nrs[(round as usize) % probe_nrs.len()];
            match c.call_retrying(&Request::Importance { nr }) {
                Ok(Response::Importance { importance_bits, .. }) => {
                    assert_eq!(
                        importance_bits,
                        imp_bits[(round as usize) % probe_nrs.len()],
                        "seed {seed:#x} round {round}: importance({nr}) \
                         drifted under errno chaos"
                    );
                    clean += 1;
                }
                Ok(Response::Err { .. }) | Err(_) => classified += 1,
                Ok(other) => panic!(
                    "seed {seed:#x}: unexpected reply {other:?}"
                ),
            }
        }
        // Injected faults are absorbable or classified-and-recoverable;
        // with retries the overwhelming majority of rounds must land.
        assert!(
            clean >= 24,
            "seed {seed:#x}: only {clean}/30 rounds succeeded \
             ({classified} classified)"
        );
        // Liveness probe, chaos-tolerant: the shim is still armed, so
        // the probe's own connection registration can eat an injected
        // fault and come back classified (`busy`) — retry on a fresh
        // connection until a Pong lands.
        let mut alive = false;
        for _ in 0..10 {
            let mut c = daemon.client();
            match c.call(&Request::Ping) {
                Ok(Response::Pong { fingerprint, .. }) => {
                    assert_eq!(fingerprint, daemon.fingerprint);
                    alive = true;
                    break;
                }
                Ok(Response::Err { .. }) | Err(_) => continue,
                Ok(other) => panic!(
                    "seed {seed:#x}: liveness probe got {other:?}"
                ),
            }
        }
        assert!(alive, "seed {seed:#x}: no Pong in 10 liveness probes");

        // Graceful stop, retried: the Shutdown call itself can eat an
        // injected fault and come back classified. Bye means this call
        // won the drain; Draining means an earlier attempt already did.
        let mut acked = false;
        for _ in 0..10 {
            let Ok(mut c) = Client::connect(
                daemon.addr,
                policy,
                Duration::from_secs(5),
            ) else {
                break; // refused: the daemon is already exiting
            };
            match c.call(&Request::Shutdown) {
                Ok(Response::Bye)
                | Ok(Response::Err { code: ErrorCode::Draining, .. }) => {
                    acked = true;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        assert!(acked, "seed {seed:#x}: shutdown never acknowledged");
        let mut daemon = daemon;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match daemon.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(
                        status.success(),
                        "daemon must drain cleanly under chaos: {status:?}"
                    );
                    break;
                }
                None if Instant::now() > deadline => {
                    daemon.child.kill().ok();
                    panic!("daemon hung past the drain deadline");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        let stderr = daemon.stderr_so_far();
        assert_no_panics(&stderr);
        assert!(
            stderr.contains("sys-faults armed"),
            "daemon must log the armed plan:\n{stderr}"
        );
        let injected: u64 = stderr
            .lines()
            .find_map(|l| l.strip_prefix("sys-faults injected: "))
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or_else(|| {
                panic!("no injection ledger in stderr:\n{stderr}")
            });
        assert!(
            injected > 0,
            "seed {seed:#x}: periodic chaos never fired"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill9_mid_query_then_restart_from_store_reconnects_bit_identical() {
    let dir = scratch("kill9");
    let store = dir.join("footprints.apsf");
    let store_arg = store.to_str().expect("utf8 path");

    // Boot 1 creates the store; boot 2 must replay it after the kill.
    let mut first =
        Daemon::start(&dir, "boot1", &["--store", store_arg], &[]);

    let reference = reference_study();
    let m = reference.metrics();
    let expect_bits = m.importance(Api::Syscall(1)).to_bits();

    // A client hammering queries across the kill: every *successful*
    // reply — before the crash, and after reconnecting via backoff —
    // must carry the exact reference bits.
    let addr_slot = Arc::new(Mutex::new(first.addr));
    let stop = Arc::new(AtomicBool::new(false));
    let results: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let failures = Arc::new(AtomicBool::new(false));
    let worker = {
        let addr_slot = Arc::clone(&addr_slot);
        let stop = Arc::clone(&stop);
        let results = Arc::clone(&results);
        let failures = Arc::clone(&failures);
        std::thread::spawn(move || {
            let policy = RetryPolicy {
                attempts: 4,
                base: Duration::from_millis(25),
                cap: Duration::from_millis(400),
                seed: 0xC11E,
            };
            while !stop.load(Ordering::SeqCst) {
                let addr = *addr_slot.lock().expect("addr slot");
                let Ok(mut client) =
                    Client::connect(addr, policy, Duration::from_secs(5))
                else {
                    // Daemon down: backoff already applied inside
                    // connect; note the outage and retry.
                    failures.store(true, Ordering::SeqCst);
                    continue;
                };
                while !stop.load(Ordering::SeqCst) {
                    match client.call(&Request::Importance { nr: 1 }) {
                        Ok(Response::Importance { importance_bits, .. }) => {
                            results
                                .lock()
                                .expect("results")
                                .push(importance_bits);
                        }
                        _ => {
                            // Mid-query death: classified on this side as
                            // a transport error, never a hang.
                            failures.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        })
    };

    // Let queries flow, then kill -9 mid-stream.
    let flowing = Instant::now() + Duration::from_secs(2);
    while results.lock().expect("results").len() < 5 {
        assert!(Instant::now() < flowing, "no queries flowed before kill");
        std::thread::sleep(Duration::from_millis(20));
    }
    first.kill9();
    let killed_at = results.lock().expect("results").len();

    // Restart against the same store; completed shards replay instead of
    // recomputing.
    let second = Daemon::start(
        &dir,
        "boot2",
        &["--resume", "--store", store_arg],
        &[],
    );
    assert_eq!(
        second.fingerprint, first.fingerprint,
        "restart must serve the same sealed world"
    );
    assert!(
        second.stderr_so_far().contains("replayed"),
        "boot 2 must replay the store, not recompute:\n{}",
        second.stderr_so_far()
    );
    *addr_slot.lock().expect("addr slot") = second.addr;

    // The worker must reconnect (via its backoff policy) and produce
    // fresh successful replies.
    let recovered = Instant::now() + Duration::from_secs(30);
    while results.lock().expect("results").len() < killed_at + 5 {
        assert!(
            Instant::now() < recovered,
            "client never recovered after restart"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::SeqCst);
    worker.join().expect("worker thread");

    assert!(
        failures.load(Ordering::SeqCst),
        "the kill must have been observed as at least one failed call"
    );
    let all = results.lock().expect("results");
    assert!(all.len() >= killed_at + 5);
    for (i, bits) in all.iter().enumerate() {
        assert_eq!(
            *bits, expect_bits,
            "reply {i} drifted from the reference bits"
        );
    }
    drop(all);

    // The first daemon died by SIGKILL — no panic may appear in either
    // log for any other reason.
    assert_no_panics(
        &std::fs::read_to_string(dir.join("daemon-boot1.stderr"))
            .unwrap_or_default(),
    );
    let stderr = second.shutdown();
    assert_no_panics(&stderr);
    let _ = std::fs::remove_dir_all(&dir);
}
