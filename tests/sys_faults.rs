//! The exhaustive syscall-fault sweep: PR 5 injected a fault at every
//! byte offset of the journal; this suite injects a fault at every
//! *syscall position* of a live serve session and a journaled append
//! run, and re-proves the invariants under each one:
//!
//! - the daemon never panics and never hangs past its deadlines;
//! - every reply is bit-identical to the fault-free baseline **or** a
//!   classified error — never silent corruption;
//! - after an injected `ENOSPC`/`EIO` append failure the journal and
//!   store fail stop (fsyncgate), and resume recovers the longest
//!   valid prefix byte-identically;
//! - disarmed, the shim observes nothing and changes nothing.
//!
//! The injector is process-global, so every test that arms it
//! serializes on one mutex.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use apistudy::core::sysfault::{
    self, SysFaultKind, SysFaultPlan,
};
use apistudy::core::{
    Client, ClientError, FrameError, Journal, JournalError, JournalRecord,
    Request, Response, RetryPolicy, RunFingerprint, RunKind, RunOptions,
    ServeOptions, Server, Shards, StoreStats, Study,
};
use apistudy::corpus::{CalibrationSpec, Scale, SynthRepo};

/// The injector is process-global; every armed test holds this.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    match GATE.lock() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    }
}

fn small_study() -> Study {
    Study::run(Scale { packages: 120, installations: 20_000 }, 11)
}

/// A `shard`-package streamed study of `scale` with its store at `path`.
fn stored_study(
    scale: Scale,
    seed: u64,
    shard: usize,
    path: &Path,
    resume: bool,
) -> Result<(Study, StoreStats), JournalError> {
    let repo = SynthRepo::new(scale, CalibrationSpec::default(), seed);
    let opts = RunOptions {
        shards: Shards::Size(shard),
        ..RunOptions::default()
    };
    Study::run_on(repo, &opts, Some((path, resume)))
}

fn serve_opts() -> ServeOptions {
    ServeOptions {
        port: 0,
        max_conns: 16,
        request_deadline: Duration::from_millis(400),
        idle_deadline: Duration::from_millis(400),
        workers: 2,
        cache: true,
    }
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        base: Duration::from_millis(20),
        cap: Duration::from_millis(100),
        seed: 7,
    }
}

fn canonical_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Importance { nr: 1 },
        Request::Completeness { supported: vec![0, 1, 2, 3, 9, 60] },
        Request::Suggest { supported: vec![0, 1, 2, 3], limit: 3 },
    ]
}

/// One canonical client session: connect, issue the fixed request
/// list one call at a time, return each exchange's outcome. Every
/// socket operation is deadline-bounded, so an injected server-side
/// stall surfaces as a classified client error, never a hang.
fn run_session(addr: SocketAddr) -> Vec<Result<Response, ClientError>> {
    let mut out = Vec::new();
    let mut client =
        match Client::connect(addr, policy(), Duration::from_secs(2)) {
            Ok(c) => c,
            Err(e) => {
                out.push(Err(e));
                return out;
            }
        };
    for req in canonical_requests() {
        let res = client.call(&req);
        let failed = res.is_err();
        out.push(res);
        if failed {
            // The connection may be desynchronized; the session ends
            // with a classified failure rather than undefined reads.
            break;
        }
    }
    out
}

/// A fault-free exchange must match the baseline bit-for-bit; under
/// faults it may instead be a classified error (server- or client-side).
fn assert_classified_or_identical(
    k: u64,
    got: &[Result<Response, ClientError>],
    baseline: &[Vec<u8>],
) {
    for (i, res) in got.iter().enumerate() {
        match res {
            Ok(Response::Err { .. }) => {} // classified server error
            Ok(resp) => {
                assert_eq!(
                    resp.encode(),
                    baseline[i],
                    "k={k}: reply {i} diverged from baseline \
                     without being classified"
                );
            }
            Err(_) => {} // classified client error (deadline, reset, busy)
        }
    }
}

/// The headline sweep: measure how many shimmed syscalls one canonical
/// serve session intercepts, then re-run the session once per position
/// k with a site-plausible fault injected at the k-th intercepted call.
/// After every position the daemon must still answer a clean probe.
#[test]
fn serve_session_survives_a_fault_at_every_syscall_position() {
    let _g = gate();
    sysfault::clear();

    let server = Server::start(small_study(), None, serve_opts())
        .expect("server start");
    let addr = server.addr();

    // Fault-free baseline, twice: once unshimmed (proves the counting
    // plan itself changes nothing), once under an empty counting plan
    // to measure the session's syscall count N.
    let bare = run_session(addr);
    sysfault::install(SysFaultPlan::counting());
    let counted = run_session(addr);
    let n = sysfault::intercepted_count();
    assert!(
        sysfault::clear().is_empty(),
        "a counting plan must never inject"
    );
    assert!(n > 10, "a 4-request session must cross the shim (n={n})");

    let baseline: Vec<Vec<u8>> = bare
        .iter()
        .map(|r| match r {
            Ok(resp) => resp.encode(),
            Err(e) => panic!("fault-free baseline failed: {e}"),
        })
        .collect();
    for (i, res) in counted.iter().enumerate() {
        let bytes = match res {
            Ok(resp) => resp.encode(),
            Err(e) => panic!("counted baseline failed: {e}"),
        };
        assert_eq!(
            bytes, baseline[i],
            "an empty plan must leave replies bit-identical"
        );
    }

    // Background reactor activity (epoll ticks) may consume a few
    // positions between install and the session's first syscall; the
    // sweep still covers every position the session itself can reach.
    let sweep_to = n.min(150);
    let mut injected_total = 0u64;
    for k in 1..=sweep_to {
        sysfault::install(
            SysFaultPlan { seed: k, ..SysFaultPlan::default() }
                .at_global(SysFaultKind::Auto, k),
        );
        let got = run_session(addr);
        let ledger = sysfault::clear();
        injected_total += ledger.len() as u64;
        assert!(
            ledger.len() <= 1,
            "k={k}: a once-only trigger fired {} times",
            ledger.len()
        );
        assert_classified_or_identical(k, &got, &baseline);

        // The daemon must have shrugged the fault off entirely: with
        // the shim disarmed, a fresh client with retries gets the
        // bit-exact Ping back.
        let mut probe =
            Client::connect(addr, policy(), Duration::from_secs(2))
                .expect("probe connect after fault k={k}");
        let pong = probe
            .call_retrying(&Request::Ping)
            .unwrap_or_else(|e| panic!("k={k}: daemon unhealthy: {e}"));
        assert_eq!(pong.encode(), baseline[0], "k={k}: ping diverged");
    }
    assert!(
        injected_total > sweep_to / 2,
        "the sweep must actually inject at most positions \
         ({injected_total}/{sweep_to})"
    );

    server.shutdown();
    let stats = server.wait();
    assert!(stats.served > 4 * sweep_to, "sessions were really served");
}

/// Sustained periodic chaos: every 7th syscall fails (site-plausible,
/// three seeds) while full sessions run back to back. Replies stay
/// bit-identical or classified, and the daemon drains cleanly.
#[test]
fn periodic_errno_chaos_keeps_replies_bit_identical_or_classified() {
    let _g = gate();
    sysfault::clear();

    let server = Server::start(small_study(), None, serve_opts())
        .expect("server start");
    let addr = server.addr();
    let baseline: Vec<Vec<u8>> = run_session(addr)
        .iter()
        .map(|r| match r {
            Ok(resp) => resp.encode(),
            Err(e) => panic!("fault-free baseline failed: {e}"),
        })
        .collect();

    for seed in [1u64, 2, 3] {
        sysfault::install(
            SysFaultPlan { seed, ..SysFaultPlan::default() }.every(
                "*",
                SysFaultKind::Auto,
                7,
            ),
        );
        for _ in 0..4 {
            let got = run_session(addr);
            assert_classified_or_identical(seed, &got, &baseline);
        }
        let ledger = sysfault::clear();
        assert!(
            !ledger.is_empty(),
            "seed {seed}: periodic chaos never fired"
        );
        // Every injection was plausible for its site — the ledger is
        // the ground truth the Auto resolver is held to.
        for rec in &ledger {
            assert!(
                sysfault::plausible_faults(rec.site).contains(&rec.kind),
                "{:?} implausible at {}",
                rec.kind,
                rec.site
            );
        }
    }

    let mut probe = Client::connect(addr, policy(), Duration::from_secs(2))
        .expect("probe connect");
    assert_eq!(
        probe.call_retrying(&Request::Ping).expect("ping").encode(),
        baseline[0]
    );
    server.shutdown();
    server.wait();
}

/// Fd exhaustion pauses accepting; resuming re-adds the listener to
/// epoll. When that `epoll_ctl(ADD)` fails too, no event will wake the
/// idle reactor, so it must retry on its own: the next client is still
/// served instead of waiting in the listen backlog forever.
#[test]
fn accepting_resumes_after_a_failed_listener_reregistration() {
    let _g = gate();
    sysfault::clear();
    let server = Server::start(small_study(), None, serve_opts())
        .expect("server start");
    let addr = server.addr();
    // A fault-free round trip first: the reactor has registered the
    // listener before anything is armed.
    let mut warm = Client::connect(addr, policy(), Duration::from_secs(2))
        .expect("connect");
    assert!(matches!(warm.call(&Request::Ping), Ok(Response::Pong { .. })));
    drop(warm);
    // The next accept hits fd exhaustion, which pauses accepting; the
    // next listener registration is the resume, and it fails.
    sysfault::install(
        SysFaultPlan::default()
            .at_site("accept4", SysFaultKind::Emfile, 1)
            .at_site("epoll_ctl(ADD)", SysFaultKind::Enomem, 1),
    );
    let mut turned_away =
        Client::connect(addr, policy(), Duration::from_secs(2))
            .expect("connect");
    // Told Busy, or reset before the Busy frame is read: classified.
    if let Ok(reply) = turned_away.call(&Request::Ping) {
        assert!(
            matches!(reply, Response::Err { .. }),
            "the exhausted accept must turn the client away: {reply:?}"
        );
    }
    let mut next = Client::connect(addr, policy(), Duration::from_secs(2))
        .expect("connect");
    assert!(
        matches!(next.call(&Request::Ping), Ok(Response::Pong { .. })),
        "accepting never resumed"
    );
    let ledger = sysfault::clear();
    let fired: Vec<(&str, SysFaultKind)> =
        ledger.iter().map(|r| (r.site, r.kind)).collect();
    assert_eq!(
        fired,
        [
            ("accept4", SysFaultKind::Emfile),
            ("epoll_ctl(ADD)", SysFaultKind::Enomem)
        ]
    );
    server.shutdown();
    server.wait();
}

fn fp() -> RunFingerprint {
    RunFingerprint {
        kind: RunKind::CorruptionSweep,
        corpus: 0xAAAA,
        options: 0xBBBB,
        catalog: 0xCCCC,
        plan: 0xDDDD,
    }
}

fn sample_records(n: usize) -> Vec<JournalRecord> {
    (0..n)
        .map(|i| {
            JournalRecord::SupportSet(
                (0..=(i as u32)).map(|x| x * 3 + 1).collect(),
            )
        })
        .collect()
}

/// The journaled sweep: for every fault kind and every append position,
/// an injected write/fsync failure must either be absorbed (EINTR,
/// short write) leaving the file byte-identical, or fail classified
/// with the handle fail-stopped — and resume must recover the longest
/// valid prefix and replay to a byte-identical final file.
#[test]
fn journal_append_sweep_fails_stop_and_resumes_byte_identical() {
    let _g = gate();
    sysfault::clear();

    let dir = std::env::temp_dir().join(format!(
        "apistudy-sysfaults-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let records = sample_records(6);

    // Fault-free control file.
    let control_path = dir.join("control.apsj");
    let mut control =
        Journal::create(&control_path, &fp()).expect("control create");
    for rec in &records {
        control.append(rec).expect("control append");
    }
    drop(control);
    let control_bytes =
        std::fs::read(&control_path).expect("read control");

    let cases = [
        ("journal.write", SysFaultKind::Eintr, false),
        ("journal.write", SysFaultKind::ShortIo, false),
        ("journal.write", SysFaultKind::Enospc, true),
        ("journal.write", SysFaultKind::Eio, true),
        ("journal.fsync", SysFaultKind::Eio, true),
        ("journal.fsync", SysFaultKind::Enospc, true),
    ];
    for (site, kind, fatal) in cases {
        for k in 1..=records.len() as u64 {
            let path = dir.join(format!(
                "sweep-{}-{}-{k}.apsj",
                site.replace('.', "_"),
                kind.label()
            ));
            sysfault::install(
                SysFaultPlan::default().at_site(site, kind, k),
            );
            let mut journal =
                Journal::create(&path, &fp()).expect("create");
            let mut failed_at: Option<usize> = None;
            for (i, rec) in records.iter().enumerate() {
                match journal.append(rec) {
                    Ok(()) => {}
                    Err(JournalError::Io(e)) => {
                        assert!(
                            fatal,
                            "{site}:{kind}@{k}: absorbable fault \
                             surfaced: {e}"
                        );
                        failed_at = Some(i);
                        break;
                    }
                    Err(other) => panic!(
                        "{site}:{kind}@{k}: wrong class: {other}"
                    ),
                }
            }
            if let Some(i) = failed_at {
                // Fsyncgate: the poisoned handle refuses to continue.
                assert!(journal.poisoned());
                assert!(matches!(
                    journal.append(&records[i]),
                    Err(JournalError::FailStop)
                ));
                drop(journal);
                sysfault::clear();
                // Recovery: resume truncates the unknowable tail to the
                // longest valid prefix, replays what survived, and the
                // re-appended remainder lands byte-identical.
                let (mut resumed, recovered) =
                    Journal::resume(&path, &fp()).expect("resume");
                assert!(recovered.len() >= i, "lost a durable record");
                assert!(recovered.len() <= i + 1);
                for rec in &records[recovered.len()..] {
                    resumed.append(rec).expect("re-append");
                }
                drop(resumed);
            } else {
                assert!(
                    !fatal || k > records.len() as u64,
                    "{site}:{kind}@{k}: fatal fault never surfaced"
                );
                drop(journal);
                sysfault::clear();
            }
            let bytes = std::fs::read(&path).expect("read swept");
            assert_eq!(
                bytes, control_bytes,
                "{site}:{kind}@{k}: final file diverged from control"
            );
            std::fs::remove_file(&path).ok();
        }
    }
    std::fs::remove_file(&control_path).ok();
}

/// The same fsyncgate discipline on the footprint store, driven through
/// the real streaming pipeline: an injected `ENOSPC` mid-store fails
/// the run classified, and resuming completes a store byte-identical
/// to an uninterrupted one.
#[test]
fn store_enospc_mid_run_resumes_byte_identical() {
    let _g = gate();
    sysfault::clear();

    let dir = std::env::temp_dir().join(format!(
        "apistudy-sysfaults-store-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let scale = Scale { packages: 150, installations: 30_000 };
    let (seed, shard) = (2016u64, 32usize);

    let control_path = dir.join("control.apsf");
    let (control_study, _) =
        stored_study(scale, seed, shard, &control_path, false)
            .expect("control run");
    let control_bytes =
        std::fs::read(&control_path).expect("read control");

    for kind in [SysFaultKind::Enospc, SysFaultKind::Eio] {
        let path = dir.join(format!("faulted-{}.apsf", kind.label()));
        // The second shard append dies: the first shard is durable, the
        // torn second must be discarded on resume.
        sysfault::install(
            SysFaultPlan::default().at_site("store.write", kind, 2),
        );
        match stored_study(scale, seed, shard, &path, false) {
            Ok(_) => panic!("the injected append failure must surface"),
            Err(JournalError::Io(_)) => {}
            Err(other) => panic!("wrong class: {other}"),
        }
        sysfault::clear();

        let (resumed_study, stats) =
            stored_study(scale, seed, shard, &path, true).expect("resume");
        assert!(
            stats.replayed_shards >= 1,
            "resume must replay the durable shard"
        );
        assert_eq!(
            std::fs::read(&path).expect("read resumed"),
            control_bytes,
            "resumed store diverged from control"
        );
        assert_eq!(
            resumed_study.data().packages,
            control_study.data().packages,
            "resumed study diverged from control"
        );
        assert_eq!(
            resumed_study.data().census,
            control_study.data().census,
            "resumed census diverged from control"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&control_path).ok();
}

/// Satellite: the retry loop must never replay a malformed reply. A
/// hostile "server" answers every connection with a checksum-broken
/// frame; `call_retrying` must classify and return after ONE attempt
/// instead of burning the whole backoff budget on deterministic
/// corruption.
#[test]
fn retry_never_replays_a_malformed_reply() {
    use std::io::{Read as _, Write as _};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    let _g = gate();
    sysfault::clear();

    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accepted = Arc::new(AtomicU32::new(0));
    let counter = Arc::clone(&accepted);
    let hostile = std::thread::spawn(move || {
        // Serve up to the client's full retry budget; a correct client
        // stops after one. An empty connection is the poison pill the
        // test sends to shut this thread down.
        for _ in 0..5 {
            let Ok((mut conn, _)) = listener.accept() else { return };
            let mut buf = [0u8; 256];
            let n = conn.read(&mut buf).unwrap_or(0);
            if n == 0 {
                return;
            }
            counter.fetch_add(1, Ordering::SeqCst);
            let mut frame = apistudy::core::encode_frame(
                &Response::Pong {
                    fingerprint: 7,
                    generation: 1,
                    packages: 2,
                }
                .encode(),
            );
            let last = frame.len() - 1;
            frame[last] ^= 0xFF; // break the checksum, keep the length
            let _ = conn.write_all(&frame);
            let _ = conn.flush();
        }
    });

    let mut client = Client::connect(
        addr,
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(20),
            seed: 3,
        },
        Duration::from_secs(2),
    )
    .expect("connect");
    let err = client
        .call_retrying(&Request::Ping)
        .expect_err("a checksum-broken reply must fail");
    assert!(
        matches!(&err, ClientError::Frame(FrameError::Checksum)),
        "must classify as checksum corruption, got: {err}"
    );
    assert!(!err.is_retryable(), "corruption must be fatal");
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        1,
        "a fatal classified reply must not be retried"
    );
    drop(client);
    // Poison pill: an empty connection tells the hostile thread to exit.
    drop(std::net::TcpStream::connect(addr).expect("poison connect"));
    hostile.join().expect("hostile server thread");
}

/// Disarmed, the shim intercepts nothing: counters stay zero, the
/// ledger stays empty, and a serve session is bit-identical to itself.
#[test]
fn disarmed_shim_is_a_no_op() {
    let _g = gate();
    sysfault::clear();

    assert_eq!(sysfault::intercepted_count(), 0);
    assert_eq!(sysfault::injected_count(), 0);

    let server = Server::start(small_study(), None, serve_opts())
        .expect("server start");
    let addr = server.addr();
    let first: Vec<Vec<u8>> = run_session(addr)
        .iter()
        .map(|r| r.as_ref().expect("fault-free").encode())
        .collect();
    let second: Vec<Vec<u8>> = run_session(addr)
        .iter()
        .map(|r| r.as_ref().expect("fault-free").encode())
        .collect();
    assert_eq!(first, second, "disarmed sessions must be bit-identical");
    assert_eq!(
        sysfault::intercepted_count(),
        0,
        "a disarmed shim must observe nothing"
    );
    assert!(sysfault::ledger().is_empty());
    server.shutdown();
    server.wait();
}
