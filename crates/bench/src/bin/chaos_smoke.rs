//! CI smoke gate for the syscall-fault injection layer: the bounded
//! fault matrix — **every fault kind × 3 seeds** — in one process,
//! under the tier-1 time budget.
//!
//! Two sub-matrices:
//!
//! - **serve**: a live [`Server`] is hammered with query sessions while
//!   a periodic site-appropriate fault fires (`EINTR`, `EAGAIN`, short
//!   reads/writes, `EMFILE` on `accept4`, `ENOMEM` on `epoll_ctl`).
//!   Gate: zero panics, every successful reply **bit-identical** to the
//!   fault-free baseline, failed rounds classified (never hung), and a
//!   clean health probe after each plan is disarmed.
//! - **journal/store**: `ENOSPC`/`EIO`/`EINTR`/short-write injections
//!   on append and fsync. Gate: absorbable faults leave the file
//!   byte-identical; fatal ones fail classified, fail-stop the handle,
//!   and resume + re-append lands byte-identical to the control file.
//!
//! The matrix is deterministic (seeded plans, no wall-clock coupling),
//! so a behavior change here is a code change, not noise.
//!
//! Usage: `chaos_smoke [--no-json]`.

use std::time::{Duration, Instant};

use apistudy_bench::record;
use apistudy_core::sysfault::{self, SysFaultKind, SysFaultPlan};
use apistudy_core::{
    Client, Journal, JournalError, JournalRecord, Request, Response,
    RetryPolicy, RunFingerprint, RunKind, ServeOptions, Server, Study,
};
use apistudy_corpus::Scale;

/// Same corpus as `serve_smoke` / the serve_chaos suite.
fn reference_study() -> Study {
    Study::run(Scale { packages: 150, installations: 14_250 }, 2016)
}

const SEEDS: [u64; 3] = [0xFA01, 0xFA02, 0xFA03];

/// Query rounds per (kind, seed) serve cell.
const ROUNDS: usize = 8;

/// Periodic site-appropriate serve triggers per fault kind. Periods are
/// co-prime with the reactor's 5-syscall idle accept cycle so a fixed
/// period cannot resonate with one callsite (see serve_chaos).
fn serve_plan(kind: SysFaultKind, seed: u64) -> SysFaultPlan {
    let plan = SysFaultPlan { seed, ..SysFaultPlan::default() };
    match kind {
        SysFaultKind::Eintr => plan.every("*", kind, 7),
        SysFaultKind::Eagain => plan
            .every("read", kind, 3)
            .every("write", kind, 3)
            .every("accept4", kind, 2),
        SysFaultKind::ShortIo => {
            plan.every("read", kind, 2).every("write", kind, 2)
        }
        SysFaultKind::Emfile => plan.every("accept4", kind, 3),
        SysFaultKind::Enomem => plan
            .every("epoll_ctl(ADD)", kind, 4)
            .every("epoll_ctl(MOD)", kind, 7),
        // Storage-only kinds get the full-chaos treatment instead:
        // plausibility keeps them off sites that cannot produce them.
        SysFaultKind::Enospc | SysFaultKind::Eio | SysFaultKind::Auto => {
            plan.every("*", SysFaultKind::Auto, 7)
        }
    }
}

fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        attempts: 4,
        base: Duration::from_millis(15),
        cap: Duration::from_millis(120),
        seed,
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// One query session; returns `(ok_replies, classified_failures)` and
/// checks every successful reply against the baseline bits.
fn session(
    addr: std::net::SocketAddr,
    seed: u64,
    baseline: &[Vec<u8>],
    cell: &str,
) -> (u32, u32) {
    let reqs = [
        Request::Ping,
        Request::Importance { nr: 1 },
        Request::Completeness { supported: vec![0, 1, 2, 3, 9, 60] },
        Request::Suggest { supported: vec![0, 1, 2, 3], limit: 3 },
    ];
    let (mut ok, mut classified) = (0u32, 0u32);
    let Ok(mut client) =
        Client::connect(addr, policy(seed), Duration::from_secs(5))
    else {
        return (0, reqs.len() as u32);
    };
    for (i, req) in reqs.iter().enumerate() {
        match client.call_retrying(req) {
            Ok(Response::Err { .. }) | Err(_) => classified += 1,
            Ok(resp) => {
                if resp.encode() != baseline[i] {
                    fail(&format!(
                        "{cell}: reply {i} diverged from the fault-free \
                         baseline"
                    ));
                }
                ok += 1;
            }
        }
    }
    (ok, classified)
}

fn serve_matrix() -> (u64, u64) {
    let server = Server::start(
        reference_study(),
        None,
        ServeOptions {
            port: 0,
            max_conns: 32,
            request_deadline: Duration::from_millis(1_500),
            idle_deadline: Duration::from_millis(1_500),
            workers: 2,
            cache: true,
        },
    )
    .unwrap_or_else(|e| fail(&format!("server start: {e}")));
    let addr = server.addr();

    // Fault-free baseline bits.
    sysfault::clear();
    let reqs = [
        Request::Ping,
        Request::Importance { nr: 1 },
        Request::Completeness { supported: vec![0, 1, 2, 3, 9, 60] },
        Request::Suggest { supported: vec![0, 1, 2, 3], limit: 3 },
    ];
    let mut client =
        Client::connect(addr, policy(1), Duration::from_secs(5))
            .unwrap_or_else(|e| fail(&format!("baseline connect: {e}")));
    let baseline: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| {
            client
                .call(r)
                .unwrap_or_else(|e| fail(&format!("baseline call: {e}")))
                .encode()
        })
        .collect();
    drop(client);

    let kinds = [
        SysFaultKind::Eintr,
        SysFaultKind::Eagain,
        SysFaultKind::ShortIo,
        SysFaultKind::Emfile,
        SysFaultKind::Enomem,
        SysFaultKind::Auto,
    ];
    let (mut injected_total, mut classified_total) = (0u64, 0u64);
    for kind in kinds {
        for seed in SEEDS {
            let cell = format!("serve {}x{seed:#x}", kind.label());
            sysfault::install(serve_plan(kind, seed));
            let (mut ok, mut classified) = (0u32, 0u32);
            for _ in 0..ROUNDS {
                let (o, c) = session(addr, seed, &baseline, &cell);
                ok += o;
                classified += c;
            }
            let ledger = sysfault::clear();
            injected_total += ledger.len() as u64;
            classified_total += u64::from(classified);
            if ledger.is_empty() {
                fail(&format!("{cell}: plan never fired"));
            }
            // Absorbable chaos with retries must keep availability up:
            // most calls land, and none may drift.
            if ok < (ROUNDS as u32 * 4) / 2 {
                fail(&format!(
                    "{cell}: only {ok}/{} calls succeeded \
                     ({classified} classified)",
                    ROUNDS * 4
                ));
            }
            // Disarmed health probe: the daemon shrugged it all off.
            let (o, _) = session(addr, seed, &baseline, &cell);
            if o != 4 {
                fail(&format!("{cell}: daemon unhealthy after disarm"));
            }
        }
    }
    server.shutdown();
    let stats = server.wait();
    println!(
        "serve matrix: {} cells, {injected_total} injected, \
         {classified_total} classified client-side, {} io-errors and \
         {} accept-pauses server-side",
        kinds.len() * SEEDS.len(),
        stats.io_errors,
        stats.accept_pauses,
    );
    (injected_total, classified_total)
}

fn fp() -> RunFingerprint {
    RunFingerprint {
        kind: RunKind::CorruptionSweep,
        corpus: 0xC0FFEE,
        options: 1,
        catalog: 2,
        plan: 3,
    }
}

fn storage_matrix() -> u64 {
    let dir = std::env::temp_dir()
        .join(format!("apistudy-chaos-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| fail(&format!("scratch dir: {e}")));
    let records: Vec<JournalRecord> = (0..5)
        .map(|i| JournalRecord::SupportSet((0..=i).collect()))
        .collect();

    let control_path = dir.join("control.apsj");
    let mut control = Journal::create(&control_path, &fp())
        .unwrap_or_else(|e| fail(&format!("control create: {e}")));
    for rec in &records {
        control
            .append(rec)
            .unwrap_or_else(|e| fail(&format!("control append: {e}")));
    }
    drop(control);
    let control_bytes = std::fs::read(&control_path)
        .unwrap_or_else(|e| fail(&format!("read control: {e}")));

    let kinds = [
        SysFaultKind::Eintr,
        SysFaultKind::ShortIo,
        SysFaultKind::Enospc,
        SysFaultKind::Eio,
    ];
    let mut injected_total = 0u64;
    for site in ["journal.write", "journal.fsync"] {
        for kind in kinds {
            for (i, seed) in SEEDS.iter().enumerate() {
                // Seeds walk the fault across append positions.
                let k = (i as u64) + 2;
                let cell = format!("{site}:{}@{k} seed {seed:#x}", kind.label());
                let path = dir.join(format!(
                    "cell-{}-{}-{k}.apsj",
                    site.replace('.', "_"),
                    kind.label()
                ));
                let _ = std::fs::remove_file(&path);
                sysfault::install(
                    SysFaultPlan { seed: *seed, ..SysFaultPlan::default() }
                        .at_site(site, kind, k),
                );
                let mut journal = Journal::create(&path, &fp())
                    .unwrap_or_else(|e| fail(&format!("{cell}: create: {e}")));
                let mut failed_at = None;
                for (j, rec) in records.iter().enumerate() {
                    match journal.append(rec) {
                        Ok(()) => {}
                        Err(JournalError::Io(_)) => {
                            failed_at = Some(j);
                            break;
                        }
                        Err(other) => {
                            fail(&format!("{cell}: wrong class: {other}"))
                        }
                    }
                }
                let absorbable = matches!(
                    kind,
                    SysFaultKind::Eintr | SysFaultKind::ShortIo
                );
                // Absorbable faults never surface; on the fsync site a
                // short-I/O trigger is also just retried.
                if absorbable && failed_at.is_some() {
                    fail(&format!("{cell}: absorbable fault surfaced"));
                }
                if let Some(j) = failed_at {
                    if !journal.poisoned()
                        || !matches!(
                            journal.append(&records[j]),
                            Err(JournalError::FailStop)
                        )
                    {
                        fail(&format!("{cell}: no fail-stop after the fault"));
                    }
                    drop(journal);
                    injected_total += sysfault::clear().len() as u64;
                    let (mut resumed, recovered) =
                        Journal::resume(&path, &fp()).unwrap_or_else(|e| {
                            fail(&format!("{cell}: resume: {e}"))
                        });
                    for rec in &records[recovered.len()..] {
                        resumed.append(rec).unwrap_or_else(|e| {
                            fail(&format!("{cell}: re-append: {e}"))
                        });
                    }
                    drop(resumed);
                } else {
                    drop(journal);
                    injected_total += sysfault::clear().len() as u64;
                }
                let bytes = std::fs::read(&path)
                    .unwrap_or_else(|e| fail(&format!("{cell}: read: {e}")));
                if bytes != control_bytes {
                    fail(&format!("{cell}: final file diverged from control"));
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "storage matrix: {} cells, {injected_total} injected, every \
         file byte-identical to control after resume",
        2 * kinds.len() * SEEDS.len()
    );
    injected_total
}

fn main() {
    let write_json = !std::env::args().any(|a| a == "--no-json");

    let t0 = Instant::now();
    let (serve_injected, _) = serve_matrix();
    let serve_ns = t0.elapsed().as_nanos();

    let t1 = Instant::now();
    let storage_injected = storage_matrix();
    let storage_ns = t1.elapsed().as_nanos();

    if serve_injected == 0 || storage_injected == 0 {
        fail("a whole matrix ran without injecting anything");
    }

    let ms = |ns: u128| ns as f64 / 1e6;
    println!("chaos_serve_matrix:   {:>9.1} ms", ms(serve_ns));
    println!("chaos_storage_matrix: {:>9.1} ms", ms(storage_ns));

    if write_json {
        if let Err(e) = record(&[
            ("chaos_serve_matrix", serve_ns),
            ("chaos_storage_matrix", storage_ns),
        ]) {
            eprintln!("could not update BENCH_pipeline.json: {e}");
        }
    }
    println!(
        "PASS: every fault kind x {} seeds, zero panics, replies \
         bit-identical or classified, storage byte-identical after resume",
        SEEDS.len()
    );
}
