//! Format pins: the journal, the footprint store, the wire protocol and
//! the disk cache, each checked against a committed golden file.
//!
//! The files under `tests/golden/` hold hand-built content (not corpus
//! output, so they stay a few KB and never move when the generator
//! changes) and are never regenerated. Each test decodes or resumes its
//! file to the expected values, then writes the same content again in a
//! temp dir and requires byte-identical output. A refactor that moves a
//! single byte of an on-disk or on-wire format fails here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use apistudy::analysis::{BinaryAnalysis, Footprint, FuncInfo};
use apistudy::catalog::{ApiInterner, ApiSet};
use apistudy::core::{
    encode_frame, scan_frame, AnalysisCache, ApiFootprint, CacheKey,
    CacheMode, DegradationPoint, ErrorCode, FootprintStore, Journal,
    JournalRecord, JournalStats, PackageAttribution, PackageRecord,
    Request, Response, RunDiagnostics, RunFingerprint, RunKind,
    ShardPartial, FRAME_HEADER,
};
use apistudy::corpus::{Interpreter, MixCensus};
use apistudy::elf::BinaryClass;

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("apistudy-formats-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

// ---------------------------------------------------------------------------
// Journal: one record of every kind.
// ---------------------------------------------------------------------------

fn journal_fp() -> RunFingerprint {
    RunFingerprint {
        kind: RunKind::CorruptionSweep,
        corpus: 0x1111_2222_3333_4444,
        options: 0x5555,
        catalog: 0x6666,
        plan: 0x7777,
    }
}

fn journal_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::SupportSet(vec![0, 1, 2, 60, 231, 322]),
        JournalRecord::SweepPoint(DegradationPoint {
            // Awkward bit patterns: no short decimal form, and a
            // subnormal.
            rate: f64::from_bits(0x3FF5_5555_5555_5555),
            injected: 7,
            injected_fatal: 4,
            skipped_binaries: 4,
            deadline_skipped: 1,
            partial_packages: 5,
            quarantined_packages: 2,
            distinct_syscalls: 241,
            completeness_top: f64::from_bits(1),
        }),
        JournalRecord::GreedyPick {
            nr: 17,
            gain_bits: 0.25f64.to_bits(),
            after_bits: (-0.0f64).to_bits(),
        },
        JournalRecord::FleetFilter {
            allow_hash: 0xDEAD_BEEF_0123_4567,
            tree_len: 211,
            linear_len: 187,
            tree_max_depth: 19,
            tree_depth_total: 61_455,
            linear_max_depth: 106,
            linear_depth_total: 400_123,
        },
    ]
}

fn write_journal(path: &Path) -> Vec<u8> {
    let mut journal = Journal::create(path, &journal_fp()).expect("create");
    for rec in &journal_records() {
        journal.append(rec).expect("append");
    }
    drop(journal);
    std::fs::read(path).expect("read journal")
}

#[test]
fn golden_journal_resumes_and_rewrites_byte_identical() {
    let want = golden("journal.apsj");
    let dir = tmp_dir("journal");
    let path = dir.join("golden.apsj");
    std::fs::write(&path, &want).expect("stage golden");
    let (journal, records) =
        Journal::resume(&path, &journal_fp()).expect("golden resumes");
    assert_eq!(records, journal_records());
    assert_eq!(journal.stats(), JournalStats { replayed: 4, appended: 0 });
    drop(journal);
    assert_eq!(
        std::fs::read(&path).expect("read"),
        want,
        "resuming an intact journal must not touch it"
    );
    assert_eq!(write_journal(&dir.join("fresh.apsj")), want);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Footprint store: two shards.
// ---------------------------------------------------------------------------

fn store_fp() -> RunFingerprint {
    RunFingerprint {
        kind: RunKind::ShardedPipeline,
        corpus: 0xAAAA,
        options: 0xBBBB,
        catalog: 0xCCCC,
        plan: 0xDDDD,
    }
}

fn sample_partial(shard: usize, start: usize, n: usize) -> ShardPartial {
    let interner = ApiInterner::global();
    let records: Vec<PackageRecord> = (0..n)
        .map(|i| {
            let mut apis = ApiSet::new();
            for id in [0u32, 7, 31, (start + i) as u32 % 64] {
                apis.insert(interner.resolve(id));
            }
            PackageRecord {
                name: format!("pkg{}", start + i),
                prob: 0.125 * (i as f64 + 1.0),
                install_count: 10 * (start + i) as u64,
                depends: vec!["libc6".into()],
                footprint: ApiFootprint { apis, unresolved: i as u32 },
                script_interpreters: vec!["dash".into()],
                file_counts: (2, 1, 1),
                unresolved_syscall_sites: i as u32,
                skipped_binaries: 0,
                partial_footprint: false,
            }
        })
        .collect();
    let attributions: Vec<PackageAttribution> = (0..n)
        .map(|i| PackageAttribution {
            libs: vec![(format!("libpkg{}.so", start + i), vec![0, 1, 60])],
            execs: vec![vec![2, 3], vec![]],
        })
        .collect();
    let mut census = MixCensus::default();
    census.elf.insert(BinaryClass::DynExec, 2 * n);
    census.elf.insert(BinaryClass::SharedLib, n);
    census.scripts.insert(Interpreter::Dash, n);
    let unresolved_sites =
        records.iter().map(|r| u64::from(r.unresolved_syscall_sites)).sum();
    ShardPartial {
        shard,
        start,
        records,
        attributions,
        census,
        unresolved_sites,
        resolved_sites: 40 * n as u64,
        diagnostics: RunDiagnostics {
            analyzed_binaries: 3 * n as u64,
            ..RunDiagnostics::default()
        },
        replayed: false,
    }
}

fn store_shards() -> Vec<ShardPartial> {
    vec![sample_partial(0, 0, 3), sample_partial(1, 3, 2)]
}

fn write_store(path: &Path) -> Vec<u8> {
    let mut store =
        FootprintStore::create(path, &store_fp()).expect("create");
    for shard in &store_shards() {
        store.append_shard(shard).expect("append");
    }
    drop(store);
    std::fs::read(path).expect("read store")
}

#[test]
fn golden_store_resumes_and_rewrites_byte_identical() {
    let want = golden("store.apsf");
    let dir = tmp_dir("store");
    let path = dir.join("golden.apsf");
    std::fs::write(&path, &want).expect("stage golden");
    let (store, partials) =
        FootprintStore::resume(&path, &store_fp()).expect("golden resumes");
    drop(store);
    let shards = store_shards();
    assert_eq!(partials.len(), shards.len());
    for shard in &shards {
        let got = &partials[&shard.shard];
        assert_eq!(got.shard, shard.shard);
        assert_eq!(got.start, shard.start);
        assert_eq!(got.records, shard.records);
        for (g, w) in got.records.iter().zip(&shard.records) {
            assert_eq!(g.prob.to_bits(), w.prob.to_bits());
        }
        assert_eq!(got.attributions, shard.attributions);
        assert_eq!(got.census, shard.census);
        assert_eq!(got.unresolved_sites, shard.unresolved_sites);
        assert_eq!(got.resolved_sites, shard.resolved_sites);
        assert_eq!(
            got.diagnostics.analyzed_binaries,
            shard.diagnostics.analyzed_binaries
        );
        assert!(got.replayed);
    }
    assert_eq!(
        std::fs::read(&path).expect("read"),
        want,
        "resuming an intact store must not touch it"
    );
    assert_eq!(write_store(&dir.join("fresh.apsf")), want);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Wire protocol: one frame per Request and Response variant.
// ---------------------------------------------------------------------------

fn wire_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Importance { nr: 60 },
        Request::Completeness { supported: vec![0, 1, 2, 60, 231] },
        Request::Suggest { supported: vec![0, 1], limit: 7 },
        Request::SessionOpen { supported: vec![2, 3, 5, 7] },
        Request::SessionAdd { nr: 17 },
        Request::SessionRemove { nr: 18 },
        Request::SessionProbe { nr: 202 },
        Request::Reload { expect_fingerprint: 0xDEAD_BEEF_1234_5678 },
        Request::Shutdown,
        Request::Batch(vec![
            Request::Importance { nr: 0 },
            Request::Suggest { supported: vec![], limit: 3 },
            Request::Ping,
        ]),
    ]
}

fn wire_responses() -> Vec<Response> {
    vec![
        Response::Pong {
            fingerprint: 0x0123_4567_89AB_CDEF,
            generation: 2,
            packages: 150,
        },
        Response::Importance {
            importance_bits: 1.0f64.to_bits(),
            unweighted_bits: 0.25f64.to_bits(),
        },
        Response::Completeness { bits: (-0.0f64).to_bits() },
        Response::Suggest { picks: vec![(0, 0.5f64.to_bits()), (231, 1)] },
        Response::Session {
            delta_bits: 0x3FF5_5555_5555_5555,
            completeness_bits: 0x3FE0_0000_0000_0000,
        },
        Response::Reload { fingerprint: 9, generation: 3 },
        Response::Bye,
        Response::err(ErrorCode::Busy, "connection cap reached"),
        Response::Batch(vec![
            Response::Completeness { bits: 7 },
            Response::err(ErrorCode::UnknownApi, "nr 9999"),
            Response::Bye,
        ]),
    ]
}

fn wire_bytes(payloads: impl IntoIterator<Item = Vec<u8>>) -> Vec<u8> {
    payloads.into_iter().flat_map(|p| encode_frame(&p)).collect()
}

/// Splits a concatenation of whole valid frames into payloads.
fn payloads(mut bytes: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let total = scan_frame(bytes)
            .expect("golden frame intact")
            .expect("golden frame complete");
        out.push(&bytes[FRAME_HEADER..total]);
        bytes = &bytes[total..];
    }
    out
}

#[test]
fn golden_request_frames_decode_and_reencode_byte_identical() {
    let want = golden("requests.frames");
    let decoded: Vec<Request> = payloads(&want)
        .into_iter()
        .map(|p| Request::decode(p).expect("golden request decodes"))
        .collect();
    assert_eq!(decoded, wire_requests());
    assert_eq!(wire_bytes(wire_requests().iter().map(Request::encode)), want);
}

#[test]
fn golden_response_frames_decode_and_reencode_byte_identical() {
    let want = golden("responses.frames");
    let decoded: Vec<Response> = payloads(&want)
        .into_iter()
        .map(|p| Response::decode(p).expect("golden response decodes"))
        .collect();
    assert_eq!(decoded, wire_responses());
    assert_eq!(
        wire_bytes(wire_responses().iter().map(Response::encode)),
        want
    );
}

// ---------------------------------------------------------------------------
// Disk cache: one shard file.
// ---------------------------------------------------------------------------

/// Both keys land in shard 0: the shard index is the low four bits of
/// `content ^ options.rotate_left(1)`.
fn cache_entries() -> Vec<(CacheKey, BinaryAnalysis)> {
    let mut facts = Footprint::new();
    facts.syscalls.extend([1, 2, 60]);
    facts.ioctl_codes.insert(0x5401);
    facts.fcntl_codes.insert(4);
    facts.prctl_codes.insert(15);
    facts.imports.insert("write".to_owned());
    facts.paths.insert("/proc/self/maps".to_owned());
    facts.unresolved_syscall_sites = 3;
    facts.unresolved_vectored_sites = 1;
    let exec = BinaryAnalysis {
        class: BinaryClass::DynExec,
        soname: None,
        needed: vec!["libc.so.6".to_owned()],
        funcs: vec![
            FuncInfo {
                name: "_start".to_owned(),
                addr: 0x1000,
                size: 32,
                facts,
                calls: [1].into_iter().collect(),
            },
            FuncInfo {
                name: "helper".to_owned(),
                addr: 0x1040,
                size: 16,
                facts: Footprint::new(),
                calls: BTreeSet::new(),
            },
        ],
        exports: [("helper".to_owned(), 1)].into_iter().collect(),
        entry: Some(0),
        instructions: 48,
    };
    let mut lib_facts = Footprint::new();
    lib_facts.syscalls.extend([0, 1, 231]);
    let lib = BinaryAnalysis {
        class: BinaryClass::SharedLib,
        soname: Some("libgold.so.1".to_owned()),
        needed: vec![],
        funcs: vec![FuncInfo {
            name: "gold_write".to_owned(),
            addr: 0x2000,
            size: 64,
            facts: lib_facts,
            calls: BTreeSet::new(),
        }],
        exports: [("gold_write".to_owned(), 0)].into_iter().collect(),
        entry: None,
        instructions: 21,
    };
    vec![
        (CacheKey { content: 0x10, options: 0 }, exec),
        (
            CacheKey { content: 0xA0, options: 0x1234_0000_0000_0000 },
            lib,
        ),
    ]
}

const CACHE_SHARD_FILE: &str = "analysis-v2-shard-00.bin";

fn write_cache(dir: &Path) -> Vec<u8> {
    let cache = AnalysisCache::with_dir(CacheMode::Disk, dir.to_owned());
    for (key, ba) in cache_entries() {
        cache.insert(key, Arc::new(ba));
    }
    cache.persist().expect("persist").expect("disk mode");
    std::fs::read(dir.join(CACHE_SHARD_FILE)).expect("read shard file")
}

#[test]
fn golden_cache_shard_loads_and_rewrites_byte_identical() {
    let want = golden("cache-shard.bin");
    let dir = tmp_dir("cache");
    std::fs::write(dir.join(CACHE_SHARD_FILE), &want).expect("stage golden");
    let cache = AnalysisCache::with_dir(CacheMode::Disk, dir.clone());
    for (key, ba) in cache_entries() {
        let hit = cache.get(key).expect("golden entry loads");
        assert_eq!(*hit, ba);
    }
    assert_eq!(cache.stats().entries, cache_entries().len());
    let fresh = tmp_dir("cache-fresh");
    assert_eq!(write_cache(&fresh), want);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}
