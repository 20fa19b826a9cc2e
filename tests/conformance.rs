//! The conformance matrix: every combination the pipeline runner
//! (`stream::run`) accepts, checked bit for bit against one reference —
//! the plain in-memory run, `StudyData::from_synth`.
//!
//! Axes: shard size (including one fold in shuffled order), a
//! materialized corpus, the analysis cache (cold, warm in memory, warm
//! from disk), the footprint store (fresh write, full replay, torn
//! tail), and fault plans. Each cell is one call into the runner, and
//! every cell is compared on what the study publishes: package records,
//! census, attribution, site totals, the work ledger, and every
//! syscall's importance and weighted completeness to the last bit.
//!
//! Thread count is an axis too, but `par_map_indexed` reads its worker
//! count from `APISTUDY_THREADS`, which one test process cannot change
//! safely; CI runs this file under several values instead.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use apistudy::analysis::AnalysisOptions;
use apistudy::catalog::Api;
use apistudy::core::{
    fold_partials, shard_partials, stream, AnalysisCache, CacheMode, Metrics, RunOptions, Shards,
    StoreStats, StudyData,
};
use apistudy::corpus::{CalibrationSpec, FaultPlan, Package, PackageFile, Scale, SynthRepo};

const PACKAGES: usize = 150;
/// At rate 0.05 this seed's plan truncates `libc.so.6` inside `libc6`,
/// so a faulted run that let the clean system-library base stand in for
/// `libc6`'s own libraries would diverge from a run over a corrupted copy.
const FAULT_SEED: u64 = 10;

fn repo(packages: usize, seed: u64) -> SynthRepo {
    let installations = if packages == PACKAGES {
        30_000
    } else {
        100_000
    };
    SynthRepo::new(
        Scale {
            packages,
            installations,
        },
        CalibrationSpec::default(),
        seed,
    )
}

/// The reference for each seed the matrix uses, computed once.
fn reference(seed: u64) -> &'static (SynthRepo, StudyData) {
    static SEED_2016: OnceLock<(SynthRepo, StudyData)> = OnceLock::new();
    static SEED_7: OnceLock<(SynthRepo, StudyData)> = OnceLock::new();
    let cell = match seed {
        2016 => &SEED_2016,
        7 => &SEED_7,
        _ => unreachable!("the matrix references seeds 2016 and 7"),
    };
    cell.get_or_init(|| {
        let repo = repo(PACKAGES, seed);
        let data = StudyData::from_synth(&repo);
        (repo, data)
    })
}

/// One cell without a store.
fn run(repo: &SynthRepo, opts: &RunOptions<'_>) -> StudyData {
    stream::run(repo, opts, None)
        .expect("a run without a store does no I/O")
        .0
}

fn sharded(shard_size: usize) -> RunOptions<'static> {
    RunOptions {
        shards: Shards::Size(shard_size),
        ..RunOptions::default()
    }
}

fn ledger(replayed: u64, computed: u64, stored: u64, replayed_packages: u64) -> StoreStats {
    StoreStats {
        replayed_shards: replayed,
        computed_shards: computed,
        stored_shards: stored,
        replayed_packages,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("apistudy-conformance-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Field-by-field bit equality of two study datasets. Diagnostics are
/// compared only on work accounting (cache counters and the RSS
/// observation legitimately differ between paths).
fn assert_data_identical(a: &StudyData, b: &StudyData, what: &str) {
    assert_eq!(a.packages, b.packages, "{what}: package records");
    for (pa, pb) in a.packages.iter().zip(&b.packages) {
        assert_eq!(
            pa.prob.to_bits(),
            pb.prob.to_bits(),
            "{what}: probability bits for {}",
            pa.name
        );
    }
    assert_eq!(a.by_name, b.by_name, "{what}: name index");
    assert_eq!(a.census, b.census, "{what}: census");
    assert_eq!(a.attribution, b.attribution, "{what}: attribution");
    assert_eq!(
        a.total_installations, b.total_installations,
        "{what}: installations"
    );
    assert_eq!(
        a.unresolved_syscall_sites, b.unresolved_syscall_sites,
        "{what}: unresolved sites"
    );
    assert_eq!(
        a.resolved_syscall_sites, b.resolved_syscall_sites,
        "{what}: resolved sites"
    );
    assert_eq!(
        a.diagnostics.analyzed_binaries, b.diagnostics.analyzed_binaries,
        "{what}: analyzed binaries"
    );
    assert_eq!(
        a.diagnostics.total_skipped(),
        b.diagnostics.total_skipped(),
        "{what}: skips"
    );
}

/// The acceptance gate: importance and weighted completeness agree to
/// the last bit for every syscall in the catalog.
fn assert_metrics_bit_identical(a: &StudyData, b: &StudyData, what: &str) {
    let ma = Metrics::new(a);
    let mb = Metrics::new(b);
    for def in a.catalog.syscalls.iter() {
        let api = Api::Syscall(def.number);
        assert_eq!(
            ma.importance(api).to_bits(),
            mb.importance(api).to_bits(),
            "{what}: importance bits for {}",
            def.name
        );
        assert_eq!(
            ma.unweighted_importance(api).to_bits(),
            mb.unweighted_importance(api).to_bits(),
            "{what}: unweighted importance bits for {}",
            def.name
        );
    }
    for top in [0u32, 50, 150, 250, 323] {
        let supported: HashSet<u32> = (0..top).collect();
        assert_eq!(
            ma.syscall_completeness(&supported).to_bits(),
            mb.syscall_completeness(&supported).to_bits(),
            "{what}: weighted completeness bits at top-{top}"
        );
    }
}

fn assert_identical(a: &StudyData, b: &StudyData, what: &str) {
    assert_data_identical(a, b, what);
    assert_metrics_bit_identical(a, b, what);
}

/// A cached run's ledger: the mode is recorded, and every ELF the run
/// looked at is a hit or a miss — all hits once the cache is warm.
fn assert_cache_ledger(data: &StudyData, mode: CacheMode, warm: bool, what: &str) {
    let d = &data.diagnostics;
    assert_eq!(d.cache_mode, mode, "{what}: cache mode");
    assert_eq!(
        d.cache_hits + d.cache_misses,
        d.analyzed_binaries + d.total_skipped(),
        "{what}: every looked-up ELF is a hit or a miss"
    );
    if warm {
        assert_eq!(d.cache_misses, 0, "{what}: a warm cache misses nothing");
    }
}

#[test]
fn shard_sizes_match_the_reference() {
    for seed in [2016, 7] {
        let (repo, want) = reference(seed);
        for size in [32, 149, 150, 151] {
            let got = run(repo, &sharded(size));
            assert_identical(want, &got, &format!("seed {seed}/shard {size}"));
        }
    }
}

#[test]
fn partials_fold_in_any_order() {
    // Shard size 1: one partial per package, handed to the fold in a
    // seeded Fisher–Yates order.
    let (repo, want) = reference(2016);
    let mut partials = shard_partials(repo, AnalysisOptions::default(), 1, None);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..partials.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        partials.swap(i, j);
    }
    assert!(
        partials.windows(2).any(|w| w[0].shard > w[1].shard),
        "the fold must see the partials out of order"
    );
    let got = fold_partials(want.total_installations, partials);
    assert_identical(want, &got, "shard 1, shuffled fold");
}

#[test]
fn materialized_corpus_matches_the_reference() {
    let (repo, want) = reference(2016);
    let packages = repo.materialize_all();
    for size in [0, 32] {
        let opts = RunOptions {
            packages: Some(&packages),
            ..sharded(size)
        };
        let got = run(repo, &opts);
        assert_identical(want, &got, &format!("materialized/shard {size}"));
    }
}

#[test]
fn cache_states_match_the_reference() {
    let (repo, want) = reference(2016);
    let dir = scratch("cache");
    for size in [0, 32] {
        let mem = AnalysisCache::new(CacheMode::Mem);
        for (state, warm) in [("mem-cold", false), ("mem-warm", true)] {
            let opts = RunOptions {
                cache: Some(&mem),
                ..sharded(size)
            };
            let got = run(repo, &opts);
            let what = format!("{state}/shard {size}");
            assert_identical(want, &got, &what);
            assert_cache_ledger(&got, CacheMode::Mem, warm, &what);
        }

        // Persisted by one cache, loaded by a fresh one.
        let disk_dir = dir.join(format!("shard-{size}"));
        let writer = AnalysisCache::with_dir(CacheMode::Disk, disk_dir.clone());
        run(
            repo,
            &RunOptions {
                cache: Some(&writer),
                ..sharded(size)
            },
        );
        writer.persist().expect("persist the disk cache");
        let reader = AnalysisCache::with_dir(CacheMode::Disk, disk_dir);
        let got = run(
            repo,
            &RunOptions {
                cache: Some(&reader),
                ..sharded(size)
            },
        );
        let what = format!("disk-warm/shard {size}");
        assert_identical(want, &got, &what);
        assert_cache_ledger(&got, CacheMode::Disk, true, &what);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_runs_replay_bit_identically() {
    let (repo, want) = reference(2016);
    let dir = scratch("store");
    let path = dir.join("footprints.apsf");
    let stored = |path: &Path, resume| {
        stream::run(repo, &sharded(32), Some((path, resume))).expect("stored run")
    };

    let (fresh, st) = stored(&path, false);
    assert_eq!(
        st,
        ledger(0, 5, 5, 0),
        "a clean run stores all ceil(150/32) shards"
    );
    assert_identical(want, &fresh, "store: fresh write");

    let (replayed, st) = stored(&path, true);
    assert_eq!(st, ledger(5, 0, 0, 150), "everything replays");
    assert_identical(want, &replayed, "store: full replay");

    // Tear the file mid-record: the final shard loses its commit marker
    // and must be recomputed and re-stored; the earlier shards replay.
    let bytes = std::fs::read(&path).expect("read store");
    std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("tear store");
    let (torn, st) = stored(&path, true);
    assert_eq!(st, ledger(4, 1, 1, 128), "only the torn shard recomputes");
    assert_identical(want, &torn, "store: torn tail");
    let (_, st) = stored(&path, true);
    assert_eq!(st, ledger(5, 0, 0, 150), "the healed store replays whole");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_plan_at_rate_zero_is_the_clean_run() {
    let (repo, want) = reference(2016);
    let opts = RunOptions {
        shards: Shards::Faulted(FaultPlan::new(FAULT_SEED, 0.0)),
        ..RunOptions::default()
    };
    let got = run(repo, &opts);
    assert!(got.diagnostics.is_clean(), "rate 0 injects nothing");
    assert_identical(want, &got, "fault plan at rate 0");
}

/// `(package, file)` of every ELF file the plan selects: the injection
/// ledger's ground truth, recomputed from the plan alone.
fn planned_faults(plan: &FaultPlan, packages: &[Package]) -> Vec<(usize, usize)> {
    let mut planned = Vec::new();
    for (i, p) in packages.iter().enumerate() {
        for (f, file) in p.files.iter().enumerate() {
            if matches!(file, PackageFile::Elf { .. }) && plan.planned(i, f).is_some() {
                planned.push((i, f));
            }
        }
    }
    planned
}

#[test]
fn faulted_paths_match_the_generated_uncached_run() {
    let (repo, clean) = reference(2016);
    let packages = repo.materialize_all();
    let plan = FaultPlan::new(FAULT_SEED, 0.05);
    let faulted = RunOptions {
        shards: Shards::Faulted(plan),
        ..RunOptions::default()
    };
    let want = run(repo, &faulted);
    let ledger: Vec<(usize, usize)> = want
        .diagnostics
        .injected
        .iter()
        .map(|r| (r.package_index, r.file_index))
        .collect();
    assert!(!ledger.is_empty(), "5% of the corpus must inject");
    assert_eq!(ledger, planned_faults(&plan, &packages), "injection ledger");
    assert!(
        !want.diagnostics.skipped.is_empty(),
        "fatal faults must skip"
    );

    let materialized = Some(&packages[..]);
    for (what, packages, warm) in [
        ("faulted/generated/mem-warm", None, true),
        ("faulted/materialized/uncached", materialized, false),
        ("faulted/materialized/mem-warm", materialized, true),
    ] {
        // A warm cache holds the clean run, as in the sweep.
        let mem = AnalysisCache::new(CacheMode::Mem);
        if warm {
            run(
                repo,
                &RunOptions {
                    cache: Some(&mem),
                    ..RunOptions::default()
                },
            );
        }
        let opts = RunOptions {
            packages,
            cache: warm.then_some(&mem),
            ..faulted
        };
        let got = run(repo, &opts);
        assert_identical(&want, &got, what);
        let (g, w) = (&got.diagnostics, &want.diagnostics);
        assert_eq!(g.injected, w.injected, "{what}: injection ledger");
        assert_eq!(g.skipped, w.skipped, "{what}: skip list");
        if warm {
            assert_cache_ledger(&got, CacheMode::Mem, false, what);
            assert!(g.cache_hits > 0, "{what}: untouched binaries hit");
        }
    }
    assert_ne!(
        clean.packages, want.packages,
        "the plan must move some record"
    );

    // The plan applied outside the runner: a clean one-shard run over a
    // corrupted copy measures the same study.
    let libc6 = clean.by_name["libc6"];
    assert!(
        want.diagnostics
            .injected
            .iter()
            .any(|r| r.package_index == libc6 && r.file == "libc.so.6" && r.fatal),
        "the plan must corrupt the libc that libc6 ships"
    );
    let corrupted: Vec<Package> = packages
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut p = p.clone();
            plan.corrupt_package(i, &mut p);
            p
        })
        .collect();
    let opts = RunOptions {
        packages: Some(&corrupted),
        ..RunOptions::default()
    };
    let got = run(repo, &opts);
    assert_identical(&want, &got, "clean run over a corrupted copy");
    assert_eq!(
        got.diagnostics.skipped, want.diagnostics.skipped,
        "corrupted copy: skip list"
    );
}

#[test]
fn dirty_shards_are_recomputed_never_stored() {
    // A 200-instruction decode budget turns a few binaries into
    // classified skips: their shards are dirty, the others clean.
    let (repo, _) = reference(2016);
    let analysis = AnalysisOptions {
        decode_budget: 200,
        ..AnalysisOptions::default()
    };
    let want = run(
        repo,
        &RunOptions {
            analysis,
            ..RunOptions::default()
        },
    );
    let dirty: BTreeSet<usize> = want
        .diagnostics
        .skipped
        .iter()
        .map(|s| want.by_name[&s.package] / 32)
        .collect();
    let shards = PACKAGES.div_ceil(32) as u64;
    let clean = shards - dirty.len() as u64;
    assert!(
        !dirty.is_empty() && clean > 0,
        "the budget must dirty some shards, not all: {dirty:?}"
    );
    let clean_packages: u64 = (0..shards as usize)
        .filter(|i| !dirty.contains(i))
        .map(|i| (PACKAGES - i * 32).min(32) as u64)
        .sum();

    let dir = scratch("dirty");
    let path = dir.join("footprints.apsf");
    let opts = RunOptions {
        analysis,
        ..sharded(32)
    };
    for (what, resume, stats) in [
        (
            "dirty store: fresh write",
            false,
            ledger(0, shards, clean, 0),
        ),
        (
            "dirty store: resume",
            true,
            ledger(clean, shards - clean, 0, clean_packages),
        ),
    ] {
        let (got, st) = stream::run(repo, &opts, Some((&path, resume))).expect("stored run");
        assert_eq!(
            st, stats,
            "{what}: only clean shards are stored and replayed"
        );
        assert_identical(&want, &got, what);
        assert_eq!(
            got.diagnostics.skipped, want.diagnostics.skipped,
            "{what}: skip list"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn six_hundred_packages_at_shard_256() {
    let repo = repo(600, 2016);
    let want = StudyData::from_synth(&repo);
    let got = run(&repo, &sharded(256));
    assert_identical(&want, &got, "600/shard 256");
}

#[test]
#[should_panic(expected = "a faulted run is never stored")]
fn a_faulted_run_takes_no_store() {
    let repo = repo(PACKAGES, 2016);
    let opts = RunOptions {
        shards: Shards::Faulted(FaultPlan::new(FAULT_SEED, 0.05)),
        ..RunOptions::default()
    };
    let path = std::env::temp_dir().join("apistudy-conformance-never-written.apsf");
    let _ = stream::run(&repo, &opts, Some((&path, false)));
}
