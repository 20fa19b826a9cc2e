//! Fault-isolation contract: a corpus with deterministically injected
//! corruption must be measured, not aborted — every corrupt binary
//! quarantined and accounted for, every unaffected package bit-identical
//! to the clean run, and the degradation curve monotone in the corruption
//! rate.

use std::collections::HashSet;

use apistudy::analysis::AnalysisOptions;
use apistudy::core::{
    corruption_sweep, stream, AnalysisCache, CacheMode, DegradationPoint,
    RunOptions, Shards, StudyData,
};
use apistudy::corpus::{CalibrationSpec, FaultPlan, Scale, SynthRepo};

const FAULT_SEED: u64 = 0x5EED;

fn repo() -> SynthRepo {
    SynthRepo::new(
        Scale { packages: 150, installations: 50_000 },
        CalibrationSpec::default(),
        0xBEEF,
    )
}

/// The pipeline over `repo` corrupted by `plan`.
fn faulted(
    repo: &SynthRepo,
    plan: FaultPlan,
    cache: Option<&AnalysisCache>,
) -> StudyData {
    let opts = RunOptions {
        shards: Shards::Faulted(plan),
        cache,
        ..RunOptions::default()
    };
    stream::run(repo, &opts, None).expect("no store, no I/O").0
}

/// The unjournaled sweep over `rates` through `cache`.
fn sweep(
    repo: &SynthRepo,
    rates: &[f64],
    cache: &AnalysisCache,
) -> Vec<DegradationPoint> {
    let options = AnalysisOptions::default();
    corruption_sweep(repo, options, FAULT_SEED, rates, cache, None)
        .expect("no journal, no I/O")
        .0
}

#[test]
fn corruption_at_5_percent_quarantines_exactly_the_injected_set() {
    let repo = repo();
    let clean = StudyData::from_synth(&repo);
    assert!(clean.diagnostics.is_clean(), "pristine corpus must run clean");

    let faulted = faulted(&repo, FaultPlan::new(FAULT_SEED, 0.05), None);
    let diag = &faulted.diagnostics;
    assert!(!diag.injected.is_empty(), "5% of ~150 packages must inject");
    assert_eq!(
        diag.quarantined_packages, 0,
        "corrupt binaries must not take whole packages down"
    );

    // Every fatal injection is quarantined as a classified skip, keyed by
    // (package name, file name) against the injection ledger...
    let pkg_name = |idx: usize| repo.plan.packages[idx].name.as_str();
    let fatal: HashSet<(String, String)> = diag
        .injected
        .iter()
        .filter(|r| r.fatal)
        .map(|r| (pkg_name(r.package_index).to_owned(), r.file.clone()))
        .collect();
    let skipped: HashSet<(String, String)> = diag
        .skipped
        .iter()
        .map(|s| (s.package.clone(), s.file.clone()))
        .collect();
    assert!(!fatal.is_empty(), "the mix of kinds must include fatal ones");
    for key in &fatal {
        assert!(skipped.contains(key), "injected-corrupt {key:?} not skipped");
    }
    // ...and nothing else was skipped: the rest of the corpus is pristine.
    for key in &skipped {
        assert!(fatal.contains(key), "unexpected skip {key:?}");
    }
    // Every skip is classified under the error taxonomy (corrupt bytes
    // fail with structured errors, not panics).
    for s in &diag.skipped {
        assert!(s.kind.is_some(), "unclassified skip: {s:?}");
    }
    assert_eq!(diag.panics_contained, 0, "no analysis panics expected");

    // Packages shipping a fatal injection are flagged, and their skip
    // counters match the ledger.
    for r in diag.injected.iter().filter(|r| r.fatal) {
        let rec = faulted.package(pkg_name(r.package_index)).unwrap();
        assert!(rec.partial_footprint, "{} not flagged partial", rec.name);
        assert!(rec.skipped_binaries > 0);
    }
}

#[test]
fn unaffected_packages_are_bit_identical_to_the_clean_run() {
    let repo = repo();
    let clean = StudyData::from_synth(&repo);
    let faulted = faulted(&repo, FaultPlan::new(FAULT_SEED, 0.05), None);

    // Packages that received a *fatal* injection, per ground truth.
    let fatally_injected: HashSet<&str> = faulted
        .diagnostics
        .injected
        .iter()
        .filter(|r| r.fatal)
        .map(|r| repo.plan.packages[r.package_index].name.as_str())
        .collect();

    let mut compared = 0;
    for (clean_rec, faulted_rec) in clean.packages.iter().zip(&faulted.packages) {
        assert_eq!(clean_rec.name, faulted_rec.name);
        if faulted_rec.partial_footprint
            || faulted_rec.skipped_binaries > 0
            || fatally_injected.contains(faulted_rec.name.as_str())
        {
            continue;
        }
        // Unaffected (including packages whose only injection was the
        // survivable dependency cycle): metrics must be bit-identical.
        assert_eq!(
            clean_rec.footprint, faulted_rec.footprint,
            "{} footprint drifted without any recorded fault",
            clean_rec.name
        );
        assert_eq!(clean_rec.file_counts, faulted_rec.file_counts);
        assert_eq!(
            clean_rec.unresolved_syscall_sites,
            faulted_rec.unresolved_syscall_sites
        );
        compared += 1;
    }
    assert!(
        compared >= 100,
        "only {compared}/150 packages unaffected at a 5% rate"
    );
}

#[test]
fn rate_zero_is_exactly_the_clean_run_and_reruns_are_deterministic() {
    let repo = repo();
    let clean = StudyData::from_synth(&repo);
    let zero = faulted(&repo, FaultPlan::new(FAULT_SEED, 0.0), None);
    assert!(zero.diagnostics.is_clean());
    for (a, b) in clean.packages.iter().zip(&zero.packages) {
        assert_eq!(a.footprint, b.footprint, "{}", a.name);
        assert!(!b.partial_footprint);
    }

    let plan = FaultPlan::new(FAULT_SEED, 0.05);
    let run1 = faulted(&repo, plan, None);
    let run2 = faulted(&repo, plan, None);
    assert_eq!(run1.diagnostics.injected, run2.diagnostics.injected);
    assert_eq!(
        run1.diagnostics.skipped.len(),
        run2.diagnostics.skipped.len()
    );
    for (a, b) in run1.packages.iter().zip(&run2.packages) {
        assert_eq!(a.footprint, b.footprint, "{}", a.name);
        assert_eq!(a.partial_footprint, b.partial_footprint);
        assert_eq!(a.skipped_binaries, b.skipped_binaries);
    }
}

#[test]
fn degradation_sweep_is_monotone_from_0_to_10_percent() {
    let repo = repo();
    let rates = [0.0, 0.02, 0.05, 0.10];
    let points = sweep(&repo, &rates, &AnalysisCache::new(CacheMode::Mem));
    assert_eq!(points.len(), rates.len());
    assert_eq!(points[0].injected, 0);
    assert_eq!(points[0].skipped_binaries, 0);
    for pair in points.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        assert!(hi.injected >= lo.injected, "nested plans grow");
        assert!(hi.injected_fatal >= lo.injected_fatal);
        assert!(hi.skipped_binaries >= lo.skipped_binaries);
        assert!(hi.partial_packages >= lo.partial_packages);
        assert!(
            hi.distinct_syscalls <= lo.distinct_syscalls,
            "observed API coverage can only shrink as corruption rises"
        );
    }
    assert!(
        points.last().unwrap().skipped_binaries > 0,
        "10% corruption must quarantine something"
    );
}

#[test]
fn cached_sweep_matches_cold_sweep() {
    let repo = repo();
    let rates = [0.0, 0.02, 0.05, 0.10];

    let cold_cache = AnalysisCache::new(CacheMode::Off);
    let cold = sweep(&repo, &rates, &cold_cache);
    let warm_cache = AnalysisCache::new(CacheMode::Mem);
    let warm = sweep(&repo, &rates, &warm_cache);

    // The cache must be invisible in the measured series: every point
    // bit-identical (f64s compared by bit pattern, not tolerance).
    assert_eq!(cold.len(), warm.len());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.rate.to_bits(), w.rate.to_bits());
        assert_eq!(c.injected, w.injected, "rate {}", c.rate);
        assert_eq!(c.injected_fatal, w.injected_fatal, "rate {}", c.rate);
        assert_eq!(c.skipped_binaries, w.skipped_binaries, "rate {}", c.rate);
        assert_eq!(c.partial_packages, w.partial_packages, "rate {}", c.rate);
        assert_eq!(
            c.quarantined_packages, w.quarantined_packages,
            "rate {}",
            c.rate
        );
        assert_eq!(c.distinct_syscalls, w.distinct_syscalls, "rate {}", c.rate);
        assert_eq!(
            c.completeness_top.to_bits(),
            w.completeness_top.to_bits(),
            "completeness drifted at rate {}",
            c.rate
        );
    }
    let stats = warm_cache.stats();
    assert!(stats.hits > 0, "the warm sweep must actually reuse analyses");
    assert_eq!(cold_cache.stats().hits + cold_cache.stats().misses, 0);

    // Per-run diagnostics are ledger-exact under the cache: a cached
    // faulted run skips exactly what an un-cached one skips, and every
    // ELF the run looked at is accounted as a hit or a miss.
    let plan = FaultPlan::new(FAULT_SEED, 0.05);
    let uncached = faulted(&repo, plan, None);
    let cache = AnalysisCache::new(CacheMode::Mem);
    let cached = faulted(&repo, plan, Some(&cache));
    let skips = |d: &apistudy::core::RunDiagnostics| {
        let mut v: Vec<(String, String)> = d
            .skipped
            .iter()
            .map(|s| (s.package.clone(), s.file.clone()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(cached.diagnostics.injected, uncached.diagnostics.injected);
    assert_eq!(skips(&cached.diagnostics), skips(&uncached.diagnostics));
    assert_eq!(
        cached.diagnostics.analyzed_binaries,
        uncached.diagnostics.analyzed_binaries
    );
    assert_eq!(cached.diagnostics.cache_mode, CacheMode::Mem);
    assert_eq!(
        cached.diagnostics.cache_hits + cached.diagnostics.cache_misses,
        cached.diagnostics.analyzed_binaries
            + cached.diagnostics.total_skipped(),
        "every looked-up ELF must be accounted as a hit or a miss"
    );
}

/// Field-by-field bitwise comparison — `PartialEq` would accept
/// `-0.0 == 0.0`; the resume contract is stricter than that.
#[track_caller]
fn assert_points_bitwise(got: &[DegradationPoint], want: &[DegradationPoint]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.rate.to_bits(), w.rate.to_bits());
        assert_eq!(g.injected, w.injected, "rate {}", w.rate);
        assert_eq!(g.injected_fatal, w.injected_fatal, "rate {}", w.rate);
        assert_eq!(g.skipped_binaries, w.skipped_binaries, "rate {}", w.rate);
        assert_eq!(g.deadline_skipped, w.deadline_skipped, "rate {}", w.rate);
        assert_eq!(g.partial_packages, w.partial_packages, "rate {}", w.rate);
        assert_eq!(
            g.quarantined_packages, w.quarantined_packages,
            "rate {}",
            w.rate
        );
        assert_eq!(g.distinct_syscalls, w.distinct_syscalls, "rate {}", w.rate);
        assert_eq!(
            g.completeness_top.to_bits(),
            w.completeness_top.to_bits(),
            "completeness drifted at rate {}",
            w.rate
        );
    }
}

/// The write-ahead journal is observation, not perturbation: a journaled
/// sweep, a full replay, and a torn-tail resume all yield points
/// bit-identical to the plain sweep, with ledger-exact replay/append
/// counts — and a journal from a different fault plan is refused.
#[test]
fn journaled_sweep_resumes_bit_identically() {
    use apistudy::core::JournalError;

    let repo = repo();
    let options = AnalysisOptions::default();
    // A shorter grid than the CLI's: enough to exercise baseline +
    // replay + tail without tripling the suite's runtime.
    let rates: Vec<f64> = (0..=4).map(|i| i as f64 / 100.0).collect();
    let dir = std::env::temp_dir()
        .join(format!("apistudy-journal-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let jpath = dir.join("sweep.journal");

    let plain = sweep(&repo, &rates, &AnalysisCache::new(CacheMode::Off));

    let (fresh, stats) = corruption_sweep(
        &repo,
        options,
        FAULT_SEED,
        &rates,
        &AnalysisCache::new(CacheMode::Off),
        Some((&jpath, false)),
    )
    .unwrap();
    // One support-set record plus one record per rate.
    assert_eq!((stats.replayed, stats.appended), (0, 6));
    assert_points_bitwise(&fresh, &plain);
    let complete = std::fs::read(&jpath).unwrap();

    let (replayed, stats) = corruption_sweep(
        &repo,
        options,
        FAULT_SEED,
        &rates,
        &AnalysisCache::new(CacheMode::Off),
        Some((&jpath, true)),
    )
    .unwrap();
    assert_eq!((stats.replayed, stats.appended), (6, 0));
    assert_points_bitwise(&replayed, &plain);

    // Tear the tail mid-record: the damaged record is discarded, its
    // point recomputed, and the healed journal is byte-identical to the
    // uninterrupted one.
    std::fs::write(&jpath, &complete[..complete.len() - 5]).unwrap();
    let (resumed, stats) = corruption_sweep(
        &repo,
        options,
        FAULT_SEED,
        &rates,
        &AnalysisCache::new(CacheMode::Off),
        Some((&jpath, true)),
    )
    .unwrap();
    assert_eq!((stats.replayed, stats.appended), (5, 1));
    assert_points_bitwise(&resumed, &plain);
    assert_eq!(std::fs::read(&jpath).unwrap(), complete);

    // A different fault seed is a different run: refuse, don't guess.
    let err = corruption_sweep(
        &repo,
        options,
        FAULT_SEED + 1,
        &rates,
        &AnalysisCache::new(CacheMode::Off),
        Some((&jpath, true)),
    )
    .unwrap_err();
    assert!(matches!(err, JournalError::FingerprintMismatch { .. }), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}
