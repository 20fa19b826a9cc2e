//! The corruption-degradation sweep: how the study's headline numbers
//! shift as the corpus decays.
//!
//! The paper's pipeline measured a pristine package mirror; a real-world
//! rerun would face bit-rot, truncated downloads, and hostile inputs.
//! [`corruption_sweep`] reruns the full pipeline over the same repository
//! at increasing injected-corruption rates (same fault seed, so the
//! injection sets are nested — see [`apistudy_corpus::fault`]) and
//! records, per rate, both the robustness ledger (injections, skips,
//! partial packages) and the metrics the paper reports (distinct syscalls
//! observed, weighted completeness of a fixed support set). The sweep
//! quantifies *graceful* degradation: metrics must move smoothly and
//! monotonically with the corruption rate, never abort, and stay
//! bit-identical at rate zero.

use std::collections::HashSet;
use std::path::Path;

use apistudy_analysis::AnalysisOptions;
use apistudy_catalog::{ApiKind, ApiSet, Catalog};
use apistudy_corpus::{FaultPlan, SynthRepo};
use apistudy_report::{pct, Align, TextTable};

use crate::cache::{fold_hash, AnalysisCache, CacheMode};
use crate::journal::{
    catalog_fingerprint, corpus_fingerprint, Journal, JournalError,
    JournalRecord, JournalStats, RunFingerprint, RunKind,
};
use crate::{
    metrics::{weighted_completeness_unindexed, Metrics},
    pipeline::{materialize, StudyData},
};

/// How many of the clean baseline's top-ranked syscalls form the fixed
/// support set whose weighted completeness the sweep tracks (the paper's
/// "most important N" framing, §4).
pub const SWEEP_SUPPORT_TOP_N: usize = 100;

/// One measured point of the corruption sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationPoint {
    /// Injected corruption rate (fraction of ELF files).
    pub rate: f64,
    /// Faults injected at this rate.
    pub injected: u32,
    /// Injected faults that must quarantine their binary.
    pub injected_fatal: u32,
    /// Binaries the pipeline skipped (classified quarantines).
    pub skipped_binaries: u32,
    /// Of the skipped binaries, those abandoned by the wall-clock
    /// watchdog (zero unless `APISTUDY_ITEM_DEADLINE_MS` is set).
    pub deadline_skipped: u32,
    /// Packages flagged with a partial footprint.
    pub partial_packages: u32,
    /// Packages abandoned wholesale after double panics.
    pub quarantined_packages: u32,
    /// Distinct syscalls observed across all package footprints.
    pub distinct_syscalls: usize,
    /// Weighted completeness of the clean baseline's top-N syscall set
    /// against this run's footprints.
    pub completeness_top: f64,
}

/// Reruns the pipeline at each corruption rate and measures the fallout.
///
/// The support set for the completeness column is fixed once, from the
/// *clean* baseline's importance ranking, so the column isolates how
/// corruption moves the metric rather than how it moves the ranking.
///
/// One [`AnalysisCache`] (mode from `APISTUDY_CACHE`, default `mem`) is
/// threaded through the baseline and every rate: the clean run warms it,
/// and each sweep point then re-analyzes only the binaries its
/// [`FaultPlan`] actually mutated — everything byte-identical to the
/// baseline is a cache hit. The measured points are bit-identical to an
/// un-cached sweep (`APISTUDY_CACHE=off` restores one).
pub fn corruption_sweep(
    repo: &SynthRepo,
    options: AnalysisOptions,
    fault_seed: u64,
    rates: &[f64],
) -> Vec<DegradationPoint> {
    let cache = AnalysisCache::new(CacheMode::from_env());
    corruption_sweep_with(repo, options, fault_seed, rates, &cache)
}

/// [`corruption_sweep`] with a caller-supplied cache — the CLI passes its
/// `--cache`-selected (possibly disk-backed) instance and then reads the
/// traffic counters back for its footer; benches pass `off`/`mem` caches
/// to measure cold versus warm sweeps.
pub fn corruption_sweep_with(
    repo: &SynthRepo,
    options: AnalysisOptions,
    fault_seed: u64,
    rates: &[f64],
    cache: &AnalysisCache,
) -> Vec<DegradationPoint> {
    // Materialize the corpus once and hold it for the sweep's duration:
    // every point then clones packages (a memcpy of the corpus's bytes)
    // instead of re-synthesizing them, which costs over an order of
    // magnitude more. The memory price is the corpus's byte size (a few
    // MiB at test scale), paid once instead of regenerated per point.
    let packages = materialize(repo);
    let baseline =
        StudyData::from_packages_cached(repo, &packages, options, Some(cache));
    let baseline_metrics = Metrics::new(&baseline);
    let supported: HashSet<u32> = baseline_metrics
        .importance_ranking(ApiKind::Syscall)
        .into_iter()
        .take(SWEEP_SUPPORT_TOP_N)
        .filter_map(|(api, _)| match api {
            apistudy_catalog::Api::Syscall(nr) => Some(nr),
            _ => None,
        })
        .collect();
    // The unsupported mask depends only on the (shared) catalog and the
    // fixed support set — build it once instead of once per sweep point.
    let unsupported = baseline_metrics.syscall_unsupported_mask(&supported);
    rates
        .iter()
        .map(|&rate| {
            let plan = FaultPlan::new(fault_seed, rate);
            let data = StudyData::from_packages_faulted_cached(
                repo,
                &packages,
                options,
                &plan,
                Some(cache),
            );
            measure(rate, &data, &unsupported)
        })
        .collect()
}

/// [`corruption_sweep_with`] under a write-ahead journal: the baseline's
/// support set and every completed sweep point are appended to `journal`
/// as they finish, and with `resume` the journaled prefix is replayed
/// instead of recomputed. The returned points are bit-identical to an
/// uninterrupted (or un-journaled) sweep:
///
/// - replayed points carry the exact f64 bit patterns the original run
///   measured (the journal stores bits, never decimal);
/// - a replayed support set short-circuits the whole baseline pipeline
///   run — the unsupported mask is a pure function of the catalog and the
///   set (see [`Metrics::syscall_unsupported_mask`]), so it is rebuilt
///   from [`Catalog::linux_3_19`] without touching a single binary;
/// - the journal header's [`RunFingerprint`] binds the file to this
///   corpus, these [`AnalysisOptions`], this catalog, and this fault
///   plan (seed + rate grid + support-set size); any drift is refused.
///
/// A `Disk`-mode `cache` is persisted after the baseline and after each
/// appended point, so a crash loses at most one point's analyses; other
/// modes make `persist` a no-op.
pub fn corruption_sweep_journaled(
    repo: &SynthRepo,
    options: AnalysisOptions,
    fault_seed: u64,
    rates: &[f64],
    cache: &AnalysisCache,
    journal_path: &Path,
    resume: bool,
) -> Result<(Vec<DegradationPoint>, JournalStats), JournalError> {
    let fp = RunFingerprint {
        kind: RunKind::CorruptionSweep,
        corpus: corpus_fingerprint(repo),
        options: options.fingerprint(),
        catalog: catalog_fingerprint(&Catalog::linux_3_19()),
        plan: {
            let mut h = fold_hash(0, fault_seed);
            for &rate in rates {
                h = fold_hash(h, rate.to_bits());
            }
            fold_hash(h, SWEEP_SUPPORT_TOP_N as u64)
        },
    };
    let (mut journal, records) = if resume {
        Journal::resume_or_create(journal_path, &fp)?
    } else {
        (Journal::create(journal_path, &fp)?, Vec::new())
    };

    // A valid sweep journal is one optional SupportSet followed by sweep
    // points in rate order; anything else diverged from this code's own
    // append discipline.
    let mut support_numbers: Option<Vec<u32>> = None;
    let mut replayed: Vec<DegradationPoint> = Vec::new();
    for rec in records {
        match rec {
            JournalRecord::SupportSet(numbers) => {
                if support_numbers.is_some() || !replayed.is_empty() {
                    return Err(JournalError::Diverged(
                        "support set recorded twice or after a sweep point"
                            .into(),
                    ));
                }
                support_numbers = Some(numbers);
            }
            JournalRecord::SweepPoint(p) => {
                if support_numbers.is_none() {
                    return Err(JournalError::Diverged(
                        "sweep point recorded before the support set".into(),
                    ));
                }
                let i = replayed.len();
                match rates.get(i) {
                    Some(r) if r.to_bits() == p.rate.to_bits() => {}
                    _ => {
                        return Err(JournalError::Diverged(format!(
                            "journaled point {i} has rate {}, run expects {}",
                            p.rate,
                            rates.get(i).copied().unwrap_or(f64::NAN),
                        )))
                    }
                }
                replayed.push(p);
            }
            other => {
                return Err(JournalError::Diverged(format!(
                    "unexpected record in a sweep journal: {other:?}"
                )))
            }
        }
    }

    let mut points = replayed;
    if points.len() == rates.len() && support_numbers.is_some() {
        // Fully replayed: never materialize the corpus, never touch a
        // binary — the whole sweep costs one journal read.
        return Ok((points, journal.stats()));
    }

    let packages = materialize(repo);
    let support_numbers = match support_numbers {
        Some(numbers) => numbers,
        None => {
            let baseline = StudyData::from_packages_cached(
                repo, &packages, options, Some(cache),
            );
            let numbers: Vec<u32> = Metrics::new(&baseline)
                .importance_ranking(ApiKind::Syscall)
                .into_iter()
                .take(SWEEP_SUPPORT_TOP_N)
                .filter_map(|(api, _)| match api {
                    apistudy_catalog::Api::Syscall(nr) => Some(nr),
                    _ => None,
                })
                .collect();
            journal.append(&JournalRecord::SupportSet(numbers.clone()))?;
            cache.persist()?;
            numbers
        }
    };
    // The mask is a pure function of catalog × support set — rebuilding
    // it here is bit-identical to `syscall_unsupported_mask` on the
    // baseline run, which is what lets a resume skip the baseline.
    let supported: HashSet<u32> = support_numbers.iter().copied().collect();
    let catalog = Catalog::linux_3_19();
    let mut unsupported = apistudy_catalog::ApiSet::new();
    for d in catalog.syscalls.iter() {
        if !supported.contains(&d.number) {
            unsupported.insert(apistudy_catalog::Api::Syscall(d.number));
        }
    }

    for &rate in &rates[points.len()..] {
        let plan = FaultPlan::new(fault_seed, rate);
        let data = StudyData::from_packages_faulted_cached(
            repo,
            &packages,
            options,
            &plan,
            Some(cache),
        );
        let point = measure(rate, &data, &unsupported);
        journal.append(&JournalRecord::SweepPoint(point.clone()))?;
        cache.persist()?;
        points.push(point);
    }
    Ok((points, journal.stats()))
}

fn measure(
    rate: f64,
    data: &StudyData,
    unsupported: &ApiSet,
) -> DegradationPoint {
    // Every API some package uses, as one word-wise union.
    let mut used = ApiSet::new();
    for p in &data.packages {
        used.union_with(&p.footprint.apis);
    }
    let d = &data.diagnostics;
    DegradationPoint {
        rate,
        injected: d.injected.len() as u32,
        injected_fatal: d.injected.iter().filter(|r| r.fatal).count() as u32,
        skipped_binaries: d.total_skipped() as u32,
        deadline_skipped: d.deadline_skips() as u32,
        partial_packages: data
            .packages
            .iter()
            .filter(|p| p.partial_footprint)
            .count() as u32,
        quarantined_packages: d.quarantined_packages,
        distinct_syscalls: used.iter().filter(|a| a.kind() == ApiKind::Syscall).count(),
        completeness_top: weighted_completeness_unindexed(data, unsupported),
    }
}

/// Renders a sweep as the report's degradation table.
pub fn degradation_table(points: &[DegradationPoint]) -> TextTable {
    let mut table = TextTable::new(
        "Degradation under injected corruption (nested fault plans)",
        &[
            "rate",
            "injected",
            "fatal",
            "skipped",
            "deadline",
            "partial pkgs",
            "quarantined pkgs",
            "distinct syscalls",
            "top-100 completeness",
        ],
    )
    .aligns(&[
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for p in points {
        table.row(&[
            format!("{:.1}%", p.rate * 100.0),
            p.injected.to_string(),
            p.injected_fatal.to_string(),
            p.skipped_binaries.to_string(),
            p.deadline_skipped.to_string(),
            p.partial_packages.to_string(),
            p.quarantined_packages.to_string(),
            p.distinct_syscalls.to_string(),
            pct(p.completeness_top),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use apistudy_corpus::{CalibrationSpec, Scale};

    #[test]
    fn sweep_is_monotone_and_clean_at_zero() {
        let repo = SynthRepo::new(
            Scale { packages: 120, installations: 10_000 },
            CalibrationSpec::default(),
            0xBEEF,
        );
        let points = corruption_sweep(
            &repo,
            AnalysisOptions::default(),
            0xFA11,
            &[0.0, 0.03, 0.08],
        );
        assert_eq!(points.len(), 3);
        let zero = &points[0];
        assert_eq!(zero.injected, 0);
        assert_eq!(zero.skipped_binaries, 0);
        assert_eq!(zero.partial_packages, 0);
        for pair in points.windows(2) {
            assert!(pair[1].injected >= pair[0].injected, "nested plans");
            assert!(
                pair[1].skipped_binaries >= pair[0].skipped_binaries,
                "skips grow with rate"
            );
            assert!(
                pair[1].distinct_syscalls <= pair[0].distinct_syscalls,
                "coverage can only shrink"
            );
        }
        assert!(
            points[2].skipped_binaries > 0,
            "8% corruption must quarantine something"
        );
        let table = degradation_table(&points);
        assert_eq!(table.len(), 3);
        let text = table.render();
        assert!(text.contains("8.0%"), "table:\n{text}");
    }
}
