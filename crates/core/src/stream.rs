//! The streaming, sharded pipeline: paper-scale corpora under
//! shard-bounded memory.
//!
//! The in-memory pipeline materializes every binary of every package
//! before assembling [`StudyData`] — fine at 600 packages, hopeless at
//! the paper's 30,976. This module splits the corpus plan into fixed-size
//! contiguous shards and runs generate → analyze → resolve → fold with
//! only one shard's binaries resident at a time:
//!
//! 1. **Per shard** ([`StudyData::shard_assemble`] in `pipeline`): the
//!    shard's packages are generated lazily, analyzed in parallel on
//!    [`par_map_indexed`](crate::pipeline), registered into a
//!    *shard-local* linker, and resolved to compact [`PackageRecord`]s
//!    plus per-package attribution fragments. The binaries die with the
//!    shard; what survives is a [`ShardPartial`] measured in kilobytes.
//! 2. **Fold** ([`fold_partials`]): partials merge into a full
//!    [`StudyData`] — records concatenate in plan order, the census sums,
//!    attribution fragments rebuild the global direct-user index, and the
//!    interpreter-inheritance fixpoint (which can cross shards) runs once
//!    over the compact records.
//!
//! Shard-locality is *sound*, not approximate: symbol resolution only
//! ever searches an object's own `DT_NEEDED` closure, and every closure
//! in the corpus is {system libraries} ∪ {the package's own libraries}.
//! The four system libraries are analyzed once ([`SystemBase`]) and
//! pre-registered into every shard's linker (except the first, where the
//! `libc6` package ships them itself), so each executable resolves
//! against exactly the libraries it would see in a whole-corpus linker.
//! The in-memory path is literally this path run over one shard covering
//! the corpus, so bit-identity is by construction — and still test-gated.
//!
//! [`study_sharded_stored`] additionally persists every *clean* shard's
//! records into an on-disk [`FootprintStore`](crate::store::FootprintStore)
//! keyed by a [`RunFingerprint`], so an interrupted paper-scale run
//! resumes by replaying completed shards at file-read cost.

use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use apistudy_analysis::{AnalysisOptions, BinaryAnalysis};
use apistudy_catalog::Catalog;
use apistudy_corpus::{libc_gen, MixCensus, SynthRepo};

use crate::cache::{fold_hash, AnalysisCache, CacheKey};
use crate::diagnostics::{peak_rss_kb, RunDiagnostics};
use crate::journal::{
    catalog_fingerprint, corpus_fingerprint, JournalError, RunFingerprint,
    RunKind,
};
use crate::pipeline::{
    analyze_binary, analyze_package, item_deadline_from_env, par_map_indexed,
    Attribution, PackageRecord, PkgIntermediate, StudyData,
};
use crate::store::{FootprintStore, StoreStats};

/// Default shard size for streaming runs: large enough to keep the
/// per-shard parallel analysis saturated, small enough that one shard of
/// materialized binaries stays far under the memory budget.
pub const DEFAULT_SHARD_SIZE: usize = 512;

/// Per-package attribution fragment: which of the package's binaries have
/// *direct* call sites for which syscalls. Libraries carry their soname
/// (attribution is by file name); executables are identified positionally
/// — the fold names them `{package}/exec{i}` exactly as the in-memory
/// registration loop did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackageAttribution {
    /// `(soname, direct syscall numbers)` per shipped library, in ship
    /// order.
    pub libs: Vec<(String, Vec<u32>)>,
    /// Direct syscall numbers per shipped executable, in ship order.
    pub execs: Vec<Vec<u32>>,
}

/// Everything one shard contributes to the study: compact per-package
/// results plus mergeable aggregates. Holding every `ShardPartial` of a
/// 30k-package corpus costs megabytes; holding every *binary* would cost
/// gigabytes — that asymmetry is the whole streaming design.
#[derive(Debug, Clone)]
pub struct ShardPartial {
    /// Shard index (position in [`shard_ranges`]).
    pub shard: usize,
    /// First package index the shard covers.
    pub start: usize,
    /// One record per package, in package-index order.
    pub records: Vec<PackageRecord>,
    /// One attribution fragment per package, parallel to `records`.
    pub attributions: Vec<PackageAttribution>,
    /// The shard's slice of the Figure 1 census.
    pub census: MixCensus,
    /// Unresolved syscall sites observed in this shard.
    pub unresolved_sites: u64,
    /// Resolved syscall sites observed in this shard.
    pub resolved_sites: u64,
    /// The shard's robustness accounting.
    pub diagnostics: RunDiagnostics,
    /// True when this partial was replayed from a
    /// [`FootprintStore`](crate::store::FootprintStore) instead of being
    /// computed.
    pub replayed: bool,
}

/// The four system libraries (libc, the dynamic linker, libpthread,
/// librt), analyzed once and shared — read-only — by every shard's
/// linker. The shard containing `libc6` (always shard 0) does *not* use
/// the base: that package ships the system libraries itself, and
/// registering them twice would double-count.
pub(crate) struct SystemBase {
    /// `(soname, content hash, analysis)` in generation order. The hash
    /// is 0 when no cache is attached, mirroring
    /// [`analyze_package`](crate::pipeline)'s convention.
    pub(crate) libs: Vec<(String, u64, Arc<BinaryAnalysis>)>,
    /// System libraries whose analysis failed: they taint every shard,
    /// exactly as a skipped library taints dependents in-shard.
    pub(crate) tainted: Vec<String>,
}

/// Analyzes the system libraries once, consulting the cache when one is
/// attached. Their syscall-site counts and diagnostics are *not*
/// recorded here — shard 0 analyzes the same bytes inside `libc6` and
/// owns those counts, keeping corpus totals identical to the in-memory
/// path.
fn system_base(
    options: AnalysisOptions,
    cache: Option<(&AnalysisCache, u64)>,
) -> SystemBase {
    let catalog = Catalog::linux_3_19();
    let mut libs = Vec::new();
    let mut tainted = Vec::new();
    for (name, bytes) in libc_gen::generate_system_libraries(&catalog) {
        let key = cache.map(|(_, fp)| CacheKey::for_bytes(&bytes, fp));
        let hash = key.map_or(0, |k| k.content);
        if let (Some((c, _)), Some(key)) = (cache, key) {
            if let Some(ba) = c.get(key) {
                libs.push((name, hash, ba));
                continue;
            }
        }
        match analyze_binary(&bytes, options) {
            (Ok(ba), panics) => {
                let ba = Arc::new(ba);
                if panics == 0 {
                    if let (Some((c, _)), Some(key)) = (cache, key) {
                        c.insert(key, Arc::clone(&ba));
                    }
                }
                libs.push((name, hash, ba));
            }
            (Err(_), _) => tainted.push(name),
        }
    }
    SystemBase { libs, tainted }
}

/// Contiguous fixed-size shard ranges covering `0..package_count` (the
/// last shard may be short). A `shard_size` of 0 yields one shard over
/// the whole corpus — the in-memory path's geometry.
pub fn shard_ranges(package_count: usize, shard_size: usize) -> Vec<Range<usize>> {
    if package_count == 0 {
        return Vec::new();
    }
    let size = if shard_size == 0 { package_count } else { shard_size };
    (0..package_count)
        .step_by(size)
        .map(|start| start..(start + size).min(package_count))
        .collect()
}

/// Runs one shard end to end: parallel generate+analyze over the shard's
/// packages, then shard-local registration and resolution. Only this
/// shard's binaries are ever materialized.
fn run_shard(
    repo: &SynthRepo,
    options: AnalysisOptions,
    cache: Option<(&AnalysisCache, u64)>,
    deadline: Option<std::time::Duration>,
    base: Option<&SystemBase>,
    shard: usize,
    range: Range<usize>,
) -> ShardPartial {
    let start = range.start;
    let (inters, stats) = par_map_indexed(
        range.len(),
        deadline,
        |i| analyze_package(start + i, &repo.package(start + i), options, cache),
        |i, cause, detail| {
            PkgIntermediate::quarantined(start + i, repo, detail, cause.stage())
        },
    );
    StudyData::shard_assemble(
        repo, inters, stats, cache, deadline, base, shard, start,
    )
}

/// Computes every shard's partial, sequentially: shard N's binaries are
/// dropped before shard N+1 materializes, which is what bounds peak RSS
/// to one shard. Parallelism lives *inside* each shard, where
/// [`par_map_indexed`](crate::pipeline) fans the shard's packages across
/// the worker pool.
pub fn shard_partials(
    repo: &SynthRepo,
    options: AnalysisOptions,
    shard_size: usize,
    cache: Option<(&AnalysisCache, u64)>,
) -> Vec<ShardPartial> {
    let ranges = shard_ranges(repo.package_count(), shard_size);
    let deadline = item_deadline_from_env();
    let base = if ranges.len() > 1 {
        Some(system_base(options, cache))
    } else {
        None
    };
    ranges
        .into_iter()
        .enumerate()
        .map(|(shard, range)| {
            // Shard 0 contains libc6, which ships the system libraries
            // itself; seeding the base there would register them twice.
            let shard_base = if shard == 0 { None } else { base.as_ref() };
            run_shard(repo, options, cache, deadline, shard_base, shard, range)
        })
        .collect()
}

/// Folds shard partials into a full [`StudyData`]. Order-independent:
/// partials are sorted by shard index first, so any arrival order —
/// including a mix of replayed and freshly computed shards — folds to
/// bit-identical results.
pub fn fold_partials(
    total_installations: u64,
    mut partials: Vec<ShardPartial>,
) -> StudyData {
    partials.sort_by_key(|p| p.shard);

    let n: usize = partials.iter().map(|p| p.records.len()).sum();
    let mut packages: Vec<PackageRecord> = Vec::with_capacity(n);
    let mut attribution = Attribution::default();
    let mut census = MixCensus::default();
    let mut unresolved_total = 0u64;
    let mut resolved_total = 0u64;
    let mut diagnostics = RunDiagnostics::default();

    for partial in &mut partials {
        census.merge(&partial.census);
        unresolved_total += partial.unresolved_sites;
        resolved_total += partial.resolved_sites;

        let d = &mut partial.diagnostics;
        diagnostics.analyzed_binaries += d.analyzed_binaries;
        diagnostics.panics_contained += d.panics_contained;
        diagnostics.retries_recovered += d.retries_recovered;
        diagnostics.quarantined_packages += d.quarantined_packages;
        diagnostics.deadline_quarantined += d.deadline_quarantined;
        diagnostics.cache_hits += d.cache_hits;
        diagnostics.cache_misses += d.cache_misses;
        diagnostics.cache_evictions += d.cache_evictions;
        diagnostics.skipped.append(&mut d.skipped);
        diagnostics.injected.append(&mut d.injected);

        // Rebuild the global attribution index from the fragments, in
        // package order with libraries before executables — the exact
        // registration order of the in-memory loop, so the finalized
        // index is identical.
        for (rec, attr) in partial.records.iter().zip(&partial.attributions) {
            let pkg: Arc<str> = Arc::from(rec.name.as_str());
            for (soname, nrs) in &attr.libs {
                let file: Arc<str> = Arc::from(soname.as_str());
                for &nr in nrs {
                    attribution.record(nr, &file);
                }
                attribution
                    .binary_package
                    .insert(Arc::clone(&file), Arc::clone(&pkg));
            }
            for (ei, nrs) in attr.execs.iter().enumerate() {
                let file: Arc<str> =
                    Arc::from(format!("{}/exec{ei}", rec.name));
                for &nr in nrs {
                    attribution.record(nr, &file);
                }
                attribution.binary_package.insert(file, Arc::clone(&pkg));
            }
        }
        packages.append(&mut partial.records);
    }
    attribution.finalize();

    let by_name: HashMap<String, usize> = packages
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.clone(), i))
        .collect();

    // Script packages inherit the interpreter package's footprint (§2.3:
    // the interpreter over-approximates the script). This fixpoint can
    // cross shard boundaries — a Python script in shard 40 inherits from
    // python2.7 wherever it lives — which is why it runs here, over the
    // compact records, and not per shard.
    let providers: Vec<Vec<usize>> = packages
        .iter()
        .map(|p| {
            p.script_interpreters
                .iter()
                .filter(|provider| **provider != p.name)
                .filter_map(|provider| by_name.get(provider).copied())
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for (i, provs) in providers.iter().enumerate() {
            for &src in provs {
                changed |= crate::pipeline::inherit_apis(&mut packages, i, src);
                // A script package inheriting from a partial interpreter
                // is itself partial.
                changed |=
                    crate::pipeline::inherit_partial(&mut packages, i, src);
            }
        }
        if !changed {
            break;
        }
    }

    diagnostics.peak_rss_kb = peak_rss_kb();

    StudyData {
        catalog: Catalog::linux_3_19(),
        packages,
        by_name,
        total_installations,
        census,
        attribution,
        unresolved_syscall_sites: unresolved_total,
        resolved_syscall_sites: resolved_total,
        diagnostics,
    }
}

/// Runs the full streaming pipeline: shard, analyze, fold. Bit-identical
/// to [`StudyData::from_synth_with`] for any shard size (test-gated at
/// scales 150 and 600), with peak memory bounded by one shard.
pub fn study_sharded(
    repo: &SynthRepo,
    options: AnalysisOptions,
    shard_size: usize,
    cache: Option<&AnalysisCache>,
) -> StudyData {
    let with_fp = cache.map(|c| (c, options.fingerprint()));
    let evictions_before = cache.map_or(0, |c| c.stats().evictions);
    let partials = shard_partials(repo, options, shard_size, with_fp);
    let mut data =
        fold_partials(repo.plan.popcon.total_installations, partials);
    if let Some(cache) = cache {
        data.diagnostics.cache_mode = cache.mode();
        data.diagnostics.cache_evictions =
            cache.stats().evictions - evictions_before;
    }
    data
}

/// The identity of one sharded run: corpus, analysis options, catalog,
/// and the shard geometry plus the interned API universe (stored records
/// encode `ApiSet`s as interner ids, so a universe change must invalidate
/// the store exactly as a catalog change does).
pub fn sharded_fingerprint(
    repo: &SynthRepo,
    options: AnalysisOptions,
    shard_size: usize,
) -> RunFingerprint {
    let catalog = Catalog::linux_3_19();
    let universe = apistudy_catalog::ApiInterner::global().universe() as u64;
    RunFingerprint {
        kind: RunKind::ShardedPipeline,
        corpus: corpus_fingerprint(repo),
        options: options.fingerprint(),
        catalog: catalog_fingerprint(&catalog),
        plan: fold_hash(fold_hash(0, shard_size as u64), universe),
    }
}

/// [`study_sharded`] with crash-safe persistence: every shard whose
/// diagnostics come back clean is appended to the [`FootprintStore`] at
/// `path`, and with `resume` set, shards already present in a
/// fingerprint-matching store are replayed instead of recomputed. Dirty
/// shards (skips, contained panics, quarantines) are never stored — like
/// the analysis cache, the store holds only results that are safe to
/// trust without re-deriving the fault ledger.
pub fn study_sharded_stored(
    repo: &SynthRepo,
    options: AnalysisOptions,
    shard_size: usize,
    cache: Option<&AnalysisCache>,
    path: &Path,
    resume: bool,
) -> Result<(StudyData, StoreStats), JournalError> {
    let with_fp = cache.map(|c| (c, options.fingerprint()));
    let evictions_before = cache.map_or(0, |c| c.stats().evictions);
    let fp = sharded_fingerprint(repo, options, shard_size);
    let (mut store, mut replayable) = if resume {
        FootprintStore::resume_or_create(path, &fp)?
    } else {
        (FootprintStore::create(path, &fp)?, HashMap::new())
    };

    let ranges = shard_ranges(repo.package_count(), shard_size);
    let deadline = item_deadline_from_env();
    let mut stats = StoreStats::default();
    // The system-library base is only analyzed if some shard actually
    // computes (a fully replayed resume never materializes a binary).
    let base = std::cell::OnceCell::new();
    let mut partials = Vec::with_capacity(ranges.len());
    for (shard, range) in ranges.into_iter().enumerate() {
        let replayed = replayable.remove(&shard).filter(|p| {
            p.start == range.start && p.records.len() == range.len()
        });
        let partial = match replayed {
            Some(p) => {
                stats.replayed_shards += 1;
                stats.replayed_packages += p.records.len() as u64;
                p
            }
            None => {
                let shard_base = if shard == 0 {
                    None
                } else {
                    Some(base.get_or_init(|| system_base(options, with_fp)))
                };
                let p = run_shard(
                    repo, options, with_fp, deadline, shard_base, shard, range,
                );
                stats.computed_shards += 1;
                if p.diagnostics.is_clean() {
                    store.append_shard(&p)?;
                    stats.stored_shards += 1;
                }
                p
            }
        };
        partials.push(partial);
    }

    let mut data =
        fold_partials(repo.plan.popcon.total_installations, partials);
    if let Some(cache) = cache {
        data.diagnostics.cache_mode = cache.mode();
        data.diagnostics.cache_evictions =
            cache.stats().evictions - evictions_before;
    }
    Ok((data, stats))
}
