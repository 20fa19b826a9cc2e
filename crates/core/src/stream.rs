//! The pipeline runner: every way to compute the study is one call to
//! [`run`].
//!
//! [`run`] takes the repository, one [`RunOptions`] and an optional
//! on-disk [`FootprintStore`]. The options choose the analyzer
//! ([`AnalysisOptions`]), the shard geometry, an incremental
//! [`AnalysisCache`], a pre-materialized corpus, and — in place of a
//! geometry — a [`FaultPlan`] that corrupts the corpus first.
//! [`StudyData::from_synth`], the [`Study`](crate::study::Study) facade,
//! the corruption sweep and the CLI are each one call into it, so they
//! agree bit for bit by construction (and `tests/conformance.rs` checks
//! every combination against the plain in-memory run).
//!
//! The corpus is split into fixed-size contiguous shards, and generate →
//! analyze → resolve → fold runs with only one shard's binaries resident
//! at a time:
//!
//! 1. **Per shard** ([`StudyData::shard_assemble`] in `pipeline`): the
//!    shard's packages are produced lazily, analyzed in parallel on
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
//! The four system libraries are analyzed, interned and closed once
//! ([`SystemBase`]), and every shard's linker extends them (except the
//! first's, where the `libc6` package ships them itself), so each
//! executable resolves against exactly the libraries it would see in a
//! whole-corpus linker.
//! The in-memory path is this path run over one shard covering the
//! corpus (shard size 0).
//!
//! With a store, every *clean* shard's records are appended to a
//! [`FootprintStore`] keyed by a [`RunFingerprint`], so an interrupted
//! paper-scale run resumes by replaying completed shards at file-read
//! cost.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use apistudy_analysis::{AnalysisOptions, Linker};
use apistudy_catalog::Catalog;
use apistudy_corpus::{
    libc_gen, FaultPlan, FaultRecord, MixCensus, Package, SynthRepo,
};

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

/// How [`run`] divides the corpus.
#[derive(Debug, Clone, Copy)]
pub enum Shards {
    /// Contiguous shards of this many packages (the last may be short);
    /// 0 is one shard over the whole corpus.
    Size(usize),
    /// One whole-corpus shard over a copy of the corpus corrupted by the
    /// plan, its injection ledger in [`RunDiagnostics::injected`]. A
    /// faulted run cannot shard: past shard 0 the system libraries come
    /// from the clean base, not from the corrupted `libc6`. At rate zero
    /// this is exactly the clean run.
    Faulted(FaultPlan),
}

impl Default for Shards {
    fn default() -> Self {
        Shards::Size(0)
    }
}

/// Everything [`run`] takes besides the repository and the store. The
/// default is the paper's analysis over one in-memory shard, generated,
/// uncached.
#[derive(Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// The analyzer's choices: every metric downstream reflects them.
    pub analysis: AnalysisOptions,
    /// The shard geometry, or the fault plan of a one-shard faulted run.
    pub shards: Shards,
    /// A shared incremental cache: binaries whose `(content hash, options
    /// fingerprint)` key is resident skip parsing and analysis. The result
    /// is bit-identical to an uncached run (the cache holds only clean,
    /// panic-free successes); the traffic lands in the diagnostics' cache
    /// counters. In a faulted run the *mutated* bytes are hashed, so an
    /// untouched binary hits the clean entry, and a survivable corruption
    /// hits across sweep points (nested plans corrupt a selected file
    /// identically at every rate that selects it).
    pub cache: Option<&'a AnalysisCache>,
    /// The corpus materialized by [`SynthRepo::materialize_all`]: workers
    /// read `packages[i]` in place instead of regenerating it, and a
    /// faulted run copies only the packages its plan corrupts. Worth its
    /// memory when one repository is measured repeatedly.
    pub packages: Option<&'a [Package]>,
}

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
/// librt), analyzed, interned and closed once, and extended — read-only
/// — by every shard's linker ([`Linker::over`]). The shard containing
/// `libc6` (always shard 0) does *not* use the base: that package ships
/// the system libraries itself, and registering them twice would
/// double-count.
pub(crate) struct SystemBase {
    /// The system libraries, registered in generation order and sealed.
    /// Its graph is condensed by the first shard that queries it, once
    /// per run.
    pub(crate) linker: Arc<Linker>,
    /// Content hash per registered library, in registration order. The
    /// hash is 0 when no cache is attached, mirroring
    /// [`analyze_package`](crate::pipeline)'s convention.
    pub(crate) hashes: Vec<u64>,
    /// System libraries whose analysis failed: they taint every shard,
    /// exactly as a skipped library taints dependents in-shard.
    pub(crate) tainted: Vec<String>,
}

/// Analyzes the system libraries once, consulting the cache when one is
/// attached, and registers them into the sealed base linker. Their
/// syscall-site counts and diagnostics are *not*
/// recorded here — shard 0 analyzes the same bytes inside `libc6` and
/// owns those counts, keeping corpus totals identical to the in-memory
/// path.
fn system_base(
    options: AnalysisOptions,
    cache: Option<(&AnalysisCache, u64)>,
) -> SystemBase {
    let catalog = Catalog::linux_3_19();
    let mut linker = Linker::new();
    let mut hashes = Vec::new();
    let mut tainted = Vec::new();
    for (name, bytes) in libc_gen::generate_system_libraries(&catalog) {
        let key = cache.map(|(_, fp)| CacheKey::for_bytes(&bytes, fp));
        let hash = key.map_or(0, |k| k.content);
        if let (Some((c, _)), Some(key)) = (cache, key) {
            if let Some(ba) = c.get(key) {
                linker.add_library(&name, ba);
                hashes.push(hash);
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
                linker.add_library(&name, ba);
                hashes.push(hash);
            }
            (Err(_), _) => tainted.push(name),
        }
    }
    linker.seal();
    SystemBase { linker: Arc::new(linker), hashes, tainted }
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

/// Runs the pipeline: the one runner under every way to compute the
/// study.
///
/// Produces each package (generated, or read from `opts.packages`, then
/// corrupted under a fault plan), analyzes the corpus shard by shard,
/// folds the partials, and records the run's cache accounting in the
/// diagnostics. With `store = Some((path, resume))`, every shard whose
/// diagnostics come back clean is appended to the [`FootprintStore`] at
/// `path`, and with `resume` set, shards already present in a
/// fingerprint-matching store are replayed instead of recomputed. Dirty
/// shards (skips, contained panics, quarantines) are never stored — like
/// the analysis cache, the store holds only results that are safe to
/// trust without re-deriving the fault ledger. Without a store the run
/// does no I/O and cannot fail.
///
/// The result is bit-identical for every shard size, cache state and
/// production path, with peak memory bounded by one shard.
///
/// # Panics
///
/// When `opts.packages` does not cover the plan, or when a faulted run is
/// given a store (a store's fingerprint does not cover a fault plan).
pub fn run(
    repo: &SynthRepo,
    opts: &RunOptions<'_>,
    store: Option<(&Path, bool)>,
) -> Result<(StudyData, StoreStats), JournalError> {
    let evictions_before = opts.cache.map_or(0, |c| c.stats().evictions);
    let mut stats = StoreStats::default();
    let partials = walk_shards(repo, opts, store, &mut stats)?;
    let mut data =
        fold_partials(repo.plan.popcon.total_installations, partials);
    if let Some(cache) = opts.cache {
        data.diagnostics.cache_mode = cache.mode();
        data.diagnostics.cache_evictions =
            cache.stats().evictions - evictions_before;
    }
    Ok((data, stats))
}

/// The one shard loop: replays the shards `store` holds, computes the
/// rest in order, and appends each clean computed shard to the store.
/// Shards run sequentially — shard N's binaries are dropped before shard
/// N+1 materializes, which is what bounds peak RSS to one shard — and
/// parallelism lives *inside* each shard.
fn walk_shards(
    repo: &SynthRepo,
    opts: &RunOptions<'_>,
    store: Option<(&Path, bool)>,
    stats: &mut StoreStats,
) -> Result<Vec<ShardPartial>, JournalError> {
    if let Some(packages) = opts.packages {
        assert_eq!(
            packages.len(),
            repo.package_count(),
            "a materialized corpus must cover the plan"
        );
    }
    let shard_size = match opts.shards {
        Shards::Size(size) => size,
        Shards::Faulted(_) => {
            assert!(store.is_none(), "a faulted run is never stored");
            0
        }
    };
    let (mut store, mut replayable) = match store {
        Some((path, resume)) => {
            let fp = sharded_fingerprint(repo, opts.analysis, shard_size);
            let (store, replayable) = if resume {
                FootprintStore::resume_or_create(path, &fp)?
            } else {
                (FootprintStore::create(path, &fp)?, HashMap::new())
            };
            (Some(store), replayable)
        }
        None => (None, HashMap::new()),
    };

    let cache = opts.cache.map(|c| (c, opts.analysis.fingerprint()));
    let deadline = item_deadline_from_env();
    let ranges = shard_ranges(repo.package_count(), shard_size);
    // The system-library base is only analyzed once some shard past the
    // first computes (a fully replayed resume never materializes a
    // binary). Shard 0 contains libc6, which ships the system libraries
    // itself; seeding the base there would register them twice.
    let base = OnceCell::new();
    let mut partials = Vec::with_capacity(ranges.len());
    for (shard, range) in ranges.into_iter().enumerate() {
        let replayed = replayable.remove(&shard).filter(|p| {
            p.start == range.start && p.records.len() == range.len()
        });
        if let Some(p) = replayed {
            stats.replayed_shards += 1;
            stats.replayed_packages += p.records.len() as u64;
            partials.push(p);
            continue;
        }
        let shard_base = (shard > 0).then(|| {
            base.get_or_init(|| system_base(opts.analysis, cache))
        });
        let p = analyze_shard(
            repo, opts, cache, deadline, shard_base, shard, range,
        );
        stats.computed_shards += 1;
        if let Some(store) = &mut store {
            if p.diagnostics.is_clean() {
                store.append_shard(&p)?;
                stats.stored_shards += 1;
            }
        }
        partials.push(p);
    }
    Ok(partials)
}

/// Runs one shard end to end: parallel produce+analyze over the shard's
/// packages — the pipeline's only analysis of packages — then
/// shard-local registration and resolution. Only this shard's binaries
/// are ever materialized.
fn analyze_shard(
    repo: &SynthRepo,
    opts: &RunOptions<'_>,
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
        |i| {
            let (package, injected) = produce(repo, opts, start + i);
            let mut inter =
                analyze_package(start + i, &package, opts.analysis, cache);
            inter.injected = injected;
            inter
        },
        |i, cause, detail| {
            PkgIntermediate::quarantined(start + i, repo, detail, cause.stage())
        },
    );
    StudyData::shard_assemble(
        repo, inters, stats, cache, deadline, base, shard, start,
    )
}

/// Package `i` as the run sees it: read in place from the materialized
/// corpus or generated from the plan; in a faulted run, copied and
/// corrupted when the plan selects one of its files, with the injection
/// ledger. Unselected packages stay untouched (and uncopied).
fn produce<'p>(
    repo: &SynthRepo,
    opts: &RunOptions<'p>,
    i: usize,
) -> (Cow<'p, Package>, Vec<FaultRecord>) {
    let mut package = match opts.packages {
        Some(packages) => Cow::Borrowed(&packages[i]),
        None => Cow::Owned(repo.package(i)),
    };
    let injected = match &opts.shards {
        Shards::Faulted(plan) if plan.selects_package(i, &package) => {
            plan.corrupt_package(i, package.to_mut())
        }
        _ => Vec::new(),
    };
    (package, injected)
}

/// Every shard's partial in shard order, unfolded: [`run`]'s shard loop
/// without a store. [`fold_partials`] turns them into the study.
pub fn shard_partials(
    repo: &SynthRepo,
    options: AnalysisOptions,
    shard_size: usize,
    cache: Option<&AnalysisCache>,
) -> Vec<ShardPartial> {
    let opts = RunOptions {
        analysis: options,
        shards: Shards::Size(shard_size),
        cache,
        packages: None,
    };
    walk_shards(repo, &opts, None, &mut StoreStats::default())
        .expect("a run without a store does no I/O")
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

/// [`run`] over `shard_size`-package shards with a store at `path`.
pub fn study_sharded_stored(
    repo: &SynthRepo,
    options: AnalysisOptions,
    shard_size: usize,
    cache: Option<&AnalysisCache>,
    path: &Path,
    resume: bool,
) -> Result<(StudyData, StoreStats), JournalError> {
    let opts = RunOptions {
        analysis: options,
        shards: Shards::Size(shard_size),
        cache,
        packages: None,
    };
    run(repo, &opts, Some((path, resume)))
}
