//! The end-to-end measurement pipeline.
//!
//! Mirrors the paper's §7 framework at repository scale: every binary of
//! every package is parsed and statically analyzed; shared libraries are
//! registered with the cross-binary linker; executables are resolved to
//! closed footprints; packages aggregate their executables (plus the
//! dynamic linker for dynamically linked programs, and the interpreter
//! package's footprint for scripts, §2.3); the popularity survey attaches
//! installation counts.
//!
//! Both corpus-wide phases run in parallel: per-package binary analysis,
//! and — once the linker is sealed and read-only — per-package footprint
//! resolution. Workers pull indices from a shared cursor and send results
//! through a channel keyed by package index, so no locks are held while
//! analyzing.
//!
//! The result, [`StudyData`], is the in-memory replacement for the paper's
//! 428-million-row Postgres database.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};

use apistudy_analysis::{AnalysisOptions, BinaryAnalysis, Linker};
use apistudy_catalog::Catalog;
use apistudy_corpus::{
    Interpreter, MixCensus, Package, PackageFile, SynthRepo,
};
use apistudy_elf::{BinaryClass, ElfError, ElfFile, ErrorKind};

use crate::cache::{fold_hash, AnalysisCache, CacheKey};
use crate::diagnostics::{RunDiagnostics, SkipStage, SkippedBinary};
use crate::footprint::ApiFootprint;

/// Everything the study knows about one package.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageRecord {
    /// Package name.
    pub name: String,
    /// Installation probability (from popcon).
    pub prob: f64,
    /// Raw popcon installation count.
    pub install_count: u64,
    /// Dependencies (package names).
    pub depends: Vec<String>,
    /// The package's catalog-resolved API footprint.
    pub footprint: ApiFootprint,
    /// Interpreter-providing packages for the package's scripts.
    pub script_interpreters: Vec<String>,
    /// Numbers of shipped executables / libraries / scripts.
    pub file_counts: (usize, usize, usize),
    /// Unresolved syscall sites observed while analyzing this package.
    pub unresolved_syscall_sites: u32,
    /// Binaries of this package the pipeline could not analyze.
    pub skipped_binaries: u32,
    /// True when the footprint is known to under-count: a shipped binary
    /// was skipped or quarantined, a library this package's executables
    /// (transitively) link against was, or an interpreter package it
    /// inherits from is itself partial.
    pub partial_footprint: bool,
}

/// Which binaries contain *direct* call sites for each system call — the
/// paper's library-attribution signal (Tables 1, 2, 5).
///
/// Binary file names are interned as `Arc<str>`: a library that uses 100
/// syscalls appears in 100 users-sets but its name is allocated once.
///
/// The per-syscall user index is built once, when shards fold: names
/// are appended as binaries stream by, then [`Attribution::finalize`]
/// sorts and dedups each list in a single pass. Queries iterate a sorted
/// slice — no per-query set walk, no tree overhead, and the iteration
/// order matches the `BTreeSet` the index replaced (lexicographic, since
/// `Arc<str>` orders by content).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Syscall number → binary file names with direct call sites,
    /// sorted and deduplicated by [`Attribution::finalize`].
    pub direct_users: HashMap<u32, Vec<Arc<str>>>,
    /// Binary file name → owning package.
    pub binary_package: HashMap<Arc<str>, Arc<str>>,
}

impl Attribution {
    /// Records one binary as a direct user of a syscall (duplicates are
    /// fine until [`Attribution::finalize`] runs).
    pub(crate) fn record(&mut self, nr: u32, file: &Arc<str>) {
        self.direct_users.entry(nr).or_default().push(Arc::clone(file));
    }

    /// Sorts and dedups every user list; called exactly once after all
    /// binaries are registered.
    pub(crate) fn finalize(&mut self) {
        for users in self.direct_users.values_mut() {
            users.sort_unstable();
            users.dedup();
        }
    }

    /// Binaries with direct call sites for a syscall, in lexicographic
    /// order.
    pub fn users_of(&self, nr: u32) -> impl Iterator<Item = &str> {
        self.direct_users
            .get(&nr)
            .into_iter()
            .flatten()
            .map(|s| &**s)
    }
}

/// The aggregated study dataset.
pub struct StudyData {
    /// The API catalog measured against.
    pub catalog: Catalog,
    /// One record per package.
    pub packages: Vec<PackageRecord>,
    /// Package name → index.
    pub by_name: HashMap<String, usize>,
    /// Survey size.
    pub total_installations: u64,
    /// Figure 1 census.
    pub census: MixCensus,
    /// Direct-call-site attribution.
    pub attribution: Attribution,
    /// Total unresolved syscall sites across the corpus (paper: ~4% of
    /// sites).
    pub unresolved_syscall_sites: u64,
    /// Total syscall sites resolved (for the unresolved ratio).
    pub resolved_syscall_sites: u64,
    /// Robustness accounting: skips, contained panics, injected faults.
    pub diagnostics: RunDiagnostics,
}

/// Containment counters from one [`par_map_indexed`] run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ParStats {
    /// Work items whose first execution panicked.
    panics_contained: u64,
    /// Panicked items whose single retry then succeeded.
    retries_recovered: u64,
    /// Work items abandoned by the wall-clock watchdog.
    deadline_quarantined: u64,
}

/// Why a work item's result was substituted by the `recover` closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbortCause {
    /// `f(i)` panicked twice (deterministic panic).
    Panic,
    /// `f(i)` overran the per-item wall-clock deadline and the watchdog
    /// quarantined it.
    Deadline,
}

impl AbortCause {
    pub(crate) fn stage(self) -> SkipStage {
        match self {
            AbortCause::Panic => SkipStage::Panic,
            AbortCause::Deadline => SkipStage::Deadline,
        }
    }
}

/// Parses an `APISTUDY_ITEM_DEADLINE_MS`-style value: a positive integer
/// number of milliseconds enables the watchdog, anything else disables it.
fn parse_deadline_ms(v: Option<&str>) -> Option<std::time::Duration> {
    v.and_then(|s| s.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(std::time::Duration::from_millis)
}

/// The per-item wall-clock deadline from `APISTUDY_ITEM_DEADLINE_MS`
/// (default: off — the watchdog's selections depend on machine speed, so
/// runs that must be bit-reproducible across hosts leave it unset).
pub(crate) fn item_deadline_from_env() -> Option<std::time::Duration> {
    parse_deadline_ms(
        std::env::var("APISTUDY_ITEM_DEADLINE_MS").ok().as_deref(),
    )
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The worker count for [`par_map_indexed`]: the `APISTUDY_THREADS`
/// environment variable when set to a positive integer (capped at 128),
/// otherwise the machine's available parallelism capped at 16; always
/// clamped to the number of work items.
fn worker_count(n: usize) -> usize {
    let from_env = std::env::var("APISTUDY_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
        .map(|t| t.min(128));
    from_env
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
                .min(16)
        })
        .min(n)
}

/// Per-item watchdog states (values other than these are the item's start
/// time as `epoch.elapsed()` nanoseconds plus one, so zero stays free for
/// IDLE and the two sentinels sit at the top of the range, far above any
/// plausible runtime).
const ITEM_IDLE: u64 = 0;
const ITEM_ABANDONED: u64 = u64::MAX - 1;
const ITEM_DONE: u64 = u64::MAX;

/// Runs `f(0..n)` across a scoped worker pool and returns the results in
/// index order. Workers pull the next index from an atomic cursor and send
/// `(index, value)` pairs down a channel — no lock is held around `f`.
///
/// Panic containment: a panicking `f(i)` is caught (the worker thread
/// survives) and retried once — deterministic panics fail again, and the
/// item's result is produced by `recover(i, AbortCause::Panic, message)`
/// instead, so one pathological work item degrades into one quarantined
/// result rather than aborting the corpus scan.
///
/// Wall-clock watchdog: with `deadline` set, a monitor thread scans the
/// in-flight items and *abandons* any that has been running longer than
/// the deadline — its result is produced by
/// `recover(i, AbortCause::Deadline, detail)` and the worker's eventual
/// value is discarded, so one adversarial input degrades into one
/// quarantined result instead of stalling the pipeline's progress. This
/// is a soft deadline: the abandoned `f(i)` is not preempted (impossible
/// without `unsafe`), it merely stops being waited for; `f` is expected
/// to terminate eventually (analysis work is budget-bounded), and the
/// scope still joins its thread at the end. Which items get abandoned
/// depends on machine speed, so the watchdog defaults to off.
pub(crate) fn par_map_indexed<T, F, R>(
    n: usize,
    deadline: Option<std::time::Duration>,
    f: F,
    recover: R,
) -> (Vec<T>, ParStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    R: Fn(usize, AbortCause, String) -> T + Sync,
{
    if n == 0 {
        return (Vec::new(), ParStats::default());
    }
    let workers = worker_count(n);
    let cursor = AtomicUsize::new(0);
    let panics = AtomicU64::new(0);
    let recovered = AtomicU64::new(0);
    let abandoned = AtomicU64::new(0);
    // Results delivered so far (by workers or the watchdog); the watchdog
    // exits once every index has one.
    let sent = AtomicUsize::new(0);
    let states: Vec<AtomicU64> =
        (0..n).map(|_| AtomicU64::new(ITEM_IDLE)).collect();
    let epoch = std::time::Instant::now();
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let panics = &panics;
            let recovered = &recovered;
            let sent = &sent;
            let states = &states;
            let f = &f;
            let recover = &recover;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                states[i].store(
                    epoch.elapsed().as_nanos() as u64 + 1,
                    Ordering::Release,
                );
                let value = match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(v) => v,
                    Err(_) => {
                        panics.fetch_add(1, Ordering::Relaxed);
                        match catch_unwind(AssertUnwindSafe(|| f(i))) {
                            Ok(v) => {
                                recovered.fetch_add(1, Ordering::Relaxed);
                                v
                            }
                            Err(payload) => recover(
                                i,
                                AbortCause::Panic,
                                panic_message(payload.as_ref()),
                            ),
                        }
                    }
                };
                // If the watchdog abandoned this item while it ran, its
                // substituted result is already in flight — discard ours.
                if states[i].swap(ITEM_DONE, Ordering::AcqRel)
                    == ITEM_ABANDONED
                {
                    continue;
                }
                if tx.send((i, value)).is_err() {
                    break;
                }
                sent.fetch_add(1, Ordering::Relaxed);
            });
        }
        if let Some(deadline) = deadline {
            let tx = tx.clone();
            let abandoned = &abandoned;
            let sent = &sent;
            let states = &states;
            let recover = &recover;
            let tick = (deadline / 4).max(std::time::Duration::from_millis(1));
            let limit = deadline.as_nanos() as u64;
            scope.spawn(move || {
                while sent.load(Ordering::Relaxed) < n {
                    std::thread::sleep(tick);
                    let now = epoch.elapsed().as_nanos() as u64;
                    for (i, state) in states.iter().enumerate() {
                        let s = state.load(Ordering::Acquire);
                        if s == ITEM_IDLE || s >= ITEM_ABANDONED {
                            continue;
                        }
                        if now.saturating_sub(s - 1) <= limit {
                            continue;
                        }
                        // Claim the overdue item; losing the race to the
                        // worker's DONE swap means it finished in time.
                        if state
                            .compare_exchange(
                                s,
                                ITEM_ABANDONED,
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            )
                            .is_err()
                        {
                            continue;
                        }
                        abandoned.fetch_add(1, Ordering::Relaxed);
                        let detail = format!(
                            "exceeded the {}ms per-item wall-clock deadline",
                            deadline.as_millis()
                        );
                        let value = recover(i, AbortCause::Deadline, detail);
                        if tx.send((i, value)).is_err() {
                            return;
                        }
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in rx {
        slots[i] = Some(v);
    }
    // Internal invariant, not input-reachable: the retry/quarantine path
    // above sends a fallback value for every index before a worker exits,
    // so each slot is filled exactly once by the time tx closes.
    let out = slots
        .into_iter()
        .map(|s| s.expect("every index produced"))
        .collect();
    (
        out,
        ParStats {
            panics_contained: panics.load(Ordering::Relaxed),
            retries_recovered: recovered.load(Ordering::Relaxed),
            deadline_quarantined: abandoned.load(Ordering::Relaxed),
        },
    )
}

/// [`SynthRepo::materialize_all`] on the pipeline's workers. Generation
/// is a pure function of the plan, so the packages are the same, in the
/// same order.
pub(crate) fn materialize(repo: &SynthRepo) -> Vec<Package> {
    let (packages, _) = par_map_indexed(
        repo.package_count(),
        None,
        |i| repo.package(i),
        |i, _, detail| panic!("generating package {i} failed twice: {detail}"),
    );
    packages
}

pub(crate) struct PkgIntermediate {
    /// Index into the repository plan (kept for deterministic ordering).
    #[allow(dead_code)]
    index: usize,
    /// The package's name and declared dependencies.
    name: String,
    depends: Vec<String>,
    /// Packages providing the interpreters its scripts name, sorted and
    /// deduplicated.
    script_interpreters: Vec<String>,
    /// Scripts shipped.
    scripts: usize,
    /// `(file name, content hash, analysis)` per shipped library. The
    /// hash is 0 when no cache is attached (it is only consumed by the
    /// footprint-cache key derivation, which is skipped in that case).
    libs: Vec<(String, u64, Arc<BinaryAnalysis>)>,
    /// `(content hash, analysis)` per shipped executable.
    execs: Vec<(u64, Arc<BinaryAnalysis>)>,
    /// `libs.len()` before the analyses are moved into the linker.
    lib_count: usize,
    /// Whether this package ships the dynamic linker.
    ships_ldso: bool,
    /// This package's files in the Figure 1 census.
    census: MixCensus,
    unresolved: u32,
    resolved: u64,
    /// Binaries this package shipped that could not be analyzed.
    skipped: Vec<SkippedBinary>,
    /// Faults injected into this package (ground truth, faulted runs only).
    pub(crate) injected: Vec<apistudy_corpus::FaultRecord>,
    /// Binary-level panics caught during this package's analysis.
    panics_contained: u64,
    /// Caught panics whose retry succeeded.
    retries_recovered: u64,
    /// Binaries of this package served straight from the analysis cache.
    cache_hits: u64,
    /// Binaries looked up in the cache but analyzed fresh.
    cache_misses: u64,
    /// True when the whole package was abandoned (package-level double
    /// panic): no binary was analyzed, the record is a placeholder.
    quarantined: bool,
}

impl PkgIntermediate {
    /// A placeholder for a package whose analysis was abandoned — a
    /// double panic or a watchdog deadline, `stage` says which: name and
    /// dependencies come from the plan, the footprint stays empty, and
    /// every planned binary is recorded as skipped. Library skips are
    /// keyed by soname so dependent packages' footprints get flagged as
    /// partial through the linker taint pass.
    pub(crate) fn quarantined(
        index: usize,
        repo: &SynthRepo,
        detail: String,
        stage: SkipStage,
    ) -> Self {
        let p = &repo.plan.packages[index];
        let mut skipped: Vec<SkippedBinary> = p
            .libs
            .iter()
            .map(|l| l.soname.clone())
            .chain(p.execs.iter().map(|e| e.file.clone()))
            .map(|file| SkippedBinary {
                package: p.name.clone(),
                file,
                stage,
                kind: None,
                detail: detail.clone(),
            })
            .collect();
        if skipped.is_empty() {
            skipped.push(SkippedBinary {
                package: p.name.clone(),
                file: "<package>".to_owned(),
                stage,
                kind: None,
                detail,
            });
        }
        Self {
            index,
            name: p.name.clone(),
            depends: p.depends.clone(),
            script_interpreters: Vec::new(),
            scripts: 0,
            libs: Vec::new(),
            execs: Vec::new(),
            lib_count: 0,
            ships_ldso: false,
            census: MixCensus::default(),
            unresolved: 0,
            resolved: 0,
            skipped,
            injected: Vec::new(),
            panics_contained: 0,
            retries_recovered: 0,
            cache_hits: 0,
            cache_misses: 0,
            quarantined: true,
        }
    }
}

/// Why one binary was dropped: pipeline stage, taxonomy kind (absent for
/// panics), and the human-readable detail.
type SkipReason = (SkipStage, Option<ErrorKind>, String);

/// Parses and analyzes one ELF image, containing panics: a panicking
/// attempt is retried once, and a second panic becomes a classified
/// [`SkipStage::Panic`] skip. Returns the analysis plus the number of
/// panics caught (0, 1 with a successful retry, or 2).
pub(crate) fn analyze_binary(
    bytes: &[u8],
    options: AnalysisOptions,
) -> (Result<BinaryAnalysis, SkipReason>, u64) {
    let attempt = || -> Result<BinaryAnalysis, SkipReason> {
        let elf = ElfFile::parse(bytes)
            .map_err(|e: ElfError| (SkipStage::Parse, Some(e.kind()), e.to_string()))?;
        BinaryAnalysis::analyze_with(&elf, options)
            .map_err(|e| (SkipStage::Analyze, Some(e.kind()), e.to_string()))
    };
    match catch_unwind(AssertUnwindSafe(attempt)) {
        Ok(r) => (r, 0),
        Err(_) => match catch_unwind(AssertUnwindSafe(attempt)) {
            Ok(r) => (r, 1),
            Err(payload) => (
                Err((SkipStage::Panic, None, panic_message(payload.as_ref()))),
                2,
            ),
        },
    }
}

/// Analyzes every ELF of one package, consulting the incremental cache
/// when one is attached (`cache` carries the shared [`AnalysisCache`] and
/// the pre-computed [`AnalysisOptions::fingerprint`] so workers don't
/// re-derive it per binary). Cache policy: only clean, panic-free
/// successes are stored — an error (including a `ResourceLimit` skip)
/// must be re-derived each run so the skip ledger stays exact, and a
/// result recovered by a panic retry may be transient, so a retryable
/// panic stays retryable.
pub(crate) fn analyze_package(
    index: usize,
    package: &Package,
    options: AnalysisOptions,
    cache: Option<(&AnalysisCache, u64)>,
) -> PkgIntermediate {
    let mut libs = Vec::new();
    let mut execs = Vec::new();
    let mut unresolved = 0u32;
    let mut resolved = 0u64;
    let mut skipped = Vec::new();
    let mut panics_contained = 0u64;
    let mut retries_recovered = 0u64;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    // Analyzed binaries count by the class their analysis recorded (the
    // parse the census would repeat); skipped ones are parsed for it.
    let mut census = MixCensus::default();
    let mut interpreters = BTreeSet::new();
    let mut scripts = 0;
    for file in &package.files {
        let (name, bytes) = match file {
            PackageFile::Elf { name, bytes } => (name, bytes),
            PackageFile::Script { shebang, .. } => {
                let interp = Interpreter::classify(shebang);
                census.count_script(interp);
                interpreters.insert(interp.providing_package());
                scripts += 1;
                continue;
            }
        };
        let key = cache
            .map(|(_, opts_fp)| CacheKey::for_bytes(bytes, opts_fp));
        let hash = key.map_or(0, |k| k.content);
        if let (Some((cache, _)), Some(key)) = (cache, key) {
            if let Some(ba) = cache.get(key) {
                cache_hits += 1;
                census.count_class(ba.class);
                for f in &ba.funcs {
                    unresolved += f.facts.unresolved_syscall_sites;
                    resolved += f.facts.syscalls.len() as u64;
                }
                match ba.class {
                    BinaryClass::SharedLib => {
                        libs.push((name.clone(), hash, ba))
                    }
                    _ => execs.push((hash, ba)),
                }
                continue;
            }
            cache_misses += 1;
        }
        let (result, panics) = analyze_binary(bytes, options);
        panics_contained += panics.min(1);
        if panics == 1 {
            retries_recovered += 1;
        }
        let ba = match result {
            Ok(ba) => Arc::new(ba),
            Err((stage, kind, detail)) => {
                census.count_elf(bytes);
                skipped.push(SkippedBinary {
                    package: package.name.clone(),
                    file: name.clone(),
                    stage,
                    kind,
                    detail,
                });
                continue;
            }
        };
        census.count_class(ba.class);
        if panics == 0 {
            if let (Some((cache, _)), Some(key)) = (cache, key) {
                cache.insert(key, Arc::clone(&ba));
            }
        }
        for f in &ba.funcs {
            unresolved += f.facts.unresolved_syscall_sites;
            resolved += f.facts.syscalls.len() as u64;
        }
        match ba.class {
            BinaryClass::SharedLib => libs.push((name.clone(), hash, ba)),
            _ => execs.push((hash, ba)),
        }
    }
    let lib_count = libs.len();
    let ships_ldso = libs
        .iter()
        .any(|(name, _, _)| name == apistudy_corpus::libc_gen::LDSO_SONAME);
    PkgIntermediate {
        index,
        name: package.name.clone(),
        depends: package.depends.clone(),
        script_interpreters: interpreters.into_iter().map(str::to_owned).collect(),
        scripts,
        libs,
        execs,
        lib_count,
        ships_ldso,
        census,
        unresolved,
        resolved,
        skipped,
        injected: Vec::new(),
        panics_contained,
        retries_recovered,
        cache_hits,
        cache_misses,
        quarantined: false,
    }
}

/// ORs `packages[src]`'s APIs into `packages[dst]`'s, reporting growth.
pub(crate) fn inherit_apis(
    packages: &mut [PackageRecord],
    dst: usize,
    src: usize,
) -> bool {
    if dst == src {
        return false;
    }
    let (dst_rec, src_rec) = if dst < src {
        let (lo, hi) = packages.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = packages.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    };
    dst_rec.footprint.merge_apis(&src_rec.footprint)
}

/// Propagates `src`'s partial-footprint flag to `dst`: a package that
/// inherits an interpreter's footprint inherits its incompleteness too.
pub(crate) fn inherit_partial(
    packages: &mut [PackageRecord],
    dst: usize,
    src: usize,
) -> bool {
    if dst == src || packages[dst].partial_footprint || !packages[src].partial_footprint
    {
        return false;
    }
    packages[dst].partial_footprint = true;
    true
}

impl StudyData {
    /// Runs the full pipeline over a synthetic repository with the
    /// paper's default analysis choices: [`crate::stream::run`] with
    /// default [`RunOptions`](crate::stream::RunOptions).
    pub fn from_synth(repo: &SynthRepo) -> Self {
        let (data, _) =
            crate::stream::run(repo, &crate::stream::RunOptions::default(), None)
                .expect("a run without a store does no I/O");
        data
    }

    /// The per-shard stage of the pipeline: registers one shard's
    /// libraries into a shard-local linker (seeded with the shared
    /// system-library base for shards past the first), seals it, runs
    /// taint propagation and parallel per-package footprint resolution,
    /// and returns the mergeable [`crate::stream::ShardPartial`].
    ///
    /// Shard-locality is sound because symbol resolution only ever
    /// searches an object's own `DT_NEEDED` closure, and every closure in
    /// the synthetic corpus is {system libraries} ∪ {the package's own
    /// libraries} — all registered here. The shard-local linker therefore
    /// resolves bit-identically to a whole-corpus linker.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn shard_assemble(
        repo: &SynthRepo,
        mut inters: Vec<PkgIntermediate>,
        par_stats: ParStats,
        cache: Option<(&AnalysisCache, u64)>,
        deadline: Option<std::time::Duration>,
        base: Option<&crate::stream::SystemBase>,
        shard: usize,
        start: usize,
    ) -> crate::stream::ShardPartial {
        // Only a footprint-cache miss resolves against the catalog.
        let catalog = LazyLock::new(Catalog::linux_3_19);
        let mut census = MixCensus::default();
        for inter in &inters {
            census.merge(&inter.census);
        }

        // Register every shared library, moving each analysis into the
        // linker (it is not needed twice); collect per-binary attribution
        // fragments as we go (the fold turns them into the global
        // [`Attribution`]). `lib_hashes[i]` is the content hash of the
        // library the linker registered as index `i` — the footprint-cache
        // key derivation folds these over each executable's DT_NEEDED
        // closure.
        let mut linker = Linker::new();
        let mut lib_hashes: Vec<u64> = Vec::new();
        let mut attributions: Vec<crate::stream::PackageAttribution> =
            Vec::with_capacity(inters.len());
        let mut unresolved_total = 0u64;
        let mut resolved_total = 0u64;
        let mut lib_names: Vec<Vec<String>> = Vec::with_capacity(inters.len());
        if let Some(base) = base {
            for (name, hash, ba) in &base.libs {
                let idx = linker.add_library(name, Arc::clone(ba));
                debug_assert_eq!(idx, lib_hashes.len());
                lib_hashes.push(*hash);
            }
        }
        for inter in &mut inters {
            unresolved_total += u64::from(inter.unresolved);
            resolved_total += inter.resolved;
            lib_names
                .push(inter.libs.iter().map(|(n, _, _)| n.clone()).collect());
            let mut attr = crate::stream::PackageAttribution {
                libs: Vec::with_capacity(inter.libs.len()),
                execs: Vec::with_capacity(inter.execs.len()),
            };
            for (name, hash, ba) in inter.libs.drain(..) {
                attr.libs.push((
                    name.clone(),
                    ba.direct_syscalls().into_iter().collect(),
                ));
                let idx = linker.add_library(&name, ba);
                debug_assert_eq!(idx, lib_hashes.len());
                lib_hashes.push(hash);
            }
            for (_, ba) in &inter.execs {
                attr.execs.push(ba.direct_syscalls().into_iter().collect());
            }
            attributions.push(attr);
        }
        linker.seal();

        // Fault isolation: every binary the pipeline skipped taints its
        // file name (for libraries the file name *is* the soname, by
        // corpus convention), as does every fatally-injected file. The
        // taint then spreads over the sealed linker's DT_NEEDED edges to a
        // fixed point, so a package whose executables link — directly or
        // transitively — against a missing library is flagged as carrying
        // a partial footprint rather than silently under-reporting.
        let mut tainted: HashSet<String> = HashSet::new();
        if let Some(base) = base {
            // System libraries that failed analysis taint every shard.
            tainted.extend(base.tainted.iter().cloned());
        }
        for inter in &inters {
            for s in &inter.skipped {
                tainted.insert(s.file.clone());
            }
            for rec in &inter.injected {
                if rec.fatal {
                    tainted.insert(rec.file.clone());
                }
            }
        }
        if !tainted.is_empty() {
            loop {
                let mut changed = false;
                for (name, ba) in linker.libraries_iter() {
                    if !tainted.contains(name)
                        && ba.needed.iter().any(|n| tainted.contains(n))
                    {
                        tainted.insert(name.to_owned());
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        // Resolved footprints are a pure function of (binary, closure
        // libraries, options): when a cache is attached and enabled, key
        // them by folding the binary's content hash with its closure
        // libraries' hashes in search order, and skip the cross-binary
        // resolution entirely on a hit. A sweep point re-resolves only
        // executables whose own bytes — or whose linked libraries —
        // actually mutated.
        let fp_cache = cache.filter(|(c, _)| c.enabled());
        // Whole-library keys get a fixed seed distinct from any exec's
        // avalanched content hash (the library's own hash is in its
        // closure fold, so identity is still captured).
        const WHOLE_LIB_SEED: u64 = u64::MAX;

        // The dynamic linker's own footprint belongs to the package that
        // ships it (libc6): applications do not import from ld.so, so its
        // calls (`access`, `arch_prctl`, ...) keep 100% weighted importance
        // through the always-installed libc package while their unweighted
        // importance stays a per-package property (paper Tables 5 and 8).
        let ldso_roots =
            [apistudy_corpus::libc_gen::LDSO_SONAME.to_owned()];
        let ldso_key = fp_cache.map(|(_, opts_fp)| {
            let mut acc = fold_hash(WHOLE_LIB_SEED, opts_fp);
            for &li in &linker.needed_closure(&ldso_roots) {
                acc = fold_hash(acc, lib_hashes[li]);
            }
            CacheKey { content: acc, options: opts_fp }
        });
        let cached_ldso = match (fp_cache, ldso_key) {
            (Some((c, _)), Some(key)) => c.get_footprint(key),
            _ => None,
        };
        let ldso_resolved = match cached_ldso {
            Some(fp) => (*fp).clone(),
            None => {
                let raw = linker
                    .resolve_whole_library(apistudy_corpus::libc_gen::LDSO_SONAME)
                    .unwrap_or_default();
                let resolved = ApiFootprint::resolve(&catalog, &raw);
                if let (Some((c, _)), Some(key)) = (fp_cache, ldso_key) {
                    c.insert_footprint(key, Arc::new(resolved.clone()));
                }
                resolved
            }
        };

        // Per-package closed footprints. The sealed linker is read-only,
        // so every package resolves independently in parallel.
        let (packages, resolve_stats): (Vec<PackageRecord>, ParStats) = {
            let (linker, catalog, ldso, inters, tainted, lib_names, lib_hashes) = (
                &linker,
                &catalog,
                &ldso_resolved,
                &inters,
                &tainted,
                &lib_names,
                &lib_hashes,
            );
            par_map_indexed(
                inters.len(),
                deadline,
                move |i| {
                    let inter = &inters[i];
                    let mut fp = ApiFootprint::default();
                    if inter.ships_ldso {
                        fp.merge(ldso);
                    }
                    for (h, ba) in &inter.execs {
                        let key = fp_cache.map(|(_, opts_fp)| {
                            let mut acc = fold_hash(*h, opts_fp);
                            for &li in &linker.needed_closure(&ba.needed) {
                                acc = fold_hash(acc, lib_hashes[li]);
                            }
                            CacheKey { content: acc, options: opts_fp }
                        });
                        if let (Some((c, _)), Some(key)) = (fp_cache, key) {
                            if let Some(hit) = c.get_footprint(key) {
                                fp.merge(&hit);
                                continue;
                            }
                        }
                        let raw = linker.resolve_executable(ba);
                        let resolved = ApiFootprint::resolve(catalog, &raw);
                        if let (Some((c, _)), Some(key)) = (fp_cache, key) {
                            c.insert_footprint(key, Arc::new(resolved.clone()));
                        }
                        fp.merge(&resolved);
                    }
                    // Partial when a shipped binary was skipped, or when
                    // anything this package links against is tainted.
                    let partial = inter.quarantined
                        || !inter.skipped.is_empty()
                        || inter.execs.iter().any(|(_, ba)| {
                            ba.needed.iter().any(|n| tainted.contains(n))
                        })
                        || lib_names[i].iter().any(|n| tainted.contains(n));
                    PackageRecord {
                        name: inter.name.clone(),
                        prob: repo.plan.popcon.probability(&inter.name),
                        install_count: repo.plan.popcon.count(&inter.name),
                        depends: inter.depends.clone(),
                        footprint: fp,
                        script_interpreters: inter.script_interpreters.clone(),
                        file_counts: (
                            inter.execs.len(),
                            inter.lib_count,
                            inter.scripts,
                        ),
                        unresolved_syscall_sites: inter.unresolved,
                        skipped_binaries: inter.skipped.len() as u32,
                        partial_footprint: partial,
                    }
                },
                // A package whose *resolution* panics twice or overruns
                // the watchdog deadline degrades into an empty, flagged
                // record instead of aborting (or stalling) the run.
                move |i, _cause, _detail| PackageRecord {
                    name: inters[i].name.clone(),
                    prob: repo.plan.popcon.probability(&inters[i].name),
                    install_count: repo.plan.popcon.count(&inters[i].name),
                    depends: inters[i].depends.clone(),
                    footprint: ApiFootprint::default(),
                    script_interpreters: Vec::new(),
                    file_counts: (0, 0, 0),
                    unresolved_syscall_sites: 0,
                    skipped_binaries: inters[i].skipped.len() as u32,
                    partial_footprint: true,
                },
            )
        };
        // Interpreter inheritance is deliberately NOT applied here: a
        // script package's interpreter may live in another shard, so the
        // fixpoint runs once, globally, in the fold over compact
        // [`PackageRecord`]s (see [`crate::stream::fold_partials`]).
        let mut diagnostics = RunDiagnostics {
            panics_contained: par_stats.panics_contained
                + resolve_stats.panics_contained,
            retries_recovered: par_stats.retries_recovered
                + resolve_stats.retries_recovered,
            deadline_quarantined: par_stats.deadline_quarantined
                + resolve_stats.deadline_quarantined,
            ..RunDiagnostics::default()
        };
        for inter in &mut inters {
            diagnostics.analyzed_binaries +=
                (inter.lib_count + inter.execs.len()) as u64;
            diagnostics.panics_contained += inter.panics_contained;
            diagnostics.retries_recovered += inter.retries_recovered;
            diagnostics.quarantined_packages += u32::from(inter.quarantined);
            diagnostics.cache_hits += inter.cache_hits;
            diagnostics.cache_misses += inter.cache_misses;
            diagnostics.skipped.append(&mut inter.skipped);
            diagnostics.injected.append(&mut inter.injected);
        }

        crate::stream::ShardPartial {
            shard,
            start,
            records: packages,
            attributions,
            census,
            unresolved_sites: unresolved_total,
            resolved_sites: resolved_total,
            diagnostics,
            replayed: false,
        }
    }

    /// Rebuilds a measurable dataset from a published CSV export
    /// ([`crate::dataset::Dataset`]): downstream analyses can compute every
    /// metric without re-running the binary analysis. API names that no
    /// longer resolve against the catalog are counted in the footprint's
    /// `unresolved` field.
    pub fn from_dataset(ds: &crate::dataset::Dataset) -> Self {
        use apistudy_catalog::ApiKind;
        let catalog = Catalog::linux_3_19();
        let packages: Vec<PackageRecord> = ds
            .rows
            .iter()
            .map(|row| {
                let mut fp = ApiFootprint::default();
                for (kind, names) in &row.apis {
                    for name in names {
                        let api = match kind {
                            ApiKind::Syscall => catalog.syscall(name),
                            ApiKind::Ioctl => catalog.ioctl(name),
                            ApiKind::Fcntl => apistudy_catalog::FCNTL_OPS
                                .iter()
                                .position(|&(_, n)| n == name)
                                .map(|i| apistudy_catalog::Api::Fcntl(i as u32)),
                            ApiKind::Prctl => apistudy_catalog::PRCTL_OPS
                                .iter()
                                .position(|&(_, n)| n == name)
                                .map(|i| apistudy_catalog::Api::Prctl(i as u32)),
                            ApiKind::PseudoFile => catalog.pseudo_file(name),
                            ApiKind::LibcSymbol => catalog.libc_symbol(name),
                        };
                        match api {
                            Some(api) => {
                                fp.apis.insert(api);
                            }
                            None => fp.unresolved += 1,
                        }
                    }
                }
                PackageRecord {
                    name: row.name.clone(),
                    prob: row.probability,
                    install_count: row.install_count,
                    depends: row.depends.clone(),
                    footprint: fp,
                    script_interpreters: Vec::new(),
                    file_counts: (0, 0, 0),
                    unresolved_syscall_sites: 0,
                    skipped_binaries: 0,
                    partial_footprint: false,
                }
            })
            .collect();
        let by_name = packages
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();
        Self {
            catalog,
            packages,
            by_name,
            total_installations: ds.installations,
            census: MixCensus::default(),
            attribution: Attribution::default(),
            unresolved_syscall_sites: 0,
            resolved_syscall_sites: 0,
            diagnostics: RunDiagnostics::default(),
        }
    }

    /// A package record by name.
    pub fn package(&self, name: &str) -> Option<&PackageRecord> {
        self.by_name.get(name).map(|&i| &self.packages[i])
    }

    /// Total installation mass (Σ probability), the denominator of
    /// weighted completeness.
    pub fn total_mass(&self) -> f64 {
        self.packages.iter().map(|p| p.prob).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheMode;
    use crate::stream::{run, RunOptions, Shards};
    use apistudy_catalog::Api;
    use apistudy_corpus::{CalibrationSpec, FaultPlan, Scale};

    fn tiny() -> StudyData {
        let repo = SynthRepo::new(
            Scale { packages: 150, installations: 50_000 },
            CalibrationSpec::default(),
            0xBEEF,
        );
        StudyData::from_synth(&repo)
    }

    #[test]
    fn census_matches_a_scan_of_the_analyzed_bytes() {
        // The pipeline counts an analyzed binary by the class its analysis
        // recorded and parses only the skipped ones; scanning the same
        // bytes is the reference, clean and corrupted, cold and cached.
        let repo = SynthRepo::new(
            Scale { packages: 150, installations: 15_000 },
            CalibrationSpec::default(),
            11,
        );
        let options = AnalysisOptions::default();
        let packages = repo.materialize_all();
        let clean = StudyData::from_synth(&repo);
        assert_eq!(clean.census, MixCensus::scan(&packages));

        let plan = FaultPlan::new(0x5EED, 0.2);
        let corrupted: Vec<Package> = packages
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut p = p.clone();
                plan.corrupt_package(i, &mut p);
                p
            })
            .collect();
        let want = MixCensus::scan(&corrupted);
        assert!(want.unparsable > 0);
        let cache = AnalysisCache::new(CacheMode::Mem);
        let opts = RunOptions {
            analysis: options,
            shards: Shards::Faulted(plan),
            cache: Some(&cache),
            packages: Some(&packages),
        };
        for _ in 0..2 {
            let (data, _) = run(&repo, &opts, None).unwrap();
            assert!(data.diagnostics.skipped.iter().any(|s| s.stage != SkipStage::Parse));
            assert_eq!(data.census, want);
        }
        assert!(cache.stats().hits > 0, "the second run is served from the cache");
    }

    #[test]
    fn pipeline_produces_a_record_per_package() {
        let data = tiny();
        assert_eq!(data.packages.len(), 150);
        assert!(data.package("libc6").is_some());
        assert!(data.package("coreutils").is_some());
    }

    #[test]
    fn every_dynamic_package_gets_the_startup_footprint() {
        let data = tiny();
        let nr = |name: &str| data.catalog.syscalls.number_of(name).unwrap();
        let mut checked = 0;
        for p in &data.packages {
            if p.file_counts.0 == 0 || p.footprint.is_empty() {
                continue;
            }
            // Startup syscalls (exit_group) and ld.so's access must be
            // present in every dynamically linked package.
            if p.footprint.contains(Api::Syscall(nr("exit_group"))) {
                assert!(
                    p.footprint.contains(Api::Syscall(nr("mprotect"))),
                    "{} lacks mprotect",
                    p.name
                );
                checked += 1;
            }
        }
        assert!(checked > 100, "only {checked} packages checked");
    }

    #[test]
    fn attribution_places_access_in_ldso() {
        let data = tiny();
        let nr = data.catalog.syscalls.number_of("access").unwrap();
        let users: Vec<&str> = data.attribution.users_of(nr).collect();
        assert!(
            users.contains(&"ld-linux-x86-64.so.2"),
            "access direct users: {users:?}"
        );
    }

    #[test]
    fn unused_syscalls_have_no_package_users() {
        let data = tiny();
        for name in ["sysfs", "remap_file_pages", "mq_notify",
                     "lookup_dcookie", "restart_syscall", "move_pages",
                     "get_robust_list", "rt_tgsigqueueinfo", "tuxcall",
                     "create_module"] {
            let nr = data.catalog.syscalls.number_of(name).unwrap();
            let users = data
                .packages
                .iter()
                .filter(|p| p.footprint.contains(Api::Syscall(nr)))
                .count();
            assert_eq!(users, 0, "{name} should be unused");
        }
    }

    #[test]
    fn pin_packages_carry_their_syscalls() {
        let data = tiny();
        let nr = |name: &str| data.catalog.syscalls.number_of(name).unwrap();
        let kexec = data.package("kexec-tools").expect("pin exists");
        assert!(kexec.footprint.contains(Api::Syscall(nr("kexec_load"))));
        let numa = data.package("libnuma").expect("pin exists");
        assert!(numa.footprint.contains(Api::Syscall(nr("mbind"))));
    }

    #[test]
    fn qemu_has_the_largest_syscall_footprint() {
        let data = tiny();
        let qemu = data.package("qemu").unwrap().footprint.syscalls().count();
        let max_other = data
            .packages
            .iter()
            .filter(|p| p.name != "qemu")
            .map(|p| p.footprint.syscalls().count())
            .max()
            .unwrap();
        assert!(qemu >= max_other, "qemu {qemu} vs max {max_other}");
        assert!(qemu >= 240, "qemu footprint is {qemu}");
    }

    #[test]
    fn corpus_wide_ablation_shrinks_footprints() {
        let repo = SynthRepo::new(
            Scale { packages: 150, installations: 50_000 },
            CalibrationSpec::default(),
            0xBEEF,
        );
        let full = StudyData::from_synth(&repo);
        let opts = RunOptions {
            analysis: AnalysisOptions {
                function_pointer_edges: false,
                ..Default::default()
            },
            ..RunOptions::default()
        };
        let (reduced, _) = run(&repo, &opts, None).unwrap();
        let count = |d: &StudyData| -> usize {
            d.packages.iter().map(|p| p.footprint.len()).sum()
        };
        assert!(
            count(&reduced) < count(&full),
            "disabling pointer edges must lose coverage corpus-wide: {} vs {}",
            count(&reduced),
            count(&full),
        );
    }

    #[test]
    fn unresolved_sites_are_rare() {
        let data = tiny();
        let total = data.unresolved_syscall_sites + data.resolved_syscall_sites;
        assert!(total > 0);
        let ratio = data.unresolved_syscall_sites as f64 / total as f64;
        assert!(ratio < 0.10, "unresolved ratio {ratio}");
    }

    #[test]
    fn par_map_preserves_index_order() {
        let never = |_: usize, _: AbortCause, _: String| {
            unreachable!("no panics expected")
        };
        let (out, stats) = par_map_indexed(1000, None, |i| i * 3, never);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
        assert_eq!(stats.panics_contained, 0);
        assert_eq!(stats.retries_recovered, 0);
        assert_eq!(stats.deadline_quarantined, 0);
        let (empty, _) = par_map_indexed(0, None, |i| i, never);
        assert!(empty.is_empty());
    }

    #[test]
    fn par_map_contains_deterministic_panics() {
        // Item 7 panics on every attempt: it must be recovered, not abort
        // the scope, and every other item must be unaffected.
        let (out, stats) = par_map_indexed(
            64,
            None,
            |i| {
                if i == 7 {
                    panic!("poison item");
                }
                i as i64
            },
            |i, cause, detail| {
                assert_eq!(cause, AbortCause::Panic);
                assert!(detail.contains("poison item"), "got: {detail}");
                -(i as i64)
            },
        );
        assert_eq!(out[7], -7);
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, &v)| if i == 7 { v == -7 } else { v == i as i64 }));
        assert_eq!(stats.panics_contained, 1);
        assert_eq!(stats.retries_recovered, 0);
    }

    #[test]
    fn par_map_retry_recovers_transient_panics() {
        use std::sync::Mutex;
        // Item 3 panics only on its first attempt (a transient fault):
        // the retry must recover it without invoking the recover closure.
        let seen = Mutex::new(std::collections::HashSet::new());
        let (out, stats) = par_map_indexed(
            16,
            None,
            |i| {
                if i == 3 && seen.lock().unwrap().insert(3) {
                    panic!("transient");
                }
                i
            },
            |_, _, _| usize::MAX,
        );
        assert_eq!(out[3], 3);
        assert_eq!(stats.panics_contained, 1);
        assert_eq!(stats.retries_recovered, 1);
    }

    #[test]
    fn watchdog_quarantines_a_stalled_item() {
        use std::time::Duration;
        // Item 2 sleeps far past the deadline: the watchdog must
        // substitute its result while every fast item keeps its own, and
        // the slow worker's eventual value must be discarded, not
        // delivered over the substitution.
        let (out, stats) = par_map_indexed(
            8,
            Some(Duration::from_millis(25)),
            |i| {
                if i == 2 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                i as i64
            },
            |i, cause, detail| {
                assert_eq!(cause, AbortCause::Deadline);
                assert!(detail.contains("deadline"), "got: {detail}");
                -(i as i64)
            },
        );
        assert_eq!(out[2], -2, "stalled item must be quarantined");
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, &v)| if i == 2 { v == -2 } else { v == i as i64 }));
        assert_eq!(stats.deadline_quarantined, 1);
        assert_eq!(stats.panics_contained, 0);
    }

    #[test]
    fn watchdog_leaves_fast_items_alone() {
        use std::time::Duration;
        let (out, stats) = par_map_indexed(
            64,
            Some(Duration::from_secs(30)),
            |i| i,
            |_, _, _| usize::MAX,
        );
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
        assert_eq!(stats.deadline_quarantined, 0);
    }

    #[test]
    fn deadline_parse_accepts_positive_millis_only() {
        use std::time::Duration;
        assert_eq!(
            parse_deadline_ms(Some("250")),
            Some(Duration::from_millis(250))
        );
        assert_eq!(
            parse_deadline_ms(Some(" 42 ")),
            Some(Duration::from_millis(42))
        );
        for junk in [None, Some("0"), Some("-5"), Some("fast"), Some("")] {
            assert_eq!(parse_deadline_ms(junk), None, "junk {junk:?}");
        }
    }

    #[test]
    fn worker_count_clamps_to_items() {
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(10_000) <= 128);
        assert!(worker_count(10_000) >= 1);
    }

    #[test]
    fn threads_env_override_is_respected() {
        // Runs in-process, so keep every assertion valid under any value
        // other tests might observe concurrently (worker_count is pure
        // apart from this variable).
        std::env::set_var("APISTUDY_THREADS", "3");
        assert_eq!(worker_count(10), 3);
        assert_eq!(worker_count(2), 2, "still clamped to the item count");
        std::env::set_var("APISTUDY_THREADS", "999999");
        assert_eq!(worker_count(usize::MAX), 128, "hard cap");
        for junk in ["0", "-4", "banana", ""] {
            std::env::set_var("APISTUDY_THREADS", junk);
            let w = worker_count(10_000);
            assert!((1..=16).contains(&w), "junk {junk:?} must fall back");
        }
        std::env::remove_var("APISTUDY_THREADS");
    }
}
