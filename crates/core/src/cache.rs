//! Content-addressed incremental analysis cache.
//!
//! The study's headline numbers come from re-running the same static
//! analysis over the same binaries under many configurations: the
//! corruption sweep alone re-analyzes the full corpus at each of its
//! rates even though a 2% fault rate leaves ~98% of binaries
//! byte-identical to the clean baseline. [`AnalysisCache`] makes every
//! multi-configuration run incremental: analysis results are keyed by
//! `(content hash of the bytes, AnalysisOptions fingerprint)` — see
//! [`apistudy_analysis::content_hash`] and
//! [`apistudy_analysis::AnalysisOptions::fingerprint`] — so a sweep point
//! pays only for the binaries its fault plan actually mutated. Because
//! nested fault plans corrupt a selected file identically at every rate
//! that selects it (same salt, same kind), even *corrupted-but-survivable*
//! binaries hit the cache across sweep points.
//!
//! The cache has a second, derived level: *resolved executable
//! footprints*. Resolving an executable against the sealed linker is a
//! pure function of the executable's analysis and of every library its
//! `DT_NEEDED` closure visits, so the pipeline keys the catalog-resolved
//! result by folding the executable's content hash with the content
//! hashes of its closure libraries in search order (see
//! [`fold_hash`] and [`Linker::needed_closure`](apistudy_analysis::Linker::needed_closure)).
//! A sweep point where neither an executable nor anything it links
//! against mutated skips the whole cross-binary resolution, not just the
//! per-binary analysis. This level is memory-only: it is derived data,
//! re-derivable from cached analyses in one warm run.
//!
//! What is deliberately **never** cached:
//!
//! - **errors** — a parse or analysis failure (including a tripped
//!   [`apistudy_elf::ElfError::ResourceLimit`] guard) must be re-derived
//!   and re-classified on every run so the skip ledger stays exact;
//! - **panic-retried successes** — a result obtained after a contained
//!   panic may reflect a transient fault; caching it would freeze a
//!   possibly-wrong answer *and* erase the retry accounting a later run
//!   should reproduce (a retryable panic must stay retryable);
//! - **quarantined packages** — they never produce analyses at all.
//!
//! The map is sharded: readers take a shard's `RwLock` read guard only,
//! so [`par_map_indexed`](crate::pipeline) workers hitting a warm cache
//! never contend on the hot path. Hit/miss/evict counters are lifetime
//! totals (per-run deltas land in
//! [`RunDiagnostics`](crate::diagnostics::RunDiagnostics)).
//!
//! The cache lives in one process. What outlives a process is the
//! study's footprint store and each sweep's write-ahead journal; a
//! resumed sweep warms a fresh cache in its first computed point.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use apistudy_analysis::{content_hash, ApiFootprint, BinaryAnalysis};

/// Number of independently locked shards. A power of two so shard
/// selection is a mask; 16 comfortably exceeds the pipeline's worker cap.
const SHARDS: usize = 16;

/// Per-shard entry cap. 8192 × 16 shards = 128 Ki entries, far above any
/// corpus the synthetic generator produces; the cap exists so a
/// pathological run cannot grow the cache without bound.
const SHARD_CAPACITY: usize = 8192;

/// Cache operating mode, selected by the `APISTUDY_CACHE` environment
/// variable (`off` | `mem`) or the CLI's `--cache` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Bypass entirely: every lookup misses silently, nothing is stored.
    /// The `Default` impl is `Off` so an un-cached run's diagnostics
    /// truthfully report no cache; the *environment* default is
    /// [`CacheMode::Mem`] (see [`CacheMode::from_env`]).
    #[default]
    Off,
    /// In memory: one process's runs share results.
    Mem,
}

impl CacheMode {
    /// Parses a mode name; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(CacheMode::Off),
            "mem" => Some(CacheMode::Mem),
            _ => None,
        }
    }

    /// Reads `APISTUDY_CACHE`, defaulting to [`CacheMode::Mem`] when the
    /// variable is unset or unrecognized (sweeps are incremental unless
    /// explicitly opted out).
    pub fn from_env() -> Self {
        std::env::var("APISTUDY_CACHE")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or(CacheMode::Mem)
    }

    /// A short stable label for footers and logs.
    pub fn label(self) -> &'static str {
        match self {
            CacheMode::Off => "off",
            CacheMode::Mem => "mem",
        }
    }
}

impl std::fmt::Display for CacheMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The two-part cache key: what was analyzed, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`content_hash`] of the binary's bytes.
    pub content: u64,
    /// [`AnalysisOptions::fingerprint`](apistudy_analysis::AnalysisOptions::fingerprint)
    /// of the analysis configuration.
    pub options: u64,
}

/// Folds one already-avalanched 64-bit hash into an accumulator — the
/// primitive the footprint-cache key is built from (exec hash, then each
/// closure library's hash in search order). One xxhash-style round: the
/// rotate keeps permuted inputs distinct, the odd multiplier re-mixes.
pub fn fold_hash(acc: u64, x: u64) -> u64 {
    (acc ^ x)
        .rotate_left(31)
        .wrapping_mul(0x9E37_79B1_85EB_CA87)
}

impl CacheKey {
    /// Derives the key for one binary under one (pre-fingerprinted)
    /// option set.
    pub fn for_bytes(bytes: &[u8], options_fingerprint: u64) -> Self {
        Self { content: content_hash(bytes), options: options_fingerprint }
    }

    /// Which shard holds this key. Both halves are already
    /// avalanche-mixed hashes, so folding them is distribution enough.
    fn shard(self) -> usize {
        (self.content ^ self.options.rotate_left(1)) as usize & (SHARDS - 1)
    }
}

/// Lifetime counter snapshot, for footers and CI gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a stored analysis.
    pub hits: u64,
    /// Lookups that found nothing ([`CacheMode::Off`] counts nothing:
    /// a disabled cache is bypassed, not missed).
    pub misses: u64,
    /// Entries displaced by the per-shard capacity cap (both levels
    /// share the counter).
    pub evictions: u64,
    /// Analysis entries currently resident across all shards.
    pub entries: usize,
    /// Resolved-footprint lookups that hit.
    pub footprint_hits: u64,
    /// Resolved-footprint lookups that missed.
    pub footprint_misses: u64,
    /// Resolved-footprint entries currently resident.
    pub footprint_entries: usize,
}

/// The sharded content-addressed cache. Cheap to share by reference
/// across the pipeline's scoped workers; all interior mutability.
#[derive(Debug)]
pub struct AnalysisCache {
    mode: CacheMode,
    shards: Vec<RwLock<HashMap<CacheKey, Arc<BinaryAnalysis>>>>,
    /// The derived level: resolved executable footprints (memory-only).
    fp_shards: Vec<RwLock<HashMap<CacheKey, Arc<ApiFootprint>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    fp_hits: AtomicU64,
    fp_misses: AtomicU64,
    evictions: AtomicU64,
}

impl AnalysisCache {
    /// Creates an empty cache in the given mode.
    pub fn new(mode: CacheMode) -> Self {
        Self {
            mode,
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            fp_shards: (0..SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fp_hits: AtomicU64::new(0),
            fp_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The cache's operating mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Whether lookups can ever hit (everything but [`CacheMode::Off`]).
    /// The pipeline skips key derivation work when this is false.
    pub fn enabled(&self) -> bool {
        self.mode != CacheMode::Off
    }

    /// Looks up a stored analysis. Read-lock only — concurrent readers
    /// never block each other. [`CacheMode::Off`] always returns `None`
    /// without touching the counters.
    pub fn get(&self, key: CacheKey) -> Option<Arc<BinaryAnalysis>> {
        if self.mode == CacheMode::Off {
            return None;
        }
        let shard = self.shards[key.shard()]
            .read()
            .unwrap_or_else(|e| e.into_inner());
        match shard.get(&key) {
            Some(ba) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(ba))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an analysis. Callers are responsible for the cacheability
    /// policy (only clean, panic-free successes — see the module docs);
    /// the cache itself only enforces the capacity cap, displacing an
    /// arbitrary resident entry when a shard is full.
    pub fn insert(&self, key: CacheKey, ba: Arc<BinaryAnalysis>) {
        if self.mode == CacheMode::Off {
            return;
        }
        let mut shard = self.shards[key.shard()]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        if shard.len() >= SHARD_CAPACITY && !shard.contains_key(&key) {
            if let Some(&victim) = shard.keys().next() {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(key, ba);
    }

    /// Looks up a resolved executable footprint (the derived level).
    /// Same locking discipline as [`AnalysisCache::get`].
    pub fn get_footprint(&self, key: CacheKey) -> Option<Arc<ApiFootprint>> {
        if self.mode == CacheMode::Off {
            return None;
        }
        let shard = self.fp_shards[key.shard()]
            .read()
            .unwrap_or_else(|e| e.into_inner());
        match shard.get(&key) {
            Some(fp) => {
                self.fp_hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(fp))
            }
            None => {
                self.fp_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a resolved executable footprint. Resolution is a pure
    /// function of already-cached-or-validated analyses, so there is no
    /// panic-retry caveat at this level; the capacity cap still applies.
    pub fn insert_footprint(&self, key: CacheKey, fp: Arc<ApiFootprint>) {
        if self.mode == CacheMode::Off {
            return;
        }
        let mut shard = self.fp_shards[key.shard()]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        if shard.len() >= SHARD_CAPACITY && !shard.contains_key(&key) {
            if let Some(&victim) = shard.keys().next() {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(key, fp);
    }

    /// Lifetime counters plus current residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
                .sum(),
            footprint_hits: self.fp_hits.load(Ordering::Relaxed),
            footprint_misses: self.fp_misses.load(Ordering::Relaxed),
            footprint_entries: self
                .fp_shards
                .iter()
                .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BTreeSet;

    use apistudy_analysis::{Footprint, FuncInfo};
    use apistudy_elf::BinaryClass;

    fn sample_analysis() -> BinaryAnalysis {
        let mut facts = Footprint::new();
        facts.syscalls.extend([1, 2, 60]);
        facts.ioctl_codes.insert(0x5401);
        facts.imports.insert("write".to_owned());
        facts.paths.insert("/proc/self/maps".to_owned());
        facts.unresolved_syscall_sites = 3;
        let f0 = FuncInfo {
            name: "_start".to_owned(),
            addr: 0x1000,
            size: 32,
            facts,
            calls: [1].into_iter().collect(),
        };
        let f1 = FuncInfo {
            name: "helper".to_owned(),
            addr: 0x1040,
            size: 16,
            facts: Footprint::new(),
            calls: BTreeSet::new(),
        };
        BinaryAnalysis {
            class: BinaryClass::DynExec,
            soname: None,
            needed: vec!["libc.so.6".to_owned()],
            funcs: vec![f0, f1],
            exports: [("helper".to_owned(), 1)].into_iter().collect(),
            entry: Some(0),
            instructions: 48,
        }
    }

    #[test]
    fn mem_mode_hits_after_insert_and_counts() {
        let cache = AnalysisCache::new(CacheMode::Mem);
        let key = CacheKey { content: 7, options: 9 };
        assert!(cache.get(key).is_none());
        cache.insert(key, Arc::new(sample_analysis()));
        assert!(cache.get(key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn footprint_level_hits_after_insert_and_counts() {
        let cache = AnalysisCache::new(CacheMode::Mem);
        let key = CacheKey { content: 11, options: 13 };
        assert!(cache.get_footprint(key).is_none());
        let fp = ApiFootprint { unresolved: 7, ..Default::default() };
        cache.insert_footprint(key, Arc::new(fp.clone()));
        assert_eq!(*cache.get_footprint(key).expect("hit"), fp);
        let stats = cache.stats();
        assert_eq!(
            (stats.footprint_hits, stats.footprint_misses, stats.footprint_entries),
            (1, 1, 1)
        );
        // The two levels are independent maps.
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn fold_hash_is_order_sensitive() {
        let (a, b) = (0xDEAD_BEEF_u64, 0x1234_5678_u64);
        let ab = fold_hash(fold_hash(0, a), b);
        let ba = fold_hash(fold_hash(0, b), a);
        assert_ne!(ab, ba, "closure order must matter");
        assert_ne!(fold_hash(ab, a), ab, "folding more input moves the key");
    }

    #[test]
    fn off_mode_stores_and_counts_nothing() {
        let cache = AnalysisCache::new(CacheMode::Off);
        let key = CacheKey { content: 7, options: 9 };
        cache.insert(key, Arc::new(sample_analysis()));
        cache.insert_footprint(key, Arc::new(ApiFootprint::default()));
        assert!(cache.get(key).is_none());
        assert!(cache.get_footprint(key).is_none());
        assert!(!cache.enabled());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn eviction_respects_capacity_and_counts() {
        let cache = AnalysisCache::new(CacheMode::Mem);
        let ba = Arc::new(sample_analysis());
        // Overfill one shard: keys with identical low bits land together.
        let shard_of = |i: u64| CacheKey { content: i * SHARDS as u64, options: 0 };
        for i in 0..(SHARD_CAPACITY as u64 + 10) {
            cache.insert(shard_of(i), Arc::clone(&ba));
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 10);
        assert_eq!(stats.entries, SHARD_CAPACITY);
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(CacheMode::parse("off"), Some(CacheMode::Off));
        assert_eq!(CacheMode::parse(" MEM "), Some(CacheMode::Mem));
        assert_eq!(CacheMode::parse("disk"), None);
        assert_eq!(CacheMode::parse("nvme"), None);
        assert_eq!(CacheMode::default(), CacheMode::Off);
    }
}
