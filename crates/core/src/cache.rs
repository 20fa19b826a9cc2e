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
//! With [`CacheMode::Disk`], the cache additionally persists to plain
//! length-prefixed binary files (no serde) under `target/apistudy-cache/`
//! so repeated `apistudy` CLI invocations warm-start across processes.
//! The bytes are built with the crate's framing layer (`crate::frame`):
//! its bounds-checked cursor and writers, and its atomic write — each
//! shard persists to its own file, written to a temporary sibling,
//! fsynced and renamed. The entry layout is the cache's own: the key
//! sits outside the checksum and the length is a `u64`, so a torn or
//! bit-flipped entry is *skipped* at load (its intact length prefix lets
//! the loader step over it) and the valid remainder is salvaged, where a
//! journal would stop at the damage. Only unframeable damage — a bad
//! header, an insane length — abandons one shard file; the others still
//! load. The cache degrades toward cold, never to wrong, and never
//! all-or-nothing.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use apistudy_analysis::{content_hash, BinaryAnalysis, Footprint, FuncInfo};
use apistudy_elf::BinaryClass;

use crate::footprint::ApiFootprint;
use crate::frame::{
    put_count, put_string, put_u32, put_u64, write_atomic, Cursor,
};

/// Number of independently locked shards. A power of two so shard
/// selection is a mask; 16 comfortably exceeds the pipeline's worker cap.
const SHARDS: usize = 16;

/// Per-shard entry cap. 8192 × 16 shards = 128 Ki entries, far above any
/// corpus the synthetic generator produces; the cap exists so a
/// pathological run cannot grow the cache without bound.
const SHARD_CAPACITY: usize = 8192;

/// On-disk format magic + version (bump the version on any layout change;
/// old files are then ignored, not misread). Version 2: per-shard files
/// with per-entry payload checksums.
const MAGIC: &[u8; 4] = b"APSC";
const VERSION: u32 = 2;

/// Sanity bound on one persisted entry's payload length: a corrupted
/// length prefix must not be able to command a giant allocation or swallow
/// the rest of the file as "one entry".
const MAX_DISK_ENTRY: u64 = 1 << 28;

/// Cache operating mode, selected by the `APISTUDY_CACHE` environment
/// variable (`off` | `mem` | `disk`) or the CLI's `--cache` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Bypass entirely: every lookup misses silently, nothing is stored.
    /// The `Default` impl is `Off` so an un-cached run's diagnostics
    /// truthfully report no cache; the *environment* default is
    /// [`CacheMode::Mem`] (see [`CacheMode::from_env`]).
    #[default]
    Off,
    /// In-memory only: one process's runs share results.
    Mem,
    /// In-memory plus a length-prefixed file under the cache directory,
    /// loaded at construction and written by [`AnalysisCache::persist`].
    Disk,
}

impl CacheMode {
    /// Parses a mode name; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(CacheMode::Off),
            "mem" => Some(CacheMode::Mem),
            "disk" => Some(CacheMode::Disk),
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
            CacheMode::Disk => "disk",
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
    /// Per shard: whether its file may not hold exactly its resident
    /// entries. Set by every insert; cleared when [`Self::persist`]
    /// writes the file, or when the file loads whole into an empty shard
    /// (a missing or damaged file stays unsaved, so persist heals it).
    unsaved: Vec<AtomicBool>,
    /// Where [`CacheMode::Disk`] reads and writes its file.
    dir: PathBuf,
}

impl AnalysisCache {
    /// Creates a cache in the given mode. [`CacheMode::Disk`] immediately
    /// tries to warm-start from the on-disk file (missing or corrupt files
    /// are ignored); the directory comes from `APISTUDY_CACHE_DIR` or
    /// defaults to `target/apistudy-cache`.
    pub fn new(mode: CacheMode) -> Self {
        let dir = std::env::var("APISTUDY_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/apistudy-cache"));
        Self::with_dir(mode, dir)
    }

    /// [`Self::new`] with an explicit cache directory (tests point this
    /// at temp dirs).
    pub fn with_dir(mode: CacheMode, dir: PathBuf) -> Self {
        let cache = Self {
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
            unsaved: (0..SHARDS).map(|_| AtomicBool::new(true)).collect(),
            dir,
        };
        if cache.mode == CacheMode::Disk {
            cache.load_disk();
        }
        cache
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

    /// The file one shard persists to.
    fn shard_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("analysis-v2-shard-{shard:02}.bin"))
    }

    /// Every file the disk mode persists to (one per shard), whether or
    /// not they exist yet.
    pub fn disk_paths(&self) -> Vec<PathBuf> {
        (0..SHARDS).map(|s| self.shard_path(s)).collect()
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
        self.unsaved[key.shard()].store(true, Ordering::Relaxed);
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

    /// Writes the resident entries to disk ([`CacheMode::Disk`] only; a
    /// no-op returning `Ok(None)` otherwise), one file per shard. Each
    /// file is written to a temporary sibling, fsynced, and renamed into
    /// place, so a crashed writer clobbers nothing — the loader either
    /// sees the previous complete file or the new complete file. Each
    /// entry's payload carries a [`content_hash`] checksum so later
    /// damage is detected per entry, not per file. A shard nothing was
    /// inserted into since this cache wrote its file, or loaded it whole,
    /// is skipped: that file already holds its entries, so a sweep that
    /// persists after every point pays only for the shards it changed.
    /// Returns the cache directory.
    pub fn persist(&self) -> std::io::Result<Option<PathBuf>> {
        if self.mode != CacheMode::Disk {
            return Ok(None);
        }
        std::fs::create_dir_all(&self.dir)?;
        for (si, shard) in self.shards.iter().enumerate() {
            let mut entries: Vec<(CacheKey, Arc<BinaryAnalysis>)> = {
                let guard = shard.read().unwrap_or_else(|e| e.into_inner());
                // Cleared under the lock inserts take, so an insert after
                // this snapshot marks the shard unsaved again.
                if !self.unsaved[si].swap(false, Ordering::Relaxed) {
                    continue;
                }
                guard.iter().map(|(k, v)| (*k, Arc::clone(v))).collect()
            };
            // Deterministic file contents for a given entry set.
            entries.sort_by_key(|(k, _)| (k.content, k.options));

            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            put_u32(&mut buf, VERSION);
            put_u64(&mut buf, entries.len() as u64);
            for (key, ba) in &entries {
                let payload = encode_analysis(ba);
                put_u64(&mut buf, key.content);
                put_u64(&mut buf, key.options);
                put_u64(&mut buf, payload.len() as u64);
                put_u64(&mut buf, content_hash(&payload));
                buf.extend_from_slice(&payload);
            }
            if let Err(e) = write_atomic(&self.shard_path(si), &buf) {
                self.unsaved[si].store(true, Ordering::Relaxed);
                return Err(e);
            }
        }
        Ok(Some(self.dir.clone()))
    }

    /// Best-effort warm start: decodes every shard file into the shards.
    /// Per-entry salvage: an entry whose checksum fails or whose payload
    /// does not decode is skipped (the length prefix steps over it) and
    /// loading continues; only unframeable damage — short header, insane
    /// length, truncated tail — ends that one file. Other shard files are
    /// unaffected either way.
    fn load_disk(&self) {
        for si in 0..SHARDS {
            let Ok(bytes) = std::fs::read(self.shard_path(si)) else {
                continue;
            };
            let empty = self.shards[si]
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty();
            if self.load_shard_file(si, &bytes) && empty {
                self.unsaved[si].store(false, Ordering::Relaxed);
            }
        }
    }

    /// Decodes shard `si`'s persisted file, salvaging around bad entries.
    /// Returns whether it loaded whole: every entry intact, filed in its
    /// own shard and kept, and nothing after the last one.
    fn load_shard_file(&self, si: usize, bytes: &[u8]) -> bool {
        let mut c = Cursor::new(bytes);
        let Some(magic) = c.take(4) else { return false };
        if magic != MAGIC {
            return false;
        }
        if c.u32() != Some(VERSION) {
            return false;
        }
        let Some(count) = c.u64() else { return false };
        let mut whole = true;
        for _ in 0..count {
            let Some(content) = c.u64() else { return false };
            let Some(options) = c.u64() else { return false };
            let Some(len) = c.u64() else { return false };
            if len > MAX_DISK_ENTRY {
                // The framing itself is untrustworthy: abandon the file
                // (everything salvaged so far decoded cleanly and stays).
                return false;
            }
            let Some(check) = c.u64() else { return false };
            let Some(payload) = c.take(len as usize) else { return false };
            if content_hash(payload) != check {
                // Damaged entry: the length prefix already stepped past
                // it, so the remainder of the file is still salvageable.
                whole = false;
                continue;
            }
            let mut pc = Cursor::new(payload);
            // Trailing garbage inside a checksum-valid payload means the
            // entry was written wrong, not damaged — still skip only it.
            let Some(ba) =
                decode_analysis(&mut pc).and_then(|ba| pc.finish(ba))
            else {
                whole = false;
                continue;
            };
            let key = CacheKey { content, options };
            if key.shard() != si {
                // Filed in the wrong shard: its own shard's file lacks it.
                whole = false;
                self.unsaved[key.shard()].store(true, Ordering::Relaxed);
            }
            let mut shard = self.shards[key.shard()]
                .write()
                .unwrap_or_else(|e| e.into_inner());
            if shard.len() < SHARD_CAPACITY {
                shard.insert(key, Arc::new(ba));
            } else {
                whole = false;
            }
        }
        whole && c.finish(()).is_some()
    }
}

// ---------------------------------------------------------------------------
// Analysis codec on the frame layer's cursor and writers. Everything
// little-endian; strings are u32-length UTF-8; collections are u32-count
// then elements. No serde, no unsafe.
// ---------------------------------------------------------------------------

fn put_opt_string(buf: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => buf.push(0),
        Some(s) => {
            buf.push(1);
            put_string(buf, s);
        }
    }
}

fn get_opt_string(c: &mut Cursor<'_>) -> Option<Option<String>> {
    match c.u8()? {
        0 => Some(None),
        1 => Some(Some(c.string()?)),
        _ => None,
    }
}

fn encode_footprint(buf: &mut Vec<u8>, fp: &Footprint) {
    put_count(buf, fp.syscalls.len());
    for &nr in &fp.syscalls {
        put_u32(buf, nr);
    }
    for codes in [&fp.ioctl_codes, &fp.fcntl_codes, &fp.prctl_codes] {
        put_count(buf, codes.len());
        for &code in codes {
            put_u64(buf, code);
        }
    }
    for strings in [&fp.imports, &fp.paths] {
        put_count(buf, strings.len());
        for s in strings {
            put_string(buf, s);
        }
    }
    put_u32(buf, fp.unresolved_syscall_sites);
    put_u32(buf, fp.unresolved_vectored_sites);
}

fn decode_footprint(c: &mut Cursor<'_>) -> Option<Footprint> {
    let mut fp = Footprint::new();
    for _ in 0..c.u32()? {
        fp.syscalls.insert(c.u32()?);
    }
    for codes in [&mut fp.ioctl_codes, &mut fp.fcntl_codes, &mut fp.prctl_codes]
    {
        for _ in 0..c.u32()? {
            codes.insert(c.u64()?);
        }
    }
    for strings in [&mut fp.imports, &mut fp.paths] {
        for _ in 0..c.u32()? {
            strings.insert(c.string()?);
        }
    }
    fp.unresolved_syscall_sites = c.u32()?;
    fp.unresolved_vectored_sites = c.u32()?;
    Some(fp)
}

fn class_tag(class: BinaryClass) -> u8 {
    match class {
        BinaryClass::StaticExec => 0,
        BinaryClass::DynExec => 1,
        BinaryClass::SharedLib => 2,
        BinaryClass::Other => 3,
    }
}

fn class_from_tag(tag: u8) -> Option<BinaryClass> {
    Some(match tag {
        0 => BinaryClass::StaticExec,
        1 => BinaryClass::DynExec,
        2 => BinaryClass::SharedLib,
        3 => BinaryClass::Other,
        _ => return None,
    })
}

/// Encodes one analysis as a self-contained payload.
fn encode_analysis(ba: &BinaryAnalysis) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.push(class_tag(ba.class));
    put_opt_string(&mut buf, &ba.soname);
    put_count(&mut buf, ba.needed.len());
    for n in &ba.needed {
        put_string(&mut buf, n);
    }
    put_count(&mut buf, ba.funcs.len());
    for f in &ba.funcs {
        put_string(&mut buf, &f.name);
        put_u64(&mut buf, f.addr);
        put_u64(&mut buf, f.size);
        encode_footprint(&mut buf, &f.facts);
        put_count(&mut buf, f.calls.len());
        for &callee in &f.calls {
            put_u64(&mut buf, callee as u64);
        }
    }
    // Exports sorted by name so equal analyses encode identically.
    let mut exports: Vec<(&String, &usize)> = ba.exports.iter().collect();
    exports.sort();
    put_count(&mut buf, exports.len());
    for (name, &idx) in exports {
        put_string(&mut buf, name);
        put_u64(&mut buf, idx as u64);
    }
    match ba.entry {
        None => buf.push(0),
        Some(e) => {
            buf.push(1);
            put_u64(&mut buf, e as u64);
        }
    }
    put_u64(&mut buf, ba.instructions);
    buf
}

/// Decodes one analysis payload; `None` on any structural violation.
fn decode_analysis(c: &mut Cursor<'_>) -> Option<BinaryAnalysis> {
    let class = class_from_tag(c.u8()?)?;
    let soname = get_opt_string(c)?;
    let mut needed = Vec::new();
    for _ in 0..c.u32()? {
        needed.push(c.string()?);
    }
    let n_funcs = c.u32()? as usize;
    let mut funcs = Vec::with_capacity(n_funcs.min(1 << 16));
    for _ in 0..n_funcs {
        let name = c.string()?;
        let addr = c.u64()?;
        let size = c.u64()?;
        let facts = decode_footprint(c)?;
        let mut calls = BTreeSet::new();
        for _ in 0..c.u32()? {
            let callee = c.u64()? as usize;
            if callee >= n_funcs {
                return None;
            }
            calls.insert(callee);
        }
        funcs.push(FuncInfo { name, addr, size, facts, calls });
    }
    let mut exports = HashMap::new();
    for _ in 0..c.u32()? {
        let name = c.string()?;
        let idx = c.u64()? as usize;
        if idx >= n_funcs {
            return None;
        }
        exports.insert(name, idx);
    }
    let entry = match c.u8()? {
        0 => None,
        1 => {
            let e = c.u64()? as usize;
            if e >= n_funcs {
                return None;
            }
            Some(e)
        }
        _ => return None,
    };
    let instructions = c.u64()?;
    Some(BinaryAnalysis {
        class,
        soname,
        needed,
        funcs,
        exports,
        entry,
        instructions,
    })
}

/// Removes the cache files and any stale temp siblings (current sharded
/// layout plus the retired v1 single-file names) — test hygiene and the
/// CLI's future `--cache-clear`, not part of the hot path.
pub fn clear_disk_cache(dir: &Path) -> std::io::Result<()> {
    let mut names = vec![
        "analysis-v1.bin".to_owned(),
        "analysis-v1.tmp".to_owned(),
    ];
    for s in 0..SHARDS {
        names.push(format!("analysis-v2-shard-{s:02}.bin"));
        names.push(format!("analysis-v2-shard-{s:02}.tmp"));
    }
    for name in names {
        let p = dir.join(name);
        match std::fs::remove_file(&p) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn roundtrip_preserves_analysis_exactly() {
        let ba = sample_analysis();
        let encoded = encode_analysis(&ba);
        let mut c = Cursor::new(&encoded);
        let decoded = decode_analysis(&mut c).expect("decodes");
        let decoded = c.finish(decoded).expect("payload fully consumed");
        assert_eq!(decoded, ba);
    }

    #[test]
    fn decode_rejects_out_of_range_indices() {
        let mut ba = sample_analysis();
        ba.exports.insert("evil".to_owned(), 99);
        let encoded = encode_analysis(&ba);
        let mut c = Cursor::new(&encoded);
        assert!(decode_analysis(&mut c).is_none());
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let encoded = encode_analysis(&sample_analysis());
        for cut in 0..encoded.len() {
            let mut c = Cursor::new(&encoded[..cut]);
            // Either cleanly rejected, or (never) a full parse of a
            // truncated buffer.
            if let Some(_ba) = decode_analysis(&mut c) {
                panic!("decoded from {cut}/{} bytes", encoded.len());
            }
        }
    }

    #[test]
    fn mem_mode_hits_after_insert_and_counts() {
        let cache = AnalysisCache::with_dir(CacheMode::Mem, PathBuf::new());
        let key = CacheKey { content: 7, options: 9 };
        assert!(cache.get(key).is_none());
        cache.insert(key, Arc::new(sample_analysis()));
        assert!(cache.get(key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn footprint_level_hits_after_insert_and_counts() {
        let cache = AnalysisCache::with_dir(CacheMode::Mem, PathBuf::new());
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
        let cache = AnalysisCache::with_dir(CacheMode::Off, PathBuf::new());
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
        let cache = AnalysisCache::with_dir(CacheMode::Mem, PathBuf::new());
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
    fn disk_roundtrip_warm_starts_a_new_cache() {
        let dir = std::env::temp_dir()
            .join(format!("apistudy-cache-test-{}", std::process::id()));
        clear_disk_cache(&dir).ok();
        let key = CacheKey { content: 0xABCD, options: 0x1234 };
        {
            let cache =
                AnalysisCache::with_dir(CacheMode::Disk, dir.clone());
            cache.insert(key, Arc::new(sample_analysis()));
            let path = cache.persist().expect("persist").expect("disk mode");
            assert!(path.exists());
        }
        let warm = AnalysisCache::with_dir(CacheMode::Disk, dir.clone());
        let hit = warm.get(key).expect("warm start");
        assert_eq!(*hit, sample_analysis());
        // A corrupted shard file must be ignored, not misread.
        let path = warm.shard_path(key.shard());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();
        let cold = AnalysisCache::with_dir(CacheMode::Disk, dir.clone());
        let _ = cold.get(key); // may or may not hit depending on cut point
        clear_disk_cache(&dir).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn persist_rewrites_only_shards_changed_since_their_last_write() {
        let dir = std::env::temp_dir()
            .join(format!("apistudy-cache-unsaved-{}", std::process::id()));
        clear_disk_cache(&dir).ok();
        let (a, b) = (
            CacheKey { content: 0, options: 0 },
            CacheKey { content: 1, options: 0 },
        );
        assert_ne!(a.shard(), b.shard());
        let cache = AnalysisCache::with_dir(CacheMode::Disk, dir.clone());
        cache.insert(a, Arc::new(sample_analysis()));
        cache.persist().expect("persist");
        assert!(
            cache.disk_paths().iter().all(|p| p.exists()),
            "the first persist writes every shard"
        );
        // Remove both files: the next persist shows which it rewrites.
        std::fs::remove_file(cache.shard_path(a.shard())).unwrap();
        std::fs::remove_file(cache.shard_path(b.shard())).unwrap();
        cache.insert(b, Arc::new(sample_analysis()));
        cache.persist().expect("persist");
        assert!(
            !cache.shard_path(a.shard()).exists(),
            "a shard unchanged since its last write is skipped"
        );
        let warm = AnalysisCache::with_dir(CacheMode::Disk, dir.clone());
        assert!(warm.get(b).is_some(), "the changed shard is rewritten");
        assert!(warm.get(a).is_none());
        clear_disk_cache(&dir).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn persist_skips_files_that_loaded_whole_and_heals_the_rest() {
        let dir = std::env::temp_dir()
            .join(format!("apistudy-cache-heal-{}", std::process::id()));
        clear_disk_cache(&dir).ok();
        let (a, b) = (
            CacheKey { content: 0, options: 0 },
            CacheKey { content: 1, options: 0 },
        );
        let cache = AnalysisCache::with_dir(CacheMode::Disk, dir.clone());
        cache.insert(a, Arc::new(sample_analysis()));
        cache.insert(b, Arc::new(sample_analysis()));
        cache.persist().expect("persist");
        // Trailing garbage after b's file: its entries still load, but
        // the file is not what persist writes.
        let b_path = cache.shard_path(b.shard());
        let clean = std::fs::read(&b_path).unwrap();
        let mut damaged = clean.clone();
        damaged.push(0xEE);
        std::fs::write(&b_path, &damaged).unwrap();

        let warm = AnalysisCache::with_dir(CacheMode::Disk, dir.clone());
        assert!(warm.get(a).is_some() && warm.get(b).is_some());
        std::fs::remove_file(warm.shard_path(a.shard())).unwrap();
        warm.persist().expect("persist");
        assert!(
            !warm.shard_path(a.shard()).exists(),
            "a file that loaded whole is not rewritten"
        );
        assert_eq!(
            std::fs::read(&b_path).unwrap(),
            clean,
            "a damaged file is rewritten"
        );
        clear_disk_cache(&dir).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn torn_entry_is_skipped_and_the_rest_salvaged() {
        let dir = std::env::temp_dir().join(format!(
            "apistudy-cache-salvage-{}",
            std::process::id()
        ));
        clear_disk_cache(&dir).ok();
        // Five entries, all in shard 0 (content is a multiple of SHARDS,
        // options 0), persisted sorted by content — entry order is known.
        let keys: Vec<CacheKey> = (0..5u64)
            .map(|i| CacheKey { content: i * SHARDS as u64, options: 0 })
            .collect();
        {
            let cache =
                AnalysisCache::with_dir(CacheMode::Disk, dir.clone());
            for &key in &keys {
                cache.insert(key, Arc::new(sample_analysis()));
            }
            cache.persist().expect("persist").expect("disk mode");
        }
        // Flip one byte inside the FIRST entry's payload: file header is
        // 16 bytes (magic 4 + version 4 + count 8), entry framing is 32
        // (content 8 + options 8 + len 8 + check 8).
        let path = dir.join("analysis-v2-shard-00.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16 + 32 + 3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let warm = AnalysisCache::with_dir(CacheMode::Disk, dir.clone());
        assert!(
            warm.get(keys[0]).is_none(),
            "damaged entry must not be served"
        );
        for &key in &keys[1..] {
            assert!(
                warm.get(key).is_some(),
                "entries after the damage must be salvaged"
            );
        }

        // Truncating mid-entry salvages everything before the tear.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let torn = AnalysisCache::with_dir(CacheMode::Disk, dir.clone());
        for &key in &keys[1..4] {
            assert!(torn.get(key).is_some(), "prefix entries survive");
        }
        assert!(torn.get(keys[4]).is_none(), "torn tail entry is dropped");
        clear_disk_cache(&dir).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(CacheMode::parse("off"), Some(CacheMode::Off));
        assert_eq!(CacheMode::parse(" MEM "), Some(CacheMode::Mem));
        assert_eq!(CacheMode::parse("disk"), Some(CacheMode::Disk));
        assert_eq!(CacheMode::parse("nvme"), None);
        assert_eq!(CacheMode::default(), CacheMode::Off);
    }
}
