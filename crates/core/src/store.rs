//! The on-disk footprint store: crash-safe persistence for sharded runs.
//!
//! A paper-scale streaming run ([`crate::stream::run`] with a store)
//! appends each completed *clean* shard's compact per-package results —
//! [`PackageRecord`]s plus attribution fragments — to a [`FootprintStore`].
//! A resumed run replays stored shards at file-read cost and recomputes
//! only the rest, bit-identically (every float crosses the disk as raw
//! bits, every `ApiSet` as interner ids over a fingerprint-pinned
//! universe).
//!
//! The file is a log of the crate's one framing layer (`crate::frame`),
//! the same one under the write-ahead journal: a temp+rename-committed
//! checksummed header binding the file to one [`RunFingerprint`], then
//! frames (length prefix, 64-bit content checksum, payload), with torn
//! tails recovered by truncating back to the longest valid prefix. No
//! serde. This module is the record codec on top, with its own magic
//! (`APSF`) and record schema:
//!
//! - **Package** records carry one package's full study output;
//! - a **ShardComplete** marker commits the shard: its geometry, the
//!   shard-level aggregates, and (implicitly, by following them in one
//!   atomic append) the validity of the package records before it.
//!
//! One shard = one `write_all` + fsync of all its package records plus
//! the marker, so a crash can only ever lose whole shards: package
//! records without a trailing marker are discarded on resume. Dirty
//! shards (skips, panics, quarantines) are never written — their fault
//! ledger must be re-derived, exactly like the analysis cache's
//! never-cache-errors policy.

use std::collections::HashMap;
use std::path::Path;

use apistudy_catalog::{ApiInterner, ApiSet};
use apistudy_corpus::{Interpreter, MixCensus};
use apistudy_elf::BinaryClass;

use crate::diagnostics::RunDiagnostics;
use crate::footprint::ApiFootprint;
use crate::frame::{
    put_count, put_frame, put_nr_list, put_string, put_u32, put_u64,
    Cursor, Log, LogFormat, Replay, MAX_RECORD,
};
use crate::journal::{JournalError, RunFingerprint};
use crate::pipeline::PackageRecord;
use crate::stream::{PackageAttribution, ShardPartial};

/// The store's log format: its own magic (distinct from the journal's
/// `APSJ`), version, and the sysfault sites of its appends.
const FORMAT: LogFormat = LogFormat {
    magic: b"APSF",
    version: 1,
    write_site: "store.write",
    fsync_site: "store.fsync",
};

/// Fixed encoding order for the census's ELF classes.
const ELF_CLASSES: [BinaryClass; 4] = [
    BinaryClass::StaticExec,
    BinaryClass::DynExec,
    BinaryClass::SharedLib,
    BinaryClass::Other,
];
/// Fixed encoding order for the census's interpreters.
const INTERPRETERS: [Interpreter; 6] = [
    Interpreter::Dash,
    Interpreter::Bash,
    Interpreter::Python,
    Interpreter::Perl,
    Interpreter::Ruby,
    Interpreter::Other,
];

/// Replay/append accounting for one stored sharded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Shards replayed from the store instead of being computed.
    pub replayed_shards: u64,
    /// Shards this run computed.
    pub computed_shards: u64,
    /// Computed shards that were clean and therefore persisted.
    pub stored_shards: u64,
    /// Package records replayed from the store.
    pub replayed_packages: u64,
}

/// The append-only on-disk footprint store. See the module docs for the
/// format; [`JournalError`] is reused as the error type since the
/// failure modes (I/O, bad header, fingerprint mismatch) are identical.
///
/// After a failed append the handle fail-stops: every later append
/// returns [`JournalError::FailStop`], because the on-disk tail is
/// unknowable, and recovery is reopening via [`FootprintStore::resume`].
#[derive(Debug)]
pub struct FootprintStore {
    log: Log,
}

/// Encodes an [`ApiSet`] as its ascending interner ids. The header
/// fingerprint pins the interner universe, so ids round-trip exactly.
fn put_api_set(buf: &mut Vec<u8>, set: &ApiSet) {
    put_count(buf, set.len());
    for id in set.ids() {
        put_u32(buf, id);
    }
}

/// Decodes an [`ApiSet`]: ids must be strictly ascending (the canonical
/// encoding) and inside the interner universe, else the record is
/// rejected as corrupt.
fn get_api_set(c: &mut Cursor<'_>) -> Option<ApiSet> {
    let interner = ApiInterner::global();
    let universe = interner.universe() as u32;
    let count = c.u32()? as usize;
    if count > MAX_RECORD / 4 {
        return None;
    }
    let mut set = ApiSet::new();
    let mut prev: Option<u32> = None;
    for _ in 0..count {
        let id = c.u32()?;
        if id >= universe || prev.is_some_and(|p| id <= p) {
            return None;
        }
        prev = Some(id);
        set.insert(interner.resolve(id));
    }
    Some(set)
}

fn put_string_list(buf: &mut Vec<u8>, strings: &[String]) {
    put_count(buf, strings.len());
    for s in strings {
        put_string(buf, s);
    }
}

/// One package's full study output: record fields plus the attribution
/// fragment, prefixed with the package's global index so resume can
/// verify shard geometry.
fn encode_package(
    buf: &mut Vec<u8>,
    index: usize,
    rec: &PackageRecord,
    attr: &PackageAttribution,
) {
    buf.push(1);
    put_u32(buf, index as u32);
    put_string(buf, &rec.name);
    put_u64(buf, rec.prob.to_bits());
    put_u64(buf, rec.install_count);
    put_string_list(buf, &rec.depends);
    put_string_list(buf, &rec.script_interpreters);
    put_u32(buf, rec.file_counts.0 as u32);
    put_u32(buf, rec.file_counts.1 as u32);
    put_u32(buf, rec.file_counts.2 as u32);
    put_u32(buf, rec.unresolved_syscall_sites);
    put_u32(buf, rec.skipped_binaries);
    buf.push(u8::from(rec.partial_footprint));
    put_u32(buf, rec.footprint.unresolved);
    put_api_set(buf, &rec.footprint.apis);
    put_count(buf, attr.libs.len());
    for (soname, nrs) in &attr.libs {
        put_string(buf, soname);
        put_nr_list(buf, nrs);
    }
    put_count(buf, attr.execs.len());
    for nrs in &attr.execs {
        put_nr_list(buf, nrs);
    }
}

fn decode_package(
    c: &mut Cursor<'_>,
) -> Option<(usize, PackageRecord, PackageAttribution)> {
    let index = c.u32()? as usize;
    let name = c.string()?;
    let prob = f64::from_bits(c.u64()?);
    let install_count = c.u64()?;
    let depends = c.list(MAX_RECORD / 8, Cursor::string)?;
    let script_interpreters = c.list(MAX_RECORD / 8, Cursor::string)?;
    let file_counts = (
        c.u32()? as usize,
        c.u32()? as usize,
        c.u32()? as usize,
    );
    let unresolved_syscall_sites = c.u32()?;
    let skipped_binaries = c.u32()?;
    let partial_footprint = match c.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let fp_unresolved = c.u32()?;
    let apis = get_api_set(c)?;
    let libs = c.list(MAX_RECORD / 8, |c| {
        Some((c.string()?, c.nr_list(MAX_RECORD / 4)?))
    })?;
    let execs = c.list(MAX_RECORD / 8, |c| c.nr_list(MAX_RECORD / 4))?;
    Some((
        index,
        PackageRecord {
            name,
            prob,
            install_count,
            depends,
            footprint: ApiFootprint { apis, unresolved: fp_unresolved },
            script_interpreters,
            file_counts,
            unresolved_syscall_sites,
            skipped_binaries,
            partial_footprint,
        },
        PackageAttribution { libs, execs },
    ))
}

/// The shard-commit marker: geometry plus the aggregates that are not
/// recoverable from the package records (resolved sites, the census,
/// analyzed-binary count).
fn encode_marker(buf: &mut Vec<u8>, p: &ShardPartial) {
    buf.push(2);
    put_u32(buf, p.shard as u32);
    put_u32(buf, p.start as u32);
    put_u32(buf, p.records.len() as u32);
    put_u64(buf, p.diagnostics.analyzed_binaries);
    put_u64(buf, p.resolved_sites);
    for class in ELF_CLASSES {
        put_u64(buf, p.census.elf.get(&class).copied().unwrap_or(0) as u64);
    }
    for interp in INTERPRETERS {
        put_u64(
            buf,
            p.census.scripts.get(&interp).copied().unwrap_or(0) as u64,
        );
    }
    put_u64(buf, p.census.unparsable as u64);
}

struct Marker {
    shard: usize,
    start: usize,
    len: usize,
    analyzed_binaries: u64,
    resolved_sites: u64,
    census: MixCensus,
}

fn decode_marker(c: &mut Cursor<'_>) -> Option<Marker> {
    let shard = c.u32()? as usize;
    let start = c.u32()? as usize;
    let len = c.u32()? as usize;
    let analyzed_binaries = c.u64()?;
    let resolved_sites = c.u64()?;
    let mut census = MixCensus::default();
    // Only nonzero counts are inserted, matching `MixCensus::scan` (a
    // present-but-zero entry would break `PartialEq` with a scan).
    for class in ELF_CLASSES {
        let v = c.u64()? as usize;
        if v > 0 {
            census.elf.insert(class, v);
        }
    }
    for interp in INTERPRETERS {
        let v = c.u64()? as usize;
        if v > 0 {
            census.scripts.insert(interp, v);
        }
    }
    census.unparsable = c.u64()? as usize;
    Some(Marker {
        shard,
        start,
        len,
        analyzed_binaries,
        resolved_sites,
        census,
    })
}

/// Commits the package records pending before a shard marker into the
/// replayed shard it describes. The marker must cover exactly the
/// pending records, contiguously from its start index; anything else is
/// structural corruption and ends the valid prefix there.
fn commit_shard(
    marker: Marker,
    pending: &mut Vec<(usize, PackageRecord, PackageAttribution)>,
) -> Option<ShardPartial> {
    let contiguous = pending.len() == marker.len
        && pending
            .iter()
            .enumerate()
            .all(|(i, (idx, _, _))| *idx == marker.start + i);
    if !contiguous {
        return None;
    }
    let mut records = Vec::with_capacity(marker.len);
    let mut attributions = Vec::with_capacity(marker.len);
    let mut unresolved_sites = 0u64;
    for (_, rec, attr) in pending.drain(..) {
        unresolved_sites += u64::from(rec.unresolved_syscall_sites);
        records.push(rec);
        attributions.push(attr);
    }
    Some(ShardPartial {
        shard: marker.shard,
        start: marker.start,
        records,
        attributions,
        census: marker.census,
        unresolved_sites,
        resolved_sites: marker.resolved_sites,
        // Stored shards are clean by policy; the only diagnostic they
        // carry is the work count.
        diagnostics: RunDiagnostics {
            analyzed_binaries: marker.analyzed_binaries,
            ..RunDiagnostics::default()
        },
        replayed: true,
    })
}

impl FootprintStore {
    /// Creates a fresh store bound to `fp`, replacing any existing file
    /// at `path`. Header commit is temp-file + fsync + atomic rename.
    pub fn create(
        path: &Path,
        fp: &RunFingerprint,
    ) -> Result<Self, JournalError> {
        Ok(Self { log: Log::create(path, &FORMAT, fp)? })
    }

    /// Opens an existing store for resumption: verifies the header
    /// against `fp`, recovers every complete shard, truncates any torn
    /// or marker-less tail, and returns the recovered partials keyed by
    /// shard index. The valid prefix advances only past committed
    /// shards: package records pending without a committing marker — a
    /// crash mid-shard — are discarded.
    pub fn resume(
        path: &Path,
        fp: &RunFingerprint,
    ) -> Result<(Self, HashMap<usize, ShardPartial>), JournalError> {
        let mut partials = HashMap::new();
        let mut pending = Vec::new();
        let log = Log::resume(path, &FORMAT, fp, |payload| {
            let mut c = Cursor::new(payload);
            match c.u8() {
                Some(1) => match decode_package(&mut c)
                    .and_then(|entry| c.finish(entry))
                {
                    Some(entry) => {
                        pending.push(entry);
                        Replay::Pending
                    }
                    None => Replay::Stop,
                },
                Some(2) => match decode_marker(&mut c)
                    .and_then(|m| c.finish(m))
                    .and_then(|m| commit_shard(m, &mut pending))
                {
                    Some(partial) => {
                        partials.insert(partial.shard, partial);
                        Replay::Commit
                    }
                    None => Replay::Stop,
                },
                _ => Replay::Stop,
            }
        })?;
        Ok((Self { log }, partials))
    }

    /// Resumes when `path` holds a compatible store, otherwise creates a
    /// fresh one. Header and fingerprint errors still surface: silently
    /// overwriting a store that belongs to a different run would destroy
    /// resumable work.
    pub fn resume_or_create(
        path: &Path,
        fp: &RunFingerprint,
    ) -> Result<(Self, HashMap<usize, ShardPartial>), JournalError> {
        if path.exists() {
            Self::resume(path, fp)
        } else {
            Ok((Self::create(path, fp)?, HashMap::new()))
        }
    }

    /// Appends one completed clean shard: every package record plus the
    /// committing marker, framed individually but written in a single
    /// `write_all` and fsynced (callsites `store.write` / `store.fsync`).
    /// A crash mid-append tears the tail; resume discards any package
    /// records not followed by their marker, so the store never
    /// resurrects half a shard.
    pub fn append_shard(
        &mut self,
        partial: &ShardPartial,
    ) -> Result<(), JournalError> {
        debug_assert!(
            partial.diagnostics.is_clean(),
            "only clean shards are persisted"
        );
        debug_assert_eq!(partial.records.len(), partial.attributions.len());
        let mut out = Vec::new();
        let mut payload = Vec::new();
        for (i, (rec, attr)) in partial
            .records
            .iter()
            .zip(&partial.attributions)
            .enumerate()
        {
            payload.clear();
            encode_package(&mut payload, partial.start + i, rec, attr);
            put_frame(&mut out, &payload);
        }
        payload.clear();
        encode_marker(&mut payload, partial);
        put_frame(&mut out, &payload);
        self.log.append(&out)
    }

    /// Whether an append failure has fail-stopped this handle.
    pub fn poisoned(&self) -> bool {
        self.log.poisoned()
    }

    /// Where the store lives.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::RunKind;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "apistudy-store-{}-{tag}.apsf",
            std::process::id()
        ))
    }

    fn fp() -> RunFingerprint {
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
                // A few interner ids turned back into APIs — deterministic
                // and within-universe by construction.
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

    fn assert_replay_matches(got: &ShardPartial, want: &ShardPartial) {
        assert_eq!(got.shard, want.shard);
        assert_eq!(got.start, want.start);
        assert_eq!(got.records, want.records);
        assert_eq!(got.attributions, want.attributions);
        assert_eq!(got.census, want.census);
        assert_eq!(got.unresolved_sites, want.unresolved_sites);
        assert_eq!(got.resolved_sites, want.resolved_sites);
        assert_eq!(
            got.diagnostics.analyzed_binaries,
            want.diagnostics.analyzed_binaries
        );
        assert!(got.replayed);
    }

    #[test]
    fn shard_roundtrip_is_bit_exact() {
        let path = tmp_path("roundtrip");
        let mut store = FootprintStore::create(&path, &fp()).expect("create");
        let a = sample_partial(0, 0, 3);
        let b = sample_partial(1, 3, 2);
        store.append_shard(&a).expect("append a");
        store.append_shard(&b).expect("append b");
        drop(store);
        let (_, partials) =
            FootprintStore::resume(&path, &fp()).expect("resume");
        assert_eq!(partials.len(), 2);
        assert_replay_matches(&partials[&0], &a);
        assert_replay_matches(&partials[&1], &b);
        // Probabilities round-trip by bit pattern.
        for (got, want) in partials[&0].records.iter().zip(&a.records) {
            assert_eq!(got.prob.to_bits(), want.prob.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_loses_only_the_last_shard() {
        let path = tmp_path("torn");
        let mut store = FootprintStore::create(&path, &fp()).expect("create");
        let a = sample_partial(0, 0, 3);
        let b = sample_partial(1, 3, 2);
        store.append_shard(&a).expect("append a");
        store.append_shard(&b).expect("append b");
        drop(store);
        let full = std::fs::read(&path).unwrap();
        // Tear into the second shard's marker: shard 0 must survive,
        // shard 1 must vanish whole (its package records are discarded
        // along with the torn marker), and the file must be truncated so
        // a re-append continues cleanly.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (mut store, partials) =
            FootprintStore::resume(&path, &fp()).expect("resume");
        assert_eq!(partials.len(), 1, "only the committed shard survives");
        assert_replay_matches(&partials[&0], &a);
        store.append_shard(&b).expect("append after truncate");
        drop(store);
        let (_, partials) =
            FootprintStore::resume(&path, &fp()).expect("resume again");
        assert_eq!(partials.len(), 2);
        assert_replay_matches(&partials[&1], &b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_recovery_is_a_prefix_never_a_guess() {
        // The journal's damage sweep, over a three-shard store: a cut at
        // every offset and every single-bit flip.
        let path = tmp_path("sweep");
        let shards = [
            sample_partial(0, 0, 2),
            sample_partial(1, 2, 1),
            sample_partial(2, 3, 2),
        ];
        drop(FootprintStore::create(&path, &fp()).expect("create"));
        let header_len = std::fs::metadata(&path).unwrap().len() as usize;
        let mut store = FootprintStore::create(&path, &fp()).expect("create");
        // Where each shard's marker ends.
        let mut ends = Vec::new();
        for shard in &shards {
            store.append_shard(shard).expect("append");
            ends.push(std::fs::metadata(&path).unwrap().len() as usize);
        }
        drop(store);
        let full = std::fs::read(&path).unwrap();

        // Damage at byte `at`: inside the header it is refused; anywhere
        // else exactly the shards whose marker ends at or before it
        // survive, and the file is truncated to the last of them.
        let check = |bytes: &[u8], at: usize, what: &str| {
            std::fs::write(&path, bytes).unwrap();
            match FootprintStore::resume(&path, &fp()) {
                Err(JournalError::Header(_)) if at < header_len => {}
                Ok((store, partials)) if at >= header_len => {
                    drop(store);
                    let kept = ends.iter().filter(|&&end| end <= at).count();
                    assert_eq!(partials.len(), kept, "{what} at {at}");
                    for shard in &shards[..kept] {
                        assert_replay_matches(&partials[&shard.shard], shard);
                    }
                    let valid_end =
                        if kept == 0 { header_len } else { ends[kept - 1] };
                    assert_eq!(
                        std::fs::metadata(&path).unwrap().len() as usize,
                        valid_end,
                        "{what} at {at}: truncated to the valid prefix"
                    );
                }
                Ok(_) => panic!("{what} at {at}: header damage accepted"),
                Err(e) => panic!("{what} at {at}: {e}"),
            }
        };
        for cut in 0..=full.len() {
            check(&full[..cut], cut, "cut");
        }
        for i in 0..full.len() {
            for bit in 0..8 {
                let mut bytes = full.clone();
                bytes[i] ^= 1 << bit;
                check(&bytes, i, "bit flip");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let path = tmp_path("fpmismatch");
        FootprintStore::create(&path, &fp()).expect("create");
        let other = RunFingerprint { plan: 0x1234, ..fp() };
        match FootprintStore::resume(&path, &other) {
            Err(JournalError::FingerprintMismatch { .. }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        match FootprintStore::resume_or_create(&path, &other) {
            Err(JournalError::FingerprintMismatch { .. }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_magic_is_not_a_store() {
        let path = tmp_path("crossmagic");
        let j = crate::journal::Journal::create(&path, &fp()).expect("create");
        drop(j);
        assert!(matches!(
            FootprintStore::resume(&path, &fp()),
            Err(JournalError::Header(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
