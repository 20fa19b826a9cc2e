//! Crash-safe sweeps: the write-ahead result journal.
//!
//! A corpus-scale campaign is measured in hours; a crash at binary
//! 60,000 must not mean starting over. [`Journal`] is an append-only,
//! checksummed log of *completed work units* — the baseline's fixed
//! support set, per-rate sweep points, greedy-planner picks — written
//! ahead of any use of their results, so a `kill -9` mid-sweep loses at
//! most the unit in flight. A resumed run replays the journaled units
//! (paying only the file-read cost) and recomputes the rest, and is
//! proven bit-identical to an uninterrupted run (f64 results round-trip
//! by bit pattern, never through text).
//!
//! The file is a log of the crate's one framing layer (`crate::frame`),
//! which owns the durability discipline; this module is the record codec
//! on top of it plus the journal's own rules:
//!
//! - the **header** — magic `APSJ`, version, and the run's
//!   [`RunFingerprint`] — is committed with a temp-file + atomic rename,
//!   so a journal either exists with a complete, checksummed header or
//!   not at all;
//! - **records** are frames (length prefix, 64-bit content checksum,
//!   payload), written and fsynced one per append; a torn or truncated
//!   tail (a crash mid-`write`) is recovered by keeping the longest
//!   prefix of records that verify and decode and truncating the rest —
//!   never a wrong record, never an aborted resume;
//! - the header's fingerprint binds the journal to one exact run:
//!   corpus identity, [`AnalysisOptions`](apistudy_analysis::AnalysisOptions)
//!   fingerprint, catalog version, and the plan being executed (fault
//!   seed + rate grid, or the greedy planner's support set and budget).
//!   Resuming under any other configuration is refused with
//!   [`JournalError::FingerprintMismatch`] instead of silently mixing
//!   incompatible results.
//!
//! The fail-point hook `APISTUDY_JOURNAL_CRASH_AFTER=<n>` aborts the
//! process immediately after the `n`-th successful append — the
//! crash-resume integration suite uses it to kill real subprocess sweeps
//! at every interesting boundary.

use std::path::Path;

use apistudy_analysis::content_hash;
use apistudy_catalog::Catalog;
use apistudy_corpus::SynthRepo;

use crate::cache::fold_hash;
use crate::degradation::DegradationPoint;
use crate::frame::{
    put_frame, put_nr_list, put_u32, put_u64, Cursor, Log, LogFormat,
    Replay, MAX_RECORD,
};

/// The journal's log format: magic, version, and the sysfault sites of
/// its appends.
const FORMAT: LogFormat = LogFormat {
    magic: b"APSJ",
    version: 1,
    write_site: "journal.write",
    fsync_site: "journal.fsync",
};

/// Which kind of run a journal belongs to. Folded into the fingerprint
/// so a sweep journal can never resume a greedy plan or vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// A corruption-degradation sweep
    /// ([`crate::degradation::corruption_sweep`]).
    CorruptionSweep,
    /// A greedy planning run
    /// ([`crate::planner::greedy_suggestions_journaled`]).
    GreedyPlan,
    /// A sharded streaming pipeline run backed by a
    /// [`FootprintStore`](crate::store::FootprintStore).
    ShardedPipeline,
    /// A fleet-scale seccomp synthesis run
    /// ([`crate::seccomp_fleet::synthesize_fleet_journaled`]).
    SeccompFleet,
}

impl RunKind {
    pub(crate) fn tag(self) -> u8 {
        match self {
            RunKind::CorruptionSweep => 1,
            RunKind::GreedyPlan => 2,
            RunKind::ShardedPipeline => 3,
            RunKind::SeccompFleet => 4,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            1 => RunKind::CorruptionSweep,
            2 => RunKind::GreedyPlan,
            3 => RunKind::ShardedPipeline,
            4 => RunKind::SeccompFleet,
            _ => return None,
        })
    }
}

/// The identity of one resumable run. Every field that could change a
/// single output bit must be captured here: a journal whose fingerprint
/// does not match the attempted resume is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFingerprint {
    /// What kind of run this is.
    pub kind: RunKind,
    /// Corpus identity (see [`corpus_fingerprint`]).
    pub corpus: u64,
    /// [`AnalysisOptions::fingerprint`](apistudy_analysis::AnalysisOptions::fingerprint).
    pub options: u64,
    /// Catalog version (see [`catalog_fingerprint`]).
    pub catalog: u64,
    /// The plan being executed: fault seed + rate grid for sweeps,
    /// support set + pick budget for greedy planning.
    pub plan: u64,
}

impl RunFingerprint {
    /// The folded 64-bit header value.
    pub(crate) fn fold(&self) -> u64 {
        let mut h = fold_hash(0, u64::from(self.kind.tag()));
        for word in [self.corpus, self.options, self.catalog, self.plan] {
            h = fold_hash(h, word);
        }
        h
    }
}

/// Fingerprints a synthetic corpus: the master seed, the scale, and every
/// package's name, materialization seed, and file counts. Anything that
/// changes a generated byte changes at least one of these.
pub fn corpus_fingerprint(repo: &SynthRepo) -> u64 {
    let plan = &repo.plan;
    let mut h = fold_hash(0, plan.seed);
    h = fold_hash(h, plan.scale.packages as u64);
    h = fold_hash(h, plan.scale.installations);
    h = fold_hash(h, plan.popcon.total_installations);
    for p in &plan.packages {
        h = fold_hash(h, content_hash(p.name.as_bytes()));
        h = fold_hash(h, p.seed);
        h = fold_hash(h, p.prob.to_bits());
        let counts = ((p.execs.len() as u64) << 42)
            | ((p.libs.len() as u64) << 21)
            | p.scripts.len() as u64;
        h = fold_hash(h, counts);
    }
    h
}

/// Fingerprints the API catalog the run measures against: the syscall
/// table's size and every `(number, name)` pair. A catalog revision moves
/// the fingerprint, so journals never survive one.
pub fn catalog_fingerprint(catalog: &Catalog) -> u64 {
    let mut h = fold_hash(0, catalog.syscalls.len() as u64);
    for d in catalog.syscalls.iter() {
        h = fold_hash(h, u64::from(d.number));
        h = fold_hash(h, content_hash(d.name.as_bytes()));
    }
    h
}

/// One journaled unit of completed work. All floating-point payloads are
/// stored as raw bit patterns — replay is bit-identical by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// The sweep baseline's fixed support set (top-N syscall numbers in
    /// importance-ranking order). Journaled once, right after the clean
    /// baseline completes; on resume it replaces the whole baseline
    /// pipeline run.
    SupportSet(Vec<u32>),
    /// One completed sweep point.
    SweepPoint(DegradationPoint),
    /// One committed greedy pick: syscall number, exact gain, and the
    /// cumulative completeness after the pick (both as f64 bits).
    GreedyPick {
        /// Picked syscall number.
        nr: u32,
        /// The pick's exact completeness gain, as bits.
        gain_bits: u64,
        /// Completeness after committing the pick, as bits.
        after_bits: u64,
    },
    /// One measured unique allow-set of a fleet seccomp synthesis run:
    /// the expensive part (exhaustive eval-depth profiling plus
    /// tree/linear equivalence verification) journaled per content hash,
    /// so a resumed fleet run replays measurements instead of redoing
    /// thousands of 4097-point interpreter probes. Program *construction*
    /// is cheap and always redone, which lets resume cross-check the
    /// journaled lengths against the rebuilt programs.
    FleetFilter {
        /// Content hash of the sorted allow-set (see
        /// [`crate::seccomp_fleet`]).
        allow_hash: u64,
        /// Instruction count of the binary-search tree program.
        tree_len: u32,
        /// Instruction count of the linear-chain program, or 0 when the
        /// linear layout failed its 8-bit jump offsets.
        linear_len: u32,
        /// Deepest tree evaluation over the probe range, in executed
        /// instructions.
        tree_max_depth: u32,
        /// Sum of executed tree instructions over all probes.
        tree_depth_total: u64,
        /// Deepest linear evaluation (0 when the linear layout failed).
        linear_max_depth: u32,
        /// Sum of executed linear instructions over all probes.
        linear_depth_total: u64,
    },
}

impl JournalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            JournalRecord::SupportSet(numbers) => {
                buf.push(1);
                put_nr_list(&mut buf, numbers);
            }
            JournalRecord::SweepPoint(p) => {
                buf.push(2);
                put_u64(&mut buf, p.rate.to_bits());
                for word in [
                    p.injected,
                    p.injected_fatal,
                    p.skipped_binaries,
                    p.deadline_skipped,
                    p.partial_packages,
                    p.quarantined_packages,
                ] {
                    put_u32(&mut buf, word);
                }
                put_u64(&mut buf, p.distinct_syscalls as u64);
                put_u64(&mut buf, p.completeness_top.to_bits());
            }
            JournalRecord::GreedyPick { nr, gain_bits, after_bits } => {
                buf.push(3);
                put_u32(&mut buf, *nr);
                put_u64(&mut buf, *gain_bits);
                put_u64(&mut buf, *after_bits);
            }
            JournalRecord::FleetFilter {
                allow_hash,
                tree_len,
                linear_len,
                tree_max_depth,
                tree_depth_total,
                linear_max_depth,
                linear_depth_total,
            } => {
                buf.push(4);
                put_u64(&mut buf, *allow_hash);
                for word in [*tree_len, *linear_len, *tree_max_depth] {
                    put_u32(&mut buf, word);
                }
                put_u64(&mut buf, *tree_depth_total);
                put_u32(&mut buf, *linear_max_depth);
                put_u64(&mut buf, *linear_depth_total);
            }
        }
        buf
    }

    fn decode(payload: &[u8]) -> Option<Self> {
        let mut c = Cursor::new(payload);
        let rec = match c.u8()? {
            1 => JournalRecord::SupportSet(c.nr_list(MAX_RECORD / 4)?),
            2 => {
                let rate = f64::from_bits(c.u64()?);
                let injected = c.u32()?;
                let injected_fatal = c.u32()?;
                let skipped_binaries = c.u32()?;
                let deadline_skipped = c.u32()?;
                let partial_packages = c.u32()?;
                let quarantined_packages = c.u32()?;
                let distinct_syscalls = c.u64()? as usize;
                let completeness_top = f64::from_bits(c.u64()?);
                JournalRecord::SweepPoint(DegradationPoint {
                    rate,
                    injected,
                    injected_fatal,
                    skipped_binaries,
                    deadline_skipped,
                    partial_packages,
                    quarantined_packages,
                    distinct_syscalls,
                    completeness_top,
                })
            }
            3 => JournalRecord::GreedyPick {
                nr: c.u32()?,
                gain_bits: c.u64()?,
                after_bits: c.u64()?,
            },
            4 => JournalRecord::FleetFilter {
                allow_hash: c.u64()?,
                tree_len: c.u32()?,
                linear_len: c.u32()?,
                tree_max_depth: c.u32()?,
                tree_depth_total: c.u64()?,
                linear_max_depth: c.u32()?,
                linear_depth_total: c.u64()?,
            },
            _ => return None,
        };
        c.finish(rec)
    }
}

/// Replay/append accounting for one journaled run, for footers and CI
/// gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records recovered from the journal and reused instead of being
    /// recomputed.
    pub replayed: u64,
    /// Records computed by this run and appended to the journal.
    pub appended: u64,
}

/// Why a journal could not be created, resumed, or trusted.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure (create, append, fsync, truncate).
    Io(std::io::Error),
    /// The file is not a journal this version can read: bad magic,
    /// unknown version, or a damaged/truncated header.
    Header(String),
    /// The journal belongs to a different run (corpus, options, catalog,
    /// or plan changed). Folded fingerprints are reported for diagnosis.
    FingerprintMismatch {
        /// The fingerprint of the run attempting to resume.
        expected: u64,
        /// The fingerprint the journal header carries.
        found: u64,
    },
    /// A recovered record contradicts the resuming run (wrong record
    /// kind for the phase, a sweep point for an unexpected rate, a
    /// replayed greedy gain that does not reproduce). Indicates a logic
    /// or fingerprint-coverage bug; never silently ignored.
    Diverged(String),
    /// A previous append on this handle failed (write or fsync), so the
    /// on-disk state past the last known-good record is unknowable —
    /// the "fsyncgate" lesson: after a failed fsync, retrying through
    /// the same handle can silently lose data the page cache already
    /// dropped. The handle refuses all further appends; recovery is
    /// reopening via resume, which truncates to the longest valid
    /// prefix.
    FailStop,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Header(why) => {
                write!(f, "not a resumable journal: {why}")
            }
            JournalError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal belongs to a different run \
                 (expected fingerprint {expected:#018x}, found {found:#018x})"
            ),
            JournalError::Diverged(why) => {
                write!(f, "journal diverged from the resuming run: {why}")
            }
            JournalError::FailStop => write!(
                f,
                "journal fail-stopped after an append failure; reopen \
                 with resume to recover the valid prefix"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The write-ahead journal: a header bound to one run, then checksummed
/// length-prefixed records appended as work units complete.
#[derive(Debug)]
pub struct Journal {
    log: Log,
    stats: JournalStats,
    /// Fail-point: abort the process after this many successful appends
    /// (from `APISTUDY_JOURNAL_CRASH_AFTER`; test harness only).
    crash_after: Option<u64>,
}

fn crash_after_from_env() -> Option<u64> {
    std::env::var("APISTUDY_JOURNAL_CRASH_AFTER")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
}

impl Journal {
    fn with_log(log: Log, replayed: u64) -> Self {
        Self {
            log,
            stats: JournalStats { replayed, appended: 0 },
            crash_after: crash_after_from_env(),
        }
    }

    /// Creates a fresh journal for the given run. The header is written
    /// to a temporary sibling, fsynced, and renamed into place, so a
    /// crash during creation leaves either a complete journal or none.
    /// An existing file at `path` is replaced.
    pub fn create(path: &Path, fp: &RunFingerprint) -> Result<Self, JournalError> {
        Ok(Self::with_log(Log::create(path, &FORMAT, fp)?, 0))
    }

    /// Opens an existing journal for resumption: verifies the header
    /// against `fp`, recovers the longest valid record prefix (a torn or
    /// truncated tail is discarded by truncating the file back to the
    /// last whole record), and returns the journal positioned for
    /// further appends plus the recovered records.
    pub fn resume(
        path: &Path,
        fp: &RunFingerprint,
    ) -> Result<(Self, Vec<JournalRecord>), JournalError> {
        let mut records = Vec::new();
        // Any record that verifies but does not decode ends the prefix
        // there; everything before it is intact by checksum and kept.
        let log = Log::resume(path, &FORMAT, fp, |payload| {
            match JournalRecord::decode(payload) {
                Some(rec) => {
                    records.push(rec);
                    Replay::Commit
                }
                None => Replay::Stop,
            }
        })?;
        let replayed = records.len() as u64;
        Ok((Self::with_log(log, replayed), records))
    }

    /// Resumes when `path` holds a compatible journal, otherwise creates
    /// a fresh one — the CLI's `--resume` semantics (a missing journal
    /// starts a new run rather than failing). Header and fingerprint
    /// *errors* still surface: silently overwriting a journal that
    /// belongs to a different run would destroy resumable work.
    pub fn resume_or_create(
        path: &Path,
        fp: &RunFingerprint,
    ) -> Result<(Self, Vec<JournalRecord>), JournalError> {
        if path.exists() {
            Journal::resume(path, fp)
        } else {
            Ok((Journal::create(path, fp)?, Vec::new()))
        }
    }

    /// Appends one completed work unit: length prefix, checksum, payload,
    /// written in a single `write_all` and fsynced before returning, so a
    /// record either survives a crash whole or is discarded as a torn
    /// tail on resume — never half-trusted.
    ///
    /// The write and fsync route through the fault-aware
    /// [`crate::sys::file_write_all`] / [`crate::sys::file_sync_data`]
    /// (callsites `journal.write` / `journal.fsync`). Any failure
    /// poisons the handle: the bytes on disk past the last good record
    /// are unknowable (a torn write, or an fsync whose dirty pages the
    /// kernel dropped), so further appends fail stop with
    /// [`JournalError::FailStop`] and recovery is a fresh
    /// [`Journal::resume`], which truncates back to the longest valid
    /// prefix.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), JournalError> {
        let mut frame = Vec::new();
        put_frame(&mut frame, &rec.encode());
        self.log.append(&frame)?;
        self.stats.appended += 1;
        if let Some(n) = self.crash_after {
            if self.stats.appended >= n {
                eprintln!(
                    "APISTUDY_JOURNAL_CRASH_AFTER: aborting after {} appends",
                    self.stats.appended
                );
                std::process::abort();
            }
        }
        Ok(())
    }

    /// Replay/append counts so far.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Whether an append failure has fail-stopped this handle.
    pub fn poisoned(&self) -> bool {
        self.log.poisoned()
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "apistudy-journal-{}-{tag}.apsj",
            std::process::id()
        ))
    }

    fn fp() -> RunFingerprint {
        RunFingerprint {
            kind: RunKind::CorruptionSweep,
            corpus: 0x1111,
            options: 0x2222,
            catalog: 0x3333,
            plan: 0x4444,
        }
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::SupportSet(vec![0, 1, 60, 231]),
            JournalRecord::SweepPoint(DegradationPoint {
                rate: 0.03,
                injected: 7,
                injected_fatal: 4,
                skipped_binaries: 4,
                deadline_skipped: 0,
                partial_packages: 5,
                quarantined_packages: 0,
                distinct_syscalls: 241,
                completeness_top: 0.987654321,
            }),
            JournalRecord::GreedyPick {
                nr: 17,
                gain_bits: 0.25f64.to_bits(),
                after_bits: 0.75f64.to_bits(),
            },
            JournalRecord::FleetFilter {
                allow_hash: 0xDEAD_BEEF_0123_4567,
                tree_len: 211,
                linear_len: 0,
                tree_max_depth: 19,
                tree_depth_total: 61_455,
                linear_max_depth: 0,
                linear_depth_total: 0,
            },
        ]
    }

    #[test]
    fn roundtrip_create_append_resume() {
        let path = tmp_path("roundtrip");
        let mut j = Journal::create(&path, &fp()).expect("create");
        for rec in sample_records() {
            j.append(&rec).expect("append");
        }
        assert_eq!(j.stats(), JournalStats { replayed: 0, appended: 4 });
        drop(j);
        let (j2, records) = Journal::resume(&path, &fp()).expect("resume");
        assert_eq!(records, sample_records());
        assert_eq!(j2.stats(), JournalStats { replayed: 4, appended: 0 });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_appends_continue_the_log() {
        let path = tmp_path("continue");
        let mut j = Journal::create(&path, &fp()).expect("create");
        j.append(&sample_records()[0]).expect("append");
        drop(j);
        let (mut j2, _) = Journal::resume(&path, &fp()).expect("resume");
        j2.append(&sample_records()[1]).expect("append");
        drop(j2);
        let (_, records) = Journal::resume(&path, &fp()).expect("resume");
        assert_eq!(records, sample_records()[..2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let path = tmp_path("fpmismatch");
        Journal::create(&path, &fp()).expect("create");
        let other = RunFingerprint { plan: 0x9999, ..fp() };
        match Journal::resume(&path, &other) {
            Err(JournalError::FingerprintMismatch { .. }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        // resume_or_create must surface the mismatch too, not overwrite.
        match Journal::resume_or_create(&path, &other) {
            Err(JournalError::FingerprintMismatch { .. }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_recovers_the_valid_prefix() {
        let path = tmp_path("torn");
        let mut j = Journal::create(&path, &fp()).expect("create");
        for rec in sample_records() {
            j.append(&rec).expect("append");
        }
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Tear the last record in half: the first two must survive, the
        // torn one must vanish, and the file must be truncated back so a
        // subsequent append continues from the valid prefix.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (mut j2, records) = Journal::resume(&path, &fp()).expect("resume");
        assert_eq!(records, sample_records()[..3]);
        j2.append(&sample_records()[3]).expect("append after truncate");
        drop(j2);
        let (_, records) = Journal::resume(&path, &fp()).expect("resume");
        assert_eq!(records, sample_records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_damage_is_an_error_not_a_guess() {
        let path = tmp_path("header");
        Journal::create(&path, &fp()).expect("create");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[1] ^= 0xFF; // inside the magic
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::resume(&path, &fp()),
            Err(JournalError::Header(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_point_f64s_roundtrip_bit_exactly() {
        // Deliberately awkward bit patterns: subnormal, negative zero,
        // and a value with no short decimal form.
        for bits in [1u64, (-0.0f64).to_bits(), 0x3FF5_5555_5555_5555] {
            let p = DegradationPoint {
                rate: f64::from_bits(bits),
                injected: 1,
                injected_fatal: 0,
                skipped_binaries: 0,
                deadline_skipped: 0,
                partial_packages: 0,
                quarantined_packages: 0,
                distinct_syscalls: 0,
                completeness_top: f64::from_bits(bits),
            };
            let rec = JournalRecord::SweepPoint(p);
            let decoded = JournalRecord::decode(&rec.encode()).expect("decodes");
            let JournalRecord::SweepPoint(q) = decoded else { unreachable!() };
            assert_eq!(q.rate.to_bits(), bits);
            assert_eq!(q.completeness_top.to_bits(), bits);
        }
    }
}
