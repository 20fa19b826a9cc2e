//! The one framing layer under the journal, the footprint store, the
//! disk cache and the wire protocol.
//!
//! Every framed byte stream in this crate is a run of
//! `len u32 | content_hash u64 | payload` frames, little-endian, and this
//! module owns each decision about them exactly once:
//!
//! - [`put_frame`] writes one frame and [`scan`] reads one incrementally
//!   against a caller-chosen payload cap. An over-cap length fails as
//!   soon as its four bytes arrive, before any body is buffered; a
//!   checksum mismatch fails once the body is complete.
//! - A [`Log`] is an append-only file of frames behind a 25-byte
//!   fingerprinted header: magic, version, run kind, the folded
//!   [`RunFingerprint`], and a checksum over those. Creation commits the
//!   header with [`write_atomic`] (temp file, fsync, rename). Resume
//!   hands each checksum-valid frame to the caller's record codec and
//!   truncates the file to the end of the last frame the codec
//!   committed. An append is one write plus an fsync under the format's
//!   sysfault sites, and any failure poisons the handle (fail-stop).
//! - [`Cursor`] and the `put_*` writers are the bounds-checked byte codec
//!   every record format is built from.
//!
//! The journal and the footprint store are record codecs on a [`Log`];
//! the wire protocol frames with [`put_frame`] and [`scan`] under its
//! own cap. The disk cache keeps its own entry layout (a u64 length, and
//! the key outside the checksum so a damaged entry can be stepped over)
//! but builds it from the same cursor, writers and atomic write.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use apistudy_analysis::content_hash;

use crate::journal::{JournalError, RunFingerprint, RunKind};
use crate::proto::FrameError;

/// Frame header length: length prefix (4) plus content checksum (8).
pub(crate) const HEADER: usize = 12;
/// Log header layout: magic(4) version(4) kind(1) fingerprint(8)
/// check(8).
const LOG_HEADER: usize = 25;
/// Sanity bound on one log record's payload: far above any real record,
/// low enough that a corrupt length prefix cannot trigger a giant
/// allocation.
pub(crate) const MAX_RECORD: usize = 1 << 24;

/// Appends one frame to `out`: length prefix, checksum, payload.
pub(crate) fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(HEADER + payload.len());
    put_u32(out, payload.len() as u32);
    put_u64(out, content_hash(payload));
    out.extend_from_slice(payload);
}

/// Incremental frame scan: `Ok(None)` while `buf` holds only part of a
/// frame, `Ok(Some(total))` when `buf[..total]` is one whole valid frame
/// whose payload is `buf[HEADER..total]`. A length prefix over `cap`
/// fails [`FrameError::TooLarge`] and a checksum mismatch fails
/// [`FrameError::Checksum`], each the moment it is provable.
pub(crate) fn scan(
    buf: &[u8],
    cap: usize,
) -> Result<Option<usize>, FrameError> {
    let mut c = Cursor::new(buf);
    let Some(len) = c.u32() else { return Ok(None) };
    let len = len as usize;
    if len > cap {
        return Err(FrameError::TooLarge(len));
    }
    let (Some(check), Some(payload)) = (c.u64(), c.take(len)) else {
        return Ok(None);
    };
    if content_hash(payload) != check {
        return Err(FrameError::Checksum);
    }
    Ok(Some(HEADER + len))
}

/// Writes `bytes` to a temporary sibling of `path`, fsyncs it, and
/// renames it into place, so a crash leaves the old file or the new one,
/// never a torn mix.
pub(crate) fn write_atomic(
    path: &Path,
    bytes: &[u8],
) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)
}

/// What tells one log format from another.
#[derive(Debug)]
pub(crate) struct LogFormat {
    /// File magic.
    pub(crate) magic: &'static [u8; 4],
    /// On-disk version. Bump it on any layout change: a file of another
    /// version is then refused with a header error, never misread.
    pub(crate) version: u32,
    /// Sysfault site of an append's write.
    pub(crate) write_site: &'static str,
    /// Sysfault site of an append's fsync.
    pub(crate) fsync_site: &'static str,
}

impl LogFormat {
    fn header(&self, fp: &RunFingerprint) -> Vec<u8> {
        let mut buf = Vec::with_capacity(LOG_HEADER);
        buf.extend_from_slice(self.magic);
        put_u32(&mut buf, self.version);
        buf.push(fp.kind.tag());
        put_u64(&mut buf, fp.fold());
        let check = content_hash(&buf);
        put_u64(&mut buf, check);
        buf
    }

    /// Validates a log header: [`JournalError::Header`] for anything
    /// that is not a whole, intact header of this format and version,
    /// [`JournalError::FingerprintMismatch`] for another run's log.
    fn check_header(
        &self,
        bytes: &[u8],
        fp: &RunFingerprint,
    ) -> Result<(), JournalError> {
        let bad = |why: &str| JournalError::Header(why.into());
        let mut c = Cursor::new(bytes);
        let magic = c.take(4).ok_or_else(|| bad("file shorter than magic"))?;
        if magic != self.magic {
            return Err(bad("bad magic"));
        }
        let version = c.u32().ok_or_else(|| bad("truncated header"))?;
        if version != self.version {
            return Err(JournalError::Header(format!(
                "unsupported version {version} (this build reads {})",
                self.version
            )));
        }
        let (Some(kind), Some(found), Some(check)) =
            (c.u8(), c.u64(), c.u64())
        else {
            return Err(bad("truncated header"));
        };
        if content_hash(&bytes[..LOG_HEADER - 8]) != check {
            return Err(bad("header checksum mismatch"));
        }
        if RunKind::from_tag(kind).is_none() {
            return Err(JournalError::Header(format!(
                "unknown run kind {kind}"
            )));
        }
        let expected = fp.fold();
        if found != expected {
            return Err(JournalError::FingerprintMismatch { expected, found });
        }
        Ok(())
    }
}

/// A record codec's verdict on one checksum-valid frame during
/// [`Log::resume`].
pub(crate) enum Replay {
    /// The frame completes a unit of work: the valid prefix now ends
    /// after it.
    Commit,
    /// The frame is kept, but only a later `Commit` makes it part of the
    /// valid prefix.
    Pending,
    /// The frame is not a record this codec writes: the valid prefix
    /// ends before it, and it and everything after it are discarded.
    Stop,
}

/// An append-only log of frames behind a fingerprinted header.
#[derive(Debug)]
pub(crate) struct Log {
    file: File,
    path: PathBuf,
    format: &'static LogFormat,
    /// Set when an append fails; every later append returns
    /// [`JournalError::FailStop`]. After a failed write or fsync the
    /// bytes past the last good frame are unknowable (the "fsyncgate"
    /// lesson: retrying through the same handle can silently lose data
    /// the page cache already dropped), so recovery is reopening via
    /// [`Log::resume`].
    poisoned: bool,
}

impl Log {
    /// Creates a fresh log bound to `fp`, replacing any file at `path`.
    /// The header is committed with [`write_atomic`], so a crash during
    /// creation leaves either a complete log or none.
    pub(crate) fn create(
        path: &Path,
        format: &'static LogFormat,
        fp: &RunFingerprint,
    ) -> Result<Self, JournalError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        write_atomic(path, &format.header(fp))?;
        Self::open(path, format)
    }

    /// Opens an existing log for resumption. The header must match
    /// `format` and `fp`. Each checksum-valid frame's payload then goes
    /// to `replay`, in file order, until the frames run out or `replay`
    /// says [`Replay::Stop`]. The file is truncated to the end of the
    /// last committed frame, so a torn or damaged tail is discarded,
    /// never half-trusted, and appends continue from the valid prefix.
    pub(crate) fn resume(
        path: &Path,
        format: &'static LogFormat,
        fp: &RunFingerprint,
        mut replay: impl FnMut(&[u8]) -> Replay,
    ) -> Result<Self, JournalError> {
        let bytes = std::fs::read(path)?;
        format.check_header(&bytes, fp)?;
        let (mut at, mut valid_end) = (LOG_HEADER, LOG_HEADER);
        while let Ok(Some(total)) = scan(&bytes[at..], MAX_RECORD) {
            match replay(&bytes[at + HEADER..at + total]) {
                Replay::Commit => valid_end = at + total,
                Replay::Pending => {}
                Replay::Stop => break,
            }
            at += total;
        }
        let log = Self::open(path, format)?;
        if valid_end < bytes.len() {
            log.file.set_len(valid_end as u64)?;
            log.file.sync_all()?;
        }
        Ok(log)
    }

    fn open(
        path: &Path,
        format: &'static LogFormat,
    ) -> Result<Self, JournalError> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Self { file, path: path.to_owned(), format, poisoned: false })
    }

    /// Appends `frames` in one write and fsyncs before returning, through
    /// the fault-aware [`crate::sys::file_write_all`] and
    /// [`crate::sys::file_sync_data`] under the format's sysfault sites.
    /// A crash mid-append leaves a torn tail that resume discards. Any
    /// failure poisons the handle.
    pub(crate) fn append(
        &mut self,
        frames: &[u8],
    ) -> Result<(), JournalError> {
        if self.poisoned {
            return Err(JournalError::FailStop);
        }
        let format = self.format;
        if let Err(e) =
            crate::sys::file_write_all(&self.file, frames, format.write_site)
                .and_then(|()| {
                    crate::sys::file_sync_data(&self.file, format.fsync_site)
                })
        {
            self.poisoned = true;
            return Err(JournalError::Io(e));
        }
        Ok(())
    }

    /// Whether an append failure has fail-stopped this handle.
    pub(crate) fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Where the log lives.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

/// Bounds-checked little-endian reader over untrusted bytes: running out
/// is `None`, never a panic.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub(crate) fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    /// A `u32`-count-prefixed list of `item`s. A count over `cap` is
    /// refused before anything is allocated.
    pub(crate) fn list<T>(
        &mut self,
        cap: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let count = self.u32()? as usize;
        if count > cap {
            return None;
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(item(self)?);
        }
        Some(out)
    }

    /// A `u32`-count-prefixed list of `u32`s, capped like
    /// [`Cursor::list`].
    pub(crate) fn nr_list(&mut self, cap: usize) -> Option<Vec<u32>> {
        self.list(cap, Self::u32)
    }

    /// `value`, if every byte was consumed. Trailing bytes mean the
    /// payload is not what was written, so it is rejected whole.
    pub(crate) fn finish<T>(self, value: T) -> Option<T> {
        (self.at == self.bytes.len()).then_some(value)
    }
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A collection's length, as the `u32` count every list is prefixed with.
pub(crate) fn put_count(buf: &mut Vec<u8>, n: usize) {
    put_u32(buf, n as u32);
}

/// A `u32`-length-prefixed UTF-8 string (the inverse of
/// [`Cursor::string`]).
pub(crate) fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_count(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

/// A `u32`-count-prefixed list of `u32`s (the inverse of
/// [`Cursor::nr_list`]).
pub(crate) fn put_nr_list(buf: &mut Vec<u8>, nrs: &[u32]) {
    put_count(buf, nrs.len());
    for &nr in nrs {
        put_u32(buf, nr);
    }
}
