//! The query daemon's wire protocol: length-prefixed, checksummed frames.
//!
//! Every byte off the wire is untrusted. Frames come from the crate's one
//! framing layer (`crate::frame`), the same one under the journal and the
//! footprint store — a `u32` length prefix, a 64-bit content checksum,
//! then the payload — capped at [`MAX_FRAME`] in both directions. A
//! reader refuses an over-cap length prefix *before* any allocation, so a
//! corrupt or hostile prefix costs at most [`MAX_FRAME`] bytes; the
//! daemon never sends one, answering with an [`ErrorCode::TooLarge`]
//! error instead of an over-cap reply. A checksum mismatch or
//! undecodable payload is a classified [`FrameError`] /
//! [`ErrorCode::BadRequest`], never a panic. No serde.
//!
//! Decoding is total: [`Request::decode`] and [`Response::decode`] accept
//! arbitrary byte strings and return `None` for anything that is not the
//! canonical encoding of exactly one message (trailing bytes included).
//! The chaos suite drives millions of fuzzed payloads through them and
//! through a live daemon to hold that line.
//!
//! The daemon's reactor feeds nonblocking reads to [`scan_frame`]. The
//! client's blocking read, [`read_frame_by`], runs under one absolute
//! per-request deadline: a server that accepts a request but stalls
//! mid-reply is cut at exactly that deadline, never at a stack of idle
//! and request budgets.

use std::io::Read as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::frame::{self, put_nr_list, put_u32, put_u64, Cursor};

/// Hard cap on one frame's payload. Requests and replies are small
/// (syscall-number lists and f64 bit patterns); anything larger is either
/// corruption or an attack, and is rejected before allocation.
pub const MAX_FRAME: usize = 1 << 16;
/// Hard cap on a supported-set list in one request (the syscall catalog
/// is ~550 entries; 4096 leaves headroom without inviting abuse).
pub const MAX_SET: usize = 4096;
/// Hard cap on the pick budget of one `Suggest` request.
pub const MAX_PICKS: usize = 256;
/// Hard cap on sub-requests in one [`Request::Batch`] frame (and on the
/// replies in its [`Response::Batch`] mirror).
pub const MAX_BATCH: usize = 64;
/// Hard cap on an error reply's detail string, in bytes.
pub const MAX_ERR_MSG: usize = 200;
/// Frame header length: length prefix (4) plus content checksum (8).
pub const FRAME_HEADER: usize = frame::HEADER;

/// How a frame read ended short of a whole valid frame.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The peer closed mid-frame: a truncated frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`]. The stream is no longer
    /// framed; the connection must be closed.
    TooLarge(usize),
    /// The payload's checksum does not match its header. The stream may
    /// be corrupt or hostile; the connection must be closed.
    Checksum,
    /// The deadline expired before the frame's first byte arrived.
    Idle,
    /// The deadline expired mid-frame (slowloris or stall).
    Deadline,
    /// Any other socket failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
            FrameError::Idle => write!(f, "idle deadline expired"),
            FrameError::Deadline => write!(f, "request deadline expired"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl FrameError {
    /// Whether this failure lives in the **transport**, so a reconnect
    /// (with backoff) may genuinely succeed: the peer vanished
    /// (`Closed`/`Truncated`), the socket failed (`Io` — `EINTR`,
    /// `EAGAIN`, `ECONNRESET` mid-handshake), or it simply never
    /// answered in budget (`Idle`/`Deadline`). The remaining cases —
    /// `Checksum`,
    /// `TooLarge` — mean the *content* is wrong: the same bytes will be
    /// wrong on every retry, so retrying a malformed reply only burns
    /// the backoff budget and masks corruption.
    pub fn is_transport(&self) -> bool {
        match self {
            FrameError::Closed
            | FrameError::Truncated
            | FrameError::Io(_)
            | FrameError::Idle
            | FrameError::Deadline => true,
            FrameError::Checksum | FrameError::TooLarge(_) => false,
        }
    }
}

impl std::error::Error for FrameError {}

/// Classified request-level failures, carried in [`Response::Err`]
/// replies so clients can tell overload from corruption from misuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame itself was damaged (checksum mismatch or truncation);
    /// the stream is desynchronized and the connection will close.
    BadFrame,
    /// A frame exceeded [`MAX_FRAME`]. For a request's length prefix
    /// the connection will close. For a reply the server would have had
    /// to send over the cap (say a `Batch` of large `Suggest` plans), the
    /// request was served but its answer is replaced by this error,
    /// which names the reply's size; the connection stays open.
    TooLarge,
    /// The frame arrived intact but its payload is not a valid request.
    BadRequest,
    /// A referenced API is not in the catalog.
    UnknownApi,
    /// Admission control rejected the connection or request; retry with
    /// backoff.
    Busy,
    /// The request exceeded its processing deadline.
    Deadline,
    /// The server is draining and will not take new work.
    Draining,
    /// A server-side failure that is not the client's fault.
    Internal,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::UnknownApi => 2,
            ErrorCode::Busy => 3,
            ErrorCode::Deadline => 4,
            ErrorCode::Draining => 5,
            ErrorCode::Internal => 6,
            ErrorCode::BadFrame => 7,
            ErrorCode::TooLarge => 8,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::UnknownApi,
            3 => ErrorCode::Busy,
            4 => ErrorCode::Deadline,
            5 => ErrorCode::Draining,
            6 => ErrorCode::Internal,
            7 => ErrorCode::BadFrame,
            8 => ErrorCode::TooLarge,
            _ => return None,
        })
    }

    /// Short stable label for logs and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownApi => "unknown-api",
            ErrorCode::Busy => "busy",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::TooLarge => "too-large",
        }
    }
}

/// One client request. Syscalls cross the wire as catalog numbers (stable
/// across processes), never interner ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness / snapshot-identity probe.
    Ping,
    /// Importance of one syscall number.
    Importance {
        /// Syscall number.
        nr: u32,
    },
    /// Weighted completeness of a supported syscall set (the
    /// masked fast path).
    Completeness {
        /// Supported syscall numbers.
        supported: Vec<u32>,
    },
    /// Greedy next-pick plan from a supported set.
    Suggest {
        /// Supported syscall numbers.
        supported: Vec<u32>,
        /// Maximum picks to return (capped at [`MAX_PICKS`]).
        limit: u32,
    },
    /// Open (or reset) this connection's incremental completeness
    /// session over the given supported set.
    SessionOpen {
        /// Supported syscall numbers.
        supported: Vec<u32>,
    },
    /// Mark a syscall supported in the connection's session.
    SessionAdd {
        /// Syscall number.
        nr: u32,
    },
    /// Mark a syscall unsupported in the connection's session.
    SessionRemove {
        /// Syscall number.
        nr: u32,
    },
    /// Probe the marginal gain of a syscall without changing the session.
    SessionProbe {
        /// Syscall number.
        nr: u32,
    },
    /// Re-run the analysis and atomically swap the snapshot. The expected
    /// fingerprint must match the live snapshot (compare-and-swap
    /// semantics), so racing or stale reload intents fail cleanly.
    Reload {
        /// The fingerprint the client believes is live.
        expect_fingerprint: u64,
    },
    /// Graceful drain: finish in-flight requests, stop accepting, exit.
    Shutdown,
    /// A pipelined bundle of 1..=[`MAX_BATCH`] sub-requests, answered in
    /// order by one [`Response::Batch`]. Sub-requests may be anything
    /// except another `Batch` (nesting depth is exactly one), and the
    /// whole bundle still fits one [`MAX_FRAME`]-bounded frame — batching
    /// amortizes syscall and framing cost, it does not raise any cap.
    Batch(
        /// The sub-requests, answered in this order.
        Vec<Request>,
    ),
}

impl Request {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Ping => buf.push(1),
            Request::Importance { nr } => {
                buf.push(2);
                put_u32(buf, *nr);
            }
            Request::Completeness { supported } => {
                buf.push(3);
                put_nr_list(buf, supported);
            }
            Request::Suggest { supported, limit } => {
                buf.push(4);
                put_nr_list(buf, supported);
                put_u32(buf, *limit);
            }
            Request::SessionOpen { supported } => {
                buf.push(5);
                put_nr_list(buf, supported);
            }
            Request::SessionAdd { nr } => {
                buf.push(6);
                put_u32(buf, *nr);
            }
            Request::SessionRemove { nr } => {
                buf.push(7);
                put_u32(buf, *nr);
            }
            Request::SessionProbe { nr } => {
                buf.push(8);
                put_u32(buf, *nr);
            }
            Request::Reload { expect_fingerprint } => {
                buf.push(9);
                put_u64(buf, *expect_fingerprint);
            }
            Request::Shutdown => buf.push(10),
            Request::Batch(subs) => {
                buf.push(11);
                put_u32(buf, subs.len() as u32);
                // Sub-requests are self-delimiting, so they concatenate
                // without per-item length prefixes; a nested Batch would
                // encode (and then fail to decode), which Batch's own
                // decoder forbids — callers must not nest.
                for sub in subs {
                    sub.encode_into(buf);
                }
            }
        }
    }

    /// Canonical encoding (the exact byte string [`Request::decode`]
    /// accepts).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Decodes exactly one request from the cursor's current position
    /// (sub-requests are self-delimiting). `allow_batch` is false inside
    /// a batch: nesting depth is exactly one.
    fn decode_inner(c: &mut Cursor<'_>, allow_batch: bool) -> Option<Self> {
        Some(match c.u8()? {
            1 => Request::Ping,
            2 => Request::Importance { nr: c.u32()? },
            3 => Request::Completeness { supported: c.nr_list(MAX_SET)? },
            4 => Request::Suggest {
                supported: c.nr_list(MAX_SET)?,
                limit: c.u32()?,
            },
            5 => Request::SessionOpen { supported: c.nr_list(MAX_SET)? },
            6 => Request::SessionAdd { nr: c.u32()? },
            7 => Request::SessionRemove { nr: c.u32()? },
            8 => Request::SessionProbe { nr: c.u32()? },
            9 => Request::Reload { expect_fingerprint: c.u64()? },
            10 => Request::Shutdown,
            11 if allow_batch => {
                let subs =
                    c.list(MAX_BATCH, |c| Request::decode_inner(c, false))?;
                if subs.is_empty() {
                    return None;
                }
                Request::Batch(subs)
            }
            _ => return None,
        })
    }

    /// Total decoder over untrusted bytes: returns `None` unless `payload`
    /// is the canonical encoding of exactly one request, with every list
    /// under its hard cap.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut c = Cursor::new(payload);
        let req = Request::decode_inner(&mut c, true)?;
        c.finish(req)
    }
}

/// One server reply. All floating-point results cross the wire as raw
/// `f64` bit patterns, so daemon answers are bit-identical to direct
/// library calls by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong {
        /// The live snapshot's fingerprint (corpus ⊕ options ⊕ catalog).
        fingerprint: u64,
        /// Monotonic snapshot generation (bumps on every swap).
        generation: u64,
        /// Packages in the snapshot.
        packages: u32,
    },
    /// Reply to [`Request::Importance`].
    Importance {
        /// `Metrics::importance` as bits.
        importance_bits: u64,
        /// `Metrics::unweighted_importance` as bits.
        unweighted_bits: u64,
    },
    /// Reply to [`Request::Completeness`].
    Completeness {
        /// `Metrics::syscall_completeness` as bits.
        bits: u64,
    },
    /// Reply to [`Request::Suggest`].
    Suggest {
        /// `(syscall number, exact gain bits)` in pick order.
        picks: Vec<(u32, u64)>,
    },
    /// Reply to every session request: the operation's exact delta and
    /// the session completeness after it, both as bits.
    Session {
        /// The operation's completeness delta (or probe gain) as bits.
        delta_bits: u64,
        /// Session completeness after the operation, as bits.
        completeness_bits: u64,
    },
    /// Reply to a successful [`Request::Reload`].
    Reload {
        /// The new snapshot's fingerprint.
        fingerprint: u64,
        /// The new snapshot generation.
        generation: u64,
    },
    /// Shutdown acknowledged; the server is draining.
    Bye,
    /// A classified failure.
    Err {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail (capped at [`MAX_ERR_MSG`] bytes).
        msg: String,
    },
    /// The ordered replies to a [`Request::Batch`], one per sub-request
    /// (a failed sub-request gets an [`Response::Err`] in its slot; the
    /// rest of the batch still completes).
    Batch(
        /// Per-sub-request replies, in request order.
        Vec<Response>,
    ),
}

impl Response {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Pong { fingerprint, generation, packages } => {
                buf.push(1);
                put_u64(buf, *fingerprint);
                put_u64(buf, *generation);
                put_u32(buf, *packages);
            }
            Response::Importance { importance_bits, unweighted_bits } => {
                buf.push(2);
                put_u64(buf, *importance_bits);
                put_u64(buf, *unweighted_bits);
            }
            Response::Completeness { bits } => {
                buf.push(3);
                put_u64(buf, *bits);
            }
            Response::Suggest { picks } => {
                buf.push(4);
                put_u32(buf, picks.len() as u32);
                for &(nr, gain_bits) in picks {
                    put_u32(buf, nr);
                    put_u64(buf, gain_bits);
                }
            }
            Response::Session { delta_bits, completeness_bits } => {
                buf.push(5);
                put_u64(buf, *delta_bits);
                put_u64(buf, *completeness_bits);
            }
            Response::Reload { fingerprint, generation } => {
                buf.push(6);
                put_u64(buf, *fingerprint);
                put_u64(buf, *generation);
            }
            Response::Bye => buf.push(7),
            Response::Err { code, msg } => {
                buf.push(8);
                buf.push(code.tag());
                let mut cut = msg.len().min(MAX_ERR_MSG);
                while !msg.is_char_boundary(cut) {
                    cut -= 1;
                }
                let bytes = &msg.as_bytes()[..cut];
                put_u32(buf, bytes.len() as u32);
                buf.extend_from_slice(bytes);
            }
            Response::Batch(subs) => {
                buf.push(9);
                put_u32(buf, subs.len() as u32);
                for sub in subs {
                    sub.encode_into(buf);
                }
            }
        }
    }

    /// Canonical encoding (the exact byte string [`Response::decode`]
    /// accepts). Error details longer than [`MAX_ERR_MSG`] bytes are
    /// truncated at a character boundary.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Decodes exactly one reply from the cursor's current position.
    /// `allow_batch` is false inside a batch (nesting depth one, mirroring
    /// the request side).
    fn decode_inner(c: &mut Cursor<'_>, allow_batch: bool) -> Option<Self> {
        Some(match c.u8()? {
            1 => Response::Pong {
                fingerprint: c.u64()?,
                generation: c.u64()?,
                packages: c.u32()?,
            },
            2 => Response::Importance {
                importance_bits: c.u64()?,
                unweighted_bits: c.u64()?,
            },
            3 => Response::Completeness { bits: c.u64()? },
            4 => Response::Suggest {
                picks: c.list(MAX_PICKS, |c| Some((c.u32()?, c.u64()?)))?,
            },
            5 => Response::Session {
                delta_bits: c.u64()?,
                completeness_bits: c.u64()?,
            },
            6 => Response::Reload {
                fingerprint: c.u64()?,
                generation: c.u64()?,
            },
            7 => Response::Bye,
            8 => {
                let code = ErrorCode::from_tag(c.u8()?)?;
                let len = c.u32()? as usize;
                if len > MAX_ERR_MSG {
                    return None;
                }
                let raw = c.take(len)?;
                let msg = std::str::from_utf8(raw).ok()?.to_owned();
                Response::Err { code, msg }
            }
            9 if allow_batch => {
                let subs =
                    c.list(MAX_BATCH, |c| Response::decode_inner(c, false))?;
                if subs.is_empty() {
                    return None;
                }
                Response::Batch(subs)
            }
            _ => return None,
        })
    }

    /// Total decoder over untrusted bytes (the client's guard against a
    /// corrupt or impostor server): `None` unless `payload` is the
    /// canonical encoding of exactly one reply.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut c = Cursor::new(payload);
        let resp = Response::decode_inner(&mut c, true)?;
        c.finish(resp)
    }

    /// Convenience constructor for error replies.
    pub fn err(code: ErrorCode, msg: impl Into<String>) -> Self {
        Response::Err { code, msg: msg.into() }
    }
}

/// Frames one payload for the wire: length prefix, checksum, bytes.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame::put_frame(&mut out, payload);
    out
}

/// Incremental frame scan over a reactor's accumulation buffer.
///
/// Returns `Ok(None)` while the buffer holds only a partial frame (read
/// more), `Ok(Some(total))` when `buf[..total]` is one whole valid frame
/// whose payload is `buf[FRAME_HEADER..total]`, and classifies damage the
/// moment it is provable: an over-cap length prefix fails
/// [`FrameError::TooLarge`] before the body arrives (no attacker-sized
/// buffering), a checksum mismatch fails [`FrameError::Checksum`] once
/// the body is complete.
pub fn scan_frame(buf: &[u8]) -> Result<Option<usize>, FrameError> {
    frame::scan(buf, MAX_FRAME)
}

/// Reads exactly `buf.len()` bytes by the absolute `deadline`. On a
/// frame's first read (`at_boundary`), silence is [`FrameError::Idle`]
/// and EOF a clean [`FrameError::Closed`]; anywhere later they are
/// [`FrameError::Deadline`] and [`FrameError::Truncated`].
fn read_exact_by(
    stream: &TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    at_boundary: bool,
) -> Result<(), FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let (expired, eof) = if at_boundary && filled == 0 {
            (FrameError::Idle, FrameError::Closed)
        } else {
            (FrameError::Deadline, FrameError::Truncated)
        };
        let now = Instant::now();
        if now >= deadline {
            return Err(expired);
        }
        let wait = (deadline - now).max(Duration::from_millis(1));
        stream.set_read_timeout(Some(wait)).map_err(FrameError::Io)?;
        match (&*stream).read(&mut buf[filled..]) {
            Ok(0) => return Err(eof),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one whole frame under a single **absolute** deadline, returning
/// its validated payload. Nothing re-arms when the first byte lands: the
/// whole frame must arrive by `deadline_at`. This is the client's
/// per-request budget — a server that accepts the request but stalls
/// mid-reply is cut at exactly one deadline. An over-cap length prefix
/// fails [`FrameError::TooLarge`] before any of the body is read.
pub fn read_frame_by(
    stream: &TcpStream,
    deadline_at: Instant,
) -> Result<Vec<u8>, FrameError> {
    let mut frame = vec![0u8; FRAME_HEADER];
    read_exact_by(stream, &mut frame, deadline_at, true)?;
    // The header alone proves an over-cap length: refuse it before
    // allocating for or reading the body.
    scan_frame(&frame)?;
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
    frame.resize(FRAME_HEADER + len as usize, 0);
    read_exact_by(stream, &mut frame[FRAME_HEADER..], deadline_at, false)?;
    scan_frame(&frame)?;
    Ok(frame.split_off(FRAME_HEADER))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Importance { nr: 0 },
            Request::Importance { nr: u32::MAX },
            Request::Completeness { supported: vec![] },
            Request::Completeness { supported: vec![0, 1, 60, 231] },
            Request::Suggest { supported: vec![0, 1], limit: 10 },
            Request::SessionOpen { supported: vec![2, 3, 5, 7] },
            Request::SessionAdd { nr: 17 },
            Request::SessionRemove { nr: 17 },
            Request::SessionProbe { nr: 202 },
            Request::Reload { expect_fingerprint: 0xDEAD_BEEF_1234_5678 },
            Request::Shutdown,
            Request::Batch(vec![Request::Ping]),
            Request::Batch(vec![
                Request::Importance { nr: 0 },
                Request::Completeness { supported: vec![0, 1, 60] },
                Request::Suggest { supported: vec![], limit: 3 },
                Request::Ping,
            ]),
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong { fingerprint: 1, generation: 2, packages: 150 },
            Response::Importance {
                importance_bits: 1.0f64.to_bits(),
                unweighted_bits: 0.25f64.to_bits(),
            },
            Response::Completeness { bits: (-0.0f64).to_bits() },
            Response::Suggest {
                picks: vec![(0, 0.5f64.to_bits()), (231, 1u64)],
            },
            Response::Session {
                delta_bits: 0x3FF5_5555_5555_5555,
                completeness_bits: 0,
            },
            Response::Reload { fingerprint: 9, generation: 3 },
            Response::Bye,
            Response::err(ErrorCode::Busy, "at capacity"),
            Response::err(ErrorCode::BadRequest, ""),
            Response::err(ErrorCode::BadFrame, "checksum mismatch"),
            Response::err(ErrorCode::TooLarge, "frame over cap"),
            Response::Batch(vec![Response::Bye]),
            Response::Batch(vec![
                Response::Completeness { bits: 7 },
                Response::err(ErrorCode::UnknownApi, "nr 9999"),
                Response::Pong { fingerprint: 3, generation: 1, packages: 2 },
            ]),
        ]
    }

    #[test]
    fn requests_roundtrip_canonically() {
        for req in sample_requests() {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes), Some(req.clone()));
            // Any strict prefix or extension must be rejected whole.
            for cut in 0..bytes.len() {
                assert_eq!(Request::decode(&bytes[..cut]), None, "prefix {cut}");
            }
            let mut extended = bytes.clone();
            extended.push(0);
            assert_eq!(Request::decode(&extended), None, "trailing byte");
        }
    }

    #[test]
    fn responses_roundtrip_canonically() {
        for resp in sample_responses() {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes), Some(resp.clone()));
            for cut in 0..bytes.len() {
                assert_eq!(Response::decode(&bytes[..cut]), None, "prefix {cut}");
            }
            let mut extended = bytes.clone();
            extended.push(0);
            assert_eq!(Response::decode(&extended), None, "trailing byte");
        }
    }

    #[test]
    fn batch_nesting_and_cardinality_are_rejected() {
        // Empty batch: meaningless, rejected.
        assert_eq!(Request::decode(&Request::Batch(vec![]).encode()), None);
        assert_eq!(Response::decode(&Response::Batch(vec![]).encode()), None);
        // Over-cap batch: MAX_BATCH + 1 pings.
        let big = Request::Batch(vec![Request::Ping; MAX_BATCH + 1]);
        assert_eq!(Request::decode(&big.encode()), None);
        // Nested batch: depth two encodes but must not decode.
        let nested = Request::Batch(vec![
            Request::Ping,
            Request::Batch(vec![Request::Ping]),
        ]);
        assert_eq!(Request::decode(&nested.encode()), None);
        let nested = Response::Batch(vec![Response::Batch(vec![Response::Bye])]);
        assert_eq!(Response::decode(&nested.encode()), None);
        // A full-size batch of scalar requests is fine.
        let full = Request::Batch(vec![Request::Importance { nr: 1 }; MAX_BATCH]);
        assert_eq!(Request::decode(&full.encode()), Some(full));
    }

    #[test]
    fn scan_frame_is_incremental_and_classifies_damage_early() {
        let payload = Request::Batch(vec![Request::Ping, Request::Shutdown])
            .encode();
        let frame = encode_frame(&payload);
        // Every strict prefix: incomplete, never an error.
        for cut in 0..frame.len() {
            match scan_frame(&frame[..cut]) {
                Ok(None) => {}
                other => panic!("prefix {cut} gave {other:?}"),
            }
        }
        // The whole frame (with unrelated trailing bytes of a next frame):
        // exactly this frame's extent.
        let mut two = frame.clone();
        two.extend_from_slice(&encode_frame(&Request::Ping.encode()));
        assert_eq!(scan_frame(&two).unwrap(), Some(frame.len()));
        assert_eq!(
            &two[FRAME_HEADER..frame.len()],
            &payload[..],
            "payload extent"
        );
        // An over-cap length prefix fails as soon as 4 bytes exist, long
        // before any body arrives.
        let mut huge = ((MAX_FRAME as u32) + 1).to_le_bytes().to_vec();
        assert!(matches!(scan_frame(&huge), Err(FrameError::TooLarge(_))));
        huge.extend_from_slice(&[0; 16]);
        assert!(matches!(scan_frame(&huge), Err(FrameError::TooLarge(_))));
        // A corrupted body fails Checksum once complete.
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x20;
        assert!(matches!(scan_frame(&bad), Err(FrameError::Checksum)));
    }

    #[test]
    fn oversized_lists_are_rejected_before_allocation() {
        // A Completeness request claiming u32::MAX entries: the count is
        // validated against MAX_SET before any Vec::with_capacity.
        let mut bytes = vec![3u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&bytes), None);
        // Same for the Suggest picks cap on the reply side.
        let mut bytes = vec![4u8];
        bytes.extend_from_slice(&((MAX_PICKS as u32) + 1).to_le_bytes());
        assert_eq!(Response::decode(&bytes), None);
    }

    #[test]
    fn error_detail_is_capped_and_utf8_safe() {
        // A detail far over the cap, ending in multibyte characters so
        // truncation must land on a char boundary.
        let msg = "é".repeat(MAX_ERR_MSG);
        let resp = Response::err(ErrorCode::Internal, msg);
        let bytes = resp.encode();
        let Some(Response::Err { code, msg }) = Response::decode(&bytes) else {
            panic!("capped error must decode");
        };
        assert_eq!(code, ErrorCode::Internal);
        assert!(msg.len() <= MAX_ERR_MSG);
    }

    #[test]
    fn frames_roundtrip_and_reject_damage() {
        let payload = Request::Suggest { supported: vec![1, 2, 3], limit: 5 }
            .encode();
        let frame = encode_frame(&payload);
        assert_eq!(scan_frame(&frame).expect("valid frame"), Some(frame.len()));
        assert_eq!(&frame[FRAME_HEADER..], &payload[..]);
        // Flip any single byte: either the checksum rejects it, or (for
        // length-prefix damage) the frame no longer parses at all. The
        // one admissible outcome of tampering is rejection.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            if let Ok(Some(total)) = scan_frame(&bad) {
                let p = &bad[FRAME_HEADER..total];
                panic!("tampered byte {i} still decoded to {p:?}");
            }
        }
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(scan_frame(&bytes), Err(FrameError::TooLarge(_))));
    }

    /// Splitmix-style deterministic byte fuzzer (no process randomness:
    /// reproducible by construction).
    fn fuzz_bytes(seed: &mut u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                (*seed >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn decoders_are_total_over_fuzzed_bytes() {
        let mut seed = 0x5EED_CAFE;
        for round in 0..20_000 {
            let len = (round % 97) as usize;
            let bytes = fuzz_bytes(&mut seed, len);
            // Must never panic; almost always None.
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
            let _ = scan_frame(&bytes);
        }
    }

    #[test]
    fn fuzzed_mutations_of_valid_messages_never_panic() {
        let mut seed = 0xF00D;
        for req in sample_requests() {
            let frame = encode_frame(&req.encode());
            for _ in 0..500 {
                let mut bad = frame.clone();
                let noise = fuzz_bytes(&mut seed, 3);
                let at = (noise[0] as usize) % bad.len();
                bad[at] ^= noise[1] | 1;
                if noise[2].is_multiple_of(4) {
                    bad.truncate(at);
                }
                if let Ok(Some(total)) = scan_frame(&bad) {
                    let _ = Request::decode(&bad[FRAME_HEADER..total]);
                }
            }
        }
    }
}
