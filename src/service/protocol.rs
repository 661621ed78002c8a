//! The `faithful-serve/1` frame layer: length-prefixed typed frames
//! over any `Read`/`Write` pair.
//!
//! Wire layout of one frame: `[type: u8][request id: u64 BE]
//! [length: u32 BE][payload: length bytes of UTF-8]`. See the
//! [module docs](crate::service) for the frame-type table.

use std::io::{self, Read, Write};

/// The greeting carried by the server's `HELLO` frame; the trailing
/// number is the protocol version.
pub const GREETING: &str = "faithful-serve/1";

/// Upper bound on a single frame payload (64 MiB): a malformed or
/// hostile length prefix must not drive an unbounded allocation.
pub(crate) const MAX_FRAME_LEN: u32 = 64 << 20;

/// The most a frame's payload buffer holds before its bytes arrive.
const FIRST_READ: usize = 64 << 10;

const TAG_HELLO: u8 = 1;
const TAG_SUBMIT: u8 = 2;
const TAG_RESULT: u8 = 3;
const TAG_RESULT_CACHED: u8 = 4;
const TAG_ERROR: u8 = 5;

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Frame {
    /// Server greeting, sent once per connection before anything else.
    Hello { greeting: String },
    /// Client request: run this spec document.
    Submit { id: u64, spec: String },
    /// Server response: the result document for request `id`;
    /// `cached` distinguishes a cache replay from a fresh run (the
    /// payload bytes are identical either way).
    Result { id: u64, cached: bool, text: String },
    /// Server response: a typed error document for request `id`.
    Error { id: u64, text: String },
}

/// What one attempt to read a frame produced.
#[derive(Debug)]
pub(crate) enum ReadOutcome {
    /// A complete frame.
    Frame(Frame),
    /// The peer closed the connection cleanly (EOF between frames).
    Eof,
    /// A read timeout expired while waiting *between* frames (only
    /// possible when the stream has a read timeout set); no bytes were
    /// consumed.
    Idle,
}

impl Frame {
    fn parts(&self) -> (u8, u64, &str) {
        match self {
            Frame::Hello { greeting } => (TAG_HELLO, 0, greeting),
            Frame::Submit { id, spec } => (TAG_SUBMIT, *id, spec),
            Frame::Result { id, cached, text } => (
                if *cached {
                    TAG_RESULT_CACHED
                } else {
                    TAG_RESULT
                },
                *id,
                text,
            ),
            Frame::Error { id, text } => (TAG_ERROR, *id, text),
        }
    }

    /// Serializes the frame as one `write_all`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; refuses payloads over [`MAX_FRAME_LEN`].
    pub(crate) fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let (tag, id, payload) = self.parts();
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|len| *len <= MAX_FRAME_LEN)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "frame payload of {} bytes exceeds the protocol limit",
                        payload.len()
                    ),
                )
            })?;
        let mut buf = Vec::with_capacity(13 + payload.len());
        buf.push(tag);
        buf.extend_from_slice(&id.to_be_bytes());
        buf.extend_from_slice(&len.to_be_bytes());
        buf.extend_from_slice(payload.as_bytes());
        w.write_all(&buf)?;
        w.flush()
    }

    /// Reads one frame. `Idle` is returned only when the stream has a
    /// read timeout and it expires before the first byte of a frame;
    /// once a frame has started, the remaining bytes are read to
    /// completion across timeouts.
    ///
    /// # Errors
    ///
    /// `InvalidData` on unknown frame types, oversized length prefixes,
    /// non-UTF-8 payloads, or EOF mid-frame.
    pub(crate) fn read_from(r: &mut impl Read) -> io::Result<ReadOutcome> {
        let mut tag = [0u8; 1];
        loop {
            match r.read(&mut tag) {
                Ok(0) => return Ok(ReadOutcome::Eof),
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadOutcome::Idle);
                }
                Err(e) => return Err(e),
            }
        }
        let mut header = [0u8; 12];
        read_full(r, &mut header)?;
        let id = u64::from_be_bytes(header[0..8].try_into().expect("8-byte slice"));
        let len = u32::from_be_bytes(header[8..12].try_into().expect("4-byte slice"));
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds the protocol limit of {MAX_FRAME_LEN}"),
            ));
        }
        let payload = read_payload(r, len as usize)?;
        let text = String::from_utf8(payload).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8")
        })?;
        match tag[0] {
            TAG_HELLO => Ok(ReadOutcome::Frame(Frame::Hello { greeting: text })),
            TAG_SUBMIT => Ok(ReadOutcome::Frame(Frame::Submit { id, spec: text })),
            TAG_RESULT => Ok(ReadOutcome::Frame(Frame::Result {
                id,
                cached: false,
                text,
            })),
            TAG_RESULT_CACHED => Ok(ReadOutcome::Frame(Frame::Result {
                id,
                cached: true,
                text,
            })),
            TAG_ERROR => Ok(ReadOutcome::Frame(Frame::Error { id, text })),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown frame type {other}"),
            )),
        }
    }
}

/// Reads a `len`-byte payload into a buffer that starts at
/// [`FIRST_READ`] bytes and doubles only once it is full, so what a
/// length prefix costs follows the bytes its peer has actually sent,
/// and an ordinary frame is still one allocation.
fn read_payload(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut payload = vec![0u8; len.min(FIRST_READ)];
    read_full(r, &mut payload)?;
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(len.min(2 * filled), 0);
        read_full(r, &mut payload[filled..])?;
    }
    Ok(payload)
}

/// `read_exact` that rides out read timeouts and EINTR: a frame that
/// has started is read to completion, EOF mid-frame is `InvalidData`
/// (a torn frame, not a clean close).
fn read_full(r: &mut impl Read, mut buf: &mut [u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => buf = &mut buf[n..],
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        let mut r = buf.as_slice();
        match Frame::read_from(&mut r).unwrap() {
            ReadOutcome::Frame(back) => assert_eq!(back, frame),
            other => panic!("expected a frame, got {other:?}"),
        }
        assert!(matches!(
            Frame::read_from(&mut r).unwrap(),
            ReadOutcome::Eof
        ));
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Frame::Hello {
            greeting: GREETING.to_owned(),
        });
        round_trip(Frame::Submit {
            id: 7,
            spec: "faithful/1 channel {}".to_owned(),
        });
        round_trip(Frame::Result {
            id: u64::MAX,
            cached: false,
            text: "faithful/1 result {}".to_owned(),
        });
        round_trip(Frame::Result {
            id: 3,
            cached: true,
            text: "faithful/1 result {}".to_owned(),
        });
        round_trip(Frame::Error {
            id: 9,
            text: "faithful/1 error {}".to_owned(),
        });
    }

    #[test]
    fn cached_and_fresh_results_differ_only_in_the_type_byte() {
        let fresh = Frame::Result {
            id: 5,
            cached: false,
            text: "payload".to_owned(),
        };
        let cached = Frame::Result {
            id: 5,
            cached: true,
            text: "payload".to_owned(),
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        fresh.write_to(&mut a).unwrap();
        cached.write_to(&mut b).unwrap();
        assert_ne!(a[0], b[0]);
        assert_eq!(a[1..], b[1..]);
    }

    /// Hands out at most `chunk` bytes per read, each after a timeout.
    struct Trickle<'a> {
        bytes: &'a [u8],
        chunk: usize,
        timed_out: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.timed_out = !self.timed_out;
            if self.timed_out {
                return Err(io::ErrorKind::TimedOut.into());
            }
            let n = buf.len().min(self.chunk).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_payload_past_the_first_read_arrives_through_timeouts() {
        let frame = Frame::Submit {
            id: 4,
            spec: "0123456789".repeat(FIRST_READ / 4),
        };
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        let mut r = Trickle {
            bytes: &buf[1..],
            chunk: 4093,
            timed_out: false,
        };
        // the tag byte is read first; a timeout there means idle
        let tag = [buf[0]];
        let mut tagged = tag.as_slice().chain(&mut r);
        match Frame::read_from(&mut tagged).unwrap() {
            ReadOutcome::Frame(back) => assert_eq!(back, frame),
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn torn_and_hostile_frames_are_rejected() {
        // EOF mid-frame
        let mut buf = Vec::new();
        Frame::Error {
            id: 1,
            text: "x".repeat(64),
        }
        .write_to(&mut buf)
        .unwrap();
        buf.truncate(20);
        let err = match Frame::read_from(&mut buf.as_slice()) {
            Err(e) => e,
            other => panic!("torn frame accepted: {other:?}"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // hostile length prefix
        let mut hostile = vec![TAG_ERROR];
        hostile.extend_from_slice(&1u64.to_be_bytes());
        hostile.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = Frame::read_from(&mut hostile.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // unknown tag
        let mut unknown = vec![200u8];
        unknown.extend_from_slice(&0u64.to_be_bytes());
        unknown.extend_from_slice(&0u32.to_be_bytes());
        let err = Frame::read_from(&mut unknown.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
