//! WAL record framing: length-prefixed, checksummed, typed failures.
//!
//! One record per committed update transaction:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload]
//! payload = [version: u64 LE] [count: u32 LE] ([key: u64 LE] [word: u64 LE]) * count
//! ```
//!
//! `len` is the payload length; `crc32` covers the payload only. The
//! decoder never returns garbage: every byte sequence decodes to either
//! an exact record or a typed [`RecordError`] saying *why* the bytes are
//! unusable — a torn tail ([`RecordError::TruncatedHeader`] /
//! [`RecordError::TruncatedBody`]) is distinguishable from corruption
//! ([`RecordError::BadChecksum`] / [`RecordError::BadLength`] /
//! [`RecordError::BadCount`]), and recovery reports the distinction.
//!
//! A log may also end in zeros it reserved ahead of its writes (see
//! [`crate::vfs::Vfs::reserve`]). A record header is never all zero (its
//! length byte is `12 + 16·n`), so [`decode_stream`] reads an all-zero
//! header at a record boundary as the clean end of the log
//! ([`RecordError::Unwritten`]), and a bad record followed by zeros only,
//! whose written bytes stop short of the end its header claims, as a
//! tear. A bad record followed by non-zero bytes is still corruption.

use std::fmt;

/// Byte length of the `[len][crc]` frame header.
pub const HEADER_LEN: usize = 8;
/// Payload bytes before the key/word pairs (`version` + `count`).
pub const PAYLOAD_FIXED_LEN: usize = 12;
/// Bytes per `(key, word)` pair.
pub const PAIR_LEN: usize = 16;
/// Upper bound on a single record's payload — rejects absurd lengths
/// produced by corruption before any allocation happens (1 MiB covers
/// ~65k writes per transaction, far beyond any workload here).
pub const MAX_PAYLOAD_LEN: u32 = 1 << 20;

/// A decoded WAL record: the advisory commit version plus the `(stable
/// key, word)` pairs the transaction wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Advisory commit version (the global-clock write version; adopted
    /// stamps may repeat across non-conflicting commits).
    pub version: u64,
    /// `(stable key, value)` pairs, in write-set order.
    pub writes: Vec<(u64, u64)>,
}

/// Why a byte sequence failed to decode as a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// Fewer than [`HEADER_LEN`] bytes remain — a torn tail mid-header.
    TruncatedHeader {
        /// Bytes actually available.
        have: usize,
    },
    /// The header promises more payload bytes than remain — a torn tail
    /// mid-payload.
    TruncatedBody {
        /// Bytes the header promised.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Payload bytes do not match the header checksum — corruption.
    BadChecksum {
        /// Checksum stored in the header.
        expect: u32,
        /// Checksum computed over the payload.
        got: u32,
    },
    /// The length field is structurally impossible (too small for the
    /// fixed payload prefix, not pair-aligned, or over
    /// [`MAX_PAYLOAD_LEN`]) — corruption.
    BadLength {
        /// The offending length field.
        len: u32,
    },
    /// The `count` field disagrees with the payload length — corruption
    /// that survived the length check (checksum normally catches this
    /// first; kept as a distinct, defence-in-depth verdict).
    BadCount {
        /// The offending count field.
        count: u32,
        /// The payload length it contradicts.
        len: u32,
    },
    /// An all-zero header at a record boundary: reserved space that was
    /// never written — the clean end of the log, not damage.
    Unwritten {
        /// Bytes from the boundary to the end of the stream.
        len: usize,
    },
}

impl RecordError {
    /// Whether this error is consistent with a clean torn tail (crash
    /// mid-append) rather than in-place corruption.
    #[must_use]
    pub fn is_truncation(&self) -> bool {
        matches!(
            self,
            RecordError::TruncatedHeader { .. } | RecordError::TruncatedBody { .. }
        )
    }

    /// Whether decoding stopped at reserved space that was never written
    /// (the log ended cleanly).
    #[must_use]
    pub fn is_unwritten(&self) -> bool {
        matches!(self, RecordError::Unwritten { .. })
    }
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::TruncatedHeader { have } => {
                write!(f, "torn record header ({have} of {HEADER_LEN} bytes)")
            }
            RecordError::TruncatedBody { need, have } => {
                write!(f, "torn record body ({have} of {need} bytes)")
            }
            RecordError::BadChecksum { expect, got } => {
                write!(
                    f,
                    "record checksum mismatch (stored {expect:#010x}, computed {got:#010x})"
                )
            }
            RecordError::BadLength { len } => {
                write!(f, "impossible record length {len}")
            }
            RecordError::BadCount { count, len } => {
                write!(f, "record count {count} contradicts payload length {len}")
            }
            RecordError::Unwritten { len } => {
                write!(f, "{len} reserved byte(s) never written")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// CRC-32 (IEEE 802.3, reflected), table-driven with a compile-time
/// table. Hand-rolled because the build is offline — no `crc32fast`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[usize::from((crc as u8) ^ b)] ^ (crc >> 8);
    }
    !crc
}

/// Append one encoded record for `(version, writes)` onto `buf`.
pub fn encode_into(buf: &mut Vec<u8>, version: u64, writes: &[(u64, u64)]) {
    encode_with(buf, version, |push| {
        for &(key, word) in writes {
            push(key, word);
        }
    });
}

/// Append one encoded record onto `buf` whose `(key, word)` pairs
/// `writes` pushes, in order, and return how many it pushed. The pairs go
/// straight into `buf`: nothing is collected first.
pub fn encode_with(
    buf: &mut Vec<u8>,
    version: u64,
    writes: impl FnOnce(&mut dyn FnMut(u64, u64)),
) -> usize {
    let header_at = buf.len();
    buf.extend_from_slice(&[0u8; HEADER_LEN]);
    let payload_at = buf.len();
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // count, patched below
    let mut count = 0usize;
    writes(&mut |key, word| {
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&word.to_le_bytes());
        count += 1;
    });
    let payload_len = u32::try_from(buf.len() - payload_at).expect("payload exceeds u32");
    let count_field = u32::try_from(count).expect("write set exceeds u32");
    buf[payload_at + 8..payload_at + PAYLOAD_FIXED_LEN].copy_from_slice(&count_field.to_le_bytes());
    let crc = crc32(&buf[payload_at..]);
    buf[header_at..header_at + 4].copy_from_slice(&payload_len.to_le_bytes());
    buf[header_at + 4..header_at + 8].copy_from_slice(&crc.to_le_bytes());
    count
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("u32 slice"))
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("u64 slice"))
}

/// Decode the record at the front of `bytes`; on success also return the
/// total number of bytes the record occupied.
///
/// # Errors
/// A typed [`RecordError`] describing exactly why the front of `bytes`
/// is not a record — never a partially filled [`Record`].
pub fn decode(bytes: &[u8]) -> Result<(Record, usize), RecordError> {
    if bytes.len() < HEADER_LEN {
        return Err(RecordError::TruncatedHeader { have: bytes.len() });
    }
    let len = read_u32(&bytes[0..4]);
    let stored_crc = read_u32(&bytes[4..8]);
    if len < PAYLOAD_FIXED_LEN as u32
        || len > MAX_PAYLOAD_LEN
        || !(len as usize - PAYLOAD_FIXED_LEN).is_multiple_of(PAIR_LEN)
    {
        return Err(RecordError::BadLength { len });
    }
    let need = len as usize;
    let have = bytes.len() - HEADER_LEN;
    if have < need {
        return Err(RecordError::TruncatedBody { need, have });
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + need];
    let got = crc32(payload);
    if got != stored_crc {
        return Err(RecordError::BadChecksum {
            expect: stored_crc,
            got,
        });
    }
    let version = read_u64(&payload[0..8]);
    let count = read_u32(&payload[8..12]);
    if count as usize != (need - PAYLOAD_FIXED_LEN) / PAIR_LEN {
        return Err(RecordError::BadCount { count, len });
    }
    let mut writes = Vec::with_capacity(count as usize);
    let mut at = PAYLOAD_FIXED_LEN;
    for _ in 0..count {
        writes.push((read_u64(&payload[at..]), read_u64(&payload[at + 8..])));
        at += PAIR_LEN;
    }
    Ok((Record { version, writes }, HEADER_LEN + need))
}

/// Decode as many whole records as `bytes` holds, front to back.
/// Returns the records, the length of the clean prefix they occupy, and
/// the error that stopped decoding (`None` when `bytes` ends exactly on
/// a record boundary, [`RecordError::Unwritten`] when reserved zeros
/// follow that boundary; see the module docs for the tear rule).
#[must_use]
pub fn decode_stream(bytes: &[u8]) -> (Vec<Record>, usize, Option<RecordError>) {
    let mut records = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.iter().take(HEADER_LEN).all(|&b| b == 0) {
            let err = RecordError::Unwritten { len: rest.len() };
            return (records, at, Some(err));
        }
        match decode(rest) {
            Ok((record, used)) => {
                records.push(record);
                at += used;
            }
            Err(err) if err.is_truncation() => return (records, at, Some(err)),
            Err(err) => return (records, at, Some(torn_into_zeros(rest).unwrap_or(err))),
        }
    }
    (records, at, None)
}

/// The tear verdict for a bad record at the front of `rest` that is
/// followed by nothing but zeros and whose last non-zero byte falls short
/// of the end its header claims: written up to there, then cut off.
/// `None` when non-zero bytes follow the record, or nothing does.
fn torn_into_zeros(rest: &[u8]) -> Option<RecordError> {
    let extent = HEADER_LEN + read_u32(rest) as usize;
    let written = rest.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    if written >= extent || extent >= rest.len() {
        return None;
    }
    decode(&rest[..written])
        .err()
        .filter(RecordError::is_truncation)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut buf = Vec::new();
        encode_into(&mut buf, 7, &[(1, 10), (2, 20)]);
        encode_into(&mut buf, 9, &[]);
        let (records, clean, err) = decode_stream(&buf);
        assert!(err.is_none());
        assert_eq!(clean, buf.len());
        assert_eq!(
            records,
            vec![
                Record {
                    version: 7,
                    writes: vec![(1, 10), (2, 20)]
                },
                Record {
                    version: 9,
                    writes: vec![]
                },
            ]
        );
    }

    #[test]
    fn truncation_at_every_byte_is_exact_prefix_or_typed_tear() {
        let mut buf = Vec::new();
        encode_into(&mut buf, 1, &[(5, 50)]);
        let first = buf.len();
        encode_into(&mut buf, 2, &[(6, 60), (7, 70)]);
        for cut in 0..=buf.len() {
            let (records, clean, err) = decode_stream(&buf[..cut]);
            // Either we land on a boundary (no error) or the tail reads
            // as a truncation — never corruption, never garbage records.
            if cut == 0 || cut == first || cut == buf.len() {
                assert!(err.is_none(), "cut {cut}: unexpected {err:?}");
            } else {
                assert!(err.expect("tear").is_truncation(), "cut {cut}");
            }
            assert_eq!(
                records.len(),
                usize::from(cut >= first) + usize::from(cut >= buf.len())
            );
            assert!(clean <= cut);
        }
    }

    #[test]
    fn corruption_is_flagged_not_replayed() {
        let mut buf = Vec::new();
        encode_into(&mut buf, 3, &[(8, 80)]);
        for bit in 0..8 {
            // Flip one bit in the payload: checksum must catch it.
            let mut bad = buf.clone();
            bad[HEADER_LEN + 3] ^= 1 << bit;
            let (records, clean, err) = decode_stream(&bad);
            assert!(records.is_empty() && clean == 0);
            assert!(matches!(err, Some(RecordError::BadChecksum { .. })));
        }
        // An absurd length field fails fast, before any allocation.
        let mut bad = buf.clone();
        bad[0..4].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        assert!(matches!(decode(&bad), Err(RecordError::BadLength { .. })));
        // A non-pair-aligned length is equally impossible.
        let mut bad = buf;
        bad[0..4].copy_from_slice(&(PAYLOAD_FIXED_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(decode(&bad), Err(RecordError::BadLength { .. })));
    }

    #[test]
    fn reserved_zeros_end_the_log_and_a_record_torn_into_them_is_a_tear() {
        let mut buf = Vec::new();
        encode_into(&mut buf, 1, &[(5, 0x55)]);
        let first = buf.len();
        // Its last byte is not zero: the record is written to its end.
        encode_into(&mut buf, 2, &[(6, 0x66), (7, u64::MAX)]);
        let padded = |bytes: &[u8]| [bytes, &[0u8; 100]].concat();

        assert_eq!(
            decode_stream(&[0u8; 3]),
            (vec![], 0, Some(RecordError::Unwritten { len: 3 }))
        );
        let (records, clean, err) = decode_stream(&padded(&buf));
        assert_eq!((records.len(), clean), (2, buf.len()));
        assert_eq!(err, Some(RecordError::Unwritten { len: 100 }));

        // Torn inside the second record's header, then inside its body.
        for cut in [first + 1, first + 9] {
            let (records, clean, err) = decode_stream(&padded(&buf[..cut]));
            assert_eq!((records.len(), clean), (1, first), "cut {cut}");
            assert!(err.expect("a tear").is_truncation(), "cut {cut}");
        }

        // A bad record followed by a record stays corruption; the same
        // record followed only by zeros, but written to its end, too.
        let mut bad = padded(&buf);
        bad[HEADER_LEN + 2] ^= 0x10;
        let (records, _, err) = decode_stream(&bad);
        assert!(records.is_empty());
        assert!(matches!(err, Some(RecordError::BadChecksum { .. })));
        let mut bad = padded(&buf);
        bad[first + HEADER_LEN + 2] ^= 0x10;
        let (records, _, err) = decode_stream(&bad);
        assert_eq!(records.len(), 1);
        assert!(matches!(err, Some(RecordError::BadChecksum { .. })));
    }
}
