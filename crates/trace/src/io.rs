//! Compact binary and CSV (de)serialization of traces.
//!
//! Binary layout (little-endian), chosen so a 10-byte fixed record keeps
//! multi-million-reference traces small and `mmap`-friendly:
//!
//! ```text
//! magic  "UCTR"            4 bytes
//! version u16              2 bytes
//! count   u64              8 bytes
//! record: addr u64, kind u8 (0=R,1=W,2=I), tid u8     (count times)
//! ```

use crate::trace::Trace;
use unicache_core::{AccessKind, MemRecord};

const MAGIC: &[u8; 4] = b"UCTR";
const VERSION: u16 = 1;

/// Errors raised when decoding a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer too short for the declared contents.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Unknown access-kind byte.
    BadKind(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "trace buffer truncated"),
            DecodeError::BadMagic => write!(f, "bad trace magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown access kind byte {k}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn kind_to_byte(k: AccessKind) -> u8 {
    match k {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
        AccessKind::InstFetch => 2,
    }
}

fn byte_to_kind(b: u8) -> Result<AccessKind, DecodeError> {
    match b {
        0 => Ok(AccessKind::Read),
        1 => Ok(AccessKind::Write),
        2 => Ok(AccessKind::InstFetch),
        other => Err(DecodeError::BadKind(other)),
    }
}

/// Encodes a trace in the compact binary format.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(14 + trace.len() * 10);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for r in trace {
        buf.extend_from_slice(&r.addr.to_le_bytes());
        buf.push(kind_to_byte(r.kind));
        buf.push(r.tid);
    }
    buf
}

/// Decodes a trace from the compact binary format. Bytes past the
/// declared record count are ignored.
pub fn decode(buf: &[u8]) -> Result<Trace, DecodeError> {
    let Some((&header, body)) = buf.split_first_chunk::<14>() else {
        return Err(DecodeError::Truncated);
    };
    let [m0, m1, m2, m3, v0, v1, count @ ..] = header;
    if [m0, m1, m2, m3] != *MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u16::from_le_bytes([v0, v1]);
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let count = usize::try_from(u64::from_le_bytes(count)).map_err(|_| DecodeError::Truncated)?;
    // A crafted count can make `count * 10` wrap; it then cannot fit the
    // buffer either.
    let body = match count.checked_mul(10) {
        Some(bytes) if bytes <= body.len() => &body[..bytes],
        _ => return Err(DecodeError::Truncated),
    };
    let mut records = Vec::with_capacity(count);
    for &[addr @ .., kind, tid] in body.as_chunks::<10>().0 {
        records.push(MemRecord {
            addr: u64::from_le_bytes(addr),
            kind: byte_to_kind(kind)?,
            tid,
        });
    }
    Ok(Trace::from_records(records))
}

/// Writes a trace as CSV (`addr,kind,tid`, hex addresses) — for eyeballing
/// and external plotting.
pub fn to_csv(trace: &Trace) -> String {
    let mut s = String::with_capacity(trace.len() * 16 + 16);
    s.push_str("addr,kind,tid\n");
    for r in trace {
        let k = match r.kind {
            AccessKind::Read => 'R',
            AccessKind::Write => 'W',
            AccessKind::InstFetch => 'I',
        };
        s.push_str(&format!("{:#x},{},{}\n", r.addr, k, r.tid));
    }
    s
}

/// Parses the CSV produced by [`to_csv`].
pub fn from_csv(csv: &str) -> Result<Trace, String> {
    let mut records = Vec::new();
    for (lineno, line) in csv.lines().enumerate() {
        if lineno == 0 && line.starts_with("addr") {
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let addr_s = parts
            .next()
            .ok_or_else(|| format!("line {lineno}: missing addr"))?;
        let kind_s = parts
            .next()
            .ok_or_else(|| format!("line {lineno}: missing kind"))?;
        let tid_s = parts
            .next()
            .ok_or_else(|| format!("line {lineno}: missing tid"))?;
        let addr = if let Some(hex) = addr_s.trim().strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            addr_s.trim().parse()
        }
        .map_err(|e| format!("line {lineno}: bad addr: {e}"))?;
        let kind = match kind_s.trim() {
            "R" => AccessKind::Read,
            "W" => AccessKind::Write,
            "I" => AccessKind::InstFetch,
            other => return Err(format!("line {lineno}: bad kind {other:?}")),
        };
        let tid = tid_s
            .trim()
            .parse()
            .map_err(|e| format!("line {lineno}: bad tid: {e}"))?;
        records.push(MemRecord { addr, kind, tid });
    }
    Ok(Trace::from_records(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use proptest::prelude::*;

    #[test]
    fn binary_round_trip() {
        let t = synth::uniform_rw(3, 1000, 0x10_0000, 1 << 20, 0.25);
        let bytes = encode(&t);
        assert_eq!(bytes.len(), 14 + 1000 * 10);
        let back = decode(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn empty_trace_round_trip() {
        let t = Trace::new();
        let back = decode(&encode(&t)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode(b"XXXX0000000000"), Err(DecodeError::BadMagic));
        let mut good = encode(&synth::uniform(1, 4, 0, 64));
        // Flip version.
        good[4] = 9;
        assert_eq!(decode(&good), Err(DecodeError::BadVersion(9)));
        // Truncate body.
        let good = encode(&synth::uniform(1, 4, 0, 64));
        assert_eq!(decode(&good[..20]), Err(DecodeError::Truncated));
    }

    /// A read, a write and an ifetch with distinct tids, and its exact
    /// encoding: pins the byte order of every field, which a round trip
    /// alone cannot (it passes if encode and decode swap order together).
    fn golden() -> (Trace, [u8; 44]) {
        let t = Trace::from_records(vec![
            MemRecord {
                addr: 0x0123_4567_89AB_CDEF,
                kind: AccessKind::Read,
                tid: 1,
            },
            MemRecord {
                addr: 0x1000,
                kind: AccessKind::Write,
                tid: 2,
            },
            MemRecord {
                addr: 0xFEDC_BA98_7654_3210,
                kind: AccessKind::InstFetch,
                tid: 7,
            },
        ]);
        #[rustfmt::skip]
        let bytes = [
            b'U', b'C', b'T', b'R',                         // magic
            0x01, 0x00,                                     // version 1
            0x03, 0, 0, 0, 0, 0, 0, 0,                      // count 3
            0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, // addr
            0x00, 0x01,                                     // read, tid 1
            0x00, 0x10, 0, 0, 0, 0, 0, 0,                   // addr
            0x01, 0x02,                                     // write, tid 2
            0x10, 0x32, 0x54, 0x76, 0x98, 0xBA, 0xDC, 0xFE, // addr
            0x02, 0x07,                                     // ifetch, tid 7
        ];
        (t, bytes)
    }

    #[test]
    fn encode_matches_golden_bytes() {
        let (t, bytes) = golden();
        assert_eq!(encode(&t), bytes);
        assert_eq!(decode(&bytes), Ok(t));
    }

    #[test]
    fn every_proper_prefix_decodes_as_truncated() {
        let (_, golden) = golden();
        let synth = encode(&synth::uniform_rw(9, 50, 0x4000, 1 << 16, 0.5));
        for buf in [&golden[..], &synth[..]] {
            for n in 0..buf.len() {
                assert_eq!(decode(&buf[..n]), Err(DecodeError::Truncated), "prefix {n}");
            }
            assert!(decode(buf).is_ok());
        }
    }

    #[test]
    fn decode_rejects_a_count_whose_byte_length_wraps() {
        // 18 bytes: header, then a count whose `count * 10` wraps to 4 —
        // exactly the 4 body bytes that follow.
        let count = u64::MAX / 10 + 1;
        assert_eq!(count.wrapping_mul(10), 4);
        let mut buf = b"UCTR".to_vec();
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(&[0; 4]);
        assert_eq!(buf.len(), 18);
        assert_eq!(decode(&buf), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_rejects_bad_kind() {
        let mut buf = encode(&synth::uniform(1, 1, 0, 64));
        buf[14 + 8] = 7; // kind byte of record 0
        assert_eq!(decode(&buf), Err(DecodeError::BadKind(7)));
    }

    #[test]
    fn csv_round_trip() {
        let t = synth::uniform_rw(5, 100, 0x4000, 4096, 0.5);
        let csv = to_csv(&t);
        assert!(csv.starts_with("addr,kind,tid\n"));
        let back = from_csv(&csv).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn csv_parses_decimal_addresses_too() {
        let t = from_csv("addr,kind,tid\n4096,R,0\n8192,W,1\n").unwrap();
        assert_eq!(t.records()[0].addr, 4096);
        assert_eq!(t.records()[1].tid, 1);
    }

    #[test]
    fn csv_error_reporting() {
        assert!(from_csv("addr,kind,tid\nzzz,R,0\n").is_err());
        assert!(from_csv("addr,kind,tid\n1,Q,0\n").is_err());
        assert!(from_csv("addr,kind,tid\n1,R,badtid\n").is_err());
        assert!(from_csv("addr,kind,tid\n1\n").is_err());
    }

    proptest! {
        #[test]
        fn binary_round_trip_arbitrary(
            recs in proptest::collection::vec(
                (proptest::num::u64::ANY, 0u8..3, proptest::num::u8::ANY), 0..200)
        ) {
            let t: Trace = recs.iter().map(|&(addr, k, tid)| {
                let kind = byte_to_kind(k).unwrap();
                MemRecord { addr, kind, tid }
            }).collect();
            prop_assert_eq!(decode(&encode(&t)).unwrap(), t);
        }
    }
}

/// Writes the classic Dinero III "din" format: one `<label> <hex-addr>`
/// pair per line with labels 0 = read, 1 = write, 2 = instruction fetch —
/// so traces can be cross-checked against dineroIV and other classic
/// cache simulators (thread ids are not representable and are dropped).
pub fn to_dinero(trace: &Trace) -> String {
    let mut s = String::with_capacity(trace.len() * 12);
    for r in trace {
        let label = match r.kind {
            AccessKind::Read => '0',
            AccessKind::Write => '1',
            AccessKind::InstFetch => '2',
        };
        s.push(label);
        s.push(' ');
        s.push_str(&format!("{:x}\n", r.addr));
    }
    s
}

/// Parses the Dinero III format produced by [`to_dinero`] (and by other
/// tools): whitespace-separated `<label> <hex-addr>` per line; blank lines
/// are skipped.
pub fn from_dinero(din: &str) -> Result<Trace, String> {
    let mut records = Vec::new();
    for (lineno, line) in din.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let label = parts
            .next()
            .ok_or_else(|| format!("line {lineno}: missing label"))?;
        let addr_s = parts
            .next()
            .ok_or_else(|| format!("line {lineno}: missing address"))?;
        let kind = match label {
            "0" => AccessKind::Read,
            "1" => AccessKind::Write,
            "2" => AccessKind::InstFetch,
            other => return Err(format!("line {lineno}: unknown label {other:?}")),
        };
        let addr = u64::from_str_radix(addr_s.trim_start_matches("0x"), 16)
            .map_err(|e| format!("line {lineno}: bad address: {e}"))?;
        records.push(MemRecord { addr, kind, tid: 0 });
    }
    Ok(Trace::from_records(records))
}

#[cfg(test)]
mod dinero_tests {
    use super::*;
    use crate::synth;

    #[test]
    fn dinero_round_trip() {
        let t = synth::uniform_rw(4, 500, 0x1000, 1 << 16, 0.4);
        let din = to_dinero(&t);
        let back = from_dinero(&din).unwrap();
        assert_eq!(t.len(), back.len());
        for (a, b) in t.iter().zip(back.iter()) {
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn dinero_format_shape() {
        let t = Trace::from_records(vec![
            MemRecord::read(0xABC),
            MemRecord::write(0x10),
            MemRecord::fetch(0x400000),
        ]);
        let din = to_dinero(&t);
        assert_eq!(din, "0 abc\n1 10\n2 400000\n");
    }

    #[test]
    fn dinero_parses_foreign_variants() {
        // 0x prefixes and extra whitespace are tolerated.
        let t = from_dinero("0 0xff\n\n1   20\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[0].addr, 0xFF);
        assert!(from_dinero("9 10\n").is_err());
        assert!(from_dinero("0 zz\n").is_err());
        assert!(from_dinero("0\n").is_err());
    }
}
