//! Compact little-endian binary serialization of the serde shim's
//! [`Value`] tree, used by the [scenario cache](crate::scenario).
//!
//! JSON would store full weight dumps as decimal text (~12 bytes per
//! value, plus parse cost); this format stores a 4-byte magic +
//! 2-byte version header followed by a tagged tree in which arrays of
//! f32-exact numbers are packed as raw little-endian `f32` (4 bytes per
//! weight). Floats that need `f64` precision keep it; integers are
//! `i128` so `u64` RNG seeds survive.
//!
//! ## Integrity
//!
//! The tree is wrapped in *checksummed sections*: a top-level object
//! becomes one section per entry (key, payload length, IEEE CRC32 over
//! key + payload, payload), so a flipped byte anywhere in an artifact
//! is detected at load time and reported with the section it hit,
//! instead of deserializing garbage weights. A non-object top level is
//! stored as a single unnamed section. Version 2 is the only version
//! read or written; the checksum-less version 1 is rejected like any
//! other unknown version. The checksum folds 16-byte blocks by
//! carry-less multiplication ([`simd::crc32_fold`], on a CPU with
//! `pclmulqdq` while SIMD dispatch is on) and runs slicing-by-8 tables
//! over the rest, or over everything when the fold is off. On a 2-vCPU
//! AVX2 VM the fold takes about 0.14 ns per byte over a 21 MB file (0.07
//! over 8 MB), the tables 0.8 and the bitwise loop 7. All three compute
//! the same polynomial, so a file written on either path reads back on
//! the other.
//!
//! ## Decoding
//!
//! A packed f32 array decodes into one [`Value::F32Array`], not into
//! one [`Value::Float`] per element: a cached VGG holds millions of
//! weights, and an element-wise tree of them would take 8× the file's
//! size in memory before `from_value` copies them out again. Every
//! array consumer of the serde shim reads the packed form as the
//! element-wise one, and writing it back produces the same bytes.
//!
//! ## Reading part of a file
//!
//! There is one section parser, [`read_sections`], a walk over any
//! `Read + Seek` source ([`from_bytes`] is that walk over a byte slice).
//! Each section's framing gives its payload length, so the walk needs
//! no index: per section key it either reads, checks and decodes the
//! payload ([`Take::Whole`]), decodes only the head of an object payload
//! up to a named entry ([`Take::Head`]), or seeks past it
//! ([`Take::Skip`]). A CRC covers a whole payload, so only a whole
//! section is checksummed: a head or a skipped section is bounded by its
//! framing and decoded no further than the reader asks, and a flipped
//! byte past that point goes unseen. The scenario cache's
//! [`prepare_network`](crate::scenario::prepare_network) relies on
//! this: it checksums its key, network and accuracy sections, reads the
//! dataset section's `spec` and image `shape` (which the writer puts
//! ahead of the image data) and seeks past the ~21 MB rest, while
//! [`prepare`](crate::scenario::prepare) checksums everything.

use std::borrow::Cow;
use std::io::{Read, Seek, SeekFrom};

use serde::Value;
use t2fsnn_tensor::simd;

/// File magic: "T2FB" (T2FSNN binary).
pub const MAGIC: [u8; 4] = *b"T2FB";
/// Format version written and read (per-section CRC32).
pub const VERSION: u16 = 2;

/// Layout byte: the top level was an object, one section per
/// entry.
const LAYOUT_OBJECT: u8 = 1;
/// Layout byte: the top level was a bare value, stored as one
/// unnamed section.
const LAYOUT_BARE: u8 = 0;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_ARRAY: u8 = 6;
const TAG_OBJECT: u8 = 7;
const TAG_F32_ARRAY: u8 = 8;

/// Serializes a value tree with the header, in the current (CRC32
/// checksummed) version.
pub fn to_bytes(value: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let sections: Vec<(&str, &Value)> = match value {
        Value::Object(pairs) => {
            out.push(LAYOUT_OBJECT);
            pairs.iter().map(|(k, v)| (k.as_str(), v)).collect()
        }
        other => {
            out.push(LAYOUT_BARE);
            vec![("", other)]
        }
    };
    write_len(sections.len(), &mut out);
    let mut payload = Vec::new();
    for (key, item) in sections {
        write_len(key.len(), &mut out);
        out.extend_from_slice(key.as_bytes());
        payload.clear();
        write_value(item, &mut payload);
        write_len(payload.len(), &mut out);
        out.extend_from_slice(&section_crc(key, &payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// IEEE CRC32 (reflected, polynomial `0xEDB88320`): carry-less-multiply
/// folding where the CPU has it, slicing-by-8 tables otherwise and for
/// the tail — no external crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0u32, bytes)
}

/// The reflected IEEE CRC32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[k][b]` is `CRC_TABLES[k - 1][b]` advanced by one more
/// zero byte, so one lookup per byte of an 8-byte word advances the
/// whole word at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Advances the CRC register over `bytes`: the carry-less-multiply fold
/// over the whole 16-byte blocks when it is dispatched, then the tables
/// over the rest.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let (crc, folded) = simd::crc32_fold(crc, bytes);
    crc32_tables(crc, &bytes[folded..])
}

/// The scalar twin of [`simd::crc32_fold`]: slicing-by-8 over
/// [`CRC_TABLES`].
fn crc32_tables(mut crc: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[(hi & 0xFF) as usize]
            ^ t2[((hi >> 8) & 0xFF) as usize]
            ^ t1[((hi >> 16) & 0xFF) as usize]
            ^ t0[(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t0[((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// A section's checksum covers its key *and* its payload, so a flipped
/// byte in either is caught.
fn section_crc(key: &str, payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0u32, key.as_bytes()), payload)
}

/// `true` if `bytes` starts with this format's magic, whatever its
/// version.
fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == MAGIC
}

/// Parses a value tree, validating the header and every section's
/// CRC32 checksum: [`read_sections`] over the slice, taking every
/// section whole.
///
/// # Errors
///
/// Returns a description of the first structural problem encountered,
/// including which section a checksum mismatch hit.
pub fn from_bytes(bytes: &[u8]) -> Result<Value, String> {
    walk(&mut &bytes[..], |_| Take::Whole)
}

/// What [`read_sections`] does with one top-level section, chosen by
/// its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Take {
    /// Read the whole payload, check its CRC32 and decode it.
    Whole,
    /// Decode only the payload's head, unchecked, and seek past the
    /// rest: the entries of an object ahead of the entry this key path
    /// names, descending into the objects on the path. `["images",
    /// "data"]` keeps every entry before `images`, and of `images` every
    /// entry before `data`.
    Head(&'static [&'static str]),
    /// Seek past the payload unread.
    Skip,
}

/// Walks the header and the checksummed sections of a file (see the
/// module docs), from the reader's position to its end, doing with each
/// section what `take` picks for its key.
///
/// Returns the object of the sections taken, in file order (a skipped
/// section is absent), or, for a file written from a bare value, that
/// value (`Null` if skipped). Only a [`Take::Whole`] section is
/// checksummed; a skipped or head-only one is read no further than its
/// framing says.
///
/// # Errors
///
/// Returns a description of the first structural problem encountered:
/// a bad header or version, a length past the end of the data, a
/// checksum mismatch (naming its section), a malformed value or
/// trailing bytes.
pub fn read_sections<R: Read + Seek>(
    reader: &mut R,
    take: impl FnMut(&str) -> Take,
) -> Result<Value, String> {
    let io = |e: std::io::Error| format!("read failed: {e}");
    let start = reader.stream_position().map_err(io)?;
    let end = reader.seek(SeekFrom::End(0)).map_err(io)?;
    reader.seek(SeekFrom::Start(start)).map_err(io)?;
    let left = usize::try_from(end.saturating_sub(start)).map_err(|_| "file too large")?;
    walk(&mut Stream { reader, left }, take)
}

/// The section walk of [`from_bytes`] and [`read_sections`], over the
/// rest of `input`.
fn walk(input: &mut impl Source, mut take: impl FnMut(&str) -> Take) -> Result<Value, String> {
    let header = input.next_bytes(input.left().min(6))?;
    if !is_binary(&header) {
        return Err("missing T2FB magic".to_string());
    }
    if header.len() < 6 {
        return Err("truncated header".to_string());
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(format!("unsupported binary cache version {version}"));
    }
    let layout = input.next_bytes(1)?[0];
    if layout != LAYOUT_OBJECT && layout != LAYOUT_BARE {
        return Err(format!("unknown section layout {layout}"));
    }
    let count = read_len(input)?;
    if layout == LAYOUT_BARE && count != 1 {
        return Err(format!(
            "bare layout must hold exactly 1 section, got {count}"
        ));
    }
    let mut pairs = Vec::with_capacity(count.min(input.left()));
    for _ in 0..count {
        let key = read_string(input)?;
        let len = read_len(input)?;
        let stored = u32::from_le_bytes(input.next_bytes(4)?[..].try_into().expect("4 bytes"));
        if len > input.left() {
            return Err(format!(
                "section `{key}` runs {} bytes past the end of the data",
                len - input.left()
            ));
        }
        match take(&key) {
            Take::Whole => {
                let payload = input.next_bytes(len)?;
                let computed = section_crc(&key, &payload);
                if computed != stored {
                    return Err(format!(
                        "section `{key}` checksum mismatch (stored {stored:08x}, \
                         computed {computed:08x}) — artifact corrupted"
                    ));
                }
                let mut rest = &payload[..];
                let value = read_value(&mut rest)?;
                if !rest.is_empty() {
                    return Err(format!(
                        "section `{key}` has {} trailing payload bytes",
                        rest.len()
                    ));
                }
                pairs.push((key, value));
            }
            Take::Head(path) => pairs.push((key, input.head(len, path)?)),
            Take::Skip => input.skip(len)?,
        }
    }
    if input.left() != 0 {
        return Err(format!("{} trailing bytes", input.left()));
    }
    Ok(if layout == LAYOUT_BARE {
        pairs.pop().map_or(Value::Null, |(_, value)| value)
    } else {
        Value::Object(pairs)
    })
}

/// Where the decoder takes its bytes from: the rest of a checked payload
/// in memory, or a bounded run of a stream.
trait Input {
    /// The next `n` bytes; an error, before anything is allocated, if
    /// fewer are left.
    fn next_bytes(&mut self, n: usize) -> Result<Cow<'_, [u8]>, String>;
    /// How many bytes are left: the bound on every preallocation.
    fn left(&self) -> usize;
}

impl Input for &[u8] {
    fn next_bytes(&mut self, n: usize) -> Result<Cow<'_, [u8]>, String> {
        if n > self.len() {
            return Err("unexpected end of data".to_string());
        }
        let (head, rest) = self.split_at(n);
        *self = rest;
        Ok(Cow::Borrowed(head))
    }

    fn left(&self) -> usize {
        self.len()
    }
}

/// A byte source the section walk can also move through undecoded: a
/// file in memory, or a stream that seeks.
trait Source: Input {
    /// Moves past the next `n` bytes, unread.
    fn skip(&mut self, n: usize) -> Result<(), String>;
    /// Decodes the head of the next `n` bytes that `path` cuts (see
    /// [`Take::Head`]), and moves past the rest of them unread.
    fn head(&mut self, n: usize, path: &[&str]) -> Result<Value, String>;
}

impl Source for &[u8] {
    fn skip(&mut self, n: usize) -> Result<(), String> {
        self.next_bytes(n).map(drop)
    }

    fn head(&mut self, n: usize, path: &[&str]) -> Result<Value, String> {
        let payload = self.next_bytes(n)?;
        read_head(&mut &payload[..], path)
    }
}

/// A stream that may be read no further than its next `left` bytes.
struct Stream<R> {
    reader: R,
    left: usize,
}

impl<R: Read> Input for Stream<R> {
    fn next_bytes(&mut self, n: usize) -> Result<Cow<'_, [u8]>, String> {
        if n > self.left {
            return Err("unexpected end of data".to_string());
        }
        // Read into spare capacity: zeroing a payload-sized buffer first
        // would touch every page of it twice.
        let mut buf = Vec::with_capacity(n);
        (&mut self.reader)
            .take(n as u64)
            .read_to_end(&mut buf)
            .map_err(|e| format!("read failed: {e}"))?;
        if buf.len() != n {
            return Err("unexpected end of data".to_string());
        }
        self.left -= n;
        Ok(Cow::Owned(buf))
    }

    fn left(&self) -> usize {
        self.left
    }
}

impl<R: Read + Seek> Source for Stream<R> {
    fn skip(&mut self, n: usize) -> Result<(), String> {
        if n > self.left {
            return Err("unexpected end of data".to_string());
        }
        let offset = i64::try_from(n).map_err(|_| format!("length {n} exceeds i64"))?;
        self.reader
            .seek(SeekFrom::Current(offset))
            .map_err(|e| format!("seek failed: {e}"))?;
        self.left -= n;
        Ok(())
    }

    fn head(&mut self, n: usize, path: &[&str]) -> Result<Value, String> {
        if n > self.left {
            return Err("unexpected end of data".to_string());
        }
        let mut head = Stream {
            reader: &mut self.reader,
            left: n,
        };
        let value = read_head(&mut head, path)?;
        let unread = head.left;
        self.left -= n - unread;
        self.skip(unread)?;
        Ok(value)
    }
}

/// An f64 that round-trips exactly through f32 (weights serialized from
/// `f32` tensors always do).
fn fits_f32(f: f64) -> bool {
    f.is_finite() && (f as f32) as f64 == f
}

fn write_len(len: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&u64::try_from(len).expect("usize fits u64").to_le_bytes());
}

fn write_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_len(s.len(), out);
            out.extend_from_slice(s.as_bytes());
        }
        // A packed array writes as its element-wise form does, so a
        // decoded tree re-encodes to the bytes it was read from.
        Value::Array(_) | Value::F32Array(_) => {
            let items = value.as_array().expect("an array");
            // Pack numeric arrays as raw f32 when lossless — the whole
            // point of the format (weight vectors dominate the cache).
            let packable = !items.is_empty()
                && items.iter().all(|v| match v {
                    Value::Float(f) => fits_f32(*f),
                    _ => false,
                });
            if packable {
                out.push(TAG_F32_ARRAY);
                write_len(items.len(), out);
                for item in items.iter() {
                    let Value::Float(f) = item else {
                        unreachable!()
                    };
                    out.extend_from_slice(&(*f as f32).to_le_bytes());
                }
            } else {
                out.push(TAG_ARRAY);
                write_len(items.len(), out);
                for item in items.iter() {
                    write_value(item, out);
                }
            }
        }
        Value::Object(pairs) => {
            out.push(TAG_OBJECT);
            write_len(pairs.len(), out);
            for (key, item) in pairs {
                write_len(key.len(), out);
                out.extend_from_slice(key.as_bytes());
                write_value(item, out);
            }
        }
    }
}

fn read_len(input: &mut impl Input) -> Result<usize, String> {
    let raw = input.next_bytes(8)?;
    let len = u64::from_le_bytes(raw[..].try_into().expect("8 bytes"));
    usize::try_from(len).map_err(|_| format!("length {len} exceeds usize"))
}

fn read_string(input: &mut impl Input) -> Result<String, String> {
    let len = read_len(input)?;
    let raw = input.next_bytes(len)?.into_owned();
    String::from_utf8(raw).map_err(|e| format!("invalid UTF-8 string: {e}"))
}

fn read_value(input: &mut impl Input) -> Result<Value, String> {
    let tag = input.next_bytes(1)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_FALSE => Value::Bool(false),
        TAG_TRUE => Value::Bool(true),
        TAG_INT => {
            let raw = input.next_bytes(16)?;
            Value::Int(i128::from_le_bytes(raw[..].try_into().expect("16 bytes")))
        }
        TAG_FLOAT => {
            let raw = input.next_bytes(8)?;
            Value::Float(f64::from_le_bytes(raw[..].try_into().expect("8 bytes")))
        }
        TAG_STR => Value::Str(read_string(input)?),
        TAG_ARRAY => {
            let len = read_len(input)?;
            // Each element is at least one tag byte; bound the
            // preallocation by the remaining input.
            let mut items = Vec::with_capacity(len.min(input.left()));
            for _ in 0..len {
                items.push(read_value(input)?);
            }
            Value::Array(items)
        }
        TAG_F32_ARRAY => {
            let len = read_len(input)?;
            let raw = input.next_bytes(len.checked_mul(4).ok_or("length overflow")?)?;
            Value::F32Array(
                raw.chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect(),
            )
        }
        TAG_OBJECT => {
            let len = read_len(input)?;
            let mut pairs = Vec::with_capacity(len.min(input.left()));
            for _ in 0..len {
                let key = read_string(input)?;
                pairs.push((key, read_value(input)?));
            }
            Value::Object(pairs)
        }
        other => return Err(format!("unknown tag {other}")),
    })
}

/// Decodes the head of a value that `path` cuts (see [`Take::Head`]):
/// the whole value for an empty path, else the object's entries ahead
/// of the entry named `path[0]`, plus that entry's own head if the path
/// goes on. Nothing past the cut is read.
fn read_head(input: &mut impl Input, path: &[&str]) -> Result<Value, String> {
    let Some((&stop, rest)) = path.split_first() else {
        return read_value(input);
    };
    let tag = input.next_bytes(1)?[0];
    if tag != TAG_OBJECT {
        return Err(format!(
            "expected an object holding `{stop}`, got tag {tag}"
        ));
    }
    let len = read_len(input)?;
    let mut pairs = Vec::new();
    for _ in 0..len {
        let key = read_string(input)?;
        if key == stop {
            if !rest.is_empty() {
                pairs.push((key, read_head(input, rest)?));
            }
            break;
        }
        pairs.push((key, read_value(input)?));
    }
    Ok(Value::Object(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::io::Cursor;

    fn round_trip(value: &Value) -> Value {
        let bytes = to_bytes(value);
        let decoded = from_bytes(&bytes).expect("round trip");
        // The decoded tree, packed arrays and all, re-encodes to the
        // bytes it was read from.
        assert_eq!(to_bytes(&decoded), bytes);
        decoded
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(u64::MAX as i128),
            Value::Int(-42),
            Value::Float(0.1),
            Value::Float(-1.5e300),
            Value::Str("héllo \"world\"".to_string()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn f32_arrays_pack_losslessly() {
        let weights: Vec<Value> = (0..1000)
            .map(|i| Value::Float(((i as f32) * 0.137 - 3.5) as f64))
            .collect();
        let v = Value::Array(weights);
        let bytes = to_bytes(&v);
        // 4 bytes per element plus small framing overhead.
        assert!(bytes.len() < 1000 * 4 + 64, "{} bytes", bytes.len());
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn mixed_arrays_stay_general() {
        let v = Value::Array(vec![
            Value::Float(0.1), // not f32-exact
            Value::Int(3),
            Value::Array(vec![Value::Null]),
        ]);
        assert_eq!(round_trip(&v), v);
        // A packed array no writer would pack (empty, or holding a
        // non-finite value) writes as its element-wise form.
        for packed in [vec![], vec![1.0, f32::INFINITY]] {
            let elementwise =
                Value::Array(Value::F32Array(packed.clone()).as_array().unwrap().to_vec());
            assert_eq!(to_bytes(&Value::F32Array(packed)), to_bytes(&elementwise));
            assert_eq!(round_trip(&elementwise), elementwise);
        }
    }

    #[test]
    fn nested_objects_round_trip_through_derive() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Demo {
            name: String,
            values: Vec<f32>,
            seed: u64,
            flag: bool,
        }
        let demo = Demo {
            name: "cache".into(),
            values: vec![1.0, -2.5, 0.125],
            seed: u64::MAX,
            flag: true,
        };
        let encoded = to_bytes(&demo.to_value());
        let decoded = Demo::from_value(&from_bytes(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, demo);
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        assert!(from_bytes(b"").is_err());
        assert!(from_bytes(b"JSON{}").is_err());
        assert!(from_bytes(&[b'T', b'2', b'F', b'B', 9, 9]).is_err());
        let mut truncated = to_bytes(&Value::Str("hello".into()));
        truncated.truncate(truncated.len() - 2);
        assert!(from_bytes(&truncated).is_err());
        let mut trailing = to_bytes(&Value::Null);
        trailing.push(0);
        assert!(from_bytes(&trailing).is_err());
        assert!(!is_binary(b"{}"));
        assert!(is_binary(&to_bytes(&Value::Null)));
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise CRC32 the tables are derived from: one shift and
    /// one conditional xor per bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// Serializes the tests that flip the process-global SIMD dispatch,
    /// so one test's `set_enabled(false)` cannot land between another's
    /// `set_enabled(true)` and the checks that follow it.
    static SIMD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `f` with the carry-less-multiply fold dispatched (the tables
    /// alone on a CPU without it) and with the tables alone, naming the
    /// path, and restores the previous dispatch state.
    fn with_both_crc_paths(mut f: impl FnMut(&str)) {
        let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = simd::set_enabled(true);
        f("fold");
        simd::set_enabled(false);
        f("tables");
        simd::set_enabled(prev);
    }

    #[test]
    fn crc32_tables_match_the_bitwise_oracle() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let buffer: Vec<u8> = (0..(3 << 20) + 13)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        // Every start offset mod 16 shifts where the tables' 8-byte words
        // and the fold's 16-byte blocks fall; the lengths cross the fold's
        // 64-byte minimum and leave every tail of 0..16 bytes to the
        // tables.
        let oracles: Vec<Vec<u32>> = (0..16)
            .map(|offset| {
                let mut lens: Vec<u32> = (0..=300)
                    .map(|len| crc32_bitwise(&buffer[offset..offset + len]))
                    .collect();
                lens.push(crc32_bitwise(&buffer[offset..]));
                lens
            })
            .collect();
        with_both_crc_paths(|path| {
            for (offset, oracle) in oracles.iter().enumerate() {
                for len in 0..=300 {
                    assert_eq!(
                        crc32(&buffer[offset..offset + len]),
                        oracle[len],
                        "{path}: offset {offset}, len {len}"
                    );
                }
                assert_eq!(
                    crc32(&buffer[offset..]),
                    oracle[301],
                    "{path}: offset {offset}, whole buffer"
                );
            }
            // A section checksum chains the key into the payload.
            let (key, payload) = (b"weights".as_slice(), &buffer[..1000]);
            assert_eq!(
                section_crc("weights", payload),
                crc32_bitwise(&[key, payload].concat()),
                "{path}"
            );
        });
    }

    #[test]
    fn files_read_back_across_crc_paths() {
        // Sections long enough for the fold, with tails off the 16-byte
        // grid.
        let value = Value::Object(vec![
            ("seed".to_string(), Value::Int(7)),
            (
                "weights".to_string(),
                Value::F32Array((0..1001).map(|i| i as f32 * -0.375).collect()),
            ),
            (
                "dataset".to_string(),
                sectioned().get("dataset").unwrap().clone(),
            ),
        ]);
        let mut written = Vec::new();
        with_both_crc_paths(|_| written.push(to_bytes(&value)));
        assert!(
            written[0] == written[1],
            "both paths write the same checksums"
        );
        // Each path reads what the other wrote, and still catches a
        // flipped payload byte.
        let mut corrupt = written[0].clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x04;
        with_both_crc_paths(|path| {
            for bytes in &written {
                assert_eq!(from_bytes(bytes).as_ref(), Ok(&value), "{path}");
            }
            assert!(from_bytes(&corrupt).is_err(), "{path}");
        });
    }

    /// A bare-layout file holding one section with `payload`, framed
    /// and checksummed as `to_bytes` frames one.
    fn bare_file(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(LAYOUT_BARE);
        write_len(1, &mut out);
        write_len(0, &mut out);
        write_len(payload.len(), &mut out);
        out.extend_from_slice(&section_crc("", payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn packed_decode_gives_the_elementwise_bits() {
        // Edge floats, and quiet NaNs with payloads, which no writer
        // packs but a file can hold.
        let bits: Vec<u32> = [
            -0.0f32,
            0.0,
            f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            0.1,
        ]
        .iter()
        .map(|f| f.to_bits())
        .chain([0x7FC0_0001, 0xFFC1_2345, 0x7FFF_FFFF])
        .collect();
        let mut payload = vec![TAG_F32_ARRAY];
        write_len(bits.len(), &mut payload);
        for b in &bits {
            payload.extend_from_slice(&b.to_le_bytes());
        }
        let decoded = from_bytes(&bare_file(&payload)).unwrap();
        let Value::F32Array(packed) = &decoded else {
            panic!("an f32 array must decode packed, got {decoded:?}");
        };
        assert_eq!(packed.iter().map(|f| f.to_bits()).collect::<Vec<_>>(), bits);
        // The element-wise path: one `Value::Float` per element, then
        // each element's own `from_value`.
        let elementwise: Vec<Value> = bits
            .iter()
            .map(|&b| Value::Float(f32::from_bits(b) as f64))
            .collect();
        let as_f32 = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let expected: Vec<f32> = elementwise
            .iter()
            .map(|v| f32::from_value(v).unwrap())
            .collect();
        assert_eq!(
            as_f32(&Vec::<f32>::from_value(&decoded).unwrap()),
            as_f32(&expected)
        );
        let as_f64 = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let expected: Vec<f64> = elementwise
            .iter()
            .map(|v| f64::from_value(v).unwrap())
            .collect();
        assert_eq!(
            as_f64(&Vec::<f64>::from_value(&decoded).unwrap()),
            as_f64(&expected)
        );
    }

    #[test]
    fn tuple_structs_and_variants_read_packed_arrays() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Point(f32, f32, f32);
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        enum Shape {
            Segment(f32, f64),
            Empty,
        }
        let point = Point(1.0, -0.0, f32::MIN_POSITIVE);
        let decoded = from_bytes(&to_bytes(&point.to_value())).unwrap();
        assert!(matches!(decoded, Value::F32Array(_)), "{decoded:?}");
        assert_eq!(Point::from_value(&decoded).unwrap(), point);
        for shape in [Shape::Segment(0.25, -3.0), Shape::Empty] {
            let decoded = from_bytes(&to_bytes(&shape.to_value())).unwrap();
            assert_eq!(Shape::from_value(&decoded).unwrap(), shape);
        }
        assert!(Point::from_value(&Value::F32Array(vec![1.0])).is_err());
    }

    #[test]
    fn version_one_files_are_rejected() {
        // Hand-craft a V1 artifact (magic + version 1 + bare tree, no
        // checksums) — exactly what pre-V2 writers produced on disk. It
        // carries no checksums, so it must read as an error (a cache
        // miss), never as a value.
        let value = Value::Object(vec![
            ("seed".to_string(), Value::Int(7)),
            (
                "weights".to_string(),
                Value::Array(vec![Value::Float(1.5), Value::Float(-0.25)]),
            ),
        ]);
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MAGIC);
        v1.extend_from_slice(&1u16.to_le_bytes());
        write_value(&value, &mut v1);
        assert!(is_binary(&v1));
        let err = from_bytes(&v1).unwrap_err();
        assert!(err.contains("version 1"), "unhelpful error: {err}");
    }

    /// A three-section object file: a scalar, a packed array, and an
    /// object laid out like a cached dataset (`spec`, then `images`
    /// holding its `shape` ahead of its `data`, then `labels`).
    fn sectioned() -> Value {
        let floats = |n: usize| Value::F32Array((0..n).map(|i| i as f32 * 0.25).collect());
        Value::Object(vec![
            ("seed".to_string(), Value::Int(7)),
            ("weights".to_string(), floats(64)),
            (
                "dataset".to_string(),
                Value::Object(vec![
                    ("spec".to_string(), Value::Str("tiny".into())),
                    (
                        "images".to_string(),
                        Value::Object(vec![
                            (
                                "shape".to_string(),
                                Value::Array(vec![Value::Int(4), Value::Int(8)]),
                            ),
                            ("data".to_string(), floats(32)),
                        ]),
                    ),
                    ("labels".to_string(), Value::Array(vec![Value::Int(1); 4])),
                ]),
            ),
        ])
    }

    /// Walks `bytes` with `take` both as a stream and in memory, and
    /// returns what the stream walk read after checking that the two
    /// agree.
    fn read_both(bytes: &[u8], mut take: impl FnMut(&str) -> Take) -> Result<Value, String> {
        let streamed = read_sections(&mut Cursor::new(bytes), &mut take);
        assert_eq!(streamed, walk(&mut &bytes[..], &mut take));
        streamed
    }

    #[test]
    fn skipped_sections_leave_the_rest_as_from_bytes_reads_them() {
        let bytes = to_bytes(&sectioned());
        let whole = from_bytes(&bytes).unwrap();
        let only = |keep: &'static str| {
            move |key: &str| {
                if key == keep {
                    Take::Whole
                } else {
                    Take::Skip
                }
            }
        };
        for key in ["seed", "weights", "dataset"] {
            let taken = read_both(&bytes, only(key)).unwrap();
            assert_eq!(
                taken,
                Value::Object(vec![(key.to_string(), whole.get(key).unwrap().clone())])
            );
        }
        assert_eq!(
            read_both(&bytes, |_| Take::Skip).unwrap(),
            Value::Object(vec![])
        );
        // A head keeps the entries ahead of the path's end, whole.
        let head = read_both(&bytes, |key| match key {
            "dataset" => Take::Head(&["images", "data"]),
            _ => Take::Whole,
        })
        .unwrap();
        let dataset = whole.get("dataset").unwrap();
        let images = dataset.get("images").unwrap();
        assert_eq!(head.get("seed"), whole.get("seed"));
        assert_eq!(head.get("weights"), whole.get("weights"));
        assert_eq!(
            head.get("dataset").unwrap(),
            &Value::Object(vec![
                ("spec".to_string(), dataset.get("spec").unwrap().clone()),
                (
                    "images".to_string(),
                    Value::Object(vec![(
                        "shape".to_string(),
                        images.get("shape").unwrap().clone()
                    )])
                ),
            ])
        );
        // An empty path, or one never met, reads the whole value; a path
        // into a value that is no object is an error.
        for path in [&[][..], &["nowhere"][..]] {
            let read = read_both(&bytes, |key| match key {
                "dataset" => Take::Head(path),
                _ => Take::Whole,
            })
            .unwrap();
            assert_eq!(read, whole, "{path:?}");
        }
        let err = read_both(&bytes, |_| Take::Head(&["data"])).unwrap_err();
        assert!(err.contains("expected an object"), "{err}");
        // A bare file reads as its value, or `Null` when skipped.
        let bare = to_bytes(&Value::Int(3));
        assert_eq!(read_both(&bare, |_| Take::Whole).unwrap(), Value::Int(3));
        assert_eq!(read_both(&bare, |_| Take::Skip).unwrap(), Value::Null);
        // The walk starts at the reader's position.
        let mut offset = vec![0xAB; 5];
        offset.extend_from_slice(&bytes);
        let mut reader = Cursor::new(&offset[..]);
        reader.set_position(5);
        assert_eq!(read_sections(&mut reader, |_| Take::Whole).unwrap(), whole);
    }

    #[test]
    fn skipping_checks_no_payload_but_still_bounds_it() {
        let bytes = to_bytes(&sectioned());
        let whole = from_bytes(&bytes).unwrap();
        // The last byte of the file is the dataset's last label: flipped,
        // it fails a whole read but not a skip or a head of that section.
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        assert!(from_bytes(&corrupt)
            .unwrap_err()
            .contains("`dataset` checksum"));
        let skipped = read_both(&corrupt, |key| match key {
            "dataset" => Take::Skip,
            _ => Take::Whole,
        })
        .unwrap();
        assert_eq!(skipped.get("weights"), whole.get("weights"));
        let head = read_both(&corrupt, |key| match key {
            "dataset" => Take::Head(&["images"]),
            _ => Take::Whole,
        })
        .unwrap();
        assert_eq!(head.get("weights"), whole.get("weights"));
    }

    #[test]
    fn bad_lengths_and_truncations_are_errors_not_panics() {
        let bytes = to_bytes(&sectioned());
        // The first section's payload length sits after the header (7
        // bytes), the section count (8) and the key `seed` (8 + 4).
        let len_at = 7 + 8 + 8 + 4;
        let mut past_eof = bytes.clone();
        past_eof[len_at..len_at + 8].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
        for take in [Take::Whole, Take::Skip, Take::Head(&["data"])] {
            let err = read_both(&past_eof, |_| take).unwrap_err();
            assert!(err.contains("past the end"), "{take:?}: {err}");
        }
        // A length near `u64::MAX` is refused before anything is
        // allocated for it.
        let mut huge = bytes.clone();
        huge[len_at..len_at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(read_both(&huge, |_| Take::Whole).is_err());
        // Every truncation of the file, header included, is an error
        // whatever is taken.
        for cut in 0..bytes.len() {
            for take in [Take::Whole, Take::Skip, Take::Head(&["images", "data"])] {
                assert!(
                    read_both(&bytes[..cut], |_| take).is_err(),
                    "cut {cut}, {take:?}"
                );
            }
        }
        // A dataset section framed whole, but whose payload ends inside
        // its head, is an error for a head read.
        let dataset = Value::Object(vec![(
            "dataset".to_string(),
            sectioned().get("dataset").unwrap().clone(),
        )]);
        let mut payload = Vec::new();
        write_value(dataset.get("dataset").unwrap(), &mut payload);
        for cut in [1, 9, 20, payload.len() / 4] {
            let short = &payload[..cut];
            let mut file = Vec::new();
            file.extend_from_slice(&MAGIC);
            file.extend_from_slice(&VERSION.to_le_bytes());
            file.push(LAYOUT_OBJECT);
            write_len(1, &mut file);
            write_len(7, &mut file);
            file.extend_from_slice(b"dataset");
            write_len(short.len(), &mut file);
            file.extend_from_slice(&section_crc("dataset", short).to_le_bytes());
            file.extend_from_slice(short);
            let err = read_both(&file, |_| Take::Head(&["images", "data"])).unwrap_err();
            assert!(err.contains("end of data"), "cut {cut}: {err}");
            assert!(read_both(&file, |_| Take::Skip).is_ok());
        }
    }

    #[test]
    fn from_bytes_still_rejects_trailing_bytes_and_unknown_versions() {
        let bytes = to_bytes(&sectioned());
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0, 0]);
        assert_eq!(from_bytes(&trailing).unwrap_err(), "2 trailing bytes");
        for version in [0u16, 1, 3, u16::MAX] {
            let mut other = bytes.clone();
            other[4..6].copy_from_slice(&version.to_le_bytes());
            let err = from_bytes(&other).unwrap_err();
            assert!(err.contains(&format!("version {version}")), "{err}");
        }
    }

    #[test]
    fn flipped_bytes_are_quarantined_with_the_section_named() {
        let value = Value::Object(vec![
            ("meta".to_string(), Value::Str("tiny".into())),
            (
                "weights".to_string(),
                Value::Array((0..64).map(|i| Value::Float(i as f64 * 0.5)).collect()),
            ),
        ]);
        let clean = to_bytes(&value);
        assert_eq!(from_bytes(&clean).unwrap(), value);
        // Flip one bit in every byte position of the file in turn: the
        // parser must reject (or, for the rare structural-equivalent
        // flip, never silently change a section's *payload*) and never
        // panic.
        let mut detected = 0usize;
        for pos in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[pos] ^= 0x10;
            if from_bytes(&corrupt).is_err() {
                detected += 1;
            }
        }
        // Every payload byte is covered by a checksum; only some header
        // bytes (e.g. the stored CRC itself colliding is impossible for
        // a 1-bit flip) could do anything else, and in practice every
        // flip must be caught.
        assert_eq!(
            detected,
            clean.len(),
            "every single-bit corruption must be detected"
        );
        // The error names the section it hit.
        let mut corrupt = clean.clone();
        let last = clean.len() - 1; // inside the `weights` payload
        corrupt[last] ^= 0xFF;
        let err = from_bytes(&corrupt).unwrap_err();
        assert!(
            err.contains("weights") && err.contains("checksum"),
            "unhelpful corruption error: {err}"
        );
    }
}
