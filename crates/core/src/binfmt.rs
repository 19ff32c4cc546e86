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
//! other unknown version. The checksum is table-driven (slicing-by-8:
//! about 0.8 ns per byte on a 2-vCPU AVX2 VM, where the bitwise loop
//! took 7), over the same polynomial, so it reads and writes the same
//! values.
//!
//! ## Decoding
//!
//! A packed f32 array decodes into one [`Value::F32Array`], not into
//! one [`Value::Float`] per element: a cached VGG holds millions of
//! weights, and an element-wise tree of them would take 8× the file's
//! size in memory before `from_value` copies them out again. Every
//! array consumer of the serde shim reads the packed form as the
//! element-wise one, and writing it back produces the same bytes.

use serde::Value;

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

/// IEEE CRC32 (reflected, polynomial `0xEDB88320`), slicing-by-8 —
/// no external crate.
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

fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
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
/// CRC32 checksum.
///
/// # Errors
///
/// Returns a description of the first structural problem encountered,
/// including which section a checksum mismatch hit.
pub fn from_bytes(bytes: &[u8]) -> Result<Value, String> {
    if !is_binary(bytes) {
        return Err("missing T2FB magic".to_string());
    }
    if bytes.len() < 6 {
        return Err("truncated header".to_string());
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(format!("unsupported binary cache version {version}"));
    }
    let mut cursor = 6usize;
    let value = read_sections(bytes, &mut cursor)?;
    if cursor != bytes.len() {
        return Err(format!("{} trailing bytes", bytes.len() - cursor));
    }
    Ok(value)
}

/// Reads the checksummed section list (see the module docs).
fn read_sections(bytes: &[u8], cursor: &mut usize) -> Result<Value, String> {
    let layout = read_exact(bytes, cursor, 1)?[0];
    if layout != LAYOUT_OBJECT && layout != LAYOUT_BARE {
        return Err(format!("unknown section layout {layout}"));
    }
    let count = read_len(bytes, cursor)?;
    if layout == LAYOUT_BARE && count != 1 {
        return Err(format!(
            "bare layout must hold exactly 1 section, got {count}"
        ));
    }
    let mut pairs = Vec::with_capacity(count.min(bytes.len() - *cursor));
    for _ in 0..count {
        let key = read_string(bytes, cursor)?;
        let len = read_len(bytes, cursor)?;
        let stored = u32::from_le_bytes(read_exact(bytes, cursor, 4)?.try_into().expect("4 bytes"));
        let payload = read_exact(bytes, cursor, len)?;
        let computed = section_crc(&key, payload);
        if computed != stored {
            return Err(format!(
                "section `{key}` checksum mismatch (stored {stored:08x}, computed {computed:08x}) \
                 — artifact corrupted"
            ));
        }
        let mut inner = 0usize;
        let value = read_value(payload, &mut inner)?;
        if inner != payload.len() {
            return Err(format!(
                "section `{key}` has {} trailing payload bytes",
                payload.len() - inner
            ));
        }
        pairs.push((key, value));
    }
    Ok(if layout == LAYOUT_BARE {
        pairs.pop().expect("count checked above").1
    } else {
        Value::Object(pairs)
    })
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

fn read_exact<'a>(bytes: &'a [u8], cursor: &mut usize, n: usize) -> Result<&'a [u8], String> {
    let end = cursor
        .checked_add(n)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| "unexpected end of data".to_string())?;
    let slice = &bytes[*cursor..end];
    *cursor = end;
    Ok(slice)
}

fn read_len(bytes: &[u8], cursor: &mut usize) -> Result<usize, String> {
    let raw = read_exact(bytes, cursor, 8)?;
    let len = u64::from_le_bytes(raw.try_into().expect("8 bytes"));
    usize::try_from(len).map_err(|_| format!("length {len} exceeds usize"))
}

fn read_string(bytes: &[u8], cursor: &mut usize) -> Result<String, String> {
    let len = read_len(bytes, cursor)?;
    let raw = read_exact(bytes, cursor, len)?;
    String::from_utf8(raw.to_vec()).map_err(|e| format!("invalid UTF-8 string: {e}"))
}

fn read_value(bytes: &[u8], cursor: &mut usize) -> Result<Value, String> {
    let tag = read_exact(bytes, cursor, 1)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_FALSE => Value::Bool(false),
        TAG_TRUE => Value::Bool(true),
        TAG_INT => {
            let raw = read_exact(bytes, cursor, 16)?;
            Value::Int(i128::from_le_bytes(raw.try_into().expect("16 bytes")))
        }
        TAG_FLOAT => {
            let raw = read_exact(bytes, cursor, 8)?;
            Value::Float(f64::from_le_bytes(raw.try_into().expect("8 bytes")))
        }
        TAG_STR => Value::Str(read_string(bytes, cursor)?),
        TAG_ARRAY => {
            let len = read_len(bytes, cursor)?;
            // Each element is at least one tag byte; bound the
            // preallocation by the remaining input.
            let mut items = Vec::with_capacity(len.min(bytes.len() - *cursor));
            for _ in 0..len {
                items.push(read_value(bytes, cursor)?);
            }
            Value::Array(items)
        }
        TAG_F32_ARRAY => {
            let len = read_len(bytes, cursor)?;
            let raw = read_exact(bytes, cursor, len.checked_mul(4).ok_or("length overflow")?)?;
            Value::F32Array(
                raw.chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect(),
            )
        }
        TAG_OBJECT => {
            let len = read_len(bytes, cursor)?;
            let mut pairs = Vec::with_capacity(len.min(bytes.len() - *cursor));
            for _ in 0..len {
                let key = read_string(bytes, cursor)?;
                pairs.push((key, read_value(bytes, cursor)?));
            }
            Value::Object(pairs)
        }
        other => return Err(format!("unknown tag {other}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

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
        // Every start offset mod 8 shifts where the 8-byte words fall.
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buffer[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "offset {offset}, len {len}"
                );
            }
            let slice = &buffer[offset..];
            assert_eq!(
                crc32(slice),
                crc32_bitwise(slice),
                "offset {offset}, whole buffer"
            );
        }
        // A section checksum chains the key into the payload.
        let (key, payload) = (b"weights".as_slice(), &buffer[..1000]);
        assert_eq!(
            section_crc("weights", payload),
            crc32_bitwise(&[key, payload].concat())
        );
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
