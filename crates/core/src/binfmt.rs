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
//! other unknown version.

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

/// IEEE CRC32 (reflected, polynomial `0xEDB88320`), computed bytewise —
/// no external crate, and fast enough for cache-sized payloads.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0u32, bytes)
}

fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &byte in bytes {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
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
        Value::Array(items) => {
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
                for item in items {
                    let Value::Float(f) = item else {
                        unreachable!()
                    };
                    out.extend_from_slice(&(*f as f32).to_le_bytes());
                }
            } else {
                out.push(TAG_ARRAY);
                write_len(items.len(), out);
                for item in items {
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
            Value::Array(
                raw.chunks_exact(4)
                    .map(
                        |c| Value::Float(f32::from_le_bytes(c.try_into().expect("4 bytes")) as f64),
                    )
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
        from_bytes(&to_bytes(value)).expect("round trip")
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
