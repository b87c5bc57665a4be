//! Hex: the content hash's 64-digit rendering and the one
//! `bytes.fromhex(...)` decoder, over one digit parser.

/// `b`'s value as an ASCII hex digit, either case.
fn digit(b: u8) -> Option<u8> {
    (b as char).to_digit(16).map(|d| d as u8)
}

/// Renders a raw digest as 64 lowercase hex chars.
pub fn to_hex(digest: &[u8; 32]) -> String {
    let mut s = String::with_capacity(64);
    for &b in digest {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xF) as u32, 16).expect("nibble"));
    }
    s
}

/// Parses 64 hex digits (either case) back into the raw digest that
/// [`to_hex`] renders; `None` for any other length or a non-hex digit.
/// Allocates nothing.
pub fn from_hex(hex: &str) -> Option<[u8; 32]> {
    let hex = hex.as_bytes();
    if hex.len() != 64 {
        return None;
    }
    let mut digest = [0u8; 32];
    for (byte, pair) in digest.iter_mut().zip(hex.chunks_exact(2)) {
        *byte = digit(pair[0])? << 4 | digit(pair[1])?;
    }
    Some(digest)
}

/// Appends the bytes `bytes.fromhex(text)` yields to `out`: true when
/// `text` is a non-empty, even run of ASCII hex digits (either case) once
/// every whitespace char ([`char::is_whitespace`]) is dropped. On false,
/// `out` holds whatever decoded before the fault.
pub fn decode_into(text: &str, out: &mut Vec<u8>) -> bool {
    let start = out.len();
    let mut high = None;
    for c in text.chars().filter(|c| !c.is_whitespace()) {
        let Some(d) = u8::try_from(c).ok().and_then(digit) else {
            return false;
        };
        match high.take() {
            None => high = Some(d),
            Some(h) => out.push(h << 4 | d),
        }
    }
    high.is_none() && out.len() > start
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decoded(text: &str) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        decode_into(text, &mut out).then_some(out)
    }

    #[test]
    fn decodes_either_case_to_the_written_bytes() {
        assert_eq!(decoded("6576696c"), Some(b"evil".to_vec()));
        assert_eq!(decoded("6F732E73"), Some(b"os.s".to_vec()));
        assert_eq!(decoded("aAbBfF09"), Some(vec![0xAA, 0xBB, 0xFF, 0x09]));
        assert_eq!(decoded("00ff"), Some(vec![0x00, 0xFF]));
    }

    #[test]
    fn drops_every_whitespace_char_even_inside_a_pair() {
        assert_eq!(decoded("65 76 69 6c"), Some(b"evil".to_vec()));
        assert_eq!(decoded("65\t76\n69\r\n6c "), Some(b"evil".to_vec()));
        assert_eq!(decoded("6 5"), Some(vec![0x65]));
        // U+00A0, a non-breaking space, is whitespace to `char`.
        assert_eq!(decoded("65\u{a0}76"), Some(vec![0x65, 0x76]));
    }

    #[test]
    fn rejects_odd_empty_blank_and_non_hex_input() {
        assert_eq!(decoded("657"), None, "an odd digit count");
        assert_eq!(decoded(""), None, "empty");
        assert_eq!(decoded(" \t\n"), None, "whitespace only");
        assert_eq!(decoded("65zz"), None, "a non-hex letter");
        assert_eq!(decoded("6é"), None, "a non-ASCII char");
        assert_eq!(decoded("0x65"), None, "a prefix");
        // Fullwidth digits are digits to Unicode, not to `fromhex`.
        assert_eq!(decoded("\u{ff16}\u{ff15}"), None);
    }

    #[test]
    fn appends_to_what_the_buffer_holds() {
        let mut out = vec![1, 2];
        assert!(decode_into("0304", &mut out));
        assert_eq!(out, [1, 2, 3, 4]);
        // Nothing decoded is a rejection even on a non-empty buffer.
        assert!(!decode_into(" ", &mut out));
        assert_eq!(out, [1, 2, 3, 4]);
    }
}
