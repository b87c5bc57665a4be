//! Constant-string folding primitives.
//!
//! The obfuscator's string arm rewrites `'evil.com'` into
//! `('ev' + 'il' + '.com')`, `bytes.fromhex('6576696c2e636f6d')
//! .decode('utf-8')` or `__import__('base64').b64decode('ZXZpbC5jb20=')
//! .decode('utf-8')`. Each helper here inverts one of those runtime
//! shapes given already-constant operands; the engine composes them
//! bottom-up so arbitrarily nested chains collapse to the original
//! literal. The decoders write into a buffer the caller keeps.

/// `base64.b64decode(arg)`: appends the decoding to `bytes`, false when
/// `arg` is not base64.
pub fn b64decode(arg: &str, bytes: &mut Vec<u8>) -> bool {
    digest::base64::decode_into(arg.trim(), bytes).is_ok()
}

/// `chr(arg)` for a constant number.
pub fn chr(arg: &str) -> Option<char> {
    char::from_u32(arg.trim().parse().ok()?)
}

/// `fmt % value` with a single conversion: the offset of the `%s`, `%d`
/// or `%r` that `value` replaces.
pub fn percent_at(fmt: &str) -> Option<usize> {
    let at = fmt.find('%')?;
    let single = fmt.matches('%').count() == 1;
    (single && fmt[at + 1..].starts_with(['s', 'd', 'r'])).then_some(at)
}

/// True for string methods that preserve a constant receiver
/// (`.decode('utf-8')` on folded bytes, `.strip()`, `.lower()`, ...).
pub fn const_preserving_method(name: &str) -> bool {
    matches!(
        name,
        "decode" | "encode" | "strip" | "lstrip" | "rstrip" | "lower" | "upper" | "format"
    )
}

/// Appends decoded bytes as text: UTF-8 when valid, Latin-1-style
/// fallback otherwise (mirrors the tolerant lexer, keeps every byte
/// visible).
pub fn push_lossy(bytes: &[u8], out: &mut String) {
    match std::str::from_utf8(bytes) {
        Ok(s) => out.push_str(s),
        Err(_) => out.extend(bytes.iter().map(|&b| b as char)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(ok: bool, bytes: &[u8]) -> Option<String> {
        let mut out = String::new();
        push_lossy(bytes, &mut out);
        ok.then_some(out)
    }

    #[test]
    fn b64_roundtrip() {
        let mut bytes = Vec::new();
        let enc = digest::base64::encode(b"evil.com/payload");
        let ok = b64decode(&enc, &mut bytes);
        assert_eq!(text(ok, &bytes).as_deref(), Some("evil.com/payload"));
        assert!(!b64decode("!!!", &mut bytes));
    }

    /// `bytes.fromhex(..)` as the folder runs it: the shared decoder on a
    /// cleared buffer, then the text fold.
    #[test]
    fn hex_roundtrip() {
        let mut bytes = Vec::new();
        let mut fromhex = |arg: &str| {
            bytes.clear();
            let ok = digest::hex::decode_into(arg, &mut bytes);
            text(ok, &bytes)
        };
        assert_eq!(fromhex("6576696c").as_deref(), Some("evil"));
        assert_eq!(fromhex("65 76 69 6c").as_deref(), Some("evil"));
        for bad in ["zz", "657", "", "6é"] {
            assert_eq!(fromhex(bad), None, "{bad}");
        }
        // Not UTF-8: each byte folds to the Latin-1 char of its value.
        assert_eq!(fromhex("ff").as_deref(), Some("ÿ"));
        assert_eq!(fromhex("c3a9ff").as_deref(), Some("Ã©ÿ"));
    }

    #[test]
    fn chr_and_percent() {
        assert_eq!(chr("101"), Some('e'));
        assert_eq!(chr("xx"), None);
        assert_eq!(percent_at("https://%s/x"), Some(8));
        assert_eq!(percent_at("%d"), Some(0));
        // Two conversions can't be filled from one value.
        assert_eq!(percent_at("%s:%s"), None);
        assert_eq!(percent_at("100%"), None);
    }
}
