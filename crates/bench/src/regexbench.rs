//! Tiered-matching table: per-pattern-class speedup of the Teddy + lazy
//! DFA pipeline over the plain Aho-Corasick + Pike VM path (ISSUE 9) —
//! the one comparison `benchmark/` does not cover.
//!
//! One shared buffer carries a handful of *early* true matches for every
//! class followed by a long near-miss tail — the shape registry scans
//! actually have (verdicts decided early, most bytes are misses). Each
//! class is timed twice over identical input: the public tiered entry
//! points (lazy-DFA gate, Teddy prefilter) against the pure Pike VM /
//! Aho-Corasick baselines, asserting byte-identical matches on every
//! run. The timings and their geometric mean are printed for reading and
//! asserted nowhere; which tier ran is asserted exactly, in
//! `tests/tier_counters.rs`, and the seed's restart-per-offset engine
//! checks the same classes in this module's tests.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use textmatch::{AhoCorasick, MatchKind, MultiLiteral, Regex};

/// The regex pattern classes the tiered pipeline is judged on. Each
/// stresses a different tier-selection path:
///
/// * `literal-prefix` — accelerated identically by both engines up to
///   the prefix, then the DFA wins the post-prefix verification.
/// * `nocase` — case-folded byte classes defeat single-byte memchr
///   tricks; the DFA collapses them into class transitions.
/// * `alternation-heavy` — many branches keep the Pike VM's thread list
///   wide; the DFA determinizes them into one state walk.
/// * `unanchored-suffix` — no usable prefix literal and a match that
///   can start at every word byte: the Pike VM's worst case.
pub const REGEX_CLASSES: &[(&str, &str, bool)] = &[
    ("literal-prefix", r"os\.system\([^)]{0,40}\)", false),
    (
        "nocase",
        r"createremotethread|virtualallocex|writeprocessmemory|setwindowshookex",
        true,
    ),
    (
        "alternation-heavy",
        r"(wget|curl) -[a-zA-Z]{1,4} https?://[a-z0-9./-]{8,60}|nc -e /bin/(sh|bash)|/dev/tcp/[0-9.]{7,15}",
        false,
    ),
    (
        "unanchored-suffix",
        r"[A-Za-z0-9_\-]{4,24}\.(exe|dll|scr|bat)",
        false,
    ),
];

/// The IOC literal set for the `multi-literal` row: Teddy-eligible
/// (every pattern ≥ 2 bytes, ≤ 128 patterns) and scanned case-insensitively
/// like the scanner and prefilter tiers do.
pub const MULTI_LITERALS: &[&str] = &[
    "os.system",
    "subprocess.popen",
    "eval(",
    "exec(",
    "base64.b64decode",
    "socket.socket",
    "requests.post",
    "urllib.request",
    "ctypes.windll",
    "shutil.rmtree",
    "paramiko.sshclient",
    "keylogger",
    "exfiltrate",
    "ransom_note",
    "c2_beacon",
    "dropper_stage",
];

/// One class's measurement on the shared buffer.
#[derive(Debug, Clone)]
pub struct ClassRow {
    /// Class label (`REGEX_CLASSES` name or `"multi-literal"`).
    pub class: &'static str,
    /// Matches found (identical for both paths by assertion).
    pub matches: usize,
    /// Wall-clock milliseconds for the baseline (Pike VM / Aho-Corasick).
    pub baseline_ms: f64,
    /// Wall-clock milliseconds for the tiered path (lazy DFA / Teddy).
    pub tiered_ms: f64,
}

impl ClassRow {
    /// baseline / tiered; > 1 means the tiered pipeline is faster.
    pub fn speedup(&self) -> f64 {
        if self.tiered_ms > 0.0 {
            self.baseline_ms / self.tiered_ms
        } else {
            f64::INFINITY
        }
    }
}

/// The full comparison over one buffer.
#[derive(Debug, Clone)]
pub struct RegexBenchStats {
    /// Buffer length in bytes.
    pub len: usize,
    /// Per-class rows, [`REGEX_CLASSES`] order then `multi-literal`.
    pub rows: Vec<ClassRow>,
}

impl RegexBenchStats {
    /// Geometric mean of the per-class speedups, robust to one class
    /// dominating the sum.
    pub fn geomean_speedup(&self) -> f64 {
        if self.rows.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.rows.iter().map(|r| r.speedup().ln()).sum();
        (log_sum / self.rows.len() as f64).exp()
    }
}

/// A deterministic scan buffer of (at least) `len` bytes: a short head
/// planting a few true matches for every class, then a near-miss tail —
/// word-dense filler, case-mangled API names, shell-ish fragments and
/// dotted paths that bait every class's first bytes without ever
/// completing a match.
pub fn class_buffer(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len + 256);
    // Early true matches, a few per class, all inside the first ~2 KiB.
    for i in 0..4u64 {
        out.extend_from_slice(format!("os.system('id {i}')\n").as_bytes());
        out.extend_from_slice(b"h = CreateRemoteThread(proc)\n");
        out.extend_from_slice(
            format!("run('wget -qO https://host{i}.example.com/x')\n").as_bytes(),
        );
        out.extend_from_slice(format!("drop = 'stage{i}_payload.exe'\n").as_bytes());
        out.extend_from_slice(b"import base64; base64.b64decode(s)\n");
        out.extend_from_slice(b"beacon = 'c2_beacon'\n");
    }
    // Near-miss tail: every class's bait, nothing ever matches.
    while out.len() < len {
        match rng.next_u64() % 5 {
            0 => {
                // Literal-prefix bait: the prefix appears, the close
                // paren never does within the bounded repeat.
                let v = rng.next_u64() % 1000;
                out.extend_from_slice(
                    format!("log('os.system{v} left unquoted and unclosed forever\n").as_bytes(),
                );
            }
            1 => {
                // Nocase bait: case-mangled API stems with a digit
                // spliced in before the suffix completes.
                let stems = ["CreateRemoteThr3ad", "virtualAll0cEx", "WriteProcessMem0ry"];
                let s = stems[(rng.next_u64() % 3) as usize];
                out.extend_from_slice(format!("sym_{s} = resolve('{s}')\n").as_bytes());
            }
            2 => {
                // Alternation bait: the branch heads appear ("wget ",
                // "nc -", "/dev/") but every continuation breaks off.
                let v = rng.next_u64() % 100;
                out.extend_from_slice(
                    format!("note = 'wget mirror {v} nc -z /dev/null curl .'\n").as_bytes(),
                );
            }
            3 => {
                // Suffix bait: long identifier words that end in benign
                // extensions — the Pike VM keeps a thread alive at every
                // byte of every word.
                let a = rng.next_u64();
                out.extend_from_slice(
                    format!("module_load_{a:016x}_resource_pack.json\n").as_bytes(),
                );
            }
            _ => {
                // Multi-literal bait: fragments sharing 2-3 byte
                // prefixes with the IOC set so Teddy's verification
                // actually runs.
                let v = rng.next_u64() % 1000;
                out.extend_from_slice(
                    format!("osmosis_{v} = subprocess_free(evaluate, executor)\n").as_bytes(),
                );
            }
        }
    }
    out.truncate(len);
    out
}

/// Runs every class over a fresh `len`-byte buffer, timing the tiered
/// path against the baseline and asserting byte-identical matches.
///
/// # Panics
///
/// Panics if any pair of engines disagrees — the bench doubles as an
/// end-to-end differential check against the Pike VM and Aho-Corasick
/// on the full buffer.
pub fn compare(len: usize, seed: u64) -> RegexBenchStats {
    let data = class_buffer(len, seed);
    let mut rows = Vec::new();
    for (class, pattern, nocase) in REGEX_CLASSES {
        let re = class_regex(pattern, *nocase);
        let t = Instant::now();
        let tiered = re.find_all(&data);
        let tiered_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let baseline = re.find_all_pike(&data);
        let baseline_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(tiered, baseline, "tiered != Pike VM on class {class}");
        assert!(!tiered.is_empty(), "class {class} must match the buffer");
        rows.push(ClassRow {
            class,
            matches: tiered.len(),
            baseline_ms,
            tiered_ms,
        });
    }
    // Multi-literal: Teddy tier vs the Aho-Corasick baseline.
    let ml = MultiLiteral::new(MULTI_LITERALS, MatchKind::CaseInsensitive);
    assert!(ml.uses_teddy(), "IOC literal set must be Teddy-eligible");
    let ac = AhoCorasick::new(MULTI_LITERALS, MatchKind::CaseInsensitive);
    let t = Instant::now();
    let tiered = ml.find_all(&data);
    let tiered_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let baseline = ac.find_all(&data);
    let baseline_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(tiered, baseline, "Teddy != Aho-Corasick on the IOC set");
    assert!(!tiered.is_empty(), "the IOC set must match the buffer");
    rows.push(ClassRow {
        class: "multi-literal",
        matches: tiered.len(),
        baseline_ms,
        tiered_ms,
    });
    RegexBenchStats { len, rows }
}

fn class_regex(pattern: &str, nocase: bool) -> Regex {
    if nocase {
        Regex::new_nocase(pattern)
    } else {
        Regex::new(pattern)
    }
    .expect("bench pattern compiles")
}

/// Renders the comparison as an aligned text table.
pub fn render(stats: &RegexBenchStats) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Tiered matching: Teddy + lazy DFA vs AC + Pike VM ({} KiB scan buffer)\n",
        stats.len / 1024
    ));
    out.push_str(&format!(
        "{:<18} {:>9} {:>13} {:>12} {:>9}\n",
        "class", "matches", "baseline (ms)", "tiered (ms)", "speedup"
    ));
    for r in &stats.rows {
        out.push_str(&format!(
            "{:<18} {:>9} {:>13.2} {:>12.2} {:>8.1}x\n",
            r.class,
            r.matches,
            r.baseline_ms,
            r.tiered_ms,
            r.speedup()
        ));
    }
    out.push_str(&format!(
        "{:<18} {:>9} {:>13} {:>12} {:>8.1}x\n",
        "GEOMEAN",
        "",
        "",
        "",
        stats.geomean_speedup()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_buffer_is_deterministic_and_sized() {
        let a = class_buffer(8192, 42);
        let b = class_buffer(8192, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8192);
        assert_ne!(a, class_buffer(8192, 43));
    }

    #[test]
    fn every_class_matches_and_engines_agree() {
        // `compare` asserts tiered == Pike internally; a small buffer
        // keeps debug builds affordable.
        let stats = compare(32 << 10, 7);
        assert_eq!(stats.rows.len(), REGEX_CLASSES.len() + 1);
        for row in &stats.rows {
            assert!(row.matches > 0, "class {} found nothing", row.class);
        }
        assert!(stats.geomean_speedup().is_finite());
    }

    /// The seed's restart-per-offset engine agrees with the tiered path
    /// on the first 32 KiB of the buffer `repro` runs, `compare(1 << 20, 42)`.
    #[test]
    fn the_reference_engine_agrees_on_the_repro_buffer_prefix() {
        let data = class_buffer(1 << 20, 42);
        let prefix = &data[..32 << 10];
        for (class, pattern, nocase) in REGEX_CLASSES {
            let re = class_regex(pattern, *nocase);
            let want = oracles::ReferenceRegex::from_regex(&re).find_all(prefix);
            assert!(!want.is_empty(), "class {class} must match the prefix");
            assert_eq!(re.find_all(prefix), want, "tiered != reference on {class}");
        }
    }
}
