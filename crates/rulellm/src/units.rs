//! Basic-unit extraction (§IV-A).
//!
//! A basic unit is a self-contained code block: a module fragment, a
//! function body or a class definition. The paper's extraction procedure:
//! (1) use regex to find lines beginning with `def `, `class `, `if `,
//! `for `, `while `, `try:`, `with `; (2) accumulate following lines into
//! the unit; (3) close the unit at the next boundary; (4) split units
//! larger than 4,000 characters.
//!
//! Step (1)'s regex is `^(def |class |if |for |while |try:|with |@)`: a
//! `^`-anchored alternation of literals, so a line matches it exactly when
//! it starts with one of the alternatives. The splitter runs that prefix
//! test (`BOUNDARY_PREFIXES`) rather than a regex engine per line; it
//! is the paper's regex, not an approximation of it.

/// The line prefixes that open a basic unit (§IV-A step 1): block-opening
/// keywords at column zero (top-level blocks) or decorators introducing
/// them.
const BOUNDARY_PREFIXES: [&str; 8] = [
    "def ", "class ", "if ", "for ", "while ", "try:", "with ", "@",
];

/// The paper's 4,000-character unit cap (§IV-A step 4).
pub const MAX_UNIT_CHARS: usize = 4000;

/// One extracted basic unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicUnit {
    /// The code block text.
    pub code: String,
    /// 1-based first line in the original source.
    pub start_line: usize,
}

/// Splits Python source into basic units per §IV-A.
///
/// Top-level statements before the first block boundary form a leading
/// module unit. Indented continuation lines stay with their block. A unit
/// is a range of the source's lines, each followed by `\n` in its `code`,
/// which is built once, at its length: a call allocates its line list,
/// one `code` per unit, and the unit list.
pub fn split_basic_units(source: &str) -> Vec<BasicUnit> {
    let lines: Vec<&str> = source.lines().collect();
    let mut units = Vec::new();
    // The open unit is `lines[start..i]`, `len` bytes of code. It has text
    // when some line is not blank, and only decorators when every line is
    // blank or starts with `@`.
    let (mut start, mut len) = (0, 0);
    let (mut has_text, mut only_decorators) = (false, true);
    for (i, line) in lines.iter().enumerate() {
        let is_boundary = BOUNDARY_PREFIXES.iter().any(|p| line.starts_with(p));
        // A `def`/`class` immediately following decorator lines belongs to
        // the same unit as its decorators.
        let decorator_continuation =
            (line.starts_with("def ") || line.starts_with("class ")) && has_text && only_decorators;
        if is_boundary && !decorator_continuation && has_text {
            push_unit(&mut units, &lines[start..i], len, start + 1);
            (start, len) = (i, 0);
            (has_text, only_decorators) = (false, true);
        }
        let blank = line.trim().is_empty();
        len += line.len() + 1;
        has_text |= !blank;
        only_decorators &= blank || line.starts_with('@');
    }
    if has_text {
        push_unit(&mut units, &lines[start..], len, start + 1);
    }
    units
}

/// Pushes the unit of `lines` (`len` bytes of code, first line
/// `start_line`), splitting blocks that exceed [`MAX_UNIT_CHARS`].
fn push_unit(units: &mut Vec<BasicUnit>, lines: &[&str], len: usize, start_line: usize) {
    if len <= MAX_UNIT_CHARS {
        units.push(BasicUnit {
            code: join(lines, len, |line| line),
            start_line,
        });
        return;
    }
    // Oversized block: split at line boundaries below the cap. The pieces
    // read the block's lines as `str::lines` reads its code, so a line
    // that still ends in `\r` (from a `\r\r\n` ending) loses it.
    fn reread(line: &str) -> &str {
        line.strip_suffix('\r').unwrap_or(line)
    }
    let (mut first, mut piece_len, mut has_text) = (0, 0, false);
    for (i, line) in lines.iter().copied().map(reread).enumerate() {
        if piece_len + line.len() + 1 > MAX_UNIT_CHARS && piece_len > 0 {
            units.push(BasicUnit {
                code: join(&lines[first..i], piece_len, reread),
                start_line: start_line + first,
            });
            (first, piece_len, has_text) = (i, 0, false);
        }
        piece_len += line.len() + 1;
        has_text |= !line.trim().is_empty();
    }
    if has_text {
        units.push(BasicUnit {
            code: join(&lines[first..], piece_len, reread),
            start_line: start_line + first,
        });
    }
}

/// `lines`, each read through `line` and followed by `\n`: `len` bytes.
fn join<'a>(lines: &[&'a str], len: usize, line: impl Fn(&'a str) -> &'a str) -> String {
    let mut code = String::with_capacity(len);
    for l in lines {
        code.push_str(line(l));
        code.push('\n');
    }
    debug_assert_eq!(code.len(), len);
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_at_function_boundaries() {
        let src = "import os\n\ndef a():\n    pass\n\ndef b():\n    pass\n";
        let units = split_basic_units(src);
        assert_eq!(units.len(), 3); // module header, a, b
        assert!(units[1].code.starts_with("def a"));
        assert!(units[2].code.starts_with("def b"));
    }

    #[test]
    fn class_with_methods_is_one_unit() {
        let src = "class C:\n    def m1(self):\n        pass\n    def m2(self):\n        pass\n";
        let units = split_basic_units(src);
        assert_eq!(units.len(), 1);
        assert!(units[0].code.contains("m2"));
    }

    #[test]
    fn top_level_if_starts_unit() {
        let src = "x = 1\nif x:\n    boom()\n";
        let units = split_basic_units(src);
        assert_eq!(units.len(), 2);
        assert!(units[1].code.starts_with("if x:"));
    }

    #[test]
    fn try_block_starts_unit() {
        let src = "import sys\ntry:\n    risky()\nexcept Exception:\n    pass\n";
        let units = split_basic_units(src);
        assert_eq!(units.len(), 2);
        assert!(units[1].code.starts_with("try:"));
    }

    #[test]
    fn decorator_stays_with_function() {
        let src = "import atexit\n@atexit.register\ndef boom():\n    pass\n";
        let units = split_basic_units(src);
        assert_eq!(units.len(), 2);
        assert!(units[1].code.starts_with("@atexit.register"));
        assert!(units[1].code.contains("def boom"));
    }

    #[test]
    fn start_lines_tracked() {
        let src = "import os\n\ndef f():\n    pass\n";
        let units = split_basic_units(src);
        assert_eq!(units[0].start_line, 1);
        assert_eq!(units[1].start_line, 3);
    }

    #[test]
    fn oversized_unit_is_split() {
        let mut src = String::from("def huge():\n");
        for i in 0..400 {
            src.push_str(&format!(
                "    value_{i} = 'padding data for the unit splitter'\n"
            ));
        }
        let units = split_basic_units(&src);
        assert!(units.len() > 1);
        assert!(units.iter().all(|u| u.code.len() <= MAX_UNIT_CHARS));
        // No content lost.
        let total: usize = units.iter().map(|u| u.code.lines().count()).sum();
        assert_eq!(total, src.lines().count());
    }

    #[test]
    fn empty_source_no_units() {
        assert!(split_basic_units("").is_empty());
        assert!(split_basic_units("\n\n\n").is_empty());
    }

    #[test]
    fn units_are_self_contained_blocks() {
        let src = "def a():\n    if x:\n        y()\n    return 1\n\ndef b():\n    pass\n";
        let units = split_basic_units(src);
        assert_eq!(units.len(), 2);
        // Nested `if` stays inside a's unit.
        assert!(units[0].code.contains("if x:"));
        assert!(units[0].code.contains("return 1"));
    }
}
