//! Basic-unit extraction (§IV-A).
//!
//! A basic unit is a self-contained code block: a module fragment, a
//! function body or a class definition. The paper's extraction procedure:
//! (1) use regex to find lines beginning with `def `, `class `, `if `,
//! `for `, `while `, `try:`, `with `; (2) accumulate following lines into
//! the unit; (3) close the unit at the next boundary; (4) split units
//! larger than 4,000 characters.

use std::sync::OnceLock;

use textmatch::Regex;

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
/// module unit. Indented continuation lines stay with their block.
pub fn split_basic_units(source: &str) -> Vec<BasicUnit> {
    // The paper's boundary regex: block-opening keywords at column zero
    // (top-level blocks) or decorators introducing them. Compiled once
    // per process, not once per package.
    static BOUNDARY: OnceLock<Regex> = OnceLock::new();
    let boundary = BOUNDARY.get_or_init(|| {
        Regex::new(r"^(def |class |if |for |while |try:|with |@)").expect("static pattern")
    });
    let lines: Vec<&str> = source.lines().collect();
    let mut units = Vec::new();
    let mut current = String::new();
    let mut current_start = 1usize;
    for (i, line) in lines.iter().enumerate() {
        let is_boundary = boundary.find(line.as_bytes()).is_some_and(|m| m.start == 0);
        // A `def`/`class` immediately following decorator lines belongs to
        // the same unit as its decorators.
        let decorator_continuation = (line.starts_with("def ") || line.starts_with("class "))
            && !current.trim().is_empty()
            && current
                .lines()
                .all(|l| l.trim().is_empty() || l.starts_with('@'));
        if is_boundary && !decorator_continuation && !current.trim().is_empty() {
            push_unit(&mut units, &current, current_start);
            current = String::new();
            current_start = i + 1;
        }
        if current.is_empty() {
            current_start = i + 1;
        }
        current.push_str(line);
        current.push('\n');
    }
    if !current.trim().is_empty() {
        push_unit(&mut units, &current, current_start);
    }
    units
}

/// Pushes a unit, splitting blocks that exceed [`MAX_UNIT_CHARS`].
fn push_unit(units: &mut Vec<BasicUnit>, code: &str, start_line: usize) {
    if code.len() <= MAX_UNIT_CHARS {
        units.push(BasicUnit {
            code: code.to_owned(),
            start_line,
        });
        return;
    }
    // Oversized block: split at line boundaries below the cap.
    let mut piece = String::new();
    let mut piece_start = start_line;
    for (offset, line) in code.lines().enumerate() {
        let line_no = start_line + offset;
        if piece.len() + line.len() + 1 > MAX_UNIT_CHARS && !piece.is_empty() {
            units.push(BasicUnit {
                code: piece.clone(),
                start_line: piece_start,
            });
            piece.clear();
            piece_start = line_no;
        }
        piece.push_str(line);
        piece.push('\n');
    }
    if !piece.trim().is_empty() {
        units.push(BasicUnit {
            code: piece,
            start_line: piece_start,
        });
    }
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
