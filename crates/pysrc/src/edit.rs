//! The one edit a splice makes, worked out once.

use crate::ast::{offset, Module, Run};
use crate::lexer::count_newlines;

/// The edit from a previous version of a file, the donor, to the text a
/// splice builds: one window in each version, both at the same first byte
/// and at column zero of a top-level line (or at the end), with equal
/// bytes in front of them and behind them. [`Edit::new`] works it out,
/// [`crate::parse_spliced`] adds the statements it inserted, and every
/// product a splice carries reads it. A full build's edit writes the
/// whole text over an empty file ([`Edit::whole`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    /// The window's first byte, in both versions.
    pub start: usize,
    /// One past the window's last byte in the old text.
    pub old_end: usize,
    /// One past the window's last byte in the new text.
    pub new_end: usize,
    /// The new text's length less the old one's.
    pub delta: isize,
    /// Whether the window runs to the end, with nothing behind it.
    pub to_end: bool,
    /// The 1-based line of `start`, in both versions.
    pub first_line: usize,
    /// The 1-based line of `old_end` in the old text.
    pub old_end_line: usize,
    /// The new window's `\n`s less the old one's.
    pub line_delta: isize,
    /// The old module's top-level statements in the window (`body` indices).
    pub removed: Run,
    /// The new module's, once [`crate::parse_spliced`] has parsed them.
    pub inserted: Run,
}

impl Edit {
    /// The edit that writes `text` over an empty file.
    pub fn whole(text: &str) -> Edit {
        Edit {
            start: 0,
            old_end: 0,
            new_end: text.len(),
            delta: text.len() as isize,
            to_end: true,
            first_line: 1,
            old_end_line: 1,
            line_delta: count_newlines(text.as_bytes()) as isize,
            removed: Run::default(),
            inserted: Run::default(),
        }
    }

    /// The edit that replaces bytes `start..old_end` of `old`'s text to
    /// give `text`, whose bytes behind the window are `old`'s last
    /// `len - old_end`: the lines from `old`'s line index, and a count of
    /// the new window's `\n`s. `None` when the new window would end in
    /// front of `start`.
    pub fn new(old: &Module, text: &str, start: usize, old_end: usize) -> Option<Edit> {
        let delta = text.len() as isize - old.source().len() as isize;
        let new_end = old_end.checked_add_signed(delta).filter(|&e| e >= start)?;
        let to_end = old_end == old.source().len();
        let line = |at: usize| old.lines().line_of(offset(at));
        let (first_line, old_end_line) = (line(start), line(old_end));
        let from = |at| {
            old.body
                .partition_point(|&id| old.stmt(id).start() < offset(at))
        };
        let (kept, resumed) = (from(start), from(old_end));
        let newlines = count_newlines(&text.as_bytes()[start..new_end]);
        Some(Edit {
            start,
            old_end,
            new_end,
            delta,
            to_end,
            first_line,
            old_end_line,
            line_delta: newlines as isize - (old_end_line - first_line) as isize,
            removed: Run::new(kept, if to_end { old.body.len() } else { resumed }),
            inserted: Run::new(kept, kept),
        })
    }

    /// The new text's line of the old text's `line`, which lies outside
    /// the window: the same in front of it, moved by `line_delta` behind
    /// it. `None` when the moved line does not fit a `u32`.
    pub fn moved_line(&self, line: u32) -> Option<u32> {
        if (line as usize) < self.old_end_line {
            return Some(line);
        }
        line.checked_add_signed(i32::try_from(self.line_delta).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lex_window, parse_module, parse_spliced};

    /// The edit from `old` to `new`, whose windows start at `start` and
    /// end at `old_end` in `old`, as a splice works it out: the new
    /// window parsed between `old`'s statements is `new`'s full parse.
    fn edit(old: &str, new: &str, start: usize, old_end: usize) -> Edit {
        let donor = parse_module(old);
        let edit = Edit::new(&donor, new, start, old_end).expect("the window fits");
        let tokens = lex_window(new, start, edit.new_end, edit.first_line).tokens;
        let (module, edit) = parse_spliced(new, &tokens, Some(&donor), edit);
        assert_eq!(module, parse_module(new), "{new:?}");
        edit
    }

    #[test]
    fn a_window_at_offset_zero() {
        let old = "A = 1\nB = 2\nC = 3\n";
        let new = "import os\nA = 0\nB = 2\nC = 3\n";
        assert_eq!(
            edit(old, new, 0, 6),
            Edit {
                start: 0,
                old_end: 6,
                new_end: 16,
                delta: 10,
                to_end: false,
                first_line: 1,
                old_end_line: 2,
                line_delta: 1,
                removed: Run::new(0, 1),
                inserted: Run::new(0, 2),
            }
        );
    }

    #[test]
    fn a_window_that_runs_to_the_end() {
        let old = "A = 1\nB = 2\n";
        let new = "A = 1\nB = 22\nC = 3";
        assert_eq!(
            edit(old, new, 6, 12),
            Edit {
                start: 6,
                old_end: 12,
                new_end: 18,
                delta: 6,
                to_end: true,
                first_line: 2,
                old_end_line: 3,
                line_delta: 0,
                removed: Run::new(1, 2),
                inserted: Run::new(1, 3),
            }
        );
    }

    #[test]
    fn an_edit_that_adds_lines_and_one_that_removes_them() {
        let old = "A = 1\nB = 2\nC = 3\n";
        let new = "A = 1\nB = 2\n\n# two\nB2 = 4\nC = 3\n";
        let grown = Edit {
            start: 6,
            old_end: 12,
            new_end: 26,
            delta: 14,
            to_end: false,
            first_line: 2,
            old_end_line: 3,
            line_delta: 3,
            removed: Run::new(1, 2),
            inserted: Run::new(1, 3),
        };
        assert_eq!(edit(old, new, 6, 12), grown);
        let shrunk = Edit {
            old_end: 26,
            new_end: 12,
            delta: -14,
            old_end_line: 6,
            line_delta: -3,
            removed: Run::new(1, 3),
            inserted: Run::new(1, 2),
            ..grown
        };
        assert_eq!(edit(new, old, 6, 26), shrunk);
    }

    #[test]
    fn an_edit_that_deletes_the_windows_only_statement() {
        let old = "A = 1\nB = (2,\n     3)\nC = 3\n";
        let new = "A = 1\nC = 3\n";
        assert_eq!(
            edit(old, new, 6, 22),
            Edit {
                start: 6,
                old_end: 22,
                new_end: 6,
                delta: -16,
                to_end: false,
                first_line: 2,
                old_end_line: 4,
                line_delta: -2,
                removed: Run::new(1, 2),
                inserted: Run::new(1, 1),
            }
        );
    }

    #[test]
    fn a_crlf_file_counts_its_newlines() {
        let old = "A = 1\r\nB = 2\r\nC = 3\r\n";
        let new = "A = 1\r\nB = 2\r\nB2 = 5\r\nC = 3\r\n";
        assert_eq!(
            edit(old, new, 7, 14),
            Edit {
                start: 7,
                old_end: 14,
                new_end: 22,
                delta: 8,
                to_end: false,
                first_line: 2,
                old_end_line: 3,
                line_delta: 1,
                removed: Run::new(1, 2),
                inserted: Run::new(1, 3),
            }
        );
    }

    /// A line behind the window moves by the line delta, one in front of
    /// it stays, and a moved line that does not fit a `u32` (or a delta
    /// that does not fit an `i32`) refuses the edit, and so does a string
    /// table with an occurrence on it.
    #[test]
    fn a_moved_line_that_does_not_fit_is_refused() {
        let src = "a = 'x'\nb = 'y'\n";
        let old = parse_module(src);
        let at = |line_delta: isize| Edit {
            line_delta,
            ..Edit::new(&old, src, 0, 8).expect("edit")
        };
        let table = crate::StringTable::of(src, &crate::lex(src));
        assert!(table.spliced("", &[], &at(i32::MAX as isize)).is_some());
        assert!(table.spliced("", &[], &at(i32::MAX as isize + 1)).is_none());
        assert_eq!(at(-1).moved_line(1), Some(1));
        assert_eq!(
            at(i32::MAX as isize).moved_line(2),
            Some(i32::MAX as u32 + 2)
        );
        assert_eq!(at(i32::MAX as isize + 1).moved_line(2), None);
        assert_eq!(at(1).moved_line(u32::MAX), None);
        assert_eq!(at(-3).moved_line(2), None);
    }
}
