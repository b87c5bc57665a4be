//! Carrying a donor's summary across a splice.
//!
//! A registry release usually differs from its predecessor by a line that
//! restamps a version constant. The artifact build splices that line into
//! the previous version's tree ([`pysrc::parse_spliced`]); this module
//! lets the taint summary ride along when the engine cannot read the
//! edit, instead of walking the whole module again.

use pysrc::{Edit, Expr, ExprId, Module, Run, Stmt};

use crate::engine::{analyze, degraded_names, target_base};
use crate::TaintSummary;

/// Runs the taint analysis over a module spliced from a donor, reusing
/// the donor's summary when the edit is inert; with no donor it is
/// [`analyze`]. Returns the summary and whether it was carried.
///
/// The donor is the previous version's module, the [`Edit`] from it to
/// `module` ([`pysrc::parse_spliced`]'s), and the donor module's summary.
/// Both of the edit's windows hold whole top-level statements.
///
/// The edit is inert, and the donor's summary is returned with every
/// line behind the old window moved by the edit's line delta, when
///
/// * every top-level statement the edit removed or inserted is a `Str`
///   or `Num` expression statement, or an assignment of a `Str` or `Num`
///   literal to plain `Name` targets — statements that read nothing, fold
///   nothing and only bind constants to their names, eight at most; and
/// * no name so bound occurs in the text outside the window, nor equals a
///   name the engine reads off degraded text (see the crate docs), so no
///   statement outside the window can read what the windows bound.
///
/// Then the pass over either version takes the same steps outside the
/// window, which is where every flow step and folded constant comes
/// from, and the result equals a fresh [`analyze`] of `module`.
/// Otherwise the full pass runs.
pub fn analyze_spliced(
    module: &Module,
    donor: Option<(&Module, &Edit, &TaintSummary)>,
) -> (TaintSummary, bool) {
    match donor.and_then(|(old, edit, summary)| shifted(summary, inert_edit(old, module, edit)?)) {
        Some(summary) => (summary, true),
        None => (analyze(module), false),
    }
}

/// The most names an inert edit binds.
const MAX_NAMES: usize = 8;

/// The `edit` from `old` to `module`, when it is inert.
fn inert_edit<'e>(old: &Module, module: &Module, edit: &'e Edit) -> Option<&'e Edit> {
    let edited = || statements(old, edit.removed).chain(statements(module, edit.inserted));
    if !edited().all(|(m, stmt)| inert(m, stmt)) {
        return None;
    }
    // The names the windows bind, up to `MAX_NAMES`: a version bump binds
    // one, and an edit that binds more runs the pass.
    let (mut names, mut bound_count) = ([""; MAX_NAMES], 0);
    for name in edited().flat_map(|(m, stmt)| bound(m, stmt)) {
        *names.get_mut(bound_count)? = name;
        bound_count += 1;
    }
    let names = &names[..bound_count];
    let src = module.source();
    let (front, back) = (&src[..edit.start], &src[edit.new_end..]);
    if names
        .iter()
        .any(|name| front.contains(name) || back.contains(name))
        || !names.is_empty() && degraded_names(module, |word| names.contains(&word))
    {
        return None;
    }
    Some(edit)
}

/// The top-level statements of `m` at the `body` indices of `run`, each
/// with `m`.
fn statements(m: &Module, run: Run) -> impl Iterator<Item = (&Module, &Stmt)> {
    m.body[run.range()].iter().map(move |&id| (m, m.stmt(id)))
}

/// Whether `stmt` only binds a literal, or is one.
fn inert(m: &Module, stmt: &Stmt) -> bool {
    let literal = |id: ExprId| matches!(m.expr(id), Expr::Str(_) | Expr::Num(_));
    match *stmt {
        Stmt::Expr { value, .. } => literal(value),
        Stmt::Assign { targets, value, .. } => {
            literal(value) && m.targets(targets).all(|t| matches!(t, Expr::Name(_)))
        }
        _ => false,
    }
}

/// The names an assignment binds, as the engine binds them.
fn bound<'m>(m: &'m Module, stmt: &Stmt) -> impl Iterator<Item = &'m str> {
    let targets = match *stmt {
        Stmt::Assign { targets, .. } => targets,
        _ => Run::default(),
    };
    m.targets(targets).map(move |t| target_base(t, m))
}

/// A clone of `summary` with its lines moved by the `edit`; `None` when
/// a moved line does not fit.
fn shifted(summary: &TaintSummary, edit: &Edit) -> Option<TaintSummary> {
    let mut out = summary.clone();
    let steps = out.flows.iter_mut().flat_map(|f| &mut f.steps);
    let lines = steps
        .map(|s| &mut s.line)
        .chain(out.folded.iter_mut().map(|c| &mut c.line));
    for line in lines {
        *line = edit.moved_line(*line)?;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `before + inserted + after` analyzed with the donor `before +
    /// removed + after`, the window between; checked against a fresh
    /// pass. The summary and whether it was carried.
    fn splice(before: &str, removed: &str, inserted: &str, after: &str) -> (TaintSummary, bool) {
        let old = format!("{before}{removed}{after}");
        let new = format!("{before}{inserted}{after}");
        let donor = pysrc::parse_module(&old);
        let (w, end) = (before.len(), before.len() + removed.len());
        let edit = Edit::new(&donor, &new, w, end).expect("edit");
        let tokens = pysrc::lex_window(&new, w, edit.new_end, edit.first_line).tokens;
        let (module, edit) = pysrc::parse_spliced(&new, &tokens, Some(&donor), edit);
        assert_eq!(module, pysrc::parse_module(&new), "{new}");
        let (summary, carried) = analyze_spliced(&module, Some((&donor, &edit, &analyze(&donor))));
        assert_eq!(summary, analyze(&module), "{new}");
        (summary, carried)
    }

    const HEAD: &str = "import os, base64\nhost = 'c2.' + 'evil'\n";
    const TAIL: &str = "cmd = input()\nos.system(cmd)\nurl = 'https://%s/x' % host\n";

    /// The lines of the summary's flow steps and folded constants.
    fn lines(s: &TaintSummary) -> Vec<u32> {
        let steps = s.flows.iter().flat_map(|f| &f.steps).map(|s| s.line);
        steps.chain(s.folded.iter().map(|c| c.line)).collect()
    }

    #[test]
    fn no_donor_is_a_full_pass() {
        let module = pysrc::parse_module(&format!("{HEAD}{TAIL}"));
        assert_eq!(analyze_spliced(&module, None), (analyze(&module), false));
    }

    #[test]
    fn a_restamped_version_carries_the_summary() {
        let (s, carried) = splice(
            HEAD,
            "__version__ = '1.2.3'\n",
            "__version__ = '1.2.4'\n",
            TAIL,
        );
        assert!(carried);
        assert_eq!(lines(&s), [4, 4, 5, 2, 6]);
    }

    #[test]
    fn lines_behind_the_window_move_both_ways() {
        let grown = "_a = '1.2.3'\n'''doc'''\n_b = _c = 7\n";
        let (s, carried) = splice(HEAD, "", grown, TAIL);
        assert!(carried);
        assert_eq!(lines(&s), [6, 6, 7, 2, 8]);
        let (s, carried) = splice(HEAD, grown, "", TAIL);
        assert!(carried);
        assert_eq!(lines(&s), [3, 3, 4, 2, 5]);
    }

    #[test]
    fn windows_at_the_start_and_at_the_end_carry() {
        let text = format!("{HEAD}{TAIL}");
        let (s, carried) = splice("", "", "'''Module doc.'''\n", &text);
        assert!(carried);
        assert_eq!(lines(&s), [4, 4, 5, 3, 6]);
        let (s, carried) = splice(&text, "", "_tail = 'x'\n", "");
        assert!(carried);
        assert_eq!(lines(&s), [3, 3, 4, 2, 5]);
        let (_, carried) = splice(&text, "_tail = 'x'\n", "_tail = 3\n", "");
        assert!(carried);
    }

    #[test]
    fn a_comment_only_edit_carries() {
        let (s, carried) = splice(HEAD, "# one\n", "# one\n# two\n\n", TAIL);
        assert!(carried);
        assert_eq!(lines(&s), [6, 6, 7, 2, 8]);
    }

    #[test]
    fn an_edit_the_engine_reads_runs_the_pass() {
        for inserted in [
            // A name the module reads: the flow is gone.
            "cmd = '1.2.3'\n",
            // A name bound to a name, an import, a call, a block.
            "_v = cmd\n",
            "import requests\n",
            "print('1.2.3')\n",
            "if host:\n    pass\n",
            "_v: str = '1.2.3'\n",
            "_v.attr = '1.2.3'\n",
        ] {
            let (_, carried) = splice(HEAD, "", inserted, TAIL);
            assert!(!carried, "{inserted}");
        }
        // Removing what the rest reads is no inert edit either.
        let (s, carried) = splice(HEAD, "cmd = '1.2.3'\n", "", TAIL);
        assert!(!carried);
        assert_eq!(s.flows.len(), 1);
    }

    /// `VER` occurs nowhere in these texts outside the window: the engine
    /// reads it only as a word it glues together from degraded text. The
    /// header binds `VE''R` as `VER`, and each unparsed list reads it back
    /// — its rendering keeps the quoted run, or drops the space — so the
    /// restamp kills the flow.
    #[test]
    fn a_name_read_only_through_degraded_text_runs_the_pass() {
        let head = "import os\nfor VE''R in os.popen('ps'):\n    pass\n";
        for tail in ["os.system([VE''R])\n", "os.system([VE R])\n"] {
            let with = analyze(&pysrc::parse_module(&format!("{head}{tail}")));
            assert_eq!(with.flows.len(), 1, "{tail}: {with:?}");
            let (s, carried) = splice(head, "", "VER = '1.2.3'\n", tail);
            assert!(!carried, "{tail}");
            assert!(s.flows.is_empty(), "{tail}");
            let (_, carried) = splice(head, "", "VEX = '1.2.3'\n", tail);
            assert!(carried, "{tail}");
        }
    }
}
