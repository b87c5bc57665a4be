//! Per-rule literal-atom extraction for scan prefiltering.
//!
//! A registry-scale scan service wants to route a package to the few
//! rules whose strings can actually occur in it, instead of evaluating
//! every rule's condition against every package. This module computes,
//! for one compiled rule, the set of plain-text **atoms** and whether
//! that set is **exhaustive**: when it is, *no atom occurring in a buffer
//! (case-insensitively) implies the rule cannot match that buffer*, so a
//! prefilter may skip the rule without changing scan results.
//!
//! Soundness is established by a three-valued evaluation of the rule's
//! condition under the assumption "every atom-backed string has zero
//! matches". String definitions a literal prefilter cannot reason about
//! — regex strings, and `wide` strings whose UTF-16LE expansion does not
//! contain the ASCII atom bytes — evaluate to *unknown*, as do
//! `filesize` comparisons. Only a condition that is provably false under
//! that assumption makes the rule skippable.
//!
//! A [`HitGate`] routes from hits a scanner already collected: an
//! exhaustive rule that matches has a hit of an atom-backed string.

use crate::ast::{Condition, StringSet, StringValue};
use crate::compiler::{CompiledRule, CompiledRules};
use crate::scanner::FileHits;

/// The prefilter contract for one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleAtoms {
    /// Plain-text atoms: the literal bytes of every `ascii` (non-`wide`)
    /// text string in the rule. Intended for case-insensitive matching,
    /// which over-approximates both case-sensitive and `nocase` strings.
    pub atoms: Vec<String>,
    /// When true, a buffer containing none of `atoms` (matched
    /// case-insensitively) cannot match the rule. When false the rule
    /// must always be evaluated.
    pub exhaustive: bool,
}

/// Three-valued condition outcome under the zero-atom-match assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    False,
    True,
    Unknown,
}

impl Tri {
    fn not(self) -> Tri {
        match self {
            Tri::False => Tri::True,
            Tri::True => Tri::False,
            Tri::Unknown => Tri::Unknown,
        }
    }

    fn from_bool(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
    }
}

/// Extracts the literal atoms and prefilter contract of `rule`.
pub fn literal_atoms(rule: &CompiledRule) -> RuleAtoms {
    let atoms: Vec<String> = rule
        .rule
        .strings
        .iter()
        .filter_map(|s| match &s.value {
            StringValue::Text { text, .. } if backs(&s.value) => Some(text.clone()),
            _ => None,
        })
        .collect();
    RuleAtoms {
        exhaustive: exhaustive(rule),
        atoms,
    }
}

/// Routes rules from collected hits: per dense string slot, the rule a
/// hit routes, set only for an atom-backed string of an exhaustive rule.
/// Such a hit is a case-insensitive occurrence of the string's atom, so
/// the gate never routes a rule that atom routing would skip.
#[derive(Debug, Clone, Default)]
pub struct HitGate {
    rule_of: Vec<Option<usize>>,
}

impl HitGate {
    /// The gate over `rules`, whose scanner's hits it will read.
    pub fn new(rules: &CompiledRules) -> Self {
        let mut rule_of = Vec::new();
        for (ri, rule) in rules.rules.iter().enumerate() {
            let gated = exhaustive(rule);
            let strings = rule.rule.strings.iter();
            rule_of.extend(strings.map(|s| (gated && backs(&s.value)).then_some(ri)));
        }
        HitGate { rule_of }
    }

    /// Marks in `out` (indexed by rule) every rule that `hits`, one
    /// unit's hits of this gate's ruleset, routes.
    pub fn mark(&self, hits: &FileHits, out: &mut [bool]) {
        for ri in hits.slot_ids().filter_map(|slot| self.rule_of[slot]) {
            out[ri] = true;
        }
    }
}

/// Whether a string with this value is backed by an atom: an `ascii`,
/// non-`wide` text string, whose every match contains its text.
fn backs(value: &StringValue) -> bool {
    matches!(value, StringValue::Text { mods, .. } if mods.ascii && !mods.wide)
}

/// Whether `rule` cannot match when its atom-backed strings have no match.
fn exhaustive(rule: &CompiledRule) -> bool {
    eval_zero(rule, &rule.rule.condition) == Tri::False
}

/// Whether string `id` is backed by an atom (so "no atom occurred"
/// implies it has zero matches).
fn atom_backed(rule: &CompiledRule, id: &str) -> bool {
    let strings = &rule.rule.strings;
    strings.iter().any(|s| s.id == id && backs(&s.value))
}

fn covered_ids<'r>(rule: &'r CompiledRule, set: &StringSet) -> Vec<&'r str> {
    match set {
        StringSet::Them => rule.rule.strings.iter().map(|s| s.id.as_str()).collect(),
        StringSet::Patterns(pats) => rule
            .rule
            .strings
            .iter()
            .filter(|s| pats.iter().any(|p| p.matches(&s.id)))
            .map(|s| s.id.as_str())
            .collect(),
    }
}

fn eval_zero(rule: &CompiledRule, cond: &Condition) -> Tri {
    match cond {
        Condition::Bool(b) => Tri::from_bool(*b),
        Condition::StringRef(id) => {
            if atom_backed(rule, id) {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        Condition::Count { id, op, value } => {
            if atom_backed(rule, id) {
                Tri::from_bool(crate::scanner::cmp(0, op, *value))
            } else {
                Tri::Unknown
            }
        }
        Condition::At { id, .. } => {
            if atom_backed(rule, id) {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        Condition::AllOf(set) => {
            let ids = covered_ids(rule, set);
            // The scanner evaluates `all of` over an empty set as false,
            // and any atom-backed member has zero matches.
            if ids.is_empty() || ids.iter().any(|id| atom_backed(rule, id)) {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        Condition::AnyOf(set) => {
            let ids = covered_ids(rule, set);
            if ids.iter().all(|id| atom_backed(rule, id)) {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        Condition::NOf(n, set) => {
            let ids = covered_ids(rule, set);
            let unknown = ids.iter().filter(|id| !atom_backed(rule, id)).count() as i64;
            if *n <= 0 {
                Tri::True
            } else if *n > unknown {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        Condition::Filesize { .. } => Tri::Unknown,
        Condition::And(parts) => {
            let mut out = Tri::True;
            for p in parts {
                match eval_zero(rule, p) {
                    Tri::False => return Tri::False,
                    Tri::Unknown => out = Tri::Unknown,
                    Tri::True => {}
                }
            }
            out
        }
        Condition::Or(parts) => {
            let mut out = Tri::False;
            for p in parts {
                match eval_zero(rule, p) {
                    Tri::True => return Tri::True,
                    Tri::Unknown => out = Tri::Unknown,
                    Tri::False => {}
                }
            }
            out
        }
        Condition::Not(inner) => eval_zero(rule, inner).not(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;

    fn atoms_of(src: &str) -> RuleAtoms {
        let rules = compile(src).expect("compile");
        literal_atoms(&rules.rules[0])
    }

    #[test]
    fn simple_string_rule_is_exhaustive() {
        let a = atoms_of("rule r { strings: $a = \"os.system\" condition: $a }");
        assert!(a.exhaustive);
        assert_eq!(a.atoms, vec!["os.system".to_owned()]);
    }

    #[test]
    fn all_of_them_is_exhaustive() {
        let a = atoms_of("rule r { strings: $a = \"one\" $b = \"two\" condition: all of them }");
        assert!(a.exhaustive);
        assert_eq!(a.atoms.len(), 2);
    }

    #[test]
    fn nocase_strings_are_atoms() {
        let a = atoms_of("rule r { strings: $a = \"PowerShell\" nocase condition: $a }");
        assert!(a.exhaustive);
        assert_eq!(a.atoms, vec!["PowerShell".to_owned()]);
    }

    #[test]
    fn regex_only_rule_is_not_exhaustive() {
        let a = atoms_of("rule r { strings: $re = /ab+c/ condition: $re }");
        assert!(!a.exhaustive);
        assert!(a.atoms.is_empty());
    }

    #[test]
    fn regex_or_text_is_not_exhaustive() {
        // The regex branch alone can satisfy the condition.
        let a = atoms_of("rule r { strings: $a = \"x1\" $re = /y+/ condition: $a or $re }");
        assert!(!a.exhaustive);
        assert_eq!(a.atoms, vec!["x1".to_owned()]);
    }

    #[test]
    fn regex_and_text_is_exhaustive() {
        // The text string is necessary, so its atom gates the rule.
        let a = atoms_of("rule r { strings: $a = \"x1\" $re = /y+/ condition: $a and $re }");
        assert!(a.exhaustive);
    }

    #[test]
    fn negated_string_is_not_exhaustive() {
        // `not $a` is true precisely when the atom is absent.
        let a = atoms_of(
            "rule r { strings: $a = \"setup\" $bad = \"license\" condition: $a and not $bad }",
        );
        assert!(a.exhaustive, "gated by the positive $a");
        let b = atoms_of("rule r { strings: $bad = \"license\" condition: not $bad }");
        assert!(!b.exhaustive);
    }

    #[test]
    fn filesize_conditions_are_unknown() {
        let a = atoms_of("rule r { condition: filesize > 10 }");
        assert!(!a.exhaustive);
        let b = atoms_of("rule r { strings: $a = \"x1\" condition: $a and filesize > 10 }");
        assert!(b.exhaustive, "the string still gates the rule");
        let c = atoms_of("rule r { strings: $a = \"x1\" condition: $a or filesize > 10 }");
        assert!(!c.exhaustive);
    }

    #[test]
    fn wide_strings_are_not_atom_backed() {
        let a = atoms_of("rule r { strings: $a = \"cmd\" wide condition: $a }");
        assert!(!a.exhaustive);
        assert!(a.atoms.is_empty());
        // wide+ascii can still match via the wide expansion alone, so it
        // contributes no atom and the rule always runs.
        let b = atoms_of("rule r { strings: $a = \"cmd\" wide ascii condition: $a }");
        assert!(!b.exhaustive);
        assert!(b.atoms.is_empty());
    }

    #[test]
    fn count_condition_gates() {
        let a = atoms_of("rule r { strings: $a = \"GET\" condition: #a >= 3 }");
        assert!(a.exhaustive);
        // `#a == 0` is satisfied by absence: must not be skippable.
        let b = atoms_of("rule r { strings: $a = \"GET\" condition: #a == 0 }");
        assert!(!b.exhaustive);
    }

    #[test]
    fn n_of_with_regexes_counts_unknowns() {
        let a =
            atoms_of("rule r { strings: $a = \"aaa\" $b = /b+/ $c = /c+/ condition: 3 of them }");
        assert!(a.exhaustive, "3 of them needs the atom-backed $a");
        let b =
            atoms_of("rule r { strings: $a = \"aaa\" $b = /b+/ $c = /c+/ condition: 2 of them }");
        assert!(!b.exhaustive, "the two regexes alone can satisfy 2 of them");
    }

    #[test]
    fn boolean_rules() {
        let t = atoms_of("rule r { condition: true }");
        assert!(!t.exhaustive);
        // `condition: false` can never match: skippable with no atoms.
        let f = atoms_of("rule r { condition: false }");
        assert!(f.exhaustive);
        assert!(f.atoms.is_empty());
    }

    #[test]
    fn at_condition_gates() {
        let a = atoms_of("rule r { strings: $a = \"MZ\" condition: $a at 0 }");
        assert!(a.exhaustive);
        assert_eq!(a.atoms, vec!["MZ".to_owned()]);
    }
}
