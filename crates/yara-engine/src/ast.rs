//! Parsed YARA rule structure.

/// A parsed rule file: one or more rules.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet {
    /// Rules in declaration order.
    pub rules: Vec<Rule>,
}

/// One `rule name : tags { ... }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule identifier.
    pub name: String,
    /// Optional tags after the colon.
    pub tags: Vec<String>,
    /// `meta:` entries in order.
    pub meta: Vec<(String, MetaValue)>,
    /// `strings:` definitions in order.
    pub strings: Vec<StringDef>,
    /// The `condition:` expression.
    pub condition: Condition,
    /// 1-based line of the `rule` keyword.
    pub line: usize,
}

impl Rule {
    /// Looks up a meta value by key.
    pub fn meta_value(&self, key: &str) -> Option<&MetaValue> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A `meta:` value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaValue {
    /// Quoted string value.
    Str(String),
    /// Integer value.
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
}

/// One `$id = ...` string definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StringDef {
    /// Identifier without the `$`.
    pub id: String,
    /// The pattern.
    pub value: StringValue,
    /// 1-based source line.
    pub line: usize,
}

/// The pattern of a string definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StringValue {
    /// A plain text pattern with modifiers.
    Text {
        /// The literal bytes to find.
        text: String,
        /// Modifier set.
        mods: StringMods,
    },
    /// A `/regex/` pattern.
    Regex {
        /// Pattern between the slashes.
        pattern: String,
        /// Case-insensitive flag (`i` or `nocase`).
        nocase: bool,
    },
}

/// Text-string modifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StringMods {
    /// Case-insensitive matching.
    pub nocase: bool,
    /// Also match the UTF-16LE expansion.
    pub wide: bool,
    /// Match the plain ASCII bytes (default unless `wide` alone is given).
    pub ascii: bool,
    /// Require non-alphanumeric boundaries around the match.
    pub fullword: bool,
}

/// A condition expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `true` / `false`.
    Bool(bool),
    /// `$id` — the string matched at least once.
    StringRef(String),
    /// `all of them` / `all of ($a*)`.
    AllOf(StringSet),
    /// `any of them` / `any of ($a*)`.
    AnyOf(StringSet),
    /// `N of them` / `N of ($a*)`.
    NOf(i64, StringSet),
    /// `#id OP n` count comparison.
    Count {
        /// String identifier without `#`.
        id: String,
        /// One of `>`, `>=`, `<`, `<=`, `==`, `!=`.
        op: String,
        /// Right-hand side.
        value: i64,
    },
    /// `$id at offset`.
    At {
        /// String identifier without `$`.
        id: String,
        /// Required match offset.
        offset: i64,
    },
    /// `filesize OP n`.
    Filesize {
        /// One of `>`, `>=`, `<`, `<=`, `==`, `!=`.
        op: String,
        /// Right-hand side in bytes.
        value: i64,
    },
    /// Conjunction.
    And(Vec<Condition>),
    /// Disjunction.
    Or(Vec<Condition>),
    /// Negation.
    Not(Box<Condition>),
}

/// The string set an `of` expression quantifies over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StringSet {
    /// `them` — every string in the rule.
    Them,
    /// `($a, $b*, ...)` — explicit identifiers, `*` suffix is a prefix
    /// wildcard.
    Patterns(Vec<StringPattern>),
}

/// One member of a parenthesized string set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringPattern {
    /// Identifier text without `$` (and without the `*`).
    pub prefix: String,
    /// Whether a trailing `*` makes this a prefix wildcard.
    pub wildcard: bool,
}

impl StringPattern {
    /// Tests whether a string id matches this pattern.
    pub fn matches(&self, id: &str) -> bool {
        if self.wildcard {
            id.starts_with(&self.prefix)
        } else {
            id == self.prefix
        }
    }
}

impl Condition {
    /// Collects every string identifier referenced by the condition
    /// (explicit refs, counts and offsets — not `them` sets).
    pub fn referenced_ids(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_ids(&mut out);
        out
    }

    fn collect_ids<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Condition::StringRef(id) => out.push(id),
            Condition::Count { id, .. } | Condition::At { id, .. } => out.push(id),
            Condition::And(parts) | Condition::Or(parts) => {
                for p in parts {
                    p.collect_ids(out);
                }
            }
            Condition::Not(inner) => inner.collect_ids(out),
            Condition::AllOf(StringSet::Patterns(pats))
            | Condition::AnyOf(StringSet::Patterns(pats))
            | Condition::NOf(_, StringSet::Patterns(pats)) => {
                for p in pats {
                    if !p.wildcard {
                        out.push(&p.prefix);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_pattern_exact_and_wildcard() {
        let exact = StringPattern {
            prefix: "a".into(),
            wildcard: false,
        };
        assert!(exact.matches("a"));
        assert!(!exact.matches("ab"));
        let wild = StringPattern {
            prefix: "url_".into(),
            wildcard: true,
        };
        assert!(wild.matches("url_1"));
        assert!(!wild.matches("ur"));
    }

    #[test]
    fn referenced_ids_walks_tree() {
        let c = Condition::And(vec![
            Condition::StringRef("a".into()),
            Condition::Not(Box::new(Condition::Count {
                id: "b".into(),
                op: ">".into(),
                value: 1,
            })),
        ]);
        assert_eq!(c.referenced_ids(), vec!["a", "b"]);
    }

    #[test]
    fn meta_lookup() {
        let rule = Rule {
            name: "r".into(),
            tags: vec![],
            meta: vec![("description".into(), MetaValue::Str("d".into()))],
            strings: vec![],
            condition: Condition::Bool(true),
            line: 1,
        };
        assert_eq!(
            rule.meta_value("description"),
            Some(&MetaValue::Str("d".into()))
        );
        assert_eq!(rule.meta_value("author"), None);
    }
}
