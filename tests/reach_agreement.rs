//! Every reader of the tree reaches the same expressions.
//!
//! `os.system('id')` is placed in 29 one-statement sources, one for each
//! place Python evaluates an expression (ROADMAP item 20's placement
//! matrix). For each placement, four readers must agree on whether they
//! see the call: `pysrc::collect_calls`, `pysrc::collect_strings`, a
//! `pattern: os.system(...)` rule through `MatchSet` and through the
//! reference matcher in `oracles::semgrep`. Where the call shares its
//! statement with another expression (`;`, a tuple), it comes last, so a
//! parse that stops early drops it. The test asserts agreement
//! only, not how many placements are reached: widening the reach moves
//! every reader at once, and the count it prints moves with it.

use oracles::semgrep as reference;
use semgrep_engine::{compile, MatchScratch, MatchSet};

/// Each placement of `os.system('id')`, named, with its source.
const PLACEMENTS: [(&str, &str); 29] = [
    ("expression statement", "os.system('id')\n"),
    ("assignment value", "x = os.system('id')\n"),
    ("nested call argument", "print(os.system('id'))\n"),
    ("augmented assignment", "x += os.system('id')\n"),
    ("chained assignment", "a = b = os.system('id')\n"),
    ("semicolon-joined line", "x = 1; os.system('id')\n"),
    ("space before the arguments", "os.system ('id')\n"),
    ("call split across lines", "os.system(\n    'id',\n)\n"),
    ("if condition", "if os.system('id'):\n    pass\n"),
    ("while condition", "while os.system('id'):\n    pass\n"),
    ("for iterable", "for x in os.system('id'):\n    pass\n"),
    ("with item", "with os.system('id'):\n    pass\n"),
    ("annotated assignment", "x: int = os.system('id')\n"),
    ("tuple-valued assignment", "x = 1, os.system('id')\n"),
    ("assert", "assert os.system('id')\n"),
    ("raise", "raise os.system('id')\n"),
    ("yield", "def f():\n    yield os.system('id')\n"),
    ("del", "del x[os.system('id')]\n"),
    ("comprehension", "x = [y for y in os.system('id')]\n"),
    ("lambda body", "f = lambda: os.system('id')\n"),
    ("decorator", "@os.system('id')\ndef f():\n    pass\n"),
    ("default argument", "def f(x=os.system('id')):\n    pass\n"),
    (
        "except clause",
        "try:\n    pass\nexcept os.system('id'):\n    pass\n",
    ),
    ("class bases", "class C(os.system('id')):\n    pass\n"),
    (
        "conditional expression",
        "x = 1 if os.system('id') else 2\n",
    ),
    ("not", "x = not os.system('id')\n"),
    ("dict value", "x = {'k': os.system('id')}\n"),
    ("starred item", "x = [*os.system('id')]\n"),
    ("subscript index", "x = d[os.system('id')]\n"),
];

const RULE: &str =
    "rules:\n  - id: sys\n    languages: [python]\n    message: m\n    pattern: os.system(...)\n";

#[test]
fn every_reader_reaches_the_same_placements() {
    let rules = compile(RULE).expect("the rule compiles");
    let set = MatchSet::new(&rules);
    let mut scratch = MatchScratch::new();
    let mut reached = Vec::new();
    for (name, source) in PLACEMENTS {
        let module = pysrc::parse_module(source);
        let calls = pysrc::collect_calls(&module)
            .iter()
            .any(|c| c.func_path(&module) == "os.system");
        let strings = pysrc::collect_strings(&module)
            .iter()
            .any(|&(s, _)| s == "id");
        let (found, _) = set.match_module_set(&module, |_| true, &mut scratch);
        let oracle = reference::match_module(&rules.rules[0], &module);
        let readers = [calls, strings, !found.is_empty(), !oracle.is_empty()];
        assert!(
            readers.iter().all(|&r| r == calls),
            "{name}: collect_calls, collect_strings, MatchSet and the reference \
             disagree: {readers:?} on {source:?}"
        );
        if calls {
            reached.push(name);
        }
    }
    println!(
        "os.system('id') reached in {} of {} placements: {}",
        reached.len(),
        PLACEMENTS.len(),
        reached.join(", ")
    );
}
