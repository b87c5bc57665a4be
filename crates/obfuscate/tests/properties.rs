//! Metamorphic properties of the mutation engine: determinism, parser
//! survivability, and structure preservation on randomized programs.

use obfuscate::{EvasionProfile, Obfuscator, Transform};
use proptest::prelude::*;

/// Assembles a small malware-shaped program from random fragments.
fn program(fn_name: &str, var: &str, host: &str, pad: u64) -> String {
    format!(
        "\"\"\"synthetic module\"\"\"\nimport os\nimport base64\n\n\
def {fn_name}(arg):\n    {var} = 'http://{host}/x'\n    os.system({var})\n    return arg\n\n\
marker = {pad}\n{fn_name}(marker)\n"
    )
}

fn profiles() -> Vec<EvasionProfile> {
    let mut out = EvasionProfile::standard();
    out.extend(Transform::ALL.iter().map(|t| EvasionProfile::single(*t)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn same_seed_yields_byte_identical_mutants(
        fn_name in "[a-z]{4,10}",
        var in "[a-z]{3,8}",
        host in "[a-z]{3,10}",
        pad in 0u64..1000,
        seed in any::<u64>(),
    ) {
        prop_assume!(fn_name != var);
        let src = program(&fn_name, &var, &host, pad);
        for profile in profiles() {
            let a = Obfuscator::new(profile.clone(), seed).obfuscate_source(&src);
            let b = Obfuscator::new(profile.clone(), seed).obfuscate_source(&src);
            prop_assert_eq!(&a, &b, "profile {} not deterministic", profile.name);
        }
    }

    #[test]
    fn mutants_still_lex_and_parse(
        fn_name in "[a-z]{4,10}",
        var in "[a-z]{3,8}",
        host in "[a-z]{3,10}",
        pad in 0u64..1000,
        seed in any::<u64>(),
    ) {
        prop_assume!(fn_name != var);
        let src = program(&fn_name, &var, &host, pad);
        for profile in profiles() {
            let out = Obfuscator::new(profile.clone(), seed).obfuscate_source(&src);
            let tokens = pysrc::lex(&out);
            prop_assert_eq!(tokens.last().map(|t| t.kind), Some(pysrc::Kind::EOF));
            let module = pysrc::parse_module(&out);
            prop_assert!(
                !module.body.is_empty(),
                "profile {} produced an unparsable mutant:\n{}",
                profile.name,
                out
            );
        }
    }

    #[test]
    fn import_set_is_invariant(
        fn_name in "[a-z]{4,10}",
        var in "[a-z]{3,8}",
        host in "[a-z]{3,10}",
        seed in any::<u64>(),
    ) {
        prop_assume!(fn_name != var);
        let src = program(&fn_name, &var, &host, 7);
        let mut base = pysrc::collect_imports(&pysrc::parse_module(&src));
        base.sort();
        for profile in profiles() {
            let out = Obfuscator::new(profile.clone(), seed).obfuscate_source(&src);
            let mut got = pysrc::collect_imports(&pysrc::parse_module(&out));
            got.sort();
            prop_assert_eq!(
                &got, &base,
                "profile {} changed the import set:\n{}", profile.name, out
            );
        }
    }

    #[test]
    fn aggressive_mutant_kills_the_contiguous_atoms(
        fn_name in "[a-z]{6,10}",
        var in "[a-z]{4,8}",
        host in "[a-z]{6,10}",
        seed in any::<u64>(),
    ) {
        prop_assume!(fn_name != var && fn_name != host && var != host);
        let src = program(&fn_name, &var, &host, 3);
        let out = Obfuscator::new(EvasionProfile::aggressive(), seed).obfuscate_source(&src);
        prop_assert!(out != src);
        // The author-chosen function name is gone...
        prop_assert!(!out.contains(&fn_name), "rename failed:\n{out}");
        // ...and the mutant still declares exactly one function.
        let module = pysrc::parse_module(&out);
        let defs = module
            .statements()
            .iter()
            .filter(|s| matches!(s, pysrc::Stmt::FunctionDef { .. }))
            .count();
        prop_assert!(defs >= 1, "function lost:\n{out}");
    }
}

/// Transforms never mangle a file so badly the lexer loses the payload
/// line count entirely: the mutant has at least as many lines.
#[test]
fn mutants_never_shrink_below_the_original_statement_count() {
    let src = "import os\n\ndef a():\n    return 1\n\ndef b():\n    return 2\n\nx = a() + b()\n";
    for profile in profiles() {
        for seed in 0..4u64 {
            let out = Obfuscator::new(profile.clone(), seed).obfuscate_source(src);
            let base = pysrc::parse_module(src).body.len();
            let got = pysrc::parse_module(&out).body.len();
            assert!(
                got >= base,
                "profile {} seed {seed} lost statements: {got} < {base}\n{out}",
                profile.name
            );
        }
    }
}
