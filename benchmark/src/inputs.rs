//! Workload generators. Everything here is a pure function of the
//! seed; the program under test only ever sees the generated requests
//! and rule bundles.
//!
//! The package *population* of each workload is fixed (corpus seed
//! `POPULATION_SEED`): per-package cost is heavy-tailed (a legit
//! package costs ~7x a malware package), so a seed that redrew the
//! population would move every metric by 10-25 % and detection quality
//! by several points, drowning the bounds. The seed instead drives what
//! a registry cannot control: arrival order, mutant bytes, which files
//! a release edits and where, which packages get replaced, and which
//! rules are deployed late.

use corpus::{CorpusConfig, Dataset};
use obfuscate::{EvasionProfile, Obfuscator};
use oss_registry::{Archive, Package, SourceFile};
use pysrc::TokenKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scanhub::ScanRequest;
use semgrep_engine::CompiledSemgrepRules;
use yara_engine::CompiledRules;

pub const POPULATION_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdIngest,
    VersionBumps,
    RuleDeploy,
    PaperPipeline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdIngest,
        Workload::VersionBumps,
        Workload::RuleDeploy,
        Workload::PaperPipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdIngest => "cold_ingest",
            Workload::VersionBumps => "version_bumps",
            Workload::RuleDeploy => "rule_deploy",
            Workload::PaperPipeline => "paper_pipeline",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a scan request is relative to what the hub already holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A package the hub has never seen.
    Fresh,
    /// A byte-identical re-upload (verdict-cache hit).
    Identical,
    /// The next release of a resident package: one-line edits.
    Bump,
    /// A new package taking over a lineage slot.
    Replace,
}

#[derive(Debug, Clone)]
pub struct ScanOp {
    pub request: ScanRequest,
    pub malicious: bool,
    pub kind: Kind,
}

#[derive(Debug, Clone)]
pub struct Bundle {
    pub yara: CompiledRules,
    pub semgrep: CompiledSemgrepRules,
}

#[derive(Debug, Clone)]
pub enum Op {
    Scan(ScanOp),
    /// `deploy_rules(bundle)` followed by `retro_hunt`.
    Deploy(Bundle),
}

/// One serving workload: the hub's live rules, what is resident before
/// the clock starts, and the timed operations in order.
#[derive(Debug, Clone)]
pub struct Stream {
    pub rules: Bundle,
    pub prewarm: Vec<ScanRequest>,
    pub ops: Vec<Op>,
}

impl Stream {
    pub fn scans(&self) -> impl Iterator<Item = &ScanOp> {
        self.ops.iter().filter_map(|op| match op {
            Op::Scan(scan) => Some(scan),
            Op::Deploy(_) => None,
        })
    }
}

#[derive(Debug, Clone)]
pub struct Labeled {
    pub package: Package,
    pub malicious: bool,
}

/// `packages` with one ground-truth label.
fn labeled(packages: &[Package], malicious: bool) -> impl Iterator<Item = Labeled> + '_ {
    packages.iter().map(move |p| Labeled {
        package: p.clone(),
        malicious,
    })
}

pub struct Population {
    pub malware: Vec<Package>,
    pub legit: Vec<Package>,
}

pub fn population(malware: usize, legit: usize) -> Population {
    let dataset = Dataset::generate(&CorpusConfig {
        seed: POPULATION_SEED,
        malware_unique: malware,
        malware_total: malware,
        legit_total: legit,
    });
    Population {
        malware: dataset.malware.into_iter().map(|m| m.package).collect(),
        legit: dataset.legit.into_iter().map(|l| l.package).collect(),
    }
}

/// RuleLLM's clustering is quadratic in its input; 64 packages keep a
/// set-up pass near one second.
pub const TRAINING_CAP: usize = 64;

/// The packages rules are generated from: every second malware
/// package (at most `TRAINING_CAP`), so at least half of what is
/// scanned later is unseen by the rules.
pub fn training_set(population: &Population) -> Vec<&Package> {
    population
        .malware
        .iter()
        .step_by(2)
        .take(TRAINING_CAP)
        .collect()
}

pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Aggressive mutants of every fourth malware package.
pub fn mutants(malware: &[Package], seed: u64) -> Vec<Package> {
    let engine = Obfuscator::new(EvasionProfile::aggressive(), seed);
    malware
        .iter()
        .step_by(4)
        .map(|p| engine.obfuscate_package(p))
        .collect()
}

/// A package as the gatekeeper receives it: packed into a distribution
/// archive, serialized, parsed back and unpacked.
pub fn ingest(package: &Package) -> ScanRequest {
    let wire = package.pack().to_bytes();
    let archive = Archive::from_bytes(&wire).expect("a packed archive parses");
    let unpacked = Package::unpack(&archive).expect("a packed archive unpacks");
    ScanRequest::from_package(&unpacked)
}

/// A copy of `request` with its own file entries. `FileEntry` clones
/// share their lazily computed digest, so a request that was scanned
/// once would skip per-file hashing the second time; every replay gets
/// fresh entries, as every real upload does.
pub fn fresh_copy(request: &ScanRequest) -> ScanRequest {
    ScanRequest::from_files(
        request
            .files()
            .iter()
            .map(|f| scanhub::FileEntry::new(f.name(), f.bytes().to_vec()))
            .collect(),
    )
}

// ------------------------------------------------------------ cold_ingest

pub const COLD_MALWARE: usize = 128;
pub const COLD_LEGIT: usize = 40;

/// Every package new: the population plus `mutants` of it, in seeded
/// order.
pub fn cold_ingest_packages(
    population: &Population,
    mutants: Vec<Package>,
    seed: u64,
) -> Vec<Labeled> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D);
    let mut all: Vec<Labeled> = labeled(&population.malware, true)
        .chain(labeled(&population.legit, false))
        .chain(labeled(&mutants, true))
        .collect();
    shuffle(&mut all, &mut rng);
    all
}

// ---------------------------------------------------------- version_bumps

pub const BUMP_MALWARE: usize = 40;
pub const BUMP_LEGIT: usize = 20;
pub const BUMP_ROUNDS: usize = 8;
/// Per round of `BUMP_MALWARE + BUMP_LEGIT` = 60 lineages: 20/70/10 %.
pub const BUMP_DECK: [(Kind, usize); 3] =
    [(Kind::Identical, 12), (Kind::Bump, 42), (Kind::Replace, 6)];

/// Byte offsets at which a whole top-level line can be inserted: after
/// a real newline, in front of a column-zero content token — the
/// boundaries the hub's splice accepts as provably clean.
pub fn insertion_points(source: &str) -> Vec<usize> {
    let tokens = pysrc::lex_spanned(source);
    tokens
        .windows(2)
        .filter(|w| {
            let (cur, next) = (&w[0], &w[1]);
            matches!(cur.kind(), TokenKind::Newline)
                && cur.end == cur.start + 1
                && next.token.col == 0
                && next.end > next.start
                && !matches!(next.kind(), TokenKind::Comment(_))
        })
        .map(|w| w[1].start)
        .collect()
}

/// The next release of `package`: patch version + 1 and one inserted
/// top-level assignment in `edits` of its Python files; `rng` picks the
/// files and the lines.
pub fn bump(package: &Package, edits: usize, rng: &mut StdRng) -> Package {
    let mut metadata = package.metadata().clone();
    let mut parts: Vec<String> = metadata.version.split('.').map(str::to_owned).collect();
    let last = parts.last_mut().expect("split yields at least one part");
    *last = (last.parse::<u64>().unwrap_or(0) + 1).to_string();
    metadata.version = parts.join(".");

    let mut files: Vec<SourceFile> = package.files().to_vec();
    // A release edits the package's own modules. `setup.py` and
    // `tests/…` carry the same path in every package, and the hub keys
    // splice donors by path, so an edit there would diff against some
    // other package's file; a module of a few lines cannot splice
    // either (the window would exceed half the file).
    let own_module = |f: &SourceFile| {
        f.path.ends_with(".py") && f.path.contains('/') && !f.path.starts_with("tests/")
    };
    let mut python: Vec<usize> = (0..files.len())
        .filter(|&i| own_module(&files[i]) && files[i].loc() >= 16)
        .collect();
    if python.is_empty() {
        python = (0..files.len())
            .filter(|&i| files[i].path.ends_with(".py"))
            .collect();
    }
    shuffle(&mut python, rng);
    for &index in &python[..edits.min(python.len())] {
        let file = &mut files[index];
        let points = insertion_points(&file.contents);
        let at = if points.is_empty() {
            file.contents.len()
        } else {
            points[rng.gen_range(0..points.len())]
        };
        let mut line = format!(
            "_release_{:08x} = \"{}\"\n",
            rng.next_u64() as u32,
            metadata.version
        );
        if at == file.contents.len() && !file.contents.ends_with('\n') {
            line.insert(0, '\n');
        }
        file.contents.insert_str(at, &line);
    }
    Package::new(metadata, files, package.ecosystem())
}

pub struct BumpPlan {
    pub base: Vec<Labeled>,
    pub releases: Vec<(Labeled, Kind)>,
}

/// Eight release rounds over 60 resident lineages. What happens to
/// which lineage in which round — the exact 20/70/10 deck, whether a
/// bump touches one file or two, which spare replaces whom — is fixed,
/// like the population; the seed orders the arrivals within a round and
/// picks the edited files and lines. A replaced lineage continues from
/// its new package.
pub fn version_bumps_plan(population: &Population, seed: u64) -> BumpPlan {
    let mut fixed = StdRng::seed_from_u64(POPULATION_SEED ^ 0xB0B5);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B5);
    let (base_mal, spare_mal) = population.malware.split_at(BUMP_MALWARE);
    let (base_legit, spare_legit) = population.legit.split_at(BUMP_LEGIT);
    let mut lineages: Vec<Labeled> = labeled(base_mal, true)
        .chain(labeled(base_legit, false))
        .collect();
    let base = lineages.clone();
    let mut spares: Vec<Labeled> = labeled(spare_mal, true)
        .chain(labeled(spare_legit, false))
        .collect();
    shuffle(&mut spares, &mut fixed);

    let mut releases = Vec::with_capacity(BUMP_ROUNDS * lineages.len());
    for _ in 0..BUMP_ROUNDS {
        let mut deck: Vec<(Kind, usize)> = BUMP_DECK
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .map(|kind| (kind, fixed.gen_range(1..=2usize)))
            .collect();
        assert_eq!(deck.len(), lineages.len(), "deck covers every lineage");
        shuffle(&mut deck, &mut fixed);
        let mut order: Vec<usize> = (0..lineages.len()).collect();
        shuffle(&mut order, &mut rng);
        for slot in order {
            let (kind, edits) = deck[slot];
            match kind {
                Kind::Identical => {}
                Kind::Bump => {
                    lineages[slot].package = bump(&lineages[slot].package, edits, &mut rng)
                }
                Kind::Replace => lineages[slot] = spares.pop().expect("enough spare packages"),
                Kind::Fresh => unreachable!("not in the deck"),
            }
            releases.push((lineages[slot].clone(), kind));
        }
    }
    BumpPlan { base, releases }
}

/// Packages `version_bumps` needs: the base plus one spare per
/// replacement. One spare in six is a legit package: a cold legit
/// package is the most expensive request of the stream, and at a third
/// of the spares (3.3 % of requests) p95 would sit on the edge between
/// them and the bumped releases instead of inside the bumps.
pub fn version_bumps_population() -> Population {
    let spares = BUMP_ROUNDS * BUMP_DECK[2].1;
    population(BUMP_MALWARE + spares - spares / 6, BUMP_LEGIT + spares / 6)
}

// ------------------------------------------------------------ rule_deploy

pub const DEPLOY_HISTORY_MALWARE: usize = 32;
pub const DEPLOY_HISTORY_LEGIT: usize = 16;
pub const DEPLOYMENTS: usize = 12;
pub const DEPLOY_BATCH: usize = 17;
// p95 needs ten samples beyond it.
const _: () = assert!(DEPLOYMENTS * DEPLOY_BATCH >= 200);
pub const DEPLOY_MALWARE: usize = 168;
pub const DEPLOY_LEGIT: usize = 52;

pub struct DeployPlan {
    pub history: Vec<Labeled>,
    /// `DEPLOYMENTS` batches of `DEPLOY_BATCH` fresh packages.
    pub batches: Vec<Vec<Labeled>>,
}

/// The malware `rule_deploy` draws its mutants from: what is not
/// already resident history.
pub fn rule_deploy_fresh_malware(population: &Population) -> &[Package] {
    &population.malware[DEPLOY_HISTORY_MALWARE..]
}

pub fn rule_deploy_plan(population: &Population, mutants: Vec<Package>, seed: u64) -> DeployPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE91);
    let (hist_mal, fresh_mal) = population.malware.split_at(DEPLOY_HISTORY_MALWARE);
    let (hist_legit, fresh_legit) = population.legit.split_at(DEPLOY_HISTORY_LEGIT);
    let mut history: Vec<Labeled> = labeled(hist_mal, true)
        .chain(labeled(hist_legit, false))
        .collect();
    shuffle(&mut history, &mut rng);
    let mut fresh: Vec<Labeled> = labeled(fresh_mal, true)
        .chain(labeled(fresh_legit, false))
        .chain(labeled(&mutants, true))
        .collect();
    assert!(
        fresh.len() >= DEPLOYMENTS * DEPLOY_BATCH,
        "population too small for the deployment batches"
    );
    // The same packages under every seed, in seeded order.
    fresh.truncate(DEPLOYMENTS * DEPLOY_BATCH);
    shuffle(&mut fresh, &mut rng);
    let batches = fresh
        .chunks(DEPLOY_BATCH)
        .map(<[Labeled]>::to_vec)
        .collect();
    DeployPlan { history, batches }
}

/// Splits generated rules into the hub's live bundle (every rule whose
/// index is not 2 mod 5: ~80 % of each engine) and `DEPLOYMENTS`
/// candidate bundles. The hub never swaps bundles, so every deployment
/// is a diff against the same live set: a candidate is the live bundle
/// plus a two- or three-rule window (one or two YARA, one Semgrep)
/// sliding over the held-out rules. The twelve windows are the same
/// under every seed — hunt cost differs several-fold from rule to rule
/// — and the seed orders them.
pub fn split_rules(all: &Bundle, seed: u64) -> (Bundle, Vec<Bundle>) {
    let split = |n: usize| {
        let (out, live): (Vec<usize>, Vec<usize>) = (0..n).partition(|i| i % 5 == 2);
        assert!(
            !out.is_empty() && !live.is_empty(),
            "too few generated rules to hold any out"
        );
        (out, live)
    };
    let (yara_out, yara_live) = split(all.yara.rules.len());
    let (semgrep_out, semgrep_live) = split(all.semgrep.rules.len());
    let live = Bundle {
        yara: CompiledRules {
            rules: yara_live
                .iter()
                .map(|&i| all.yara.rules[i].clone())
                .collect(),
        },
        semgrep: CompiledSemgrepRules {
            rules: semgrep_live
                .iter()
                .map(|&i| all.semgrep.rules[i].clone())
                .collect(),
        },
    };
    let mut candidates: Vec<Bundle> = (0..DEPLOYMENTS)
        .map(|d| {
            let mut bundle = live.clone();
            for k in 0..1 + d % 2 {
                let i = yara_out[(d + k) % yara_out.len()];
                bundle.yara.rules.push(all.yara.rules[i].clone());
            }
            let i = semgrep_out[d % semgrep_out.len()];
            bundle.semgrep.rules.push(all.semgrep.rules[i].clone());
            bundle
        })
        .collect();
    shuffle(&mut candidates, &mut StdRng::seed_from_u64(seed ^ 0x5917));
    (live, candidates)
}

// --------------------------------------------------------- paper_pipeline

pub const PIPELINE_CORPUS: CorpusConfig = CorpusConfig {
    seed: POPULATION_SEED,
    malware_unique: 96,
    malware_total: 180,
    legit_total: 30,
};

/// The offline corpus. Unique malware stays in canonical order (the
/// rule generator's clustering is order-sensitive, and detection
/// quality must be comparable across seeds); the seed places the
/// duplicate uploads and orders the legitimate packages.
pub fn pipeline_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A9E);
    let generated = Dataset::generate(&PIPELINE_CORPUS);
    let mut seen = std::collections::HashSet::new();
    let (mut malware, mut duplicates): (Vec<_>, Vec<_>) = generated
        .malware
        .into_iter()
        .partition(|m| seen.insert(m.package.signature()));
    shuffle(&mut duplicates, &mut rng);
    malware.extend(duplicates);
    let mut legit = generated.legit;
    shuffle(&mut legit, &mut rng);
    Dataset { malware, legit }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(requests: impl Iterator<Item = ScanRequest>) -> String {
        let mut hasher = digest::Sha256::new();
        for r in requests {
            hasher.update(&r.digest());
        }
        digest::to_hex(&hasher.finalize())
    }

    fn small() -> Population {
        population(24, 8)
    }

    #[test]
    fn cold_ingest_is_a_function_of_the_seed() {
        let pop = small();
        let stream = |seed| {
            digest_of(
                cold_ingest_packages(&pop, mutants(&pop.malware, seed), seed)
                    .iter()
                    .map(|l| ingest(&l.package)),
            )
        };
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
        let all = cold_ingest_packages(&pop, mutants(&pop.malware, 1), 1);
        let mutated = pop.malware.len().div_ceil(4);
        assert_eq!(all.len(), pop.malware.len() + pop.legit.len() + mutated);
        assert_eq!(
            all.iter().filter(|l| l.malicious).count(),
            pop.malware.len() + mutated
        );
    }

    #[test]
    fn ingest_round_trips_a_package_through_the_registry_format() {
        let pop = small();
        let direct = ScanRequest::from_package(&pop.legit[0]);
        let ingested = ingest(&pop.legit[0]);
        assert_eq!(direct.files().len(), ingested.files().len());
        assert_eq!(direct.scan_len(), ingested.scan_len());
    }

    #[test]
    fn fresh_copies_are_equal_requests() {
        let request = ScanRequest::from_source("a.py", "x = 1\n");
        let copy = fresh_copy(&request);
        assert_eq!(request, copy);
        assert_eq!(request.digest(), copy.digest());
    }

    #[test]
    fn version_bumps_mix_is_within_two_points_of_20_70_10() {
        let pop = version_bumps_population();
        let plan = version_bumps_plan(&pop, 3);
        let n = plan.releases.len() as f64;
        assert_eq!(plan.releases.len(), BUMP_ROUNDS * 60);
        let share = |kind| plan.releases.iter().filter(|(_, k)| *k == kind).count() as f64 / n;
        assert!((share(Kind::Identical) - 0.20).abs() <= 0.02);
        assert!((share(Kind::Bump) - 0.70).abs() <= 0.02);
        assert!((share(Kind::Replace) - 0.10).abs() <= 0.02);
    }

    #[test]
    fn version_bumps_is_a_function_of_the_seed() {
        let pop = version_bumps_population();
        let stream = |seed| {
            digest_of(
                version_bumps_plan(&pop, seed)
                    .releases
                    .iter()
                    .map(|(l, _)| ScanRequest::from_package(&l.package)),
            )
        };
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn identical_releases_repeat_bytes_and_bumps_change_them() {
        let pop = version_bumps_population();
        let plan = version_bumps_plan(&pop, 1);
        // A verdict-cache hit needs bytes the hub has seen; a bump must
        // be bytes it has not.
        let mut seen: std::collections::HashSet<[u8; 32]> = plan
            .base
            .iter()
            .map(|l| ScanRequest::from_package(&l.package).digest())
            .collect();
        for (release, kind) in &plan.releases {
            let digest = ScanRequest::from_package(&release.package).digest();
            match kind {
                Kind::Identical => assert!(seen.contains(&digest)),
                Kind::Bump | Kind::Replace => assert!(!seen.contains(&digest)),
                Kind::Fresh => unreachable!("not in the deck"),
            }
            seen.insert(digest);
        }
    }

    #[test]
    fn a_bump_inserts_whole_lines_at_statement_boundaries() {
        let source =
            "import os\n\ndef f(x):\n    return x\n\nVALUE = f(\n    1,\n)\nprint(VALUE)\n";
        let points = insertion_points(source);
        // In front of `def` and `print`; never inside the function body
        // or the open bracket, and not where a DEDENT sits between the
        // newline and the next statement (the hub rejects that too).
        assert_eq!(
            points,
            vec![source.find("def").unwrap(), source.find("print").unwrap()]
        );
        let pkg = Package::new(
            oss_registry::PackageMetadata::new("demo", "1.2.3"),
            vec![SourceFile::new("demo/__init__.py", source)],
            oss_registry::Ecosystem::PyPi,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let next = bump(&pkg, 1, &mut rng);
        assert_eq!(next.metadata().version, "1.2.4");
        let edited = &next.files()[0].contents;
        assert_eq!(edited.lines().count(), source.lines().count() + 1);
        assert_eq!(
            pysrc::parse_module(edited).body.len(),
            pysrc::parse_module(source).body.len() + 1
        );
    }

    #[test]
    fn rule_deploy_plan_is_seeded_and_disjoint_from_history() {
        let pop = population(DEPLOY_MALWARE, DEPLOY_LEGIT);
        let plan = |seed| {
            let fresh = mutants(rule_deploy_fresh_malware(&pop), seed);
            rule_deploy_plan(&pop, fresh, seed)
        };
        let (a, b, c) = (plan(1), plan(1), plan(2));
        let digest = |plan: &DeployPlan| {
            digest_of(
                plan.batches
                    .iter()
                    .flatten()
                    .map(|l| ScanRequest::from_package(&l.package)),
            )
        };
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        assert_eq!(
            a.history.len(),
            DEPLOY_HISTORY_MALWARE + DEPLOY_HISTORY_LEGIT
        );
        assert_eq!(a.batches.len(), DEPLOYMENTS);
        assert!(a.batches.iter().all(|b| b.len() == DEPLOY_BATCH));
    }

    #[test]
    fn split_rules_holds_out_a_fifth_and_deploys_two_or_three_at_a_time() {
        let yara: String = (0..23)
            .map(|i| format!("rule r{i} {{ strings: $a = \"needle{i}\" condition: $a }}\n"))
            .collect();
        let semgrep: Vec<_> = (0..12)
            .flat_map(|i| {
                let text = format!(
                    "rules:\n  - id: s{i}\n    languages: [python]\n    message: m\n    pattern: call{i}($X)\n"
                );
                semgrep_engine::compile(&text).expect("rule compiles").rules
            })
            .collect();
        let all = Bundle {
            yara: yara_engine::compile(&yara).expect("rules compile"),
            semgrep: CompiledSemgrepRules { rules: semgrep },
        };
        let (live, candidates) = split_rules(&all, 1);
        assert_eq!((live.yara.rules.len(), live.semgrep.rules.len()), (18, 10));
        assert_eq!(candidates.len(), DEPLOYMENTS);
        for candidate in &candidates {
            let added = candidate.yara.rules.len() - live.yara.rules.len();
            assert!(added == 1 || added == 2);
            assert_eq!(candidate.semgrep.rules.len(), live.semgrep.rules.len() + 1);
        }
        let three_rule = candidates
            .iter()
            .filter(|b| b.yara.rules.len() == live.yara.rules.len() + 2)
            .count();
        assert_eq!(three_rule, DEPLOYMENTS / 2);
        // Same live bundle under every seed; a different deployment order.
        let (live2, candidates2) = split_rules(&all, 2);
        let names = |b: &Bundle| -> Vec<String> {
            b.yara.rules.iter().map(|r| r.rule.name.clone()).collect()
        };
        assert_eq!(names(&live), names(&live2));
        assert_ne!(
            candidates.iter().map(names).collect::<Vec<_>>(),
            candidates2.iter().map(names).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pipeline_dataset_keeps_unique_malware_in_canonical_order() {
        let a = pipeline_dataset(1);
        let b = pipeline_dataset(2);
        let names = |d: &Dataset| -> Vec<String> {
            d.unique_malware()
                .iter()
                .map(|m| m.package.signature())
                .collect()
        };
        assert_eq!(names(&a), names(&b));
        assert_eq!(a.malware.len(), PIPELINE_CORPUS.malware_total);
        let legit = |d: &Dataset| -> Vec<String> {
            d.legit.iter().map(|l| l.package.signature()).collect()
        };
        assert_ne!(legit(&a), legit(&b));
        assert_eq!(legit(&a), legit(&pipeline_dataset(1)));
    }
}
