//! The three metadata-extraction paths of Fig. 1: `pkg-info`, `setup`
//! file, and registry-API JSON (`egg-info`).

use jsonmini::Value;

use crate::package::{Package, PackageMetadata};

/// Which extraction path produced the metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataSource {
    /// Parsed from a `PKG-INFO` file.
    PkgInfo,
    /// Parsed from the `setup.py` `setup(...)` call.
    SetupFile,
    /// Parsed from the registry JSON API response.
    RegistryJson,
}

/// Renders metadata in `PKG-INFO` key/value format.
pub fn render_pkg_info(meta: &PackageMetadata) -> String {
    let mut out = String::new();
    out.push_str("Metadata-Version: 2.1\n");
    out.push_str(&format!("Name: {}\n", meta.name));
    out.push_str(&format!("Version: {}\n", meta.version));
    out.push_str(&format!("Summary: {}\n", meta.summary));
    out.push_str(&format!("Home-page: {}\n", meta.home_page));
    out.push_str(&format!("Author: {}\n", meta.author));
    out.push_str(&format!("Author-email: {}\n", meta.author_email));
    out.push_str(&format!("License: {}\n", meta.license));
    for dep in &meta.dependencies {
        out.push_str(&format!("Requires-Dist: {dep}\n"));
    }
    out.push_str(&format!("Description: {}\n", meta.description));
    out
}

/// Parses `PKG-INFO` text (unknown keys ignored, missing keys empty).
pub fn parse_pkg_info(text: &str) -> PackageMetadata {
    let mut meta = PackageMetadata::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match key.trim() {
            "Name" => meta.name = value.to_owned(),
            "Version" => meta.version = value.to_owned(),
            "Summary" => meta.summary = value.to_owned(),
            "Home-page" => meta.home_page = value.to_owned(),
            "Author" => meta.author = value.to_owned(),
            "Author-email" => meta.author_email = value.to_owned(),
            "License" => meta.license = value.to_owned(),
            "Requires-Dist" => meta.dependencies.push(value.to_owned()),
            "Description" => meta.description = value.to_owned(),
            _ => {}
        }
    }
    meta
}

/// Renders the registry JSON API response for a package
/// (`https://registry.../{name}` style, Fig. 1).
pub fn render_registry_json(meta: &PackageMetadata) -> String {
    let mut info = Value::object();
    info.insert("name", meta.name.as_str());
    info.insert("version", meta.version.as_str());
    info.insert("summary", meta.summary.as_str());
    info.insert("description", meta.description.as_str());
    info.insert("home_page", meta.home_page.as_str());
    info.insert("author", meta.author.as_str());
    info.insert("author_email", meta.author_email.as_str());
    info.insert("license", meta.license.as_str());
    info.insert(
        "requires_dist",
        Value::Array(
            meta.dependencies
                .iter()
                .map(|d| Value::from(d.as_str()))
                .collect(),
        ),
    );
    let mut doc = Value::object();
    doc.insert("info", info);
    doc.to_string()
}

/// Parses a registry JSON API response.
///
/// # Errors
///
/// Returns the parser's error message when the JSON is malformed, or a
/// schema message when the `info` object or its required `name` /
/// `version` fields are missing. Optional fields default to empty, like
/// the registry API's nullable members.
pub fn parse_registry_json(text: &str) -> Result<PackageMetadata, String> {
    let value = jsonmini::parse(text)?;
    let info = value
        .get("info")
        .ok_or_else(|| "missing `info` object".to_owned())?;
    let required = |key: &str| -> Result<String, String> {
        info.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing `info.{key}` field"))
    };
    let optional = |key: &str| -> String {
        info.get(key)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    Ok(PackageMetadata {
        name: required("name")?,
        version: required("version")?,
        summary: optional("summary"),
        description: optional("description"),
        home_page: optional("home_page"),
        author: optional("author"),
        author_email: optional("author_email"),
        license: optional("license"),
        dependencies: info
            .get("requires_dist")
            .and_then(Value::as_array)
            .map(|items| {
                items
                    .iter()
                    .filter_map(Value::as_str)
                    .map(str::to_owned)
                    .collect()
            })
            .unwrap_or_default(),
    })
}

/// Renders a plausible `setup.py` for the metadata (used by the corpus
/// generator).
pub fn render_setup_py(meta: &PackageMetadata, extra_body: &str) -> String {
    let deps = meta
        .dependencies
        .iter()
        .map(|d| format!("'{d}'"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "from setuptools import setup, find_packages\n{extra}\nsetup(\n    name='{name}',\n    version='{version}',\n    description='{summary}',\n    author='{author}',\n    author_email='{email}',\n    url='{url}',\n    license='{license}',\n    install_requires=[{deps}],\n    packages=find_packages(),\n)\n",
        extra = extra_body,
        name = meta.name,
        version = meta.version,
        summary = meta.summary,
        author = meta.author,
        email = meta.author_email,
        url = meta.home_page,
        license = meta.license,
        deps = deps,
    )
}

/// Extracts metadata from a `setup.py` source by locating the `setup(...)`
/// call and reading its keyword arguments.
pub fn parse_setup_py(source: &str) -> Option<PackageMetadata> {
    let module = pysrc_parse(source);
    let src = module.source();
    let calls = collect_calls(&module);
    for call in calls {
        if let pysrc::Expr::Call { func, args } = *call {
            if module.expr(func).func_path(&module) != "setup" {
                continue;
            }
            let mut meta = PackageMetadata::default();
            for arg in module.args(args) {
                let Some(name) = arg.name.map(|n| n.text(src)) else {
                    continue;
                };
                let value = match *module.expr(arg.value) {
                    pysrc::Expr::Str(s) => s.text(&module).to_owned(),
                    other => other.to_text(&module),
                };
                match name {
                    "name" => meta.name = value,
                    "version" => meta.version = value,
                    "description" => meta.summary = value,
                    "long_description" => meta.description = value,
                    "author" => meta.author = value,
                    "author_email" => meta.author_email = value,
                    "url" => meta.home_page = value,
                    "license" => meta.license = value,
                    "install_requires" => {
                        // Rendered list text: ['a', 'b']
                        meta.dependencies = value
                            .trim_start_matches('[')
                            .trim_end_matches(']')
                            .split(',')
                            .map(|s| s.trim().trim_matches('\'').trim_matches('"').to_owned())
                            .filter(|s| !s.is_empty())
                            .collect();
                    }
                    _ => {}
                }
            }
            if !meta.name.is_empty() {
                return Some(meta);
            }
        }
    }
    None
}

fn pysrc_parse(source: &str) -> pysrc::Module {
    pysrc::parse_module(source)
}

fn collect_calls(module: &pysrc::Module) -> Vec<&pysrc::Expr> {
    pysrc::collect_calls(module)
}

/// Extracts metadata from a package, trying all three paths of Fig. 1:
/// `PKG-INFO` in the archive, the `setup` file, then the registry JSON.
pub fn extract_metadata(pkg: &Package) -> (PackageMetadata, MetadataSource) {
    if let Some(setup) = pkg.setup_file() {
        if let Some(meta) = parse_setup_py(&setup.contents) {
            return (meta, MetadataSource::SetupFile);
        }
    }
    if let Some(info) = pkg.file("PKG-INFO") {
        let meta = parse_pkg_info(&info.contents);
        if !meta.name.is_empty() {
            return (meta, MetadataSource::PkgInfo);
        }
    }
    // Fall back to the package's own (registry) metadata serialized as the
    // API response — the `egg-info` path.
    let json = render_registry_json(pkg.metadata());
    let meta = parse_registry_json(&json).expect("self-rendered JSON is valid");
    (meta, MetadataSource::RegistryJson)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{Ecosystem, SourceFile};

    fn meta() -> PackageMetadata {
        PackageMetadata {
            name: "colorstext".into(),
            version: "0.0.0".into(),
            summary: "colors".into(),
            description: "long text".into(),
            home_page: "https://example.org".into(),
            author: "anon".into(),
            author_email: "a@b.c".into(),
            license: "MIT".into(),
            dependencies: vec!["requests".into(), "rich".into()],
        }
    }

    #[test]
    fn pkg_info_roundtrip() {
        let rendered = render_pkg_info(&meta());
        let parsed = parse_pkg_info(&rendered);
        assert_eq!(parsed, meta());
    }

    #[test]
    fn registry_json_roundtrip() {
        let rendered = render_registry_json(&meta());
        let parsed = parse_registry_json(&rendered).expect("parse");
        assert_eq!(parsed, meta());
    }

    #[test]
    fn registry_json_rejects_garbage() {
        assert!(parse_registry_json("not json").is_err());
        assert!(parse_registry_json("{}").is_err());
    }

    #[test]
    fn setup_py_roundtrip() {
        let rendered = render_setup_py(&meta(), "");
        let parsed = parse_setup_py(&rendered).expect("parse");
        assert_eq!(parsed.name, "colorstext");
        assert_eq!(parsed.version, "0.0.0");
        assert_eq!(
            parsed.dependencies,
            vec!["requests".to_owned(), "rich".to_owned()]
        );
    }

    #[test]
    fn setup_py_without_setup_call() {
        assert!(parse_setup_py("print('no setup here')\n").is_none());
    }

    #[test]
    fn extract_prefers_setup_file() {
        let pkg = Package::new(
            meta(),
            vec![SourceFile::new("setup.py", render_setup_py(&meta(), ""))],
            Ecosystem::PyPi,
        );
        let (m, source) = extract_metadata(&pkg);
        assert_eq!(source, MetadataSource::SetupFile);
        assert_eq!(m.name, "colorstext");
    }

    #[test]
    fn extract_falls_back_to_registry_json() {
        let pkg = Package::new(
            meta(),
            vec![SourceFile::new("pkg/__init__.py", "x = 1\n")],
            Ecosystem::PyPi,
        );
        let (m, source) = extract_metadata(&pkg);
        assert_eq!(source, MetadataSource::RegistryJson);
        assert_eq!(m, meta());
    }

    #[test]
    fn extract_uses_pkg_info_entry() {
        let pkg = Package::new(
            PackageMetadata::default(),
            vec![SourceFile::new("PKG-INFO", render_pkg_info(&meta()))],
            Ecosystem::PyPi,
        );
        let (m, source) = extract_metadata(&pkg);
        assert_eq!(source, MetadataSource::PkgInfo);
        assert_eq!(m.name, "colorstext");
    }
}
