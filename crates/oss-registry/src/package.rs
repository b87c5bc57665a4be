//! Package, metadata and source-file types.

use crate::archive::{Archive, ArchiveError};

/// The OSS ecosystem a package belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ecosystem {
    /// Python Package Index (`.py` sources, `setup.py`).
    PyPi,
    /// npm registry (`.js` sources, `package.json`).
    Npm,
}

impl Ecosystem {
    /// Source-file extension used by the ecosystem.
    pub fn extension(&self) -> &'static str {
        match self {
            Ecosystem::PyPi => "py",
            Ecosystem::Npm => "js",
        }
    }
}

/// Package metadata, as maintained by authors (Fig. 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackageMetadata {
    /// Package name.
    pub name: String,
    /// Version string (`0.0.0` is a paper audit signal).
    pub version: String,
    /// Short summary.
    pub summary: String,
    /// Long description (possibly empty — an audit signal).
    pub description: String,
    /// Home page URL.
    pub home_page: String,
    /// Author display name.
    pub author: String,
    /// Author email.
    pub author_email: String,
    /// SPDX license text.
    pub license: String,
    /// Declared dependencies.
    pub dependencies: Vec<String>,
}

impl PackageMetadata {
    /// Creates metadata with just a name and version; other fields empty.
    pub fn new(name: impl Into<String>, version: impl Into<String>) -> Self {
        PackageMetadata {
            name: name.into(),
            version: version.into(),
            ..PackageMetadata::default()
        }
    }
}

/// One source file inside a package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Path relative to the package root.
    pub path: String,
    /// File contents.
    pub contents: String,
}

impl SourceFile {
    /// Creates a source file.
    pub fn new(path: impl Into<String>, contents: impl Into<String>) -> Self {
        SourceFile {
            path: path.into(),
            contents: contents.into(),
        }
    }

    /// Number of lines in the file.
    pub fn loc(&self) -> usize {
        self.contents.lines().count()
    }
}

/// A software package: metadata plus source files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Package {
    metadata: PackageMetadata,
    files: Vec<SourceFile>,
    ecosystem: Ecosystem,
}

impl Package {
    /// Creates a package.
    pub fn new(metadata: PackageMetadata, files: Vec<SourceFile>, ecosystem: Ecosystem) -> Self {
        Package {
            metadata,
            files,
            ecosystem,
        }
    }

    /// The package metadata.
    pub fn metadata(&self) -> &PackageMetadata {
        &self.metadata
    }

    /// The source files.
    pub fn files(&self) -> &[SourceFile] {
        &self.files
    }

    /// The ecosystem this package targets.
    pub fn ecosystem(&self) -> Ecosystem {
        self.ecosystem
    }

    /// Total lines of code across all source files (Table VI statistic).
    pub fn loc(&self) -> usize {
        self.files.iter().map(SourceFile::loc).sum()
    }

    /// Finds a file by exact path.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }

    /// The `setup.py` / `package.json` install manifest, if present.
    pub fn setup_file(&self) -> Option<&SourceFile> {
        match self.ecosystem {
            Ecosystem::PyPi => self.file("setup.py"),
            Ecosystem::Npm => self.file("package.json"),
        }
    }

    /// Concatenated source of every code file (used for whole-package
    /// scanning, plus the dedup signature).
    pub fn combined_source(&self) -> String {
        let mut out = String::new();
        self.combined_pieces(|piece| out.push_str(piece));
        out
    }

    /// Hands `piece` the pieces of [`Package::combined_source`] in order:
    /// per file a header line naming its path, then its contents, ended
    /// by a newline if they lack one.
    fn combined_pieces(&self, mut piece: impl FnMut(&str)) {
        for f in &self.files {
            piece("# ==== file: ");
            piece(&f.path);
            piece("\n");
            piece(&f.contents);
            if !f.contents.ends_with('\n') {
                piece("\n");
            }
        }
    }

    /// Content signature used for deduplication (§V-A reduces 3,200
    /// packages to 1,633 unique ones by signature).
    ///
    /// Only code content participates: GuardDog duplicates differ in
    /// name/version but share their payload.
    ///
    /// It is the BLAKE2b-256 of [`Package::combined_source`]'s bytes, fed
    /// to the hasher piece by piece instead of built as one string.
    pub fn signature(&self) -> String {
        let mut hasher = digest::Blake2b256::new();
        self.combined_pieces(|piece| hasher.update(piece.as_bytes()));
        digest::to_hex(&hasher.finalize())
    }

    /// Packs the package into a distribution [`Archive`].
    pub fn pack(&self) -> Archive {
        let mut archive = Archive::new(&self.metadata.name, &self.metadata.version);
        archive.add_entry(
            "PKG-INFO",
            crate::metadata::render_pkg_info(&self.metadata).as_bytes(),
        );
        archive.add_entry(
            "metadata.json",
            crate::metadata::render_registry_json(&self.metadata).as_bytes(),
        );
        for f in &self.files {
            archive.add_entry(&f.path, f.contents.as_bytes());
        }
        archive
    }

    /// Unpacks a distribution archive back into a package (the paper's
    /// "Unpacking" step, §III-B).
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError`] on a corrupt archive or missing metadata.
    pub fn unpack(archive: &Archive) -> Result<Package, ArchiveError> {
        let mut metadata = None;
        let mut files = Vec::new();
        for (path, data) in archive.entries() {
            match path {
                "PKG-INFO" => {
                    let text = String::from_utf8_lossy(data);
                    metadata = Some(crate::metadata::parse_pkg_info(&text));
                }
                "metadata.json" => {
                    if metadata.is_none() {
                        let text = String::from_utf8_lossy(data);
                        metadata = crate::metadata::parse_registry_json(&text).ok();
                    }
                }
                _ => files.push(SourceFile::new(
                    path,
                    String::from_utf8_lossy(data).into_owned(),
                )),
            }
        }
        let metadata = metadata.ok_or(ArchiveError::MissingMetadata)?;
        let ecosystem = if files.iter().any(|f| f.path.ends_with(".js")) {
            Ecosystem::Npm
        } else {
            Ecosystem::PyPi
        };
        Ok(Package {
            metadata,
            files,
            ecosystem,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Package {
        Package::new(
            PackageMetadata {
                name: "colorstext".into(),
                version: "0.0.0".into(),
                summary: "terminal colors".into(),
                description: String::new(),
                home_page: String::new(),
                author: "anon".into(),
                author_email: "a@b.c".into(),
                license: "MIT".into(),
                dependencies: vec!["requests".into()],
            },
            vec![
                SourceFile::new("setup.py", "from setuptools import setup\nsetup()\n"),
                SourceFile::new("colorstext/__init__.py", "import os\n"),
            ],
            Ecosystem::PyPi,
        )
    }

    #[test]
    fn loc_sums_files() {
        assert_eq!(sample().loc(), 3);
    }

    #[test]
    fn setup_file_found() {
        assert_eq!(
            sample().setup_file().map(|f| f.path.as_str()),
            Some("setup.py")
        );
    }

    #[test]
    fn signature_stable_and_content_sensitive() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.signature(), b.signature());
        b.files[1].contents.push_str("x = 1\n");
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn signature_hashes_the_combined_source() {
        let mut pkg = sample();
        pkg.files[1].contents = "import os".into();
        assert!(pkg.files[0].contents.ends_with('\n'));
        assert!(!pkg.files[1].contents.ends_with('\n'));
        let combined = pkg.combined_source();
        assert_eq!(
            pkg.signature(),
            digest::to_hex(&digest::blake2b256(combined.as_bytes()))
        );
    }

    #[test]
    fn signature_ignores_metadata() {
        let a = sample();
        let mut b = sample();
        b.metadata.name = "colorstext2".into();
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let pkg = sample();
        let back = Package::unpack(&pkg.pack()).expect("unpack");
        assert_eq!(back.metadata().name, "colorstext");
        assert_eq!(back.files().len(), 2);
        assert_eq!(back.ecosystem(), Ecosystem::PyPi);
        assert_eq!(back.metadata().dependencies, vec!["requests".to_owned()]);
    }

    #[test]
    fn combined_source_includes_all_files() {
        let s = sample().combined_source();
        assert!(s.contains("setup.py"));
        assert!(s.contains("colorstext/__init__.py"));
        assert!(s.contains("import os"));
    }

    #[test]
    fn ecosystem_extension() {
        assert_eq!(Ecosystem::PyPi.extension(), "py");
        assert_eq!(Ecosystem::Npm.extension(), "js");
    }
}
