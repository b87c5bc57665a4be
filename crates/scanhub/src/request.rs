//! Scan requests — the service's wire type.
//!
//! A request is a list of **file entries** (name + bytes), not a
//! pre-flattened buffer: every scan view (the YARA byte units, the
//! Python sources for Semgrep, the per-file digests keying the artifact
//! cache) is *derived* from the one stored copy of each file's bytes.
//! The seed model carried the same content twice — a concatenated
//! buffer plus owned source strings — which doubled the resident size
//! of every queued Python-heavy upload.

use std::sync::{Arc, OnceLock};

use oss_registry::Package;

use crate::cache::DigestKey;

/// One file of a package upload: a name and a single shared copy of its
/// bytes.
///
/// Bytes are reference-counted so cloning a request (queueing, caching,
/// artifact building) never copies file content.
#[derive(Debug, Clone)]
pub struct FileEntry {
    name: String,
    bytes: Arc<Vec<u8>>,
    /// Lazily computed content digest, shared across clones. The bytes
    /// are immutable once the entry exists, so the first hash serves
    /// every later cache lookup, sibling registration and re-submission
    /// of the same entry.
    digest: Arc<OnceLock<DigestKey>>,
}

impl PartialEq for FileEntry {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.bytes == other.bytes
    }
}

impl Eq for FileEntry {}

impl FileEntry {
    /// Creates an entry from a file name and its raw bytes.
    pub fn new(name: impl Into<String>, bytes: Vec<u8>) -> Self {
        FileEntry {
            name: name.into(),
            bytes: Arc::new(bytes),
            digest: Arc::new(OnceLock::new()),
        }
    }

    /// The file name (registry-relative path).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The file's raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The shared handle to the bytes (the artifact builder keeps one,
    /// so cached artifacts add no second copy of the content).
    pub(crate) fn shared_bytes(&self) -> Arc<Vec<u8>> {
        Arc::clone(&self.bytes)
    }

    /// Whether this entry is a Python source (parsed for Semgrep and
    /// string-literal interning).
    pub fn is_python(&self) -> bool {
        self.name.ends_with(".py")
    }

    /// Whether the content digest has been computed (or adopted).
    pub(crate) fn digest_known(&self) -> bool {
        self.digest.get().is_some()
    }

    /// Takes `digest` as this entry's content digest, when it has none
    /// yet: the digest of a resident artifact of the same name whose
    /// bytes equal this entry's. Same name means same python-ness, so it
    /// is the digest [`FileEntry::digest`] would compute.
    pub(crate) fn adopt_digest(&self, digest: DigestKey) -> bool {
        self.digest.set(digest).is_ok()
    }

    /// Content digest keying the per-file artifact cache.
    ///
    /// The digest covers the bytes plus the python-ness of the entry
    /// (the analysis of `a.py` differs from the analysis of identical
    /// bytes named `a.txt`), but *not* the full name: the same source
    /// file shipped in two packages shares one artifact.
    pub fn digest(&self) -> DigestKey {
        *self.digest.get_or_init(|| {
            let mut hasher = digest::Sha256::new();
            hasher.update(&[u8::from(self.is_python())]);
            hasher.update(&self.bytes);
            hasher.finalize()
        })
    }
}

/// One package prepared for scanning: an ordered list of file entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRequest {
    files: Vec<FileEntry>,
}

impl ScanRequest {
    /// Creates a request from prepared file entries.
    pub fn from_files(files: Vec<FileEntry>) -> Self {
        ScanRequest { files }
    }

    /// A single-file Python request (tests, ad-hoc snippets).
    pub fn from_source(name: impl Into<String>, code: impl Into<String>) -> Self {
        ScanRequest::from_files(vec![FileEntry::new(name, code.into().into_bytes())])
    }

    /// A single-file opaque request (no Python analysis).
    pub fn from_bytes(name: impl Into<String>, bytes: Vec<u8>) -> Self {
        ScanRequest::from_files(vec![FileEntry::new(name, bytes)])
    }

    /// Prepares an [`oss_registry::Package`] upload for scanning: one
    /// entry per source file plus a rendered `PKG-INFO` entry, so
    /// metadata rules can fire.
    pub fn from_package(pkg: &Package) -> Self {
        let mut files: Vec<FileEntry> = pkg
            .files()
            .iter()
            .map(|f| FileEntry::new(f.path.clone(), f.contents.clone().into_bytes()))
            .collect();
        files.push(FileEntry::new(
            "PKG-INFO",
            oss_registry::render_pkg_info(pkg.metadata()).into_bytes(),
        ));
        ScanRequest { files }
    }

    /// The file entries, in scan order.
    pub fn files(&self) -> &[FileEntry] {
        &self.files
    }

    /// Total length of the scan view (what `filesize` rule conditions
    /// observe): every entry plus one newline separator between
    /// entries. The separator guarantees no text atom or token run can
    /// span a file boundary, so scanning files as independent units and
    /// unioning their hit sets is equivalent to scanning the flat view
    /// for every literal atom. A regex whose character classes can
    /// match `\n` could still straddle the separator in the flat view;
    /// per-unit scanning deliberately excludes such cross-file matches
    /// — a string match that spans two unrelated files is noise, not
    /// evidence.
    pub fn scan_len(&self) -> usize {
        self.files.iter().map(|f| f.bytes.len()).sum::<usize>() + self.files.len().saturating_sub(1)
    }

    /// Heap bytes of file content this request holds. Exactly one copy
    /// per file: equal to [`ScanRequest::scan_len`], which the memory-
    /// accounting test pins (the seed model stored Python content twice).
    pub fn stored_bytes(&self) -> usize {
        self.files
            .iter()
            .map(|f| {
                // An entry whose Arc is shared with a clone is charged to
                // one holder only.
                if Arc::strong_count(&f.bytes) > 1 {
                    f.bytes.len() / Arc::strong_count(&f.bytes)
                } else {
                    f.bytes.len()
                }
            })
            .sum()
    }

    /// The flattened scan view: every entry concatenated in order,
    /// newline-separated. The hub never materializes this (it scans per
    /// entry and merges rebased hit sets); oracles and differential
    /// tests use it to reproduce the pre-artifact whole-buffer scan
    /// semantics.
    pub fn concat_buffer(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.scan_len());
        for (i, f) in self.files.iter().enumerate() {
            if i > 0 {
                out.push(b'\n');
            }
            out.extend_from_slice(&f.bytes);
        }
        out
    }

    /// The Python sources, as lossy text (what Semgrep parses).
    pub fn python_sources(&self) -> impl Iterator<Item = std::borrow::Cow<'_, str>> {
        self.files
            .iter()
            .filter(|f| f.is_python())
            .map(|f| String::from_utf8_lossy(&f.bytes))
    }

    /// Content digest keying the verdict cache: sha256 over every
    /// entry's length-prefixed name and its [`FileEntry::digest`], so
    /// concatenation boundaries cannot collide and each file's bytes are
    /// hashed once — the per-file digest is cached in the entry and keys
    /// the artifact cache next. Use [`ScanRequest::digest_hex`] for
    /// display.
    pub fn digest(&self) -> DigestKey {
        let mut hasher = digest::Sha256::new();
        for f in &self.files {
            hasher.update(&(f.name.len() as u64).to_le_bytes());
            hasher.update(f.name.as_bytes());
            hasher.update(&f.digest());
        }
        hasher.finalize()
    }

    /// The content digest rendered as 64 lowercase hex chars, for logs
    /// and reports.
    pub fn digest_hex(&self) -> String {
        digest::to_hex(&self.digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oss_registry::{Ecosystem, PackageMetadata, SourceFile};

    fn sample() -> Package {
        Package::new(
            PackageMetadata::new("pkg", "1.0"),
            vec![
                SourceFile::new("setup.py", "from setuptools import setup\nsetup()\n"),
                SourceFile::new("pkg/data.txt", "not python\n"),
            ],
            Ecosystem::PyPi,
        )
    }

    #[test]
    fn from_package_includes_metadata_and_python_sources() {
        let req = ScanRequest::from_package(&sample());
        assert_eq!(req.files().len(), 3);
        let text = String::from_utf8_lossy(&req.concat_buffer()).into_owned();
        assert!(text.contains("Name: pkg"));
        assert!(text.contains("setuptools"));
        let sources: Vec<String> = req.python_sources().map(|s| s.into_owned()).collect();
        assert_eq!(sources.len(), 1, "only .py files are Semgrep sources");
        assert!(sources[0].contains("setup()"));
    }

    #[test]
    fn file_content_is_stored_exactly_once() {
        // The memory-accounting assertion of the refactor: the seed's
        // request model held Python content in both the flat buffer and
        // the owned source list, so a pure-Python upload cost ~2x its
        // size. The entry model stores one copy; every scan view is
        // derived.
        let req = ScanRequest::from_package(&sample());
        let content: usize = req.files().iter().map(|f| f.bytes().len()).sum();
        assert_eq!(req.stored_bytes(), content);
        // The scan view adds only the virtual separators, never a copy.
        assert_eq!(req.scan_len(), content + req.files().len() - 1);
        assert_eq!(req.concat_buffer().len(), req.scan_len());
        // The seed model's footprint for the same package: the flat
        // buffer plus a second copy of every Python source.
        let python: usize = req
            .files()
            .iter()
            .filter(|f| f.is_python())
            .map(|f| f.bytes().len())
            .sum();
        assert!(python > 0);
        assert!(req.stored_bytes() < content + python);
    }

    #[test]
    fn cloned_requests_share_bytes_instead_of_copying() {
        let req = ScanRequest::from_package(&sample());
        let before = req.stored_bytes();
        let clone = req.clone();
        // Shared Arcs split the charge between holders: two holders of
        // one copy together account for the size of one copy.
        assert!(req.stored_bytes() + clone.stored_bytes() <= before + req.files().len());
        assert_eq!(clone, req);
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let a = ScanRequest::from_package(&sample());
        let b = ScanRequest::from_package(&sample());
        assert_eq!(a.digest(), b.digest());
        let mut files = a.files().to_vec();
        files.push(FileEntry::new("extra.py", b"x = 1\n".to_vec()));
        let c = ScanRequest::from_files(files);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn digest_distinguishes_file_boundaries() {
        let a = ScanRequest::from_files(vec![FileEntry::new("a", b"xy".to_vec())]);
        let b = ScanRequest::from_files(vec![
            FileEntry::new("a", b"x".to_vec()),
            FileEntry::new("a", b"y".to_vec()),
        ]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_distinguishes_names() {
        let a = ScanRequest::from_bytes("a.py", b"x = 1\n".to_vec());
        let b = ScanRequest::from_bytes("b.py", b"x = 1\n".to_vec());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_covers_bytes_names_order_and_kind() {
        // The request digest is derived from the per-file digests, which
        // leave the name out: every way two uploads can differ must
        // still reach it.
        let pair = |a: (&str, &str), b: (&str, &str)| {
            let entry = |(name, code): (&str, &str)| FileEntry::new(name, code.into());
            ScanRequest::from_files(vec![entry(a), entry(b)])
        };
        let base = pair(("a.py", "x = 1\n"), ("b.py", "y = 2\n"));
        let same = pair(("a.py", "x = 1\n"), ("b.py", "y = 2\n"));
        assert_eq!(base.digest(), same.digest(), "equal requests agree");
        for (what, other) in [
            ("bytes", pair(("a.py", "x = 1\n"), ("b.py", "y = 3\n"))),
            ("name", pair(("a.py", "x = 1\n"), ("c.py", "y = 2\n"))),
            ("order", pair(("b.py", "y = 2\n"), ("a.py", "x = 1\n"))),
            ("pairing", pair(("b.py", "x = 1\n"), ("a.py", "y = 2\n"))),
            ("kind", pair(("a.txt", "x = 1\n"), ("b.py", "y = 2\n"))),
        ] {
            assert_ne!(base.digest(), other.digest(), "{what} must move it");
        }
    }

    #[test]
    fn entry_digest_is_content_addressed_across_names() {
        // The artifact cache shares analyses across packages: the same
        // source under two paths is one artifact...
        let a = FileEntry::new("pkg_a/util.py", b"import os\n".to_vec());
        let b = FileEntry::new("pkg_b/helpers.py", b"import os\n".to_vec());
        assert_eq!(a.digest(), b.digest());
        // ...but python-ness is part of the analysis, so identical bytes
        // under a non-.py name are a different artifact.
        let c = FileEntry::new("notes.txt", b"import os\n".to_vec());
        assert_ne!(a.digest(), c.digest());
        // And different bytes never collide with either.
        let d = FileEntry::new("pkg_a/util.py", b"import sys\n".to_vec());
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn digest_hex_renders_the_raw_digest() {
        let req = ScanRequest::from_source("snippet.py", "data = 1\n");
        let hex = req.digest_hex();
        assert_eq!(hex.len(), 64);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        let raw = req.digest();
        assert!(hex.starts_with(&format!("{:02x}", raw[0])));
    }
}
