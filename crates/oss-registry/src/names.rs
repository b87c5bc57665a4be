//! Package-name analysis: popular-package list and typosquatting
//! detection (a Table II metadata audit signal).

/// The most-downloaded PyPI package names (a static snapshot standing in
/// for the top-packages feed the paper uses for its legitimate corpus).
pub const POPULAR_PACKAGES: &[&str] = &[
    "requests",
    "urllib3",
    "numpy",
    "pandas",
    "boto3",
    "setuptools",
    "botocore",
    "idna",
    "certifi",
    "charset-normalizer",
    "python-dateutil",
    "typing-extensions",
    "six",
    "pyyaml",
    "cryptography",
    "packaging",
    "pip",
    "wheel",
    "click",
    "rich",
    "colorama",
    "attrs",
    "jinja2",
    "markupsafe",
    "flask",
    "django",
    "pytest",
    "scipy",
    "matplotlib",
    "pillow",
    "sqlalchemy",
    "pydantic",
    "aiohttp",
    "tqdm",
    "beautifulsoup4",
    "lxml",
    "websockets",
    "redis",
    "celery",
    "pytz",
    "httpx",
    "fastapi",
    "uvicorn",
    "paramiko",
    "psycopg2",
    "pymongo",
    "selenium",
    "scikit-learn",
    "tensorflow",
    "torch",
];

/// Names up to this many chars keep their DP rows on the stack.
const STACK_CHARS: usize = 64;

/// Damerau-free Levenshtein edit distance between two names, in chars.
///
/// Walks both names' chars in place and keeps two DP rows of `b`'s
/// length, on the stack unless `b` is longer than 64 chars.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let n = b.chars().count();
    if a.is_empty() {
        return n;
    }
    if n == 0 {
        return a.chars().count();
    }
    let mut stack = [0usize; 2 * (STACK_CHARS + 1)];
    let mut heap = Vec::new();
    let rows = if n <= STACK_CHARS {
        &mut stack[..2 * (n + 1)]
    } else {
        heap.resize(2 * (n + 1), 0);
        &mut heap[..]
    };
    let (mut prev, mut cur) = rows.split_at_mut(n + 1);
    for (j, cell) in prev.iter_mut().enumerate() {
        *cell = j;
    }
    for (i, ca) in a.chars().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.chars().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

/// Returns the popular package `name` squats on, if any.
///
/// A name typosquats when it is within edit distance 1–2 of a popular
/// package (distance 0 means it *is* the popular package) or differs only
/// by a separator (`python-requests` vs `requests`). The distance is
/// worked out only for popular names whose length in chars is within 2
/// of `name`'s, as no other can be that close. A call allocates once: its
/// lowered name.
pub fn is_typosquat(name: &str) -> Option<&'static str> {
    let lowered = name.to_ascii_lowercase();
    if POPULAR_PACKAGES.contains(&lowered.as_str()) {
        return None;
    }
    let chars = lowered.chars().count();
    for popular in POPULAR_PACKAGES {
        if chars.abs_diff(popular.chars().count()) <= 2 {
            let d = edit_distance(&lowered, popular);
            // Distance thresholds scale with name length: very short names
            // produce too many accidental near-misses.
            if (d == 1 && popular.len() >= 4) || (d == 2 && popular.len() >= 6) {
                return Some(popular);
            }
        }
        // Prefix/suffix decoration: `requests-py`, `python-requests`.
        if lowered.len() > popular.len() + 2
            && (lowered
                .strip_prefix(popular)
                .is_some_and(|rest| rest.starts_with('-'))
                || lowered
                    .strip_suffix(popular)
                    .is_some_and(|rest| rest.ends_with('-'))
                || lowered
                    .strip_prefix("python-")
                    .is_some_and(|rest| rest.starts_with(popular))
                || lowered
                    .strip_suffix("-python")
                    .is_some_and(|rest| rest.ends_with(popular)))
        {
            return Some(popular);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn reqests_squats_requests() {
        assert_eq!(is_typosquat("reqests"), Some("requests"));
    }

    #[test]
    fn numpyy_squats_numpy() {
        assert_eq!(is_typosquat("numpyy"), Some("numpy"));
    }

    #[test]
    fn decorated_name_squats() {
        assert_eq!(is_typosquat("requests-py3"), Some("requests"));
    }

    #[test]
    fn popular_name_itself_is_not_squat() {
        assert_eq!(is_typosquat("requests"), None);
        assert_eq!(is_typosquat("numpy"), None);
    }

    #[test]
    fn unrelated_name_is_not_squat() {
        assert_eq!(is_typosquat("frobnicator-deluxe"), None);
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(is_typosquat("Reqests"), Some("requests"));
    }

    #[test]
    fn short_names_excluded() {
        // Edit distance on very short names is too noisy (pip vs pipx).
        assert_eq!(is_typosquat("pyp"), None);
    }
}
