//! `rulellm-cluster` — K-Means clustering substrate.
//!
//! §III-B of the paper groups similar malware code snippets with
//! scikit-learn's K-Means: random seed 42, max 500 iterations, Euclidean
//! distance, and clusters whose intra-similarity falls below 0.85 are
//! discarded. This crate reimplements exactly that contract (k-means++
//! initialization, seeded, deterministic).
//!
//! # Examples
//!
//! ```
//! use cluster::KMeans;
//!
//! let points = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
//!     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],
//! ];
//! let result = KMeans::new(2).fit(&points)?;
//! assert_eq!(result.labels[0], result.labels[1]);
//! assert_ne!(result.labels[0], result.labels[3]);
//! # Ok::<(), cluster::ClusterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's K-Means seed (§III-B).
pub const PAPER_SEED: u64 = 42;
/// The paper's iteration cap (§III-B).
pub const PAPER_MAX_ITER: usize = 500;
/// The paper's intra-similarity retention threshold (§III-B).
pub const PAPER_SIMILARITY_THRESHOLD: f32 = 0.85;

/// Errors from clustering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// `k` was zero.
    ZeroK,
    /// No input points were supplied.
    EmptyInput,
    /// Input vectors have inconsistent dimensionality.
    DimensionMismatch,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::ZeroK => write!(f, "k must be at least 1"),
            ClusterError::EmptyInput => write!(f, "no points to cluster"),
            ClusterError::DimensionMismatch => {
                write!(f, "points have inconsistent dimensions")
            }
        }
    }
}

impl Error for ClusterError {}

/// Result of a K-Means fit.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster centroids; `centroids.len() <= k` (empty clusters dropped).
    pub centroids: Vec<Vec<f32>>,
    /// Per-point cluster index into `centroids`.
    pub labels: Vec<usize>,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Sum of squared distances of points to their centroid (inertia).
    pub inertia: f32,
}

impl KMeansResult {
    /// Point indices belonging to cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| **l == c)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Seeded K-Means with k-means++ initialization.
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    seed: u64,
}

impl KMeans {
    /// Creates a K-Means with the paper's defaults (seed 42, 500 iters).
    pub fn new(k: usize) -> Self {
        KMeans {
            k,
            seed: PAPER_SEED,
        }
    }

    /// Overrides the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fits the model to `points`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::ZeroK`], [`ClusterError::EmptyInput`] or
    /// [`ClusterError::DimensionMismatch`].
    pub fn fit(&self, points: &[Vec<f32>]) -> Result<KMeansResult, ClusterError> {
        if self.k == 0 {
            return Err(ClusterError::ZeroK);
        }
        if points.is_empty() {
            return Err(ClusterError::EmptyInput);
        }
        let dim = points[0].len();
        if points.iter().any(|p| p.len() != dim) {
            return Err(ClusterError::DimensionMismatch);
        }
        let k = self.k.min(points.len());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut centroids = kmeanspp_init(points, k, &mut rng);
        let mut labels = vec![0usize; points.len()];
        let mut iterations = 0;
        for it in 0..PAPER_MAX_ITER {
            iterations = it + 1;
            // Assignment step.
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let nearest = nearest_centroid(p, &centroids);
                if labels[i] != nearest {
                    labels[i] = nearest;
                    changed = true;
                }
            }
            // Update step.
            let mut sums = vec![vec![0f32; dim]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (p, &l) in points.iter().zip(&labels) {
                counts[l] += 1;
                for (s, x) in sums[l].iter_mut().zip(p) {
                    *s += x;
                }
            }
            for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if count > 0 {
                    for (cc, s) in c.iter_mut().zip(sum) {
                        *cc = s / count as f32;
                    }
                }
            }
            if !changed && it > 0 {
                break;
            }
        }
        // Drop empty clusters and re-index labels.
        let mut remap = vec![usize::MAX; centroids.len()];
        let mut kept = Vec::new();
        for (ci, c) in centroids.into_iter().enumerate() {
            if labels.contains(&ci) {
                remap[ci] = kept.len();
                kept.push(c);
            }
        }
        for l in &mut labels {
            *l = remap[*l];
        }
        let inertia = points
            .iter()
            .zip(&labels)
            .map(|(p, &l)| sqdist(p, &kept[l]))
            .sum();
        Ok(KMeansResult {
            centroids: kept,
            labels,
            iterations,
            inertia,
        })
    }
}

fn kmeanspp_init(points: &[Vec<f32>], k: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    while centroids.len() < k {
        let dists: Vec<f32> = points
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| sqdist(p, c))
                    .fold(f32::INFINITY, f32::min)
            })
            .collect();
        let total: f32 = dists.iter().sum();
        if total <= f32::EPSILON {
            // All points identical to existing centroids.
            centroids.push(points[rng.gen_range(0..points.len())].clone());
            continue;
        }
        let mut target = rng.gen_range(0.0..total);
        let mut chosen = points.len() - 1;
        for (i, d) in dists.iter().enumerate() {
            if target < *d {
                chosen = i;
                break;
            }
            target -= d;
        }
        centroids.push(points[chosen].clone());
    }
    centroids
}

fn nearest_centroid(p: &[f32], centroids: &[Vec<f32>]) -> usize {
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = sqdist(p, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

fn sqdist(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Mean pairwise cosine similarity of the vectors in one cluster.
///
/// Returns 1.0 for singleton clusters (a single snippet is trivially
/// homogeneous).
pub fn intra_similarity(points: &[&Vec<f32>]) -> f32 {
    if points.len() < 2 {
        return 1.0;
    }
    let mut total = 0f32;
    let mut pairs = 0usize;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            total += cosine(points[i], points[j]);
            pairs += 1;
        }
    }
    total / pairs as f32
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Groups points per §III-B: K-Means, then discard clusters whose
/// intra-similarity is below `threshold` (the paper uses 0.85).
///
/// Returns the retained clusters as lists of point indices.
///
/// # Errors
///
/// Propagates [`ClusterError`] from the underlying fit.
pub fn group_with_threshold(
    points: &[Vec<f32>],
    k: usize,
    threshold: f32,
) -> Result<Vec<Vec<usize>>, ClusterError> {
    let result = KMeans::new(k).fit(points)?;
    let mut retained = Vec::new();
    for c in 0..result.centroids.len() {
        let members = result.members(c);
        let vectors: Vec<&Vec<f32>> = members.iter().map(|&i| &points[i]).collect();
        if intra_similarity(&vectors) >= threshold {
            retained.push(members);
        }
    }
    Ok(retained)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f32>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + i as f32 * 0.01, 1.0]);
            pts.push(vec![5.0 + i as f32 * 0.01, -1.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let r = KMeans::new(2).fit(&two_blobs()).expect("fit");
        assert_eq!(r.centroids.len(), 2);
        // All even indices together, all odd together.
        let first = r.labels[0];
        for i in (0..20).step_by(2) {
            assert_eq!(r.labels[i], first);
        }
        assert_ne!(r.labels[1], first);
    }

    #[test]
    fn deterministic_across_runs() {
        let pts = two_blobs();
        let a = KMeans::new(3).fit(&pts).expect("fit");
        let b = KMeans::new(3).fit(&pts).expect("fit");
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn different_seed_may_differ_but_is_valid() {
        let pts = two_blobs();
        let r = KMeans::new(2).with_seed(7).fit(&pts).expect("fit");
        assert_eq!(r.labels.len(), pts.len());
        assert!(r.labels.iter().all(|&l| l < r.centroids.len()));
    }

    #[test]
    fn k_larger_than_points_is_clamped() {
        let pts = vec![vec![0.0], vec![1.0]];
        let r = KMeans::new(10).fit(&pts).expect("fit");
        assert!(r.centroids.len() <= 2);
    }

    #[test]
    fn zero_k_is_error() {
        assert_eq!(KMeans::new(0).fit(&[vec![1.0]]), Err(ClusterError::ZeroK));
    }

    #[test]
    fn empty_input_is_error() {
        assert_eq!(KMeans::new(2).fit(&[]), Err(ClusterError::EmptyInput));
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let pts = vec![vec![1.0], vec![1.0, 2.0]];
        assert_eq!(
            KMeans::new(1).fit(&pts),
            Err(ClusterError::DimensionMismatch)
        );
    }

    #[test]
    fn identical_points_single_cluster() {
        let pts = vec![vec![1.0, 1.0]; 8];
        let r = KMeans::new(3).fit(&pts).expect("fit");
        assert!(r.inertia < 1e-6);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let pts = two_blobs();
        let r1 = KMeans::new(1).fit(&pts).expect("fit");
        let r2 = KMeans::new(2).fit(&pts).expect("fit");
        assert!(r2.inertia < r1.inertia);
    }

    #[test]
    fn intra_similarity_of_identical_vectors_is_one() {
        let v = vec![1.0f32, 2.0, 3.0];
        let pts = [&v, &v, &v];
        assert!((intra_similarity(&pts) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn intra_similarity_singleton_is_one() {
        let v = vec![1.0f32];
        assert_eq!(intra_similarity(&[&v]), 1.0);
    }

    #[test]
    fn orthogonal_vectors_low_similarity() {
        let a = vec![1.0f32, 0.0];
        let b = vec![0.0f32, 1.0];
        assert!(intra_similarity(&[&a, &b]) < 0.1);
    }

    #[test]
    fn group_with_threshold_discards_heterogeneous() {
        // Blob of near-identical vectors + a scatter of orthogonal ones.
        let mut pts = vec![vec![1.0f32, 0.0, 0.0]; 6];
        pts.push(vec![0.0, 1.0, 0.0]);
        pts.push(vec![0.0, -1.0, 0.3]);
        pts.push(vec![0.0, 0.2, -1.0]);
        let groups = group_with_threshold(&pts, 4, 0.85).expect("group");
        // The homogeneous blob is retained as one cluster; whatever
        // clusters the scatter points land in must also satisfy the
        // threshold or be discarded.
        assert!(groups.iter().any(|g| g.len() >= 6));
        for g in &groups {
            let vectors: Vec<&Vec<f32>> = g.iter().map(|&i| &pts[i]).collect();
            assert!(intra_similarity(&vectors) >= 0.85);
        }
    }

    #[test]
    fn members_returns_cluster_indices() {
        let pts = two_blobs();
        let r = KMeans::new(2).fit(&pts).expect("fit");
        let m0 = r.members(0);
        let m1 = r.members(1);
        assert_eq!(m0.len() + m1.len(), pts.len());
    }

    #[test]
    fn paper_constants() {
        assert_eq!(PAPER_SEED, 42);
        assert_eq!(PAPER_MAX_ITER, 500);
        assert!((PAPER_SIMILARITY_THRESHOLD - 0.85).abs() < f32::EPSILON);
    }
}
