//! Distance functions.
//!
//! The hot loops are written over `&[f32]` slices with 4-way manual unrolling
//! (perf-book: give LLVM straight-line FP code to vectorize; avoid iterator
//! adapter chains in the innermost loop).

/// Supported distance metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Distance {
    /// Squared Euclidean distance (monotone in Euclidean; cheaper).
    #[default]
    SquaredEuclidean,
    /// Euclidean (L2) distance.
    Euclidean,
    /// Cosine distance `1 - cos(a, b)` (0 for identical directions).
    Cosine,
    /// Negative dot product (so that smaller = more similar, like the others).
    NegativeDot,
}

impl Distance {
    /// Compute the distance between two equal-length vectors.
    pub fn compute(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Distance::SquaredEuclidean => squared_euclidean(a, b),
            Distance::Euclidean => squared_euclidean(a, b).sqrt(),
            Distance::Cosine => cosine_distance(a, b),
            Distance::NegativeDot => -dot(a, b),
        }
    }

    /// Name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Distance::SquaredEuclidean => "l2sq",
            Distance::Euclidean => "l2",
            Distance::Cosine => "cosine",
            Distance::NegativeDot => "dot",
        }
    }
}

/// Squared Euclidean distance.
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let j = i * 4;
        let d0 = a[j] - b[j];
        let d1 = a[j + 1] - b[j + 1];
        let d2 = a[j + 2] - b[j + 2];
        let d3 = a[j + 3] - b[j + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut sum = s0 + s1 + s2 + s3;
    for j in chunks * 4..n {
        let d = a[j] - b[j];
        sum += d * d;
    }
    sum
}

/// Dot product.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut sum = s0 + s1 + s2 + s3;
    for j in chunks * 4..n {
        sum += a[j] * b[j];
    }
    sum
}

/// Euclidean norm.
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine distance `1 - cos(a, b)`; zero vectors are treated as maximally far.
pub(crate) fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot(a, b) / (na * nb)
}

/// Normalize a vector in place to unit length (no-op for the zero vector).
pub fn normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_euclidean_basic() {
        assert_eq!(squared_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(Distance::Euclidean.compute(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn unrolled_matches_naive_for_all_lengths() {
        for n in 0..20 {
            let a: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
            let b: Vec<f32> = (0..n).map(|i| (n - i) as f32 * 0.25).collect();
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!((squared_euclidean(&a, &b) - naive).abs() < 1e-4, "n={n}");
            let naive_dot: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive_dot).abs() < 1e-4, "n={n}");
        }
    }

    #[test]
    fn cosine_properties() {
        assert!(cosine_distance(&[1.0, 0.0], &[2.0, 0.0]).abs() < 1e-6);
        assert!((cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_distance(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0);
    }

    #[test]
    fn negative_dot_orders_by_similarity() {
        let q = [1.0f32, 1.0];
        let close = Distance::NegativeDot.compute(&q, &[2.0, 2.0]);
        let far = Distance::NegativeDot.compute(&q, &[0.1, 0.0]);
        assert!(close < far);
    }

    #[test]
    fn normalize_unit_length() {
        let mut v = vec![3.0f32, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0f32, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn metric_names() {
        assert_eq!(Distance::SquaredEuclidean.name(), "l2sq");
        assert_eq!(Distance::Cosine.name(), "cosine");
    }
}
