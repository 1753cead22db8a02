use serde::{Deserialize, Serialize};

/// A dense row-major `f32` tensor.
///
/// Shapes follow the NCHW convention for image data: `[batch, channels,
/// height, width]`. The framework keeps tensors deliberately simple — a
/// shape vector plus a flat buffer — because the networks trained here are
/// small synthetic-task CNNs.
///
/// # Examples
///
/// ```
/// use inca_nn::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.len(), 6);
/// let u = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(u.at4(0, 0, 1, 1), 4.0); // broadcast trailing dims
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates an all-zero tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty, any dimension is zero, or the element
    /// count overflows `usize`.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty() && shape.iter().all(|&d| d > 0), "invalid shape {shape:?}");
        Self { shape: shape.to_vec(), data: vec![0.0; element_count(shape)] }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if the shape's element count overflows `usize` or
    /// `data.len()` does not equal it.
    #[must_use]
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expected = element_count(shape);
        assert_eq!(data.len(), expected, "data length {} != shape product {expected}", data.len());
        Self { shape: shape.to_vec(), data }
    }

    /// Creates a tensor filled with a constant.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        let mut t = Self::zeros(shape);
        t.data.fill(value);
        t
    }

    /// The shape vector.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true for valid tensors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat buffer.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the buffer under a new shape with the same element
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ or the new shape's count
    /// overflows `usize`.
    #[must_use]
    pub fn reshaped(mut self, shape: &[usize]) -> Self {
        let expected = element_count(shape);
        assert_eq!(self.data.len(), expected, "cannot reshape {} elements to {shape:?}", self.data.len());
        self.shape = shape.to_vec();
        self
    }

    /// NCHW element access; for tensors with fewer than 4 dims the missing
    /// *leading* dims are treated as size 1.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[must_use]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.idx4(n, c, h, w)]
    }

    /// Mutable NCHW element access.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let i = self.idx4(n, c, h, w);
        &mut self.data[i]
    }

    fn idx4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        let dims = self.dims4();
        assert!(
            n < dims[0] && c < dims[1] && h < dims[2] && w < dims[3],
            "index ({n},{c},{h},{w}) out of bounds for {:?}",
            self.shape
        );
        ((n * dims[1] + c) * dims[2] + h) * dims[3] + w
    }

    /// The shape promoted to 4 dims by prepending 1s.
    #[must_use]
    pub fn dims4(&self) -> [usize; 4] {
        let mut d = [1usize; 4];
        let offset = 4 - self.shape.len().min(4);
        for (i, &s) in self.shape.iter().rev().take(4).rev().enumerate() {
            d[offset + i] = s;
        }
        d
    }

    /// Returns `argmax` over the flat buffer (first maximal element).
    #[must_use]
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .fold((0, f32::NEG_INFINITY), |(bi, bv), (i, &v)| if v > bv { (i, v) } else { (bi, bv) })
            .0
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Extracts one sample `n` of an NCHW batch as a `[1, C, H, W]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds or the tensor is not 4-D.
    #[must_use]
    // Needed by crates/core/src/hw_network.rs (tests), tests/saturation_parity.rs (batch vs
    // one-sample forwards)
    // lint: allow(narrow-pub)
    pub fn sample(&self, n: usize) -> Tensor {
        assert_eq!(self.shape.len(), 4, "sample requires an NCHW tensor");
        let [batch, c, h, w] = self.dims4();
        assert!(n < batch, "sample {n} out of bounds for batch {batch}");
        let stride = c * h * w;
        Tensor::from_vec(self.data[n * stride..(n + 1) * stride].to_vec(), &[1, c, h, w])
    }
}

/// The largest `|v|` in `values`, or +0 if there is none above it: a NaN
/// never wins. Eight lanes fold at once, which gives the sequential fold's
/// value, since `max` over candidates that are each +0, positive or NaN
/// does not depend on the order.
pub(crate) fn max_abs(values: &[f32]) -> f32 {
    let pick = |m: f32, v: f32| if v.abs() > m { v.abs() } else { m };
    let (chunks, rest) = values.as_chunks::<8>();
    let mut lanes = [0.0f32; 8];
    for chunk in chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = pick(*m, v);
        }
    }
    lanes.into_iter().chain(rest.iter().copied()).fold(0.0, pick)
}

/// The element count of `shape`.
///
/// # Panics
///
/// Panics if the count overflows `usize`.
fn element_count(shape: &[usize]) -> usize {
    let count = shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
    assert!(count.is_some(), "element count of shape {shape:?} overflows usize");
    count.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    impl super::Tensor {
        /// Element-wise addition.
        ///
        /// # Panics
        ///
        /// Panics if shapes differ.
        fn add_assign(&mut self, rhs: &Tensor) {
            assert_eq!(self.shape, rhs.shape, "shape mismatch in add_assign");
            for (a, b) in self.data.iter_mut().zip(&rhs.data) {
                *a += b;
            }
        }

        /// Scales every element by `s`.
        fn scale(&mut self, s: f32) {
            for a in &mut self.data {
                *a *= s;
            }
        }

        fn mean(&self) -> f32 {
            self.sum() / self.data.len() as f32
        }
    }

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lane fold gives the sequential fold's bits, across lengths
        /// on both sides of the 8-lane chunks and with ±0, ±∞ and NaN.
        #[test]
        fn max_abs_matches_the_sequential_fold(len in 0usize..40, seed in any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let levels = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
            let values: Vec<f32> = (0..len)
                .map(|_| match rng.gen_range(0..10usize) {
                    i @ 0..=5 => levels[i],
                    _ => rng.gen_range(-4.0f32..4.0),
                })
                .collect();
            let sequential = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            prop_assert_eq!(max_abs(&values).to_bits(), sequential.to_bits());
        }
    }

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(z.len(), 24);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[2], 7.0);
        assert_eq!(f.data(), &[7.0, 7.0]);
    }

    #[test]
    fn nchw_indexing() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 2, 2]);
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
        assert_eq!(t.at4(0, 1, 0, 0), 4.0);
        assert_eq!(t.at4(1, 0, 0, 0), 12.0);
        assert_eq!(t.at4(1, 2, 1, 1), 23.0);
    }

    #[test]
    fn lower_rank_promoted() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        // [2, 2] promotes to [1, 1, 2, 2].
        assert_eq!(t.at4(0, 0, 1, 0), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).reshaped(&[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.at4(0, 0, 1, 1), 4.0);
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn bad_reshape_panics() {
        let _ = Tensor::zeros(&[4]).reshaped(&[3]);
    }

    #[test]
    fn arithmetic() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.add_assign(&b);
        a.scale(0.5);
        assert_eq!(a.data(), &[5.5, 11.0]);
        assert_eq!(a.sum(), 16.5);
        assert_eq!(a.mean(), 8.25);
    }

    #[test]
    fn argmax_first_maximum() {
        let t = Tensor::from_vec(vec![0.0, 5.0, 5.0, 1.0], &[4]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn sample_extracts_one_image() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 1, 2, 2]);
        let s = t.sample(1);
        assert_eq!(s.shape(), &[1, 1, 2, 2]);
        assert_eq!(s.data(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_index_panics() {
        let t = Tensor::zeros(&[1, 1, 2, 2]);
        let _ = t.at4(0, 0, 2, 0);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn zeros_rejects_an_overflowing_element_count() {
        let _ = Tensor::zeros(&[1 << 40, 1 << 40]);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn from_vec_rejects_an_overflowing_element_count() {
        let _ = Tensor::from_vec(Vec::new(), &[usize::MAX, 2, 1]);
    }
}
