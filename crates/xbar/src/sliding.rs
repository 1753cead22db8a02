//! Kernel-window sliding iterators.
//!
//! INCA implements kernel sliding by re-gating transistor lines between
//! reads ("by turning off the first column and on the third column, the
//! next convolution can be computed", §IV-A). These iterators enumerate the
//! window positions for both the standard overlapping slide and the
//! non-overlapping fold INCA uses for pointwise/FC layers (§IV-C: "slide
//! the window with the stride that is same as the kernel size").

/// Iterator over top-left window positions of a `kh × kw` kernel sliding
/// with `stride` over an `h × w` plane.
///
/// # Examples
///
/// ```
/// use inca_xbar::sliding::Windows;
///
/// let positions: Vec<_> = Windows::new(4, 4, 2, 2, 1).collect();
/// assert_eq!(positions.len(), 9);
/// assert_eq!(positions[0], (0, 0));
/// assert_eq!(positions[8], (2, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Windows {
    oh: usize,
    ow: usize,
    stride: usize,
    next: usize,
}

impl Windows {
    /// Creates the iterator. Returns an empty iterator when the kernel does
    /// not fit or `stride == 0`.
    #[must_use]
    pub fn new(h: usize, w: usize, kh: usize, kw: usize, stride: usize) -> Self {
        let (oh, ow) = output_dims(h, w, kh, kw, stride);
        Self { oh, ow, stride: stride.max(1), next: 0 }
    }

    /// Non-overlapping fold: stride equals the kernel size (pointwise/FC
    /// mapping).
    #[must_use]
    pub fn folded(h: usize, w: usize, kh: usize, kw: usize) -> Self {
        Self::new(h, w, kh, kw, kh.max(kw))
    }

    /// Output dimensions `(oh, ow)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.oh, self.ow)
    }
}

impl Iterator for Windows {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.next >= self.oh * self.ow {
            return None;
        }
        let r = (self.next / self.ow) * self.stride;
        let c = (self.next % self.ow) * self.stride;
        self.next += 1;
        Some((r, c))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.oh * self.ow - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Windows {}

/// Output dimensions of a valid (no-padding) convolution:
/// `((h - kh)/stride + 1, (w - kw)/stride + 1)`, or `(0, 0)` when the
/// kernel does not fit or `stride` is zero.
#[must_use]
pub fn output_dims(h: usize, w: usize, kh: usize, kw: usize, stride: usize) -> (usize, usize) {
    if kh == 0 || kw == 0 || kh > h || kw > w || stride == 0 {
        return (0, 0);
    }
    ((h - kh) / stride + 1, (w - kw) / stride + 1)
}

/// Output dimensions with symmetric zero padding `pad` on each side.
#[must_use]
pub fn output_dims_padded(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize) {
    output_dims(h + 2 * pad, w + 2 * pad, kh, kw, stride)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_one_enumerates_all_windows() {
        let v: Vec<_> = Windows::new(3, 3, 2, 2, 1).collect();
        assert_eq!(v, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn stride_two_skips() {
        let v: Vec<_> = Windows::new(4, 4, 2, 2, 2).collect();
        assert_eq!(v, vec![(0, 0), (0, 2), (2, 0), (2, 2)]);
    }

    #[test]
    fn folded_equals_kernel_stride() {
        let v: Vec<_> = Windows::folded(4, 4, 2, 2).collect();
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn kernel_too_big_yields_empty() {
        assert_eq!(Windows::new(2, 2, 3, 3, 1).count(), 0);
        assert_eq!(output_dims(2, 2, 3, 3, 1), (0, 0));
    }

    #[test]
    fn zero_stride_yields_empty() {
        assert_eq!(Windows::new(4, 4, 2, 2, 0).count(), 0);
    }

    #[test]
    fn exact_size_iterator() {
        let mut w = Windows::new(5, 5, 3, 3, 1);
        assert_eq!(w.len(), 9);
        w.next();
        assert_eq!(w.len(), 8);
    }

    #[test]
    fn padded_dims_vgg_conv() {
        // 224x224, 3x3 kernel, stride 1, pad 1 => same spatial size.
        assert_eq!(output_dims_padded(224, 224, 3, 3, 1, 1), (224, 224));
        // 224x224, 2x2 pool stride 2 => 112x112.
        assert_eq!(output_dims(224, 224, 2, 2, 2), (112, 112));
    }
}
