use crate::{LayerKind, LayerSpec, PoolKind};

/// Sequential builder that tracks the running feature-map shape.
///
/// Residual side branches (ResNet downsample convs, inverted-residual
/// skips) are supported by capturing a checkpoint of the current shape and
/// emitting layers against it.
///
/// # Examples
///
/// ```
/// use inca_workloads::ModelBuilder;
///
/// let layers = ModelBuilder::new(3, 32, 32)
///     .conv(16, 3, 1, 1, true)
///     .relu()
///     .max_pool(2, 2)
///     .finish();
/// assert_eq!(layers.len(), 3);
/// assert_eq!(layers[2].oh, 16);
/// ```
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    layers: Vec<LayerSpec>,
    c: usize,
    h: usize,
    w: usize,
}

impl ModelBuilder {
    /// Starts a model with the given input shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        assert!(c > 0 && h > 0 && w > 0, "input shape must be positive");
        Self { layers: Vec::new(), c, h, w }
    }

    /// Current shape `(c, h, w)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.c, self.h, self.w)
    }

    /// Restores the running shape to a previously captured checkpoint —
    /// used to emit a residual side branch.
    pub(crate) fn restore(&mut self, shape: (usize, usize, usize)) -> &mut Self {
        self.c = shape.0;
        self.h = shape.1;
        self.w = shape.2;
        self
    }

    fn conv_out(&self, k: usize, stride: usize, pad: usize) -> (usize, usize) {
        ((self.h + 2 * pad - k) / stride + 1, (self.w + 2 * pad - k) / stride + 1)
    }

    /// Appends a dense convolution.
    pub fn conv(mut self, cout: usize, k: usize, stride: usize, pad: usize, bias: bool) -> Self {
        self.push_conv(cout, k, stride, pad, 1, bias);
        self
    }

    /// Appends a dense convolution (by-reference form for loops).
    pub(crate) fn conv_mut(
        &mut self,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
        bias: bool,
    ) -> &mut Self {
        self.push_conv(cout, k, stride, pad, 1, bias);
        self
    }

    /// Appends a depthwise convolution (groups = channels).
    pub(crate) fn depthwise_mut(&mut self, k: usize, stride: usize, pad: usize) -> &mut Self {
        let c = self.c;
        self.push_conv(c, k, stride, pad, c, false);
        self
    }

    /// Appends a pointwise (1 × 1) convolution.
    pub(crate) fn pointwise_mut(&mut self, cout: usize) -> &mut Self {
        self.push_conv(cout, 1, 1, 0, 1, false);
        self
    }

    fn push_conv(&mut self, cout: usize, k: usize, stride: usize, pad: usize, groups: usize, bias: bool) {
        let (oh, ow) = self.conv_out(k, stride, pad);
        self.layers.push(LayerSpec {
            kind: LayerKind::Conv { k, stride, pad, groups, bias },
            cin: self.c,
            h: self.h,
            w: self.w,
            cout,
            oh,
            ow,
        });
        self.c = cout;
        self.h = oh;
        self.w = ow;
    }

    /// Appends a batch-normalization layer.
    pub(crate) fn bn_mut(&mut self) -> &mut Self {
        let s = LayerSpec {
            kind: LayerKind::BatchNorm,
            cin: self.c,
            h: self.h,
            w: self.w,
            cout: self.c,
            oh: self.h,
            ow: self.w,
        };
        self.layers.push(s);
        self
    }

    /// Appends an activation layer.
    pub fn relu(mut self) -> Self {
        self.relu_mut();
        self
    }

    /// Appends an activation layer (by-reference form).
    pub(crate) fn relu_mut(&mut self) -> &mut Self {
        let s = LayerSpec {
            kind: LayerKind::Activation,
            cin: self.c,
            h: self.h,
            w: self.w,
            cout: self.c,
            oh: self.h,
            ow: self.w,
        };
        self.layers.push(s);
        self
    }

    /// Appends max pooling.
    pub fn max_pool(mut self, k: usize, stride: usize) -> Self {
        self.pool_mut(PoolKind::Max, k, stride);
        self
    }

    /// Appends pooling (by-reference form).
    pub(crate) fn pool_mut(&mut self, kind: PoolKind, k: usize, stride: usize) -> &mut Self {
        let oh = (self.h - k) / stride + 1;
        let ow = (self.w - k) / stride + 1;
        self.layers.push(LayerSpec {
            kind: LayerKind::Pool { kind, k, stride },
            cin: self.c,
            h: self.h,
            w: self.w,
            cout: self.c,
            oh,
            ow,
        });
        self.h = oh;
        self.w = ow;
        self
    }

    /// Appends global average pooling (to 1 × 1).
    pub(crate) fn global_avg_pool_mut(&mut self) -> &mut Self {
        self.layers.push(LayerSpec {
            kind: LayerKind::GlobalAvgPool,
            cin: self.c,
            h: self.h,
            w: self.w,
            cout: self.c,
            oh: 1,
            ow: 1,
        });
        self.h = 1;
        self.w = 1;
        self
    }

    /// Appends a residual addition marker (no parameters; shape unchanged).
    pub(crate) fn residual_add_mut(&mut self) -> &mut Self {
        let s = LayerSpec {
            kind: LayerKind::ResidualAdd,
            cin: self.c,
            h: self.h,
            w: self.w,
            cout: self.c,
            oh: self.h,
            ow: self.w,
        };
        self.layers.push(s);
        self
    }

    /// Appends a fully-connected layer over the flattened current shape.
    pub fn linear(mut self, out: usize, bias: bool) -> Self {
        self.linear_mut(out, bias);
        self
    }

    /// Appends a fully-connected layer (by-reference form).
    pub(crate) fn linear_mut(&mut self, out: usize, bias: bool) -> &mut Self {
        self.layers.push(LayerSpec {
            kind: LayerKind::Linear { bias },
            cin: self.c,
            h: self.h,
            w: self.w,
            cout: out,
            oh: 1,
            ow: 1,
        });
        self.c = out;
        self.h = 1;
        self.w = 1;
        self
    }

    /// Finishes building, returning the layer list.
    #[must_use]
    pub fn finish(self) -> Vec<LayerSpec> {
        self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Builder conv output dims follow the standard formula for any valid
        /// geometry.
        #[test]
        fn conv_output_dims(h in 4usize..64, k in 1usize..5, stride in 1usize..3, pad in 0usize..2, cout in 1usize..8) {
            prop_assume!(h + 2 * pad >= k);
            let mut b = ModelBuilder::new(3, h, h);
            b.conv_mut(cout, k, stride, pad, false);
            let (c, oh, _) = b.shape();
            prop_assert_eq!(c, cout);
            prop_assert_eq!(oh, (h + 2 * pad - k) / stride + 1);
        }
        /// Depthwise layers always have fan-in k² and macs = k² x outputs.
        #[test]
        fn depthwise_invariants(c in 1usize..16, k in 1usize..5) {
            let mut b = ModelBuilder::new(c, 16, 16);
            b.depthwise_mut(k, 1, k / 2);
            let layers = b.clone().finish();
            let dw = layers.last().unwrap();
            prop_assert!(dw.is_depthwise() == (c > 1));
            prop_assert_eq!(dw.fan_in(), (k * k) as u64);
            prop_assert_eq!(dw.macs(), (k * k) as u64 * dw.output_elems());
        }
    }

    #[test]
    fn shapes_flow_through() {
        let layers = ModelBuilder::new(3, 224, 224)
            .conv(64, 3, 1, 1, true)
            .relu()
            .max_pool(2, 2)
            .conv(128, 3, 1, 1, true)
            .finish();
        assert_eq!(layers[0].oh, 224);
        assert_eq!(layers[2].oh, 112);
        assert_eq!(layers[3].cin, 64);
        assert_eq!(layers[3].oh, 112);
    }

    #[test]
    fn strided_conv() {
        let mut b = ModelBuilder::new(3, 224, 224);
        b.conv_mut(32, 3, 2, 1, false);
        assert_eq!(b.shape(), (32, 112, 112));
    }

    #[test]
    fn restore_enables_side_branches() {
        let mut b = ModelBuilder::new(64, 56, 56);
        let checkpoint = b.shape();
        b.conv_mut(128, 3, 2, 1, false).bn_mut().relu_mut().conv_mut(128, 3, 1, 1, false);
        let main_out = b.shape();
        // Side branch: 1x1 stride-2 downsample from the checkpoint.
        b.restore(checkpoint).conv_mut(128, 1, 2, 0, false);
        assert_eq!(b.shape(), main_out);
    }

    #[test]
    fn linear_flattens() {
        let mut b = ModelBuilder::new(512, 7, 7);
        b.linear_mut(4096, true);
        assert_eq!(b.shape(), (4096, 1, 1));
    }

    #[test]
    fn global_pool_to_1x1() {
        let mut b = ModelBuilder::new(1280, 7, 7);
        b.global_avg_pool_mut();
        assert_eq!(b.shape(), (1280, 1, 1));
    }
}
