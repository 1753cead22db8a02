use serde::{Deserialize, Serialize};

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// The operation a layer performs, with its static parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// A (possibly grouped) 2-D convolution. `groups == cin` makes it
    /// depthwise; `k == 1` makes it pointwise.
    Conv {
        /// Kernel height/width (square kernels only, as in all six models).
        k: usize,
        /// Stride.
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
        /// Channel groups (1 = dense, `cin` = depthwise).
        groups: usize,
        /// Whether the conv has a bias term (VGG yes, BN-nets no).
        bias: bool,
    },
    /// A fully-connected layer.
    Linear {
        /// Whether the layer has a bias term.
        bias: bool,
    },
    /// Batch normalization (2·C affine parameters).
    BatchNorm,
    /// ReLU / ReLU6 / other pointwise nonlinearity (no parameters).
    Activation,
    /// Spatial pooling.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling down to 1 × 1.
    GlobalAvgPool,
    /// Residual element-wise addition (no parameters; shapes only).
    ResidualAdd,
}

/// One layer of a [`crate::ModelSpec`], with resolved input/output shapes.
///
/// Shapes are `(channels, height, width)`; FC layers use `h = w = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerSpec {
    /// The operation.
    pub kind: LayerKind,
    /// Input channels.
    pub cin: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output channels.
    pub cout: usize,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
}

impl LayerSpec {
    /// Whether this layer is a convolution.
    #[must_use]
    pub fn is_conv(&self) -> bool {
        matches!(self.kind, LayerKind::Conv { .. })
    }

    /// Whether this layer is depthwise (`groups == cin` and `cin > 1`).
    #[must_use]
    pub fn is_depthwise(&self) -> bool {
        matches!(self.kind, LayerKind::Conv { groups, .. } if groups == self.cin && self.cin > 1)
    }

    /// Whether this layer is a pointwise (1 × 1, dense) convolution.
    #[must_use]
    pub fn is_pointwise(&self) -> bool {
        matches!(self.kind, LayerKind::Conv { k: 1, groups: 1, .. })
    }

    /// Whether this layer is fully-connected.
    #[must_use]
    pub fn is_linear(&self) -> bool {
        matches!(self.kind, LayerKind::Linear { .. })
    }

    /// Whether the layer carries weights the PIM arrays must compute with
    /// (conv or FC).
    #[must_use]
    pub fn is_weighted(&self) -> bool {
        self.is_conv() || self.is_linear()
    }

    /// Number of trainable parameters.
    #[must_use]
    pub fn param_count(&self) -> u64 {
        match self.kind {
            LayerKind::Conv { k, groups, bias, .. } => {
                let w = (k * k * self.cin / groups * self.cout) as u64;
                w + if bias { self.cout as u64 } else { 0 }
            }
            LayerKind::Linear { bias } => {
                let inf = (self.cin * self.h * self.w) as u64;
                inf * self.cout as u64 + if bias { self.cout as u64 } else { 0 }
            }
            LayerKind::BatchNorm => 2 * self.cout as u64,
            _ => 0,
        }
    }

    /// Number of input elements (`C · H · W`).
    #[must_use]
    pub fn input_elems(&self) -> u64 {
        (self.cin * self.h * self.w) as u64
    }

    /// Number of output elements.
    #[must_use]
    pub fn output_elems(&self) -> u64 {
        (self.cout * self.oh * self.ow) as u64
    }

    /// Multiply-accumulate count of the layer.
    #[must_use]
    pub fn macs(&self) -> u64 {
        match self.kind {
            LayerKind::Conv { k, groups, .. } => (k * k * self.cin / groups) as u64 * self.output_elems(),
            LayerKind::Linear { .. } => self.input_elems() * self.cout as u64,
            _ => 0,
        }
    }

    /// The accumulation fan-in of one output element — the number of cells
    /// a WS column must devote to it (`K·K·C/groups` for conv, `in` for FC).
    #[must_use]
    pub fn fan_in(&self) -> u64 {
        match self.kind {
            LayerKind::Conv { k, groups, .. } => (k * k * self.cin / groups) as u64,
            LayerKind::Linear { .. } => self.input_elems(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(k: usize, cin: usize, cout: usize, groups: usize, bias: bool) -> LayerSpec {
        LayerSpec {
            kind: LayerKind::Conv { k, stride: 1, pad: k / 2, groups, bias },
            cin,
            h: 8,
            w: 8,
            cout,
            oh: 8,
            ow: 8,
        }
    }

    #[test]
    fn conv_param_count() {
        // 3x3, 64->128 with bias: 3*3*64*128 + 128.
        assert_eq!(conv(3, 64, 128, 1, true).param_count(), 73_856);
        assert_eq!(conv(3, 64, 128, 1, false).param_count(), 73_728);
    }

    #[test]
    fn depthwise_param_count_and_flags() {
        let dw = conv(3, 32, 32, 32, false);
        assert!(dw.is_depthwise());
        assert!(!dw.is_pointwise());
        assert_eq!(dw.param_count(), 9 * 32);
        assert_eq!(dw.fan_in(), 9);
    }

    #[test]
    fn pointwise_flags() {
        let pw = conv(1, 32, 64, 1, false);
        assert!(pw.is_pointwise());
        assert!(!pw.is_depthwise());
        assert_eq!(pw.fan_in(), 32);
    }

    #[test]
    fn linear_param_count() {
        let fc = LayerSpec {
            kind: LayerKind::Linear { bias: true },
            cin: 512,
            h: 7,
            w: 7,
            cout: 4096,
            oh: 1,
            ow: 1,
        };
        assert_eq!(fc.param_count(), 25_088 * 4096 + 4096);
        assert_eq!(fc.macs(), 25_088 * 4096);
    }

    #[test]
    fn batchnorm_params() {
        let bn = LayerSpec { kind: LayerKind::BatchNorm, cin: 64, h: 8, w: 8, cout: 64, oh: 8, ow: 8 };
        assert_eq!(bn.param_count(), 128);
    }

    #[test]
    fn macs_of_conv() {
        // 3x3x64 -> 128 at 8x8 output: 9*64*128*64.
        assert_eq!(conv(3, 64, 128, 1, true).macs(), 9 * 64 * 128 * 64);
    }

    #[test]
    fn pool_has_no_params() {
        let p = LayerSpec {
            kind: LayerKind::Pool { kind: PoolKind::Max, k: 2, stride: 2 },
            cin: 64,
            h: 8,
            w: 8,
            cout: 64,
            oh: 4,
            ow: 4,
        };
        assert_eq!(p.param_count(), 0);
        assert_eq!(p.macs(), 0);
        assert!(!p.is_weighted());
    }
}
