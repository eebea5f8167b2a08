//! Layer definitions, shape propagation, and per-layer cost quantities.
//!
//! Following the paper, activation functions and normalization are *fused*
//! into the compute layer that precedes them ([`Activation`] and the
//! `batch_norm`/`local_response_norm` flags on [`LayerKind::Conv2d`]), so the
//! layer list corresponds one-to-one to the partitionable boundaries of
//! Fig 1.

use crate::tensor::TensorShape;
use crate::NnError;
use std::fmt;

/// Fused activation applied at the end of a compute layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// No activation (linear output).
    None,
    /// Rectified linear unit — used on every layer of the search space
    /// except the final classifier.
    #[default]
    Relu,
    /// Softmax — the final classifier layer of Fig 4.
    Softmax,
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Activation::None => write!(f, "linear"),
            Activation::Relu => write!(f, "relu"),
            Activation::Softmax => write!(f, "softmax"),
        }
    }
}

/// The computational kind of a layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution with fused activation and optional fused
    /// normalization.
    Conv2d {
        /// Number of output channels (filters).
        out_channels: u32,
        /// Square kernel side.
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Symmetric zero padding.
        padding: u32,
        /// Channel groups (AlexNet uses 2 on conv2/4/5).
        groups: u32,
        /// Fused activation.
        activation: Activation,
        /// Fused batch normalization (all conv layers of the search space).
        batch_norm: bool,
        /// Fused local response normalization (AlexNet conv1/conv2).
        local_response_norm: bool,
    },
    /// 2-D max pooling.
    MaxPool2d {
        /// Square kernel side.
        kernel: u32,
        /// Stride.
        stride: u32,
    },
    /// 2-D average pooling. `kernel == input spatial size` gives global
    /// average pooling (GAP), the modern FC-free classifier head.
    AvgPool2d {
        /// Square kernel side.
        kernel: u32,
        /// Stride.
        stride: u32,
    },
    /// Fully connected layer with fused activation; requires a flat input.
    Dense {
        /// Number of output features.
        out_features: u32,
        /// Fused activation.
        activation: Activation,
    },
    /// Reshape to a flat vector; zero cost, size unchanged.
    Flatten,
    /// Dropout; zero inference cost, size unchanged. Kept so search-space
    /// architectures can carry training-time structure.
    Dropout {
        /// Drop probability in `[0, 1)`, in per-mille to stay `Eq`/`Hash`.
        permille: u16,
    },
}

/// A named layer: the unit of the per-layer analysis and the granularity at
/// which the network can be split between edge and cloud.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    name: String,
    kind: LayerKind,
}

impl Layer {
    /// Creates a layer.
    pub fn new(name: impl Into<String>, kind: LayerKind) -> Self {
        Layer {
            name: name.into(),
            kind,
        }
    }

    /// Convenience constructor for a convolution with ReLU and batch norm
    /// (the search-space default).
    pub fn conv(name: impl Into<String>, out_channels: u32, kernel: u32, padding: u32) -> Self {
        Layer::new(
            name,
            LayerKind::Conv2d {
                out_channels,
                kernel,
                stride: 1,
                padding,
                groups: 1,
                activation: Activation::Relu,
                batch_norm: true,
                local_response_norm: false,
            },
        )
    }

    /// Convenience constructor for 2×2 stride-2 max pooling (the search
    /// space's optional block pooling).
    pub fn max_pool2(name: impl Into<String>) -> Self {
        Layer::new(
            name,
            LayerKind::MaxPool2d {
                kernel: 2,
                stride: 2,
            },
        )
    }

    /// Convenience constructor for global average pooling over the given
    /// spatial size (the FC-free classifier head of NiN/SqueezeNet-style
    /// models).
    pub fn global_avg_pool(name: impl Into<String>, spatial: u32) -> Self {
        Layer::new(
            name,
            LayerKind::AvgPool2d {
                kernel: spatial,
                stride: 1,
            },
        )
    }

    /// Convenience constructor for a fully connected layer with ReLU.
    pub fn dense(name: impl Into<String>, out_features: u32) -> Self {
        Layer::new(
            name,
            LayerKind::Dense {
                out_features,
                activation: Activation::Relu,
            },
        )
    }

    /// The layer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer's kind.
    pub fn kind(&self) -> &LayerKind {
        &self.kind
    }

    /// Validates the layer's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] for zero kernels/strides/output
    /// sizes or inconsistent group counts.
    pub fn validate(&self) -> Result<(), NnError> {
        let invalid = |reason: String| NnError::InvalidLayer {
            layer: self.name.clone(),
            reason,
        };
        match &self.kind {
            LayerKind::Conv2d {
                out_channels,
                kernel,
                stride,
                groups,
                ..
            } => {
                if *out_channels == 0 {
                    return Err(invalid("zero output channels".into()));
                }
                if *kernel == 0 {
                    return Err(invalid("zero kernel".into()));
                }
                if *stride == 0 {
                    return Err(invalid("zero stride".into()));
                }
                if *groups == 0 {
                    return Err(invalid("zero groups".into()));
                }
                if out_channels % groups != 0 {
                    return Err(invalid(format!(
                        "groups {groups} does not divide out_channels {out_channels}"
                    )));
                }
            }
            LayerKind::MaxPool2d { kernel, stride } | LayerKind::AvgPool2d { kernel, stride } => {
                if *kernel == 0 {
                    return Err(invalid("zero kernel".into()));
                }
                if *stride == 0 {
                    return Err(invalid("zero stride".into()));
                }
            }
            LayerKind::Dense { out_features, .. } => {
                if *out_features == 0 {
                    return Err(invalid("zero output features".into()));
                }
            }
            LayerKind::Flatten => {}
            LayerKind::Dropout { permille } => {
                if *permille >= 1000 {
                    return Err(invalid(format!(
                        "dropout probability {permille}‰ must be < 1000‰"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Computes the output shape for a given input shape (floor convention
    /// for spatial reductions).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the layer cannot consume the
    /// shape (kernel larger than padded input, dense on non-flat input,
    /// group count not dividing input channels).
    pub fn output_shape(&self, input: &TensorShape) -> Result<TensorShape, NnError> {
        let mismatch = |reason: String| NnError::ShapeMismatch {
            layer: self.name.clone(),
            input: *input,
            reason,
        };
        match &self.kind {
            LayerKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                groups,
                ..
            } => {
                if !input.channels().is_multiple_of(*groups) {
                    return Err(mismatch(format!(
                        "groups {groups} does not divide input channels {}",
                        input.channels()
                    )));
                }
                let h = conv_out_dim(input.height(), *kernel, *stride, *padding)
                    .ok_or_else(|| mismatch(format!("kernel {kernel} exceeds padded height")))?;
                let w = conv_out_dim(input.width(), *kernel, *stride, *padding)
                    .ok_or_else(|| mismatch(format!("kernel {kernel} exceeds padded width")))?;
                Ok(TensorShape::new(*out_channels, h, w))
            }
            LayerKind::MaxPool2d { kernel, stride } | LayerKind::AvgPool2d { kernel, stride } => {
                let h = conv_out_dim(input.height(), *kernel, *stride, 0)
                    .ok_or_else(|| mismatch(format!("pool kernel {kernel} exceeds height")))?;
                let w = conv_out_dim(input.width(), *kernel, *stride, 0)
                    .ok_or_else(|| mismatch(format!("pool kernel {kernel} exceeds width")))?;
                Ok(TensorShape::new(input.channels(), h, w))
            }
            LayerKind::Dense { out_features, .. } => {
                if !input.is_flat() {
                    return Err(mismatch(
                        "dense layer requires a flat input; insert a Flatten layer".into(),
                    ));
                }
                Ok(TensorShape::flat(*out_features))
            }
            LayerKind::Flatten => Ok(input.flattened()),
            LayerKind::Dropout { .. } => Ok(*input),
        }
    }

    /// Multiply-accumulate operations performed on the given input.
    ///
    /// Pooling, flatten, and dropout perform no MACs; their (small) cost is
    /// captured by the performance models through data-movement features.
    pub fn macs(&self, input: &TensorShape) -> u64 {
        match &self.kind {
            LayerKind::Conv2d { kernel, groups, .. } => {
                let out = match self.output_shape(input) {
                    Ok(s) => s,
                    Err(_) => return 0,
                };
                let in_ch_per_group = (input.channels() / groups) as u64;
                out.num_elements() * in_ch_per_group * (*kernel as u64) * (*kernel as u64)
            }
            LayerKind::Dense { out_features, .. } => input.num_elements() * (*out_features as u64),
            LayerKind::MaxPool2d { .. }
            | LayerKind::AvgPool2d { .. }
            | LayerKind::Flatten
            | LayerKind::Dropout { .. } => 0,
        }
    }

    /// Number of trainable parameters given the input shape (weights +
    /// biases + fused-normalization scale/shift).
    pub fn params(&self, input: &TensorShape) -> u64 {
        match &self.kind {
            LayerKind::Conv2d {
                out_channels,
                kernel,
                groups,
                batch_norm,
                ..
            } => {
                let in_ch_per_group = (input.channels() / groups) as u64;
                let weights =
                    in_ch_per_group * (*kernel as u64) * (*kernel as u64) * (*out_channels as u64);
                let bias = *out_channels as u64;
                let bn = if *batch_norm {
                    2 * (*out_channels as u64)
                } else {
                    0
                };
                weights + bias + bn
            }
            LayerKind::Dense { out_features, .. } => {
                input.num_elements() * (*out_features as u64) + (*out_features as u64)
            }
            LayerKind::MaxPool2d { .. }
            | LayerKind::AvgPool2d { .. }
            | LayerKind::Flatten
            | LayerKind::Dropout { .. } => 0,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            LayerKind::Conv2d {
                out_channels,
                kernel,
                stride,
                ..
            } => write!(
                f,
                "{}: conv {}x{}/{} -> {} ch",
                self.name, kernel, kernel, stride, out_channels
            ),
            LayerKind::MaxPool2d { kernel, stride } => {
                write!(f, "{}: maxpool {}x{}/{}", self.name, kernel, kernel, stride)
            }
            LayerKind::AvgPool2d { kernel, stride } => {
                write!(f, "{}: avgpool {}x{}/{}", self.name, kernel, kernel, stride)
            }
            LayerKind::Dense { out_features, .. } => {
                write!(f, "{}: dense -> {}", self.name, out_features)
            }
            LayerKind::Flatten => write!(f, "{}: flatten", self.name),
            LayerKind::Dropout { permille } => {
                write!(f, "{}: dropout {:.1}%", self.name, *permille as f64 / 10.0)
            }
        }
    }
}

/// `floor((dim + 2*padding - kernel)/stride) + 1`, or `None` when the kernel
/// does not fit in the padded input.
fn conv_out_dim(dim: u32, kernel: u32, stride: u32, padding: u32) -> Option<u32> {
    let padded = dim as i64 + 2 * padding as i64;
    let span = padded - kernel as i64;
    if span < 0 {
        return None;
    }
    Some((span as u32) / stride + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv1_alexnet() -> Layer {
        Layer::new(
            "conv1",
            LayerKind::Conv2d {
                out_channels: 96,
                kernel: 11,
                stride: 4,
                padding: 2,
                groups: 1,
                activation: Activation::Relu,
                batch_norm: false,
                local_response_norm: true,
            },
        )
    }

    #[test]
    fn alexnet_conv1_shape() {
        let input = TensorShape::new(3, 224, 224);
        let out = conv1_alexnet().output_shape(&input).unwrap();
        assert_eq!(out, TensorShape::new(96, 55, 55));
    }

    #[test]
    fn alexnet_pool_shape() {
        let pool = Layer::new(
            "pool1",
            LayerKind::MaxPool2d {
                kernel: 3,
                stride: 2,
            },
        );
        let out = pool.output_shape(&TensorShape::new(96, 55, 55)).unwrap();
        assert_eq!(out, TensorShape::new(96, 27, 27));
    }

    #[test]
    fn conv_macs_known_value() {
        // AlexNet conv1: 55*55*96 output elems * 3 in-ch * 11*11.
        let input = TensorShape::new(3, 224, 224);
        let macs = conv1_alexnet().macs(&input);
        assert_eq!(macs, 55 * 55 * 96 * 3 * 11 * 11); // 105,415,200
    }

    #[test]
    fn grouped_conv_halves_macs_and_params() {
        let mk = |groups| {
            Layer::new(
                "conv2",
                LayerKind::Conv2d {
                    out_channels: 256,
                    kernel: 5,
                    stride: 1,
                    padding: 2,
                    groups,
                    activation: Activation::Relu,
                    batch_norm: false,
                    local_response_norm: false,
                },
            )
        };
        let input = TensorShape::new(96, 27, 27);
        assert_eq!(mk(1).macs(&input), 2 * mk(2).macs(&input));
        // params: weights halve, bias does not.
        let p1 = mk(1).params(&input);
        let p2 = mk(2).params(&input);
        assert_eq!(p1 - 256, 2 * (p2 - 256));
    }

    #[test]
    fn dense_requires_flat_input() {
        let fc = Layer::dense("fc6", 4096);
        let err = fc.output_shape(&TensorShape::new(256, 6, 6)).unwrap_err();
        assert!(matches!(err, NnError::ShapeMismatch { .. }));
        let out = fc.output_shape(&TensorShape::flat(9216)).unwrap();
        assert_eq!(out, TensorShape::flat(4096));
    }

    #[test]
    fn dense_macs_and_params() {
        let fc = Layer::dense("fc6", 4096);
        let input = TensorShape::flat(9216);
        assert_eq!(fc.macs(&input), 9216 * 4096);
        assert_eq!(fc.params(&input), 9216 * 4096 + 4096);
    }

    #[test]
    fn flatten_and_dropout_are_free() {
        let input = TensorShape::new(256, 6, 6);
        let flat = Layer::new("flat", LayerKind::Flatten);
        assert_eq!(flat.macs(&input), 0);
        assert_eq!(flat.params(&input), 0);
        assert_eq!(flat.output_shape(&input).unwrap(), TensorShape::flat(9216));
        let drop = Layer::new("drop", LayerKind::Dropout { permille: 500 });
        assert_eq!(drop.output_shape(&input).unwrap(), input);
        assert_eq!(drop.macs(&input), 0);
    }

    #[test]
    fn batch_norm_adds_params() {
        let with_bn = Layer::conv("c", 64, 3, 1);
        let without = Layer::new(
            "c",
            LayerKind::Conv2d {
                out_channels: 64,
                kernel: 3,
                stride: 1,
                padding: 1,
                groups: 1,
                activation: Activation::Relu,
                batch_norm: false,
                local_response_norm: false,
            },
        );
        let input = TensorShape::new(3, 32, 32);
        assert_eq!(with_bn.params(&input), without.params(&input) + 2 * 64);
    }

    #[test]
    fn validate_catches_bad_params() {
        let bad = Layer::new(
            "bad",
            LayerKind::Conv2d {
                out_channels: 0,
                kernel: 3,
                stride: 1,
                padding: 0,
                groups: 1,
                activation: Activation::None,
                batch_norm: false,
                local_response_norm: false,
            },
        );
        assert!(matches!(bad.validate(), Err(NnError::InvalidLayer { .. })));
        let bad_groups = Layer::new(
            "bad",
            LayerKind::Conv2d {
                out_channels: 10,
                kernel: 3,
                stride: 1,
                padding: 0,
                groups: 3,
                activation: Activation::None,
                batch_norm: false,
                local_response_norm: false,
            },
        );
        assert!(bad_groups.validate().is_err());
        assert!(Layer::new("d", LayerKind::Dropout { permille: 1000 })
            .validate()
            .is_err());
        assert!(Layer::conv("ok", 8, 3, 1).validate().is_ok());
    }

    #[test]
    fn kernel_too_large_errors() {
        let conv = Layer::conv("c", 8, 7, 0);
        assert!(conv.output_shape(&TensorShape::new(3, 5, 5)).is_err());
    }

    #[test]
    fn avg_pool_shapes_and_costs() {
        let gap = Layer::global_avg_pool("gap", 6);
        let input = TensorShape::new(256, 6, 6);
        assert_eq!(
            gap.output_shape(&input).unwrap(),
            TensorShape::new(256, 1, 1)
        );
        assert_eq!(gap.macs(&input), 0);
        assert_eq!(gap.params(&input), 0);
        assert!(format!("{gap}").contains("avgpool"));
        let avg = Layer::new(
            "a",
            LayerKind::AvgPool2d {
                kernel: 2,
                stride: 2,
            },
        );
        assert_eq!(
            avg.output_shape(&TensorShape::new(8, 8, 8)).unwrap(),
            TensorShape::new(8, 4, 4)
        );
        assert!(Layer::new(
            "bad",
            LayerKind::AvgPool2d {
                kernel: 0,
                stride: 1
            }
        )
        .validate()
        .is_err());
    }

    #[test]
    fn display_mentions_name() {
        assert!(format!("{}", Layer::dense("fc6", 4096)).contains("fc6"));
        assert!(format!("{}", Layer::max_pool2("p")).contains("maxpool"));
        assert_eq!(format!("{}", Activation::Relu), "relu");
    }
}
