//! Networks, the builder used to assemble them, and the per-layer analysis
//! that feeds Algorithm 1 (`Size_comp` in the paper's pseudocode).

use crate::layer::{Layer, LayerKind};
use crate::tensor::{DType, TensorShape};
use crate::units::Bytes;
use crate::NnError;
use std::fmt;

/// A feed-forward network: an input specification plus an ordered list of
/// layers.
///
/// # Examples
///
/// ```
/// use lens_nn::{Layer, NetworkBuilder, TensorShape};
///
/// # fn main() -> Result<(), lens_nn::NnError> {
/// let net = NetworkBuilder::new("tiny", TensorShape::new(3, 32, 32))
///     .layer(Layer::conv("conv1", 16, 3, 1))
///     .layer(Layer::max_pool2("pool1"))
///     .flatten()
///     .layer(Layer::dense("fc", 10))
///     .build()?;
/// assert_eq!(net.num_layers(), 4);
/// let analysis = net.analyze()?;
/// assert_eq!(analysis.output_shape(), TensorShape::flat(10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    name: String,
    input: TensorShape,
    input_dtype: DType,
    layers: Vec<Layer>,
}

impl Network {
    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input tensor shape.
    pub fn input(&self) -> TensorShape {
        self.input
    }

    /// The layers, in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Size of the input on the wire.
    pub fn input_bytes(&self) -> Bytes {
        self.input.size_bytes(self.input_dtype)
    }

    /// Re-expresses the same layer stack on a different input shape — used
    /// when one architecture must be viewed at the deployment resolution
    /// (224×224) and the training resolution (32×32), as the paper does.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the layer stack cannot consume the new
    /// input (e.g. more poolings than the spatial size allows).
    pub fn with_input(&self, input: TensorShape) -> Result<Network, NnError> {
        let net = Network {
            name: self.name.clone(),
            input,
            input_dtype: self.input_dtype,
            layers: self.layers.clone(),
        };
        net.analyze()?;
        Ok(net)
    }

    /// Propagates shapes through every layer and collects per-layer facts
    /// (output shape/size, MACs, parameters).
    ///
    /// # Errors
    ///
    /// Returns the first validation or shape error encountered, or
    /// [`NnError::EmptyNetwork`] when there are no layers.
    pub fn analyze(&self) -> Result<NetworkAnalysis, NnError> {
        if self.layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        let mut current = self.input;
        let mut layers = Vec::with_capacity(self.layers.len());
        for (index, layer) in self.layers.iter().enumerate() {
            layer.validate()?;
            let output = layer.output_shape(&current)?;
            layers.push(LayerAnalysis {
                index,
                name: layer.name().to_string(),
                kind: layer.kind().clone(),
                input_shape: current,
                output_shape: output,
                output_bytes: output.size_bytes(DType::F32),
                macs: layer.macs(&current),
                params: layer.params(&current),
            });
            current = output;
        }
        Ok(NetworkAnalysis {
            input: self.input,
            input_dtype: self.input_dtype,
            layers,
        })
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (input {} {})",
            self.name, self.input, self.input_dtype
        )?;
        for layer in &self.layers {
            writeln!(f, "  {layer}")?;
        }
        Ok(())
    }
}

/// Builder for [`Network`] values.
///
/// The builder inserts nothing implicitly except through the explicit
/// convenience methods; [`Network::analyze`] performs full validation.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    input: TensorShape,
    input_dtype: DType,
    layers: Vec<Layer>,
}

impl NetworkBuilder {
    /// Starts a network with the given name and input shape (input dtype
    /// defaults to `u8`, the on-the-wire camera format).
    pub fn new(name: impl Into<String>, input: TensorShape) -> Self {
        NetworkBuilder {
            name: name.into(),
            input,
            input_dtype: DType::U8,
            layers: Vec::new(),
        }
    }

    /// Overrides the element type of the input as transmitted on the wire
    /// (default `u8` for camera images, matching the paper's 147 kB
    /// figure).
    pub fn input_dtype(mut self, dtype: DType) -> Self {
        self.input_dtype = dtype;
        self
    }

    /// Appends a layer.
    pub fn layer(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a `Flatten` layer named `flatten`.
    pub fn flatten(self) -> Self {
        self.layer(Layer::new("flatten", LayerKind::Flatten))
    }

    /// Finalizes the network, validating every layer and shape transition.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] or the first layer/shape error.
    pub fn build(self) -> Result<Network, NnError> {
        let net = Network {
            name: self.name,
            input: self.input,
            input_dtype: self.input_dtype,
            layers: self.layers,
        };
        net.analyze()?;
        Ok(net)
    }
}

/// Per-layer facts computed by [`Network::analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerAnalysis {
    /// Position in the network (0-based).
    pub index: usize,
    /// Layer name.
    pub name: String,
    /// Layer kind (cloned for self-containedness).
    pub kind: LayerKind,
    /// Shape entering the layer.
    pub input_shape: TensorShape,
    /// Shape leaving the layer.
    pub output_shape: TensorShape,
    /// Wire size of the output feature map (`f32` elements) — the quantity
    /// Algorithm 1 compares against the input size.
    pub output_bytes: Bytes,
    /// Multiply-accumulate count.
    pub macs: u64,
    /// Trainable parameter count.
    pub params: u64,
}

/// The full per-layer analysis of a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkAnalysis {
    input: TensorShape,
    input_dtype: DType,
    layers: Vec<LayerAnalysis>,
}

impl NetworkAnalysis {
    /// The per-layer records in execution order.
    pub fn layers(&self) -> &[LayerAnalysis] {
        &self.layers
    }

    /// Looks a layer up by name.
    pub fn layer(&self, name: &str) -> Option<&LayerAnalysis> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// The network input shape.
    pub fn input_shape(&self) -> TensorShape {
        self.input
    }

    /// Wire size of the network input.
    pub fn input_bytes(&self) -> Bytes {
        self.input.size_bytes(self.input_dtype)
    }

    /// Shape of the final layer's output.
    ///
    /// # Panics
    ///
    /// Never panics: `analyze` guarantees at least one layer.
    pub fn output_shape(&self) -> TensorShape {
        self.layers
            .last()
            .expect("analysis always has layers")
            .output_shape
    }

    /// Total multiply-accumulate count.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Total trainable parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Indices of layers whose output is strictly smaller on the wire than
    /// the network input — the paper's criterion (§IV.B) for a layer to be a
    /// *viable partition point* (`Identify` in Algorithm 1): transmitting
    /// anything at least as large as the input can never beat All-Cloud.
    pub fn viable_partition_indices(&self) -> Vec<usize> {
        let input = self.input_bytes();
        self.layers
            .iter()
            .filter(|l| l.output_bytes < input)
            .map(|l| l.index)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use proptest::prelude::*;

    fn tiny() -> Network {
        NetworkBuilder::new("tiny", TensorShape::new(3, 32, 32))
            .layer(Layer::conv("conv1", 16, 3, 1))
            .layer(Layer::max_pool2("pool1"))
            .layer(Layer::conv("conv2", 32, 3, 1))
            .layer(Layer::max_pool2("pool2"))
            .flatten()
            .layer(Layer::dense("fc1", 64))
            .layer(Layer::new(
                "fc2",
                LayerKind::Dense {
                    out_features: 10,
                    activation: Activation::Softmax,
                },
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn shapes_propagate() {
        let a = tiny().analyze().unwrap();
        assert_eq!(
            a.layer("conv1").unwrap().output_shape,
            TensorShape::new(16, 32, 32)
        );
        assert_eq!(
            a.layer("pool2").unwrap().output_shape,
            TensorShape::new(32, 8, 8)
        );
        assert_eq!(
            a.layer("flatten").unwrap().output_shape,
            TensorShape::flat(2048)
        );
        assert_eq!(a.output_shape(), TensorShape::flat(10));
    }

    #[test]
    fn totals_are_sums() {
        let a = tiny().analyze().unwrap();
        let macs: u64 = a.layers().iter().map(|l| l.macs).sum();
        assert_eq!(a.total_macs(), macs);
        assert!(a.total_params() > 0);
    }

    #[test]
    fn empty_network_errors() {
        let err = NetworkBuilder::new("empty", TensorShape::new(3, 32, 32))
            .build()
            .unwrap_err();
        assert_eq!(err, NnError::EmptyNetwork);
    }

    #[test]
    fn build_validates_shapes() {
        // Dense directly on a spatial tensor must fail at build time.
        let err = NetworkBuilder::new("bad", TensorShape::new(3, 32, 32))
            .layer(Layer::dense("fc", 10))
            .build()
            .unwrap_err();
        assert!(matches!(err, NnError::ShapeMismatch { .. }));
    }

    #[test]
    fn viable_partition_points_shrinkage_rule() {
        // Input 3x32x32 u8 = 3072 B. conv1 out 16x32x32 f32 = 65536 B (too
        // big); only late, flat layers are smaller.
        let a = tiny().analyze().unwrap();
        let viable = a.viable_partition_indices();
        assert!(viable.contains(&a.layer("fc1").unwrap().index));
        assert!(viable.contains(&a.layer("fc2").unwrap().index));
        assert!(!viable.contains(&a.layer("conv1").unwrap().index));
        // fc1 out = 64*4 = 256 B < 3072 B.
        assert_eq!(a.layer("fc1").unwrap().output_bytes, Bytes::new(256));
    }

    #[test]
    fn input_dtype_controls_input_bytes() {
        let f32_in = NetworkBuilder::new("f", TensorShape::new(3, 32, 32))
            .input_dtype(DType::F32)
            .layer(Layer::conv("c", 8, 3, 1))
            .build()
            .unwrap();
        assert_eq!(f32_in.input_bytes(), Bytes::new(3 * 32 * 32 * 4));
    }

    #[test]
    fn display_lists_layers() {
        let s = format!("{}", tiny());
        assert!(s.contains("conv1"));
        assert!(s.contains("fc2"));
    }

    proptest! {
        /// Pooling never increases the feature-map byte size; conv with
        /// stride 1 and "same" padding never changes the spatial dims.
        #[test]
        fn prop_pool_shrinks_conv_same_preserves(
            ch in 1u32..32, hw in 8u32..64, filters in 1u32..64
        ) {
            let input = TensorShape::new(ch, hw, hw);
            let pool = Layer::max_pool2("p");
            let pooled = pool.output_shape(&input).unwrap();
            prop_assert!(pooled.num_elements() <= input.num_elements());

            let conv = Layer::conv("c", filters, 3, 1);
            let conved = conv.output_shape(&input).unwrap();
            prop_assert_eq!(conved.height(), input.height());
            prop_assert_eq!(conved.width(), input.width());
        }

        /// analyze() is consistent: each layer's input shape equals the
        /// previous layer's output shape.
        #[test]
        fn prop_analysis_chains(hw in 16u32..48) {
            let net = NetworkBuilder::new("chain", TensorShape::new(3, hw, hw))
                .layer(Layer::conv("c1", 8, 3, 1))
                .layer(Layer::max_pool2("p1"))
                .flatten()
                .layer(Layer::dense("fc", 10))
                .build()
                .unwrap();
            let a = net.analyze().unwrap();
            for w in a.layers().windows(2) {
                prop_assert_eq!(w[1].input_shape, w[0].output_shape);
            }
        }
    }
}
