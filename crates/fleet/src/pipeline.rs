//! Staged split-inference pipelines as fleet workloads.
//!
//! A [`PipelineSpec`] turns every offloaded inference into a chain of
//! pipeline stages: the device runs its local segment, then each remote
//! segment becomes its own schedulable request riding the region's
//! serving tier, with the activation tensor priced across the link
//! between consecutive stages. Boundaries carry **exact byte sizes**
//! (typically from `lens_space::StagedPlan::boundaries`), and the
//! fleet prices each hop through the fixed-point
//! [`lens_wireless::TransferModel`], so stage arrival times stay on the
//! engine's integer-microsecond clock and the bit-identity contract
//! survives pipelining — see docs/PIPELINES.md.
//!
//! Stage numbering is 1-based: a spec with `boundaries.len() == n` has
//! depth `n + 1`; stage 1 is the first remote segment and a stage-`k`
//! completion (`k < depth`) spawns the stage-`k + 1` arrival after the
//! `k`-th boundary's transfer. A spec with **no** boundaries has depth 1
//! and is structurally identical to the monolithic offload path (the
//! zero-transfer equivalence pin in `tests/split_pipeline.rs`).

use lens_nn::units::Mbps;
use lens_wireless::TransferModel;

/// Deepest pipeline a scenario may configure. Stages multiply serving
/// work, and every chain must drain in the post-horizon flush; eight
/// hops is already far past the paper's single split point.
pub const MAX_PIPELINE_DEPTH: usize = 8;

/// A staged split-inference workload: the activation-tensor byte sizes
/// crossing each boundary between consecutive remote stages.
///
/// The spec is deliberately minimal — segment compute cost is already
/// captured by the deployment option the device selected; what the
/// fleet needs is *how many stages* each offload becomes and *how many
/// bytes* move between them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PipelineSpec {
    /// Bytes crossing boundary `k` (between stage `k` and stage
    /// `k + 1`), 0-indexed.
    boundaries: Vec<u64>,
}

impl PipelineSpec {
    /// A spec from explicit per-boundary activation sizes (bytes).
    pub fn new(boundaries: Vec<u64>) -> Self {
        PipelineSpec { boundaries }
    }

    /// A spec from a compiled `lens_space::StagedPlan`'s boundary list
    /// (any iterator of byte sizes works; this is just the idiomatic
    /// bridge: `PipelineSpec::from_boundary_bytes(plan.boundaries().iter().map(|b| b.bytes()))`).
    pub fn from_boundary_bytes(bytes: impl IntoIterator<Item = u64>) -> Self {
        PipelineSpec {
            boundaries: bytes.into_iter().collect(),
        }
    }

    /// The per-boundary activation sizes (bytes).
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// Number of remote stages each offload becomes
    /// (`boundaries.len() + 1`).
    pub fn depth(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Whether this spec actually stages work (depth > 1). A depth-1
    /// spec is the monolithic path.
    pub fn is_staged(&self) -> bool {
        !self.boundaries.is_empty()
    }

    /// Validates the spec's invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the pipeline is deeper than
    /// [`MAX_PIPELINE_DEPTH`].
    pub fn validate(&self) -> Result<(), String> {
        if self.depth() > MAX_PIPELINE_DEPTH {
            return Err(format!(
                "pipeline depth {} exceeds the maximum of {MAX_PIPELINE_DEPTH}",
                self.depth()
            ));
        }
        Ok(())
    }
}

/// Transfer prices for one scenario, precomputed at engine build:
/// integer microseconds per `(origin region, boundary)` pair, which the
/// per-request microsim adds to each chained stage's arrival time.
///
/// Hops are priced on the request's *origin* region even after
/// failover: the activation leaves the device's network, and keeping
/// the price a pure function of `(origin, boundary)` keeps stage
/// arrival times shard-invariant.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PipelinePricing {
    /// Stages per offload (`boundaries + 1`), cached as `u32` for the
    /// request structs.
    pub depth: u32,
    /// `transfer_us[origin_region][boundary]` — the exact hop cost.
    pub transfer_us: Vec<Vec<u64>>,
}

impl PipelinePricing {
    /// Prices `spec` for every origin region's uplink. Inter-stage hops
    /// ride the region's access network (its Table I uplink); no RTT
    /// term is added — the serving tier's own queueing already stands
    /// in for backbone latency.
    pub(crate) fn new(spec: &PipelineSpec, uplinks: &[Mbps]) -> Self {
        let transfer_us: Vec<Vec<u64>> = uplinks
            .iter()
            .map(|&uplink| {
                let model = TransferModel::new(uplink);
                spec.boundaries()
                    .iter()
                    .map(|&bytes| model.cost_us(bytes))
                    .collect()
            })
            .collect();
        PipelinePricing {
            depth: spec.depth() as u32,
            transfer_us,
        }
    }

    /// The hop cost (µs) for `boundary` (0-indexed: the hop *after*
    /// stage `boundary + 1`) from `origin` region.
    pub(crate) fn hop_us(&self, origin: usize, boundary: usize) -> u64 {
        self.transfer_us[origin][boundary]
    }

    /// The largest summed hop cost (µs) any origin region's requests
    /// pay, saturating at `u64::MAX`.
    pub(crate) fn max_total_us(&self) -> u64 {
        self.transfer_us
            .iter()
            .map(|hops| hops.iter().fold(0u64, |acc, &us| acc.saturating_add(us)))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_counts_boundaries_plus_one() {
        assert_eq!(PipelineSpec::default().depth(), 1);
        assert!(!PipelineSpec::default().is_staged());
        let spec = PipelineSpec::new(vec![4_096, 1_024]);
        assert_eq!(spec.depth(), 3);
        assert!(spec.is_staged());
        assert_eq!(spec.boundaries(), &[4_096, 1_024]);
    }

    #[test]
    fn from_boundary_bytes_bridges_iterators() {
        let spec = PipelineSpec::from_boundary_bytes([100u64, 200]);
        assert_eq!(spec, PipelineSpec::new(vec![100, 200]));
    }

    #[test]
    fn validate_caps_depth() {
        let ok = PipelineSpec::new(vec![1; MAX_PIPELINE_DEPTH - 1]);
        assert!(ok.validate().is_ok());
        let too_deep = PipelineSpec::new(vec![1; MAX_PIPELINE_DEPTH]);
        let why = too_deep.validate().unwrap_err();
        assert!(why.contains("depth"), "{why}");
    }

    #[test]
    fn pricing_matches_the_transfer_model_per_hop() {
        let spec = PipelineSpec::new(vec![150_528, 86_528]);
        let uplinks = [Mbps::new(7.5), Mbps::new(0.7)];
        let pricing = PipelinePricing::new(&spec, &uplinks);
        assert_eq!(pricing.depth, 3);
        let mut totals_us = Vec::new();
        for (r, &uplink) in uplinks.iter().enumerate() {
            let model = TransferModel::new(uplink);
            assert_eq!(pricing.hop_us(r, 0), model.cost_us(150_528));
            assert_eq!(pricing.hop_us(r, 1), model.cost_us(86_528));
            totals_us.push(model.cost_us(150_528) + model.cost_us(86_528));
        }
        // The poor link pays strictly more for the same activations, and
        // its total is the largest.
        assert!(totals_us[1] > totals_us[0]);
        assert_eq!(pricing.max_total_us(), totals_us[1]);
    }

    #[test]
    fn pricing_is_deterministic() {
        let spec = PipelineSpec::new(vec![123_456]);
        let uplinks = [Mbps::new(16.1)];
        assert_eq!(
            PipelinePricing::new(&spec, &uplinks),
            PipelinePricing::new(&spec, &uplinks)
        );
    }
}
