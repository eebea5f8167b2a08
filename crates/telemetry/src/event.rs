//! Typed, sim-time-stamped trace events.
//!
//! Every field is an integer: timestamps are microseconds since run
//! start (the engine's native clock), indices are widened to `u64`, and
//! the one fractional quantity (the fluid batch size) is carried in
//! milli-units — the whole event stream hashes and merges bit-stably.

use crate::Fnv64;

/// The barrier phases of one engine epoch, in execution order. The
/// shard step is phase 0 (devices advance in parallel), then the barrier
/// runs the serving tier strictly **drain → scale → publish**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BarrierPhase {
    /// Shards serve their devices' events up to the epoch boundary.
    ShardStep,
    /// The serving tier admits and serves the epoch's offloads (fluid
    /// batch-close arithmetic, or the per-request microsim replay).
    Drain,
    /// Autoscalers step live slot counts.
    Scale,
    /// Next epoch's region signals are published.
    Publish,
}

impl BarrierPhase {
    /// All phases, in execution order.
    pub const ALL: [BarrierPhase; 4] = [
        BarrierPhase::ShardStep,
        BarrierPhase::Drain,
        BarrierPhase::Scale,
        BarrierPhase::Publish,
    ];

    /// Stable snake_case name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            BarrierPhase::ShardStep => "shard_step",
            BarrierPhase::Drain => "drain",
            BarrierPhase::Scale => "scale",
            BarrierPhase::Publish => "publish",
        }
    }

    /// Index into [`BarrierPhase::ALL`].
    pub fn index(self) -> usize {
        match self {
            BarrierPhase::ShardStep => 0,
            BarrierPhase::Drain => 1,
            BarrierPhase::Scale => 2,
            BarrierPhase::Publish => 3,
        }
    }
}

/// One flight-recorder event. Timestamps are simulation microseconds —
/// never wall clock — and all identifiers are stable across shard
/// counts (global device ids, scenario-order region/backend indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A device offloaded an inference into `region`'s serving tier.
    Dispatch {
        /// Arrival time (µs since run start).
        time_us: u64,
        /// Global device id.
        device_id: u64,
        /// Destination region index (the failover target if `failed_over`).
        region: u64,
        /// Whether the device is in the high-priority class.
        high_priority: bool,
        /// Whether the request reached `region` via sibling failover.
        failed_over: bool,
    },
    /// Admission control shed a device's offload to its local option.
    Shed {
        /// Event time (µs).
        time_us: u64,
        /// Global device id.
        device_id: u64,
        /// The region whose shed fraction rejected the offload.
        region: u64,
    },
    /// A shed offload failed over to a sibling region (a matching
    /// [`TraceEvent::Dispatch`] with `failed_over` lands at the sibling).
    Failover {
        /// Event time (µs).
        time_us: u64,
        /// Global device id.
        device_id: u64,
        /// The shedding origin region.
        from_region: u64,
        /// The sibling region that absorbed the request.
        to_region: u64,
    },
    /// A backend closed one or more batches. The per-request microsim
    /// emits one event per discrete batch (`batches == 1`); the fluid
    /// tier emits one event per backend per epoch carrying the rounded
    /// batch count at the fluid batch size.
    BatchClose {
        /// Close time (µs): the discrete close instant, or the epoch end
        /// for fluid aggregates.
        time_us: u64,
        /// Serving region index.
        region: u64,
        /// Backend index within the region's tier.
        backend: u64,
        /// Batches closed.
        batches: u64,
        /// Batch size in milli-items (fluid sizes are fractional).
        size_milli: u64,
    },
    /// An autoscaler stepped a backend's live slot count.
    ScalingStep {
        /// The epoch barrier time (µs).
        time_us: u64,
        /// Serving region index.
        region: u64,
        /// Backend index within the region's tier.
        backend: u64,
        /// Slots before the step.
        from_slots: u64,
        /// Slots after the step (the applied target; under per-request
        /// scale-down this is the realized count — in-flight batches are
        /// never killed).
        to_slots: u64,
    },
    /// A barrier phase completed.
    Phase {
        /// The epoch boundary time (µs).
        time_us: u64,
        /// Epoch index.
        epoch: u64,
        /// Which phase just finished.
        phase: BarrierPhase,
    },
    /// A device retreated an offload-bound request to its local-only
    /// option because the region's published epoch p99 exceeded the tail
    /// deadline budget.
    Retreat {
        /// Event time (µs).
        time_us: u64,
        /// Global device id.
        device_id: u64,
        /// The region whose published tail triggered the retreat.
        region: u64,
    },
    /// A region's workload-curve phase changed: the offload-intent
    /// multiplier devices draw against moved to a new plateau.
    CurvePhase {
        /// The epoch boundary time (µs) at which the engine observed the
        /// change.
        time_us: u64,
        /// Region index (curves may shift per region).
        region: u64,
        /// The new multiplier in micro-units (`1_000_000` = full intent).
        multiplier_fp: u64,
    },
    /// A pipelined request finished one remote stage and moved to the
    /// next: the stage-`from_stage` completion spawned the stage-`to_stage`
    /// arrival after the priced activation transfer.
    StageTransition {
        /// Completion time of the finishing stage (µs).
        time_us: u64,
        /// Global device id of the originating request.
        device_id: u64,
        /// Serving region carrying the pipeline (all stages of one
        /// request serve in the same region).
        region: u64,
        /// The stage that just completed (1-based).
        from_stage: u64,
        /// The stage the request advances to.
        to_stage: u64,
        /// Fixed-point transfer cost between the stages (µs).
        transfer_us: u64,
    },
}

impl TraceEvent {
    /// The event's simulation timestamp (µs since run start).
    pub fn time_us(&self) -> u64 {
        match *self {
            TraceEvent::Dispatch { time_us, .. }
            | TraceEvent::Shed { time_us, .. }
            | TraceEvent::Failover { time_us, .. }
            | TraceEvent::BatchClose { time_us, .. }
            | TraceEvent::ScalingStep { time_us, .. }
            | TraceEvent::Phase { time_us, .. }
            | TraceEvent::Retreat { time_us, .. }
            | TraceEvent::CurvePhase { time_us, .. }
            | TraceEvent::StageTransition { time_us, .. } => time_us,
        }
    }

    /// The originating device, for device-side events.
    pub fn device_id(&self) -> Option<u64> {
        match *self {
            TraceEvent::Dispatch { device_id, .. }
            | TraceEvent::Shed { device_id, .. }
            | TraceEvent::Failover { device_id, .. }
            | TraceEvent::Retreat { device_id, .. }
            | TraceEvent::StageTransition { device_id, .. } => Some(device_id),
            _ => None,
        }
    }

    /// The shard-merge sort key: `(time_us, device_id)` — the same
    /// unique, shard-count-invariant discipline the per-request microsim
    /// merges offloads by. Barrier-side events (no device) sort last at
    /// their timestamp; the engine emits them from the single barrier
    /// thread in fixed region order, so they never need re-sorting.
    /// A device can emit two events at one instant (failover + dispatch);
    /// merge with a **stable** sort to preserve its emission order.
    pub fn merge_key(&self) -> (u64, u64) {
        (self.time_us(), self.device_id().unwrap_or(u64::MAX))
    }

    /// Stable kind tag (used in exports and the digest encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Dispatch { .. } => "dispatch",
            TraceEvent::Shed { .. } => "shed",
            TraceEvent::Failover { .. } => "failover",
            TraceEvent::BatchClose { .. } => "batch_close",
            TraceEvent::ScalingStep { .. } => "scaling_step",
            TraceEvent::Phase { .. } => "phase",
            TraceEvent::Retreat { .. } => "retreat",
            TraceEvent::CurvePhase { .. } => "curve_phase",
            TraceEvent::StageTransition { .. } => "stage_transition",
        }
    }

    /// Folds a canonical integer encoding of the event into `hasher`:
    /// a kind tag, then every field widened to `u64`.
    pub fn hash_into(&self, hasher: &mut Fnv64) {
        match *self {
            TraceEvent::Dispatch {
                time_us,
                device_id,
                region,
                high_priority,
                failed_over,
            } => {
                hasher.write_u64(1);
                hasher.write_u64(time_us);
                hasher.write_u64(device_id);
                hasher.write_u64(region);
                hasher.write_u64(u64::from(high_priority));
                hasher.write_u64(u64::from(failed_over));
            }
            TraceEvent::Shed {
                time_us,
                device_id,
                region,
            } => {
                hasher.write_u64(2);
                hasher.write_u64(time_us);
                hasher.write_u64(device_id);
                hasher.write_u64(region);
            }
            TraceEvent::Failover {
                time_us,
                device_id,
                from_region,
                to_region,
            } => {
                hasher.write_u64(3);
                hasher.write_u64(time_us);
                hasher.write_u64(device_id);
                hasher.write_u64(from_region);
                hasher.write_u64(to_region);
            }
            TraceEvent::BatchClose {
                time_us,
                region,
                backend,
                batches,
                size_milli,
            } => {
                hasher.write_u64(4);
                hasher.write_u64(time_us);
                hasher.write_u64(region);
                hasher.write_u64(backend);
                hasher.write_u64(batches);
                hasher.write_u64(size_milli);
            }
            TraceEvent::ScalingStep {
                time_us,
                region,
                backend,
                from_slots,
                to_slots,
            } => {
                hasher.write_u64(5);
                hasher.write_u64(time_us);
                hasher.write_u64(region);
                hasher.write_u64(backend);
                hasher.write_u64(from_slots);
                hasher.write_u64(to_slots);
            }
            TraceEvent::Phase {
                time_us,
                epoch,
                phase,
            } => {
                hasher.write_u64(6);
                hasher.write_u64(time_us);
                hasher.write_u64(epoch);
                hasher.write_u64(phase.index() as u64);
            }
            TraceEvent::Retreat {
                time_us,
                device_id,
                region,
            } => {
                hasher.write_u64(7);
                hasher.write_u64(time_us);
                hasher.write_u64(device_id);
                hasher.write_u64(region);
            }
            TraceEvent::CurvePhase {
                time_us,
                region,
                multiplier_fp,
            } => {
                hasher.write_u64(8);
                hasher.write_u64(time_us);
                hasher.write_u64(region);
                hasher.write_u64(multiplier_fp);
            }
            TraceEvent::StageTransition {
                time_us,
                device_id,
                region,
                from_stage,
                to_stage,
                transfer_us,
            } => {
                hasher.write_u64(9);
                hasher.write_u64(time_us);
                hasher.write_u64(device_id);
                hasher.write_u64(region);
                hasher.write_u64(from_stage);
                hasher.write_u64(to_stage);
                hasher.write_u64(transfer_us);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_ordered_and_named() {
        let names: Vec<&str> = BarrierPhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["shard_step", "drain", "scale", "publish"]);
        for (i, phase) in BarrierPhase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
    }

    #[test]
    fn merge_keys_put_barrier_events_after_device_events() {
        let device = TraceEvent::Dispatch {
            time_us: 100,
            device_id: 7,
            region: 0,
            high_priority: false,
            failed_over: false,
        };
        let barrier = TraceEvent::Phase {
            time_us: 100,
            epoch: 0,
            phase: BarrierPhase::Drain,
        };
        assert!(device.merge_key() < barrier.merge_key());
        assert_eq!(device.time_us(), 100);
        assert_eq!(device.device_id(), Some(7));
        assert_eq!(barrier.device_id(), None);
    }

    #[test]
    fn distinct_events_hash_differently() {
        let a = TraceEvent::Shed {
            time_us: 1,
            device_id: 2,
            region: 0,
        };
        let b = TraceEvent::Shed {
            time_us: 1,
            device_id: 3,
            region: 0,
        };
        let digest = |e: &TraceEvent| {
            let mut h = Fnv64::new();
            e.hash_into(&mut h);
            h.finish()
        };
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a));
        assert_eq!(a.kind(), "shed");
    }
}
