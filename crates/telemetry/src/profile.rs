//! Deterministic engine profiling: work counters per barrier phase.
//!
//! A wall-clock profiler cannot live inside the bit-identity contract,
//! so the engine counts *work* instead of time: events popped off device
//! heaps, heap push/pop operations, offload records merged at the
//! barrier, batches closed by the serving tier. The resulting profile is
//! a pure function of scenario and seed — two machines produce the same
//! numbers — which is exactly what the parallel-rewrite effort needs as
//! its baseline workload breakdown.

use crate::event::{BarrierPhase, TraceEvent};

/// Work counters for one barrier phase (or one aggregation window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Events popped off a simulation heap (device next-serve events in
    /// the shard step; microsim slot/linger timers in drain).
    pub events_popped: u64,
    /// Total heap operations (pops plus pushes).
    pub heap_ops: u64,
    /// Offload records merged across shards at the barrier.
    pub records_merged: u64,
    /// Batches closed by the serving tier.
    pub batches_closed: u64,
}

impl PhaseCounters {
    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &PhaseCounters) {
        self.events_popped += other.events_popped;
        self.heap_ops += other.heap_ops;
        self.records_merged += other.records_merged;
        self.batches_closed += other.batches_closed;
    }

    /// Whether every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == PhaseCounters::default()
    }
}

/// The per-phase accumulator threaded through the engine's hot paths.
///
/// A probe is either enabled (traced run) or disabled (plain run). Every
/// method is `#[inline]` and gates on the flag first, so the disabled
/// probe an untraced caller passes costs one predictable branch. The
/// probe is a concrete type — not a generic parameter — so `cloud.rs`
/// and `device.rs` stay monomorphization-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProbe {
    enabled: bool,
    events: Vec<TraceEvent>,
    counters: PhaseCounters,
}

impl PhaseProbe {
    /// A probe that records iff `enabled` — e.g. iff the run's sink does.
    pub fn new(enabled: bool) -> Self {
        PhaseProbe {
            enabled,
            ..PhaseProbe::default()
        }
    }

    /// A recording probe.
    pub fn enabled() -> Self {
        PhaseProbe::new(true)
    }

    /// A no-op probe for untraced code paths.
    pub fn disabled() -> Self {
        PhaseProbe::new(false)
    }

    /// Whether this probe records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// One heap pop (counts as one heap op too).
    #[inline]
    pub fn on_pop(&mut self) {
        if self.enabled {
            self.counters.events_popped += 1;
            self.counters.heap_ops += 1;
        }
    }

    /// One heap push.
    #[inline]
    pub fn on_push(&mut self) {
        if self.enabled {
            self.counters.heap_ops += 1;
        }
    }

    /// `n` batches closed.
    #[inline]
    pub fn on_batches(&mut self, n: u64) {
        if self.enabled {
            self.counters.batches_closed += n;
        }
    }

    /// `n` offload records merged at the barrier.
    #[inline]
    pub fn on_merged(&mut self, n: u64) {
        if self.enabled {
            self.counters.records_merged += n;
        }
    }

    /// Buffers one trace event (barrier-side emission).
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Drains the buffered events and counters, resetting the probe for
    /// the next phase.
    pub fn take(&mut self) -> (Vec<TraceEvent>, PhaseCounters) {
        (
            std::mem::take(&mut self.events),
            std::mem::take(&mut self.counters),
        )
    }
}

/// The whole-run profile: one [`PhaseCounters`] per [`BarrierPhase`],
/// plus the epoch count, accumulated over every epoch of a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProfile {
    epochs: u64,
    phases: [PhaseCounters; 4],
}

impl EngineProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        EngineProfile::default()
    }

    /// Accumulates one phase's counters.
    pub fn record(&mut self, phase: BarrierPhase, counters: &PhaseCounters) {
        self.phases[phase.index()].add(counters);
    }

    /// Counts one completed epoch.
    pub fn bump_epochs(&mut self) {
        self.epochs += 1;
    }

    /// Epochs profiled.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The accumulated counters for `phase`.
    pub fn phase(&self, phase: BarrierPhase) -> &PhaseCounters {
        &self.phases[phase.index()]
    }

    /// Sum over all four phases.
    pub fn total(&self) -> PhaseCounters {
        let mut total = PhaseCounters::default();
        for counters in &self.phases {
            total.add(counters);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_records_nothing() {
        let mut probe = PhaseProbe::disabled();
        assert!(!probe.is_enabled());
        probe.on_pop();
        probe.on_push();
        probe.on_batches(3);
        probe.on_merged(7);
        probe.emit(TraceEvent::Shed {
            time_us: 1,
            device_id: 1,
            region: 0,
        });
        let (events, counters) = probe.take();
        assert!(events.is_empty());
        assert!(counters.is_empty());
    }

    #[test]
    fn enabled_probe_counts_and_buffers() {
        let mut probe = PhaseProbe::enabled();
        probe.on_pop();
        probe.on_pop();
        probe.on_push();
        probe.on_batches(2);
        probe.on_merged(5);
        probe.emit(TraceEvent::Shed {
            time_us: 1,
            device_id: 1,
            region: 0,
        });
        let (events, counters) = probe.take();
        assert_eq!(events.len(), 1);
        assert_eq!(counters.events_popped, 2);
        assert_eq!(counters.heap_ops, 3);
        assert_eq!(counters.batches_closed, 2);
        assert_eq!(counters.records_merged, 5);
        // take() resets the probe for the next phase.
        let (events, counters) = probe.take();
        assert!(events.is_empty() && counters.is_empty());
        assert!(probe.is_enabled());
    }

    #[test]
    fn profile_accumulates_per_phase() {
        let mut profile = EngineProfile::new();
        let drain = PhaseCounters {
            events_popped: 10,
            heap_ops: 20,
            records_merged: 0,
            batches_closed: 4,
        };
        profile.record(BarrierPhase::Drain, &drain);
        profile.record(BarrierPhase::Drain, &drain);
        let scale = PhaseCounters {
            events_popped: 0,
            heap_ops: 2,
            records_merged: 0,
            batches_closed: 0,
        };
        profile.record(BarrierPhase::Scale, &scale);
        profile.bump_epochs();
        assert_eq!(profile.epochs(), 1);
        assert_eq!(profile.phase(BarrierPhase::Drain).batches_closed, 8);
        assert_eq!(profile.phase(BarrierPhase::Scale).heap_ops, 2);
        assert!(profile.phase(BarrierPhase::Publish).is_empty());
        assert_eq!(profile.total().heap_ops, 42);
    }
}
