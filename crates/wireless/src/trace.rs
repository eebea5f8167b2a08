//! Throughput traces and their synthetic generator.
//!
//! §V.C of the paper collects LTE uplink throughput with TestMyNet, "every
//! 5 minutes for 40 samples", and replays it through the runtime switcher.
//! We cannot rerun those phone measurements, so [`TraceGenerator`] produces
//! a statistically similar stand-in: a stationary log-AR(1) process (bursty,
//! positive, heavy-tailed — the standard shape of measured cellular uplink
//! rates), fully determined by a seed. Real measurements can be loaded with
//! [`ThroughputTrace::from_csv`].

use crate::region::Region;
use crate::technology::WirelessTechnology;
use crate::WirelessError;
use lens_nn::units::{Mbps, Millis};
use lens_num::dist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// A sequence of uplink-throughput samples at a fixed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputTrace {
    samples: Vec<Mbps>,
    interval: Millis,
}

impl ThroughputTrace {
    /// Creates a trace from samples and the sampling interval.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidTrace`] if `samples` is empty.
    pub fn new(samples: Vec<Mbps>, interval: Millis) -> Result<Self, WirelessError> {
        if samples.is_empty() {
            return Err(WirelessError::InvalidTrace("no samples".into()));
        }
        Ok(ThroughputTrace { samples, interval })
    }

    /// The samples in time order.
    pub fn samples(&self) -> &[Mbps] {
        &self.samples
    }

    /// The interval between consecutive samples.
    pub fn interval(&self) -> Millis {
        self.interval
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `false` by construction (empty traces cannot be built).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean throughput over the trace.
    pub fn mean(&self) -> Mbps {
        let raw: Vec<f64> = self.samples.iter().map(|m| m.get()).collect();
        Mbps::new(lens_num::stats::mean(&raw).expect("trace is non-empty"))
    }

    /// Minimum and maximum sample.
    pub fn min_max(&self) -> (Mbps, Mbps) {
        let raw: Vec<f64> = self.samples.iter().map(|m| m.get()).collect();
        let (lo, hi) = lens_num::stats::min_max(&raw).expect("trace is non-empty");
        (Mbps::new(lo), Mbps::new(hi))
    }

    /// Fraction of samples strictly above `threshold` — used to sanity-check
    /// that a trace actually crosses a switching threshold.
    pub fn fraction_above(&self, threshold: Mbps) -> f64 {
        let above = self.samples.iter().filter(|&&s| s > threshold).count();
        above as f64 / self.samples.len() as f64
    }

    /// Synthesizes a per-device trace around a region's expected uplink
    /// rate with a technology-dependent volatility — the fleet-scale
    /// counterpart of replaying the single measured LTE trace. The process
    /// is the Gauss–Markov model of [`GaussMarkov`]; every sample is
    /// strictly positive by construction.
    ///
    /// # Examples
    ///
    /// ```
    /// use lens_nn::units::{Mbps, Millis};
    /// use lens_wireless::{Region, ThroughputTrace, WirelessTechnology};
    ///
    /// let usa = Region::new("USA", Mbps::new(7.5));
    /// let t = ThroughputTrace::synthesize(
    ///     &usa, WirelessTechnology::Lte, 12, Millis::new(300_000.0), 7);
    /// assert_eq!(t.len(), 12);
    /// assert!(t.samples().iter().all(|s| s.get() > 0.0));
    /// ```
    pub fn synthesize(
        region: &Region,
        technology: WirelessTechnology,
        num_samples: usize,
        interval: Millis,
        seed: u64,
    ) -> ThroughputTrace {
        GaussMarkov::for_technology(region.uplink(), technology)
            .with_samples(num_samples)
            .with_interval(interval)
            .generate(seed)
    }

    /// Serializes to a two-column CSV (`minutes,mbps`) with a header. Each
    /// timestamp prints in full (the shortest decimal that parses back to
    /// the same `f64`), so [`from_csv`](Self::from_csv) recovers the
    /// interval of any trace.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("minutes,mbps\n");
        for (i, s) in self.samples.iter().enumerate() {
            let minutes = self.interval.get() * i as f64 / 60_000.0;
            out.push_str(&format!("{minutes},{:.4}\n", s.get()));
        }
        out
    }

    /// Parses the [`to_csv`](Self::to_csv) format (header optional). The
    /// interval is inferred from the first two timestamps and rounded to
    /// whole microseconds, the fleet clock's unit, defaulting to 5 minutes
    /// for single-sample traces; every later step must match the first to
    /// within 0.01 min, so CSVs with timestamps printed to two decimals
    /// parse too.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::ParseTrace`] for malformed rows — a
    /// non-finite timestamp, a timestamp no later than the row before, a
    /// first interval under 1 ms or too large to hold in milliseconds, a
    /// step that differs from the first by more than 0.01 min, or a
    /// throughput that is not finite and positive — and
    /// [`WirelessError::InvalidTrace`] when no samples are present.
    pub fn from_csv(text: &str) -> Result<Self, WirelessError> {
        /// A step read back from a timestamp printed to two decimals may
        /// differ from the first step by one hundredth.
        const TIMESTAMP_RESOLUTION_MIN: f64 = 0.01;
        let mut previous: Option<f64> = None;
        let mut first_step = 0.0;
        let mut interval_ms = 5.0 * 60_000.0;
        let mut samples = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (idx == 0 && line.starts_with("minutes")) {
                continue;
            }
            let bad_row = |reason: String| WirelessError::ParseTrace {
                line: idx + 1,
                reason,
            };
            let mut parts = line.split(',');
            let parse = |s: Option<&str>, what: &str| -> Result<f64, WirelessError> {
                s.ok_or_else(|| bad_row(format!("missing {what}")))?
                    .trim()
                    .parse::<f64>()
                    .map_err(|e| bad_row(format!("bad {what}: {e}")))
            };
            let minutes = parse(parts.next(), "timestamp")?;
            let mbps = parse(parts.next(), "throughput")?;
            if !minutes.is_finite() {
                return Err(bad_row(format!("timestamp must be finite, got {minutes}")));
            }
            if let Some(previous) = previous {
                if minutes <= previous {
                    return Err(bad_row(format!(
                        "timestamps must increase, got {minutes} after {previous}"
                    )));
                }
                let step = minutes - previous;
                if samples.len() == 1 {
                    first_step = step;
                    // Minutes carry a whole-ms interval only to within an
                    // ulp or so (59 ms reads back as 58.99999999999999).
                    interval_ms = (step * 60_000_000.0).round() / 1000.0;
                    if !interval_ms.is_finite() {
                        return Err(bad_row(format!(
                            "interval from {previous} to {minutes} minutes overflows"
                        )));
                    }
                    if interval_ms < 1.0 {
                        return Err(bad_row(format!(
                            "interval from {previous} to {minutes} minutes is under 1 ms"
                        )));
                    }
                } else {
                    // The slack absorbs the decimal parse and the two
                    // subtractions, a few ulps of the timestamps.
                    let slack = 1e-12 * minutes.abs().max(1.0);
                    if (step - first_step).abs() > TIMESTAMP_RESOLUTION_MIN + slack {
                        return Err(bad_row(format!(
                            "step from {previous} to {minutes} minutes differs from \
                             the first step of {first_step} minutes"
                        )));
                    }
                }
            }
            if !mbps.is_finite() || mbps <= 0.0 {
                return Err(bad_row(format!("throughput must be positive, got {mbps}")));
            }
            previous = Some(minutes);
            samples.push(Mbps::new(mbps));
        }
        if samples.is_empty() {
            return Err(WirelessError::InvalidTrace("no samples in CSV".into()));
        }
        ThroughputTrace::new(samples, Millis::new(interval_ms))
    }
}

impl fmt::Display for ThroughputTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, hi) = self.min_max();
        write!(
            f,
            "{} samples @ {:.1} min, mean {}, range [{}, {}]",
            self.len(),
            self.interval.get() / 60_000.0,
            self.mean(),
            lo,
            hi
        )
    }
}

/// Seeded generator of synthetic uplink-throughput traces (log-AR(1)).
///
/// # Examples
///
/// ```
/// use lens_nn::units::Mbps;
/// use lens_wireless::TraceGenerator;
///
/// // A TestMyNet-like LTE trace: 40 samples, 5-minute interval.
/// let trace = TraceGenerator::lte_like(Mbps::new(10.0)).generate(42);
/// assert_eq!(trace.len(), 40);
/// assert!(trace.mean().get() > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGenerator {
    median: Mbps,
    log_sigma: f64,
    ar_coefficient: f64,
    num_samples: usize,
    interval: Millis,
}

impl TraceGenerator {
    /// Creates a generator with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `log_sigma` is negative, `ar_coefficient` is outside
    /// `[0, 1)`, or `num_samples` is zero.
    pub fn new(
        median: Mbps,
        log_sigma: f64,
        ar_coefficient: f64,
        num_samples: usize,
        interval: Millis,
    ) -> Self {
        assert!(log_sigma >= 0.0, "log_sigma must be non-negative");
        assert!(
            (0.0..1.0).contains(&ar_coefficient),
            "ar_coefficient must be in [0,1)"
        );
        assert!(num_samples > 0, "num_samples must be positive");
        TraceGenerator {
            median,
            log_sigma,
            ar_coefficient,
            num_samples,
            interval,
        }
    }

    /// The paper's measurement protocol: 40 LTE samples at 5-minute
    /// intervals, moderately bursty around the given median.
    pub fn lte_like(median: Mbps) -> Self {
        TraceGenerator::new(median, 0.55, 0.45, 40, Millis::new(5.0 * 60_000.0))
    }

    /// Overrides the number of samples.
    pub fn with_samples(mut self, num_samples: usize) -> Self {
        assert!(num_samples > 0, "num_samples must be positive");
        self.num_samples = num_samples;
        self
    }

    /// Generates a trace deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> ThroughputTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mu = self.median.get().ln();
        // Stationary AR(1) in log space.
        let mut y = mu + self.log_sigma * dist::standard_normal(&mut rng);
        let innovation_scale = self.log_sigma * (1.0 - self.ar_coefficient.powi(2)).sqrt();
        let samples = (0..self.num_samples)
            .map(|_| {
                let sample = y.exp().clamp(0.05, 200.0);
                y = mu
                    + self.ar_coefficient * (y - mu)
                    + innovation_scale * dist::standard_normal(&mut rng);
                Mbps::new(sample)
            })
            .collect();
        ThroughputTrace::new(samples, self.interval).expect("generator produces >=1 sample")
    }
}

/// Seeded Gauss–Markov (linear AR(1)) throughput generator.
///
/// Where [`TraceGenerator`] reproduces the *measured* LTE trace's bursty
/// log-normal shape, `GaussMarkov` is the fleet synthesizer: it wanders
/// around a target mean rate (a [`Region`]'s expected uplink) with
/// exponentially decaying autocorrelation,
///
/// ```text
/// x_{t+1} = mean + ar·(x_t − mean) + sigma·sqrt(1 − ar²)·N(0,1)
/// ```
///
/// clamped from below at a small positive floor so rates stay valid
/// (non-negative, and safe to divide by in the `1/t_u` cost forms).
///
/// # Examples
///
/// ```
/// use lens_nn::units::Mbps;
/// use lens_wireless::{GaussMarkov, WirelessTechnology};
///
/// let g = GaussMarkov::for_technology(Mbps::new(7.5), WirelessTechnology::Lte);
/// let trace = g.generate(3);
/// assert_eq!(trace, g.generate(3)); // deterministic per seed
/// assert!(trace.samples().iter().all(|s| s.get() > 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GaussMarkov {
    mean: Mbps,
    sigma: f64,
    ar_coefficient: f64,
    num_samples: usize,
    interval: Millis,
}

impl GaussMarkov {
    /// Creates a generator with explicit parameters. `sigma` is the
    /// stationary standard deviation in Mbps.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative, `ar_coefficient` is outside `[0, 1)`,
    /// or `num_samples` is zero.
    pub fn new(
        mean: Mbps,
        sigma: f64,
        ar_coefficient: f64,
        num_samples: usize,
        interval: Millis,
    ) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        assert!(
            (0.0..1.0).contains(&ar_coefficient),
            "ar_coefficient must be in [0,1)"
        );
        assert!(num_samples > 0, "num_samples must be positive");
        GaussMarkov {
            mean,
            sigma,
            ar_coefficient,
            num_samples,
            interval,
        }
    }

    /// A generator tuned to a technology's typical volatility around the
    /// given mean rate: WiFi is steady, LTE moderately bursty, 3G wild.
    /// Defaults to the paper's measurement cadence (40 samples at 5-minute
    /// intervals); override with [`with_samples`](Self::with_samples) /
    /// [`with_interval`](Self::with_interval).
    pub fn for_technology(mean: Mbps, technology: WirelessTechnology) -> Self {
        let (rel_sigma, ar) = match technology {
            WirelessTechnology::Wifi => (0.15, 0.6),
            WirelessTechnology::Lte => (0.35, 0.45),
            WirelessTechnology::ThreeG => (0.55, 0.3),
        };
        GaussMarkov::new(
            mean,
            rel_sigma * mean.get(),
            ar,
            40,
            Millis::new(5.0 * 60_000.0),
        )
    }

    /// Overrides the number of samples.
    ///
    /// # Panics
    ///
    /// Panics if `num_samples` is zero.
    pub fn with_samples(mut self, num_samples: usize) -> Self {
        assert!(num_samples > 0, "num_samples must be positive");
        self.num_samples = num_samples;
        self
    }

    /// Overrides the sampling interval.
    pub fn with_interval(mut self, interval: Millis) -> Self {
        self.interval = interval;
        self
    }

    /// The positive floor rates are clamped to: 1% of the mean, but at
    /// least 0.05 Mbps (the same floor the LTE generator uses).
    pub fn floor(&self) -> Mbps {
        Mbps::new((0.01 * self.mean.get()).max(0.05))
    }

    /// Starts the trace of `seed` without materializing it: the returned
    /// state yields the samples of [`generate`](Self::generate)`(seed)`,
    /// in order and bit for bit, one [`next_sample`](Self::next_sample)
    /// call at a time — for callers that stream a trace of any length in
    /// constant memory.
    ///
    /// # Examples
    ///
    /// ```
    /// use lens_nn::units::Mbps;
    /// use lens_wireless::{GaussMarkov, WirelessTechnology};
    ///
    /// let g = GaussMarkov::for_technology(Mbps::new(7.5), WirelessTechnology::Lte);
    /// let mut state = g.start(3);
    /// let streamed: Vec<Mbps> = (0..40).map(|_| g.next_sample(&mut state)).collect();
    /// assert_eq!(streamed, g.generate(3).samples());
    /// ```
    pub fn start(&self, seed: u64) -> GaussMarkovState {
        let mut rng = StdRng::seed_from_u64(seed);
        // Start from the stationary distribution so short traces are not
        // biased toward the mean.
        let rate = self.mean.get() + self.sigma * dist::standard_normal(&mut rng);
        GaussMarkovState { rng, rate }
    }

    /// Returns the state's current sample, clamped to the
    /// [`floor`](Self::floor), and takes one AR(1) step.
    pub fn next_sample(&self, state: &mut GaussMarkovState) -> Mbps {
        let mean = self.mean.get();
        let sample = state.rate.max(self.floor().get());
        let innovation_scale = self.sigma * (1.0 - self.ar_coefficient.powi(2)).sqrt();
        state.rate = mean
            + self.ar_coefficient * (state.rate - mean)
            + innovation_scale * dist::standard_normal(&mut state.rng);
        Mbps::new(sample)
    }

    /// Generates a trace deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> ThroughputTrace {
        let mut state = self.start(seed);
        let samples = (0..self.num_samples)
            .map(|_| self.next_sample(&mut state))
            .collect();
        ThroughputTrace::new(samples, self.interval).expect("generator produces >=1 sample")
    }
}

/// A [`GaussMarkov`] trace in progress: the generator's seeded RNG and
/// its current, unclamped rate (Mbps). [`GaussMarkov::start`] makes one
/// and [`GaussMarkov::next_sample`] advances it.
#[derive(Debug, Clone)]
pub struct GaussMarkovState {
    rng: StdRng,
    rate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lte_like_matches_paper_protocol() {
        let t = TraceGenerator::lte_like(Mbps::new(8.0)).generate(1);
        assert_eq!(t.len(), 40);
        assert_eq!(t.interval(), Millis::new(300_000.0));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = TraceGenerator::lte_like(Mbps::new(8.0));
        assert_eq!(g.generate(5), g.generate(5));
        assert_ne!(g.generate(5), g.generate(6));
    }

    #[test]
    fn median_roughly_controls_level() {
        let slow = TraceGenerator::lte_like(Mbps::new(2.0))
            .with_samples(400)
            .generate(9);
        let fast = TraceGenerator::lte_like(Mbps::new(20.0))
            .with_samples(400)
            .generate(9);
        assert!(fast.mean() > slow.mean());
    }

    #[test]
    fn csv_round_trip() {
        let t = TraceGenerator::lte_like(Mbps::new(8.0)).generate(3);
        let csv = t.to_csv();
        let parsed = ThroughputTrace::from_csv(&csv).unwrap();
        assert_eq!(parsed.len(), t.len());
        assert_eq!(parsed.interval(), t.interval());
        for (a, b) in parsed.samples().iter().zip(t.samples()) {
            assert!((a.get() - b.get()).abs() < 1e-3);
        }
    }

    #[test]
    fn csv_parse_errors_carry_line_numbers() {
        let err = ThroughputTrace::from_csv("minutes,mbps\n0.0,not-a-number\n").unwrap_err();
        assert!(matches!(err, WirelessError::ParseTrace { line: 2, .. }));
        let err = ThroughputTrace::from_csv("minutes,mbps\n0.0,-3.0\n").unwrap_err();
        assert!(matches!(err, WirelessError::ParseTrace { line: 2, .. }));
        let err = ThroughputTrace::from_csv("minutes,mbps\n").unwrap_err();
        assert!(matches!(err, WirelessError::InvalidTrace(_)));
    }

    /// Parses a two-row trace whose second timestamp is `second`.
    fn parse_second_timestamp(second: &str) -> Result<ThroughputTrace, WirelessError> {
        ThroughputTrace::from_csv(&format!("minutes,mbps\n0,5\n{second},6\n"))
    }

    fn assert_rejected_at_line_3(second: &str) {
        let result = parse_second_timestamp(second);
        assert!(
            matches!(result, Err(WirelessError::ParseTrace { line: 3, .. })),
            "timestamp {second}: {result:?}"
        );
    }

    #[test]
    fn csv_rejects_a_nan_timestamp() {
        assert_rejected_at_line_3("NaN");
    }

    #[test]
    fn csv_rejects_an_infinite_timestamp() {
        assert_rejected_at_line_3("inf");
    }

    #[test]
    fn csv_rejects_a_decreasing_timestamp() {
        assert_rejected_at_line_3("-5");
    }

    #[test]
    fn csv_rejects_a_repeated_timestamp() {
        assert_rejected_at_line_3("0");
    }

    #[test]
    fn csv_rejects_a_first_interval_under_a_millisecond() {
        // 0.00001 min is 0.6 ms.
        assert_rejected_at_line_3("0.00001");
    }

    #[test]
    fn csv_rejects_a_step_unlike_the_first() {
        let result = ThroughputTrace::from_csv("minutes,mbps\n0,5\n5,6\n7,7\n60,8\n");
        assert!(
            matches!(result, Err(WirelessError::ParseTrace { line: 4, .. })),
            "{result:?}"
        );
    }

    #[test]
    fn csv_accepts_steps_within_the_timestamp_resolution() {
        // One second is 0.0167 min, which two decimals print as steps of
        // 0.02 and 0.01 min.
        let csv: String = (0..120)
            .map(|i| format!("{:.2},4.0\n", f64::from(i) / 60.0))
            .collect();
        let csv = format!("minutes,mbps\n{csv}");
        assert!(csv.contains("\n0.02,") && csv.contains("\n0.03,"), "{csv}");
        assert_eq!(ThroughputTrace::from_csv(&csv).unwrap().len(), 120);
    }

    #[test]
    fn csv_round_trips_sub_minute_intervals_bit_for_bit() {
        for ms in [
            1.0, 7.0, 59.0, 1_000.0, 1_500.0, 10_000.0, 45_000.0, 300_000.0,
        ] {
            let trace = ThroughputTrace::new(vec![Mbps::new(4.0); 5], Millis::new(ms)).unwrap();
            let parsed = ThroughputTrace::from_csv(&trace.to_csv()).unwrap();
            assert_eq!(parsed.interval().get().to_bits(), ms.to_bits(), "{ms} ms");
            assert_eq!(parsed.len(), 5);
        }
    }

    #[test]
    fn csv_rejects_an_interval_that_overflows() {
        assert_rejected_at_line_3("1e305");
        assert_eq!(
            parse_second_timestamp("1e300").unwrap().interval(),
            Millis::new(1e300 * 60_000.0)
        );
    }

    #[test]
    fn fraction_above_is_consistent() {
        let t = ThroughputTrace::new(
            vec![
                Mbps::new(1.0),
                Mbps::new(5.0),
                Mbps::new(10.0),
                Mbps::new(20.0),
            ],
            Millis::new(1000.0),
        )
        .unwrap();
        assert_eq!(t.fraction_above(Mbps::new(7.0)), 0.5);
        assert_eq!(t.fraction_above(Mbps::new(0.5)), 1.0);
        assert_eq!(t.fraction_above(Mbps::new(50.0)), 0.0);
    }

    #[test]
    fn empty_trace_rejected() {
        assert!(matches!(
            ThroughputTrace::new(vec![], Millis::new(1.0)),
            Err(WirelessError::InvalidTrace(_))
        ));
    }

    #[test]
    fn display_summarizes() {
        let t = TraceGenerator::lte_like(Mbps::new(8.0)).generate(3);
        let s = format!("{t}");
        assert!(s.contains("40 samples"));
    }

    #[test]
    fn gauss_markov_is_deterministic_per_seed() {
        let g = GaussMarkov::for_technology(Mbps::new(7.5), WirelessTechnology::Lte);
        assert_eq!(g.generate(11), g.generate(11));
        assert_ne!(g.generate(11), g.generate(12));
    }

    #[test]
    fn gauss_markov_tracks_mean() {
        let g = GaussMarkov::for_technology(Mbps::new(16.1), WirelessTechnology::Wifi)
            .with_samples(2000);
        let t = g.generate(1);
        let m = t.mean().get();
        assert!((m - 16.1).abs() < 1.5, "mean {m} drifted from 16.1");
    }

    #[test]
    fn technology_controls_volatility() {
        let mean = Mbps::new(10.0);
        let std_of = |tech| {
            let t = GaussMarkov::for_technology(mean, tech)
                .with_samples(2000)
                .generate(4);
            let raw: Vec<f64> = t.samples().iter().map(|s| s.get()).collect();
            lens_num::stats::std_dev(&raw).unwrap()
        };
        assert!(std_of(WirelessTechnology::Wifi) < std_of(WirelessTechnology::Lte));
        assert!(std_of(WirelessTechnology::Lte) < std_of(WirelessTechnology::ThreeG));
    }

    #[test]
    fn synthesize_honours_shape_and_floor() {
        let afghanistan = Region::new("Afghanistan", Mbps::new(0.7));
        let t = ThroughputTrace::synthesize(
            &afghanistan,
            WirelessTechnology::ThreeG,
            24,
            Millis::new(60_000.0),
            5,
        );
        assert_eq!(t.len(), 24);
        assert_eq!(t.interval(), Millis::new(60_000.0));
        // 3G at 0.7 Mbps mean is wildly volatile; the floor must hold.
        for s in t.samples() {
            assert!(s.get() >= 0.05, "sample {s} below floor");
        }
    }

    #[test]
    fn streamed_samples_match_generate_bit_for_bit() {
        // A 0.7 Mbps 3G mean clamps samples to the floor now and then.
        for (mean, tech) in [0.7, 7.5]
            .into_iter()
            .flat_map(|mean| WirelessTechnology::all().map(|tech| (mean, tech)))
        {
            for seed in [0, 1, 42, u64::MAX] {
                for len in [1, 2, 18, 145] {
                    let g = GaussMarkov::for_technology(Mbps::new(mean), tech).with_samples(len);
                    let mut state = g.start(seed);
                    let streamed: Vec<u64> = (0..len)
                        .map(|_| g.next_sample(&mut state).get().to_bits())
                        .collect();
                    let generated: Vec<u64> = g
                        .generate(seed)
                        .samples()
                        .iter()
                        .map(|s| s.get().to_bits())
                        .collect();
                    assert_eq!(
                        streamed, generated,
                        "{mean} Mbps {tech} seed {seed} length {len}"
                    );
                }
            }
        }
    }

    /// The fleet's digests rest on these bits: 18 samples of a 3G trace
    /// around 0.7 Mbps, the thirteenth clamped to the 0.05 Mbps floor.
    #[test]
    fn streamed_samples_are_pinned_bit_for_bit() {
        const PINNED: [u64; 18] = [
            0x3fe64154cca8ab40,
            0x3fe5c1df9a8e372e,
            0x3fc003a558886558,
            0x3fddfb8175895669,
            0x3ff28857124cbe8d,
            0x3fe8256209a5442f,
            0x3fab0761222a8b10,
            0x3fee84e65d1dd4c4,
            0x3fd89d9220fd0f13,
            0x3fe1367b78b1c2ec,
            0x3fea1294b89db6c5,
            0x3fc0d170f09eb5bc,
            0x3fa999999999999a,
            0x3ff2bc1d82adeece,
            0x3fe9775f270bf474,
            0x3fe03c13d4463a89,
            0x3fd52d4bcb97e5fc,
            0x3fe1435018f2c469,
        ];
        let g = GaussMarkov::for_technology(Mbps::new(0.7), WirelessTechnology::ThreeG);
        let mut state = g.start(1);
        let streamed = PINNED.map(|_| g.next_sample(&mut state).get().to_bits());
        assert_eq!(streamed, PINNED);
        assert_eq!(PINNED[12], g.floor().get().to_bits());
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn gauss_markov_rejects_negative_sigma() {
        GaussMarkov::new(Mbps::new(5.0), -1.0, 0.5, 10, Millis::new(1000.0));
    }

    proptest! {
        /// Every generated sample is positive and bounded; traces of any
        /// seed/median combination stay valid.
        #[test]
        fn prop_generated_traces_valid(seed in 0u64..1000, median in 0.5f64..50.0) {
            let t = TraceGenerator::lte_like(Mbps::new(median)).generate(seed);
            for s in t.samples() {
                prop_assert!(s.get() >= 0.05 && s.get() <= 200.0);
            }
        }

        /// Gauss–Markov rates are always at or above the positive floor,
        /// whatever the mean, technology, or seed.
        #[test]
        fn prop_gauss_markov_non_negative(
            seed in 0u64..500,
            mean in 0.1f64..60.0,
            tech_idx in 0usize..3,
        ) {
            let tech = WirelessTechnology::all()[tech_idx];
            let g = GaussMarkov::for_technology(Mbps::new(mean), tech).with_samples(60);
            let floor = g.floor();
            let t = g.generate(seed);
            for s in t.samples() {
                prop_assert!(*s >= floor, "sample {s} below floor {floor}");
            }
        }
    }
}
