//! The [`SimProbe`] trait and the standard [`TimeSeriesProbe`].
//!
//! A probe is a *sampled observer*: the simulator drives it on a
//! configurable virtual-time interval, handing it one [`SimSample`] of
//! aggregate state per tick plus one `on_port_depth` call per port. The
//! probe never touches engine state — sampling is read-only by
//! construction (the simulator passes values, not references into its
//! arenas), which is what keeps probed runs bit-identical to unprobed
//! ones.
//!
//! Attachment is `Option<Box<dyn SimProbe>>` on the simulator: with no
//! probe attached the per-event cost is a single never-taken branch.

use ups_metrics::QuantileSketch;

use crate::gate::{self, Counter, ObsSnapshot, Phase};

/// Aggregate simulator state at one sample tick. All values are computed
/// by the simulator; the probe cannot reach back into it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSample {
    /// Virtual time of the tick, picoseconds.
    pub t_ps: u64,
    /// Packets alive in the arena (injected, not yet delivered/dropped).
    pub in_flight: u64,
    /// Events pending in the calendar queue (wheel, overflow and due
    /// streamed injections).
    pub pending_events: u64,
    /// Packets queued across all ports.
    pub queued_packets: u64,
    /// Bytes queued across all ports.
    pub queued_bytes: u64,
    /// Deepest single port queue, packets.
    pub max_port_depth: u64,
    /// Events dispatched so far (cumulative).
    pub events: u64,
}

/// A sampled observer the simulator drives. Implementations must not
/// assume ticks are equally spaced: in a quiet network the clock jumps,
/// and a tick fires on the first event at-or-after each interval
/// boundary.
pub trait SimProbe: Send {
    /// Virtual-time sampling interval in picoseconds. Must be positive.
    fn sample_interval_ps(&self) -> u64;

    /// One port's queue state at the current tick; called once per port
    /// (in deterministic node/port order) before [`SimProbe::on_sample`].
    fn on_port_depth(&mut self, depth: u32, bytes: u64) {
        let _ = (depth, bytes);
    }

    /// The aggregate row for the current tick; called after the per-port
    /// calls.
    fn on_sample(&mut self, sample: &SimSample);
}

/// One recorded sample row: the [`SimSample`] plus a snapshot of the
/// global gate at that tick (cumulative, so exporters can take deltas).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesRow {
    /// Aggregate simulator state.
    pub sample: SimSample,
    /// Gate counters/phase timers at this tick (cumulative).
    pub gate: ObsSnapshot,
}

/// The recorded output of a [`TimeSeriesProbe`], detached from the probe
/// for export once the run finishes.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Virtual-time sampling interval used, picoseconds.
    pub interval_ps: u64,
    /// One row per tick, in time order.
    pub rows: Vec<SeriesRow>,
    /// Per-port queue depth (packets) across every tick × port.
    pub depth_sketch: QuantileSketch,
    /// Per-port queue occupancy (bytes) across every tick × port.
    pub occupancy_sketch: QuantileSketch,
    /// Packets in flight across ticks.
    pub in_flight_sketch: QuantileSketch,
    /// Calendar-queue load (pending events) across ticks.
    pub pending_events_sketch: QuantileSketch,
}

impl TimeSeries {
    /// Final cumulative gate snapshot (last row), or a fresh one when no
    /// tick ever fired.
    pub fn final_gate(&self) -> ObsSnapshot {
        self.rows.last().map(|r| r.gate).unwrap_or_default()
    }
}

/// The standard probe: records a [`SeriesRow`] per tick and feeds the
/// per-port values into [`QuantileSketch`]es.
#[derive(Debug)]
pub struct TimeSeriesProbe {
    series: TimeSeries,
}

impl TimeSeriesProbe {
    /// A probe sampling every `interval_ps` picoseconds of virtual time.
    ///
    /// # Panics
    /// If `interval_ps` is zero.
    pub fn new(interval_ps: u64) -> Self {
        assert!(interval_ps > 0, "sampling interval must be positive");
        TimeSeriesProbe {
            series: TimeSeries {
                interval_ps,
                ..TimeSeries::default()
            },
        }
    }

    /// Default interval: 100 µs of virtual time — a few hundred rows on
    /// the millisecond-scale paper scenarios.
    pub const DEFAULT_INTERVAL_PS: u64 = 100_000_000;

    /// The recorded series so far (by value; the probe is typically
    /// boxed into the simulator and taken back out after the run).
    pub fn into_series(self) -> TimeSeries {
        self.series
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.series.rows.len()
    }

    /// True when no tick has fired yet.
    pub fn is_empty(&self) -> bool {
        self.series.rows.is_empty()
    }
}

impl SimProbe for TimeSeriesProbe {
    fn sample_interval_ps(&self) -> u64 {
        self.series.interval_ps
    }

    fn on_port_depth(&mut self, depth: u32, bytes: u64) {
        self.series.depth_sketch.insert(depth as f64);
        self.series.occupancy_sketch.insert(bytes as f64);
    }

    fn on_sample(&mut self, sample: &SimSample) {
        self.series.in_flight_sketch.insert(sample.in_flight as f64);
        self.series
            .pending_events_sketch
            .insert(sample.pending_events as f64);
        self.series.rows.push(SeriesRow {
            sample: *sample,
            gate: gate::snapshot(),
        });
    }
}

/// A cloneable handle around a [`TimeSeriesProbe`]: attach one clone to
/// the simulator (which wants an owned `Box<dyn SimProbe>`) and keep
/// another to read the series back after the run — no downcasting. The
/// mutex is uncontended (the simulator is single-threaded) and locked
/// once per sample tick, not per event.
#[derive(Debug, Clone)]
pub struct SharedProbe {
    inner: std::sync::Arc<ups_race::sync::Mutex<TimeSeriesProbe>>,
}

impl SharedProbe {
    /// A shared probe sampling every `interval_ps` picoseconds.
    pub fn new(interval_ps: u64) -> Self {
        SharedProbe {
            inner: std::sync::Arc::new(ups_race::sync::Mutex::new(TimeSeriesProbe::new(
                interval_ps,
            ))),
        }
    }

    /// An owned attachment for `Simulator::set_probe`.
    pub fn attachment(&self) -> Box<dyn SimProbe> {
        Box::new(self.clone())
    }

    /// Move the recorded series out, leaving an empty one behind.
    pub fn take_series(&self) -> TimeSeries {
        let mut p = self.inner.lock().unwrap();
        let interval_ps = p.series.interval_ps;
        std::mem::replace(
            &mut p.series,
            TimeSeries {
                interval_ps,
                ..TimeSeries::default()
            },
        )
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True when no tick has fired yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SimProbe for SharedProbe {
    fn sample_interval_ps(&self) -> u64 {
        self.inner.lock().unwrap().sample_interval_ps()
    }

    fn on_port_depth(&mut self, depth: u32, bytes: u64) {
        self.inner.lock().unwrap().on_port_depth(depth, bytes);
    }

    fn on_sample(&mut self, sample: &SimSample) {
        self.inner.lock().unwrap().on_sample(sample);
    }
}

/// What a counter or phase is called and what it measures — the rows
/// `sweep --list` prints under "probes".
pub fn describe_probes() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for p in Phase::ALL {
        out.push((format!("phase:{}", p.name()), p.describe().to_string()));
    }
    for c in Counter::ALL {
        out.push((format!("counter:{}", c.name()), c.describe().to_string()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_records_rows_and_sketches() {
        let mut p = TimeSeriesProbe::new(1_000);
        p.on_port_depth(3, 4500);
        p.on_port_depth(1, 1500);
        p.on_sample(&SimSample {
            t_ps: 1_000,
            in_flight: 4,
            pending_events: 9,
            queued_packets: 4,
            queued_bytes: 6_000,
            max_port_depth: 3,
            events: 17,
        });
        assert_eq!(p.len(), 1);
        let s = p.into_series();
        assert_eq!(s.rows[0].sample.max_port_depth, 3);
        assert_eq!(s.depth_sketch.len(), 2);
        assert_eq!(s.occupancy_sketch.len(), 2);
        assert_eq!(s.in_flight_sketch.len(), 1);
        // Log-bucket sketch: ≤2.2% one-sided error on the max.
        assert!(s.depth_sketch.quantile(1.0) >= 3.0 * 0.97);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = TimeSeriesProbe::new(0);
    }
}
