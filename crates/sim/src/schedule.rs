//! Event-driven, resource-constrained chip scheduling.
//!
//! The analytical models assume every layer gets all the arrays it wants;
//! a real chip has `tiles × tile_size × macro_size` subarray units
//! (16 128 in Table II). When a network's mapping demands more units than
//! exist, layers must execute in rounds (reprogramming the arrays between
//! them). This module is a discrete-event list scheduler quantifying that
//! effect — the `ablation-chip-capacity` experiment.

use inca_arch::{mapping, ArchConfig, Dataflow};
use inca_events::EventQueue;
use inca_units::Time;
use inca_workloads::ModelSpec;
use serde::{Deserialize, Serialize};

/// One schedulable job: a layer's array occupancy and duration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerJob {
    /// Index into the weighted-layer sequence.
    pub layer_index: usize,
    /// Subarray units the mapping allocates.
    pub units: u64,
    /// Occupancy duration.
    pub duration_s: Time,
}

/// Result of scheduling a job set onto a bounded chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleResult {
    /// Total makespan.
    pub makespan_s: Time,
    /// Lower bound: the longest single job (infinite resources, full
    /// parallelism but jobs are atomic).
    pub critical_path_s: Time,
    /// Sum of all durations (serial execution).
    pub serial_s: Time,
    /// Peak concurrent unit usage observed.
    pub peak_units: u64,
    /// Mean unit utilization of the chip over the makespan.
    pub chip_utilization: f64,
}

/// Schedules `jobs` onto a chip with `capacity` units using a greedy
/// event-driven list scheduler (jobs admitted in order whenever they fit;
/// a job wider than the chip is time-sliced as `ceil(units/capacity)`
/// sequential rounds at full width).
///
/// # Panics
///
/// Panics if `capacity` is zero.
#[must_use]
pub fn schedule(jobs: &[LayerJob], capacity: u64) -> ScheduleResult {
    assert!(capacity > 0, "chip capacity must be positive");
    // Normalize over-wide jobs into rounds.
    let normalized: Vec<LayerJob> = jobs
        .iter()
        .map(|j| {
            let rounds = j.units.div_ceil(capacity).max(1);
            LayerJob {
                layer_index: j.layer_index,
                units: j.units.min(capacity),
                duration_s: j.duration_s * rounds as f64,
            }
        })
        .collect();

    let mut now = 0.0f64;
    let mut free = capacity;
    // Completion events on the shared calendar queue: fire time is the
    // job's finish (integer ns for a total order), payload the units it
    // releases. Same-instant completions release in admission order (the
    // queue's seq tie-break); makespan and busy-area are tie-order
    // independent, and all admissions still happen at the same instants.
    let mut events: EventQueue<u64> = EventQueue::new();
    let to_ns = |s: f64| (s * 1e9).round() as u64;
    let mut busy_area = 0.0f64; // unit-seconds
    let mut peak = 0u64;

    let mut queue: std::collections::VecDeque<&LayerJob> = normalized.iter().collect();
    while let Some(&job) = queue.front() {
        if job.units <= free {
            queue.pop_front();
            free -= job.units;
            peak = peak.max(capacity - free);
            busy_area += job.units as f64 * job.duration_s.seconds();
            events.schedule(to_ns(now + job.duration_s.seconds()), job.units);
        } else {
            // Advance time to the next completion. The queue head does not
            // fit, so some units are held — a completion event must exist.
            let (t_ns, units) = events.pop().expect("a running job must exist"); // lint: allow(panic-path)
            now = t_ns as f64 / 1e9;
            free += units;
        }
    }
    // Drain remaining events.
    let mut makespan = now;
    while let Some((t_ns, _)) = events.pop() {
        makespan = makespan.max(t_ns as f64 / 1e9);
    }

    let critical = normalized.iter().map(|j| j.duration_s).fold(Time::ZERO, Time::max);
    let serial: Time = normalized.iter().map(|j| j.duration_s).sum();
    ScheduleResult {
        makespan_s: Time::from_seconds(makespan),
        critical_path_s: critical,
        serial_s: serial,
        peak_units: peak,
        chip_utilization: if makespan > 0.0 { busy_area / (capacity as f64 * makespan) } else { 0.0 },
    }
}

/// Builds the layer jobs of one feedforward pass under the configured
/// dataflow mapping and cycle model.
#[must_use]
pub fn layer_jobs(config: &ArchConfig, spec: &ModelSpec) -> Vec<LayerJob> {
    let cycle_s = match config.dataflow {
        Dataflow::WeightStationary => config.array_read_latency_s(),
        Dataflow::InputStationary => config.array_read_latency_s() + config.array_write_latency_s(),
    };
    match config.dataflow {
        Dataflow::WeightStationary => {
            let engine = mapping::WsMapping::new(config);
            spec.weighted_layers()
                .enumerate()
                .filter_map(|(i, l)| {
                    engine.map_layer(l).map(|m| LayerJob {
                        layer_index: i,
                        units: m.units,
                        duration_s: Time::from_seconds(
                            crate::inference::ws_layer_cycles(l, config) as f64 * cycle_s,
                        ),
                    })
                })
                .collect()
        }
        Dataflow::InputStationary => {
            let engine = mapping::IsMapping::new(config);
            spec.weighted_layers()
                .enumerate()
                .filter_map(|(i, l)| {
                    engine.map_layer(l).map(|m| LayerJob {
                        layer_index: i,
                        units: m.units,
                        duration_s: Time::from_seconds(
                            crate::inference::is_layer_cycles(l, config) as f64 * cycle_s,
                        ),
                    })
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_workloads::Model;

    /// Schedules one feedforward pass of `spec` on the configured chip,
    /// returning the resource-constrained result.
    fn schedule_network(config: &ArchConfig, spec: &ModelSpec) -> ScheduleResult {
        schedule(&layer_jobs(config, spec), config.units_per_chip() as u64)
    }

    fn job(i: usize, units: u64, d: f64) -> LayerJob {
        LayerJob { layer_index: i, units, duration_s: Time::from_seconds(d) }
    }

    #[test]
    fn independent_jobs_run_in_parallel() {
        let jobs = [job(0, 10, 1.0), job(1, 10, 1.0), job(2, 10, 1.0)];
        let r = schedule(&jobs, 30);
        assert!((r.makespan_s.seconds() - 1.0).abs() < 1e-9);
        assert_eq!(r.peak_units, 30);
    }

    #[test]
    fn capacity_forces_serialization() {
        let jobs = [job(0, 10, 1.0), job(1, 10, 1.0), job(2, 10, 1.0)];
        let r = schedule(&jobs, 10);
        assert!((r.makespan_s.seconds() - 3.0).abs() < 1e-9);
        assert!((r.chip_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn over_wide_jobs_are_time_sliced() {
        let jobs = [job(0, 25, 1.0)];
        let r = schedule(&jobs, 10);
        // ceil(25/10) = 3 rounds.
        assert!((r.makespan_s.seconds() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_bounded_by_serial_and_critical_path() {
        let jobs = [job(0, 5, 2.0), job(1, 8, 1.0), job(2, 3, 4.0), job(3, 9, 0.5)];
        let r = schedule(&jobs, 10);
        assert!(r.makespan_s.seconds() >= r.critical_path_s.seconds() - 1e-9);
        assert!(r.makespan_s.seconds() <= r.serial_s.seconds() + 1e-9);
    }

    #[test]
    fn network_schedule_vgg16_inca() {
        let cfg = inca_arch::ArchConfig::inca_paper();
        let spec = Model::Vgg16.spec();
        let r = schedule_network(&cfg, &spec);
        // VGG16's IS mapping wants far more stacks than the chip has —
        // the constrained makespan must exceed the critical path.
        assert!(r.makespan_s > r.critical_path_s);
        assert!(r.peak_units <= cfg.units_per_chip() as u64);
        assert!(r.chip_utilization > 0.1 && r.chip_utilization <= 1.0);
    }

    #[test]
    fn bigger_chips_never_slow_down() {
        let cfg = inca_arch::ArchConfig::inca_paper();
        let spec = Model::ResNet18.spec();
        let jobs = layer_jobs(&cfg, &spec);
        let small = schedule(&jobs, 4_000);
        let big = schedule(&jobs, 64_000);
        assert!(big.makespan_s.seconds() <= small.makespan_s.seconds() + 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = schedule(&[], 0);
    }
}
