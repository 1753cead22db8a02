//! Event-level model of INCA's read/write overlap (§V-B2).
//!
//! "While a convolution result is written to its corresponding RRAM cell,
//! the next convolution is launched to read. Yet the write latency still
//! increases the overall time for one convolution since writing spends
//! about 2× longer than reading."
//!
//! This module simulates that two-stage pipeline event by event: a stream
//! of window reads (each `t_read`) produces outputs that must be written
//! into the next layer's arrays (each `t_write`), with a single write port
//! per destination stack. The effective per-result time interpolates
//! between `max(t_read, t_write/ports)` (perfect overlap) and
//! `t_read + t_write` (no overlap), quantifying how much of the write
//! latency the pipeline hides.

use serde::{Deserialize, Serialize};

/// Configuration of the read→write pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Latency of one window read (seconds).
    // lint: allow(raw-unit)
    pub t_read_s: f64,
    /// Latency of one output write (seconds).
    // lint: allow(raw-unit)
    pub t_write_s: f64,
    /// Parallel write ports into the destination arrays (bit-planes write
    /// concurrently, so the paper's design effectively has one port per
    /// bit-plane group).
    pub write_ports: usize,
    /// Depth of the output register between the stages (results buffered
    /// while writes drain).
    pub queue_depth: usize,
}

impl PipelineConfig {
    /// The paper's operating point: 10 ns-class reads (plus shared-ADC
    /// serialization), 50 ns writes, one write port, small output register.
    #[must_use]
    // lint: allow(narrow-pub) needed by: crates/bench/benches/kernels_bench.rs (the pipeline bench)
    pub fn paper_default() -> Self {
        Self { t_read_s: 11.9e-9, t_write_s: 50e-9, write_ports: 1, queue_depth: 4 }
    }
}

/// Outcome of a pipeline simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Number of results processed.
    pub results: u64,
    /// Total makespan in seconds.
    // lint: allow(raw-unit)
    pub makespan_s: f64,
    /// Effective time per result.
    // lint: allow(raw-unit)
    pub per_result_s: f64,
    /// Fraction of the raw write latency hidden under reads:
    /// `1 - (per_result - t_read) / t_write` clamped to `[0, 1]`.
    pub write_hidden_fraction: f64,
}

/// Simulates `results` window reads flowing through the write stage.
///
/// Event model: the reader issues a result every `t_read`; it stalls when
/// the output register is full. The writer drains one result every
/// `t_write / ports`.
#[must_use]
pub fn simulate_pipeline(cfg: &PipelineConfig, results: u64) -> PipelineStats {
    let t_read = cfg.t_read_s.max(1e-15);
    let t_write = (cfg.t_write_s / cfg.write_ports.max(1) as f64).max(0.0);
    let depth = cfg.queue_depth.max(1);

    let mut read_done = 0.0f64; // time the reader finishes its current result
    let mut write_free = 0.0f64; // time the writer becomes free
    let mut write_completions: Vec<f64> = Vec::new(); // completion times in queue window
    let mut last_write_done = 0.0f64;

    for _ in 0..results {
        // The reader can start when it is free AND the queue has room.
        let queue_blocking = if write_completions.len() >= depth {
            // Must wait until the oldest queued write completes.
            write_completions[write_completions.len() - depth]
        } else {
            0.0
        };
        let start = read_done.max(queue_blocking);
        read_done = start + t_read;
        // The write starts when the writer frees up and the result exists.
        let w_start = write_free.max(read_done);
        write_free = w_start + t_write;
        last_write_done = write_free;
        write_completions.push(write_free);
        // Keep only the window the queue check needs.
        if write_completions.len() > depth + 1 {
            write_completions.remove(0);
        }
    }

    let makespan = last_write_done;
    let per_result = if results == 0 { 0.0 } else { makespan / results as f64 };
    let hidden = if cfg.t_write_s <= 0.0 {
        1.0
    } else {
        (1.0 - (per_result - t_read).max(0.0) / cfg.t_write_s).clamp(0.0, 1.0)
    };
    PipelineStats { results, makespan_s: makespan, per_result_s: per_result, write_hidden_fraction: hidden }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_bound_when_writes_dominate() {
        // Paper point: writes at 50 ns vs reads at ~12 ns — the pipeline is
        // write-bound, per-result ≈ t_write.
        let stats = simulate_pipeline(&PipelineConfig::paper_default(), 10_000);
        assert!((stats.per_result_s - 50e-9).abs() < 1e-9, "per-result {}", stats.per_result_s);
        // About (50-38)/50 = 24% of the write latency is hidden under the
        // read; the rest shows — "the write latency still increases the
        // overall time".
        assert!(stats.write_hidden_fraction > 0.1 && stats.write_hidden_fraction < 0.5);
    }

    #[test]
    fn read_bound_when_reads_dominate() {
        let cfg = PipelineConfig { t_read_s: 100e-9, t_write_s: 10e-9, write_ports: 1, queue_depth: 2 };
        let stats = simulate_pipeline(&cfg, 1000);
        assert!((stats.per_result_s - 100e-9).abs() / 100e-9 < 0.05);
        assert!(stats.write_hidden_fraction > 0.95); // writes fully hidden
    }

    #[test]
    fn more_write_ports_recover_read_bound_throughput() {
        let slow = simulate_pipeline(&PipelineConfig::paper_default(), 1000);
        let fast =
            simulate_pipeline(&PipelineConfig { write_ports: 8, ..PipelineConfig::paper_default() }, 1000);
        assert!(fast.per_result_s < slow.per_result_s / 2.0);
    }

    #[test]
    fn makespan_monotone_in_results() {
        let cfg = PipelineConfig::paper_default();
        let a = simulate_pipeline(&cfg, 100).makespan_s;
        let b = simulate_pipeline(&cfg, 200).makespan_s;
        assert!(b > a);
    }

    #[test]
    fn zero_results_is_empty() {
        let stats = simulate_pipeline(&PipelineConfig::paper_default(), 0);
        assert_eq!(stats.makespan_s, 0.0);
        assert_eq!(stats.per_result_s, 0.0);
    }

    #[test]
    fn per_result_between_overlap_bounds() {
        // For any configuration, per-result time lies between
        // max(t_read, t_write/ports) and t_read + t_write/ports.
        for (r, w, p) in [(10e-9, 50e-9, 1usize), (20e-9, 20e-9, 1), (5e-9, 80e-9, 4)] {
            let cfg = PipelineConfig { t_read_s: r, t_write_s: w, write_ports: p, queue_depth: 4 };
            let s = simulate_pipeline(&cfg, 5000);
            let weff = w / p as f64;
            assert!(s.per_result_s >= r.max(weff) * 0.999, "{r} {w} {p}: {}", s.per_result_s);
            assert!(s.per_result_s <= (r + weff) * 1.01, "{r} {w} {p}: {}", s.per_result_s);
        }
    }
}
