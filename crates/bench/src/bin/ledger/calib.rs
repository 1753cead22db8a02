//! The host-speed reference: a fixed kernel, run between a workload's
//! operations, whose CPU time tracks how fast the host runs this
//! process's instructions at that moment.
//!
//! On a shared VM the same instructions take different CPU time from one
//! minute to the next: a neighbour on the same physical core or cache, or
//! a lower clock, stretches CPU time itself, which no clock can separate
//! from the program's own cost. On a 2-vCPU VM, a fixed integer kernel's
//! median CPU time per 2-s window ranged over 1.15–1.81 ms within four
//! minutes, and heap, f32 and memory kernels moved with it. The ledger
//! therefore scales each end-to-end time to a reference host on which
//! [`kernel`] takes [`REFERENCE_S`], using the kernel's CPU time measured
//! just before and just after the timed work.
//!
//! The kernel mixes the kinds of instructions the workloads run: branchy
//! integer code with table updates, a binary heap (like an event queue),
//! f32 multiply-adds (like training) and AND + popcount (like crossbar
//! reads). It calls none of the workspace's code, so no change to the
//! program can move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::measure::{median, time};

/// The kernel's CPU time on the reference host: its typical time on an
/// otherwise idle 2-vCPU x86-64 VM. It sets only the scale of the scaled
/// numbers, which equal raw CPU times on a host running at that speed.
pub(crate) const REFERENCE_S: f64 = 3.5e-3;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Random read-modify-writes of a 256-KB table with a data-dependent
/// branch.
fn table_updates() -> u64 {
    let mut table = vec![0u32; 1 << 16];
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..300_000 {
        let r = xorshift(&mut x);
        let i = (r as usize) & mask;
        table[i] = table[i].wrapping_add(r as u32);
        acc = acc.wrapping_add(u64::from(table[(i * 7) & mask]));
        if acc & 1 == 0 {
            acc ^= r;
        }
    }
    acc
}

/// A binary heap of 4,096 timers, each popped and rescheduled 1–1000
/// ticks later.
fn heap_churn() -> u64 {
    let mut heap: BinaryHeap<Reverse<u64>> = (0..4096u64).map(|i| Reverse(i * 7919 % 100_000)).collect();
    let mut x = 1u64;
    let mut acc = 0u64;
    for _ in 0..20_000 {
        if let Some(Reverse(t)) = heap.pop() {
            acc = acc.wrapping_add(t);
            heap.push(Reverse(t + 1 + xorshift(&mut x) % 1000));
        }
    }
    acc
}

/// 100 products of 40×40 f32 matrices, accumulated.
fn multiply_adds() -> f32 {
    const N: usize = 40;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 17) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.02).collect();
    let mut c = vec![0f32; N * N];
    for _ in 0..100 {
        for i in 0..N {
            for k in 0..N {
                let aik = black_box(a[i * N + k]);
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
    }
    c.iter().sum()
}

/// AND + popcount over two 512-word bit vectors, 1,200 times.
fn and_popcounts() -> u32 {
    let mut x = 7u64;
    let a: Vec<u64> = (0..512).map(|_| xorshift(&mut x)).collect();
    let b: Vec<u64> = (0..512).map(|_| xorshift(&mut x)).collect();
    let mut acc = 0u32;
    for r in 0..1200u64 {
        for (p, q) in a.iter().zip(&b) {
            acc = acc.wrapping_add((black_box(*p) & (q ^ r)).count_ones());
        }
    }
    acc
}

/// The reference work; returns a checksum so none of it can be elided.
pub(crate) fn kernel() -> u64 {
    table_updates() ^ heap_churn() ^ u64::from(multiply_adds().to_bits()) ^ u64::from(and_popcounts())
}

/// The kernel's CPU time now, in seconds: the median of three runs, so
/// one interrupted run does not count.
pub(crate) fn sample() -> f64 {
    median(&(0..3).map(|_| time(|| black_box(kernel())).1).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        assert_eq!(kernel(), kernel());
        assert!(sample() > 0.0);
    }
}
