//! Runtime-dispatched SIMD kernels for the packed read path.
//!
//! Every packed window read bottoms out in the same primitive: AND two
//! `u64` words and popcount the result (`popcount(x & w)` — see
//! [`crate::packed`]). This module supplies that primitive in
//! interchangeable, bit-exact implementations and picks one at runtime:
//!
//! * **avx2** (`x86_64` hosts with AVX2) — `std::arch` intrinsics
//!   processing 4 words (256 bits) per lane-step with the nibble-LUT
//!   popcount (`_mm256_shuffle_epi8` + `_mm256_sad_epu8`),
//! * **portable** — plain `count_ones` loops, used on non-x86 targets
//!   and pre-AVX2 x86 parts.
//!
//! Dispatch is decided once (`is_x86_feature_detected!` cached in a
//! [`OnceLock`]) and is observable through [`active_impl`], which the
//! bench artifact records. All implementations compute exact integer
//! popcounts, so the choice can never change an output bit — pinned by
//! the tests at the bottom of this file and the engine-level parity
//! proptests.
//!
//! Two entry points:
//!
//! * [`and_popcount_accumulate`] — the conv engine's read kernel. One
//!   call takes one window's compact activation-bit word (window cell
//!   `(i, j)` at bit `i·k + j`, see
//!   [`crate::VerticalPlane::extract_window_compact`]) and every kernel
//!   mask of one input channel (`out × 2 sides × 7 weight bits`), and
//!   adds each read's ADC-saturated count, shifted by the activation
//!   bit, into its own `u32` accumulator:
//!   `acc[i] += min(popcount(x & mask[i]), cap) << shift`. The AVX2
//!   path broadcasts the window word and handles 8 masks per step.
//! * [`and_popcount_lanes`] — per-word popcounts `out[i] =
//!   popcount(x_i & w_i)`, kept as the word-rate probe of the
//!   performance ledger.
//!
//! This module is the only `unsafe` code in the workspace; every unsafe
//! block carries a `// SAFETY:` comment, enforced by the `inca-lint`
//! `safety-comment` rule.

#![allow(unsafe_code)] // the std::arch path below; see module docs

use std::sync::OnceLock;

/// Which implementation the entry points of this module dispatch to on
/// this host: `"avx2"` or `"portable"`.
#[must_use]
pub fn active_impl() -> &'static str {
    if avx2_available() {
        "avx2"
    } else {
        "portable"
    }
}

/// Cached runtime AVX2 detection (one `cpuid` for the process lifetime).
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    // Keep the OnceLock import used on every target.
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| false)
}

/// Per-word popcounts: `out[i] = popcount(x_i & w_i)`, 4 words per
/// step. No engine reads through this any more (they use
/// [`and_popcount_accumulate`]); it stays as the performance ledger's
/// word-rate probe.
///
/// # Panics
///
/// Panics (debug builds) if the slice lengths differ.
#[inline]
pub fn and_popcount_lanes(x: &[u64], w: &[u64], out: &mut [u32]) {
    debug_assert_eq!(x.len(), w.len(), "and_popcount_lanes length mismatch");
    debug_assert_eq!(x.len(), out.len(), "and_popcount_lanes output mismatch");
    #[cfg(target_arch = "x86_64")]
    if x.len() >= 4 && avx2_available() {
        // SAFETY: `avx2_available()` verified the CPU supports the
        // `avx2` feature this function is compiled for.
        unsafe { and_popcount_lanes_avx2(x, w, out) };
        return;
    }
    and_popcount_lanes_portable(x, w, out);
}

/// One window word against a table of kernel masks, each read saturated
/// and shifted into its own accumulator:
/// `acc[i] += min(Σ_w popcount(x[w] & masks[i·x.len() + w]), cap) << shift`.
///
/// `x` is a window in the compact layout of
/// [`crate::VerticalPlane::extract_window_compact`] (one word for every
/// window of at most 64 cells) and `masks` holds `acc.len()` kernel masks
/// in the same layout, back to back. The `min` is applied to each read
/// *before* the shift, so every read saturates exactly as one
/// `AdcReadout::digitize` call would (`cap = u32::MAX` disables it). Sums
/// wrap modulo 2³² identically on every implementation; callers bound
/// their totals so they never do.
///
/// The AVX2 path covers one-word windows; wider windows take the
/// portable loop.
///
/// # Panics
///
/// Panics (debug builds) if `masks.len() != acc.len() · x.len()` or
/// `shift ≥ 32`.
#[inline]
pub fn and_popcount_accumulate(x: &[u64], masks: &[u64], cap: u32, shift: u32, acc: &mut [u32]) {
    debug_assert_eq!(masks.len(), acc.len() * x.len(), "and_popcount_accumulate mask count mismatch");
    debug_assert!(shift < 32, "and_popcount_accumulate shift {shift} out of range");
    #[cfg(target_arch = "x86_64")]
    if let [word] = x {
        if avx2_available() {
            // SAFETY: `avx2_available()` verified the CPU supports the
            // `avx2` feature this function is compiled for.
            unsafe { and_popcount_accumulate_avx2(*word, masks, cap, shift, acc) };
            return;
        }
    }
    and_popcount_accumulate_portable(x, masks, cap, shift, acc);
}

/// The portable implementation of [`and_popcount_accumulate`].
#[inline]
fn and_popcount_accumulate_portable(x: &[u64], masks: &[u64], cap: u32, shift: u32, acc: &mut [u32]) {
    let read = |count: u32| count.min(cap) << shift;
    match x {
        [] => {}
        [word] => {
            for (a, &m) in acc.iter_mut().zip(masks) {
                *a = a.wrapping_add(read((word & m).count_ones()));
            }
        }
        _ => {
            for (a, m) in acc.iter_mut().zip(masks.chunks_exact(x.len())) {
                let count = x.iter().zip(m).map(|(&xv, &mv)| (xv & mv).count_ones()).sum();
                *a = a.wrapping_add(read(count));
            }
        }
    }
}

/// The portable fallback for [`and_popcount_lanes`] (4-wide unrolled).
#[inline]
pub fn and_popcount_lanes_portable(x: &[u64], w: &[u64], out: &mut [u32]) {
    let mut i = 0usize;
    while i + 4 <= x.len() {
        out[i] = (x[i] & w[i]).count_ones();
        out[i + 1] = (x[i + 1] & w[i + 1]).count_ones();
        out[i + 2] = (x[i + 2] & w[i + 2]).count_ones();
        out[i + 3] = (x[i + 3] & w[i + 3]).count_ones();
        i += 4;
    }
    while i < x.len() {
        out[i] = (x[i] & w[i]).count_ones();
        i += 1;
    }
}

/// AVX2 per-word popcounts of `x & w` (4 words per step + scalar tail).
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn and_popcount_lanes_avx2(x: &[u64], w: &[u64], out: &mut [u32]) {
    use std::arch::x86_64::{__m256i, _mm256_storeu_si256};
    let n = x.len();
    let mut i = 0usize;
    let mut lanes = [0u64; 4];
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n` keeps the 32-byte unaligned loads inside
        // both slices; `anded_nibble_counts` only dereferences those.
        let counts = unsafe { anded_nibble_counts(x.as_ptr().add(i), w.as_ptr().add(i)) };
        // SAFETY: `lanes` is a 32-byte buffer; storeu has no alignment
        // requirement.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), counts) };
        #[allow(clippy::cast_possible_truncation)] // per-word popcounts are ≤ 64
        {
            out[i] = lanes[0] as u32;
            out[i + 1] = lanes[1] as u32;
            out[i + 2] = lanes[2] as u32;
            out[i + 3] = lanes[3] as u32;
        }
        i += 4;
    }
    while i < n {
        out[i] = (x[i] & w[i]).count_ones();
        i += 1;
    }
}

/// AVX2 [`and_popcount_accumulate`] for a one-word window: `x` is
/// broadcast to all four 64-bit lanes, 8 masks per step are ANDed and
/// popcounted, their counts narrowed to `u32` lanes in mask order, then
/// saturated (`_mm256_min_epu32`), shifted and added to `acc`; a scalar
/// tail covers the last `n mod 8` masks.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn and_popcount_accumulate_avx2(x: u64, masks: &[u64], cap: u32, shift: u32, acc: &mut [u32]) {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_loadu_si256, _mm256_min_epu32, _mm256_or_si256,
        _mm256_permutevar8x32_epi32, _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_setr_epi32,
        _mm256_slli_epi64, _mm256_sllv_epi32, _mm256_storeu_si256,
    };
    let n = acc.len().min(masks.len());
    // Bit patterns, not values: the casts only reinterpret.
    #[allow(clippy::cast_possible_wrap)]
    let (xv, capv, count) =
        (_mm256_set1_epi64x(x as i64), _mm256_set1_epi32(cap as i32), _mm256_set1_epi32(shift as i32));
    // `lo | hi << 32` holds the counts as u32 lanes [c0, c4, c1, c5, …];
    // this permutation restores mask order.
    let order = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n <= masks.len()` keeps both 32-byte
        // unaligned loads inside `masks`.
        let (lo, hi) = unsafe {
            let m = masks.as_ptr().add(i).cast::<__m256i>();
            (_mm256_loadu_si256(m), _mm256_loadu_si256(m.add(1)))
        };
        let lo = popcount_u64_lanes(_mm256_and_si256(xv, lo));
        let hi = popcount_u64_lanes(_mm256_and_si256(xv, hi));
        let counts = _mm256_permutevar8x32_epi32(_mm256_or_si256(lo, _mm256_slli_epi64::<32>(hi)), order);
        let reads = _mm256_sllv_epi32(_mm256_min_epu32(counts, capv), count);
        // SAFETY: `i + 8 <= n <= acc.len()` keeps the 32-byte unaligned
        // load and store inside `acc`.
        unsafe {
            let a = acc.as_mut_ptr().add(i).cast::<__m256i>();
            _mm256_storeu_si256(a, _mm256_add_epi32(_mm256_loadu_si256(a), reads));
        }
        i += 8;
    }
    for (a, &m) in acc[i..n].iter_mut().zip(&masks[i..n]) {
        *a = a.wrapping_add((x & m).count_ones().min(cap) << shift);
    }
}

/// One 256-bit step of the nibble-LUT popcount: loads 4 words from each
/// pointer, ANDs them, and returns the four per-64-bit-lane bit counts.
///
/// # Safety
///
/// Both pointers must be readable for 32 bytes; the caller must have
/// verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn anded_nibble_counts(x: *const u64, w: *const u64) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::{__m256i, _mm256_and_si256, _mm256_loadu_si256};
    // SAFETY: the caller guarantees both pointers are readable for 32
    // bytes; loadu has no alignment requirement.
    let v = unsafe {
        _mm256_and_si256(_mm256_loadu_si256(x.cast::<__m256i>()), _mm256_loadu_si256(w.cast::<__m256i>()))
    };
    popcount_u64_lanes(v)
}

/// The nibble-LUT popcount of each 64-bit lane of `v`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn popcount_u64_lanes(v: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::{
        _mm256_add_epi8, _mm256_and_si256, _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16,
    };
    // Per-nibble popcount lookup table, repeated across both 128-bit
    // halves (shuffle_epi8 indexes within each half).
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
    let per_byte = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
    // Sum the 8 byte-counts of each 64-bit lane into that lane.
    _mm256_sad_epu8(per_byte, _mm256_setzero_si256())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_words(len: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        ((0..len).map(|_| rng.next_u64()).collect(), (0..len).map(|_| rng.next_u64()).collect())
    }

    #[test]
    fn dispatched_lanes_match_reference_across_lengths() {
        for len in 0..=67 {
            let (x, w) = random_words(len, 2000 + len as u64);
            let expect: Vec<u32> = x.iter().zip(&w).map(|(&a, &b)| (a & b).count_ones()).collect();
            let mut got = vec![0u32; len];
            and_popcount_lanes(&x, &w, &mut got);
            assert_eq!(got, expect, "len {len}");
            let mut portable = vec![0u32; len];
            and_popcount_lanes_portable(&x, &w, &mut portable);
            assert_eq!(portable, expect, "portable len {len}");
        }
    }

    #[test]
    fn saturated_words_count_fully() {
        let x = vec![u64::MAX; 9];
        let w = vec![u64::MAX; 9];
        let mut lanes = vec![0u32; 9];
        and_popcount_lanes(&x, &w, &mut lanes);
        assert_eq!(lanes, vec![64u32; 9]);
    }

    /// The plain loop [`and_popcount_accumulate`] must equal.
    fn accumulate_reference(x: &[u64], masks: &[u64], cap: u32, shift: u32, acc: &mut [u32]) {
        for (i, a) in acc.iter_mut().enumerate() {
            let mut count = 0u32;
            for (w, &xv) in x.iter().enumerate() {
                count += (xv & masks[i * x.len() + w]).count_ones();
            }
            *a = a.wrapping_add(count.min(cap) << shift);
        }
    }

    #[test]
    fn accumulate_matches_scalar_loop() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3000);
        for words in 1..=3 {
            for n in 0..=67 {
                for cap in [15, u32::MAX] {
                    let x: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
                    let ones = vec![u64::MAX; words];
                    let masks: Vec<u64> = (0..n * words).map(|_| rng.next_u64()).collect();
                    let all_ones = vec![u64::MAX; n * words];
                    for (x, masks) in [(&x, &masks), (&ones, &all_ones), (&ones, &masks), (&x, &all_ones)] {
                        let start: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1u32 << 20)).collect();
                        for shift in [0, 3, 7] {
                            let mut expect = start.clone();
                            accumulate_reference(x, masks, cap, shift, &mut expect);
                            let mut got = start.clone();
                            and_popcount_accumulate(x, masks, cap, shift, &mut got);
                            assert_eq!(got, expect, "words {words} n {n} cap {cap} shift {shift}");
                            let mut portable = start.clone();
                            and_popcount_accumulate_portable(x, masks, cap, shift, &mut portable);
                            assert_eq!(portable, expect, "portable words {words} n {n} cap {cap}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn accumulate_saturates_each_read_before_the_shift() {
        // All-ones operands: every read counts 64 per word, clipped to
        // the cap before the shift.
        let mut acc = vec![1u32; 9];
        and_popcount_accumulate(&[u64::MAX], &[u64::MAX; 9], 15, 7, &mut acc);
        assert_eq!(acc, vec![1 + (15 << 7); 9]);
        let mut acc = vec![0u32; 9];
        and_popcount_accumulate(&[u64::MAX; 2], &[u64::MAX; 18], u32::MAX, 2, &mut acc);
        assert_eq!(acc, vec![128 << 2; 9]);
    }

    #[test]
    fn active_impl_names_a_known_level() {
        assert!(matches!(active_impl(), "avx2" | "portable"));
    }
}
