//! Runtime-dispatched SIMD kernels for the conv engine's two reads.
//!
//! A bit-serial window read bottoms out in AND two `u64` words and
//! popcount the result (`popcount(x & w)` — see [`crate::packed`]); an
//! exact read, where no window read can saturate the ADC, is an integer
//! product of 8-bit codes. This module supplies both primitives in
//! interchangeable, bit-exact implementations and picks one at runtime:
//!
//! * **avx2** (`x86_64` hosts with AVX2) — `std::arch` intrinsics: the
//!   nibble-LUT popcount (`_mm256_shuffle_epi8` + `_mm256_sad_epu8`) over
//!   4 words (256 bits) per lane-step, and `_mm256_madd_epi16` register
//!   tiles for the code product,
//! * **portable** — plain `count_ones` and multiply-add loops, used on
//!   non-x86 targets and pre-AVX2 x86 parts.
//!
//! Dispatch is decided once (`is_x86_feature_detected!` cached in a
//! [`OnceLock`]) and is observable through [`active_impl`], which the
//! bench artifact records. All implementations compute exact integers,
//! so the choice can never change an output bit — pinned by the tests at
//! the bottom of this file and the engine-level parity proptests.
//!
//! Three entry points:
//!
//! * [`and_popcount_accumulate`] — the bit-serial read kernel. One
//!   call takes one window's compact activation-bit word (window cell
//!   `(i, j)` at bit `i·k + j`, see [`crate::packed`]) and every kernel
//!   mask of one input channel (`out × 2 sides × 7 weight bits`), and
//!   adds each read's ADC-saturated count, shifted by the activation
//!   bit, into its own `u32` accumulator:
//!   `acc[i] += min(popcount(x & mask[i]), cap) << shift`. The AVX2
//!   path broadcasts the window word and handles 8 masks per step.
//! * [`panel_product`] — the exact read kernel: a blocked integer GEMM
//!   of a panel of windows' `i16` codes against a kernel's `i16` weight
//!   codes, both stored pair-major, so one `_mm256_madd_epi16` forms two
//!   taps' products for 8 outputs of one window. The AVX2 path holds a
//!   tile of 4 windows × 16 (or 8) outputs in registers, so each weight
//!   register serves 4 windows, as one pillar broadcast serves every
//!   window and plane it reads.
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
/// `x` is a window in the compact layout of [`crate::packed`] (one word
/// for every window of at most 64 cells) and `masks` holds `acc.len()`
/// kernel masks in the same layout, back to back. The `min` is applied to
/// each read *before* the shift, so every read saturates exactly as one
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

/// Windows per register tile of [`panel_product`].
const TILE_WINDOWS: usize = 4;

/// Outputs per 256-bit register of [`panel_product`]: 8 `i32` sums.
const LANES: usize = 8;

/// The integer GEMM of an exact conv read: `m` windows against `n`
/// outputs over `pairs` pairs of taps,
/// `out[w·n + o] = Σ_p Σ_h panel[(p·m + w)·2 + h] · codes[(p·n + o)·2 + h]`
/// with `h ∈ {0, 1}` and `m = out.len() / n`.
///
/// Both operands are pair-major: `panel` is `[pairs][m][2]` (tap pair `p`
/// of window `w`) and `codes` is `[pairs][n][2]` (the same tap pair's
/// weights for output `o`), so one `_mm256_madd_epi16` multiplies a
/// window's broadcast pair by 8 outputs' pairs and adds each pair of
/// products. The AVX2 path holds tiles of 4 windows × 16 outputs (and
/// 4 × 8 where `n` is an odd multiple of 8) in registers for the whole
/// sum. Callers pad `m` to a multiple of 4 and `n` to a multiple of 8
/// with zero codes, so no tile has a tail.
///
/// Products and sums are `i32`: each pair sum is formed as
/// `vpmaddwd` forms it and every addition wraps modulo 2³² identically
/// on every implementation. Callers bound their sums so they never wrap
/// (8-bit activation codes times signed 7-bit weight codes stay exact up
/// to 33,155 pairs).
///
/// # Panics
///
/// Panics unless `n` is a positive multiple of 8, `out.len()` is a
/// multiple of `4·n`, and `panel` and `codes` hold the same number of
/// pairs for `m` windows and `n` outputs.
#[inline]
pub fn panel_product(panel: &[i16], codes: &[i16], n: usize, out: &mut [i32]) {
    assert!(
        n > 0 && n.is_multiple_of(LANES),
        "panel_product: {n} outputs is not a positive multiple of {LANES}"
    );
    let m = out.len() / n;
    assert!(out.len().is_multiple_of(TILE_WINDOWS * n), "panel_product: {m} windows per {n} outputs");
    let pairs = codes.len() / (2 * n);
    assert!(
        codes.len() == pairs * 2 * n && panel.len() == pairs * 2 * m,
        "panel_product: {} panel codes for {m} windows and {} weight codes for {n} outputs",
        panel.len(),
        codes.len()
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: `avx2_available()` verified the CPU supports the `avx2`
        // feature this function is compiled for.
        unsafe { panel_product_avx2(panel, codes, n, out) };
        return;
    }
    panel_product_portable(panel, codes, n, out);
}

/// The portable implementation of [`panel_product`]: the same tiles, each
/// window's sums for 8 outputs held in one local array.
fn panel_product_portable(panel: &[i16], codes: &[i16], n: usize, out: &mut [i32]) {
    let m = out.len() / n;
    for w0 in (0..m).step_by(TILE_WINDOWS) {
        for o0 in (0..n).step_by(LANES) {
            let mut acc = [[0i32; LANES]; TILE_WINDOWS];
            for (x, w) in panel.chunks_exact(2 * m).zip(codes.chunks_exact(2 * n)) {
                let w = &w[2 * o0..2 * (o0 + LANES)];
                for (sums, x) in acc.iter_mut().zip(x[2 * w0..2 * (w0 + TILE_WINDOWS)].chunks_exact(2)) {
                    // All 16 products, then the 8 pair sums: the compiler
                    // vectorizes this shape, and a VGG16-CIFAR forward ran
                    // ~2× faster than with one multiply-add per pair on a
                    // 2-vCPU x86-64 host without AVX2 code.
                    let mut products = [0i32; 2 * LANES];
                    for (i, (p, &w)) in products.iter_mut().zip(w).enumerate() {
                        *p = i32::from(x[i % 2]) * i32::from(w);
                    }
                    for (s, pair) in sums.iter_mut().zip(products.chunks_exact(2)) {
                        *s = s.wrapping_add(pair[0].wrapping_add(pair[1]));
                    }
                }
            }
            for (r, sums) in acc.iter().enumerate() {
                out[(w0 + r) * n + o0..][..LANES].copy_from_slice(sums);
            }
        }
    }
}

/// AVX2 [`panel_product`]: per tile of 4 windows, 16-output tiles, then
/// one 8-output tile if `n` is an odd multiple of 8.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`). A shape other than the one
/// [`panel_product`] asserts panics on a slice bound.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn panel_product_avx2(panel: &[i16], codes: &[i16], n: usize, out: &mut [i32]) {
    let m = out.len() / n;
    for w0 in (0..m).step_by(TILE_WINDOWS) {
        let mut o0 = 0;
        while o0 + 2 * LANES <= n {
            madd_tile::<2>(panel, codes, (m, n), (w0, o0), out);
            o0 += 2 * LANES;
        }
        if o0 < n {
            madd_tile::<1>(panel, codes, (m, n), (w0, o0), out);
        }
    }
}

/// One tile of [`panel_product_avx2`]: windows `w0..w0 + 4` against
/// outputs `o0..o0 + 8·B`, in `4·B` accumulator registers. Per pair of
/// taps, `B` weight registers are loaded once and serve all 4 windows,
/// each window's pair broadcast to every lane. Every load and store goes
/// through a bounds-checked slice of exactly one register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn madd_tile<const B: usize>(
    panel: &[i16],
    codes: &[i16],
    (m, n): (usize, usize),
    (w0, o0): (usize, usize),
    out: &mut [i32],
) {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_storeu_si256,
    };
    let mut acc = [[_mm256_setzero_si256(); B]; TILE_WINDOWS];
    let mut weights = [_mm256_setzero_si256(); B];
    for (x, w) in panel.chunks_exact(2 * m).zip(codes.chunks_exact(2 * n)) {
        let (x, w) = (&x[2 * w0..2 * (w0 + TILE_WINDOWS)], &w[2 * o0..2 * (o0 + B * LANES)]);
        for (reg, w) in weights.iter_mut().zip(w.chunks_exact(2 * LANES)) {
            // SAFETY: `w` holds 16 `i16`, 32 bytes; loadu has no
            // alignment requirement.
            *reg = unsafe { _mm256_loadu_si256(w.as_ptr().cast::<__m256i>()) };
        }
        for (sums, x) in acc.iter_mut().zip(x.chunks_exact(2)) {
            // The window's pair as one 32-bit lane, low tap first.
            let pair = _mm256_set1_epi32(i32::from(x[0] as u16) | i32::from(x[1]) << 16);
            for (s, &w) in sums.iter_mut().zip(&weights) {
                *s = _mm256_add_epi32(*s, _mm256_madd_epi16(pair, w));
            }
        }
    }
    for (r, sums) in acc.iter().enumerate() {
        let row = &mut out[(w0 + r) * n + o0..][..B * LANES];
        for (dst, s) in row.chunks_exact_mut(LANES).zip(sums) {
            // SAFETY: `dst` holds 8 `i32`, 32 bytes; storeu has no
            // alignment requirement.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast::<__m256i>(), *s) };
        }
    }
}

/// The portable fallback for [`and_popcount_lanes`] (4-wide unrolled).
#[inline]
pub(crate) fn and_popcount_lanes_portable(x: &[u64], w: &[u64], out: &mut [u32]) {
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

    /// The plain `i64` loop [`panel_product`] must equal, over `taps`
    /// taps of `m` windows (`xs[w][t]`) and `n` outputs (`ws[o][t]`).
    fn panel_reference(xs: &[Vec<i16>], ws: &[Vec<i16>]) -> Vec<i64> {
        let dot = |x: &[i16], w: &[i16]| x.iter().zip(w).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum();
        xs.iter().flat_map(|x| ws.iter().map(move |w| dot(x, w))).collect()
    }

    /// `rows[r][t]` as a pair-major `[⌈taps/2⌉][rows.len()][2]` table, an
    /// odd last tap paired with 0.
    fn pair_major(rows: &[Vec<i16>], taps: usize) -> Vec<i16> {
        let mut table = vec![0i16; taps.div_ceil(2) * rows.len() * 2];
        for (r, row) in rows.iter().enumerate() {
            for (t, &v) in row.iter().enumerate() {
                table[(t / 2 * rows.len() + r) * 2 + t % 2] = v;
            }
        }
        table
    }

    /// Both implementations of [`panel_product`] on `m` windows, padded
    /// with zero windows to a whole tile, against the plain loop.
    fn check_panel(xs: &[Vec<i16>], ws: &[Vec<i16>], taps: usize, label: &str) {
        let (m, n) = (xs.len(), ws.len());
        let mut padded = xs.to_vec();
        padded.resize(m.next_multiple_of(TILE_WINDOWS), vec![0; taps]);
        let (panel, codes) = (pair_major(&padded, taps), pair_major(ws, taps));
        let mut expect: Vec<i64> = panel_reference(xs, ws);
        expect.resize(padded.len() * n, 0);
        let mut got = vec![-1i32; padded.len() * n];
        panel_product(&panel, &codes, n, &mut got);
        assert_eq!(got.iter().map(|&v| i64::from(v)).collect::<Vec<_>>(), expect, "dispatched {label}");
        let mut portable = vec![-1i32; padded.len() * n];
        panel_product_portable(&panel, &codes, n, &mut portable);
        assert_eq!(portable.iter().map(|&v| i64::from(v)).collect::<Vec<_>>(), expect, "portable {label}");
    }

    #[test]
    fn panel_product_matches_plain_loop() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4000);
        for pairs in 1..=40 {
            for taps in [2 * pairs - 1, 2 * pairs] {
                for n in (8..=64).step_by(8) {
                    let m = rng.gen_range(1..=9);
                    let xs: Vec<Vec<i16>> =
                        (0..m).map(|_| (0..taps).map(|_| rng.gen_range(0..=255)).collect()).collect();
                    let ws: Vec<Vec<i16>> =
                        (0..n).map(|_| (0..taps).map(|_| rng.gen_range(-127..=127)).collect()).collect();
                    check_panel(&xs, &ws, taps, &format!("taps {taps} n {n} m {m}"));
                }
            }
        }
    }

    #[test]
    fn panel_product_is_exact_at_the_i32_bound() {
        // 66,311 taps of 255 · ±127 sum to ±2,147,481,735, 1,912 short of
        // i32::MAX; the odd last tap pairs with zero.
        let taps = 66_311;
        let xs = vec![vec![255i16; taps]; 5];
        let ws: Vec<Vec<i16>> = (0..16).map(|o| vec![if o % 3 == 0 { -127 } else { 127 }; taps]).collect();
        assert_eq!(panel_reference(&xs, &ws)[..2], [-2_147_481_735, 2_147_481_735]);
        check_panel(&xs, &ws, taps, "at the bound");
    }

    #[test]
    #[should_panic(expected = "not a positive multiple of 8")]
    fn panel_product_rejects_a_partial_lane() {
        panel_product(&[0; 8], &[0; 12], 6, &mut [0; 24]);
    }

    #[test]
    #[should_panic(expected = "windows per")]
    fn panel_product_rejects_a_partial_tile() {
        panel_product(&[0; 6], &[0; 16], 8, &mut [0; 24]);
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
