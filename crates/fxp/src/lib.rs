//! Q1.15 fixed-point arithmetic with LEA-compatible semantics.
//!
//! The TI MSP430's Low Energy Accelerator (LEA) and the deployed SONIC &
//! TAILS kernels operate on 16-bit fixed-point values in Q1.15 format: one
//! sign bit and fifteen fractional bits, representing values in
//! `[-1.0, 1.0 - 2^-15]`. This crate provides:
//!
//! - [`Q15`]: the 16-bit fixed-point scalar with saturating arithmetic and
//!   round-to-nearest multiplication, matching what the hardware multiplier
//!   and LEA produce.
//! - [`Accum`]: a wide accumulator for multiply-accumulate chains, so that
//!   dot products only round/saturate once at the end (as DNN kernels do).
//! - [`vecops`]: slice-level helpers (quantize, dot, MAC, FIR, argmax)
//!   shared by the software kernels, the host reference, and the LEA
//!   model's tests.
//!
//! # Example
//!
//! ```
//! use fxp::{Q15, Accum};
//!
//! let a = Q15::from_f32(0.5);
//! let b = Q15::from_f32(-0.25);
//! assert_eq!((a * b).to_f32(), -0.125);
//!
//! let mut acc = Accum::ZERO;
//! acc.mac(a, b);
//! acc.mac(a, a);
//! assert_eq!(acc.to_q15().to_f32(), 0.125);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use core::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Number of fractional bits in the Q1.15 format.
pub const FRAC_BITS: u32 = 15;

/// The scale factor `2^15` relating raw integers to real values.
pub const SCALE: i32 = 1 << FRAC_BITS;

/// A 16-bit fixed-point number in Q1.15 format.
///
/// Values represent `raw / 2^15` and saturate (rather than wrap) on
/// overflow, matching the MSP430 hardware multiplier in fractional mode and
/// LEA's saturating vector operations.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Q15(i16);

impl Q15 {
    /// The additive identity (`0.0`).
    pub const ZERO: Q15 = Q15(0);
    /// The largest representable value, `1.0 - 2^-15`.
    pub const MAX: Q15 = Q15(i16::MAX);
    /// The smallest representable value, `-1.0`.
    pub const MIN: Q15 = Q15(i16::MIN);
    /// One half (`0.5`), the largest "round" constant representable exactly.
    pub const HALF: Q15 = Q15(1 << 14);

    /// Creates a value from its raw two's-complement bit pattern.
    #[inline]
    pub const fn from_raw(raw: i16) -> Self {
        Q15(raw)
    }

    /// Returns the raw two's-complement bit pattern.
    #[inline]
    pub const fn raw(self) -> i16 {
        self.0
    }

    /// Converts from `f32`, rounding to nearest and saturating to the
    /// representable range.
    ///
    /// `NaN` maps to zero, mirroring how quantizers treat missing data.
    #[inline]
    pub fn from_f32(v: f32) -> Self {
        if v.is_nan() {
            return Q15::ZERO;
        }
        let scaled = (v * SCALE as f32).round();
        if scaled >= i16::MAX as f32 {
            Q15::MAX
        } else if scaled <= i16::MIN as f32 {
            Q15::MIN
        } else {
            Q15(scaled as i16)
        }
    }

    /// Converts to the nearest `f32`.
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / SCALE as f32
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Q15) -> Q15 {
        Q15(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Q15) -> Q15 {
        Q15(self.0.saturating_sub(rhs.0))
    }

    /// Fixed-point multiply with round-to-nearest and saturation.
    ///
    /// Computes `(a*b + 2^14) >> 15` in 32-bit, then saturates to 16 bits.
    /// The only case requiring saturation is `MIN * MIN` (i.e. `-1 * -1`),
    /// which would yield `+1.0`, one ULP above [`Q15::MAX`].
    #[inline]
    pub fn saturating_mul(self, rhs: Q15) -> Q15 {
        let wide = self.0 as i32 * rhs.0 as i32;
        let rounded = (wide + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
        if rounded > i16::MAX as i32 {
            Q15::MAX
        } else if rounded < i16::MIN as i32 {
            Q15::MIN
        } else {
            Q15(rounded as i16)
        }
    }

    /// Saturating arithmetic left shift.
    ///
    /// LEA lacks a vector left-shift, so TAILS performs these in software;
    /// the operation is still defined here because the *software* fallback
    /// needs well-specified saturating semantics.
    #[inline]
    pub fn saturating_shl(self, shift: u32) -> Q15 {
        let wide = (self.0 as i32) << shift.min(30);
        if wide > i16::MAX as i32 {
            Q15::MAX
        } else if wide < i16::MIN as i32 {
            Q15::MIN
        } else {
            Q15(wide as i16)
        }
    }

    /// Arithmetic right shift (exact on the raw representation).
    // Not `impl Shr`: the operator would invite `q >> n` on a type whose
    // shift semantics (clamped to 15) differ from the integer operator's.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn shr(self, shift: u32) -> Q15 {
        Q15(self.0 >> shift.min(15))
    }

    /// Rectified-linear activation: `max(self, 0)`.
    #[inline]
    pub fn relu(self) -> Q15 {
        if self.0 < 0 {
            Q15::ZERO
        } else {
            self
        }
    }

    /// Returns `true` when the value is exactly zero.
    ///
    /// Sparse kernels use this to skip pruned weights.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Q15 {
    type Output = Q15;
    #[inline]
    fn add(self, rhs: Q15) -> Q15 {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Q15 {
    #[inline]
    fn add_assign(&mut self, rhs: Q15) {
        *self = *self + rhs;
    }
}

impl Sub for Q15 {
    type Output = Q15;
    #[inline]
    fn sub(self, rhs: Q15) -> Q15 {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Q15 {
    #[inline]
    fn sub_assign(&mut self, rhs: Q15) {
        *self = *self - rhs;
    }
}

impl Mul for Q15 {
    type Output = Q15;
    #[inline]
    fn mul(self, rhs: Q15) -> Q15 {
        self.saturating_mul(rhs)
    }
}

impl Neg for Q15 {
    type Output = Q15;
    #[inline]
    fn neg(self) -> Q15 {
        Q15(self.0.checked_neg().unwrap_or(i16::MAX))
    }
}

impl fmt::Debug for Q15 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q15({})", self.to_f32())
    }
}

impl fmt::Display for Q15 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<Q15> for f32 {
    #[inline]
    fn from(q: Q15) -> f32 {
        q.to_f32()
    }
}

/// A wide multiply-accumulate register (Q33.30 internally).
///
/// Dot products accumulate full-precision products (`i16 × i16` without the
/// rounding shift) and convert back to [`Q15`] once, exactly as the MSP430
/// hardware multiplier's `MACS` chain and LEA's FIR/MAC commands behave.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Accum(i64);

impl Accum {
    /// The zero accumulator.
    pub const ZERO: Accum = Accum(0);

    /// Creates an accumulator holding `q` (widened without rounding).
    #[inline]
    pub fn from_q15(q: Q15) -> Self {
        Accum((q.raw() as i64) << FRAC_BITS)
    }

    /// Creates an accumulator from a raw Q33.30 value.
    #[inline]
    pub const fn from_raw(raw: i64) -> Self {
        Accum(raw)
    }

    /// Returns the raw Q33.30 contents.
    #[inline]
    pub const fn raw(self) -> i64 {
        self.0
    }

    /// Multiply-accumulate: `self += a * b` at full product precision.
    #[inline]
    pub fn mac(&mut self, a: Q15, b: Q15) {
        self.0 += a.raw() as i64 * b.raw() as i64;
    }

    /// Adds another accumulator, saturating at the i64 extremes.
    #[inline]
    pub fn add(&mut self, other: Accum) {
        self.0 = self.0.saturating_add(other.0);
    }

    /// Converts back to [`Q15`] with round-to-nearest and saturation.
    #[inline]
    pub fn to_q15(self) -> Q15 {
        let rounded = (self.0 + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
        if rounded > i16::MAX as i64 {
            Q15::MAX
        } else if rounded < i16::MIN as i64 {
            Q15::MIN
        } else {
            Q15::from_raw(rounded as i16)
        }
    }

    /// Converts to `f32` (for diagnostics and accuracy checks).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / (SCALE as f32 * SCALE as f32)
    }
}

impl fmt::Debug for Accum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Accum({})", self.to_f32())
    }
}

pub mod vecops {
    //! Slice-level fixed-point helpers shared by software kernels and the
    //! LEA device model.

    use super::{Accum, Q15};

    /// Quantizes an `f32` slice into a freshly allocated `Q15` vector.
    ///
    /// # Example
    ///
    /// ```
    /// let q = fxp::vecops::quantize(&[0.0, 0.5, -1.0]);
    /// assert_eq!(q[1], fxp::Q15::HALF);
    /// ```
    pub fn quantize(src: &[f32]) -> Vec<Q15> {
        src.iter().copied().map(Q15::from_f32).collect()
    }

    /// Dot product of two equal-length slices at accumulator precision.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot(a: &[Q15], b: &[Q15]) -> Accum {
        assert_eq!(a.len(), b.len(), "dot: length mismatch");
        let mut acc = Accum::ZERO;
        for (&x, &y) in a.iter().zip(b.iter()) {
            acc.mac(x, y);
        }
        acc
    }

    /// Finite-impulse-response discrete-time convolution (LEA "FIR DTC").
    ///
    /// Computes `out[i] = sum_j src[i + j] * taps[j]` for
    /// `i in 0..src.len() - taps.len() + 1`, i.e. a *valid* 1-D correlation,
    /// which is exactly the primitive LEA exposes and that TAILS composes
    /// into 2-D/3-D convolutions.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty or longer than `src`.
    pub fn fir(src: &[Q15], taps: &[Q15]) -> Vec<Q15> {
        assert!(!taps.is_empty(), "fir: empty taps");
        assert!(taps.len() <= src.len(), "fir: taps longer than input");
        src.windows(taps.len())
            .map(|window| {
                let mut acc = Accum::ZERO;
                for (&s, &t) in window.iter().zip(taps) {
                    acc.mac(s, t);
                }
                acc.to_q15()
            })
            .collect()
    }

    /// Shifted-row multiply-accumulate: `acc[i] += src[i] * tap`.
    ///
    /// The sparse-convolution primitive: one call per nonzero tap streams a
    /// contiguous input row into the output row's accumulators.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than `acc`.
    pub fn mac_acc(acc: &mut [Accum], src: &[Q15], tap: Q15) {
        assert!(src.len() >= acc.len(), "mac_acc: src shorter than acc");
        for (a, &s) in acc.iter_mut().zip(src.iter()) {
            a.mac(s, tap);
        }
    }

    /// Returns the index of the maximum element (ties go to the lowest
    /// index), or `None` for an empty slice. Classification kernels use this
    /// instead of softmax on-device.
    pub fn argmax(src: &[Q15]) -> Option<usize> {
        src.iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::vecops;
    use super::*;

    #[test]
    fn from_f32_rounds_and_saturates() {
        assert_eq!(Q15::from_f32(0.0), Q15::ZERO);
        assert_eq!(Q15::from_f32(0.5), Q15::HALF);
        assert_eq!(Q15::from_f32(1.0), Q15::MAX);
        assert_eq!(Q15::from_f32(-1.0), Q15::MIN);
        assert_eq!(Q15::from_f32(2.5), Q15::MAX);
        assert_eq!(Q15::from_f32(-7.0), Q15::MIN);
        assert_eq!(Q15::from_f32(f32::NAN), Q15::ZERO);
    }

    #[test]
    fn roundtrip_error_is_within_half_ulp() {
        for i in -100..=100 {
            let v = i as f32 / 100.0 * 0.999;
            let q = Q15::from_f32(v);
            assert!((q.to_f32() - v).abs() <= 0.5 / SCALE as f32 + f32::EPSILON);
        }
    }

    #[test]
    fn mul_matches_float_for_small_values() {
        let a = Q15::from_f32(0.25);
        let b = Q15::from_f32(0.5);
        assert_eq!((a * b).to_f32(), 0.125);
        let c = Q15::from_f32(-0.5);
        assert_eq!((a * c).to_f32(), -0.125);
    }

    #[test]
    fn mul_min_min_saturates() {
        assert_eq!(Q15::MIN * Q15::MIN, Q15::MAX);
    }

    #[test]
    fn add_saturates_at_extremes() {
        assert_eq!(Q15::MAX + Q15::MAX, Q15::MAX);
        assert_eq!(Q15::MIN + Q15::MIN, Q15::MIN);
        assert_eq!(Q15::MAX + Q15::MIN, Q15::from_raw(-1));
    }

    #[test]
    fn neg_of_min_saturates() {
        assert_eq!(-Q15::MIN, Q15::MAX);
    }

    #[test]
    fn shl_saturates() {
        let v = Q15::from_f32(0.75);
        assert_eq!(v.saturating_shl(1), Q15::MAX);
        let w = Q15::from_f32(0.25);
        assert_eq!(w.saturating_shl(1).to_f32(), 0.5);
        assert_eq!(Q15::from_f32(-0.75).saturating_shl(2), Q15::MIN);
    }

    #[test]
    fn shr_is_exact() {
        assert_eq!(Q15::HALF.shr(1).to_f32(), 0.25);
        assert_eq!(Q15::from_raw(-4).shr(1), Q15::from_raw(-2));
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Q15::from_f32(-0.3).relu(), Q15::ZERO);
        assert_eq!(Q15::from_f32(0.3).relu(), Q15::from_f32(0.3));
        assert_eq!(Q15::ZERO.relu(), Q15::ZERO);
    }

    #[test]
    fn accum_defers_rounding() {
        // 0.1 * 0.1 summed 10 times: accumulating at full precision then
        // rounding once is at least as accurate as rounding each product.
        let a = Q15::from_f32(0.1);
        let mut acc = Accum::ZERO;
        let mut naive = Q15::ZERO;
        for _ in 0..10 {
            acc.mac(a, a);
            naive += a * a;
        }
        let exact = 10.0 * a.to_f32() * a.to_f32();
        assert!((acc.to_q15().to_f32() - exact).abs() <= (naive.to_f32() - exact).abs());
    }

    #[test]
    fn accum_roundtrip() {
        let q = Q15::from_f32(0.7);
        assert_eq!(Accum::from_q15(q).to_q15(), q);
    }

    #[test]
    fn accum_saturates_on_conversion() {
        let mut acc = Accum::ZERO;
        for _ in 0..5 {
            acc.mac(Q15::MAX, Q15::MAX);
        }
        assert_eq!(acc.to_q15(), Q15::MAX);
        let mut neg = Accum::ZERO;
        for _ in 0..5 {
            neg.mac(Q15::MAX, Q15::MIN);
        }
        assert_eq!(neg.to_q15(), Q15::MIN);
    }

    #[test]
    fn dot_matches_manual_loop() {
        let a = vecops::quantize(&[0.1, -0.2, 0.3]);
        let b = vecops::quantize(&[0.5, 0.5, 0.5]);
        let d = vecops::dot(&a, &b).to_q15().to_f32();
        assert!((d - 0.1).abs() < 1e-3);
    }

    #[test]
    fn fir_valid_correlation() {
        let src = vecops::quantize(&[0.1, 0.2, 0.3, 0.4]);
        let taps = vecops::quantize(&[0.5, 0.25]);
        let out = vecops::fir(&src, &taps);
        assert_eq!(out.len(), 3);
        assert!((out[0].to_f32() - (0.1 * 0.5 + 0.2 * 0.25)).abs() < 1e-3);
        assert!((out[2].to_f32() - (0.3 * 0.5 + 0.4 * 0.25)).abs() < 1e-3);
    }

    #[test]
    fn mac_acc_streams_one_tap() {
        let src = vecops::quantize(&[0.5, -0.5, 0.25]);
        let tap = Q15::from_f32(0.5);
        let mut acc = [Accum::ZERO; 3];
        vecops::mac_acc(&mut acc, &src, tap);
        assert!((acc[0].to_f32() - 0.25).abs() < 1e-3);
        assert!((acc[1].to_f32() + 0.25).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "fir: taps longer than input")]
    fn fir_rejects_long_taps() {
        let src = vecops::quantize(&[0.1]);
        let taps = vecops::quantize(&[0.5, 0.25]);
        let _ = vecops::fir(&src, &taps);
    }

    #[test]
    fn argmax_prefers_lowest_index_on_tie() {
        let v = vecops::quantize(&[0.5, 0.5, 0.2]);
        assert_eq!(vecops::argmax(&v), Some(0));
        assert_eq!(vecops::argmax(&[]), None);
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        assert!(!format!("{}", Q15::HALF).is_empty());
        assert!(!format!("{:?}", Q15::HALF).is_empty());
        assert!(!format!("{:?}", Accum::ZERO).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::vecops;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn from_raw_roundtrips(raw in any::<i16>()) {
            prop_assert_eq!(Q15::from_raw(raw).raw(), raw);
        }

        #[test]
        fn quantization_error_bounded(v in -1.0f32..0.9999f32) {
            let q = Q15::from_f32(v);
            prop_assert!((q.to_f32() - v).abs() <= 1.0 / SCALE as f32);
        }

        #[test]
        fn add_is_commutative(a in any::<i16>(), b in any::<i16>()) {
            let (qa, qb) = (Q15::from_raw(a), Q15::from_raw(b));
            prop_assert_eq!(qa + qb, qb + qa);
        }

        #[test]
        fn mul_is_commutative(a in any::<i16>(), b in any::<i16>()) {
            let (qa, qb) = (Q15::from_raw(a), Q15::from_raw(b));
            prop_assert_eq!(qa * qb, qb * qa);
        }

        #[test]
        fn mul_never_exceeds_range(a in any::<i16>(), b in any::<i16>()) {
            let p = Q15::from_raw(a) * Q15::from_raw(b);
            prop_assert!(p >= Q15::MIN && p <= Q15::MAX);
        }

        #[test]
        fn mul_close_to_float(a in -0.99f32..0.99, b in -0.99f32..0.99) {
            let p = (Q15::from_f32(a) * Q15::from_f32(b)).to_f32();
            prop_assert!((p - a * b).abs() < 3.0 / SCALE as f32);
        }

        #[test]
        fn accum_dot_matches_f64_reference(
            xs in prop::collection::vec(-0.5f32..0.5, 1..64),
            ys in prop::collection::vec(-0.5f32..0.5, 1..64),
        ) {
            let n = xs.len().min(ys.len());
            let a = vecops::quantize(&xs[..n]);
            let b = vecops::quantize(&ys[..n]);
            let got = vecops::dot(&a, &b).to_f32() as f64;
            let want: f64 = a.iter().zip(&b)
                .map(|(x, y)| x.to_f32() as f64 * y.to_f32() as f64)
                .sum();
            prop_assert!((got - want).abs() < 1e-4);
        }

        #[test]
        fn relu_is_idempotent(a in any::<i16>()) {
            let q = Q15::from_raw(a);
            prop_assert_eq!(q.relu(), q.relu().relu());
            prop_assert!(q.relu() >= Q15::ZERO);
        }

        #[test]
        fn fir_length_invariant(
            src in prop::collection::vec(any::<i16>(), 4..64),
            tap_len in 1usize..4,
        ) {
            let src: Vec<Q15> = src.into_iter().map(Q15::from_raw).collect();
            let taps = vec![Q15::HALF; tap_len];
            let out = vecops::fir(&src, &taps);
            prop_assert_eq!(out.len(), src.len() - tap_len + 1);
        }
    }
}
