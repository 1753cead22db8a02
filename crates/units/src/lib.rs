//! Zero-cost dimensional newtypes for the INCA cost models.
//!
//! Every headline number the reproduction emits (Fig 6 energy splits,
//! `SERVE_report.json` rps/mm², mJ/request) flows through hand-written
//! floating-point arithmetic whose unit conventions used to live only in
//! identifier suffixes (`read_energy_per_beat_j`, `latency_s`).
//! This crate turns those conventions into types, so a pJ-vs-nJ or
//! ns-vs-cycles mix-up becomes a compile error instead of a silently
//! miscalibrated figure:
//!
//! * [`Energy`] (joules), [`Time`] (seconds), [`Power`] (watts),
//!   [`Area`] (mm²), [`Frequency`] (hertz),
//! * density types [`PowerDensity`] (W/mm²) and [`EnergyDensity`]
//!   (J/mm²) produced by the `/ Area` quotients,
//! * explicit rate types [`EnergyPerBit`] and [`EnergyPerBeat`] for
//!   per-transfer costs, which multiply with bare counts back into
//!   [`Energy`],
//! * [`Bandwidth`] (bits/s) for the `inca-net` link model, whose
//!   [`Bandwidth::transfer_time`] quotient yields the serialization
//!   [`Time`] of a sized packet.
//!
//! The arithmetic is dimension-checked: `Energy / Time → Power`,
//! `Power × Time → Energy`, `Energy / Area → EnergyDensity`, and the
//! quotient of two like quantities is a bare ratio (`f64`). The only
//! escape hatch back to `f64` is a named accessor (`.joules()`,
//! `.seconds()`, …) so the unit is visible at the call site.
//!
//! Every wrapper is `#[repr(transparent)]` over `f64` and every method
//! is a trivial inline — the refactor that introduced this crate left
//! `SERVE_report.json` byte-identical, because constructors and
//! accessors preserve the exact original expressions bit for bit.
//!
//! # Examples
//!
//! ```
//! use inca_units::{Energy, Power, Time};
//!
//! let leakage = Power::from_watts(5e-6);
//! let span = Time::from_seconds(2e-3);
//! let e: Energy = leakage * span;
//! assert_eq!(e.joules(), 1e-8);
//! assert_eq!((e / span).watts(), 5e-6);
//! ```

#![warn(missing_docs)]

use serde::{Deserialize, Serialize, Value};

macro_rules! scalar_unit {
    (
        $(#[$meta:meta])*
        $name:ident, $ctor:ident, $get:ident, $unit_doc:literal
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        #[repr(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            #[doc = concat!("Wraps a raw value expressed in ", $unit_doc, ".")]
            #[must_use]
            pub const fn $ctor(raw: f64) -> Self {
                Self(raw)
            }

            #[doc = concat!("The value in ", $unit_doc, " — the named `f64` escape hatch.")]
            #[must_use]
            pub const fn $get(&self) -> f64 {
                self.0
            }

            /// The larger of the two quantities.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// The smaller of the two quantities.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Whether the value is finite (not NaN or infinite).
            #[must_use]
            pub fn is_finite(&self) -> bool {
                self.0.is_finite()
            }
        }

        impl std::ops::Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl std::ops::Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl std::ops::Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl std::ops::SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        /// The ratio of two like quantities is dimensionless.
        impl std::ops::Div<$name> for $name {
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }

        impl<'a> std::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }

        /// Formats as the bare number (canonical unit), exactly like the
        /// `f64` it wraps.
        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                std::fmt::Display::fmt(&self.0, f)
            }
        }

        /// Scientific-notation formatting, exactly like the wrapped `f64`.
        impl std::fmt::LowerExp for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                std::fmt::LowerExp::fmt(&self.0, f)
            }
        }

        /// Serializes as the bare number, so derived report structs keep
        /// their existing JSON keys and values bit-identical.
        impl Serialize for $name {
            fn to_content(&self) -> Value {
                self.0.to_content()
            }
        }

        impl Deserialize for $name {}
    };
}

/// Dimensionless scaling by a bare `f64` factor. Applied to the plain
/// quantities but *not* to the rate types, whose `* f64` means "times a
/// transfer count" and yields [`Energy`].
macro_rules! scalar_scaling {
    ($($name:ident),*) => {$(
        /// Scaling by a dimensionless factor.
        impl std::ops::Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        /// Scaling by a dimensionless factor (factor on the left).
        impl std::ops::Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        /// Division by a dimensionless factor.
        impl std::ops::Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        /// In-place scaling by a dimensionless factor.
        impl std::ops::MulAssign<f64> for $name {
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        /// In-place division by a dimensionless factor.
        impl std::ops::DivAssign<f64> for $name {
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }
    )*};
}

scalar_unit!(
    /// An amount of energy, stored in joules.
    Energy,
    from_joules,
    joules,
    "joules"
);

scalar_unit!(
    /// A duration, stored in seconds.
    Time,
    from_seconds,
    seconds,
    "seconds"
);

scalar_unit!(
    /// A power draw, stored in watts.
    Power,
    from_watts,
    watts,
    "watts"
);

scalar_unit!(
    /// A silicon area, stored in mm².
    Area,
    from_mm2,
    mm2,
    "mm²"
);

scalar_unit!(
    /// A rate of events, stored in hertz.
    Frequency,
    from_hz,
    hertz,
    "hertz"
);

scalar_unit!(
    /// An areal power density, stored in W/mm².
    PowerDensity,
    from_w_per_mm2,
    w_per_mm2,
    "W/mm²"
);

scalar_unit!(
    /// An areal energy density, stored in J/mm².
    EnergyDensity,
    from_j_per_mm2,
    j_per_mm2,
    "J/mm²"
);

scalar_unit!(
    /// A link bandwidth, stored in bits per second.
    ///
    /// Dividing a bare bit count by a bandwidth
    /// ([`Bandwidth::transfer_time`]) yields the serialization [`Time`],
    /// and `Bandwidth × Time` yields the bare bit count that fits in the
    /// window — the two operations `inca-net` builds its link model on.
    Bandwidth,
    from_bits_per_sec,
    bits_per_sec,
    "bits per second"
);

scalar_unit!(
    /// A per-transferred-bit energy cost, stored in J/bit.
    ///
    /// Multiplying by a bare bit count (`f64 * EnergyPerBit` or
    /// [`EnergyPerBit::for_bits`]) yields [`Energy`].
    EnergyPerBit,
    from_joules_per_bit,
    joules_per_bit,
    "joules per bit"
);

scalar_unit!(
    /// A per-bus-beat energy cost, stored in J/beat.
    ///
    /// Multiplying by a bare beat count (`f64 * EnergyPerBeat` or
    /// [`EnergyPerBeat::for_beats`]) yields [`Energy`].
    EnergyPerBeat,
    from_joules_per_beat,
    joules_per_beat,
    "joules per beat"
);

scalar_scaling!(Energy, Time, Power, Area, Frequency, PowerDensity, EnergyDensity, Bandwidth);

impl Energy {
    /// The value in millijoules.
    #[must_use]
    pub fn millijoules(&self) -> f64 {
        self.0 * 1e3
    }

    /// The value in picojoules.
    #[must_use]
    pub fn picojoules(&self) -> f64 {
        self.0 * 1e12
    }
}

impl Time {
    /// The value in nanoseconds.
    #[must_use]
    pub fn nanoseconds(&self) -> f64 {
        self.0 * 1e9
    }

    /// The repetition rate of one event per period.
    #[must_use]
    pub fn frequency(&self) -> Frequency {
        Frequency(1.0 / self.0)
    }
}

impl Frequency {
    /// The value in gigahertz.
    #[must_use]
    pub fn gigahertz(&self) -> f64 {
        self.0 / 1e9
    }

    /// The period of one cycle at this rate.
    #[must_use]
    pub fn period(&self) -> Time {
        Time(1.0 / self.0)
    }
}

impl Bandwidth {
    /// Wraps a rate expressed in gigabits per second.
    #[must_use]
    pub const fn from_gbps(gbps: f64) -> Self {
        Self(gbps * 1e9)
    }

    /// The value in gigabits per second.
    #[must_use]
    pub fn gbps(&self) -> f64 {
        self.0 / 1e9
    }

    /// Serialization time of `bits` bits onto a link at this rate.
    #[must_use]
    pub fn transfer_time(&self, bits: u64) -> Time {
        Time(bits as f64 / self.0)
    }
}

/// `Bandwidth × Time → bits` (the bare bit count that fits in the window).
impl std::ops::Mul<Time> for Bandwidth {
    type Output = f64;
    fn mul(self, rhs: Time) -> f64 {
        self.0 * rhs.0
    }
}

/// `Time × Bandwidth → bits`.
impl std::ops::Mul<Bandwidth> for Time {
    type Output = f64;
    fn mul(self, rhs: Bandwidth) -> f64 {
        self.0 * rhs.0
    }
}

impl EnergyPerBit {
    /// Energy of transferring `bits` bits at this rate.
    #[must_use]
    pub fn for_bits(&self, bits: u64) -> Energy {
        Energy(bits as f64 * self.0)
    }
}

impl EnergyPerBeat {
    /// Energy of `beats` bus beats at this rate.
    #[must_use]
    pub fn for_beats(&self, beats: u64) -> Energy {
        Energy(beats as f64 * self.0)
    }
}

/// `Power × Time → Energy`.
impl std::ops::Mul<Time> for Power {
    type Output = Energy;
    fn mul(self, rhs: Time) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

/// `Time × Power → Energy`.
impl std::ops::Mul<Power> for Time {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

/// `Energy / Time → Power`.
impl std::ops::Div<Time> for Energy {
    type Output = Power;
    fn div(self, rhs: Time) -> Power {
        Power(self.0 / rhs.0)
    }
}

/// `Energy / Power → Time`.
impl std::ops::Div<Power> for Energy {
    type Output = Time;
    fn div(self, rhs: Power) -> Time {
        Time(self.0 / rhs.0)
    }
}

/// `Energy / Area → EnergyDensity`.
impl std::ops::Div<Area> for Energy {
    type Output = EnergyDensity;
    fn div(self, rhs: Area) -> EnergyDensity {
        EnergyDensity(self.0 / rhs.0)
    }
}

/// `EnergyDensity × Area → Energy`.
impl std::ops::Mul<Area> for EnergyDensity {
    type Output = Energy;
    fn mul(self, rhs: Area) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

/// `Power / Area → PowerDensity`.
impl std::ops::Div<Area> for Power {
    type Output = PowerDensity;
    fn div(self, rhs: Area) -> PowerDensity {
        PowerDensity(self.0 / rhs.0)
    }
}

/// `PowerDensity × Area → Power`.
impl std::ops::Mul<Area> for PowerDensity {
    type Output = Power;
    fn mul(self, rhs: Area) -> Power {
        Power(self.0 * rhs.0)
    }
}

/// `Area × PowerDensity → Power`.
impl std::ops::Mul<PowerDensity> for Area {
    type Output = Power;
    fn mul(self, rhs: PowerDensity) -> Power {
        Power(self.0 * rhs.0)
    }
}

/// Bit count × per-bit rate → energy, keeping the idiomatic
/// `bits as f64 * rate` expression shape.
impl std::ops::Mul<EnergyPerBit> for f64 {
    type Output = Energy;
    fn mul(self, rhs: EnergyPerBit) -> Energy {
        Energy(self * rhs.0)
    }
}

/// Per-bit rate × bit count → energy.
impl std::ops::Mul<f64> for EnergyPerBit {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

/// Beat count × per-beat rate → energy, keeping the idiomatic
/// `beats as f64 * rate` expression shape.
impl std::ops::Mul<EnergyPerBeat> for f64 {
    type Output = Energy;
    fn mul(self, rhs: EnergyPerBeat) -> Energy {
        Energy(self * rhs.0)
    }
}

/// Per-beat rate × beat count → energy.
impl std::ops::Mul<f64> for EnergyPerBeat {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_dimension_products() {
        let p = Power::from_watts(3.0);
        let t = Time::from_seconds(4.0);
        assert_eq!((p * t).joules(), 12.0);
        assert_eq!((t * p).joules(), 12.0);
        assert_eq!((Energy::from_joules(12.0) / t).watts(), 3.0);
        assert_eq!((Energy::from_joules(12.0) / p).seconds(), 4.0);
    }

    #[test]
    fn density_quotients() {
        let a = Area::from_mm2(2.0);
        assert_eq!((Energy::from_joules(8.0) / a).j_per_mm2(), 4.0);
        assert_eq!((Power::from_watts(8.0) / a).w_per_mm2(), 4.0);
        assert_eq!((PowerDensity::from_w_per_mm2(0.5) * a).watts(), 1.0);
    }

    #[test]
    fn rate_types_multiply_with_counts() {
        let per_bit = EnergyPerBit::from_joules_per_bit(4e-12);
        assert_eq!((8.0 * per_bit).joules(), 32e-12);
        assert_eq!(per_bit.for_bits(8).joules(), 32e-12);
        let per_beat = EnergyPerBeat::from_joules_per_beat(20e-12);
        assert_eq!(per_beat.for_beats(3).joules(), 60e-12);
    }

    #[test]
    fn frequency_time_reciprocals() {
        let f = Frequency::from_hz(2.1e9);
        assert_eq!(f.period().seconds(), 1.0 / 2.1e9);
        assert_eq!(f.period().frequency().hertz(), 1.0 / (1.0 / 2.1e9));
        assert_eq!(f.gigahertz(), 2.1);
    }

    #[test]
    fn bandwidth_serialization_time() {
        let bw = Bandwidth::from_gbps(40.0);
        assert_eq!(bw.bits_per_sec(), 40e9);
        assert_eq!(bw.gbps(), 40.0);
        // 4 KB at 40 Gb/s serializes in 819.2 ns.
        assert_eq!(bw.transfer_time(4096 * 8).seconds(), 4096.0 * 8.0 / 40e9);
        // A 1 µs window at 40 Gb/s carries 40k bits.
        assert_eq!(bw * Time::from_seconds(1e-6), 40e9 * 1e-6);
    }

    #[test]
    fn constructors_and_accessors_are_bit_exact() {
        // The refactor depends on `from_joules(x).joules() == x` exactly.
        for &x in &[20e-12, 22e-12, 4e-12, 0.34, 1e-9, f64::MIN_POSITIVE] {
            assert_eq!(Energy::from_joules(x).joules().to_bits(), x.to_bits());
            assert_eq!(Time::from_seconds(x).seconds().to_bits(), x.to_bits());
        }
    }
}
