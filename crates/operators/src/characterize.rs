//! Operator error characterisation.
//!
//! Computes an [`ErrorProfile`] for any adder or multiplier model:
//! exhaustively over the full input square for 8-bit operators (65 536
//! pairs), or with a seeded xorshift Monte-Carlo sweep for wider operators,
//! matching the methodology used to characterise EvoApproxLib circuits.

use crate::adders::AdderModel;
use crate::metrics::ErrorStats;
use crate::multipliers::MulModel;
use crate::width::BitWidth;

/// How to sweep the operator's input space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CharacterizeMode {
    /// Evaluate every input pair. Only tractable at 8 bits.
    Exhaustive,
    /// Evaluate `samples` uniformly random input pairs from the given seed.
    MonteCarlo {
        /// Number of random input pairs.
        samples: u64,
        /// Deterministic seed for the sweep.
        seed: u64,
    },
}

impl CharacterizeMode {
    /// The conventional mode for a width: exhaustive at 8 bits, two million
    /// seeded samples otherwise.
    pub fn auto(width: BitWidth) -> Self {
        match width {
            BitWidth::W8 => CharacterizeMode::Exhaustive,
            _ => CharacterizeMode::MonteCarlo {
                samples: 2_000_000,
                seed: 0xA11CE,
            },
        }
    }
}

/// Aggregated error metrics of one operator over a characterisation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorProfile {
    /// Mean relative error distance, percent.
    pub mred_pct: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Mean squared error.
    pub mse: f64,
    /// Fraction of inputs with any error.
    pub error_rate: f64,
    /// Worst-case absolute error.
    pub wce: u64,
    /// Worst-case relative error distance (fraction).
    pub wcre: f64,
    /// Number of evaluated input pairs.
    pub samples: u64,
}

impl From<&ErrorStats> for ErrorProfile {
    fn from(stats: &ErrorStats) -> Self {
        Self {
            mred_pct: stats.mred_pct(),
            mae: stats.mae(),
            mse: stats.mse(),
            error_rate: stats.error_rate(),
            wce: stats.wce(),
            wcre: stats.wcre(),
            samples: stats.samples(),
        }
    }
}

/// Minimal xorshift64* generator so characterisation is dependency-free and
/// bit-for-bit reproducible across platforms.
#[derive(Debug, Clone)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        Self { state: seed.max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn sweep(width: BitWidth, mode: CharacterizeMode, mut f: impl FnMut(u64, u64)) {
    match mode {
        CharacterizeMode::Exhaustive => {
            let max = width.max_value();
            assert!(
                width == BitWidth::W8,
                "exhaustive characterisation is only tractable at 8 bits"
            );
            for a in 0..=max {
                for b in 0..=max {
                    f(a, b);
                }
            }
        }
        CharacterizeMode::MonteCarlo { samples, seed } => {
            let mut rng = XorShift64::new(seed);
            let mask = width.mask();
            for _ in 0..samples {
                let a = rng.next_u64() & mask;
                let b = rng.next_u64() & mask;
                f(a, b);
            }
        }
    }
}

/// Characterises an adder model against the exact sum.
///
/// ```
/// use ax_operators::{characterize_adder, AdderKind, AdderModel, BitWidth, CharacterizeMode};
///
/// let adder = AdderModel::new(AdderKind::Loa { approx_bits: 4 }, BitWidth::W8);
/// let profile = characterize_adder(&adder, CharacterizeMode::Exhaustive);
/// assert!(profile.mred_pct > 0.0);
/// assert_eq!(profile.samples, 65_536);
/// ```
pub fn characterize_adder(adder: &AdderModel, mode: CharacterizeMode) -> ErrorProfile {
    let mut stats = ErrorStats::new();
    sweep(adder.width(), mode, |a, b| {
        stats.record(a + b, adder.add(a, b));
    });
    ErrorProfile::from(&stats)
}

/// Characterises a multiplier model against the exact product.
pub fn characterize_multiplier(mul: &MulModel, mode: CharacterizeMode) -> ErrorProfile {
    let mut stats = ErrorStats::new();
    sweep(mul.width(), mode, |a, b| {
        stats.record(a.wrapping_mul(b), mul.mul(a, b));
    });
    ErrorProfile::from(&stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adders::AdderKind;
    use crate::multipliers::MulKind;

    #[test]
    fn precise_operators_have_zero_profile() {
        let a = characterize_adder(
            &AdderModel::precise(BitWidth::W8),
            CharacterizeMode::Exhaustive,
        );
        assert_eq!(a.mred_pct, 0.0);
        assert_eq!(a.error_rate, 0.0);
        assert_eq!(a.wce, 0);
        assert_eq!(a.samples, 65_536);

        let m = characterize_multiplier(
            &MulModel::precise(BitWidth::W16),
            CharacterizeMode::MonteCarlo {
                samples: 10_000,
                seed: 7,
            },
        );
        assert_eq!(m.mred_pct, 0.0);
        assert_eq!(m.samples, 10_000);
    }

    #[test]
    fn monte_carlo_is_deterministic() {
        let adder = AdderModel::new(AdderKind::Loa { approx_bits: 3 }, BitWidth::W16);
        let mode = CharacterizeMode::MonteCarlo {
            samples: 50_000,
            seed: 42,
        };
        let p1 = characterize_adder(&adder, mode);
        let p2 = characterize_adder(&adder, mode);
        assert_eq!(p1, p2);
    }

    #[test]
    fn different_seeds_differ() {
        let adder = AdderModel::new(AdderKind::Loa { approx_bits: 3 }, BitWidth::W16);
        let p1 = characterize_adder(
            &adder,
            CharacterizeMode::MonteCarlo {
                samples: 50_000,
                seed: 1,
            },
        );
        let p2 = characterize_adder(
            &adder,
            CharacterizeMode::MonteCarlo {
                samples: 50_000,
                seed: 2,
            },
        );
        assert_ne!(p1, p2);
    }

    #[test]
    fn mitchell_mred_is_near_published_3_85_percent() {
        let m = MulModel::new(MulKind::Mitchell, BitWidth::W8);
        let p = characterize_multiplier(&m, CharacterizeMode::Exhaustive);
        assert!(
            (p.mred_pct - 3.85).abs() < 1.0,
            "Mitchell MRED {} should be near 3.85%",
            p.mred_pct
        );
    }

    #[test]
    #[should_panic(expected = "tractable")]
    fn exhaustive_rejected_at_16_bits() {
        characterize_adder(
            &AdderModel::precise(BitWidth::W16),
            CharacterizeMode::Exhaustive,
        );
    }

    #[test]
    fn auto_mode_picks_exhaustive_only_for_w8() {
        assert_eq!(
            CharacterizeMode::auto(BitWidth::W8),
            CharacterizeMode::Exhaustive
        );
        assert!(matches!(
            CharacterizeMode::auto(BitWidth::W32),
            CharacterizeMode::MonteCarlo { .. }
        ));
    }
}
