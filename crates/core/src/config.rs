//! The design point: an approximate configuration.

use ax_operators::{AdderId, MulId};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// One point of the design space: which adder, which multiplier, and which
/// variables are approximated (a bit per approximable variable, the paper's
/// `variables_approx` boolean vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AxConfig {
    /// Selected adder (index into the width class, increasing MRED).
    pub adder: AdderId,
    /// Selected multiplier (index into the width class, increasing MRED).
    pub mul: MulId,
    /// Variable-selection bits (bit `i` = `i`-th approximable variable).
    pub vars: u64,
}

/// Dimensions of a configuration space: number of adders, multipliers and
/// approximable variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceDims {
    /// Adders in the applicable width class.
    pub n_add: usize,
    /// Multipliers in the applicable width class.
    pub n_mul: usize,
    /// Approximable variables of the benchmark.
    pub n_vars: u32,
}

impl SpaceDims {
    /// The most designs a space may hold. Every design then has an ordinal
    /// below `u16::MAX` ([`SpaceDims::ordinal`]), which the Q-table and an
    /// evaluator's local memo index directly. It is 16× the largest space a
    /// campaign spec can reach (Sobel on `evoapprox-extended`,
    /// 8 × 8 × 2^6 = 4,096 designs); `EvalContext` rejects larger spaces.
    pub const MAX_DESIGNS: usize = 65_535;

    /// Total number of configurations (`n_add · n_mul · 2^n_vars`).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `n_vars` is 128 or more.
    pub fn cardinality(&self) -> u128 {
        (self.n_add as u128) * (self.n_mul as u128) * (1u128 << self.n_vars)
    }

    /// `true` if the space holds at most [`SpaceDims::MAX_DESIGNS`]
    /// designs.
    pub fn within_design_cap(&self) -> bool {
        // 2^17 designs exceed the cap whatever the operator counts.
        self.n_vars <= 16 && self.cardinality() <= Self::MAX_DESIGNS as u128
    }

    /// The dense index of a design of this space,
    /// `((adder · n_mul + mul) << n_vars) | vars`: adder-major, like
    /// [`AxConfig::enumerate`], and below [`SpaceDims::cardinality`].
    ///
    /// Meaningful only for a valid design ([`AxConfig::is_valid`]) of a
    /// space [within the cap](SpaceDims::within_design_cap).
    pub fn ordinal(&self, config: &AxConfig) -> usize {
        ((config.adder.0 * self.n_mul + config.mul.0) << self.n_vars) | config.vars as usize
    }

    /// Number of environment actions (`n_add + n_mul + n_vars`).
    pub fn action_count(&self) -> usize {
        self.n_add + self.n_mul + self.n_vars as usize
    }

    fn var_mask(&self) -> u64 {
        if self.n_vars == 64 {
            u64::MAX
        } else {
            (1u64 << self.n_vars) - 1
        }
    }
}

impl AxConfig {
    /// The fully precise configuration (exact operators, nothing selected).
    pub fn precise() -> Self {
        Self {
            adder: AdderId(0),
            mul: MulId(0),
            vars: 0,
        }
    }

    /// `true` if this is the paper's terminal configuration: the most
    /// approximated adder and multiplier with every variable selected.
    pub fn is_fully_approximate(&self, dims: SpaceDims) -> bool {
        self.adder.0 == dims.n_add - 1
            && self.mul.0 == dims.n_mul - 1
            && self.vars == dims.var_mask()
    }

    /// Number of selected variables.
    pub fn selected_vars(&self) -> u32 {
        self.vars.count_ones()
    }

    /// `true` if the configuration lies within the space dimensions.
    pub fn is_valid(&self, dims: SpaceDims) -> bool {
        self.adder.0 < dims.n_add && self.mul.0 < dims.n_mul && self.vars & !dims.var_mask() == 0
    }

    /// A uniformly random configuration.
    pub fn random(dims: SpaceDims, rng: &mut StdRng) -> Self {
        Self {
            adder: AdderId(rng.gen_range(0..dims.n_add)),
            mul: MulId(rng.gen_range(0..dims.n_mul)),
            vars: rng.gen::<u64>() & dims.var_mask(),
        }
    }

    /// A single-mutation neighbour: change the adder, change the multiplier,
    /// or toggle one variable — the environment's action granularity.
    pub fn neighbor(&self, dims: SpaceDims, rng: &mut StdRng) -> Self {
        let mut next = *self;
        match rng.gen_range(0..3) {
            0 if dims.n_add > 1 => {
                let mut a = rng.gen_range(0..dims.n_add);
                if a == self.adder.0 {
                    a = (a + 1) % dims.n_add;
                }
                next.adder = AdderId(a);
            }
            1 if dims.n_mul > 1 => {
                let mut m = rng.gen_range(0..dims.n_mul);
                if m == self.mul.0 {
                    m = (m + 1) % dims.n_mul;
                }
                next.mul = MulId(m);
            }
            _ if dims.n_vars > 0 => {
                next.vars ^= 1 << rng.gen_range(0..dims.n_vars);
            }
            _ => {}
        }
        next
    }

    /// Uniform crossover of two configurations (for the genetic baseline).
    pub fn crossover(&self, other: &Self, dims: SpaceDims, rng: &mut StdRng) -> Self {
        let mix: u64 = rng.gen::<u64>() & dims.var_mask();
        Self {
            adder: if rng.gen() { self.adder } else { other.adder },
            mul: if rng.gen() { self.mul } else { other.mul },
            vars: (self.vars & mix) | (other.vars & !mix),
        }
    }

    /// Every configuration of the space, adder-major. Use only for small
    /// spaces (exhaustive ablations).
    ///
    /// # Panics
    ///
    /// Panics if the space has more than 2^20 configurations.
    pub fn enumerate(dims: SpaceDims) -> Vec<AxConfig> {
        assert!(
            dims.cardinality() <= 1 << 20,
            "space too large to enumerate"
        );
        let mut all = Vec::with_capacity(dims.cardinality() as usize);
        for a in 0..dims.n_add {
            for m in 0..dims.n_mul {
                for bits in 0..(1u64 << dims.n_vars) {
                    all.push(AxConfig {
                        adder: AdderId(a),
                        mul: MulId(m),
                        vars: bits,
                    });
                }
            }
        }
        all
    }
}

impl fmt::Display for AxConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(adder {}, mul {}, vars {:b})",
            self.adder, self.mul, self.vars
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const DIMS: SpaceDims = SpaceDims {
        n_add: 6,
        n_mul: 6,
        n_vars: 4,
    };

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn cardinality_and_actions() {
        assert_eq!(DIMS.cardinality(), 6 * 6 * 16);
        assert_eq!(DIMS.action_count(), 16);
    }

    #[test]
    fn precise_config_properties() {
        let c = AxConfig::precise();
        assert_eq!(c.selected_vars(), 0);
        assert!(c.is_valid(DIMS));
        assert!(!c.is_fully_approximate(DIMS));
    }

    #[test]
    fn fully_approximate_detection() {
        let c = AxConfig {
            adder: AdderId(5),
            mul: MulId(5),
            vars: 0b1111,
        };
        assert!(c.is_fully_approximate(DIMS));
        let c2 = AxConfig {
            adder: AdderId(5),
            mul: MulId(5),
            vars: 0b0111,
        };
        assert!(!c2.is_fully_approximate(DIMS));
    }

    #[test]
    fn random_configs_are_valid() {
        let mut r = rng();
        for _ in 0..200 {
            assert!(AxConfig::random(DIMS, &mut r).is_valid(DIMS));
        }
    }

    #[test]
    fn neighbor_changes_exactly_one_axis() {
        let mut r = rng();
        let c = AxConfig {
            adder: AdderId(2),
            mul: MulId(3),
            vars: 0b0101,
        };
        for _ in 0..200 {
            let n = c.neighbor(DIMS, &mut r);
            assert!(n.is_valid(DIMS));
            let changed = [n.adder != c.adder, n.mul != c.mul, n.vars != c.vars]
                .iter()
                .filter(|&&x| x)
                .count();
            assert_eq!(changed, 1, "{c} -> {n}");
            if n.vars != c.vars {
                assert_eq!((n.vars ^ c.vars).count_ones(), 1);
            }
        }
    }

    #[test]
    fn crossover_mixes_parents() {
        let mut r = rng();
        let a = AxConfig {
            adder: AdderId(0),
            mul: MulId(0),
            vars: 0b0000,
        };
        let b = AxConfig {
            adder: AdderId(5),
            mul: MulId(5),
            vars: 0b1111,
        };
        for _ in 0..100 {
            let c = a.crossover(&b, DIMS, &mut r);
            assert!(c.is_valid(DIMS));
            assert!(c.adder == a.adder || c.adder == b.adder);
            assert!(c.mul == a.mul || c.mul == b.mul);
        }
    }

    #[test]
    fn enumerate_covers_space_without_duplicates() {
        let all = AxConfig::enumerate(DIMS);
        assert_eq!(all.len(), 576);
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 576);
        assert!(all.iter().all(|c| c.is_valid(DIMS)));
    }

    #[test]
    fn ordinals_number_the_enumeration() {
        for (i, c) in AxConfig::enumerate(DIMS).iter().enumerate() {
            assert_eq!(DIMS.ordinal(c), i, "{c}");
        }
    }

    #[test]
    fn design_cap_counts_designs_not_variables() {
        let dims = |n_add, n_mul, n_vars| SpaceDims {
            n_add,
            n_mul,
            n_vars,
        };
        assert!(dims(6, 6, 10).within_design_cap()); // 36,864
        assert!(!dims(6, 6, 11).within_design_cap()); // 73,728
        assert!(dims(1, 1, 15).within_design_cap());
        assert!(!dims(1, 1, 16).within_design_cap()); // 65,536
        assert!(!dims(1, 1, 64).within_design_cap());
        assert!(!dims(2, 2, 200).within_design_cap());
    }
}
