//! The pre-characterised operator library (paper Tables I and II).
//!
//! [`OperatorLibrary::evoapprox`] reproduces the paper's selection: six 8-bit
//! and six 16-bit adders, six 8-bit and six 32-bit multipliers, each carrying
//! the published MRED/power/time record ([`OperatorSpec`]) and a behavioural
//! model ([`AdderModel`]/[`MulModel`]) calibrated so its *measured* MRED
//! matches the published ordering and ballpark (see `EXPERIMENTS.md` for the
//! measured-vs-published comparison).
//!
//! Within each width class the operators are **sorted by increasing accuracy
//! degradation**, as required by the paper's environment definition, so
//! [`AdderId`]/[`MulId`] index an ordered accuracy ladder.

use crate::adders::{AdderKind, AdderModel};
use crate::multipliers::{MulKind, MulModel, Po2Mode};
use crate::spec::OperatorSpec;
use crate::width::BitWidth;
use std::fmt;

/// Index of an adder within its width class, in increasing-MRED order.
///
/// `AdderId(0)` is always the exact adder of the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AdderId(pub usize);

/// Index of a multiplier within its width class, in increasing-MRED order.
///
/// `MulId(0)` is always the exact multiplier of the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MulId(pub usize);

impl fmt::Display for AdderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

impl fmt::Display for MulId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// A library adder: published record plus behavioural model.
#[derive(Debug, Clone)]
pub struct AdderEntry {
    /// Published characterisation (name, MRED, power, time).
    pub spec: OperatorSpec,
    /// Behavioural model evaluated by the instrumented interpreter.
    pub model: AdderModel,
}

/// A library multiplier: published record plus behavioural model.
#[derive(Debug, Clone)]
pub struct MulEntry {
    /// Published characterisation (name, MRED, power, time).
    pub spec: OperatorSpec,
    /// Behavioural model evaluated by the instrumented interpreter.
    pub model: MulModel,
}

/// The full pre-characterised operator database used by the DSE.
#[derive(Debug, Clone)]
pub struct OperatorLibrary {
    adders8: Vec<AdderEntry>,
    adders16: Vec<AdderEntry>,
    muls8: Vec<MulEntry>,
    muls32: Vec<MulEntry>,
}

impl OperatorLibrary {
    /// Builds the paper's operator selection (Tables I and II).
    ///
    /// Power and computation time are the published constants; the models are
    /// approximate-circuit families calibrated to the published MRED ladder.
    pub fn evoapprox() -> Self {
        let a8 = |name: &str, mred: f64, p: f64, t: f64, kind: AdderKind| AdderEntry {
            spec: OperatorSpec::new(name, BitWidth::W8, mred, p, t),
            model: AdderModel::new(kind, BitWidth::W8),
        };
        let a16 = |name: &str, mred: f64, p: f64, t: f64, kind: AdderKind| AdderEntry {
            spec: OperatorSpec::new(name, BitWidth::W16, mred, p, t),
            model: AdderModel::new(kind, BitWidth::W16),
        };
        let m8 = |name: &str, mred: f64, p: f64, t: f64, kind: MulKind| MulEntry {
            spec: OperatorSpec::new(name, BitWidth::W8, mred, p, t),
            model: MulModel::new(kind, BitWidth::W8),
        };
        let m32 = |name: &str, mred: f64, p: f64, t: f64, kind: MulKind| MulEntry {
            spec: OperatorSpec::new(name, BitWidth::W32, mred, p, t),
            model: MulModel::new(kind, BitWidth::W32),
        };

        // Family parameters below are calibrated against the published MRED
        // (first numeric column) by `cargo test -p ax-operators --release
        // calibration_grid -- --ignored --nocapture`; measured values are
        // recorded in EXPERIMENTS.md.
        // measured MRED (exhaustive / 1M-sample):     published:
        let adders8 = vec![
            a8("1HG", 0.0, 0.033, 0.63, AdderKind::Precise), //    0.00  |  0.00
            a8("6PT", 0.14, 0.029, 0.55, AdderKind::Loa { approx_bits: 1 }), // 0.135 | 0.14
            a8("6R6", 2.93, 0.012, 0.27, AdderKind::Loa { approx_bits: 5 }), // 2.930 | 2.93
            a8("0TP", 6.16, 0.0095, 0.24, AdderKind::SetOne { cut_bits: 5 }), // 6.208 | 6.16
            a8(
                "00M",
                14.58,
                0.0046,
                0.17,
                AdderKind::SetOne { cut_bits: 6 },
            ), // 13.01 | 14.58
            // 02Y uses hard truncation: the paper's matmul exploration
            // never reaches Algorithm 1's terminate state, which requires
            // the fully-approximate configuration (02Y + 17MJ, all
            // variables) to violate the accuracy budget — a biased adder on
            // the accumulation chain produces exactly that drift.
            a8("02Y", 24.87, 0.0015, 0.11, AdderKind::Trunc { cut_bits: 7 }), // 56.69 | 24.87
        ];
        let adders16 = vec![
            a16("1A5", 0.0, 0.072, 1.28, AdderKind::Precise), //   0.000  |  0.000
            a16("0GN", 0.005, 0.057, 1.04, AdderKind::Loa { approx_bits: 4 }), // 0.0061 | 0.005
            a16("0BC", 0.018, 0.051, 0.95, AdderKind::Trunc { cut_bits: 3 }), // 0.0148 | 0.018
            a16("0HE", 0.16, 0.036, 0.68, AdderKind::SetOne { cut_bits: 8 }), // 0.181 | 0.16
            a16("0SL", 9.54, 0.011, 0.27, AdderKind::Loa { approx_bits: 15 }), // 10.16 | 9.54
            a16(
                "067",
                22.35,
                0.0041,
                0.20,
                AdderKind::Loa { approx_bits: 16 },
            ), // 21.18 | 22.35
        ];
        let muls8 = vec![
            m8("1JJQ", 0.0, 0.391, 1.43, MulKind::Precise), //     0.00  |  0.00
            m8(
                "4X5",
                0.033,
                0.380,
                1.40,
                MulKind::TruncResult { cut_bits: 1 },
            ), // 0.018 | 0.033
            m8("GTR", 1.23, 0.303, 1.46, MulKind::Drum { k: 6 }), // 1.29 | 1.23
            m8("L93", 4.52, 0.178, 1.11, MulKind::Mitchell), //    3.76  |  4.52
            m8("18UH", 17.98, 0.062, 0.90, MulKind::Drum { k: 2 }), // 25.18 | 17.98
            m8(
                "17MJ",
                53.17,
                0.0041,
                0.11,
                MulKind::Po2(Po2Mode::Compensated),
            ), // 25.79 | 53.17
        ];
        let muls32 = vec![
            m32("precise", 0.0, 10.76, 4.565, MulKind::Precise), // 0.000 | 0.00
            m32("000", 0.00, 10.46, 4.470, MulKind::Drum { k: 16 }), // 0.0014 | 0.00
            m32("018", 0.01, 4.32, 3.220, MulKind::Drum { k: 13 }), // 0.0115 | 0.01
            m32("043", 1.45, 1.63, 2.440, MulKind::Drum { k: 6 }), // 1.469 | 1.45
            m32("053", 10.59, 1.05, 2.030, MulKind::Drum { k: 3 }), // 11.89 | 10.59
            m32("067", 41.25, 0.51, 1.750, MulKind::Po2(Po2Mode::Nearest)), // 35.46 | 41.25
        ];
        let lib = Self {
            adders8,
            adders16,
            muls8,
            muls32,
        };
        lib.assert_invariants();
        lib
    }

    /// [`OperatorLibrary::evoapprox`] widened with two extra variants per
    /// operator family: zero-mean midpoint and speculative-carry adders,
    /// iterative-logarithmic and partial-product-pruned multipliers, each
    /// slotted into a gap of the published MRED ladder with an
    /// intermediate power/time point. The denser accuracy/cost trade-off
    /// gives multi-objective campaigns fronts with more than two
    /// non-degenerate members; the paper's six-per-class selection stays
    /// untouched (and the default everywhere).
    pub fn evoapprox_extended() -> Self {
        let base = Self::evoapprox();
        let mut builder = Self::builder();
        for width in [BitWidth::W8, BitWidth::W16] {
            for e in base.adders(width) {
                builder = builder.adder(e.spec.clone(), e.model);
            }
        }
        for width in [BitWidth::W8, BitWidth::W32] {
            for e in base.multipliers(width) {
                builder = builder.multiplier(e.spec.clone(), e.model);
            }
        }
        builder
            .adder(
                OperatorSpec::new("MID4", BitWidth::W8, 1.4, 0.018, 0.39),
                AdderModel::new(AdderKind::SetMid { cut_bits: 4 }, BitWidth::W8),
            )
            .adder(
                OperatorSpec::new("CC52", BitWidth::W8, 9.8, 0.0072, 0.21),
                AdderModel::new(AdderKind::CarryCut { cut: 5, window: 2 }, BitWidth::W8),
            )
            .adder(
                OperatorSpec::new("MID6", BitWidth::W16, 0.05, 0.046, 0.84),
                AdderModel::new(AdderKind::SetMid { cut_bits: 6 }, BitWidth::W16),
            )
            .adder(
                OperatorSpec::new("CCA3", BitWidth::W16, 2.4, 0.021, 0.45),
                AdderModel::new(AdderKind::CarryCut { cut: 10, window: 3 }, BitWidth::W16),
            )
            .multiplier(
                OperatorSpec::new("ILM2", BitWidth::W8, 0.9, 0.29, 1.35),
                MulModel::new(MulKind::LogIter { iterations: 2 }, BitWidth::W8),
            )
            .multiplier(
                OperatorSpec::new("BAM3", BitWidth::W8, 2.6, 0.24, 1.25),
                MulModel::new(MulKind::BrokenArray { rows: 3 }, BitWidth::W8),
            )
            .multiplier(
                OperatorSpec::new("PP12", BitWidth::W32, 0.004, 7.9, 4.1),
                MulModel::new(MulKind::TruncPp { cut_columns: 12 }, BitWidth::W32),
            )
            .multiplier(
                OperatorSpec::new("ILM1", BitWidth::W32, 4.1, 1.35, 2.2),
                MulModel::new(MulKind::LogIter { iterations: 1 }, BitWidth::W32),
            )
            .build()
    }

    /// Starts building a custom operator library.
    pub fn builder() -> OperatorLibraryBuilder {
        OperatorLibraryBuilder::default()
    }

    /// The adders of a width class, sorted by increasing MRED.
    ///
    /// The library (like EvoApproxLib) carries 8- and 16-bit adders; other
    /// widths yield an empty slice.
    pub fn adders(&self, width: BitWidth) -> &[AdderEntry] {
        match width {
            BitWidth::W8 => &self.adders8,
            BitWidth::W16 => &self.adders16,
            BitWidth::W32 => &[],
        }
    }

    /// The multipliers of a width class, sorted by increasing MRED.
    ///
    /// The library carries 8- and 32-bit multipliers; other widths yield an
    /// empty slice.
    pub fn multipliers(&self, width: BitWidth) -> &[MulEntry] {
        match width {
            BitWidth::W8 => &self.muls8,
            BitWidth::W16 => &[],
            BitWidth::W32 => &self.muls32,
        }
    }

    /// Looks up an adder by id within its width class.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the class.
    pub fn adder(&self, width: BitWidth, id: AdderId) -> &AdderEntry {
        &self.adders(width)[id.0]
    }

    /// Looks up a multiplier by id within its width class.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the class.
    pub fn multiplier(&self, width: BitWidth, id: MulId) -> &MulEntry {
        &self.multipliers(width)[id.0]
    }

    /// Finds an adder by its published short name within a width class.
    pub fn adder_by_name(&self, width: BitWidth, name: &str) -> Option<(AdderId, &AdderEntry)> {
        self.adders(width)
            .iter()
            .enumerate()
            .find(|(_, e)| e.spec.name() == name)
            .map(|(i, e)| (AdderId(i), e))
    }

    /// Finds a multiplier by its published short name within a width class.
    pub fn multiplier_by_name(&self, width: BitWidth, name: &str) -> Option<(MulId, &MulEntry)> {
        self.multipliers(width)
            .iter()
            .enumerate()
            .find(|(_, e)| e.spec.name() == name)
            .map(|(i, e)| (MulId(i), e))
    }

    fn assert_invariants(&self) {
        for (label, entries) in [
            ("8-bit adders", &self.adders8),
            ("16-bit adders", &self.adders16),
        ] {
            assert!(!entries.is_empty(), "{label} must be non-empty");
            assert!(entries[0].model.is_exact(), "{label}[0] must be exact");
            for w in entries.windows(2) {
                assert!(
                    w[0].spec.mred_pct() <= w[1].spec.mred_pct(),
                    "{label} not sorted by MRED"
                );
            }
        }
        for (label, entries) in [("8-bit muls", &self.muls8), ("32-bit muls", &self.muls32)] {
            assert!(!entries.is_empty(), "{label} must be non-empty");
            assert!(entries[0].model.is_exact(), "{label}[0] must be exact");
            for w in entries.windows(2) {
                assert!(
                    w[0].spec.mred_pct() <= w[1].spec.mred_pct(),
                    "{label} not sorted by MRED"
                );
            }
        }
    }
}

/// Incrementally assembles a custom [`OperatorLibrary`].
///
/// Entries may be pushed in any order; [`OperatorLibraryBuilder::build`]
/// sorts each width class by published MRED and verifies that each non-empty
/// class starts with an exact operator.
///
/// ```
/// use ax_operators::{AdderKind, AdderModel, BitWidth, MulModel, OperatorLibrary, OperatorSpec};
///
/// let lib = OperatorLibrary::builder()
///     .adder(
///         OperatorSpec::new("exact", BitWidth::W8, 0.0, 0.04, 0.7),
///         AdderModel::precise(BitWidth::W8),
///     )
///     .adder(
///         OperatorSpec::new("loa3", BitWidth::W8, 1.1, 0.02, 0.4),
///         AdderModel::new(AdderKind::Loa { approx_bits: 3 }, BitWidth::W8),
///     )
///     .multiplier(
///         OperatorSpec::new("exact", BitWidth::W8, 0.0, 0.4, 1.4),
///         MulModel::precise(BitWidth::W8),
///     )
///     .build();
/// assert_eq!(lib.adders(BitWidth::W8).len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct OperatorLibraryBuilder {
    adders: Vec<AdderEntry>,
    muls: Vec<MulEntry>,
}

impl OperatorLibraryBuilder {
    /// Adds an adder entry.
    ///
    /// # Panics
    ///
    /// Panics if the spec and model widths disagree.
    pub fn adder(mut self, spec: OperatorSpec, model: AdderModel) -> Self {
        assert_eq!(spec.width(), model.width(), "spec/model width mismatch");
        self.adders.push(AdderEntry { spec, model });
        self
    }

    /// Adds a multiplier entry.
    ///
    /// # Panics
    ///
    /// Panics if the spec and model widths disagree.
    pub fn multiplier(mut self, spec: OperatorSpec, model: MulModel) -> Self {
        assert_eq!(spec.width(), model.width(), "spec/model width mismatch");
        self.muls.push(MulEntry { spec, model });
        self
    }

    /// Finalises the library.
    ///
    /// # Panics
    ///
    /// Panics if any non-empty width class lacks an exact operator at the
    /// lowest MRED position.
    pub fn build(self) -> OperatorLibrary {
        let mut lib = OperatorLibrary {
            adders8: Vec::new(),
            adders16: Vec::new(),
            muls8: Vec::new(),
            muls32: Vec::new(),
        };
        for e in self.adders {
            match e.spec.width() {
                BitWidth::W8 => lib.adders8.push(e),
                BitWidth::W16 => lib.adders16.push(e),
                BitWidth::W32 => panic!("32-bit adders are not part of the library model"),
            }
        }
        for e in self.muls {
            match e.spec.width() {
                BitWidth::W8 => lib.muls8.push(e),
                BitWidth::W16 => panic!("16-bit multipliers are not part of the library model"),
                BitWidth::W32 => lib.muls32.push(e),
            }
        }
        let key = |x: f64| (x * 1e9) as i64;
        lib.adders8.sort_by_key(|e| key(e.spec.mred_pct()));
        lib.adders16.sort_by_key(|e| key(e.spec.mred_pct()));
        lib.muls8.sort_by_key(|e| key(e.spec.mred_pct()));
        lib.muls32.sort_by_key(|e| key(e.spec.mred_pct()));
        for (label, ok) in [
            (
                "8-bit adders",
                lib.adders8.first().is_none_or(|e| e.model.is_exact()),
            ),
            (
                "16-bit adders",
                lib.adders16.first().is_none_or(|e| e.model.is_exact()),
            ),
            (
                "8-bit multipliers",
                lib.muls8.first().is_none_or(|e| e.model.is_exact()),
            ),
            (
                "32-bit multipliers",
                lib.muls32.first().is_none_or(|e| e.model.is_exact()),
            ),
        ] {
            assert!(ok, "{label}: the least-MRED operator must be exact");
        }
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_adder, characterize_multiplier, CharacterizeMode};

    #[test]
    fn evoapprox_has_paper_shape() {
        let lib = OperatorLibrary::evoapprox();
        assert_eq!(lib.adders(BitWidth::W8).len(), 6);
        assert_eq!(lib.adders(BitWidth::W16).len(), 6);
        assert_eq!(lib.multipliers(BitWidth::W8).len(), 6);
        assert_eq!(lib.multipliers(BitWidth::W32).len(), 6);
        assert!(lib.adders(BitWidth::W32).is_empty());
        assert!(lib.multipliers(BitWidth::W16).is_empty());
    }

    #[test]
    fn evoapprox_extended_adds_two_variants_per_family() {
        let base = OperatorLibrary::evoapprox();
        let lib = OperatorLibrary::evoapprox_extended();
        for w in [BitWidth::W8, BitWidth::W16] {
            assert_eq!(lib.adders(w).len(), 8, "{w} adders");
            for e in base.adders(w) {
                assert!(
                    lib.adder_by_name(w, e.spec.name()).is_some(),
                    "{w} adder {} must survive the extension",
                    e.spec.name()
                );
            }
            let mreds: Vec<f64> = lib.adders(w).iter().map(|e| e.spec.mred_pct()).collect();
            for pair in mreds.windows(2) {
                assert!(pair[0] <= pair[1], "{w} adders not sorted: {mreds:?}");
            }
            assert!(lib.adders(w)[0].model.is_exact());
        }
        for w in [BitWidth::W8, BitWidth::W32] {
            assert_eq!(lib.multipliers(w).len(), 8, "{w} muls");
            for e in base.multipliers(w) {
                assert!(
                    lib.multiplier_by_name(w, e.spec.name()).is_some(),
                    "{w} multiplier {} must survive the extension",
                    e.spec.name()
                );
            }
            assert!(lib.multipliers(w)[0].model.is_exact());
        }
        // The new variants occupy interior trade-off points, not the ends
        // of the ladder.
        let (id, _) = lib.adder_by_name(BitWidth::W8, "MID4").unwrap();
        assert!(id.0 > 0 && id.0 < 7);
        let (mid, _) = lib.multiplier_by_name(BitWidth::W32, "ILM1").unwrap();
        assert!(mid.0 > 0 && mid.0 < 7);
    }

    #[test]
    fn classes_sorted_by_published_mred() {
        let lib = OperatorLibrary::evoapprox();
        for w in [BitWidth::W8, BitWidth::W16] {
            let specs: Vec<f64> = lib.adders(w).iter().map(|e| e.spec.mred_pct()).collect();
            let mut sorted = specs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(specs, sorted);
        }
    }

    #[test]
    fn first_entry_of_each_class_is_exact() {
        let lib = OperatorLibrary::evoapprox();
        assert!(lib.adder(BitWidth::W8, AdderId(0)).model.is_exact());
        assert!(lib.adder(BitWidth::W16, AdderId(0)).model.is_exact());
        assert!(lib.multiplier(BitWidth::W8, MulId(0)).model.is_exact());
        assert!(lib.multiplier(BitWidth::W32, MulId(0)).model.is_exact());
    }

    #[test]
    fn lookup_by_name() {
        let lib = OperatorLibrary::evoapprox();
        let (id, e) = lib.adder_by_name(BitWidth::W8, "00M").expect("00M exists");
        assert_eq!(id, AdderId(4));
        assert_eq!(e.spec.power_mw(), 0.0046);
        assert!(lib.adder_by_name(BitWidth::W8, "nope").is_none());
        let (mid, me) = lib
            .multiplier_by_name(BitWidth::W32, "043")
            .expect("043 exists");
        assert_eq!(mid, MulId(3));
        assert_eq!(me.spec.time_ns(), 2.440);
    }

    #[test]
    fn paper_power_and_time_columns_are_verbatim() {
        let lib = OperatorLibrary::evoapprox();
        let a = lib.adders(BitWidth::W8);
        assert_eq!(a[0].spec.power_mw(), 0.033);
        assert_eq!(a[5].spec.time_ns(), 0.11);
        let m = lib.multipliers(BitWidth::W32);
        assert_eq!(m[0].spec.power_mw(), 10.76);
        assert_eq!(m[5].spec.time_ns(), 1.750);
    }

    #[test]
    fn measured_mred_ordering_matches_published_ordering() {
        // The behavioural models must produce the same accuracy ladder as the
        // published MRED column — this is the property the DSE relies on
        // ("operators sorted by increasing accuracy degradation").
        let lib = OperatorLibrary::evoapprox();
        for w in [BitWidth::W8, BitWidth::W16] {
            let measured: Vec<f64> = lib
                .adders(w)
                .iter()
                .map(|e| characterize_adder(&e.model, CharacterizeMode::auto(w)).mred_pct)
                .collect();
            for pair in measured.windows(2) {
                assert!(pair[0] <= pair[1] + 1e-9, "{w} adders: {measured:?}");
            }
        }
        for w in [BitWidth::W8, BitWidth::W32] {
            let mode = match w {
                BitWidth::W8 => CharacterizeMode::Exhaustive,
                _ => CharacterizeMode::MonteCarlo {
                    samples: 300_000,
                    seed: 99,
                },
            };
            let measured: Vec<f64> = lib
                .multipliers(w)
                .iter()
                .map(|e| characterize_multiplier(&e.model, mode).mred_pct)
                .collect();
            for pair in measured.windows(2) {
                assert!(pair[0] <= pair[1] + 1e-9, "{w} muls: {measured:?}");
            }
        }
    }

    #[test]
    fn builder_sorts_and_validates() {
        let lib = OperatorLibrary::builder()
            .adder(
                OperatorSpec::new("worse", BitWidth::W8, 5.0, 0.01, 0.2),
                AdderModel::new(AdderKind::Trunc { cut_bits: 5 }, BitWidth::W8),
            )
            .adder(
                OperatorSpec::new("exact", BitWidth::W8, 0.0, 0.03, 0.6),
                AdderModel::precise(BitWidth::W8),
            )
            .build();
        assert_eq!(lib.adders(BitWidth::W8)[0].spec.name(), "exact");
        assert_eq!(lib.adders(BitWidth::W8)[1].spec.name(), "worse");
    }

    #[test]
    #[should_panic(expected = "exact")]
    fn builder_rejects_class_without_exact_operator() {
        OperatorLibrary::builder()
            .adder(
                OperatorSpec::new("only-approx", BitWidth::W8, 5.0, 0.01, 0.2),
                AdderModel::new(AdderKind::Trunc { cut_bits: 5 }, BitWidth::W8),
            )
            .build();
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn builder_rejects_width_mismatch() {
        OperatorLibrary::builder().adder(
            OperatorSpec::new("x", BitWidth::W16, 0.0, 0.1, 0.1),
            AdderModel::precise(BitWidth::W8),
        );
    }
}
