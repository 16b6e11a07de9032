//! Post-processing of exploration traces.
//!
//! Everything the paper's evaluation section reports is computed here:
//!
//! * [`MetricSummary`] — the min / solution / max rows of Table III,
//!   folded step by step through [`MetricRange`];
//! * [`FigureSeries`] + [`linear_trend`] — the per-step Δpower / Δtime /
//!   Δaccuracy curves and trend lines of Figures 2 and 3;
//! * [`reward_curve`] — the 100-step mean-reward series of Figure 4.
//!
//! Pareto fronts and hypervolumes come from [`crate::pareto`].

use crate::env::StepTrace;

/// Min / solution / max of one exploration metric (one Table III block).
///
/// "Solution" is the value at the **last** exploration step, following the
/// paper ("the approximation run of the last step"); min and max are the
/// extremes observed anywhere during the exploration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Minimum observed value.
    pub min: f64,
    /// Value of the final configuration.
    pub solution: f64,
    /// Maximum observed value.
    pub max: f64,
}

impl MetricSummary {
    /// Summarises a series whose last element is the solution.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty.
    pub fn from_series(series: &[f64]) -> Self {
        assert!(!series.is_empty(), "cannot summarise an empty series");
        let mut range = MetricRange::EMPTY;
        for &v in series {
            range.push(v);
        }
        range.summary(*series.last().unwrap())
    }
}

/// The running min / max of one exploration metric: the fixed-size fold a
/// [`MetricSummary`] is read from, so a run can summarise its steps
/// without keeping them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricRange {
    /// Minimum observed value (`+∞` before the first).
    pub min: f64,
    /// Maximum observed value (`−∞` before the first).
    pub max: f64,
}

impl MetricRange {
    /// The range of no observations.
    pub const EMPTY: Self = Self {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Folds one observation in (`f64::min`/`f64::max`: a NaN never
    /// displaces a number).
    pub fn push(&mut self, v: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The Table III block of this range with `solution` as the value of
    /// the final configuration.
    pub fn summary(self, solution: f64) -> MetricSummary {
        MetricSummary {
            min: self.min,
            solution,
            max: self.max,
        }
    }
}

/// The per-step series of one exploration (Figures 2 and 3).
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSeries {
    /// Δpower per step.
    pub power: Vec<f64>,
    /// Δtime per step.
    pub time: Vec<f64>,
    /// Δaccuracy per step.
    pub accuracy: Vec<f64>,
}

impl FigureSeries {
    /// Extracts the series from a trace.
    pub fn from_trace(trace: &[StepTrace]) -> Self {
        Self {
            power: trace.iter().map(|t| t.metrics.delta_power).collect(),
            time: trace.iter().map(|t| t.metrics.delta_time).collect(),
            accuracy: trace.iter().map(|t| t.metrics.delta_acc).collect(),
        }
    }

    /// Least-squares trend lines `(slope, intercept)` of the three series —
    /// the dotted trend lines of the paper's figures.
    pub fn trends(&self) -> [(f64, f64); 3] {
        [
            linear_trend(&self.power),
            linear_trend(&self.time),
            linear_trend(&self.accuracy),
        ]
    }
}

/// Least-squares line fit over `y` with `x = 0, 1, 2, ...`; returns
/// `(slope, intercept)`.
///
/// # Panics
///
/// Panics if `y` is empty.
pub fn linear_trend(y: &[f64]) -> (f64, f64) {
    assert!(!y.is_empty(), "cannot fit an empty series");
    let n = y.len() as f64;
    if y.len() == 1 {
        return (0.0, y[0]);
    }
    let mean_x = (n - 1.0) / 2.0;
    let mean_y: f64 = y.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (i, &v) in y.iter().enumerate() {
        let dx = i as f64 - mean_x;
        sxx += dx * dx;
        sxy += dx * (v - mean_y);
    }
    let slope = sxy / sxx;
    (slope, mean_y - slope * mean_x)
}

/// Mean reward over consecutive bins of `bin` steps (Figure 4's series).
///
/// # Panics
///
/// Panics if `bin` is zero.
pub fn reward_curve(trace: &[StepTrace], bin: usize) -> Vec<f64> {
    assert!(bin > 0, "bin size must be positive");
    trace
        .chunks(bin)
        .map(|c| c.iter().map(|t| t.reward).sum::<f64>() / c.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AxConfig;
    use crate::evaluator::EvalMetrics;
    use ax_operators::{AdderId, MulId};

    fn m(power: f64, time: f64, acc: f64) -> EvalMetrics {
        EvalMetrics {
            delta_acc: acc,
            delta_power: power,
            delta_time: time,
            signed_error: 0.0,
            power: 0.0,
            time_ns: 0.0,
        }
    }

    fn cfg(i: usize) -> AxConfig {
        AxConfig {
            adder: AdderId(i % 6),
            mul: MulId(i / 6 % 6),
            vars: i as u64 % 16,
        }
    }

    fn step(i: u64, metrics: EvalMetrics, reward: f64) -> StepTrace {
        StepTrace {
            step: i,
            config: cfg(i as usize),
            metrics,
            reward,
            terminated: false,
        }
    }

    #[test]
    fn summary_min_solution_max() {
        let s = MetricSummary::from_series(&[3.0, -1.0, 7.0, 2.0]);
        assert_eq!(s.min, -1.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.solution, 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        MetricSummary::from_series(&[]);
    }

    #[test]
    fn linear_trend_recovers_exact_line() {
        let y: Vec<f64> = (0..50).map(|i| 3.0 + 0.5 * i as f64).collect();
        let (slope, intercept) = linear_trend(&y);
        assert!((slope - 0.5).abs() < 1e-9);
        assert!((intercept - 3.0).abs() < 1e-9);
    }

    #[test]
    fn linear_trend_flat_series() {
        let (slope, intercept) = linear_trend(&[2.0; 10]);
        assert!(slope.abs() < 1e-12);
        assert!((intercept - 2.0).abs() < 1e-12);
    }

    #[test]
    fn linear_trend_single_point() {
        assert_eq!(linear_trend(&[4.2]), (0.0, 4.2));
    }

    #[test]
    fn figure_series_and_trends() {
        let trace: Vec<StepTrace> = (0..100)
            .map(|i| step(i, m(i as f64, 2.0 * i as f64, 100.0 - i as f64), 1.0))
            .collect();
        let series = FigureSeries::from_trace(&trace);
        assert_eq!(series.power.len(), 100);
        let [p, t, a] = series.trends();
        assert!((p.0 - 1.0).abs() < 1e-9);
        assert!((t.0 - 2.0).abs() < 1e-9);
        assert!((a.0 + 1.0).abs() < 1e-9); // decreasing accuracy series
    }

    #[test]
    fn reward_curve_bins() {
        let trace: Vec<StepTrace> = (0..250)
            .map(|i| step(i, m(0.0, 0.0, 0.0), if i < 100 { -1.0 } else { 1.0 }))
            .collect();
        let curve = reward_curve(&trace, 100);
        assert_eq!(curve, vec![-1.0, 1.0, 1.0]);
    }
}
