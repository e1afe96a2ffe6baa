//! Performance constraints for trained-hardware LAC (Section IV).
//!
//! Two mechanisms from the paper:
//!
//! * **search-space pruning** — for single-multiplier NAS under an
//!   area/power/delay budget, candidates violating the budget are removed
//!   before the search ("any multiplier that violates the performance
//!   constraint need not be considered within the NAS");
//! * **hinge losses** — for multi-hardware NAS, where a mix of units above
//!   and below the budget can still satisfy the *average* constraint:
//!   Eq. 3's area hinge `L_h` and Eq. 5's accuracy hinge `L_hm`.

use std::sync::Arc;

use lac_hw::Multiplier;
use lac_metrics::MetricDirection;

/// A hardware budget for the search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Constraint {
    /// No budget: quality-only search.
    None,
    /// Maximum area (normalized to the exact 16-bit multiplier).
    Area(f64),
    /// Maximum power.
    Power(f64),
    /// Maximum delay. Units without a published delay are excluded.
    Delay(f64),
}

impl Constraint {
    /// Whether a multiplier satisfies this budget.
    ///
    /// # Examples
    ///
    /// ```
    /// use lac_core::Constraint;
    /// use lac_hw::catalog;
    ///
    /// let drum = catalog::by_name("DRUM16-6").unwrap();
    /// assert!(Constraint::Area(0.5).admits(&*drum));
    /// assert!(!Constraint::Area(0.3).admits(&*drum));
    /// // DRUM has no published delay, so delay budgets exclude it.
    /// assert!(!Constraint::Delay(10.0).admits(&*drum));
    /// ```
    pub fn admits(&self, mult: &dyn Multiplier) -> bool {
        let md = mult.metadata();
        match *self {
            Constraint::None => true,
            Constraint::Area(max) => md.area <= max,
            Constraint::Power(max) => md.power <= max,
            Constraint::Delay(max) => md.delay.is_some_and(|d| d <= max),
        }
    }
}

/// Remove candidates that violate the budget (single-multiplier pruning).
pub fn prune(
    candidates: &[Arc<dyn Multiplier>],
    constraint: Constraint,
) -> Vec<Arc<dyn Multiplier>> {
    candidates.iter().filter(|m| constraint.admits(&***m)).cloned().collect()
}

/// Eq. 3: the area hinge `L_h(a, a_th)` with safety factor `γ`: zero when
/// `a < γ·a_th`, linear excess otherwise.
///
/// # Examples
///
/// ```
/// use lac_core::hinge_area;
///
/// assert_eq!(hinge_area(0.4, 0.5, 1.0), 0.0);
/// assert!((hinge_area(0.6, 0.5, 1.0) - 0.1).abs() < 1e-12);
/// // γ = 0.9 tightens the effective budget to 0.45.
/// assert!(hinge_area(0.47, 0.5, 0.9) > 0.0);
/// ```
pub fn hinge_area(area: f64, threshold: f64, gamma: f64) -> f64 {
    let effective = gamma * threshold;
    if area < effective {
        0.0
    } else {
        area - effective
    }
}

/// Eq. 5: the accuracy hinge `L_hm(l, l_target)` for accuracy-constrained
/// area minimization, generalized over the metric direction: zero when the
/// quality satisfies the target, linear deficit otherwise.
///
/// # Examples
///
/// ```
/// use lac_core::accuracy_hinge;
/// use lac_metrics::MetricDirection;
///
/// // SSIM 0.95 against target 0.9: satisfied.
/// assert_eq!(accuracy_hinge(0.95, 0.9, MetricDirection::HigherIsBetter), 0.0);
/// // SSIM 0.8 against target 0.9: deficit of 0.1.
/// let d = accuracy_hinge(0.8, 0.9, MetricDirection::HigherIsBetter);
/// assert!((d - 0.1).abs() < 1e-12);
/// // Relative error 0.2 against target 0.1: deficit of 0.1.
/// let d = accuracy_hinge(0.2, 0.1, MetricDirection::LowerIsBetter);
/// assert!((d - 0.1).abs() < 1e-12);
/// ```
pub fn accuracy_hinge(quality: f64, target: f64, direction: MetricDirection) -> f64 {
    match direction {
        MetricDirection::HigherIsBetter => (target - quality).max(0.0),
        MetricDirection::LowerIsBetter => (quality - target).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_hw::catalog;

    #[test]
    fn prune_by_area() {
        let all = catalog::paper_multipliers();
        let cheap = prune(&all, Constraint::Area(0.1));
        assert!(!cheap.is_empty());
        assert!(cheap.iter().all(|m| m.metadata().area <= 0.1));
        assert!(cheap.len() < all.len());
    }

    #[test]
    fn prune_none_keeps_everything() {
        let all = catalog::paper_multipliers();
        assert_eq!(prune(&all, Constraint::None).len(), all.len());
    }

    #[test]
    fn prune_by_delay_drops_units_without_delay() {
        let all = catalog::paper_multipliers();
        let fast = prune(&all, Constraint::Delay(100.0));
        // Only the seven EvoApprox-style units have published delays.
        assert_eq!(fast.len(), 7);
    }

    #[test]
    fn prune_by_power() {
        let all = catalog::paper_multipliers();
        let lean = prune(&all, Constraint::Power(0.05));
        assert!(lean.iter().all(|m| m.metadata().power <= 0.05));
        assert!(lean.iter().any(|m| m.name() == "mul8u_JV3"));
    }

    #[test]
    fn hinge_area_gamma_one_matches_plain_hinge() {
        assert_eq!(hinge_area(0.3, 0.5, 1.0), 0.0);
        assert!((hinge_area(0.7, 0.5, 1.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn accuracy_hinge_zero_when_satisfied() {
        assert_eq!(accuracy_hinge(50.0, 40.0, MetricDirection::HigherIsBetter), 0.0);
        assert_eq!(accuracy_hinge(0.05, 0.1, MetricDirection::LowerIsBetter), 0.0);
    }
}
