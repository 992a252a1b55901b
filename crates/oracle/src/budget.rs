//! Sample-size budgets: the paper's formulas and calibrated profiles.
//!
//! Every algorithm's analysis fixes explicit sample counts:
//!
//! | symbol | Algorithm 1 (learning)              | Algorithm 2/3 (`ℓ₂` test) | Algorithm 4 (`ℓ₁` test)          |
//! |--------|-------------------------------------|---------------------------|----------------------------------|
//! | `ξ`    | `ε / (k·ln(1/ε))`                   | —                         | —                                |
//! | `ℓ`    | `ln(12n²) / (2ξ²)`                  | —                         | —                                |
//! | `r`    | `ln(6n²)` sets                      | `16·ln(6n²)` sets         | `16·ln(6n²)` sets                |
//! | `m`    | `24/ξ²` per set                     | `64·ln n · ε⁻⁴` per set    | `2¹³·√(kn)·ε⁻⁵` per set          |
//! | `q`    | `k·ln(1/ε)` greedy iterations       | —                         | —                                |
//!
//! The companion testers each draw one set of `m` samples (the identity
//! and closeness tests default to the uniformity budget):
//!
//! | budget                  | test                  | `m`                                     | floor |
//! |-------------------------|-----------------------|-----------------------------------------|-------|
//! | [`UniformityBudget`]    | collision uniformity  | `16·√n·ε⁻⁴`                             | 16    |
//! | [`monotonicity_budget`] | Birgé + PAV monotone  | `16·B·ε⁻²`, `B = ⌈ln n / (ε/2)⌉` buckets | 64    |
//!
//! These constants guarantee the stated 2/3 success probability but are far
//! too conservative to execute at experiment scale (`m` reaches 10⁸ for
//! modest `n`). Each budget therefore exposes
//!
//! * `theoretical(…)` — the formulas verbatim, and
//! * `calibrated(…, scale)` — identical functional form with the sample
//!   counts multiplied by `scale` (floored at small minima, `r` kept odd so
//!   medians are unambiguous); [`monotonicity_budget`] takes `scale` as
//!   its last argument.
//!
//! Scaling experiments hold `scale` fixed while sweeping `n`, `k`, `ε`, so
//! measured growth exponents reflect the formulas' `ln n`, `√(kn)`, `ε⁻ᶜ`
//! dependence rather than the constant.
//!
//! All constructors and `total_samples` use checked arithmetic: extreme
//! `n`/`k`/`ε` (think `ε = 1e-300`, where `ε⁻⁵` dwarfs `usize::MAX`)
//! yield a [`DistError::BadParameter`] instead of a silently saturated or
//! wrapped count, and every `ε` goes through [`check_eps`]. Each of the
//! three algorithm budgets serializes with a `kind` tag (its `KIND`
//! constant), so a serialized budget cannot deserialize as another shape.

use khist_dist::DistError;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// Budget for the greedy learner (Algorithm 1 / Theorem 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnerBudget {
    /// Error-splitting parameter `ξ = ε / (k ln(1/ε))`.
    pub xi: f64,
    /// Size of the main sample `S` used for interval weights `y_I`.
    pub ell: usize,
    /// Number of independent collision sets `S¹, …, Sʳ`.
    pub r: usize,
    /// Size of each collision set.
    pub m: usize,
    /// Greedy iterations `q = ⌈k·ln(1/ε)⌉`.
    pub q: usize,
}

fn xi_param(k: usize, eps: f64) -> f64 {
    // ln(1/ε) degenerates for ε ≥ 1/e; clamp the log factor at 1 so budgets
    // stay monotone in ε.
    let log_term = (1.0 / eps).ln().max(1.0);
    eps / (k as f64 * log_term)
}

/// Converts an exact (real-valued) sample count to `usize`, rejecting
/// non-finite or `usize`-overflowing values instead of saturating.
fn count_from(exact: f64, what: &str) -> Result<usize, DistError> {
    // usize::MAX as f64 rounds *up* to 2^64, so `>=` also catches the
    // values the saturating cast would silently pin to usize::MAX.
    if !exact.is_finite() || exact >= usize::MAX as f64 {
        return Err(DistError::BadParameter {
            reason: format!("budget overflow: {what} = {exact:.3e} exceeds usize"),
        });
    }
    Ok(exact.ceil().max(0.0) as usize)
}

fn odd_at_least(exact: f64, min: usize, what: &str) -> Result<usize, DistError> {
    let v = count_from(exact, what)?.max(min);
    Ok(if v.is_multiple_of(2) { v + 1 } else { v })
}

/// Rejects an accuracy parameter outside `(0, 1)`. Every budget and every
/// analysis kernel of the workspace checks `ε` through this one function,
/// so they share one rule and one message.
pub fn check_eps(eps: f64) -> Result<(), DistError> {
    if !(eps > 0.0 && eps < 1.0) {
        return Err(DistError::BadParameter {
            reason: format!("ε = {eps} must lie in (0, 1)"),
        });
    }
    Ok(())
}

fn check_common(n: usize, min_n: usize, eps: f64, scale: f64) -> Result<(), DistError> {
    if n < min_n {
        return Err(DistError::BadParameter {
            reason: format!("domain size {n} below minimum {min_n}"),
        });
    }
    check_eps(eps)?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(DistError::BadParameter {
            reason: format!("scale = {scale} must lie in (0, 1]"),
        });
    }
    Ok(())
}

fn check_k(k: usize) -> Result<(), DistError> {
    if k == 0 {
        return Err(DistError::BadParameter {
            reason: "k must be positive".into(),
        });
    }
    Ok(())
}

/// Checked `a + b·c` — the `main + sets` shape shared by all budgets.
fn checked_total(main: usize, r: usize, m: usize) -> Result<usize, DistError> {
    r.checked_mul(m)
        .and_then(|sets| main.checked_add(sets))
        .ok_or_else(|| DistError::BadParameter {
            reason: format!("budget overflow: {main} + {r}·{m} exceeds usize"),
        })
}

impl LearnerBudget {
    /// Tag naming this budget shape in serialized reports.
    pub const KIND: &'static str = "learner";

    /// The paper's constants, verbatim.
    ///
    /// Fails when `n == 0`, `k == 0`, `ε ∉ (0, 1)`, or a sample count
    /// exceeds `usize`.
    pub fn theoretical(n: usize, k: usize, eps: f64) -> Result<Self, DistError> {
        Self::calibrated(n, k, eps, 1.0)
    }

    /// The paper's formulas with sample counts scaled by `scale ∈ (0, 1]`.
    pub fn calibrated(n: usize, k: usize, eps: f64, scale: f64) -> Result<Self, DistError> {
        check_common(n, 1, eps, scale)?;
        check_k(k)?;
        let xi = xi_param(k, eps);
        let nf = n as f64;
        let ell_exact = (12.0 * nf * nf).ln() / (2.0 * xi * xi);
        let r_exact = (6.0 * nf * nf).ln();
        let m_exact = 24.0 / (xi * xi);
        let q_exact = (k as f64 * (1.0 / eps).ln().max(1.0)).ceil();
        Ok(LearnerBudget {
            xi,
            ell: count_from((ell_exact * scale).max(16.0), "ℓ")?,
            r: odd_at_least(r_exact * scale.sqrt(), 3, "r")?,
            m: count_from((m_exact * scale).max(16.0), "m")?,
            q: count_from(q_exact, "q")?.max(1),
        })
    }

    /// Total number of samples drawn under this budget: `ℓ + r·m`.
    pub fn total_samples(&self) -> Result<usize, DistError> {
        checked_total(self.ell, self.r, self.m)
    }
}

impl Serialize for LearnerBudget {
    fn serialize(&self) -> Value {
        Value::map([
            ("kind", Value::Str(Self::KIND.into())),
            ("xi", self.xi.serialize()),
            ("ell", self.ell.serialize()),
            ("r", self.r.serialize()),
            ("m", self.m.serialize()),
            ("q", self.q.serialize()),
        ])
    }
}

/// Reads one field of a serialized budget map.
fn field<T: Deserialize>(value: &Value, key: &str) -> Result<T, SerdeError> {
    T::deserialize(
        value
            .get(key)
            .ok_or_else(|| SerdeError::new(format!("budget missing field '{key}'")))?,
    )
}

/// Rejects a serialized budget whose `kind` tag names a *different* budget
/// (the `ℓ₁`/`ℓ₂` tester budgets share the `{r, m}` field shape, so without
/// this check one would silently deserialize as the other). A missing tag
/// is tolerated for hand-written inputs.
pub fn check_kind(value: &Value, expected: &'static str) -> Result<(), SerdeError> {
    match value.get("kind").and_then(Value::as_str) {
        None => Ok(()),
        Some(kind) if kind == expected => Ok(()),
        Some(other) => Err(SerdeError::new(format!(
            "budget kind '{other}' is not '{expected}'"
        ))),
    }
}

impl Deserialize for LearnerBudget {
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        check_kind(value, Self::KIND)?;
        Ok(LearnerBudget {
            xi: field(value, "xi")?,
            ell: field(value, "ell")?,
            r: field(value, "r")?,
            m: field(value, "m")?,
            q: field(value, "q")?,
        })
    }
}

/// Budget for the `ℓ₂` tester (Algorithm 2 + 3, Theorem 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2TesterBudget {
    /// Number of independent sample sets (`16·ln(6n²)` theoretically).
    pub r: usize,
    /// Samples per set (`64·ln n·ε⁻⁴` theoretically).
    pub m: usize,
}

impl L2TesterBudget {
    /// Tag naming this budget shape in serialized reports.
    pub const KIND: &'static str = "l2";

    /// The paper's constants, verbatim.
    pub fn theoretical(n: usize, eps: f64) -> Result<Self, DistError> {
        Self::calibrated(n, eps, 1.0)
    }

    /// Scaled-down budget with the same `ln n`, `ε⁻⁴` shape.
    pub fn calibrated(n: usize, eps: f64, scale: f64) -> Result<Self, DistError> {
        check_common(n, 2, eps, scale)?;
        let nf = n as f64;
        let r_exact = 16.0 * (6.0 * nf * nf).ln();
        let m_exact = 64.0 * nf.ln() * eps.powi(-4);
        Ok(L2TesterBudget {
            r: odd_at_least(r_exact * scale.sqrt(), 3, "r")?,
            m: count_from((m_exact * scale).max(16.0), "m")?,
        })
    }

    /// Total samples `r·m`.
    pub fn total_samples(&self) -> Result<usize, DistError> {
        checked_total(0, self.r, self.m)
    }
}

impl Serialize for L2TesterBudget {
    fn serialize(&self) -> Value {
        Value::map([
            ("kind", Value::Str(Self::KIND.into())),
            ("r", self.r.serialize()),
            ("m", self.m.serialize()),
        ])
    }
}

impl Deserialize for L2TesterBudget {
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        check_kind(value, Self::KIND)?;
        Ok(L2TesterBudget {
            r: field(value, "r")?,
            m: field(value, "m")?,
        })
    }
}

/// Budget for the `ℓ₁` tester (Algorithm 4 inside Algorithm 2, Theorem 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1TesterBudget {
    /// Number of independent sample sets (`16·ln(6n²)` theoretically).
    pub r: usize,
    /// Samples per set (`2¹³·√(kn)·ε⁻⁵` theoretically).
    pub m: usize,
}

impl L1TesterBudget {
    /// Tag naming this budget shape in serialized reports.
    pub const KIND: &'static str = "l1";

    /// The paper's constants, verbatim.
    pub fn theoretical(n: usize, k: usize, eps: f64) -> Result<Self, DistError> {
        Self::calibrated(n, k, eps, 1.0)
    }

    /// Scaled-down budget with the same `√(kn)`, `ε⁻⁵` shape.
    pub fn calibrated(n: usize, k: usize, eps: f64, scale: f64) -> Result<Self, DistError> {
        check_common(n, 2, eps, scale)?;
        check_k(k)?;
        let nf = n as f64;
        let r_exact = 16.0 * (6.0 * nf * nf).ln();
        let m_exact = 8192.0 * (k as f64 * nf).sqrt() * eps.powi(-5);
        Ok(L1TesterBudget {
            r: odd_at_least(r_exact * scale.sqrt(), 3, "r")?,
            m: count_from((m_exact * scale).max(16.0), "m")?,
        })
    }

    /// Total samples `r·m`.
    pub fn total_samples(&self) -> Result<usize, DistError> {
        checked_total(0, self.r, self.m)
    }
}

impl Serialize for L1TesterBudget {
    fn serialize(&self) -> Value {
        Value::map([
            ("kind", Value::Str(Self::KIND.into())),
            ("r", self.r.serialize()),
            ("m", self.m.serialize()),
        ])
    }
}

impl Deserialize for L1TesterBudget {
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        check_kind(value, Self::KIND)?;
        Ok(L1TesterBudget {
            r: field(value, "r")?,
            m: field(value, "m")?,
        })
    }
}

/// Budget for the standalone collision uniformity tester (the `k = 1`
/// base case of the paper's testers). Reports carry it as khist-core's
/// `BudgetSpec::Fixed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformityBudget {
    /// Number of samples drawn.
    pub m: usize,
}

impl UniformityBudget {
    /// The `Õ(√n/ε⁴)` budget from the Goldreich–Ron analysis (constant
    /// from [BFR+10]'s presentation), scaled by `scale` like the other
    /// calibrated budgets and floored at 16 samples. Fails when `n < 2`,
    /// on out-of-range parameters, or when the count exceeds `usize`.
    pub fn calibrated(n: usize, eps: f64, scale: f64) -> Result<Self, DistError> {
        if n < 2 {
            return Err(DistError::BadParameter {
                reason: format!("domain size {n} too small to test"),
            });
        }
        // The domain floor is checked above, with this budget's own message.
        check_common(n, 0, eps, scale)?;
        let exact = 16.0 * (n as f64).sqrt() / eps.powi(4) * scale;
        Ok(UniformityBudget {
            m: count_from(exact, "m")?.max(16),
        })
    }

    /// The unscaled theoretical budget.
    pub fn theoretical(n: usize, eps: f64) -> Result<Self, DistError> {
        Self::calibrated(n, eps, 1.0)
    }
}

/// Sample budget for the Birgé-bucketing monotonicity tester:
/// bucket-mass estimation needs `O(B/ε²)` samples for its
/// `B = ⌈ln n / (ε/2)⌉` buckets (union bound over buckets), scaled by
/// `scale` and floored at 64 samples.
///
/// Checked like the other budgets: out-of-range `ε`/`scale` or a sample
/// count exceeding `usize` is an error, not a saturated count. Any `n` is
/// accepted (`n ≤ 1` counts as one bucket).
pub fn monotonicity_budget(n: usize, eps: f64, scale: f64) -> Result<usize, DistError> {
    check_common(n, 0, eps, scale)?;
    let buckets = (((n as f64).ln() / (eps / 2.0)).ceil()).max(1.0);
    Ok(count_from(16.0 * buckets / (eps * eps) * scale, "m")?.max(64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learner_theoretical_formulas() {
        let n = 100;
        let k = 4;
        let eps = 0.1;
        let b = LearnerBudget::theoretical(n, k, eps).unwrap();
        let xi = eps / (k as f64 * (10.0f64).ln());
        assert!((b.xi - xi).abs() < 1e-12);
        let ell = ((12.0 * 10_000.0f64).ln() / (2.0 * xi * xi)).ceil() as usize;
        assert_eq!(b.ell, ell);
        assert_eq!(b.m, (24.0 / (xi * xi)).ceil() as usize);
        assert_eq!(b.q, (4.0 * (10.0f64).ln()).ceil() as usize);
        // r is ln(6n²) rounded up to odd
        let r_exact = (6.0 * 10_000.0f64).ln();
        assert!(b.r >= r_exact as usize && b.r % 2 == 1);
    }

    #[test]
    fn learner_total_samples() {
        let b = LearnerBudget {
            xi: 0.1,
            ell: 100,
            r: 5,
            m: 20,
            q: 3,
        };
        assert_eq!(b.total_samples().unwrap(), 200);
    }

    #[test]
    fn calibrated_scales_down_monotonically() {
        let full = LearnerBudget::theoretical(1000, 5, 0.1).unwrap();
        let half = LearnerBudget::calibrated(1000, 5, 0.1, 0.5).unwrap();
        let tiny = LearnerBudget::calibrated(1000, 5, 0.1, 0.01).unwrap();
        assert!(half.ell < full.ell && tiny.ell < half.ell);
        assert!(half.m < full.m && tiny.m < half.m);
        assert!(tiny.r <= half.r && half.r <= full.r);
        // q is a structural parameter, not a sample count: unchanged
        assert_eq!(half.q, full.q);
        assert_eq!(half.xi, full.xi);
    }

    #[test]
    fn budgets_grow_with_log_n() {
        let small = LearnerBudget::theoretical(100, 4, 0.1).unwrap();
        let large = LearnerBudget::theoretical(10_000, 4, 0.1).unwrap();
        // ℓ scales with ln(12n²): doubling ln n roughly doubles ℓ.
        assert!(large.ell > small.ell);
        let ratio = large.ell as f64 / small.ell as f64;
        let expect = (12.0f64 * 1e8).ln() / (12.0f64 * 1e4).ln();
        assert!((ratio - expect).abs() < 0.05, "ratio {ratio} vs {expect}");
    }

    #[test]
    fn l2_budget_shape() {
        let b1 = L2TesterBudget::theoretical(256, 0.5).unwrap();
        let b2 = L2TesterBudget::theoretical(65536, 0.5).unwrap();
        // m ∝ ln n → ratio 2 between n and n²
        let ratio = b2.m as f64 / b1.m as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio = {ratio}");
        // ε⁻⁴: halving ε multiplies m by 16
        let be = L2TesterBudget::theoretical(256, 0.25).unwrap();
        let eratio = be.m as f64 / b1.m as f64;
        assert!((eratio - 16.0).abs() < 0.1, "eratio = {eratio}");
    }

    #[test]
    fn l1_budget_shape() {
        let b1 = L1TesterBudget::theoretical(1000, 4, 0.5).unwrap();
        let b4 = L1TesterBudget::theoretical(4000, 4, 0.5).unwrap();
        // m ∝ √n → ratio 2 when n quadruples
        let ratio = b4.m as f64 / b1.m as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio = {ratio}");
        let bk = L1TesterBudget::theoretical(1000, 16, 0.5).unwrap();
        let kratio = bk.m as f64 / b1.m as f64;
        assert!((kratio - 2.0).abs() < 0.01, "kratio = {kratio}");
    }

    #[test]
    fn l1_theoretical_magnitude_matches_paper() {
        // m = 2¹³·√(kn)/ε⁵ for n = 1000, k = 4, ε = 0.5:
        // 8192 · √4000 · 32 ≈ 16.6M — the "astronomical" constant the
        // calibrated profiles exist to tame.
        let b = L1TesterBudget::theoretical(1000, 4, 0.5).unwrap();
        let expect = 8192.0 * 4000.0f64.sqrt() * 32.0;
        assert!((b.m as f64 - expect).abs() / expect < 0.01);
    }

    #[test]
    fn r_is_always_odd() {
        for scale in [1.0, 0.5, 0.1, 0.01] {
            assert_eq!(
                LearnerBudget::calibrated(500, 3, 0.2, scale).unwrap().r % 2,
                1
            );
            assert_eq!(
                L2TesterBudget::calibrated(500, 0.2, scale).unwrap().r % 2,
                1
            );
            assert_eq!(
                L1TesterBudget::calibrated(500, 3, 0.2, scale).unwrap().r % 2,
                1
            );
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(LearnerBudget::theoretical(10, 2, 1.5).is_err());
        assert!(LearnerBudget::theoretical(10, 2, 0.0).is_err());
        assert!(LearnerBudget::theoretical(0, 2, 0.5).is_err());
        assert!(LearnerBudget::theoretical(10, 0, 0.5).is_err());
        assert!(LearnerBudget::calibrated(10, 2, 0.5, 0.0).is_err());
        assert!(LearnerBudget::calibrated(10, 2, 0.5, 1.5).is_err());
        assert!(L2TesterBudget::theoretical(1, 0.5).is_err());
        assert!(L1TesterBudget::theoretical(100, 0, 0.5).is_err());
    }

    #[test]
    fn extreme_parameters_error_instead_of_overflowing() {
        // Satellite: ε⁻⁴ / ε⁻⁵ / ξ⁻² blow past usize for microscopic ε —
        // the constructors must say so instead of silently saturating.
        let err = LearnerBudget::theoretical(100, 1_000_000, 1e-300).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
        let err = L2TesterBudget::theoretical(100, 1e-100).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
        let err = L1TesterBudget::theoretical(usize::MAX, 1000, 1e-60).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn total_samples_checked_against_overflow() {
        let b = L1TesterBudget {
            r: usize::MAX / 2,
            m: 3,
        };
        let err = b.total_samples().unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
        let b = LearnerBudget {
            xi: 0.1,
            ell: usize::MAX,
            r: 1,
            m: 1,
            q: 1,
        };
        assert!(b.total_samples().is_err());
    }

    #[test]
    fn floors_keep_budgets_usable() {
        // Even with a microscopic scale the budget stays executable.
        let b = LearnerBudget::calibrated(100, 2, 0.3, 1e-6).unwrap();
        assert!(b.ell >= 16 && b.m >= 16 && b.r >= 3);
    }

    #[test]
    fn kinds_tag_serialized_budgets() {
        let learner = LearnerBudget::calibrated(500, 3, 0.2, 0.1).unwrap();
        let l2 = L2TesterBudget::theoretical(256, 0.5).unwrap();
        let l1 = L1TesterBudget::calibrated(256, 4, 0.3, 0.05).unwrap();
        let tags = [learner.serialize(), l2.serialize(), l1.serialize()]
            .map(|value| value.get("kind").and_then(Value::as_str).map(String::from));
        let kinds = [
            LearnerBudget::KIND,
            L2TesterBudget::KIND,
            L1TesterBudget::KIND,
        ];
        assert_eq!(kinds, ["learner", "l2", "l1"]);
        assert_eq!(tags, kinds.map(|kind| Some(kind.to_string())));
    }

    #[test]
    fn budgets_serde_round_trip() {
        let learner = LearnerBudget::calibrated(500, 3, 0.2, 0.1).unwrap();
        let text = serde::json::to_string(&learner.serialize()).unwrap();
        let parsed = serde::json::from_str(&text).unwrap();
        assert_eq!(LearnerBudget::deserialize(&parsed).unwrap(), learner);
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("learner"));

        let l2 = L2TesterBudget::calibrated(256, 0.3, 0.05).unwrap();
        let round = L2TesterBudget::deserialize(
            &serde::json::from_str(&serde::json::to_string(&l2.serialize()).unwrap()).unwrap(),
        )
        .unwrap();
        assert_eq!(round, l2);

        let l1 = L1TesterBudget::calibrated(256, 4, 0.3, 0.05).unwrap();
        let round = L1TesterBudget::deserialize(&l1.serialize()).unwrap();
        assert_eq!(round, l1);

        // Missing fields are reported, not defaulted.
        assert!(LearnerBudget::deserialize(&Value::map([("xi", Value::F64(0.1))])).is_err());
    }

    #[test]
    fn cross_kind_deserialization_is_rejected() {
        // L1 and L2 budgets share the {r, m} shape; the kind tag is what
        // keeps a serialized L2 budget from masquerading as an L1 one.
        let l2 = L2TesterBudget::calibrated(256, 0.3, 0.05).unwrap();
        let err = L1TesterBudget::deserialize(&l2.serialize()).unwrap_err();
        assert!(err.to_string().contains("not 'l1'"), "{err}");
        let l1 = L1TesterBudget::calibrated(256, 4, 0.3, 0.05).unwrap();
        assert!(L2TesterBudget::deserialize(&l1.serialize()).is_err());
        assert!(LearnerBudget::deserialize(&l2.serialize()).is_err());
        // An untagged map is tolerated (hand-written input).
        let untagged = Value::map([("r", Value::U64(5)), ("m", Value::U64(100))]);
        assert_eq!(
            L1TesterBudget::deserialize(&untagged).unwrap(),
            L1TesterBudget { r: 5, m: 100 }
        );
    }

    #[test]
    fn uniformity_and_monotonicity_budgets_are_pinned() {
        // (n, ε, scale) → (UniformityBudget m, monotonicity_budget): the
        // values both budgets returned in khist-core before they moved
        // here. The last row lands on both floors (16 and 64).
        let pinned = [
            (2, 0.1, 1.0, 226_275, 22_400),
            (2, 0.1, 0.01, 2_263, 224),
            (2, 0.3, 1.0, 2_794, 889),
            (2, 0.3, 0.01, 28, 64),
            (64, 0.1, 1.0, 1_280_000, 134_400),
            (64, 0.1, 0.01, 12_800, 1_344),
            (64, 0.3, 1.0, 15_803, 4_978),
            (64, 0.3, 0.01, 159, 64),
            (1024, 0.1, 1.0, 5_120_000, 222_400),
            (1024, 0.1, 0.01, 51_200, 2_224),
            (1024, 0.3, 1.0, 63_210, 8_356),
            (1024, 0.3, 0.01, 633, 84),
            (2, 0.9, 0.01, 16, 64),
        ];
        for (n, eps, scale, uniformity, monotone) in pinned {
            let case = format!("n = {n}, ε = {eps}, scale = {scale}");
            let b = UniformityBudget::calibrated(n, eps, scale).unwrap();
            assert_eq!(b.m, uniformity, "{case}");
            assert_eq!(
                monotonicity_budget(n, eps, scale).unwrap(),
                monotone,
                "{case}"
            );
        }
        // The monotonicity budget has no domain floor.
        assert_eq!(monotonicity_budget(1, 0.3, 1.0).unwrap(), 178);
        assert_eq!(monotonicity_budget(1, 0.9, 0.01).unwrap(), 64);
    }

    #[test]
    fn uniformity_and_monotonicity_budget_errors_are_pinned() {
        let uniformity = |n, eps, scale| {
            UniformityBudget::calibrated(n, eps, scale)
                .unwrap_err()
                .to_string()
        };
        let monotone = |n, eps, scale| monotonicity_budget(n, eps, scale).unwrap_err().to_string();
        assert_eq!(
            uniformity(1, 0.3, 1.0),
            "bad parameter: domain size 1 too small to test"
        );
        for (eps, scale, message) in [
            (0.0, 1.0, "bad parameter: ε = 0 must lie in (0, 1)"),
            (1.0, 1.0, "bad parameter: ε = 1 must lie in (0, 1)"),
            (0.3, 0.0, "bad parameter: scale = 0 must lie in (0, 1]"),
            (0.3, 1.5, "bad parameter: scale = 1.5 must lie in (0, 1]"),
            (
                1e-300,
                1.0,
                "bad parameter: budget overflow: m = inf exceeds usize",
            ),
        ] {
            assert_eq!(uniformity(64, eps, scale), message);
            assert_eq!(monotone(64, eps, scale), message);
        }
        assert_eq!(
            uniformity(1024, 1e-5, 1.0),
            "bad parameter: budget overflow: m = 5.120e22 exceeds usize"
        );
        assert_eq!(
            monotone(1024, 1e-8, 1.0),
            "bad parameter: budget overflow: m = 2.218e26 exceeds usize"
        );
    }

    #[test]
    fn check_eps_accepts_only_the_open_unit_interval() {
        for eps in [1e-300, 0.5, 0.999] {
            assert!(check_eps(eps).is_ok(), "{eps}");
        }
        for eps in [0.0, -0.1, 1.0, f64::NAN, f64::INFINITY] {
            let err = check_eps(eps).unwrap_err().to_string();
            assert_eq!(err, format!("bad parameter: ε = {eps} must lie in (0, 1)"));
        }
    }
}
