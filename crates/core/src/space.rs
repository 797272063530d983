//! Utility spaces: the full orthant `L` and restricted convex spaces `U`.
//!
//! RRRM (Definition 4) minimizes rank-regret over a convex `U ⊆ L`. Because
//! ranks depend only on the *direction* of a utility vector, a space is
//! characterized by the set of rays it contains; every implementation
//! answers three questions:
//!
//! * membership of a direction ([`UtilitySpace::contains_direction`]);
//! * sampling a direction ([`UtilitySpace::sample_direction`]) — used by
//!   HDRRM's `Da`, by MDRRRr and by the regret estimators;
//! * an optional polyhedral description `A·u ≥ 0`
//!   ([`UtilitySpace::cone_rows`]) — used by LP-based routines (restricted
//!   skyline, MDRRR). Non-polyhedral spaces (spherical caps) return `None`
//!   and remain usable by all sampling-based algorithms.
//!
//! The concrete spaces cover the restricted-space literature the paper
//! cites: convex polytopes/cones \[9\], \[18\] ([`ConeSpace`]), weak rankings
//! \[12\] used in the paper's own RRRM experiments ([`WeakRankingSpace`]),
//! axis-parallel weight boxes \[16\] ([`BoxSpace`]) and hyper-spheres \[17\]
//! ([`SphereCap`]).

use rand::RngCore;

use crate::sampling;
use crate::utility::{dot, l2_norm};

/// Tolerance for membership tests on direction vectors.
const DIR_TOL: f64 = 1e-9;
/// Rejection sampling attempts before falling back to a deterministic
/// interior point.
const MAX_REJECT: usize = 10_000;

/// A convex space of utility vectors, closed under positive scaling.
pub trait UtilitySpace: Send + Sync {
    /// Attribute dimensionality `d`.
    fn dim(&self) -> usize;

    /// Does the ray through `u` belong to the space? Must be scale
    /// invariant and reject the zero vector and vectors outside the
    /// non-negative orthant.
    fn contains_direction(&self, u: &[f64]) -> bool;

    /// Sample a unit-norm direction in the space (uniform on the sphere
    /// patch for the built-in spaces, matching the paper's user model).
    fn sample_direction(&self, rng: &mut dyn RngCore) -> Vec<f64>;

    /// Homogeneous polyhedral rows `row · u ≥ 0` describing the space inside
    /// the orthant, or `None` when the space is not polyhedral. The orthant
    /// constraints `u ≥ 0` are implicit and must not be included.
    fn cone_rows(&self) -> Option<Vec<Vec<f64>>>;

    /// Whether this space is the full orthant `L` (lets algorithms skip
    /// restricted-space machinery).
    fn is_full(&self) -> bool {
        false
    }

    /// Human-readable label that names every parameter defining the
    /// space, so two spaces with equal labels are the same space (spaces
    /// carry no structural equality of their own; callers compare labels).
    fn label(&self) -> String;

    /// Clone into an owned trait object. Prepared solvers keep the space
    /// they were built against so later queries (with new sample budgets)
    /// can draw fresh directions from it.
    fn clone_box(&self) -> Box<dyn UtilitySpace>;
}

impl Clone for Box<dyn UtilitySpace> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

fn in_orthant(u: &[f64]) -> bool {
    u.iter().all(|&x| x >= -DIR_TOL) && l2_norm(u) > DIR_TOL
}

// ------------------------------------------------------------------------
// Full space L
// ------------------------------------------------------------------------

/// The full non-negative orthant `L` (the RRM problem's function class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullSpace {
    d: usize,
}

impl FullSpace {
    pub fn new(d: usize) -> Self {
        assert!(d >= 1);
        Self { d }
    }
}

impl UtilitySpace for FullSpace {
    fn dim(&self) -> usize {
        self.d
    }

    fn contains_direction(&self, u: &[f64]) -> bool {
        u.len() == self.d && in_orthant(u)
    }

    fn sample_direction(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        sampling::orthant_direction(self.d, rng)
    }

    fn cone_rows(&self) -> Option<Vec<Vec<f64>>> {
        Some(Vec::new())
    }

    fn is_full(&self) -> bool {
        true
    }

    fn label(&self) -> String {
        format!("L (full orthant, d={})", self.d)
    }

    fn clone_box(&self) -> Box<dyn UtilitySpace> {
        Box::new(*self)
    }
}

// ------------------------------------------------------------------------
// Polyhedral cone
// ------------------------------------------------------------------------

/// A polyhedral cone `{u ≥ 0 : A·u ≥ 0}` given by its rows.
///
/// This is the most general restricted space the LP-based routines support;
/// the paper's "any convex space" claim is realized by this type together
/// with the sampling-only [`SphereCap`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConeSpace {
    d: usize,
    rows: Vec<Vec<f64>>,
}

impl ConeSpace {
    /// Build a cone from homogeneous rows `row · u ≥ 0`.
    ///
    /// # Panics
    /// Panics when a row has the wrong arity.
    pub fn new(d: usize, rows: Vec<Vec<f64>>) -> Self {
        assert!(d >= 1);
        for row in &rows {
            assert_eq!(row.len(), d, "cone row arity must equal d");
        }
        Self { d, rows }
    }

    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }
}

impl UtilitySpace for ConeSpace {
    fn dim(&self) -> usize {
        self.d
    }

    fn contains_direction(&self, u: &[f64]) -> bool {
        if u.len() != self.d || !in_orthant(u) {
            return false;
        }
        let norm = l2_norm(u);
        self.rows.iter().all(|row| dot(row, u) >= -DIR_TOL * norm)
    }

    fn sample_direction(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        for _ in 0..MAX_REJECT {
            let u = sampling::orthant_direction(self.d, rng);
            if self.contains_direction(&u) {
                return u;
            }
        }
        panic!(
            "rejection sampling failed after {MAX_REJECT} attempts; \
             the cone is (nearly) empty — validate it with rrm_lp::cone::cone_nonempty"
        );
    }

    fn cone_rows(&self) -> Option<Vec<Vec<f64>>> {
        Some(self.rows.clone())
    }

    fn label(&self) -> String {
        format!("cone (rows {:?}, d={})", self.rows, self.d)
    }

    fn clone_box(&self) -> Box<dyn UtilitySpace> {
        Box::new(self.clone())
    }
}

// ------------------------------------------------------------------------
// Weak rankings (the paper's RRRM experiments, Section VI-B.5)
// ------------------------------------------------------------------------

/// The weak-ranking space `U = {u ∈ R^d_+ : u[i] ≥ u[i+1] for i ∈ [c]}`.
///
/// The paper's RRRM experiments use this with `c = 2`. Sampling is exact
/// (not rejection-based): the first `c + 1` coordinates of a uniform orthant
/// direction are sorted descending, which maps the uniform measure onto the
/// cone uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeakRankingSpace {
    d: usize,
    c: usize,
}

impl WeakRankingSpace {
    /// # Panics
    /// Panics unless `1 ≤ c ≤ d - 1`.
    pub fn new(d: usize, c: usize) -> Self {
        assert!(c >= 1 && c < d, "weak ranking requires 1 <= c <= d-1");
        Self { d, c }
    }

    pub fn c(&self) -> usize {
        self.c
    }
}

impl UtilitySpace for WeakRankingSpace {
    fn dim(&self) -> usize {
        self.d
    }

    fn contains_direction(&self, u: &[f64]) -> bool {
        if u.len() != self.d || !in_orthant(u) {
            return false;
        }
        let norm = l2_norm(u);
        (0..self.c).all(|i| u[i] - u[i + 1] >= -DIR_TOL * norm)
    }

    fn sample_direction(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        let mut u = sampling::orthant_direction(self.d, rng);
        u[..=self.c].sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite"));
        u
    }

    fn cone_rows(&self) -> Option<Vec<Vec<f64>>> {
        let mut rows = Vec::with_capacity(self.c);
        for i in 0..self.c {
            let mut row = vec![0.0; self.d];
            row[i] = 1.0;
            row[i + 1] = -1.0;
            rows.push(row);
        }
        Some(rows)
    }

    fn label(&self) -> String {
        format!("weak ranking (c={}, d={})", self.c, self.d)
    }

    fn clone_box(&self) -> Box<dyn UtilitySpace> {
        Box::new(*self)
    }
}

// ------------------------------------------------------------------------
// Weight box
// ------------------------------------------------------------------------

/// An axis-parallel box on L1-normalized weights:
/// `U = {u ≥ 0 : lo[i] ≤ u[i]/Σu ≤ hi[i]}` (the hyper-rectangle model of
/// Liu et al. \[16\]).
#[derive(Debug, Clone, PartialEq)]
pub struct BoxSpace {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BoxSpace {
    /// # Panics
    /// Panics when the bounds are malformed (`lo[i] > hi[i]`, negative
    /// bounds, `Σ lo > 1`, or `Σ hi < 1` — each makes the box empty on the
    /// weight simplex).
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len());
        assert!(!lo.is_empty());
        for (l, h) in lo.iter().zip(&hi) {
            assert!(*l >= 0.0 && l <= h, "need 0 <= lo <= hi");
        }
        assert!(lo.iter().sum::<f64>() <= 1.0 + 1e-12, "Σ lo must not exceed 1");
        assert!(hi.iter().sum::<f64>() >= 1.0 - 1e-12, "Σ hi must reach 1");
        Self { lo, hi }
    }

    /// The box around a point estimate `w` (on the weight simplex) with
    /// per-coordinate slack `eps`, clamped to `[0, 1]`. This is the "expand
    /// a mined vector into a candidate space" workflow from the paper's
    /// introduction.
    pub fn around(w: &[f64], eps: f64) -> Self {
        let lo = w.iter().map(|&x| (x - eps).max(0.0)).collect();
        let hi = w.iter().map(|&x| (x + eps).min(1.0)).collect();
        Self::new(lo, hi)
    }
}

impl UtilitySpace for BoxSpace {
    fn dim(&self) -> usize {
        self.lo.len()
    }

    fn contains_direction(&self, u: &[f64]) -> bool {
        if u.len() != self.lo.len() || !in_orthant(u) {
            return false;
        }
        let s: f64 = u.iter().sum();
        if s <= DIR_TOL {
            return false;
        }
        u.iter().zip(self.lo.iter().zip(&self.hi)).all(|(&x, (&l, &h))| {
            let w = x / s;
            w >= l - DIR_TOL && w <= h + DIR_TOL
        })
    }

    fn sample_direction(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        let d = self.dim();
        for _ in 0..MAX_REJECT {
            let u = sampling::orthant_direction(d, rng);
            if self.contains_direction(&u) {
                return u;
            }
        }
        // Narrow boxes defeat rejection sampling; fall back to a direct
        // draw inside the box, re-normalized onto the weight simplex. The
        // result stays inside U (membership is what algorithms rely on)
        // even though the distribution is no longer exactly uniform.
        use rand::Rng;
        loop {
            let w: Vec<f64> = self
                .lo
                .iter()
                .zip(&self.hi)
                .map(|(&l, &h)| if h > l { rng.random_range(l..=h) } else { l })
                .collect();
            let s: f64 = w.iter().sum();
            if s > DIR_TOL {
                let cand: Vec<f64> = w.iter().map(|x| x / s).collect();
                if self.contains_direction(&cand) {
                    let n = l2_norm(&cand);
                    return cand.iter().map(|x| x / n).collect();
                }
            }
        }
    }

    fn cone_rows(&self) -> Option<Vec<Vec<f64>>> {
        // lo[i]·Σu ≤ u[i] ≤ hi[i]·Σu, written homogeneously.
        let d = self.dim();
        let mut rows = Vec::with_capacity(2 * d);
        for i in 0..d {
            if self.lo[i] > 0.0 {
                let mut row = vec![-self.lo[i]; d];
                row[i] += 1.0;
                rows.push(row);
            }
            if self.hi[i] < 1.0 {
                let mut row = vec![self.hi[i]; d];
                row[i] -= 1.0;
                rows.push(row);
            }
        }
        Some(rows)
    }

    fn label(&self) -> String {
        format!("weight box (lo {:?}, hi {:?}, d={})", self.lo, self.hi, self.dim())
    }

    fn clone_box(&self) -> Box<dyn UtilitySpace> {
        Box::new(self.clone())
    }
}

// ------------------------------------------------------------------------
// Spherical cap
// ------------------------------------------------------------------------

/// A spherical cap `U = {u : angle(u, center) ≤ α}` intersected with the
/// orthant (the hyper-sphere model of Mouratidis et al. \[17\]). Convex for
/// `α ≤ π/2`. Not polyhedral, so [`UtilitySpace::cone_rows`] returns `None`
/// and only sampling-based algorithms (HDRRM, MDRRRr, estimators) accept it.
#[derive(Debug, Clone, PartialEq)]
pub struct SphereCap {
    center: Vec<f64>,
    cos_alpha: f64,
}

impl SphereCap {
    /// # Panics
    /// Panics when `center` is not a non-zero orthant vector or
    /// `alpha` is outside `(0, π/2]`.
    pub fn new(center: &[f64], alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= std::f64::consts::FRAC_PI_2);
        assert!(in_orthant(center), "cap center must lie in the orthant");
        let n = l2_norm(center);
        Self { center: center.iter().map(|x| x / n).collect(), cos_alpha: alpha.cos() }
    }
}

impl UtilitySpace for SphereCap {
    fn dim(&self) -> usize {
        self.center.len()
    }

    fn contains_direction(&self, u: &[f64]) -> bool {
        if u.len() != self.center.len() || !in_orthant(u) {
            return false;
        }
        let norm = l2_norm(u);
        dot(u, &self.center) >= (self.cos_alpha - DIR_TOL) * norm
    }

    fn sample_direction(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        for _ in 0..MAX_REJECT {
            let u = sampling::orthant_direction(self.dim(), rng);
            if self.contains_direction(&u) {
                return u;
            }
        }
        // Tiny caps: jitter around the center until a member appears.
        loop {
            let mut u: Vec<f64> =
                self.center.iter().map(|&c| (c + 0.05 * sampling::gauss(rng)).max(0.0)).collect();
            let n = l2_norm(&u);
            if n > DIR_TOL {
                for x in &mut u {
                    *x /= n;
                }
                if self.contains_direction(&u) {
                    return u;
                }
            }
        }
    }

    fn cone_rows(&self) -> Option<Vec<Vec<f64>>> {
        None
    }

    fn label(&self) -> String {
        format!(
            "sphere cap (center {:?}, cos alpha={:?}, d={})",
            self.center,
            self.cos_alpha,
            self.dim()
        )
    }

    fn clone_box(&self) -> Box<dyn UtilitySpace> {
        Box::new(self.clone())
    }
}

// ------------------------------------------------------------------------
// Non-uniform user populations (Section V-C)
// ------------------------------------------------------------------------

/// The full orthant with a *non-uniform* direction distribution: samples
/// concentrate around a `center` direction with strength `kappa`
/// (`kappa = 0` recovers the uniform sphere patch; larger values focus the
/// mass like a von Mises–Fisher distribution).
///
/// This realizes the paper's Section V-C remark that HDRRM "can generalize
/// to any other distribution through some modifications: the samples in
/// `Da` are generated based on the specific distribution of `S` instead of
/// a uniform distribution". Membership (and hence the certified regret) is
/// unchanged — only where the probabilistic Theorem 6 mass sits moves.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasedOrthantSpace {
    center: Vec<f64>,
    kappa: f64,
}

impl BiasedOrthantSpace {
    /// # Panics
    /// Panics when `center` is not a non-zero orthant vector or
    /// `kappa < 0`.
    pub fn new(center: &[f64], kappa: f64) -> Self {
        assert!(kappa >= 0.0);
        assert!(in_orthant(center), "center must lie in the orthant");
        let n = l2_norm(center);
        Self { center: center.iter().map(|x| x / n).collect(), kappa }
    }
}

impl UtilitySpace for BiasedOrthantSpace {
    fn dim(&self) -> usize {
        self.center.len()
    }

    fn contains_direction(&self, u: &[f64]) -> bool {
        u.len() == self.center.len() && in_orthant(u)
    }

    fn sample_direction(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        // Gaussian perturbation of the scaled center, folded into the
        // orthant: the standard cheap approximation of a vMF draw.
        loop {
            let u: Vec<f64> = self
                .center
                .iter()
                .map(|&c| (self.kappa * c + sampling::gauss(rng)).abs())
                .collect();
            let n = l2_norm(&u);
            if n > DIR_TOL {
                return u.iter().map(|x| x / n).collect();
            }
        }
    }

    fn cone_rows(&self) -> Option<Vec<Vec<f64>>> {
        Some(Vec::new()) // membership is the full orthant
    }

    fn is_full(&self) -> bool {
        // Deliberately false: algorithms must use this space's sampler
        // rather than substituting the uniform one.
        false
    }

    fn label(&self) -> String {
        format!(
            "biased orthant (center {:?}, kappa={:?}, d={})",
            self.center,
            self.kappa,
            self.dim()
        )
    }

    fn clone_box(&self) -> Box<dyn UtilitySpace> {
        Box::new(self.clone())
    }
}

// ------------------------------------------------------------------------
// Batch kernels
// ------------------------------------------------------------------------

/// Membership of every direction in `dirs`, chunked over `pol` worker
/// threads (the classification step HDRRM runs when restricting a polar
/// grid to `U`, and the filter estimators apply to candidate pools).
///
/// Per-direction answers are independent, so the output is identical at
/// any thread count; order follows `dirs`.
pub fn batch_contains(
    space: &dyn UtilitySpace,
    dirs: &[Vec<f64>],
    pol: crate::exec::Parallelism,
) -> Vec<bool> {
    rrm_par::par_map(dirs, pol, |u| space.contains_direction(u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn full_space_membership() {
        let l = FullSpace::new(3);
        assert!(l.is_full());
        assert!(l.contains_direction(&[1.0, 0.0, 2.0]));
        assert!(!l.contains_direction(&[1.0, -0.5, 0.0]));
        assert!(!l.contains_direction(&[0.0, 0.0, 0.0]));
        assert!(!l.contains_direction(&[1.0, 1.0])); // wrong arity
        assert_eq!(l.cone_rows().unwrap().len(), 0);
    }

    #[test]
    fn full_space_samples_members() {
        let l = FullSpace::new(4);
        let mut r = rng();
        for _ in 0..50 {
            let u = l.sample_direction(&mut r);
            assert!(l.contains_direction(&u));
        }
    }

    #[test]
    fn membership_is_scale_invariant() {
        let w = WeakRankingSpace::new(4, 2);
        let u = [0.5, 0.3, 0.2, 0.4];
        let scaled: Vec<f64> = u.iter().map(|x| x * 1000.0).collect();
        assert_eq!(w.contains_direction(&u), w.contains_direction(&scaled));
    }

    #[test]
    fn weak_ranking_membership_and_rows() {
        let w = WeakRankingSpace::new(4, 2);
        assert!(w.contains_direction(&[0.5, 0.3, 0.2, 0.9])); // last attr free
        assert!(!w.contains_direction(&[0.3, 0.5, 0.2, 0.0]));
        let rows = w.cone_rows().unwrap();
        assert_eq!(rows, vec![vec![1.0, -1.0, 0.0, 0.0], vec![0.0, 1.0, -1.0, 0.0]]);
    }

    #[test]
    fn weak_ranking_sampler_exact() {
        let w = WeakRankingSpace::new(5, 3);
        let mut r = rng();
        for _ in 0..200 {
            let u = w.sample_direction(&mut r);
            assert!(w.contains_direction(&u), "{u:?}");
            let norm: f64 = u.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "weak ranking requires")]
    fn weak_ranking_rejects_bad_c() {
        WeakRankingSpace::new(3, 3);
    }

    #[test]
    fn cone_space_matches_weak_ranking() {
        let w = WeakRankingSpace::new(3, 1);
        let c = ConeSpace::new(3, w.cone_rows().unwrap());
        let mut r = rng();
        for _ in 0..100 {
            let u = sampling::orthant_direction(3, &mut r);
            assert_eq!(w.contains_direction(&u), c.contains_direction(&u), "{u:?}");
        }
        for _ in 0..50 {
            let u = c.sample_direction(&mut r);
            assert!(w.contains_direction(&u));
        }
    }

    #[test]
    fn box_space_membership() {
        let b = BoxSpace::new(vec![0.2, 0.0], vec![0.8, 0.8]);
        assert!(b.contains_direction(&[0.5, 0.5]));
        assert!(b.contains_direction(&[5.0, 5.0])); // scale invariant
        assert!(!b.contains_direction(&[0.1, 0.9]));
        assert!(!b.contains_direction(&[1.0, 0.0])); // w2 = 0 < ... w1 = 1 > .8
    }

    #[test]
    fn box_space_rows_agree_with_membership() {
        let b = BoxSpace::new(vec![0.3, 0.1], vec![0.9, 0.7]);
        let rows = b.cone_rows().unwrap();
        let mut r = rng();
        for _ in 0..200 {
            let u = sampling::orthant_direction(2, &mut r);
            let by_rows = rows.iter().all(|row| dot(row, &u) >= -1e-9);
            assert_eq!(b.contains_direction(&u), by_rows, "{u:?}");
        }
    }

    #[test]
    fn box_space_narrow_fallback_sampler() {
        // A box too narrow for rejection sampling to hit reliably.
        let b = BoxSpace::around(&[0.7, 0.2, 0.1], 0.005);
        let mut r = rng();
        for _ in 0..10 {
            let u = b.sample_direction(&mut r);
            assert!(b.contains_direction(&u), "{u:?}");
        }
    }

    #[test]
    fn sphere_cap_membership_and_sampling() {
        let c = SphereCap::new(&[1.0, 1.0], 0.3);
        let exact = [std::f64::consts::FRAC_1_SQRT_2, std::f64::consts::FRAC_1_SQRT_2];
        assert!(c.contains_direction(&exact));
        assert!(!c.contains_direction(&[1.0, 0.0]));
        assert!(c.cone_rows().is_none());
        let mut r = rng();
        for _ in 0..50 {
            let u = c.sample_direction(&mut r);
            assert!(c.contains_direction(&u));
        }
    }

    #[test]
    fn sphere_cap_tiny_fallback() {
        let c = SphereCap::new(&[3.0, 1.0, 2.0], 0.01);
        let mut r = rng();
        let u = c.sample_direction(&mut r);
        assert!(c.contains_direction(&u));
    }

    #[test]
    fn biased_space_membership_is_full_orthant() {
        let b = BiasedOrthantSpace::new(&[0.7, 0.2, 0.1], 8.0);
        assert!(b.contains_direction(&[1.0, 0.0, 0.0]));
        assert!(b.contains_direction(&[0.0, 0.0, 1.0]));
        assert!(!b.contains_direction(&[1.0, -0.1, 0.0]));
        assert!(!b.is_full(), "must keep its own sampler");
        assert_eq!(b.cone_rows().unwrap().len(), 0);
    }

    #[test]
    fn biased_space_concentrates_with_kappa() {
        let center = [1.0, 1.0, 1.0];
        let mut r = rng();
        let mean_dot = |kappa: f64, r: &mut StdRng| {
            let b = BiasedOrthantSpace::new(&center, kappa);
            let c: Vec<f64> = center.iter().map(|x| x / 3f64.sqrt()).collect();
            (0..2000)
                .map(|_| {
                    let u = b.sample_direction(r);
                    crate::utility::dot(&u, &c)
                })
                .sum::<f64>()
                / 2000.0
        };
        let loose = mean_dot(0.0, &mut r);
        let tight = mean_dot(10.0, &mut r);
        assert!(tight > loose + 0.05, "kappa must concentrate: {loose} vs {tight}");
        assert!(tight > 0.98, "kappa = 10 should hug the center: {tight}");
    }

    #[test]
    fn batch_contains_matches_serial_at_any_thread_count() {
        use crate::exec::Parallelism;
        let w = WeakRankingSpace::new(3, 1);
        let mut r = rng();
        let dirs: Vec<Vec<f64>> = (0..73).map(|_| sampling::orthant_direction(3, &mut r)).collect();
        let serial: Vec<bool> = dirs.iter().map(|u| w.contains_direction(u)).collect();
        for pol in [Parallelism::Sequential, Parallelism::Fixed(2), Parallelism::Fixed(7)] {
            assert_eq!(batch_contains(&w, &dirs, pol), serial, "{pol:?}");
        }
    }

    #[test]
    fn labels_mention_dimension() {
        assert!(FullSpace::new(3).label().contains("d=3"));
        assert!(WeakRankingSpace::new(4, 2).label().contains("c=2"));
        assert!(BoxSpace::new(vec![0.0], vec![1.0]).label().contains("box"));
        assert!(SphereCap::new(&[1.0, 1.0], 0.5).label().contains("cap"));
        assert!(ConeSpace::new(2, vec![]).label().contains("cone"));
        assert!(BiasedOrthantSpace::new(&[1.0, 1.0], 2.0).label().contains("kappa"));
    }
}
