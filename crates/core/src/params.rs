//! Theory constants, with a paper-faithful preset and a laptop-scale
//! preset (README, *Substitutions*: scaled constants).
//!
//! The paper's constants (sampling factor 24, degree bound `72 log n`,
//! `8 log n`-wise independence, …) make every bound vacuous at simulation
//! scales — e.g. `72 log₂ n > n` for all `n ≤ 512`. Tests that verify the
//! stated bounds verbatim use [`TheoryParams::paper`]; experiments that
//! need the bounds to *bite* (so the asymptotic shape is visible) use
//! [`TheoryParams::scaled`], as every paper table and suite scenario
//! does.

/// Tunable constants of the sparsification and shattering machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoryParams {
    /// Sampling probability factor: stage `i` samples with probability
    /// `sample_base · 2^i · log₂ n / Δ_A`. Paper: 24.
    pub sample_base: f64,
    /// `Q`-degree bound factor: the sparsified set must satisfy
    /// `d(v, Q) ≤ degree_bound_factor · log₂ n`. Paper: 72 (= 3 × 24).
    pub degree_bound_factor: f64,
    /// Stage count offset: `r = ⌊log₂ Δ_A − log₂ log₂ n⌋ − stage_offset`.
    /// Paper: 5.
    pub stage_offset: i64,
    /// Independence used by the hash family: `kwise_factor · log₂ n`-wise.
    /// Paper: 8.
    pub kwise_factor: usize,
    /// Budget for the deterministic seed scan (README,
    /// *Substitutions*).
    pub seed_attempts: u64,
    /// Pre-shattering length factor: `Θ(shatter_factor · log Δ)` steps.
    pub shatter_factor: f64,
}

impl TheoryParams {
    /// The paper's constants, verbatim.
    pub fn paper() -> Self {
        Self {
            sample_base: 24.0,
            degree_bound_factor: 72.0,
            stage_offset: 5,
            kwise_factor: 8,
            seed_attempts: 4096,
            shatter_factor: 8.0,
        }
    }

    /// Laptop-scale constants: the same algorithms, with constants small
    /// enough that the bounds are non-vacuous at `n ≤ 10⁵`.
    pub fn scaled() -> Self {
        Self {
            sample_base: 1.5,
            degree_bound_factor: 6.0,
            stage_offset: 0,
            kwise_factor: 2,
            seed_attempts: 4096,
            shatter_factor: 3.0,
        }
    }

    /// `log₂ n`, clamped below by 1.
    pub fn log_n(n: usize) -> f64 {
        (n.max(2) as f64).log2()
    }

    /// The sparsified degree bound `degree_bound_factor · log₂ n`,
    /// rounded up.
    pub fn degree_bound(&self, n: usize) -> usize {
        (self.degree_bound_factor * Self::log_n(n)).ceil() as usize
    }

    /// Number of sampling stages
    /// `r = ⌊log₂ Δ_A − log₂ log₂ n⌋ − stage_offset`, clamped at 0.
    ///
    /// When `r = 0` the active set is already sparse enough and is
    /// returned unchanged (the `Δ_A < 2^offset·log n` case of Lemma 5.1).
    pub fn num_stages(&self, delta_a: usize, n: usize) -> usize {
        let log_da = (delta_a.max(1) as f64).log2();
        let log_log = Self::log_n(n).log2().max(0.0);
        let r = (log_da - log_log).floor() as i64 - self.stage_offset;
        r.max(0) as usize
    }

    /// Stage-`i` sampling probability
    /// `min(1, sample_base · 2^i · log₂ n / Δ_A)` (stages are 1-based).
    pub fn stage_probability(&self, i: usize, delta_a: usize, n: usize) -> f64 {
        let p = self.sample_base * 2f64.powi(i as i32) * Self::log_n(n) / delta_a.max(1) as f64;
        p.min(1.0)
    }

    /// High-active-degree threshold of stage `i`: `Δ_A / 2^i`.
    pub fn high_degree_threshold(&self, i: usize, delta_a: usize) -> f64 {
        delta_a as f64 / 2f64.powi(i as i32)
    }

    /// Independence parameter for an `n`-node graph:
    /// `max(2, kwise_factor · ⌈log₂ n⌉)`.
    pub fn independence(&self, n: usize) -> usize {
        (self.kwise_factor * Self::log_n(n).ceil() as usize).max(2)
    }

    /// Number of pre-shattering steps `⌈shatter_factor · log₂ Δ⌉ + 1`.
    pub fn shatter_steps(&self, delta: usize) -> usize {
        (self.shatter_factor * (delta.max(2) as f64).log2()).ceil() as usize + 1
    }
}

impl Default for TheoryParams {
    fn default() -> Self {
        Self::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let p = TheoryParams::paper();
        assert_eq!(p.sample_base, 24.0);
        assert_eq!(p.degree_bound(1024), 720);
        assert_eq!(p.kwise_factor, 8);
    }

    #[test]
    fn stage_count_matches_formula() {
        let p = TheoryParams::paper();
        // r = floor(log2 1024 - log2 log2 1024) - 5 = floor(10 - 3.32) - 5 = 1.
        assert_eq!(p.num_stages(1024, 1024), 1);
        // Small ΔA: no stages.
        assert_eq!(p.num_stages(16, 1024), 0);
    }

    #[test]
    fn scaled_stages_bite_at_small_n() {
        let p = TheoryParams::scaled();
        assert!(p.num_stages(64, 256) >= 3);
    }

    #[test]
    fn probabilities_monotone_and_clamped() {
        let p = TheoryParams::scaled();
        let mut last = 0.0;
        for i in 1..=8 {
            let pi = p.stage_probability(i, 256, 512);
            assert!(pi >= last);
            assert!(pi <= 1.0);
            last = pi;
        }
    }

    #[test]
    fn high_degree_threshold_halves() {
        let p = TheoryParams::scaled();
        assert_eq!(p.high_degree_threshold(1, 64), 32.0);
        assert_eq!(p.high_degree_threshold(3, 64), 8.0);
    }

    #[test]
    fn independence_floor() {
        let p = TheoryParams::scaled();
        assert!(p.independence(4) >= 2);
        assert_eq!(p.independence(1024), 20); // 2 * 10
    }
}
