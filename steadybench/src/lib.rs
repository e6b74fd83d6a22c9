//! `steadybench` — the repository benchmark of the `powersparse`
//! reproduction. See `README.md` in this directory for how to run it and
//! what each metric means.
//!
//! * [`spec`] — the workloads: scenario identities, pinned counters.
//! * [`run`] — one execution through the public API, layer by layer.
//! * [`wire`] — a counting [`powersparse_engine::wire::Transport`]
//!   decorator for the process engine's links.

pub mod run;
pub mod spec;
pub mod wire;

/// Median of `samples` (mean of the middle pair for an even count);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
