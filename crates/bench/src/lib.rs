//! Shared helpers of the `powersparse` benchmark harness, the
//! `experiments` binary (`src/bin/experiments.rs`): markdown table rows
//! and the optional allocation gauges. The binary runs the paper's tables
//! and the workload suite through the `powersparse-workloads` runner.

pub mod alloc_gauge;

/// Formats a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}
