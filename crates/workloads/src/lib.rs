//! `powersparse-workloads` — the scenario corpus and declarative
//! experiment runner of the `powersparse` reproduction.
//!
//! The paper's claims live on *power graphs of structured topologies*:
//! its sparsification bounds matter precisely when `G^k` is dense while
//! `G` stays sparse. This crate turns that into an executable, versioned
//! benchmark surface:
//!
//! * [`Scenario`] — a declarative experiment: graph family × size ×
//!   power `k` × algorithm × engine × shard count. Built fluently
//!   ([`Scenario::new`] + builder methods) or parsed from a TOML-subset
//!   spec file ([`parse_suite`]).
//! * [`builtin_suite`] — the curated matrix spanning every graph family
//!   (random, power-law, unit-disk, grid/torus, caterpillar/broom trees,
//!   bounded-growth cluster graphs) and every engine backend.
//! * [`PaperTable`] — the scenario lists behind the paper's tables
//!   (Table 1's ruling-set and MIS comparisons, sparsification,
//!   shattering, network decomposition), run by the same runner.
//! * [`run_suite`] / [`run_scenario`] — execute any scenario matrix on
//!   the requested [`powersparse_congest::engine::RoundEngine`] backend,
//!   re-verify every output with the `powersparse_graphs::check`
//!   predicates (MIS independence + maximality, ruling-set packing +
//!   covering, sparsifier invariant I3 + domination) and collect rounds,
//!   messages, bits, peak queue depth, arena footprint and per-phase
//!   wall clock. The `_with` variants take [`RunOptions`]: a [`Repeat`]
//!   scheme (warmup + timed invocations × iterations) that turns the
//!   wall clock into [`WallStats`] (mean/min/max/95% CI), and an
//!   optional untimed probe run capturing a bounded per-round
//!   [`TraceRow`] activity trace.
//! * [`SuiteManifest`] — the structured JSON result
//!   (`BENCH_*.json`-ready), with an exact parse/serialize round trip
//!   for cross-run regression diffing.
//! * [`diff_manifests`] — field-by-field manifest comparison
//!   (`experiments suite --diff old.json new.json`): flags
//!   round/message/bit regressions beyond a relative tolerance, missing
//!   or reshaped scenarios and validation flips; wall clock gates only
//!   when both sides carry repeat statistics with disjoint confidence
//!   intervals.
//! * [`TrendReport`] — the cross-manifest trajectory (`experiments
//!   trend DIR`): every committed `BENCH_*.json` grouped per scenario,
//!   rounds/messages/bits/wall-clock across history, drift flagged
//!   against the per-scenario series median.
//!
//! The `experiments suite` and table subcommands of `powersparse-bench`
//! are the CLI front end; CI runs `experiments suite --smoke` and every
//! table at `--scale 1` on every PR.
//!
//! # Example
//!
//! ```
//! use powersparse_workloads::{run_scenario, GraphFamily, Scenario, SuiteManifest};
//!
//! let sc = Scenario::new(GraphFamily::Torus { rows: 6, cols: 6 })
//!     .k(2)
//!     .seed(7)
//!     .pooled(2);
//! let record = run_scenario(&sc).unwrap();
//! assert!(record.validation.passed, "{}", record.validation.detail);
//!
//! // Manifests round-trip through JSON exactly.
//! let manifest = SuiteManifest { suite: "doc".into(), runs: vec![record] };
//! let text = manifest.to_json_string();
//! assert_eq!(SuiteManifest::parse(&text).unwrap(), manifest);
//! ```

pub mod diff;
pub mod json;
pub mod manifest;
pub mod profile;
pub mod runner;
pub mod scenario;
pub mod trend;

pub use diff::{
    diff_manifests, diff_manifests_with, DiffOptions, DiffReport, FieldChange, ShapeChange,
};
pub use json::{Json, JsonError};
pub use manifest::{
    NetRecord, PhaseWall, ProfileStats, RecoveryRecord, RunRecord, SuiteManifest, TraceRow,
    Validation, WallStats,
};
pub use profile::{breakdown, chrome_trace, profile_stats, ProfileBreakdown, ShardProfile};
pub use runner::{
    profile_scenario, run_chaos_scenario, run_scenario, run_scenario_with, run_suite,
    run_suite_with, suite_params, ChaosSpec, Repeat, RunOptions,
};
pub use scenario::{
    builtin_suite, parse_suite, AlgorithmSpec, EngineSpec, GraphFamily, PaperTable, RecoverySpec,
    Scenario, SpecError, SuiteProfile, SHARDED_REMOVED,
};
pub use trend::{TrendPoint, TrendReport, TrendSeries};
