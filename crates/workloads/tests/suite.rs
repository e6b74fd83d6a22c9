//! Acceptance tests for the workload subsystem: the built-in smoke suite
//! satisfies the coverage bar (≥ 10 scenarios, ≥ 5 graph families, every
//! engine), every run passes its `check` validation, the JSON manifest
//! round-trips exactly, every family behaves identically on the
//! sequential and pooled backends, and every paper-table row validates.

use powersparse_workloads::{
    builtin_suite, run_scenario, run_scenario_with, run_suite, AlgorithmSpec, EngineSpec,
    GraphFamily, PaperTable, PhaseWall, Repeat, RunOptions, RunRecord, Scenario, SuiteManifest,
    SuiteProfile, WallStats,
};
use std::collections::BTreeSet;

/// Scenario coordinates for every algorithm ported to the step API in
/// PR 3 — the seeded-determinism surface below runs each of them.
fn ported_algorithm_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new(GraphFamily::Gnp {
            n: 80,
            avg_deg: 6.0,
        })
        .seed(17)
        .algorithm(AlgorithmSpec::BeepingMis),
        Scenario::new(GraphFamily::Gnp {
            n: 72,
            avg_deg: 5.0,
        })
        .seed(23)
        .algorithm(AlgorithmSpec::ShatterMis { two_phase: false }),
        Scenario::new(GraphFamily::ClusterGrid {
            rows: 3,
            cols: 3,
            cluster: 4,
        })
        .k(2)
        .seed(23)
        .algorithm(AlgorithmSpec::ShatterMis { two_phase: true }),
        Scenario::new(GraphFamily::Gnp {
            n: 84,
            avg_deg: 7.0,
        })
        .seed(31)
        .algorithm(AlgorithmSpec::BetaRulingSet { beta: 3 }),
        Scenario::new(GraphFamily::Grid { rows: 7, cols: 8 })
            .k(2)
            .algorithm(AlgorithmSpec::DetRulingK2),
        Scenario::new(GraphFamily::Torus { rows: 7, cols: 7 })
            .k(2)
            .algorithm(AlgorithmSpec::PowerNd),
    ]
}

/// Strips the only nondeterministic fields (wall clock and its
/// statistics) so records can be compared as JSON bytes.
fn dewalled(mut rec: RunRecord) -> RunRecord {
    rec.wall = PhaseWall::default();
    rec.wall_stats = WallStats::single(0);
    rec
}

/// Every paper table at scale 1 (what CI's table step prints) runs
/// through the runner and every row passes its `check` predicates —
/// including the sparsifier and decomposition tables, whose old loops
/// never checked their output. Names are unique within a table, so
/// every row re-opens by name.
#[test]
fn paper_tables_validate_at_scale_1() {
    for table in PaperTable::ALL {
        let scenarios = table.scenarios(1);
        assert!(!scenarios.is_empty(), "{} is empty", table.command());
        let names: BTreeSet<String> = scenarios.iter().map(Scenario::name).collect();
        assert_eq!(
            names.len(),
            scenarios.len(),
            "{}: duplicate scenario names",
            table.command()
        );
        let manifest = run_suite(table.command(), &scenarios).expect("table must execute");
        for run in &manifest.runs {
            assert!(
                run.validation.passed,
                "{}: {} failed validation: {}",
                table.command(),
                run.name,
                run.validation.detail
            );
        }
    }
}

#[test]
fn smoke_suite_runs_validates_and_round_trips() {
    let scenarios = builtin_suite(SuiteProfile::Smoke);
    assert!(
        scenarios.len() >= 10,
        "smoke suite has only {} scenarios",
        scenarios.len()
    );
    let families: BTreeSet<&str> = scenarios.iter().map(|s| s.family.id()).collect();
    assert!(families.len() >= 5, "smoke suite spans only {families:?}");
    assert!(
        scenarios.iter().any(|s| s.engine == EngineSpec::Sequential),
        "no sequential scenario"
    );
    assert!(
        scenarios
            .iter()
            .any(|s| matches!(s.engine, EngineSpec::Pooled { .. })),
        "no pooled scenario"
    );
    assert!(
        scenarios
            .iter()
            .any(|s| matches!(s.engine, EngineSpec::Process { .. })),
        "no process scenario"
    );
    // Scenario names are unique — a matrix with duplicates would
    // silently overwrite rows in downstream diff tooling.
    let names: BTreeSet<String> = scenarios.iter().map(Scenario::name).collect();
    assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");

    let manifest = run_suite("smoke", &scenarios).expect("suite must execute");
    assert_eq!(manifest.runs.len(), scenarios.len());
    for run in &manifest.runs {
        assert!(
            run.validation.passed,
            "{} failed validation: {}",
            run.name, run.validation.detail
        );
        assert!(run.rounds > 0, "{} ran zero rounds", run.name);
        assert!(run.messages > 0, "{} delivered no messages", run.name);
        assert!(run.peak_queue_depth > 0, "{} saw empty queues", run.name);
    }

    // The serde-style round trip: serialize, parse, compare, and the
    // re-serialization is byte-identical.
    let text = manifest.to_json_string();
    let back = SuiteManifest::parse(&text).expect("manifest must parse");
    assert_eq!(back, manifest);
    assert_eq!(back.to_json_string(), text);
}

#[test]
fn every_family_is_engine_parity_clean() {
    // One scenario per family, run on both engines: identical costs and
    // outputs (the engine contract, exercised through the runner path).
    let per_family = [
        Scenario::new(GraphFamily::Gnp {
            n: 96,
            avg_deg: 6.0,
        })
        .seed(42),
        Scenario::new(GraphFamily::PowerLaw { n: 90, attach: 2 })
            .k(2)
            .seed(7),
        Scenario::new(GraphFamily::Geometric {
            n: 100,
            radius: 0.2,
        })
        .seed(3),
        Scenario::new(GraphFamily::Grid { rows: 8, cols: 7 }).k(2),
        Scenario::new(GraphFamily::Torus { rows: 6, cols: 8 }),
        Scenario::new(GraphFamily::Caterpillar { spine: 20, legs: 2 }).k(2),
        Scenario::new(GraphFamily::Broom {
            handle: 30,
            bristles: 15,
        }),
        Scenario::new(GraphFamily::ClusterGrid {
            rows: 3,
            cols: 3,
            cluster: 4,
        })
        .k(2),
    ];
    for base in per_family {
        let seq = run_scenario(&base.clone().sequential()).unwrap();
        let par = run_scenario(&base.clone().pooled(3)).unwrap();
        assert!(
            seq.validation.passed,
            "{}: {}",
            seq.name, seq.validation.detail
        );
        assert!(
            par.validation.passed,
            "{}: {}",
            par.name, par.validation.detail
        );
        for (label, a, b) in [
            ("rounds", seq.rounds, par.rounds),
            ("messages", seq.messages, par.messages),
            ("bits", seq.bits, par.bits),
            (
                "peak_queue_depth",
                seq.peak_queue_depth,
                par.peak_queue_depth,
            ),
            ("output_size", seq.output_size, par.output_size),
        ] {
            assert_eq!(a, b, "{}: {label} diverged across engines", base.name());
        }
    }
}

#[test]
fn same_seed_same_manifest_bytes_across_runs() {
    // Seeded determinism for every newly ported algorithm: executing the
    // identical scenario twice yields byte-identical manifest JSON (wall
    // clock aside — the only nondeterministic field).
    for sc in ported_algorithm_scenarios() {
        for engined in [sc.clone().sequential(), sc.clone().pooled(4)] {
            let a = run_scenario(&engined).unwrap();
            let b = run_scenario(&engined).unwrap();
            assert!(a.validation.passed, "{}: {}", a.name, a.validation.detail);
            let a = dewalled(a);
            let b = dewalled(b);
            assert_eq!(
                a.to_json().to_string_pretty(),
                b.to_json().to_string_pretty(),
                "{} not byte-deterministic across runs",
                engined.name()
            );
        }
    }
}

#[test]
fn same_seed_same_record_across_engines() {
    // The same seeded scenario on the sequential reference and on the
    // pooled engine: once the engine coordinates (name/engine/shards)
    // are aligned, the records serialize to identical JSON bytes —
    // outputs, validation detail (which embeds the output cardinality)
    // and every cost counter included.
    for sc in ported_algorithm_scenarios() {
        let seq = run_scenario(&sc.clone().sequential()).unwrap();
        let par = run_scenario(&sc.clone().pooled(3)).unwrap();
        assert!(
            seq.validation.passed,
            "{}: {}",
            seq.name, seq.validation.detail
        );
        let mut par = dewalled(par);
        par.name = seq.name.clone();
        par.engine = seq.engine.clone();
        par.shards = seq.shards;
        assert_eq!(
            dewalled(seq).to_json().to_string_pretty(),
            par.to_json().to_string_pretty(),
            "{} diverged across engines",
            sc.name()
        );
    }
}

#[test]
fn same_seed_same_suite_manifest_bytes() {
    // Whole-suite determinism: two executions of the same scenario list
    // produce byte-identical SuiteManifest JSON after the wall fields
    // are zeroed.
    let scenarios = ported_algorithm_scenarios();
    let strip = |m: SuiteManifest| SuiteManifest {
        suite: m.suite,
        runs: m.runs.into_iter().map(dewalled).collect(),
    };
    let a = strip(run_suite("det", &scenarios).unwrap());
    let b = strip(run_suite("det", &scenarios).unwrap());
    assert_eq!(a.to_json_string(), b.to_json_string());
}

#[test]
fn repeated_run_statistics_round_trip_exactly_through_json() {
    // The acceptance bar for the repeat-run statistics: a --repeats ≥ 3
    // run emits mean/ci95 wall stats (plus a bounded trace) that
    // survive the JSON parser bit-for-bit, fractional values included.
    let sc = Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
        .k(2)
        .seed(3)
        .pooled(2);
    let opts = RunOptions {
        repeat: Repeat {
            invocations: 3,
            iterations: 1,
            warmup: 1,
        },
        trace: Some(16),
        profile: false,
        chaos: None,
    };
    let rec = run_scenario_with(&sc, &opts).unwrap();
    assert!(rec.validation.passed, "{}", rec.validation.detail);
    assert_eq!(rec.wall_stats.samples, 3);
    assert!(rec.wall_stats.min_us <= rec.wall_stats.mean_us);
    assert!(rec.wall_stats.mean_us <= rec.wall_stats.max_us);
    let trace = rec.trace.as_ref().expect("trace requested");
    assert!(!trace.is_empty() && trace.len() <= 16);

    let manifest = SuiteManifest {
        suite: "repeats".into(),
        runs: vec![rec],
    };
    let text = manifest.to_json_string();
    let back = SuiteManifest::parse(&text).expect("manifest must parse");
    assert_eq!(back, manifest, "wall stats / trace did not round-trip");
    assert_eq!(back.to_json_string(), text, "re-serialization not stable");
    let stats = &back.runs[0].wall_stats;
    assert_eq!(
        stats.mean_us.to_bits(),
        manifest.runs[0].wall_stats.mean_us.to_bits()
    );
    assert_eq!(
        stats.ci95_us.to_bits(),
        manifest.runs[0].wall_stats.ci95_us.to_bits()
    );
}

#[test]
fn spec_file_drives_the_runner() {
    let spec = r#"
[[scenario]]
family = "broom"
handle = 24
bristles = 12
k = 2
seed = 5
engine = "pooled"
shards = 2

[[scenario]]
family = "cluster_grid"
rows = 3
cols = 3
cluster = 3
algorithm = "sparsify"
"#;
    let scenarios = powersparse_workloads::parse_suite(spec).unwrap();
    let manifest = run_suite("custom", &scenarios).unwrap();
    assert!(manifest.all_passed());
    assert_eq!(manifest.runs[0].family, "broom");
    assert_eq!(manifest.runs[0].shards, 2);
    assert_eq!(manifest.runs[1].algorithm, "sparsify");
}
