//! Provenance of the committed engine-comparison manifest
//! (`BENCH_engine.json`, written by `experiments engines`): every
//! unshaped row up to n = 10⁴ must re-run from its recorded identity —
//! family, n, k, seed, algorithm, engine and shard count — to the name
//! and counters it records. A row produced by anything other than the
//! scenario runner, or under a seed other than the one it records,
//! fails here.

use powersparse_workloads::{run_scenario, AlgorithmSpec, GraphFamily, Scenario, SuiteManifest};

#[test]
fn engine_manifest_rows_rerun_from_their_recorded_identity() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let text = std::fs::read_to_string(path).expect("BENCH_engine.json must be readable");
    let manifest = SuiteManifest::parse(&text).expect("BENCH_engine.json must parse");
    let mut checked = 0;
    for row in manifest
        .runs
        .iter()
        .filter(|r| r.net.is_none() && r.n <= 10_000)
    {
        assert_eq!(row.family, "gnp", "{}: unexpected family", row.name);
        let algorithm = match row.algorithm.as_str() {
            "luby_mis" => AlgorithmSpec::LubyMis,
            other => panic!("{}: unexpected algorithm `{other}`", row.name),
        };
        let sc = Scenario::new(GraphFamily::Gnp {
            n: row.n as usize,
            avg_deg: 8.0,
        })
        .k(row.k as usize)
        .seed(row.seed)
        .algorithm(algorithm);
        let shards = row.shards as usize;
        let sc = match row.engine.as_str() {
            "sequential" => sc.sequential(),
            "pooled" => sc.pooled(shards),
            "process" => sc.process(shards),
            other => panic!("{}: unexpected engine `{other}`", row.name),
        };
        assert_eq!(
            sc.name(),
            row.name,
            "recorded identity does not name the row"
        );
        let rec = run_scenario(&sc).unwrap_or_else(|e| panic!("{}: {e}", row.name));
        assert_eq!(
            (rec.rounds, rec.messages, rec.bits, rec.output_size),
            (row.rounds, row.messages, row.bits, row.output_size),
            "{}: recorded (rounds, messages, bits, output size) do not re-run",
            row.name
        );
        checked += 1;
    }
    assert!(checked >= 2, "only {checked} unshaped rows with n ≤ 10⁴");
}
