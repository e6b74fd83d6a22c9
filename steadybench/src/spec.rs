//! The benchmark's workload definitions: `scenarios.toml` (each
//! workload's identity as a `powersparse_workloads::Scenario`, runnable
//! with `experiments suite --spec`) and `workloads.json` (names, pinned
//! counters, the held-out seed and the layer→metric predictions). Both
//! files are compiled in, so a run reads nothing at run time.

use powersparse_workloads::{parse_suite, AlgorithmSpec, EngineSpec, Json, Scenario};

const SCENARIOS: &str = include_str!("../scenarios.toml");
const WORKLOADS: &str = include_str!("../workloads.json");

/// Counters a workload must reproduce exactly at one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// The `--seed`, graph and algorithm seed alike.
    pub seed: u64,
    /// Rounds of one run.
    pub rounds: u64,
    /// Messages of one run.
    pub messages: u64,
    /// Rounds and messages of the shattering MIS that the traced run of
    /// `det_ruling_k2` times on the same graph (see
    /// [`shattering`]); `None` on other workloads.
    pub shatter: Option<(u64, u64)>,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: String,
    /// The scenario at the default seed.
    pub scenario: Scenario,
    /// Pinned counters, per benchmark seed.
    pub pins: Vec<Pin>,
}

impl Workload {
    /// The pin for benchmark seed `seed`, if one is recorded.
    pub fn pin(&self, seed: u64) -> Option<Pin> {
        self.pins.iter().copied().find(|p| p.seed == seed)
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
    obj.get(key)
        .unwrap_or_else(|| panic!("workloads.json: missing `{key}`"))
}

fn uint(obj: &Json, key: &str) -> u64 {
    field(obj, key)
        .as_u64()
        .unwrap_or_else(|| panic!("workloads.json: `{key}` is not an integer"))
}

/// Every workload, in benchmark order.
///
/// # Panics
///
/// Panics if the compiled-in definition files are malformed, or if a
/// scenario asks for something the benchmark does not measure (wire
/// shaping, TCP, supervision, the sharded engine).
pub fn workloads() -> Vec<Workload> {
    let scenarios = parse_suite(SCENARIOS).unwrap_or_else(|e| panic!("scenarios.toml: {e}"));
    let doc = Json::parse(WORKLOADS).unwrap_or_else(|e| panic!("workloads.json: {e}"));
    let list = field(&doc, "workloads")
        .as_arr()
        .expect("workloads.json: `workloads` is not an array");
    assert_eq!(
        list.len(),
        scenarios.len(),
        "scenarios.toml and workloads.json must list the same workloads"
    );
    list.iter()
        .zip(scenarios)
        .map(|(w, scenario)| {
            assert!(
                scenario.net.is_none() && !scenario.tcp && scenario.recovery.is_none(),
                "benchmark scenarios run on the plain wire"
            );
            assert!(
                !matches!(scenario.engine, EngineSpec::Sharded { .. }),
                "the sharded engine is not a benchmark workload"
            );
            let pins = field(w, "pins")
                .as_arr()
                .expect("workloads.json: `pins` is not an array")
                .iter()
                .map(|p| Pin {
                    seed: uint(p, "seed"),
                    rounds: uint(p, "rounds"),
                    messages: uint(p, "messages"),
                    shatter: p
                        .get("shatter")
                        .map(|s| (uint(s, "rounds"), uint(s, "messages"))),
                })
                .collect();
            Workload {
                name: field(w, "name").as_str().expect("name").to_string(),
                scenario,
                pins,
            }
        })
        .collect()
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// The shattering MIS (Theorems 1.2/1.4) on `sc`'s graph, power and
/// seed, on the pooled engine with 2 shards (the caller plus 1 helper).
/// It sends about as many messages as the Theorem 1.1 ruling set but
/// runs several times its rounds, so it loads the fixed per-round cost
/// (barrier, phase open/close, worklist scans). Its run time swings too
/// far with the machine's memory contention to be a gated workload, so
/// the traced run of `det_ruling_k2` times it as a layer instead.
pub fn shattering(sc: &Scenario) -> Scenario {
    sc.clone()
        .algorithm(AlgorithmSpec::ShatterMis { two_phase: false })
        .pooled(2)
}
