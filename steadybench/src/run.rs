//! Executing a workload scenario through the public API, one call per
//! layer, so each layer can be timed from outside: graph build
//! ([`powersparse_workloads::GraphFamily::build`]), engine construction,
//! the algorithm call, and validation with `powersparse_graphs::check`.

use crate::wire::{CountingTransport, WireStats, WireTotals};
use powersparse::mis::{luby_mis, mis_power, PostShattering};
use powersparse::ruling::{det_ruling_set_k2, mis_on_sparse_power};
use powersparse::sparsify::{sparsify_power, SamplingStrategy};
use powersparse_congest::engine::{Metrics, RoundEngine};
use powersparse_congest::probe::Probe;
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_engine::{PooledSimulator, ProcessSimulator};
use powersparse_graphs::{check, generators, Graph, NodeId};
use powersparse_workloads::{suite_params, AlgorithmSpec, EngineSpec, Scenario};
use std::time::{Duration, Instant};

/// Work done on a constructed engine, generic over the backend.
pub trait Job {
    /// What the work returns.
    type Out;
    /// Runs the work on `eng`.
    fn run<E: RoundEngine>(&mut self, eng: &mut E) -> Self::Out;
}

/// An algorithm's output, in the shape its checker wants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// An MIS membership mask of `G^k`.
    Mask(Vec<bool>),
    /// A `(k+1, k²)`-ruling set.
    Ruling(Vec<NodeId>),
}

/// The scenario's algorithm, called exactly as the workload runner
/// calls it.
pub struct Algorithm<'a>(pub &'a Scenario);

impl Job for Algorithm<'_> {
    type Out = Output;

    fn run<E: RoundEngine>(&mut self, eng: &mut E) -> Output {
        let sc = self.0;
        match sc.algorithm {
            AlgorithmSpec::LubyMis => Output::Mask(luby_mis(eng, sc.k, sc.seed)),
            AlgorithmSpec::DetRulingK2 => {
                Output::Ruling(det_ruling_set_k2(eng, sc.k, &suite_params(), sc.seed).ruling_set)
            }
            AlgorithmSpec::ShatterMis { two_phase } => {
                let post = if two_phase {
                    PostShattering::TwoPhase
                } else {
                    PostShattering::OnePhase
                };
                let (mask, _) = mis_power(eng, sc.k, &suite_params(), sc.seed, post)
                    .unwrap_or_else(|e| panic!("shattering MIS failed: {e}"));
                Output::Mask(mask)
            }
            ref other => panic!("{} is not a benchmark algorithm", other.id()),
        }
    }
}

/// Rounds, messages and wall time of one algorithm stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stage {
    /// Wall time of the stage's call.
    pub wall: Duration,
    /// Rounds the stage added.
    pub rounds: u64,
    /// Messages the stage added.
    pub messages: u64,
}

fn stage<E: RoundEngine, T>(eng: &mut E, f: impl FnOnce(&mut E) -> T) -> (T, Stage) {
    let (r0, m0) = (eng.metrics().rounds, eng.metrics().messages);
    let t = Instant::now();
    let out = f(eng);
    let wall = t.elapsed();
    let s = Stage {
        wall,
        rounds: eng.metrics().rounds - r0,
        messages: eng.metrics().messages - m0,
    };
    (out, s)
}

/// Theorem 1.1 split at its two public stages — `sparsify_power` with
/// `k − 1` iterations, then `mis_on_sparse_power` — each timed and
/// counted. Same calls, in the same order, as `det_ruling_set_k2`.
pub struct DetStages {
    /// The power `k`.
    pub k: usize,
}

impl Job for DetStages {
    type Out = (Vec<NodeId>, Stage, Stage);

    fn run<E: RoundEngine>(&mut self, eng: &mut E) -> Self::Out {
        let n = eng.graph().n();
        let params = suite_params();
        let (sparse, s1) = stage(eng, |e| {
            sparsify_power(
                e,
                self.k - 1,
                &vec![true; n],
                &params,
                SamplingStrategy::SeedSearch,
            )
            .expect("sparsification failed")
        });
        let (set, s2) = stage(eng, |e| mis_on_sparse_power(e, &sparse));
        (set, s1, s2)
    }
}

/// Constructs the engine and does nothing: the set-up half of a run.
pub struct Nothing;

impl Job for Nothing {
    type Out = ();

    fn run<E: RoundEngine>(&mut self, _eng: &mut E) {}
}

/// What one execution on a fresh engine measured.
pub struct Executed<O, P> {
    /// Engine construction (process engine: fork + `Hello` per child).
    pub construct: Duration,
    /// The job's call.
    pub run: Duration,
    /// The job's output.
    pub out: O,
    /// The engine's counters after the job.
    pub metrics: Metrics,
    /// The probe, with whatever it gathered.
    pub probe: P,
    /// Wire counters of the run (process engine with wire counting on).
    pub wire: Option<WireTotals>,
    /// Largest peak resident set of a shard child, KiB (process engine).
    pub child_hwm_kib: u64,
}

fn timed_job<E: RoundEngine, J: Job>(eng: &mut E, job: &mut J) -> (Duration, J::Out, Metrics) {
    let t = Instant::now();
    let out = job.run(eng);
    let run = t.elapsed();
    (run, out, eng.metrics().clone())
}

/// Builds the scenario's engine over `g` with `probe` attached, runs
/// `job` on it and tears it down. With `count_wire`, every process-engine
/// link is wrapped in a [`CountingTransport`] after construction.
///
/// # Panics
///
/// Panics on the sharded engine (not a benchmark engine) and on any
/// failure inside the engine or the job.
pub fn execute<J: Job, P: Probe>(
    g: &Graph,
    sc: &Scenario,
    probe: P,
    count_wire: bool,
    job: &mut J,
) -> Executed<J::Out, P> {
    let config = SimConfig::for_graph(g);
    let t = Instant::now();
    match sc.engine {
        EngineSpec::Sequential => {
            let mut eng = Simulator::with_probe(g, config, probe);
            let construct = t.elapsed();
            let (run, out, metrics) = timed_job(&mut eng, job);
            Executed {
                construct,
                run,
                out,
                metrics,
                probe: eng.into_probe(),
                wire: None,
                child_hwm_kib: 0,
            }
        }
        EngineSpec::Pooled { shards } => {
            let mut eng = PooledSimulator::with_probe(g, config, shards, probe);
            let construct = t.elapsed();
            let (run, out, metrics) = timed_job(&mut eng, job);
            Executed {
                construct,
                run,
                out,
                metrics,
                probe: eng.into_probe(),
                wire: None,
                child_hwm_kib: 0,
            }
        }
        EngineSpec::Process { shards } => {
            let mut eng = ProcessSimulator::with_probe(g, config, shards, probe);
            let construct = t.elapsed();
            let stats = WireStats::new();
            if count_wire {
                for w in 0..eng.shards() {
                    eng.wrap_transport(w, CountingTransport::wrapper(&stats));
                }
            }
            let (run, out, metrics) = timed_job(&mut eng, job);
            // Snapshot before the drop glue sends its Shutdown frames.
            let wire = count_wire.then(|| stats.totals());
            let child_hwm_kib = (0..eng.shards())
                .map(|w| hwm_kib(&eng.child_pid(w).to_string()))
                .max()
                .unwrap_or(0);
            Executed {
                construct,
                run,
                out,
                metrics,
                probe: eng.into_probe(),
                wire,
                child_hwm_kib,
            }
        }
        EngineSpec::Sharded { .. } => panic!("the sharded engine is not a benchmark engine"),
    }
}

/// Re-verifies an output with the `check` predicates the workload runner
/// uses: MIS independence + maximality in `G^k`, or ruling-set packing +
/// covering.
pub fn validate(g: &Graph, sc: &Scenario, out: &Output) -> bool {
    match out {
        Output::Mask(mask) => check::is_mis_of_power(g, &generators::members(mask), sc.k),
        Output::Ruling(set) => check::is_ruling_set(g, set, sc.k + 1, sc.k * sc.k),
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in KiB; 0 if it cannot be read.
pub fn hwm_kib(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
