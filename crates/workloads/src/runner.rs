//! The experiment runner: materializes a [`Scenario`], executes it on the
//! requested [`powersparse_congest::engine::RoundEngine`] backend,
//! re-verifies the output with the `powersparse_graphs::check` predicates
//! and records everything in a [`RunRecord`].
//!
//! Nothing here trusts an algorithm: a run only counts as passed when the
//! slow, obviously-correct checkers agree (MIS independence + maximality,
//! ruling-set packing + covering, sparsifier invariant I3 + domination).

use crate::manifest::{
    NetRecord, PhaseWall, RecoveryRecord, RunRecord, SuiteManifest, TraceRow, Validation, WallStats,
};
use crate::scenario::{AlgorithmSpec, EngineSpec, RecoverySpec, Scenario, SHARDED_REMOVED};
use powersparse::mis::{beeping_mis, luby_mis, mis_power, PostShattering, ShatterReport};
use powersparse::nd::{diameter_bound, power_nd, NetworkDecomposition};
use powersparse::params::TheoryParams;
use powersparse::ruling::{
    beta_ruling_set, det_ruling_set_k2, id_ruling_set, ruling_set_with_balls,
};
use powersparse::sparsify::{sparsify_power, SamplingStrategy, SparsifyOutcome};
use powersparse_congest::engine::{Metrics, RoundEngine};
use powersparse_congest::probe::{NoProbe, Probe, RecoveryObs, SpanProbe, TraceProbe};
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_engine::{
    FaultPlan, PooledSimulator, ProcessOptions, ProcessSimulator, RecoveryPolicy,
};
use powersparse_graphs::{bfs, check, generators, power, Graph, NodeId};
use std::time::{Duration, Instant};

/// The laptop-scale theory constants every suite run and every paper
/// table uses: [`TheoryParams::scaled`], whose constants keep the
/// paper's bounds non-vacuous at `n ≤ 10⁵`.
pub fn suite_params() -> TheoryParams {
    TheoryParams::scaled()
}

/// How often a scenario's run phase is executed for wall-clock
/// statistics, following the measured-benchmarking discipline of
/// invocation/iteration separation: `warmup` whole invocations are
/// discarded, then each of `invocations` timed blocks runs the
/// algorithm `iterations` times on a fresh engine and contributes one
/// sample (elapsed / iterations). Counters are taken from the first
/// measured run and asserted identical across invocations — only wall
/// clock may vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeat {
    /// Timed invocations (one wall sample each). Must be ≥ 1.
    pub invocations: usize,
    /// Algorithm runs per invocation (each on a fresh engine). Must be
    /// ≥ 1.
    pub iterations: usize,
    /// Discarded warmup invocations before measurement starts.
    pub warmup: usize,
}

impl Repeat {
    /// The default non-repeated measurement: one invocation, one
    /// iteration, no warmup — exactly the pre-statistics runner
    /// behavior.
    pub fn once() -> Self {
        Self {
            invocations: 1,
            iterations: 1,
            warmup: 0,
        }
    }
}

impl Default for Repeat {
    fn default() -> Self {
        Self::once()
    }
}

/// Seeded chaos injection for process-engine runs: every process
/// scenario gets a deterministic [`FaultPlan`] (kills + frame
/// corruptions scheduled by a splitmix64 stream over the scenario's
/// seed) and runs under shard supervision — a scenario without an
/// explicit [`RecoverySpec`] is upgraded to [`RecoverySpec::default`].
/// Non-process engines have no wire to disturb and ignore the spec.
///
/// Chaos is the *point* of the recovery contract: the disturbed run
/// must produce bit-for-bit the counters of an undisturbed one, so a
/// chaos-injected manifest still diffs clean against the committed
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Base seed of the fault schedule (combined with each scenario's
    /// own seed, so every run draws a distinct plan).
    pub seed: u64,
    /// Child kills (SIGKILL mid-round) per process run.
    pub kills: usize,
    /// Frame corruptions (poisoned transport) per process run.
    pub corruptions: usize,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        Self {
            seed: 0xC4A0_5BA5,
            kills: 2,
            corruptions: 1,
        }
    }
}

/// The round horizon chaos events are scheduled inside. Kept small so
/// the faults land within even the shortest smoke-suite run.
const CHAOS_HORIZON: u64 = 4;

impl ChaosSpec {
    /// The fault plan this spec draws for one process scenario.
    pub fn plan_for(&self, sc: &Scenario, shards: usize) -> FaultPlan {
        let seed = self.seed ^ sc.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        FaultPlan::seeded(
            seed,
            shards as u16,
            CHAOS_HORIZON,
            self.kills,
            self.corruptions,
            0,
        )
    }
}

/// Per-run options of [`run_scenario_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Repetition scheme for wall-clock statistics.
    pub repeat: Repeat,
    /// Capture a per-round activity trace: `Some(limit)` runs the
    /// scenario once more, untimed, with a
    /// [`powersparse_congest::probe::TraceProbe`] attached and stores
    /// at most `limit` evenly strided rows (real round indices are
    /// preserved; `Some(0)` keeps every round).
    pub trace: Option<usize>,
    /// Attach the span profiler: one extra untimed execution with a
    /// [`SpanProbe`], aggregated into the record's optional `profile`
    /// manifest section (see [`crate::profile`]).
    pub profile: bool,
    /// Inject seeded faults into process-engine runs (under forced
    /// supervision); `None` leaves the wire undisturbed.
    pub chaos: Option<ChaosSpec>,
}

/// What an algorithm produced, in the shape its checker wants.
enum AlgOutput {
    /// A membership mask (MIS of `G^k`), with the shattering pipeline's
    /// diagnostics when it produced the mask.
    Mask {
        mask: Vec<bool>,
        shatter: Option<ShatterReport>,
    },
    /// An explicit node set with its `(α, β)` ruling-set targets.
    RulingSet {
        set: Vec<NodeId>,
        alpha: usize,
        beta: usize,
    },
    /// A sparsifier outcome (mask + I3 state).
    Sparsifier(Box<SparsifyOutcome>),
    /// A network decomposition of `G^k`.
    Decomposition(NetworkDecomposition),
}

/// Executes one scenario end to end.
///
/// # Errors
///
/// Returns `Err` only for *specification* problems (invalid scenario,
/// algorithm failure such as an exhausted seed scan) — a run that merely
/// fails validation still returns `Ok` with
/// `record.validation.passed == false`, so a suite can report it.
pub fn run_scenario(sc: &Scenario) -> Result<RunRecord, String> {
    run_scenario_with(sc, &RunOptions::default())
}

/// The wire and supervision options a scenario's process engine runs
/// under (Unix socket vs loopback TCP, optional shaping, optional
/// recovery policy).
fn process_options(sc: &Scenario) -> ProcessOptions {
    let (recovery, checkpoint_every) = match sc.recovery {
        None => (RecoveryPolicy::FailFast, 0),
        Some(r) => (
            RecoveryPolicy::Recover {
                max_retries: r.max_retries,
                backoff: Duration::from_millis(r.backoff_ms),
            },
            r.checkpoint_every,
        ),
    };
    ProcessOptions {
        net: sc.net,
        tcp: sc.tcp,
        recovery,
        checkpoint_every,
    }
}

/// One run-phase execution: builds a fresh engine for the scenario's
/// backend with `probe` attached, runs the algorithm, and returns the
/// output, the final metrics and the probe with its observations. A
/// `chaos` plan (process engine only) is installed on the fresh engine
/// before the run, so every invocation is disturbed identically.
fn execute<P: Probe>(
    g: &Graph,
    config: SimConfig,
    sc: &Scenario,
    probe: P,
    chaos: Option<&FaultPlan>,
) -> Result<(AlgOutput, Metrics, P), String> {
    match sc.engine {
        EngineSpec::Sequential => {
            let mut sim = Simulator::with_probe(g, config, probe);
            let out = run_generic(&mut sim, sc)?;
            let m = sim.metrics().clone();
            Ok((out, m, sim.into_probe()))
        }
        EngineSpec::Sharded { .. } => Err(SHARDED_REMOVED.into()),
        EngineSpec::Pooled { shards } => {
            let mut sim = PooledSimulator::with_probe(g, config, shards, probe);
            let out = run_generic(&mut sim, sc)?;
            let m = RoundEngine::metrics(&sim).clone();
            Ok((out, m, sim.into_probe()))
        }
        EngineSpec::Process { shards } => {
            let mut sim =
                ProcessSimulator::with_options(g, config, shards, probe, process_options(sc));
            if let Some(plan) = chaos {
                sim.set_fault_plan(plan.clone());
            }
            let out = run_generic(&mut sim, sc)?;
            let m = RoundEngine::metrics(&sim).clone();
            Ok((out, m, sim.into_probe()))
        }
    }
}

/// The untimed traced execution's [`TraceProbe`] reduced to manifest
/// [`TraceRow`]s and downsampled to at most `limit` rows (`0` = keep
/// all; real round indices survive downsampling).
fn trace_rows(trace: &TraceProbe, limit: usize) -> Vec<TraceRow> {
    let rows: Vec<TraceRow> = trace
        .rounds
        .iter()
        .map(|obs| TraceRow {
            round: obs.round,
            active_edges: obs.active_edges,
            dirty_nodes: obs.dirty_nodes,
            messages: obs.messages,
            bits: obs.bits,
        })
        .collect();
    downsample(rows, limit)
}

/// Builds a scenario's graph once and profiles `repeats` independent
/// executions with a [`SpanProbe`] attached (the `experiments profile`
/// front end; aggregate the probes with [`crate::profile::breakdown`]).
///
/// # Errors
///
/// As [`run_scenario`]; additionally rejects `repeats == 0`.
pub fn profile_scenario(sc: &Scenario, repeats: usize) -> Result<Vec<SpanProbe>, String> {
    sc.validate_spec()?;
    if repeats == 0 {
        return Err("profile needs at least one repeat".into());
    }
    let g = sc.family.build(sc.seed);
    let config = SimConfig::for_graph(&g);
    (0..repeats)
        .map(|_| execute(&g, config, sc, SpanProbe::new(), None).map(|(_, _, probe)| probe))
        .collect()
}

/// Evenly strided downsampling that keeps real round indices.
fn downsample(rows: Vec<TraceRow>, limit: usize) -> Vec<TraceRow> {
    if limit == 0 || rows.len() <= limit {
        return rows;
    }
    let stride = rows.len().div_ceil(limit);
    rows.into_iter().step_by(stride).collect()
}

/// Executes one scenario with explicit repetition/trace options (see
/// [`run_scenario`] for the error contract).
///
/// # Errors
///
/// As [`run_scenario`]; additionally rejects a [`Repeat`] with zero
/// invocations or iterations, and reports counters that drift between
/// invocations of the same scenario (which would mean the run is not
/// deterministic and its statistics meaningless).
pub fn run_scenario_with(sc: &Scenario, opts: &RunOptions) -> Result<RunRecord, String> {
    sc.validate_spec()?;
    let rep = opts.repeat;
    if rep.invocations == 0 || rep.iterations == 0 {
        return Err("repeat needs at least one invocation and one iteration".into());
    }
    // Chaos forces supervision: a process scenario without an explicit
    // recovery policy is upgraded to the default one (fail-fast would
    // turn the first injected fault into an abort). The upgrade is
    // reflected in the record's `recovery` section but not in the run
    // name — recovery is operational, not semantic.
    let mut sc = sc.clone();
    let is_process = matches!(sc.engine, EngineSpec::Process { .. });
    if opts.chaos.is_some() && is_process && sc.recovery.is_none() {
        sc.recovery = Some(RecoverySpec::default());
    }
    let sc = &sc;
    let chaos_plan = match (opts.chaos, sc.engine) {
        (Some(chaos), EngineSpec::Process { shards }) => Some(chaos.plan_for(sc, shards)),
        _ => None,
    };
    let chaos_plan = chaos_plan.as_ref();
    let t = Instant::now();
    let g = sc.family.build(sc.seed);
    let build_us = t.elapsed().as_micros() as u64;
    let config = SimConfig::for_graph(&g);

    for _ in 0..rep.warmup {
        execute(&g, config, sc, NoProbe, chaos_plan)?;
    }

    let mut samples: Vec<f64> = Vec::with_capacity(rep.invocations);
    let mut first: Option<(AlgOutput, Metrics)> = None;
    for _ in 0..rep.invocations {
        let t = Instant::now();
        let mut last = None;
        for _ in 0..rep.iterations {
            last = Some(execute(&g, config, sc, NoProbe, chaos_plan)?);
        }
        samples.push(t.elapsed().as_micros() as f64 / rep.iterations as f64);
        let (out, metrics, _) = last.expect("iterations >= 1");
        match &first {
            None => first = Some((out, metrics)),
            Some((_, m0)) => {
                if *m0 != metrics {
                    return Err(format!(
                        "counters drifted between invocations of {} — \
                         rounds {} vs {}, messages {} vs {}",
                        sc.name(),
                        m0.rounds,
                        metrics.rounds,
                        m0.messages,
                        metrics.messages
                    ));
                }
            }
        }
    }
    let (output, metrics) = first.expect("invocations >= 1");
    let wall_stats = WallStats::from_samples(&samples);
    let run_us = samples[0] as u64;

    let trace = match opts.trace {
        None => None,
        Some(limit) => {
            let (_, _, probe) = execute(&g, config, sc, TraceProbe::new(), None)?;
            Some(trace_rows(&probe, limit))
        }
    };
    let profile = if opts.profile {
        let (_, _, probe) = execute(&g, config, sc, SpanProbe::new(), None)?;
        Some(crate::profile::profile_stats(std::slice::from_ref(&probe)))
    } else {
        None
    };

    let t = Instant::now();
    let (validation, output_size) = validate(&g, sc, &output);
    let validate_us = t.elapsed().as_micros() as u64;

    let mut rec = record(
        sc,
        &g,
        &metrics,
        PhaseWall {
            build_us,
            run_us,
            validate_us,
        },
        wall_stats,
        trace,
        validation,
        output_size,
    );
    rec.profile = profile;
    Ok(rec)
}

/// One seeded chaos probe (`experiments chaos`): runs the scenario once
/// on the supervised process engine with the chaos plan installed, and
/// returns the run record plus what the supervisor saw — the recovery
/// event log (one entry per respawn attempt, in order) and how many
/// planned faults actually fired. A scenario without an explicit
/// [`RecoverySpec`] runs under [`RecoverySpec::default`].
///
/// # Errors
///
/// As [`run_scenario`]; additionally rejects non-process engines (there
/// is no wire to disturb).
pub fn run_chaos_scenario(
    sc: &Scenario,
    chaos: &ChaosSpec,
) -> Result<(RunRecord, Vec<RecoveryObs>, u64), String> {
    sc.validate_spec()?;
    let EngineSpec::Process { shards } = sc.engine else {
        return Err("chaos injection requires a process-engine scenario".into());
    };
    let mut sc = sc.clone();
    if sc.recovery.is_none() {
        sc.recovery = Some(RecoverySpec::default());
    }
    let sc = &sc;
    let t = Instant::now();
    let g = sc.family.build(sc.seed);
    let build_us = t.elapsed().as_micros() as u64;
    let config = SimConfig::for_graph(&g);
    let mut sim = ProcessSimulator::with_options(&g, config, shards, NoProbe, process_options(sc));
    sim.set_fault_plan(chaos.plan_for(sc, shards));
    let t = Instant::now();
    let output = run_generic(&mut sim, sc)?;
    let run_us = t.elapsed().as_micros() as u64;
    let metrics = RoundEngine::metrics(&sim).clone();
    let events = sim.recovery_log().to_vec();
    let fired = sim.faults_fired();
    drop(sim);
    let t = Instant::now();
    let (validation, output_size) = validate(&g, sc, &output);
    let validate_us = t.elapsed().as_micros() as u64;
    let rec = record(
        sc,
        &g,
        &metrics,
        PhaseWall {
            build_us,
            run_us,
            validate_us,
        },
        WallStats::single(run_us),
        None,
        validation,
        output_size,
    );
    Ok((rec, events, fired))
}

/// Executes a whole scenario matrix, in order.
///
/// # Errors
///
/// Propagates the first specification/algorithm error (validation
/// failures do not abort the suite; they are recorded per run).
pub fn run_suite(suite: &str, scenarios: &[Scenario]) -> Result<SuiteManifest, String> {
    run_suite_with(suite, scenarios, &RunOptions::default())
}

/// Executes a whole scenario matrix with explicit options.
///
/// # Errors
///
/// As [`run_suite`].
pub fn run_suite_with(
    suite: &str,
    scenarios: &[Scenario],
    opts: &RunOptions,
) -> Result<SuiteManifest, String> {
    let runs = scenarios
        .iter()
        .map(|sc| run_scenario_with(sc, opts).map_err(|e| format!("{}: {e}", sc.name())))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SuiteManifest {
        suite: suite.to_string(),
        runs,
    })
}

/// Executes the scenario's algorithm on any [`RoundEngine`] backend —
/// the single execution path since the PR-3 step-API port retired the
/// sequential-only closures.
fn run_generic<E: RoundEngine>(eng: &mut E, sc: &Scenario) -> Result<AlgOutput, String> {
    let n = eng.graph().n();
    let k = sc.k;
    let mask = |mask| AlgOutput::Mask {
        mask,
        shatter: None,
    };
    let ruling = |mask: &[bool], beta| AlgOutput::RulingSet {
        set: generators::members(mask),
        alpha: k + 1,
        beta,
    };
    match sc.algorithm {
        AlgorithmSpec::LubyMis => Ok(mask(luby_mis(eng, k, sc.seed))),
        AlgorithmSpec::BeepingMis => Ok(mask(beeping_mis(eng, k, sc.seed))),
        AlgorithmSpec::ShatterMis { two_phase } => {
            let post = if two_phase {
                PostShattering::TwoPhase
            } else {
                PostShattering::OnePhase
            };
            let (mask, report) = mis_power(eng, k, &suite_params(), sc.seed, post)
                .map_err(|e| format!("shattering MIS failed: {e}"))?;
            Ok(AlgOutput::Mask {
                mask,
                shatter: Some(report),
            })
        }
        AlgorithmSpec::Sparsify { derandomized } => {
            let strategy = if derandomized {
                SamplingStrategy::SeedSearch
            } else {
                SamplingStrategy::Randomized { seed: sc.seed }
            };
            let out = sparsify_power(eng, k, &vec![true; n], &suite_params(), strategy)
                .map_err(|e| format!("sparsify failed: {e}"))?;
            Ok(AlgOutput::Sparsifier(Box::new(out)))
        }
        AlgorithmSpec::BetaRulingSet { beta } => {
            let set = beta_ruling_set(eng, k, beta, &suite_params(), sc.seed);
            Ok(AlgOutput::RulingSet {
                set,
                alpha: k + 1,
                beta: k * beta,
            })
        }
        AlgorithmSpec::DetRulingK2 => {
            let out = det_ruling_set_k2(eng, k, &suite_params(), sc.seed);
            Ok(AlgOutput::RulingSet {
                set: out.ruling_set,
                alpha: k + 1,
                beta: k * k,
            })
        }
        AlgorithmSpec::IdRulingSet { c } => {
            let out = id_ruling_set(eng, k, c);
            Ok(ruling(&out.ruling_set, c as usize * k))
        }
        AlgorithmSpec::AglpRulingSet => {
            let out = ruling_set_with_balls(eng, k, &vec![true; n], None);
            Ok(ruling(&out.ruling_set, out.domination_bound))
        }
        AlgorithmSpec::PowerNd => {
            let nd = power_nd(eng, k, &suite_params())
                .map_err(|e| format!("network decomposition failed: {e}"))?;
            Ok(AlgOutput::Decomposition(nd))
        }
    }
}

/// Worst-case distance from a node to `set` — the measured domination
/// of a ruling set or sparsifier, printed beside its guaranteed bound —
/// or `None` when some node cannot reach the set at all.
fn measured_domination(g: &Graph, set: &[NodeId]) -> Option<u32> {
    bfs::distances_to_set(g, set)
        .into_iter()
        .try_fold(0, |worst, d| d.map(|d| worst.max(d)))
}

/// [`measured_domination`] as validation-detail text.
fn domination_text(g: &Graph, set: &[NodeId]) -> String {
    match measured_domination(g, set) {
        Some(d) => format!("measured domination {d}"),
        None => "some node cannot reach the set".into(),
    }
}

/// Re-verifies the output with the `check` predicates; returns the
/// verdict and the output cardinality. Besides the verdict, the detail
/// carries the measured quantities the paper tables report: domination
/// of ruling sets and sparsifiers, the shattering pipeline's undecided
/// count and largest component, and the decomposition's colors and
/// clusters.
fn validate(g: &Graph, sc: &Scenario, output: &AlgOutput) -> (Validation, u64) {
    let k = sc.k;
    match output {
        AlgOutput::Mask { mask, shatter } => {
            let members = generators::members(mask);
            let passed = check::is_mis_of_power(g, &members, k);
            let mut detail = if passed {
                format!(
                    "MIS of G^{k}: independent + maximal, |S| = {}",
                    members.len()
                )
            } else {
                format!("INVALID MIS of G^{k} (|S| = {})", members.len())
            };
            if let Some(report) = shatter {
                detail.push_str(&format!(
                    "; undecided after pre-shattering {}, largest component {}",
                    report.undecided_after_pre, report.largest_component
                ));
            }
            (Validation { passed, detail }, members.len() as u64)
        }
        AlgOutput::RulingSet { set, alpha, beta } => {
            let passed = check::is_ruling_set(g, set, *alpha, *beta);
            let detail = if passed {
                format!(
                    "({alpha}, {beta})-ruling set: packing + covering hold, |S| = {}, {}",
                    set.len(),
                    domination_text(g, set)
                )
            } else {
                format!(
                    "INVALID ({alpha}, {beta})-ruling set (|S| = {}, {})",
                    set.len(),
                    domination_text(g, set)
                )
            };
            (Validation { passed, detail }, set.len() as u64)
        }
        AlgOutput::Sparsifier(out) => {
            let members = generators::members(&out.q);
            let i3 = check::satisfies_sparsifier_i3(g, k, &out.q, &out.knowledge);
            let dom_bound = k * k + k;
            let dominating = check::is_beta_dominating(g, &members, dom_bound);
            // The degree bound holds deterministically for the seed scan
            // and w.h.p. for randomized sampling, so it is recorded but
            // only the deterministic invariants gate the verdict.
            let max_deg = power::max_q_degree(g, k, &out.q);
            let target = suite_params().degree_bound(g.n());
            let passed = i3 && dominating;
            let detail = format!(
                "{}I3 {}, (k²+k)-domination {} ({}); |Q| = {}, max d_{k}(v, Q) = {max_deg} \
                 (target ≤ {target})",
                if passed { "" } else { "INVALID: " },
                if i3 { "holds" } else { "VIOLATED" },
                if dominating { "holds" } else { "VIOLATED" },
                domination_text(g, &members),
                members.len(),
            );
            (Validation { passed, detail }, members.len() as u64)
        }
        AlgOutput::Decomposition(nd) => {
            let bound = diameter_bound(k, g.n());
            let errors = check::check_decomposition(g, &nd.view(), bound, 2 * k as u32, true);
            let passed = errors.is_empty();
            let detail = if passed {
                format!(
                    "ND of G^{k}: cover + weak diameter ≤ {bound} + separation > {} hold; \
                     {} clusters in {} colors",
                    2 * k,
                    nd.color.len(),
                    nd.num_colors
                )
            } else {
                format!("INVALID ND of G^{k}: {errors:?}")
            };
            (Validation { passed, detail }, nd.color.len() as u64)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn record(
    sc: &Scenario,
    g: &Graph,
    metrics: &Metrics,
    wall: PhaseWall,
    wall_stats: WallStats,
    trace: Option<Vec<TraceRow>>,
    validation: Validation,
    output_size: u64,
) -> RunRecord {
    RunRecord {
        name: sc.name(),
        family: sc.family.id().to_string(),
        graph: sc.family.label(),
        n: g.n() as u64,
        m: g.m() as u64,
        max_degree: g.max_degree() as u64,
        k: sc.k as u64,
        seed: sc.seed,
        algorithm: sc.algorithm.id(),
        engine: sc.engine.id().to_string(),
        shards: sc.engine.shards() as u64,
        net: if sc.tcp || sc.net.is_some() {
            let spec = sc.net.unwrap_or_default();
            Some(NetRecord {
                tcp: sc.tcp,
                latency_us: spec.latency_us,
                bandwidth_bytes_per_s: spec.bandwidth_bytes_per_s,
                jitter_seed: spec.jitter_seed,
            })
        } else {
            None
        },
        recovery: sc.recovery.map(|r| RecoveryRecord {
            max_retries: u64::from(r.max_retries),
            backoff_ms: r.backoff_ms,
            checkpoint_every: u64::from(r.checkpoint_every),
            recoveries: metrics.recoveries,
        }),
        rounds: metrics.rounds,
        charged_rounds: metrics.charged_rounds,
        messages: metrics.messages,
        bits: metrics.bits,
        peak_queue_depth: metrics.peak_queue_depth,
        arena_cells_peak: metrics.arena_cells_peak,
        arena_bytes_peak: metrics.arena_bytes_peak,
        alloc_count: 0,
        alloc_bytes_peak: 0,
        output_size,
        wall,
        wall_stats,
        profile: None,
        trace,
        validation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GraphFamily;

    #[test]
    fn luby_scenario_runs_and_validates() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
            .k(2)
            .seed(3);
        let rec = run_scenario(&sc).unwrap();
        assert!(rec.validation.passed, "{}", rec.validation.detail);
        assert_eq!(rec.n, 36);
        assert_eq!(rec.m, 60);
        assert!(rec.rounds > 0);
        assert!(rec.messages > 0);
        assert!(rec.peak_queue_depth > 0);
        assert!(rec.output_size > 0);
    }

    #[test]
    fn sparsifier_scenario_validates_i3() {
        let sc = Scenario::new(GraphFamily::Torus { rows: 8, cols: 8 }).algorithm(
            AlgorithmSpec::Sparsify {
                derandomized: false,
            },
        );
        let rec = run_scenario(&sc).unwrap();
        assert!(rec.validation.passed, "{}", rec.validation.detail);
        assert!(rec.validation.detail.contains("I3 holds"));
    }

    #[test]
    fn ruling_set_scenarios_validate() {
        let sc = Scenario::new(GraphFamily::Gnp {
            n: 96,
            avg_deg: 6.0,
        })
        .seed(5)
        .algorithm(AlgorithmSpec::BetaRulingSet { beta: 3 });
        let rec = run_scenario(&sc).unwrap();
        assert!(rec.validation.passed, "{}", rec.validation.detail);

        let sc = Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
            .k(2)
            .algorithm(AlgorithmSpec::DetRulingK2);
        let rec = run_scenario(&sc).unwrap();
        assert!(rec.validation.passed, "{}", rec.validation.detail);
        assert_eq!(rec.algorithm, "det_ruling_k2");
    }

    #[test]
    fn formerly_rejected_combinations_now_run_sharded() {
        // Before the PR-3 port these scenario × engine pairs were spec
        // errors; now they execute on a multi-shard engine and validate.
        for sc in [
            Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
                .algorithm(AlgorithmSpec::DetRulingK2)
                .pooled(2),
            Scenario::new(GraphFamily::Gnp {
                n: 72,
                avg_deg: 6.0,
            })
            .seed(9)
            .algorithm(AlgorithmSpec::BetaRulingSet { beta: 2 })
            .pooled(3),
            Scenario::new(GraphFamily::Gnp {
                n: 64,
                avg_deg: 5.0,
            })
            .seed(4)
            .algorithm(AlgorithmSpec::BeepingMis)
            .pooled(4),
            Scenario::new(GraphFamily::Gnp {
                n: 64,
                avg_deg: 5.0,
            })
            .seed(8)
            .algorithm(AlgorithmSpec::ShatterMis { two_phase: false })
            .pooled(2),
            Scenario::new(GraphFamily::Torus { rows: 6, cols: 6 })
                .k(2)
                .algorithm(AlgorithmSpec::PowerNd)
                .pooled(2),
        ] {
            let rec = run_scenario(&sc).unwrap();
            assert!(
                rec.validation.passed,
                "{}: {}",
                rec.name, rec.validation.detail
            );
            assert_eq!(rec.engine, "pooled");
        }
    }

    #[test]
    fn nd_scenario_validates_decomposition() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 7, cols: 7 })
            .k(2)
            .algorithm(AlgorithmSpec::PowerNd);
        let rec = run_scenario(&sc).unwrap();
        assert!(rec.validation.passed, "{}", rec.validation.detail);
        assert!(rec.validation.detail.contains("clusters"));
        assert!(rec.output_size >= 1);
    }

    #[test]
    fn spec_errors_are_reported() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 }).pooled(0);
        assert!(run_scenario(&sc).is_err());
        let mut sc = Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 });
        sc.k = 0;
        assert!(run_scenario(&sc).is_err());
        // The engine dispatch itself refuses the retired engine too,
        // whatever probe is attached.
        let mut sc = Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 });
        sc.engine = EngineSpec::Sharded { shards: 2 };
        assert_eq!(run_scenario(&sc).unwrap_err(), SHARDED_REMOVED);
        let g = sc.family.build(sc.seed);
        let config = SimConfig::for_graph(&g);
        assert_eq!(
            execute(&g, config, &sc, SpanProbe::new(), None).err(),
            Some(SHARDED_REMOVED.to_string())
        );
        assert_eq!(
            execute(&g, config, &sc, NoProbe, None).err(),
            Some(SHARDED_REMOVED.to_string())
        );
    }

    #[test]
    fn engines_agree_on_costs_and_output() {
        let base = Scenario::new(GraphFamily::ClusterGrid {
            rows: 3,
            cols: 3,
            cluster: 4,
        })
        .k(2)
        .seed(9);
        let seq = run_scenario(&base.clone().sequential()).unwrap();
        for par in [
            run_scenario(&base.clone().pooled(2)).unwrap(),
            run_scenario(&base.pooled(3)).unwrap(),
        ] {
            assert!(seq.validation.passed && par.validation.passed);
            assert_eq!(seq.rounds, par.rounds, "{}", par.name);
            assert_eq!(seq.messages, par.messages, "{}", par.name);
            assert_eq!(seq.bits, par.bits, "{}", par.name);
            assert_eq!(seq.peak_queue_depth, par.peak_queue_depth, "{}", par.name);
            assert_eq!(seq.output_size, par.output_size, "{}", par.name);
        }
    }

    #[test]
    fn repeated_runs_collect_wall_stats_and_keep_counters_exact() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 5, cols: 5 }).seed(2);
        let opts = RunOptions {
            repeat: Repeat {
                invocations: 3,
                iterations: 2,
                warmup: 1,
            },
            trace: None,
            profile: false,
            chaos: None,
        };
        let rec = run_scenario_with(&sc, &opts).unwrap();
        assert_eq!(rec.wall_stats.samples, 3);
        assert!(rec.wall_stats.min_us <= rec.wall_stats.mean_us);
        assert!(rec.wall_stats.mean_us <= rec.wall_stats.max_us);
        assert!(rec.wall_stats.ci95_us >= 0.0);
        // Counters are the deterministic single-run values.
        let base = run_scenario(&sc).unwrap();
        assert_eq!(rec.rounds, base.rounds);
        assert_eq!(rec.messages, base.messages);
        assert_eq!(rec.bits, base.bits);
        assert_eq!(rec.arena_cells_peak, base.arena_cells_peak);
        assert_eq!(base.wall_stats.samples, 1);
        assert_eq!(base.wall_stats.mean_us, base.wall.run_us as f64);
    }

    #[test]
    fn full_trace_reconciles_with_the_counters() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 5, cols: 5 })
            .seed(2)
            .pooled(3);
        let opts = RunOptions {
            repeat: Repeat::once(),
            trace: Some(0), // keep every round
            profile: false,
            chaos: None,
        };
        let rec = run_scenario_with(&sc, &opts).unwrap();
        let trace = rec.trace.as_ref().unwrap();
        assert_eq!(trace.len() as u64, rec.rounds);
        assert_eq!(trace.iter().map(|r| r.messages).sum::<u64>(), rec.messages);
        assert_eq!(trace.iter().map(|r| r.bits).sum::<u64>(), rec.bits);
        for (i, row) in trace.iter().enumerate() {
            assert_eq!(row.round, i as u64);
        }
    }

    #[test]
    fn downsampled_trace_is_bounded_and_keeps_real_round_indices() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
            .k(2)
            .seed(3);
        let full = run_scenario_with(
            &sc,
            &RunOptions {
                repeat: Repeat::once(),
                trace: Some(0),
                profile: false,
                chaos: None,
            },
        )
        .unwrap();
        let rounds = full.rounds;
        assert!(rounds > 4, "need a multi-round run for downsampling");
        let limit = 4usize;
        let rec = run_scenario_with(
            &sc,
            &RunOptions {
                repeat: Repeat::once(),
                trace: Some(limit),
                profile: false,
                chaos: None,
            },
        )
        .unwrap();
        let trace = rec.trace.as_ref().unwrap();
        assert!(trace.len() <= limit, "{} rows > limit {limit}", trace.len());
        assert_eq!(trace[0].round, 0, "first round must survive");
        let full_rows = full.trace.as_ref().unwrap();
        for row in trace {
            assert_eq!(&full_rows[row.round as usize], row, "strided row differs");
        }
    }

    #[test]
    fn zero_repeat_counts_are_spec_errors() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 });
        for repeat in [
            Repeat {
                invocations: 0,
                iterations: 1,
                warmup: 0,
            },
            Repeat {
                invocations: 1,
                iterations: 0,
                warmup: 0,
            },
        ] {
            let opts = RunOptions {
                repeat,
                trace: None,
                profile: false,
                chaos: None,
            };
            assert!(run_scenario_with(&sc, &opts).is_err());
        }
    }

    #[test]
    fn shaped_and_tcp_process_scenarios_run_and_record_the_wire() {
        use powersparse_engine::NetworkSpec;
        let base = Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
            .seed(3)
            .process(2);
        let plain = run_scenario(&base.clone()).unwrap();
        assert!(
            plain.net.is_none(),
            "default wire must not emit a net section"
        );
        let net = NetworkSpec {
            latency_us: 15,
            bandwidth_bytes_per_s: 32 << 20,
            jitter_seed: 11,
        };
        let shaped = run_scenario(&base.clone().network(net)).unwrap();
        let tcp = run_scenario(&base.tcp()).unwrap();
        for rec in [&shaped, &tcp] {
            assert!(
                rec.validation.passed,
                "{}: {}",
                rec.name, rec.validation.detail
            );
            // The wire never touches a gated counter.
            assert_eq!(rec.rounds, plain.rounds, "{}", rec.name);
            assert_eq!(rec.messages, plain.messages, "{}", rec.name);
            assert_eq!(rec.bits, plain.bits, "{}", rec.name);
            assert_eq!(rec.peak_queue_depth, plain.peak_queue_depth, "{}", rec.name);
            assert_eq!(rec.output_size, plain.output_size, "{}", rec.name);
        }
        let section = shaped.net.expect("shaped run must record its wire");
        assert!(!section.tcp);
        assert_eq!(section.latency_us, 15);
        assert_eq!(section.bandwidth_bytes_per_s, 32 << 20);
        assert_eq!(section.jitter_seed, 11);
        assert!(shaped
            .name
            .ends_with("process2+net(lat=15us,bw=33554432,jit=11)"));
        let section = tcp.net.expect("tcp run must record its wire");
        assert!(section.tcp);
        assert_eq!(section.latency_us, 0);
        assert!(tcp.name.ends_with("process2+tcp"));
    }

    #[test]
    fn chaos_injected_process_runs_match_the_clean_baseline() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
            .seed(3)
            .process(2);
        let clean = run_scenario(&sc).unwrap();
        assert!(
            clean.recovery.is_none(),
            "unsupervised run must not emit a recovery section"
        );
        let opts = RunOptions {
            chaos: Some(ChaosSpec::default()),
            ..RunOptions::default()
        };
        let chaotic = run_scenario_with(&sc, &opts).unwrap();
        assert!(
            chaotic.validation.passed,
            "{}: {}",
            chaotic.name, chaotic.validation.detail
        );
        // Recovery is operational: same name, same gated counters.
        assert_eq!(chaotic.name, clean.name);
        assert_eq!(chaotic.rounds, clean.rounds);
        assert_eq!(chaotic.messages, clean.messages);
        assert_eq!(chaotic.bits, clean.bits);
        assert_eq!(chaotic.peak_queue_depth, clean.peak_queue_depth);
        assert_eq!(chaotic.output_size, clean.output_size);
        // Chaos forced the default supervision and actually recovered.
        let section = chaotic.recovery.expect("chaos run records its policy");
        assert_eq!(
            section.max_retries,
            u64::from(RecoverySpec::default().max_retries)
        );
        assert!(
            section.recoveries > 0,
            "the seeded plan must fire inside the run"
        );
    }

    #[test]
    fn supervised_but_undisturbed_runs_record_zero_recoveries() {
        let sc = Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
            .seed(3)
            .process(2)
            .recovery(RecoverySpec {
                max_retries: 2,
                backoff_ms: 1,
                checkpoint_every: 3,
            });
        let rec = run_scenario(&sc).unwrap();
        assert!(rec.validation.passed, "{}", rec.validation.detail);
        let section = rec.recovery.expect("supervised run records its policy");
        assert_eq!(section.max_retries, 2);
        assert_eq!(section.backoff_ms, 1);
        assert_eq!(section.checkpoint_every, 3);
        assert_eq!(section.recoveries, 0);
    }

    #[test]
    fn pooled_scenarios_run_and_validate() {
        for sc in [
            Scenario::new(GraphFamily::Grid { rows: 6, cols: 6 })
                .k(2)
                .seed(3)
                .pooled(4),
            Scenario::new(GraphFamily::Torus { rows: 6, cols: 6 })
                .algorithm(AlgorithmSpec::Sparsify {
                    derandomized: false,
                })
                .pooled(2),
            Scenario::new(GraphFamily::Gnp {
                n: 72,
                avg_deg: 6.0,
            })
            .seed(9)
            .algorithm(AlgorithmSpec::BetaRulingSet { beta: 2 })
            .pooled(3),
        ] {
            let rec = run_scenario(&sc).unwrap();
            assert!(
                rec.validation.passed,
                "{}: {}",
                rec.name, rec.validation.detail
            );
            assert_eq!(rec.engine, "pooled");
            assert!(rec.name.contains("/pooled"), "{}", rec.name);
        }
    }
}
