//! Declarative experiment scenarios: graph family × power `k` ×
//! algorithm × engine, buildable through a fluent API or parsed from a
//! simple TOML-subset spec file.
//!
//! A scenario is pure data — [`crate::runner`] turns it into a graph, an
//! engine, a run and a validated [`crate::manifest::RunRecord`].

use powersparse_engine::NetworkSpec;
use powersparse_graphs::{generators, Graph};
use std::collections::BTreeMap;
use std::fmt;

/// A deterministic graph family with its parameters. Every family builds
/// in `O(n + m)` (expected) and is reproducible bit-for-bit per seed.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphFamily {
    /// Connected Erdős–Rényi-style graph with average degree `avg_deg`
    /// (random spanning path + uniform extra edges).
    Gnp {
        /// Node count.
        n: usize,
        /// Target average degree.
        avg_deg: f64,
    },
    /// Barabási–Albert preferential attachment (power-law degrees).
    PowerLaw {
        /// Node count.
        n: usize,
        /// Edges brought by each new node.
        attach: usize,
    },
    /// Random geometric / unit-disk graph on the unit square.
    Geometric {
        /// Node count.
        n: usize,
        /// Connection radius.
        radius: f64,
    },
    /// Hyperbolic random graph (power-law degrees with exponent
    /// `2·alpha + 1`, high clustering, giant component).
    Hyperbolic {
        /// Node count.
        n: usize,
        /// Target average degree.
        avg_deg: f64,
        /// Radial density exponent (`> 0.5`).
        alpha: f64,
    },
    /// 2D grid.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// 2D torus (grid with wraparound).
    Torus {
        /// Torus rows.
        rows: usize,
        /// Torus columns.
        cols: usize,
    },
    /// Caterpillar tree: spine path with `legs` leaves per spine node.
    Caterpillar {
        /// Spine length.
        spine: usize,
        /// Leaves per spine node.
        legs: usize,
    },
    /// Broom tree: a handle path ending in a fan of bristles.
    Broom {
        /// Handle length.
        handle: usize,
        /// Bristle count.
        bristles: usize,
    },
    /// Bounded-growth cluster graph: a grid of bridged cliques.
    ClusterGrid {
        /// Cluster-grid rows.
        rows: usize,
        /// Cluster-grid columns.
        cols: usize,
        /// Clique size per cluster.
        cluster: usize,
    },
    /// Planted-community graph (equal-block stochastic block model):
    /// dense blocks (`p_in`) joined by a sparse random cut (`p_out`).
    Planted {
        /// Node count.
        n: usize,
        /// Community count.
        communities: usize,
        /// Intra-community edge probability.
        p_in: f64,
        /// Inter-community edge probability.
        p_out: f64,
    },
}

impl GraphFamily {
    /// Stable family identifier (used in manifests and spec files).
    pub fn id(&self) -> &'static str {
        match self {
            Self::Gnp { .. } => "gnp",
            Self::PowerLaw { .. } => "power_law",
            Self::Geometric { .. } => "geometric",
            Self::Hyperbolic { .. } => "hyperbolic",
            Self::Grid { .. } => "grid",
            Self::Torus { .. } => "torus",
            Self::Caterpillar { .. } => "caterpillar",
            Self::Broom { .. } => "broom",
            Self::ClusterGrid { .. } => "cluster_grid",
            Self::Planted { .. } => "planted",
        }
    }

    /// Human-readable label with parameters, e.g. `gnp(n=192,d=8)`.
    pub fn label(&self) -> String {
        match self {
            Self::Gnp { n, avg_deg } => format!("gnp(n={n},d={avg_deg})"),
            Self::PowerLaw { n, attach } => format!("power_law(n={n},attach={attach})"),
            Self::Geometric { n, radius } => format!("geometric(n={n},r={radius})"),
            Self::Hyperbolic { n, avg_deg, alpha } => {
                format!("hyperbolic(n={n},d={avg_deg},a={alpha})")
            }
            Self::Grid { rows, cols } => format!("grid({rows}x{cols})"),
            Self::Torus { rows, cols } => format!("torus({rows}x{cols})"),
            Self::Caterpillar { spine, legs } => format!("caterpillar(spine={spine},legs={legs})"),
            Self::Broom { handle, bristles } => format!("broom(handle={handle},b={bristles})"),
            Self::ClusterGrid {
                rows,
                cols,
                cluster,
            } => format!("cluster_grid({rows}x{cols},c={cluster})"),
            Self::Planted {
                n,
                communities,
                p_in,
                p_out,
            } => format!("planted(n={n},c={communities},pin={p_in},pout={p_out})"),
        }
    }

    /// Materializes the graph (deterministic per `seed`; the
    /// non-randomized families ignore it).
    pub fn build(&self, seed: u64) -> Graph {
        match *self {
            Self::Gnp { n, avg_deg } => generators::connected_sparse_gnp(n, avg_deg, seed),
            Self::PowerLaw { n, attach } => generators::barabasi_albert(n, attach, seed),
            Self::Geometric { n, radius } => generators::random_geometric(n, radius, seed),
            Self::Hyperbolic { n, avg_deg, alpha } => {
                generators::hyperbolic(n, avg_deg, alpha, seed)
            }
            Self::Grid { rows, cols } => generators::grid(rows, cols),
            Self::Torus { rows, cols } => generators::torus(rows, cols),
            Self::Caterpillar { spine, legs } => generators::caterpillar(spine, legs),
            Self::Broom { handle, bristles } => generators::broom(handle, bristles),
            Self::ClusterGrid {
                rows,
                cols,
                cluster,
            } => generators::cluster_grid(rows, cols, cluster),
            Self::Planted {
                n,
                communities,
                p_in,
                p_out,
            } => generators::planted(n, communities, p_in, p_out, seed),
        }
    }
}

/// The algorithm a scenario runs and validates. Every algorithm runs
/// through the engine-generic
/// [`powersparse_congest::engine::RoundPhase::step`] API and therefore
/// executes on any [`EngineSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum AlgorithmSpec {
    /// Luby's MIS of `G^k` (Section 8.1).
    LubyMis,
    /// Ghaffari's BeepingMIS of `G^k` via Lemma 8.2 ID-tagged beeps.
    BeepingMis,
    /// The shattering MIS of `G^k` (Theorems 1.2/1.4: pre-shattering,
    /// ruling set with balls, ball-graph network decomposition, cluster
    /// finishing). Requires a connected graph.
    ShatterMis {
        /// Use the two-phase post-shattering of Section 7.2.1 instead of
        /// the one-phase variant of Section 7.2.2.
        two_phase: bool,
    },
    /// Iterated power-graph sparsification (Algorithm 3 / Lemma 3.1).
    /// `derandomized` selects the seed-scan strategy (requires a
    /// connected graph for the global aggregation tree).
    Sparsify {
        /// Use the deterministic seed-scan strategy instead of
        /// randomized sampling.
        derandomized: bool,
    },
    /// Randomized `(k+1, kβ)`-ruling set (Corollary 1.3).
    BetaRulingSet {
        /// Domination stretch factor β ≥ 2.
        beta: usize,
    },
    /// Deterministic `(k+1, k²)`-ruling set (Theorem 1.1). Requires a
    /// connected graph.
    DetRulingK2,
    /// Deterministic `(k+1, ck)`-ruling set from the unique IDs with base
    /// `⌈n^{1/c}⌉` (Corollary 6.2), a Table 1 baseline.
    IdRulingSet {
        /// Digit count of the ID expansion, c ≥ 1; rounds grow as
        /// `O(k·c·n^{1/c})`.
        c: u32,
    },
    /// Deterministic ruling set of the AGLP framework with IDs and base 2
    /// (`(k+1, k·⌈log₂ n⌉)`), a Table 1 baseline. Validated against the
    /// domination bound the run reports.
    AglpRulingSet,
    /// Network decomposition of `G^k` with separation `2k+1`
    /// (Theorem A.1). Requires a connected graph.
    PowerNd,
}

impl AlgorithmSpec {
    /// Stable identifier (used in manifests and spec files).
    pub fn id(&self) -> String {
        match self {
            Self::LubyMis => "luby_mis".into(),
            Self::BeepingMis => "beeping_mis".into(),
            Self::ShatterMis { two_phase: false } => "shatter_mis".into(),
            Self::ShatterMis { two_phase: true } => "shatter_mis_two_phase".into(),
            Self::Sparsify {
                derandomized: false,
            } => "sparsify".into(),
            Self::Sparsify { derandomized: true } => "sparsify_derandomized".into(),
            Self::BetaRulingSet { beta } => format!("beta_ruling(beta={beta})"),
            Self::DetRulingK2 => "det_ruling_k2".into(),
            Self::IdRulingSet { c } => format!("id_ruling(c={c})"),
            Self::AglpRulingSet => "aglp_ruling".into(),
            Self::PowerNd => "power_nd".into(),
        }
    }
}

/// Supervision policy for the process engine's shard children: how many
/// respawn attempts a failed shard gets, how long to back off between
/// attempts, and how often the parent checkpoints child state so replay
/// suffixes stay short.
///
/// Recovery is **operational, not semantic**: a recovered run produces
/// bit-for-bit the outputs, counters and probe traces of an undisturbed
/// one (only `Metrics::recoveries` moves), so a `RecoverySpec` is *not*
/// part of the scenario identity ([`Scenario::name`]) and recovered
/// manifests stay diffable against clean baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySpec {
    /// Respawn attempts per failure before failing closed (>= 1).
    pub max_retries: u32,
    /// Sleep between attempts, in milliseconds (scaled linearly by the
    /// attempt number).
    pub backoff_ms: u64,
    /// Checkpoint the children every this many rounds (0 = never:
    /// recovery replays from the start of the current phase).
    pub checkpoint_every: u32,
}

impl Default for RecoverySpec {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_ms: 0,
            checkpoint_every: 4,
        }
    }
}

/// The error every entry point returns for the retired
/// [`EngineSpec::Sharded`] engine (spec files, `--force-engine`,
/// hand-built scenarios).
pub const SHARDED_REMOVED: &str = "engine \"sharded\" was removed; use \"pooled\"";

/// Which [`powersparse_congest::engine::RoundEngine`] backend executes
/// the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSpec {
    /// The sequential reference `Simulator`.
    Sequential,
    /// Retired: the scoped-thread backend this named was removed in
    /// favour of [`EngineSpec::Pooled`]. The variant stays so that code
    /// matching on it keeps compiling; every entry point rejects it with
    /// [`SHARDED_REMOVED`].
    Sharded {
        /// Worker/shard count.
        shards: usize,
    },
    /// The persistent worker-pool `PooledSimulator` (epoch barrier,
    /// batched transfer).
    Pooled {
        /// Worker/shard count.
        shards: usize,
    },
    /// The multi-process `ProcessSimulator` (one forked child per
    /// shard, Unix-socket wire frames).
    Process {
        /// Worker/shard count.
        shards: usize,
    },
}

impl EngineSpec {
    /// Stable identifier.
    pub fn id(&self) -> &'static str {
        match self {
            Self::Sequential => "sequential",
            Self::Sharded { .. } => "sharded",
            Self::Pooled { .. } => "pooled",
            Self::Process { .. } => "process",
        }
    }

    /// Worker count (1 for the sequential engine).
    pub fn shards(&self) -> usize {
        match self {
            Self::Sequential => 1,
            Self::Sharded { shards } | Self::Pooled { shards } | Self::Process { shards } => {
                *shards
            }
        }
    }
}

/// One fully specified experiment: build the family's graph, run the
/// algorithm on the engine, validate the output, record the costs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The communication graph's family and parameters.
    pub family: GraphFamily,
    /// Power-graph exponent `k` (the algorithms operate on `G^k`).
    pub k: usize,
    /// Seed for both graph generation and the algorithm's randomness.
    pub seed: u64,
    /// The algorithm to run and validate.
    pub algorithm: AlgorithmSpec,
    /// The engine backend.
    pub engine: EngineSpec,
    /// Optional wire shaping (latency/bandwidth/jitter) for the
    /// process engine's child links; `None` leaves the wire unshaped.
    /// Shaping moves wall clock only — every counter stays bit-for-bit
    /// identical (the engine contract).
    pub net: Option<NetworkSpec>,
    /// Run the process engine's child links over loopback TCP instead
    /// of Unix sockets (the multi-machine deployment shape).
    pub tcp: bool,
    /// Optional shard supervision for the process engine: `None` is
    /// fail-fast (a dead child aborts the run with the pinned error),
    /// `Some` respawns and replays failed children. Operational only —
    /// not part of the scenario identity.
    pub recovery: Option<RecoverySpec>,
}

impl Scenario {
    /// A scenario with defaults: `k = 1`, `seed = 1`, Luby MIS on the
    /// sequential engine.
    pub fn new(family: GraphFamily) -> Self {
        Self {
            family,
            k: 1,
            seed: 1,
            algorithm: AlgorithmSpec::LubyMis,
            engine: EngineSpec::Sequential,
            net: None,
            tcp: false,
            recovery: None,
        }
    }

    /// Sets the power `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the algorithm.
    pub fn algorithm(mut self, algorithm: AlgorithmSpec) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Runs on the persistent-pool engine with `shards` workers.
    pub fn pooled(mut self, shards: usize) -> Self {
        self.engine = EngineSpec::Pooled { shards };
        self
    }

    /// Runs on the multi-process engine with `shards` forked children.
    pub fn process(mut self, shards: usize) -> Self {
        self.engine = EngineSpec::Process { shards };
        self
    }

    /// Runs on the sequential reference engine.
    pub fn sequential(mut self) -> Self {
        self.engine = EngineSpec::Sequential;
        self
    }

    /// Shapes the process engine's wire with `net` (latency, finite
    /// bandwidth, seeded jitter). Only valid on the process engine.
    pub fn network(mut self, net: NetworkSpec) -> Self {
        self.net = Some(net);
        self
    }

    /// Runs the process engine's child links over loopback TCP. Only
    /// valid on the process engine.
    pub fn tcp(mut self) -> Self {
        self.tcp = true;
        self
    }

    /// Supervises the process engine's shard children with `recovery`
    /// (respawn + checkpoint/replay instead of fail-fast). Only valid
    /// on the process engine.
    pub fn recovery(mut self, recovery: RecoverySpec) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Canonical run name, e.g.
    /// `power_law(n=300,attach=3)/k2/luby_mis/pooled4`; a shaped or
    /// TCP wire is part of the identity, e.g.
    /// `.../process2+tcp+net(lat=200us,bw=0,jit=0)`. A [`RecoverySpec`]
    /// is deliberately **not** — recovery cannot move any compared
    /// counter, so recovered runs keep matching their clean baselines
    /// under `suite --diff`.
    pub fn name(&self) -> String {
        let mut name = format!(
            "{}/k{}/{}/{}{}",
            self.family.label(),
            self.k,
            self.algorithm.id(),
            self.engine.id(),
            match self.engine {
                EngineSpec::Sequential => String::new(),
                EngineSpec::Sharded { shards }
                | EngineSpec::Pooled { shards }
                | EngineSpec::Process { shards } => shards.to_string(),
            }
        );
        if self.tcp {
            name.push_str("+tcp");
        }
        if let Some(net) = self.net {
            name.push_str(&format!(
                "+net(lat={}us,bw={},jit={})",
                net.latency_us, net.bandwidth_bytes_per_s, net.jitter_seed
            ));
        }
        name
    }

    /// Checks that the scenario is executable as specified.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem (e.g. the retired sharded
    /// engine, zero shards, or wire options on an in-process engine).
    /// Every algorithm runs on every engine, so algorithm × engine
    /// combinations are not restricted.
    pub fn validate_spec(&self) -> Result<(), String> {
        if matches!(self.engine, EngineSpec::Sharded { .. }) {
            return Err(SHARDED_REMOVED.into());
        }
        if self.engine.shards() == 0 {
            return Err("shards must be >= 1".into());
        }
        if self.k == 0 {
            return Err("k must be >= 1".into());
        }
        if self.algorithm == (AlgorithmSpec::IdRulingSet { c: 0 }) {
            return Err("`c` must be >= 1".into());
        }
        if !matches!(self.engine, EngineSpec::Process { .. }) {
            if self.net.is_some() {
                return Err("`net` shaping requires the process engine".into());
            }
            if self.tcp {
                return Err("`tcp` requires the process engine".into());
            }
            if self.recovery.is_some() {
                return Err("`recovery` supervision requires the process engine".into());
            }
        }
        if let Some(r) = self.recovery {
            if r.max_retries == 0 {
                return Err("`recovery.max_retries` must be >= 1".into());
            }
        }
        Ok(())
    }
}

/// Which built-in suite to materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteProfile {
    /// Small sizes, every family, all three engines — CI-speed
    /// (< seconds).
    Smoke,
    /// Larger sizes for real measurements; still laptop-scale.
    Full,
}

/// The curated built-in scenario suite: every graph family, all three
/// engines, all four algorithm classes. The smoke profile is the one CI
/// runs on every PR; the full profile scales sizes up for the
/// `BENCH_*.json` trajectory.
pub fn builtin_suite(profile: SuiteProfile) -> Vec<Scenario> {
    use AlgorithmSpec::*;
    let s = match profile {
        SuiteProfile::Smoke => 1,
        SuiteProfile::Full => 8,
    };
    let shards = match profile {
        SuiteProfile::Smoke => 4,
        SuiteProfile::Full => 8,
    };
    let gnp = GraphFamily::Gnp {
        n: 192 * s,
        avg_deg: 8.0,
    };
    let power_law = GraphFamily::PowerLaw {
        n: 300 * s,
        attach: 3,
    };
    // Radius comfortably above the connectivity threshold √(ln n / n);
    // the suite's geometric scenarios run Luby MIS, which validates
    // per component and does not require connectivity.
    let geometric = GraphFamily::Geometric {
        n: 256 * s,
        radius: if s == 1 { 0.16 } else { 0.06 },
    };
    // Power-law-with-geometry regime; Luby MIS validates per component,
    // so the (rare) small satellite components are fine.
    let hyperbolic = GraphFamily::Hyperbolic {
        n: 256 * s,
        avg_deg: 6.0,
        alpha: 0.75,
    };
    let grid = GraphFamily::Grid {
        rows: 16 * s,
        cols: 12,
    };
    let torus = GraphFamily::Torus {
        rows: 12,
        cols: 12 * s,
    };
    let caterpillar = GraphFamily::Caterpillar {
        spine: 60 * s,
        legs: 3,
    };
    let broom = GraphFamily::Broom {
        handle: 80 * s,
        bristles: 40 * s,
    };
    let cluster = GraphFamily::ClusterGrid {
        rows: 4,
        cols: 4 * s,
        cluster: 6,
    };
    // Dense pockets over a sparse cut — the imbalance workload the
    // stage profiler is built to expose (`experiments profile`).
    let planted = GraphFamily::Planted {
        n: 160 * s,
        communities: 4,
        p_in: if s == 1 { 0.25 } else { 0.25 / s as f64 },
        p_out: 0.01 / s as f64,
    };
    vec![
        // MIS across every family, alternating/pairing engines so each
        // family and all three engine backends appear.
        Scenario::new(gnp.clone()).seed(42),
        Scenario::new(gnp.clone()).seed(42).pooled(shards),
        Scenario::new(gnp.clone()).seed(42).process(2),
        Scenario::new(power_law.clone()).k(2).seed(7),
        Scenario::new(power_law).k(2).seed(7).pooled(shards),
        Scenario::new(geometric.clone()).seed(3),
        Scenario::new(geometric).seed(3).pooled(2),
        Scenario::new(hyperbolic).seed(17).pooled(shards),
        Scenario::new(grid.clone()).k(2).pooled(shards),
        Scenario::new(caterpillar).k(2),
        Scenario::new(broom).pooled(2),
        Scenario::new(cluster.clone()).k(2).pooled(shards),
        Scenario::new(planted).seed(23).pooled(shards),
        // Sparsification (Lemma 3.1) on structured topologies, both
        // engines.
        Scenario::new(torus.clone()).algorithm(Sparsify {
            derandomized: false,
        }),
        Scenario::new(torus.clone())
            .algorithm(Sparsify {
                derandomized: false,
            })
            .pooled(shards),
        Scenario::new(torus.clone())
            .algorithm(Sparsify {
                derandomized: false,
            })
            .process(2),
        Scenario::new(cluster.clone()).k(2).algorithm(Sparsify {
            derandomized: false,
        }),
        // BeepingMIS (Lemma 8.2) — per-component, so it also covers the
        // possibly-disconnected geometric family; both engines.
        Scenario::new(GraphFamily::Gnp {
            n: 128 * s,
            avg_deg: 7.0,
        })
        .seed(11)
        .algorithm(BeepingMis),
        Scenario::new(grid)
            .k(2)
            .seed(11)
            .algorithm(BeepingMis)
            .pooled(shards),
        // The shattering MIS pipeline (Theorems 1.2/1.4), both
        // post-shattering variants, in and out of the pool.
        Scenario::new(GraphFamily::Gnp {
            n: 96 * s,
            avg_deg: 6.0,
        })
        .seed(13)
        .algorithm(ShatterMis { two_phase: false })
        .pooled(shards),
        Scenario::new(cluster)
            .k(2)
            .seed(13)
            .algorithm(ShatterMis { two_phase: true }),
        // Ruling sets, now engine-generic: both engines appear.
        Scenario::new(GraphFamily::Gnp {
            n: 160 * s,
            avg_deg: 10.0,
        })
        .seed(5)
        .algorithm(BetaRulingSet { beta: 3 }),
        Scenario::new(GraphFamily::Gnp {
            n: 160 * s,
            avg_deg: 10.0,
        })
        .seed(5)
        .algorithm(BetaRulingSet { beta: 3 })
        .pooled(shards),
        Scenario::new(GraphFamily::Grid {
            rows: 10,
            cols: 10 * s,
        })
        .k(2)
        .algorithm(DetRulingK2),
        Scenario::new(GraphFamily::Grid {
            rows: 10,
            cols: 10 * s,
        })
        .k(2)
        .algorithm(DetRulingK2)
        .pooled(2),
        // Network decomposition (Theorem A.1), both engines.
        Scenario::new(torus).k(2).algorithm(PowerNd),
        Scenario::new(GraphFamily::Caterpillar {
            spine: 60 * s,
            legs: 3,
        })
        .algorithm(PowerNd)
        .pooled(shards),
    ]
}

/// The scenario lists behind the paper's tables (`experiments
/// table1-det`, …, `experiments nd`). Each is a scale-parameterised
/// matrix run and validated by the same runner as [`builtin_suite`], so
/// every printed row re-runs from its name. One seed per graph drives
/// both the graph and the algorithms run on it, so every algorithm of
/// a table compares on the same graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperTable {
    /// Table 1, deterministic ruling sets of `G^k`: Corollary 6.2
    /// (c ∈ {2, 3}) and AGLP against Theorem 1.1, for k ∈ {1, 2, 3}.
    Table1Det,
    /// Table 1, randomized MIS of `G^k`: Luby and BeepingMIS against
    /// Theorem 1.2, for k ∈ {1, 2, 3}.
    Table1Mis,
    /// Table 1, randomized `(k+1, kβ)`-ruling sets (Corollary 1.3), for
    /// k ∈ {1, 2} and β ∈ {2, 3, 4}.
    Table1Ruling,
    /// Lemma 3.1 sparsification, randomized and seed-scan, for
    /// k ∈ {1, 2, 3}.
    Sparsify,
    /// Theorem 1.4: shattering MIS of `G` (one- and two-phase) against
    /// Luby across average degrees 4 to 32.
    Shattering,
    /// Theorem A.1 network decomposition of `G^k` for k ∈ {1, 2}, plus a
    /// 900-node path whose large diameter exercises the delay-based
    /// clustering.
    Nd,
}

impl PaperTable {
    /// Every table, in the order `experiments all` prints them.
    pub const ALL: [Self; 6] = [
        Self::Table1Det,
        Self::Table1Mis,
        Self::Table1Ruling,
        Self::Sparsify,
        Self::Shattering,
        Self::Nd,
    ];

    /// The `experiments` subcommand that prints this table.
    pub fn command(self) -> &'static str {
        match self {
            Self::Table1Det => "table1-det",
            Self::Table1Mis => "table1-mis",
            Self::Table1Ruling => "table1-ruling",
            Self::Sparsify => "sparsify",
            Self::Shattering => "shattering",
            Self::Nd => "nd",
        }
    }

    /// The table's scenarios at `scale`: every graph × `k` × algorithm
    /// of the table, on the sequential engine. Graph sizes grow linearly
    /// with `scale`, except the fixed-size path of [`PaperTable::Nd`].
    pub fn scenarios(self, scale: usize) -> Vec<Scenario> {
        use AlgorithmSpec::*;
        // A bounded-degree random graph, a grid (large diameter,
        // constant degree) and a denser random graph, each with its seed.
        let mut graphs = vec![
            (
                GraphFamily::Gnp {
                    n: 64 * scale,
                    avg_deg: 8.0,
                },
                42,
            ),
            (
                GraphFamily::Grid {
                    rows: 8 * scale,
                    cols: 8,
                },
                42,
            ),
            (
                GraphFamily::Gnp {
                    n: 64 * scale,
                    avg_deg: 16.0,
                },
                43,
            ),
        ];
        let (ks, algorithms): (&[usize], Vec<AlgorithmSpec>) = match self {
            Self::Table1Det => (
                &[1, 2, 3],
                vec![
                    IdRulingSet { c: 2 },
                    IdRulingSet { c: 3 },
                    AglpRulingSet,
                    DetRulingK2,
                ],
            ),
            Self::Table1Mis => (
                &[1, 2, 3],
                vec![LubyMis, BeepingMis, ShatterMis { two_phase: false }],
            ),
            Self::Table1Ruling => (&[1, 2], [2, 3, 4].map(|beta| BetaRulingSet { beta }).into()),
            Self::Sparsify => (
                &[1, 2, 3],
                vec![
                    Sparsify {
                        derandomized: false,
                    },
                    Sparsify { derandomized: true },
                ],
            ),
            Self::Shattering => {
                graphs = [4.0, 8.0, 16.0, 32.0]
                    .map(|avg_deg| {
                        let n = 256 * scale;
                        (GraphFamily::Gnp { n, avg_deg }, 77)
                    })
                    .into();
                (
                    &[1],
                    vec![
                        LubyMis,
                        ShatterMis { two_phase: false },
                        ShatterMis { two_phase: true },
                    ],
                )
            }
            Self::Nd => {
                let path = GraphFamily::Caterpillar {
                    spine: 900,
                    legs: 0,
                };
                graphs.push((path, 42));
                (&[1, 2], vec![PowerNd])
            }
        };
        let mut scenarios = Vec::new();
        for (family, seed) in graphs {
            for &k in ks {
                for alg in &algorithms {
                    let sc = Scenario::new(family.clone()).k(k).seed(seed);
                    scenarios.push(sc.algorithm(alg.clone()));
                }
            }
        }
        scenarios
    }
}

/// A value in a spec file: integer, float, string, bool or a flat
/// inline table (`{ key = value, ... }` with scalar values only).
#[derive(Debug, Clone, PartialEq)]
enum SpecValue {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Table(BTreeMap<String, SpecValue>),
}

impl SpecValue {
    fn type_name(&self) -> &'static str {
        match self {
            Self::Int(_) => "integer",
            Self::Float(_) => "float",
            Self::Str(_) => "string",
            Self::Bool(_) => "bool",
            Self::Table(_) => "inline table",
        }
    }
}

/// A spec-file parse failure with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number of the offending scenario block or line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Parses a scenario suite from the TOML-subset spec format:
///
/// ```toml
/// [[scenario]]
/// family = "power_law"   # gnp | power_law | geometric | hyperbolic |
///                        # grid | torus | caterpillar | broom |
///                        # cluster_grid
/// n = 300
/// attach = 3
/// k = 2
/// seed = 7
/// algorithm = "luby_mis" # luby_mis | beeping_mis | shatter_mis |
///                        # shatter_mis_two_phase | sparsify |
///                        # sparsify_derandomized | beta_ruling |
///                        # det_ruling_k2 | id_ruling (key `c`) |
///                        # aglp_ruling | power_nd
/// engine = "pooled"      # sequential | pooled | process
/// shards = 4
///
/// [[scenario]]
/// family = "grid"
/// rows = 12
/// cols = 12
/// engine = "process"     # wire options are process-engine-only:
/// tcp = true             # child links over loopback TCP
/// net = { latency_us = 200, bandwidth_bytes_per_s = 16777216, jitter_seed = 7 }
/// recovery = { max_retries = 3, backoff_ms = 0, checkpoint_every = 4 }
/// ```
///
/// Supported: `[[scenario]]` table headers, `key = value` with integer,
/// float, `"string"`, `true`/`false` and flat inline-table values
/// (scalars only — `net = { ... }` is the one consumer), `#` comments,
/// blank lines. Unknown keys are errors (typos must not silently change
/// an experiment).
///
/// # Errors
///
/// Returns the first [`SpecError`] encountered.
pub fn parse_suite(text: &str) -> Result<Vec<Scenario>, SpecError> {
    let mut scenarios = Vec::new();
    let mut current: Option<(usize, BTreeMap<String, (usize, SpecValue)>)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = match raw.split_once('#') {
            Some((before, _)) => before.trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if line == "[[scenario]]" {
            if let Some((start, kv)) = current.take() {
                scenarios.push(scenario_from_kv(start, kv)?);
            }
            current = Some((line_no, BTreeMap::new()));
            continue;
        }
        let (key, value) = line.split_once('=').ok_or(SpecError {
            line: line_no,
            message: format!("expected `key = value` or `[[scenario]]`, got `{line}`"),
        })?;
        let key = key.trim().to_string();
        let value = parse_value(value.trim(), line_no)?;
        let Some((_, kv)) = current.as_mut() else {
            return Err(SpecError {
                line: line_no,
                message: "key outside a [[scenario]] block".into(),
            });
        };
        if kv.insert(key.clone(), (line_no, value)).is_some() {
            return Err(SpecError {
                line: line_no,
                message: format!("duplicate key `{key}`"),
            });
        }
    }
    if let Some((start, kv)) = current.take() {
        scenarios.push(scenario_from_kv(start, kv)?);
    }
    Ok(scenarios)
}

fn parse_value(text: &str, line: usize) -> Result<SpecValue, SpecError> {
    if let Some(stripped) = text.strip_prefix('{') {
        let inner = stripped.strip_suffix('}').ok_or(SpecError {
            line,
            message: format!("unterminated inline table `{text}`"),
        })?;
        let mut kv = BTreeMap::new();
        for entry in inner.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry.split_once('=').ok_or(SpecError {
                line,
                message: format!("expected `key = value` in inline table, got `{entry}`"),
            })?;
            let key = key.trim().to_string();
            let value = parse_value(value.trim(), line)?;
            if matches!(value, SpecValue::Table(_)) {
                return Err(SpecError {
                    line,
                    message: "nested inline tables are not supported".into(),
                });
            }
            if kv.insert(key.clone(), value).is_some() {
                return Err(SpecError {
                    line,
                    message: format!("duplicate key `{key}` in inline table"),
                });
            }
        }
        return Ok(SpecValue::Table(kv));
    }
    if let Some(stripped) = text.strip_prefix('"') {
        let inner = stripped.strip_suffix('"').ok_or(SpecError {
            line,
            message: format!("unterminated string `{text}`"),
        })?;
        return Ok(SpecValue::Str(inner.to_string()));
    }
    match text {
        "true" => return Ok(SpecValue::Bool(true)),
        "false" => return Ok(SpecValue::Bool(false)),
        _ => {}
    }
    if let Ok(v) = text.parse::<i64>() {
        return Ok(SpecValue::Int(v));
    }
    if let Ok(v) = text.parse::<f64>() {
        return Ok(SpecValue::Float(v));
    }
    Err(SpecError {
        line,
        message: format!("cannot parse value `{text}`"),
    })
}

/// Typed key extraction helpers over the parsed block. Keys are removed
/// as they are consumed; whatever remains at [`Block::finish`] is an
/// unknown key.
struct Block {
    line: usize,
    kv: BTreeMap<String, (usize, SpecValue)>,
}

impl Block {
    fn take(&mut self, key: &str) -> Option<(usize, SpecValue)> {
        self.kv.remove(key)
    }

    fn usize(&mut self, key: &str) -> Result<usize, SpecError> {
        match self.take(key) {
            Some((_, SpecValue::Int(v))) if v >= 0 => Ok(v as usize),
            Some((line, v)) => Err(SpecError {
                line,
                message: format!(
                    "`{key}` must be a non-negative integer, got {}",
                    v.type_name()
                ),
            }),
            None => Err(SpecError {
                line: self.line,
                message: format!("missing required key `{key}`"),
            }),
        }
    }

    fn usize_or(&mut self, key: &str, default: usize) -> Result<usize, SpecError> {
        match self.take(key) {
            Some((_, SpecValue::Int(v))) if v >= 0 => Ok(v as usize),
            Some((line, v)) => Err(SpecError {
                line,
                message: format!(
                    "`{key}` must be a non-negative integer, got {}",
                    v.type_name()
                ),
            }),
            None => Ok(default),
        }
    }

    fn f64(&mut self, key: &str) -> Result<f64, SpecError> {
        match self.take(key) {
            Some((_, SpecValue::Float(v))) => Ok(v),
            Some((_, SpecValue::Int(v))) => Ok(v as f64),
            Some((line, v)) => Err(SpecError {
                line,
                message: format!("`{key}` must be a number, got {}", v.type_name()),
            }),
            None => Err(SpecError {
                line: self.line,
                message: format!("missing required key `{key}`"),
            }),
        }
    }

    fn f64_or(&mut self, key: &str, default: f64) -> Result<f64, SpecError> {
        match self.take(key) {
            Some((_, SpecValue::Float(v))) => Ok(v),
            Some((_, SpecValue::Int(v))) => Ok(v as f64),
            Some((line, v)) => Err(SpecError {
                line,
                message: format!("`{key}` must be a number, got {}", v.type_name()),
            }),
            None => Ok(default),
        }
    }

    fn bool_or(&mut self, key: &str, default: bool) -> Result<bool, SpecError> {
        match self.take(key) {
            Some((_, SpecValue::Bool(v))) => Ok(v),
            Some((line, v)) => Err(SpecError {
                line,
                message: format!("`{key}` must be a bool, got {}", v.type_name()),
            }),
            None => Ok(default),
        }
    }

    /// The optional `net = { latency_us = N, ... }` inline table,
    /// decoded into a [`NetworkSpec`]. `latency_us` is required;
    /// `bandwidth_bytes_per_s` (0 = infinite) and `jitter_seed`
    /// (0 = no jitter) default to 0; unknown keys are errors.
    fn net_or(&mut self) -> Result<Option<NetworkSpec>, SpecError> {
        let Some((line, value)) = self.take("net") else {
            return Ok(None);
        };
        let SpecValue::Table(kv) = value else {
            return Err(SpecError {
                line,
                message: format!(
                    "`net` must be an inline table like \
                     `{{ latency_us = 200 }}`, got {}",
                    value.type_name()
                ),
            });
        };
        let mut inner = Block {
            line,
            kv: kv.into_iter().map(|(k, v)| (k, (line, v))).collect(),
        };
        let spec = NetworkSpec {
            latency_us: inner.usize("latency_us")? as u64,
            bandwidth_bytes_per_s: inner.usize_or("bandwidth_bytes_per_s", 0)? as u64,
            jitter_seed: inner.usize_or("jitter_seed", 0)? as u64,
        };
        if let Some((key, (line, _))) = inner.kv.into_iter().next() {
            return Err(SpecError {
                line,
                message: format!("unknown key `{key}` in `net` table"),
            });
        }
        Ok(Some(spec))
    }

    /// The optional `recovery = { max_retries = N, ... }` inline table,
    /// decoded into a [`RecoverySpec`]. Every key is optional (the
    /// [`RecoverySpec::default`] supervision applies), so
    /// `recovery = {}` is the shortest way to turn supervision on;
    /// unknown keys are errors.
    fn recovery_or(&mut self) -> Result<Option<RecoverySpec>, SpecError> {
        let Some((line, value)) = self.take("recovery") else {
            return Ok(None);
        };
        let SpecValue::Table(kv) = value else {
            return Err(SpecError {
                line,
                message: format!(
                    "`recovery` must be an inline table like \
                     `{{ max_retries = 3 }}`, got {}",
                    value.type_name()
                ),
            });
        };
        let mut inner = Block {
            line,
            kv: kv.into_iter().map(|(k, v)| (k, (line, v))).collect(),
        };
        let default = RecoverySpec::default();
        let spec = RecoverySpec {
            max_retries: inner.usize_or("max_retries", default.max_retries as usize)? as u32,
            backoff_ms: inner.usize_or("backoff_ms", default.backoff_ms as usize)? as u64,
            checkpoint_every: inner
                .usize_or("checkpoint_every", default.checkpoint_every as usize)?
                as u32,
        };
        if let Some((key, (line, _))) = inner.kv.into_iter().next() {
            return Err(SpecError {
                line,
                message: format!("unknown key `{key}` in `recovery` table"),
            });
        }
        Ok(Some(spec))
    }

    fn str_or(&mut self, key: &str, default: &str) -> Result<String, SpecError> {
        match self.take(key) {
            Some((_, SpecValue::Str(v))) => Ok(v),
            Some((line, v)) => Err(SpecError {
                line,
                message: format!("`{key}` must be a string, got {}", v.type_name()),
            }),
            None => Ok(default.to_string()),
        }
    }

    fn finish(self) -> Result<(), SpecError> {
        if let Some((key, (line, _))) = self.kv.into_iter().next() {
            return Err(SpecError {
                line,
                message: format!("unknown key `{key}` for this scenario"),
            });
        }
        Ok(())
    }
}

fn scenario_from_kv(
    line: usize,
    kv: BTreeMap<String, (usize, SpecValue)>,
) -> Result<Scenario, SpecError> {
    let mut b = Block { line, kv };
    let family_name = {
        match b.take("family") {
            Some((_, SpecValue::Str(v))) => v,
            Some((l, v)) => {
                return Err(SpecError {
                    line: l,
                    message: format!("`family` must be a string, got {}", v.type_name()),
                })
            }
            None => {
                return Err(SpecError {
                    line,
                    message: "missing required key `family`".into(),
                })
            }
        }
    };
    let family = match family_name.as_str() {
        "gnp" => GraphFamily::Gnp {
            n: b.usize("n")?,
            avg_deg: b.f64("avg_deg")?,
        },
        "power_law" => GraphFamily::PowerLaw {
            n: b.usize("n")?,
            attach: b.usize("attach")?,
        },
        "geometric" => GraphFamily::Geometric {
            n: b.usize("n")?,
            radius: b.f64("radius")?,
        },
        "hyperbolic" => GraphFamily::Hyperbolic {
            n: b.usize("n")?,
            avg_deg: b.f64("avg_deg")?,
            alpha: b.f64_or("alpha", 0.75)?,
        },
        "grid" => GraphFamily::Grid {
            rows: b.usize("rows")?,
            cols: b.usize("cols")?,
        },
        "torus" => GraphFamily::Torus {
            rows: b.usize("rows")?,
            cols: b.usize("cols")?,
        },
        "caterpillar" => GraphFamily::Caterpillar {
            spine: b.usize("spine")?,
            legs: b.usize("legs")?,
        },
        "broom" => GraphFamily::Broom {
            handle: b.usize("handle")?,
            bristles: b.usize("bristles")?,
        },
        "cluster_grid" => GraphFamily::ClusterGrid {
            rows: b.usize("rows")?,
            cols: b.usize("cols")?,
            cluster: b.usize("cluster")?,
        },
        "planted" => GraphFamily::Planted {
            n: b.usize("n")?,
            communities: b.usize("communities")?,
            p_in: b.f64("p_in")?,
            p_out: b.f64("p_out")?,
        },
        other => {
            return Err(SpecError {
                line,
                message: format!("unknown family `{other}`"),
            })
        }
    };
    let algorithm = match b.str_or("algorithm", "luby_mis")?.as_str() {
        "luby_mis" => AlgorithmSpec::LubyMis,
        "beeping_mis" => AlgorithmSpec::BeepingMis,
        "shatter_mis" => AlgorithmSpec::ShatterMis {
            two_phase: b.bool_or("two_phase", false)?,
        },
        "shatter_mis_two_phase" => {
            // A redundant-but-consistent `two_phase = true` is fine; a
            // contradictory `two_phase = false` is an error, not a
            // silent override.
            if !b.bool_or("two_phase", true)? {
                return Err(SpecError {
                    line,
                    message: "`two_phase = false` contradicts algorithm \
                              `shatter_mis_two_phase`"
                        .into(),
                });
            }
            AlgorithmSpec::ShatterMis { two_phase: true }
        }
        "sparsify" => AlgorithmSpec::Sparsify {
            derandomized: false,
        },
        "sparsify_derandomized" => AlgorithmSpec::Sparsify { derandomized: true },
        "beta_ruling" => AlgorithmSpec::BetaRulingSet {
            beta: b.usize_or("beta", 2)?,
        },
        "det_ruling_k2" => AlgorithmSpec::DetRulingK2,
        "id_ruling" => {
            let c_line = b.kv.get("c").map_or(line, |&(l, _)| l);
            let c = u32::try_from(b.usize_or("c", 2)?).map_err(|_| SpecError {
                line: c_line,
                message: "`c` must fit in 32 bits".into(),
            })?;
            AlgorithmSpec::IdRulingSet { c }
        }
        "aglp_ruling" => AlgorithmSpec::AglpRulingSet,
        "power_nd" => AlgorithmSpec::PowerNd,
        other => {
            return Err(SpecError {
                line,
                message: format!("unknown algorithm `{other}`"),
            })
        }
    };
    let engine_line = b.kv.get("engine").map_or(line, |&(l, _)| l);
    let engine = match b.str_or("engine", "sequential")?.as_str() {
        "sequential" => EngineSpec::Sequential,
        "sharded" => {
            return Err(SpecError {
                line: engine_line,
                message: SHARDED_REMOVED.into(),
            })
        }
        "pooled" => EngineSpec::Pooled {
            shards: b.usize_or("shards", 4)?,
        },
        "process" => EngineSpec::Process {
            shards: b.usize_or("shards", 4)?,
        },
        other => {
            return Err(SpecError {
                line: engine_line,
                message: format!("unknown engine `{other}`"),
            })
        }
    };
    let scenario = Scenario {
        family,
        k: b.usize_or("k", 1)?,
        seed: b.usize_or("seed", 1)? as u64,
        algorithm,
        engine,
        net: b.net_or()?,
        tcp: b.bool_or("tcp", false)?,
        recovery: b.recovery_or()?,
    };
    b.finish()?;
    scenario
        .validate_spec()
        .map_err(|message| SpecError { line, message })?;
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_names() {
        let sc = Scenario::new(GraphFamily::PowerLaw { n: 300, attach: 3 })
            .k(2)
            .seed(7)
            .pooled(4);
        assert_eq!(sc.name(), "power_law(n=300,attach=3)/k2/luby_mis/pooled4");
        assert!(sc.validate_spec().is_ok());
        let sc = sc.sequential().algorithm(AlgorithmSpec::DetRulingK2);
        assert_eq!(
            sc.name(),
            "power_law(n=300,attach=3)/k2/det_ruling_k2/sequential"
        );
    }

    #[test]
    fn every_algorithm_is_valid_on_every_engine() {
        // The PR-3 step-API port lifted the old sequential-only
        // restriction: algorithm × engine combinations all validate now.
        let algorithms = [
            AlgorithmSpec::LubyMis,
            AlgorithmSpec::BeepingMis,
            AlgorithmSpec::ShatterMis { two_phase: false },
            AlgorithmSpec::ShatterMis { two_phase: true },
            AlgorithmSpec::Sparsify { derandomized: true },
            AlgorithmSpec::BetaRulingSet { beta: 3 },
            AlgorithmSpec::DetRulingK2,
            AlgorithmSpec::IdRulingSet { c: 3 },
            AlgorithmSpec::AglpRulingSet,
            AlgorithmSpec::PowerNd,
        ];
        for algorithm in algorithms {
            for sc in [
                Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 }).algorithm(algorithm.clone()),
                Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 })
                    .algorithm(algorithm.clone())
                    .pooled(2),
            ] {
                assert!(sc.validate_spec().is_ok(), "{} rejected", sc.name());
            }
        }
    }

    #[test]
    fn parses_spec_file() {
        let text = r#"
# two scenarios
[[scenario]]
family = "power_law"
n = 300
attach = 3
k = 2
seed = 7
algorithm = "luby_mis"
engine = "pooled"
shards = 4

[[scenario]]
family = "torus"
rows = 12
cols = 12
algorithm = "sparsify"   # randomized

[[scenario]]
family = "grid"
rows = 8
cols = 8
k = 2
algorithm = "id_ruling"
c = 3

[[scenario]]
family = "gnp"
n = 64
avg_deg = 8.0
seed = 42
algorithm = "aglp_ruling"
"#;
        let suite = parse_suite(text).unwrap();
        assert_eq!(suite.len(), 4);
        assert_eq!(
            suite[0],
            Scenario::new(GraphFamily::PowerLaw { n: 300, attach: 3 })
                .k(2)
                .seed(7)
                .pooled(4)
        );
        assert_eq!(
            suite[1],
            Scenario::new(GraphFamily::Torus { rows: 12, cols: 12 }).algorithm(
                AlgorithmSpec::Sparsify {
                    derandomized: false,
                }
            )
        );
        assert_eq!(
            suite[2],
            Scenario::new(GraphFamily::Grid { rows: 8, cols: 8 })
                .k(2)
                .algorithm(AlgorithmSpec::IdRulingSet { c: 3 })
        );
        assert_eq!(suite[2].name(), "grid(8x8)/k2/id_ruling(c=3)/sequential");
        assert_eq!(
            suite[3],
            Scenario::new(GraphFamily::Gnp {
                n: 64,
                avg_deg: 8.0,
            })
            .seed(42)
            .algorithm(AlgorithmSpec::AglpRulingSet)
        );
        assert_eq!(suite[3].name(), "gnp(n=64,d=8)/k1/aglp_ruling/sequential");
        // `c` defaults to 2.
        let default_c = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\nalgorithm = \"id_ruling\"\n",
        )
        .unwrap();
        assert_eq!(default_c[0].algorithm, AlgorithmSpec::IdRulingSet { c: 2 });
    }

    #[test]
    fn planted_family_parses_builds_and_names() {
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"planted\"\nn = 60\ncommunities = 3\n\
             p_in = 0.4\np_out = 0.02\nseed = 9\nengine = \"pooled\"\nshards = 2\n",
        )
        .unwrap();
        assert_eq!(suite.len(), 1);
        let family = GraphFamily::Planted {
            n: 60,
            communities: 3,
            p_in: 0.4,
            p_out: 0.02,
        };
        assert_eq!(suite[0], Scenario::new(family.clone()).seed(9).pooled(2));
        assert_eq!(family.id(), "planted");
        assert_eq!(family.label(), "planted(n=60,c=3,pin=0.4,pout=0.02)");
        let g = family.build(9);
        assert_eq!(g.n(), 60);
        assert!(g.m() > 0);
        let missing = parse_suite("[[scenario]]\nfamily = \"planted\"\nn = 60\ncommunities = 3\n")
            .unwrap_err();
        assert!(missing.message.contains("p_in"), "{missing}");
    }

    #[test]
    fn spec_errors_are_located() {
        let missing = parse_suite("[[scenario]]\nfamily = \"gnp\"\nn = 100\n").unwrap_err();
        assert!(missing.message.contains("avg_deg"), "{missing}");
        let unknown =
            parse_suite("[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\nbogus = 1\n")
                .unwrap_err();
        assert!(unknown.message.contains("bogus"), "{unknown}");
        assert_eq!(unknown.line, 5);
        let stray = parse_suite("n = 100\n").unwrap_err();
        assert!(stray.message.contains("outside"), "{stray}");
        let badval = parse_suite("[[scenario]]\nfamily = \"gnp\"\nn = oops\n").unwrap_err();
        assert!(badval.message.contains("oops"), "{badval}");
        // The retired engine fails on its own line, with the hint.
        let retired = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\nengine = \"sharded\"\n",
        )
        .unwrap_err();
        assert_eq!(retired.message, SHARDED_REMOVED);
        assert_eq!(retired.line, 5);
        // `c` belongs to `id_ruling` only, must be an integer >= 1, and a
        // bad value is reported on its own line.
        let grid = "[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\n";
        for (bad, line, needle) in [
            ("algorithm = \"id_ruling\"\nc = \"two\"\n", 6, "`c` must be"),
            ("algorithm = \"id_ruling\"\nc = 4294967296\n", 6, "32 bits"),
            ("algorithm = \"id_ruling\"\nc = 0\n", 1, "`c` must be >= 1"),
            ("algorithm = \"aglp_ruling\"\nc = 2\n", 6, "unknown key `c`"),
        ] {
            let err = parse_suite(&format!("{grid}{bad}")).unwrap_err();
            assert!(err.message.contains(needle), "{bad:?}: {err}");
            assert_eq!(err.line, line, "{bad:?}: {err}");
        }
        // A hand-built scenario on the retired variant is refused too.
        let mut sc = Scenario::new(GraphFamily::Grid { rows: 3, cols: 3 });
        sc.engine = EngineSpec::Sharded { shards: 2 };
        assert_eq!(sc.validate_spec().unwrap_err(), SHARDED_REMOVED);
    }

    #[test]
    fn formerly_sequential_only_specs_now_parse_sharded() {
        // These spec files were rejected before the PR-3 port; they are
        // valid scenarios on a multi-shard engine now.
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\n\
             algorithm = \"det_ruling_k2\"\nengine = \"pooled\"\n\n\
             [[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\n\
             algorithm = \"shatter_mis\"\ntwo_phase = true\nengine = \"pooled\"\nshards = 8\n\n\
             [[scenario]]\nfamily = \"torus\"\nrows = 4\ncols = 4\n\
             algorithm = \"power_nd\"\nengine = \"pooled\"\n",
        )
        .unwrap();
        assert_eq!(suite.len(), 3);
        assert_eq!(suite[0].algorithm, AlgorithmSpec::DetRulingK2);
        // shatter_mis_two_phase tolerates a consistent explicit key and
        // rejects a contradictory one.
        assert!(parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\n\
             algorithm = \"shatter_mis_two_phase\"\ntwo_phase = true\n"
        )
        .is_ok());
        let contradiction = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 3\ncols = 3\n\
             algorithm = \"shatter_mis_two_phase\"\ntwo_phase = false\n",
        )
        .unwrap_err();
        assert!(
            contradiction.message.contains("contradicts"),
            "{contradiction}"
        );
        assert_eq!(
            suite[1].algorithm,
            AlgorithmSpec::ShatterMis { two_phase: true }
        );
        assert_eq!(suite[1].engine, EngineSpec::Pooled { shards: 8 });
        assert_eq!(suite[2].algorithm, AlgorithmSpec::PowerNd);
    }

    #[test]
    fn hyperbolic_family_parses_builds_and_is_in_the_suite() {
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"hyperbolic\"\nn = 200\navg_deg = 6.0\nseed = 9\n\n\
             [[scenario]]\nfamily = \"hyperbolic\"\nn = 200\navg_deg = 6.0\nalpha = 1.1\n",
        )
        .unwrap();
        assert_eq!(
            suite[0].family,
            GraphFamily::Hyperbolic {
                n: 200,
                avg_deg: 6.0,
                alpha: 0.75, // the spec default
            }
        );
        assert_eq!(
            suite[1].family,
            GraphFamily::Hyperbolic {
                n: 200,
                avg_deg: 6.0,
                alpha: 1.1,
            }
        );
        let g = suite[0].family.build(suite[0].seed);
        assert_eq!(g.n(), 200);
        assert!(g.m() > 0);
        assert_eq!(
            suite[0].name(),
            "hyperbolic(n=200,d=6,a=0.75)/k1/luby_mis/sequential"
        );
        // And the smoke suite carries a hyperbolic row.
        assert!(builtin_suite(SuiteProfile::Smoke)
            .iter()
            .any(|sc| sc.family.id() == "hyperbolic"));
    }

    #[test]
    fn builtin_suites_are_well_formed() {
        for profile in [SuiteProfile::Smoke, SuiteProfile::Full] {
            let suite = builtin_suite(profile);
            assert!(suite.len() >= 10);
            for sc in &suite {
                sc.validate_spec().unwrap();
            }
            let families: std::collections::BTreeSet<&str> =
                suite.iter().map(|s| s.family.id()).collect();
            assert!(families.len() >= 5, "families: {families:?}");
            assert!(
                families.contains("planted"),
                "the planted-community row must stay in both profiles"
            );
            assert!(suite.iter().any(|s| s.engine == EngineSpec::Sequential));
            assert!(suite
                .iter()
                .any(|s| matches!(s.engine, EngineSpec::Pooled { .. })));
            assert!(suite
                .iter()
                .any(|s| matches!(s.engine, EngineSpec::Process { .. })));
        }
    }

    #[test]
    fn wire_options_parse_build_and_name() {
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"process\"\nshards = 2\ntcp = true\n\
             net = { latency_us = 200, bandwidth_bytes_per_s = 16777216, jitter_seed = 7 }\n\n\
             [[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"process\"\nnet = { latency_us = 50 } # defaults: bw inf, no jitter\n",
        )
        .unwrap();
        assert_eq!(
            suite[0],
            Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 })
                .process(2)
                .tcp()
                .network(NetworkSpec {
                    latency_us: 200,
                    bandwidth_bytes_per_s: 16 << 20,
                    jitter_seed: 7,
                })
        );
        assert_eq!(
            suite[0].name(),
            "grid(4x4)/k1/luby_mis/process2+tcp+net(lat=200us,bw=16777216,jit=7)"
        );
        assert_eq!(
            suite[1].net,
            Some(NetworkSpec {
                latency_us: 50,
                bandwidth_bytes_per_s: 0,
                jitter_seed: 0,
            })
        );
        assert!(!suite[1].tcp);
        assert_eq!(
            suite[1].name(),
            "grid(4x4)/k1/luby_mis/process4+net(lat=50us,bw=0,jit=0)"
        );
    }

    #[test]
    fn wire_options_are_process_engine_only() {
        let shaped = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"pooled\"\nnet = { latency_us = 10 }\n",
        )
        .unwrap_err();
        assert!(shaped.message.contains("process engine"), "{shaped}");
        let tcp = parse_suite("[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\ntcp = true\n")
            .unwrap_err();
        assert!(tcp.message.contains("process engine"), "{tcp}");
        // And through the builder path too.
        let sc = Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 }).network(NetworkSpec {
            latency_us: 10,
            bandwidth_bytes_per_s: 0,
            jitter_seed: 0,
        });
        assert!(sc.validate_spec().is_err());
    }

    #[test]
    fn recovery_spec_parses_defaults_and_stays_out_of_the_name() {
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"process\"\nshards = 2\n\
             recovery = { max_retries = 5, backoff_ms = 10, checkpoint_every = 2 }\n\n\
             [[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"process\"\nrecovery = {}\n",
        )
        .unwrap();
        assert_eq!(
            suite[0],
            Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 })
                .process(2)
                .recovery(RecoverySpec {
                    max_retries: 5,
                    backoff_ms: 10,
                    checkpoint_every: 2,
                })
        );
        // Recovery is operational, not semantic: the run name (and so
        // the manifest diff identity) is the plain process run's.
        assert_eq!(suite[0].name(), "grid(4x4)/k1/luby_mis/process2");
        // `recovery = {}` turns supervision on with the defaults.
        assert_eq!(suite[1].recovery, Some(RecoverySpec::default()));
        assert_eq!(suite[1].recovery.unwrap().max_retries, 3);
    }

    #[test]
    fn recovery_spec_is_process_engine_only_and_validated() {
        let err = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"pooled\"\nrecovery = {}\n",
        )
        .unwrap_err();
        assert!(err.message.contains("process engine"), "{err}");
        let err = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"process\"\nrecovery = { max_retries = 0 }\n",
        )
        .unwrap_err();
        assert!(err.message.contains("max_retries"), "{err}");
        let err = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"process\"\nrecovery = { bogus = 1 }\n",
        )
        .unwrap_err();
        assert!(err.message.contains("bogus"), "{err}");
        let err = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"process\"\nrecovery = 3\n",
        )
        .unwrap_err();
        assert!(err.message.contains("inline table"), "{err}");
    }

    #[test]
    fn net_table_rejects_malformed_specs() {
        let base = "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\nengine = \"process\"\n";
        for (bad, needle) in [
            ("net = { latency_us = 10, bogus = 1 }\n", "bogus"),
            ("net = { bandwidth_bytes_per_s = 8 }\n", "latency_us"),
            ("net = { latency_us = 10\n", "unterminated"),
            ("net = 10\n", "inline table"),
            ("net = { latency_us = 10, latency_us = 20 }\n", "duplicate"),
            ("net = { latency_us }\n", "key = value"),
        ] {
            let err = parse_suite(&format!("{base}{bad}")).unwrap_err();
            assert!(err.message.contains(needle), "{bad:?}: {err}");
        }
    }

    #[test]
    fn process_engine_parses_and_names() {
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"process\"\nshards = 3\n",
        )
        .unwrap();
        assert_eq!(suite[0].engine, EngineSpec::Process { shards: 3 });
        assert_eq!(suite[0].name(), "grid(4x4)/k1/luby_mis/process3");
    }

    #[test]
    fn pooled_engine_parses_and_names() {
        let suite = parse_suite(
            "[[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"pooled\"\nshards = 3\n\n\
             [[scenario]]\nfamily = \"grid\"\nrows = 4\ncols = 4\n\
             engine = \"pooled\"\n",
        )
        .unwrap();
        assert_eq!(suite[0].engine, EngineSpec::Pooled { shards: 3 });
        assert_eq!(suite[0].name(), "grid(4x4)/k1/luby_mis/pooled3");
        // `shards` defaults to 4, like the process engine's.
        assert_eq!(suite[1].engine, EngineSpec::Pooled { shards: 4 });
        let sc = Scenario::new(GraphFamily::Grid { rows: 4, cols: 4 }).pooled(0);
        assert!(sc.validate_spec().is_err(), "zero shards must be rejected");
    }
}
