//! The traced run's pieces: a `UnitRunner` that rebuilds each catalog
//! unit from the public layer calls and keeps a span around each call, a
//! timing `StoreIo`, and an in-memory sink for the existing mc-obs
//! counters.
//!
//! The rebuild mirrors `mc_exp::catalog`'s `fig5`, `policy_arena` and
//! `automotive` runners. The benchmark proves it faithful on every traced
//! run: the traced store must be byte-identical to the catalog runner's.

use chebymc_core::pipeline::derive_set_seed;
use chebymc_core::{design_metrics, CoreError, WcetPolicy};
use mc_exp::{catalog, CampaignSpec, ExpError, Metric, UnitRunner, WorkUnit};
use mc_fault::io::{RealFile, StoreIo};
use mc_sched::policy::{PolicySpec, SchedulingPolicy};
use mc_sched::sim::{simulate, SimConfig};
use mc_task::automotive::{generate_automotive_taskset, AutomotiveConfig};
use mc_task::generate::{generate_hc_taskset, generate_mixed_taskset, GeneratorConfig};
use mc_task::time::Duration as SimDuration;
use mc_task::TaskSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer calls a traced unit is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `generate_{hc,mixed,automotive}_taskset`.
    Generate,
    /// `WcetPolicy::assign` with a non-GA policy.
    Assign,
    /// `WcetPolicy::assign` with the GA policy (one mc-opt GA run).
    GaRun,
    /// `PolicySpec::admit`.
    Admit,
    /// `PolicySpec::sim_config` then `mc_sched::sim::simulate`.
    Simulate,
    /// `design_metrics`.
    DesignMetrics,
}

/// One layer call of one unit, on the traced session's clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// The unit (the request the span belongs to).
    pub unit: usize,
    /// Start, in nanoseconds since the runner was built.
    pub start_ns: u64,
    /// End, in nanoseconds since the runner was built.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Deterministic work counts of one traced session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Task sets generated.
    pub sets: u64,
    /// Tasks over every generated set.
    pub tasks: u64,
    /// Simulations run.
    pub simulations: u64,
    /// Jobs released over every simulation.
    pub jobs: u64,
    /// System-level mode switches over every simulation.
    pub mode_switches: u64,
}

/// Which catalog runner a traced unit mirrors.
enum Family {
    Fig5 {
        policies: Vec<WcetPolicy>,
    },
    Arena {
        roster: Vec<PolicySpec>,
    },
    Automotive {
        roster: Vec<PolicySpec>,
        config: AutomotiveConfig,
    },
}

/// The catalog's fixed design-time assignment for arena units.
const ARENA_WCET: WcetPolicy = WcetPolicy::ChebyshevUniform { n: 3.0 };

/// The catalog's simulation horizons, in seconds.
const ARENA_HORIZON_SECS: u64 = 5;
const AUTOMOTIVE_HORIZON_SECS: u64 = 1;

/// Rebuilds catalog units from the layer calls, one span per call.
pub struct LayerRunner {
    family: Family,
    seed: u64,
    /// Per point: (policy index, utilisation, utilisation index).
    points: Vec<(usize, f64, usize)>,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<WorkCounts>,
}

impl LayerRunner {
    /// A runner for `spec`, which must be a `fig5`, `policy_arena` or
    /// `automotive` catalog campaign.
    pub fn new(spec: &CampaignSpec) -> Result<Self, String> {
        let family = match spec.name.as_str() {
            "fig5" => Family::Fig5 {
                policies: catalog::fig5_policies(),
            },
            "policy_arena" => Family::Arena {
                roster: PolicySpec::arena_roster(),
            },
            "automotive" => Family::Automotive {
                roster: PolicySpec::arena_roster(),
                config: AutomotiveConfig {
                    runnables: spec
                        .params
                        .iter()
                        .find(|p| p.name == "runnables")
                        .map_or(1000, |p| p.value.round() as usize),
                    ..AutomotiveConfig::default()
                },
            },
            other => return Err(format!("no layer rebuild for campaign `{other}`")),
        };
        let points = spec
            .points
            .iter()
            .map(|p| {
                let param = |name| {
                    p.param(name)
                        .ok_or_else(|| format!("point `{}` has no `{name}`", p.label))
                };
                Ok((
                    param("policy")? as usize,
                    param("u")?,
                    param("u_index")? as usize,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(LayerRunner {
            family,
            seed: spec.seed,
            points,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(WorkCounts::default()),
        })
    }

    /// The recorded spans and work counts.
    pub fn finish(self) -> (Vec<Span>, WorkCounts) {
        (
            self.spans.into_inner().expect("span log poisoned"),
            self.counts.into_inner().expect("count log poisoned"),
        )
    }

    fn span<T>(&self, layer: Layer, unit: usize, f: impl FnOnce() -> T) -> T {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span log poisoned").push(Span {
            layer,
            unit,
            start_ns,
            end_ns,
        });
        out
    }

    fn count(&self, f: impl FnOnce(&mut WorkCounts)) {
        f(&mut self.counts.lock().expect("count log poisoned"));
    }

    /// `WcetPolicy::assign` after the catalog's per-set re-seeding.
    fn assign(
        &self,
        policy: &WcetPolicy,
        ts: &mut TaskSet,
        seed: u64,
        inner_threads: usize,
        unit: usize,
    ) -> Result<(), CoreError> {
        let (policy, layer) = match policy {
            WcetPolicy::LambdaRange { lambda_min, .. } => (
                WcetPolicy::LambdaRange {
                    lambda_min: *lambda_min,
                    seed,
                },
                Layer::Assign,
            ),
            WcetPolicy::ChebyshevGa { ga, problem } => (
                WcetPolicy::ChebyshevGa {
                    ga: mc_opt::GaConfig {
                        seed,
                        threads: inner_threads,
                        ..*ga
                    },
                    problem: *problem,
                },
                Layer::GaRun,
            ),
            other => (other.clone(), Layer::Assign),
        };
        self.span(layer, unit, || policy.assign(ts))
    }

    /// Admission then simulation, as `evaluate_arena_set` does them.
    fn race(
        &self,
        ts: &TaskSet,
        policy: &PolicySpec,
        horizon_secs: u64,
        seed: u64,
        unit: usize,
    ) -> Result<Vec<Metric>, CoreError> {
        let verdict = self.span(Layer::Admit, unit, || policy.admit(ts))?;
        let base = SimConfig::new(SimDuration::from_secs(horizon_secs));
        let m = self.span(Layer::Simulate, unit, || {
            let cfg = SimConfig {
                seed,
                ..policy.sim_config(ts, &base)
            };
            simulate(ts, &cfg)
        })?;
        self.count(|c| {
            c.simulations += 1;
            c.jobs += m.released();
            c.mode_switches += m.mode_switches;
        });
        let per_hc = |n: u64| {
            if m.hc_released == 0 {
                0.0
            } else {
                n as f64 / m.hc_released as f64
            }
        };
        Ok(vec![
            Metric::new("schedulable", if verdict.schedulable { 1.0 } else { 0.0 }),
            Metric::new("service_level", verdict.service_level),
            Metric::new("switch_rate", m.switch_rate_per_hc_job()),
            Metric::new("task_switch_rate", per_hc(m.task_level_switches)),
            Metric::new("lc_qos", 1.0 - m.lc_loss_rate()),
            Metric::new("hc_miss_rate", per_hc(m.hc_deadline_misses)),
        ])
    }

    fn generated(&self, ts: &TaskSet) {
        self.count(|c| {
            c.sets += 1;
            c.tasks += ts.len() as u64;
        });
    }
}

impl UnitRunner for LayerRunner {
    fn run_unit(&self, unit: &WorkUnit, inner_threads: usize) -> Result<Vec<Metric>, ExpError> {
        let (pi, u, u_index) = self.points[unit.point];
        let id = unit.index;
        let seed = derive_set_seed(self.seed, u_index, unit.replica);
        let mut rng = StdRng::seed_from_u64(seed);
        let metrics = match &self.family {
            Family::Fig5 { policies } => {
                let mut ts = self
                    .span(Layer::Generate, id, || {
                        generate_hc_taskset(u, &GeneratorConfig::default(), &mut rng)
                    })
                    .map_err(CoreError::Task)?;
                self.generated(&ts);
                self.assign(&policies[pi], &mut ts, seed, inner_threads, id)?;
                let m = self.span(Layer::DesignMetrics, id, || design_metrics(&ts))?;
                vec![
                    Metric::new("p_ms", m.p_ms),
                    Metric::new("max_u_lc_lo", m.max_u_lc_lo),
                    Metric::new("objective", m.objective),
                ]
            }
            Family::Arena { roster } => {
                let mut ts = self
                    .span(Layer::Generate, id, || {
                        generate_mixed_taskset(u, &GeneratorConfig::default(), &mut rng)
                    })
                    .map_err(CoreError::Task)?;
                self.generated(&ts);
                self.assign(&ARENA_WCET, &mut ts, seed, 1, id)?;
                self.race(&ts, &roster[pi], ARENA_HORIZON_SECS, seed, id)?
            }
            Family::Automotive { roster, config } => {
                let mut ts = self
                    .span(Layer::Generate, id, || {
                        generate_automotive_taskset(u, config, &mut rng)
                    })
                    .map_err(CoreError::Task)?;
                self.generated(&ts);
                self.assign(&ARENA_WCET, &mut ts, seed, 1, id)?;
                self.race(&ts, &roster[pi], AUTOMOTIVE_HORIZON_SECS, seed, id)?
            }
        };
        Ok(metrics)
    }
}

/// A `StoreIo` over a real file that times every `sync_data` (fsync).
#[derive(Debug)]
pub struct TimedIo {
    file: RealFile,
    syncs: Arc<Mutex<Vec<u64>>>,
}

impl TimedIo {
    /// Wraps `file`; fsync durations (ns) land in `syncs`.
    pub fn new(file: std::fs::File, syncs: Arc<Mutex<Vec<u64>>>) -> Self {
        TimedIo {
            file: RealFile::new(file),
            syncs,
        }
    }
}

impl StoreIo for TimedIo {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<()> {
        self.file.read_to_end(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.file.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.file.sync_data();
        self.syncs
            .lock()
            .expect("fsync log poisoned")
            .push(t0.elapsed().as_nanos() as u64);
        r
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.truncate(len)
    }
}

/// An mc-obs writer that keeps only the schema line and counter lines,
/// so a traced session holds its GA counters, not every span event.
#[derive(Clone, Default)]
pub struct CounterSink {
    kept: Arc<Mutex<String>>,
    partial: Arc<Mutex<Vec<u8>>>,
}

impl CounterSink {
    /// The kept lines, as mc-obs JSONL.
    pub fn text(&self) -> String {
        self.kept.lock().expect("counter sink poisoned").clone()
    }
}

impl Write for CounterSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut partial = self.partial.lock().expect("counter sink poisoned");
        partial.extend_from_slice(buf);
        while let Some(end) = partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = partial.drain(..=end).collect();
            if line.starts_with(b"{\"k\":\"meta\"") || line.starts_with(b"{\"k\":\"ctr\"") {
                self.kept
                    .lock()
                    .expect("counter sink poisoned")
                    .push_str(&String::from_utf8_lossy(&line));
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
