//! The benchmark's workloads: which world each builds, which protocol it
//! runs on which backend, and the outcome of one run.
//!
//! Every workload is a batch run of one trace-driven cell. Queries arrive
//! on the workload's Poisson schedule in simulated time whatever the
//! protocol does (an open loop in simulated time); the host runs that load
//! to completion, so a run is a fixed amount of work at a stated input size.
//! Inputs come from the public generators, seeded by `--seed`.

use crate::host::{cpu_timed, peak_rss_mb, reset_peak_rss};
use crate::timed::Labeled;
use asap_bench::faults::FaultProfile;
use asap_bench::{AlgoKind, Scale};
use asap_core::protocol::AsapStats;
use asap_core::Asap;
use asap_metrics::{LoadRecorder, MsgClass, QueryLedger};
use asap_net::Loopback;
use asap_overlay::{Overlay, OverlayConfig, OverlayKind};
use asap_search::{RandomWalk, RandomWalkConfig};
use asap_sim::{CheckpointProtocol, EngineProfile, Fnv64, SimBuilder, Simulation};
use asap_topology::PhysicalNetwork;
use asap_workload::Workload;
use std::time::Instant;

/// Queries in the `asap-loopback` trace: shortened from the default scale's
/// 4,000 so that a loopback run, which pays the wire codec on every
/// message, costs about as much host time as an `asap-crawled` run.
const LOOPBACK_QUERIES: usize = 500;

/// The named workloads. These names are fixed; later changes compare
/// against them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// ASAP(RW) on the crawled overlay at default scale: the paper's
    /// headline cell, dominated by the ad-dissemination write path.
    AsapCrawled,
    /// Random walk on the random overlay at xl scale (100k peers): set-up,
    /// memory and the large-working-set engine path; ASAP does no work.
    WalkXl,
    /// The `asap-crawled` protocol and world on a shortened trace, driven
    /// through the wire-codec loopback instead of the sim engine.
    AsapLoopback,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 3] = [Self::AsapCrawled, Self::WalkXl, Self::AsapLoopback];

    pub fn name(self) -> &'static str {
        match self {
            Self::AsapCrawled => "asap-crawled",
            Self::WalkXl => "walk-xl",
            Self::AsapLoopback => "asap-loopback",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The cell this workload runs. `Size::Tiny` keeps every structural
    /// choice and shrinks the population, for the benchmark's own tests.
    pub fn spec(self, size: Size) -> Spec {
        let scale = |full| match size {
            Size::Full => full,
            Size::Tiny => Scale::Tiny,
        };
        match self {
            Self::AsapCrawled => Spec {
                scale: scale(Scale::Default),
                queries: scale(Scale::Default).queries(),
                overlay: OverlayKind::Crawled,
                algo: Algo::AsapRw,
                backend: Backend::Sim,
            },
            Self::WalkXl => Spec {
                scale: scale(Scale::Xl),
                queries: scale(Scale::Xl).queries(),
                overlay: OverlayKind::Random,
                algo: Algo::RandomWalk,
                backend: Backend::Sim,
            },
            Self::AsapLoopback => Spec {
                scale: scale(Scale::Default),
                queries: match size {
                    Size::Full => LOOPBACK_QUERIES,
                    Size::Tiny => Scale::Tiny.queries() / 3,
                },
                overlay: OverlayKind::Crawled,
                algo: Algo::AsapRw,
                backend: Backend::Loopback,
            },
        }
    }
}

/// Input size: the benchmark's workloads, or tiny versions of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Which protocol a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    AsapRw,
    RandomWalk,
}

/// Which runtime drives the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic sim engine on its default (heap) queue.
    Sim,
    /// `asap_net::Loopback`: every message crosses the wire codec.
    Loopback,
}

/// One cell: world size, overlay, protocol and backend.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub scale: Scale,
    pub queries: usize,
    pub overlay: OverlayKind,
    pub algo: Algo,
    pub backend: Backend,
}

/// The generated inputs of one cell.
pub struct World {
    pub spec: Spec,
    pub seed: u64,
    pub phys: PhysicalNetwork,
    pub workload: Workload,
    pub overlay: Overlay,
}

/// CPU seconds of each named set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupPhases {
    pub topology_s: f64,
    pub workload_s: f64,
    pub overlay_s: f64,
    pub protocol_s: f64,
    pub assemble_s: f64,
}

impl SetupPhases {
    /// `setup_s`: the sum of the named phases.
    pub fn total_s(&self) -> f64 {
        self.topology_s + self.workload_s + self.overlay_s + self.protocol_s + self.assemble_s
    }
}

impl World {
    /// Build the world with the public generators, timing each phase.
    pub fn build(spec: Spec, seed: u64, phases: &mut SetupPhases) -> Self {
        let (phys, topology_s) =
            cpu_timed(|| PhysicalNetwork::generate(&spec.scale.topology(seed)));
        let (workload, workload_s) = cpu_timed(|| {
            asap_workload::generate(&asap_workload::WorkloadConfig::reduced(
                spec.scale.peers(),
                spec.queries,
                seed,
            ))
        });
        let (overlay, overlay_s) =
            cpu_timed(|| OverlayConfig::new(spec.overlay, spec.scale.peers(), seed).build());
        phases.topology_s = topology_s;
        phases.workload_s = workload_s;
        phases.overlay_s = overlay_s;
        Self {
            spec,
            seed,
            phys,
            workload,
            overlay,
        }
    }
}

/// A protocol the benchmark can run: how to build it for a world, and its
/// protocol-side counters.
pub trait Cell: Labeled + CheckpointProtocol + Sized {
    fn build(world: &World) -> Self;
    fn asap_stats(&self) -> Option<AsapStats>;
}

impl Cell for Asap {
    fn build(world: &World) -> Self {
        AlgoKind::AsapRw.build_asap_with(
            world.spec.scale,
            &world.workload.model,
            FaultProfile::None.robustness(),
        )
    }

    fn asap_stats(&self) -> Option<AsapStats> {
        Some(self.stats.clone())
    }
}

impl Cell for RandomWalk {
    fn build(world: &World) -> Self {
        RandomWalk::new(RandomWalkConfig {
            walkers: 5,
            ttl: world.spec.scale.rw_ttl(),
            retransmit: FaultProfile::None.retransmit(),
        })
    }

    fn asap_stats(&self) -> Option<AsapStats> {
        None
    }
}

/// A cell assembled on its backend, ready to run.
pub enum Assembled<'w, P: CheckpointProtocol> {
    Sim(SimBuilder<'w, P>),
    Net(Loopback<'w, P>),
}

/// Assemble `protocol` onto `world` on `backend` (peer placement, trace
/// preload, overlay copy), timing it into `phases.assemble_s`.
pub fn assemble<'w, P: CheckpointProtocol>(
    world: &'w World,
    backend: Backend,
    protocol: P,
    phases: &mut SetupPhases,
) -> Assembled<'w, P> {
    let (assembled, assemble_s) = cpu_timed(|| {
        let overlay = world.overlay.clone();
        match backend {
            Backend::Sim => Assembled::Sim(Simulation::builder(
                &world.phys,
                &world.workload,
                overlay,
                world.spec.overlay,
                protocol,
                world.seed,
            )),
            Backend::Loopback => Assembled::Net(Loopback::new(
                &world.phys,
                &world.workload,
                overlay,
                world.spec.overlay,
                protocol,
                world.seed,
            )),
        }
    });
    phases.assemble_s = assemble_s;
    assembled
}

/// One finished run: its outcome, the protocol after the run, and the host
/// cost of `run()`.
pub struct Finished<P> {
    pub outcome: Outcome,
    pub protocol: P,
    /// CPU seconds from `run()` to the report.
    pub run_s: f64,
    /// Wall nanoseconds of the same interval (the span clock's base).
    pub run_wall_ns: u64,
    /// Peak resident set during the run, in MB.
    pub peak_rss_mb: f64,
}

impl<P: CheckpointProtocol> Assembled<'_, P> {
    /// Run to the horizon. The resident-set high-water mark is reset first,
    /// so the reported peak is this run's.
    pub fn run(self, workload: &Workload) -> Finished<P> {
        let peak_reset = reset_peak_rss();
        let wall = Instant::now();
        let (finished, run_s) = cpu_timed(|| match self {
            Assembled::Sim(b) => {
                let r = b.run();
                Raw {
                    load: r.load,
                    ledger: r.ledger,
                    protocol: r.protocol,
                    messages: r.messages_sent,
                    end_time_us: r.end_time_us,
                    profile: Some(r.profile),
                    wire_errors: 0,
                }
            }
            Assembled::Net(l) => {
                let r = l.run();
                Raw {
                    load: r.load,
                    ledger: r.ledger,
                    protocol: r.protocol,
                    messages: r.messages_sent,
                    end_time_us: r.end_time_us,
                    profile: None,
                    wire_errors: r.wire_errors,
                }
            }
        });
        let run_wall_ns = u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let peak = peak_rss_mb().filter(|_| peak_reset).unwrap_or(f64::NAN);
        Finished {
            outcome: Outcome::new(workload, &finished),
            protocol: finished.protocol,
            run_s,
            run_wall_ns,
            peak_rss_mb: peak,
        }
    }
}

/// The backend-independent part of a run report.
struct Raw<P> {
    load: LoadRecorder,
    ledger: QueryLedger,
    protocol: P,
    messages: u64,
    end_time_us: u64,
    profile: Option<EngineProfile>,
    wire_errors: u64,
}

/// What a run produced, reduced to the figures' metrics, the outcome
/// fingerprint and the inputs of the correctness checks.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Queries in the workload trace.
    pub trace_queries: usize,
    /// Queries the ledger registered.
    pub registered: usize,
    pub succeeded: usize,
    pub messages: u64,
    /// FNV over per-query `(id, issue, first answer, answers)`: the same
    /// fingerprint the golden harness computes.
    pub fingerprint: u64,
    /// `QueryLedger::check_consistency` violations.
    pub ledger_violations: Vec<String>,
    pub success_rate: f64,
    pub search_bytes_per_query: f64,
    pub load_bytes_per_node_s: f64,
    /// Mean first-answer latency over answered queries (the paper's
    /// response time, Fig. 5).
    pub response_ms_mean: f64,
    pub class_totals: [u64; MsgClass::COUNT],
    /// The sim engine's event-loop counters (`None` on the loopback).
    pub profile: Option<EngineProfile>,
    pub wire_errors: u64,
}

impl Outcome {
    fn new<P>(workload: &Workload, raw: &Raw<P>) -> Self {
        let ledger = &raw.ledger;
        let mut fp = Fnv64::new();
        for (id, rec) in ledger.records_with_ids() {
            fp.write_all(&[
                u64::from(id),
                rec.issue_us,
                rec.first_answer_us.unwrap_or(u64::MAX),
                u64::from(rec.answers),
            ]);
        }
        let registered = ledger.num_queries();
        Self {
            trace_queries: workload.trace.num_queries(),
            registered,
            succeeded: ledger.num_succeeded(),
            messages: raw.messages,
            fingerprint: fp.finish(),
            ledger_violations: ledger.check_consistency(raw.end_time_us),
            success_rate: ledger.success_rate(),
            search_bytes_per_query: raw.load.search_cost_bytes() as f64 / registered.max(1) as f64,
            load_bytes_per_node_s: raw.load.mean_load(),
            response_ms_mean: ledger.avg_response_time_ms(),
            class_totals: raw.load.class_totals(),
            profile: raw.profile,
            wire_errors: raw.wire_errors,
        }
    }

    /// The run's own correctness checks; empty when it passes.
    pub fn check(&self) -> Vec<String> {
        let mut failures: Vec<String> = self
            .ledger_violations
            .iter()
            .map(|v| format!("ledger: {v}"))
            .collect();
        if self.registered != self.trace_queries {
            failures.push(format!(
                "{} of {} trace queries registered",
                self.registered, self.trace_queries
            ));
        }
        if self.wire_errors != 0 {
            failures.push(format!("{} wire errors", self.wire_errors));
        }
        if self.messages == 0 || self.succeeded == 0 {
            failures.push("the run sent no messages or answered no query".to_string());
        }
        failures
    }

    /// Whether two runs behaved identically: same per-query outcomes, same
    /// message count, same bytes per class.
    pub fn same_behaviour(&self, other: &Outcome) -> bool {
        self.fingerprint == other.fingerprint
            && self.messages == other.messages
            && self.class_totals == other.class_totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(w.name()), Some(w));
        }
        assert_eq!(WorkloadKind::parse("asap-xl"), None);
    }
}
