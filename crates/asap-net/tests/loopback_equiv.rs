//! Sim≡net: the loopback runtime replays a workload to the same lifecycle
//! digest as the sim engine, for every protocol family.
//!
//! This is the tentpole invariant of the transport-trait redesign: the
//! same monomorphized protocol state machine runs on both backends, with
//! the wire codec load-bearing only on the net side. Equal backend-tagged
//! [`LifecycleDigest`]s over a full replay prove (a) the `Transport`
//! extraction preserved engine semantics and (b) encode→decode on every
//! single delivered message is behaviorally invisible.
//!
//! The tiny-scale pinned matrix lives in `asap-bench` (`simnet` bin,
//! `golden/simnet_tiny.txt`); this tier keeps a fast in-tree witness. The
//! loopback is the sim engine over a wire carrier, so the engine's fault
//! and audit layers ride it too; the lossy cell below checks that.

use asap_core::{Asap, AsapConfig, RobustnessConfig};
use asap_net::Loopback;
use asap_overlay::{OverlayConfig, OverlayKind};
use asap_search::{Flooding, FloodingConfig, Gsa, GsaConfig, RandomWalk, RandomWalkConfig};
use asap_sim::{AuditConfig, CheckpointProtocol, FaultPlan, Simulation};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_trace::{Backend, DigestSink, LifecycleDigest, TraceSink};
use asap_workload::{Workload, WorkloadConfig};

const PEERS: usize = 120;
const QUERIES: usize = 150;
const SEED: u64 = 11;

fn world() -> (PhysicalNetwork, Workload) {
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(SEED));
    let workload = asap_workload::generate(&WorkloadConfig::reduced(PEERS, QUERIES, SEED));
    (phys, workload)
}

fn overlay() -> asap_overlay::Overlay {
    OverlayConfig::new(OverlayKind::Random, PEERS, SEED).build()
}

fn digest_of(sink: Box<dyn TraceSink>) -> LifecycleDigest {
    sink.into_any()
        .downcast::<DigestSink>()
        .expect("digest sink comes back out")
        .digest()
}

/// Run one protocol on both backends; assert digest and metric equality.
fn assert_equivalent<P: CheckpointProtocol>(label: &str, sim_proto: P, net_proto: P) {
    let (phys, workload) = world();

    let sim = Simulation::builder(
        &phys,
        &workload,
        overlay(),
        OverlayKind::Random,
        sim_proto,
        SEED,
    )
    .trace(Box::new(DigestSink::new(Backend::Sim)))
    .run();
    let net = Loopback::new(
        &phys,
        &workload,
        overlay(),
        OverlayKind::Random,
        net_proto,
        SEED,
    )
    .trace(Box::new(DigestSink::new(Backend::Net)))
    .run();

    assert_eq!(net.wire_errors, 0, "{label}: frames failed to decode");
    let ds = digest_of(sim.trace.expect("sim sink"));
    let dn = digest_of(net.trace.expect("net sink"));
    assert_eq!(ds.backend(), Backend::Sim);
    assert_eq!(dn.backend(), Backend::Net);
    assert_eq!(
        ds.count(),
        dn.count(),
        "{label}: lifecycle event counts diverge"
    );
    assert_eq!(
        ds.value(),
        dn.value(),
        "{label}: sim and net lifecycle digests diverge"
    );
    // The digest already covers sends/deliveries/answers; cross-check the
    // headline metrics directly for a readable failure mode.
    assert_eq!(sim.messages_sent, net.messages_sent, "{label}");
    assert_eq!(sim.end_time_us, net.end_time_us, "{label}");
    assert_eq!(
        sim.ledger.num_succeeded(),
        net.ledger.num_succeeded(),
        "{label}"
    );
    assert_eq!(sim.load.total_bytes(), net.load.total_bytes(), "{label}");
    assert_eq!(sim.alive, net.alive, "{label}");
}

#[test]
fn flooding_replays_identically_on_both_backends() {
    assert_equivalent(
        "flooding",
        Flooding::new(FloodingConfig::default()),
        Flooding::new(FloodingConfig::default()),
    );
}

#[test]
fn random_walk_replays_identically_on_both_backends() {
    assert_equivalent(
        "random-walk",
        RandomWalk::new(RandomWalkConfig::default()),
        RandomWalk::new(RandomWalkConfig::default()),
    );
}

#[test]
fn gsa_replays_identically_on_both_backends() {
    assert_equivalent(
        "gsa",
        Gsa::new(GsaConfig::default()),
        Gsa::new(GsaConfig::default()),
    );
}

#[test]
fn asap_rw_replays_identically_on_both_backends() {
    let (_, workload) = world();
    let make = || Asap::new(AsapConfig::rw(), &workload.model);
    assert_equivalent("asap-rw", make(), make());
}

#[test]
fn lossy_audited_asap_rw_replays_identically_on_both_backends() {
    let (phys, workload) = world();
    let plan = FaultPlan {
        loss_ppm: 100_000,
        jitter_max_us: 20_000,
        duplicate_ppm: 20_000,
        ..FaultPlan::none()
    };
    let make = || {
        let config = AsapConfig::rw().with_robustness(RobustnessConfig::lossy());
        Asap::new(config, &workload.model)
    };

    let sim = Simulation::builder(
        &phys,
        &workload,
        overlay(),
        OverlayKind::Random,
        make(),
        SEED,
    )
    .faults(plan.clone())
    .audit(AuditConfig::default())
    .trace(Box::new(DigestSink::new(Backend::Sim)))
    .run();
    let net = Loopback::new(
        &phys,
        &workload,
        overlay(),
        OverlayKind::Random,
        make(),
        SEED,
    )
    .faults(plan)
    .audit(AuditConfig::default())
    .trace(Box::new(DigestSink::new(Backend::Net)))
    .run();

    assert_eq!(net.wire_errors, 0, "frames failed to decode");
    let faults = net.faults.as_ref().expect("net run carries fault stats");
    assert!(faults.dropped > 0 && faults.duplicated > 0, "{faults:?}");
    assert_eq!(sim.faults, net.faults, "fault layers drew differently");
    let (sa, na) = (sim.audit.expect("sim audit"), net.audit.expect("net audit"));
    assert!(na.is_clean(), "net audit: {:?}", na.violations);
    assert!(sa.is_clean(), "sim audit: {:?}", sa.violations);
    assert_eq!(sa.digest, na.digest, "audit event streams diverge");
    let (ds, dn) = (
        digest_of(sim.trace.expect("sim sink")),
        digest_of(net.trace.expect("net sink")),
    );
    assert_eq!(ds.count(), dn.count(), "lifecycle event counts diverge");
    assert_eq!(
        ds.value(),
        dn.value(),
        "faulted sim and net lifecycle digests diverge"
    );
    assert_eq!(sim.retry.counts(), net.retry.counts());
}
