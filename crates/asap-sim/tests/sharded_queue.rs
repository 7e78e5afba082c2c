//! The calendar event queue ≡ a single binary heap (see
//! crates/asap-sim/src/event.rs module docs for the ordering proof this
//! tier exercises empirically).
//!
//! Two layers:
//!
//! * **Raw queue**: op tapes — random (proptest) and one long LCG-driven
//!   tape — applied to [`EventQueue`] and to a private oracle, a
//!   `BinaryHeap<Reverse<(time, seq)>>` with a tombstone set, must produce
//!   identical handles, pop streams, peeks and lengths.
//! * **Whole engine**: a retrying protocol (timers armed, replies
//!   cancelling them — live tombstones in flight) under randomized fault
//!   plans, split at a checkpoint and resumed, must finish with the same
//!   audit digest, message count and end time as the uninterrupted run.

use asap_metrics::MsgClass;
use asap_overlay::{Overlay, OverlayConfig, OverlayKind, PeerId};
use asap_sim::checkpoint::Codec;
use asap_sim::event::{EngineEvent, EventQueue};
use asap_sim::{
    query_hit_size, query_size, AuditConfig, Checkpoint, CheckpointProtocol, CodecError,
    Decoder, Encoder, EventHandle, FaultPlan, PartitionWindow, Protocol, SimReport, Simulation,
    Transport,
};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_workload::{DocId, QuerySpec, Workload, WorkloadConfig};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

// ---------------------------------------------------------------------------
// Raw queue layer
// ---------------------------------------------------------------------------

/// The reference queue: one binary heap over every entry, tombstones for
/// cancelled live entries, collected when they surface at the head.
#[derive(Default)]
struct Oracle {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    next_seq: u64,
    /// Sequence numbers still in `heap` (cancelled or not).
    queued: BTreeSet<u64>,
    tombstones: BTreeSet<u64>,
}

impl Oracle {
    fn push(&mut self, time_us: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time_us, seq)));
        self.queued.insert(seq);
        seq
    }

    /// `Some(fresh)` for a handle still queued; `None` once it has left the
    /// heap, where the queue's return value depends on when its dead
    /// tombstones were purged and is deliberately unspecified.
    fn cancel(&mut self, seq: u64) -> Option<bool> {
        self.queued
            .contains(&seq)
            .then(|| self.tombstones.insert(seq))
    }

    /// Drop tombstoned entries sitting at the head.
    fn collect_head(&mut self) {
        while let Some(&Reverse((_, seq))) = self.heap.peek() {
            if !self.tombstones.remove(&seq) {
                break;
            }
            self.heap.pop();
            self.queued.remove(&seq);
        }
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.collect_head();
        let Reverse((t, seq)) = self.heap.pop()?;
        self.queued.remove(&seq);
        Some((t, seq))
    }

    fn peek_time(&mut self) -> Option<u64> {
        self.collect_head();
        self.heap.peek().map(|&Reverse((t, _))| t)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Push at `last_popped_time + ahead_us` (sims never schedule in the past).
    Push { ahead_us: u64 },
    Pop,
    /// Cancel the handle at `index % issued` (may already have fired).
    Cancel { index: usize },
    Peek,
}

/// Drive `ops` through the queue and the oracle in lockstep, then drain
/// both. Returns the first divergence, or the full pop stream.
fn run_tape(ops: &[Op]) -> Result<Vec<(u64, u64)>, String> {
    let mut queue: EventQueue<()> = EventQueue::new();
    let mut oracle = Oracle::default();
    let mut issued: Vec<EventHandle> = Vec::new();
    let mut popped = Vec::new();
    let mut clock = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Push { ahead_us } => {
                let t = clock + ahead_us;
                let h = queue.push(t, EngineEvent::Timer { node: PeerId(0), tag: i as u64 });
                let want = oracle.push(t);
                if h.raw() != want {
                    return Err(format!("handle {} != oracle {want} at op {i}", h.raw()));
                }
                issued.push(h);
            }
            Op::Pop => {
                let got = queue.pop().map(|s| (s.time_us, s.seq));
                let want = oracle.pop();
                if got != want {
                    return Err(format!("pop {got:?} != oracle {want:?} at op {i}"));
                }
                if let Some(p) = got {
                    clock = clock.max(p.0);
                    popped.push(p);
                }
            }
            Op::Cancel { index } => {
                if !issued.is_empty() {
                    let h = issued[index % issued.len()];
                    let got = queue.cancel(h);
                    if let Some(want) = oracle.cancel(h.raw()) {
                        if got != want {
                            return Err(format!("cancel {got} != oracle {want} at op {i}"));
                        }
                    }
                }
            }
            Op::Peek => {
                let (got, want) = (queue.peek_time(), oracle.peek_time());
                if got != want {
                    return Err(format!("peek {got:?} != oracle {want:?} at op {i}"));
                }
            }
        }
        if queue.len() != oracle.len() {
            return Err(format!("len {} != oracle {} at op {i}", queue.len(), oracle.len()));
        }
    }
    loop {
        let got = queue.pop().map(|s| (s.time_us, s.seq));
        let want = oracle.pop();
        if got != want {
            return Err(format!("drain {got:?} != oracle {want:?}"));
        }
        match got {
            Some(p) => popped.push(p),
            None => return Ok(popped),
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest shim's prop_oneof! is uniform; repeat arms to
    // weight pushes over the rest.
    prop_oneof![
        (0u64..500_000).prop_map(|ahead_us| Op::Push { ahead_us }),
        (0u64..500_000).prop_map(|ahead_us| Op::Push { ahead_us }),
        (0u64..500_000).prop_map(|ahead_us| Op::Push { ahead_us }),
        (0u64..500_000).prop_map(|ahead_us| Op::Push { ahead_us }),
        (0u32..1).prop_map(|_| Op::Pop),
        (0u32..1).prop_map(|_| Op::Pop),
        (0usize..10_000).prop_map(|index| Op::Cancel { index }),
        (0u32..1).prop_map(|_| Op::Peek),
    ]
}

proptest! {
    /// Any op tape — pushes spread over many windows, interleaved pops,
    /// cancels of arbitrary (possibly fired) handles — drives the queue
    /// and the heap oracle through identical observable states.
    #[test]
    fn op_tapes_match_the_heap_oracle(ops in prop::collection::vec(op_strategy(), 1..400)) {
        if let Err(e) = run_tape(&ops) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// One long tape (20,000 LCG-driven ops, pushes up to four windows ahead
/// of the clock) — enough volume for the tombstone purge to fire and for
/// hundreds of windows to seal — matches the oracle, and its pop stream
/// is globally ordered.
#[test]
fn long_tape_matches_the_heap_oracle() {
    let mut x: u64 = 0xDEAD_BEEF_CAFE_1234;
    let mut rng = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 11
    };
    let ops: Vec<Op> = (0..20_000)
        .map(|_| match rng() % 10 {
            0..=5 => Op::Push { ahead_us: rng() % (1 << 18) },
            6..=7 => Op::Pop,
            8 => Op::Cancel { index: rng() as usize },
            _ => Op::Peek,
        })
        .collect();
    let popped = run_tape(&ops).unwrap_or_else(|e| panic!("{e}"));
    assert!(!popped.is_empty());
    assert!(popped.windows(2).all(|w| w[0] < w[1]), "global (time, seq) order");
}

// ---------------------------------------------------------------------------
// Whole-engine layer
// ---------------------------------------------------------------------------

const PEERS: usize = 100;
const QUERIES: usize = 120;
const RETRY_DELAY_US: u64 = 30_000;

/// Minimal retrying echo: each query arms one retry timer; a reply cancels
/// it (live tombstone), a firing re-asks once. Enough to put stored handles
/// and tombstones in flight without the full Pinger plumbing.
#[derive(Default)]
struct Echo {
    pending: asap_sim::collections::DetHashMap<u32, (EventHandle, PeerId, DocId)>,
    cancelled_live: u64,
}

#[derive(Debug, Clone)]
enum EchoMsg {
    Ask { query: u32, target: DocId },
    Reply { query: u32 },
}

fn ask<C: Transport<Msg = EchoMsg>>(ctx: &mut C, requester: PeerId, target: DocId, query: u32) {
    let holder = ctx
        .content()
        .holders(target)
        .iter()
        .copied()
        .find(|&h| ctx.alive(h) && h != requester);
    if let Some(h) = holder {
        ctx.send(
            requester,
            h,
            MsgClass::Query,
            query_size(1),
            EchoMsg::Ask { query, target },
        );
    }
}

impl Protocol for Echo {
    type Msg = EchoMsg;

    fn on_query<C: Transport<Msg = EchoMsg>>(&mut self, ctx: &mut C, q: &QuerySpec) {
        ask(ctx, q.requester, q.target, q.id);
        let handle = ctx.set_timer(q.requester, RETRY_DELAY_US, u64::from(q.id));
        self.pending.insert(q.id, (handle, q.requester, q.target));
    }

    fn on_message<C: Transport<Msg = EchoMsg>>(&mut self, ctx: &mut C, to: PeerId, from: PeerId, msg: EchoMsg) {
        match msg {
            EchoMsg::Ask { query, .. } => {
                ctx.send(
                    to,
                    from,
                    MsgClass::QueryHit,
                    query_hit_size(1),
                    EchoMsg::Reply { query },
                );
            }
            EchoMsg::Reply { query } => {
                if let Some((handle, _, _)) = self.pending.remove(&query) {
                    if ctx.cancel_timer(handle) {
                        self.cancelled_live += 1;
                    }
                }
                ctx.report_answer(query);
            }
        }
    }

    fn on_timer<C: Transport<Msg = EchoMsg>>(&mut self, ctx: &mut C, _node: PeerId, tag: u64) {
        let id = tag as u32;
        if let Some((_, requester, target)) = self.pending.remove(&id) {
            ask(ctx, requester, target, id);
        }
    }
}

asap_sim::codec_enum!(EchoMsg {
    0 => Ask { query, target },
    1 => Reply { query },
});

asap_sim::codec_struct!(Echo { pending, cancelled_live });

impl CheckpointProtocol for Echo {
    fn encode_msg(msg: &EchoMsg, enc: &mut Encoder) {
        msg.encode(enc);
    }

    fn decode_msg(dec: &mut Decoder<'_>) -> Result<EchoMsg, CodecError> {
        dec.get()
    }

    fn encode_state(&self, enc: &mut Encoder) {
        self.encode(enc);
    }

    fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        *self = dec.get()?;
        Ok(())
    }
}

fn world(seed: u64) -> (PhysicalNetwork, Workload, Overlay) {
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
    let workload = asap_workload::generate(&WorkloadConfig::reduced(PEERS, QUERIES, seed));
    let overlay = OverlayConfig::new(OverlayKind::Random, PEERS, seed).build();
    (phys, workload, overlay)
}

fn builder<'a>(
    phys: &'a PhysicalNetwork,
    workload: &'a Workload,
    overlay: Overlay,
    seed: u64,
    plan: &FaultPlan,
) -> asap_sim::SimBuilder<'a, Echo> {
    Simulation::builder(phys, workload, overlay, OverlayKind::Random, Echo::default(), seed)
        .audit(AuditConfig::default())
        .faults(plan.clone())
}

/// Run to `split_us`, checkpoint to bytes, resume from them on a fresh
/// builder and run to the end.
fn split_run(
    phys: &PhysicalNetwork,
    workload: &Workload,
    overlay: Overlay,
    seed: u64,
    plan: &FaultPlan,
    split_us: u64,
) -> SimReport<Echo> {
    let mut first = builder(phys, workload, overlay.clone(), seed, plan).build();
    first.run_until(split_us);
    let bytes = first.checkpoint().into_bytes();
    drop(first);
    let ckpt = Checkpoint::from_bytes(bytes).expect("self-produced bytes");
    builder(phys, workload, overlay, seed, plan)
        .from_checkpoint(&ckpt)
        .expect("resume")
        .run()
}

fn digest(report: &SimReport<Echo>, what: &str) -> u64 {
    let audit = report.audit.as_ref().expect("audited run");
    assert!(audit.is_clean(), "{what}: violations {:?}", audit.violations);
    audit.digest
}

proptest! {
    // Whole-simulation cases are expensive; the raw-queue tape proptest
    // above carries the volume.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Randomized fault plans (loss, jitter across window boundaries,
    /// duplication, a partition cut) and split points: the queue rebuilt
    /// from a checkpoint, with live tombstones in it, replays the rest of
    /// the run digest-identically to the uninterrupted run.
    #[test]
    fn faulted_split_runs_match_cold_runs(
        seed in 0u64..1_000_000,
        loss_ppm in 0u32..=200_000,
        jitter_max_us in 0u64..=120_000,
        duplicate_ppm in 0u32..=100_000,
        with_cut in 0u32..2,
        cut_start in 0u64..20_000_000,
        cut_len in 1u64..10_000_000,
        cut_index in 0u32..(PEERS as u32),
        split_pct in 1u64..100,
    ) {
        let (phys, workload, overlay) = world(seed);
        let partitions = if with_cut == 1 {
            vec![PartitionWindow { start_us: cut_start, end_us: cut_start + cut_len, cut_index }]
        } else {
            Vec::new()
        };
        let plan = FaultPlan { loss_ppm, jitter_max_us, duplicate_ppm, partitions };
        let cold = builder(&phys, &workload, overlay.clone(), seed, &plan).run();
        let split_us = cold.end_time_us * split_pct / 100;
        let warm = split_run(&phys, &workload, overlay, seed, &plan, split_us);
        prop_assert_eq!(digest(&cold, "cold"), digest(&warm, "warm"));
        prop_assert_eq!(cold.messages_sent, warm.messages_sent);
        prop_assert_eq!(cold.end_time_us, warm.end_time_us);
        prop_assert_eq!(cold.protocol.cancelled_live, warm.protocol.cancelled_live);
    }
}

/// A checkpoint taken mid-trace, with retry timers cancelled while still
/// queued, resumes to the cold digest.
#[test]
fn checkpoint_with_live_tombstones_resumes_to_the_cold_run() {
    let seed = 417;
    let (phys, workload, overlay) = world(seed);
    let plan = FaultPlan {
        loss_ppm: 40_000,
        jitter_max_us: 50_000,
        ..FaultPlan::none()
    };
    let cold = builder(&phys, &workload, overlay.clone(), seed, &plan).run();
    assert!(cold.protocol.cancelled_live > 0, "no tombstones in flight — vacuous");
    let t_split = workload.trace.duration_us() / 2;
    let warm = split_run(&phys, &workload, overlay, seed, &plan, t_split);
    assert_eq!(digest(&cold, "cold"), digest(&warm, "warm"));
    assert_eq!(cold.messages_sent, warm.messages_sent);
    assert_eq!(cold.end_time_us, warm.end_time_us);
}
