//! Checkpoint/resume: serialize the full engine state at a virtual
//! timestamp and continue bit-identically.
//!
//! The format is versioned, little-endian and fixed-field-order, with no
//! external serialization dependency. The field order is the [`Codec`]
//! impls themselves (DESIGN.md §6d): each serialized type states it once,
//! in a `codec_struct!`/`codec_enum!` field list or a short hand-written
//! impl where decoding validates. This module holds the section sequence
//! and the impls for engine-side foreign types. Everything
//! behavior-relevant is captured: the event queue with uncollected
//! tombstones, overlay adjacency verbatim (neighbor order is `swap_remove`
//! history), content holdings and holders, every RNG stream's raw state,
//! the auditor's running digest word and mirrors, fault/adversary layer
//! state, metrics, and the protocol's own per-node state via
//! [`CheckpointProtocol`]. A run split as `run_until(t)` → `checkpoint()` →
//! resume → `run()` produces the same audit digest as the uninterrupted
//! run, bit for bit.
//!
//! Deliberately *not* serialized:
//!
//! * the trace sink — passive observation, never part of engine state;
//! * the horizon and trace end — recomputed from the builder at resume, so
//!   a warm-started sweep can vary horizon grace across cells;
//! * derived state (keyword multisets, alive lists, adversary role maps,
//!   physical placement) — recomputed deterministically from the restored
//!   primary state and the validated-equal run seed.
//!
//! Decoding is fully validated and panic-free: corrupted, truncated, or
//! wrong-version bytes yield a typed [`CodecError`], never a panic, and a
//! trailing FNV-1a checksum over the body rejects bit flips up front. The
//! section decoder is bounded by the builder's world: peer and doc ids are
//! range-checked by their `Codec` impls, and the query ledger's slot count
//! by the workload's query count.

pub use crate::codec::{Codec, CodecAs, CodecError, Decoder, Encoder};

use crate::adversary::{AdversaryPlan, AdversaryState, AdversaryStats};
use crate::audit::{Fnv64, SimAuditor};
use crate::engine::{EngineProfile, Protocol, SimBuilder, Simulation};
use crate::event::{EngineEvent, EventHandle, EventQueue, Scheduled};
use asap_metrics::{LoadRecorder, QueryLedger, RetryCounters};
use asap_overlay::{Overlay, OverlayKind, PeerId};
use asap_topology::PhysicalNetwork;
use asap_workload::{ContentState, QuerySpec, TraceEvent, Workload};
use rand::rngs::SmallRng;

/// File magic: the first eight bytes of every checkpoint.
pub const MAGIC: [u8; 8] = *b"ASAPCKPT";
/// Current format version. Decoders reject anything else.
pub const VERSION: u16 = 1;
/// Trailing checksum width (FNV-1a 64 over the body).
const TRAILER: usize = 8;

/// A protocol whose messages and per-node state can ride a checkpoint.
///
/// Implementations must encode *canonically* (deterministic iteration
/// order) so that encode → decode → re-encode is byte-identical, and must
/// decode without panicking — malformed payloads return [`CodecError`].
pub trait CheckpointProtocol: Protocol {
    /// Serialize one in-flight message payload.
    fn encode_msg(msg: &Self::Msg, enc: &mut Encoder);

    /// Decode one in-flight message payload.
    fn decode_msg(dec: &mut Decoder<'_>) -> Result<Self::Msg, CodecError>;

    /// Serialize the protocol's own dynamic state (per-node tables,
    /// pending searches, dedup windows, stats...). Static configuration is
    /// *not* serialized — the resume caller reconstructs the protocol with
    /// the same configuration it used for the original run.
    fn encode_state(&self, enc: &mut Encoder);

    /// Restore dynamic state over a freshly configured protocol instance.
    fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError>;
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

// --- engine-side codecs ---------------------------------------------------

crate::codec_enum!(OverlayKind {
    0 => Random,
    1 => PowerLaw,
    2 => Crawled,
});

/// Raw xoshiro state; the all-zero state is a fixed point and never valid.
impl Codec for SmallRng {
    fn encode(&self, enc: &mut Encoder) {
        self.state().encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let s: [u64; 4] = dec.get()?;
        if s == [0u64; 4] {
            return Err(CodecError::Invalid("all-zero rng state"));
        }
        Ok(SmallRng::from_state(s))
    }
}

/// The queue sequence number behind the handle (stable across resume).
impl Codec for EventHandle {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.raw());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(EventHandle::from_raw(dec.get_u64()?))
    }
}

crate::codec_struct!(QuerySpec { id, requester, terms, target });

crate::codec_enum!(TraceEvent {
    0 => Query(q),
    1 => AddDocument { peer, doc },
    2 => RemoveDocument { peer, doc },
    3 => Join(p),
    4 => Leave(p),
});

crate::codec_struct!(EngineProfile {
    sends,
    delivers,
    timers_fired,
    timers_set,
    trace_events,
    trace_records,
    queue_hwm,
    past_horizon,
});

impl Codec for RetryCounters {
    fn encode(&self, enc: &mut Encoder) {
        self.counts().encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(RetryCounters::from_counts(dec.get()?))
    }
}

/// Per-second class buckets, class message totals, the alive-count step
/// function, then the run notes.
impl Codec for LoadRecorder {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_slice(self.buckets());
        self.class_message_totals().encode(enc);
        enc.put_slice(self.alive_steps());
        enc.put_slice(self.notes());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(LoadRecorder::from_parts(dec.get()?, dec.get()?, dec.get()?, dec.get()?))
    }
}

/// One queued event: `(time, seq)` then the event. `P::Msg` rides the
/// protocol's own message codec, which is why this pair is generic and
/// written out by hand.
fn encode_scheduled<P: CheckpointProtocol>(s: &Scheduled<P::Msg>, enc: &mut Encoder) {
    (s.time_us, s.seq).encode(enc);
    match &s.event {
        EngineEvent::Deliver { to, from, msg, dup } => {
            enc.put_u8(0);
            (*to, *from, *dup).encode(enc);
            P::encode_msg(msg, enc);
        }
        EngineEvent::Timer { node, tag } => {
            enc.put_u8(1);
            (*node, *tag).encode(enc);
        }
        EngineEvent::Trace(te) => {
            enc.put_u8(2);
            te.encode(enc);
        }
    }
}

fn decode_scheduled<P: CheckpointProtocol>(
    dec: &mut Decoder<'_>,
) -> Result<Scheduled<P::Msg>, CodecError> {
    let (time_us, seq) = dec.get()?;
    let event = match dec.get_u8()? {
        0 => {
            let (to, from, dup) = dec.get()?;
            let msg = P::decode_msg(dec)?;
            EngineEvent::Deliver { to, from, msg, dup }
        }
        1 => {
            let (node, tag) = dec.get()?;
            EngineEvent::Timer { node, tag }
        }
        2 => EngineEvent::Trace(dec.get()?),
        _ => return Err(CodecError::BadTag),
    };
    Ok(Scheduled {
        time_us,
        seq,
        event,
    })
}

/// A registered query-ledger record: id, then issue time, first-answer
/// time and answer count.
type LedgerRecord = (u32, (u64, Option<u64>, u32));

// --- the checkpoint object ------------------------------------------------

/// A serialized simulation state: opaque bytes plus the header fields a
/// resume caller needs to reconstruct the matching world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    bytes: Vec<u8>,
    header: Header,
}

impl Checkpoint {
    /// Validate magic, version, and the trailing checksum, and parse the
    /// header. Section payloads are validated later, during
    /// [`SimBuilder::from_checkpoint`], where the world they must be
    /// consistent with is known.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CodecError> {
        if bytes.len() < MAGIC.len() + 2 + TRAILER {
            return Err(CodecError::UnexpectedEof);
        }
        let mut dec = Decoder::new(&bytes);
        check_preamble(&mut dec)?;
        let (body, tail) = bytes.split_at(bytes.len() - TRAILER);
        if checksum(body) != Decoder::new(tail).get_u64()? {
            return Err(CodecError::BadChecksum);
        }
        let header = dec.get()?;
        Ok(Self { bytes, header })
    }

    /// The serialized form (magic through checksum), e.g. for writing to a
    /// file. `from_bytes` accepts exactly this.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The seed of the run this checkpoint was taken from. Resume requires
    /// an identically seeded world.
    pub fn run_seed(&self) -> u64 {
        self.header.run_seed
    }

    pub fn num_peers(&self) -> usize {
        self.header.num_peers
    }

    pub fn overlay_kind(&self) -> OverlayKind {
        self.header.overlay_kind
    }

    /// Virtual time of the last event dispatched before the checkpoint.
    pub fn now_us(&self) -> u64 {
        self.header.now_us
    }
}

/// Magic then version: the part of the header every reader checks first.
fn check_preamble(dec: &mut Decoder<'_>) -> Result<(), CodecError> {
    if dec.get_bytes(MAGIC.len())? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    match dec.get_u16()? {
        VERSION => Ok(()),
        v => Err(CodecError::UnsupportedVersion(v)),
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Header {
    run_seed: u64,
    num_peers: usize,
    overlay_kind: OverlayKind,
    now_us: u64,
    started: bool,
    halted: bool,
}

crate::codec_struct!(Header { run_seed, num_peers, overlay_kind, now_us, started, halted });

// --- serialization --------------------------------------------------------

impl<'a, P: CheckpointProtocol> Simulation<'a, P> {
    /// Serialize the complete engine state at the current virtual time.
    /// Callable at any point between events — before the first event, at a
    /// [`Simulation::run_until`] split, or after the run halted.
    pub fn checkpoint(&self) -> Checkpoint {
        let ctx = &self.ctx;
        let header = Header {
            run_seed: ctx.run_seed,
            num_peers: ctx.alive.len(),
            overlay_kind: ctx.overlay_kind,
            now_us: ctx.now_us,
            started: self.started,
            halted: self.halted,
        };
        let mut enc = Encoder::new();
        enc.put_bytes(&MAGIC);
        enc.put_u16(VERSION);
        header.encode(&mut enc);

        // [1] Event queue: allocation counter, surviving entries in
        // canonical (time, seq) order, uncollected tombstones.
        enc.put_u64(ctx.queue.next_seq());
        let entries = ctx.queue.entries_sorted();
        enc.put_len(entries.len());
        for s in entries {
            encode_scheduled::<P>(s, &mut enc);
        }
        ctx.queue.cancelled_sorted().encode(&mut enc);
        // [2] Overlay adjacency, verbatim (neighbor order is history).
        enc.put_slice(ctx.overlay.adjacency());
        // [3] Liveness bitmap (count pinned to num_peers by the header).
        for a in &ctx.alive {
            a.encode(&mut enc);
        }
        // [4] Content: holdings sorted per peer, holders verbatim.
        let (holdings, holders) = ctx.content.parts();
        enc.put_slice(holdings);
        enc.put_slice(holders);
        // [5] Engine RNG stream, [6] load recorder.
        ctx.rng.encode(&mut enc);
        ctx.load.encode(&mut enc);
        // [7] Query ledger: raw slot length, then registered records by
        // ascending id.
        enc.put_len(ctx.ledger.raw_len());
        enc.put_len(ctx.ledger.records_with_ids().count());
        for (id, rec) in ctx.ledger.records_with_ids() {
            (id, (rec.issue_us, rec.first_answer_us, rec.answers)).encode(&mut enc);
        }
        // [8] Robustness counters, [9] send counter, [10] engine profile,
        // [11] auditor, [12] fault layer (optional layers: bool tag first).
        ctx.retry.encode(&mut enc);
        ctx.messages_sent.encode(&mut enc);
        ctx.profile.encode(&mut enc);
        ctx.audit.encode(&mut enc);
        ctx.faults.encode(&mut enc);
        // [13] Adversary layer (optional): plan and stats; the role map is
        // re-derived from (plan, num_peers, run_seed) at decode.
        enc.put_bool(ctx.adversary.is_some());
        if let Some(a) = ctx.adversary.as_deref() {
            a.plan().encode(&mut enc);
            a.stats().encode(&mut enc);
        }
        // [14] Protocol dynamic state.
        self.protocol.encode_state(&mut enc);

        // Trailer.
        let sum = checksum(enc.bytes());
        enc.put_u64(sum);
        Checkpoint {
            bytes: enc.into_bytes(),
            header,
        }
    }

    /// One-call resume: rebuild the world from the same inputs the original
    /// run used (the checkpoint pins the seed) and restore the state.
    pub fn resume(
        phys: &'a PhysicalNetwork,
        workload: &'a Workload,
        overlay: Overlay,
        overlay_kind: OverlayKind,
        protocol: P,
        ckpt: &Checkpoint,
    ) -> Result<Self, CodecError> {
        Simulation::builder(phys, workload, overlay, overlay_kind, protocol, ckpt.run_seed())
            .from_checkpoint(ckpt)
    }
}

impl<'a, P: Protocol> SimBuilder<'a, P> {
    /// Finish the builder by restoring a checkpoint instead of starting
    /// fresh. The builder must describe the same world the checkpoint was
    /// taken from — same seed, peer count, and overlay kind (validated
    /// here; the workload and topology follow deterministically from the
    /// seed). Optional layers (audit, faults, adversary) are taken
    /// exclusively from the checkpoint: layers attached on the builder are
    /// discarded, absent layers stay absent. The builder's trace sink and
    /// horizon-grace override are kept — both are outside checkpointed
    /// state.
    pub fn from_checkpoint(self, ckpt: &Checkpoint) -> Result<Simulation<'a, P>, CodecError>
    where
        P: CheckpointProtocol,
    {
        let mut sim = self.build();
        let num_queries = sim.ctx.num_queries;
        let num_peers = sim.ctx.alive.len();
        let num_docs = sim.ctx.model.num_docs();
        let header = &ckpt.header;
        if header.run_seed != sim.ctx.run_seed {
            return Err(CodecError::Invalid("checkpoint seed differs from builder"));
        }
        if header.num_peers != num_peers {
            return Err(CodecError::Invalid("checkpoint peer count differs from builder"));
        }
        if header.overlay_kind != sim.ctx.overlay_kind {
            return Err(CodecError::Invalid("checkpoint overlay kind differs from builder"));
        }

        let body = ckpt.bytes.get(..ckpt.bytes.len() - TRAILER).unwrap_or_default();
        let mut dec = Decoder::new(body);
        check_preamble(&mut dec)?;
        let _: Header = dec.get()?;
        dec.bound_ids(num_peers, num_docs);

        // [1] Event queue.
        let next_seq = dec.get_u64()?;
        let n_entries = dec.get_count()?;
        let mut entries = Vec::new();
        for _ in 0..n_entries {
            entries.push(decode_scheduled::<P>(&mut dec)?);
        }
        let cancelled: Vec<u64> = dec.get()?;
        // [2] Overlay.
        let adj: Vec<Vec<PeerId>> = dec.get()?;
        if adj.len() != num_peers {
            return Err(CodecError::Invalid("overlay size mismatch"));
        }
        // [3] Liveness.
        let alive = (0..num_peers)
            .map(|_| dec.get_bool())
            .collect::<Result<Vec<bool>, _>>()?;
        // [4] Content.
        let holdings: Vec<Vec<asap_workload::DocId>> = dec.get()?;
        if holdings.len() != num_peers {
            return Err(CodecError::Invalid("holdings size mismatch"));
        }
        let holders: Vec<Vec<PeerId>> = dec.get()?;
        if holders.len() != num_docs {
            return Err(CodecError::Invalid("holders size mismatch"));
        }
        // [5] Engine RNG, [6] load recorder.
        let rng: SmallRng = dec.get()?;
        let load: LoadRecorder = dec.get()?;
        // [7] Query ledger. Query ids are dense `0..num_queries`, so a slot
        // count past the workload's queries is corrupt — and would
        // otherwise size an allocation from untrusted input.
        let raw_len = dec.get_len()?;
        if raw_len > num_queries {
            return Err(CodecError::Invalid("ledger longer than the workload's queries"));
        }
        let records: Vec<LedgerRecord> = dec.get()?;
        if records.iter().any(|&(id, _)| id as usize >= raw_len) {
            return Err(CodecError::Invalid("query id past ledger length"));
        }
        // [8]-[10] Counters and profile.
        let retry: RetryCounters = dec.get()?;
        let messages_sent = dec.get_u64()?;
        let profile: EngineProfile = dec.get()?;
        // [11] Auditor.
        let audit: Option<Box<SimAuditor>> = dec.get()?;
        if audit.as_ref().is_some_and(|a| a.mirror_len() != num_peers) {
            return Err(CodecError::Invalid("auditor liveness mirror size mismatch"));
        }
        // [12] Fault layer (its plan validates on decode).
        let faults = dec.get()?;
        // [13] Adversary layer.
        let adversary = match dec.get::<Option<(AdversaryPlan, AdversaryStats)>>()? {
            Some((plan, stats)) => Some(Box::new(AdversaryState::from_parts(
                plan,
                num_peers,
                sim.ctx.run_seed,
                stats,
            ))),
            None => None,
        };
        // [14] Protocol dynamic state.
        sim.protocol.decode_state(&mut dec)?;
        dec.finish()?;

        // Everything decoded cleanly — install the restored state. The
        // builder-assembled queue, overlay, content, metrics, and optional
        // layers are replaced wholesale; derived liveness views are
        // recomputed from the restored bitmap.
        let ctx = &mut sim.ctx;
        ctx.queue = EventQueue::from_parts(next_seq, entries, cancelled);
        ctx.overlay = Overlay::from_adjacency(adj);
        ctx.alive_count = alive.iter().filter(|&&a| a).count();
        ctx.alive_list = alive
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| PeerId(i as u32))
            .collect();
        ctx.alive = alive;
        ctx.content = ContentState::from_parts(ctx.model, holdings, holders);
        ctx.rng = rng;
        ctx.load = load;
        ctx.ledger = QueryLedger::from_parts(
            raw_len,
            records.into_iter().map(|(id, (t, first, n))| (id, t, first, n)),
        );
        ctx.retry = retry;
        ctx.messages_sent = messages_sent;
        ctx.profile = profile;
        ctx.now_us = header.now_us;
        ctx.audit = audit;
        ctx.faults = faults;
        ctx.adversary = adversary;
        sim.started = header.started;
        sim.halted = header.halted;
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_workload::{DocId, KeywordId};

    fn sealed(body: Encoder) -> Vec<u8> {
        let mut bytes = body.into_bytes();
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    fn minimal_header() -> Encoder {
        let mut enc = Encoder::new();
        enc.put_bytes(&MAGIC);
        enc.put_u16(VERSION);
        enc.put_u64(11); // run_seed
        enc.put_len(3); // num_peers
        enc.put_u8(0); // Random
        enc.put_u64(5_000_000); // now_us
        enc.put_bool(true); // started
        enc.put_bool(false); // halted
        enc
    }

    #[test]
    fn from_bytes_accepts_valid_header() {
        let ckpt = Checkpoint::from_bytes(sealed(minimal_header())).unwrap();
        assert_eq!(ckpt.run_seed(), 11);
        assert_eq!(ckpt.num_peers(), 3);
        assert_eq!(ckpt.overlay_kind(), OverlayKind::Random);
        assert_eq!(ckpt.now_us(), 5_000_000);
    }

    #[test]
    fn from_bytes_rejects_bad_magic() {
        let mut bytes = sealed(minimal_header());
        bytes[0] ^= 0xFF;
        assert_eq!(Checkpoint::from_bytes(bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn from_bytes_rejects_unknown_version() {
        let mut enc = Encoder::new();
        enc.put_bytes(&MAGIC);
        enc.put_u16(99);
        assert_eq!(
            Checkpoint::from_bytes(sealed(enc)),
            Err(CodecError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn from_bytes_rejects_flipped_body_bit() {
        let mut bytes = sealed(minimal_header());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert_eq!(Checkpoint::from_bytes(bytes), Err(CodecError::BadChecksum));
    }

    #[test]
    fn from_bytes_rejects_truncated_input() {
        let bytes = sealed(minimal_header());
        for cut in [0, 5, bytes.len() - 1] {
            let err = Checkpoint::from_bytes(bytes[..cut].to_vec()).unwrap_err();
            assert!(
                matches!(err, CodecError::UnexpectedEof | CodecError::BadChecksum),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn from_bytes_rejects_bad_overlay_tag() {
        let mut enc = Encoder::new();
        enc.put_bytes(&MAGIC);
        enc.put_u16(VERSION);
        enc.put_u64(11);
        enc.put_len(3);
        enc.put_u8(7); // no such overlay kind
        enc.put_u64(0);
        enc.put_bool(false);
        enc.put_bool(false);
        assert_eq!(Checkpoint::from_bytes(sealed(enc)), Err(CodecError::BadTag));
    }

    #[test]
    fn rng_state_rejects_all_zero() {
        let mut enc = Encoder::new();
        for _ in 0..4 {
            enc.put_u64(0);
        }
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.get::<SmallRng>(), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn trace_event_codec_roundtrips() {
        let events = [
            TraceEvent::Query(QuerySpec {
                id: 9,
                requester: PeerId(2),
                terms: vec![KeywordId(5), KeywordId(17)],
                target: DocId(3),
            }),
            TraceEvent::AddDocument {
                peer: PeerId(1),
                doc: DocId(0),
            },
            TraceEvent::RemoveDocument {
                peer: PeerId(0),
                doc: DocId(4),
            },
            TraceEvent::Join(PeerId(2)),
            TraceEvent::Leave(PeerId(1)),
        ];
        for ev in &events {
            let mut enc = Encoder::new();
            ev.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            dec.bound_ids(3, 5);
            let back: TraceEvent = dec.get().unwrap();
            dec.finish().unwrap();
            let mut enc2 = Encoder::new();
            back.encode(&mut enc2);
            assert_eq!(bytes, enc2.into_bytes(), "re-encode differs for {ev:?}");
        }
    }

    #[test]
    fn trace_event_decode_validates_ids() {
        let mut enc = Encoder::new();
        TraceEvent::Join(PeerId(9)).encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        dec.bound_ids(3, 5);
        assert!(matches!(dec.get::<TraceEvent>(), Err(CodecError::Invalid(_))));
    }
}
