//! Outside-in per-layer attribution: a protocol wrapper that times every
//! handler call and every transport call it makes, built on the public
//! `Protocol` / `Transport` / `CheckpointProtocol` traits alone.
//!
//! [`Timed<P>`] implements `Protocol` (and `CheckpointProtocol`, so it also
//! runs on the wire-codec loopback) by delegating to `P`. Each handler gets
//! a [`TimedTransport`] in place of the backend's context; it delegates
//! every capability and times `send` and `set_timer`. A handler's self time
//! is its duration minus the time spent in those transport calls; the
//! engine's self time is the run's duration minus the total handler time.
//!
//! Spans are aggregated in memory per name (calls, total time, self time,
//! a [`LogHistogram`] of durations) and written out once, when the run
//! ends. The wrapper never touches the protocol's decisions, so a wrapped
//! run is behaviour-identical to a bare one: same messages, same outcomes.

use asap_core::{AdPayload, Asap, AsapMsg};
use asap_metrics::{LogHistogram, MsgClass, RetryStat};
use asap_overlay::PeerId;
use asap_search::{BaselineMsg, RandomWalk};
use asap_sim::trace::Event as TraceEvt;
use asap_sim::{
    CheckpointProtocol, CodecError, Decoder, Encoder, EventHandle, Protocol, ScratchGuard,
    Transport,
};
use asap_workload::{ContentModel, ContentState, DocId, QuerySpec};
use rand::rngs::SmallRng;
use std::time::Instant;

/// How a protocol's handlers are named in the span table.
pub trait Labeled: Protocol {
    /// The layer (crate) the protocol lives in: `core` or `search`.
    const LAYER: &'static str;
    /// Span names for `on_message`, one per message kind.
    const MSG_KINDS: &'static [&'static str];
    /// Index into [`Self::MSG_KINDS`] for one message.
    fn msg_kind(msg: &Self::Msg) -> usize;
}

impl Labeled for Asap {
    const LAYER: &'static str = "core";
    const MSG_KINDS: &'static [&'static str] = &[
        "full",
        "patch",
        "refresh",
        "fetch",
        "ads_request",
        "ads_reply",
        "confirm",
        "confirm_reply",
    ];

    fn msg_kind(msg: &AsapMsg) -> usize {
        match msg {
            AsapMsg::Ad { payload, .. } => match payload {
                AdPayload::Full(_) => 0,
                AdPayload::Patch { .. } => 1,
                AdPayload::Refresh { .. } => 2,
            },
            AsapMsg::FullAdFetch => 3,
            AsapMsg::AdsRequest { .. } => 4,
            AsapMsg::AdsReply { .. } => 5,
            AsapMsg::Confirm { .. } => 6,
            AsapMsg::ConfirmReply { .. } => 7,
        }
    }
}

impl Labeled for RandomWalk {
    const LAYER: &'static str = "search";
    const MSG_KINDS: &'static [&'static str] = &["all"];

    fn msg_kind(_: &BaselineMsg) -> usize {
        0
    }
}

/// The protocol hooks other than `on_message`, in span-table order.
pub const HOOKS: [&str; 6] = [
    "on_init",
    "on_query",
    "on_timer",
    "on_join",
    "on_leave",
    "on_content_change",
];

/// One aggregated span: calls, total and self time, duration histogram.
#[derive(Debug, Clone, Default)]
pub struct SpanStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: LogHistogram,
}

impl SpanStat {
    fn record(&mut self, total_ns: u64, self_ns: u64) {
        self.calls += 1;
        self.total_ns += total_ns;
        self.self_ns += self_ns;
        self.durations_ns.record(total_ns);
    }

    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    pub fn p99_ns(&self) -> u64 {
        self.durations_ns.percentile(99, 100)
    }
}

/// Transport-side spans, shared by every handler of one run.
#[derive(Debug, Clone, Default)]
pub struct TransportSpans {
    pub send: SpanStat,
    pub set_timer: SpanStat,
    /// `send` calls by message class.
    pub send_calls: [u64; MsgClass::COUNT],
}

/// Every span of one run, keyed by position: `hooks[i]` is [`HOOKS`]`[i]`,
/// `messages[k]` is the protocol's `MSG_KINDS[k]`.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    pub hooks: [SpanStat; HOOKS.len()],
    pub messages: Vec<SpanStat>,
    pub transport: TransportSpans,
}

impl Spans {
    /// Total time spent inside protocol handlers, transport calls included.
    pub fn handler_ns(&self) -> u64 {
        self.hooks
            .iter()
            .chain(&self.messages)
            .map(|s| s.total_ns)
            .sum()
    }
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`Transport`] that delegates to the backend's and times `send` and
/// `set_timer`, accumulating the time spent in them so the calling handler
/// can subtract it from its own duration.
pub struct TimedTransport<'a, C> {
    inner: &'a mut C,
    spans: &'a mut TransportSpans,
    inside_ns: u64,
}

impl<C: Transport> Transport for TimedTransport<'_, C> {
    type Msg = C::Msg;

    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.inner.rng()
    }

    fn send(&mut self, from: PeerId, to: PeerId, class: MsgClass, bytes: usize, msg: C::Msg) {
        let start = Instant::now();
        self.inner.send(from, to, class, bytes, msg);
        let ns = ns_since(start);
        self.spans.send.record(ns, ns);
        self.spans.send_calls[class.index()] += 1;
        self.inside_ns += ns;
    }

    fn set_timer(&mut self, node: PeerId, delay_us: u64, tag: u64) -> EventHandle {
        let start = Instant::now();
        let handle = self.inner.set_timer(node, delay_us, tag);
        let ns = ns_since(start);
        self.spans.set_timer.record(ns, ns);
        self.inside_ns += ns;
        handle
    }

    fn cancel_timer(&mut self, handle: EventHandle) -> bool {
        self.inner.cancel_timer(handle)
    }

    fn scratch(&mut self) -> ScratchGuard {
        self.inner.scratch()
    }

    fn content(&self) -> &ContentState {
        self.inner.content()
    }

    fn model(&self) -> &ContentModel {
        self.inner.model()
    }

    fn neighbors(&self, p: PeerId) -> &[PeerId] {
        self.inner.neighbors(p)
    }

    fn degree(&self, p: PeerId) -> usize {
        self.inner.degree(p)
    }

    fn alive(&self, p: PeerId) -> bool {
        self.inner.alive(p)
    }

    fn alive_count(&self) -> usize {
        self.inner.alive_count()
    }

    fn alive_peers(&self) -> &[PeerId] {
        self.inner.alive_peers()
    }

    fn num_peers(&self) -> usize {
        self.inner.num_peers()
    }

    fn is_answered(&self, query: u32) -> bool {
        self.inner.is_answered(query)
    }

    fn report_answer(&mut self, query_id: u32) {
        self.inner.report_answer(query_id)
    }

    fn count(&mut self, stat: RetryStat) {
        self.inner.count(stat)
    }

    fn trace(&mut self, f: impl FnOnce() -> TraceEvt) {
        self.inner.trace(f)
    }

    fn tracing_enabled(&self) -> bool {
        self.inner.tracing_enabled()
    }
}

/// A protocol wrapped so that every handler and transport call is timed.
pub struct Timed<P> {
    inner: P,
    spans: Spans,
}

impl<P: Labeled> Timed<P> {
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            spans: Spans {
                messages: vec![SpanStat::default(); P::MSG_KINDS.len()],
                ..Spans::default()
            },
        }
    }

    pub fn into_parts(self) -> (P, Spans) {
        (self.inner, self.spans)
    }

    /// Run one handler against a [`TimedTransport`] and record its span in
    /// `slot`.
    fn span<C: Transport<Msg = P::Msg>>(
        &mut self,
        ctx: &mut C,
        slot: Slot,
        f: impl FnOnce(&mut P, &mut TimedTransport<'_, C>),
    ) {
        let mut t = TimedTransport {
            inner: ctx,
            spans: &mut self.spans.transport,
            inside_ns: 0,
        };
        let start = Instant::now();
        f(&mut self.inner, &mut t);
        let total = ns_since(start);
        let inside = t.inside_ns;
        let stat = match slot {
            Slot::Hook(i) => &mut self.spans.hooks[i],
            Slot::Message(k) => &mut self.spans.messages[k],
        };
        stat.record(total, total.saturating_sub(inside));
    }
}

/// Where a handler's span is recorded: `Hook(i)` is [`HOOKS`]`[i]`,
/// `Message(k)` is `on_message` of the protocol's `MSG_KINDS[k]`.
#[derive(Clone, Copy)]
enum Slot {
    Hook(usize),
    Message(usize),
}

impl<P: Labeled> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn on_init<C: Transport<Msg = P::Msg>>(&mut self, ctx: &mut C) {
        self.span(ctx, Slot::Hook(0), |p, t| p.on_init(t));
    }

    fn on_query<C: Transport<Msg = P::Msg>>(&mut self, ctx: &mut C, query: &QuerySpec) {
        self.span(ctx, Slot::Hook(1), |p, t| p.on_query(t, query));
    }

    fn on_message<C: Transport<Msg = P::Msg>>(
        &mut self,
        ctx: &mut C,
        to: PeerId,
        from: PeerId,
        msg: P::Msg,
    ) {
        let kind = P::msg_kind(&msg);
        self.span(ctx, Slot::Message(kind), |p, t| {
            p.on_message(t, to, from, msg)
        });
    }

    fn on_timer<C: Transport<Msg = P::Msg>>(&mut self, ctx: &mut C, node: PeerId, tag: u64) {
        self.span(ctx, Slot::Hook(2), |p, t| p.on_timer(t, node, tag));
    }

    fn on_join<C: Transport<Msg = P::Msg>>(&mut self, ctx: &mut C, node: PeerId) {
        self.span(ctx, Slot::Hook(3), |p, t| p.on_join(t, node));
    }

    fn on_leave<C: Transport<Msg = P::Msg>>(&mut self, ctx: &mut C, node: PeerId) {
        self.span(ctx, Slot::Hook(4), |p, t| p.on_leave(t, node));
    }

    fn on_content_change<C: Transport<Msg = P::Msg>>(
        &mut self,
        ctx: &mut C,
        peer: PeerId,
        doc: DocId,
        added: bool,
    ) {
        self.span(ctx, Slot::Hook(5), |p, t| {
            p.on_content_change(t, peer, doc, added)
        });
    }

    fn audit_invariants<C: Transport<Msg = P::Msg>>(&self, ctx: &C) -> Vec<String> {
        self.inner.audit_invariants(ctx)
    }
}

impl<P: Labeled + CheckpointProtocol> CheckpointProtocol for Timed<P> {
    fn encode_msg(msg: &P::Msg, enc: &mut Encoder) {
        P::encode_msg(msg, enc)
    }

    fn decode_msg(dec: &mut Decoder<'_>) -> Result<P::Msg, CodecError> {
        P::decode_msg(dec)
    }

    fn encode_state(&self, enc: &mut Encoder) {
        self.inner.encode_state(enc)
    }

    fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.inner.decode_state(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{assemble, Backend, Cell, SetupPhases, Size, WorkloadKind, World};

    /// A wrapped run is behaviour-identical to a bare one on `backend`, and
    /// its spans account for every message and handler call.
    fn neutral<P: Cell>(kind: WorkloadKind, backend: Backend) {
        let mut spec = kind.spec(Size::Tiny);
        spec.backend = backend;
        let world = World::build(spec, 11, &mut SetupPhases::default());
        let bare = assemble(
            &world,
            backend,
            P::build(&world),
            &mut SetupPhases::default(),
        )
        .run(&world.workload);
        let timed = assemble(
            &world,
            backend,
            Timed::new(P::build(&world)),
            &mut SetupPhases::default(),
        )
        .run(&world.workload);
        assert!(
            bare.outcome.check().is_empty(),
            "{:?}",
            bare.outcome.check()
        );
        assert!(
            bare.outcome.same_behaviour(&timed.outcome),
            "timing the protocol changed its behaviour"
        );
        let (inner, spans) = timed.protocol.into_parts();
        assert_eq!(
            format!("{:?}", inner.asap_stats()),
            format!("{:?}", bare.protocol.asap_stats()),
            "protocol counters differ"
        );
        assert_eq!(spans.transport.send.calls, bare.outcome.messages);
        assert_eq!(
            spans.transport.send_calls.iter().sum::<u64>(),
            bare.outcome.messages
        );
        assert_eq!(spans.hooks[1].calls, bare.outcome.registered as u64);
        assert!(spans.messages.iter().map(|s| s.calls).sum::<u64>() > 0);
        for s in spans.hooks.iter().chain(&spans.messages) {
            assert!(s.self_ns <= s.total_ns);
            assert_eq!(s.durations_ns.count(), s.calls);
        }
        assert!(spans.handler_ns() <= timed.run_wall_ns);
    }

    #[test]
    fn timed_asap_is_neutral_on_the_sim_engine() {
        neutral::<Asap>(WorkloadKind::AsapCrawled, Backend::Sim);
    }

    #[test]
    fn timed_asap_is_neutral_on_the_loopback() {
        neutral::<Asap>(WorkloadKind::AsapCrawled, Backend::Loopback);
    }

    #[test]
    fn timed_random_walk_is_neutral_on_the_sim_engine() {
        neutral::<RandomWalk>(WorkloadKind::WalkXl, Backend::Sim);
    }

    #[test]
    fn timed_random_walk_is_neutral_on_the_loopback() {
        neutral::<RandomWalk>(WorkloadKind::WalkXl, Backend::Loopback);
    }
}
