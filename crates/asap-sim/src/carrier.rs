//! How the engine's event queue carries a protocol message from `send` to
//! dispatch.
//!
//! The engine is generic over a [`Carrier`]. The default, [`InMemory`],
//! queues the `P::Msg` value itself: identity in both directions, inlined
//! and infallible, so the sim path compiles to a plain move. `asap-net`'s
//! wire carrier queues encoded frames instead: it encodes inside `send` and
//! decodes at dispatch. A queued payload that fails to unpack is dropped at
//! its destination and counted in `SimReport::wire_errors` (never a panic,
//! lint rule R4). Everything else — clock, RNG streams, `(time, seq)`
//! order, the fault, adversary, audit and trace layers — is the same engine
//! loop whichever carrier rides it.

use asap_metrics::MsgClass;
use asap_overlay::PeerId;

/// A queued-payload representation for messages of type `M`. Chosen by
/// type, never at run time.
pub trait Carrier<M> {
    /// What rides the event queue in place of `M`. `Clone` because the
    /// fault layer's duplicate deliveries copy the queued payload.
    type Queued: Clone;

    /// Wrap `msg` at send time. `billed` is the modelled size the sender
    /// was charged.
    fn pack(from: PeerId, to: PeerId, class: MsgClass, billed: u32, msg: M) -> Self::Queued;

    /// Unwrap at dispatch; `None` drops the delivery as a wire error.
    fn unpack(queued: Self::Queued) -> Option<M>;
}

/// The sim engine's carrier: the message value itself rides the queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct InMemory;

impl<M: Clone> Carrier<M> for InMemory {
    type Queued = M;

    #[inline]
    fn pack(_: PeerId, _: PeerId, _: MsgClass, _: u32, msg: M) -> M {
        msg
    }

    #[inline]
    fn unpack(msg: M) -> Option<M> {
        Some(msg)
    }
}
