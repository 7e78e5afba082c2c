//! The deterministic many-node loopback runtime: the sim engine with a
//! wire carrier, so every protocol message crosses the wire codec.
//!
//! [`Loopback`] is the engine's [`SimBuilder`] over the [`Wire`] carrier:
//! the same assembly, placement draws, `(time, seq)` dispatch, RNG streams
//! and fault/adversary/audit/trace layers as a sim run. The one difference
//! is what the event queue holds: encoded frames ([`crate::wire`]) instead
//! of message values. `send` serializes the payload through the protocol's
//! canonical codec, and dispatch deserializes it before `on_message`. A
//! protocol therefore runs the identical decision sequence on both
//! carriers, with the wire format load-bearing in between; the
//! backend-tagged lifecycle digests ([`asap_trace::LifecycleDigest`])
//! being equal is the checked sim≡net witness.
//!
//! Locally produced frames decode cleanly by construction; if one ever does
//! not, the engine drops the message and counts it in
//! [`SimReport::wire_errors`](asap_sim::SimReport::wire_errors) rather than
//! panicking (lint rule R4), so a codec regression surfaces as a digest
//! mismatch plus a nonzero error count, never an abort.

use crate::wire::{self, Frame};
use asap_metrics::MsgClass;
use asap_overlay::PeerId;
use asap_sim::{Carrier, CheckpointProtocol, SimBuilder};
use std::marker::PhantomData;

/// The wire-frame [`Carrier`]: each queued message is one encoded
/// [`Frame`], built at send time and decoded at dispatch.
pub struct Wire<P>(PhantomData<P>);

impl<P: CheckpointProtocol> Carrier<P::Msg> for Wire<P> {
    type Queued = Vec<u8>;

    fn pack(from: PeerId, to: PeerId, class: MsgClass, billed: u32, msg: P::Msg) -> Vec<u8> {
        wire::encode_frame::<P>(&Frame {
            from,
            to,
            class,
            billed,
            msg,
        })
    }

    fn unpack(frame: Vec<u8>) -> Option<P::Msg> {
        wire::decode_frame_exact::<P>(&frame).ok().map(|f| f.msg)
    }
}

/// A configured loopback run: the whole node population in one process,
/// every message crossing the wire codec, replaying the same workload trace
/// the sim engine would. `Loopback::new` takes `Simulation::builder`'s
/// arguments (same seed → same placement, same preloaded trace, same
/// horizon); every other method is [`SimBuilder`]'s.
pub type Loopback<'a, P> = SimBuilder<'a, P, Wire<P>>;
