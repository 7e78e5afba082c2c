//! Wire-crossing runtimes for the ASAP protocol stack.
//!
//! The protocol crates (`asap-search`, `asap-core`) are written against the
//! [`asap_sim::Transport`] capability trait, whose one implementation is the
//! sim engine's context. The engine is generic over what its event queue
//! carries per message; this crate supplies the wire-frame carrier and the
//! runtimes built on it:
//!
//! * [`wire`] — length-prefixed, checksummed framing over the protocols'
//!   canonical checkpoint codecs; no per-protocol wire code.
//! * [`loopback`] — the deterministic many-node in-process runtime. It is
//!   the sim engine itself over the [`Wire`] carrier
//!   ([`asap_sim::Carrier`]): the event queue holds encoded frames instead
//!   of message values, with everything else — scheduling, RNG streams,
//!   fault/adversary/audit/trace layers — shared. Replaying a pinned
//!   workload through both carriers and comparing backend-tagged lifecycle
//!   digests ([`asap_trace::LifecycleDigest`]) proves the protocols behave
//!   identically *through serialization*.
//! * [`clock`] — the monotonic wall→virtual clock mapping.
//! * [`daemon`] — the `asapd` runtime: the same engine paced by the wall
//!   clock and driven over a Unix-socket control protocol, each command
//!   applied as a workload event at the current virtual instant.
//!   Deliberately nondeterministic at one documented boundary (wall-clock
//!   pacing); it makes no digest claim.
//!
//! Determinism policy: lint rules R1–R5 apply to this crate. The wall
//! clock reads in [`clock`] are the single sanctioned ambient-time
//! boundary, pragma'd at each site.

pub mod clock;
pub mod daemon;
pub mod loopback;
pub mod wire;

pub use clock::VirtualClock;
pub use daemon::{run_daemon, DaemonConfig};
pub use loopback::{Loopback, Wire};
pub use wire::{Frame, WireError, MAX_FRAME};
