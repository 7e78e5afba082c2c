//! The `asapd` daemon runtime: one process hosting a whole loopback node
//! population, paced by the wall clock and driven over a control socket.
//!
//! Where [`crate::loopback`] replays a pinned workload trace for digest
//! equivalence, the daemon's "trace" arrives live: text commands on a Unix
//! domain socket (`join`, `leave`, `advertise`, `search`, `query`, `stats`,
//! `peers`, `quit`). The daemon drives the very same engine — a
//! [`Loopback`] built over a workload whose trace is empty, with no horizon
//! — through [`Simulation::run_until`] at the wall clock's virtual time,
//! and turns each mutating command into a workload [`TraceEvent`] applied
//! at that instant ([`Simulation::apply_at`]). Messages cross the wire
//! codec and are latency-scheduled on the virtual timeline in the usual
//! `(time, seq)` order; only *when* each command lands comes from the OS
//! clock, through a [`VirtualClock`]. That wall-clock pacing is the one
//! deliberate nondeterminism boundary, and why the daemon makes no digest
//! claim (DESIGN.md §7).
//!
//! The control protocol is line-oriented: one command in, one `ok ...` or
//! `err ...` line out, so `nc -U`/scripts can drive a node population
//! interactively. A line longer than [`MAX_LINE`] bytes is refused with
//! `err line too long` and the connection is closed.

use crate::clock::VirtualClock;
use crate::loopback::{Loopback, Wire};
use asap_overlay::{Overlay, OverlayConfig, OverlayKind, PeerId};
use asap_sim::{CheckpointProtocol, Simulation, Transport};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_workload::{ContentModel, DocId, QuerySpec, TraceEvent, Workload, WorkloadConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// How the daemon builds and paces its world.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Node population size (≥ 4; the reduced workload generator's floor).
    pub peers: usize,
    /// World seed: topology, overlay, content model, placement.
    pub seed: u64,
    /// Virtual-per-wall clock speed factor (see [`VirtualClock`]).
    pub speed: u32,
    /// Control-socket path; an existing file there is replaced.
    pub socket: PathBuf,
}

/// Idle wait cap: how long the event loop blocks for a command when no
/// queued event comes due sooner.
const IDLE_WAIT: Duration = Duration::from_millis(50);

/// Longest control line accepted, newline excluded. Every command is a verb
/// and at most two numbers, so anything longer is garbage or abuse.
pub const MAX_LINE: usize = 256;

type Command = (String, mpsc::Sender<String>);

/// Build the daemon's world: topology, overlay, and a content model whose
/// trace is empty — the operator *is* the trace.
fn world(peers: usize, seed: u64) -> (PhysicalNetwork, Workload, Overlay) {
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
    // One scripted query satisfies the generator's floor; it is dropped.
    let mut workload = asap_workload::generate(&WorkloadConfig::reduced(peers, 1, seed));
    workload.trace.events.clear();
    let overlay = OverlayConfig::new(OverlayKind::Random, peers, seed).build();
    (phys, workload, overlay)
}

/// Run a daemon until a `quit` command (or the listener dies). Owns the
/// calling thread; the control listener runs on background threads. The
/// protocol is built from the generated content model (ASAP's ad tables
/// are model-sized), so callers pass a constructor, not an instance.
pub fn run_daemon<P, F>(cfg: &DaemonConfig, make_protocol: F) -> std::io::Result<()>
where
    P: CheckpointProtocol,
    F: FnOnce(&ContentModel) -> P,
{
    let (phys, workload, overlay) = world(cfg.peers, cfg.seed);
    let protocol = make_protocol(&workload.model);
    let mut daemon = Daemon::new(&phys, &workload, overlay, protocol, cfg.seed);

    let _ = std::fs::remove_file(&cfg.socket);
    let listener = UnixListener::bind(&cfg.socket)?;
    let (cmd_tx, cmd_rx) = mpsc::channel::<Command>();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let tx = cmd_tx.clone();
            thread::spawn(move || serve_connection(stream, &tx));
        }
    });

    let clock = VirtualClock::new(cfg.speed);
    loop {
        daemon.sim.run_until(clock.now_us());
        let wait = match daemon.sim.next_event_us() {
            Some(t) => clock.wall_until(t).min(IDLE_WAIT),
            None => IDLE_WAIT,
        };
        match cmd_rx.recv_timeout(wait) {
            Ok((line, reply)) => {
                let (response, quit) = daemon.handle_command(&line, clock.now_us());
                let _ = reply.send(response);
                if quit {
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let _ = std::fs::remove_file(&cfg.socket);
    Ok(())
}

/// One control line read by [`read_line_bounded`].
#[derive(Debug, PartialEq, Eq)]
enum Line {
    Text(String),
    TooLong,
    Eof,
}

/// Read one `\n`-terminated line, buffering at most `MAX_LINE + 1` bytes,
/// so a client that never sends a newline cannot grow the daemon's memory.
fn read_line_bounded(reader: &mut impl BufRead) -> std::io::Result<Line> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Line::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE {
        return Ok(Line::TooLong);
    }
    Ok(Line::Text(String::from_utf8_lossy(&buf).into_owned()))
}

/// One control connection: line in, line out, until EOF or an oversized
/// line.
fn serve_connection(stream: UnixStream, tx: &mpsc::Sender<Command>) {
    let Ok(mut write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader) {
            Ok(Line::Text(line)) => line,
            Ok(Line::TooLong) => {
                let _ = writeln!(write_half, "err line too long");
                return;
            }
            Ok(Line::Eof) | Err(_) => return,
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        if tx.send((line, reply_tx)).is_err() {
            return;
        }
        let Ok(response) = reply_rx.recv() else {
            return;
        };
        if writeln!(write_half, "{response}").is_err() {
            return;
        }
    }
}

/// The engine the control commands drive. Query ids are handed out in
/// order from 0, so the ledger's length is the next id.
struct Daemon<'a, P: CheckpointProtocol> {
    sim: Simulation<'a, P, Wire<P>>,
}

impl<'a, P: CheckpointProtocol> Daemon<'a, P> {
    fn new(
        phys: &'a PhysicalNetwork,
        workload: &'a Workload,
        overlay: Overlay,
        protocol: P,
        seed: u64,
    ) -> Self {
        let sim = Loopback::new(phys, workload, overlay, OverlayKind::Random, protocol, seed)
            .horizon_grace(u64::MAX)
            .build();
        Self { sim }
    }

    /// Execute one control command at virtual time `now_us`; returns
    /// `(response_line, quit)`. Every event due by `now_us` dispatches
    /// first. Commands are validated before they reach the engine, so every
    /// malformed or inapplicable input gets an `err ...` reply.
    fn handle_command(&mut self, line: &str, now_us: u64) -> (String, bool) {
        self.sim.run_until(now_us);
        let mut words = line.split_whitespace();
        let verb = words.next().unwrap_or("");
        let args: Vec<&str> = words.collect();
        let response = match verb {
            "stats" => {
                let ctx = self.sim.ctx();
                Ok(format!(
                    "ok now_us={} alive={} sent={} answered={}/{}",
                    self.sim.now_us(),
                    ctx.alive_count(),
                    ctx.messages_sent(),
                    ctx.ledger.num_succeeded(),
                    ctx.ledger.num_queries(),
                ))
            }
            "peers" => Ok(self.peers_line()),
            "join" => self.parse_peer(&args, 0).and_then(|p| {
                if self.sim.ctx().alive(p) {
                    return Err(format!("peer {} already alive", p.0));
                }
                self.sim.apply_at(now_us, TraceEvent::Join(p));
                Ok(format!("ok join peer={}", p.0))
            }),
            "leave" => self.live_peer(&args).map(|p| {
                self.sim.apply_at(now_us, TraceEvent::Leave(p));
                format!("ok leave peer={}", p.0)
            }),
            "advertise" => self.cmd_advertise(&args, now_us),
            "search" => self.cmd_search(&args, now_us),
            "query" => match args.first().and_then(|s| s.parse::<u32>().ok()) {
                Some(id) if (id as usize) < self.sim.ctx().ledger.raw_len() => {
                    Ok(if self.sim.ctx().is_answered(id) {
                        format!("ok answered id={id}")
                    } else {
                        format!("ok pending id={id}")
                    })
                }
                Some(id) => Err(format!("unknown query {id}")),
                None => Err("usage: query <id>".to_string()),
            },
            "quit" => return ("ok bye".to_string(), true),
            "" => Err("empty command".to_string()),
            other => Err(format!("unknown command {other}")),
        };
        match response {
            Ok(line) => (line, false),
            Err(e) => (format!("err {e}"), false),
        }
    }

    fn peers_line(&self) -> String {
        let ctx = self.sim.ctx();
        let mut alive = String::new();
        let mut offline = String::new();
        for i in 0..ctx.num_peers() {
            let slot = if ctx.alive(PeerId(i as u32)) {
                &mut alive
            } else {
                &mut offline
            };
            if !slot.is_empty() {
                slot.push(',');
            }
            slot.push_str(&i.to_string());
        }
        format!("ok alive={alive} offline={offline}")
    }

    fn parse_peer(&self, args: &[&str], idx: usize) -> Result<PeerId, String> {
        let raw = args.get(idx).ok_or_else(|| "missing peer id".to_string())?;
        let id: u32 = raw.parse().map_err(|_| format!("bad peer id {raw}"))?;
        if (id as usize) < self.sim.ctx().num_peers() {
            Ok(PeerId(id))
        } else {
            Err(format!("peer {id} out of range"))
        }
    }

    /// The first argument as a peer that is currently alive.
    fn live_peer(&self, args: &[&str]) -> Result<PeerId, String> {
        let p = self.parse_peer(args, 0)?;
        if self.sim.ctx().alive(p) {
            Ok(p)
        } else {
            Err(format!("peer {} is offline", p.0))
        }
    }

    /// `advertise <peer> [<doc>]` — share a document (default: the first
    /// one the peer does not hold yet) and run the protocol's
    /// content-change hook, exactly like a trace `AddDocument`.
    fn cmd_advertise(&mut self, args: &[&str], now_us: u64) -> Result<String, String> {
        let peer = self.live_peer(args)?;
        let ctx = self.sim.ctx();
        let doc = match args.get(1) {
            Some(raw) => self.parse_doc(raw)?,
            None => (0..ctx.model.num_docs() as u32)
                .map(DocId)
                .find(|&d| !ctx.content.peer_has_doc(peer, d))
                .ok_or_else(|| "peer already holds every document".to_string())?,
        };
        if ctx.content.peer_has_doc(peer, doc) {
            return Err(format!("peer {} already holds doc {}", peer.0, doc.0));
        }
        self.sim
            .apply_at(now_us, TraceEvent::AddDocument { peer, doc });
        Ok(format!("ok advertise peer={} doc={}", peer.0, doc.0))
    }

    /// `search <peer> [<doc>]` — issue a query for a target document
    /// (default: the lowest-id document some *other* live peer holds),
    /// with the document's own keywords as the conjunctive terms.
    fn cmd_search(&mut self, args: &[&str], now_us: u64) -> Result<String, String> {
        let requester = self.live_peer(args)?;
        let ctx = self.sim.ctx();
        let target = match args.get(1) {
            Some(raw) => self.parse_doc(raw)?,
            None => (0..ctx.model.num_docs() as u32)
                .map(DocId)
                .find(|&d| {
                    ctx.content
                        .holders(d)
                        .iter()
                        .any(|&h| h != requester && ctx.alive(h))
                })
                .ok_or_else(|| "no live remote holder of any document".to_string())?,
        };
        let id = u32::try_from(ctx.ledger.raw_len()).map_err(|_| "query ids exhausted")?;
        let spec = QuerySpec {
            id,
            requester,
            terms: ctx.model.doc(target).keywords.clone(),
            target,
        };
        self.sim.apply_at(now_us, TraceEvent::Query(spec));
        Ok(format!("ok search id={id} target={}", target.0))
    }

    fn parse_doc(&self, raw: &str) -> Result<DocId, String> {
        let id: u32 = raw.parse().map_err(|_| format!("bad doc id {raw}"))?;
        if (id as usize) < self.sim.ctx().model.num_docs() {
            Ok(DocId(id))
        } else {
            Err(format!("doc {id} out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_search::{Flooding, FloodingConfig};
    use proptest::prelude::*;
    use std::io::Cursor;

    const PEERS: usize = 12;
    const SEED: u64 = 3;

    /// Run `f` against a fresh flooding daemon over a 12-peer world.
    fn with_daemon(f: impl FnOnce(&mut Daemon<'_, Flooding>)) {
        let (phys, workload, overlay) = world(PEERS, SEED);
        let protocol = Flooding::new(FloodingConfig::default());
        f(&mut Daemon::new(&phys, &workload, overlay, protocol, SEED));
    }

    fn reply(d: &mut Daemon<'_, Flooding>, line: &str, now_us: u64) -> String {
        let (response, quit) = d.handle_command(line, now_us);
        assert!(!quit, "{line:?} must not quit");
        response
    }

    fn assert_err(d: &mut Daemon<'_, Flooding>, line: &str) {
        let r = reply(d, line, 0);
        assert!(r.starts_with("err "), "{line:?} gave {r:?}");
    }

    /// `(alive, offline)` peer ids from a `peers` reply.
    fn peers(d: &mut Daemon<'_, Flooding>) -> (Vec<u32>, Vec<u32>) {
        let line = reply(d, "peers", 0);
        let list = |key: &str| -> Vec<u32> {
            line.split_whitespace()
                .find_map(|w| w.strip_prefix(key))
                .unwrap_or("")
                .split(',')
                .filter_map(|s| s.parse().ok())
                .collect()
        };
        (list("alive="), list("offline="))
    }

    #[test]
    fn malformed_commands_get_err_replies() {
        with_daemon(|d| {
            for line in [
                "",
                "   ",
                "bogus",
                "JOIN 1",
                "join",
                "join x",
                "join -1",
                "join 1.5",
                "join 4294967296",
                "join 12",
                "leave 99999",
                "advertise 0 4294967296",
                "advertise 0 99999999",
                "advertise 0 doc",
                "search 0 -3",
                "search 4294967295",
                "query",
                "query x",
                "query 4294967296",
                "query 0",
            ] {
                assert_err(d, line);
            }
        });
    }

    #[test]
    fn inapplicable_commands_get_err_replies() {
        with_daemon(|d| {
            let (alive, _) = peers(d);
            let (p, q) = (alive[0], alive[1]);
            assert_err(d, &format!("join {p}"));
            assert_eq!(
                reply(d, &format!("leave {q}"), 0),
                format!("ok leave peer={q}")
            );
            for verb in ["leave", "advertise", "search"] {
                assert_err(d, &format!("{verb} {q}"));
            }
            let ad = reply(d, &format!("advertise {p}"), 0);
            let doc = ad.rsplit('=').next().unwrap_or("");
            assert_err(d, &format!("advertise {p} {doc}"));
        });
    }

    #[test]
    fn search_resolves_through_the_engine() {
        with_daemon(|d| {
            let (alive, offline) = peers(d);
            let publisher = offline.first().copied().unwrap_or(alive[0]);
            if offline.contains(&publisher) {
                assert!(reply(d, &format!("join {publisher}"), 1_000).starts_with("ok join"));
            }
            let ad = reply(d, &format!("advertise {publisher}"), 2_000);
            let doc = ad.rsplit('=').next().unwrap_or("").to_string();
            let requester = alive
                .iter()
                .find(|&&p| p != publisher)
                .copied()
                .unwrap_or(0);
            let search = reply(d, &format!("search {requester} {doc}"), 3_000);
            assert_eq!(search, format!("ok search id=0 target={doc}"));
            // Ten virtual seconds later every flood and hit has landed.
            assert_eq!(reply(d, "query 0", 10_000_000), "ok answered id=0");
            let stats = reply(d, "stats", 10_000_000);
            assert!(stats.contains("answered=1/1"), "{stats}");
        });
    }

    #[test]
    fn quit_quits() {
        with_daemon(|d| assert_eq!(d.handle_command("quit", 0), ("ok bye".to_string(), true)));
    }

    #[test]
    fn bounded_reader_refuses_oversized_lines() {
        let mut ok = Cursor::new(format!("{}\nstats\r\npartial", "a".repeat(MAX_LINE)));
        assert_eq!(
            read_line_bounded(&mut ok).unwrap(),
            Line::Text("a".repeat(MAX_LINE))
        );
        assert_eq!(
            read_line_bounded(&mut ok).unwrap(),
            Line::Text("stats\r".into())
        );
        assert_eq!(
            read_line_bounded(&mut ok).unwrap(),
            Line::Text("partial".into())
        );
        assert_eq!(read_line_bounded(&mut ok).unwrap(), Line::Eof);
        let mut long = Cursor::new("b".repeat(MAX_LINE + 1));
        assert_eq!(read_line_bounded(&mut long).unwrap(), Line::TooLong);
    }

    #[test]
    fn oversized_line_gets_err_and_closes_the_connection() {
        let (client, server) = UnixStream::pair().unwrap();
        let (tx, rx) = mpsc::channel();
        let worker = thread::spawn(move || serve_connection(server, &tx));
        let mut writer = client.try_clone().unwrap();
        // Never a newline: the daemon must stop reading at the cap.
        writer.write_all(&[b'x'; 4 * MAX_LINE]).unwrap();
        let mut reader = BufReader::new(client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "err line too long\n");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");
        worker.join().unwrap();
        assert!(
            rx.try_recv().is_err(),
            "nothing reached the command handler"
        );
    }

    const VERBS: [&str; 10] = [
        "join",
        "leave",
        "advertise",
        "search",
        "query",
        "stats",
        "peers",
        "",
        "bogus",
        "Join",
    ];

    fn arg() -> impl Strategy<Value = String> {
        prop_oneof![
            (0u64..16).prop_map(|n| n.to_string()),
            (0u64..2_000).prop_map(|n| n.to_string()),
            any::<u64>().prop_map(|n| n.to_string()),
            (-9i64..0).prop_map(|n| n.to_string()),
            "[a-z0-9.]{1,6}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any command sequence gets one `ok`/`err` reply per line, never a
        /// panic or a quit, and the world's liveness views stay consistent.
        #[test]
        fn command_handler_never_panics(
            script in prop::collection::vec(
                (0usize..VERBS.len(), prop::collection::vec(arg(), 0..4), 0u64..2_000_000),
                1..24,
            ),
        ) {
            with_daemon(|d| {
                let mut now_us = 0;
                for (verb, args, step) in &script {
                    now_us += step;
                    let line = format!("{} {}", VERBS[*verb], args.join(" "));
                    let (r, quit) = d.handle_command(&line, now_us);
                    prop_assert!(!quit);
                    prop_assert!(r.starts_with("ok ") || r.starts_with("err "), "{line:?} gave {r:?}");
                }
                let (alive, offline) = peers(d);
                prop_assert_eq!(alive.len() + offline.len(), PEERS);
                prop_assert_eq!(alive.len(), d.sim.ctx().alive_count());
            });
        }
    }
}
