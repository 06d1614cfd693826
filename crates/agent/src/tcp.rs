//! The networked [`Transport`]: batched, length-prefixed KQML frames
//! over TCP, driven by a per-node reactor thread.
//!
//! This is the deployment story the paper actually ran — agents on
//! distinct machines exchanging KQML over TCP, each reachable at the
//! `tcp://host:port` "directions" carried in its advertisement (Fig. 8).
//! One `TcpTransport` is one *node*: it binds a listener, hosts a local
//! registry of agent mailboxes, and holds a routing table mapping remote
//! agent names to their [`AgentAddress`]es.
//!
//! ## Reactor
//!
//! All socket work happens on one poll-driven reactor thread per node,
//! over nonblocking sockets — there are no per-connection threads and no
//! blocking accept. The reactor:
//!
//! * accepts inbound connections and reads whole frames from them,
//!   delivering each message to the local registry and writing one
//!   coalesced ack per frame;
//! * keeps one *persistent* outbound connection per peer node with a
//!   per-peer write queue (depth observed as the
//!   `transport_peer_queue_depth` histogram; a full queue rejects the
//!   send — the backpressure signal);
//! * parks on its command channel when idle, so waking it — including
//!   for shutdown — is just a channel send. No "connect to yourself to
//!   unblock accept" tricks.
//!
//! Senders block only on the coalesced ack for their own batch, never on
//! connection establishment or on other senders' traffic being written.
//!
//! ## Framing
//!
//! One frame carries a whole batch of messages from one sender:
//!
//! ```text
//! u32 BE  payload length (everything after these 4 bytes)
//! u16 BE  sender-name length, then that many UTF-8 bytes
//! u16 BE  message count N
//! N ×  {  u16 BE receiver-name length + bytes,
//!         u32 BE body length + the KQML message rendered as text  }
//! ```
//!
//! The receiver answers one coalesced ack per frame: a status byte `0`
//! followed by ⌈N/8⌉ bitmap bytes in which bit `i` (LSB-first) set means
//! message `i` named an agent not registered here (surfacing as
//! [`TransportError::UnknownAgent`], preserving the in-proc `Bus`
//! semantics for dead peers). A structurally invalid frame is answered
//! with the single status byte `2` and the connection is closed, since
//! stream framing can no longer be trusted.

use crate::address::AgentAddress;
use crate::transport::{
    mailbox, Envelope, Mailbox, MailboxSender, Transport, TransportError, TransportMetrics,
};
use infosleuth_kqml::Message;
use infosleuth_obs::Obs;
use parking_lot::RwLock;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame delivered; per-message failures are in the ack bitmap.
const ACK_OK: u8 = 0;
/// Frame was structurally invalid; the connection is closed after this.
const ACK_MALFORMED: u8 = 2;

/// Refuse frames above this size; a wild length prefix must not make the
/// receiver allocate unboundedly.
const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Messages per wire frame; larger batches are split across frames.
const MAX_WIRE_BATCH: usize = 4096;

/// Per-peer write-queue cap: further sends are rejected (backpressure)
/// instead of buffering unboundedly toward a slow or stuck peer.
const MAX_PEER_QUEUE: usize = 1024;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Reactor sleep between polls while I/O is in flight (bounds the spin;
/// nonblocking reads/writes return immediately).
const POLL_ACTIVE: Duration = Duration::from_micros(100);
/// Reactor block on the command channel when fully idle; inbound frames
/// are picked up on the next tick.
const POLL_IDLE: Duration = Duration::from_millis(1);

/// Per-message failure flags from one coalesced ack (`true` = the
/// receiver had no such agent), or a wire-level error for the whole
/// frame.
type AckReply = Result<Vec<bool>, TransportError>;

enum Cmd {
    Send { addr: SocketAddr, frame: Vec<u8>, count: usize, done: Sender<AckReply> },
    Shutdown,
}

struct TcpShared {
    registry: RwLock<HashMap<String, MailboxSender>>,
    routes: RwLock<HashMap<String, AgentAddress>>,
    obs: RwLock<Option<Arc<TransportMetrics>>>,
}

/// One node of a distributed deployment: local mailboxes plus TCP
/// delivery to routed remote agents.
pub struct TcpTransport {
    shared: Arc<TcpShared>,
    local_addr: SocketAddr,
    conversation_counter: AtomicU64,
    cmd_tx: Sender<Cmd>,
    reactor: Mutex<Option<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Binds a listener (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the node's reactor thread.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Arc<TcpTransport>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(TcpShared {
            registry: RwLock::new(HashMap::new()),
            routes: RwLock::new(HashMap::new()),
            obs: RwLock::new(None),
        });
        let (cmd_tx, cmd_rx) = channel();
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("tcp-reactor-{}", local_addr.port()))
                .spawn(move || Reactor::new(listener, shared, cmd_rx).run())?
        };
        Ok(Arc::new(TcpTransport {
            shared,
            local_addr,
            conversation_counter: AtomicU64::new(0),
            cmd_tx,
            reactor: Mutex::new(Some(reactor)),
        }))
    }

    /// The bound listener address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This node's contact directions, as carried in advertisements.
    pub fn address(&self) -> AgentAddress {
        AgentAddress::tcp(self.local_addr.ip().to_string(), self.local_addr.port())
    }

    /// Routes a remote agent name to the node that hosts it. Sends to
    /// `name` connect there; the hosting node still decides whether the
    /// agent is actually alive.
    pub fn add_route(&self, name: impl Into<String>, address: AgentAddress) {
        self.shared.routes.write().insert(name.into(), address);
    }

    /// Drops a route (e.g. after the remote node is decommissioned).
    pub fn remove_route(&self, name: &str) -> bool {
        self.shared.routes.write().remove(name).is_some()
    }

    /// Attaches transport metrics to this node, registered under
    /// `transport="tcp"` in `obs`. Covers frame sends, receipts, batch
    /// sizes, per-peer queue depths, and prefix-fallback route
    /// resolutions.
    pub fn set_obs(&self, obs: &Arc<Obs>) {
        *self.shared.obs.write() = Some(TransportMetrics::new(obs, "tcp"));
    }

    /// Resolves `name` to a routed address: exact match first, then
    /// progressively stripped `.suffix` components. An agent's ephemeral
    /// request endpoints (`broker-1.w3`) live on the same node as the
    /// agent itself, so the route for `broker-1` covers them — replies to
    /// cross-node requests need no per-conversation route entries. The
    /// returned flag says whether the fallback (rather than an exact
    /// entry) resolved the name; misses return `None` and surface as
    /// [`TransportError::NoRoute`] at send time.
    fn lookup_route(&self, name: &str) -> Option<(AgentAddress, bool)> {
        let routes = self.shared.routes.read();
        let mut candidate = name;
        loop {
            if let Some(address) = routes.get(candidate) {
                return Some((address.clone(), candidate != name));
            }
            candidate = candidate.rsplit_once('.')?.0;
        }
    }

    /// Stops the reactor: a shutdown command wakes it off its channel,
    /// it fails any in-flight sends with [`TransportError::Closed`],
    /// drops every socket (including the listener) and exits; we join
    /// it. Local mailboxes survive until dropped, but no new frames
    /// arrive. Idempotent.
    pub fn shutdown(&self) {
        let handle = crate::sync::lock_unpoisoned(&self.reactor).take();
        if let Some(handle) = handle {
            let _ = self.cmd_tx.send(Cmd::Shutdown);
            let _ = handle.join();
        }
    }

    /// Packs `items` (original batch index, receiver, rendered message)
    /// into as few wire frames as fit, sends them through the reactor,
    /// and blocks for each frame's coalesced ack.
    fn send_frames(
        &self,
        address: &AgentAddress,
        from: &str,
        items: Vec<(usize, String, String)>,
    ) -> Vec<(usize, Result<(), TransportError>)> {
        let mut out = Vec::with_capacity(items.len());
        let sock_addr = match resolve(address) {
            Ok(a) => a,
            Err(e) => {
                return items.into_iter().map(|(i, _, _)| (i, Err(e.clone()))).collect();
            }
        };
        if from.len() > u16::MAX as usize {
            let e = TransportError::Io("agent name too long for frame".into());
            return items.into_iter().map(|(i, _, _)| (i, Err(e.clone()))).collect();
        }
        let mut chunk: Vec<(usize, String, String)> = Vec::new();
        let mut chunk_len = frame_header_len(from);
        for (i, to, text) in items {
            let item_len = 2 + to.len() + 4 + text.len();
            if to.len() > u16::MAX as usize
                || frame_header_len(from) + item_len > MAX_FRAME as usize
            {
                out.push((i, Err(TransportError::Io(format!("frame too large for '{to}'")))));
                continue;
            }
            if !chunk.is_empty()
                && (chunk_len + item_len > MAX_FRAME as usize || chunk.len() >= MAX_WIRE_BATCH)
            {
                self.flush_chunk(sock_addr, from, std::mem::take(&mut chunk), &mut out);
                chunk_len = frame_header_len(from);
            }
            chunk_len += item_len;
            chunk.push((i, to, text));
        }
        if !chunk.is_empty() {
            self.flush_chunk(sock_addr, from, chunk, &mut out);
        }
        out
    }

    /// Encodes one wire frame for `chunk`, hands it to the reactor, and
    /// waits for its coalesced ack, translating the failure bitmap back
    /// to per-message results.
    fn flush_chunk(
        &self,
        addr: SocketAddr,
        from: &str,
        chunk: Vec<(usize, String, String)>,
        out: &mut Vec<(usize, Result<(), TransportError>)>,
    ) {
        let frame = encode_frame(from, &chunk);
        let (done_tx, done_rx) = channel();
        let cmd = Cmd::Send { addr, frame, count: chunk.len(), done: done_tx };
        let reply: AckReply = if self.cmd_tx.send(cmd).is_err() {
            Err(TransportError::Closed)
        } else {
            match done_rx.recv_timeout(CONNECT_TIMEOUT + IO_TIMEOUT) {
                Ok(reply) => reply,
                Err(_) => Err(TransportError::Io("timed out waiting for batch ack".into())),
            }
        };
        match reply {
            Ok(failed) => {
                for (slot, (i, to, _)) in chunk.into_iter().enumerate() {
                    if failed.get(slot).copied().unwrap_or(true) {
                        out.push((i, Err(TransportError::UnknownAgent(to))));
                    } else {
                        out.push((i, Ok(())));
                    }
                }
            }
            Err(e) => {
                for (i, _, _) in chunk {
                    out.push((i, Err(e.clone())));
                }
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Transport for TcpTransport {
    fn open_mailbox(&self, name: &str) -> Result<Mailbox, TransportError> {
        let mut reg = self.shared.registry.write();
        if reg.contains_key(name) {
            return Err(TransportError::DuplicateAgent(name.to_string()));
        }
        let (tx, rx) = mailbox();
        reg.insert(name.to_string(), tx);
        Ok(rx)
    }

    fn unregister(&self, name: &str) -> bool {
        self.shared.registry.write().remove(name).is_some()
    }

    fn is_registered(&self, name: &str) -> bool {
        // A routed remote agent counts as reachable: its death is only
        // discoverable at send time (ack bitmap / refused connection),
        // exactly the paper's "the transport layer will fail to make the
        // connection".
        self.shared.registry.read().contains_key(name) || self.lookup_route(name).is_some()
    }

    fn agents(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.registry.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn send(&self, from: &str, to: &str, message: Message) -> Result<(), TransportError> {
        self.send_batch(from, vec![(to.to_string(), message)])
            .pop()
            .expect("one result per message") // lint: allow-unwrap
    }

    fn send_batch(
        &self,
        from: &str,
        batch: Vec<(String, Message)>,
    ) -> Vec<Result<(), TransportError>> {
        if batch.is_empty() {
            return Vec::new();
        }
        let metrics = self.shared.obs.read().clone();
        if let Some(m) = &metrics {
            m.record_batch(batch.len());
        }
        let started = metrics.as_ref().map(|_| Instant::now());
        let mut results: Vec<Option<Result<(), TransportError>>> = vec![None; batch.len()];
        let mut sizes: Vec<usize> = vec![0; batch.len()];
        let mut dests: Vec<String> = Vec::with_capacity(batch.len());
        // Per remote peer (keyed by its routed address rendered as text,
        // preserving first-appearance order): the messages bound there,
        // as (batch index, recipient, serialized KQML body).
        type PeerBound = Vec<(usize, String, String)>;
        let mut remote: Vec<(AgentAddress, PeerBound)> = Vec::new();
        {
            let reg = self.shared.registry.read();
            for (i, (to, message)) in batch.into_iter().enumerate() {
                if metrics.is_some() {
                    sizes[i] = message.wire_size();
                }
                // Local fast path: same-node agents never touch a socket.
                if let Some(tx) = reg.get(&to) {
                    let result =
                        tx.deliver(Envelope { from: from.to_string(), to: to.clone(), message });
                    if let (Some(m), true) = (&metrics, result.is_ok()) {
                        // Same-node delivery is also the receipt.
                        m.record_recv(sizes[i]);
                    }
                    results[i] = Some(result);
                } else {
                    match self.lookup_route(&to) {
                        // A routing-table gap is a deployment
                        // configuration problem, reported distinctly
                        // from a dead-but-routed agent.
                        None => results[i] = Some(Err(TransportError::NoRoute(to.clone()))),
                        Some((address, used_fallback)) => {
                            if used_fallback {
                                if let Some(m) = &metrics {
                                    m.record_route_fallback();
                                }
                            }
                            let item = (i, to.clone(), message.to_string());
                            match remote.iter_mut().find(|(a, _)| *a == address) {
                                Some((_, items)) => items.push(item),
                                None => remote.push((address, vec![item])),
                            }
                        }
                    }
                }
                dests.push(to);
            }
        }
        for (address, items) in remote {
            for (i, result) in self.send_frames(&address, from, items) {
                results[i] = Some(result);
            }
        }
        let results: Vec<Result<(), TransportError>> =
            results.into_iter().map(|r| r.expect("every batch slot resolved")).collect(); // lint: allow-unwrap
        if let (Some(m), Some(started)) = (&metrics, started) {
            let elapsed = started.elapsed();
            for (i, result) in results.iter().enumerate() {
                m.record_send(&dests[i], sizes[i], elapsed, result.is_ok());
            }
        }
        results
    }

    fn next_conversation_id(&self, prefix: &str) -> String {
        // The node's port disambiguates ids minted on different nodes of
        // one deployment.
        let n = self.conversation_counter.fetch_add(1, Ordering::Relaxed);
        format!("{prefix}-{}-{n}", self.local_addr.port())
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("local_addr", &self.local_addr)
            .field("agents", &Transport::agents(self))
            .finish()
    }
}

fn io_err(e: std::io::Error) -> TransportError {
    TransportError::Io(e.to_string())
}

fn resolve(address: &AgentAddress) -> Result<SocketAddr, TransportError> {
    (address.host.as_str(), address.port)
        .to_socket_addrs()
        .map_err(io_err)?
        .next()
        .ok_or_else(|| TransportError::Io(format!("unresolvable host '{}'", address.host)))
}

/// Frame bytes before the first message record: length prefix, sender
/// name, message count.
fn frame_header_len(from: &str) -> usize {
    2 + from.len() + 2
}

/// Encodes one batch frame (length prefix included).
fn encode_frame(from: &str, chunk: &[(usize, String, String)]) -> Vec<u8> {
    let payload_len = frame_header_len(from)
        + chunk.iter().map(|(_, to, text)| 2 + to.len() + 4 + text.len()).sum::<usize>();
    let mut frame = Vec::with_capacity(4 + payload_len);
    frame.extend_from_slice(&(payload_len as u32).to_be_bytes());
    frame.extend_from_slice(&(from.len() as u16).to_be_bytes());
    frame.extend_from_slice(from.as_bytes());
    frame.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
    for (_, to, text) in chunk {
        frame.extend_from_slice(&(to.len() as u16).to_be_bytes());
        frame.extend_from_slice(to.as_bytes());
        frame.extend_from_slice(&(text.len() as u32).to_be_bytes());
        frame.extend_from_slice(text.as_bytes());
    }
    frame
}

/// Coalesced-ack length for a frame of `count` messages: the status byte
/// plus the failure bitmap.
fn ack_len(count: usize) -> usize {
    1 + count.div_ceil(8)
}

/// An accepted connection: inbound frames accumulate in `rbuf`,
/// coalesced acks drain from `wbuf`.
struct Inbound {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Stop reading and drop the connection once `wbuf` is flushed
    /// (set after a malformed frame).
    close_after_flush: bool,
    dead: bool,
}

struct PendingAck {
    count: usize,
    done: Sender<AckReply>,
    /// The encoded frame, kept until acked so a stale pooled connection
    /// can be retried safely (see [`Peer::retry_safe`]).
    frame: Arc<Vec<u8>>,
}

/// The persistent outbound connection to one peer node.
struct Peer {
    stream: TcpStream,
    /// Frames queued for writing; the front may be partially written.
    queue: VecDeque<Arc<Vec<u8>>>,
    qpos: usize,
    /// Unacked frames, oldest first (superset of `queue`).
    pending: VecDeque<PendingAck>,
    rbuf: Vec<u8>,
    /// One transparent reconnect per connection incarnation, and only
    /// while no frame has partially left this socket.
    retried: bool,
    dead: bool,
}

impl Peer {
    fn new(stream: TcpStream) -> Peer {
        Peer {
            stream,
            queue: VecDeque::new(),
            qpos: 0,
            pending: VecDeque::new(),
            rbuf: Vec::new(),
            retried: false,
            dead: false,
        }
    }

    /// Whether a connection failure can be retried without risking
    /// duplicate delivery: nothing written-but-unacked, and the frame at
    /// the head of the queue not partially written. This covers the one
    /// common failure — a pooled connection the remote closed while it
    /// sat idle.
    fn retry_safe(&self) -> bool {
        !self.retried && self.qpos == 0 && self.pending.len() == self.queue.len()
    }

    /// Fails every unacked frame with `error`.
    fn fail(&mut self, error: &TransportError) {
        for p in self.pending.drain(..) {
            let _ = p.done.send(Err(error.clone()));
        }
        self.queue.clear();
        self.qpos = 0;
        self.dead = true;
    }
}

struct Reactor {
    listener: TcpListener,
    shared: Arc<TcpShared>,
    cmd_rx: Receiver<Cmd>,
    inbound: Vec<Inbound>,
    peers: HashMap<SocketAddr, Peer>,
}

impl Reactor {
    fn new(listener: TcpListener, shared: Arc<TcpShared>, cmd_rx: Receiver<Cmd>) -> Reactor {
        Reactor { listener, shared, cmd_rx, inbound: Vec::new(), peers: HashMap::new() }
    }

    fn run(mut self) {
        loop {
            let active = self.has_active_io();
            // Wake on commands; park on the channel only when there is
            // no I/O to poll (this parked recv is also the shutdown
            // wakeup path).
            let first = if active {
                match self.cmd_rx.try_recv() {
                    Ok(cmd) => Some(cmd),
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => Some(Cmd::Shutdown),
                }
            } else {
                match self.cmd_rx.recv_timeout(POLL_IDLE) {
                    Ok(cmd) => Some(cmd),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => Some(Cmd::Shutdown),
                }
            };
            let mut shutdown = false;
            if let Some(cmd) = first {
                shutdown |= self.handle_cmd(cmd);
            }
            while !shutdown {
                match self.cmd_rx.try_recv() {
                    Ok(cmd) => shutdown |= self.handle_cmd(cmd),
                    Err(_) => break,
                }
            }
            if shutdown {
                break;
            }
            self.accept_new();
            let progressed = self.pump_inbound() | self.pump_peers();
            self.reap();
            if active && !progressed {
                std::thread::sleep(POLL_ACTIVE);
            }
        }
        // Anything still in flight dies with the node.
        let closed = TransportError::Closed;
        for peer in self.peers.values_mut() {
            peer.fail(&closed);
        }
    }

    /// Applies one command; returns whether this was a shutdown.
    fn handle_cmd(&mut self, cmd: Cmd) -> bool {
        let Cmd::Send { addr, frame, count, done } = cmd else {
            return true;
        };
        let peer = match self.peers.entry(addr) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => match connect_peer(addr) {
                Ok(stream) => v.insert(Peer::new(stream)),
                Err(e) => {
                    let _ = done.send(Err(e));
                    return false;
                }
            },
        };
        if peer.queue.len() >= MAX_PEER_QUEUE {
            let _ = done.send(Err(TransportError::Io(format!("peer {addr} write queue full"))));
            return false;
        }
        let frame = Arc::new(frame);
        peer.queue.push_back(Arc::clone(&frame));
        peer.pending.push_back(PendingAck { count, done, frame });
        if let Some(m) = self.shared.obs.read().as_ref() {
            m.record_queue_depth(peer.queue.len());
        }
        false
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.inbound.push(Inbound {
                        stream,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        close_after_flush: false,
                        dead: false,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Reads, parses, delivers, and acks inbound frames. Returns whether
    /// any byte moved.
    fn pump_inbound(&mut self) -> bool {
        let mut progressed = false;
        for conn in &mut self.inbound {
            if conn.dead {
                continue;
            }
            if !conn.close_after_flush {
                progressed |= read_available(&mut conn.stream, &mut conn.rbuf, &mut conn.dead);
            }
            // Parse every complete frame in the buffer.
            let mut consumed = 0usize;
            while !conn.close_after_flush {
                let buf = &conn.rbuf[consumed..];
                if buf.len() < 4 {
                    break;
                }
                let payload_len = be_u32(&buf[..4]) as usize;
                if payload_len > MAX_FRAME as usize {
                    conn.wbuf.push(ACK_MALFORMED);
                    conn.close_after_flush = true;
                    break;
                }
                if buf.len() < 4 + payload_len {
                    break;
                }
                let payload = &buf[4..4 + payload_len];
                match deliver_payload(&self.shared, payload) {
                    Ok(ack) => conn.wbuf.extend_from_slice(&ack),
                    Err(()) => {
                        conn.wbuf.push(ACK_MALFORMED);
                        conn.close_after_flush = true;
                    }
                }
                consumed += 4 + payload_len;
                progressed = true;
            }
            if consumed > 0 {
                conn.rbuf.drain(..consumed);
            }
            // Flush pending acks.
            if conn.wpos < conn.wbuf.len() {
                progressed |=
                    write_some(&mut conn.stream, &conn.wbuf, &mut conn.wpos, &mut conn.dead);
                if conn.wpos == conn.wbuf.len() {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                }
            }
            if conn.close_after_flush && conn.wpos == 0 && conn.wbuf.is_empty() {
                conn.dead = true;
            }
        }
        progressed
    }

    /// Writes queued frames to peers and completes their coalesced acks.
    fn pump_peers(&mut self) -> bool {
        let mut progressed = false;
        let mut respawn: Vec<(SocketAddr, Vec<PendingAck>)> = Vec::new();
        for (addr, peer) in &mut self.peers {
            if peer.dead {
                continue;
            }
            // Write as much of the queue as the socket accepts.
            let mut broken = false;
            while let Some(front) = peer.queue.front() {
                let before = peer.qpos;
                let wrote =
                    write_some(&mut peer.stream, front.as_slice(), &mut peer.qpos, &mut broken);
                progressed |= wrote;
                if peer.qpos == front.len() {
                    peer.queue.pop_front();
                    peer.qpos = 0;
                    continue;
                }
                if broken || peer.qpos == before {
                    break;
                }
            }
            if !broken {
                progressed |= read_available(&mut peer.stream, &mut peer.rbuf, &mut broken);
            }
            // Complete acks, oldest frame first.
            while let Some(need) = peer.pending.front().map(|front| ack_len(front.count)) {
                if peer.rbuf.is_empty() {
                    break;
                }
                if peer.rbuf[0] != ACK_OK {
                    broken = true;
                    break;
                }
                if peer.rbuf.len() < need {
                    break;
                }
                let Some(acked) = peer.pending.pop_front() else { break };
                let bitmap = &peer.rbuf[1..need];
                let failed: Vec<bool> =
                    (0..acked.count).map(|i| bitmap[i / 8] & (1 << (i % 8)) != 0).collect();
                let _ = acked.done.send(Ok(failed));
                peer.rbuf.drain(..need);
                progressed = true;
            }
            if broken {
                if peer.retry_safe() {
                    // The pooled connection went stale while idle (the
                    // remote closed it); nothing of ours reached the
                    // wire, so replay the queue on a fresh connection.
                    respawn.push((*addr, peer.pending.drain(..).collect()));
                    peer.queue.clear();
                    peer.qpos = 0;
                    peer.dead = true;
                } else {
                    peer.fail(&TransportError::Io(format!("connection to {addr} failed")));
                }
            }
        }
        for (addr, pendings) in respawn {
            self.peers.remove(&addr);
            match connect_peer(addr) {
                Ok(stream) => {
                    let mut peer = Peer::new(stream);
                    peer.retried = true;
                    for p in pendings {
                        peer.queue.push_back(Arc::clone(&p.frame));
                        peer.pending.push_back(p);
                    }
                    self.peers.insert(addr, peer);
                }
                Err(e) => {
                    for p in pendings {
                        let _ = p.done.send(Err(e.clone()));
                    }
                }
            }
            progressed = true;
        }
        progressed
    }

    /// Drops dead connections; an idle dead peer just leaves the pool.
    fn reap(&mut self) {
        self.inbound.retain(|c| !c.dead);
        self.peers.retain(|_, p| {
            if p.dead {
                debug_assert!(p.pending.is_empty(), "dead peer with unfailed pendings");
            }
            !p.dead
        });
    }

    fn has_active_io(&self) -> bool {
        self.peers.values().any(|p| !p.queue.is_empty() || !p.pending.is_empty())
            || self
                .inbound
                .iter()
                .any(|c| !c.rbuf.is_empty() || c.wpos < c.wbuf.len() || c.close_after_flush)
    }
}

fn connect_peer(addr: SocketAddr) -> Result<TcpStream, TransportError> {
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).map_err(io_err)?;
    stream.set_nodelay(true).map_err(io_err)?;
    stream.set_nonblocking(true).map_err(io_err)?;
    Ok(stream)
}

/// Drains whatever the nonblocking socket has into `buf`. Returns
/// whether bytes arrived; EOF and hard errors set `dead`.
fn read_available(stream: &mut TcpStream, buf: &mut Vec<u8>, dead: &mut bool) -> bool {
    let mut progressed = false;
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                *dead = true;
                return progressed;
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                progressed = true;
                if n < chunk.len() {
                    return progressed;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return progressed,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                *dead = true;
                return progressed;
            }
        }
    }
}

/// Writes as much of `buf[*pos..]` as the nonblocking socket accepts,
/// advancing `pos`. Returns whether bytes moved; hard errors set `dead`.
fn write_some(stream: &mut TcpStream, buf: &[u8], pos: &mut usize, dead: &mut bool) -> bool {
    let mut progressed = false;
    while *pos < buf.len() {
        match stream.write(&buf[*pos..]) {
            Ok(0) => {
                *dead = true;
                return progressed;
            }
            Ok(n) => {
                *pos += n;
                progressed = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return progressed,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                *dead = true;
                return progressed;
            }
        }
    }
    progressed
}

/// Decodes one batch payload, delivers each message to the local
/// registry, and returns the coalesced ack (status byte + failure
/// bitmap). Any structural problem is `Err` (the caller answers
/// `ACK_MALFORMED` and closes).
fn deliver_payload(shared: &TcpShared, payload: &[u8]) -> Result<Vec<u8>, ()> {
    let mut cursor = 0usize;
    let from_len = be_u16(take(payload, &mut cursor, 2)?) as usize;
    let from = std::str::from_utf8(take(payload, &mut cursor, from_len)?).map_err(|_| ())?;
    let count = be_u16(take(payload, &mut cursor, 2)?) as usize;
    let mut ack = vec![0u8; ack_len(count)];
    ack[0] = ACK_OK;
    let metrics = shared.obs.read().clone();
    for i in 0..count {
        let to_len = be_u16(take(payload, &mut cursor, 2)?) as usize;
        let to = std::str::from_utf8(take(payload, &mut cursor, to_len)?).map_err(|_| ())?;
        let body_len = be_u32(take(payload, &mut cursor, 4)?) as usize;
        let text = std::str::from_utf8(take(payload, &mut cursor, body_len)?).map_err(|_| ())?;
        let message = Message::parse(text).map_err(|_| ())?;
        if let Some(m) = &metrics {
            m.record_recv(message.wire_size());
        }
        let delivered = {
            let reg = shared.registry.read();
            match reg.get(to) {
                Some(tx) => tx
                    .deliver(Envelope { from: from.to_string(), to: to.to_string(), message })
                    .is_ok(),
                None => false,
            }
        };
        if !delivered {
            ack[1 + i / 8] |= 1 << (i % 8);
        }
    }
    if cursor != payload.len() {
        return Err(());
    }
    Ok(ack)
}

/// Advances `cursor` by `n` bytes into `payload`, bounds-checked.
fn take<'a>(payload: &'a [u8], cursor: &mut usize, n: usize) -> Result<&'a [u8], ()> {
    let end = cursor.checked_add(n).filter(|&e| e <= payload.len()).ok_or(())?;
    let slice = &payload[*cursor..end];
    *cursor = end;
    Ok(slice)
}

/// Big-endian u16 from a slice whose length the caller already checked.
fn be_u16(b: &[u8]) -> u16 {
    u16::from_be_bytes([b[0], b[1]])
}

/// Big-endian u32 from a slice whose length the caller already checked.
fn be_u32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportExt;
    use infosleuth_kqml::{Performative, SExpr};

    fn node() -> Arc<TcpTransport> {
        TcpTransport::bind("127.0.0.1:0").expect("bind localhost")
    }

    fn as_dyn(node: &Arc<TcpTransport>) -> Arc<dyn Transport> {
        Arc::clone(node) as Arc<dyn Transport>
    }

    #[test]
    fn local_delivery_without_routes() {
        let n = node();
        let t = as_dyn(&n);
        let a = t.endpoint("a").unwrap();
        let mut b = t.endpoint("b").unwrap();
        a.send("b", Message::new(Performative::Tell).with_content(SExpr::atom("hi"))).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.from, "a");
        assert_eq!(env.message.content(), Some(&SExpr::atom("hi")));
    }

    #[test]
    fn cross_node_delivery_and_reply() {
        let n1 = node();
        let n2 = node();
        n1.add_route("server", n2.address());
        n2.add_route("client", n1.address());
        let t1 = as_dyn(&n1);
        let t2 = as_dyn(&n2);
        let mut client = t1.endpoint("client").unwrap();
        let handle = std::thread::spawn(move || {
            let mut server = t2.endpoint("server").unwrap();
            let env = server.recv_timeout(Duration::from_secs(5)).unwrap();
            let reply =
                env.message.reply_skeleton(Performative::Reply).with_content(SExpr::atom("pong"));
            server.send(&env.from, reply).unwrap();
        });
        // Give the server thread a moment to register its mailbox.
        std::thread::sleep(Duration::from_millis(50));
        let reply = client
            .request(
                "server",
                Message::new(Performative::AskOne).with_content(SExpr::atom("ping")),
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(reply.content(), Some(&SExpr::atom("pong")));
        handle.join().unwrap();
    }

    #[test]
    fn routes_cover_dotted_ephemeral_endpoints() {
        // A route for "client" must also deliver to "client.w0": runtime
        // agents answer cross-node requests through ephemeral reply
        // endpoints that share the requester's node.
        let n1 = node();
        let n2 = node();
        n2.add_route("client", n1.address());
        let t1 = as_dyn(&n1);
        let t2 = as_dyn(&n2);
        let mut ephemeral = t1.endpoint("client.w0").unwrap();
        let server = t2.endpoint("server").unwrap();
        server
            .send("client.w0", Message::new(Performative::Reply).with_content(SExpr::atom("ok")))
            .unwrap();
        let env = ephemeral.recv_timeout(Duration::from_secs(2)).expect("routed via prefix");
        assert_eq!(env.message.content(), Some(&SExpr::atom("ok")));
        // No route stem at all is a distinguishable routing gap, not a
        // dead agent.
        assert!(matches!(
            t2.send("server", "stranger.w0", Message::new(Performative::Tell)).unwrap_err(),
            TransportError::NoRoute(_)
        ));
    }

    #[test]
    fn prefix_fallback_is_counted_when_metrics_attached() {
        let n1 = node();
        let n2 = node();
        n2.add_route("client", n1.address());
        let obs = Obs::new();
        n2.set_obs(&obs);
        let t1 = as_dyn(&n1);
        let t2 = as_dyn(&n2);
        let mut ephemeral = t1.endpoint("client.w4").unwrap();
        let server = t2.endpoint("server").unwrap();
        server
            .send("client.w4", Message::new(Performative::Reply).with_content(SExpr::atom("ok")))
            .unwrap();
        assert!(ephemeral.recv_timeout(Duration::from_secs(2)).is_some());
        let text = obs.registry().render();
        assert!(
            text.contains("transport_route_fallback_total{transport=\"tcp\"} 1"),
            "fallback resolution must be visible: {text}"
        );
        // Exact-match routes do not count as fallbacks.
        server.send("client", Message::new(Performative::Tell)).unwrap_err(); // no mailbox, but routed
        assert!(obs
            .registry()
            .render()
            .contains("transport_route_fallback_total{transport=\"tcp\"} 1"));
    }

    #[test]
    fn message_params_survive_the_wire() {
        let n1 = node();
        let n2 = node();
        n1.add_route("sink", n2.address());
        let t1 = as_dyn(&n1);
        let t2 = as_dyn(&n2);
        let sender = t1.endpoint("src").unwrap();
        let mut sink = t2.endpoint("sink").unwrap();
        let mut msg = Message::new(Performative::Advertise)
            .with_content(SExpr::list(vec![SExpr::atom("svc"), SExpr::atom("x")]));
        msg.set("ontology", SExpr::atom("infosleuth-services"));
        msg.set("language", SExpr::atom("KQML"));
        sender.send("sink", msg).unwrap();
        let env = sink.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.from, "src");
        assert_eq!(env.message.performative, Performative::Advertise);
        assert_eq!(env.message.get_text("ontology"), Some("infosleuth-services"));
        assert_eq!(env.message.sender(), Some("src"));
        assert_eq!(
            env.message.content(),
            Some(&SExpr::list(vec![SExpr::atom("svc"), SExpr::atom("x")]))
        );
    }

    #[test]
    fn send_to_unrouted_name_is_no_route() {
        let n = node();
        let t = as_dyn(&n);
        let a = t.endpoint("a").unwrap();
        let err = a.send("nowhere", Message::new(Performative::Tell)).unwrap_err();
        assert!(matches!(err, TransportError::NoRoute(_)), "got {err:?}");
    }

    #[test]
    fn send_to_dead_remote_agent_is_unknown_agent() {
        let n1 = node();
        let n2 = node();
        n1.add_route("ghost", n2.address());
        let t1 = as_dyn(&n1);
        let a = t1.endpoint("a").unwrap();
        // The remote node is up but hosts no such agent: the coalesced
        // ack's failure bitmap flags the message.
        let err = a.send("ghost", Message::new(Performative::Tell)).unwrap_err();
        assert!(matches!(err, TransportError::UnknownAgent(_)), "got {err:?}");
    }

    #[test]
    fn send_to_downed_node_is_io_error() {
        let n1 = node();
        let dead = node();
        let dead_address = dead.address();
        dead.shutdown();
        drop(dead);
        n1.add_route("ghost", dead_address);
        let t1 = as_dyn(&n1);
        let a = t1.endpoint("a").unwrap();
        let err = a.send("ghost", Message::new(Performative::Tell)).unwrap_err();
        assert!(
            matches!(err, TransportError::Io(_) | TransportError::UnknownAgent(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn conversation_ids_are_node_unique() {
        let n1 = node();
        let n2 = node();
        let a = Transport::next_conversation_id(&*n1, "x");
        let b = Transport::next_conversation_id(&*n2, "x");
        assert_ne!(a, b);
    }

    #[test]
    fn send_batch_crosses_the_wire_in_order_with_partial_failures() {
        let n1 = node();
        let n2 = node();
        n1.add_route("sink", n2.address());
        n1.add_route("ghost", n2.address());
        let t1 = as_dyn(&n1);
        let t2 = as_dyn(&n2);
        let _src = t1.endpoint("src").unwrap();
        let mut sink = t2.endpoint("sink").unwrap();
        let mut local = t1.endpoint("here").unwrap();
        let mk = |s: &str| Message::new(Performative::Tell).with_content(SExpr::atom(s));
        // One frame to node 2 (sink ok, ghost unknown), one local
        // delivery, one routing gap — all in a single batch call.
        let results = t1.send_batch(
            "src",
            vec![
                ("sink".into(), mk("one")),
                ("ghost".into(), mk("lost")),
                ("here".into(), mk("local")),
                ("nowhere".into(), mk("gap")),
                ("sink".into(), mk("two")),
            ],
        );
        assert!(results[0].is_ok(), "got {results:?}");
        assert!(matches!(&results[1], Err(TransportError::UnknownAgent(_))), "got {results:?}");
        assert!(results[2].is_ok(), "got {results:?}");
        assert!(matches!(&results[3], Err(TransportError::NoRoute(_))), "got {results:?}");
        assert!(results[4].is_ok(), "got {results:?}");
        let first = sink.recv_timeout(Duration::from_secs(2)).expect("first delivery");
        let second = sink.recv_timeout(Duration::from_secs(2)).expect("second delivery");
        assert_eq!(first.message.content(), Some(&SExpr::atom("one")));
        assert_eq!(second.message.content(), Some(&SExpr::atom("two")));
        assert_eq!(
            local.recv_timeout(Duration::from_secs(2)).unwrap().message.content(),
            Some(&SExpr::atom("local"))
        );
    }

    #[test]
    fn batch_size_histogram_counts_coalesced_sends() {
        let n1 = node();
        let n2 = node();
        n1.add_route("sink", n2.address());
        let obs = Obs::new();
        n1.set_obs(&obs);
        let t1 = as_dyn(&n1);
        let _src = t1.endpoint("src").unwrap();
        let mut sink = as_dyn(&n2).endpoint("sink").unwrap();
        let mk = || Message::new(Performative::Tell).with_content(SExpr::atom("x"));
        let results = t1.send_batch(
            "src",
            vec![("sink".into(), mk()), ("sink".into(), mk()), ("sink".into(), mk())],
        );
        assert!(results.iter().all(Result::is_ok), "got {results:?}");
        for _ in 0..3 {
            assert!(sink.recv_timeout(Duration::from_secs(2)).is_some());
        }
        let text = obs.registry().render();
        assert!(
            text.contains("transport_batch_size_bucket{le=\"4\",transport=\"tcp\"} 1"),
            "one 3-message batch observed: {text}"
        );
        assert!(
            text.contains("transport_peer_queue_depth"),
            "queue depth histogram registered on remote send: {text}"
        );
    }

    /// Live `tcp-reactor-*` threads of this process. The whole-process
    /// `Threads:` count also moves with every sibling test's workers.
    #[cfg(target_os = "linux")]
    fn reactor_thread_count() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task is readable")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("tcp-reactor-"))
            .count()
    }

    #[test]
    fn repeated_open_close_cycles_leak_nothing() {
        // The shutdown path must be reactor-native: no self-connect
        // nudge, no orphaned threads, no port-in-use flakes when the
        // same address is rebound immediately.
        let probe = node();
        let addr = probe.local_addr();
        probe.shutdown();
        drop(probe);
        #[cfg(target_os = "linux")]
        let baseline = reactor_thread_count();
        for cycle in 0..10 {
            let n1 = TcpTransport::bind(addr).expect("address is free again");
            let n2 = node();
            n1.add_route("b", n2.address());
            n2.add_route("a", n1.address());
            let t1 = as_dyn(&n1);
            let t2 = as_dyn(&n2);
            let a = t1.endpoint("a").unwrap();
            let mut b = t2.endpoint("b").unwrap();
            a.send("b", Message::new(Performative::Tell).with_content(SExpr::atom("hi"))).unwrap();
            assert!(
                b.recv_timeout(Duration::from_secs(2)).is_some(),
                "cycle {cycle}: delivery works"
            );
            let started = Instant::now();
            n1.shutdown();
            n2.shutdown();
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "cycle {cycle}: shutdown stalled {:?}",
                started.elapsed()
            );
        }
        // `shutdown` joined every reactor this test started; sibling tests
        // run reactors of their own in this process, so wait theirs out.
        #[cfg(target_os = "linux")]
        {
            let deadline = Instant::now() + Duration::from_secs(10);
            while reactor_thread_count() > baseline && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert!(
                reactor_thread_count() <= baseline,
                "reactor threads must all be joined: {} alive, {baseline} before",
                reactor_thread_count()
            );
        }
    }
}
