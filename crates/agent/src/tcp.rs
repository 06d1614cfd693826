//! The networked [`Transport`]: one length-prefixed KQML message per
//! frame over TCP, on blocking sockets that wake in the kernel.
//!
//! This is the deployment story the paper actually ran — agents on
//! distinct machines exchanging KQML over TCP, each reachable at the
//! `tcp://host:port` "directions" carried in its advertisement (Fig. 8).
//! One `TcpTransport` is one *node*: it binds a listener, hosts a local
//! registry of agent mailboxes, and holds a routing table mapping remote
//! agent names to their [`AgentAddress`]es.
//!
//! ## What blocks where
//!
//! Every socket is blocking, so a thread waiting for bytes sleeps in the
//! kernel and is woken by their arrival — nothing on the message path
//! polls or naps.
//!
//! * **Inbound.** Each accepted connection has one reader thread
//!   (`tcp-in-<port>`). It blocks in `read` for the 4-byte length, checks
//!   it against [`MAX_FRAME`], reads exactly that frame into a heap buffer
//!   freed after use, decodes *all* of it, delivers its message to the
//!   local registry and writes the frame's ack itself. A frame that is
//!   not wholly well-formed delivers nothing.
//! * **Outbound.** Each peer node has one persistent connection and one
//!   frame in flight on it. The *sending* thread takes the per-peer lock,
//!   writes its frame and reads that frame's status byte itself, then
//!   lets go: frames and acks alternate, and a sender waits behind
//!   whoever holds the lock. Before it writes on a pooled connection, it
//!   peeks at the socket without blocking, to find a connection that the
//!   remote closed while it sat idle.
//! * **Accept.** The acceptor (`tcp-acc-<port>`) blocks in `accept`.
//!   `shutdown` sets `closed` and then wakes it by connecting to the
//!   node's own listener — the loopback address of its family when the
//!   node is bound to an unspecified one. The acceptor checks `closed`
//!   as soon as `accept` returns, so that connection never gets a reader.
//!
//! A node therefore runs `1 + inbound connections` threads — one per
//! peer node that sends to it — and all of them idle in the kernel.
//! Delivery into a local mailbox — the same-node fast path and every
//! inbound frame — is `Registry::deliver` (`transport.rs`): it takes the
//! mailbox's mutex for one push and never waits, so a slow agent cannot
//! block a `tcp-in-*` reader.
//!
//! ## Timeouts
//!
//! [`CONNECT_TIMEOUT`] bounds connection establishment. [`IO_TIMEOUT`] is
//! the read and write timeout of every socket: a connection idle
//! *between* frames may wait forever, a half-read frame or an unwritable
//! socket may not, and the connection is dropped. A sender waits at most
//! `IO_TIMEOUT` for its ack and then marks the connection failed; the
//! senders already waiting for it fail with it instead of each waiting
//! out another `IO_TIMEOUT`.
//!
//! A send whose connection turns out stale is retried once on a fresh
//! one, and only if not one byte of its frame left the old socket — the
//! remote closing a pooled connection while it sat idle is seen by the
//! peek, so this is the common case. Anything else could deliver twice
//! and fails with [`TransportError::Io`] instead.
//!
//! `shutdown` wakes every blocked reader — an inbound reader, or a sender
//! waiting for its ack — with `TcpStream::shutdown` on a kept clone of its
//! socket, and joins every thread the node started.
//!
//! ## Framing
//!
//! One frame carries one message:
//!
//! ```text
//! u32 BE  payload length (everything after these 4 bytes)
//! u16 BE  sender-name length, then that many UTF-8 bytes
//! u16 BE  receiver-name length, then that many UTF-8 bytes
//! u32 BE  body length, then the KQML message rendered as text
//! ```
//!
//! The body is the only place a message's `:sender`, `:receiver` and
//! `:x-trace` are printed: in process the names are the envelope's and the
//! trace context rides beside the message as a value. The framer prints
//! the message's own parameters, less any of those three it carries, then
//! `:sender` and `:receiver` from the header's names and, when the send
//! was traced, `:x-trace "<trace-hex16>-<span-hex16>"`. The reader takes
//! the three back out: the header's names are the envelope's whatever the
//! text says, and a malformed `:x-trace` is dropped, so the message is
//! dispatched under a fresh root span.
//!
//! The body keeps its own length, so a byte after it makes the frame
//! malformed. The receiver answers every frame with one status byte:
//! `0` delivered, `1` no such agent is registered here (surfacing as
//! [`TransportError::UnknownAgent`], preserving the in-proc `Bus`
//! semantics for dead peers), or `2` for a structurally invalid frame,
//! after which the connection is closed, since stream framing can no
//! longer be trusted.

use crate::address::AgentAddress;
use crate::transport::{Mailbox, Registry, Transport, TransportError, TransportMetrics};
use infosleuth_kqml::{Message, SExpr};
use infosleuth_obs::sync::{lock, read, write};
use infosleuth_obs::{Obs, TraceContext};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame delivered.
const ACK_OK: u8 = 0;
/// Frame well-formed, but its addressee is not registered here.
const ACK_UNKNOWN: u8 = 1;
/// Frame was structurally invalid; the connection is closed after this.
const ACK_MALFORMED: u8 = 2;

/// Refuse frames above this size; a wild length prefix must not make the
/// receiver allocate unboundedly.
const MAX_FRAME: u32 = 16 * 1024 * 1024;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The KQML parameter a frame carries the trace context in.
const TRACE_PARAM: &str = "x-trace";

/// One frame's ack: whether the receiver had the addressee (`ACK_OK`
/// rather than `ACK_UNKNOWN`), or a wire-level error.
type AckReply = Result<bool, TransportError>;

struct TcpShared {
    registry: RwLock<Registry>,
    routes: RwLock<HashMap<String, AgentAddress>>,
    obs: RwLock<Option<Arc<TransportMetrics>>>,
    /// Listener port, naming this node's threads.
    port: u16,
    /// Set first thing in `shutdown`: no connection is opened after it.
    closed: AtomicBool,
    /// Accepted connections: a clone of each socket (to wake its reader
    /// at shutdown) and the reader's handle.
    inbound: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
    peers: Mutex<HashMap<SocketAddr, Arc<Peer>>>,
}

/// One node of a distributed deployment: local mailboxes plus TCP
/// delivery to routed remote agents.
pub struct TcpTransport {
    shared: Arc<TcpShared>,
    local_addr: SocketAddr,
    conversation_counter: AtomicU64,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Binds a listener (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the node's acceptor thread.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Arc<TcpTransport>> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(TcpShared {
            registry: RwLock::default(),
            routes: RwLock::new(HashMap::new()),
            obs: RwLock::new(None),
            port: local_addr.port(),
            closed: AtomicBool::new(false),
            inbound: Mutex::new(Vec::new()),
            peers: Mutex::new(HashMap::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("tcp-acc-{}", shared.port))
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Arc::new(TcpTransport {
            shared,
            local_addr,
            conversation_counter: AtomicU64::new(0),
            acceptor: Mutex::new(Some(acceptor)),
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
        write(&self.shared.routes).insert(name.into(), address);
    }

    /// Attaches transport metrics to this node, registered under
    /// `transport="tcp"` in `obs`. Covers frame sends, receipts and
    /// prefix-fallback route resolutions.
    pub fn set_obs(&self, obs: &Arc<Obs>) {
        *write(&self.shared.obs) = Some(TransportMetrics::new(obs, "tcp"));
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
        let routes = read(&self.shared.routes);
        let mut candidate = name;
        loop {
            if let Some(address) = routes.get(candidate) {
                return Some((address.clone(), candidate != name));
            }
            candidate = candidate.rsplit_once('.')?.0;
        }
    }

    /// Delivers one message: to a same-node agent on the spot, without
    /// touching a socket; anything else as one frame to the node its
    /// route names, or not at all for want of a route. `size` is the
    /// frame body's length when `metrics` are attached.
    fn hop(
        &self,
        metrics: Option<&TransportMetrics>,
        from: &str,
        to: &str,
        message: Message,
        trace: Option<TraceContext>,
        size: usize,
    ) -> Result<(), TransportError> {
        {
            let reg = read(&self.shared.registry);
            if reg.contains(to) {
                let result = reg.deliver(from, to, trace, message);
                if let (Some(m), true) = (metrics, result.is_ok()) {
                    // Same-node delivery is also the receipt.
                    m.record_recv(size);
                }
                return result;
            }
        }
        // A routing-table gap is a deployment configuration problem,
        // reported distinctly from a dead-but-routed agent.
        let (address, used_fallback) =
            self.lookup_route(to).ok_or_else(|| TransportError::NoRoute(to.to_string()))?;
        if let (Some(m), true) = (metrics, used_fallback) {
            m.record_route_fallback();
        }
        let mut body = String::new();
        // Writing into a `String` cannot fail.
        let _ = write_body(&mut body, from, to, trace, &message);
        let frame = encode_frame(from, to, &body)?;
        if self.send_frame(resolve(&address)?, &frame)? {
            Ok(())
        } else {
            Err(TransportError::UnknownAgent(to.to_string()))
        }
    }

    /// Stops the node: wakes and joins the acceptor (which drops the
    /// listener), then shuts down every inbound and outbound socket —
    /// waking the reader blocked on it, or the sender waiting for its
    /// ack — and joins the readers. Sends in flight fail with
    /// [`TransportError::Closed`]. Local mailboxes survive until dropped,
    /// but no new frames arrive. Idempotent.
    pub fn shutdown(&self) {
        let Some(acceptor) = lock(&self.acceptor).take() else { return };
        self.shared.closed.store(true, Ordering::SeqCst);
        let mut nudge = self.local_addr;
        if nudge.ip().is_unspecified() {
            nudge.set_ip(match nudge {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Without the nudge the acceptor never returns from `accept`, and
        // joining it would hang; it is left to exit with the process.
        if TcpStream::connect_timeout(&nudge, CONNECT_TIMEOUT).is_ok() {
            let _ = acceptor.join();
        }
        let inbound = std::mem::take(&mut *lock(&self.shared.inbound));
        for (stream, reader) in inbound {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = reader.join();
        }
        let peers = std::mem::take(&mut *lock(&self.shared.peers));
        for peer in peers.values() {
            if let Some(stream) = lock(&peer.wake).as_ref() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Writes one encoded frame to the peer at `addr` and reads its ack,
    /// both from the calling thread.
    fn send_frame(&self, addr: SocketAddr, frame: &[u8]) -> AckReply {
        let arrived = Instant::now();
        let peer = Arc::clone(lock(&self.shared.peers).entry(addr).or_insert_with(|| {
            Arc::new(Peer { addr, conn: Mutex::new(None), wake: Mutex::new(None) })
        }));
        let mut conn = lock(&peer.conn);
        let mut sent = peer.exchange(&mut conn, &self.shared, frame, arrived);
        if let Err((_, true)) = sent {
            // The pooled connection was stale and not a byte of this
            // frame left it: one transparent attempt on a fresh one.
            sent = peer.exchange(&mut conn, &self.shared, frame, arrived);
        }
        sent.map_err(|(e, _)| e)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Transport for TcpTransport {
    fn open_mailbox(&self, name: &str) -> Result<Mailbox, TransportError> {
        write(&self.shared.registry).open(name)
    }

    fn unregister(&self, name: &str) -> bool {
        write(&self.shared.registry).remove(name)
    }

    fn is_registered(&self, name: &str) -> bool {
        // A routed remote agent counts as reachable: its death is only
        // discoverable at send time (`ACK_UNKNOWN` / refused connection),
        // exactly the paper's "the transport layer will fail to make the
        // connection".
        read(&self.shared.registry).contains(name) || self.lookup_route(name).is_some()
    }

    fn agents(&self) -> Vec<String> {
        read(&self.shared.registry).names()
    }

    fn send(&self, from: &str, to: &str, message: Message) -> Result<(), TransportError> {
        self.send_traced(from, to, message, None)
    }

    fn send_traced(
        &self,
        from: &str,
        to: &str,
        message: Message,
        trace: Option<TraceContext>,
    ) -> Result<(), TransportError> {
        let metrics = read(&self.shared.obs).clone();
        let metrics = metrics.as_deref();
        let timed = metrics.map(|_| (Instant::now(), printed_len(from, to, trace, &message)));
        let size = timed.map_or(0, |(_, size)| size);
        let result = self.hop(metrics, from, to, message, trace, size);
        if let (Some(m), Some((started, size))) = (metrics, timed) {
            m.record_send(size, started.elapsed(), result.is_ok());
        }
        result
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

fn connection_failed(addr: SocketAddr) -> TransportError {
    TransportError::Io(format!("connection to {addr} failed"))
}

fn resolve(address: &AgentAddress) -> Result<SocketAddr, TransportError> {
    (address.host.as_str(), address.port)
        .to_socket_addrs()
        .map_err(io_err)?
        .next()
        .ok_or_else(|| TransportError::Io(format!("unresolvable host '{}'", address.host)))
}

/// Prints the body of the frame carrying `message` from `from` to `to`:
/// its own parameters in order, less any `:sender`, `:receiver` or
/// `:x-trace`, then those three from the envelope — the trace only when
/// there is one.
fn write_body(
    w: &mut impl fmt::Write,
    from: &str,
    to: &str,
    trace: Option<TraceContext>,
    message: &Message,
) -> fmt::Result {
    w.write_str("(")?;
    w.write_str(message.performative.as_str())?;
    for (key, value) in message.params() {
        if !matches!(key, "sender" | "receiver" | TRACE_PARAM) {
            write!(w, " :{key} {value}")?;
        }
    }
    write!(w, " :sender {} :receiver {}", SExpr::atom(from), SExpr::atom(to))?;
    if let Some(ctx) = trace {
        write!(w, " :{TRACE_PARAM} \"{}-{}\"", ctx.trace, ctx.span)?;
    }
    w.write_str(")")
}

/// The length of the body [`write_body`] prints, counted without
/// printing it: what a transport's byte counters record for one message,
/// on the wire or not.
pub(crate) fn printed_len(
    from: &str,
    to: &str,
    trace: Option<TraceContext>,
    message: &Message,
) -> usize {
    struct Count(usize);
    impl fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut count = Count(0);
    let _ = write_body(&mut count, from, to, trace, message);
    count.0
}

/// Encodes the frame carrying `text` from `from` to `to`, length prefix
/// included. A frame the receiver would refuse is an error here, before
/// any byte of it is written.
fn encode_frame(from: &str, to: &str, text: &str) -> Result<Vec<u8>, TransportError> {
    let payload_len = 2 + from.len() + 2 + to.len() + 4 + text.len();
    if from.len() > u16::MAX as usize
        || to.len() > u16::MAX as usize
        || payload_len > MAX_FRAME as usize
    {
        return Err(TransportError::Io(format!("frame too large for '{to}'")));
    }
    let mut frame = Vec::with_capacity(4 + payload_len);
    frame.extend_from_slice(&(payload_len as u32).to_be_bytes());
    for name in [from, to] {
        frame.extend_from_slice(&(name.len() as u16).to_be_bytes());
        frame.extend_from_slice(name.as_bytes());
    }
    frame.extend_from_slice(&(text.len() as u32).to_be_bytes());
    frame.extend_from_slice(text.as_bytes());
    Ok(frame)
}

/// The persistent outbound connection to one peer node.
struct Conn {
    stream: TcpStream,
    /// When a send timed out waiting for its ack here and shut the socket
    /// down. A sender that was already waiting for the connection fails
    /// with it; a later one opens a new connection.
    failed: Option<Instant>,
}

/// One peer node: its address and, while one is up, the connection to it.
struct Peer {
    addr: SocketAddr,
    /// Also the per-peer lock: a sender holds it from writing its frame
    /// until it has read that frame's ack.
    conn: Mutex<Option<Conn>>,
    /// A clone of the connection's socket, through which `shutdown` wakes
    /// a sender blocked on its ack.
    wake: Mutex<Option<TcpStream>>,
}

impl Peer {
    /// Writes `frame` on the peer's connection (opening one if none is
    /// up) and reads its ack. `arrived` is when the sender asked for the
    /// connection. On failure the flag says whether a retry is safe from
    /// duplicate delivery: the connection was found dead or broke before
    /// any byte of `frame` left the socket.
    fn exchange(
        &self,
        slot: &mut Option<Conn>,
        shared: &TcpShared,
        frame: &[u8],
        arrived: Instant,
    ) -> Result<bool, (TransportError, bool)> {
        match slot {
            Some(Conn { failed: Some(at), .. }) if arrived < *at => {
                let timed_out = format!("connection to {} timed out", self.addr);
                return Err((TransportError::Io(timed_out), false));
            }
            Some(Conn { failed: Some(_), .. }) => *slot = None,
            // The remote closed this connection while it sat idle.
            Some(conn) if !idle_and_open(&conn.stream) => {
                close(slot);
                return Err((connection_failed(self.addr), true));
            }
            _ => {}
        }
        let conn = match slot {
            Some(conn) => conn,
            None => slot.insert(self.open(shared).map_err(|e| (e, false))?),
        };
        if let Err(untouched) = write_frame(&conn.stream, frame) {
            close(slot);
            return Err((broken(shared, self.addr), untouched));
        }
        let mut status = [0u8];
        match (&conn.stream).read_exact(&mut status) {
            Ok(()) if matches!(status[0], ACK_OK | ACK_UNKNOWN) => Ok(status[0] == ACK_OK),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let _ = conn.stream.shutdown(Shutdown::Both);
                conn.failed = Some(Instant::now());
                Err((TransportError::Io("timed out waiting for an ack".into()), false))
            }
            // EOF, a reset, `ACK_MALFORMED`, or `shutdown` waking us.
            _ => {
                close(slot);
                Err((broken(shared, self.addr), false))
            }
        }
    }

    /// Connects to the peer and keeps a clone of the socket in `wake` —
    /// unless the node is shutting down.
    fn open(&self, shared: &TcpShared) -> Result<Conn, TransportError> {
        if shared.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io_err)?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io_err)?;
        *lock(&self.wake) = Some(stream.try_clone().map_err(io_err)?);
        // `shutdown` sets `closed` before it reads `wake`: it has seen
        // this clone, or this sees `closed`.
        if shared.closed.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
            return Err(TransportError::Closed);
        }
        Ok(Conn { stream, failed: None })
    }
}

/// Drops the connection in `slot`, shutting its socket down, since the
/// clone in `wake` would keep it open; the next send opens another.
fn close(slot: &mut Option<Conn>) {
    if let Some(conn) = slot.take() {
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

/// The error of a send whose connection broke: `Closed` when it broke
/// because this node is shutting down.
fn broken(shared: &TcpShared, addr: SocketAddr) -> TransportError {
    if shared.closed.load(Ordering::SeqCst) {
        TransportError::Closed
    } else {
        connection_failed(addr)
    }
}

/// Whether a pooled connection is open and quiet. With no frame in
/// flight the remote has nothing to say, so a waiting byte, EOF or an
/// error means the connection is gone.
fn idle_and_open(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let quiet = matches!(stream.peek(&mut [0u8]), Err(e) if e.kind() == ErrorKind::WouldBlock);
    stream.set_nonblocking(false).is_ok() && quiet
}

/// `write_all`, except that a failure says whether the socket was still
/// untouched — no byte of `frame` had left it.
fn write_frame(mut stream: &TcpStream, frame: &[u8]) -> Result<(), bool> {
    let mut written = 0;
    while written < frame.len() {
        match stream.write(&frame[written..]) {
            Ok(0) => return Err(written == 0),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(written == 0),
        }
    }
    Ok(())
}

/// The acceptor thread: hands every new connection its own reader thread
/// until `shutdown` sets `closed` and wakes it with a connection of its
/// own, which is dropped unread.
fn accept_loop(listener: &TcpListener, shared: &Arc<TcpShared>) {
    loop {
        let accepted = listener.accept();
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        // A connection that cannot be set up is dropped: the remote sees
        // it closed and reports `Io`.
        if let Ok((stream, _)) = accepted {
            let _ = serve(stream, shared);
        }
    }
}

/// Starts the reader thread of one accepted connection and records it,
/// with a clone of its socket, for `shutdown`; readers that have finished
/// since the last accept are joined here.
fn serve(stream: TcpStream, shared: &Arc<TcpShared>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let wake = stream.try_clone()?;
    let reader = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("tcp-in-{}", shared.port))
            .spawn(move || read_frames(stream, &shared))?
    };
    let mut inbound = lock(&shared.inbound);
    let (finished, live) =
        std::mem::take(&mut *inbound).into_iter().partition(|(_, r)| r.is_finished());
    *inbound = live;
    inbound.push((wake, reader));
    drop(inbound);
    for (_, reader) in finished {
        let _ = reader.join();
    }
    Ok(())
}

/// The reader thread of one accepted connection: frame in, message
/// delivered, status byte out, until the remote closes, a frame stalls
/// half-read past `IO_TIMEOUT`, a frame is malformed (answered
/// `ACK_MALFORMED`), or `shutdown` wakes it.
fn read_frames(mut stream: TcpStream, shared: &TcpShared) {
    loop {
        let ack = match read_frame(&mut stream) {
            Ok(payload) => match decode_payload(&payload) {
                Ok(frame) => deliver(shared, frame),
                Err(()) => ACK_MALFORMED,
            },
            Err(e) if e.kind() == ErrorKind::InvalidData => ACK_MALFORMED,
            Err(_) => break,
        };
        if stream.write_all(&[ack]).is_err() || ack == ACK_MALFORMED {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Blocks for the next frame and returns its payload. Waiting for a
/// frame to *begin* outlasts the read timeout; once its first byte is
/// in, a stall is an error. A length above [`MAX_FRAME`] is
/// `InvalidData`, refused before anything is allocated for it.
fn read_frame(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match stream.read(&mut prefix[got..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if got == 0 && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME {
        return Err(ErrorKind::InvalidData.into());
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

/// A wholly decoded frame: the header's names, the trace context its
/// body carried, the message without its names and trace, and the body's
/// length.
struct Decoded<'a> {
    from: &'a str,
    to: &'a str,
    trace: Option<TraceContext>,
    message: Message,
    size: usize,
}

/// Decodes one whole payload before anything of it is delivered. Any
/// structural problem, unparsable body or trailing byte is `Err` for the
/// frame as a whole; a malformed `:x-trace` is only dropped.
fn decode_payload(payload: &[u8]) -> Result<Decoded<'_>, ()> {
    let mut cursor = 0usize;
    let from = field(payload, &mut cursor, 2)?;
    let to = field(payload, &mut cursor, 2)?;
    let text = field(payload, &mut cursor, 4)?;
    if cursor != payload.len() {
        return Err(());
    }
    let mut message = Message::parse(text).map_err(|_| ())?;
    let [_, _, trace] = message.take(["sender", "receiver", TRACE_PARAM]);
    let trace = trace.as_ref().and_then(SExpr::as_text).and_then(TraceContext::parse);
    Ok(Decoded { from, to, trace, message, size: text.len() })
}

/// Delivers a decoded frame to the local registry and returns its ack.
fn deliver(shared: &TcpShared, Decoded { from, to, trace, message, size }: Decoded<'_>) -> u8 {
    if let Some(m) = read(&shared.obs).as_ref() {
        m.record_recv(size);
    }
    match read(&shared.registry).deliver(from, to, trace, message) {
        Ok(()) => ACK_OK,
        Err(_) => ACK_UNKNOWN,
    }
}

/// Reads one UTF-8 field at `cursor`: a big-endian length of `width`
/// bytes, then that many bytes, all bounds-checked.
fn field<'a>(payload: &'a [u8], cursor: &mut usize, width: usize) -> Result<&'a str, ()> {
    let len = be(take(payload, cursor, width)?);
    std::str::from_utf8(take(payload, cursor, len)?).map_err(|_| ())
}

/// Advances `cursor` by `n` bytes into `payload`, bounds-checked.
fn take<'a>(payload: &'a [u8], cursor: &mut usize, n: usize) -> Result<&'a [u8], ()> {
    let end = cursor.checked_add(n).filter(|&e| e <= payload.len()).ok_or(())?;
    let slice = &payload[*cursor..end];
    *cursor = end;
    Ok(slice)
}

/// The big-endian unsigned integer in `bytes` (at most 4 of them).
fn be(bytes: &[u8]) -> usize {
    bytes.iter().fold(0, |n, &b| n << 8 | usize::from(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Endpoint, TransportExt};
    use infosleuth_kqml::{Performative, SExpr};
    use proptest::prelude::*;
    use std::sync::mpsc::{channel, Receiver};

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
        assert_eq!(env.to, "sink");
        assert_eq!(env.message.sender(), None, "the reader takes the names out");
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
        // The remote node is up but hosts no such agent: it answers
        // `ACK_UNKNOWN`.
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
    fn an_oversized_frame_is_refused_before_a_byte_is_written() {
        let n1 = node();
        let n2 = node();
        n1.add_route("sink", n2.address());
        let src = as_dyn(&n1).endpoint("src").unwrap();
        let mut sink = as_dyn(&n2).endpoint("sink").unwrap();
        let tell = |word: String| Message::new(Performative::Tell).with_content(SExpr::atom(word));
        // The local port of `n1`'s pooled connection to `n2`.
        let connection = || {
            let peer = Arc::clone(&lock(&n1.shared.peers)[&n2.local_addr()]);
            let conn = lock(&peer.conn);
            conn.as_ref().expect("connection up").stream.local_addr().unwrap()
        };
        src.send("sink", tell("first".into())).unwrap();
        assert!(sink.recv_timeout(Duration::from_secs(2)).is_some());
        let before = connection();
        let huge = tell("x".repeat(MAX_FRAME as usize));
        let err = src.send("sink", huge).unwrap_err();
        assert!(matches!(&err, TransportError::Io(e) if e.contains("frame too large")), "{err:?}");
        // Had a byte of it left, `n2` would have answered `ACK_MALFORMED`
        // and hung up, and the next send would need a new connection.
        src.send("sink", tell("next".into())).unwrap();
        let env = sink.recv_timeout(Duration::from_secs(2)).expect("the next send arrives");
        assert_eq!(env.message.content(), Some(&SExpr::atom("next")));
        assert_eq!(connection(), before, "the oversized frame cost the connection");
    }

    /// Live threads of the node listening on `port`: its acceptor and
    /// inbound readers. Matching on the port keeps the count exact while
    /// sibling tests run nodes of their own.
    #[cfg(target_os = "linux")]
    fn node_threads(port: u16) -> Vec<String> {
        let names = ["acc", "in"].map(|role| format!("tcp-{role}-{port}"));
        let mut live: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task is readable")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim_end().to_string())
            .filter(|comm| names.contains(comm))
            .collect();
        live.sort();
        live
    }

    /// Voluntary context switches made so far by the acceptor of the node
    /// listening on `port`, read as `node_threads` reads thread names.
    #[cfg(target_os = "linux")]
    fn acceptor_switches(port: u16) -> u64 {
        let name = format!("tcp-acc-{port}");
        let task = std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task is readable")
            .filter_map(|task| Some(task.ok()?.path()))
            .find(|task| {
                std::fs::read_to_string(task.join("comm")).is_ok_and(|comm| comm.trim_end() == name)
            })
            .expect("the acceptor is running");
        let status = std::fs::read_to_string(task.join("status")).expect("status is readable");
        status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|count| count.trim().parse().ok())
            .expect("status has voluntary_ctxt_switches")
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn an_idle_acceptor_sleeps_in_the_kernel() {
        let n = node();
        let port = n.local_addr().port();
        // Let the acceptor reach `accept` before the window opens.
        std::thread::sleep(Duration::from_millis(20));
        let before = acceptor_switches(port);
        std::thread::sleep(Duration::from_millis(200));
        let woke = acceptor_switches(port) - before;
        assert!(woke <= 2, "the idle acceptor woke {woke} times in 200 ms");
        n.shutdown();
        assert_eq!(node_threads(port), [""; 0], "the nudge joined the acceptor");
    }

    /// A frame from `"src"` carrying `body` to `to`.
    fn frame(to: &str, body: &str) -> Vec<u8> {
        encode_frame("src", to, body).expect("a small frame")
    }

    /// Connects to `addr` as a raw client, writes `bytes`, half-closes,
    /// and returns everything the node answered before it closed.
    fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).expect("node accepts");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // The node may hang up on the first bad frame, mid-write.
        let _ = stream.write_all(bytes);
        let _ = stream.shutdown(Shutdown::Write);
        let mut answer = Vec::new();
        let mut chunk = [0u8; 256];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return answer,
                Ok(n) => answer.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    panic!("node neither answered nor closed: got {answer:?}")
                }
                // A reset: the node closed with bytes of ours unread.
                Err(_) => return answer,
            }
        }
    }

    /// Blocks until the node closes `stream` — `true` — or, failing the
    /// test's patience, says something or stays silent — `false`.
    fn hung_up(stream: &mut TcpStream) -> bool {
        stream.set_read_timeout(Some(IO_TIMEOUT * 3)).unwrap();
        match stream.read(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => e.kind() == ErrorKind::ConnectionReset,
        }
    }

    /// A bare listener standing in for a peer node: it acks every frame
    /// it reads and hands on its `(from, to, body)`. It exits when the
    /// sending node closes the connection.
    fn catcher() -> (AgentAddress, Receiver<(String, String, String)>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let address = AgentAddress::tcp("127.0.0.1", listener.local_addr().unwrap().port());
        let (caught, frames) = channel();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            while let Ok(payload) = read_frame(&mut stream) {
                let mut cursor = 0;
                let mut next = |width| field(&payload, &mut cursor, width).unwrap().to_string();
                let frame = (next(2), next(2), next(4));
                if caught.send(frame).is_err() || stream.write_all(&[ACK_OK]).is_err() {
                    break;
                }
            }
        });
        (address, frames)
    }

    /// A frame body's parameters in order, each printed.
    fn printed_params(body: &str) -> Vec<(String, String)> {
        let message = Message::parse(body).expect("a frame body parses");
        message.params().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    /// The trace context a frame body carries, which it must carry last.
    fn printed_trace(body: &str) -> TraceContext {
        let params = printed_params(body);
        let (key, value) = params.last().expect("a parameter");
        assert_eq!(key, TRACE_PARAM, "{body}");
        TraceContext::parse(value.trim_matches('"')).expect("a well-formed trace")
    }

    /// A hosted agent that sends to `peer` on every path a hosted agent
    /// has: a plain send, a request, and a reply to what `peer` sent it.
    struct Talker;

    impl crate::AgentBehavior for Talker {
        fn on_message(&self, ctx: &crate::AgentContext, env: crate::Envelope) {
            match env.message.content().and_then(SExpr::as_text) {
                Some("send") => {
                    let tell = Message::new(Performative::Tell).with_content(SExpr::atom("sent"));
                    ctx.send("peer", tell).unwrap();
                }
                Some("ask") => {
                    let ask = Message::new(Performative::AskOne).with_content(SExpr::atom("asked"));
                    let _ = ctx.request("peer", ask, Duration::from_millis(100));
                }
                _ => {
                    let reply = env.message.reply_skeleton(Performative::Reply);
                    ctx.send(&env.from, reply.with_content(SExpr::atom("echoed"))).unwrap();
                }
            }
        }
    }

    #[test]
    fn every_send_path_prints_the_names_and_the_trace_into_the_frame_only() {
        use infosleuth_obs::{RingSink, SpanSink};
        let sink = Arc::new(RingSink::new(64));
        let obs = Obs::new();
        obs.tracer().add_sink(Arc::clone(&sink) as Arc<dyn SpanSink>);
        let n = node();
        let (address, frames) = catcher();
        n.add_route("peer", address);
        let rt =
            crate::AgentRuntime::new(as_dyn(&n), crate::RuntimeConfig::default().with_obs(obs));
        let _talker = rt.spawn("talker", Arc::new(Talker)).unwrap();
        let driver = as_dyn(&n).endpoint("driver").unwrap();
        let next = || frames.recv_timeout(Duration::from_secs(5)).expect("a frame");
        let keys = |body: &str| -> Vec<String> {
            printed_params(body).into_iter().map(|(k, _)| k).collect()
        };

        // Endpoint::send: no span, so no trace.
        driver
            .send("peer", Message::new(Performative::Tell).with_content(SExpr::atom("x")))
            .unwrap();
        let (from, to, body) = next();
        assert_eq!((from.as_str(), to.as_str()), ("driver", "peer"));
        assert_eq!(body, "(tell :content x :sender driver :receiver peer)");

        // A hosted send, beside its dispatch span's context.
        driver
            .send("talker", Message::new(Performative::Tell).with_content(SExpr::atom("send")))
            .unwrap();
        let (from, to, sent) = next();
        assert_eq!((from.as_str(), to.as_str()), ("talker", "peer"));
        assert_eq!(keys(&sent), ["content", "sender", "receiver", "x-trace"]);
        assert!(sent.starts_with("(tell :content sent :sender talker :receiver peer :x-trace"));

        // A request, from the agent's ephemeral endpoint.
        driver
            .send("talker", Message::new(Performative::Tell).with_content(SExpr::atom("ask")))
            .unwrap();
        let (from, to, asked) = next();
        assert_eq!((from.as_str(), to.as_str()), ("talker.w0", "peer"));
        assert_eq!(keys(&asked), ["content", "reply-with", "sender", "receiver", "x-trace"]);
        let params = printed_params(&asked);
        assert_eq!(params[0].1, "asked");
        assert_eq!((params[2].1.as_str(), params[3].1.as_str()), ("talker.w0", "peer"));

        // A `reply_skeleton` reply to a frame from the peer.
        let ask = encode_frame("peer", "talker", "(ask-one :reply-with r1 :sender peer)").unwrap();
        assert_eq!(raw_exchange(n.local_addr(), &ask), [ACK_OK]);
        let (from, to, replied) = next();
        assert_eq!((from.as_str(), to.as_str()), ("talker", "peer"));
        assert!(
            replied.starts_with(
                "(reply :in-reply-to r1 :content echoed :sender talker :receiver peer :x-trace"
            ),
            "{replied}"
        );

        // Join the workers: a dispatch span closes after its send left.
        rt.shutdown();
        let spans = sink.drain();
        for (body, handled) in
            [(&sent, "recv:tell"), (&asked, "recv:tell"), (&replied, "recv:ask-one")]
        {
            let ctx = printed_trace(body);
            let span = spans.iter().find(|r| r.span == ctx.span).expect("the sending span");
            assert_eq!((span.name.as_str(), span.agent.as_str()), (handled, "talker"), "{body}");
            assert_eq!(span.trace, ctx.trace);
        }
    }

    #[test]
    fn a_frame_with_a_malformed_trace_is_dispatched_under_a_fresh_root() {
        use infosleuth_obs::{RingSink, SpanSink};
        let sink = Arc::new(RingSink::new(64));
        let obs = Obs::new();
        obs.tracer().add_sink(Arc::clone(&sink) as Arc<dyn SpanSink>);
        let n = node();
        let (address, frames) = catcher();
        n.add_route("peer", address);
        let rt =
            crate::AgentRuntime::new(as_dyn(&n), crate::RuntimeConfig::default().with_obs(obs));
        let _talker = rt.spawn("talker", Arc::new(Talker)).unwrap();
        let sent = "0000000000005eed-0000000000000007";
        for rider in [sent, "zz", "0000000000005eed_0000000000000007", ""] {
            let body = format!("(ask-one :reply-with r :x-trace \"{rider}\")");
            let frame = encode_frame("peer", "talker", &body).unwrap();
            assert_eq!(raw_exchange(n.local_addr(), &frame), [ACK_OK], "{rider:?}");
            let (_, _, reply) = frames.recv_timeout(Duration::from_secs(5)).expect("a reply");
            assert!(reply.starts_with("(reply :in-reply-to r :content echoed"), "{reply}");
        }
        rt.shutdown();
        let recvs: Vec<_> = sink.drain().into_iter().filter(|r| r.name == "recv:ask-one").collect();
        assert_eq!(recvs.len(), 4, "{recvs:?}");
        let sent = TraceContext::parse(sent).unwrap();
        assert_eq!((recvs[0].trace, recvs[0].parent), (sent.trace, Some(sent.span)));
        for bad in &recvs[1..] {
            assert_eq!(bad.parent, None, "a malformed rider roots a span");
            assert_ne!(bad.trace, sent.trace);
        }
    }

    #[test]
    fn the_header_names_outrank_the_names_in_a_frames_text() {
        let n = node();
        let mut sink = as_dyn(&n).endpoint("sink").unwrap();
        let body = "(tell :sender forged :content x :receiver elsewhere)";
        assert_eq!(raw_exchange(n.local_addr(), &frame("sink", body)), [ACK_OK]);
        let env = sink.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!((env.from.as_str(), env.to.as_str()), ("src", "sink"));
        assert_eq!(env.message.to_string(), "(tell :content x)", "the text's names are dropped");
    }

    #[test]
    fn bus_and_tcp_count_the_bytes_of_the_frame_body() {
        let message = Message::new(Performative::Tell)
            .with_content(SExpr::list([SExpr::string("two words"), SExpr::atom("|bar|")]))
            .with_sender("forged");
        let trace = TraceContext {
            trace: infosleuth_obs::TraceId(0x5eed),
            span: infosleuth_obs::SpanId(7),
        };
        let sent_bytes = |obs: &Obs, transport| {
            obs.registry().counter("transport_send_bytes_total", &[("transport", transport)]).get()
        };
        let bus = crate::Bus::new();
        let bus_obs = Obs::new();
        bus.set_obs(&bus_obs);
        let _peer = bus.register("peer").unwrap();
        bus.send_traced("src", "peer", message.clone(), Some(trace)).unwrap();

        let n = node();
        let tcp_obs = Obs::new();
        n.set_obs(&tcp_obs);
        let (address, frames) = catcher();
        n.add_route("peer", address);
        n.send_traced("src", "peer", message, Some(trace)).unwrap();
        let (_, _, body) = frames.recv_timeout(Duration::from_secs(5)).expect("a frame");
        assert_eq!(printed_trace(&body), trace);
        assert_eq!(sent_bytes(&tcp_obs, "tcp"), body.len() as u64);
        assert_eq!(sent_bytes(&bus_obs, "bus"), body.len() as u64);
    }

    #[test]
    fn malformed_frame_delivers_none_of_its_messages() {
        let n = node();
        let mut sink = as_dyn(&n).endpoint("sink").unwrap();
        let good = Message::new(Performative::Tell).with_content(SExpr::atom("ok")).to_string();
        let bad_body = frame("sink", "(tell :content");
        let mut trailing = frame("sink", &good);
        trailing.push(b'x');
        let payload_len = (trailing.len() - 4) as u32;
        trailing[..4].copy_from_slice(&payload_len.to_be_bytes());
        for bytes in [bad_body, trailing] {
            // Answered malformed, then closed (`raw_exchange` read to EOF).
            assert_eq!(raw_exchange(n.local_addr(), &bytes), [ACK_MALFORMED]);
            // Delivery precedes the ack, so anything delivered is here by now.
            assert!(sink.try_recv().is_none(), "a malformed frame must deliver nothing");
        }
        // An unknown addressee is answered and the connection kept.
        let unknown_then_good = [frame("ghost", &good), frame("sink", &good)].concat();
        assert_eq!(raw_exchange(n.local_addr(), &unknown_then_good), [ACK_UNKNOWN, ACK_OK]);
        let env = sink.recv_timeout(Duration::from_secs(2)).expect("node still serves");
        assert_eq!(env.message.content(), Some(&SExpr::atom("ok")));
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_its_payload() {
        // Nothing follows the prefix and the client does not half-close:
        // an answer can only mean the node judged the length alone.
        let n = node();
        let mut stream = TcpStream::connect(n.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        stream.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        let mut answer = Vec::new();
        stream.read_to_end(&mut answer).expect("answered and closed within the timeout");
        assert_eq!(answer, [ACK_MALFORMED]);
    }

    /// What [`Transport::send`] promises on every transport: each
    /// recipient sees one sender's messages in the order they were sent.
    fn assert_sends_arrive_in_order(sender: &Arc<dyn Transport>, mut recipients: Vec<Endpoint>) {
        let src = sender.endpoint("src").unwrap();
        let sent: Vec<(String, String)> = (0..12)
            .map(|i| {
                // r0 r1 r2 r0 r2 r1 …: no recipient's messages are adjacent.
                (recipients[[0, 1, 2, 0, 2, 1][i % 6]].name().to_string(), i.to_string())
            })
            .collect();
        for (to, tag) in &sent {
            let tell = Message::new(Performative::Tell).with_content(SExpr::atom(tag));
            src.send(to, tell).unwrap();
        }
        for recipient in &mut recipients {
            let name = recipient.name().to_string();
            for (_, tag) in sent.iter().filter(|(to, _)| *to == name) {
                let env = recipient.recv_timeout(Duration::from_secs(2)).expect("delivered");
                assert_eq!(env.message.content(), Some(&SExpr::atom(tag)), "{name}");
            }
            assert!(recipient.try_recv().is_none());
        }
    }

    #[test]
    fn send_keeps_order_per_sender_on_bus_and_tcp() {
        let bus = crate::Bus::new().as_transport();
        let on_bus = ["r0", "r1", "r2"].map(|name| bus.endpoint(name).unwrap());
        assert_sends_arrive_in_order(&bus, on_bus.into());

        // One recipient local to the sending node, two on a node each.
        let nodes = [node(), node(), node()];
        nodes[0].add_route("r1", nodes[1].address());
        nodes[0].add_route("r2", nodes[2].address());
        let over_tcp: Vec<Endpoint> =
            (0..3).map(|i| as_dyn(&nodes[i]).endpoint(format!("r{i}")).unwrap()).collect();
        assert_sends_arrive_in_order(&as_dyn(&nodes[0]), over_tcp);
    }

    #[test]
    fn idle_node_answers_without_waiting_out_a_tick() {
        let n1 = node();
        let n2 = node();
        n1.add_route("b", n2.address());
        let a = as_dyn(&n1).endpoint("a").unwrap();
        let _b = as_dyn(&n2).endpoint("b").unwrap();
        let tell = || Message::new(Performative::Tell).with_content(SExpr::atom("x"));
        a.send("b", tell()).unwrap(); // connects
        let mut times: Vec<Duration> = (0..201)
            .map(|_| {
                // Long enough for both nodes to have nothing in flight.
                std::thread::sleep(Duration::from_millis(2));
                let started = Instant::now();
                a.send("b", tell()).unwrap();
                started.elapsed()
            })
            .collect();
        times.sort();
        let median = times[times.len() / 2];
        // `send` returns at the sync ack: with nothing napping on the
        // path that is a few thread wake-ups, well under any poll tick.
        assert!(median < Duration::from_micros(500), "median idle send {median:?}");
    }

    #[test]
    fn repeated_open_close_cycles_leak_nothing() {
        // Shutdown must join every thread the node started — acceptor and
        // inbound readers — while connections are open in
        // both directions and a slow client sits half-way through a
        // frame, and must free the port for an immediate rebind.
        let probe = node();
        let addr = probe.local_addr();
        probe.shutdown();
        drop(probe);
        for cycle in 0..10 {
            let n1 = TcpTransport::bind(addr).expect("address is free again");
            let n2 = node();
            n1.add_route("b", n2.address());
            n2.add_route("a", n1.address());
            let t1 = as_dyn(&n1);
            let t2 = as_dyn(&n2);
            let mut a = t1.endpoint("a").unwrap();
            let mut b = t2.endpoint("b").unwrap();
            let hi = || Message::new(Performative::Tell).with_content(SExpr::atom("hi"));
            a.send("b", hi()).unwrap();
            b.send("a", hi()).unwrap();
            for endpoint in [&mut a, &mut b] {
                assert!(
                    endpoint.recv_timeout(Duration::from_secs(2)).is_some(),
                    "cycle {cycle}: delivery to {} works",
                    endpoint.name()
                );
            }
            // Half a frame, then silence: n1's reader for this connection
            // is blocked mid-frame when shutdown comes.
            let mut slow = TcpStream::connect(addr).unwrap();
            slow.write_all(&frame("sink", "(tell)")[..9]).unwrap();
            #[cfg(target_os = "linux")]
            {
                // Both nodes idle with every connection open: one acceptor,
                // and on n1 two inbound readers (n2's connection and
                // `slow`), on n2 one, all blocked. A thread carries its
                // spawner's name until it has set its own, so wait for the
                // acceptor to have taken `slow` and the names to settle.
                let port = addr.port();
                let expected = ["acc", "in", "in"].map(|role| format!("tcp-{role}-{port}"));
                let deadline = Instant::now() + Duration::from_secs(2);
                while node_threads(port) != expected && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                assert_eq!(node_threads(port), expected, "cycle {cycle}");
                assert_eq!(node_threads(n2.local_addr().port()).len(), 2, "cycle {cycle}");
            }
            let started = Instant::now();
            n1.shutdown();
            n2.shutdown();
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "cycle {cycle}: shutdown stalled {:?}",
                started.elapsed()
            );
            #[cfg(target_os = "linux")]
            for port in [addr.port(), n2.local_addr().port()] {
                assert_eq!(node_threads(port), [""; 0], "cycle {cycle}: all joined");
            }
            assert!(hung_up(&mut slow), "cycle {cycle}: shutdown closes the slow client too");
            assert!(matches!(a.send("b", hi()), Err(TransportError::Closed)), "cycle {cycle}");
        }
    }

    #[test]
    fn half_a_frame_then_silence_is_dropped_after_the_io_timeout() {
        let n = node();
        let port = n.local_addr().port();
        let mut sink = as_dyn(&n).endpoint("sink").unwrap();
        // A pooled connection that will sit idle *between* frames…
        let n0 = node();
        n0.add_route("sink", n.address());
        let src = as_dyn(&n0).endpoint("src").unwrap();
        src.send("sink", Message::new(Performative::Tell)).unwrap();
        assert!(sink.recv_timeout(Duration::from_secs(2)).is_some());
        // …and one that stalls *inside* a frame.
        let mut slow = TcpStream::connect(n.local_addr()).unwrap();
        let started = Instant::now();
        slow.write_all(&frame("sink", "(tell)")[..9]).unwrap();
        assert!(hung_up(&mut slow), "the node says nothing and hangs up");
        let waited = started.elapsed();
        assert!(waited >= IO_TIMEOUT && waited < IO_TIMEOUT * 2, "dropped after {waited:?}");
        assert!(sink.try_recv().is_none());
        #[cfg(target_os = "linux")]
        {
            // The stalled reader's thread is gone; the idle connection's
            // reader outlived the same timeout.
            let expected = [format!("tcp-acc-{port}"), format!("tcp-in-{port}")];
            let deadline = Instant::now() + Duration::from_secs(2);
            while node_threads(port) != expected && Instant::now() < deadline {
                std::thread::yield_now();
            }
            assert_eq!(node_threads(port), expected);
        }
        src.send("sink", Message::new(Performative::Tell)).unwrap();
        assert!(sink.recv_timeout(Duration::from_secs(2)).is_some());
    }

    #[test]
    fn a_pooled_connection_to_a_restarted_node_is_replaced_and_delivers_once() {
        let n1 = node();
        let n2 = node();
        let addr = n2.local_addr();
        n1.add_route("sink", n2.address());
        let src = as_dyn(&n1).endpoint("src").unwrap();
        let tell = |word: &str| Message::new(Performative::Tell).with_content(SExpr::atom(word));
        let sink = as_dyn(&n2).endpoint("sink").unwrap();
        src.send("sink", tell("first")).unwrap();
        drop(sink);
        // The remote node goes while `n1`'s pooled connection to it sits
        // idle, and another is bound in its place.
        n2.shutdown();
        drop(n2);
        let n2 = TcpTransport::bind(addr).expect("address is free again");
        let mut sink = as_dyn(&n2).endpoint("sink").unwrap();
        src.send("sink", tell("second")).expect("sent on a fresh connection");
        let env = sink.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert_eq!(env.message.content(), Some(&SExpr::atom("second")));
        assert!(sink.recv_timeout(Duration::from_millis(200)).is_none(), "delivered twice");
    }

    /// A raw listener that takes one connection and reads frames off it
    /// without ever answering, until the connection closes: its address,
    /// a receiver told of each frame read, and its thread.
    fn mute_peer() -> (AgentAddress, Receiver<()>, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let address = AgentAddress::tcp("127.0.0.1", listener.local_addr().unwrap().port());
        let (read, frames) = channel();
        let reader = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            while read_frame(&mut stream).is_ok() {
                let _ = read.send(());
            }
        });
        (address, frames, reader)
    }

    #[test]
    fn shutdown_wakes_a_sender_waiting_for_its_ack() {
        let (address, frames, mute) = mute_peer();
        let n = node();
        n.add_route("mute", address);
        let src = as_dyn(&n).endpoint("src").unwrap();
        let sending = std::thread::spawn(move || {
            let sent = src.send("mute", Message::new(Performative::Tell));
            (sent, Instant::now())
        });
        frames.recv_timeout(Duration::from_secs(2)).expect("the frame is written");
        let started = Instant::now();
        n.shutdown();
        let (sent, returned) = sending.join().unwrap();
        assert!(matches!(sent, Err(TransportError::Closed)), "{sent:?}");
        let waited = returned.duration_since(started);
        assert!(waited < Duration::from_secs(1), "the send returned {waited:?} after shutdown");
        mute.join().unwrap();
    }

    #[test]
    fn senders_waiting_behind_a_timed_out_ack_fail_with_it() {
        let (address, frames, mute) = mute_peer();
        let n = node();
        n.add_route("mute", address);
        let started = Instant::now();
        let senders: Vec<_> = (0..2)
            .map(|i| {
                let src = as_dyn(&n).endpoint(format!("src{i}")).unwrap();
                std::thread::spawn(move || {
                    (src.send("mute", Message::new(Performative::Tell)), started.elapsed())
                })
            })
            .collect();
        frames.recv_timeout(Duration::from_secs(2)).expect("a frame is written");
        for sender in senders {
            let (sent, after) = sender.join().unwrap();
            assert!(matches!(sent, Err(TransportError::Io(_))), "{sent:?}");
            assert!(after < IO_TIMEOUT + Duration::from_secs(1), "failed after {after:?}");
        }
        n.shutdown();
        mute.join().unwrap();
    }

    // ---- Decoder fuzzing: arbitrary and corrupted bytes at a live listener ----

    /// A well-formed frame of one small message to the registered
    /// `"sink"` or the unregistered `"ghost"`.
    fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
        ("[a-z]{1,6}", prop_oneof![Just("sink"), Just("ghost")], "[a-z]{1,8}").prop_map(
            |(from, to, word)| encode_frame(&from, to, &format!("(tell :content {word})")).unwrap(),
        )
    }

    /// Breaks one field of a well-formed `frame` in a way that is certain
    /// to make it malformed. Offsets follow the layout in the module doc.
    fn corrupt(mut frame: Vec<u8>, kind: usize) -> Vec<u8> {
        let to_len_at = 6 + be(&frame[4..6]);
        let to_at = to_len_at + 2;
        let to_len = be(&frame[to_len_at..to_at]) as u16;
        let body_len_at = to_at + usize::from(to_len);
        let body_at = body_len_at + 4;
        let payload_len = be(&frame[..4]) as u32;
        match kind {
            // The receiver's name runs into the body length, or leaves
            // its last byte to it: either way the body length is wild.
            0 => frame[to_len_at..to_at].copy_from_slice(&(to_len + 1).to_be_bytes()),
            1 => frame[to_len_at..to_at].copy_from_slice(&(to_len - 1).to_be_bytes()),
            2 => {
                frame.push(b' ');
                frame[..4].copy_from_slice(&(payload_len + 1).to_be_bytes());
            }
            3 => frame[..4].copy_from_slice(&(payload_len - 1).to_be_bytes()),
            4 => frame[..4].copy_from_slice(&(MAX_FRAME + 1 + payload_len).to_be_bytes()),
            5 => frame[4..6].copy_from_slice(&u16::MAX.to_be_bytes()),
            6 => frame[body_len_at..body_at].copy_from_slice(&u32::MAX.to_be_bytes()),
            7 => frame[to_at] = 0xFF,
            8 => frame[body_at + 1] = 0xFF,
            _ => frame[body_at] = b')',
        }
        frame
    }

    /// What a node hosting only `"sink"` answers to `bytes` followed by
    /// EOF, and how many messages it delivers: one status byte per whole
    /// well-formed frame, `ACK_MALFORMED` at the first bad one, nothing
    /// for a frame the stream ends inside.
    fn modelled_answer(mut bytes: &[u8]) -> (Vec<u8>, usize) {
        let (mut answer, mut delivered) = (Vec::new(), 0);
        while bytes.len() >= 4 {
            let len = be(&bytes[..4]);
            if len > MAX_FRAME as usize {
                answer.push(ACK_MALFORMED);
                break;
            }
            let Some(payload) = bytes.get(4..4 + len) else { break };
            match decode_payload(payload) {
                Err(()) => {
                    answer.push(ACK_MALFORMED);
                    break;
                }
                Ok(Decoded { to: "sink", .. }) => {
                    answer.push(ACK_OK);
                    delivered += 1;
                }
                Ok(_) => answer.push(ACK_UNKNOWN),
            }
            bytes = &bytes[4 + len..];
        }
        (answer, delivered)
    }

    /// Runs `bytes` past a fresh node while a bystander connection is
    /// open, and checks the answer, that exactly `delivered` messages of
    /// `bytes` reached `"sink"`, and that the bystander is still served.
    fn assert_answer(bytes: &[u8], answer: &[u8], delivered: usize) {
        let n = node();
        let mut sink = as_dyn(&n).endpoint("sink").unwrap();
        let mut bystander = TcpStream::connect(n.local_addr()).unwrap();
        bystander.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut serve_bystander = |sink: &mut Endpoint| {
            bystander.write_all(&frame("sink", "(ping)")).unwrap();
            let mut ack = [0xFFu8];
            bystander.read_exact(&mut ack).expect("bystander connection unaffected");
            assert_eq!(ack, [ACK_OK]);
            let env = sink.recv_timeout(Duration::from_secs(2)).expect("bystander delivery");
            assert_eq!(env.message.performative, Performative::Ping);
        };
        serve_bystander(&mut sink);
        assert_eq!(raw_exchange(n.local_addr(), bytes), answer, "input {bytes:?}");
        // The bystander's ping queues behind whatever `bytes` delivered.
        for _ in 0..delivered {
            let env = sink.recv_timeout(Duration::from_secs(2)).expect("modelled delivery");
            assert_eq!(env.message.performative, Performative::Tell);
        }
        serve_bystander(&mut sink);
    }

    proptest! {
        #[test]
        fn decode_payload_takes_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            frame in arb_frame(),
            flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        ) {
            // Pure noise dies at the first length field; a real frame with
            // a few bytes overwritten gets deep into the decoder.
            let _ = decode_payload(&bytes);
            let mut payload = frame[4..].to_vec();
            for (at, byte) in flips {
                let at = at % payload.len();
                payload[at] = byte;
            }
            let _ = decode_payload(&payload);
        }

        #[test]
        fn a_frame_with_one_field_corrupted_is_refused_whole(
            frame in arb_frame(),
            kind in 0usize..10,
        ) {
            prop_assert!(decode_payload(&frame[4..]).is_ok());
            assert_answer(&corrupt(frame, kind), &[ACK_MALFORMED], 0);
        }

        #[test]
        fn a_frames_names_and_trace_are_read_out_of_its_text(
            rider in ".{0,40}",
            forged in "[a-z]{1,8}",
            hex in (any::<u64>(), any::<u64>()),
            well_formed in any::<bool>(),
        ) {
            let rider = if well_formed { format!("{:016x}-{:016x}", hex.0, hex.1) } else { rider };
            let text = format!(
                "(tell :receiver {forged} :x-trace {} :content x :sender {forged})",
                SExpr::string(&rider)
            );
            let frame = encode_frame("src", "sink", &text).unwrap();
            let decoded = decode_payload(&frame[4..]).expect("a well-formed frame");
            prop_assert_eq!((decoded.from, decoded.to), ("src", "sink"));
            prop_assert_eq!(decoded.trace, TraceContext::parse(&rider));
            prop_assert_eq!(decoded.message.to_string(), "(tell :content x)");
            prop_assert_eq!(decoded.size, text.len());
        }

        #[test]
        fn byte_streams_get_the_modelled_answer(
            segments in proptest::collection::vec(
                prop_oneof![
                    arb_frame(),
                    (arb_frame(), 0usize..10).prop_map(|(frame, kind)| corrupt(frame, kind)),
                    proptest::collection::vec(any::<u8>(), 0..12),
                    // A small length prefix makes noise a whole frame.
                    proptest::collection::vec(any::<u8>(), 0..12).prop_map(|noise| {
                        [(noise.len() as u32).to_be_bytes().to_vec(), noise].concat()
                    }),
                ],
                0..4,
            ),
        ) {
            let bytes = segments.concat();
            let (answer, delivered) = modelled_answer(&bytes);
            assert_answer(&bytes, &answer, delivered);
        }
    }
}
