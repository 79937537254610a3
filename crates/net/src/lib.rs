//! Socket-backed multi-process transport: the first time the repro
//! leaves one address space.
//!
//! [`SocketTransport`] implements the wire seam's
//! [`WireTransport`] over real OS processes: each node is a spawned
//! `fgdsm-node` worker that owns a mirror of its shard address space,
//! decodes every [`WireMsg`] with the paranoid decoder, applies the
//! payload into its local store, and replies with frames re-encoded
//! *from that store* — so data genuinely round-trips through another
//! process's memory, byte-identically (PR 7's decode→re-encode identity,
//! now across a kernel boundary).
//!
//! Transport choice: TCP over loopback by default, Unix-domain sockets
//! where available (`FGDSM_NET=tcp|uds` forces one; auto-detection falls
//! back to UDS when TCP binds are forbidden). All conversation runs over
//! the length-prefixed framing layer (`write_frame`/[`FrameDecoder`])
//! with [`CtrlMsg`] control frames for handshake
//! (`Hello`/`HelloAck` with shard geometry), batch markers, and orderly
//! teardown (`Bye`/`ByeStats`).
//!
//! Failure semantics: every recv carries a deadline
//! (`FGDSM_NET_TIMEOUT_MS`, [`fgdsm_protocol::net_timeout`]); a closed
//! connection is a typed `WireError::PeerGone`, a silent one a typed
//! `WireError::Timeout`, a reply with the wrong frame count a typed
//! `WireError::ReplyCount` and a garbled control reply a typed
//! `WireError::BadControl` — the coordinator never hangs on a dead or
//! stuck node. Transient `EINTR`s are retried a bounded number of times.
//! A frame the node *rejects* (decode failure, oversized length prefix)
//! comes back as a `CtrlMsg::Err` and fails the run loudly.
//!
//! Routing is one wave per flush: the coordinator sends every
//! destination's batch, then reads every reply, so the nodes work
//! concurrently.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fgdsm_protocol::wire::{
    net_timeout, write_frame, Batch, CtrlMsg, FrameDecoder, RemoteReport, WireError, WireMsg,
    WireTransport, WIRE_VERSION,
};
use fgdsm_tempest::metrics::{self, MetricsRegistry};

/// Bounded retry budget for transient (`EINTR`) I/O errors.
const MAX_TRANSIENT_RETRIES: u32 = 100;
/// How long `shutdown` waits for a child to exit after `Bye` before
/// killing it.
const CHILD_EXIT_DEADLINE: Duration = Duration::from_secs(3);

// ----------------------------------------------------------------------
// Transport selection and probing
// ----------------------------------------------------------------------

/// Which socket family carries the frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetKind {
    /// TCP over 127.0.0.1.
    Tcp,
    /// Unix-domain sockets (where the platform has them).
    Uds,
}

impl NetKind {
    pub fn name(self) -> &'static str {
        match self {
            NetKind::Tcp => "tcp",
            NetKind::Uds => "uds",
        }
    }
}

/// Can this process bind a socket of `kind`? (Sandboxes may forbid one
/// or both families.)
pub fn probe(kind: NetKind) -> bool {
    match kind {
        NetKind::Tcp => TcpListener::bind(("127.0.0.1", 0)).is_ok(),
        #[cfg(unix)]
        NetKind::Uds => {
            let path = fresh_uds_path();
            let ok = UnixListener::bind(&path).is_ok();
            let _ = std::fs::remove_file(&path);
            ok
        }
        #[cfg(not(unix))]
        NetKind::Uds => false,
    }
}

/// The socket family the environment allows, honoring `FGDSM_NET`
/// (`tcp`/`uds`); unset means "TCP, falling back to UDS". `None` when
/// the sandbox forbids sockets entirely — callers skip with a notice.
pub fn available_kind() -> Option<NetKind> {
    match std::env::var("FGDSM_NET").ok().as_deref() {
        Some("tcp") => probe(NetKind::Tcp).then_some(NetKind::Tcp),
        Some("uds") => probe(NetKind::Uds).then_some(NetKind::Uds),
        Some(other) => panic!("FGDSM_NET={other}: expected `tcp` or `uds`"),
        None => {
            if probe(NetKind::Tcp) {
                Some(NetKind::Tcp)
            } else if probe(NetKind::Uds) {
                Some(NetKind::Uds)
            } else {
                None
            }
        }
    }
}

fn fresh_uds_path() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "fgdsm-{}-{}.sock",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

// ----------------------------------------------------------------------
// Streams and listeners (TCP / UDS unified)
// ----------------------------------------------------------------------

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn set_timeouts(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
        }
    }

    fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.write_all(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write_all(buf),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(kind: NetKind) -> io::Result<Listener> {
        match kind {
            NetKind::Tcp => Ok(Listener::Tcp(TcpListener::bind(("127.0.0.1", 0))?)),
            #[cfg(unix)]
            NetKind::Uds => {
                let path = fresh_uds_path();
                Ok(Listener::Unix(UnixListener::bind(&path)?, path))
            }
            #[cfg(not(unix))]
            NetKind::Uds => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets unavailable on this platform",
            )),
        }
    }

    /// The address string handed to children via `FGDSM_NODE_ADDR`.
    fn addr_string(&self) -> io::Result<String> {
        match self {
            Listener::Tcp(l) => Ok(format!("tcp:{}", l.local_addr()?)),
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(format!("uds:{}", path.display())),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(nb),
        }
    }

    fn try_accept(&self) -> io::Result<Option<Stream>> {
        let r = match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        match r {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn connect(addr: &str) -> io::Result<Stream> {
    if let Some(a) = addr.strip_prefix("tcp:") {
        return Ok(Stream::Tcp(TcpStream::connect(a)?));
    }
    #[cfg(unix)]
    if let Some(p) = addr.strip_prefix("uds:") {
        return Ok(Stream::Unix(UnixStream::connect(p)?));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("bad FGDSM_NODE_ADDR {addr:?} (want tcp:<addr> or uds:<path>)"),
    ))
}

// ----------------------------------------------------------------------
// Framed I/O with typed failure mapping
// ----------------------------------------------------------------------

fn map_io(peer: u32, e: &io::Error) -> WireError {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => WireError::Timeout(peer),
        _ => WireError::PeerGone(peer),
    }
}

/// One framed connection: the stream plus its incremental reassembly
/// state.
struct Link {
    stream: Stream,
    dec: FrameDecoder,
}

impl Link {
    fn new(stream: Stream) -> Self {
        Link {
            stream,
            dec: FrameDecoder::new(),
        }
    }

    fn send(&mut self, bytes: &[u8], peer: u32) -> Result<(), WireError> {
        self.stream
            .write_all_bytes(bytes)
            .map_err(|e| map_io(peer, &e))
    }

    /// Read the next complete frame. A 0-byte read (EOF) is
    /// [`WireError::PeerGone`]; a recv deadline hit is
    /// [`WireError::Timeout`]; an oversized length prefix surfaces as
    /// [`WireError::FrameTooBig`] before any allocation.
    fn recv_frame(&mut self, peer: u32) -> Result<Vec<u8>, WireError> {
        let mut retries = 0u32;
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(f) = self.dec.next_frame()? {
                return Ok(f);
            }
            match self.stream.read_some(&mut buf) {
                Ok(0) => return Err(WireError::PeerGone(peer)),
                Ok(n) => self.dec.push(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    retries += 1;
                    if retries > MAX_TRANSIENT_RETRIES {
                        return Err(WireError::PeerGone(peer));
                    }
                }
                Err(e) => return Err(map_io(peer, &e)),
            }
        }
    }
}

// ----------------------------------------------------------------------
// Coordinator side: SocketTransport
// ----------------------------------------------------------------------

/// Shard geometry shipped to every node in `HelloAck`, sizing its
/// mirror store.
#[derive(Clone, Copy, Debug)]
pub struct NetGeometry {
    pub nprocs: usize,
    /// Words per coherence block.
    pub wpb: u32,
    /// Segment size in words (every node's window spans the segment).
    pub seg_words: u64,
}

/// A deliberate node-process misbehavior, armed on one child via
/// `FGDSM_NODE_FAULT` — the fault-tolerance tests' way of killing or
/// wedging a node mid-superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFault {
    /// Exit cleanly (EOF on the coordinator's next read) after serving
    /// this many batches.
    ExitAfterBatches(u32),
    /// Stop replying (coordinator recv deadline fires) after serving
    /// this many batches.
    WedgeAfterBatches(u32),
    /// After serving this many batches, answer the next one a frame
    /// short: the reply announces and carries one frame fewer than the
    /// batch held (the coordinator must return a typed
    /// [`WireError::ReplyCount`]).
    ShortReplyAfterBatches(u32),
}

impl NodeFault {
    fn env_str(&self) -> String {
        match self {
            NodeFault::ExitAfterBatches(n) => format!("exit:{n}"),
            NodeFault::WedgeAfterBatches(n) => format!("wedge:{n}"),
            NodeFault::ShortReplyAfterBatches(n) => format!("short:{n}"),
        }
    }

    fn parse(s: &str) -> Option<NodeFault> {
        let (kind, n) = s.split_once(':')?;
        let n = n.parse().ok()?;
        match kind {
            "exit" => Some(NodeFault::ExitAfterBatches(n)),
            "wedge" => Some(NodeFault::WedgeAfterBatches(n)),
            "short" => Some(NodeFault::ShortReplyAfterBatches(n)),
            _ => None,
        }
    }
}

/// Knobs for [`SocketTransport::spawn`].
#[derive(Clone, Debug)]
pub struct SocketOpts {
    /// Per-recv deadline (default `FGDSM_NET_TIMEOUT_MS`, 5000 ms).
    pub timeout: Duration,
    /// Fault injection: corrupt the length prefix of the first routed
    /// data frame to an oversized value — the node must reject it via
    /// the framing cap, never allocate for it.
    pub corrupt_frame_len: bool,
    /// Fault injection: arm one node with a [`NodeFault`].
    pub node_fault: Option<(u32, NodeFault)>,
    /// Enable wall-clock telemetry in the workers: each child is spawned
    /// with `FGDSM_METRICS` set explicitly (1/0, never inherited), and a
    /// metrics-enabled node ships its registry home inside `ByeStats`.
    pub metrics: bool,
}

impl Default for SocketOpts {
    fn default() -> Self {
        SocketOpts {
            timeout: net_timeout(),
            corrupt_frame_len: false,
            node_fault: None,
            metrics: false,
        }
    }
}

/// The `tcp` backend's transport: one spawned `fgdsm-node` process per
/// node, linked over TCP loopback or Unix-domain sockets.
pub struct SocketTransport {
    kind: NetKind,
    links: Vec<Option<Link>>,
    children: Vec<Option<Child>>,
    corrupt_len_pending: bool,
    /// Telemetry on: time each batch into [`Batch::busy_ns`]. Off, the
    /// wave reads no clock.
    metrics: bool,
    /// Sum of the nodes' `ByeStats` collected at orderly teardown.
    remote_frames: u64,
    remote_payload_bytes: u64,
    got_bye_stats: usize,
    /// Per-node teardown reports (counters + optional metrics blob),
    /// drained by [`WireTransport::finish`].
    reports: Vec<RemoteReport>,
}

impl SocketTransport {
    /// Spawn `geom.nprocs` node processes, accept their connections and
    /// complete the `Hello`/`HelloAck` handshake. Fails (typed
    /// `io::Error`) when the sandbox forbids sockets, the node binary
    /// cannot be found or started, or a child dies before connecting.
    pub fn spawn(geom: NetGeometry, opts: SocketOpts) -> io::Result<SocketTransport> {
        let kind = available_kind().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                "sandbox forbids sockets (TCP and UDS binds both failed)",
            )
        })?;
        let listener = Listener::bind(kind)?;
        let addr = listener.addr_string()?;
        listener.set_nonblocking(true)?;

        let mut children: Vec<Option<Child>> = Vec::with_capacity(geom.nprocs);
        for node in 0..geom.nprocs {
            let mut cmd = node_command();
            cmd.env("FGDSM_NODE_ID", node.to_string())
                .env("FGDSM_NODE_ADDR", &addr)
                .env("FGDSM_NET_TIMEOUT_MS", opts.timeout.as_millis().to_string())
                .env("FGDSM_METRICS", if opts.metrics { "1" } else { "0" })
                .env_remove("FGDSM_NODE_FAULT")
                .stdin(Stdio::null())
                .stdout(Stdio::null());
            if let Some((fault_node, fault)) = opts.node_fault {
                if fault_node == node as u32 {
                    cmd.env("FGDSM_NODE_FAULT", fault.env_str());
                }
            }
            children.push(Some(cmd.spawn()?));
        }

        // Accept + handshake with a startup deadline. Generous: the
        // cargo-run fallback may have to build the node binary first.
        let deadline = Instant::now() + opts.timeout.max(Duration::from_secs(5)) * 12;
        let mut links: Vec<Option<Link>> = (0..geom.nprocs).map(|_| None).collect();
        let mut connected = 0usize;
        while connected < geom.nprocs {
            if Instant::now() > deadline {
                kill_children(&mut children);
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "{connected}/{} nodes connected before deadline",
                        geom.nprocs
                    ),
                ));
            }
            // A child that died before connecting fails startup early.
            for (i, c) in children.iter_mut().enumerate() {
                if let Some(child) = c.as_mut() {
                    if links[i].is_none() {
                        if let Ok(Some(status)) = child.try_wait() {
                            kill_children(&mut children);
                            return Err(io::Error::other(format!(
                                "node {i} exited before connecting: {status}"
                            )));
                        }
                    }
                }
            }
            let Some(stream) = listener.try_accept()? else {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            stream.set_timeouts(Some(opts.timeout))?;
            let mut link = Link::new(stream);
            let hello = link
                .recv_frame(u32::MAX)
                .map_err(|e| io::Error::other(format!("handshake recv: {e}")))?;
            let node = match CtrlMsg::from_bytes(&hello) {
                Ok(CtrlMsg::Hello { node, version }) if version == WIRE_VERSION => node as usize,
                Ok(other) => {
                    return Err(io::Error::other(format!(
                        "handshake: expected Hello, got {other:?}"
                    )))
                }
                Err(e) => return Err(io::Error::other(format!("handshake decode: {e}"))),
            };
            if node >= geom.nprocs || links[node].is_some() {
                return Err(io::Error::other(format!("handshake: bad node id {node}")));
            }
            let ack = CtrlMsg::HelloAck {
                nprocs: geom.nprocs as u32,
                wpb: geom.wpb,
                seg_words: geom.seg_words,
            };
            let mut out = Vec::new();
            write_frame(&mut out, &ack.to_bytes());
            link.send(&out, node as u32)
                .map_err(|e| io::Error::other(format!("handshake ack: {e}")))?;
            links[node] = Some(link);
            connected += 1;
        }

        Ok(SocketTransport {
            kind,
            links,
            children,
            corrupt_len_pending: opts.corrupt_frame_len,
            metrics: opts.metrics,
            remote_frames: 0,
            remote_payload_bytes: 0,
            got_bye_stats: 0,
            reports: Vec::new(),
        })
    }

    /// Which socket family the transport settled on.
    pub fn net_kind(&self) -> NetKind {
        self.kind
    }

    /// `(frames, payload bytes)` summed over the nodes' `ByeStats`, and
    /// how many nodes reported. Populated by [`SocketTransport::shutdown`].
    pub fn remote_stats(&self) -> (u64, u64, usize) {
        (
            self.remote_frames,
            self.remote_payload_bytes,
            self.got_bye_stats,
        )
    }

    /// Orderly teardown: `Bye` to every live node, collect `ByeStats`,
    /// close the links, then wait for the children (killing any that
    /// outlive [`CHILD_EXIT_DEADLINE`] — a wedged node must not leak).
    /// Idempotent; also runs on `Drop`, including during a panic unwind,
    /// where errors are swallowed so teardown never masks the original
    /// failure.
    pub fn shutdown(&mut self) {
        let mut bye = Vec::new();
        write_frame(&mut bye, &CtrlMsg::Bye.to_bytes());
        for (i, slot) in self.links.iter_mut().enumerate() {
            let Some(mut link) = slot.take() else {
                continue;
            };
            if link.send(&bye, i as u32).is_ok() {
                if let Ok(frame) = link.recv_frame(i as u32) {
                    if let Ok(CtrlMsg::ByeStats {
                        frames,
                        payload_bytes,
                        metrics,
                    }) = CtrlMsg::from_bytes(&frame)
                    {
                        self.remote_frames += frames;
                        self.remote_payload_bytes += payload_bytes;
                        self.got_bye_stats += 1;
                        self.reports.push(RemoteReport {
                            node: i as u32,
                            frames,
                            payload_bytes,
                            metrics,
                        });
                    }
                }
            }
            link.stream.shutdown();
        }
        let deadline = Instant::now() + CHILD_EXIT_DEADLINE;
        loop {
            let mut alive = false;
            for c in self.children.iter_mut() {
                if let Some(child) = c.as_mut() {
                    match child.try_wait() {
                        Ok(Some(_)) => *c = None,
                        Ok(None) => alive = true,
                        Err(_) => *c = None,
                    }
                }
            }
            if !alive || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        kill_children(&mut self.children);
    }
}

fn kill_children(children: &mut [Option<Child>]) {
    for c in children.iter_mut() {
        if let Some(child) = c.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        *c = None;
    }
}

/// Read one batch reply of `sent` frames from `dst`: the control frame,
/// then the re-encoded data frames. A node that rejected the batch
/// (decode failure) fails the run loudly; a wrong count or a garbled
/// control frame is a typed error, returned before any data frame is
/// read.
fn recv_reply(link: &mut Link, dst: usize, sent: u32) -> Result<Vec<Vec<u8>>, WireError> {
    let node = dst as u32;
    let ctrl_frame = link.recv_frame(node)?;
    let reply = CtrlMsg::from_bytes(&ctrl_frame).map_err(|e| WireError::BadControl {
        node,
        detail: e.to_string(),
    })?;
    match reply {
        CtrlMsg::Batch { n } if n == sent => (0..n).map(|_| link.recv_frame(node)).collect(),
        CtrlMsg::Batch { n } => Err(WireError::ReplyCount { node, sent, got: n }),
        CtrlMsg::Err { detail } => panic!("wire: envelope decode failed in transit: {detail}"),
        other => Err(WireError::BadControl {
            node,
            detail: format!("unexpected control reply {other:?}"),
        }),
    }
}

impl WireTransport for SocketTransport {
    /// Send every batch of the wave, then read every reply, in wave
    /// order: the nodes decode, apply and re-encode concurrently while
    /// the coordinator is still writing. A node finishes reading its
    /// whole batch before it writes its reply, so sending everything
    /// first cannot deadlock. The first failure ends the wave; the
    /// replies still in flight are left unread, and the run fails.
    fn route_wave(&mut self, wave: &mut [Batch]) -> Result<(), WireError> {
        let stopwatch = || self.metrics.then(Instant::now);
        let lap = |t0: Option<Instant>| t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut out = Vec::new();
        for b in wave.iter_mut() {
            let t0 = stopwatch();
            let peer = b.dst as u32;
            out.clear();
            write_frame(
                &mut out,
                &CtrlMsg::Batch {
                    n: b.frames.len() as u32,
                }
                .to_bytes(),
            );
            let first_data_prefix = out.len();
            for f in &b.frames {
                write_frame(&mut out, f);
            }
            if self.corrupt_len_pending && !b.frames.is_empty() {
                // One-shot injection: an oversized length prefix on the
                // first data frame. The node's framing cap must reject it
                // before allocating; the run fails loudly via its Err
                // reply.
                self.corrupt_len_pending = false;
                out[first_data_prefix..first_data_prefix + 4]
                    .copy_from_slice(&u32::MAX.to_le_bytes());
            }
            let link = self
                .links
                .get_mut(b.dst)
                .and_then(Option::as_mut)
                .ok_or(WireError::PeerGone(peer))?;
            link.send(&out, peer)?;
            b.busy_ns = lap(t0);
        }
        for b in wave.iter_mut() {
            let t0 = stopwatch();
            let link = self.links[b.dst].as_mut().expect("link sent to above");
            let sent = b.frames.len() as u32;
            match recv_reply(link, b.dst, sent) {
                Ok(frames) => b.frames = frames,
                Err(e) => {
                    // The link's stream position is lost: retire it.
                    self.links[b.dst] = None;
                    return Err(e);
                }
            }
            b.busy_ns += lap(t0);
        }
        Ok(())
    }

    /// Orderly teardown, then hand the per-node `ByeStats` reports to
    /// the wire seam for double-entry reconciliation and metric merging.
    fn finish(&mut self) -> Vec<RemoteReport> {
        self.shutdown();
        std::mem::take(&mut self.reports)
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ----------------------------------------------------------------------
// Node-binary discovery
// ----------------------------------------------------------------------

/// A `Command` that starts the `fgdsm-node` worker: `FGDSM_NODE_BIN`
/// override, else the binary next to the running test/bench executable
/// (`target/<profile>/fgdsm-node`), else `cargo run -p fgdsm --bin
/// fgdsm-node` as a last resort.
pub fn node_command() -> Command {
    if let Ok(p) = std::env::var("FGDSM_NODE_BIN") {
        return Command::new(p);
    }
    if let Some(p) = find_node_bin() {
        return Command::new(p);
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.args(["run", "--quiet", "-p", "fgdsm", "--bin", "fgdsm-node"]);
    cmd
}

fn find_node_bin() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    for dir in exe.ancestors().skip(1) {
        let cand = dir.join(format!("fgdsm-node{}", std::env::consts::EXE_SUFFIX));
        if cand.is_file() {
            return Some(cand);
        }
    }
    None
}

// ----------------------------------------------------------------------
// Node side: the worker process serve loop
// ----------------------------------------------------------------------

/// Apply `msg`'s payload into the node's mirror store at the addresses
/// the envelope describes, growing the store if the geometry undersold
/// it, and return the word addresses written (in payload order).
fn apply_msg(mirror: &mut Vec<u64>, msg: &WireMsg, wpb: usize) -> Vec<usize> {
    let mut addrs = Vec::with_capacity(msg.words().len());
    msg.scatter(wpb, |a, _| addrs.push(a));
    if let Some(&max) = addrs.iter().max() {
        if max >= mirror.len() {
            mirror.resize(max + 1, 0);
        }
    }
    for (&a, &w) in addrs.iter().zip(msg.words()) {
        mirror[a] = w;
    }
    addrs
}

/// Rebuild the reply envelope by reading the payload back *from the
/// mirror* — the shard-ownership property: what the coordinator gets
/// back is what the node's memory now holds, not an echo of the bytes.
fn reencode_from_mirror(mirror: &[u64], msg: WireMsg, addrs: &[usize]) -> WireMsg {
    let words: Vec<u64> = addrs.iter().map(|&a| mirror[a]).collect();
    match msg {
        WireMsg::Push {
            hdr,
            start_block,
            n_blocks,
            ..
        } => WireMsg::Push {
            hdr,
            start_block,
            n_blocks,
            words,
        },
        WireMsg::Flush {
            hdr,
            start_block,
            n_blocks,
            ..
        } => WireMsg::Flush {
            hdr,
            start_block,
            n_blocks,
            words,
        },
        WireMsg::Copy {
            hdr, start_word, ..
        } => WireMsg::Copy {
            hdr,
            start_word,
            words,
        },
        WireMsg::Diff {
            hdr, block, mask, ..
        } => WireMsg::Diff {
            hdr,
            block,
            mask,
            words,
        },
        WireMsg::Strided {
            hdr,
            base,
            run_len,
            stride,
            count,
            ..
        } => WireMsg::Strided {
            hdr,
            base,
            run_len,
            stride,
            count,
            words,
        },
    }
}

/// The `fgdsm-node` worker loop: connect back to the coordinator,
/// introduce ourselves, then serve batches until `Bye` (or the
/// coordinator disappears). Every decode failure is reported as a
/// `CtrlMsg::Err` before exiting — the coordinator turns it into a loud
/// run failure.
pub fn serve(node: u32, addr: &str) -> Result<(), String> {
    let stream = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // Idle deadline: generous (the coordinator computes between
    // supersteps), but bounded so an orphaned node never outlives a
    // coordinator killed without cleanup.
    let idle = net_timeout().max(Duration::from_secs(6)) * 10;
    stream
        .set_timeouts(Some(idle))
        .map_err(|e| format!("set timeouts: {e}"))?;
    let mut link = Link::new(stream);

    let mut hello = Vec::new();
    write_frame(
        &mut hello,
        &CtrlMsg::Hello {
            node,
            version: WIRE_VERSION,
        }
        .to_bytes(),
    );
    link.send(&hello, node).map_err(|e| format!("hello: {e}"))?;
    let ack = link
        .recv_frame(node)
        .map_err(|e| format!("hello ack: {e}"))?;
    let (wpb, seg_words) = match CtrlMsg::from_bytes(&ack) {
        Ok(CtrlMsg::HelloAck { wpb, seg_words, .. }) => (wpb as usize, seg_words as usize),
        Ok(other) => return Err(format!("expected HelloAck, got {other:?}")),
        Err(e) => return Err(format!("hello ack decode: {e}")),
    };

    let fault = std::env::var("FGDSM_NODE_FAULT")
        .ok()
        .and_then(|s| NodeFault::parse(&s));
    let mut mirror = vec![0u64; seg_words];
    let mut frames_served = 0u64;
    let mut payload_bytes = 0u64;
    let mut batches = 0u32;
    // Wall-clock telemetry, on only when the coordinator armed
    // `FGDSM_METRICS` for this child: per-class recv (frame in hand →
    // decoded), apply (payload → mirror), and re-encode histograms plus
    // the double-entry frame/payload counters, shipped home in ByeStats.
    let mut reg: Option<MetricsRegistry> = metrics::env_enabled().then(MetricsRegistry::new);

    let send_err = |link: &mut Link, detail: String| {
        let mut out = Vec::new();
        write_frame(&mut out, &CtrlMsg::Err { detail }.to_bytes());
        let _ = link.send(&out, node);
    };

    loop {
        let ctrl_frame = match link.recv_frame(node) {
            Ok(f) => f,
            // Coordinator gone or idle too long: exit quietly, we are
            // the orphan-prevention backstop, not the error reporter.
            Err(_) => return Ok(()),
        };
        let ctrl = match CtrlMsg::from_bytes(&ctrl_frame) {
            Ok(c) => c,
            Err(e) => {
                send_err(&mut link, format!("node {node}: bad control frame: {e}"));
                return Err(format!("bad control frame: {e}"));
            }
        };
        match ctrl {
            CtrlMsg::Batch { n } => {
                batches += 1;
                match fault {
                    Some(NodeFault::ExitAfterBatches(k)) if batches > k => {
                        // Simulated crash: vanish mid-superstep (EOF).
                        std::process::exit(0);
                    }
                    Some(NodeFault::WedgeAfterBatches(k)) if batches > k => {
                        // Simulated hang: stop replying; the coordinator's
                        // recv deadline must fire. Bounded so the process
                        // cannot leak past the run.
                        std::thread::sleep(Duration::from_secs(600));
                        std::process::exit(0);
                    }
                    _ => {}
                }
                // Simulated lost frame: answer this one batch a frame
                // short; the coordinator must reject the count.
                let reply_n = match fault {
                    Some(NodeFault::ShortReplyAfterBatches(k)) if batches == k + 1 => {
                        n.saturating_sub(1)
                    }
                    _ => n,
                };
                let mut reply = Vec::new();
                write_frame(&mut reply, &CtrlMsg::Batch { n: reply_n }.to_bytes());
                for i in 0..n {
                    let frame = match link.recv_frame(node) {
                        Ok(f) => f,
                        Err(e @ WireError::FrameTooBig(_)) => {
                            send_err(&mut link, format!("node {node}: {e}"));
                            return Err(e.to_string());
                        }
                        Err(_) => return Ok(()),
                    };
                    let t_recv = reg.as_ref().map(|_| Instant::now());
                    let msg = match WireMsg::from_bytes(&frame) {
                        Ok(m) => m,
                        Err(e) => {
                            send_err(&mut link, format!("node {node}: {e}"));
                            return Err(e.to_string());
                        }
                    };
                    let class = metrics::class_name(msg.kind());
                    if let (Some(reg), Some(t0)) = (reg.as_mut(), t_recv) {
                        reg.record_ns(&format!("recv.{class}"), t0.elapsed().as_nanos() as u64);
                        reg.counter_add(&format!("frames.{class}"), 1);
                        reg.counter_add(&format!("payload_bytes.{class}"), msg.payload_bytes());
                    }
                    let t_apply = reg.as_ref().map(|_| Instant::now());
                    let addrs = apply_msg(&mut mirror, &msg, wpb);
                    if let (Some(reg), Some(t0)) = (reg.as_mut(), t_apply) {
                        reg.record_ns(&format!("apply.{class}"), t0.elapsed().as_nanos() as u64);
                    }
                    if i >= reply_n {
                        continue;
                    }
                    let t_re = reg.as_ref().map(|_| Instant::now());
                    let out = reencode_from_mirror(&mirror, msg, &addrs);
                    frames_served += 1;
                    payload_bytes += out.payload_bytes();
                    write_frame(&mut reply, &out.to_bytes());
                    if let (Some(reg), Some(t0)) = (reg.as_mut(), t_re) {
                        reg.record_ns(&format!("reencode.{class}"), t0.elapsed().as_nanos() as u64);
                    }
                }
                if link.send(&reply, node).is_err() {
                    return Ok(());
                }
            }
            CtrlMsg::Bye => {
                let mut out = Vec::new();
                write_frame(
                    &mut out,
                    &CtrlMsg::ByeStats {
                        frames: frames_served,
                        payload_bytes,
                        metrics: reg.take().map(|r| r.to_bytes()).unwrap_or_default(),
                    }
                    .to_bytes(),
                );
                let _ = link.send(&out, node);
                return Ok(());
            }
            other => {
                send_err(&mut link, format!("node {node}: unexpected {other:?}"));
                return Err(format!("unexpected control frame {other:?}"));
            }
        }
    }
}

/// Entry point for the `fgdsm-node` binary: node id and coordinator
/// address from the environment.
pub fn serve_from_env() -> Result<(), String> {
    let node = std::env::var("FGDSM_NODE_ID")
        .map_err(|_| "FGDSM_NODE_ID not set".to_string())?
        .parse::<u32>()
        .map_err(|e| format!("FGDSM_NODE_ID: {e}"))?;
    let addr = std::env::var("FGDSM_NODE_ADDR").map_err(|_| "FGDSM_NODE_ADDR not set")?;
    serve(node, &addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdsm_protocol::wire::WireHeader;

    #[test]
    fn node_fault_env_round_trips() {
        for f in [
            NodeFault::ExitAfterBatches(3),
            NodeFault::WedgeAfterBatches(0),
            NodeFault::ShortReplyAfterBatches(2),
        ] {
            assert_eq!(NodeFault::parse(&f.env_str()), Some(f));
        }
        assert_eq!(NodeFault::parse("garbage"), None);
    }

    #[test]
    fn mirror_apply_reencode_is_the_identity_per_message() {
        let mut mirror = vec![0u64; 64];
        let msgs = vec![
            WireMsg::Push {
                hdr: WireHeader::for_blocks(0, 1, (0, 0), 7, 2, 2),
                start_block: 2,
                n_blocks: 2,
                words: vec![11, 22, 33, 44],
            },
            WireMsg::Copy {
                hdr: WireHeader::for_blocks(1, 0, (0, 0), u32::MAX, 0, 1),
                start_word: 60,
                // Past the declared segment: the mirror must grow.
                words: vec![1, 2, 3, 4, 5, 6, 7, 8],
            },
            WireMsg::Diff {
                hdr: WireHeader::for_blocks(0, 1, (0, 0), u32::MAX, 3, 1),
                block: 3,
                mask: 0b1011,
                words: vec![9, 8, 7],
            },
            WireMsg::Strided {
                hdr: WireHeader::for_blocks(1, 0, (0, 0), u32::MAX, 0, 1),
                base: 4,
                run_len: 2,
                stride: 8,
                count: 3,
                words: vec![1, 2, 3, 4, 5, 6],
            },
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            let addrs = apply_msg(&mut mirror, &msg, 4);
            let back = reencode_from_mirror(&mirror, msg, &addrs);
            assert_eq!(back.to_bytes(), bytes, "kind {}", back.kind());
        }
        // The Push actually landed in the store at block*wpb.
        assert_eq!(&mirror[8..12], &[11, 22, 33, 44]);
    }
}
