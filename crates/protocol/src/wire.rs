//! Serializable message envelopes: the wire format under every
//! inter-node transfer.
//!
//! PR 4's plan/apply seam moved data with in-process structs that
//! borrow shard memory (`TransferPlan` ranges, `MpSendPlan` sections,
//! per-block fault copies). This module gives all of them one
//! self-contained representation: a [`WireMsg`] envelope carrying an
//! attributed header plus an explicit payload buffer, with a versioned,
//! deterministic binary encoding (`to_bytes`/`from_bytes`, no external
//! serialization dependency). Planning fills payloads by copying out of
//! the source shard, so a routed envelope no longer needs the source
//! alive — the property a cross-process transport needs.
//!
//! ## v1 binary layout (all fields little-endian)
//!
//! | offset | field | type |
//! |---|---|---|
//! | 0 | magic (`0xFD57`) | u16 |
//! | 2 | version (`1`) | u16 |
//! | 4 | kind (0=Push 1=Flush 2=Copy 3=Diff 4=Strided) | u8 |
//! | 5 | src | u32 |
//! | 9 | dst | u32 |
//! | 13 | superstep | u32 |
//! | 17 | loop_id | u32 |
//! | 21 | array | u32 |
//! | 25 | block-list length `n` | u32 |
//! | 29 | attributed blocks | n × u32 |
//! | … | variant fields (see [`WireMsg`]) | — |
//! | … | payload length `w` | u64 |
//! | … | payload words (`f64::to_bits`) | w × u64 |
//!
//! Versioning rule: any change to the header layout or a variant's
//! field set bumps `WIRE_VERSION`; decoders reject every version they
//! were not built for (no silent best-effort parsing). The golden-bytes
//! test below pins the v1 layout against accidental breaks.

use std::time::Duration;

/// First two bytes of every frame.
pub const WIRE_MAGIC: u16 = 0xFD57;
/// Current format version; decoders accept exactly this.
pub const WIRE_VERSION: u16 = 1;
/// First two bytes of every control (non-data) frame: handshake,
/// batch markers and teardown between a coordinator and a node process.
pub const CTRL_MAGIC: u16 = 0xFD58;
/// Upper bound on a single length-prefixed frame. A prefix above this is
/// a protocol violation ([`WireError::FrameTooBig`]), rejected *before*
/// any allocation — the framing layer's analogue of `decode_words`'
/// lying-length guard.
pub const MAX_FRAME_BYTES: u64 = 1 << 26;

/// Per-recv deadline for the socket transport's blocking reads:
/// `FGDSM_NET_TIMEOUT_MS`, default 5000 ms. A peer that stays silent
/// past this long is reported as [`WireError::Timeout`] instead of
/// hanging the run.
pub fn net_timeout() -> Duration {
    let ms = std::env::var("FGDSM_NET_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(5000)
        .max(1);
    Duration::from_millis(ms)
}

/// On-wire size in bytes of a word-diff message body for `mask`: the
/// 8-byte dirty mask plus one 8-byte word per set bit. This is the one
/// place the diff-size arithmetic lives — the eager/update release
/// paths and the envelope encoder all charge through it, so profiler
/// attribution and wire accounting can never drift apart.
pub fn diff_bytes(mask: u64) -> usize {
    8 + 8 * mask.count_ones() as usize
}

/// Everything a receiver needs to account a transfer without looking at
/// the sender's state: endpoints, the superstep/loop the transfer is
/// attributed to (filled at encode time, exactly once), the array it
/// belongs to (`NO_ARRAY` for protocol-level fault traffic), and the
/// blocks it touches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireHeader {
    pub src: u32,
    pub dst: u32,
    pub superstep: u32,
    pub loop_id: u32,
    pub array: u32,
    pub blocks: Vec<u32>,
}

impl WireHeader {
    /// Header for a transfer covering the block range `[first, first+n)`.
    pub fn for_blocks(
        src: usize,
        dst: usize,
        ctx: (u32, u32),
        array: u32,
        first: usize,
        n: usize,
    ) -> Self {
        WireHeader {
            src: src as u32,
            dst: dst as u32,
            superstep: ctx.0,
            loop_id: ctx.1,
            array,
            blocks: (first..first + n).map(|b| b as u32).collect(),
        }
    }
}

/// A self-contained transfer: header plus explicit payload words
/// (`f64::to_bits` of the shard data, so bit-exactness survives NaNs).
///
/// The variants unify the three transfer shapes the backends produce:
/// `Push`/`Flush` are the §4.2 ctl plan payloads (`TransferPlan`,
/// recorded as `CtlSend` events), `Copy` and `Diff` are the default
/// protocol's fault-path block fetches and multiple-writer diff merges,
/// and `Strided` is a message-passing section (`MpSendPlan`).
#[derive(Clone, Debug, PartialEq)]
pub enum WireMsg {
    /// Compiler-directed send: contiguous blocks, owner → reader.
    Push {
        hdr: WireHeader,
        start_block: u32,
        n_blocks: u32,
        words: Vec<u64>,
    },
    /// Non-owner-write flush: contiguous blocks, writer → owner.
    Flush {
        hdr: WireHeader,
        start_block: u32,
        n_blocks: u32,
        words: Vec<u64>,
    },
    /// Fault-path word-range fetch (block data to a faulting node).
    Copy {
        hdr: WireHeader,
        start_word: u64,
        words: Vec<u64>,
    },
    /// Word diff of one block: `words[i]` is the value for the `i`-th
    /// set bit of `mask` (LSB first).
    Diff {
        hdr: WireHeader,
        block: u64,
        mask: u64,
        words: Vec<u64>,
    },
    /// Message-passing section: `count` runs of `run_len` words,
    /// starting at `base`, `stride` words apart; payload concatenates
    /// the runs in order.
    Strided {
        hdr: WireHeader,
        base: u64,
        run_len: u32,
        stride: u64,
        count: u32,
        words: Vec<u64>,
    },
}

const KIND_PUSH: u8 = 0;
const KIND_FLUSH: u8 = 1;
const KIND_COPY: u8 = 2;
const KIND_DIFF: u8 = 3;
const KIND_STRIDED: u8 = 4;

/// Why a frame failed to decode. Every variant is a hard error: a
/// malformed frame is dropped traffic, never a best-effort apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Frame ended before a declared field.
    Truncated,
    /// First two bytes are not [`WIRE_MAGIC`].
    BadMagic(u16),
    /// Version this decoder was not built for.
    BadVersion(u16),
    /// Unknown kind byte.
    BadKind(u8),
    /// A declared count disagrees with the payload that follows.
    CountMismatch(&'static str),
    /// Bytes left over after the payload — the frame lies about itself.
    TrailingBytes(usize),
    /// The peer node is gone: its process exited, or the connection was
    /// closed (EOF) mid-conversation.
    PeerGone(u32),
    /// The peer stayed silent past the configured recv deadline
    /// ([`net_timeout`]).
    Timeout(u32),
    /// A length prefix above [`MAX_FRAME_BYTES`] — rejected before any
    /// allocation or read.
    FrameTooBig(u64),
    /// A node answered a batch of `sent` frames with a reply announcing
    /// `got` — a lost or invented frame, caught before any reply frame
    /// is read.
    ReplyCount { node: u32, sent: u32, got: u32 },
    /// A node's reply did not start with a decodable `Batch`/`Err`
    /// control frame.
    BadControl { node: u32, detail: String },
    /// Double-entry reconciliation failure at teardown: a node's
    /// [`CtrlMsg::ByeStats`] accounting disagrees with the coordinator's
    /// book for that node. Reports *which* counter diverged and both
    /// sides' values, so a lost or double-applied frame is attributable
    /// from the error alone.
    StatsMismatch {
        node: u32,
        counter: &'static str,
        local: u64,
        remote: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#06x} (want {WIRE_MAGIC:#06x})"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v} (want {WIRE_VERSION})"),
            WireError::BadKind(k) => write!(f, "unknown kind byte {k}"),
            WireError::CountMismatch(what) => write!(f, "count mismatch: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::PeerGone(p) => write!(f, "peer node {p} gone (disconnected or exited)"),
            WireError::Timeout(p) => write!(f, "recv from node {p} timed out"),
            WireError::FrameTooBig(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_BYTES}")
            }
            WireError::ReplyCount { node, sent, got } => {
                write!(
                    f,
                    "node {node} answered a batch of {sent} frames with {got}"
                )
            }
            WireError::BadControl { node, detail } => {
                write!(f, "node {node} sent a bad control reply: {detail}")
            }
            WireError::StatsMismatch {
                node,
                counter,
                local,
                remote,
            } => write!(
                f,
                "node {node} {counter} counter diverged: coordinator {local} vs node {remote}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let s = self
            .b
            .get(self.pos..self.pos + n)
            .ok_or(WireError::Truncated)?;
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

impl WireMsg {
    pub fn kind(&self) -> u8 {
        match self {
            WireMsg::Push { .. } => KIND_PUSH,
            WireMsg::Flush { .. } => KIND_FLUSH,
            WireMsg::Copy { .. } => KIND_COPY,
            WireMsg::Diff { .. } => KIND_DIFF,
            WireMsg::Strided { .. } => KIND_STRIDED,
        }
    }

    pub fn hdr(&self) -> &WireHeader {
        match self {
            WireMsg::Push { hdr, .. }
            | WireMsg::Flush { hdr, .. }
            | WireMsg::Copy { hdr, .. }
            | WireMsg::Diff { hdr, .. }
            | WireMsg::Strided { hdr, .. } => hdr,
        }
    }

    /// The payload words.
    pub fn words(&self) -> &[u64] {
        match self {
            WireMsg::Push { words, .. }
            | WireMsg::Flush { words, .. }
            | WireMsg::Copy { words, .. }
            | WireMsg::Diff { words, .. }
            | WireMsg::Strided { words, .. } => words,
        }
    }

    /// Consume the envelope, handing back its payload buffer for pool
    /// recycling.
    pub fn into_words(self) -> Vec<u64> {
        match self {
            WireMsg::Push { words, .. }
            | WireMsg::Flush { words, .. }
            | WireMsg::Copy { words, .. }
            | WireMsg::Diff { words, .. }
            | WireMsg::Strided { words, .. } => words,
        }
    }

    /// Visit every `(word address, payload word)` pair this envelope
    /// stores at its destination, in payload order — the one home of the
    /// per-kind geometry (`wpb` is the words per coherence block). Both
    /// the coordinator's landing and a node process's mirror apply go
    /// through here.
    pub fn scatter(&self, wpb: usize, mut put: impl FnMut(usize, u64)) {
        match self {
            WireMsg::Push {
                start_block, words, ..
            }
            | WireMsg::Flush {
                start_block, words, ..
            } => {
                let s = *start_block as usize * wpb;
                for (i, &w) in words.iter().enumerate() {
                    put(s + i, w);
                }
            }
            WireMsg::Copy {
                start_word, words, ..
            } => {
                let s = *start_word as usize;
                for (i, &w) in words.iter().enumerate() {
                    put(s + i, w);
                }
            }
            WireMsg::Diff {
                block, mask, words, ..
            } => {
                let s = *block as usize * wpb;
                let set = (0..64usize).filter(|bit| mask & (1u64 << bit) != 0);
                for (bit, &w) in set.zip(words) {
                    put(s + bit, w);
                }
            }
            WireMsg::Strided {
                base,
                run_len,
                stride,
                words,
                ..
            } => {
                let (base, run_len, stride) = (*base as usize, *run_len as usize, *stride as usize);
                for (i, run) in words.chunks(run_len.max(1)).enumerate() {
                    let s = base + i * stride;
                    for (t, &w) in run.iter().enumerate() {
                        put(s + t, w);
                    }
                }
            }
        }
    }

    /// On-wire data bytes of this transfer: what the simulated network
    /// carries beyond fixed headers. Matches the byte counts the
    /// protocols feed `note_msg_at`, so wire accounting reconciles with
    /// `NodeStats` (a Diff counts its 8-byte mask, exactly like the
    /// `diff_bytes` charge).
    pub fn payload_bytes(&self) -> u64 {
        let extra = match self {
            WireMsg::Diff { .. } => 8,
            _ => 0,
        };
        extra + 8 * self.words().len() as u64
    }

    /// Append the v1 encoding of `self` to `out` (which is cleared
    /// first, so pooled buffers can be passed straight in).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.push(self.kind());
        let hdr = self.hdr();
        for f in [hdr.src, hdr.dst, hdr.superstep, hdr.loop_id, hdr.array] {
            out.extend_from_slice(&f.to_le_bytes());
        }
        out.extend_from_slice(&(hdr.blocks.len() as u32).to_le_bytes());
        for b in &hdr.blocks {
            out.extend_from_slice(&b.to_le_bytes());
        }
        match self {
            WireMsg::Push {
                start_block,
                n_blocks,
                ..
            }
            | WireMsg::Flush {
                start_block,
                n_blocks,
                ..
            } => {
                out.extend_from_slice(&start_block.to_le_bytes());
                out.extend_from_slice(&n_blocks.to_le_bytes());
            }
            WireMsg::Copy { start_word, .. } => {
                out.extend_from_slice(&start_word.to_le_bytes());
            }
            WireMsg::Diff { block, mask, .. } => {
                out.extend_from_slice(&block.to_le_bytes());
                out.extend_from_slice(&mask.to_le_bytes());
            }
            WireMsg::Strided {
                base,
                run_len,
                stride,
                count,
                ..
            } => {
                out.extend_from_slice(&base.to_le_bytes());
                out.extend_from_slice(&run_len.to_le_bytes());
                out.extend_from_slice(&stride.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
        let words = self.words();
        out.extend_from_slice(&(words.len() as u64).to_le_bytes());
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// The v1 encoding as a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 8 * self.words().len());
        self.encode(&mut out);
        out
    }

    /// Decode and validate a v1 frame. Rejects wrong magic/version,
    /// unknown kinds, truncation, count/payload disagreements and
    /// trailing bytes — a frame either reconstructs the exact envelope
    /// that was encoded or it is an error, never a partial apply.
    pub fn from_bytes(bytes: &[u8]) -> Result<WireMsg, WireError> {
        let mut c = Cursor { b: bytes, pos: 0 };
        let magic = c.u16()?;
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = c.u16()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = c.u8()?;
        let (src, dst, superstep, loop_id, array) =
            (c.u32()?, c.u32()?, c.u32()?, c.u32()?, c.u32()?);
        let nblocks = c.u32()? as usize;
        let mut blocks = Vec::with_capacity(nblocks.min(bytes.len() / 4));
        for _ in 0..nblocks {
            blocks.push(c.u32()?);
        }
        let hdr = WireHeader {
            src,
            dst,
            superstep,
            loop_id,
            array,
            blocks,
        };
        let msg = match kind {
            KIND_PUSH | KIND_FLUSH => {
                let start_block = c.u32()?;
                let n_blocks = c.u32()?;
                if n_blocks as usize != hdr.blocks.len() {
                    return Err(WireError::CountMismatch("n_blocks vs header block list"));
                }
                let words = decode_words(&mut c)?;
                if kind == KIND_PUSH {
                    WireMsg::Push {
                        hdr,
                        start_block,
                        n_blocks,
                        words,
                    }
                } else {
                    WireMsg::Flush {
                        hdr,
                        start_block,
                        n_blocks,
                        words,
                    }
                }
            }
            KIND_COPY => {
                let start_word = c.u64()?;
                let words = decode_words(&mut c)?;
                WireMsg::Copy {
                    hdr,
                    start_word,
                    words,
                }
            }
            KIND_DIFF => {
                let block = c.u64()?;
                let mask = c.u64()?;
                let words = decode_words(&mut c)?;
                if words.len() != mask.count_ones() as usize {
                    return Err(WireError::CountMismatch("diff mask popcount vs payload"));
                }
                WireMsg::Diff {
                    hdr,
                    block,
                    mask,
                    words,
                }
            }
            KIND_STRIDED => {
                let base = c.u64()?;
                let run_len = c.u32()?;
                let stride = c.u64()?;
                let count = c.u32()?;
                let words = decode_words(&mut c)?;
                if words.len() != run_len as usize * count as usize {
                    return Err(WireError::CountMismatch("run_len*count vs payload"));
                }
                WireMsg::Strided {
                    hdr,
                    base,
                    run_len,
                    stride,
                    count,
                    words,
                }
            }
            k => return Err(WireError::BadKind(k)),
        };
        if c.pos != bytes.len() {
            return Err(WireError::TrailingBytes(bytes.len() - c.pos));
        }
        Ok(msg)
    }
}

fn decode_words(c: &mut Cursor<'_>) -> Result<Vec<u64>, WireError> {
    let n = c.u64()? as usize;
    // Guard the allocation against lying length prefixes before
    // touching the heap: the remaining frame must actually hold n words.
    match n.checked_mul(8) {
        Some(need) if c.b.len() - c.pos >= need => {}
        _ => return Err(WireError::Truncated),
    }
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        words.push(c.u64()?);
    }
    Ok(words)
}

// ----------------------------------------------------------------------
// Length-prefixed framing: how byte-stream transports carry frames
// ----------------------------------------------------------------------

/// Append `frame` to `out` as a length-prefixed record: a `u32` LE byte
/// count followed by the frame bytes. The inverse of [`FrameDecoder`].
///
/// Panics if the frame exceeds [`MAX_FRAME_BYTES`] — a frame that large
/// is a caller bug, not traffic.
pub fn write_frame(out: &mut Vec<u8>, frame: &[u8]) {
    assert!(
        frame.len() as u64 <= MAX_FRAME_BYTES,
        "frame of {} bytes exceeds MAX_FRAME_BYTES",
        frame.len()
    );
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
}

/// Incremental decoder for length-prefixed frames arriving in arbitrary
/// chunks (partial reads, 1-byte reads, boundaries straddling reads).
/// Feed bytes with [`FrameDecoder::push`], drain complete frames with
/// [`FrameDecoder::next_frame`]. Pure — no I/O — so the framing logic is
/// testable without sockets.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Feed a chunk of received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact consumed space before growing, so a long-lived decoder
        // does not retain every byte it ever saw.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, `Ok(None)` if more bytes are needed.
    /// A length prefix above [`MAX_FRAME_BYTES`] is rejected immediately
    /// — before waiting for (or allocating) the declared bytes.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        if len as u64 > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooBig(len as u64));
        }
        let len = len as usize;
        if avail < 4 + len {
            return Ok(None);
        }
        let frame = self.buf[self.pos + 4..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(frame))
    }

    /// True when buffered bytes remain that do not (yet) form a complete
    /// frame — at EOF this means a truncated trailing frame.
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }
}

// ----------------------------------------------------------------------
// Control messages: coordinator ⇄ node-process handshake and teardown
// ----------------------------------------------------------------------

const CTRL_HELLO: u8 = 0;
const CTRL_HELLO_ACK: u8 = 1;
const CTRL_BATCH: u8 = 2;
const CTRL_BYE: u8 = 3;
const CTRL_BYE_STATS: u8 = 4;
const CTRL_ERR: u8 = 5;
/// Cap on an error detail string — a lying length here must not allocate.
const CTRL_MAX_DETAIL: usize = 64 * 1024;
/// Cap on a `ByeStats` metrics blob: a worker's telemetry registry is a
/// few dozen histograms (kilobytes), so anything near this is corrupt.
const CTRL_MAX_METRICS: usize = 1 << 20;

/// Control frames framing the socket conversation between the
/// coordinator and a node process. Same encoding discipline as
/// [`WireMsg`] — [`CTRL_MAGIC`] + version + kind + fields, total decode,
/// trailing bytes rejected — under a distinct magic so a data frame can
/// never be mistaken for control traffic.
///
/// Conversation shape (per connection):
///
/// ```text
/// node → coord   Hello { node, version }
/// coord → node   HelloAck { nprocs, wpb, seg_words }   (shard geometry)
/// coord → node   Batch { n } + n data frames           (one per wave batch)
/// node → coord   Batch { n } + n re-encoded frames     (or Err { detail })
/// coord → node   Bye
/// node → coord   ByeStats { frames, payload_bytes, metrics }
/// ```
///
/// Control frames reuse [`WIRE_VERSION`] and are only ever exchanged
/// between a coordinator and the `fgdsm-node` binary it spawned from the
/// same build — there is no cross-version control peer, so extending
/// `ByeStats` (the metrics blob) rides the existing version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Node introduces itself after connecting.
    Hello { node: u32, version: u16 },
    /// Coordinator accepts and ships the shard geometry the node's
    /// mirror store needs (words per block, segment words).
    HelloAck {
        nprocs: u32,
        wpb: u32,
        seg_words: u64,
    },
    /// `n` data frames follow this control frame.
    Batch { n: u32 },
    /// Orderly teardown request.
    Bye,
    /// Node's final accounting, confirming teardown. `metrics` is the
    /// node's serialized telemetry registry
    /// (`fgdsm_tempest::metrics::MetricsRegistry::to_bytes`) — empty
    /// when wall-clock telemetry is disabled.
    ByeStats {
        frames: u64,
        payload_bytes: u64,
        metrics: Vec<u8>,
    },
    /// The node rejected traffic (decode failure, oversized frame…);
    /// the connection is dead after this.
    Err { detail: String },
}

impl CtrlMsg {
    fn kind(&self) -> u8 {
        match self {
            CtrlMsg::Hello { .. } => CTRL_HELLO,
            CtrlMsg::HelloAck { .. } => CTRL_HELLO_ACK,
            CtrlMsg::Batch { .. } => CTRL_BATCH,
            CtrlMsg::Bye => CTRL_BYE,
            CtrlMsg::ByeStats { .. } => CTRL_BYE_STATS,
            CtrlMsg::Err { .. } => CTRL_ERR,
        }
    }

    /// The encoding as a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&CTRL_MAGIC.to_le_bytes());
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.push(self.kind());
        match self {
            CtrlMsg::Hello { node, version } => {
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
            }
            CtrlMsg::HelloAck {
                nprocs,
                wpb,
                seg_words,
            } => {
                out.extend_from_slice(&nprocs.to_le_bytes());
                out.extend_from_slice(&wpb.to_le_bytes());
                out.extend_from_slice(&seg_words.to_le_bytes());
            }
            CtrlMsg::Batch { n } => out.extend_from_slice(&n.to_le_bytes()),
            CtrlMsg::Bye => {}
            CtrlMsg::ByeStats {
                frames,
                payload_bytes,
                metrics,
            } => {
                assert!(
                    metrics.len() <= CTRL_MAX_METRICS,
                    "metrics blob of {} bytes exceeds cap",
                    metrics.len()
                );
                out.extend_from_slice(&frames.to_le_bytes());
                out.extend_from_slice(&payload_bytes.to_le_bytes());
                out.extend_from_slice(&(metrics.len() as u32).to_le_bytes());
                out.extend_from_slice(metrics);
            }
            CtrlMsg::Err { detail } => {
                let bytes = detail.as_bytes();
                let n = bytes.len().min(CTRL_MAX_DETAIL);
                out.extend_from_slice(&(n as u32).to_le_bytes());
                out.extend_from_slice(&bytes[..n]);
            }
        }
        out
    }

    /// Decode and validate a control frame — same paranoia as
    /// [`WireMsg::from_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CtrlMsg, WireError> {
        let mut c = Cursor { b: bytes, pos: 0 };
        let magic = c.u16()?;
        if magic != CTRL_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = c.u16()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = c.u8()?;
        let msg = match kind {
            CTRL_HELLO => CtrlMsg::Hello {
                node: c.u32()?,
                version: c.u16()?,
            },
            CTRL_HELLO_ACK => CtrlMsg::HelloAck {
                nprocs: c.u32()?,
                wpb: c.u32()?,
                seg_words: c.u64()?,
            },
            CTRL_BATCH => CtrlMsg::Batch { n: c.u32()? },
            CTRL_BYE => CtrlMsg::Bye,
            CTRL_BYE_STATS => {
                let frames = c.u64()?;
                let payload_bytes = c.u64()?;
                let n = c.u32()? as usize;
                if n > CTRL_MAX_METRICS {
                    return Err(WireError::CountMismatch("bye-stats metrics length"));
                }
                let metrics = c.take(n)?.to_vec();
                CtrlMsg::ByeStats {
                    frames,
                    payload_bytes,
                    metrics,
                }
            }
            CTRL_ERR => {
                let n = c.u32()? as usize;
                if n > CTRL_MAX_DETAIL {
                    return Err(WireError::CountMismatch("err detail length"));
                }
                let raw = c.take(n)?;
                let detail = String::from_utf8(raw.to_vec())
                    .map_err(|_| WireError::CountMismatch("err detail utf8"))?;
                CtrlMsg::Err { detail }
            }
            k => return Err(WireError::BadKind(k)),
        };
        if c.pos != bytes.len() {
            return Err(WireError::TrailingBytes(bytes.len() - c.pos));
        }
        Ok(msg)
    }
}

/// One remote process's end-of-run accounting, as delivered in its
/// [`CtrlMsg::ByeStats`]: the counters to reconcile against the
/// coordinator's book plus the node's serialized telemetry registry
/// (empty when telemetry is off).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemoteReport {
    pub node: u32,
    pub frames: u64,
    pub payload_bytes: u64,
    pub metrics: Vec<u8>,
}

/// Double-entry reconciliation of one node's counters against the
/// coordinator's per-node book. Reports the *first* diverging counter as
/// a typed [`WireError::StatsMismatch`] naming the node, the counter and
/// both values — never a bare "mismatch" panic.
pub fn reconcile_stats(
    node: u32,
    local_frames: u64,
    local_payload: u64,
    remote: &RemoteReport,
) -> Result<(), WireError> {
    if local_frames != remote.frames {
        return Err(WireError::StatsMismatch {
            node,
            counter: "frames",
            local: local_frames,
            remote: remote.frames,
        });
    }
    if local_payload != remote.payload_bytes {
        return Err(WireError::StatsMismatch {
            node,
            counter: "payload_bytes",
            local: local_payload,
            remote: remote.payload_bytes,
        });
    }
    Ok(())
}

/// One destination's share of a routing wave: the frames posted to
/// `dst` in posting order. The transport replaces `frames` with the
/// frames as delivered. A transport that times its batches (the socket
/// transport, when telemetry is on) books in `busy_ns` the wall time it
/// spent on this batch alone — sending it and reading its reply. Those
/// intervals never overlap, so a wave's `busy_ns` values sum to at most
/// the wave's duration.
#[derive(Debug)]
pub struct Batch {
    pub dst: usize,
    pub frames: Vec<Vec<u8>>,
    pub busy_ns: u64,
}

/// Carries encoded frames to their destination nodes. Implementations
/// must deliver each batch in order and return exactly the frames that
/// arrived; they never interpret payloads (the landing stage decodes).
pub trait WireTransport {
    /// Route one wave — at most one batch per destination — returning
    /// each batch's frames as delivered (same order) in place. A socket
    /// transport sends every batch before it reads any reply, so the
    /// destinations work concurrently. `Err` is a transport-level
    /// failure: the peer died ([`WireError::PeerGone`]), went silent
    /// past the deadline ([`WireError::Timeout`]), or answered with the
    /// wrong frame count ([`WireError::ReplyCount`]) or a bad control
    /// frame ([`WireError::BadControl`]). A frame the peer *rejected*
    /// (decode failure) still fails loudly via panic, because dropped
    /// traffic is a protocol bug, not a transport condition.
    fn route_wave(&mut self, wave: &mut [Batch]) -> Result<(), WireError>;
    /// Orderly end-of-run: tear down remote peers and collect their
    /// final per-process accounting ([`RemoteReport`]). In-process
    /// transports have no remote book, so the default returns nothing.
    fn finish(&mut self) -> Vec<RemoteReport> {
        Vec::new()
    }
}

/// In-process delivery: frames arrive exactly as posted. This is the
/// strict-mode transport for the sm_* backends — the bytes still pass
/// through `to_bytes`/`from_bytes`, only the carry is a no-op.
pub struct Loopback;

impl WireTransport for Loopback {
    fn route_wave(&mut self, _wave: &mut [Batch]) -> Result<(), WireError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_msg() -> WireMsg {
        WireMsg::Push {
            hdr: WireHeader {
                src: 1,
                dst: 2,
                superstep: 3,
                loop_id: 4,
                array: 5,
                blocks: vec![7, 8],
            },
            start_block: 7,
            n_blocks: 2,
            words: vec![1.5f64.to_bits(), f64::NAN.to_bits()],
        }
    }

    /// Pins the v1 layout byte for byte: any accidental reordering,
    /// widening or endianness change of the header breaks this test,
    /// which is the cue to bump `WIRE_VERSION` instead.
    #[test]
    fn golden_v1_push_frame() {
        let bytes = push_msg().to_bytes();
        let mut want = Vec::new();
        want.extend_from_slice(&0xFD57u16.to_le_bytes()); // magic
        want.extend_from_slice(&1u16.to_le_bytes()); // version
        want.push(0); // kind = Push
        for f in [1u32, 2, 3, 4, 5] {
            want.extend_from_slice(&f.to_le_bytes()); // src dst step loop array
        }
        want.extend_from_slice(&2u32.to_le_bytes()); // block-list len
        want.extend_from_slice(&7u32.to_le_bytes());
        want.extend_from_slice(&8u32.to_le_bytes());
        want.extend_from_slice(&7u32.to_le_bytes()); // start_block
        want.extend_from_slice(&2u32.to_le_bytes()); // n_blocks
        want.extend_from_slice(&2u64.to_le_bytes()); // payload words
        want.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        want.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(bytes, want);
    }

    #[test]
    fn round_trip_every_variant() {
        let hdr = WireHeader::for_blocks(0, 3, (9, 2), u32::MAX, 12, 1);
        let msgs = vec![
            push_msg(),
            WireMsg::Flush {
                hdr: hdr.clone(),
                start_block: 12,
                n_blocks: 1,
                words: vec![0, u64::MAX],
            },
            WireMsg::Copy {
                hdr: hdr.clone(),
                start_word: 96,
                words: vec![42],
            },
            WireMsg::Diff {
                hdr: hdr.clone(),
                block: 12,
                mask: 0b101,
                words: vec![1, 2],
            },
            WireMsg::Strided {
                hdr,
                base: 640,
                run_len: 2,
                stride: 10,
                count: 3,
                words: vec![1, 2, 3, 4, 5, 6],
            },
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(WireMsg::from_bytes(&bytes).unwrap(), m, "kind {}", m.kind());
        }
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let good = push_msg().to_bytes();
        assert_eq!(WireMsg::from_bytes(&[]), Err(WireError::Truncated));

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            WireMsg::from_bytes(&bad),
            Err(WireError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[2] = 0x7F; // future version
        assert_eq!(WireMsg::from_bytes(&bad), Err(WireError::BadVersion(0x7F)));

        let mut bad = good.clone();
        bad[4] = 200;
        assert_eq!(WireMsg::from_bytes(&bad), Err(WireError::BadKind(200)));

        let mut bad = good.clone();
        bad.truncate(bad.len() - 1);
        assert_eq!(WireMsg::from_bytes(&bad), Err(WireError::Truncated));

        let mut bad = good.clone();
        bad.push(0);
        assert_eq!(WireMsg::from_bytes(&bad), Err(WireError::TrailingBytes(1)));

        // Diff whose mask popcount disagrees with its payload.
        let diff = WireMsg::Diff {
            hdr: WireHeader::for_blocks(0, 1, (0, 0), 0, 0, 1),
            block: 0,
            mask: 0b11,
            words: vec![1, 2],
        };
        let mut bytes = diff.to_bytes();
        // mask sits 8 bytes before the payload-length word.
        let mask_off = bytes.len() - 2 * 8 - 8 - 8;
        bytes[mask_off] = 0b111;
        assert_eq!(
            WireMsg::from_bytes(&bytes),
            Err(WireError::CountMismatch("diff mask popcount vs payload"))
        );
    }

    #[test]
    fn payload_bytes_match_note_msg_accounting() {
        assert_eq!(push_msg().payload_bytes(), 16);
        let diff = WireMsg::Diff {
            hdr: WireHeader::for_blocks(0, 1, (0, 0), 0, 0, 1),
            block: 0,
            mask: 0b1101,
            words: vec![1, 2, 3],
        };
        assert_eq!(diff.payload_bytes() as usize, diff_bytes(0b1101));
    }

    #[test]
    fn frame_decoder_reassembles_across_arbitrary_splits() {
        let frames: Vec<Vec<u8>> = vec![vec![], vec![0xAB], (0u8..=255).collect()];
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f);
        }
        // Worst case: the stream arrives one byte at a time.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.push(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert!(!dec.has_partial());
    }

    #[test]
    fn frame_decoder_rejects_oversized_and_flags_truncated() {
        // A length prefix above the cap fails before any payload arrives.
        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(WireError::FrameTooBig(MAX_FRAME_BYTES + 1))
        );

        // A truncated trailing frame is visible as a partial at EOF.
        let mut stream = Vec::new();
        write_frame(&mut stream, &[1, 2, 3, 4]);
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..stream.len() - 1]);
        assert_eq!(dec.next_frame(), Ok(None));
        assert!(
            dec.has_partial(),
            "truncated trailing frame must be flagged"
        );
    }

    #[test]
    fn ctrl_round_trip_and_rejects() {
        let msgs = vec![
            CtrlMsg::Hello {
                node: 3,
                version: WIRE_VERSION,
            },
            CtrlMsg::HelloAck {
                nprocs: 8,
                wpb: 4,
                seg_words: 4096,
            },
            CtrlMsg::Batch { n: 17 },
            CtrlMsg::Bye,
            CtrlMsg::ByeStats {
                frames: 9,
                payload_bytes: 1234,
                metrics: Vec::new(),
            },
            CtrlMsg::ByeStats {
                frames: 2,
                payload_bytes: 64,
                metrics: vec![0xAA; 37],
            },
            CtrlMsg::Err {
                detail: "frame length 67108865 exceeds cap".into(),
            },
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(CtrlMsg::from_bytes(&bytes).unwrap(), m);
            // Data and control magics are disjoint: each decoder rejects
            // the other's frames.
            assert!(matches!(
                WireMsg::from_bytes(&bytes),
                Err(WireError::BadMagic(CTRL_MAGIC))
            ));
            let mut trailing = m.to_bytes();
            trailing.push(0);
            assert_eq!(
                CtrlMsg::from_bytes(&trailing),
                Err(WireError::TrailingBytes(1))
            );
        }
        assert!(matches!(
            CtrlMsg::from_bytes(&push_msg().to_bytes()),
            Err(WireError::BadMagic(WIRE_MAGIC))
        ));
        assert_eq!(CtrlMsg::from_bytes(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn bye_stats_rejects_lying_metrics_length() {
        let bytes = CtrlMsg::ByeStats {
            frames: 1,
            payload_bytes: 8,
            metrics: vec![1, 2, 3],
        }
        .to_bytes();
        // Inflate the metrics length prefix past the frame end.
        let len_off = bytes.len() - 3 - 4;
        let mut bad = bytes.clone();
        bad[len_off..len_off + 4].copy_from_slice(&100u32.to_le_bytes());
        assert_eq!(CtrlMsg::from_bytes(&bad), Err(WireError::Truncated));
        // A length above the cap is rejected before any allocation.
        let mut bad = bytes;
        bad[len_off..len_off + 4].copy_from_slice(&(CTRL_MAX_METRICS as u32 + 1).to_le_bytes());
        assert_eq!(
            CtrlMsg::from_bytes(&bad),
            Err(WireError::CountMismatch("bye-stats metrics length"))
        );
    }

    /// The satellite fix: reconciliation failures name the node, the
    /// diverging counter, and both sides' values.
    #[test]
    fn reconcile_stats_reports_which_counter_diverged() {
        let remote = RemoteReport {
            node: 2,
            frames: 10,
            payload_bytes: 800,
            metrics: Vec::new(),
        };
        assert_eq!(reconcile_stats(2, 10, 800, &remote), Ok(()));
        let frames_err = reconcile_stats(2, 9, 800, &remote).unwrap_err();
        assert_eq!(
            frames_err,
            WireError::StatsMismatch {
                node: 2,
                counter: "frames",
                local: 9,
                remote: 10,
            }
        );
        assert_eq!(
            frames_err.to_string(),
            "node 2 frames counter diverged: coordinator 9 vs node 10"
        );
        // Frames agreeing but payload diverging blames payload_bytes.
        assert_eq!(
            reconcile_stats(2, 10, 792, &remote),
            Err(WireError::StatsMismatch {
                node: 2,
                counter: "payload_bytes",
                local: 792,
                remote: 800,
            })
        );
    }

    /// `scatter` visits each payload word at the address its kind's
    /// geometry names, in payload order.
    #[test]
    fn scatter_places_every_payload_word() {
        let hdr = WireHeader::for_blocks(0, 1, (0, 0), 0, 0, 1);
        let cases = vec![
            (push_msg(), vec![28, 29]),
            (
                WireMsg::Copy {
                    hdr: hdr.clone(),
                    start_word: 5,
                    words: vec![1, 2],
                },
                vec![5, 6],
            ),
            (
                WireMsg::Diff {
                    hdr: hdr.clone(),
                    block: 2,
                    mask: 0b1010,
                    words: vec![1, 2],
                },
                vec![9, 11],
            ),
            (
                WireMsg::Strided {
                    hdr,
                    base: 3,
                    run_len: 2,
                    stride: 10,
                    count: 2,
                    words: vec![1, 2, 3, 4],
                },
                vec![3, 4, 13, 14],
            ),
        ];
        for (msg, want) in cases {
            let mut got = Vec::new();
            msg.scatter(4, |a, w| got.push((a, w)));
            let want: Vec<(usize, u64)> = want.into_iter().zip(msg.words().to_vec()).collect();
            assert_eq!(got, want, "kind {}", msg.kind());
        }
    }

    #[test]
    fn reply_errors_name_the_node() {
        let e = WireError::ReplyCount {
            node: 1,
            sent: 3,
            got: 2,
        };
        assert_eq!(e.to_string(), "node 1 answered a batch of 3 frames with 2");
        let e = WireError::BadControl {
            node: 2,
            detail: "unknown kind byte 9".into(),
        };
        assert_eq!(
            e.to_string(),
            "node 2 sent a bad control reply: unknown kind byte 9"
        );
    }

    #[test]
    fn transport_finish_defaults_to_no_remote_reports() {
        assert!(Loopback.finish().is_empty());
    }
}
