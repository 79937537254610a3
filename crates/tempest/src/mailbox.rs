//! Transport-agnostic envelope delivery between nodes.
//!
//! [`Mailbox`] is the staging area the wire-format refactor splits out
//! of the old monolithic plan/apply path: planning *posts* encoded byte
//! frames addressed to a destination node, a transport *routes* each
//! destination's inbox (in-process loopback, or a real socket to a
//! node process), and apply *consumes* the routed
//! frames in posting order. The mailbox itself never interprets frame
//! contents; it only guarantees per-destination FIFO order and recycles
//! frame buffers through a [`VecPool`] so steady-state supersteps
//! allocate nothing (the PR-6 scratch discipline).

use std::collections::VecDeque;

use crate::scratch::VecPool;

/// Per-node FIFO queues of encoded byte frames plus a recycling pool
/// for the frame buffers themselves.
#[derive(Debug)]
pub struct Mailbox {
    inboxes: Vec<VecDeque<Vec<u8>>>,
    bufs: VecPool<u8>,
}

impl Mailbox {
    /// A mailbox with one inbox per node.
    pub fn new(nprocs: usize) -> Self {
        Mailbox {
            inboxes: (0..nprocs).map(|_| VecDeque::new()).collect(),
            bufs: VecPool::default(),
        }
    }

    /// An empty frame buffer — recycled with its previous capacity if
    /// one is shelved, freshly allocated otherwise.
    pub fn take_buf(&mut self) -> Vec<u8> {
        self.bufs.take()
    }

    /// Shelve a consumed frame buffer for reuse.
    pub fn recycle_buf(&mut self, buf: Vec<u8>) {
        self.bufs.put(buf);
    }

    /// Queue an encoded frame for delivery to `dst`.
    pub fn post(&mut self, dst: usize, frame: Vec<u8>) {
        self.inboxes[dst].push_back(frame);
    }

    /// Drain `dst`'s inbox in posting order (the transport routes the
    /// returned batch as one delivery).
    pub fn take_inbox(&mut self, dst: usize) -> Vec<Vec<u8>> {
        self.inboxes[dst].drain(..).collect()
    }

    /// Frames currently queued for `dst`.
    pub fn pending(&self, dst: usize) -> usize {
        self.inboxes[dst].len()
    }

    /// True when every inbox has been drained — apply must leave the
    /// mailbox in this state (undelivered frames mean lost transfers).
    pub fn all_delivered(&self) -> bool {
        self.inboxes.iter().all(|q| q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_destination_fifo_and_recycling() {
        let mut m = Mailbox::new(2);
        let mut a = m.take_buf();
        a.extend_from_slice(b"first");
        let mut b = m.take_buf();
        b.extend_from_slice(b"second");
        m.post(1, a);
        m.post(1, b);
        m.post(0, vec![9]);
        assert_eq!(m.pending(1), 2);
        assert!(!m.all_delivered());
        let got = m.take_inbox(1);
        assert_eq!(got, vec![b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(m.take_inbox(0), vec![vec![9]]);
        assert!(m.all_delivered());
        let cap = got[0].capacity();
        for f in got {
            m.recycle_buf(f);
        }
        assert_eq!(m.take_buf().capacity(), cap, "frame buffer recycled");
    }
}
