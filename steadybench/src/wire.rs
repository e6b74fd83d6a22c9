//! A counting and timing [`Transport`] decorator for the process
//! engine's parent-side child links.
//!
//! Installed on every shard with
//! [`powersparse_engine::ProcessSimulator::wrap_transport`], it forwards
//! every call to the wrapped transport unchanged and records frames,
//! bytes, time spent in `send` and time spent blocked in `recv`. The
//! bytes on the wire are untouched, so a wrapped run is bit-identical to
//! an unwrapped one (pinned by `tests/wire_parity.rs`).

use powersparse_engine::wire::{Transport, WireError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared counters of every link wrapped with the same [`WireStats`].
#[derive(Debug, Default)]
pub struct WireStats {
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    send_ns: AtomicU64,
    frames_recv: AtomicU64,
    bytes_recv: AtomicU64,
    recv_ns: AtomicU64,
}

/// A snapshot of [`WireStats`], summed over the wrapped links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTotals {
    /// Frames the parent sent.
    pub frames_sent: u64,
    /// Bytes the parent sent (frame header included).
    pub bytes_sent: u64,
    /// Nanoseconds the parent spent inside `send`.
    pub send_ns: u64,
    /// Frames the parent received.
    pub frames_recv: u64,
    /// Bytes the parent received (frame header included).
    pub bytes_recv: u64,
    /// Nanoseconds the parent spent inside `recv`, mostly waiting for a
    /// child to finish its round.
    pub recv_ns: u64,
}

impl WireStats {
    /// Fresh, zeroed counters.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The counters as they stand now.
    pub fn totals(&self) -> WireTotals {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        WireTotals {
            frames_sent: load(&self.frames_sent),
            bytes_sent: load(&self.bytes_sent),
            send_ns: load(&self.send_ns),
            frames_recv: load(&self.frames_recv),
            bytes_recv: load(&self.bytes_recv),
            recv_ns: load(&self.recv_ns),
        }
    }
}

// Relaxed: each counter is a standalone statistic that publishes no other
// data, and it is read only after the run it counts has finished.
fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The decorator: a transport that counts what passes through it.
pub struct CountingTransport {
    inner: Box<dyn Transport>,
    stats: Arc<WireStats>,
}

impl CountingTransport {
    /// Wraps `inner`, accumulating into `stats`.
    pub fn new(inner: Box<dyn Transport>, stats: Arc<WireStats>) -> Self {
        Self { inner, stats }
    }

    /// The `wrap_transport` closure argument for one link.
    pub fn wrapper(
        stats: &Arc<WireStats>,
    ) -> impl FnOnce(Box<dyn Transport>) -> Box<dyn Transport> {
        let stats = Arc::clone(stats);
        move |inner| Box::new(Self::new(inner, stats))
    }
}

impl Transport for CountingTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let t = Instant::now();
        let result = self.inner.send(bytes);
        add(&self.stats.send_ns, nanos(t.elapsed()));
        if result.is_ok() {
            add(&self.stats.frames_sent, 1);
            add(&self.stats.bytes_sent, bytes.len() as u64);
        }
        result
    }

    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        let t = Instant::now();
        let result = self.inner.recv();
        add(&self.stats.recv_ns, nanos(t.elapsed()));
        if let Ok(bytes) = &result {
            add(&self.stats.frames_recv, 1);
            add(&self.stats.bytes_recv, bytes.len() as u64);
        }
        result
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.inner.set_timeout(timeout);
    }
}
