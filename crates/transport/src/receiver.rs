//! The receiving side of the log-shipping channel.
//!
//! [`ShipReceiver`] listens on a TCP address, accepts shipper sessions
//! one at a time (the channel has one shipper), performs the
//! HELLO/RESUME handshake, and enqueues verified epochs in strict
//! sequence order into a bounded buffer. [`NetEpochSource`] drains that
//! buffer as an [`EpochSource`], so the entire existing ingest stack —
//! `ingest_epoch`'s retry loop, `DurableBackup`, the backup fleet —
//! consumes a networked stream exactly as it consumes an in-memory one.
//!
//! Exactly-once delivery is the receiver's job: the shipper may deliver
//! any epoch more than once (every resync re-ships the in-flight
//! window), so the receiver dedups by epoch sequence — an epoch below
//! `next_expected` is already buffered or consumed and is dropped (and
//! counted in `net_epochs_deduped_total`). An epoch *above*
//! `next_expected` means bytes were lost inside a session, which the
//! framed protocol makes impossible without a CRC failure first — it is
//! treated as a protocol violation and tears the session down. Acks are
//! cumulative and advance only when the consumer actually fetches an
//! epoch, so the shipper's window tracks *durable* progress, not
//! buffered progress.

use crate::frame::{read_frame, write_frame, Frame, ReadEvent};
use aets_common::{Error, Result};
use aets_telemetry::trace::stages;
use aets_telemetry::{names, Span, SpanId, Telemetry};
use aets_wal::{EncodedEpoch, EpochSource};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tunables of the receiving endpoint.
#[derive(Debug, Clone)]
pub struct ReceiverConfig {
    /// Socket read timeout: the granularity at which a blocked read
    /// notices teardown, and the unit of idle detection.
    pub io_timeout: Duration,
    /// A session that stays silent this long, with nothing buffered for
    /// the consumer, is presumed half-open and torn down (the shipper will
    /// reconnect). While received epochs await the consumer the shipper
    /// may be waiting on their acks, so that silence does not count.
    pub conn_idle_timeout: Duration,
    /// How long a [`NetEpochSource::fetch`] waits for its epoch before
    /// reporting a stall (`None`) to the ingest retry loop.
    pub fetch_timeout: Duration,
    /// Bounded buffer of verified-but-unconsumed epochs; a full buffer
    /// stops reading from the socket (backpressure to the shipper via
    /// TCP flow control and the unmoving ack floor).
    pub max_buffered: usize,
    /// Durable floor to resume from: `Some(d)` tells the first handshake
    /// that epochs `..= d` are already consumed (e.g. a `DurableBackup`
    /// restarting with `next_seq() == d + 1`). `None` starts fresh.
    pub initial_floor: Option<u64>,
}

impl Default for ReceiverConfig {
    fn default() -> Self {
        Self {
            io_timeout: Duration::from_millis(25),
            conn_idle_timeout: Duration::from_millis(500),
            fetch_timeout: Duration::from_millis(300),
            max_buffered: 64,
            initial_floor: None,
        }
    }
}

#[derive(Debug)]
struct RecvState {
    /// Verified epochs awaiting consumption, in sequence order.
    queue: VecDeque<EncodedEpoch>,
    /// Next sequence the socket side will accept into the queue.
    next_expected: Option<u64>,
    /// Highest sequence handed to the consumer (the cumulative ack).
    last_durable: Option<u64>,
    /// Stream identity from the first HELLO.
    hello: Option<(u64, u64)>,
}

struct RecvShared {
    cfg: ReceiverConfig,
    tel: Arc<Telemetry>,
    state: Mutex<RecvState>,
    /// Signals queue growth (to fetchers) and queue drain (to the
    /// backpressured socket reader) and HELLO arrival.
    queue_cv: Condvar,
    /// Signals durable-floor advancement to the ack writer.
    ack_cv: Condvar,
    closed: AtomicBool,
}

/// The listening endpoint. Bind it, hand [`ShipReceiver::source`] to the
/// ingest side, and point the shipper at [`ShipReceiver::addr`].
pub struct ShipReceiver {
    addr: SocketAddr,
    shared: Arc<RecvShared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ShipReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShipReceiver").field("addr", &self.addr).finish()
    }
}

impl ShipReceiver {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop.
    pub fn bind(addr: &str, cfg: ReceiverConfig, tel: Arc<Telemetry>) -> Result<ShipReceiver> {
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::Io(format!("bind {addr}: {e}")))?;
        let local = listener.local_addr().map_err(|e| Error::Io(e.to_string()))?;
        listener.set_nonblocking(true).map_err(|e| Error::Io(e.to_string()))?;
        let initial_floor = cfg.initial_floor;
        let shared = Arc::new(RecvShared {
            cfg,
            tel,
            state: Mutex::new(RecvState {
                queue: VecDeque::new(),
                next_expected: initial_floor.map(|d| d + 1),
                last_durable: initial_floor,
                hello: None,
            }),
            queue_cv: Condvar::new(),
            ack_cv: Condvar::new(),
            closed: AtomicBool::new(false),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(ShipReceiver { addr: local, shared, accept_thread: Some(accept_thread) })
    }

    /// The bound address the shipper should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// An [`EpochSource`] view over the received stream. `num_epochs` /
    /// `first_seq` block until the first handshake announces the stream.
    pub fn source(&self) -> NetEpochSource {
        NetEpochSource { shared: self.shared.clone() }
    }

    /// Stops accepting and tears down the live session.
    pub fn shutdown(&mut self) {
        self.shared.closed.store(true, Ordering::Relaxed);
        self.shared.queue_cv.notify_all();
        self.shared.ack_cv.notify_all();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ShipReceiver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<RecvShared>) {
    while !shared.closed.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((conn, _)) => {
                // Sessions are served sequentially: the channel has one
                // shipper, and a dead session's replacement must observe
                // the post-teardown durable floor.
                handle_session(conn, shared);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

/// Runs one shipper session to completion or teardown.
fn handle_session(mut conn: TcpStream, shared: &Arc<RecvShared>) {
    let cfg = &shared.cfg;
    let tel = &shared.tel;
    if conn.set_read_timeout(Some(cfg.io_timeout)).is_err() || conn.set_nodelay(true).is_err() {
        return;
    }
    // --- Handshake: HELLO in, RESUME out. ---
    let hello_deadline = Instant::now() + cfg.conn_idle_timeout;
    let (first_seq, stream_epochs) = loop {
        match read_frame(&mut conn) {
            Ok(ReadEvent::Frame(Frame::Hello { first_seq, stream_epochs }, n)) => {
                tel.registry().counter(names::NET_BYTES_RECV).add(n as u64);
                break (first_seq, stream_epochs);
            }
            Ok(ReadEvent::Idle) if Instant::now() < hello_deadline => continue,
            Ok(ReadEvent::Frame(..)) | Err(_) => {
                tel.registry().counter(names::NET_FRAME_ERRORS).inc();
                return;
            }
            Ok(ReadEvent::Eof) | Ok(ReadEvent::Idle) => return,
        }
    };
    let resume = {
        let mut st = match shared.state.lock() {
            Ok(g) => g,
            Err(_) => return,
        };
        if st.hello.is_none() {
            st.hello = Some((first_seq, stream_epochs));
            if st.next_expected.is_none() {
                st.next_expected = Some(first_seq);
            }
            shared.queue_cv.notify_all();
        }
        Frame::Resume { last_durable_epoch: st.last_durable }
    };
    if write_frame(&mut conn, &resume).is_err() {
        return;
    }
    tel.registry().counter(names::NET_HANDSHAKES).inc();

    // --- Ack writer: pushes cumulative acks as the floor advances. ---
    let alive = Arc::new(AtomicBool::new(true));
    let ack_conn = match conn.try_clone() {
        Ok(c) => c,
        Err(_) => return,
    };
    let ack_shared = shared.clone();
    let ack_alive = alive.clone();
    let ack_thread = std::thread::spawn(move || ack_writer(ack_conn, &ack_shared, &ack_alive));

    // --- Read loop: verified, in-order, deduped, backpressured. ---
    let clock = tel.clock();
    // Trace context announced for the *next* epoch frame:
    // (epoch_seq, sender span id, arrival stamp on our clock).
    let mut pending_trace: Option<(u64, u64, u64)> = None;
    let mut last_activity = Instant::now();
    while alive.load(Ordering::Relaxed) && !shared.closed.load(Ordering::Relaxed) {
        match read_frame(&mut conn) {
            Ok(ReadEvent::Idle) => {
                // Silence counts only while we owe the shipper nothing.
                // With received epochs still unconsumed, a shipper whose
                // window is full is waiting on acks that advance at the
                // consumer's pace, however slow; once they are consumed
                // and acked, a silent peer is presumed dead.
                if awaiting_consumer(shared) {
                    last_activity = Instant::now();
                } else if last_activity.elapsed() > cfg.conn_idle_timeout {
                    break; // half-open session: reclaim the endpoint
                }
            }
            Ok(ReadEvent::Eof) => break,
            Ok(ReadEvent::Frame(frame, n)) => {
                last_activity = Instant::now();
                tel.registry().counter(names::NET_BYTES_RECV).add(n as u64);
                match frame {
                    Frame::Epoch(e) => {
                        let seq = e.id.raw();
                        let trace = pending_trace.take().filter(|(s, _, _)| *s == seq);
                        match admit_epoch(e, shared) {
                            Admit::Reject => {
                                tel.registry().counter(names::NET_FRAME_ERRORS).inc();
                                break;
                            }
                            // Deduped redelivery: already traced by the
                            // delivery that admitted it.
                            Admit::Duplicate => {}
                            // Record the receive under the *sender's*
                            // span id so the two endpoints' rings join on
                            // it; the span covers trace arrival →
                            // admission on this node's clock (cross-node
                            // stamps don't mix).
                            Admit::Admitted => {
                                if let Some((_, trace_id, arrived_us)) = trace {
                                    tel.spans().record(Span {
                                        id: SpanId(trace_id),
                                        epoch: seq,
                                        stage: stages::NET_RECV,
                                        group: None,
                                        start_us: arrived_us,
                                        end_us: (clock)(),
                                        parent: None,
                                    });
                                }
                            }
                        }
                    }
                    Frame::Trace { epoch_seq, trace_id, ship_start_us: _ } => {
                        pending_trace = Some((epoch_seq, trace_id, (clock)()));
                    }
                    // Extensions from a newer sender: verified, skipped.
                    Frame::Extension { .. } => {}
                    Frame::Shutdown => break,
                    // HELLO mid-session or receiver-bound frames echoed
                    // back: protocol violation.
                    _ => {
                        tel.registry().counter(names::NET_FRAME_ERRORS).inc();
                        break;
                    }
                }
            }
            Err(_) => {
                // Corrupt bytes: the stream can no longer be re-framed.
                tel.registry().counter(names::NET_FRAME_ERRORS).inc();
                break;
            }
        }
    }
    alive.store(false, Ordering::Relaxed);
    shared.ack_cv.notify_all();
    let _ = conn.shutdown(std::net::Shutdown::Both);
    let _ = ack_thread.join();
}

/// Whether verified epochs still wait in the buffer for the consumer.
fn awaiting_consumer(shared: &RecvShared) -> bool {
    shared.state.lock().is_ok_and(|st| !st.queue.is_empty())
}

/// Verifies, dedups, and enqueues one delivered epoch. Returns `false`
/// on a protocol violation that must tear the session down.
/// What [`admit_epoch`] did with a decoded epoch frame.
enum Admit {
    /// Freshly buffered for the consumer: this delivery is the one that
    /// lands in the epoch's timeline.
    Admitted,
    /// Redelivery of something already buffered or consumed — dropped by
    /// the dedup that makes at-least-once shipping exactly-once.
    Duplicate,
    /// Corrupt, out-of-order, or pre-HELLO: the session must die.
    Reject,
}

fn admit_epoch(e: EncodedEpoch, shared: &Arc<RecvShared>) -> Admit {
    if e.verify().is_err() {
        return Admit::Reject;
    }
    let Ok(mut st) = shared.state.lock() else { return Admit::Reject };
    loop {
        let next = match st.next_expected {
            Some(n) => n,
            None => return Admit::Reject, // epoch before HELLO established the stream
        };
        let seq = e.id.raw();
        if seq < next {
            shared.tel.registry().counter(names::NET_EPOCHS_DEDUPED).inc();
            return Admit::Duplicate;
        }
        if seq > next {
            // A gap inside a CRC-framed session: impossible without a
            // decode error first, so treat as protocol violation.
            return Admit::Reject;
        }
        if st.queue.len() < shared.cfg.max_buffered {
            st.queue.push_back(e);
            st.next_expected = Some(next + 1);
            shared.queue_cv.notify_all();
            return Admit::Admitted;
        }
        // Buffer full: block the socket side until the consumer drains.
        let (guard, timed_out) = match shared.queue_cv.wait_timeout(st, shared.cfg.io_timeout) {
            Ok(x) => x,
            Err(_) => return Admit::Reject,
        };
        st = guard;
        if shared.closed.load(Ordering::Relaxed) {
            return Admit::Reject;
        }
        let _ = timed_out; // loop re-checks capacity either way
    }
}

/// Sends a cumulative `Ack` every time the durable floor advances.
fn ack_writer(mut conn: TcpStream, shared: &Arc<RecvShared>, alive: &AtomicBool) {
    let mut sent: Option<u64> = None;
    loop {
        let to_send = {
            let Ok(mut st) = shared.state.lock() else { return };
            while st.last_durable == sent
                && alive.load(Ordering::Relaxed)
                && !shared.closed.load(Ordering::Relaxed)
            {
                let Ok((guard, _)) = shared.ack_cv.wait_timeout(st, shared.cfg.io_timeout) else {
                    return;
                };
                st = guard;
            }
            st.last_durable
        };
        if !alive.load(Ordering::Relaxed) || shared.closed.load(Ordering::Relaxed) {
            return;
        }
        if let Some(d) = to_send {
            if to_send != sent {
                if write_frame(&mut conn, &Frame::Ack { last_durable_epoch: d }).is_err() {
                    alive.store(false, Ordering::Relaxed);
                    let _ = conn.shutdown(std::net::Shutdown::Both);
                    return;
                }
                sent = to_send;
            }
        }
    }
}

/// The received stream as an [`EpochSource`]: the bridge into
/// `ingest_epoch` / `DurableBackup` / the fleet.
pub struct NetEpochSource {
    shared: Arc<RecvShared>,
}

impl std::fmt::Debug for NetEpochSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetEpochSource").finish()
    }
}

impl NetEpochSource {
    /// Blocks until the first handshake announces the stream identity.
    fn stream_identity(&self) -> (u64, u64) {
        let Ok(mut st) = self.shared.state.lock() else { return (0, 0) };
        loop {
            if let Some(id) = st.hello {
                return id;
            }
            if self.shared.closed.load(Ordering::Relaxed) {
                return (0, 0);
            }
            match self.shared.queue_cv.wait_timeout(st, Duration::from_millis(50)) {
                Ok((guard, _)) => st = guard,
                Err(_) => return (0, 0),
            }
        }
    }
}

impl EpochSource for NetEpochSource {
    fn num_epochs(&self) -> usize {
        self.stream_identity().1 as usize
    }

    fn first_seq(&self) -> u64 {
        self.stream_identity().0
    }

    fn fetch(&mut self, seq: u64, _attempt: u32) -> Option<EncodedEpoch> {
        let deadline = Instant::now() + self.shared.cfg.fetch_timeout;
        let Ok(mut st) = self.shared.state.lock() else { return None };
        loop {
            // Drop anything the consumer has moved past (it re-fetches
            // only forward; stale buffer entries are redeliveries).
            while st.queue.front().is_some_and(|e| e.id.raw() < seq) {
                st.queue.pop_front();
            }
            if st.queue.front().is_some_and(|e| e.id.raw() == seq) {
                let e = st.queue.pop_front();
                st.last_durable = Some(st.last_durable.map_or(seq, |d| d.max(seq)));
                // Wake the ack writer and a backpressured socket reader.
                self.shared.ack_cv.notify_all();
                self.shared.queue_cv.notify_all();
                return e;
            }
            let now = Instant::now();
            if now >= deadline || self.shared.closed.load(Ordering::Relaxed) {
                // Not delivered yet: report a stall so the ingest retry
                // loop backs off and re-requests.
                return None;
            }
            match self.shared.queue_cv.wait_timeout(st, deadline - now) {
                Ok((guard, _)) => st = guard,
                Err(_) => return None,
            }
        }
    }
}
