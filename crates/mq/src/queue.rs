//! Bounded PUSH/PULL pipeline.
//!
//! Built on a mutex-protected ring plus condvars rather than an external
//! channel so the queue can expose backlog length (the commit process and
//! the eviction policy both need it) and precise disconnect semantics:
//! consumers drain everything that was sent before the last publisher
//! dropped.

use std::collections::VecDeque;
use std::sync::Arc;

use syncguard::{level, Condvar, Mutex};

/// Error from a blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// All publishers dropped and the queue is empty.
    Disconnected,
    /// `recv_timeout` elapsed.
    Timeout,
}

/// Error from a non-blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Queue currently empty (publishers still connected).
    Empty,
    /// All publishers dropped and the queue is empty.
    Disconnected,
}

struct State<T> {
    buf: VecDeque<T>,
    publishers: usize,
    consumers: usize,
    sent: u64,
    received: u64,
    /// Broker link down: sends fail fast until [`Publisher::heal`].
    severed: bool,
    /// `[lo, hi)` sequence intervals wiped by lossy severs — the exact
    /// set of messages that left the buffer *without* being consumed.
    /// One entry per fault event.
    wipes: Vec<(u64, u64)>,
    /// Total sever events (diagnostics).
    wipe_gen: u64,
    /// Scripted duplication: the next `dup_next` successful sends are
    /// enqueued twice (fault-plane message duplication).
    dup_next: u32,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Create a bounded PUSH/PULL pair.
pub fn push_pull<T>(capacity: usize) -> (Publisher<T>, Consumer<T>) {
    assert!(capacity > 0, "queue capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(level::QUEUE, "mq.queue", State {
            buf: VecDeque::with_capacity(capacity.min(1024)),
            publishers: 1,
            consumers: 1,
            sent: 0,
            received: 0,
            severed: false,
            wipes: Vec::new(),
            wipe_gen: 0,
            dup_next: 0,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Publisher { shared: Arc::clone(&shared) }, Consumer { shared })
}

/// Why a [`Publisher::send_seq`] could not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFault {
    /// The broker link is severed ([`Publisher::sever`]); retry after
    /// [`Publisher::heal`].
    Severed,
    /// Every consumer is gone for good.
    NoConsumers,
}

/// Broker-side view the redelivery layer reconciles against: how far the
/// FIFO has drained and which sequence intervals were wiped by lossy
/// severs (messages in those intervals were provably lost; everything
/// else below `received` was provably consumed).
#[derive(Debug, Clone)]
pub struct LinkView {
    /// Messages removed from the broker buffer so far — consumed by a
    /// receiver or wiped by a sever. A message enqueued with sequence
    /// `s` has left the buffer iff `s < received`.
    pub received: u64,
    /// Link currently down.
    pub severed: bool,
    /// `[lo, hi)` sequence intervals wiped by lossy severs. One entry
    /// per fault event, so this stays tiny.
    pub wipes: Vec<(u64, u64)>,
}

impl LinkView {
    /// Was the message enqueued at `seq` lost with the broker?
    pub fn lost(&self, seq: u64) -> bool {
        self.wipes.iter().any(|&(lo, hi)| lo <= seq && seq < hi)
    }
}

/// Sending side. Clone to add publishers.
pub struct Publisher<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Publisher<T> {
    /// Block until there is room, then enqueue. Returns `Err(msg)` when
    /// every consumer is gone or the broker link is severed (callers that
    /// must survive a severed link wrap this in [`ReliablePublisher`]).
    ///
    /// [`ReliablePublisher`]: crate::redelivery::ReliablePublisher
    pub fn send(&self, msg: T) -> Result<(), T> {
        syncguard::enter_blocking("mq::Publisher::send");
        let mut st = self.shared.state.lock();
        loop {
            if st.consumers == 0 || st.severed {
                return Err(msg);
            }
            if st.buf.len() < self.shared.capacity {
                st.buf.push_back(msg);
                st.sent += 1;
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            self.shared.not_full.wait(&mut st);
        }
    }

    /// Enqueue without blocking; `Err(msg)` if full, severed, or no
    /// consumers.
    pub fn try_send(&self, msg: T) -> Result<(), T> {
        let mut st = self.shared.state.lock();
        if st.consumers == 0 || st.severed || st.buf.len() >= self.shared.capacity {
            return Err(msg);
        }
        st.buf.push_back(msg);
        st.sent += 1;
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Messages currently waiting.
    pub fn backlog(&self) -> usize {
        self.shared.state.lock().buf.len()
    }

    /// Simulate broker loss: the link goes down, every buffered message
    /// is wiped (recorded as a lost-sequence interval for the redelivery
    /// layer), and sends fail fast until [`heal`](Self::heal). Blocked
    /// senders are woken so they can observe the fault.
    pub fn sever(&self) -> usize {
        let mut st = self.shared.state.lock();
        st.severed = true;
        let lost = st.buf.len();
        if lost > 0 {
            let hi = st.sent;
            let lo = hi - lost as u64;
            st.wipes.push((lo, hi));
            // Wiped messages are gone from the buffer: advance `received`
            // past them so sequence/pop alignment survives the wipe.
            st.received = hi;
            st.buf.clear();
        }
        st.wipe_gen += 1;
        drop(st);
        self.shared.not_full.notify_all();
        lost
    }

    /// Partition the link *without* broker loss: sends fail fast until
    /// [`heal`](Self::heal), but messages already buffered at the broker
    /// survive and keep draining to consumers.
    pub fn partition(&self) {
        let mut st = self.shared.state.lock();
        st.severed = true;
        drop(st);
        self.shared.not_full.notify_all();
    }

    /// Bring a severed or partitioned broker link back up.
    pub fn heal(&self) {
        self.shared.state.lock().severed = false;
    }

    /// Arm scripted message duplication: the next `n` messages enqueued
    /// through [`send_seq`](Self::send_seq) are delivered twice
    /// (back-to-back), modelling a fault-plane duplicated send.
    pub fn arm_duplicates(&self, n: u32) {
        self.shared.state.lock().dup_next += n;
    }

    /// Snapshot the broker-side drain state (see [`LinkView`]).
    pub fn link_view(&self) -> LinkView {
        let st = self.shared.state.lock();
        LinkView { received: st.received, severed: st.severed, wipes: st.wipes.clone() }
    }
}

impl<T: Clone> Publisher<T> {
    /// Like [`send`](Self::send), but reports the FIFO sequence assigned
    /// to the message so the redelivery layer can later prove whether it
    /// was consumed or lost. Fails fast (never blocks) on a severed link.
    pub fn send_seq(&self, msg: &T) -> Result<u64, SendFault> {
        syncguard::enter_blocking("mq::Publisher::send_seq");
        let mut st = self.shared.state.lock();
        loop {
            if st.severed {
                return Err(SendFault::Severed);
            }
            if st.consumers == 0 {
                return Err(SendFault::NoConsumers);
            }
            if st.buf.len() < self.shared.capacity {
                let seq = st.sent;
                st.buf.push_back(msg.clone());
                st.sent += 1;
                if st.dup_next > 0 && st.buf.len() < self.shared.capacity {
                    st.dup_next -= 1;
                    st.buf.push_back(msg.clone());
                    st.sent += 1;
                }
                self.shared.not_empty.notify_one();
                return Ok(seq);
            }
            self.shared.not_full.wait(&mut st);
        }
    }
}

impl<T> Clone for Publisher<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().publishers += 1;
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Publisher<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.publishers -= 1;
        if st.publishers == 0 {
            // Wake consumers so they can observe the disconnect.
            drop(st);
            self.shared.not_empty.notify_all();
        }
    }
}

/// Receiving side. Clone to add competing consumers (each message goes to
/// exactly one).
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Consumer<T> {
    /// Block until a message arrives or all publishers disconnect.
    pub fn recv(&self) -> Result<T, RecvError> {
        syncguard::enter_blocking("mq::Consumer::recv");
        let mut st = self.shared.state.lock();
        loop {
            if let Some(msg) = st.buf.pop_front() {
                st.received += 1;
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if st.publishers == 0 {
                return Err(RecvError::Disconnected);
            }
            self.shared.not_empty.wait(&mut st);
        }
    }

    /// Block with a timeout. When the deadline and a disconnect hold
    /// simultaneously the disconnect wins: a timed-out wait re-checks the
    /// buffer (a message that slipped in still wins) and the publisher
    /// count before reporting `Timeout`, so a producer crash during the
    /// final wait is never masked as a timeout.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvError> {
        syncguard::enter_blocking("mq::Consumer::recv_timeout");
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        loop {
            if let Some(msg) = st.buf.pop_front() {
                st.received += 1;
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if st.publishers == 0 {
                return Err(RecvError::Disconnected);
            }
            if self.shared.not_empty.wait_until(&mut st, deadline).timed_out() {
                // The wait expired, but the state may have changed while
                // we raced the deadline: settle in priority order —
                // message, then disconnect, then timeout.
                if let Some(msg) = st.buf.pop_front() {
                    st.received += 1;
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if st.publishers == 0 {
                    return Err(RecvError::Disconnected);
                }
                return Err(RecvError::Timeout);
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.state.lock();
        if let Some(msg) = st.buf.pop_front() {
            st.received += 1;
            self.shared.not_full.notify_one();
            return Ok(msg);
        }
        if st.publishers == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Messages currently waiting.
    pub fn backlog(&self) -> usize {
        self.shared.state.lock().buf.len()
    }

    /// (sent, received) totals since creation.
    pub fn counters(&self) -> (u64, u64) {
        let st = self.shared.state.lock();
        (st.sent, st.received)
    }
}

impl<T> Clone for Consumer<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().consumers += 1;
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.consumers -= 1;
        if st.consumers == 0 {
            drop(st);
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_single_thread() {
        let (tx, rx) = push_pull::<u32>(16);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.backlog(), 10);
        for i in 0..10 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(rx.counters(), (10, 10));
    }

    #[test]
    fn disconnect_after_drain() {
        let (tx, rx) = push_pull::<u32>(4);
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_without_consumers() {
        let (tx, rx) = push_pull::<u32>(4);
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
        assert_eq!(tx.try_send(8), Err(8));
    }

    #[test]
    fn try_send_respects_capacity() {
        let (tx, _rx) = push_pull::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(3));
    }

    #[test]
    fn backpressure_blocks_and_releases() {
        let (tx, rx) = push_pull::<u32>(1);
        tx.send(0).unwrap();
        let t = std::thread::spawn(move || {
            tx.send(1).unwrap(); // blocks until consumer pops
            drop(tx);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 0);
        assert_eq!(rx.recv().unwrap(), 1);
        t.join().unwrap();
    }

    #[test]
    fn producer_crash_during_recv_reports_disconnect() {
        // Regression (ISSUE 9): a producer crashing while the consumer is
        // parked in `recv_timeout` must surface as `Disconnected`, not as
        // a timeout — disconnect wins whenever both could hold.
        let (tx, rx) = push_pull::<u32>(4);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            drop(tx); // crash: publisher dies without sending
        });
        let start = std::time::Instant::now();
        let got = rx.recv_timeout(Duration::from_secs(30));
        assert_eq!(got, Err(RecvError::Disconnected));
        assert!(start.elapsed() < Duration::from_secs(5), "must not run out the clock");
        producer.join().unwrap();
    }

    #[test]
    fn disconnect_wins_over_timeout_when_both_hold() {
        // Deadline already expired *and* all publishers gone: the settle
        // order is message > disconnect > timeout.
        let (tx, rx) = push_pull::<u32>(4);
        tx.send(9).unwrap();
        drop(tx);
        // A buffered message still wins at an expired deadline…
        assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(9));
        // …and with the buffer empty the disconnect wins over the timeout.
        assert_eq!(rx.recv_timeout(Duration::ZERO), Err(RecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = push_pull::<u32>(4);
        let start = std::time::Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)), Err(RecvError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn many_publishers_one_consumer() {
        let (tx, rx) = push_pull::<u32>(64);
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(t * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got.len(), 400);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 400, "no message may be duplicated or lost");
    }

    #[test]
    fn panicked_worker_does_not_wedge_publishers() {
        // A worker thread that panics mid-consumption must not poison the
        // queue lock: syncguard locks are non-poisoning, so every
        // subsequent publisher and consumer proceeds normally.
        let (tx, rx) = push_pull::<u32>(16);
        tx.send(1).unwrap();
        let rx2 = rx.clone();
        let worker = std::thread::spawn(move || {
            let v = rx2.recv().unwrap();
            panic!("worker dies holding queue state in scope: {v}");
        });
        assert!(worker.join().is_err());
        tx.send(2).unwrap();
        tx.send(3).unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
        assert_eq!(rx.backlog(), 0);
    }

    #[test]
    fn severed_link_fails_sends_fast_and_heals() {
        let (tx, rx) = push_pull::<u32>(4);
        tx.send(1).unwrap();
        assert_eq!(tx.sever(), 1, "one buffered message wiped");
        assert!(tx.link_view().severed);
        assert_eq!(tx.send(2), Err(2));
        assert_eq!(tx.try_send(3), Err(3));
        assert_eq!(tx.send_seq(&4), Err(SendFault::Severed));
        // Consumers see an empty-but-connected queue while severed.
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.heal();
        assert!(!tx.link_view().severed);
        tx.send(5).unwrap();
        assert_eq!(rx.recv().unwrap(), 5);
    }

    #[test]
    fn lossy_sever_records_exact_wipe_intervals() {
        let (tx, rx) = push_pull::<u32>(8);
        // seqs 0,1 consumed; seqs 2,3 wiped; seq 4 sent after heal.
        assert_eq!(tx.send_seq(&10), Ok(0));
        assert_eq!(tx.send_seq(&11), Ok(1));
        assert_eq!(rx.recv().unwrap(), 10);
        assert_eq!(rx.recv().unwrap(), 11);
        assert_eq!(tx.send_seq(&12), Ok(2));
        assert_eq!(tx.send_seq(&13), Ok(3));
        assert_eq!(tx.sever(), 2);
        tx.heal();
        assert_eq!(tx.send_seq(&14), Ok(4));
        let view = tx.link_view();
        assert_eq!(view.wipes, vec![(2, 4)]);
        assert!(!view.lost(0) && !view.lost(1), "consumed messages are not lost");
        assert!(view.lost(2) && view.lost(3), "wiped messages are provably lost");
        assert!(!view.lost(4));
        // Alignment survives the wipe: seq 4 pops as received reaches 5.
        assert_eq!(view.received, 4);
        assert_eq!(rx.recv().unwrap(), 14);
        assert_eq!(tx.link_view().received, 5);
    }

    #[test]
    fn armed_duplicates_deliver_twice_back_to_back() {
        let (tx, rx) = push_pull::<u32>(8);
        tx.arm_duplicates(1);
        assert_eq!(tx.send_seq(&7), Ok(0));
        assert_eq!(tx.send_seq(&8), Ok(2), "the duplicate consumed seq 1");
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(rx.recv().unwrap(), 8);
    }

    #[test]
    fn competing_consumers_partition_messages() {
        let (tx, rx1) = push_pull::<u32>(256);
        let rx2 = rx1.clone();
        for i in 0..200 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let h1 = std::thread::spawn(move || {
            let mut v = Vec::new();
            while let Ok(m) = rx1.recv() {
                v.push(m);
            }
            v
        });
        let h2 = std::thread::spawn(move || {
            let mut v = Vec::new();
            while let Ok(m) = rx2.recv() {
                v.push(m);
            }
            v
        });
        let mut all = h1.join().unwrap();
        all.extend(h2.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }
}
