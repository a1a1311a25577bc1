//! Publisher-side redelivery over a lossy broker link.
//!
//! [`ReliablePublisher`] wraps a [`Publisher`] and keeps every message it
//! has sent in an *unacked window* until the broker provably consumed it.
//! The broker's FIFO drain counter plus the exact wipe intervals recorded
//! by lossy severs ([`Publisher::sever`]) let the window classify every
//! record with certainty:
//!
//! * `seq < received` and not inside a wipe interval → **consumed**,
//!   drop it from the window;
//! * `seq < received` and inside a wipe interval → **lost with the
//!   broker**, re-send it;
//! * `seq >= received` → still buffered at the broker, leave it alone;
//! * never assigned a sequence (the link was severed at publish time) →
//!   buffered locally, send it when the link heals.
//!
//! Because only provably-lost and never-sent messages are redelivered,
//! this layer by itself introduces **no duplicates**; Pacon's
//! `(path, write_id, generation)` idempotence is still what makes
//! scripted duplication (`Publisher::arm_duplicates`) and crash-replay
//! harmless downstream.

use std::collections::VecDeque;

use syncguard::{level, Mutex};

use crate::queue::{Publisher, SendFault};

/// Every consumer of the queue is gone for good — the publish cannot ever
/// be delivered (normal at shutdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

/// One window record: the sequence the broker assigned to the latest
/// delivered copy (`None` while the message waits for a healed link).
struct Record<T> {
    seq: Option<u64>,
    msg: T,
}

/// Outcome of a [`ReliablePublisher::flush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushOutcome {
    /// Messages (re)delivered to the broker by this flush.
    pub delivered: usize,
    /// Messages still waiting for the link to heal.
    pub pending: usize,
}

/// A [`Publisher`] that survives broker loss by buffering undeliverable
/// messages and redelivering provably-lost ones, in publish order.
pub struct ReliablePublisher<T: Clone> {
    inner: Publisher<T>,
    window: Mutex<VecDeque<Record<T>>>,
}

impl<T: Clone> ReliablePublisher<T> {
    pub fn new(inner: Publisher<T>) -> Self {
        Self {
            inner,
            window: Mutex::new(level::REDELIVERY, "mq.redelivery", VecDeque::new()),
        }
    }

    /// The wrapped publisher (for link control / inspection).
    pub fn inner(&self) -> &Publisher<T> {
        &self.inner
    }

    /// Publish with redelivery. On a severed link the message is buffered
    /// and `Ok` is returned — a later [`flush`](Self::flush) or publish
    /// delivers it once the link heals. `Err(Disconnected)` only when
    /// every consumer is gone for good.
    pub fn publish(&self, msg: T) -> Result<FlushOutcome, Disconnected> {
        let mut window = self.window.lock();
        window.push_back(Record { seq: None, msg });
        Self::settle(&self.inner, &mut window)
    }

    /// Reconcile the window against the broker: drop consumed records,
    /// re-send lost and never-sent ones (in order).
    pub fn flush(&self) -> Result<FlushOutcome, Disconnected> {
        let mut window = self.window.lock();
        Self::settle(&self.inner, &mut window)
    }

    /// Messages not yet provably consumed (delivered-but-buffered plus
    /// waiting-for-heal).
    pub fn unacked(&self) -> usize {
        self.window.lock().len()
    }

    /// Is some message waiting to be (re)sent — never delivered, or
    /// delivered and provably lost with the broker? Never blocks and never
    /// sends, so the queue's consumer may ask. `None` while a publisher
    /// holds the window: it may be sending, and may block on a full queue
    /// that only the consumer can drain.
    pub fn try_has_undelivered(&self) -> Option<bool> {
        let window = self.window.try_lock()?;
        let view = self.inner.link_view();
        Some(window.iter().any(|rec| match rec.seq {
            None => true,
            Some(seq) => seq < view.received && view.lost(seq),
        }))
    }

    fn settle(
        inner: &Publisher<T>,
        window: &mut VecDeque<Record<T>>,
    ) -> Result<FlushOutcome, Disconnected> {
        let view = inner.link_view();
        // Classification pass: drop the consumed prefix, demote lost
        // records back to undelivered. Sequences ascend along the window,
        // so consumed records can only form a prefix.
        while let Some(rec) = window.front() {
            match rec.seq {
                Some(seq) if seq < view.received && !view.lost(seq) => {
                    window.pop_front();
                }
                _ => break,
            }
        }
        for rec in window.iter_mut() {
            if matches!(rec.seq, Some(seq) if seq < view.received && view.lost(seq)) {
                rec.seq = None;
            }
        }
        // Delivery pass: send every undelivered record in window order so
        // per-publisher FIFO survives the outage.
        let mut out = FlushOutcome::default();
        if !view.severed {
            for rec in window.iter_mut() {
                if rec.seq.is_some() {
                    continue;
                }
                // permit_blocking: a full-but-connected queue resolves once
                // the consumer drains it, exactly like a plain `send`.
                match syncguard::permit_blocking(|| inner.send_seq(&rec.msg)) {
                    Ok(seq) => {
                        rec.seq = Some(seq);
                        out.delivered += 1;
                    }
                    Err(SendFault::Severed) => break,
                    Err(SendFault::NoConsumers) => return Err(Disconnected),
                }
            }
        }
        out.pending = window.iter().filter(|r| r.seq.is_none()).count();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::push_pull;

    #[test]
    fn delivers_normally_when_link_is_up() {
        let (tx, rx) = push_pull::<u32>(16);
        let rp = ReliablePublisher::new(tx);
        for i in 0..5 {
            let out = rp.publish(i).unwrap();
            assert_eq!(out.pending, 0);
        }
        for i in 0..5 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        // Consumed records are trimmed at the next publish.
        rp.publish(99).unwrap();
        assert_eq!(rp.unacked(), 1);
    }

    #[test]
    fn buffers_across_a_severed_link_and_redelivers_in_order() {
        let (tx, rx) = push_pull::<u32>(16);
        let rp = ReliablePublisher::new(tx);
        rp.publish(1).unwrap();
        rp.inner().sever();
        // Published while down: buffered, not an error.
        let out = rp.publish(2).unwrap();
        assert_eq!(out.pending, 2, "wiped message plus the new one");
        let out = rp.publish(3).unwrap();
        assert_eq!(out.pending, 3);
        assert!(rx.try_recv().is_err());
        rp.inner().heal();
        let out = rp.flush().unwrap();
        assert_eq!(out.delivered, 3);
        assert_eq!(out.pending, 0);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn consumed_messages_are_never_redelivered() {
        let (tx, rx) = push_pull::<u32>(16);
        let rp = ReliablePublisher::new(tx);
        rp.publish(1).unwrap();
        rp.publish(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        // Broker loss after consumption: nothing to redeliver.
        rp.inner().sever();
        rp.inner().heal();
        let out = rp.flush().unwrap();
        assert_eq!(out.delivered, 0);
        assert_eq!(rp.unacked(), 0);
        assert!(rx.try_recv().is_err(), "no duplicate deliveries");
    }

    #[test]
    fn partially_consumed_window_redelivers_only_the_lost_tail() {
        let (tx, rx) = push_pull::<u32>(16);
        let rp = ReliablePublisher::new(tx);
        for i in 0..4 {
            rp.publish(i).unwrap();
        }
        // Consumer drains half; the rest dies with the broker.
        assert_eq!(rx.recv().unwrap(), 0);
        assert_eq!(rx.recv().unwrap(), 1);
        rp.inner().sever();
        rp.inner().heal();
        rp.flush().unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
        assert!(rx.try_recv().is_err(), "2 and 3 arrive exactly once");
    }

    #[test]
    fn repeated_outages_preserve_order_and_exactly_once() {
        let (tx, rx) = push_pull::<u32>(64);
        let rp = ReliablePublisher::new(tx);
        let mut expect = Vec::new();
        let mut got = Vec::new();
        for round in 0..5u32 {
            for i in 0..4 {
                let v = round * 10 + i;
                rp.publish(v).unwrap();
                expect.push(v);
            }
            // Crash the broker mid-round, consuming a prefix first on
            // even rounds so wipes land at varying offsets.
            if round % 2 == 0 {
                got.push(rx.recv().unwrap());
            }
            rp.inner().sever();
            rp.inner().heal();
            rp.flush().unwrap();
            while let Ok(v) = rx.try_recv() {
                got.push(v);
            }
        }
        assert_eq!(got, expect, "every publish arrives exactly once, in order");
        rp.flush().unwrap();
        assert_eq!(rp.unacked(), 0);
    }

    #[test]
    fn consumer_never_waits_on_a_publisher_flushing_into_a_full_queue() {
        let (tx, rx) = push_pull::<u32>(4);
        let rp = ReliablePublisher::new(tx);
        rp.inner().sever();
        for i in 0..20 {
            rp.publish(i).unwrap();
        }
        assert_eq!(rp.try_has_undelivered(), Some(true));
        rp.inner().heal();
        let got = std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let mut got = Vec::new();
                while got.len() < 20 {
                    // Polled on every step, as a commit worker would: it
                    // must return even while the flush below holds the
                    // window, blocked on the full queue.
                    let _ = rp.try_has_undelivered();
                    match rx.try_recv() {
                        Ok(v) => got.push(v),
                        Err(_) => std::thread::yield_now(),
                    }
                }
                got
            });
            // Five times the queue's capacity: the flush blocks until the
            // consumer drains the queue.
            assert_eq!(rp.flush().unwrap().delivered, 20);
            consumer.join().unwrap()
        });
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        rp.flush().unwrap();
        assert_eq!(rp.unacked(), 0);
        assert_eq!(rp.try_has_undelivered(), Some(false));
    }

    #[test]
    fn disconnected_when_all_consumers_gone() {
        let (tx, rx) = push_pull::<u32>(4);
        let rp = ReliablePublisher::new(tx);
        drop(rx);
        assert_eq!(rp.publish(1), Err(Disconnected));
    }
}
