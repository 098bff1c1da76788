//! SQS-like message queues.
//!
//! Each FSD-Inference worker owns a dedicated queue (one queue per consumer
//! avoids consumer-side filtering entirely — Section III-A) and drains it
//! by long polling with wait `W` (Algorithm 1). The receive path is split
//! in two so that billing and timing never depend on how real threads
//! happened to batch the physical arrivals:
//!
//! * [`SqsQueue::take_visible`] is the raw take: it removes up to `max`
//!   visible messages — **no billing, no clock movement** — after waiting
//!   at most the shared real-time grace of the crate's mailbox for a
//!   producer;
//! * [`SqsQueue::settle_receives`] later reconstructs, from the taken
//!   messages' availability stamps alone, the long-poll sequence a consumer
//!   would have issued (≤ 10 messages per `ReceiveMessage`, an empty round
//!   costing the full wait `W`, one `DeleteMessageBatch` per productive
//!   round), billing every call and advancing the consumer's clock;
//! * [`SqsQueue::empty_poll`] is the liveness escape hatch when the grace
//!   ran out with nothing taken: one billed empty long poll.

use crate::fault::{ApiClass, FaultPlane};
use crate::latency::{Jitter, LatencyModel};
use crate::mailbox::Mailbox;
use crate::message::{quota, Message, QueuedMessage};
use crate::meter::ServiceMeter;
use crate::time::{VClock, VirtualTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// Cap on consecutive injected receive/delete failures modeled inside one
/// [`SqsQueue::settle_receives`] round. Bounds the settle loop even under
/// a pathological 100% fault rate; in that regime the visibility timeout
/// would expire and redeliver the batch anyway, which is exactly what the
/// capped re-settle models.
const MAX_SETTLE_RETRIES: u32 = 8;

/// A single simulated queue.
pub struct SqsQueue {
    name: String,
    visible: Mailbox<VecDeque<QueuedMessage>>,
    meter: Arc<ServiceMeter>,
    latency: LatencyModel,
    jitter: Arc<Jitter>,
    faults: Arc<FaultPlane>,
}

impl SqsQueue {
    /// Creates a queue bound to an environment's meter/latency/jitter.
    pub(crate) fn new(
        name: String,
        meter: Arc<ServiceMeter>,
        latency: LatencyModel,
        jitter: Arc<Jitter>,
        faults: Arc<FaultPlane>,
    ) -> SqsQueue {
        SqsQueue {
            name,
            visible: Mailbox::new(VecDeque::new()),
            meter,
            latency,
            jitter,
            faults,
        }
    }

    /// Queue name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enqueues a message stamped with its virtual availability time.
    /// Called by the pub-sub fan-out (and directly by tests).
    pub fn enqueue(&self, available_at: VirtualTime, message: Message) {
        self.visible.update(|visible| {
            visible.push_back(QueuedMessage {
                available_at,
                message,
            })
        });
    }

    /// Number of currently visible messages (diagnostics/tests).
    pub fn visible_len(&self) -> usize {
        self.visible.lock().len()
    }

    /// Raw destructive take for the deterministic receive path: waits (at
    /// most the mailbox's real-time grace) for a visible message, then
    /// removes and returns up to `max` of them in FIFO order — **no
    /// billing, no clock movement**. The caller later reconstructs the
    /// billed long-poll sequence from the returned availability stamps
    /// with [`SqsQueue::settle_receives`].
    pub fn take_visible(&self, max: usize) -> Vec<QueuedMessage> {
        let mut visible = self.visible.wait(|visible| !visible.is_empty());
        let n = max.min(visible.len());
        visible.drain(..n).collect()
    }

    /// Bills one empty long poll (timeout after the full wait `W`) —
    /// the liveness escape hatch of the deterministic receive path when a
    /// producer has really not shown up within the real-time grace: the
    /// consumer's virtual clock keeps moving toward its timeout budget.
    pub fn empty_poll(&self, clock: &mut VClock, wait_secs: f64) {
        self.meter.record_sqs_call(clock.flow(), 0, true);
        clock.advance_micros(self.jitter.apply(self.latency.sqs_poll_us));
        clock.advance_micros(VirtualTime::from_secs_f64(wait_secs).as_micros().max(1));
    }

    /// Reconstructs — deterministically, from virtual stamps alone — the
    /// long-poll sequence a consumer starting at `clock` with wait `W`
    /// would have issued to collect messages with the given
    /// `(availability stamp, body bytes)` set, billing every receive
    /// (including empty timeout rounds while a stamp is still in the
    /// virtual future) and one `DeleteMessageBatch` per productive round,
    /// and advancing the clock through the whole sequence. Returns the
    /// number of billed SQS calls.
    ///
    /// Because the stamp set of a request's layer is a pure function of
    /// the workload, so is everything this bills — regardless of how real
    /// threads happened to batch the physical arrivals.
    pub fn settle_receives(
        &self,
        clock: &mut VClock,
        wait_secs: f64,
        taken: &[(VirtualTime, usize)],
    ) -> u64 {
        let wait_us = VirtualTime::from_secs_f64(wait_secs).as_micros().max(1);
        let mut msgs: Vec<(VirtualTime, usize)> = taken.to_vec();
        msgs.sort_unstable();
        let mut calls = 0u64;
        let mut i = 0usize;
        while i < msgs.len() {
            let next = msgs[i].0;
            if next.as_micros() > clock.now().as_micros().saturating_add(wait_us) {
                // The poll would have timed out empty before this message
                // became visible.
                self.meter.record_sqs_call(clock.flow(), 0, true);
                calls += 1;
                clock.advance_micros(self.jitter.apply(self.latency.sqs_poll_us));
                clock.advance_micros(wait_us);
                continue;
            }
            // Long polling returns as soon as the earliest message lands;
            // the round takes everything visible at that instant (≤ 10).
            clock.observe(next);
            // Injected receive failure: the `ReceiveMessage` round trip
            // is billed but returns nothing; the messages stay governed
            // by the visibility machinery and the next round re-settles
            // them — retries here are *never* a blind re-call.
            let mut retries = 0u32;
            while retries < MAX_SETTLE_RETRIES
                && self
                    .faults
                    .check(
                        ApiClass::QueueReceive,
                        clock.flow(),
                        clock.now(),
                        &self.name,
                    )
                    .is_some()
            {
                self.meter.record_sqs_call(clock.flow(), 0, true);
                calls += 1;
                clock.advance_micros(self.jitter.apply(self.latency.sqs_poll_us));
                retries += 1;
            }
            let mut batch_bytes = 0usize;
            let mut n = 0u64;
            while i < msgs.len() && msgs[i].0 <= clock.now() && n < quota::MAX_BATCH_MESSAGES as u64
            {
                batch_bytes += msgs[i].1;
                n += 1;
                i += 1;
            }
            self.meter.record_sqs_call(clock.flow(), n, false);
            calls += 1;
            clock.advance_micros(
                self.jitter
                    .apply(self.latency.sqs_poll_total_us(batch_bytes)),
            );
            // Injected delete failure: the `DeleteMessageBatch` is billed
            // and retried with the same receipt handles (idempotent).
            let mut retries = 0u32;
            while retries < MAX_SETTLE_RETRIES
                && self
                    .faults
                    .check(ApiClass::QueueDelete, clock.flow(), clock.now(), &self.name)
                    .is_some()
            {
                self.meter.record_sqs_call(clock.flow(), 0, false);
                calls += 1;
                clock.advance_micros(self.jitter.apply(self.latency.sqs_delete_us));
                retries += 1;
            }
            // Algorithm 1 line 15: delete the polled batch.
            self.meter.record_sqs_call(clock.flow(), 0, false);
            calls += 1;
            clock.advance_micros(self.jitter.apply(self.latency.sqs_delete_us));
        }
        calls
    }

    /// Drops all queue state (between benchmark repetitions).
    pub fn purge(&self) {
        self.visible.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageAttributes;

    fn queue() -> SqsQueue {
        SqsQueue::new(
            "q-test".into(),
            Arc::new(ServiceMeter::new()),
            LatencyModel::deterministic(),
            Arc::new(Jitter::new(1, 0.0)),
            Arc::new(FaultPlane::disabled()),
        )
    }

    fn msg(source: u32, body: &[u8]) -> Message {
        Message {
            attributes: MessageAttributes {
                flow: 0,
                source,
                target: 0,
                layer: 0,
                total_chunks: 1,
                batch: 0,
            },
            body: body.to_vec(),
        }
    }

    #[test]
    fn take_visible_caps_at_max_in_fifo_order() {
        let q = queue();
        for i in 0..25 {
            q.enqueue(VirtualTime::from_micros(u64::from(i)), msg(i, b"x"));
        }
        let got = q.take_visible(quota::MAX_BATCH_MESSAGES);
        let sources: Vec<u32> = got.iter().map(|m| m.message.attributes.source).collect();
        assert_eq!(sources, (0..10).collect::<Vec<_>>());
        assert_eq!(got[3].available_at, VirtualTime::from_micros(3));
        assert_eq!(q.visible_len(), 15);
        let rest = q.take_visible(100);
        assert_eq!(rest.len(), 15);
        assert_eq!(rest[0].message.attributes.source, 10);
        assert_eq!(q.visible_len(), 0);
        // Taking is free: nothing billed.
        assert_eq!(q.meter.snapshot().sqs_api_calls, 0);
    }

    #[test]
    fn take_visible_on_an_empty_queue_returns_nothing_after_the_grace() {
        let q = queue();
        assert!(q.take_visible(10).is_empty());
    }

    #[test]
    fn blocked_take_wakes_on_enqueue() {
        let q = Arc::new(queue());
        let taker = {
            let q = q.clone();
            std::thread::spawn(move || {
                // Bounded: each take waits at most the grace.
                for _ in 0..10_000 {
                    let got = q.take_visible(10);
                    if !got.is_empty() {
                        return got[0].message.body.clone();
                    }
                }
                Vec::new()
            })
        };
        q.enqueue(VirtualTime::from_micros(10), msg(3, b"wake"));
        assert_eq!(taker.join().expect("join"), b"wake");
    }

    #[test]
    fn settle_receives_bills_empty_rounds_for_future_stamps() {
        let q = queue();
        // Message stamped 5s into the consumer's future; W = 2s → the
        // consumer would have issued 2 empty polls, 1 productive receive
        // and 1 delete.
        let mut clock = VClock::default();
        let calls = q.settle_receives(&mut clock, 2.0, &[(VirtualTime::from_secs_f64(5.0), 5)]);
        assert_eq!(calls, 4);
        let s = q.meter.snapshot();
        assert_eq!(s.sqs_api_calls, 4);
        assert_eq!(s.sqs_empty_polls, 2);
        assert_eq!(s.sqs_messages, 1);
        assert!(clock.now() >= VirtualTime::from_secs_f64(5.0));
    }

    #[test]
    fn settle_receives_single_round_for_ready_stamps() {
        let q = queue();
        let mut clock = VClock::starting_at(VirtualTime::from_secs_f64(1.0));
        let calls = q.settle_receives(&mut clock, 2.0, &[(VirtualTime::ZERO, 3)]);
        assert_eq!(calls, 2, "one receive + one delete");
        let s = q.meter.snapshot();
        assert_eq!(s.sqs_api_calls, 2);
        assert_eq!(s.sqs_empty_polls, 0);
        assert_eq!(s.sqs_messages, 1);
    }

    #[test]
    fn settle_receives_batches_at_most_ten_per_round() {
        let q = queue();
        let mut clock = VClock::starting_at(VirtualTime::from_secs_f64(1.0));
        let taken = vec![(VirtualTime::ZERO, 1); 25];
        // 3 productive receives (10 + 10 + 5), each followed by a delete.
        assert_eq!(q.settle_receives(&mut clock, 2.0, &taken), 6);
        assert_eq!(q.meter.snapshot().sqs_messages, 25);
    }

    #[test]
    fn empty_poll_bills_one_and_advances_w() {
        let q = queue();
        let mut clock = VClock::default();
        q.empty_poll(&mut clock, 2.0);
        let s = q.meter.snapshot();
        assert_eq!(s.sqs_api_calls, 1);
        assert_eq!(s.sqs_empty_polls, 1);
        assert!(clock.now() >= VirtualTime::from_secs_f64(2.0));
    }

    #[test]
    fn purge_clears_everything() {
        let q = queue();
        q.enqueue(VirtualTime::ZERO, msg(0, b"x"));
        q.enqueue(VirtualTime::ZERO, msg(1, b"y"));
        q.purge();
        assert_eq!(q.visible_len(), 0);
    }
}
