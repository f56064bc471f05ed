//! The discrete-event core: event types and the future-event list.
//!
//! Determinism contract: events are ordered by `(time, push sequence)`, so
//! two events scheduled for the same instant fire in the order they were
//! scheduled. Nothing in the simulator ever depends on bucket-internal
//! ordering, hash iteration order, or wall-clock time.
//!
//! ## Structure
//!
//! The future-event list is a **calendar queue** (hashed timing wheel)
//! with a heap-backed overflow bucket, replacing the seed's single
//! `BinaryHeap`:
//!
//! * the wheel covers a sliding window of `2^BUCKET_BITS` buckets, each
//!   `2^WIDTH_SHIFT` picoseconds wide (~1 µs by default — on the order of
//!   one MTU serialization time at the evaluation's bandwidths), so the
//!   common case — a `PortReady` or `Arrive` a few microseconds out — is
//!   an O(1) push into an unsorted bucket;
//! * events beyond the wheel horizon (a few milliseconds; retransmission
//!   timers, far-future flow starts) go to a binary heap and migrate into
//!   the wheel as the cursor approaches them;
//! * a bucket is sorted by `(time, seq)` only when the cursor reaches it,
//!   then drained from the back; same-instant pushes into the bucket
//!   currently being drained are placed by binary insertion, preserving
//!   the push-order contract exactly.
//!
//! Because the wheel window is exactly one revolution wide, a bucket never
//! mixes events from different revolutions: every wheel index maps to one
//! absolute bucket number inside `[cursor, cursor + n)`.
//!
//! ## Streamed injections
//!
//! A second source holds the `Inject` events of a streamed workload
//! ([`Simulator::run_with_injections`](crate::sim::Simulator::run_with_injections)):
//! a FIFO of entries that is sorted by construction, because a stream
//! packet is admitted only once it is *due* — its injection time is at or
//! before every pending event ([`EventQueue::injection_due`]) — and takes
//! the next push sequence number at that moment
//! ([`EventQueue::push_injection`]). [`EventQueue::pop`] merges the FIFO
//! front with the wheel by `(time, seq)`, so the order is exactly the one
//! an ordinary [`EventQueue::push`] at admission time would give. What the
//! second source saves is work, not order: a flow's same-instant packet
//! train no longer goes one binary insertion at a time into the bucket
//! being drained, and the due check reads the sorted back of the cursor
//! bucket instead of scanning for the earliest event.
//!
//! Events themselves are small: packets are carried as 4-byte
//! [`PacketRef`]s into the simulator's arena, not by value.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::arena::PacketRef;
use crate::id::{AgentId, NodeId, PortId};
use crate::time::SimTime;

/// A simulation event. Small and `Copy`: packets are referenced, not
/// embedded.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A packet enters the network at its source node (the paper's `i(p)`).
    Inject(PacketRef),
    /// The last bit of a packet arrives at `node` (store-and-forward: a
    /// router may only act on a packet once it holds all of it).
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// The packet, with `hop` already advanced to `node`.
        pkt: PacketRef,
    },
    /// The output port finished serializing its current packet. `token`
    /// guards against stale wakeups after a preemption rescheduled the
    /// port.
    PortReady {
        /// Node owning the port.
        node: NodeId,
        /// Which port.
        port: PortId,
        /// Transmission generation; stale tokens are ignored.
        token: u64,
    },
    /// An agent timer (transport retransmission timers, app pacing, ...).
    Timer {
        /// The agent whose `on_timer` fires.
        agent: AgentId,
        /// Caller-chosen discriminator.
        key: u64,
    },
    /// A bidirectional link between `a` and `b` goes down (`up: false`)
    /// or comes back up (`up: true`) at this instant — the network
    /// dynamics subsystem's churn events. State changes take effect in
    /// the calendar queue's usual `(time, seq)` order, so a link event
    /// and a packet event at the same instant resolve deterministically.
    LinkState {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// New state for both direction ports.
        up: bool,
    },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // The overflow BinaryHeap is a max-heap; reverse so the earliest
        // (time, seq) pops first.
        other.key().cmp(&self.key())
    }
}

/// log2 of the bucket width in picoseconds (~1.05 µs).
const WIDTH_SHIFT: u32 = 20;
/// log2 of the bucket count (4096 buckets → ~4.3 ms horizon).
const BUCKET_BITS: u32 = 12;

/// Future-event list with deterministic same-time ordering.
pub struct EventQueue {
    /// The wheel. `buckets[abs & mask]` holds entries whose absolute
    /// bucket number `time >> WIDTH_SHIFT` equals that slot's unique
    /// in-window value.
    buckets: Vec<Vec<Entry>>,
    /// Occupancy bitmap over bucket indexes (one bit per bucket).
    occupied: Vec<u64>,
    /// Absolute bucket number currently being serviced.
    cursor: u64,
    /// Whether `buckets[cursor & mask]` is sorted descending by key
    /// (drained from the back).
    cursor_sorted: bool,
    /// Entries in the wheel (excludes overflow).
    wheel_len: usize,
    /// Events beyond the wheel horizon, min-first.
    overflow: BinaryHeap<Entry>,
    /// Streamed injections already due, sorted by `(time, seq)`; the
    /// second source `pop` merges with the wheel. Never behind the
    /// cursor: its front's bucket is `>= cursor`, because injections are
    /// pushed at `>= now` and the cursor never passes `now`'s bucket.
    injections: VecDeque<Entry>,
    next_seq: u64,
    now: SimTime,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        let n = 1usize << BUCKET_BITS;
        EventQueue {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; n / 64],
            cursor: 0,
            cursor_sorted: false,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            injections: VecDeque::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            len: 0,
        }
    }

    #[inline]
    fn mask(&self) -> u64 {
        (self.buckets.len() - 1) as u64
    }

    #[inline]
    fn abs_bucket(t: SimTime) -> u64 {
        t.as_ps() >> WIDTH_SHIFT
    }

    #[inline]
    fn horizon(&self) -> u64 {
        self.buckets.len() as u64
    }

    #[inline]
    fn set_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1u64 << (idx % 64); // lint:allow(panic-path): the occupied bitmap is sized with the bucket array; idx < capacity
    }

    #[inline]
    fn clear_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1u64 << (idx % 64)); // lint:allow(panic-path): the occupied bitmap is sized with the bucket array; idx < capacity
    }

    /// Current simulation time: the timestamp of the last popped event
    /// (zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is in the past — the simulator never time-travels; a panic
    /// here always indicates a logic bug in a component, so failing loudly
    /// beats silently reordering history.
    pub fn push(&mut self, at: SimTime, event: Event) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Append a streamed `Inject(pkt)` at `at` to the injection FIFO,
    /// taking the next push sequence number — so it pops exactly where a
    /// [`Self::push`] at this moment would have put it. The simulator calls
    /// it once an injection is due ([`Self::injection_due`]); the queue's
    /// order does not depend on that, only on the FIFO staying sorted.
    ///
    /// # Panics
    /// If `at` is in the past, or earlier than an injection already in
    /// the FIFO.
    pub fn push_injection(&mut self, at: SimTime, pkt: PacketRef) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        assert!(
            self.injections.back().is_none_or(|b| at >= b.time),
            "streamed injections must arrive in time order"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.injections.push_back(Entry {
            time: at,
            seq,
            event: Event::Inject(pkt),
        });
    }

    /// Whether an injection at `at` is due: at or before every pending
    /// event, counting injections already in the FIFO (trivially true on
    /// an empty queue). O(1) when `at` lies past the FIFO front or the
    /// bucket under the cursor still holds events — its sorted back is
    /// the earliest wheel event; otherwise it falls back to
    /// [`Self::peek_time`].
    pub fn injection_due(&self, at: SimTime) -> bool {
        if self.injections.front().is_some_and(|front| at > front.time) {
            return false;
        }
        if self.cursor_sorted {
            let idx = (self.cursor & self.mask()) as usize;
            if let Some(back) = self.buckets[idx].last() {
                return at <= back.time;
            }
        }
        self.peek_time().is_none_or(|next| at <= next)
    }

    fn insert(&mut self, e: Entry) {
        self.len += 1;
        let abs = Self::abs_bucket(e.time);
        debug_assert!(abs >= self.cursor, "insert behind the cursor");
        if abs >= self.cursor + self.horizon() {
            self.overflow.push(e);
            return;
        }
        let idx = (abs & self.mask()) as usize;
        if abs == self.cursor && self.cursor_sorted {
            // The bucket is mid-drain (sorted descending; back = next to
            // pop). Place the new entry so the global (time, seq) order
            // holds. A same-instant push has the largest seq so far, so it
            // lands just *before* the block of equal-time entries in the
            // descending vector — i.e. it pops after them: push order.
            let bucket = &mut self.buckets[idx];
            let key = (e.time, e.seq);
            let pos = bucket.partition_point(|x| x.key() > key);
            bucket.insert(pos, e);
        } else {
            self.buckets[idx].push(e);
        }
        self.set_bit(idx);
        self.wheel_len += 1;
    }

    /// Advance the cursor to the next absolute bucket holding events, but
    /// never past `cap` (the injection FIFO front's bucket), migrating
    /// overflow entries that come within the new horizon. Precondition:
    /// the current bucket is empty, the wheel or overflow is non-empty,
    /// and `cap` (if any) lies past the cursor.
    fn advance(&mut self, cap: Option<u64>) {
        let wheel_next = if self.wheel_len > 0 {
            Some(self.next_occupied_abs())
        } else {
            None
        };
        let over_next = self.overflow.peek().map(|e| Self::abs_bucket(e.time));
        let next = match (wheel_next, over_next) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => unreachable!("advance() called on an empty queue"),
        };
        self.cursor = cap.map_or(next, |c| next.min(c));
        self.cursor_sorted = false;
        // Pull newly in-horizon overflow entries into the wheel.
        let limit = self.cursor + self.horizon();
        while let Some(top) = self.overflow.peek() {
            if Self::abs_bucket(top.time) >= limit {
                break;
            }
            let e = self.overflow.pop().expect("peeked"); // lint:allow(panic-path): peek on the same heap returned Some
            let idx = (Self::abs_bucket(e.time) & self.mask()) as usize;
            self.buckets[idx].push(e);
            self.set_bit(idx);
            self.wheel_len += 1;
        }
    }

    /// Absolute bucket number of the first occupied bucket at or after the
    /// cursor (within one revolution). Precondition: `wheel_len > 0`.
    fn next_occupied_abs(&self) -> u64 {
        let n = self.buckets.len();
        let start = (self.cursor & self.mask()) as usize;
        // Scan the bitmap circularly from `start`, word at a time.
        let words = self.occupied.len();
        let mut word_idx = start / 64;
        let mut w = self.occupied[word_idx] & (!0u64 << (start % 64));
        for step in 0..=words {
            if w != 0 {
                let bit = word_idx * 64 + w.trailing_zeros() as usize;
                // Ring distance from the cursor index to this index.
                let dist = (bit + n - start) % n;
                return self.cursor + dist as u64;
            }
            word_idx = (word_idx + 1) % words;
            w = self.occupied[word_idx];
            // On the wrap-around revisit of the starting word, mask to the
            // bits *before* start (distance measured modulo n handles it).
            if step == words - 1 {
                w &= !(!0u64 << (start % 64));
            }
        }
        unreachable!("wheel_len > 0 but no occupied bucket found")
    }

    /// Pop the earliest event, advancing the clock to its timestamp. The
    /// wheel (with its overflow) and the injection FIFO are merged by
    /// `(time, seq)`.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.len == 0 {
            return None;
        }
        let injection = self.injections.front().map(Entry::key);
        let e = loop {
            let idx = (self.cursor & self.mask()) as usize;
            if !self.buckets[idx].is_empty() {
                if !self.cursor_sorted {
                    // Descending by (time, seq): the back is the next to pop.
                    self.buckets[idx].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                    self.cursor_sorted = true;
                }
                let bucket = &mut self.buckets[idx];
                if injection.is_some_and(|k| bucket.last().is_some_and(|b| k < b.key())) {
                    break self.injections.pop_front();
                }
                let e = bucket.pop();
                if bucket.is_empty() {
                    self.clear_bit(idx);
                }
                self.wheel_len -= 1;
                break e;
            }
            // The FIFO front is never behind the cursor, and every wheel
            // entry lies past an empty cursor bucket: a front in that
            // bucket, or nothing else pending, means the front goes next.
            let cap = injection.map(|(t, _)| Self::abs_bucket(t));
            if cap.is_some_and(|c| c <= self.cursor)
                || (self.wheel_len == 0 && self.overflow.is_empty())
            {
                break self.injections.pop_front();
            }
            self.advance(cap);
        }?;
        self.len -= 1;
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let injection = self.injections.front().map(|e| e.time);
        let queued = if self.wheel_len == 0 {
            self.overflow.peek().map(|e| e.time)
        } else {
            // Wheel entries always precede overflow entries (their
            // absolute buckets are strictly smaller), and the earliest
            // wheel entry lives in the first occupied bucket at/after the
            // cursor.
            let abs = self.next_occupied_abs();
            let idx = (abs & self.mask()) as usize;
            let bucket = &self.buckets[idx];
            if abs == self.cursor && self.cursor_sorted {
                bucket.last().map(|e| e.time)
            } else {
                bucket.iter().map(|e| e.key()).min().map(|(t, _)| t)
            }
        };
        match (queued, injection) {
            (Some(q), Some(i)) => Some(q.min(i)),
            (q, i) => q.or(i),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn timer(key: u64) -> Event {
        Event::Timer {
            agent: AgentId(0),
            key,
        }
    }

    /// A timer's key, or an injection's arena slot (the tests use it as
    /// a key too).
    fn key_of(e: &Event) -> u64 {
        match e {
            Event::Timer { key, .. } => *key,
            Event::Inject(pkt) => pkt.slot() as u64,
            _ => panic!("expected timer or injection"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(5), timer(5));
        q.push(SimTime::from_us(1), timer(1));
        q.push(SimTime::from_us(3), timer(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn same_time_events_fire_in_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(7);
        for k in 0..100 {
            q.push(t, timer(k));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(2), timer(0));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(2)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(2));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(10), timer(0));
        q.pop();
        q.push(SimTime::from_us(5), timer(1));
    }

    #[test]
    fn same_instant_push_during_drain_preserves_push_order() {
        // Fill one instant, pop half, push more at the *same* instant
        // (the mid-drain binary-insertion path), and verify global
        // (time, seq) order end to end.
        let mut q = EventQueue::new();
        let t = SimTime::from_us(3);
        for k in 0..10 {
            q.push(t, timer(k));
        }
        let mut order = Vec::new();
        for _ in 0..5 {
            order.push(key_of(&q.pop().unwrap().1));
        }
        for k in 10..15 {
            q.push(t, timer(k));
        }
        q.push(t + Dur::from_ns(1), timer(99));
        while let Some((_, e)) = q.pop() {
            order.push(key_of(&e));
        }
        assert_eq!(order, (0..15).chain([99]).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_route_through_overflow() {
        // Beyond the ~4 ms wheel horizon: retransmission-timer territory.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(100), timer(2));
        q.push(SimTime::from_us(1), timer(0));
        q.push(SimTime::from_ms(50), timer(1));
        q.push(SimTime::from_secs(2), timer(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn interleaved_pushes_and_pops_stay_ordered() {
        // Mimics the event loop: every popped event schedules new ones a
        // little into the future; ordering and the clock must never
        // regress.
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, timer(0));
        let mut popped = 0u64;
        let mut last = (SimTime::ZERO, 0u64);
        let mut next_key = 1u64;
        while let Some((t, e)) = q.pop() {
            let k = key_of(&e);
            assert!(t >= last.0, "time regressed");
            last = (t, k);
            popped += 1;
            if popped < 5_000 {
                // Fan out: one near event, one far, one same-instant.
                q.push(t + Dur::from_ns(1_700), timer(next_key));
                next_key += 1;
                if popped.is_multiple_of(7) {
                    q.push(t + Dur::from_ms(20), timer(next_key));
                    next_key += 1;
                }
                if popped.is_multiple_of(11) {
                    q.push(t, timer(next_key));
                    next_key += 1;
                }
            }
        }
        assert!(popped >= 5_000);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn injections_tie_by_push_order_with_wheel_events() {
        // Same instant from both sources: a wheel event pushed before the
        // injection pops first, one pushed after pops last.
        let mut q = EventQueue::new();
        let t = SimTime::from_us(4);
        q.push(t, timer(0));
        q.push_injection(t, PacketRef(1));
        q.push_injection(t, PacketRef(2));
        q.push(t, timer(3));
        q.push(SimTime::from_us(3), timer(4));
        q.push_injection(SimTime::from_ms(30), PacketRef(5)); // past the horizon
        q.push(SimTime::from_ms(20), timer(6)); // overflow
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, vec![4, 0, 1, 2, 3, 6, 5]);
    }

    #[test]
    fn len_counts_pending_injections() {
        let mut q = EventQueue::new();
        assert!(q.injection_due(SimTime::from_us(9)), "empty queue admits");
        q.push_injection(SimTime::from_us(2), PacketRef(0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.push(SimTime::from_us(1), timer(1));
        q.push_injection(SimTime::from_us(2), PacketRef(2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(1)));
        assert!(q.injection_due(SimTime::from_us(1)));
        assert!(!q.injection_due(SimTime::from_us(3)));
        let mut popped = Vec::new();
        while let Some((_, e)) = q.pop() {
            popped.push(key_of(&e));
            assert_eq!(q.len(), 3 - popped.len());
        }
        assert_eq!(popped, vec![1, 0, 2]);
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_us(2));
    }

    #[test]
    #[should_panic(expected = "in time order")]
    fn rejects_out_of_order_injections() {
        let mut q = EventQueue::new();
        q.push_injection(SimTime::from_us(5), PacketRef(0));
        q.push_injection(SimTime::from_us(4), PacketRef(1));
    }

    #[test]
    fn matches_reference_heap_on_dense_workload() {
        // Differential test against a plain sorted reference over a
        // deterministic pseudo-random schedule mixing horizons, with
        // streamed injections interleaved — often at the instant of a
        // wheel push, so ties cross the two sources.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time, key)
        let mut state = 12345u64;
        let mut now = 0u64;
        let mut last_injection = 0u64;
        let mut key = 0u64;
        let mut popped = Vec::new();
        for _ in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let choice = state >> 61;
            if choice < 5 {
                // Push at now + jitter (ns to tens of ms), or at now.
                let exp = (state >> 40) % 35; // deltas up to ~17 ms: both sides of the horizon
                let delta = if choice == 0 {
                    0
                } else {
                    (state >> 8) % (1u64 << exp.max(1))
                };
                let t = now + delta;
                q.push(SimTime::from_ps(t), timer(key));
                reference.push((t, key));
                key += 1;
            } else if choice == 5 {
                // A same-instant train of injections, sometimes followed
                // by a wheel push at the same instant.
                let exp = (state >> 40) % 35;
                let delta = if state & (1 << 7) == 0 {
                    0
                } else {
                    (state >> 8) % (1u64 << exp.max(1))
                };
                let t = now.max(last_injection) + delta;
                last_injection = t;
                for _ in 0..1 + (state >> 20) % 4 {
                    q.push_injection(SimTime::from_ps(t), PacketRef(key as u32));
                    reference.push((t, key));
                    key += 1;
                }
                if state & (1 << 6) == 0 {
                    q.push(SimTime::from_ps(t), timer(key));
                    reference.push((t, key));
                    key += 1;
                }
            } else if let Some((t, e)) = q.pop() {
                now = t.as_ps();
                popped.push((t.as_ps(), key_of(&e)));
            }
            // The O(1) due check agrees with the scan it replaces.
            let probe = SimTime::from_ps(now + (state >> 30) % 3_000_000);
            assert_eq!(
                q.injection_due(probe),
                q.peek_time().is_none_or(|next| probe <= next)
            );
        }
        while let Some((t, e)) = q.pop() {
            popped.push((t.as_ps(), key_of(&e)));
        }
        // Reference order: (time, push order). Keys were assigned in push
        // order, so a stable sort by time alone reproduces it.
        reference.sort_by_key(|&(t, _)| t);
        assert_eq!(popped.len(), reference.len());
        assert_eq!(popped, reference);
    }
}
