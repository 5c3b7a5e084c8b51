//! The future event list and scheduling interface.
//!
//! [`Scheduler`] owns the pending-event list and the simulation clock. Event
//! handlers receive `&mut Scheduler<E>` and use it to post future events,
//! cancel timers, and read the current time.
//!
//! Ordering is total and deterministic: events fire in `(time, sequence)`
//! order, where `sequence` is the order in which they were scheduled. Two
//! events posted for the same instant therefore fire in posting order, which
//! makes single-threaded runs bit-reproducible.
//!
//! The PDES engine inserts cross-partition deliveries through a second
//! *remote lane* of the sequence space ([`Scheduler::schedule_remote`]): the
//! top bit marks a remote event and the remaining bits encode the sender
//! partition and the sender's own send counter. At equal timestamps remote
//! events therefore sort after every local event and among themselves by
//! `(sender, send-seq)` — an intrinsic key that does not depend on which
//! epoch (or which chunked `run_until` call) happened to deliver them, so
//! tie order is identical across epoch plans, partition counts held fixed.
//!
//! ## FEL backends
//!
//! The queue structure is pluggable through the [`Fel`] trait, with two
//! implementations that produce bit-identical pop order:
//!
//! * [`CalendarFel`] (the default): a calendar queue — an array of time
//!   buckets, each `width` nanoseconds wide, scanned cyclically like the
//!   days of a desk calendar. Insert and pop are O(1) amortized versus the
//!   binary heap's O(log n), which is what keeps per-event cost flat at
//!   100k-host event densities (see the `pdes_scaling` density sweep).
//!   Event payloads live in a slab (payload plus owning seq per slot, and a
//!   free list), so steady-state scheduling allocates nothing; buckets hold
//!   only sorted `(time, slot)` entries, and a dense array of bucket head
//!   times is all the year scan reads, so no payload byte goes through the
//!   cache until an event is popped.
//! * [`BinaryHeapFel`]: the classic binary-heap FEL this kernel used before
//!   the calendar queue. Kept as the differential-testing reference (see
//!   `crates/des/tests/proptests.rs`) and the "before" side of the
//!   `pdes_scaling` event-density sweep.
//!
//! ## Cancellation and the single scan
//!
//! An [`EventKey`] carries the event's sequence number and the slab slot
//! its payload occupies. The calendar queue records the owning seq of every
//! slot, so `cancel` is a direct slot lookup: if the slot is still owned by
//! the key's seq and still holds a payload, the payload is dropped in place.
//! A bucket entry whose slot is empty is the tombstone; it is discarded when
//! it surfaces as the scan minimum, or wholesale when a resize rehashes
//! every entry. No hash set sits on the event path, and the live count is
//! a plain counter.
//!
//! Run loops drain the queue with [`Scheduler::pop_until`], which locates
//! the minimum once and pops it only if it is due, instead of a
//! `peek_time` followed by a `pop` that would scan the calendar twice per
//! executed event.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::marker::PhantomData;

use crate::time::{SimDuration, SimTime};

/// Opaque handle identifying a scheduled event, used for cancellation.
///
/// A key names its event by sequence number and by the FEL slot holding the
/// payload. Sequence numbers are never reused; slots are, and the FEL
/// checks that a slot is still owned by the key's seq before cancelling, so
/// a stale key held after its event fired (or was cancelled) is harmless:
/// cancelling it is a no-op, even once its slot holds a newer event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey {
    seq: u64,
    slot: u32,
}

/// Top bit of the sequence space: set for remote-lane (cross-partition)
/// deliveries so they sort after all locally scheduled events at the same
/// instant.
const REMOTE_LANE: u64 = 1 << 63;
/// Bits reserved for the sender's send counter in a remote-lane sequence.
const SEND_SEQ_BITS: u32 = 47;
const SEND_SEQ_MASK: u64 = (1 << SEND_SEQ_BITS) - 1;
/// Sender partition ids must fit in the bits between the lane bit and the
/// send counter.
const MAX_SENDER: u64 = (1 << (63 - SEND_SEQ_BITS)) - 1;

/// Builds the remote-lane sequence number for a delivery from `sender` with
/// that sender's `send_seq`-th cross-partition message.
///
/// Both range checks are always on: an out-of-range field would bleed into
/// its neighbour and silently corrupt tie-break order.
#[inline]
fn remote_seq(sender: usize, send_seq: u64) -> u64 {
    assert!(
        (sender as u64) <= MAX_SENDER,
        "sender partition id {sender} exceeds remote-lane capacity"
    );
    assert!(
        send_seq <= SEND_SEQ_MASK,
        "remote-lane send-seq counter overflow ({send_seq})"
    );
    REMOTE_LANE | ((sender as u64) << SEND_SEQ_BITS) | send_seq
}

/// Hasher for the reference heap's pending/tombstone sets: the splitmix64
/// finalizer instead of SipHash. Sequence numbers are internal trusted
/// values, never attacker-chosen, so DoS-resistant hashing buys nothing.
#[derive(Clone, Default, Debug)]
struct SeqHasher(u64);

impl std::hash::Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a); the sets only ever hash u64 keys.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = crate::rng::splitmix64(x);
    }
}

/// The sequence-key set used for the reference heap's pending-event and
/// tombstone membership.
type SeqSet = HashSet<u64, std::hash::BuildHasherDefault<SeqHasher>>;

/// A pluggable future-event-list structure.
///
/// A `Fel` stores `(time, seq, payload)` entries and yields them in strict
/// `(time, seq)` order. It owns cancellation too: [`Fel::push`] returns a
/// slot that, together with the seq, addresses the entry for
/// [`Fel::cancel`]. Cancelled entries may linger as tombstones, but they are
/// never yielded and never counted by [`Fel::live`].
///
/// All implementations must produce **bit-identical pop order**: the
/// scheduler's determinism contract does not depend on which backend is
/// plugged in (proven by the differential proptest in
/// `crates/des/tests/proptests.rs`).
pub trait Fel<E> {
    /// An empty list.
    fn new() -> Self;

    /// Entries pushed and neither popped nor cancelled. Exact: tombstones
    /// awaiting purge are not counted.
    fn live(&self) -> usize;

    /// Inserts an entry and returns the slot that addresses it for
    /// [`Fel::cancel`].
    fn push(&mut self, time: SimTime, seq: u64, event: E) -> u32;

    /// Cancels the live entry `seq` pushed into `slot`. Returns `false` if
    /// that entry already popped or was already cancelled (its slot may
    /// hold a newer entry by now).
    fn cancel(&mut self, seq: u64, slot: u32) -> bool;

    /// Removes and returns the minimum live `(time, seq)` entry if its time
    /// is at most `limit`; otherwise leaves the list unchanged apart from
    /// purged tombstones. One search either way.
    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)>;

    /// Timestamp of the minimum live entry, discarding tombstoned entries
    /// that surface at the front (as `pop_until` would).
    fn peek_min_time(&mut self) -> Option<SimTime>;

    /// Estimated resident bytes of the structure (allocated capacity, not
    /// just live entries) — the substrate of the `bytes/host` memory
    /// accounting surfaced through `elephant-obs`.
    fn approx_bytes(&self) -> usize;
}

#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// Ordering for the max-heap wrapped in `Reverse`: earliest (time, seq) pops
// first. Only `time` and `seq` participate; the payload is irrelevant.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The classic binary-heap FEL: O(log n) push/pop, payloads stored inline
/// in the heap entries, cancellation through seq hash sets.
///
/// This is the structure the kernel used before the calendar queue; it is
/// kept as the reference implementation for differential testing and as the
/// "before" side of the `pdes_scaling` event-density sweep. It has no slots:
/// `push` returns 0 and `cancel` goes by seq alone.
#[derive(Debug, Clone)]
pub struct BinaryHeapFel<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Seqs pushed but neither popped nor cancelled.
    pending: SeqSet,
    /// Cancelled seqs whose entries are still in the heap.
    tombs: SeqSet,
}

impl<E> Default for BinaryHeapFel<E> {
    fn default() -> Self {
        <Self as Fel<E>>::new()
    }
}

impl<E> BinaryHeapFel<E> {
    /// Discards tombstoned entries at the top and returns the live head's
    /// `(time, seq)`.
    fn purge_head(&mut self) -> Option<(SimTime, u64)> {
        loop {
            let Reverse(s) = self.heap.peek()?;
            let head = (s.time, s.seq);
            if !self.tombs.remove(&head.1) {
                return Some(head);
            }
            self.heap.pop();
        }
    }
}

impl<E> Fel<E> for BinaryHeapFel<E> {
    fn new() -> Self {
        BinaryHeapFel {
            heap: BinaryHeap::new(),
            pending: SeqSet::default(),
            tombs: SeqSet::default(),
        }
    }

    fn live(&self) -> usize {
        self.pending.len()
    }

    fn push(&mut self, time: SimTime, seq: u64, event: E) -> u32 {
        self.pending.insert(seq);
        self.heap.push(Reverse(Scheduled { time, seq, event }));
        0
    }

    fn cancel(&mut self, seq: u64, _slot: u32) -> bool {
        if !self.pending.remove(&seq) {
            return false;
        }
        self.tombs.insert(seq);
        true
    }

    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)> {
        let (time, seq) = self.purge_head()?;
        if time > limit {
            return None;
        }
        let Reverse(s) = self.heap.pop().expect("purged head vanished");
        self.pending.remove(&seq);
        Some((s.time, s.seq, s.event))
    }

    fn peek_min_time(&mut self) -> Option<SimTime> {
        self.purge_head().map(|(time, _)| time)
    }

    fn approx_bytes(&self) -> usize {
        // Approximates hashbrown's 8-byte key + control byte at its
        // steady-state load factor.
        const HASH_SLOT_BYTES: usize = 10;
        std::mem::size_of::<Self>()
            + self.heap.capacity() * std::mem::size_of::<Reverse<Scheduled<E>>>()
            + (self.pending.capacity() + self.tombs.capacity()) * HASH_SLOT_BYTES
    }
}

/// Minimum bucket count; the queue never shrinks below this.
const MIN_BUCKETS: usize = 16;
/// Target average bucket occupancy after a resize.
const TARGET_OCCUPANCY: usize = 4;
/// Grow when average occupancy exceeds this.
const GROW_OCCUPANCY: usize = 8;
/// Head-sample size used to estimate inter-event spacing for the bucket
/// width (Brown's calendar-queue heuristic).
const WIDTH_SAMPLE: usize = 64;
/// Consecutive pops that fell through to a direct full search before the
/// queue concludes its bucket width no longer matches the event spacing and
/// rehashes with a freshly sampled width.
const DIRECT_STREAK_REHASH: u32 = 8;

/// `heads` value of an empty bucket. An entry stamped `u64::MAX` may share
/// it harmlessly: such an entry never passes the year scan's `time < top`
/// test anyway, so the direct search finds it either way.
const EMPTY_HEAD: u64 = u64::MAX;

/// The hot fields of one queued event: its time and its slab slot. The
/// tie-breaking seq lives in the slot (a slot is never reused while an
/// entry points at it), and is read only to order equal times.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: u64,
    slot: u32,
}

/// One slab slot: a payload and the seq of the entry that last owned the
/// slot. `event` is `None` once the entry is cancelled (its bucket entry is
/// then a tombstone) and while the slot sits on the free list.
#[derive(Debug, Clone)]
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// A calendar-queue FEL (Brown 1988): O(1) amortized push/pop with
/// slab-allocated payloads and slot-addressed cancellation.
///
/// Time is divided into buckets of `width` nanoseconds; bucket `b` holds
/// every pending event whose timestamp falls in a window congruent to `b`
/// modulo the bucket count (the "year" wraps like a desk calendar). Popping
/// scans forward from the current position; a bucket's minimum `(time,
/// seq)` entry within the current year is the global minimum, so pop order
/// is exactly the total order the binary heap produced.
///
/// * **Sorted buckets** — each bucket keeps its entries sorted by `(time,
///   seq)`, and `heads` mirrors every bucket's first time in one dense
///   `u64` array, so the year scan is a walk over `heads` that never
///   dereferences a bucket until it hits.
/// * **Slab payloads** — event payloads and their seqs live in `slab` (one
///   [`Slot`] per entry, reused through a free list); bucket entries store
///   only the time and a `u32` slot index. Steady-state churn allocates
///   nothing and never moves payload bytes through the scan.
/// * **Cancellation** — `cancel(seq, slot)` checks the slot's owning seq
///   and empties its payload in place. The bucket entry stays behind as a
///   tombstone: dropped when it surfaces as the scan minimum, and
///   wholesale during resize rehashes; only then does its slot return to
///   the free list.
/// * **Resize policy** — when average occupancy leaves the
///   [`TARGET_OCCUPANCY`]-centred band, every entry is rehashed into a new
///   power-of-two bucket array sized for occupancy ~4, with the width
///   re-sampled from the [`WIDTH_SAMPLE`] soonest entries (twice their mean
///   spacing). A streak of [`DIRECT_STREAK_REHASH`] direct full searches —
///   the symptom of a stale width — forces the same rehash.
/// * **Snapshots** — `Clone` deep-copies the slab, buckets, and scan
///   cursor, so a checkpointed scheduler resumes bit-identically.
#[derive(Debug, Clone)]
pub struct CalendarFel<E> {
    /// Payload slab; slots with no payload are free (listed in `free`) or
    /// held by a tombstone.
    slab: Vec<Slot<E>>,
    /// Free slab slots, reused LIFO.
    free: Vec<u32>,
    /// The calendar proper, each bucket sorted by `(time, seq)`.
    /// `buckets.len()` is always a power of two.
    buckets: Vec<Vec<Entry>>,
    /// `heads[b]` is the time of `buckets[b]`'s first entry, or
    /// [`EMPTY_HEAD`].
    heads: Vec<u64>,
    /// `buckets.len() - 1`, for cheap modulo.
    mask: usize,
    /// Bucket width in nanoseconds. Always a power of two so the hot
    /// bucket/window math is shifts and masks, never a 64-bit division.
    width: u64,
    /// Entries across all buckets, including unpurged tombstones.
    len: usize,
    /// Entries that are neither popped nor cancelled.
    live: usize,
    /// Bucket the next scan resumes from.
    scan_bucket: usize,
    /// Exclusive upper time bound of `scan_bucket`'s window in the year
    /// being scanned.
    scan_top: u64,
    /// Scanning is guaranteed not to have passed this time: every live
    /// entry has `time >= scan_floor`. A push below it rewinds the cursor.
    scan_floor: u64,
    /// Consecutive pops that needed a direct full search.
    direct_streak: u32,
}

impl<E> Default for CalendarFel<E> {
    fn default() -> Self {
        <Self as Fel<E>>::new()
    }
}

impl<E> CalendarFel<E> {
    /// Initial bucket width: 1.024us, a typical event spacing for a lightly
    /// loaded network partition. The first resize replaces it with a
    /// sampled value.
    const INITIAL_WIDTH: u64 = 1 << 10;

    #[inline]
    fn bucket_of(&self, time: u64) -> usize {
        // width is a power of two: divide via shift.
        (time >> self.width.trailing_zeros()) as usize & self.mask
    }

    /// Exclusive upper bound of the bucket window containing `time`.
    #[inline]
    fn top_of(&self, time: u64) -> u64 {
        (time & !(self.width - 1)).saturating_add(self.width)
    }

    fn alloc_slot(&mut self, seq: u64, event: E) -> u32 {
        let entry = Slot {
            seq,
            event: Some(event),
        };
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                assert!(
                    self.slab.len() < u32::MAX as usize,
                    "calendar-queue slab exhausted (2^32 concurrent events)"
                );
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Files `e` into its bucket, keeping the bucket sorted by `(time,
    /// seq)` and `heads` in step. A bucket also holds entries of later
    /// years (far-future timers, pre-scheduled flow starts) behind the
    /// current year's, so a push typically shifts a few 16-byte entries:
    /// a short backward scan and a small move.
    #[inline]
    fn insert(&mut self, e: Entry) {
        let b = self.bucket_of(e.time);
        let slab = &self.slab;
        let seq = slab[e.slot as usize].seq;
        let bucket = &mut self.buckets[b];
        let at = bucket
            .iter()
            .rposition(|x| x.time < e.time || (x.time == e.time && slab[x.slot as usize].seq < seq))
            .map_or(0, |i| i + 1);
        bucket.insert(at, e);
        if at == 0 {
            self.heads[b] = e.time;
        }
    }

    /// Removes bucket `b`'s first (minimum) entry, keeping `heads` in step.
    #[inline]
    fn remove_head(&mut self, b: usize) -> Entry {
        let bucket = &mut self.buckets[b];
        let e = bucket.remove(0);
        self.heads[b] = bucket.first().map_or(EMPTY_HEAD, |x| x.time);
        e
    }

    /// Power-of-two bucket count targeting [`TARGET_OCCUPANCY`] entries per
    /// bucket.
    fn target_buckets(len: usize) -> usize {
        (len / TARGET_OCCUPANCY)
            .next_power_of_two()
            .max(MIN_BUCKETS)
    }

    /// Estimates a bucket width from the spacing of the `WIDTH_SAMPLE`
    /// soonest entries: twice their mean gap, rounded up to a power of two
    /// (the hot-path math requires it; being up to 2x wide just packs a
    /// couple more entries per bucket). Returns `None` (keep the current
    /// width) with fewer than two entries.
    fn sampled_width(entries: &mut [Entry]) -> Option<u64> {
        if entries.len() < 2 {
            return None;
        }
        let k = entries.len().min(WIDTH_SAMPLE);
        // The k soonest times form one multiset however ties are broken.
        entries.select_nth_unstable_by_key(k - 1, |e| e.time);
        let head = &entries[..k];
        let lo = head.iter().map(|e| e.time).min().expect("nonempty sample");
        let hi = head.iter().map(|e| e.time).max().expect("nonempty sample");
        let mean_gap = (hi - lo) / (k as u64 - 1);
        // Cap below the top bit so next_power_of_two cannot wrap to zero.
        let w = mean_gap.saturating_mul(2).clamp(1, 1 << 62);
        Some(w.next_power_of_two())
    }

    /// Rebuilds the bucket array at the size/width appropriate for the
    /// current population, dropping tombstones for good along the way, and
    /// rewinds the scan cursor to the earliest live entry.
    fn rehash(&mut self) {
        let mut entries: Vec<Entry> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.append(bucket);
        }
        // Every entry is in hand: purge tombstones wholesale.
        entries.retain(|e| {
            if self.slab[e.slot as usize].event.is_none() {
                self.free.push(e.slot);
                false
            } else {
                true
            }
        });
        self.len = entries.len();
        if let Some(w) = Self::sampled_width(&mut entries) {
            self.width = w;
        }
        let target = Self::target_buckets(self.len);
        if target != self.buckets.len() {
            self.buckets = vec![Vec::new(); target];
            self.mask = target - 1;
        }
        self.heads.clear();
        self.heads.resize(target, EMPTY_HEAD);
        let mut floor: Option<u64> = None;
        for &e in &entries {
            self.insert(e);
            floor = Some(floor.map_or(e.time, |f| f.min(e.time)));
        }
        // Rewind the cursor to the earliest live entry (or keep the old
        // floor when empty — pushes at or above it still land ahead of the
        // cursor, and pushes below it rewind the cursor anyway).
        let floor = floor.unwrap_or(self.scan_floor);
        self.scan_floor = floor;
        self.scan_bucket = self.bucket_of(floor);
        self.scan_top = self.top_of(floor);
        self.direct_streak = 0;
    }

    fn maybe_resize(&mut self) {
        let n = self.buckets.len();
        if self.len > n * GROW_OCCUPANCY || (n > MIN_BUCKETS && self.len < n / 2) {
            self.rehash();
        }
    }

    /// Positions the scan cursor on the minimum live entry and returns the
    /// bucket whose first entry it is. Tombstoned entries that surface as
    /// the minimum are purged and the search continues. Returns `None`
    /// when the queue holds no entries at all.
    fn locate(&mut self) -> Option<usize> {
        loop {
            if self.len == 0 {
                return None;
            }
            // Scan one calendar year starting at the cursor. Bucket windows
            // below `scan_floor` hold nothing (invariant), so the first
            // bucket whose head lies inside the year's window holds the
            // global minimum.
            let mut b = self.scan_bucket;
            let mut top = self.scan_top;
            let mut hit = None;
            for _ in 0..self.heads.len() {
                if self.heads[b] < top {
                    hit = Some(b);
                    break;
                }
                b = (b + 1) & self.mask;
                top = top.saturating_add(self.width);
            }
            let b = match hit {
                Some(b) => {
                    self.scan_bucket = b;
                    self.scan_top = top;
                    self.direct_streak = 0;
                    b
                }
                None => {
                    // A whole year of buckets held nothing eligible: the
                    // next event is over a year ahead. Find it directly and
                    // jump the cursor there. Equal times share a bucket, so
                    // the heads' times alone pick the minimum.
                    let (time, b) = self
                        .buckets
                        .iter()
                        .enumerate()
                        .filter_map(|(b, bucket)| bucket.first().map(|e| (e.time, b)))
                        .min()
                        .expect("len > 0 but no entry found");
                    self.scan_bucket = b;
                    self.scan_top = self.top_of(time);
                    self.direct_streak += 1;
                    b
                }
            };
            // The located entry is the global minimum (live or tombstoned),
            // so every remaining entry is at or above its time: raise the
            // floor *before* the tombstone check. Raising it only on live
            // hits would leave a purge-advanced cursor with a stale floor —
            // a later push between floor and cursor would not rewind and
            // the scan would miss it.
            let head = self.buckets[b][0];
            self.scan_floor = head.time;
            if self.slab[head.slot as usize].event.is_none() {
                self.remove_head(b);
                self.free.push(head.slot);
                self.len -= 1;
                // Purges shrink the population too: without this check a
                // heavily-cancelled queue would drain to empty while the
                // bucket array stayed at its high-water size.
                self.maybe_resize();
                continue;
            }
            if self.direct_streak >= DIRECT_STREAK_REHASH {
                // The width no longer matches the event spacing (every pop
                // is falling through to a full search): re-sample it.
                self.rehash();
                continue;
            }
            return Some(b);
        }
    }
}

impl<E> Fel<E> for CalendarFel<E> {
    fn new() -> Self {
        CalendarFel {
            slab: Vec::new(),
            free: Vec::new(),
            buckets: vec![Vec::new(); MIN_BUCKETS],
            heads: vec![EMPTY_HEAD; MIN_BUCKETS],
            mask: MIN_BUCKETS - 1,
            width: Self::INITIAL_WIDTH,
            len: 0,
            live: 0,
            scan_bucket: 0,
            scan_top: Self::INITIAL_WIDTH,
            scan_floor: 0,
            direct_streak: 0,
        }
    }

    fn live(&self) -> usize {
        self.live
    }

    fn push(&mut self, time: SimTime, seq: u64, event: E) -> u32 {
        let t = time.as_nanos();
        let slot = self.alloc_slot(seq, event);
        self.insert(Entry { time: t, slot });
        self.len += 1;
        self.live += 1;
        if t < self.scan_floor {
            // The cursor had advanced past this instant (e.g. a peek jumped
            // a sparse stretch): rewind it so the scan cannot miss the new
            // entry.
            self.scan_floor = t;
            self.scan_bucket = self.bucket_of(t);
            self.scan_top = self.top_of(t);
        }
        self.maybe_resize();
        slot
    }

    fn cancel(&mut self, seq: u64, slot: u32) -> bool {
        match self.slab.get_mut(slot as usize) {
            Some(entry) if entry.seq == seq && entry.event.is_some() => {
                entry.event = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)> {
        let b = self.locate()?;
        if self.heads[b] > limit.as_nanos() {
            return None;
        }
        let head = self.remove_head(b);
        let slot = &mut self.slab[head.slot as usize];
        let event = slot.event.take().expect("located entry is live");
        let seq = slot.seq;
        self.free.push(head.slot);
        self.len -= 1;
        self.live -= 1;
        self.maybe_resize();
        Some((SimTime::from_nanos(head.time), seq, event))
    }

    fn peek_min_time(&mut self) -> Option<SimTime> {
        self.locate().map(|b| SimTime::from_nanos(self.heads[b]))
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slab.capacity() * std::mem::size_of::<Slot<E>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.buckets.capacity() * std::mem::size_of::<Vec<Entry>>()
            + self.heads.capacity() * std::mem::size_of::<u64>()
            + self
                .buckets
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<Entry>())
                .sum::<usize>()
    }
}

/// The future event list: a priority queue of `(time, event)` pairs plus the
/// simulation clock.
///
/// The queue structure is pluggable ([`Fel`]); the default is the
/// [`CalendarFel`] calendar queue, with [`BinaryHeapFel`] available as the
/// differential-testing reference (`HeapScheduler` alias). Both yield the
/// identical `(time, seq)` total order.
///
/// Cancellation is O(1) and lazy: the FEL empties the cancelled entry's
/// slot in place and discards the leftover entry when it surfaces (see the
/// module docs). Cloning a scheduler (possible whenever the event type is
/// `Clone`) deep-copies the queue and clock, so a clone is an independent
/// resumable snapshot — the substrate of [`crate::checkpoint`].
#[derive(Debug, Clone)]
pub struct Scheduler<E, F: Fel<E> = CalendarFel<E>> {
    now: SimTime,
    fel: F,
    next_seq: u64,
    scheduled_total: u64,
    executed_total: u64,
    cancelled_total: u64,
    _event: PhantomData<E>,
}

/// A scheduler running on the legacy binary-heap FEL, for differential
/// testing and before/after benchmarking against the calendar queue.
pub type HeapScheduler<E> = Scheduler<E, BinaryHeapFel<E>>;

impl<E, F: Fel<E>> Default for Scheduler<E, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, F: Fel<E>> Scheduler<E, F> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            fel: F::new(),
            next_seq: 0,
            scheduled_total: 0,
            executed_total: 0,
            cancelled_total: 0,
            _event: PhantomData,
        }
    }

    /// The current simulated time (the timestamp of the event being handled,
    /// or zero before the first event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (causality violations are programming
    /// errors, never recoverable conditions) or if the local sequence space
    /// is exhausted — an exhausted local lane would silently collide into
    /// the remote lane and corrupt tie-break order, so the check is always
    /// on, not debug-only.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventKey {
        assert!(
            at >= self.now,
            "attempted to schedule an event in the past ({at} < now {})",
            self.now
        );
        let seq = self.next_seq;
        assert!(
            seq < REMOTE_LANE,
            "local sequence space exhausted: seq would enter the remote lane \
             and corrupt tie-break order"
        );
        self.next_seq += 1;
        self.scheduled_total += 1;
        let slot = self.fel.push(at, seq, event);
        EventKey { seq, slot }
    }

    /// Schedules `event` to fire `delay` after the current time.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventKey {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` to fire at the current instant, after all events
    /// already scheduled for this instant.
    #[inline]
    pub fn schedule_now(&mut self, event: E) -> EventKey {
        self.schedule_at(self.now, event)
    }

    /// Schedules a cross-partition delivery on the remote lane.
    ///
    /// The event's tie-break key is `(at, sender, send_seq)` — intrinsic to
    /// the message, not to the insertion order — so a batch of same-timestamp
    /// deliveries from different senders fires in the same order no matter
    /// which epoch plan (or chunk boundary) carried them. Remote deliveries
    /// sort after all local events at the same instant.
    ///
    /// # Panics
    /// Panics if `at` is in the past, if `sender` does not fit in the
    /// remote-lane sender field, or if `send_seq` overflows the send-counter
    /// field. All three checks hold in release builds.
    pub fn schedule_remote(&mut self, at: SimTime, sender: usize, send_seq: u64, event: E) {
        assert!(
            at >= self.now,
            "remote delivery violates causality ({at} < now {})",
            self.now
        );
        let seq = remote_seq(sender, send_seq);
        self.scheduled_total += 1;
        self.fel.push(at, seq, event);
    }

    /// Inserts a batch of remote deliveries, all from the same `sender`.
    ///
    /// Tie-break stability comes from the intrinsic `(sender, send_seq)` key,
    /// not from insertion order, so callers may hand over per-sender batches
    /// in any sender order and still get identical pop order.
    pub fn schedule_remote_batch(
        &mut self,
        sender: usize,
        batch: impl IntoIterator<Item = (SimTime, u64, E)>,
    ) {
        for (at, send_seq, event) in batch {
            self.schedule_remote(at, sender, send_seq, event);
        }
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending, `false` if it already fired or was already cancelled.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if !self.fel.cancel(key.seq, key.slot) {
            return false;
        }
        self.cancelled_total += 1;
        true
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.fel.peek_min_time()
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes and returns the earliest pending event if it is stamped at
    /// or before `limit`, advancing the clock to its timestamp. Returns
    /// `None`, leaving the event queued, when the queue is empty or its
    /// earliest event lies after `limit`.
    ///
    /// Run loops use this instead of `peek_time` followed by `pop`: it
    /// searches the queue once per executed event instead of twice.
    ///
    /// # Panics
    /// Panics if the FEL yields an event stamped before the current clock.
    /// The check holds in release builds: a broken queue must not run the
    /// clock backwards silently.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let (time, _seq, event) = self.fel.pop_until(limit)?;
        assert!(
            time >= self.now,
            "FEL yielded an event from the past ({time} < now {})",
            self.now
        );
        self.now = time;
        self.executed_total += 1;
        Some((time, event))
    }

    /// Number of events currently pending. Exact: tombstoned (cancelled but
    /// not yet purged) entries are not counted.
    pub fn pending(&self) -> usize {
        self.fel.live()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Total events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total events executed (popped and not tombstoned).
    pub fn executed_total(&self) -> u64 {
        self.executed_total
    }

    /// Total events cancelled before firing.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// Estimated resident bytes of the FEL and its bookkeeping (allocated
    /// capacity, not just live entries; see [`Fel::approx_bytes`]).
    ///
    /// The estimate is computed from container capacities, so for a fixed
    /// operation sequence it is deterministic across hosts — which is what
    /// lets the `pdes_scaling` bytes/host gate use a committed baseline.
    pub fn fel_bytes(&self) -> usize {
        self.fel.approx_bytes()
    }

    /// Forces the clock forward to `t` without executing anything.
    ///
    /// Used by the PDES engine at epoch barriers; panics if a pending event
    /// would be skipped or if `t` is in the past.
    pub fn advance_clock(&mut self, t: SimTime) {
        assert!(t >= self.now, "clock may not move backwards");
        if let Some(head) = self.peek_time() {
            assert!(
                head >= t,
                "advance_clock({t}) would skip an event at {head}"
            );
        }
        self.now = t;
    }

    /// Test-only override of the local sequence counter, for exercising the
    /// sequence-space exhaustion check.
    #[cfg(test)]
    fn set_next_seq_for_test(&mut self, seq: u64) {
        self.next_seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(30), "c");
        s.schedule_at(SimTime::from_nanos(10), "a");
        s.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.now(), SimTime::from_nanos(30));
    }

    #[test]
    fn ties_fire_in_posting_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_suppresses_event() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let k = s.schedule_at(SimTime::from_nanos(10), "dead");
        s.schedule_at(SimTime::from_nanos(20), "alive");
        assert!(s.cancel(k));
        assert!(!s.cancel(k), "double-cancel reports false");
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "alive");
        assert!(s.pop().is_none());
        assert_eq!(s.cancelled_total(), 1);
        assert_eq!(s.executed_total(), 1);
    }

    #[test]
    fn cancel_after_fire_reports_false() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let k = s.schedule_at(SimTime::from_nanos(10), "fired");
        s.pop();
        assert!(!s.cancel(k), "cancelling a fired event is a no-op");
        assert_eq!(s.cancelled_total(), 0);
        assert_eq!(
            s.scheduled_total(),
            s.executed_total() + s.cancelled_total()
        );
    }

    #[test]
    fn cancel_unknown_key_is_noop() {
        let mut s: Scheduler<&str> = Scheduler::new();
        assert!(!s.cancel(EventKey { seq: 42, slot: 0 }));
        assert!(
            !s.cancel(EventKey { seq: 42, slot: 7 }),
            "slot beyond the slab"
        );
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let k = s.schedule_at(SimTime::from_nanos(10), "dead");
        s.schedule_at(SimTime::from_nanos(20), "alive");
        s.cancel(k);
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(20)));
    }

    /// Regression (scheduler accounting): `pending()` used to return a
    /// `len - tombstones` upper bound that still counted interior
    /// tombstones, inflating the kernel queue-depth metric. It now returns
    /// the exact live count.
    #[test]
    fn pending_excludes_interior_tombstones() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), 0);
        let dead = s.schedule_at(SimTime::from_nanos(20), 1);
        s.schedule_at(SimTime::from_nanos(30), 2);
        assert_eq!(s.pending(), 3);
        s.cancel(dead);
        // The tombstone sits in the interior of the queue, unpurged; the
        // count must not include it.
        assert_eq!(s.pending(), 2);
        s.pop();
        assert_eq!(s.pending(), 1);
        s.pop();
        assert_eq!(s.pending(), 0);
        assert!(s.is_empty());
    }

    // ---- slot-addressed cancellation, on both backends ----

    /// Peek positions the calendar cursor on the head; cancelling that head
    /// afterwards must not let the next pop return it.
    fn peek_cancel_head_pop<F: Fel<&'static str>>() {
        let mut s: Scheduler<&str, F> = Scheduler::new();
        let head = s.schedule_at(SimTime::from_nanos(10), "head");
        s.schedule_at(SimTime::from_nanos(20), "next");
        assert_eq!(s.pending(), 2);
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(10)));
        assert!(s.cancel(head));
        assert_eq!(s.pending(), 1);
        assert_eq!(s.pop(), Some((SimTime::from_nanos(20), "next")));
        assert_eq!(s.pending(), 0);
        assert!(s.pop().is_none());
    }

    /// Peek positions the cursor; an earlier push afterwards must still pop
    /// first.
    fn peek_push_earlier_pop<F: Fel<&'static str>>() {
        let mut s: Scheduler<&str, F> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(500), "late");
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(500)));
        s.schedule_at(SimTime::from_nanos(100), "early");
        assert_eq!(s.pending(), 2);
        assert_eq!(s.pop(), Some((SimTime::from_nanos(100), "early")));
        assert_eq!(s.pending(), 1);
        assert_eq!(s.pop(), Some((SimTime::from_nanos(500), "late")));
        assert_eq!(s.pending(), 0);
    }

    /// A key whose event fired is stale even after its slot is reused: the
    /// cancel reports `false` and the slot's new event still fires. A
    /// second cancel of a cancelled key reports `false` as well.
    fn stale_key_after_slot_reuse<F: Fel<&'static str>>() {
        let mut s: Scheduler<&str, F> = Scheduler::new();
        let fired = s.schedule_at(SimTime::from_nanos(10), "fired");
        assert_eq!(s.pop(), Some((SimTime::from_nanos(10), "fired")));
        assert_eq!(s.pending(), 0);
        let reused = s.schedule_at(SimTime::from_nanos(20), "reused");
        assert_eq!(reused.slot, fired.slot, "the freed slot is reused");
        assert_eq!(s.pending(), 1);
        assert!(!s.cancel(fired), "stale key must not cancel the new owner");
        assert_eq!(s.pending(), 1);
        assert_eq!(s.cancelled_total(), 0);
        let doomed = s.schedule_at(SimTime::from_nanos(30), "doomed");
        assert_eq!(s.pending(), 2);
        assert!(s.cancel(doomed));
        assert_eq!(s.pending(), 1);
        assert!(!s.cancel(doomed), "second cancel reports false");
        assert_eq!(s.pending(), 1);
        assert_eq!(s.cancelled_total(), 1);
        assert_eq!(s.pop(), Some((SimTime::from_nanos(20), "reused")));
        assert_eq!(s.pending(), 0);
        assert!(s.pop().is_none());
        assert_eq!(
            s.scheduled_total(),
            s.executed_total() + s.cancelled_total()
        );
    }

    /// A key cancelled while its tombstone was purged and its slot reused
    /// stays stale too.
    fn stale_key_after_purge_and_reuse<F: Fel<&'static str>>() {
        let mut s: Scheduler<&str, F> = Scheduler::new();
        let dead = s.schedule_at(SimTime::from_nanos(10), "dead");
        s.schedule_at(SimTime::from_nanos(20), "alive");
        assert!(s.cancel(dead));
        // Popping purges the tombstone and frees its slot...
        assert_eq!(s.pop(), Some((SimTime::from_nanos(20), "alive")));
        // ...which the next push takes over.
        let heir = s.schedule_at(SimTime::from_nanos(30), "heir");
        assert!(!s.cancel(dead));
        assert_eq!(s.pending(), 1);
        assert!(s.cancel(heir));
        assert_eq!(s.pending(), 0);
        assert!(s.pop().is_none());
    }

    /// `pop_until` pops only due events and leaves the rest queued, and a
    /// cancelled head does not hide a due event behind it.
    fn pop_until_respects_limit<F: Fel<&'static str>>() {
        let mut s: Scheduler<&str, F> = Scheduler::new();
        let dead = s.schedule_at(SimTime::from_nanos(5), "dead");
        s.schedule_at(SimTime::from_nanos(10), "due");
        s.schedule_at(SimTime::from_nanos(11), "later");
        s.cancel(dead);
        assert_eq!(
            s.pop_until(SimTime::from_nanos(10)),
            Some((SimTime::from_nanos(10), "due"))
        );
        assert_eq!(s.pop_until(SimTime::from_nanos(10)), None);
        assert_eq!(s.now(), SimTime::from_nanos(10));
        assert_eq!(s.pending(), 1);
        assert_eq!(
            s.pop_until(SimTime::from_nanos(11)),
            Some((SimTime::from_nanos(11), "later"))
        );
        assert_eq!(s.pop_until(SimTime::MAX), None);
    }

    #[test]
    fn calendar_cancellation_semantics() {
        peek_cancel_head_pop::<CalendarFel<_>>();
        peek_push_earlier_pop::<CalendarFel<_>>();
        stale_key_after_slot_reuse::<CalendarFel<_>>();
        stale_key_after_purge_and_reuse::<CalendarFel<_>>();
        pop_until_respects_limit::<CalendarFel<_>>();
    }

    #[test]
    fn heap_cancellation_semantics() {
        peek_cancel_head_pop::<BinaryHeapFel<_>>();
        peek_push_earlier_pop::<BinaryHeapFel<_>>();
        stale_key_after_slot_reuse::<BinaryHeapFel<_>>();
        stale_key_after_purge_and_reuse::<BinaryHeapFel<_>>();
        pop_until_respects_limit::<BinaryHeapFel<_>>();
    }

    /// The remote-lane field checks hold in release builds: an overflowing
    /// send counter would bleed into the sender field and corrupt tie-break
    /// order silently.
    #[test]
    fn remote_send_seq_overflow_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_remote(SimTime::from_nanos(1), 1, SEND_SEQ_MASK, ());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.schedule_remote(SimTime::from_nanos(1), 1, SEND_SEQ_MASK + 1, ());
        }));
        assert!(r.is_err(), "send-seq overflow must panic");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.schedule_remote(SimTime::from_nanos(1), MAX_SENDER as usize + 1, 0, ());
        }));
        assert!(r.is_err(), "sender overflow must panic");
        assert_eq!(s.pending(), 1);
    }

    /// Regression: the sequence-space exhaustion check must hold in release
    /// builds too — a local seq entering the remote lane would corrupt
    /// tie-break order silently.
    #[test]
    fn local_sequence_space_exhaustion_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.set_next_seq_for_test(REMOTE_LANE);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.schedule_at(SimTime::from_nanos(1), ());
        }));
        assert!(r.is_err(), "exhausted local lane must panic, not collide");
    }

    #[test]
    #[should_panic]
    fn scheduling_in_past_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), ());
        s.pop();
        s.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn schedule_now_runs_after_current_instant_peers() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), "first");
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "first");
        s.schedule_now("second");
        let (t, e) = s.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_nanos(10), "second"));
    }

    #[test]
    fn remote_lane_sorts_after_locals_and_by_sender_seq() {
        let t = SimTime::from_nanos(7);
        // Insert remote deliveries in scrambled order; locals afterwards.
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_remote(t, 2, 0, "r2.0");
        s.schedule_remote(t, 1, 1, "r1.1");
        s.schedule_at(t, "local0");
        s.schedule_remote(t, 1, 0, "r1.0");
        s.schedule_at(t, "local1");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["local0", "local1", "r1.0", "r1.1", "r2.0"]);
    }

    #[test]
    fn remote_tie_order_is_insertion_order_independent() {
        let t = SimTime::from_nanos(3);
        let mut forward: Scheduler<u32> = Scheduler::new();
        let mut backward: Scheduler<u32> = Scheduler::new();
        let msgs = [(0usize, 0u64, 10u32), (1, 0, 20), (2, 0, 30), (1, 1, 21)];
        for &(sender, seq, v) in &msgs {
            forward.schedule_remote(t, sender, seq, v);
        }
        for &(sender, seq, v) in msgs.iter().rev() {
            backward.schedule_remote(t, sender, seq, v);
        }
        let f: Vec<_> = std::iter::from_fn(|| forward.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| backward.pop()).collect();
        assert_eq!(f, b);
        assert_eq!(
            f.into_iter().map(|(_, v)| v).collect::<Vec<_>>(),
            vec![10, 20, 21, 30]
        );
    }

    #[test]
    fn remote_batch_matches_singles() {
        let t = SimTime::from_nanos(9);
        let mut batched: Scheduler<u32> = Scheduler::new();
        batched.schedule_remote_batch(4, vec![(t, 0, 1u32), (t, 1, 2), (t, 2, 3)]);
        let mut singles: Scheduler<u32> = Scheduler::new();
        for (seq, v) in [(2u64, 3u32), (0, 1), (1, 2)] {
            singles.schedule_remote(t, 4, seq, v);
        }
        let a: Vec<_> = std::iter::from_fn(|| batched.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| singles.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn remote_delivery_in_past_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), ());
        s.pop();
        s.schedule_remote(SimTime::from_nanos(5), 0, 0, ());
    }

    #[test]
    fn advance_clock_moves_time_when_safe() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.advance_clock(SimTime::from_nanos(100));
        assert_eq!(s.now(), SimTime::from_nanos(100));
    }

    #[test]
    #[should_panic]
    fn advance_clock_refuses_to_skip_events() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(50), ());
        s.advance_clock(SimTime::from_nanos(100));
    }

    // ---- calendar-queue specifics ----

    /// Deterministic pseudo-random offsets for structure-exercising tests.
    fn mix(state: &mut u64) -> u64 {
        *state = crate::rng::splitmix64(*state);
        *state
    }

    #[test]
    fn calendar_grows_and_drains_in_order() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut st = 7u64;
        for i in 0..10_000u64 {
            s.schedule_at(SimTime::from_nanos(mix(&mut st) % 50_000_000), i);
        }
        let mut prev = (SimTime::ZERO, 0u64);
        let mut popped = 0u64;
        while let Some((t, v)) = s.pop() {
            assert!(t >= prev.0, "pop order must be time-monotone");
            if t == prev.0 && popped > 0 {
                assert!(v > prev.1, "ties must fire in posting order");
            }
            prev = (t, v);
            popped += 1;
        }
        assert_eq!(popped, 10_000);
        assert_eq!(s.executed_total(), 10_000);
    }

    #[test]
    fn calendar_handles_sparse_jumps_and_bursts() {
        let mut s: Scheduler<u64> = Scheduler::new();
        // Dense burst at t=0..100, then a lone event a full second later,
        // then another burst: exercises the direct-search jump and the
        // push-below-cursor rewind after a peek.
        for i in 0..64u64 {
            s.schedule_at(SimTime::from_nanos(i), i);
        }
        s.schedule_at(SimTime::from_secs(1), 1000);
        for _ in 0..64 {
            s.pop().unwrap();
        }
        // Peek jumps the cursor a year ahead...
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(1)));
        // ...then a push below the peeked instant must still pop first.
        s.schedule_at(SimTime::from_nanos(200), 2000);
        assert_eq!(s.pop().unwrap(), (SimTime::from_nanos(200), 2000));
        assert_eq!(s.pop().unwrap(), (SimTime::from_secs(1), 1000));
        assert!(s.pop().is_none());
    }

    #[test]
    fn calendar_shrinks_after_heavy_cancellation() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let keys: Vec<_> = (0..4096u64)
            .map(|i| s.schedule_at(SimTime::from_nanos(i * 10), i))
            .collect();
        for k in &keys[64..] {
            s.cancel(*k);
        }
        let grown = s.fel_bytes();
        // Drain the survivors; resize rehashes purge the tombstones and the
        // bucket array shrinks back toward its floor.
        let mut seen = 0;
        while s.pop().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 64);
        assert_eq!(
            s.scheduled_total(),
            s.executed_total() + s.cancelled_total()
        );
        assert!(
            s.fel_bytes() <= grown,
            "drained queue must not keep growing"
        );
    }

    /// Checkpoint/restore: a deep clone of a populated calendar queue
    /// (interior tombstones, remote-lane entries, mid-scan cursor) drains
    /// bit-identically to the original.
    #[test]
    fn calendar_clone_is_a_faithful_snapshot() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut st = 11u64;
        let keys: Vec<_> = (0..2000u64)
            .map(|i| s.schedule_at(SimTime::from_nanos(mix(&mut st) % 1_000_000), i))
            .collect();
        for k in keys.iter().step_by(3) {
            s.cancel(*k);
        }
        s.schedule_remote(SimTime::from_millis(2), 3, 0, 9999);
        for _ in 0..500 {
            s.pop();
        }
        let mut snapshot = s.clone();
        let rest_original: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
        let rest_snapshot: Vec<_> = std::iter::from_fn(|| snapshot.pop()).collect();
        assert_eq!(rest_original, rest_snapshot);
        assert_eq!(s.executed_total(), snapshot.executed_total());
        assert_eq!(s.pending(), 0);
    }
}
