//! [`LabelMap`]: a keyed sorted map over a list-labeling backend — the
//! database-index application the paper opens with (list labeling was
//! proposed for database indexing at PODS '99; packed-memory arrays power
//! cache-friendly indexes because a range scan is a contiguous sweep of
//! one physical array).
//!
//! # Layout
//!
//! The entries live in a **payload array** indexed by label: `payload[l]`
//! holds the `(key, value)` of the element the backend stores in slot `l`,
//! and is `None` exactly where that slot is free. The array is as long as
//! the backend's slot array ([`RawList::num_slots`]), so keys sit
//! physically sorted, with the backend's gaps between them.
//!
//! It is kept in step with the backend's move log. A point insert or
//! delete replays its [`OpReport`] in order (`payload[to] =
//! payload[from].take()`, and the new entry lands at its placement); a
//! bulk splice replays its [`BulkReport`] the same way, then fills the run
//! in one left-to-right walk. A growth or shrink rebuild rewrites every
//! label and is not in any report: it is detected by the epoch, and the
//! array is rebuilt in one O(n) pass that scatters the entries, in order,
//! over the new structure's occupied labels.
//!
//! # Cost
//!
//! * **Search** (`get`, `contains_key`, the keyed seeks) binary-searches
//!   labels, not ranks. One probe reads `payload[mid]`; when that slot is
//!   free, one occupancy-bitmap query ([`RawList::next_label_after`])
//!   skips the gap. About log₂(slots) probes, no rank→label `select` and
//!   no hashing.
//! * **Insert / remove**: one search, one label→rank resolution, the
//!   backend operation, and a replay of its move log.
//! * **Walks** (`iter`, `range`, `into_iter`) sweep the payload array left
//!   to right. `range` resolves its two end ranks once, so it stays an
//!   [`ExactSizeIterator`]; cursors step label to label on the bitmap.
//!
//! # Memory
//!
//! One `Option<(K, V)>` per slot: 48 B for `Vec<u8>` keys and values (the
//! `Option` lives in the `Vec`'s pointer niche), 24 B for `(u64, u64)`.
//! The default Corollary 11 backend has about 3.15 slots per element of
//! capacity, and a growable structure runs between full and quarter
//! full: 3.15 slots per key right after a growth, 6.3 at half load (see
//! `docs/performance.md`).

use crate::backend::{ErasedList, ListBuilder, RawList};
use crate::cursor::MapCursor;
use crate::persist::{Codec, ContainerKind, Header, SnapshotError};
use lll_core::report::{BulkReport, MoveRec, OpReport};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::ops::{Bound, RangeBounds};

/// A dynamically sized sorted map with `BTreeMap`-shaped point operations
/// and PMA-backed range scans.
///
/// ```
/// use lll_api::LabelMap;
///
/// let mut map = LabelMap::new();
/// map.insert(3, "c");
/// map.insert(1, "a");
/// map.insert(2, "b");
/// assert_eq!(map.get(&2), Some(&"b"));
/// let scanned: Vec<i32> = map.range(2..).map(|(k, _)| *k).collect();
/// assert_eq!(scanned, [2, 3]);
/// assert_eq!(map.remove(&1), Some("a"));
/// assert_eq!(map.len(), 2);
/// ```
pub struct LabelMap<K: Ord, V, L: RawList = ErasedList> {
    list: L,
    /// `payload[label]` is the entry stored at that label: `Some` exactly
    /// where the backend's slot is occupied, `num_slots` long.
    payload: Vec<Option<(K, V)>>,
    /// Reused move-log buffer: steady-state point operations allocate
    /// nothing for logging.
    scratch: OpReport,
}

/// Which end of a run of equal keys a label search lands on.
#[derive(Clone, Copy)]
enum Seek {
    /// The first key ≥ the probe.
    AtOrAfter,
    /// The first key > the probe.
    After,
}

/// A `num_slots`-long payload array with every slot free, allocated to
/// exactly that length.
fn free_slots<T>(n: usize) -> Vec<Option<T>> {
    let mut v = Vec::with_capacity(n);
    v.resize_with(n, || None);
    v
}

impl<K: Ord, V> LabelMap<K, V> {
    /// An empty map on the default backend (Corollary 11, erased).
    pub fn new() -> Self {
        ListBuilder::new().label_map()
    }

    /// Build a map from entries **already sorted ascending by key** in one
    /// bulk load: the whole run lands in the backend as a single
    /// evenly-spread sweep (one rebuild epoch, ~one move per element)
    /// instead of `n` point insertions through the doubling cascade —
    /// O(n) ingest instead of O(n · polylog n).
    ///
    /// Equal adjacent keys collapse to the last occurrence (the
    /// `BTreeMap`-shaped "last write wins"). Panics if a key is smaller
    /// than its predecessor; use `collect()` for unordered input, which
    /// detects sortedness and falls back to point insertion when absent.
    ///
    /// ```
    /// use lll_api::LabelMap;
    ///
    /// let map = LabelMap::from_sorted_iter((0..1000).map(|k| (k, k * 2)));
    /// assert_eq!(map.len(), 1000);
    /// assert_eq!(map.get(&720), Some(&1440));
    /// ```
    pub fn from_sorted_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = Self::new();
        map.extend_sorted(iter.into_iter().collect());
        map
    }
}

impl<K: Ord, V> Default for LabelMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V, L: RawList> LabelMap<K, V, L> {
    /// Wrap an already-built backend — erased ([`ListBuilder::build`]) or
    /// concrete ([`ListBuilder::build_growable`]) for static dispatch.
    ///
    /// Panics if the backend is non-empty.
    pub fn with_backend(list: L) -> Self {
        assert!(list.is_empty(), "LabelMap requires an empty backend");
        let payload = free_slots(list.num_slots());
        Self { list, payload, scratch: OpReport::default() }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The underlying algorithm's name.
    pub fn backend_name(&self) -> &'static str {
        self.list.backend_name()
    }

    /// Total element moves the backend has performed (the paper's cost
    /// model, surfaced for accounting).
    pub fn total_moves(&self) -> u64 {
        self.list.total_moves()
    }

    /// Growth/shrink rebuild statistics of the backend.
    pub fn grow_stats(&self) -> lll_core::growable::GrowableStats {
        self.list.grow_stats()
    }

    /// The backend's rebuild epoch (see [`RawList::epoch`]): bumped by
    /// every growth/shrink rebuild. `lll-sharded` folds its advance into
    /// each shard's concurrency epoch, so optimistic readers observe
    /// rebuilds as churn.
    pub fn rebuild_epoch(&self) -> u64 {
        self.list.epoch()
    }

    /// The backend's observability handle: counters, move/rebalance
    /// histograms, and the structural trace ring (see
    /// [`lll_core::metrics::ListMetrics`]).
    pub fn metrics(&self) -> lll_core::metrics::MetricsHandle {
        self.list.metrics_handle()
    }

    /// Read-only access to the underlying backend (cost counters, labels,
    /// slot-array introspection).
    pub fn backend(&self) -> &L {
        &self.list
    }

    /// The entry stored at `label` (`None` on a free slot).
    pub(crate) fn entry_at(&self, label: usize) -> Option<(&K, &V)> {
        self.payload.get(label)?.as_ref().map(|(k, v)| (k, v))
    }

    /// The key stored at an occupied `label`.
    fn key_at(&self, label: usize) -> &K {
        &self.payload[label].as_ref().expect("payload mirrors occupancy").0
    }

    /// The value stored at an occupied `label`.
    fn value_at_mut(&mut self, label: usize) -> &mut V {
        &mut self.payload[label].as_mut().expect("payload mirrors occupancy").1
    }

    /// The label of the first key ≥ `key` ([`Seek::AtOrAfter`]) or > `key`
    /// ([`Seek::After`]), `None` if there is none: a binary search over
    /// labels. Each probe reads `payload[mid]` and, when that slot is free,
    /// skips to the next occupied label with one bitmap query. Like
    /// `BTreeMap`, equality is judged by `Ord::cmp` alone.
    fn seek<Q>(&self, key: &Q, seek: Seek) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        // Invariant: the answer is `found` or an occupied label in lo..hi.
        let (mut lo, mut hi) = (0, self.payload.len());
        let mut found = None;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let label = if self.payload[mid].is_some() {
                mid
            } else {
                match self.list.next_label_after(mid) {
                    Some(l) if l < hi => l,
                    _ => {
                        hi = mid;
                        continue;
                    }
                }
            };
            match self.key_at(label).borrow().cmp(key) {
                Ordering::Less => lo = label + 1,
                Ordering::Greater => {
                    found = Some(label);
                    hi = mid;
                }
                Ordering::Equal => {
                    return match seek {
                        Seek::AtOrAfter => Some(label),
                        Seek::After => self.list.next_label_after(label),
                    };
                }
            }
        }
        found
    }

    /// The rank of the element at `label`, or `len` for `None` (one
    /// label→rank resolution when `Some`).
    fn rank_of_label(&self, label: Option<usize>) -> usize {
        label.map_or(self.len(), |l| self.list.rank_at_label(l))
    }

    /// The label holding exactly `key`, if present.
    fn label_of_key<Q>(&self, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let label = self.seek(key, Seek::AtOrAfter)?;
        self.key_at(label).borrow().cmp(key).is_eq().then_some(label)
    }

    /// The key of rank `rank` (0-based, sorted order).
    ///
    /// **Panics** if `rank >= len`; [`get_key_at_rank`](Self::get_key_at_rank)
    /// is the checked variant.
    pub fn key_at_rank(&self, rank: usize) -> &K {
        self.key_at(self.list.label_of_rank(rank))
    }

    /// The key of rank `rank`, or `None` if `rank >= len` — the checked
    /// form of [`key_at_rank`](Self::key_at_rank).
    pub fn get_key_at_rank(&self, rank: usize) -> Option<&K> {
        (rank < self.len()).then(|| self.key_at_rank(rank))
    }

    /// The rank of the first key ≥ `key` (== `len` if no such key).
    pub fn lower_bound<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.rank_of_label(self.seek(key, Seek::AtOrAfter))
    }

    /// The rank of the first key > `key` (== `len` if no such key).
    pub fn upper_bound<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.rank_of_label(self.seek(key, Seek::After))
    }

    /// Insert `key → value`. Returns the previous value if the key was
    /// present (like `BTreeMap`, the entry keeps its position, handle, and
    /// originally stored key).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let at = self.seek(&key, Seek::AtOrAfter);
        if let Some(l) = at.filter(|&l| self.key_at(l).cmp(&key).is_eq()) {
            return Some(std::mem::replace(self.value_at_mut(l), value));
        }
        let rank = self.rank_of_label(at);
        self.insert_at_rank(rank, (key, value));
        None
    }

    /// The value of `key`. Accepts any borrowed form of the key type
    /// (`&str` for `String` keys, like `BTreeMap`).
    ///
    /// ```
    /// use lll_api::LabelMap;
    ///
    /// let mut map: LabelMap<String, u32> = LabelMap::new();
    /// map.insert("ten".to_string(), 10);
    /// assert_eq!(map.get("ten"), Some(&10));
    /// assert!(map.contains_key("ten"));
    /// ```
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.label_of_key(key).and_then(|l| self.entry_at(l)).map(|(_, v)| v)
    }

    /// Mutable access to the value of `key`.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let l = self.label_of_key(key)?;
        Some(self.value_at_mut(l))
    }

    /// True if `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.label_of_key(key).is_some()
    }

    /// Remove `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let label = self.label_of_key(key)?;
        let rank = self.list.rank_at_label(label);
        Some(self.remove_at(label, rank).1)
    }

    /// The smallest entry.
    pub fn first_key_value(&self) -> Option<(&K, &V)> {
        self.entry_at(self.list.first_label()?)
    }

    /// The largest entry.
    pub fn last_key_value(&self) -> Option<(&K, &V)> {
        self.entry_at(self.list.last_label()?)
    }

    /// Remove and return the smallest entry.
    pub fn pop_first(&mut self) -> Option<(K, V)> {
        let label = self.list.first_label()?;
        Some(self.remove_at(label, 0))
    }

    /// Remove and return the largest entry.
    pub fn pop_last(&mut self) -> Option<(K, V)> {
        let label = self.list.last_label()?;
        Some(self.remove_at(label, self.len() - 1))
    }

    /// Remove every entry, keeping the backend (and its cost counters)
    /// alive. Deletions run back-to-front — removal is free in the paper's
    /// cost model, so this is O(n) plus at most O(n) shrink-rebuild moves.
    pub fn clear(&mut self) {
        while !self.is_empty() {
            self.list.delete(self.len() - 1);
        }
        self.payload = free_slots(self.list.num_slots());
    }

    /// Consume the map into its entries, sorted ascending by key — the
    /// shard **export** hook: one sweep of the payload array, and the
    /// receiving side replays the run through
    /// [`from_sorted_iter`](LabelMap::from_sorted_iter) /
    /// [`extend_sorted`](LabelMap::extend_sorted) in one O(n) sweep.
    pub fn into_sorted_vec(self) -> Vec<(K, V)> {
        self.into_iter().collect()
    }

    /// Drain the entries of ranks `at..len` (the upper part of the key
    /// space), returning them sorted ascending. The retained prefix keeps
    /// its handles and layout. This is the shard **split** hook: the caller
    /// lands the returned run in a fresh map via
    /// [`extend_sorted`](LabelMap::extend_sorted), making a split O(shard)
    /// total.
    ///
    /// Panics if `at > len`.
    pub fn split_off_at_rank(&mut self, at: usize) -> Vec<(K, V)> {
        assert!(at <= self.len(), "split_off_at_rank {at} > len {}", self.len());
        if at == self.len() {
            return Vec::new();
        }
        // The tail is the suffix of the payload array from rank `at`'s
        // label on: take it in one sweep, then delete its elements. Their
        // payload slots are already empty, so the replays move nothing but
        // the retained prefix.
        let from = self.list.label_of_rank(at);
        let tail: Vec<(K, V)> = self.payload[from..].iter_mut().filter_map(Option::take).collect();
        while self.len() > at {
            self.delete_rank(at);
        }
        tail
    }

    /// Drain every entry with key ≥ `key`, returning them sorted ascending
    /// (the key-addressed form of
    /// [`split_off_at_rank`](Self::split_off_at_rank), shaped like
    /// `BTreeMap::split_off`).
    pub fn split_off<Q>(&mut self, key: &Q) -> Vec<(K, V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let at = self.lower_bound(key);
        self.split_off_at_rank(at)
    }

    /// Move every entry of `other` into `self`, leaving `other` empty — the
    /// shard **merge** hook. Runs of `other`'s keys that fall between
    /// `self`'s keys land as single backend splices (equal keys replace the
    /// value, last write wins, as with sequential inserts).
    pub fn append<M: RawList>(&mut self, other: &mut LabelMap<K, V, M>) {
        let drained = other.split_off_at_rank(0);
        self.extend_sorted(drained);
    }

    /// Iterate the entries with keys in `range`, in ascending key order —
    /// physically, a left-to-right sweep of the payload array. The bounds
    /// accept any borrowed form of the key type. Two label searches find
    /// the ends, and at most two label→rank resolutions size the iterator,
    /// however long the range.
    ///
    /// Unlike `BTreeMap::range`, an inverted range (start > end) yields an
    /// empty iterator instead of panicking.
    pub fn range<Q, R>(&self, range: R) -> Range<'_, K, V, L>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
        R: RangeBounds<Q>,
    {
        let start = match range.start_bound() {
            Bound::Included(k) => self.seek(k, Seek::AtOrAfter),
            Bound::Excluded(k) => self.seek(k, Seek::After),
            Bound::Unbounded => self.list.first_label(),
        };
        let end = match range.end_bound() {
            Bound::Included(k) => self.seek(k, Seek::After),
            Bound::Excluded(k) => self.seek(k, Seek::AtOrAfter),
            Bound::Unbounded => None,
        };
        let (start, end_label) = match (start, end) {
            (Some(s), Some(e)) if s < e => (s, e),
            (Some(s), None) => (s, self.payload.len()),
            _ => return Range { inner: Iter::over(&[], 0) },
        };
        let count = self.rank_of_label(end) - self.list.rank_at_label(start);
        Range { inner: Iter::over(&self.payload[start..end_label], count) }
    }

    /// Iterate all entries in ascending key order — one left-to-right
    /// sweep of the payload array, allocating nothing and resolving no
    /// ranks.
    pub fn iter(&self) -> Iter<'_, K, V, L> {
        Iter::over(&self.payload, self.len())
    }

    /// Iterate keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// A read-only cursor parked on the smallest entry (or exhausted if the
    /// map is empty). Cursors step through the backend's occupancy
    /// structure label-to-label — no per-step rank→label resolution.
    pub fn cursor_front(&self) -> MapCursor<'_, K, V, L> {
        MapCursor::new(self, self.list.first_label())
    }

    /// A read-only cursor parked on the largest entry.
    pub fn cursor_back(&self) -> MapCursor<'_, K, V, L> {
        MapCursor::new(self, self.list.last_label())
    }

    /// A read-only cursor parked on the first entry with key ≥ `key`
    /// (exhausted if every key is smaller). One label search at creation,
    /// no rank resolution; stepping is label-native from there.
    pub fn cursor_at<Q>(&self, key: &Q) -> MapCursor<'_, K, V, L>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        MapCursor::new(self, self.seek(key, Seek::AtOrAfter))
    }

    /// Merge a batch of entries **sorted ascending by key** in bulk: runs of
    /// new keys that land in the same gap between existing keys become one
    /// backend splice (one evenly-spread sweep) instead of per-key
    /// insertions. Keys equal to existing ones replace the value in place;
    /// equal adjacent batch keys collapse to the last occurrence.
    ///
    /// This is the engine under [`from_sorted_iter`](LabelMap::from_sorted_iter)
    /// and sorted [`extend`](Extend::extend); call it directly when you
    /// already hold a sorted `Vec`. Panics if the batch is not ascending.
    pub fn extend_sorted(&mut self, mut batch: Vec<(K, V)>) {
        assert!(
            batch.windows(2).all(|w| w[0].0.cmp(&w[1].0).is_le()),
            "extend_sorted requires keys in ascending order"
        );
        // Last write wins among equal batch keys, as with sequential inserts.
        batch.dedup_by(|next, kept| {
            if next.0.cmp(&kept.0).is_eq() {
                std::mem::swap(next, kept);
                true
            } else {
                false
            }
        });
        let mut pending: Vec<(K, V)> = Vec::new();
        // The label of the key just above the open gap (`None`: the gap is
        // the tail) and the rank the run will land at.
        let mut successor: Option<usize> = None;
        let mut pending_rank = 0usize;
        for (k, v) in batch {
            if !pending.is_empty() {
                // Still strictly below the successor of the open gap?
                if successor.is_none_or(|l| k.cmp(self.key_at(l)).is_lt()) {
                    pending.push((k, v));
                    continue;
                }
                self.splice_pending(pending_rank, &mut pending);
            }
            let at = self.seek(&k, Seek::AtOrAfter);
            match at {
                Some(l) if self.key_at(l).cmp(&k).is_eq() => {
                    // Existing key: replace the value, keep position and handle.
                    *self.value_at_mut(l) = v;
                }
                _ => {
                    successor = at;
                    pending_rank = self.rank_of_label(at);
                    pending.push((k, v));
                }
            }
        }
        if !pending.is_empty() {
            self.splice_pending(pending_rank, &mut pending);
        }
    }

    /// Verify the payload array mirrors the backend: `num_slots` long,
    /// `Some` exactly at the occupied labels, keys strictly ascending in
    /// label order. O(slots); used by tests.
    pub fn check_payload(&self) {
        assert_eq!(self.payload.len(), self.list.num_slots(), "payload length != slot count");
        let mut label = self.list.first_label();
        let mut prev: Option<&K> = None;
        let mut occupied = 0;
        while let Some(l) = label {
            let (k, _) =
                self.entry_at(l).unwrap_or_else(|| panic!("occupied label {l} has no entry"));
            assert!(prev.is_none_or(|p| p < k), "keys not ascending at label {l}");
            prev = Some(k);
            occupied += 1;
            label = self.list.next_label_after(l);
        }
        assert_eq!(occupied, self.len(), "occupied labels != len");
        let entries = self.payload.iter().filter(|s| s.is_some()).count();
        assert_eq!(entries, occupied, "entries stored at free labels");
    }

    /// Insert `entry` as the element of `rank` and mirror the move log.
    fn insert_at_rank(&mut self, rank: usize, entry: (K, V)) {
        let epoch = self.list.epoch();
        let mut rep = std::mem::take(&mut self.scratch);
        self.list.insert_reported_into(rank, &mut rep);
        if self.list.epoch() != epoch {
            // The growth rebuild ran before the insert: the report covers
            // only the insert into the fresh structure.
            self.rebuild_payload(rank, std::iter::once(entry));
        } else {
            let mut entry = Some(entry);
            for mv in &rep.moves {
                let (from, to) = (mv.from as usize, mv.to as usize);
                if from == to {
                    // The new element's placement, at its point in the log:
                    // later moves in the same log may carry it on.
                    debug_assert!(self.payload[to].is_none(), "placement into a live slot");
                    self.payload[to] = entry.take();
                } else {
                    self.payload[to] = self.payload[from].take();
                }
            }
            debug_assert!(entry.is_none(), "insert logged no placement");
        }
        self.scratch = rep;
    }

    /// Remove the element at `label` (of rank `rank`), returning its entry.
    fn remove_at(&mut self, label: usize, rank: usize) -> (K, V) {
        let entry = self.payload[label].take().expect("payload mirrors occupancy");
        self.delete_rank(rank);
        entry
    }

    /// Delete the element of `rank` from the backend and mirror the move
    /// log. The caller has already taken its entry, so any move of it
    /// carries an empty slot.
    fn delete_rank(&mut self, rank: usize) {
        let epoch = self.list.epoch();
        let mut rep = std::mem::take(&mut self.scratch);
        self.list.delete_reported_into(rank, &mut rep);
        if self.list.epoch() != epoch {
            self.rebuild_payload(0, std::iter::empty());
        } else {
            self.replay(&rep.moves);
        }
        self.scratch = rep;
    }

    /// Land an accumulated run of brand-new keys as one backend splice.
    fn splice_pending(&mut self, rank: usize, run: &mut Vec<(K, V)>) {
        let epoch = self.list.epoch();
        let (_, bulk): (_, BulkReport) = self.list.splice_reported(rank, run.len());
        if self.list.epoch() != epoch {
            self.rebuild_payload(rank, run.drain(..));
            return;
        }
        // Placements are skipped (the new elements have no payload yet);
        // after the replay the run occupies ranks rank.. contiguously.
        self.replay(&bulk.moves);
        let mut label = Some(self.list.label_of_rank(rank));
        for entry in run.drain(..) {
            let l = label.expect("splice placed every element");
            self.payload[l] = Some(entry);
            label = self.list.next_label_after(l);
        }
    }

    /// Apply a move log to the payload array, in order. Placements
    /// (`from == to`) are left to the caller.
    fn replay(&mut self, moves: &[MoveRec]) {
        for mv in moves {
            if mv.from != mv.to {
                self.payload[mv.to as usize] = self.payload[mv.from as usize].take();
            }
        }
    }

    /// After a rebuild: lay the surviving entries, in label order, with
    /// `run` spliced in at `rank`, over the new structure's occupied labels
    /// — one O(n) pass that writes each slot once. Labels past the last
    /// entry stay empty (the shard split deletes such payload-less elements
    /// next).
    fn rebuild_payload(&mut self, rank: usize, mut run: impl ExactSizeIterator<Item = (K, V)>) {
        let slots = self.list.num_slots();
        let old = std::mem::replace(&mut self.payload, Vec::with_capacity(slots));
        let mut old = old.into_iter().flatten();
        let run_end = rank + run.len();
        let mut label = self.list.first_label();
        let mut r = 0;
        while let Some(l) = label {
            self.payload.resize_with(l, || None);
            self.payload.push(if (rank..run_end).contains(&r) { run.next() } else { old.next() });
            label = self.list.next_label_after(l);
            r += 1;
        }
        self.payload.resize_with(slots, || None);
    }
}

impl<K: Ord + Codec, V: Codec> LabelMap<K, V> {
    /// Write a durable snapshot of the map: the versioned header (backend,
    /// seed, η, entry count) followed by every `(key, value)` pair in
    /// ascending key order — one label-to-label sweep of the slot array,
    /// no intermediate buffers. Labels themselves are **not** persisted:
    /// they are ephemeral artifacts of the rebalancing scheme, and only
    /// rank order is semantic (see the [`persist`](crate::persist) module
    /// docs).
    ///
    /// Writing to a `File`? Wrap it in a [`std::io::BufWriter`] — the
    /// encoder issues one small write per field.
    ///
    /// ```
    /// use lll_api::LabelMap;
    ///
    /// let map = LabelMap::from_sorted_iter((0..100u64).map(|k| (k, k * 2)));
    /// let mut buf = Vec::new();
    /// map.write_snapshot(&mut buf).unwrap();
    /// let back: LabelMap<u64, u64> = LabelMap::read_snapshot(&mut buf.as_slice()).unwrap();
    /// assert_eq!(back.len(), 100);
    /// assert_eq!(back.get(&42), Some(&84));
    /// ```
    pub fn write_snapshot<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError> {
        Header::new(ContainerKind::LabelMap, self.list.config(), self.len() as u64).write_to(w)?;
        for (k, v) in self.iter() {
            k.encode(w)?;
            v.encode(w)?;
        }
        Ok(())
    }

    /// Restore a map from a snapshot written by
    /// [`write_snapshot`](Self::write_snapshot): rebuild the recorded
    /// backend (same algorithm, seed, and η), then land the decoded sorted
    /// run through the O(n) bulk-load sweep — exactly one move per element,
    /// no per-op replay, regardless of the backend's per-operation movement
    /// bound.
    ///
    /// Never panics on bad input: truncated, corrupted, version- or
    /// container-mismatched streams return the matching
    /// [`SnapshotError`] variant (keys out of order are
    /// [`SnapshotError::Corrupt`]). Reading from a `File`? Wrap it in a
    /// [`std::io::BufReader`].
    pub fn read_snapshot<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError> {
        let header = Header::read_expecting(r, ContainerKind::LabelMap)?;
        let count = usize::try_from(header.count)
            .map_err(|_| SnapshotError::Corrupt("entry count exceeds host width".into()))?;
        let entries = crate::persist::decode_sorted_run::<K, V, R>(r, count, "LabelMap")?;
        let mut map: Self = ListBuilder::from_config(header.config()).label_map();
        map.extend_sorted(entries);
        Ok(map)
    }
}

impl<K: Ord, V, L: RawList> Extend<(K, V)> for LabelMap<K, V, L> {
    /// Bulk-aware extension: the input is buffered, and if it arrives
    /// sorted ascending by key it is merged via the O(n) bulk path
    /// ([`extend_sorted`](LabelMap::extend_sorted)); unsorted input falls
    /// back to per-key insertion.
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        let batch: Vec<(K, V)> = iter.into_iter().collect();
        if batch.windows(2).all(|w| w[0].0.cmp(&w[1].0).is_le()) {
            self.extend_sorted(batch);
        } else {
            for (k, v) in batch {
                self.insert(k, v);
            }
        }
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for LabelMap<K, V> {
    /// Collects through the bulk-load path when the input is sorted (see
    /// [`Extend::extend`]).
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = Self::new();
        map.extend(iter);
        map
    }
}

impl<'a, K: Ord, V, L: RawList> IntoIterator for &'a LabelMap<K, V, L> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V, L>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over all entries of a [`LabelMap`] in ascending key order (see
/// [`LabelMap::iter`]): a left-to-right sweep of the payload array, O(1)
/// space.
pub struct Iter<'a, K: Ord, V, L: RawList> {
    slots: std::slice::Iter<'a, Option<(K, V)>>,
    remaining: usize,
    _list: PhantomData<&'a L>,
}

impl<'a, K: Ord, V, L: RawList> Iter<'a, K, V, L> {
    /// The `remaining` entries stored in `slots`, in order.
    fn over(slots: &'a [Option<(K, V)>], remaining: usize) -> Self {
        Self { slots: slots.iter(), remaining, _list: PhantomData }
    }
}

impl<'a, K: Ord, V, L: RawList> Iterator for Iter<'a, K, V, L> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.slots.find_map(|s| s.as_ref().map(|(k, v)| (k, v)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K: Ord, V, L: RawList> ExactSizeIterator for Iter<'_, K, V, L> {}

impl<K: Ord, V, L: RawList> IntoIterator for LabelMap<K, V, L> {
    type Item = (K, V);
    type IntoIter = IntoIter<K, V, L>;

    /// Consume the map, yielding owned entries in ascending key order —
    /// the same sweep of the payload array as [`LabelMap::iter`]; the
    /// backend is dropped up front.
    fn into_iter(self) -> Self::IntoIter {
        let remaining = self.len();
        IntoIter { slots: self.payload.into_iter(), remaining, _list: PhantomData }
    }
}

/// Owning iterator over a [`LabelMap`]'s entries in ascending key order.
pub struct IntoIter<K, V, L: RawList = ErasedList> {
    slots: std::vec::IntoIter<Option<(K, V)>>,
    remaining: usize,
    _list: PhantomData<fn() -> L>,
}

impl<K, V, L: RawList> Iterator for IntoIter<K, V, L> {
    type Item = (K, V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.slots.find_map(|s| s)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K, V, L: RawList> ExactSizeIterator for IntoIter<K, V, L> {}

impl<K: Ord + fmt::Debug, V: fmt::Debug, L: RawList> fmt::Debug for LabelMap<K, V, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Iterator over a key range of a [`LabelMap`], in ascending key order: a
/// sweep of the payload array between the range's end labels.
pub struct Range<'a, K: Ord, V, L: RawList> {
    inner: Iter<'a, K, V, L>,
}

impl<'a, K: Ord, V, L: RawList> Iterator for Range<'a, K, V, L> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<K: Ord, V, L: RawList> ExactSizeIterator for Range<'_, K, V, L> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use std::collections::BTreeMap;

    #[test]
    fn point_ops_match_btreemap() {
        let mut map: LabelMap<u64, u64> = LabelMap::new();
        let mut model = BTreeMap::new();
        // deterministic mixed workload with duplicate keys
        let mut x = 9u64;
        for i in 0..800u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = x % 200;
            match x % 3 {
                0 | 1 => {
                    assert_eq!(map.insert(k, i), model.insert(k, i), "insert({k}) diverged");
                }
                _ => {
                    assert_eq!(map.remove(&k), model.remove(&k), "remove({k}) diverged");
                }
            }
            assert_eq!(map.len(), model.len());
        }
        for k in 0..200 {
            assert_eq!(map.get(&k), model.get(&k), "get({k}) diverged");
        }
        assert_eq!(map.first_key_value(), model.first_key_value());
        assert_eq!(map.last_key_value(), model.last_key_value());
    }

    #[test]
    fn range_scans_match_btreemap() {
        let mut map: LabelMap<u32, String> = LabelMap::new();
        let mut model = BTreeMap::new();
        for k in (0..300).step_by(3) {
            map.insert(k, format!("v{k}"));
            model.insert(k, format!("v{k}"));
        }
        let collect =
            |it: Vec<(&u32, &String)>| -> Vec<u32> { it.iter().map(|(k, _)| **k).collect() };
        for (lo, hi) in [(0, 100), (7, 8), (50, 250), (299, 300), (100, 100)] {
            assert_eq!(
                collect(map.range(lo..hi).collect()),
                collect(model.range(lo..hi).collect()),
                "[{lo}, {hi}) diverged"
            );
            assert_eq!(
                collect(map.range(lo..=hi).collect()),
                collect(model.range(lo..=hi).collect()),
                "[{lo}, {hi}] diverged"
            );
        }
        assert_eq!(collect(map.range(..).collect()), collect(model.range(..).collect()));
        assert_eq!(map.iter().len(), model.len());
    }

    #[test]
    fn every_backend_serves_a_map() {
        for backend in Backend::ALL {
            let mut map: LabelMap<u32, u32> =
                ListBuilder::new().backend(backend).seed(13).label_map();
            for k in (0..300u32).rev() {
                map.insert(k, k * 2);
            }
            assert_eq!(map.len(), 300, "{}", backend.name());
            assert_eq!(map.get(&123), Some(&246), "{}", backend.name());
            let keys: Vec<u32> = map.keys().copied().collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{} unsorted", backend.name());
        }
    }

    #[test]
    fn from_iterator_and_extend() {
        let map: LabelMap<i32, i32> = (0..50).map(|k| (k, -k)).collect();
        assert_eq!(map.len(), 50);
        assert_eq!(map.get(&30), Some(&-30));
        // Unsorted input still collects correctly (per-key fallback).
        let map: LabelMap<i32, i32> = (0..50).rev().map(|k| (k, -k)).collect();
        assert_eq!(map.len(), 50);
        assert_eq!(map.get(&30), Some(&-30));
    }

    #[test]
    fn borrowed_key_lookups() {
        let mut map: LabelMap<String, u32> = LabelMap::new();
        for (i, name) in ["ash", "beech", "cedar", "elm", "oak"].iter().enumerate() {
            map.insert(name.to_string(), i as u32);
        }
        assert_eq!(map.get("cedar"), Some(&2));
        assert!(map.contains_key("oak"));
        assert!(!map.contains_key("yew"));
        *map.get_mut("elm").unwrap() += 10;
        assert_eq!(map.get("elm"), Some(&13));
        assert_eq!(map.lower_bound("c"), 2);
        assert_eq!(map.upper_bound("cedar"), 3);
        // Unsized-key ranges take the tuple-of-bounds form, as with BTreeMap.
        let bounds = (Bound::Included("beech"), Bound::Excluded("oak"));
        let mid: Vec<&str> = map.range::<str, _>(bounds).map(|(k, _)| k.as_str()).collect();
        assert_eq!(mid, ["beech", "cedar", "elm"]);
        assert_eq!(map.remove("ash"), Some(0));
        assert_eq!(map.remove("ash"), None);
        assert_eq!(map.len(), 4);
    }

    #[test]
    fn from_sorted_iter_matches_btreemap_with_fewer_moves() {
        let n = 3000u32;
        let bulk: LabelMap<u32, u32> = LabelMap::from_sorted_iter((0..n).map(|k| (k, k * 7)));
        let mut inc: LabelMap<u32, u32> = LabelMap::new();
        let mut model = BTreeMap::new();
        for k in 0..n {
            inc.insert(k, k * 7);
            model.insert(k, k * 7);
        }
        assert_eq!(bulk.len(), model.len());
        assert!(bulk.iter().map(|(k, v)| (*k, *v)).eq(model.iter().map(|(k, v)| (*k, *v))));
        assert!(
            bulk.total_moves() < inc.total_moves(),
            "bulk {} !< incremental {}",
            bulk.total_moves(),
            inc.total_moves()
        );
    }

    #[test]
    fn from_sorted_iter_duplicates_last_write_wins() {
        let map = LabelMap::from_sorted_iter([(1, "a"), (1, "b"), (2, "c"), (2, "d"), (2, "e")]);
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&1), Some(&"b"));
        assert_eq!(map.get(&2), Some(&"e"));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn from_sorted_iter_rejects_descending_input() {
        let _ = LabelMap::from_sorted_iter([(3, ()), (1, ())]);
    }

    #[test]
    fn extend_sorted_merges_into_existing_map() {
        let mut map: LabelMap<u32, &str> = LabelMap::new();
        let mut model = BTreeMap::new();
        for k in (0..400).step_by(4) {
            map.insert(k, "old");
            model.insert(k, "old");
        }
        // Sorted batch: interleaving new keys, existing keys (replaced),
        // head and tail extensions.
        let batch: Vec<(u32, &str)> = (0..500).filter(|k| k % 3 == 0).map(|k| (k, "new")).collect();
        map.extend(batch.clone());
        model.extend(batch);
        assert_eq!(map.len(), model.len());
        assert!(map.iter().map(|(k, v)| (*k, *v)).eq(model.iter().map(|(k, v)| (*k, *v))));
    }

    #[test]
    fn checked_rank_accessor() {
        let map = LabelMap::from_sorted_iter((0..5).map(|k| (k, ())));
        assert_eq!(map.get_key_at_rank(0), Some(&0));
        assert_eq!(map.get_key_at_rank(4), Some(&4));
        assert_eq!(map.get_key_at_rank(5), None);
        let empty: LabelMap<u8, ()> = LabelMap::new();
        assert_eq!(empty.get_key_at_rank(0), None);
    }

    #[test]
    fn owned_iteration_and_debug() {
        let map = LabelMap::from_sorted_iter((0..10).map(|k| (k, k * k)));
        assert_eq!(
            format!("{:?}", map.range(0..3).collect::<Vec<_>>()),
            "[(0, 0), (1, 1), (2, 4)]"
        );
        let dbg = format!("{map:?}");
        assert!(dbg.starts_with('{') && dbg.contains("3: 9"), "unexpected Debug: {dbg}");
        let by_ref: Vec<(i32, i32)> = (&map).into_iter().map(|(k, v)| (*k, *v)).collect();
        let owned: Vec<(i32, i32)> = map.into_iter().collect();
        assert_eq!(owned, by_ref);
        assert_eq!(owned.len(), 10);
        assert!(owned.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn pop_clear_and_export_hooks() {
        let mut map = LabelMap::from_sorted_iter((0..100u32).map(|k| (k, k * 3)));
        assert_eq!(map.pop_first(), Some((0, 0)));
        assert_eq!(map.pop_last(), Some((99, 297)));
        assert_eq!(map.len(), 98);
        // split_off drains the suffix sorted, keeping the prefix intact.
        let tail = map.split_off(&50);
        assert_eq!(tail.first(), Some(&(50, 150)));
        assert_eq!(tail.last(), Some(&(98, 294)));
        assert!(tail.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(map.len(), 49);
        assert_eq!(map.last_key_value(), Some((&49, &147)));
        // append moves everything back (bulk path), last write wins.
        let mut other = LabelMap::from_sorted_iter(tail);
        other.insert(10, 9999); // overlaps the retained prefix
        map.append(&mut other);
        assert!(other.is_empty());
        assert_eq!(map.len(), 98);
        assert_eq!(map.get(&10), Some(&9999));
        assert_eq!(map.get(&98), Some(&294));
        // into_sorted_vec is the full export.
        let dump = map.into_sorted_vec();
        assert_eq!(dump.len(), 98);
        assert!(dump.windows(2).all(|w| w[0].0 < w[1].0));
        // clear empties but keeps the map usable.
        let mut map = LabelMap::from_sorted_iter((0..500u32).map(|k| (k, ())));
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.pop_first(), None);
        assert_eq!(map.pop_last(), None);
        map.insert(7, ());
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn iter_walks_labels_without_rank_resolution_or_snapshot_allocs() {
        use lll_classic::ClassicBuilder;
        let mut map: LabelMap<u32, u32, _> =
            LabelMap::with_backend(ListBuilder::new().build_growable(ClassicBuilder));
        for k in 0..500 {
            map.insert(k * 2, k);
        }
        let before = map.backend().rank_resolutions();
        let collected: Vec<(u32, u32)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(collected.len(), 500);
        assert!(collected.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(
            map.backend().rank_resolutions(),
            before,
            "iter must walk labels, not resolve ranks"
        );
        // ExactSizeIterator stays honest mid-walk.
        let mut it = map.iter();
        assert_eq!(it.len(), 500);
        it.next();
        it.next();
        assert_eq!(it.len(), 498);
        // The owning iterator walks the same way.
        let owned: Vec<(u32, u32)> = map.into_iter().collect();
        assert_eq!(owned, collected);
    }

    #[test]
    fn snapshot_roundtrip_preserves_entries_and_order() {
        for backend in Backend::ALL {
            let mut map: LabelMap<u64, String> =
                ListBuilder::new().backend(backend).seed(21).label_map();
            for k in 0..300u64 {
                map.insert(k * 7 % 1024, format!("v{k}"));
            }
            let mut buf = Vec::new();
            map.write_snapshot(&mut buf).unwrap();
            let back: LabelMap<u64, String> = LabelMap::read_snapshot(&mut buf.as_slice()).unwrap();
            assert_eq!(back.len(), map.len(), "{backend}");
            assert_eq!(back.backend_name(), map.backend_name(), "{backend}");
            assert!(back.iter().eq(map.iter()), "{backend} iteration diverged");
        }
    }

    #[test]
    fn snapshot_of_empty_map_roundtrips() {
        let map: LabelMap<u8, u8> = LabelMap::new();
        let mut buf = Vec::new();
        map.write_snapshot(&mut buf).unwrap();
        let back: LabelMap<u8, u8> = LabelMap::read_snapshot(&mut buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.iter().len(), 0);
    }

    #[test]
    fn map_cursor_walks_and_seeks() {
        let map = LabelMap::from_sorted_iter((0..300).filter(|k| k % 3 == 0).map(|k| (k, k + 1)));
        // Full forward walk == iter().
        let mut cur = map.cursor_front();
        let mut walked = Vec::new();
        while let Some((k, v)) = cur.entry() {
            walked.push((*k, *v));
            cur.move_next();
        }
        assert!(walked.iter().copied().eq(map.iter().map(|(k, v)| (*k, *v))));
        // Walking off the back is recoverable.
        assert!(cur.move_next().is_none());
        assert_eq!(cur.move_prev(), Some((&297, &298)));
        // Seek lands on the lower bound.
        assert_eq!(map.cursor_at(&100).key(), Some(&102));
        assert_eq!(map.cursor_at(&102).key(), Some(&102));
        assert!(map.cursor_at(&298).entry().is_none());
        assert_eq!(map.cursor_back().key(), Some(&297));
        // Backward walk mirrors forward.
        let mut cur = map.cursor_back();
        let mut rev = Vec::new();
        while let Some((k, v)) = cur.entry() {
            rev.push((*k, *v));
            cur.move_prev();
        }
        rev.reverse();
        assert_eq!(rev, walked);
    }
}
