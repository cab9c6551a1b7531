//! Dynamic capacity on top of fixed-capacity list labeling.
//!
//! Definition 1 of the paper fixes the capacity `n` in advance — the right
//! setting for the theory, but a library user wants a structure that grows.
//! [`Growable`] wraps any [`LabelingBuilder`] with the standard global
//! doubling/halving technique: when the inner structure fills, rebuild into
//! one of twice the capacity (and shrink at quarter load). Each element
//! keeps a **stable handle** across rebuilds, so applications can hold
//! references to elements without tracking migrations.
//!
//! Rebuild costs amortize: a rebuild of size `n` happens only after Ω(n)
//! operations, adding amortized O(polylog n) per operation on top of the
//! inner structure's own bound (the appends performed during the rebuild
//! are the inner structure's cheapest workload).

use crate::ids::{ElemId, IdGen};
use crate::metrics::{ListMetrics, MetricsHandle};
use crate::ops::Op;
use crate::report::{BulkReport, OpReport};
use crate::traits::{LabelingBuilder, ListLabeling};
use std::collections::HashMap;

/// A stable, rebuild-surviving element handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(pub u64);

/// Statistics for the growth machinery.
#[derive(Clone, Copy, Debug, Default)]
pub struct GrowableStats {
    /// Rebuilds that grew the structure.
    pub grows: u64,
    /// Rebuilds that shrank the structure.
    pub shrinks: u64,
    /// Total element moves spent inside rebuilds.
    pub rebuild_moves: u64,
    /// The rebuild epoch at the time of the snapshot (see
    /// [`Growable::epoch`]): `grows + shrinks` counts rebuilds, the epoch
    /// stamps *which* rebuild generation the stats describe — the same
    /// stamp concurrency layers validate optimistic reads against.
    pub epoch: u64,
}

/// A dynamically sized sorted list over any list-labeling algorithm.
pub struct Growable<B: LabelingBuilder> {
    builder: B,
    inner: B::Structure,
    /// inner element id → stable handle.
    handle_of: HashMap<ElemId, Handle>,
    ids: IdGen,
    min_capacity: usize,
    stats: GrowableStats,
    /// Moves performed by ordinary operations (not rebuilds).
    op_moves: u64,
    /// Bumped on every rebuild. All labels (slot positions) are invalidated
    /// when this changes; see [`Growable::epoch`].
    epoch: u64,
    /// Reusable report buffer for report-free entry points
    /// ([`insert`](Self::insert)/[`delete`](Self::delete)): steady-state
    /// operations through them allocate nothing for move logging.
    scratch: OpReport,
    /// Shared observability sink: counters (including label→rank
    /// resolutions — instrumentation for callers that promise label-native
    /// navigation, the `lll-api` cursors, and want to prove they keep it),
    /// move/rebalance histograms, and the structural trace ring. Installed
    /// into the inner structure (and re-installed across rebuilds) so every
    /// layer reports into this one instance.
    metrics: MetricsHandle,
}

impl<B: LabelingBuilder> Growable<B> {
    /// New empty list with an initial capacity floor.
    pub fn new(builder: B, initial_capacity: usize) -> Self {
        Self::with_metrics(builder, initial_capacity, ListMetrics::handle(true))
    }

    /// [`new`](Self::new) with a caller-provided metrics handle — pass
    /// `ListMetrics::handle(false)` to make every recording path a no-op
    /// (overhead benchmarks pin the enabled/disabled gap via this knob).
    pub fn with_metrics(builder: B, initial_capacity: usize, metrics: MetricsHandle) -> Self {
        let cap = initial_capacity.max(16);
        let mut inner = builder.build_default(cap);
        inner.set_metrics(metrics.clone());
        Self {
            builder,
            inner,
            handle_of: HashMap::new(),
            ids: IdGen::new(),
            min_capacity: cap,
            stats: GrowableStats::default(),
            op_moves: 0,
            epoch: 0,
            scratch: OpReport::default(),
            metrics,
        }
    }

    /// The metrics handle this structure (and its inner layers) report
    /// into.
    #[inline]
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Current element count.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Current capacity (changes across rebuilds).
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Growth statistics, stamped with the current rebuild epoch.
    pub fn stats(&self) -> GrowableStats {
        let mut stats = self.stats;
        stats.epoch = self.epoch;
        stats
    }

    /// The rebuild epoch. Labels returned before the epoch last changed are
    /// stale: a rebuild rewrites every slot position. Callers maintaining
    /// label tables from operation reports (see `lll-api`) compare epochs
    /// around each operation and resynchronize from
    /// [`labels_snapshot`](Self::labels_snapshot) after a rebuild.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The inner fixed-capacity structure of the current epoch (for
    /// introspection — diagnostics, views, slot-array access). It is
    /// replaced wholesale on every rebuild.
    pub fn inner(&self) -> &B::Structure {
        &self.inner
    }

    /// The stable handle of the element currently stored as `elem`, or
    /// `None` if `elem` is not a live identity of the current epoch.
    /// Translates [`MoveRec`](crate::report::MoveRec) entries into handles.
    pub fn handle_of_elem(&self, elem: ElemId) -> Option<Handle> {
        self.handle_of.get(&elem).copied()
    }

    /// Number of slots (labels run over `0..num_slots`) in the current
    /// epoch; a rebuild may change it.
    pub fn num_slots(&self) -> usize {
        self.inner.slots().num_slots()
    }

    /// The rank of the element whose label (slot position) is `label`.
    pub fn rank_at_label(&self, label: usize) -> usize {
        self.metrics.note_rank_resolution();
        self.inner.slots().rank_at(label)
    }

    /// How many rank↔label resolutions ([`rank_at_label`],
    /// [`label_of_rank`], [`handle_at_rank`]) this structure has served.
    /// Cursors navigate the occupancy structure label-to-label and perform
    /// none per step; tests pin that here.
    ///
    /// [`rank_at_label`]: Self::rank_at_label
    /// [`label_of_rank`]: Self::label_of_rank
    /// [`handle_at_rank`]: Self::handle_at_rank
    pub fn rank_resolutions(&self) -> u64 {
        self.metrics.rank_resolutions.get()
    }

    /// The label (slot position) of the first element, if any.
    pub fn first_label(&self) -> Option<usize> {
        self.inner.slots().next_occupied_at_or_after(0)
    }

    /// The label (slot position) of the last element, if any.
    pub fn last_label(&self) -> Option<usize> {
        let m = self.inner.slots().num_slots();
        if m == 0 {
            return None;
        }
        self.inner.slots().prev_occupied_at_or_before(m - 1)
    }

    /// The label of the next element after `label`, if any — one word-level
    /// occupancy-bitmap query, no rank arithmetic.
    pub fn next_label_after(&self, label: usize) -> Option<usize> {
        self.inner.slots().next_occupied_at_or_after(label + 1)
    }

    /// The label of the previous element before `label`, if any.
    pub fn prev_label_before(&self, label: usize) -> Option<usize> {
        if label == 0 {
            return None;
        }
        self.inner.slots().prev_occupied_at_or_before(label - 1)
    }

    /// The handle of the element stored at `label`, or `None` for a free
    /// slot.
    pub fn handle_at_label(&self, label: usize) -> Option<Handle> {
        if label >= self.inner.slots().num_slots() {
            return None;
        }
        self.inner.slots().get(label).and_then(|e| self.handle_of_elem(e))
    }

    /// `(handle, label)` for every element in rank order — a full
    /// left-to-right sweep of the slot array. This is the resynchronization
    /// path for label tables after a rebuild.
    pub fn labels_snapshot(&self) -> Vec<(Handle, usize)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_label(|h, pos| out.push((h, pos)));
        out
    }

    /// Visit `(handle, label)` for every element in rank order — the
    /// zero-copy form of [`labels_snapshot`](Self::labels_snapshot): one
    /// left-to-right occupancy sweep, no intermediate `Vec`. Label-table
    /// resyncs and snapshot writers stream through here.
    pub fn for_each_label(&self, mut f: impl FnMut(Handle, usize)) {
        for (pos, e) in self.inner.slots().iter_occupied() {
            f(self.handle_of[&e], pos);
        }
    }

    /// The inner algorithm's name (stable across rebuilds).
    pub fn backend_name(&self) -> &'static str {
        self.inner.name()
    }

    /// Total element moves from ordinary operations (rebuild moves are
    /// tracked separately in [`GrowableStats`]).
    pub fn op_moves(&self) -> u64 {
        self.op_moves
    }

    /// The label (slot position) of the element of `rank`. Labels are only
    /// stable between operations, as in any list-labeling structure.
    pub fn label_of_rank(&self, rank: usize) -> usize {
        self.metrics.note_rank_resolution();
        self.inner.label_of_rank(rank)
    }

    /// The handle of the element of `rank`.
    pub fn handle_at_rank(&self, rank: usize) -> Handle {
        self.metrics.note_rank_resolution();
        self.handle_of[&self.inner.elem_at_rank(rank)]
    }

    /// Current rank of a handle, or `None` if it was deleted. O(len) scan;
    /// applications needing faster reverse lookups should maintain them
    /// from operation reports (see the `order_maintenance` example).
    pub fn rank_of(&self, h: Handle) -> Option<usize> {
        (0..self.len()).find(|&r| self.handle_at_rank(r) == h)
    }

    /// Rebuild into a structure of the given capacity, preserving order and
    /// handles.
    fn rebuild(&mut self, new_capacity: usize) {
        self.rebuild_merged(new_capacity, 0, 0);
    }

    /// Rebuild into a structure of `new_capacity`, splicing `count` brand
    /// new elements in at `rank` on the way through. The whole population —
    /// survivors and newcomers — lands via **one** bulk
    /// [`splice`](ListLabeling::splice) into the fresh structure (a single
    /// evenly-spread sweep on PMA-skeleton backends), and the epoch bumps
    /// exactly once. Returns the newcomers' handles in rank order.
    fn rebuild_merged(&mut self, new_capacity: usize, rank: usize, count: usize) -> Vec<Handle> {
        let mut order: Vec<Handle> =
            (0..self.len()).map(|r| self.handle_of[&self.inner.elem_at_rank(r)]).collect();
        let fresh_handles: Vec<Handle> = (0..count).map(|_| Handle(self.ids.fresh().0)).collect();
        order.splice(rank..rank, fresh_handles.iter().copied());
        self.rebuild_with_order(new_capacity, order);
        fresh_handles
    }

    /// The shared rebuild tail: land `order` (every element's handle, in
    /// final rank order) in a fresh structure of `new_capacity` via one
    /// bulk splice, remap identities, and bump the epoch exactly once.
    /// Both the growth/shrink rebuilds and the snapshot-restore path go
    /// through here, so their semantics cannot drift apart.
    fn rebuild_with_order(&mut self, new_capacity: usize, order: Vec<Handle>) {
        let grew = new_capacity > self.capacity();
        let mut fresh = self.builder.build_default(new_capacity);
        // Install the shared handle before the bulk splice so the rebuild's
        // own moves are observed too.
        fresh.set_metrics(self.metrics.clone());
        let bulk = fresh.splice(0, order.len());
        self.stats.rebuild_moves += bulk.cost();
        debug_assert_eq!(bulk.placed.len(), order.len(), "splice placed a wrong count");
        self.handle_of = bulk.placed.iter().copied().zip(order).collect();
        self.inner = fresh;
        self.epoch += 1;
        self.metrics.note_epoch_bump(grew, new_capacity as u64, bulk.cost());
    }

    /// Insert a new element at `rank`, growing if necessary. The move log
    /// drains through an internal reusable buffer: no per-op allocation.
    pub fn insert(&mut self, rank: usize) -> Handle {
        let mut rep = std::mem::take(&mut self.scratch);
        let h = self.insert_reported_into(rank, &mut rep);
        self.scratch = rep;
        h
    }

    /// [`insert`](Self::insert), also returning the operation's move log.
    ///
    /// Allocating convenience over
    /// [`insert_reported_into`](Self::insert_reported_into), which hot
    /// paths call with a reused buffer instead.
    pub fn insert_reported(&mut self, rank: usize) -> (Handle, OpReport) {
        let mut rep = OpReport::default();
        let h = self.insert_reported_into(rank, &mut rep);
        (h, rep)
    }

    /// Insert at `rank`, draining the operation's move log into `out`
    /// (cleared and refilled, keeping its allocation).
    ///
    /// The report covers the insertion itself, not any growth rebuild that
    /// preceded it: a rebuild rewrites *every* label, which the report
    /// format cannot express compactly. Callers detect rebuilds by
    /// comparing [`epoch`](Self::epoch) around the call and resynchronize
    /// from [`labels_snapshot`](Self::labels_snapshot).
    pub fn insert_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle {
        assert!(rank <= self.len(), "insert rank {rank} > len {}", self.len());
        if self.len() == self.capacity() {
            self.stats.grows += 1;
            self.rebuild(self.capacity() * 2);
        }
        self.inner.insert_into(rank, out);
        self.op_moves += out.cost();
        self.metrics.note_op_moves(out.cost());
        let h = Handle(self.ids.fresh().0);
        self.handle_of.insert(out.placed.expect("insert places").0, h);
        h
    }

    /// Delete the element of `rank`, shrinking at quarter load. Move
    /// logging reuses the internal buffer (no per-op allocation).
    pub fn delete(&mut self, rank: usize) -> Handle {
        let mut rep = std::mem::take(&mut self.scratch);
        let h = self.delete_reported_into(rank, &mut rep);
        self.scratch = rep;
        h
    }

    /// [`delete`](Self::delete), also returning the operation's move log —
    /// the allocating convenience over
    /// [`delete_reported_into`](Self::delete_reported_into).
    pub fn delete_reported(&mut self, rank: usize) -> (Handle, OpReport) {
        let mut rep = OpReport::default();
        let h = self.delete_reported_into(rank, &mut rep);
        (h, rep)
    }

    /// Delete at `rank`, draining the move log into `out` (same rebuild
    /// caveat as [`insert_reported_into`](Self::insert_reported_into): a
    /// shrink that follows the deletion is signalled by the epoch, not by
    /// the report).
    pub fn delete_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle {
        assert!(rank < self.len(), "delete rank {rank} >= len {}", self.len());
        self.inner.delete_into(rank, out);
        self.op_moves += out.cost();
        self.metrics.note_op_moves(out.cost());
        let (gone, _) = out.removed.expect("delete removes");
        let h = self.handle_of.remove(&gone).expect("unknown element");
        if self.capacity() > self.min_capacity && self.len() * 4 <= self.capacity() {
            self.stats.shrinks += 1;
            let target = (self.capacity() / 2).max(self.min_capacity);
            self.rebuild(target);
        }
        h
    }

    /// Batch-insert `count` new elements at consecutive final ranks
    /// `rank .. rank + count`, growing at most once. Returns the new
    /// handles in rank order plus one [`BulkReport`] move log for the whole
    /// batch.
    ///
    /// Two regimes, both a single logical operation:
    ///
    /// * **Fits in place** — the inner structure's
    ///   [`splice`](ListLabeling::splice) interleaves the run in one
    ///   evenly-spread sweep (PMA-skeleton backends) or per-insert
    ///   (fallback); the report carries the move log, the epoch is
    ///   untouched.
    /// * **Needs growth** — the batch rides the rebuild: survivors and
    ///   newcomers land together in one sweep into a structure sized for
    ///   the combined population (capacity doubles until it fits, so a
    ///   bulk load never pays the incremental doubling cascade). The
    ///   report is empty and the **epoch bumps once**; label-table callers
    ///   resync from [`labels_snapshot`](Self::labels_snapshot) exactly as
    ///   for any rebuild.
    pub fn splice_at(&mut self, rank: usize, count: usize) -> (Vec<Handle>, BulkReport) {
        assert!(rank <= self.len(), "splice rank {rank} > len {}", self.len());
        if count == 0 {
            return (Vec::new(), BulkReport::default());
        }
        if self.len() + count > self.capacity() {
            let mut cap = self.capacity();
            while cap < self.len() + count {
                cap *= 2;
            }
            self.stats.grows += 1;
            let handles = self.rebuild_merged(cap, rank, count);
            return (handles, BulkReport::default());
        }
        let bulk = self.inner.splice(rank, count);
        self.op_moves += bulk.cost();
        self.metrics.note_op_moves(bulk.cost());
        let handles: Vec<Handle> = bulk
            .placed
            .iter()
            .map(|&e| {
                let h = Handle(self.ids.fresh().0);
                self.handle_of.insert(e, h);
                h
            })
            .collect();
        (handles, bulk)
    }

    /// Bulk-load `count` new elements at the tail (final ranks
    /// `len .. len + count`) — the sorted-ingest path: a caller holding a
    /// pre-sorted run appends it here in one sweep instead of `count`
    /// point insertions. Equivalent to `splice_at(len, count)`.
    pub fn bulk_load(&mut self, count: usize) -> (Vec<Handle>, BulkReport) {
        self.splice_at(self.len(), count)
    }

    /// Restore an **empty** structure to `handles.len()` elements in one
    /// O(n) bulk sweep, binding `handles[r]` to rank `r` — the
    /// snapshot-restore path: handles persisted before the snapshot stay
    /// valid in the restored structure, so no caller has to re-key. The
    /// whole population lands via a single [`splice`](ListLabeling::splice)
    /// into a structure sized for it (~1 move per element), the epoch bumps
    /// exactly once, and the id allocator advances past every restored
    /// handle so future insertions cannot collide.
    ///
    /// Panics if the structure is non-empty or if any handle is the
    /// reserved value `u64::MAX` (it would saturate the id allocator and
    /// break the no-collision guarantee). `handles` must also be distinct —
    /// decoders (see `lll-api`'s `persist` module) validate this before
    /// calling, so it is re-checked in debug builds only, keeping the
    /// restore hot path to a single pass.
    pub fn load_with_handles(&mut self, handles: &[Handle]) {
        // Validate before touching any state, so the panic paths leave the
        // structure exactly as it was.
        assert!(self.is_empty(), "load_with_handles requires an empty structure");
        assert!(
            !handles.contains(&Handle(u64::MAX)),
            "load_with_handles rejects the reserved handle u64::MAX"
        );
        #[cfg(debug_assertions)]
        {
            let distinct: std::collections::HashSet<Handle> = handles.iter().copied().collect();
            assert_eq!(
                distinct.len(),
                handles.len(),
                "load_with_handles requires distinct handles"
            );
        }
        if handles.is_empty() {
            return;
        }
        let mut cap = self.capacity();
        while cap < handles.len() {
            cap *= 2;
        }
        self.rebuild_with_order(cap, handles.to_vec());
        self.ids.bump_past(handles.iter().map(|h| h.0).max().expect("non-empty"));
    }

    /// Apply an [`Op`].
    pub fn apply(&mut self, op: Op) -> Handle {
        match op {
            Op::Insert(r) => self.insert(r),
            Op::Delete(r) => self.delete(r),
        }
    }

    /// Iterate handles in rank order.
    pub fn iter(&self) -> impl Iterator<Item = Handle> + '_ {
        self.inner.slots().iter_occupied().map(move |(_, e)| self.handle_of[&e])
    }

    /// The report-free cost model: ordinary moves + rebuild moves.
    pub fn total_moves(&self) -> u64 {
        self.op_moves + self.stats.rebuild_moves
    }
}

/// A convenience: run an op sequence through a growable list, verifying
/// handles stay consistent (used by tests).
pub fn check_growable<B: LabelingBuilder>(builder: B, ops: &[Op]) -> Growable<B> {
    let mut g = Growable::new(builder, 16);
    let mut reference: Vec<Handle> = Vec::new();
    for &op in ops {
        match op {
            Op::Insert(r) => {
                let h = g.insert(r);
                reference.insert(r, h);
            }
            Op::Delete(r) => {
                let h = g.delete(r);
                assert_eq!(reference.remove(r), h, "deleted wrong handle");
            }
        }
        assert_eq!(g.len(), reference.len());
    }
    let got: Vec<Handle> = g.iter().collect();
    assert_eq!(got, reference, "handle order diverged");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pma::ClassicBuilder;
    use rand::{Rng, SeedableRng};

    #[test]
    fn grows_past_initial_capacity() {
        let mut g = Growable::new(ClassicBuilder, 16);
        for i in 0..1000 {
            g.insert(i / 2);
        }
        assert_eq!(g.len(), 1000);
        assert!(g.capacity() >= 1000);
        assert!(g.stats().grows >= 5, "expected several doublings");
    }

    #[test]
    fn shrinks_at_quarter_load() {
        let mut g = Growable::new(ClassicBuilder, 16);
        for i in 0..512 {
            g.insert(i);
        }
        let grown = g.capacity();
        for _ in 0..500 {
            g.delete(0);
        }
        assert!(g.capacity() < grown, "expected shrink");
        assert!(g.stats().shrinks >= 1);
        assert_eq!(g.len(), 12);
    }

    #[test]
    fn handles_survive_rebuilds() {
        let mut g = Growable::new(ClassicBuilder, 16);
        let mut handles = Vec::new();
        for i in 0..300 {
            handles.push(g.insert(i));
        }
        // several growths happened; order must match insertion order
        let got: Vec<Handle> = g.iter().collect();
        assert_eq!(got, handles);
        assert_eq!(g.handle_at_rank(137), handles[137]);
        assert_eq!(g.rank_of(handles[42]), Some(42));
    }

    #[test]
    fn random_churn_consistency() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut ops = Vec::new();
        let mut len = 0usize;
        for _ in 0..2000 {
            if len == 0 || rng.gen_bool(0.6) {
                ops.push(Op::Insert(rng.gen_range(0..=len)));
                len += 1;
            } else {
                ops.push(Op::Delete(rng.gen_range(0..len)));
                len -= 1;
            }
        }
        check_growable(ClassicBuilder, &ops);
    }

    #[test]
    fn reported_ops_epoch_and_snapshot() {
        let mut g = Growable::new(ClassicBuilder, 16);
        let e0 = g.epoch();
        let (h0, rep) = g.insert_reported(0);
        // The placement reaches the report and translates back to the handle.
        let placed = rep.placed.expect("insert places").0;
        assert_eq!(g.handle_of_elem(placed), Some(h0));
        assert_eq!(g.epoch(), e0, "no rebuild yet");
        // Fill past capacity: epoch must bump, snapshot must mirror order.
        let mut handles = vec![h0];
        for i in 1..40 {
            handles.push(g.insert(i));
        }
        assert!(g.epoch() > e0, "growth must bump the epoch");
        let snap = g.labels_snapshot();
        assert_eq!(snap.iter().map(|&(h, _)| h).collect::<Vec<_>>(), handles);
        assert!(snap.windows(2).all(|w| w[0].1 < w[1].1), "labels increase with rank");
        for (h, pos) in snap {
            assert_eq!(g.rank_at_label(pos), g.rank_of(h).unwrap());
        }
        // The inner structure is reachable for introspection.
        assert_eq!(g.inner().len(), g.len());
        assert_eq!(g.backend_name(), g.inner().name());
        // Deleting returns the handle and its report.
        let (gone, rep) = g.delete_reported(0);
        assert_eq!(gone, handles[0]);
        assert_eq!(rep.removed.map(|(e, _)| e), rep.removed_elem());
    }

    #[test]
    fn bulk_load_matches_incremental_with_fewer_moves() {
        let n = 4096;
        let mut bulk = Growable::new(ClassicBuilder, 16);
        let e0 = bulk.epoch();
        let (handles, _) = bulk.bulk_load(n);
        assert_eq!(bulk.len(), n);
        assert_eq!(handles.len(), n);
        assert_eq!(bulk.epoch(), e0 + 1, "one growth rebuild, one epoch bump");
        assert_eq!(bulk.iter().collect::<Vec<_>>(), handles, "rank order == load order");

        let mut inc = Growable::new(ClassicBuilder, 16);
        for i in 0..n {
            inc.insert(i);
        }
        assert!(
            bulk.total_moves() < inc.total_moves(),
            "bulk {} !< incremental {}",
            bulk.total_moves(),
            inc.total_moves()
        );
        // The bulk path is a true one-pass load: ~1 move per element.
        assert!(bulk.total_moves() <= 2 * n as u64, "bulk load not O(n): {}", bulk.total_moves());
    }

    #[test]
    fn splice_at_interleaves_and_reports() {
        let mut g = Growable::new(ClassicBuilder, 64);
        let mut reference: Vec<Handle> = Vec::new();
        for i in 0..20 {
            reference.push(g.insert(i));
        }
        // In-place splice (fits in capacity): report carries the batch.
        let e0 = g.epoch();
        let (mid, rep) = g.splice_at(10, 8);
        assert_eq!(g.epoch(), e0, "no growth, no epoch bump");
        assert_eq!(rep.placed.len(), 8);
        assert!(rep.cost() >= 8, "each newcomer costs at least its placement");
        for (i, h) in mid.iter().enumerate() {
            reference.insert(10 + i, *h);
        }
        assert_eq!(g.iter().collect::<Vec<_>>(), reference);
        // Growth splice: epoch bumps once, report is empty, order holds.
        let (tail, rep) = g.splice_at(5, 100);
        assert_eq!(g.epoch(), e0 + 1);
        assert_eq!(rep.cost(), 0, "growth splice reports via the epoch");
        for (i, h) in tail.iter().enumerate() {
            reference.insert(5 + i, *h);
        }
        assert_eq!(g.iter().collect::<Vec<_>>(), reference);
        assert_eq!(g.len(), 128);
    }

    #[test]
    fn empty_splice_is_free() {
        let mut g = Growable::new(ClassicBuilder, 16);
        let (handles, rep) = g.splice_at(0, 0);
        assert!(handles.is_empty());
        assert_eq!(rep.cost(), 0);
        assert_eq!(g.total_moves(), 0);
    }

    #[test]
    fn label_navigation_walks_without_rank_resolution() {
        let mut g = Growable::new(ClassicBuilder, 16);
        let handles: Vec<Handle> = (0..200).map(|i| g.insert(i)).collect();
        let before = g.rank_resolutions();
        let mut walked = Vec::with_capacity(200);
        let mut label = g.first_label();
        while let Some(l) = label {
            walked.push(g.handle_at_label(l).expect("occupied label"));
            label = g.next_label_after(l);
        }
        assert_eq!(walked, handles);
        assert_eq!(g.rank_resolutions(), before, "label walk must not resolve ranks");
        // And backwards.
        let mut rev = Vec::with_capacity(200);
        let mut label = g.last_label();
        while let Some(l) = label {
            rev.push(g.handle_at_label(l).expect("occupied label"));
            label = g.prev_label_before(l);
        }
        rev.reverse();
        assert_eq!(rev, walked);
        assert_eq!(g.prev_label_before(g.first_label().unwrap()), None);
        assert_eq!(g.next_label_after(g.last_label().unwrap()), None);
    }

    #[test]
    fn load_with_handles_restores_identities_in_one_sweep() {
        let n = 1000usize;
        // Persisted handles are arbitrary distinct u64s, not necessarily
        // contiguous — mimic a restored snapshot with gaps.
        let handles: Vec<Handle> = (0..n as u64).map(|i| Handle(i * 3 + 5)).collect();
        let mut g = Growable::new(ClassicBuilder, 16);
        let e0 = g.epoch();
        g.load_with_handles(&handles);
        assert_eq!(g.len(), n);
        assert_eq!(g.epoch(), e0 + 1, "exactly one epoch bump");
        assert_eq!(g.iter().collect::<Vec<_>>(), handles, "rank order == handle order");
        assert_eq!(g.handle_at_rank(700), handles[700]);
        // O(n) restore: exactly one move (placement) per element.
        assert_eq!(g.total_moves(), n as u64, "restore must be 1 move/element");
        // Fresh insertions never reuse a restored handle value.
        let fresh = g.insert(0);
        assert!(fresh.0 > handles.iter().map(|h| h.0).max().unwrap());
        // The zero-copy visitor streams the same pairs labels_snapshot collects.
        let mut visited = Vec::new();
        g.for_each_label(|h, pos| visited.push((h, pos)));
        assert_eq!(visited, g.labels_snapshot());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn load_with_handles_rejects_non_empty() {
        let mut g = Growable::new(ClassicBuilder, 16);
        g.insert(0);
        g.load_with_handles(&[Handle(9)]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn load_with_handles_rejects_reserved_handle() {
        // Handle(u64::MAX) would saturate the id allocator: the next fresh
        // handle would collide (release) or overflow (debug).
        let mut g = Growable::new(ClassicBuilder, 16);
        g.load_with_handles(&[Handle(3), Handle(u64::MAX)]);
    }

    #[test]
    fn amortized_cost_stays_polylog_through_growth() {
        let n = 1 << 12;
        let mut g = Growable::new(ClassicBuilder, 16);
        for _ in 0..n {
            g.insert(0);
        }
        let per_op = g.total_moves() as f64 / n as f64;
        assert!(per_op < 150.0, "growth overhead too high: {per_op}");
    }
}
