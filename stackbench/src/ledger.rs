//! The per-layer ledger of a traced run.
//!
//! The workload's operation stream (regenerated from the seed, so it is
//! the same stream the server saw) is replayed through the public
//! functions of every layer beneath the server, with a span around each
//! call. A span carries its operation's stream index, so the spans of one
//! operation join across layers. From the spans:
//!
//! * `X.ns` is a layer's mean nanoseconds per call of verb `X` (per key
//!   for `load` and `scan`);
//! * `X.self_ns` is that minus the mean of the layer beneath on the same
//!   operations (it may be negative);
//! * `server.X.*` come from the served run: `client_ns` from the timing
//!   around each `Client` call, `handle_ns` from the server's own
//!   `lll_server_request_latency_ns` sum and count over the same requests
//!   (its quantiles are log2 bucket bounds), `wire_ns = client_ns -
//!   handle_ns`, and `self_ns = client_ns` minus the in-process call one
//!   layer down on the replay.
//!
//! The stacking is server → `DurableMap` (durable writes) →
//! `ShardedMap` → `LabelMap` → `Growable`, with `BTreeMap` as the
//! reference row. The shard lock wait and hold times of `ShardedStats`
//! are left out: they are timed in debug builds only and read zero in
//! release.

use crate::alloc::freed_by_drop;
use crate::check::check_point;
use crate::gen::{self, key_bytes, value_bytes, ConnGen, Mix, Op, Verb};
use crate::serve::{self, Log, Outcome, RunCfg, Span, CONNS};
use crate::stats::{quantile_sorted, Samples};
use crate::{metric, Metric, Workload};
use lll_api::{LabelMap, ListBuilder};
use lll_core::growable::Growable;
use lll_core::traits::{LabelingBuilder, ListLabeling};
use lll_server::{DurableKvMap, KvMap};
use lll_sharded::ShardedBuilder;
use lll_wal::{DurableOptions, Wal, WalOp, WalOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::ops::Bound;
use std::path::PathBuf;
use std::time::Instant;

type Kv = (Vec<u8>, Vec<u8>);

/// Operations of the stream replayed untimed first, so every layer is
/// past the rebuilds and shard splits that follow a bulk load, as the
/// served run is past them when its timed phase starts.
const WARM_OPS: usize = 1 << 14;
/// Operations of the stream replayed (timed) through the in-memory layers.
const REPLAY_OPS: usize = 1 << 15;
/// Operations replayed through `DurableMap`: each write waits for an
/// fsync, so the prefix is shorter.
const WAL_OPS: usize = 1 << 11;
/// Ranges at random starts replayed after the point operations of
/// `load-scan`.
const LOAD_SCAN_RANGES: usize = 256;
/// Full scans per layer; the scan metrics are per key over all of them.
const SCANS: usize = 3;

/// One span: a call into `layer` for operation `idx` of the stream.
#[derive(Clone, Copy, Debug)]
struct LSpan {
    layer: &'static str,
    verb: &'static str,
    idx: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// The index of the `i`-th span that belongs to no stream operation
/// (loads, snapshots, scans): far above any stream index, so it is never
/// taken for warm-up.
fn aux(i: usize) -> u64 {
    (1 << 62) + i as u64
}

/// Spans, kept in memory until the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<LSpan>,
    /// Calls for stream indices below this are warm-up: run, not recorded.
    warm_below: u64,
}

impl Tracer {
    fn new(warm_below: u64) -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), warm_below }
    }

    fn span<R>(
        &mut self,
        layer: &'static str,
        verb: &'static str,
        idx: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if idx < self.warm_below {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let dur_ns = t.elapsed().as_nanos() as u64;
        let start_ns = t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(LSpan { layer, verb, idx, start_ns, dur_ns });
        r
    }

    /// Mean duration of `layer`'s `verb` spans over stream indices below
    /// `below` (NaN when there are none).
    fn mean(&self, layer: &str, verb: &str, below: u64) -> f64 {
        let (mut sum, mut n) = (0u64, 0u64);
        for s in &self.spans {
            if s.layer == layer && s.verb == verb && s.idx < below {
                sum += s.dur_ns;
                n += 1;
            }
        }
        if n == 0 {
            f64::NAN
        } else {
            sum as f64 / n as f64
        }
    }
}

/// The operation stream of a workload, regenerated from the seed.
struct Stream {
    /// Keys present before the operations, ascending.
    preload: Vec<u64>,
    /// How the preload arrives at the sharded layer: the batches the
    /// server received, in order.
    batches: Vec<Vec<u64>>,
    /// `(stream index, operation)`.
    ops: Vec<(u64, Op)>,
}

fn stream(w: Workload, cfg: &RunCfg) -> Stream {
    let s = &cfg.sizes;
    let round_robin = |gens: &mut [ConnGen]| -> Vec<(u64, Op)> {
        let mut ops = Vec::with_capacity(WARM_OPS + REPLAY_OPS);
        for seq in 0.. {
            for g in gens.iter_mut() {
                if ops.len() == WARM_OPS + REPLAY_OPS {
                    return ops;
                }
                ops.push((seq * CONNS + g.conn, g.next_op()));
            }
        }
        ops
    };
    match w {
        Workload::OltpUniform => {
            let preload = gen::uniform_keys(cfg.seed, 1, s.oltp_keys);
            let mut gens: Vec<ConnGen> = (0..CONNS)
                .map(|c| {
                    ConnGen::new(cfg.seed, c, CONNS, Mix::Oltp, gen::stripe(&preload, c, CONNS))
                })
                .collect();
            let ops = round_robin(&mut gens);
            let batches = preload.chunks(s.preload_batch).map(<[u64]>::to_vec).collect();
            Stream { preload, batches, ops }
        }
        Workload::AppendDurable => {
            let (mut gens, mut preload, tail) = serve::append_gens(cfg);
            preload.extend(tail);
            preload.sort_unstable();
            let ops = round_robin(&mut gens);
            let batches = preload.chunks(s.preload_batch).map(<[u64]>::to_vec).collect();
            Stream { preload, batches, ops }
        }
        Workload::LoadScan => {
            let arrival = serve::arrival_keys(cfg.seed, s.load_keys);
            let batches = arrival.chunks(s.load_batch).map(<[u64]>::to_vec).collect();
            let mut preload = arrival;
            preload.sort_unstable();
            let mut g =
                ConnGen::new(cfg.seed, 0, 1, Mix::Points, preload.iter().copied().collect());
            let mut ops: Vec<(u64, Op)> =
                (0..s.load_points as u64).map(|i| (i, g.next_op())).collect();
            let mut rng = gen::Rng::derive(cfg.seed, 4);
            for _ in 0..LOAD_SCAN_RANGES {
                ops.push((ops.len() as u64, Op::Range { start: rng.next_u64(), limit: 1000 }));
            }
            Stream { preload, batches, ops }
        }
    }
}

/// The map-shaped calls a layer offers.
trait Layer {
    fn get(&mut self, k: &[u8]) -> Option<Vec<u8>>;
    fn insert(&mut self, k: Vec<u8>, v: Vec<u8>) -> Option<Vec<u8>>;
    fn remove(&mut self, k: &[u8]) -> Option<Vec<u8>>;
    fn range(&mut self, start: &[u8], limit: usize) -> Vec<Kv>;
}

impl Layer for BTreeMap<Vec<u8>, Vec<u8>> {
    fn get(&mut self, k: &[u8]) -> Option<Vec<u8>> {
        BTreeMap::get(self, k).cloned()
    }
    fn insert(&mut self, k: Vec<u8>, v: Vec<u8>) -> Option<Vec<u8>> {
        BTreeMap::insert(self, k, v)
    }
    fn remove(&mut self, k: &[u8]) -> Option<Vec<u8>> {
        BTreeMap::remove(self, k)
    }
    fn range(&mut self, start: &[u8], limit: usize) -> Vec<Kv> {
        let lo: Bound<&[u8]> = Bound::Included(start);
        BTreeMap::range::<[u8], _>(self, (lo, Bound::Unbounded))
            .take(limit)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

impl Layer for LabelMap<Vec<u8>, Vec<u8>> {
    fn get(&mut self, k: &[u8]) -> Option<Vec<u8>> {
        LabelMap::get(self, k).cloned()
    }
    fn insert(&mut self, k: Vec<u8>, v: Vec<u8>) -> Option<Vec<u8>> {
        LabelMap::insert(self, k, v)
    }
    fn remove(&mut self, k: &[u8]) -> Option<Vec<u8>> {
        LabelMap::remove(self, k)
    }
    fn range(&mut self, start: &[u8], limit: usize) -> Vec<Kv> {
        let lo: Bound<&[u8]> = Bound::Included(start);
        LabelMap::range::<[u8], _>(self, (lo, Bound::Unbounded))
            .take(limit)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

impl Layer for &KvMap {
    fn get(&mut self, k: &[u8]) -> Option<Vec<u8>> {
        KvMap::get(self, k)
    }
    fn insert(&mut self, k: Vec<u8>, v: Vec<u8>) -> Option<Vec<u8>> {
        KvMap::insert(self, k, v)
    }
    fn remove(&mut self, k: &[u8]) -> Option<Vec<u8>> {
        KvMap::remove(self, k)
    }
    fn range(&mut self, start: &[u8], limit: usize) -> Vec<Kv> {
        let lo: Bound<&[u8]> = Bound::Included(start);
        self.range_limited::<[u8], _>((lo, Bound::Unbounded), limit).0
    }
}

/// Durable writes go through the log; reads go to the map, as the
/// durable server serves them.
impl Layer for &DurableKvMap {
    fn get(&mut self, k: &[u8]) -> Option<Vec<u8>> {
        self.map().get(k)
    }
    fn insert(&mut self, k: Vec<u8>, v: Vec<u8>) -> Option<Vec<u8>> {
        DurableKvMap::insert(self, k, v).expect("wal insert")
    }
    fn remove(&mut self, k: &[u8]) -> Option<Vec<u8>> {
        DurableKvMap::remove(self, &k.to_vec()).expect("wal remove")
    }
    fn range(&mut self, start: &[u8], limit: usize) -> Vec<Kv> {
        let lo: Bound<&[u8]> = Bound::Included(start);
        self.map().range_limited::<[u8], _>((lo, Bound::Unbounded), limit).0
    }
}

/// A rank-addressed operation for the core layer, derived from the keyed
/// stream by the `LabelMap` replay.
#[derive(Clone, Copy)]
enum CoreOp {
    LabelOfRank(usize),
    Insert(usize),
    Delete(usize),
    Range(usize, usize),
}

/// Derives the core layer's rank-addressed call for one keyed operation.
type RankOf<'a, L> = &'a mut dyn FnMut(&L, u64, &Op) -> Option<(u64, CoreOp)>;

/// Replay `ops` through `layer`, checking point answers and recording
/// range fingerprints (compared across layers). `rank_of` (untimed, before
/// each call) derives the core layer's rank stream.
fn replay<L: Layer>(
    tr: &mut Tracer,
    name: &'static str,
    layer: &mut L,
    ops: &[(u64, Op)],
    fingerprints: &mut Vec<(usize, u64)>,
    mut rank_of: Option<RankOf<'_, L>>,
    core_ops: &mut Vec<(u64, CoreOp)>,
) -> Result<(), String> {
    let record = fingerprints.is_empty();
    let mut ranges = 0;
    for &(idx, op) in ops {
        if let Some(f) = rank_of.as_mut() {
            if let Some(c) = f(layer, idx, &op) {
                core_ops.push(c);
            }
        }
        let point = match op {
            Op::Get { key, .. } => {
                let k = key_bytes(key);
                Some(tr.span(name, "get", idx, || layer.get(&k)))
            }
            Op::Insert { key } => {
                let (k, v) = (key_bytes(key), value_bytes(key));
                Some(tr.span(name, "insert", idx, || layer.insert(k, v)))
            }
            Op::Remove { key } => {
                let k = key_bytes(key);
                Some(tr.span(name, "remove", idx, || layer.remove(&k)))
            }
            Op::Range { start, limit } => {
                let k = key_bytes(start);
                let page = tr.span(name, "range", idx, || layer.range(&k, limit as usize));
                let fp = page
                    .iter()
                    .fold(0u64, |acc, (k, _)| gen::mix(acc ^ gen::decode_key(k).unwrap_or(0)));
                let fp = (page.len(), fp);
                if record {
                    fingerprints.push(fp);
                } else if fingerprints.get(ranges) != Some(&fp) {
                    return Err(format!("{name}: range #{ranges} differs from the reference"));
                }
                ranges += 1;
                None
            }
        };
        if let Some(reply) = point {
            check_point(&op, reply.as_deref()).map_err(|e| format!("{name} replay: {e}"))?;
        }
    }
    Ok(())
}

/// Visit every entry of a scan; returns how many there were.
fn visit<'a>(entries: impl Iterator<Item = (&'a Vec<u8>, &'a Vec<u8>)>) -> usize {
    entries.fold(0, |n, e| {
        black_box(e);
        n + 1
    })
}

/// Mean nanoseconds per key of `SCANS` full scans by `f` (which returns
/// the keys it visited).
fn scan_ns(tr: &mut Tracer, layer: &'static str, mut f: impl FnMut() -> usize) -> f64 {
    let (mut keys, t) = (0usize, Instant::now());
    for i in 0..SCANS {
        keys += tr.span(layer, "scan", aux(i), &mut f);
    }
    t.elapsed().as_nanos() as f64 / keys.max(1) as f64
}

/// The core layer's replay: a `Growable` bulk-loaded to the preload size,
/// driven by the rank stream.
struct CoreRow {
    insert_ns: f64,
    delete_ns: f64,
    label_ns: f64,
    range_ns: f64,
    scan_ns_per_key: f64,
    moves_per_op: f64,
    moves_p999: f64,
    bytes_per_slot: f64,
}

fn core_row<B: LabelingBuilder>(
    builder: B,
    preload: usize,
    ops: &[(u64, CoreOp)],
    warm_below: u64,
) -> CoreRow {
    let mut g: Growable<B> = ListBuilder::new().build_growable(builder);
    g.bulk_load(preload);
    let mut tr = Tracer::new(warm_below);
    let mut moves = Vec::new();
    for &(idx, op) in ops {
        match op {
            CoreOp::LabelOfRank(r) => {
                black_box(tr.span("core", "label_of_rank", idx, || g.label_of_rank(r)));
            }
            CoreOp::Insert(r) => {
                let before = g.op_moves();
                black_box(tr.span("core", "insert", idx, || g.insert(r)));
                if idx >= warm_below {
                    moves.push(g.op_moves() - before);
                }
            }
            CoreOp::Delete(r) => {
                let before = g.op_moves();
                black_box(tr.span("core", "delete", idx, || g.delete(r)));
                if idx >= warm_below {
                    moves.push(g.op_moves() - before);
                }
            }
            CoreOp::Range(r, limit) => {
                tr.span("core", "range", idx, || {
                    let mut label = g.label_of_rank(r);
                    for _ in 1..limit {
                        match g.next_label_after(label) {
                            Some(l) => label = l,
                            None => break,
                        }
                    }
                    black_box(label)
                });
            }
        }
    }
    let scan = scan_ns(&mut tr, "core", || {
        let mut n = 0;
        let mut at = g.first_label();
        while let Some(l) = at {
            n += 1;
            at = g.next_label_after(l);
        }
        black_box(n)
    });
    moves.sort_unstable();
    let slots = g.inner().num_slots();
    let all = u64::MAX;
    CoreRow {
        insert_ns: tr.mean("core", "insert", all),
        delete_ns: tr.mean("core", "delete", all),
        label_ns: tr.mean("core", "label_of_rank", all),
        range_ns: tr.mean("core", "range", all),
        scan_ns_per_key: scan,
        moves_per_op: moves.iter().sum::<u64>() as f64 / moves.len().max(1) as f64,
        moves_p999: quantile_sorted(&moves, 0.999),
        bytes_per_slot: freed_by_drop(g) as f64 / slots.max(1) as f64,
    }
}

/// What the traced run reports.
pub struct Ledger {
    pub untraced_e2e: Vec<Metric>,
    pub traced_e2e: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    workload: Workload,
    seed: u64,
    spans: Vec<LSpan>,
    server_spans: Vec<Span>,
}

impl Ledger {
    /// Write the ledger (JSON) and every span (CSV) under
    /// `.stackbench_out/`.
    pub fn write(&self, provenance: &str, e2e: &[Metric]) -> std::io::Result<()> {
        let dir = PathBuf::from(".stackbench_out");
        std::fs::create_dir_all(&dir)?;
        let stem = format!("{}-seed{}", self.workload.name(), self.seed);
        let rows = |ms: &[Metric]| crate::metrics_json(ms.iter(), true);
        let json = format!(
            "{{\"provenance\": {provenance}, \"end_to_end\": {}, \"end_to_end_untraced_seconds\": {}, \
             \"end_to_end_traced_seconds\": {}, \"per_layer\": {}}}\n",
            rows(e2e),
            rows(&self.untraced_e2e),
            rows(&self.traced_e2e),
            rows(&self.per_layer)
        );
        std::fs::write(dir.join(format!("ledger-{stem}.json")), json)?;
        let mut csv =
            std::io::BufWriter::new(std::fs::File::create(dir.join(format!("spans-{stem}.csv")))?);
        writeln!(csv, "layer,verb,idx,start_ns,dur_ns")?;
        for s in &self.server_spans {
            writeln!(csv, "server,{},{},{},{}", s.verb.name(), s.idx, s.start_ns, s.dur_ns)?;
        }
        for s in &self.spans {
            writeln!(csv, "{},{},{},{},{}", s.layer, s.verb, s.idx, s.start_ns, s.dur_ns)?;
        }
        csv.flush()
    }
}

/// Mean client-observed nanoseconds of `verb` over `logs`; with
/// `pages`, full-scan pages count as ranges too.
fn client_mean(logs: &[&Log], verb: Verb, pages: bool) -> f64 {
    let mut s = Samples::default();
    for l in logs {
        s.extend(&l.lat[verb as usize]);
        if pages && verb == Verb::Range {
            s.extend(&l.pages);
        }
    }
    if s.len() == 0 {
        f64::NAN
    } else {
        s.mean()
    }
}

pub fn run(w: Workload, cfg: &RunCfg, out: &Outcome) -> Result<Ledger, String> {
    let st = stream(w, cfg);
    let warm_below = WARM_OPS.min(st.ops.len() / 2) as u64;
    let mut tr = Tracer::new(warm_below);
    let mut pl: Vec<Metric> = Vec::new();
    let n_ops = st.ops.len() as u64 - warm_below;
    let mut fps = Vec::new();
    let mut none = Vec::new();

    // btreemap: the reference row.
    let mut bt: BTreeMap<Vec<u8>, Vec<u8>> = gen::entries(&st.preload).into_iter().collect();
    replay(&mut tr, "btreemap", &mut bt, &st.ops, &mut fps, None, &mut none)?;
    let bt_scan = scan_ns(&mut tr, "btreemap", || visit(bt.iter()));
    drop(bt);

    // api: LabelMap on the default ListBuilder, from the same key set.
    let mut lm: LabelMap<Vec<u8>, Vec<u8>> = ListBuilder::new().label_map();
    lm.extend_sorted(gen::entries(&st.preload));
    let mut moves0 = lm.total_moves();
    let mut inserts = 0u64;
    let mut core_ops = Vec::new();
    let mut rank_of =
        |m: &LabelMap<Vec<u8>, Vec<u8>>, idx: u64, op: &Op| -> Option<(u64, CoreOp)> {
            if idx == warm_below {
                moves0 = m.total_moves();
            }
            let at = |k: u64| m.lower_bound(&key_bytes(k)[..]);
            let c = match *op {
                Op::Get { key, present: true } => CoreOp::LabelOfRank(at(key)),
                Op::Get { .. } => return None,
                Op::Insert { key } => {
                    inserts += u64::from(idx >= warm_below);
                    CoreOp::Insert(at(key))
                }
                Op::Remove { key } => CoreOp::Delete(at(key)),
                Op::Range { start, limit } => {
                    // A range starting past the last key makes no core call.
                    let r = at(start);
                    if r >= m.len() {
                        return None;
                    }
                    CoreOp::Range(r, limit as usize)
                }
            };
            Some((idx, c))
        };
    replay(&mut tr, "api", &mut lm, &st.ops, &mut fps, Some(&mut rank_of), &mut core_ops)?;
    let api_moves = (lm.total_moves() - moves0) as f64 / inserts.max(1) as f64;
    let api_scan = scan_ns(&mut tr, "api", || visit(lm.iter()));
    let api_len = lm.len().max(1) as f64;
    let api_heap = freed_by_drop(lm) as f64 / api_len;

    // core: the default backend (Corollary 11) and classic.
    let seed = ListBuilder::new().config().seed;
    let core = core_row(
        lll_embedding::layered::corollary11_builder(seed),
        st.preload.len(),
        &core_ops,
        warm_below,
    );
    let classic = core_row(lll_classic::ClassicBuilder, st.preload.len(), &core_ops, warm_below);

    // sharded: loaded through the batches the server received.
    let map: KvMap = ShardedBuilder::new().build();
    let t = Instant::now();
    for (i, b) in st.batches.iter().enumerate() {
        let batch = gen::entries(b);
        tr.span("sharded", "batch_insert", aux(i), || map.extend_from_unsorted(batch));
    }
    let load_ns = t.elapsed().as_nanos() as f64 / st.preload.len().max(1) as f64;
    let mut mref = &map;
    replay(&mut tr, "sharded", &mut mref, &st.ops, &mut fps, None, &mut none)?;
    let cap = lll_server::ServerConfig::default().range_limit_cap as usize;
    let sh_scan = scan_ns(&mut tr, "sharded", || {
        let (mut n, mut from): (usize, Option<Vec<u8>>) = (0, None);
        loop {
            let lo = match &from {
                Some(k) => Bound::Excluded(&k[..]),
                None => Bound::Unbounded,
            };
            let (page, more) = map.range_limited::<[u8], _>((lo, Bound::Unbounded), cap);
            n += page.len();
            match (more, page.into_iter().last()) {
                (true, Some((k, _))) => from = Some(k),
                _ => return black_box(n),
            }
        }
    });
    let snap = cfg.data_dir.join("ledger.snap");
    tr.span("sharded", "snapshot", aux(0), || -> Result<(), String> {
        let f = std::fs::File::create(&snap).map_err(|e| e.to_string())?;
        let mut w = std::io::BufWriter::new(f);
        map.write_snapshot(&mut w).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())
    })?;
    let _ = std::fs::remove_file(&snap);
    drop(map);

    // sharded under two replay threads: each applies its connection's
    // operations (answers unchecked: the split reorders the stream).
    let map2: KvMap = ShardedBuilder::new().build();
    for b in &st.batches {
        map2.extend_from_unsorted(gen::entries(b));
    }
    let mut warm_ref = &map2;
    let warm = &st.ops[..warm_below as usize];
    replay(
        &mut Tracer::new(u64::MAX),
        "sharded",
        &mut warm_ref,
        warm,
        &mut Vec::new(),
        None,
        &mut Vec::new(),
    )?;
    let (get2, ins2) = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2u64)
            .map(|c| {
                let (map2, ops) = (&map2, &st.ops);
                s.spawn(move || {
                    let (mut g, mut i) = (Samples::default(), Samples::default());
                    for &(_, op) in ops.iter().filter(|(idx, _)| idx % 2 == c && *idx >= warm_below)
                    {
                        match op {
                            Op::Get { key, .. } => {
                                let k = key_bytes(key);
                                let t = Instant::now();
                                black_box(map2.get(&k[..]));
                                g.push(0, t.elapsed().as_nanos() as u64);
                            }
                            Op::Insert { key } => {
                                let (k, v) = (key_bytes(key), value_bytes(key));
                                let t = Instant::now();
                                black_box(map2.insert(k, v));
                                i.push(0, t.elapsed().as_nanos() as u64);
                            }
                            Op::Remove { key } => {
                                black_box(map2.remove(&key_bytes(key)[..]));
                            }
                            Op::Range { start, limit } => {
                                let k = key_bytes(start);
                                let lo: Bound<&[u8]> = Bound::Included(&k[..]);
                                black_box(map2.range_limited::<[u8], _>(
                                    (lo, Bound::Unbounded),
                                    limit as usize,
                                ));
                            }
                        }
                    }
                    (g, i)
                })
            })
            .collect();
        let (mut g, mut i) = (Samples::default(), Samples::default());
        for h in hs {
            let (a, b) = h.join().expect("replay thread panicked");
            g.extend(&a);
            i.extend(&b);
        }
        (g.mean(), i.mean())
    });
    let rp = map2.stats();
    drop(map2);

    // wal: DurableMap with the default options (FsyncPolicy::Always).
    let wal_dir = cfg.data_dir.join("ledger-wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let (dm, _) = DurableKvMap::open(&wal_dir, DurableOptions::default(), &ShardedBuilder::new())
        .map_err(|e| format!("ledger wal open: {e}"))?;
    for (i, b) in st.batches.iter().enumerate() {
        let batch = gen::entries(b);
        tr.span("wal", "batch_insert", aux(i), || dm.batch_insert(batch))
            .map_err(|e| format!("ledger wal batch: {e}"))?;
    }
    let t = Instant::now();
    let ckpt = tr.span("wal", "snapshot", aux(0), || dm.checkpoint()).map_err(|e| e.to_string())?;
    let checkpoint_s = t.elapsed().as_secs_f64();
    let wal_ops = &st.ops[..(warm_below as usize + WAL_OPS).min(st.ops.len())];
    let wal_below = wal_ops.last().map_or(0, |(i, _)| i + 1);
    let bytes0 = dm.wal().disk_bytes();
    let user_bytes: u64 = wal_ops
        .iter()
        .map(|(_, op)| match op {
            Op::Insert { .. } => 24,
            Op::Remove { .. } => 8,
            _ => 0,
        })
        .sum();
    let mut fps_wal: Vec<(usize, u64)> = Vec::new();
    {
        let mut dref = &dm;
        // Range fingerprints are checked against the reference over the
        // same prefix.
        let prefix_ranges = wal_ops.iter().filter(|(_, op)| matches!(op, Op::Range { .. })).count();
        fps_wal.extend_from_slice(&fps[..prefix_ranges]);
        replay(&mut tr, "wal", &mut dref, wal_ops, &mut fps_wal, None, &mut none)?;
    }
    let log_bytes = dm.wal().disk_bytes() - bytes0;
    let wm = dm.wal().metrics().clone();
    let (replay_appends, replay_fsyncs) = (wm.appends.get(), wm.fsyncs.get());
    let replay_fsync_mean =
        wm.fsync_latency_ns.sum() as f64 / wm.fsync_latency_ns.count().max(1) as f64;
    drop(dm);
    // Log replay alone: the checkpoint restored untimed, then the records
    // behind it read, decoded, and applied.
    let f = std::fs::File::open(&ckpt.path).map_err(|e| e.to_string())?;
    let restored =
        KvMap::read_snapshot(&mut std::io::BufReader::new(f)).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let (wal, _) =
        Wal::open_at(&wal_dir, WalOptions::default(), ckpt.lsn + 1).map_err(|e| e.to_string())?;
    let replayed = wal
        .replay(ckpt.lsn, |_, payload| {
            match WalOp::<Vec<u8>, Vec<u8>>::decode_from(&mut payload.as_slice())? {
                WalOp::Insert { key, value } => {
                    restored.insert(key, value);
                }
                WalOp::Remove { key } => {
                    restored.remove(&key);
                }
                WalOp::Batch { entries } => {
                    restored.extend_from_unsorted(entries);
                }
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    let replay_s = t.elapsed().as_secs_f64();
    drop(wal);
    drop(restored);
    let _ = std::fs::remove_dir_all(&wal_dir);

    // ---- per-layer metrics ----
    let all = u64::MAX;
    let durable = w == Workload::AppendDurable;
    let m = |tr: &Tracer, layer: &str, verb: &str| tr.mean(layer, verb, all);

    // server
    let timed_logs: Vec<&Log> = vec![&out.timed];
    let bulk_logs: Vec<&Log> = vec![&out.timed, &out.other];
    for verb in gen::VERBS {
        let bulk = matches!(verb, Verb::BatchInsert | Verb::Snapshot);
        // Client and server figures cover the same requests: the traced
        // phase where there is one, else the server's whole life.
        let (side, logs, pages) = match (&out.server_traced, bulk) {
            (Some(s), false) => (s, &timed_logs, false),
            _ => (&out.server_total, &bulk_logs, true),
        };
        let client = client_mean(logs, verb, pages);
        let (sum, count) = side.handle[verb as usize];
        let handle = if count == 0 { f64::NAN } else { sum as f64 / count as f64 };
        let below =
            if durable && !matches!(verb, Verb::Get | Verb::Range) { "wal" } else { "sharded" };
        let beneath = m(&tr, below, verb.name());
        let v = verb.name();
        pl.push(metric(format!("server.{v}.client_ns"), client, "ns", count));
        pl.push(metric(format!("server.{v}.handle_ns"), handle, "ns", count));
        pl.push(metric(format!("server.{v}.wire_ns"), client - handle, "ns", count));
        pl.push(metric(format!("server.{v}.self_ns"), client - beneath, "ns", count));
    }

    // wal
    let (appends, fsyncs, fsync_mean) = match (&out.server_traced, durable) {
        (Some(s), true) => {
            (s.wal_appends, s.wal_fsyncs, s.fsync_sum_ns as f64 / s.fsync_count.max(1) as f64)
        }
        _ => (replay_appends, replay_fsyncs, replay_fsync_mean),
    };
    let wal_ins = tr.mean("wal", "insert", wal_below);
    pl.push(metric(
        "wal.insert.self_ns",
        wal_ins - tr.mean("sharded", "insert", wal_below),
        "ns",
        0,
    ));
    pl.push(metric(
        "wal.records_per_fsync",
        appends as f64 / fsyncs.max(1) as f64,
        "count",
        fsyncs,
    ));
    pl.push(metric("wal.fsync_mean_ns", fsync_mean, "ns", fsyncs));
    pl.push(metric(
        "wal.log_bytes_per_user_byte",
        log_bytes as f64 / user_bytes.max(1) as f64,
        "B/B",
        1,
    ));
    pl.push(metric("wal.checkpoint_s", checkpoint_s, "s", 1));
    pl.push(metric("wal.replay_records_s", replayed as f64 / replay_s, "1/s", replayed));

    // sharded
    for v in ["get", "insert", "remove", "range"] {
        let ns = m(&tr, "sharded", v);
        pl.push(metric(format!("sharded.{v}.ns"), ns, "ns", n_ops));
        pl.push(metric(format!("sharded.{v}.self_ns"), ns - m(&tr, "api", v), "ns", n_ops));
    }
    pl.push(metric("sharded.load.ns", load_ns, "ns", st.preload.len() as u64));
    pl.push(metric("sharded.scan.ns", sh_scan, "ns", SCANS as u64));
    pl.push(metric("sharded.scan.self_ns", sh_scan - api_scan, "ns", SCANS as u64));
    pl.push(metric("sharded.get.ns_2t", get2, "ns", n_ops));
    pl.push(metric("sharded.insert.ns_2t", ins2, "ns", n_ops));
    let reads = rp.read_optimistic_hits + rp.read_lock_fallbacks;
    pl.push(metric(
        "sharded.optimistic_hit_ratio",
        rp.read_optimistic_hits as f64 / reads.max(1) as f64,
        "ratio",
        reads,
    ));
    pl.push(metric(
        "sharded.retries_per_read",
        rp.read_retries as f64 / reads.max(1) as f64,
        "count",
        reads,
    ));
    pl.push(metric("sharded.lock_fallbacks", rp.read_lock_fallbacks as f64, "count", reads));
    pl.push(metric("sharded.splits", out.splits as f64, "count", 1));
    pl.push(metric("sharded.shards", out.shards as f64, "count", 1));

    // api
    let core_of = |v: &str| match v {
        "get" => core.label_ns,
        "insert" => core.insert_ns,
        "remove" => core.delete_ns,
        _ => core.range_ns,
    };
    for v in ["get", "insert", "remove", "range"] {
        let ns = m(&tr, "api", v);
        pl.push(metric(format!("api.{v}.ns"), ns, "ns", n_ops));
        pl.push(metric(format!("api.{v}.self_ns"), ns - core_of(v), "ns", n_ops));
        pl.push(metric(format!("api.{v}.vs_btreemap"), ns / m(&tr, "btreemap", v), "ratio", n_ops));
    }
    pl.push(metric("api.scan.ns", api_scan, "ns", SCANS as u64));
    pl.push(metric("api.scan.self_ns", api_scan - core.scan_ns_per_key, "ns", SCANS as u64));
    pl.push(metric("api.scan.vs_btreemap", api_scan / bt_scan, "ratio", SCANS as u64));
    pl.push(metric("api.moves_per_insert", api_moves, "count", inserts));
    pl.push(metric("api.heap_bytes_per_key", api_heap, "B", 1));

    // core
    for (prefix, row) in [("core", &core), ("core.classic", &classic)] {
        pl.push(metric(format!("{prefix}.insert.ns"), row.insert_ns, "ns", n_ops));
        pl.push(metric(format!("{prefix}.delete.ns"), row.delete_ns, "ns", n_ops));
        pl.push(metric(format!("{prefix}.label_of_rank.ns"), row.label_ns, "ns", n_ops));
        pl.push(metric(
            format!("{prefix}.scan.ns_per_key"),
            row.scan_ns_per_key,
            "ns",
            SCANS as u64,
        ));
        pl.push(metric(format!("{prefix}.moves_per_op"), row.moves_per_op, "count", n_ops));
        pl.push(metric(format!("{prefix}.moves_p999"), row.moves_p999, "count", n_ops));
        pl.push(metric(format!("{prefix}.bytes_per_slot"), row.bytes_per_slot, "B", 1));
    }

    // btreemap
    for v in ["get", "insert", "remove", "range"] {
        pl.push(metric(format!("btreemap.{v}.ns"), m(&tr, "btreemap", v), "ns", n_ops));
    }
    pl.push(metric("btreemap.scan.ns", bt_scan, "ns", SCANS as u64));

    let half = out.timed_s / 2.0;
    let untraced_e2e =
        crate::end_to_end(out, &out.timed.slice(|at| !serve::traced_slice(at)), half, false);
    let traced_e2e = crate::end_to_end(out, &out.timed.slice(serve::traced_slice), half, false);
    let server_spans = out.timed.spans.clone();
    Ok(Ledger {
        untraced_e2e,
        traced_e2e,
        per_layer: pl,
        workload: w,
        seed: cfg.seed,
        spans: tr.spans,
        server_spans,
    })
}
