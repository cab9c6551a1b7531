//! The served stack, end to end: `lll-server` on loopback with the
//! library defaults, driven through the shipped blocking `Client` by a
//! closed loop of `CONNS` connections, every reply checked.

use crate::alloc::freed_by_drop;
use crate::check::{check_point, check_range};
use crate::gen::{self, key_bytes, value_bytes, ConnGen, Mix, Op, Verb, VERBS};
use crate::stats::{median, Samples};
use lll_server::{Client, DurableKvMap, KvMap, Server, ServerConfig, ServerHandle, WireError};
use lll_sharded::ShardedBuilder;
use lll_wal::DurableOptions;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections: one per core of the machine the benchmark was
/// written on, so the closed loop loads the server without measuring the
/// scheduler.
pub const CONNS: u64 = 2;

/// How many times set-up runs in one run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// How many times recovery runs in one run of `append-durable`;
/// `recovery_s` is the median.
const RECOVERY_REPS: usize = 5;
/// Slices the timed window of `oltp-uniform` is cut into; snapshot
/// restores run in the pauses before, between and after them.
const OLTP_SLICES: u32 = 6;
/// Timed snapshot restores in each pause of `oltp-uniform`; `recovery_s`
/// is the median of all of them.
const RESTORES_PER_PAUSE: usize = 3;

/// Input sizes, fixed by the benchmark and stamped into every result.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `oltp-uniform`: keys preloaded.
    pub oltp_keys: usize,
    /// `append-durable`: keys preloaded before the first checkpoint.
    pub append_preload: usize,
    /// `append-durable`: connection 0 asks for a checkpoint after every
    /// this many of its operations.
    pub checkpoint_every: u64,
    /// `append-durable`: keys set-up inserts one by one after its
    /// checkpoint, so a reopen replays that many log records.
    pub append_tail: usize,
    /// `load-scan`: keys loaded.
    pub load_keys: usize,
    /// `load-scan`: keys per `batch_insert`.
    pub load_batch: usize,
    /// `load-scan`: point operations per cycle, between the load and the
    /// scans.
    pub load_points: usize,
    /// Keys per `batch_insert` frame of a sorted preload.
    pub preload_batch: usize,
    /// Seconds of untimed traffic before the timed phase.
    pub warmup_s: f64,
}

impl Default for Sizes {
    fn default() -> Self {
        Self {
            oltp_keys: 1 << 17,
            append_preload: 1 << 16,
            checkpoint_every: 1000,
            append_tail: 256,
            load_keys: 1 << 17,
            load_batch: 1 << 14,
            load_points: 1 << 13,
            preload_batch: 1 << 14,
            warmup_s: 0.5,
        }
    }
}

/// One client-side span: operation `idx` of the stream (`seq * CONNS +
/// conn`), verb, start relative to the phase start, and duration.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub idx: u64,
    pub verb: Verb,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-verb latency samples, failures, and (traced) spans.
pub struct Log {
    /// Sample start times are relative to this.
    epoch: Instant,
    pub lat: [Samples; 6],
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
    /// Full-scan pages (`range` with the server's cap), timed apart from
    /// the short ranges.
    pub pages: Samples,
    /// Operations completed inside the timed window.
    pub timed_ops: u64,
}

impl Default for Log {
    fn default() -> Self {
        Self::new(Instant::now())
    }
}

impl Log {
    fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            lat: Default::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            spans: Vec::new(),
            pages: Samples::default(),
            timed_ops: 0,
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The samples that started in the seconds `keep` selects, as a log
    /// of their own (for the traced and untraced halves of a traced run).
    pub fn slice(&self, keep: impl Fn(u64) -> bool) -> Log {
        let mut l = Log::new(self.epoch);
        for (d, s) in l.lat.iter_mut().zip(&self.lat) {
            d.0 = s.0.iter().copied().filter(|&(at, _)| keep(at)).collect();
        }
        l.timed_ops = l.lat.iter().map(|s| s.len() as u64).sum();
        l
    }

    /// Start times of every recorded operation.
    pub fn starts(&self) -> Vec<u64> {
        self.lat.iter().flat_map(|s| s.0.iter().map(|&(at, _)| at)).collect()
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    fn absorb(&mut self, other: Log) {
        for (a, b) in self.lat.iter_mut().zip(&other.lat) {
            a.extend(b);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.timed_ops += other.timed_ops;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.spans.extend(other.spans);
        self.pages.extend(&other.pages);
    }

    /// Time one client call, check its answer, and log it.
    fn call<T>(
        &mut self,
        verb: Verb,
        record: bool,
        f: impl FnOnce() -> Result<T, WireError>,
        check: impl FnOnce(T) -> Result<(), String>,
    ) -> Result<(), WireError> {
        self.attempted += 1;
        let t = Instant::now();
        let reply = f();
        let ns = t.elapsed().as_nanos() as u64;
        match reply {
            Ok(v) => {
                if record {
                    let at = self.since_epoch(t);
                    self.lat[verb as usize].push(at, ns);
                }
                if let Err(why) = check(v) {
                    self.fail(why);
                }
                Ok(())
            }
            Err(e) => {
                self.fail(format!("{}: {e}", verb.name()));
                Err(e)
            }
        }
    }
}

/// What the server reported about itself over the wire (`metrics`).
#[derive(Clone, Debug, Default)]
pub struct ServerSide {
    /// `(sum_ns, count)` of `lll_server_request_latency_ns` per verb.
    pub handle: [(u64, u64); 6],
    pub wal_appends: u64,
    pub wal_fsyncs: u64,
    pub fsync_sum_ns: u64,
    pub fsync_count: u64,
}

impl ServerSide {
    fn fetch(client: &mut Client) -> Result<Self, WireError> {
        let m = client.metrics()?;
        let mut s =
            Self { wal_appends: m.wal_appends, wal_fsyncs: m.wal_fsyncs, ..Self::default() };
        for line in m.text.lines() {
            let Some((name, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<u64>() else { continue };
            for verb in VERBS {
                let label = format!("{{verb=\"{}\"}}", verb.name());
                if name == format!("lll_server_request_latency_ns_sum{label}") {
                    s.handle[verb as usize].0 = value;
                } else if name == format!("lll_server_request_latency_ns_count{label}") {
                    s.handle[verb as usize].1 = value;
                }
            }
            match name {
                "lll_wal_fsync_latency_ns_sum" => s.fsync_sum_ns = value,
                "lll_wal_fsync_latency_ns_count" => s.fsync_count = value,
                _ => {}
            }
        }
        Ok(s)
    }

    /// The counts accumulated since `before`.
    fn since(&self, before: &Self) -> Self {
        let mut d = Self {
            wal_appends: self.wal_appends - before.wal_appends,
            wal_fsyncs: self.wal_fsyncs - before.wal_fsyncs,
            fsync_sum_ns: self.fsync_sum_ns - before.fsync_sum_ns,
            fsync_count: self.fsync_count - before.fsync_count,
            ..Self::default()
        };
        for i in 0..d.handle.len() {
            d.handle[i] =
                (self.handle[i].0 - before.handle[i].0, self.handle[i].1 - before.handle[i].1);
        }
        d
    }
}

/// The end-to-end outcome of one workload run.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// The timed window; in a traced run its odd seconds carry spans.
    pub timed: Log,
    pub timed_s: f64,
    /// Everything outside the timed window: set-up, final scans, restores,
    /// and checks.
    pub other: Log,
    /// Keys per second of each load batch (the preload's, or the load's).
    pub load_rates: Vec<f64>,
    /// Keys per second of each full scan.
    pub scan_rates: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub disk_bytes: u64,
    /// Heap bytes per key freed by dropping a server and its map.
    pub heap_bytes: f64,
    pub live_keys: u64,
    /// The server's counters over the timed window of a traced run.
    pub server_traced: Option<ServerSide>,
    /// The server's counters over its whole life, read before shutdown.
    pub server_total: ServerSide,
    pub shards: u64,
    pub splits: u64,
    /// True for `load-scan`, whose timed run is a sequence of different
    /// phases rather than uniform traffic.
    pub load_phases: bool,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.timed.attempted + self.other.attempted
    }

    pub fn failed(&self) -> u64 {
        self.timed.failed + self.other.failed
    }

    pub fn errors(&self) -> Vec<String> {
        self.timed.errors.iter().chain(&self.other.errors).cloned().collect()
    }
}

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub data_dir: PathBuf,
}

fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect: {e}"))
}

/// Send `op` on `client`, check the reply against `gen`'s model, and log
/// it. Returns false once the connection is unusable.
fn send(client: &mut Client, gen: &ConnGen, op: Op, log: &mut Log, record: bool) -> bool {
    let r = match op {
        Op::Get { key, .. } => log.call(
            Verb::Get,
            record,
            || client.get(&key_bytes(key)),
            |v| check_point(&op, v.as_deref()),
        ),
        Op::Insert { key } => log.call(
            Verb::Insert,
            record,
            || client.insert(&key_bytes(key), &value_bytes(key)),
            |v| check_point(&op, v.as_deref()),
        ),
        Op::Remove { key } => log.call(
            Verb::Remove,
            record,
            || client.remove(&key_bytes(key)),
            |v| check_point(&op, v.as_deref()),
        ),
        Op::Range { start, limit } => log.call(
            Verb::Range,
            record,
            || client.range(Some(&key_bytes(start)), None, limit),
            |(entries, truncated)| {
                check_range(&gen.model, gen.conn, gen.conns, start, limit, &entries, truncated)
            },
        ),
    };
    !matches!(r, Err(WireError::Io(_) | WireError::Truncated))
}

/// Run the closed loop: one thread and connection per generator, each
/// sending its next operation when the previous reply has arrived and
/// been checked. Operations before the `timed` window are checked but not
/// timed; the loop stops at its end. Sample times count from `epoch`.
/// With `checkpoint_every`, connection 0 asks for a snapshot after every
/// that many of its operations.
fn drive(
    addr: std::net::SocketAddr,
    gens: &mut [ConnGen],
    seqs: &mut [u64],
    epoch: Instant,
    timed: std::ops::Range<Instant>,
    trace: bool,
    checkpoint_every: Option<u64>,
) -> Log {
    let (timed_from, until) = (timed.start, timed.end);
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .zip(seqs.iter_mut())
            .map(|(gen, seq)| {
                s.spawn(move || {
                    let mut log = Log::new(epoch);
                    if trace {
                        // Span storage grows without reallocating mid-run.
                        log.spans.reserve(SPANS_RESERVED);
                    }
                    let mut client = match connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            log.attempted += 1;
                            log.fail(e);
                            return log;
                        }
                    };
                    loop {
                        let now = Instant::now();
                        if now >= until {
                            break;
                        }
                        let timed = now >= timed_from;
                        let op = gen.next_op();
                        let spans_before = log.lat[op.verb() as usize].len();
                        let alive = send(&mut client, gen, op, &mut log, timed);
                        if timed {
                            log.timed_ops += 1;
                            let at = now.saturating_duration_since(epoch).as_nanos() as u64;
                            let recorded = log.lat[op.verb() as usize].len() > spans_before;
                            if trace && recorded && traced_slice(at) {
                                let dur_ns =
                                    log.lat[op.verb() as usize].0.last().map_or(0, |s| s.1);
                                log.spans.push(Span {
                                    idx: *seq * gen.conns + gen.conn,
                                    verb: op.verb(),
                                    start_ns: at,
                                    dur_ns,
                                });
                            }
                        }
                        *seq += 1;
                        if !alive {
                            break;
                        }
                        if gen.conn == 0 && checkpoint_every.is_some_and(|k| *seq % k == 0) {
                            let _ = log.call(Verb::Snapshot, timed, || client.snapshot(""), Ok);
                        }
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect()
    });
    let mut all = Log::default();
    for l in logs {
        all.absorb(l);
    }
    all
}

/// Spans each connection reserves room for in a traced run.
const SPANS_RESERVED: usize = 1 << 18;

/// In a traced run, spans are recorded in the odd seconds of the timed
/// window only, so the even seconds measure the same traffic untraced and
/// the difference between the two is the tracing overhead.
pub fn traced_slice(at_ns: u64) -> bool {
    (at_ns / 1_000_000_000) % 2 == 1
}

/// The timed window shared by the mixed workloads, cut into `slices`
/// equal slices of traffic, each after a warm-up. `pause` runs before
/// the first slice, between slices and after the last, while the
/// connections are idle. Sample times are on one timeline that leaves
/// the pauses and warm-ups out, so the slices read as one window of
/// `cfg.seconds`. In a traced run the server's own counters are read
/// around it.
#[allow(clippy::too_many_arguments)]
fn timed_phases(
    cfg: &RunCfg,
    addr: std::net::SocketAddr,
    gens: &mut [ConnGen],
    checkpoint_every: Option<u64>,
    out: &mut Outcome,
    probe: &mut Client,
    slices: u32,
    pause: &mut dyn FnMut(&mut Outcome) -> Result<(), String>,
) -> Result<(), String> {
    let mut seqs = vec![0u64; gens.len()];
    let slice = Duration::from_secs_f64(cfg.seconds) / slices;
    let before = ServerSide::fetch(probe).map_err(|e| e.to_string())?;
    let mut timed = Log::default();
    for i in 0..slices {
        pause(out)?;
        let timed_from = Instant::now() + Duration::from_secs_f64(cfg.sizes.warmup_s);
        let epoch = timed_from - slice * i;
        let window = timed_from..timed_from + slice;
        let log = drive(addr, gens, &mut seqs, epoch, window, cfg.trace, checkpoint_every);
        timed.absorb(log);
    }
    pause(out)?;
    out.timed = timed;
    out.timed_s = cfg.seconds;
    if cfg.trace {
        let after = ServerSide::fetch(probe).map_err(|e| e.to_string())?;
        out.server_traced = Some(after.since(&before));
    }
    Ok(())
}

/// Page through the whole map with `range(limit = range_limit_cap)`,
/// checking every page against `model` (the exact key set). Returns the
/// keys scanned and the seconds spent in the calls.
fn full_scan(client: &mut Client, model: &BTreeSet<u64>, log: &mut Log) -> (u64, f64) {
    let cap = ServerConfig::default().range_limit_cap;
    let (mut scanned, mut secs, mut from) = (0u64, 0.0, 0u64);
    loop {
        let mut page = (Vec::new(), false);
        // Only the call is timed; checking the page is the benchmark's work.
        let (mut t, mut dt) = (Instant::now(), Duration::ZERO);
        let r = log.call(
            Verb::Range,
            false,
            || {
                t = Instant::now();
                let reply = client.range(Some(&key_bytes(from)), None, cap);
                dt = t.elapsed();
                reply
            },
            |r| {
                let ok = check_range(model, 0, 1, from, cap, &r.0, r.1);
                page = r;
                ok
            },
        );
        secs += dt.as_secs_f64();
        if r.is_ok() {
            let at = log.since_epoch(t);
            log.pages.push(at, dt.as_nanos() as u64);
        }
        scanned += page.0.len() as u64;
        match page.0.last().and_then(|(k, _)| gen::decode_key(k)) {
            Some(last) if r.is_ok() && page.1 && last < u64::MAX => from = last + 1,
            _ => return (scanned, secs),
        }
    }
}

/// The union of the connections' models: the exact contents of the map.
fn union(gens: &[ConnGen]) -> BTreeSet<u64> {
    gens.iter().flat_map(|g| g.model.iter().copied()).collect()
}

fn models_len(gens: &[ConnGen]) -> u64 {
    gens.iter().map(|g| g.model.len() as u64).sum()
}

/// Snapshot the in-memory server to a file (the `snapshot` verb), then
/// time restoring it `reps` times, as a restarted in-memory server would.
/// Returns the snapshot's size in bytes.
fn snapshot_and_restore(
    cfg: &RunCfg,
    client: &mut Client,
    live: u64,
    reps: usize,
    out: &mut Outcome,
) -> Result<u64, String> {
    let path = cfg.data_dir.join("server.snap");
    let path_str = path.to_str().ok_or("data directory is not UTF-8")?.to_string();
    let _ = out.other.call(Verb::Snapshot, true, || client.snapshot(&path_str), Ok);
    let bytes = std::fs::metadata(&path).map_err(|e| format!("snapshot file: {e}"))?.len();
    for _ in 0..reps {
        let secs = restore(&path, live, out)?;
        out.recovery_s.push(secs);
    }
    Ok(bytes)
}

/// Restore the snapshot at `path`, which holds `live` keys, and check its
/// size; returns the seconds the restore took.
fn restore(path: &Path, live: u64, out: &mut Outcome) -> Result<f64, String> {
    let t = Instant::now();
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let map = KvMap::read_snapshot(&mut std::io::BufReader::new(file))
        .map_err(|e| format!("restore: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    out.other.attempted += 1;
    if map.len() as u64 != live {
        out.other.fail(format!("restored {} keys, expected {live}", map.len()));
    }
    Ok(secs)
}

/// Read the server's own counters, check that it holds `live` keys, and
/// record its shard statistics; the server keeps running.
fn inspect(handle: &ServerHandle, live: u64, out: &mut Outcome) -> Result<(), String> {
    let mut probe = connect(handle.local_addr())?;
    out.server_total = ServerSide::fetch(&mut probe).map_err(|e| e.to_string())?;
    out.other.attempted += 1;
    if handle.map().len() as u64 != live {
        out.other.fail(format!("server holds {} keys, models hold {live}", handle.map().len()));
    }
    let stats = handle.map().stats();
    out.shards = stats.shards as u64;
    out.splits = stats.splits;
    Ok(())
}

/// Shut the server down; returns the heap bytes per key that dropping it
/// (and its map) frees.
fn drop_server(mut handle: ServerHandle, live: u64) -> f64 {
    handle.shutdown();
    freed_by_drop(handle) as f64 / live.max(1) as f64
}

fn start_memory() -> Result<ServerHandle, String> {
    Server::start(Arc::new(ShardedBuilder::new().build()), ServerConfig::default())
        .map_err(|e| format!("start: {e}"))
}

/// Land `keys` through `batch_insert` frames of `batch` keys. Returns
/// the seconds spent in the calls; each frame's keys per second are
/// appended to `rates`.
fn preload(
    client: &mut Client,
    keys: &[u64],
    batch: usize,
    log: &mut Log,
    record: bool,
    rates: &mut Vec<f64>,
) -> f64 {
    let mut secs = 0.0;
    for chunk in keys.chunks(batch) {
        let entries = gen::entries(chunk);
        let t = Instant::now();
        let _ = log.call(
            Verb::BatchInsert,
            record,
            || client.batch_insert(entries),
            |landed| {
                (landed == chunk.len() as u64)
                    .then_some(())
                    .ok_or(format!("batch landed {landed} of {}", chunk.len()))
            },
        );
        let dt = t.elapsed().as_secs_f64();
        rates.push(chunk.len() as f64 / dt);
        secs += dt;
    }
    secs
}

/// `SCANS_AFTER` full scans checked against `model`; their rates.
fn scan_rates(client: &mut Client, model: &BTreeSet<u64>, log: &mut Log) -> Vec<f64> {
    (0..SCANS_AFTER)
        .map(|_| {
            let (n, secs) = full_scan(client, model, log);
            n as f64 / secs
        })
        .collect()
}

/// Full scans after a mixed workload.
const SCANS_AFTER: usize = 5;

/// `oltp-uniform`: a sorted bulk preload of uniform keys, then the OLTP
/// mix from `CONNS` connections, then full scans checked against the
/// models. Memory, snapshot size and restore time are measured on the
/// preloaded server, whose size the seed fixes.
pub fn oltp_uniform(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let keys = gen::uniform_keys(cfg.seed, 1, cfg.sizes.oltp_keys);
    let n = keys.len() as u64;
    let (mut handle, mut load_rates, mut heap) = (None, Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let t = Instant::now();
        let h = start_memory()?;
        let mut client = connect(h.local_addr())?;
        let secs = t.elapsed().as_secs_f64();
        let load_s = preload(
            &mut client,
            &keys,
            cfg.sizes.preload_batch,
            &mut out.other,
            last,
            &mut load_rates,
        );
        out.setup_s.push(secs + load_s);
        out.disk_bytes = snapshot_and_restore(cfg, &mut client, n, 0, &mut out)?;
        if last {
            handle = Some(h);
        } else {
            drop(client);
            heap.push(drop_server(h, n));
        }
    }
    out.load_rates = load_rates;
    out.heap_bytes = median(&heap);
    out.live_keys = n;
    let handle = handle.expect("at least one set-up");
    let mut gens: Vec<ConnGen> = (0..CONNS)
        .map(|c| ConnGen::new(cfg.seed, c, CONNS, Mix::Oltp, gen::stripe(&keys, c, CONNS)))
        .collect();
    drop(keys);
    // Restores of the preloaded snapshot run in the pauses of the timed
    // window, so that their median spans the run as the traffic's does:
    // this machine's speed drifts over seconds, and restores timed back
    // to back measure one moment of it. The first one is untimed, to warm
    // the allocator and the page cache.
    let snap = cfg.data_dir.join("server.snap");
    restore(&snap, n, &mut out)?;
    let mut pause = |out: &mut Outcome| {
        for _ in 0..RESTORES_PER_PAUSE {
            let secs = restore(&snap, n, out)?;
            out.recovery_s.push(secs);
        }
        Ok(())
    };
    let mut probe = connect(handle.local_addr())?;
    let addr = handle.local_addr();
    timed_phases(cfg, addr, &mut gens, None, &mut out, &mut probe, OLTP_SLICES, &mut pause)?;
    out.scan_rates = scan_rates(&mut probe, &union(&gens), &mut out.other);
    drop(probe);
    inspect(&handle, models_len(&gens), &mut out)?;
    drop_server(handle, 1);
    std::fs::remove_file(&snap).map_err(|e| e.to_string())?;
    Ok(out)
}

/// The append clock's history before the run: the first
/// `append_preload` inserts of both connections (ascending), then
/// `append_tail` more that set-up inserts one by one.
pub fn append_gens(cfg: &RunCfg) -> (Vec<ConnGen>, Vec<u64>, Vec<u64>) {
    let mut gens: Vec<ConnGen> = (0..CONNS)
        .map(|c| ConnGen::new(cfg.seed, c, CONNS, Mix::Append, BTreeSet::new()))
        .collect();
    let n = cfg.sizes.append_preload + cfg.sizes.append_tail;
    let mut keys = Vec::with_capacity(n);
    for i in 0..n {
        let g = &mut gens[i % CONNS as usize];
        let k = g.next_append_key();
        g.model.insert(k);
        keys.push(k);
    }
    let tail = keys.split_off(cfg.sizes.append_preload);
    keys.sort_unstable();
    (gens, keys, tail)
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        total += entry.map_err(|e| e.to_string())?.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok(total)
}

fn open_durable(dir: &Path) -> Result<DurableKvMap, String> {
    DurableKvMap::open(dir, DurableOptions::default(), &ShardedBuilder::new())
        .map(|(map, _)| map)
        .map_err(|e| format!("reopen: {e}"))
}

/// `append-durable`: the durable server on the local disk (write-ahead
/// log, `FsyncPolicy::Always`), ascending appends from both connections
/// with periodic checkpoints, then shutdown, reopen, and a check that
/// every acknowledged key survived. Set-up is a bulk preload, a
/// checkpoint, and a tail of single inserts; memory, disk bytes and
/// reopen time are measured on that state, whose size the seed fixes.
pub fn append_durable(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut gens, keys, tail) = append_gens(cfg);
    let live = (keys.len() + tail.len()) as u64;
    let (mut handle, mut load_rates, mut heap) = (None, Vec::new(), Vec::new());
    let mut dir = PathBuf::new();
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        dir = cfg.data_dir.join(format!("wal-{rep}"));
        let t = Instant::now();
        let (h, _) = Server::start_durable(
            &dir,
            DurableOptions::default(),
            &ShardedBuilder::new(),
            ServerConfig::default(),
        )
        .map_err(|e| format!("start_durable: {e}"))?;
        let mut client = connect(h.local_addr())?;
        let secs = t.elapsed().as_secs_f64();
        let load_s = preload(
            &mut client,
            &keys,
            cfg.sizes.preload_batch,
            &mut out.other,
            last,
            &mut load_rates,
        );
        let t = Instant::now();
        let _ = out.other.call(Verb::Snapshot, last, || client.snapshot(""), Ok);
        for &key in &tail {
            let op = Op::Insert { key };
            let _ = out.other.call(
                Verb::Insert,
                false,
                || client.insert(&key_bytes(key), &value_bytes(key)),
                |v| check_point(&op, v.as_deref()),
            );
        }
        out.setup_s.push(secs + load_s + t.elapsed().as_secs_f64());
        if last {
            handle = Some(h);
            continue;
        }
        drop(client);
        heap.push(drop_server(h, live));
        out.disk_bytes = dir_bytes(&dir)?;
        for _ in 0..RECOVERY_REPS {
            let t = Instant::now();
            let map = open_durable(&dir)?;
            out.recovery_s.push(t.elapsed().as_secs_f64());
            out.other.attempted += 1;
            if map.map().len() as u64 != live {
                out.other.fail(format!("reopened {} keys, expected {live}", map.map().len()));
            }
        }
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    out.load_rates = load_rates;
    out.heap_bytes = median(&heap);
    out.live_keys = live;
    let handle = handle.expect("at least one set-up");
    let addr = handle.local_addr();
    let mut probe = connect(addr)?;
    let every = Some(cfg.sizes.checkpoint_every);
    timed_phases(cfg, addr, &mut gens, every, &mut out, &mut probe, 1, &mut |_| Ok(()))?;
    out.scan_rates = scan_rates(&mut probe, &union(&gens), &mut out.other);
    drop(probe);
    inspect(&handle, models_len(&gens), &mut out)?;
    drop_server(handle, 1);

    // Durability: every acknowledged key is readable after a reopen.
    let map = open_durable(&dir)?;
    for g in &gens {
        for &k in &g.model {
            out.other.attempted += 1;
            if map.map().get(&key_bytes(k)).as_deref() != Some(&value_bytes(k)[..]) {
                out.other.fail(format!("acked key {k} missing after recovery"));
            }
        }
    }
    out.other.attempted += 1;
    let expected = models_len(&gens);
    if map.map().len() as u64 != expected {
        out.other.fail(format!("recovered {} keys, expected {expected}", map.map().len()));
    }
    drop(map);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(out)
}

/// Keys in arrival order for `load-scan`: distinct uniform keys, unsorted.
pub fn arrival_keys(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = gen::Rng::derive(seed, 3);
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let k = rng.next_u64();
        if seen.insert(k) {
            keys.push(k);
        }
    }
    keys
}

/// Set-ups of `load-scan` before its first cycle: starting an empty
/// server is quick, so it is repeated more often than the other
/// workloads' set-ups. Each cycle's fresh server is one more sample, so
/// the median spans the run.
const LOAD_SCAN_SETUP_REPS: usize = 21;

/// Full scans per `load-scan` cycle; each is followed by
/// `RANGES_PER_SCAN` short ranges at random starts.
const SCANS_PER_CYCLE: usize = 2;
const RANGES_PER_SCAN: usize = 256;

/// Start an empty in-memory server, connect, and check that it is empty:
/// one `load-scan` set-up sample.
fn fresh_server(out: &mut Outcome) -> Result<(ServerHandle, Client), String> {
    let t = Instant::now();
    let h = start_memory()?;
    let mut client = connect(h.local_addr())?;
    let _ = out.other.call(
        Verb::Range,
        false,
        || client.range(None, None, 1),
        |(e, _)| e.is_empty().then_some(()).ok_or("fresh server is not empty".to_string()),
    );
    out.setup_s.push(t.elapsed().as_secs_f64());
    Ok((h, client))
}

/// `load-scan`: one connection repeats ingest-then-analyse cycles until
/// time is up. A cycle loads uniform keys as unsorted batches into a fresh
/// server, runs a burst of checked point operations, pages through full
/// scans (each followed by `range(limit 1000)` at random starts), and
/// snapshots the server and times the restore. Every cycle sees the same
/// inputs, so a burst of noise on the machine moves one cycle's samples,
/// not the run's medians.
pub fn load_scan(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let keys = arrival_keys(cfg.seed, cfg.sizes.load_keys);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    for _ in 1..LOAD_SCAN_SETUP_REPS {
        let (h, client) = fresh_server(&mut out)?;
        drop(client);
        drop_server(h, 1);
    }
    let (mut handle, mut client) = fresh_server(&mut out)?;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(cfg.seconds);
    let mut log = Log::new(start);
    let (mut load_rates, mut scan_rates) = (Vec::new(), Vec::new());
    let mut rng = gen::Rng::derive(cfg.seed, 4);
    loop {
        // Load: unsorted batches, as real ingest arrives.
        preload(&mut client, &keys, cfg.sizes.load_batch, &mut log, true, &mut load_rates);

        // Point operations over the loaded keys.
        let mut gen = ConnGen::new(cfg.seed, 0, 1, Mix::Points, sorted.iter().copied().collect());
        for seq in 0..cfg.sizes.load_points as u64 {
            let op = gen.next_op();
            let t = Instant::now();
            send(&mut client, &gen, op, &mut log, true);
            let at = t.duration_since(start).as_nanos() as u64;
            if cfg.trace && traced_slice(at) {
                let dur_ns = t.elapsed().as_nanos() as u64;
                log.spans.push(Span { idx: seq, verb: op.verb(), start_ns: at, dur_ns });
            }
        }

        // Scans: full paged sweeps checked against the model, and short
        // ranges at random starts.
        for _ in 0..SCANS_PER_CYCLE {
            let (n, secs) = full_scan(&mut client, &gen.model, &mut log);
            scan_rates.push(n as f64 / secs);
            for _ in 0..RANGES_PER_SCAN {
                let op = Op::Range { start: rng.next_u64(), limit: 1000 };
                send(&mut client, &gen, op, &mut log, true);
            }
        }

        let live = gen.model.len() as u64;
        out.disk_bytes = snapshot_and_restore(cfg, &mut client, live, 1, &mut out)?;
        out.live_keys = live;
        drop(client);
        if Instant::now() >= until {
            break;
        }
        drop_server(handle, 1);
        (handle, client) = fresh_server(&mut out)?;
    }
    out.load_rates = load_rates;
    out.scan_rates = scan_rates;
    out.timed_s = start.elapsed().as_secs_f64();
    log.timed_ops = log.attempted;
    out.timed = log;
    out.load_phases = true;
    inspect(&handle, out.live_keys, &mut out)?;
    out.heap_bytes = drop_server(handle, out.live_keys);
    Ok(out)
}
