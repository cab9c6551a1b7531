//! Seeded inputs: keys, values, and each connection's operation stream.
//!
//! Every key is a `u64` sent as 8 big-endian bytes, so byte order on the
//! wire is numeric order. Connection `c` of `conns` owns the keys with
//! `key % conns == c` (its stripe) and keeps an exact model of that
//! stripe, which is what makes every reply checkable while another
//! connection writes beside it.

use std::collections::BTreeSet;

/// SplitMix64: a small, seedable generator (the benchmark's only source
/// of randomness, so a seed fixes every input).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent generator for stream `salt` of `seed`.
    pub fn derive(seed: u64, salt: u64) -> Self {
        Self(mix(seed ^ mix(salt.wrapping_add(1))) ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn key_bytes(k: u64) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

pub fn decode_key(b: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(b.try_into().ok()?))
}

/// The 16-byte value stored under `k`: a function of the key alone, so a
/// reply's value is checkable for any key, whichever connection wrote it.
pub fn value_bytes(k: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&mix(k).to_le_bytes());
    v.extend_from_slice(&mix(!k).to_le_bytes());
    v
}

/// One client operation. `Get` records whether the model holds the key,
/// so the expected reply travels with the operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get { key: u64, present: bool },
    Insert { key: u64 },
    Remove { key: u64 },
    Range { start: u64, limit: u64 },
}

impl Op {
    pub fn verb(&self) -> Verb {
        match self {
            Op::Get { .. } => Verb::Get,
            Op::Insert { .. } => Verb::Insert,
            Op::Remove { .. } => Verb::Remove,
            Op::Range { .. } => Verb::Range,
        }
    }
}

/// The verbs the benchmark times; the index is the slot in per-verb tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Get = 0,
    Insert = 1,
    Remove = 2,
    Range = 3,
    BatchInsert = 4,
    Snapshot = 5,
}

pub const VERBS: [Verb; 6] =
    [Verb::Get, Verb::Insert, Verb::Remove, Verb::Range, Verb::BatchInsert, Verb::Snapshot];

impl Verb {
    pub fn name(self) -> &'static str {
        match self {
            Verb::Get => "get",
            Verb::Insert => "insert",
            Verb::Remove => "remove",
            Verb::Range => "range",
            Verb::BatchInsert => "batch_insert",
            Verb::Snapshot => "snapshot",
        }
    }
}

/// The operation mix a connection draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 50% get (4 present : 1 absent), 30% insert of a new key, 10%
    /// remove of a present key, 10% `range(start, 100)`.
    Oltp,
    /// 80% insert at the tail of the connection's own timestamp clock,
    /// 10% range over the newest ~100 keys, 5% get of a recent key, 5%
    /// remove of the connection's oldest key (retention).
    Append,
    /// Point traffic between scans: 80% get (4 present : 1 absent), 10%
    /// insert of a new key, 10% remove of a present key.
    Points,
}

/// The mean step of the append clock, in clock ticks per insert.
const APPEND_STEP: u64 = 4;

/// One connection's generator and the exact model of its stripe.
pub struct ConnGen {
    pub conn: u64,
    pub conns: u64,
    pub model: BTreeSet<u64>,
    rng: Rng,
    mix: Mix,
    /// The append clock: the newest timestamp this connection has used.
    clock: u64,
}

impl ConnGen {
    pub fn new(seed: u64, conn: u64, conns: u64, mix: Mix, model: BTreeSet<u64>) -> Self {
        let rng = Rng::derive(seed, 0x0C0_0000 + conn);
        let clock = model.last().map_or(1 << 40, |&k| k / conns);
        Self { conn, conns, model, rng, mix, clock }
    }

    /// Map any `u64` into this connection's stripe.
    fn own(&self, r: u64) -> u64 {
        (r / self.conns).min(u64::MAX / self.conns - 1) * self.conns + self.conn
    }

    /// A present key, near-uniform over the stripe (for uniform keys).
    fn present(&mut self) -> Option<u64> {
        let r = self.rng.next_u64();
        self.model.range(r..).next().or_else(|| self.model.first()).copied()
    }

    fn absent(&mut self) -> u64 {
        loop {
            let r = self.rng.next_u64();
            let k = self.own(r);
            if !self.model.contains(&k) {
                return k;
            }
        }
    }

    /// The next insert of the append clock: ascending, at the tail.
    pub fn next_append_key(&mut self) -> u64 {
        self.clock += 1 + self.rng.below(2 * APPEND_STEP - 1);
        self.clock * self.conns + self.conn
    }

    /// Draw the next operation and apply it to the model.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        let op = match self.mix {
            Mix::Oltp | Mix::Points => {
                let (get, insert) = if self.mix == Mix::Oltp { (50, 80) } else { (80, 90) };
                if roll < get {
                    self.point_get()
                } else if roll < insert || self.model.is_empty() {
                    Op::Insert { key: self.absent() }
                } else if roll < 90 || self.mix == Mix::Points {
                    Op::Remove { key: self.present().expect("model is non-empty") }
                } else {
                    Op::Range { start: self.rng.next_u64(), limit: 100 }
                }
            }
            Mix::Append => {
                if roll < 80 || self.model.len() < 2 {
                    Op::Insert { key: self.next_append_key() }
                } else if roll < 90 {
                    let back = 100 / self.conns * APPEND_STEP;
                    Op::Range { start: self.clock.saturating_sub(back) * self.conns, limit: 100 }
                } else if roll < 95 {
                    let back = self.rng.below(1000 * APPEND_STEP);
                    let from = self.clock.saturating_sub(back) * self.conns;
                    let key = *self.model.range(from..).next().expect("clock is the newest key");
                    Op::Get { key, present: true }
                } else {
                    Op::Remove { key: *self.model.first().expect("model holds >= 2 keys") }
                }
            }
        };
        match op {
            Op::Insert { key } => {
                self.model.insert(key);
            }
            Op::Remove { key } => {
                self.model.remove(&key);
            }
            _ => {}
        }
        op
    }

    fn point_get(&mut self) -> Op {
        if self.rng.below(5) < 4 {
            if let Some(key) = self.present() {
                return Op::Get { key, present: true };
            }
        }
        Op::Get { key: self.absent(), present: false }
    }
}

/// `n` distinct uniform keys, ascending.
pub fn uniform_keys(seed: u64, salt: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::derive(seed, salt);
    let mut keys: Vec<u64> = Vec::with_capacity(n);
    while keys.len() < n {
        keys.extend((keys.len()..n).map(|_| rng.next_u64()));
        keys.sort_unstable();
        keys.dedup();
    }
    keys
}

/// The keys of `keys` that fall in connection `conn`'s stripe.
pub fn stripe(keys: &[u64], conn: u64, conns: u64) -> BTreeSet<u64> {
    keys.iter().copied().filter(|k| k % conns == conn).collect()
}

/// `(key, value)` wire entries for `keys`.
pub fn entries(keys: &[u64]) -> Vec<(Vec<u8>, Vec<u8>)> {
    keys.iter().map(|&k| (key_bytes(k), value_bytes(k))).collect()
}
