//! Exact answer checks against a connection's model of its own stripe.
//!
//! A `get`/`insert`/`remove` reply must equal what the model predicts. A
//! `range` reply must be ascending, inside its bounds, no longer than its
//! limit, carry the right value for every key (values are a function of
//! the key), and agree exactly with the model on the connection's own
//! stripe over the window the reply covers.

use crate::gen::{decode_key, value_bytes, Op};
use std::collections::BTreeSet;

pub type Entries = Vec<(Vec<u8>, Vec<u8>)>;

/// Check a point reply (`get`, `insert`, `remove`) for `op`.
pub fn check_point(op: &Op, reply: Option<&[u8]>) -> Result<(), String> {
    let (key, expect_present) = match *op {
        Op::Get { key, present } => (key, present),
        Op::Insert { key } => (key, false),
        Op::Remove { key } => (key, true),
        Op::Range { .. } => return Err("check_point called on a range".into()),
    };
    let expected = expect_present.then(|| value_bytes(key));
    if reply == expected.as_deref() {
        Ok(())
    } else {
        Err(format!("{op:?}: expected {expected:?}, got {reply:?}"))
    }
}

/// Check one `range(start, limit)` reply against `model`, the exact
/// contents of stripe `conn` of `conns`.
pub fn check_range(
    model: &BTreeSet<u64>,
    conn: u64,
    conns: u64,
    start: u64,
    limit: u64,
    entries: &[(Vec<u8>, Vec<u8>)],
    truncated: bool,
) -> Result<(), String> {
    if entries.len() as u64 > limit {
        return Err(format!("range({start}, {limit}) returned {} entries", entries.len()));
    }
    if truncated && (entries.len() as u64) < limit {
        return Err(format!("range({start}, {limit}) truncated after {}", entries.len()));
    }
    let mut prev: Option<u64> = None;
    let mut own = Vec::new();
    for (kb, vb) in entries {
        let k = decode_key(kb).ok_or_else(|| format!("range returned a {}-byte key", kb.len()))?;
        if k < start || prev.is_some_and(|p| k <= p) {
            return Err(format!("range({start}) key {k} out of order or below start"));
        }
        if *vb != value_bytes(k) {
            return Err(format!("range({start}) key {k} has a wrong value"));
        }
        if k % conns == conn {
            own.push(k);
        }
        prev = Some(k);
    }
    // The window the reply covers: up to its last key when truncated,
    // unbounded otherwise.
    let expected: Vec<u64> = match (truncated, prev) {
        (true, Some(last)) => model.range(start..=last).copied().collect(),
        _ => model.range(start..).copied().collect(),
    };
    if own != expected {
        return Err(format!(
            "range({start}, {limit}) own stripe: expected {} keys, got {}",
            expected.len(),
            own.len()
        ));
    }
    Ok(())
}

/// Feed the checker deliberately wrong replies and confirm each is caught
/// (and that the right replies pass). Returns the failures of the checker
/// itself; an empty list means it fires as it should.
pub fn self_test() -> Vec<String> {
    let model: BTreeSet<u64> = [2, 4, 6, 8].into_iter().collect();
    let e = |keys: &[u64]| -> Entries {
        keys.iter().map(|&k| (k.to_be_bytes().to_vec(), value_bytes(k))).collect()
    };
    let get4 = Op::Get { key: 4, present: true };
    let mut wrong_value = e(&[3, 4, 5]);
    wrong_value[1].1[0] ^= 1;
    let cases: Vec<(&str, bool, Result<(), String>)> = vec![
        ("right get", true, check_point(&get4, Some(&value_bytes(4)))),
        ("get with a wrong value", false, check_point(&get4, Some(&value_bytes(5)))),
        ("get of a present key answered absent", false, check_point(&get4, None)),
        (
            "insert of a new key answered as an update",
            false,
            check_point(&Op::Insert { key: 10 }, Some(&value_bytes(10))),
        ),
        ("remove answered absent", false, check_point(&Op::Remove { key: 2 }, None)),
        ("right range", true, check_range(&model, 0, 2, 3, 3, &e(&[3, 4, 5]), true)),
        ("right final page", true, check_range(&model, 0, 2, 5, 10, &e(&[5, 6, 7, 8]), false)),
        ("range missing an own key", false, check_range(&model, 0, 2, 3, 3, &e(&[3, 5, 7]), true)),
        ("range with a deleted key", false, check_range(&model, 0, 2, 9, 3, &e(&[10]), false)),
        ("range out of order", false, check_range(&model, 0, 2, 3, 3, &e(&[4, 3, 5]), true)),
        ("range below its start", false, check_range(&model, 0, 2, 3, 3, &e(&[2, 4, 5]), true)),
        ("range over its limit", false, check_range(&model, 0, 2, 3, 2, &e(&[3, 4, 5]), true)),
        ("range with a wrong value", false, check_range(&model, 0, 2, 3, 3, &wrong_value, true)),
        ("range cut short", false, check_range(&model, 0, 2, 3, 10, &e(&[3, 4, 5]), false)),
    ];
    cases
        .into_iter()
        .filter(|(_, should_pass, got)| got.is_ok() != *should_pass)
        .map(|(name, should_pass, got)| format!("{name}: expected pass={should_pass}, got {got:?}"))
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn checker_fires_on_wrong_replies() {
        assert_eq!(super::self_test(), Vec::<String>::new());
    }
}
