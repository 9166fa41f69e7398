//! Property-based tests for [`KvCachePool`] and [`CustodyLedger`]: the
//! accounting invariants the serving simulator leans on, under arbitrary
//! legal reserve/grow/release/evict sequences.
//!
//! Raw `(op, id, bytes)` tuples from the strategy are interpreted against
//! a shadow model of the pool so every issued call is legal (the pool
//! panics on illegal calls by design — those paths have their own
//! `#[should_panic]` unit tests). The shadow model lets each property
//! cross-check the pool's global counters against an independent sum of
//! per-request state.

use std::collections::BTreeMap;

use mcbp_serve::{CustodyLedger, KvCachePool, PrefixId};
use proptest::prelude::*;

/// Shadow of one request's ledger entry.
#[derive(Debug, Clone, Copy, Default)]
struct Shadow {
    reserved: u64,
    resident: u64,
}

/// Checks the pool's global counters against the shadow model and the
/// budget/ordering invariants.
fn check_invariants(
    pool: &KvCachePool,
    shadow: &BTreeMap<u64, Shadow>,
) -> Result<(), TestCaseError> {
    let reserved: u64 = shadow.values().map(|s| s.reserved).sum();
    let resident: u64 = shadow.values().map(|s| s.resident).sum();
    prop_assert_eq!(pool.reserved_bytes(), reserved);
    prop_assert_eq!(pool.resident_bytes(), resident);
    prop_assert!(pool.resident_bytes() <= pool.reserved_bytes());
    prop_assert!(pool.reserved_bytes() <= pool.budget_bytes());
    prop_assert_eq!(pool.in_flight(), shadow.len());
    for (id, s) in shadow {
        let entry = pool.reservation(*id).expect("shadowed request is live");
        prop_assert_eq!(entry.reserved_bytes, s.reserved);
        prop_assert_eq!(entry.resident_bytes, s.resident);
        prop_assert!(entry.resident_bytes <= entry.reserved_bytes);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under arbitrary reserve/grow/release/evict sequences the pool never
    /// violates `resident <= reserved <= budget`, its global counters
    /// always equal the sum of its per-request ledger, release amounts
    /// come from the ledger (never underflowing), and the pool returns to
    /// `is_idle()` once every request drains.
    #[test]
    fn pool_invariants_hold_under_arbitrary_sequences(
        budget in 1u64..100_000,
        ops in collection::vec((0u8..4, 0u64..16, 1u64..40_000), 1..120),
    ) {
        let mut pool = KvCachePool::with_budget(budget);
        let mut ledger = CustodyLedger::new();
        let mut shadow: BTreeMap<u64, Shadow> = BTreeMap::new();
        let mut next_id = 16u64; // fresh ids for re-admissions after release
        for (op, id_hint, bytes) in ops {
            match op {
                // Reserve a fresh id (re-using a hinted id only if free).
                0 => {
                    let id = if shadow.contains_key(&id_hint) {
                        next_id += 1;
                        next_id
                    } else {
                        id_hint
                    };
                    let admitted = pool.try_reserve(id, bytes);
                    let fits = pool.reserved_bytes() <= budget;
                    prop_assert!(fits, "reserve may never overshoot the budget");
                    if admitted {
                        shadow.insert(id, Shadow { reserved: bytes, resident: 0 });
                    } else {
                        // A refusal must be honest: the bytes really did
                        // not fit on top of what the shadow holds.
                        let held: u64 = shadow.values().map(|s| s.reserved).sum();
                        prop_assert!(held + bytes > budget);
                    }
                }
                // Grow a live request within its own headroom.
                1 => {
                    let picked = shadow
                        .keys()
                        .nth(id_hint as usize % shadow.len().max(1))
                        .copied();
                    if let Some(id) = picked {
                        let s = shadow.get_mut(&id).expect("picked live id");
                        let headroom = s.reserved - s.resident;
                        let grow = bytes.min(headroom);
                        if grow > 0 {
                            pool.grow_resident(id, grow);
                            s.resident += grow;
                        }
                    }
                }
                // Release (completion): freed amounts must match the shadow.
                2 => {
                    let picked = shadow
                        .keys()
                        .nth(id_hint as usize % shadow.len().max(1))
                        .copied();
                    if let Some(id) = picked {
                        let s = shadow.remove(&id).expect("picked live id");
                        let freed = pool.release(id);
                        prop_assert_eq!(freed.reserved_bytes, s.reserved);
                        prop_assert_eq!(freed.resident_bytes, s.resident);
                    }
                }
                // Evict (swap flavor): release and park the resident bytes
                // in the swap ledger; swapped bytes are conserved.
                _ => {
                    let picked = shadow
                        .keys()
                        .nth(id_hint as usize % shadow.len().max(1))
                        .copied();
                    if let Some(id) = picked {
                        let s = shadow.remove(&id).expect("picked live id");
                        let freed = pool.release(id);
                        prop_assert_eq!(freed.resident_bytes, s.resident);
                        if freed.resident_bytes > 0 {
                            ledger.check_out(id, freed.resident_bytes);
                            prop_assert_eq!(ledger.check_in(id), freed.resident_bytes);
                        }
                    }
                }
            }
            check_invariants(&pool, &shadow)?;
        }
        // Drain everything: the pool must come back to idle exactly.
        let live: Vec<u64> = shadow.keys().copied().collect();
        for id in live {
            let s = shadow.remove(&id).expect("live");
            let freed = pool.release(id);
            prop_assert_eq!(freed.reserved_bytes, s.reserved);
            prop_assert_eq!(freed.resident_bytes, s.resident);
        }
        prop_assert!(pool.is_idle());
        prop_assert_eq!(pool.reserved_bytes(), 0);
        prop_assert_eq!(pool.resident_bytes(), 0);
        prop_assert!(ledger.is_empty());
        prop_assert_eq!(ledger.total_out_bytes(), ledger.total_in_bytes());
    }

    /// The resident-prefix ledger under arbitrary legal
    /// promote/ref/unref/release/reclaim interleavings: refcounts and
    /// bytes are conserved (pool totals always equal request ledger +
    /// prefix ledger sums), pinned prefixes (refs > 0) are never
    /// reclaimed, and reclamation frees exactly the entry's bytes.
    #[test]
    fn prefix_ledger_conserves_bytes_and_pins_referenced_entries(
        budget in 10_000u64..200_000,
        ops in collection::vec((0u8..5, 0u64..6, 1u64..8_000), 1..120),
    ) {
        let mut pool = KvCachePool::with_budget(budget);
        // Shadows: requests -> (reserved, resident); prefixes -> (bytes, refs).
        let mut requests: BTreeMap<u64, Shadow> = BTreeMap::new();
        let mut prefixes: BTreeMap<PrefixId, (u64, usize)> = BTreeMap::new();
        let mut next_id = 64u64;
        for (op, hint, bytes) in ops {
            match op {
                // Admit a fresh request and materialize all its bytes.
                0 => {
                    next_id += 1;
                    if pool.try_reserve(next_id, bytes) {
                        pool.grow_resident(next_id, bytes);
                        requests.insert(next_id, Shadow { reserved: bytes, resident: bytes });
                    }
                }
                // Promote a prefix out of a fully-materialized request
                // (create or shed — the pool handles both).
                1 => {
                    let picked = requests
                        .iter()
                        .filter(|(_, s)| s.resident > 0)
                        .nth(hint as usize % requests.len().max(1))
                        .map(|(id, s)| (*id, *s));
                    if let Some((rid, s)) = picked {
                        let pid = hint % 3; // few ids, so shed paths trigger
                        let share = match prefixes.get(&pid) {
                            // An existing entry fixes the promotable shape.
                            Some(&(b, _)) if b <= s.resident => b,
                            Some(_) => continue,
                            None => (s.resident / 2).max(1),
                        };
                        pool.promote_prefix(rid, pid, 16, share);
                        let sh = requests.get_mut(&rid).expect("live");
                        sh.reserved -= share;
                        sh.resident -= share;
                        let entry = prefixes.entry(pid).or_insert((share, 0));
                        entry.1 += 1;
                    }
                }
                // Unref (and maybe re-ref) a prefix.
                2 => {
                    let picked = prefixes
                        .iter()
                        .filter(|(_, (_, refs))| *refs > 0)
                        .nth(hint as usize % prefixes.len().max(1))
                        .map(|(id, _)| *id);
                    if let Some(pid) = picked {
                        pool.unref_prefix(pid);
                        prefixes.get_mut(&pid).expect("present").1 -= 1;
                        if hint % 2 == 0 {
                            pool.ref_prefix(pid);
                            prefixes.get_mut(&pid).expect("present").1 += 1;
                        }
                    }
                }
                // Release a request (its prefix refs are the caller's job;
                // this model tracks them separately).
                3 => {
                    let picked = requests
                        .keys()
                        .nth(hint as usize % requests.len().max(1))
                        .copied();
                    if let Some(rid) = picked {
                        let s = requests.remove(&rid).expect("live");
                        let freed = pool.release(rid);
                        prop_assert_eq!(freed.reserved_bytes, s.reserved);
                        prop_assert_eq!(freed.resident_bytes, s.resident);
                    }
                }
                // Reclaim one unreferenced prefix; pinned entries survive.
                _ => {
                    let reclaimable: Vec<PrefixId> = prefixes
                        .iter()
                        .filter(|(_, (_, refs))| *refs == 0)
                        .map(|(id, _)| *id)
                        .collect();
                    match pool.reclaim_unreferenced_prefix(None) {
                        Some((pid, freed)) => {
                            // Reclamation picks the fewest-token entry,
                            // falling back to the lowest id; every entry
                            // here was promoted at 16 tokens, so the id
                            // tie-break decides.
                            prop_assert_eq!(Some(&pid), reclaimable.first());
                            let (bytes, refs) = prefixes.remove(&pid).expect("shadowed");
                            prop_assert_eq!(refs, 0, "pinned prefixes are never reclaimed");
                            prop_assert_eq!(freed, bytes);
                        }
                        None => prop_assert!(reclaimable.is_empty()),
                    }
                }
            }
            // Conservation: pool totals = request ledger + prefix ledger.
            let req_reserved: u64 = requests.values().map(|s| s.reserved).sum();
            let req_resident: u64 = requests.values().map(|s| s.resident).sum();
            let pre_bytes: u64 = prefixes.values().map(|(b, _)| b).sum();
            prop_assert_eq!(pool.reserved_bytes(), req_reserved + pre_bytes);
            prop_assert_eq!(pool.resident_bytes(), req_resident + pre_bytes);
            prop_assert!(pool.reserved_bytes() <= pool.budget_bytes());
            prop_assert_eq!(pool.prefix_bytes(), pre_bytes);
            for (pid, (bytes, refs)) in &prefixes {
                let e = pool.prefix(*pid).expect("shadowed prefix is resident");
                prop_assert_eq!(e.bytes, *bytes);
                prop_assert_eq!(e.refs, *refs);
            }
        }
        // Drain: release every request, unref every reference, reclaim
        // every entry — the pool must come back to exactly zero.
        for (rid, _) in std::mem::take(&mut requests) {
            pool.release(rid);
        }
        for (pid, (_, refs)) in &prefixes {
            for _ in 0..*refs {
                pool.unref_prefix(*pid);
            }
        }
        while pool.reclaim_unreferenced_prefix(None).is_some() {}
        prop_assert!(pool.is_idle());
        prop_assert_eq!(pool.reserved_bytes(), 0);
        prop_assert_eq!(pool.resident_bytes(), 0);
        prop_assert_eq!(pool.prefix_bytes(), 0);
    }

    /// Peak statistics are monotone high-water marks: they never decrease,
    /// and they bound every instantaneous level the run ever produced.
    #[test]
    fn pool_peaks_are_high_water_marks(
        budget in 1u64..50_000,
        ops in collection::vec((0u8..3, 1u64..20_000), 1..60),
    ) {
        let mut pool = KvCachePool::with_budget(budget);
        let mut live: Vec<u64> = Vec::new();
        let mut next = 0u64;
        let mut max_reserved_seen = 0u64;
        let mut max_resident_seen = 0u64;
        for (op, bytes) in ops {
            match op {
                0 => {
                    next += 1;
                    if pool.try_reserve(next, bytes) {
                        live.push(next);
                    }
                }
                1 => {
                    if let Some(&id) = live.first() {
                        let e = pool.reservation(id).expect("live");
                        let grow = bytes.min(e.reserved_bytes - e.resident_bytes);
                        if grow > 0 {
                            pool.grow_resident(id, grow);
                        }
                    }
                }
                _ => {
                    if let Some(id) = live.pop() {
                        pool.release(id);
                    }
                }
            }
            max_reserved_seen = max_reserved_seen.max(pool.reserved_bytes());
            max_resident_seen = max_resident_seen.max(pool.resident_bytes());
            prop_assert_eq!(pool.peak_reserved_bytes(), max_reserved_seen);
            prop_assert_eq!(pool.peak_resident_bytes(), max_resident_seen);
            prop_assert!(pool.peak_reserved_bytes() <= pool.budget_bytes());
        }
    }
}

/// Promotes one prefix out of a fresh fully-materialized request and
/// immediately drops the request and its reference, leaving the entry
/// warm (unreferenced) in the pool.
fn park_warm_prefix(pool: &mut KvCachePool, rid: u64, pid: PrefixId, tokens: usize, bytes: u64) {
    assert!(pool.try_reserve(rid, bytes + 1));
    pool.grow_resident(rid, bytes + 1);
    pool.promote_prefix(rid, pid, tokens, bytes);
    pool.release(rid);
    pool.unref_prefix(pid);
}

/// Regression for the reclamation order: eviction targets the resident
/// prefix with the cheapest expected re-prefill cost (fewest tokens),
/// not the lowest id. Lower ids deliberately hold *more* tokens here, so
/// the old id-ordered reclaim would evict the most expensive entry first.
#[test]
fn reclamation_prefers_cheapest_reprefill_prefix() {
    let mut pool = KvCachePool::with_budget(100_000);
    park_warm_prefix(&mut pool, 1, 1, 512, 2_000); // costliest to rebuild
    park_warm_prefix(&mut pool, 2, 2, 64, 500); // cheapest
    park_warm_prefix(&mut pool, 3, 3, 128, 800);
    // A pinned entry with even fewer tokens must still be skipped.
    assert!(pool.try_reserve(4, 101));
    pool.grow_resident(4, 101);
    pool.promote_prefix(4, 4, 8, 100);

    assert_eq!(
        pool.reclaim_unreferenced_prefix(None),
        Some((2, 500)),
        "64-token entry goes first despite its higher id"
    );
    assert_eq!(pool.reclaim_unreferenced_prefix(None), Some((3, 800)));
    // Sparing the cheapest remaining entry redirects to the next one.
    assert_eq!(pool.reclaim_unreferenced_prefix(Some(1)), None);
    assert_eq!(pool.reclaim_unreferenced_prefix(None), Some((1, 2_000)));
    assert_eq!(pool.prefix_bytes(), 100, "only the pinned entry survives");
}

/// Equal-cost entries fall back to the lowest id so reclamation stays
/// deterministic.
#[test]
fn equal_cost_prefixes_reclaim_lowest_id_first() {
    let mut pool = KvCachePool::with_budget(100_000);
    park_warm_prefix(&mut pool, 1, 9, 256, 900);
    park_warm_prefix(&mut pool, 2, 5, 256, 700);
    assert_eq!(pool.reclaim_unreferenced_prefix(None), Some((5, 700)));
    assert_eq!(pool.reclaim_unreferenced_prefix(None), Some((9, 900)));
}
