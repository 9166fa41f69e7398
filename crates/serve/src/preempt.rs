//! Preemption and eviction: reclaiming KV-pool bytes from running requests.
//!
//! PR 1's pool was append-only — a reservation lived until its request
//! completed, so one long-context request could wedge the pool exactly
//! where BGPP's memory savings should shine. This module makes the pool a
//! reclaimable resource: under admission pressure the simulator may evict
//! *victims* (strictly lower-[`Priority`](crate::Priority) in-flight
//! requests) to admit a blocked higher-priority request, under one of two
//! policies.
//!
//! # Drop-and-recompute vs swap
//!
//! **Drop-and-recompute** ([`EvictionPolicy::DropRecompute`]) releases the
//! victim's reservation and discards its resident KV outright. Eviction
//! itself is free; the bill arrives at resume time, when the prefill
//! *replays* over the victim's prompt plus every token it had already
//! generated (the tokens themselves were emitted and are kept — only their
//! KV entries must be recomputed). Replay cost is the cycle model's prefill
//! cost at the resume context `c`: a weight-stream constant plus an
//! O(c)·compute term plus an O(c²) attention term, so it grows
//! *superlinearly* in context.
//!
//! **Swap** ([`EvictionPolicy::Swap`]) copies the victim's resident KV
//! bytes out to host memory over the host link at eviction and back at
//! resume, charging `2 × resident_bytes / host_link_bytes_per_cycle`
//! core cycles of device stall in total. Swapped bytes are held in a
//! [`CustodyLedger`] (host memory is modeled as unbounded) and the cost is
//! *linear* in context.
//!
//! The two curves cross: **drop-and-recompute wins at short contexts**
//! (little KV to rebuild, and the replay often rides a cheap prefill)
//! while **swap wins at long contexts** (moving `O(c)` bytes beats
//! recomputing `O(c²)` attention). On OPT-1.3B at the default edge-class
//! link the crossover sits at a few thousand tokens of context — the
//! `repro serving_slo` experiment sweeps both sides of it.
//!
//! # SLO-aware goodput
//!
//! Preemption only pays off if it protects latency objectives, so requests
//! carry per-request SLOs ([`SloSpec`](crate::SloSpec)): an optional TTFT
//! deadline and an optional TPOT deadline, both in seconds. A completed
//! request *meets its SLO* iff every deadline it declares is satisfied by
//! its measured latencies. **SLO-aware goodput** counts only the decoded
//! tokens of SLO-met completed requests per second of simulated time
//! ([`ServeReport::slo_goodput_tokens_per_s`](crate::ServeReport) and the
//! per-class [`ServeReport::slo_goodput_for`](crate::ServeReport::slo_goodput_for)):
//! a token delivered after its deadline contributes throughput but not
//! goodput, which is what makes FCFS's head-of-line blocking visible even
//! when it eventually completes every request.

use std::collections::BTreeMap;

use mcbp_mem::HbmConfig;

use crate::request::RequestId;

/// How the simulator reclaims KV-pool bytes under admission pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Never preempt: a blocked request waits for completions to free
    /// bytes (the PR 1 behavior).
    #[default]
    None,
    /// Release the victim's KV and re-enqueue it; on resume the prefill
    /// replays over prompt + already-generated tokens. Cheap eviction,
    /// superlinear (in context) resume cost.
    DropRecompute,
    /// Copy the victim's resident KV to host memory and restore it on
    /// resume, charging host-link transfer cycles both ways. Linear (in
    /// context) cost, no recomputation.
    Swap,
}

/// Configuration of the preemption subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct PreemptConfig {
    /// Eviction policy applied when a higher-priority request cannot
    /// reserve pool bytes.
    pub policy: EvictionPolicy,
    /// Host-link bandwidth charged to swap transfers, in bytes per core
    /// cycle. The default is [`PreemptConfig::host_link_for`] over the
    /// paper's HBM spec: the device's 512-bit/cycle HBM stream divided by
    /// [`HOST_LINK_RATIO`] — an edge-class shared DMA link (the SLIM-style
    /// edge-serving regime), deliberately far below HBM bandwidth so the
    /// swap-vs-recompute tradeoff is visible. Datacenter-class links can
    /// be modeled by raising this figure.
    pub host_link_bytes_per_cycle: f64,
}

/// Ratio between HBM device bandwidth and the modeled host link:
/// 512 bits = 64 B per core cycle of HBM against 0.5 B per core cycle
/// (≈ 0.5 GB/s at the 1 GHz core clock) across the host link.
pub const HOST_LINK_RATIO: f64 = 128.0;

impl Default for PreemptConfig {
    fn default() -> Self {
        PreemptConfig {
            policy: EvictionPolicy::None,
            host_link_bytes_per_cycle: Self::host_link_for(&HbmConfig::default()),
        }
    }
}

impl PreemptConfig {
    /// Host-link bytes per core cycle derived from an HBM spec's aggregate
    /// bandwidth divided by [`HOST_LINK_RATIO`].
    #[must_use]
    pub fn host_link_for(hbm: &HbmConfig) -> f64 {
        hbm.bits_per_core_cycle as f64 / 8.0 / HOST_LINK_RATIO
    }

    /// A drop-and-recompute configuration at the default host link.
    #[must_use]
    pub fn drop_recompute() -> Self {
        PreemptConfig {
            policy: EvictionPolicy::DropRecompute,
            ..PreemptConfig::default()
        }
    }

    /// A swap configuration at the default host link.
    #[must_use]
    pub fn swap() -> Self {
        PreemptConfig {
            policy: EvictionPolicy::Swap,
            ..PreemptConfig::default()
        }
    }

    /// Core cycles one `bytes`-sized transfer occupies the host link
    /// (charged once per direction).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive link bandwidth.
    #[must_use]
    pub fn transfer_cycles(&self, bytes: u64) -> f64 {
        assert!(
            self.host_link_bytes_per_cycle > 0.0,
            "host link bandwidth must be positive"
        );
        bytes as f64 / self.host_link_bytes_per_cycle
    }
}

/// Custody ledger of KV bytes that have left a device pool and not yet
/// come back: swapped-out victims' bytes in host memory, and handoff
/// bytes riding the host link toward a decode device.
///
/// Host capacity and the link are modeled as unbounded; the ledger exists
/// so the bytes are conserved (`check_in` returns exactly what
/// `check_out` recorded) and so peak custody is reportable. The
/// double-out and in-without-out panics make a double-free an immediate
/// accounting failure instead of silent byte loss: a request in custody
/// is in neither device's active or suspended set, so victim selection
/// can never touch it, and the panics are the backstop should that
/// invariant ever break.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CustodyLedger {
    held: BTreeMap<RequestId, u64>,
    held_bytes: u64,
    peak_held_bytes: u64,
    total_out_bytes: u64,
    total_in_bytes: u64,
    check_ins: u64,
}

impl CustodyLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        CustodyLedger::default()
    }

    /// Records `bytes` leaving the pool for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already in custody (a request cannot leave the
    /// pool twice without coming back in between).
    pub fn check_out(&mut self, id: RequestId, bytes: u64) {
        assert!(
            self.held.insert(id, bytes).is_none(),
            "request {id} checked out twice"
        );
        self.held_bytes += bytes;
        self.peak_held_bytes = self.peak_held_bytes.max(self.held_bytes);
        self.total_out_bytes += bytes;
    }

    /// Removes and returns the bytes held for `id` (they are back in a
    /// pool).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in custody.
    pub fn check_in(&mut self, id: RequestId) -> u64 {
        let bytes = self.held.remove(&id).expect("check-in without check-out");
        self.held_bytes -= bytes;
        self.total_in_bytes += bytes;
        self.check_ins += 1;
        bytes
    }

    /// The bytes held for `id`, if it is in custody.
    pub(crate) fn held_for(&self, id: RequestId) -> Option<u64> {
        self.held.get(&id).copied()
    }

    /// Bytes currently in custody.
    #[must_use]
    pub fn held_bytes(&self) -> u64 {
        self.held_bytes
    }

    /// Highest custody observed.
    #[must_use]
    pub fn peak_held_bytes(&self) -> u64 {
        self.peak_held_bytes
    }

    /// Total bytes ever checked out.
    #[must_use]
    pub fn total_out_bytes(&self) -> u64 {
        self.total_out_bytes
    }

    /// Total bytes ever checked back in.
    #[must_use]
    pub fn total_in_bytes(&self) -> u64 {
        self.total_in_bytes
    }

    /// Completed `check_in` calls.
    #[must_use]
    pub fn check_ins(&self) -> u64 {
        self.check_ins
    }

    /// Whether nothing is in custody.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_host_link_tracks_hbm_spec() {
        let cfg = PreemptConfig::default();
        // 512 bits/cycle = 64 B/cycle over a 128:1 link ratio.
        assert!((cfg.host_link_bytes_per_cycle - 0.5).abs() < 1e-12);
        assert!((cfg.transfer_cycles(1000) - 2000.0).abs() < 1e-9);
        assert_eq!(cfg.policy, EvictionPolicy::None);
    }

    #[test]
    fn ledger_conserves_swapped_bytes() {
        let mut ledger = CustodyLedger::new();
        ledger.check_out(3, 500);
        ledger.check_out(7, 200);
        assert_eq!(ledger.held_bytes(), 700);
        assert_eq!(ledger.peak_held_bytes(), 700);
        assert_eq!(ledger.check_in(3), 500);
        ledger.check_out(3, 100);
        assert_eq!(ledger.check_in(3), 100);
        assert_eq!(ledger.check_in(7), 200);
        assert!(ledger.is_empty());
        assert_eq!(ledger.total_out_bytes(), 800);
        assert_eq!(ledger.total_in_bytes(), 800);
        assert_eq!(ledger.peak_held_bytes(), 700);
        assert_eq!(ledger.check_ins(), 3);
    }

    #[test]
    #[should_panic(expected = "checked out twice")]
    fn double_swap_out_is_an_accounting_bug() {
        let mut ledger = CustodyLedger::new();
        ledger.check_out(1, 10);
        ledger.check_out(1, 20);
    }

    #[test]
    fn handoff_ledger_conserves_bytes_in_flight() {
        // Prefill→decode handoffs: bytes leave the prefill pool and land in
        // a decode pool; custody peaks while two handoffs overlap.
        let mut ledger = CustodyLedger::new();
        ledger.check_out(3, 500);
        assert_eq!(ledger.peak_held_bytes(), 500);
        ledger.check_out(7, 200);
        assert_eq!(ledger.held_bytes(), 700);
        assert_eq!(ledger.check_in(7), 200);
        assert_eq!(ledger.held_bytes(), 500);
        ledger.check_out(9, 100);
        assert_eq!(ledger.check_in(3), 500);
        assert_eq!(ledger.check_in(9), 100);
        assert!(ledger.is_empty());
        assert_eq!(ledger.held_bytes(), 0);
        assert_eq!(ledger.total_out_bytes(), 800);
        assert_eq!(ledger.total_in_bytes(), 800);
        assert_eq!(ledger.peak_held_bytes(), 700);
        assert_eq!(ledger.check_ins(), 3);
    }

    #[test]
    #[should_panic(expected = "checked out twice")]
    fn double_handoff_out_is_a_double_free() {
        // A completed handoff may be followed by a new one for the same id,
        // but a second check-out while the first is still in flight may not.
        let mut ledger = CustodyLedger::new();
        ledger.check_out(1, 10);
        assert_eq!(ledger.check_in(1), 10);
        ledger.check_out(1, 20);
        ledger.check_out(1, 30);
    }

    #[test]
    #[should_panic(expected = "check-in without check-out")]
    fn handoff_in_without_out_is_an_accounting_bug() {
        let mut ledger = CustodyLedger::new();
        ledger.check_in(9);
    }
}
