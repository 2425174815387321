//! Bounded single-writer multi-reader registers.
//!
//! The paper's Section 3 defines an *overflow* as the attempt to store a value
//! `v > M` in a register of a machine whose registers can hold at most `M`.
//! [`BoundedRegister`] makes that machine limit explicit: every store goes
//! through a bound check, and what happens on overflow is decided by an
//! [`OverflowPolicy`].  The classic Bakery lock uses the policy to *emulate*
//! what a real machine would do (wrap around), which is exactly how the
//! Section 3 failure scenario is reproduced; Bakery++ never triggers the
//! policy at all, which experiment **E1/E2** verify.
//!
//! [`RegisterFile`] groups the `choosing[1..N]` and `number[1..N]` arrays and
//! enforces the paper's single-writer discipline: writes require the process
//! id and only touch that process's own cells.  The type is deliberately the
//! only way the lock implementations can reach the shared memory, so "no
//! process writes into another process's memory" holds by construction.

use std::fmt;

use crossbeam::utils::CachePadded;

use crate::snapshot::{PackedSnapshot, ScanMode};
use crate::stats::LockStats;
use crate::sync::{AtomicU64, Ordering};

/// What a bounded register does when asked to store a value above its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverflowPolicy {
    /// Store `value mod (M + 1)` — what fixed-width machine arithmetic does.
    ///
    /// This is the behaviour that breaks the classic Bakery algorithm: a
    /// wrapped ticket is *smaller* than the tickets of processes already
    /// waiting, so the wrapping process overtakes them and mutual exclusion
    /// is violated (experiment **E1**).
    #[default]
    Wrap,
    /// Panic immediately: Bakery++ registers (an overflow there would be a
    /// bug) and the boolean `choosing` registers.
    Panic,
}

impl OverflowPolicy {
    /// Applies the policy to an out-of-range value, returning what is stored.
    ///
    /// Panics if the policy is [`OverflowPolicy::Panic`].
    #[must_use]
    pub fn resolve(self, value: u64, bound: u64) -> u64 {
        debug_assert!(value > bound);
        match self {
            OverflowPolicy::Wrap => {
                if bound == u64::MAX {
                    value
                } else {
                    value % (bound + 1)
                }
            }
            OverflowPolicy::Panic => panic!(
                "register overflow: attempted to store {value} in a register bounded by {bound}"
            ),
        }
    }
}

impl fmt::Display for OverflowPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OverflowPolicy::Wrap => "wrap",
            OverflowPolicy::Panic => "panic",
        };
        f.write_str(name)
    }
}

/// A record of one overflow attempt on a bounded register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowEvent {
    /// Index of the register within its register file (the owning pid).
    pub register: usize,
    /// The value the algorithm attempted to store.
    pub attempted: u64,
    /// The register bound `M`.
    pub bound: u64,
    /// The value actually stored after applying the policy.
    pub stored: u64,
}

impl fmt::Display for OverflowEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "overflow on register {}: attempted {} > M={} (stored {})",
            self.register, self.attempted, self.bound, self.stored
        )
    }
}

/// A single bounded register backed by an atomic word.
///
/// The register itself is multi-reader; write discipline (single writer) is
/// enforced one level up by [`RegisterFile`].
#[derive(Debug)]
pub struct BoundedRegister {
    cell: CachePadded<AtomicU64>,
    bound: u64,
    policy: OverflowPolicy,
}

impl BoundedRegister {
    /// Creates a register holding 0 with the given bound and policy.
    #[must_use]
    pub fn new(bound: u64, policy: OverflowPolicy) -> Self {
        Self {
            cell: CachePadded::new(AtomicU64::new(0)),
            bound,
            policy,
        }
    }

    /// The bound `M` of this register.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// The configured overflow policy.
    #[must_use]
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Reads the register (SeqCst — the seed's blanket ordering, kept for the
    /// padded scan mode and for the experiment-facing accessors).
    #[must_use]
    pub fn read(&self) -> u64 {
        self.cell.load(Ordering::SeqCst) // mem: padded-register
    }

    /// Reads the register with acquire ordering (packed scan mode; the
    /// store–load orderings the proof needs are provided by explicit fences
    /// in the lock implementations).
    #[must_use]
    pub fn read_acquire(&self) -> u64 {
        self.cell.load(Ordering::Acquire)
    }

    /// Stores a value known to be within bounds (SeqCst).
    ///
    /// Returns an [`OverflowEvent`] if the value was actually out of range and
    /// the policy had to be applied — callers that believe they never overflow
    /// (Bakery++) treat `Some` as a bug.
    pub fn write(&self, index: usize, value: u64) -> Option<OverflowEvent> {
        self.write_with(index, value, Ordering::SeqCst) // mem: padded-register
    }

    /// Stores with release ordering (packed scan mode).
    pub fn write_release(&self, index: usize, value: u64) -> Option<OverflowEvent> {
        self.write_with(index, value, Ordering::Release)
    }

    fn write_with(&self, index: usize, value: u64, order: Ordering) -> Option<OverflowEvent> {
        if value <= self.bound {
            self.cell.store(value, order);
            None
        } else {
            let stored = self.policy.resolve(value, self.bound);
            self.cell.store(stored, order);
            Some(OverflowEvent {
                register: index,
                attempted: value,
                bound: self.bound,
                stored,
            })
        }
    }

    /// Resets the register to 0 (crash/restart semantics, assumption 1.5).
    pub fn reset(&self) {
        self.cell.store(0, Ordering::SeqCst); // mem: padded-register
    }
}

/// The shared memory of one lock instance: `choosing[0..n]` and `number[0..n]`.
///
/// All cells start at 0 as the paper requires.  Writes take the writing
/// process's id and are only applied to that process's own cells; reads may
/// target any cell.
#[derive(Debug)]
pub struct RegisterFile {
    choosing: Box<[BoundedRegister]>,
    number: Box<[BoundedRegister]>,
    /// The packed mirror (`None` in [`ScanMode::Padded`], where the seed's
    /// exact store sequence is preserved for baseline measurements).
    packed: Option<PackedSnapshot>,
    bound: u64,
    policy: OverflowPolicy,
}

impl RegisterFile {
    /// Creates a register file for `n` processes with ticket bound `M` and the
    /// given overflow policy for the `number` registers, in the default
    /// [`ScanMode::Packed`].
    ///
    /// The `choosing` registers are boolean-valued, so their bound is 1 and
    /// they can never overflow regardless of policy.
    #[must_use]
    pub fn new(n: usize, bound: u64, policy: OverflowPolicy) -> Self {
        Self::with_mode(n, bound, policy, ScanMode::Packed)
    }

    /// Creates a register file with an explicit [`ScanMode`].
    #[must_use]
    pub fn with_mode(n: usize, bound: u64, policy: OverflowPolicy, mode: ScanMode) -> Self {
        assert!(n > 0, "a lock needs at least one process slot");
        let choosing = (0..n)
            .map(|_| BoundedRegister::new(1, OverflowPolicy::Panic))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let number = (0..n)
            .map(|_| BoundedRegister::new(bound, policy))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let packed = match mode {
            ScanMode::Padded => None,
            ScanMode::Packed => Some(PackedSnapshot::new(n, bound)),
        };
        Self {
            choosing,
            number,
            packed,
            bound,
            policy,
        }
    }

    /// The scan mode this file was built for.
    #[must_use]
    pub fn mode(&self) -> ScanMode {
        if self.packed.is_some() {
            ScanMode::Packed
        } else {
            ScanMode::Padded
        }
    }

    /// The packed snapshot plane, when the file runs in packed mode.
    #[must_use]
    pub fn packed(&self) -> Option<&PackedSnapshot> {
        self.packed.as_ref()
    }

    /// Number of process slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.number.len()
    }

    /// True when the file has no slots (never the case for a constructed file).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.number.is_empty()
    }

    /// The ticket bound `M`.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// The overflow policy applied to the `number` registers.
    #[must_use]
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Reads `choosing[j]`.
    #[must_use]
    pub fn read_choosing(&self, j: usize) -> bool {
        self.choosing[j].read() != 0
    }

    /// Reads `number[j]`.
    #[must_use]
    pub fn read_number(&self, j: usize) -> u64 {
        self.number[j].read()
    }

    /// Snapshot of all `number` registers (one non-atomic read per register,
    /// exactly like the algorithm's `maximum(number[1], …, number[N])` scan).
    #[must_use]
    pub fn snapshot_numbers(&self) -> Vec<u64> {
        self.number.iter().map(BoundedRegister::read).collect()
    }

    /// Reads `choosing[j]` with acquire ordering (packed-mode wait loops).
    #[must_use]
    pub fn read_choosing_acquire(&self, j: usize) -> bool {
        self.choosing[j].read_acquire() != 0
    }

    /// Reads `number[j]` with acquire ordering (packed-mode wait loops).
    #[must_use]
    pub fn read_number_acquire(&self, j: usize) -> u64 {
        self.number[j].read_acquire()
    }

    /// Writes `choosing[pid]`; only the owning process may call this.
    ///
    /// In packed mode the authoritative cell takes a release store and the
    /// mirror bit a release RMW (authoritative first, so a reader that
    /// observes the mirror bit also finds the cell up to date); in padded
    /// mode the seed's SeqCst store is preserved unchanged.
    pub fn write_choosing(&self, pid: usize, value: bool) {
        // `choosing` is 0/1-valued; the bound-1 register cannot overflow.
        match &self.packed {
            Some(packed) => {
                let _ = self.choosing[pid].write_release(pid, u64::from(value));
                packed.set_choosing(pid, value);
            }
            None => {
                let _ = self.choosing[pid].write(pid, u64::from(value));
            }
        }
    }

    /// Writes `number[pid]`, recording any overflow in `stats` and returning
    /// the event if one occurred.  The packed mirror (when present) receives
    /// the post-policy *stored* value, so a lane is never asked to hold more
    /// than the bound.
    pub fn write_number(
        &self,
        pid: usize,
        value: u64,
        stats: &LockStats,
    ) -> Option<OverflowEvent> {
        let event = match &self.packed {
            Some(packed) => {
                let event = self.number[pid].write_release(pid, value);
                packed.set_number(pid, event.map_or(value, |ev| ev.stored));
                event
            }
            None => self.number[pid].write(pid, value),
        };
        if let Some(ev) = event {
            stats.record_overflow(ev.attempted);
        }
        event
    }

    /// Resets both of `pid`'s registers to 0 (crash/restart, assumption 1.5).
    pub fn reset_process(&self, pid: usize) {
        self.number[pid].reset();
        self.choosing[pid].reset();
        if let Some(packed) = &self.packed {
            packed.set_number(pid, 0);
            packed.set_choosing(pid, false);
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn policy_wrap_matches_machine_arithmetic() {
        assert_eq!(OverflowPolicy::Wrap.resolve(256, 255), 0);
        assert_eq!(OverflowPolicy::Wrap.resolve(257, 255), 1);
    }

    #[test]
    #[should_panic(expected = "register overflow")]
    fn policy_panic_panics() {
        let _ = OverflowPolicy::Panic.resolve(256, 255);
    }

    #[test]
    fn policy_display_names() {
        assert_eq!(OverflowPolicy::Wrap.to_string(), "wrap");
        assert_eq!(OverflowPolicy::Panic.to_string(), "panic");
    }

    #[test]
    fn register_starts_at_zero() {
        let r = BoundedRegister::new(255, OverflowPolicy::Wrap);
        assert_eq!(r.read(), 0);
        assert_eq!(r.bound(), 255);
        assert_eq!(r.policy(), OverflowPolicy::Wrap);
    }

    #[test]
    fn in_range_write_returns_no_event() {
        let r = BoundedRegister::new(255, OverflowPolicy::Wrap);
        assert!(r.write(0, 255).is_none());
        assert_eq!(r.read(), 255);
    }

    #[test]
    fn out_of_range_write_reports_event() {
        let r = BoundedRegister::new(255, OverflowPolicy::Wrap);
        let ev = r.write(3, 256).expect("overflow event");
        assert_eq!(ev.register, 3);
        assert_eq!(ev.attempted, 256);
        assert_eq!(ev.bound, 255);
        assert_eq!(ev.stored, 0);
        assert_eq!(r.read(), 0);
        assert!(ev.to_string().contains("overflow on register 3"));
    }

    #[test]
    fn reset_returns_to_zero() {
        let r = BoundedRegister::new(10, OverflowPolicy::Wrap);
        r.write(0, 7);
        r.reset();
        assert_eq!(r.read(), 0);
    }

    #[test]
    fn register_file_initial_state_is_all_zero() {
        let file = RegisterFile::new(4, 255, OverflowPolicy::Wrap);
        assert_eq!(file.len(), 4);
        assert!(!file.is_empty());
        for j in 0..4 {
            assert_eq!(file.read_number(j), 0);
            assert!(!file.read_choosing(j));
        }
        assert_eq!(file.snapshot_numbers(), vec![0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn register_file_rejects_zero_processes() {
        let _ = RegisterFile::new(0, 255, OverflowPolicy::Wrap);
    }

    #[test]
    fn write_number_records_overflow_in_stats() {
        let file = RegisterFile::new(2, 3, OverflowPolicy::Wrap);
        let stats = LockStats::new();
        assert!(file.write_number(0, 3, &stats).is_none());
        assert_eq!(stats.overflow_attempts(), 0);
        let ev = file.write_number(0, 4, &stats).expect("overflow");
        assert_eq!(ev.stored, 0);
        assert_eq!(stats.overflow_attempts(), 1);
    }

    #[test]
    fn padded_mode_has_no_mirror() {
        let file = RegisterFile::with_mode(3, 255, OverflowPolicy::Wrap, ScanMode::Padded);
        assert!(file.packed().is_none());
        assert_eq!(file.mode(), ScanMode::Padded);
        let stats = LockStats::new();
        file.write_number(1, 9, &stats);
        file.write_choosing(1, true);
        assert_eq!(file.read_number(1), 9);
        assert!(file.read_choosing(1));
    }

    #[test]
    fn default_mode_is_packed_and_mirror_tracks_writes() {
        let file = RegisterFile::new(3, 255, OverflowPolicy::Wrap);
        assert_eq!(file.mode(), ScanMode::Packed);
        let stats = LockStats::new();
        file.write_number(2, 77, &stats);
        file.write_choosing(0, true);
        let packed = file.packed().expect("packed mode");
        assert_eq!(packed.decode_numbers(), vec![0, 0, 77]);
        assert_eq!(packed.decode_choosing(), vec![true, false, false]);
        file.reset_process(2);
        assert_eq!(packed.number(2), 0);
    }

    #[test]
    fn mirror_receives_post_policy_value_on_overflow() {
        let file = RegisterFile::new(2, 3, OverflowPolicy::Wrap);
        let stats = LockStats::new();
        let ev = file.write_number(0, 5, &stats).expect("overflow");
        assert_eq!(ev.stored, 1); // 5 mod 4
        assert_eq!(file.packed().unwrap().number(0), 1);
        assert_eq!(file.read_number(0), 1);
    }

    /// True interleaving: one writer thread per process slot hammering its own
    /// registers concurrently (the SWMR discipline), then a quiescent check
    /// that the mirror decodes to exactly the authoritative plane.
    #[test]
    fn mirror_matches_file_after_concurrent_single_writer_traffic() {
        use std::sync::Arc;
        // 40 slots picks u8/u16/u64 lanes for the three bounds; the twelve
        // writer threads below share packed words in the narrow-lane cases.
        for bound in [200u64, 60_000, u64::MAX] {
            let file = Arc::new(RegisterFile::new(40, bound, OverflowPolicy::Wrap));
            let stats = Arc::new(LockStats::new());
            std::thread::scope(|scope| {
                for pid in 0..12 {
                    let file = Arc::clone(&file);
                    let stats = Arc::clone(&stats);
                    scope.spawn(move || {
                        let mut value = pid as u64;
                        for round in 0..2_000u64 {
                            value = value.wrapping_mul(6364136223846793005).wrapping_add(round);
                            let _ = file.write_number(pid, value % (bound / 2 + 1), &stats);
                            file.write_choosing(pid, round % 3 == 0);
                            if round % 97 == 0 {
                                file.reset_process(pid);
                            }
                        }
                    });
                }
            });
            let packed = file.packed().expect("packed mode");
            assert_eq!(packed.decode_numbers(), file.snapshot_numbers(), "bound {bound}");
            let choosing: Vec<bool> = (0..40).map(|j| file.read_choosing(j)).collect();
            assert_eq!(packed.decode_choosing(), choosing, "bound {bound}");
        }
    }

    #[test]
    fn reset_process_clears_both_registers() {
        let file = RegisterFile::new(2, 255, OverflowPolicy::Wrap);
        let stats = LockStats::new();
        file.write_choosing(1, true);
        file.write_number(1, 9, &stats);
        file.reset_process(1);
        assert_eq!(file.read_number(1), 0);
        assert!(!file.read_choosing(1));
        // process 0 untouched
        file.write_number(0, 5, &stats);
        file.reset_process(1);
        assert_eq!(file.read_number(0), 5);
    }

    proptest! {
        /// Wrap really is modulo arithmetic, i.e. what an (M+1)-state machine
        /// register would hold — so the stored value never exceeds the bound:
        /// the register is genuinely bounded hardware.
        #[test]
        fn wrap_is_modulo(bound in 1u64..1_000, value in 0u64..1_000_000) {
            let r = BoundedRegister::new(bound, OverflowPolicy::Wrap);
            let _ = r.write(0, value);
            prop_assert_eq!(r.read(), value % (bound + 1));
            prop_assert!(r.read() <= bound);
        }

        /// After an arbitrary interleaved sequence of register writes, the
        /// packed mirror decodes to exactly the `RegisterFile` contents —
        /// for every lane width (u8, u16 and u64 lanes; with 40 slots the
        /// adaptive rule picks exactly the width matching each bound).
        #[test]
        fn packed_mirror_decodes_to_register_file(
            ops in proptest::collection::vec((0usize..40, 0u64..200_000, 0usize..4), 1..160),
            width_idx in 0usize..3,
        ) {
            use crate::snapshot::LaneWidth;
            let (bound, expected_width) = [
                (200u64, LaneWidth::U8),
                (60_000, LaneWidth::U16),
                (u64::MAX, LaneWidth::U64),
            ][width_idx];
            let file = RegisterFile::new(40, bound, OverflowPolicy::Wrap);
            let stats = LockStats::new();
            for &(pid, value, kind) in &ops {
                match kind {
                    0 | 1 => { let _ = file.write_number(pid, value, &stats); }
                    2 => file.write_choosing(pid, value % 2 == 0),
                    _ => file.reset_process(pid),
                }
            }
            let packed = file.packed().expect("default mode is packed");
            prop_assert_eq!(packed.width(), expected_width);
            prop_assert_eq!(packed.decode_numbers(), file.snapshot_numbers());
            let choosing: Vec<bool> = (0..40).map(|j| file.read_choosing(j)).collect();
            prop_assert_eq!(packed.decode_choosing(), choosing);
        }

        /// Lane-boundary clamp: `LaneWidth::for_bound` admits the exact lane
        /// maxima (`u8::MAX`, `u16::MAX`), yet the classic doorway transiently
        /// publishes `max + 1` — one more than the widest value the lane can
        /// hold.  The overflow policy must resolve *before* the mirror update,
        /// so the packed lane only ever receives the post-policy value and
        /// neighbouring lanes in the same word survive intact.
        #[test]
        fn mirror_clamps_before_update_on_exact_boundary_bounds(
            bound_idx in 0usize..5,
            pid in 0usize..40,
            overshoot in 1u64..4,
        ) {
            let bound = [254u64, 255, 256, 65_535, 65_536][bound_idx];
            let policy = OverflowPolicy::Wrap;
            // 40 slots force narrow lanes at the u8/u16 boundaries, so the
            // doorway's transient `bound + overshoot` would corrupt the
            // neighbouring lanes of the shared word if it ever reached the
            // mirror un-clamped.
            let file = RegisterFile::new(40, bound, policy);
            let stats = LockStats::new();
            // Give the neighbours known in-range tickets first.
            for j in 0..40 {
                if j != pid {
                    prop_assert!(file.write_number(j, (j as u64) % bound + 1, &stats).is_none());
                }
            }
            let attempted = bound + overshoot;
            let event = file.write_number(pid, attempted, &stats).expect("overflow event");
            prop_assert_eq!(event.attempted, attempted);
            prop_assert_eq!(event.stored, policy.resolve(attempted, bound));
            let packed = file.packed().expect("default mode is packed");
            // The mirror holds the post-policy value, never the transient.
            prop_assert!(packed.number(pid) <= bound, "lane must stay within M");
            prop_assert_eq!(packed.number(pid), event.stored);
            prop_assert_eq!(packed.number(pid), file.read_number(pid));
            // Every neighbouring lane decodes to its authoritative value.
            prop_assert_eq!(packed.decode_numbers(), file.snapshot_numbers());
            prop_assert_eq!(stats.overflow_attempts(), 1);
        }

        /// The single-writer file only changes the targeted process's cells.
        #[test]
        fn writes_are_confined_to_owner(
            n in 2usize..8,
            writer in 0usize..8,
            value in 0u64..100,
        ) {
            let writer = writer % n;
            let file = RegisterFile::new(n, 255, OverflowPolicy::Wrap);
            let stats = LockStats::new();
            file.write_number(writer, value, &stats);
            file.write_choosing(writer, true);
            for j in 0..n {
                if j != writer {
                    prop_assert_eq!(file.read_number(j), 0);
                    prop_assert!(!file.read_choosing(j));
                }
            }
            prop_assert_eq!(file.read_number(writer), value);
        }
    }
}
