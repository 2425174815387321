//! The packed snapshot plane: a cache-dense mirror of the register file.
//!
//! The authoritative [`crate::registers::RegisterFile`] keeps every
//! `choosing[i]` / `number[i]` cell in its own `CachePadded` slot so that the
//! single-writer discipline never false-shares between writers.  That layout
//! is ideal for the *writers* but terrible for the *readers*: the doorway's
//! `maximum(number[1..N])` scan and the `L2`/`L3` wait loops each touch `N`
//! separate cache lines per pass.
//!
//! [`PackedSnapshot`] is a densely packed mirror maintained alongside the
//! padded plane:
//!
//! * `choosing` becomes a bitmap — 64 processes per word;
//! * `number` becomes packed lanes — `u8` lanes when the register bound `M`
//!   fits in a byte, `u16` lanes when it fits in a half-word, and plain `u64`
//!   words otherwise — so a scan reads `O(N/8)` cache lines instead of `N`
//!   padded ones, and "is anyone else in the bakery?" is a couple of word
//!   loads (the uncontended **fast path**).
//!
//! The mirror is a performance cache only: the padded plane stays the source
//! of truth for the paper's SWMR discipline and overflow accounting, and the
//! mirror always holds post-policy (bounded) values, so a lane can never be
//! asked to store more than `M`.  Each lane is updated with a single atomic
//! read-modify-write, so concurrent readers of a shared word always observe
//! either the old or the new lane value — never a torn intermediate — which
//! keeps the mirror within the paper's safe-register read model.
//!
//! Memory ordering: lane/bit updates are `Release` RMWs and reads are
//! `Acquire` loads.  The store–load orderings the Bakery proof needs on top
//! of that (doorway handshakes) are provided by explicit `SeqCst` fences in
//! `bakery.rs`, next to the protocol steps they order.

use crate::sync::{AtomicU64, Ordering};

/// How a lock scans the shared registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScanMode {
    /// Scan the padded authoritative registers with `SeqCst` accesses — the
    /// layout and orderings the seed implementation used.  Kept as the
    /// like-for-like baseline for the `bench-json` perf trajectory and as an
    /// ablation of the snapshot plane.
    Padded,
    /// Scan the packed snapshot plane with acquire/release accesses plus
    /// targeted fences, including the empty-bakery fast path.
    #[default]
    Packed,
}

impl ScanMode {
    /// Short name used in benchmark output and reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ScanMode::Padded => "padded",
            ScanMode::Packed => "packed",
        }
    }
}

/// Ticket lane width of a [`PackedSnapshot`], chosen from the bound `M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneWidth {
    /// 8 tickets per word (`M <= 255`).
    U8,
    /// 4 tickets per word (`M <= 65535`).
    U16,
    /// 1 ticket per word (larger bounds).
    U64,
}

impl LaneWidth {
    /// The narrowest lane that can hold every legal value of a register
    /// bounded by `bound`.
    #[must_use]
    pub fn for_bound(bound: u64) -> Self {
        if bound <= u64::from(u8::MAX) {
            LaneWidth::U8
        } else if bound <= u64::from(u16::MAX) {
            LaneWidth::U16
        } else {
            LaneWidth::U64
        }
    }

    /// True when a register bounded by `bound` fits this lane.
    #[must_use]
    pub fn fits(self, bound: u64) -> bool {
        match self {
            LaneWidth::U8 => bound <= u64::from(u8::MAX),
            LaneWidth::U16 => bound <= u64::from(u16::MAX),
            LaneWidth::U64 => true,
        }
    }

    /// The lane width [`PackedSnapshot::new`] picks for `n` processes with
    /// bound `bound`.
    ///
    /// Narrow lanes exist to keep the scan footprint small, but every write
    /// to a shared multi-lane word is a CAS splice, whereas a full-word
    /// (`U64`) lane is a plain store.  So the rule is: take the **widest**
    /// lane whose ticket array still fits in one cache line (8 words) — at
    /// small `n` density buys nothing and wide lanes avoid the RMW tax — and
    /// fall back to the narrowest lane that fits `bound` once `n` is large
    /// enough that density is what matters.
    #[must_use]
    pub fn for_config(n: usize, bound: u64) -> Self {
        for width in [LaneWidth::U64, LaneWidth::U16, LaneWidth::U8] {
            if width.fits(bound) && n.div_ceil(width.lanes_per_word()) <= 8 {
                return width;
            }
        }
        Self::for_bound(bound)
    }

    /// Lane width in bits.
    #[must_use]
    pub const fn bits(self) -> u32 {
        match self {
            LaneWidth::U8 => 8,
            LaneWidth::U16 => 16,
            LaneWidth::U64 => 64,
        }
    }

    /// Number of ticket lanes packed into one 64-bit word.
    #[must_use]
    pub const fn lanes_per_word(self) -> usize {
        match self {
            LaneWidth::U8 => 8,
            LaneWidth::U16 => 4,
            LaneWidth::U64 => 1,
        }
    }
}

/// The packed mirror of one lock's `choosing[0..n]` / `number[0..n]` arrays.
#[derive(Debug)]
pub struct PackedSnapshot {
    width: LaneWidth,
    n: usize,
    /// One bit per process: 1 while `choosing[pid]` is set.
    choosing: Box<[AtomicU64]>,
    /// Packed `number` lanes, `lanes_per_word()` tickets per word.
    lanes: Box<[AtomicU64]>,
}

impl PackedSnapshot {
    /// Creates an all-zero mirror for `n` processes with register bound
    /// `bound`, choosing the lane width via [`LaneWidth::for_config`].
    #[must_use]
    pub fn new(n: usize, bound: u64) -> Self {
        Self::with_width(n, bound, LaneWidth::for_config(n, bound))
    }

    /// Creates a mirror with an explicit lane width (tests and ablations).
    ///
    /// # Panics
    /// Panics if `width` cannot hold every value a register bounded by
    /// `bound` may store.
    #[must_use]
    pub fn with_width(n: usize, bound: u64, width: LaneWidth) -> Self {
        assert!(n > 0, "a snapshot needs at least one process slot");
        assert!(
            width.fits(bound),
            "a {width:?} lane cannot hold values up to {bound}"
        );
        let choosing_words = n.div_ceil(64);
        let lane_words = n.div_ceil(width.lanes_per_word());
        Self {
            width,
            n,
            choosing: (0..choosing_words).map(|_| AtomicU64::new(0)).collect(),
            lanes: (0..lane_words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of process slots mirrored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the mirror has no slots (never the case once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The lane width chosen from the register bound.
    #[must_use]
    pub fn width(&self) -> LaneWidth {
        self.width
    }

    /// Total words a full scan of both planes reads — the `O(N/8)` figure the
    /// docs and tests refer to (vs `2N` padded cache lines).
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.choosing.len() + self.lanes.len()
    }

    /// The lane-plane word index holding `pid`'s ticket — the granularity at
    /// which the wait plane keys its `L3` park sites (every store to the word
    /// wakes the waiters keyed on it; same-word neighbours surface as
    /// spurious wakeups, which the wait contract permits).
    #[must_use]
    pub fn lane_word(&self, pid: usize) -> usize {
        self.lane_pos(pid).0
    }

    /// (word index, bit shift, lane mask) of `pid`'s ticket lane.
    fn lane_pos(&self, pid: usize) -> (usize, u32, u64) {
        let lpw = self.width.lanes_per_word();
        let shift = (pid % lpw) as u32 * self.width.bits();
        let mask = if self.width.bits() == 64 {
            u64::MAX
        } else {
            ((1u64 << self.width.bits()) - 1) << shift
        };
        (pid / lpw, shift, mask)
    }

    /// Mirrors a write of `number[pid] := value`.
    ///
    /// `value` must already be bounded (the authoritative register applies
    /// the overflow policy first), so it always fits the lane.  The update is
    /// one atomic RMW: readers of the shared word see the old or the new lane
    /// value, never a blend.
    pub fn set_number(&self, pid: usize, value: u64) {
        let (word, shift, mask) = self.lane_pos(pid);
        debug_assert!(
            value <= (mask >> shift),
            "value {value} does not fit a {:?} lane",
            self.width
        );
        if self.width.bits() == 64 {
            self.lanes[word].store(value, Ordering::Release);
        } else {
            let _ = self.lanes[word].fetch_update(Ordering::Release, Ordering::Relaxed, |w| { // mem: mirror-publish
                Some((w & !mask) | (value << shift))
            });
        }
    }

    /// Mirrors a write of `choosing[pid] := flag`.
    pub fn set_choosing(&self, pid: usize, flag: bool) {
        let word = pid / 64;
        let bit = 1u64 << (pid % 64);
        if flag {
            self.choosing[word].fetch_or(bit, Ordering::Release);
        } else {
            self.choosing[word].fetch_and(!bit, Ordering::Release);
        }
    }

    /// Reads `number[pid]` from the mirror.
    #[must_use]
    pub fn number(&self, pid: usize) -> u64 {
        let (word, shift, mask) = self.lane_pos(pid);
        (self.lanes[word].load(Ordering::Acquire) & mask) >> shift
    }

    /// Reads `choosing[pid]` from the mirror.
    #[must_use]
    pub fn choosing(&self, pid: usize) -> bool {
        let word = pid / 64;
        let bit = 1u64 << (pid % 64);
        self.choosing[word].load(Ordering::Acquire) & bit != 0
    }

    /// The doorway's `maximum(number[1], ..., number[N])`, reading
    /// `O(N / lanes_per_word)` words and skipping all-zero words outright.
    #[must_use]
    pub fn max_number(&self) -> u64 {
        let bits = self.width.bits();
        let mut max = 0u64;
        for word in &self.lanes {
            let mut value = word.load(Ordering::Acquire);
            if value == 0 {
                continue;
            }
            if bits == 64 {
                max = max.max(value);
            } else {
                let lane_mask = (1u64 << bits) - 1;
                while value != 0 {
                    max = max.max(value & lane_mask);
                    value >>= bits;
                }
            }
        }
        max
    }

    /// True when any process other than `pid` is visible in the bakery —
    /// i.e. has its choosing bit set or holds a non-zero ticket.
    ///
    /// Reads the choosing plane before the ticket plane, preserving the
    /// `L2`-before-`L3` observation order of the per-process wait loops; a
    /// `false` return is exactly the evidence (`choosing[j] = 0` then
    /// `number[j] = 0` for every other `j`) on which the classic loops would
    /// terminate without waiting.
    #[must_use]
    pub fn has_other_contenders(&self, pid: usize) -> bool {
        let choosing_word = pid / 64;
        let choosing_bit = 1u64 << (pid % 64);
        for (index, word) in self.choosing.iter().enumerate() {
            let mut value = word.load(Ordering::Acquire);
            if index == choosing_word {
                value &= !choosing_bit;
            }
            if value != 0 {
                return true;
            }
        }
        let (lane_word, _, lane_mask) = self.lane_pos(pid);
        for (index, word) in self.lanes.iter().enumerate() {
            let mut value = word.load(Ordering::Acquire);
            if index == lane_word {
                value &= !lane_mask;
            }
            if value != 0 {
                return true;
            }
        }
        false
    }

    /// Decodes the mirrored `number` array (test / verification helper).
    #[must_use]
    pub fn decode_numbers(&self) -> Vec<u64> {
        (0..self.n).map(|pid| self.number(pid)).collect()
    }

    /// Decodes the mirrored `choosing` array (test / verification helper).
    #[must_use]
    pub fn decode_choosing(&self) -> Vec<bool> {
        (0..self.n).map(|pid| self.choosing(pid)).collect()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn lane_width_tracks_bound() {
        assert_eq!(LaneWidth::for_bound(1), LaneWidth::U8);
        assert_eq!(LaneWidth::for_bound(255), LaneWidth::U8);
        assert_eq!(LaneWidth::for_bound(256), LaneWidth::U16);
        assert_eq!(LaneWidth::for_bound(65_535), LaneWidth::U16);
        assert_eq!(LaneWidth::for_bound(65_536), LaneWidth::U64);
        assert_eq!(LaneWidth::for_bound(u64::MAX), LaneWidth::U64);
    }

    #[test]
    fn scan_mode_names() {
        assert_eq!(ScanMode::Padded.name(), "padded");
        assert_eq!(ScanMode::Packed.name(), "packed");
        assert_eq!(ScanMode::default(), ScanMode::Packed);
    }

    #[test]
    fn adaptive_width_prefers_wide_lanes_at_small_n() {
        // n <= 8: one cache line of u64 words either way, so take the plain
        // store (u64 lane) over the CAS splice.
        assert_eq!(LaneWidth::for_config(4, 255), LaneWidth::U64);
        assert_eq!(LaneWidth::for_config(8, 65_535), LaneWidth::U64);
        // Mid-size: u16 lanes keep the array within one line.
        assert_eq!(LaneWidth::for_config(9, 65_535), LaneWidth::U16);
        assert_eq!(LaneWidth::for_config(32, 200), LaneWidth::U16);
        // Large n: density wins, narrowest lane that fits the bound.
        assert_eq!(LaneWidth::for_config(33, 255), LaneWidth::U8);
        assert_eq!(LaneWidth::for_config(128, 255), LaneWidth::U8);
        assert_eq!(LaneWidth::for_config(128, 65_535), LaneWidth::U16);
        // Big bound forces u64 no matter the size.
        assert_eq!(LaneWidth::for_config(128, u64::MAX), LaneWidth::U64);
    }

    #[test]
    fn word_counts_are_dense() {
        // 128 processes with u8 lanes: 2 choosing words + 16 lane words,
        // versus 256 padded cache lines in the authoritative plane.
        let snap = PackedSnapshot::new(128, 255);
        assert_eq!(snap.width(), LaneWidth::U8);
        assert_eq!(snap.word_count(), 2 + 16);
        assert_eq!(snap.len(), 128);
        assert!(!snap.is_empty());
        // u16 lanes.
        assert_eq!(PackedSnapshot::with_width(6, 65_535, LaneWidth::U16).word_count(), 1 + 2);
        // u64 lanes.
        assert_eq!(PackedSnapshot::new(3, u64::MAX).word_count(), 1 + 3);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn undersized_lane_width_is_rejected() {
        let _ = PackedSnapshot::with_width(4, 65_535, LaneWidth::U8);
    }

    #[test]
    fn set_and_read_round_trip_all_widths() {
        for (bound, width) in [
            (255u64, LaneWidth::U8),
            (65_535, LaneWidth::U16),
            (u64::MAX, LaneWidth::U64),
        ] {
            let snap = PackedSnapshot::with_width(9, bound, width);
            for pid in 0..9 {
                let value = (pid as u64 * 31 + 1).min(bound);
                snap.set_number(pid, value);
                snap.set_choosing(pid, pid % 2 == 0);
            }
            for pid in 0..9 {
                let expected = (pid as u64 * 31 + 1).min(bound);
                assert_eq!(snap.number(pid), expected, "bound {bound} pid {pid}");
                assert_eq!(snap.choosing(pid), pid % 2 == 0);
            }
            // Overwrites replace, not accumulate.
            snap.set_number(3, 7);
            assert_eq!(snap.number(3), 7);
            snap.set_number(3, 0);
            assert_eq!(snap.number(3), 0);
            snap.set_choosing(2, false);
            assert!(!snap.choosing(2));
        }
    }

    #[test]
    fn max_scan_matches_decoded_maximum() {
        let snap = PackedSnapshot::new(20, 255);
        assert_eq!(snap.max_number(), 0);
        snap.set_number(3, 9);
        snap.set_number(17, 250);
        snap.set_number(8, 41);
        assert_eq!(snap.max_number(), 250);
        assert_eq!(
            snap.max_number(),
            snap.decode_numbers().into_iter().max().unwrap()
        );
    }

    #[test]
    fn contender_check_ignores_self_and_sees_others() {
        let snap = PackedSnapshot::new(70, 65_535); // spans two choosing words
        assert!(!snap.has_other_contenders(0));
        snap.set_number(0, 5);
        snap.set_choosing(0, true);
        assert!(!snap.has_other_contenders(0), "own state is masked out");
        assert!(snap.has_other_contenders(1), "sees pid 0 from elsewhere");
        snap.set_choosing(69, true); // second choosing word
        assert!(snap.has_other_contenders(0));
        snap.set_choosing(69, false);
        snap.set_number(69, 1); // second-word lane
        assert!(snap.has_other_contenders(0));
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_slots_rejected() {
        let _ = PackedSnapshot::new(0, 255);
    }

    #[test]
    fn concurrent_single_writer_lanes_never_corrupt_neighbours() {
        // Eight writers share lane words (u8 lanes); each hammers its own
        // lane.  Afterwards every lane must hold its writer's final value —
        // the atomic splice never clobbers a neighbour.
        use std::sync::Arc;
        let snap = Arc::new(PackedSnapshot::with_width(8, 255, LaneWidth::U8));
        std::thread::scope(|scope| {
            for pid in 0..8 {
                let snap = Arc::clone(&snap);
                scope.spawn(move || {
                    for round in 0..2_000u64 {
                        snap.set_number(pid, (round + pid as u64) % 256);
                        snap.set_choosing(pid, round % 2 == 0);
                    }
                    snap.set_number(pid, pid as u64 + 1);
                    snap.set_choosing(pid, false);
                });
            }
        });
        for pid in 0..8 {
            assert_eq!(snap.number(pid), pid as u64 + 1);
            assert!(!snap.choosing(pid));
        }
    }
}
