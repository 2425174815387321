//! Lamport's Bakery (Algorithm 1 of the paper) and Bakery++ (Algorithm 2)
//! as one flat lock.
//!
//! ```text
//!     constant M;
//! L1: if ∃ q : number[q] ≥ M then goto L1;                 ++ only
//!     choosing[i] := 1;
//!     number[i]   := 1 + maximum(number[1], …, number[N]);  Bakery
//!     number[i]   := maximum(number[1], …, number[N]);      Bakery++
//!     if number[i] ≥ M then begin                           ++ only
//!         number[i] := 0; choosing[i] := 0; goto L1;        ++ only
//!     end else number[i] := number[i] + 1;                  ++ only
//!     choosing[i] := 0;
//!     for j = 1 .. N do
//! L2:     if choosing[j] ≠ 0 then goto L2;
//! L3:     if number[j] ≠ 0 and (number[j], j) < (number[i], i) then goto L3;
//!     critical section;
//!     number[i] := 0;
//! ```
//!
//! Bakery++ is the classic algorithm plus two guarded statements, so both
//! are one type, [`FlatBakery`], whose `PLUS_PLUS` parameter branches on
//! exactly those two: the **`L1` admission guard** (a process refuses to
//! start choosing while any register holds a value `≥ M`, the paper's
//! *illegitimate situation*) with its wait site and notifies, and the
//! **pre-increment check** (write the observed maximum, always `≤ M`, and
//! increment it only when that cannot exceed `M`; otherwise reset and retry
//! from `L1`).
//!
//! The parameter also fixes the overflow policy of the ticket registers.
//! [`BakeryLock`] (`FlatBakery<false>`) wraps like machine registers: with
//! the default bound (`u64::MAX`) it is the textbook algorithm, and with a
//! small bound it shows the failure of the paper's Section 3.
//! [`BakeryPlusPlusLock`] (`FlatBakery<true>`) panics on overflow: its only
//! stores are `0`, `maximum(...) ≤ M` and `maximum(...) + 1` guarded by
//! `maximum(...) < M` — the paper's Theorem (§6.1), verified exhaustively by
//! experiment **E2** and visible as [`LockStats::overflow_attempts`] staying
//! zero.
//!
//! Besides the blocking [`RawMutexAlgorithm::acquire`] path the lock exposes
//! the two protocol phases separately — [`FlatBakery::try_doorway`] and
//! [`FlatBakery::await_turn`] — so the experiment harness can replay the
//! paper's prose scenarios deterministically without spawning threads.

use std::sync::Arc;

use crossbeam::utils::CachePadded;

use crate::raw::{DoorwayOutcome, RawMutexAlgorithm};
use crate::registers::{OverflowPolicy, RegisterFile};
use crate::slots::SlotAllocator;
use crate::snapshot::ScanMode;
use crate::stats::LockStats;
use crate::sync::{fence, Ordering};
use crate::ticket::{Ticket, TicketOrder};
use crate::wait::{WaitHandle, WaitSite, WaitStrategy, WaitToken};
use crate::DEFAULT_BOUND;

/// Default register bound used by [`BakeryPlusPlusLock::new`]: the largest
/// value a 16-bit register can hold.  Small enough that the overflow-avoidance
/// machinery is regularly exercised under heavy contention, large enough that
/// the reset path stays rare (§7's "highly unlikely" case).
pub const DEFAULT_PP_BOUND: u64 = u16::MAX as u64;

/// Lamport's Bakery lock: tickets `1 + maximum(...)` on wrapping registers.
///
/// ```
/// use bakery_core::{BakeryLock, RawMutexAlgorithm};
///
/// let lock = BakeryLock::new(2);
/// let slot = lock.register().unwrap();
/// let _guard = lock.lock(&slot);
/// ```
pub type BakeryLock = FlatBakery<false>;

/// The Bakery++ lock: first-come-first-served mutual exclusion with a hard
/// guarantee that no register ever exceeds its bound.
///
/// ```
/// use bakery_core::{BakeryPlusPlusLock, RawMutexAlgorithm};
///
/// let lock = BakeryPlusPlusLock::with_bound(3, 1000);
/// let slot = lock.register().unwrap();
/// for _ in 0..10 {
///     let _guard = lock.lock(&slot);
/// }
/// assert_eq!(lock.stats().overflow_attempts(), 0);
/// ```
pub type BakeryPlusPlusLock = FlatBakery<true>;

/// The flat Bakery lock for up to `N` processes; `PLUS_PLUS` selects
/// Algorithm 2 (Bakery++) over Algorithm 1 (see the [module docs](self)).
#[derive(Debug)]
pub struct FlatBakery<const PLUS_PLUS: bool> {
    file: RegisterFile,
    slots: Arc<SlotAllocator>,
    /// Written by every acquire, so kept off the cache lines of the
    /// read-mostly register and wait-plane fields the scan loads.
    stats: CachePadded<LockStats>,
    waits: WaitHandle,
}

impl<const PLUS_PLUS: bool> FlatBakery<PLUS_PLUS> {
    /// Creates a lock for `n` processes with the policy's default bound:
    /// effectively unbounded (64-bit) classic registers, or
    /// [`DEFAULT_PP_BOUND`] for Bakery++.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_bound(
            n,
            if PLUS_PLUS {
                DEFAULT_PP_BOUND
            } else {
                DEFAULT_BOUND
            },
        )
    }

    /// Creates a lock for `n` processes whose ticket registers are bounded
    /// by `bound` (the paper's constant `M`), in the default packed scan mode.
    ///
    /// # Panics
    /// Panics if `bound == 0`: with `M = 0` no process could ever hold a
    /// ticket, since tickets start at 1.
    #[must_use]
    pub fn with_bound(n: usize, bound: u64) -> Self {
        Self::build(n, bound, ScanMode::Packed, crate::wait::default_strategy())
    }

    fn build(n: usize, bound: u64, mode: ScanMode, strategy: Arc<dyn WaitStrategy>) -> Self {
        assert!(bound >= 1, "the register bound M must be at least 1");
        // Classic registers wrap like machine words (the §3 failure); a
        // Bakery++ store above M would be a bug, so it panics.
        let policy = if PLUS_PLUS {
            OverflowPolicy::Panic
        } else {
            OverflowPolicy::Wrap
        };
        Self {
            file: RegisterFile::with_mode(n, bound, policy, mode),
            slots: SlotAllocator::new(n),
            stats: CachePadded::new(LockStats::new()),
            waits: WaitHandle::new(strategy),
        }
    }

    /// The scan mode this lock was built with.
    #[must_use]
    pub fn scan_mode(&self) -> ScanMode {
        self.file.mode()
    }

    /// The wait plane this lock's blocking paths run through.
    #[must_use]
    pub fn wait_plane(&self) -> &WaitHandle {
        &self.waits
    }

    /// The register bound `M`.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.file.bound()
    }

    /// The shared register file (read-only view used by tests and experiments).
    #[must_use]
    pub fn registers(&self) -> &RegisterFile {
        &self.file
    }

    /// The ticket this process currently holds (0 when idle or resetting).
    #[must_use]
    pub fn current_ticket(&self, pid: usize) -> Ticket {
        Ticket::new(self.file.read_number(pid), pid)
    }

    /// Emulates a crash/restart of process `pid` outside its critical section
    /// (paper assumptions 1.5–1.7): both of its registers are reset to zero.
    pub fn crash_reset(&self, pid: usize) {
        self.file.reset_process(pid);
        // Both registers flipped to zero; the release pulse serves async lock
        // futures.
        self.waits.notify(self.choosing_site(pid));
        self.notify_ticket_zeroed(pid);
        self.waits.notify(self.waits.release());
    }

    /// True when some register currently holds a value `≥ M` — the paper's
    /// *illegitimate situation* that Bakery++'s `L1` guard waits out.
    ///
    /// Since every register individually holds a value `≤ M`, "∃q:
    /// number[q] ≥ M" is equivalent to "maximum ≥ M", which packed mode
    /// answers from the snapshot plane in `O(N/8)` word reads.
    #[must_use]
    pub fn situation_is_illegitimate(&self) -> bool {
        let bound = self.file.bound();
        match self.file.packed() {
            Some(packed) => packed.max_number() >= bound,
            None => (0..self.file.len()).any(|q| self.file.read_number(q) >= bound),
        }
    }

    /// One non-blocking pass through the doorway.  Only Bakery++ returns
    /// [`DoorwayOutcome::Blocked`] or [`DoorwayOutcome::Reset`], and only
    /// the classic lock returns [`DoorwayOutcome::Overflowed`].
    ///
    /// The blocking [`RawMutexAlgorithm::acquire`] retries this until a
    /// ticket is held; the harness records the intermediate outcomes for
    /// experiments **E1** and **E6**.
    pub fn try_doorway(&self, pid: usize) -> DoorwayOutcome {
        assert!(pid < self.capacity(), "pid {pid} out of range");
        // L1: if ∃ q : number[q] >= M then retry later.
        if PLUS_PLUS && self.situation_is_illegitimate() {
            return DoorwayOutcome::Blocked;
        }
        self.file.write_choosing(pid, true);
        let max = match self.file.packed() {
            Some(packed) => {
                // Handshake fence #1: the `choosing[i] := 1` store must be
                // globally visible before the maximum scan's loads.  Two
                // processes in the doorway simultaneously must not *both*
                // miss each other — the SC-fence pairing with fence #2 / the
                // scan of the other process guarantees at least one side
                // observes the other (the Dekker store-load lemma).
                fence(Ordering::SeqCst); // mem: doorway-dekker.choosing
                packed.max_number()
            }
            // Padded baseline: the seed's per-register SeqCst scan.
            None => TicketOrder::maximum(&self.file.snapshot_numbers()),
        };
        let attempted = if PLUS_PLUS {
            // Store the maximum first, exactly as Algorithm 2 does.  Every
            // register individually holds a value <= M, so max <= M and this
            // store can never overflow.
            let bound = self.file.bound();
            debug_assert!(max <= bound);
            self.file.write_number(pid, max, &self.stats);
            if max >= bound {
                // Reset branch: number[i] := 0; choosing[i] := 0; goto L1.
                self.file.write_number(pid, 0, &self.stats);
                self.file.write_choosing(pid, false);
                self.stats.record_reset();
                // The transient `number[i] := max` parked at M was itself an
                // illegitimate-situation source.
                self.notify_ticket_zeroed(pid);
                self.waits.notify(self.choosing_site(pid));
                return DoorwayOutcome::Reset;
            }
            // Safe to increment: max < M implies max + 1 <= M.
            max + 1
        } else {
            max.saturating_add(1)
        };
        // Classic `1 + max` may exceed the bound: the register wraps and
        // records the overflow — the failure point of the paper's Section 3.
        let event = self.file.write_number(pid, attempted, &self.stats);
        let stored = event.map_or(attempted, |ev| ev.stored);
        self.stats.record_ticket(stored);
        if self.file.packed().is_some() {
            // Handshake fence #2: the ticket store must be visible before
            // this process's L2/L3 loads (including the fast-path emptiness
            // check), pairing with fence #1 of any concurrent chooser.
            fence(Ordering::SeqCst); // mem: doorway-dekker.ticket
        }
        self.file.write_choosing(pid, false);
        if PLUS_PLUS {
            // The `max → max + 1` increment can flip a tie-breaking L3 wait
            // to "pass" (a waiter with the same ticket and a higher pid stops
            // losing the comparison to the transient `max`).  The classic
            // ticket store only raises a register from zero, which can never
            // flip an L3 wait, so it needs no notify.
            self.waits.notify(self.ticket_site(pid));
        }
        // `choosing[i] := 0` releases every L2 waiter watching this word.
        self.waits.notify(self.choosing_site(pid));
        match event {
            Some(ev) => DoorwayOutcome::Overflowed {
                attempted: ev.attempted,
                stored: ev.stored,
            },
            None => DoorwayOutcome::Ticket(stored),
        }
    }

    /// The scan (`L2`/`L3`, identical in Algorithms 1 and 2): wait until
    /// every other process is done choosing and no other process holds a
    /// smaller `(number, pid)` pair.
    ///
    /// In packed mode an empty-bakery check against the snapshot plane gives
    /// the uncontended **fast path**: when no other process is choosing or
    /// holds a ticket, the whole per-contender loop is skipped after reading
    /// `O(N/8)` words instead of `2N` padded cache lines.  The check reads
    /// the choosing bitmap and then the ticket lanes — the loop's own
    /// `L2`-before-`L3` order — and an all-zero observation is exactly the
    /// evidence on which every iteration would fall through without waiting.
    pub fn await_turn(&self, pid: usize) {
        match self.file.packed() {
            Some(packed) if !packed.has_other_contenders(pid) => {
                self.stats.record_fast_path_hit();
            }
            Some(packed) => self.scan(pid, |j| packed.choosing(j), |j| packed.number(j)),
            // Padded baseline: the seed's per-register SeqCst loads.
            None => self.scan(
                pid,
                |j| self.file.read_choosing(j),
                |j| self.file.read_number(j),
            ),
        }
    }

    /// Non-blocking check of the scan condition: would process `pid` be
    /// allowed into the critical section right now?
    #[must_use]
    pub fn may_enter(&self, pid: usize) -> bool {
        let me = Ticket::new(self.file.read_number(pid), pid);
        if me.is_idle() {
            return false;
        }
        (0..self.file.len()).all(|j| {
            if j == pid {
                return true;
            }
            if self.file.read_choosing(j) {
                return false;
            }
            let other = Ticket::new(self.file.read_number(j), j);
            !TicketOrder::must_wait_for(me, other)
        })
    }

    /// Wakes the waiters a zeroed `number[pid]` can release: L3 waiters
    /// ordered behind it and, for Bakery++, the L1 guard.
    fn notify_ticket_zeroed(&self, pid: usize) {
        self.waits.notify(self.ticket_site(pid));
        if PLUS_PLUS {
            self.waits.notify(self.waits.guard());
        }
    }

    /// The `L2` wait site for `pid`'s choosing register (one packed bitmap
    /// word covers 64 pids; padded mode keys per pid).
    fn choosing_site(&self, pid: usize) -> WaitSite {
        match self.file.packed() {
            Some(_) => self.waits.choosing(pid / 64),
            None => self.waits.choosing(pid),
        }
    }

    /// The `L3` wait site for `pid`'s ticket register (packed mode keys per
    /// lane word; padded mode per pid).
    fn ticket_site(&self, pid: usize) -> WaitSite {
        match self.file.packed() {
            Some(packed) => self.waits.ticket(packed.lane_word(pid)),
            None => self.waits.ticket(pid),
        }
    }

    /// The `L2`/`L3` loop over one register plane's `choosing`/`number`
    /// reads (monomorphized per scan mode).
    fn scan(&self, pid: usize, choosing: impl Fn(usize) -> bool, number: impl Fn(usize) -> u64) {
        let mut waits = 0u64;
        for j in 0..self.file.len() {
            if j == pid {
                continue;
            }
            // Fresh escalation state per watched contender, reset between the
            // L2 and L3 predicates — the episode policy the wait contract pins.
            // Wait sites are looked up only when a wait is needed.
            let mut token = WaitToken::new();
            // L2: wait while process j is choosing.
            while choosing(j) {
                waits += 1;
                self.waits
                    .wait(self.choosing_site(j), &mut token, &mut || choosing(j));
            }
            token.reset();
            // L3: wait while process j holds a smaller (number, pid) pair.
            let mut precedes = || {
                TicketOrder::must_wait_for(Ticket::new(number(pid), pid), Ticket::new(number(j), j))
            };
            while precedes() {
                waits += 1;
                self.waits
                    .wait(self.ticket_site(j), &mut token, &mut precedes);
            }
        }
        self.stats.record_doorway_waits(waits);
    }
}

impl BakeryLock {
    /// Creates a Bakery lock with an explicit [`ScanMode`]
    /// ([`ScanMode::Padded`] reproduces the seed's per-register SeqCst scan
    /// for baseline measurements and ablations).
    #[must_use]
    pub fn with_config(n: usize, bound: u64, mode: ScanMode) -> Self {
        Self::build(n, bound, mode, crate::wait::default_strategy())
    }

    /// Creates a Bakery lock with an explicit [`WaitStrategy`] for its
    /// `L2`/`L3` wait loops (on top of every [`Self::with_config`] knob).
    #[must_use]
    pub fn with_config_and_strategy(
        n: usize,
        bound: u64,
        mode: ScanMode,
        strategy: Arc<dyn WaitStrategy>,
    ) -> Self {
        Self::build(n, bound, mode, strategy)
    }
}

impl BakeryPlusPlusLock {
    /// Creates a Bakery++ lock with an explicit [`ScanMode`]
    /// ([`ScanMode::Padded`] reproduces the seed's per-register SeqCst scan
    /// for baseline measurements and ablations).
    #[must_use]
    pub fn with_bound_and_mode(n: usize, bound: u64, mode: ScanMode) -> Self {
        Self::build(n, bound, mode, crate::wait::default_strategy())
    }

    /// Creates a Bakery++ lock with an explicit [`WaitStrategy`] for its
    /// `L1`/`L2`/`L3` wait loops (on top of every
    /// [`Self::with_bound_and_mode`] knob).
    #[must_use]
    pub fn with_bound_mode_and_strategy(
        n: usize,
        bound: u64,
        mode: ScanMode,
        strategy: Arc<dyn WaitStrategy>,
    ) -> Self {
        Self::build(n, bound, mode, strategy)
    }
}

impl<const PLUS_PLUS: bool> RawMutexAlgorithm for FlatBakery<PLUS_PLUS> {
    fn capacity(&self) -> usize {
        self.file.len()
    }

    // Out of line: the generic protocol is instantiated in each caller's
    // crate, and inlining the doorway and scan into a caller's loop measured
    // slower on the contended benchmark.
    #[inline(never)]
    fn acquire(&self, pid: usize) {
        // One wait episode across the whole doorway retry loop: Blocked and
        // Reset both re-watch the same admission predicate, so escalation
        // carries across retries (the episode-policy exception the wait
        // contract documents).  The classic doorway never blocks or resets,
        // so it passes the loop once.
        let mut token = WaitToken::new();
        let guard = self.waits.guard();
        let mut l1_rounds = 0u64;
        loop {
            let outcome = self.try_doorway(pid);
            if outcome.took_ticket() {
                break;
            }
            l1_rounds += u64::from(outcome == DoorwayOutcome::Blocked);
            self.waits
                .wait(guard, &mut token, &mut || self.situation_is_illegitimate());
        }
        self.stats.record_l1_waits(l1_rounds);
        self.await_turn(pid);
    }

    #[inline(never)]
    fn release(&self, pid: usize) {
        self.file.write_number(pid, 0, &self.stats);
        // The release pulse serves async lock futures.
        self.notify_ticket_zeroed(pid);
        self.waits.notify(self.waits.release());
    }

    fn try_acquire(&self, pid: usize) -> bool {
        // One doorway pass (Blocked/Reset already leave the registers clean),
        // then one non-blocking evaluation of the L2/L3 condition.  Backing
        // out of a held ticket resets the pid's own registers — the paper's
        // doorway-crash rule (assumptions 1.5–1.7), so safety is unaffected.
        if !self.try_doorway(pid).took_ticket() {
            return false;
        }
        if self.may_enter(pid) {
            return true;
        }
        self.file.write_number(pid, 0, &self.stats);
        self.notify_ticket_zeroed(pid);
        false
    }

    fn crash_abort(&self, pid: usize) -> bool {
        // The paper's crash rule is exactly `crash_reset`, the backout
        // `try_acquire` performs, applicable from *any* pre-CS point.
        self.crash_reset(pid);
        self.stats.record_crash_abort();
        true
    }

    fn algorithm_name(&self) -> &'static str {
        if PLUS_PLUS {
            "bakery++"
        } else {
            "bakery"
        }
    }

    fn shared_word_count(&self) -> usize {
        // choosing[1..N] and number[1..N] for both algorithms: the constant
        // M is not a shared variable.
        2 * self.file.len()
    }

    fn register_bound(&self) -> Option<u64> {
        Some(self.file.bound())
    }

    fn slot_allocator(&self) -> &Arc<SlotAllocator> {
        &self.slots
    }

    fn stats(&self) -> &LockStats {
        &self.stats
    }

    fn wait_handle(&self) -> Option<&WaitHandle> {
        Some(&self.waits)
    }

    fn as_raw(&self) -> &dyn RawMutexAlgorithm {
        self
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// `threads` scoped threads each enter the critical section `rounds`
    /// times, asserting that nobody else is inside and nothing overflows.
    fn contend<const PP: bool>(lock: &FlatBakery<PP>, threads: usize, rounds: u64) {
        let in_cs = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let slot = lock.register().unwrap();
                    for _ in 0..rounds {
                        let _g = lock.lock(&slot);
                        let inside = in_cs.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(inside, 0, "two processes inside the critical section");
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(lock.stats().cs_entries(), threads as u64 * rounds);
        assert_eq!(lock.stats().overflow_attempts(), 0);
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn single_process_can_enter_repeatedly() {
        fn check<const PP: bool>(lock: FlatBakery<PP>) {
            let slot = lock.register().unwrap();
            for _ in 0..25 {
                let _g = lock.lock(&slot);
            }
            assert_eq!(lock.stats().cs_entries(), 25);
            assert_eq!(lock.stats().overflow_attempts(), 0);
        }
        check(BakeryLock::with_bound(1, 10));
        check(BakeryPlusPlusLock::with_bound(1, 10));
    }

    #[test]
    fn lone_process_ticket_resets_to_one() {
        fn check<const PP: bool>(lock: FlatBakery<PP>) {
            let a = lock.register_exact(0).unwrap();
            // With nobody else in the bakery the ticket is always 1.
            for _ in 0..5 {
                let g = lock.lock(&a);
                assert_eq!(lock.current_ticket(0).number, 1);
                drop(g);
            }
            assert_eq!(lock.stats().max_ticket(), 1);
        }
        check(BakeryLock::new(2));
        check(BakeryPlusPlusLock::new(2));
    }

    #[test]
    fn metadata_accessors() {
        fn check<const PP: bool>(lock: FlatBakery<PP>, name: &str) {
            assert_eq!(lock.capacity(), 3);
            assert_eq!(lock.algorithm_name(), name);
            // Identical shared footprint: choosing[1..N] and number[1..N].
            assert_eq!(lock.shared_word_count(), 6);
            assert_eq!(lock.register_bound(), Some(7));
            assert_eq!(lock.registers().bound(), 7);
            assert_eq!(lock.bound(), 7);
        }
        check(BakeryLock::with_bound(3, 7), "bakery");
        check(BakeryPlusPlusLock::with_bound(3, 7), "bakery++");
        assert_eq!(BakeryLock::new(2).bound(), u64::MAX);
        assert_eq!(BakeryPlusPlusLock::new(2).bound(), u64::from(u16::MAX));
    }

    #[test]
    fn zero_bound_and_out_of_range_pids_are_rejected() {
        fn check<const PP: bool>(lock: FlatBakery<PP>) {
            assert!(panic_message(|| lock.acquire(5)).contains("out of range"));
            let doorway = || {
                let _ = lock.try_doorway(7);
            };
            assert!(panic_message(doorway).contains("out of range"));
        }
        check(BakeryLock::new(2));
        check(BakeryPlusPlusLock::with_bound(2, 4));
        assert!(panic_message(|| drop(BakeryLock::with_bound(2, 0))).contains("at least 1"));
        assert!(panic_message(|| drop(BakeryPlusPlusLock::with_bound(2, 0))).contains("at least 1"));
    }

    #[test]
    #[should_panic(expected = "different lock instance")]
    fn foreign_slot_is_rejected() {
        let lock_a = BakeryLock::new(2);
        let lock_b = BakeryLock::new(2);
        let slot_b = lock_b.register().unwrap();
        let _ = lock_a.lock(&slot_b);
    }

    #[test]
    fn may_enter_reflects_ticket_priority() {
        fn check<const PP: bool>(lock: FlatBakery<PP>) {
            assert!(!lock.may_enter(0), "idle process may not enter");
            assert!(lock.try_doorway(0).took_ticket());
            assert!(lock.try_doorway(1).took_ticket());
            assert!(lock.may_enter(0), "older ticket has priority");
            assert!(!lock.may_enter(1), "younger ticket must wait");
            lock.release(0);
            assert!(lock.may_enter(1));
            lock.release(1);
        }
        check(BakeryLock::new(2));
        check(BakeryPlusPlusLock::with_bound(2, 100));
    }

    #[test]
    fn crash_reset_unblocks_other_processes() {
        fn check<const PP: bool>(lock: FlatBakery<PP>) {
            let a = lock.register_exact(0).unwrap();
            // Process 1 "crashes" mid-doorway with choosing set and its
            // ticket at M: reads of a crashed process eventually return zero
            // (assumption 1.7), modelled by resetting its registers.  After
            // the reset neither the L2 wait nor Bakery++'s L1 guard may hang.
            lock.file.write_choosing(1, true);
            lock.file.write_number(1, 4, &lock.stats);
            lock.crash_reset(1);
            assert!(!lock.situation_is_illegitimate());
            let _g = lock.lock(&a);
        }
        check(BakeryLock::with_bound(2, 4));
        check(BakeryPlusPlusLock::with_bound(2, 4));
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        contend(&BakeryLock::new(4), 4, 500);
        contend(&BakeryPlusPlusLock::with_bound(4, 1000), 4, 500);
    }

    #[test]
    fn padded_mode_mutual_exclusion_under_contention() {
        fn check<const PP: bool>(lock: FlatBakery<PP>) {
            assert_eq!(lock.scan_mode(), ScanMode::Padded);
            assert!(lock.registers().packed().is_none());
            contend(&lock, 4, 300);
            assert_eq!(
                lock.stats().fast_path_hits(),
                0,
                "padded mode has no fast path"
            );
        }
        check(BakeryLock::with_config(4, DEFAULT_BOUND, ScanMode::Padded));
        check(BakeryPlusPlusLock::with_bound_and_mode(
            4,
            1000,
            ScanMode::Padded,
        ));
    }

    #[test]
    fn uncontended_acquires_take_the_fast_path() {
        fn check<const PP: bool>(lock: FlatBakery<PP>) {
            assert_eq!(lock.scan_mode(), ScanMode::Packed);
            let slot = lock.register().unwrap();
            for _ in 0..25 {
                let _g = lock.lock(&slot);
            }
            assert_eq!(lock.stats().fast_path_hits(), 25, "empty bakery every time");
            assert_eq!(lock.stats().doorway_waits(), 0);
        }
        check(BakeryLock::new(4));
        check(BakeryPlusPlusLock::with_bound(4, 65_535));
    }

    #[test]
    fn fast_path_is_skipped_while_another_ticket_is_live() {
        fn check<const PP: bool>(lock: FlatBakery<PP>) {
            assert!(lock.try_doorway(1).took_ticket()); // standing customer
            assert!(lock.try_doorway(0).took_ticket());
            lock.await_turn(1); // pid 1 has the older ticket: enters first
            assert_eq!(lock.stats().fast_path_hits(), 0);
            lock.release(1);
            lock.await_turn(0);
            lock.release(0);
        }
        check(BakeryLock::new(2));
        check(BakeryPlusPlusLock::new(2));
    }

    /// The paper §3: two processes alternating their critical sections keep
    /// at least one non-zero ticket in the bakery at all times, so the ticket
    /// value grows without bound.  Replayed deterministically through the
    /// split doorway/scan API.
    #[test]
    fn alternating_processes_grow_tickets_without_bound() {
        let lock = BakeryLock::new(2);
        let mut last = 0u64;
        // A takes a ticket first.
        assert_eq!(lock.try_doorway(0), DoorwayOutcome::Ticket(1));
        for round in 0..100 {
            // The other process takes its ticket while the first still holds
            // one, then the first releases and re-enters the bakery, and so on.
            let (leaving, entering) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
            let outcome = lock.try_doorway(entering);
            let DoorwayOutcome::Ticket(number) = outcome else {
                panic!("unbounded bakery never overflows, got {outcome:?}");
            };
            assert!(number > last, "ticket values must keep growing");
            last = number;
            lock.await_turn(leaving);
            lock.release(leaving);
        }
        assert!(lock.stats().max_ticket() >= 100);
        assert_eq!(lock.stats().overflow_attempts(), 0);
    }

    /// The same alternation on bounded registers overflows (§3): the classic
    /// algorithm has no defence.
    #[test]
    fn alternating_processes_overflow_bounded_registers() {
        let bound = 5;
        let lock = BakeryLock::with_bound(2, bound);
        assert!(lock.try_doorway(0).took_ticket());
        let mut saw_overflow = false;
        for round in 0..50 {
            let (leaving, entering) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
            if let DoorwayOutcome::Overflowed { attempted, stored } = lock.try_doorway(entering) {
                assert!(attempted > bound);
                assert!(stored <= bound);
                saw_overflow = true;
                break;
            }
            lock.release(leaving);
        }
        assert!(saw_overflow, "bounded classic Bakery must overflow");
        assert!(lock.stats().overflow_attempts() > 0);
    }

    /// After a wrap-around the overflowed process can overtake a process with
    /// a (numerically larger) older ticket — the FIFO order the paper
    /// advertises is broken, which is the root of the §3 malfunction.
    #[test]
    fn wrapped_ticket_overtakes_older_ticket() {
        let lock = BakeryLock::with_bound(2, 3);
        // Process 0 legitimately holds the maximum ticket value.
        assert!(lock.try_doorway(0).took_ticket()); // ticket 1
        lock.release(0);
        lock.file.write_number(0, 3, &lock.stats); // simulate an old ticket at M
                                                   // Process 1 draws next: 1 + 3 = 4 > M, wraps to 0 or a small value.
        let outcome = lock.try_doorway(1);
        let DoorwayOutcome::Overflowed { stored, .. } = outcome else {
            panic!("expected an overflow, got {outcome:?}");
        };
        // The wrapped value is smaller than the older ticket, so process 1 now
        // (incorrectly) believes it has priority whenever stored is non-zero,
        // or is treated as idle when stored == 0 — either way FCFS is lost.
        assert!(stored < 3);
        lock.crash_reset(0);
        lock.crash_reset(1);
    }

    /// The §3 alternation scenario that overflows the classic Bakery: with
    /// Bakery++ the ticket is capped by M, the doorway reports `Reset` or
    /// `Blocked` instead of overflowing, and after the bakery drains the
    /// processes continue normally.
    #[test]
    fn alternation_never_exceeds_bound() {
        let bound = 5;
        let lock = BakeryPlusPlusLock::with_bound(2, bound);
        assert_eq!(lock.try_doorway(0), DoorwayOutcome::Ticket(1));
        let mut capped = false;
        let mut completed = 0u64;
        let mut pending = 0usize; // process currently holding a ticket
        for round in 0..200 {
            let entering = 1 - pending;
            match lock.try_doorway(entering) {
                DoorwayOutcome::Ticket(number) => {
                    assert!(number <= bound);
                    // The process that was already in the bakery gets served.
                    lock.await_turn(pending);
                    lock.release(pending);
                    completed += 1;
                    pending = entering;
                }
                DoorwayOutcome::Reset | DoorwayOutcome::Blocked => {
                    capped = true;
                    // The entering process backs off; the pending process is
                    // served, which drains the bakery and re-legitimises the
                    // situation.
                    lock.await_turn(pending);
                    lock.release(pending);
                    completed += 1;
                    // Now the formerly blocked process can take ticket 1.
                    let retry = lock.try_doorway(entering);
                    assert!(
                        retry.took_ticket(),
                        "empty bakery must admit, got {retry:?} at round {round}"
                    );
                    pending = entering;
                }
                DoorwayOutcome::Overflowed { .. } => panic!("Bakery++ must never overflow"),
            }
        }
        assert!(capped, "with M = {bound} the cap must be hit");
        assert!(completed >= 190);
        assert_eq!(lock.stats().overflow_attempts(), 0);
        assert!(lock.stats().max_ticket() <= bound);
    }

    #[test]
    fn blocked_when_some_register_is_at_bound() {
        let lock = BakeryPlusPlusLock::with_bound(2, 4);
        lock.file.write_number(1, 4, &lock.stats);
        assert!(lock.situation_is_illegitimate());
        assert_eq!(lock.try_doorway(0), DoorwayOutcome::Blocked);
        lock.crash_reset(1);
        assert!(!lock.situation_is_illegitimate());
        assert_eq!(lock.try_doorway(0), DoorwayOutcome::Ticket(1));
        lock.release(0);
    }

    /// A maximum of `M - 1` passes both guards and draws the ticket `M`
    /// itself, which is storable.  The reset branch needs a maximum `≥ M`
    /// observed *after* `L1` admitted the process, which a sequential caller
    /// cannot produce (the guard and the maximum scan read the same
    /// registers); the spec plane drives that interleaving step by step
    /// (`bakery_spec`'s `reset_branch_fires_on_a_concurrent_ticket_at_m`).
    #[test]
    fn ticket_equal_to_the_bound_is_legal() {
        let lock = BakeryPlusPlusLock::with_bound(2, 4);
        lock.file.write_number(1, 3, &lock.stats);
        assert_eq!(lock.try_doorway(0), DoorwayOutcome::Ticket(4));
        assert_eq!(lock.stats().max_ticket(), 4);
        assert_eq!(lock.stats().resets(), 0);
        assert_eq!(lock.stats().overflow_attempts(), 0);
        // The ticket at M makes the situation illegitimate for newcomers.
        assert!(lock.situation_is_illegitimate());
        lock.release(0);
        lock.crash_reset(1);
    }

    /// With M = 3 and four contending threads tickets stay in `[0, 3]`:
    /// mutual exclusion and overflow freedom hold however often the L1/reset
    /// machinery runs (the §7 "price of guaranteeing no overflows" case).
    #[test]
    fn tiny_bound_keeps_mutual_exclusion_and_tickets_within_bound() {
        let lock = BakeryPlusPlusLock::with_bound(4, 3);
        contend(&lock, 4, 200);
        assert!(lock.stats().max_ticket() <= 3);
    }

    #[test]
    fn mutual_exclusion_with_u8_lanes_under_contention() {
        // M = 255 with 40 slots selects u8 ticket lanes: the four active
        // contenders (slots 0..3) share one packed word, the tightest
        // false-sharing configuration of the mirror.
        let lock = BakeryPlusPlusLock::with_bound(40, 255);
        assert_eq!(
            lock.registers().packed().unwrap().width(),
            crate::snapshot::LaneWidth::U8
        );
        contend(&lock, 4, 400);
        assert!(lock.stats().max_ticket() <= 255);
    }
}
