//! Step-machine specification of Lamport's Bakery (Algorithm 1) and
//! Bakery++ (Algorithm 2), with an explicit register bound `M`.
//!
//! Both are one type, [`FlatBakerySpec`], whose `PLUS_PLUS` parameter adds
//! the `L1` admission scan (`NCS → L1_SCAN → SET_CHOOSING` instead of the
//! classic `NCS → COMPUTE_MAX`) and the pre-increment bound check
//! (`WRITE_MAX → CHECK_BOUND`, with its reset path).  Everything else is
//! shared.
//!
//! The classic ticket store at [`pc::WRITE_TICKET`] writes `1 + maximum`,
//! capped at `M + 1`: values above `M` appear in the state exactly when the
//! algorithm *would have overflowed a real register*, which the `NoOverflow`
//! invariant detects, while the cap keeps the state space finite.  Bakery++
//! never stores a value above `M`, which experiment **E2** verifies
//! exhaustively.

use bakery_sim::{
    Algorithm, Observation, ProcState, ProgState, RegisterSemantics, RegisterSpec, StateBounds,
    SymmetryGroup,
};

use crate::layout::{
    choosing_idx, choosing_may_read_zero, flat_symmetry, number_idx, read_number, ticket_precedes,
};
use crate::pc;

/// Local-variable slots used by the Bakery-family specs.
pub(crate) const LOCAL_J: usize = 0;
pub(crate) const LOCAL_MAX: usize = 1;

/// Lamport's Bakery algorithm as a checkable specification.
pub type BakerySpec = FlatBakerySpec<false>;

/// Bakery++ as a checkable specification.
pub type BakeryPlusPlusSpec = FlatBakerySpec<true>;

/// The flat Bakery specification; `PLUS_PLUS` selects Algorithm 2
/// (Bakery++) over Algorithm 1 (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct FlatBakerySpec<const PLUS_PLUS: bool> {
    n: usize,
    bound: u64,
    semantics: RegisterSemantics,
}

impl<const PLUS_PLUS: bool> FlatBakerySpec<PLUS_PLUS> {
    /// Creates a spec for `n` processes with register bound `M = bound`.
    #[must_use]
    pub fn new(n: usize, bound: u64) -> Self {
        assert!(n >= 1, "need at least one process");
        assert!(bound >= 1, "the register bound M must be at least 1");
        Self {
            n,
            bound,
            semantics: RegisterSemantics::Atomic,
        }
    }

    /// Selects the register model (atomic or safe/flickering registers).
    #[must_use]
    pub fn with_semantics(mut self, semantics: RegisterSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// The register bound `M`.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// A successor in which `pid` stores `value` to register `idx`: the
    /// whole write under atomic semantics, the *begin* step under safe
    /// semantics (the commit is forced as `pid`'s next step).
    fn store(&self, state: &ProgState, pid: usize, idx: usize, value: u64) -> ProgState {
        let mut next = state.clone();
        match self.semantics {
            RegisterSemantics::Atomic => next.set_shared(idx, value),
            RegisterSemantics::Safe => next.begin_write(idx, value, pid),
        }
        next
    }
}

impl<const PLUS_PLUS: bool> Algorithm for FlatBakerySpec<PLUS_PLUS> {
    fn name(&self) -> &str {
        if PLUS_PLUS {
            "bakery++"
        } else {
            "bakery"
        }
    }

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> Vec<RegisterSpec> {
        crate::layout::registers(self.n, self.bound)
    }

    fn initial_state(&self) -> ProgState {
        let procs = (0..self.n)
            .map(|_| ProcState::new(pc::NCS, vec![0, 0]))
            .collect();
        match self.semantics {
            RegisterSemantics::Atomic => ProgState::new(2 * self.n, procs),
            RegisterSemantics::Safe => ProgState::new_weak(2 * self.n, procs),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn successors(&self, state: &ProgState, pid: usize, out: &mut Vec<ProgState>) {
        if state.is_crashed(pid) {
            return;
        }
        // Safe semantics: a begun write must commit before the process takes
        // any other step (program order).  Bakery registers are all
        // single-writer, so the commit is the pending value, never a clash.
        if let Some(idx) = state.write_in_progress_by(pid) {
            for value in state.commit_values(idx, self.bound) {
                let mut next = state.clone();
                next.end_write(idx, pid, value);
                out.push(next);
            }
            return;
        }
        let n = self.n;
        let j = state.local(pid, LOCAL_J) as usize;
        let max = state.local(pid, LOCAL_MAX);
        match state.pc(pid) {
            pc::NCS if PLUS_PLUS => {
                // Start the L1 admission scan.
                let mut next = state.clone();
                next.set_local(pid, LOCAL_J, 0);
                next.set_local(pid, LOCAL_MAX, 0);
                next.set_pc(pid, pc::L1_SCAN);
                out.push(next);
            }
            pc::L1_SCAN => {
                if j >= n {
                    // All registers observed below M: proceed to the doorway.
                    let mut next = state.clone();
                    next.set_local(pid, LOCAL_J, 0);
                    next.set_pc(pid, pc::SET_CHOOSING);
                    out.push(next);
                } else {
                    // Two possible outcomes (restart vs advance); flicker
                    // values with the same outcome yield the same successor,
                    // so push each outcome at most once.
                    let values = read_number(state, n, j, self.bound);
                    if values.iter().any(|&value| value >= self.bound) {
                        // Illegitimate situation: restart the scan (goto L1).
                        let mut next = state.clone();
                        next.set_local(pid, LOCAL_J, 0);
                        out.push(next);
                    }
                    if values.iter().any(|&value| value < self.bound) {
                        let mut next = state.clone();
                        next.set_local(pid, LOCAL_J, (j + 1) as u64);
                        out.push(next);
                    }
                }
            }
            // choosing[i] := 1 (the classic doorway comes straight from NCS).
            pc::NCS | pc::SET_CHOOSING => {
                let mut next = self.store(state, pid, choosing_idx(pid), 1);
                next.set_local(pid, LOCAL_J, 0);
                next.set_local(pid, LOCAL_MAX, 0);
                next.set_pc(pid, pc::COMPUTE_MAX);
                out.push(next);
            }
            pc::COMPUTE_MAX => {
                if j < n {
                    // Fold number[j] into the running maximum (one read per
                    // step).  Flicker values folding to the same maximum
                    // yield the same successor, so deduplicate by outcome.
                    let mut maxima: Vec<u64> = read_number(state, n, j, self.bound)
                        .into_iter()
                        .map(|value| max.max(value))
                        .collect();
                    maxima.sort_unstable();
                    maxima.dedup();
                    for folded in maxima {
                        let mut next = state.clone();
                        next.set_local(pid, LOCAL_MAX, folded);
                        next.set_local(pid, LOCAL_J, (j + 1) as u64);
                        out.push(next);
                    }
                } else {
                    let mut next = state.clone();
                    next.set_pc(
                        pid,
                        if PLUS_PLUS {
                            pc::WRITE_MAX
                        } else {
                            pc::WRITE_TICKET
                        },
                    );
                    out.push(next);
                }
            }
            pc::WRITE_MAX => {
                // number[i] := maximum(...).  Always <= M: each register is <= M
                // individually (flicker reads are also capped at the bound).
                let mut next = self.store(state, pid, number_idx(n, pid), max.min(self.bound));
                next.set_pc(pid, pc::CHECK_BOUND);
                out.push(next);
            }
            pc::CHECK_BOUND => {
                let mut next = state.clone();
                if max >= self.bound {
                    next.set_pc(pid, pc::RESET_NUMBER);
                } else {
                    next.set_pc(pid, pc::WRITE_TICKET);
                }
                out.push(next);
            }
            pc::RESET_NUMBER => {
                let mut next = self.store(state, pid, number_idx(n, pid), 0);
                next.set_pc(pid, pc::RESET_CHOOSING);
                out.push(next);
            }
            pc::RESET_CHOOSING => {
                let mut next = self.store(state, pid, choosing_idx(pid), 0);
                next.set_local(pid, LOCAL_J, 0);
                next.set_pc(pid, pc::L1_SCAN);
                out.push(next);
            }
            pc::WRITE_TICKET => {
                // number[i] := 1 + maximum: <= M for Bakery++ (max < M here);
                // the classic store can overflow, capped at the sentinel M + 1.
                debug_assert!(!PLUS_PLUS || max < self.bound);
                let stored = (max + 1).min(self.bound.saturating_add(1));
                let mut next = self.store(state, pid, number_idx(n, pid), stored);
                next.set_pc(pid, pc::CLEAR_CHOOSING);
                out.push(next);
            }
            pc::CLEAR_CHOOSING => {
                let mut next = self.store(state, pid, choosing_idx(pid), 0);
                next.set_local(pid, LOCAL_J, 0);
                next.set_pc(pid, pc::SCAN_CHOOSING);
                out.push(next);
            }
            pc::SCAN_CHOOSING => {
                if j == pid {
                    let mut next = state.clone();
                    next.set_local(pid, LOCAL_J, (j + 1) as u64);
                    out.push(next);
                } else if j >= n {
                    let mut next = state.clone();
                    next.set_pc(pid, pc::CS);
                    out.push(next);
                } else if choosing_may_read_zero(state, j) {
                    let mut next = state.clone();
                    next.set_pc(pid, pc::SCAN_NUMBER);
                    out.push(next);
                }
                // else: blocked at L2.
            }
            pc::SCAN_NUMBER => {
                // Every passing read value yields the same successor, so one
                // push suffices (outcome dedup); a read that can only return
                // blocking values keeps us at L3.
                let my_number = state.read(number_idx(n, pid));
                let passes = read_number(state, n, j, self.bound)
                    .into_iter()
                    .any(|other| other == 0 || !ticket_precedes(other, j, my_number, pid));
                if passes {
                    let mut next = state.clone();
                    next.set_local(pid, LOCAL_J, (j + 1) as u64);
                    next.set_pc(pid, pc::SCAN_CHOOSING);
                    out.push(next);
                }
            }
            pc::CS => {
                // Leave: number[i] := 0.
                let mut next = self.store(state, pid, number_idx(n, pid), 0);
                next.set_pc(pid, pc::NCS);
                out.push(next);
            }
            _ => {}
        }
    }

    fn in_critical_section(&self, state: &ProgState, pid: usize) -> bool {
        state.pc(pid) == pc::CS
    }

    fn is_trying(&self, state: &ProgState, pid: usize) -> bool {
        let p = state.pc(pid);
        p != pc::NCS && p != pc::CS
    }

    fn crash(&self, state: &ProgState, pid: usize) -> Option<ProgState> {
        if state.pc(pid) == pc::NCS
            && state.read(choosing_idx(pid)) == 0
            && state.read(number_idx(self.n, pid)) == 0
            && state.write_in_progress_by(pid).is_none()
        {
            return None;
        }
        let mut next = state.clone();
        // A crash mid-write aborts the write: the pending value is dropped,
        // never committed (safe semantics; no-op under atomic).
        next.abort_writes(pid);
        next.set_shared(choosing_idx(pid), 0);
        next.set_shared(number_idx(self.n, pid), 0);
        next.set_local(pid, LOCAL_J, 0);
        next.set_local(pid, LOCAL_MAX, 0);
        next.set_pc(pid, pc::NCS);
        Some(next)
    }

    fn pc_label(&self, pc_value: u32) -> &'static str {
        pc::label(pc_value)
    }

    fn state_bounds(&self) -> StateBounds {
        // The loop index never exceeds n.  Classic registers (and hence the
        // folded local maximum) can hold the overflow sentinel M + 1;
        // Bakery++ never stores above M (even flicker reads cap at the
        // bound), so its folded maximum is at most M.
        let max_lane = self.bound.saturating_add(u64::from(!PLUS_PLUS));
        StateBounds::new(pc::CS, vec![self.n as u64, max_lane])
    }

    fn register_semantics(&self) -> RegisterSemantics {
        self.semantics
    }

    fn symmetry(&self) -> Option<SymmetryGroup> {
        flat_symmetry(self.n)
    }

    fn observe(&self, prev: &ProgState, next: &ProgState, pid: usize) -> Option<Observation> {
        let (before, after) = (prev.pc(pid), next.pc(pid));
        if before == pc::WRITE_TICKET && after == pc::CLEAR_CHOOSING {
            // Under safe semantics this transition is the write's *begin*
            // step, so the ticket is the pending value, not the (stale)
            // committed one.
            let stored = next.last_stored(number_idx(self.n, pid));
            if stored > self.bound {
                return Some(Observation::Overflowed {
                    pid,
                    attempted: prev.local(pid, LOCAL_MAX) + 1,
                });
            }
            return Some(Observation::TicketTaken {
                pid,
                number: stored,
            });
        }
        if before == pc::RESET_CHOOSING && after == pc::L1_SCAN {
            return Some(Observation::OverflowAvoided { pid });
        }
        if before != pc::CS && after == pc::CS {
            return Some(Observation::EnterCs { pid });
        }
        if before == pc::CS && after == pc::NCS {
            return Some(Observation::ExitCs { pid });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bakery_sim::{Invariant, RandomScheduler, RoundRobinScheduler, RunConfig, Simulator};

    /// The names of the invariants violated over `seeds` random schedules of
    /// `steps` steps each.
    fn violations<const PP: bool>(
        spec: &FlatBakerySpec<PP>,
        seeds: u64,
        steps: u64,
    ) -> Vec<String> {
        let mut names = Vec::new();
        for seed in 0..seeds {
            let config = RunConfig::<FlatBakerySpec<PP>>::checked(steps);
            let outcome = Simulator::new().run(spec, &mut RandomScheduler::new(seed), &config);
            names.extend(
                outcome
                    .report
                    .violations
                    .iter()
                    .map(|v| v.invariant.to_string()),
            );
        }
        names
    }

    /// Steps `pid` (one successor per step) until its pc reaches `target`.
    fn step_until<const PP: bool>(
        spec: &FlatBakerySpec<PP>,
        state: &mut ProgState,
        pid: usize,
        target: u32,
    ) {
        for _ in 0..64 {
            if state.pc(pid) == target {
                return;
            }
            let succs = spec.successors_vec(state, pid);
            assert_eq!(succs.len(), 1, "p{pid} at {}", pc::label(state.pc(pid)));
            *state = succs.into_iter().next().unwrap();
        }
        panic!("p{pid} never reached {}", pc::label(target));
    }

    #[test]
    fn single_process_cycles_cleanly() {
        fn check<const PP: bool>(spec: FlatBakerySpec<PP>) {
            let config = RunConfig::<FlatBakerySpec<PP>>::checked(300);
            let outcome = Simulator::new().run(&spec, &mut RoundRobinScheduler::new(), &config);
            assert!(outcome.report.is_clean(), "{:?}", outcome.report.violations);
            assert!(outcome.report.total_cs_entries() >= 20);
            assert!(outcome.report.max_register_value <= 4);
        }
        check(BakerySpec::new(1, 4));
        check(BakeryPlusPlusSpec::new(1, 4));
    }

    #[test]
    fn mutual_exclusion_holds_under_random_schedules() {
        let classic = violations(&BakerySpec::new(2, 1_000), 20, 2_000);
        assert!(
            !classic.iter().any(|v| v == "MutualExclusion"),
            "{classic:?}"
        );
        let pp = violations(&BakeryPlusPlusSpec::new(2, 5), 20, 3_000);
        assert!(!pp.iter().any(|v| v == "MutualExclusion"), "{pp:?}");
    }

    #[test]
    fn flicker_reads_preserve_mutual_exclusion() {
        // A classic ticket drawn from a flickered maximum may overflow, so
        // only mutual exclusion is required of it; Bakery++ keeps both.
        let classic = BakerySpec::new(2, 1_000).with_semantics(RegisterSemantics::Safe);
        let classic = violations(&classic, 10, 2_000);
        assert!(
            !classic.iter().any(|v| v == "MutualExclusion"),
            "{classic:?}"
        );
        let pp = BakeryPlusPlusSpec::new(2, 4).with_semantics(RegisterSemantics::Safe);
        let pp = violations(&pp, 10, 3_000);
        assert!(pp.is_empty(), "{pp:?}");
    }

    #[test]
    fn crash_resets_registers_and_restarts() {
        fn check<const PP: bool>(spec: FlatBakerySpec<PP>) {
            let s0 = spec.initial_state();
            let mut s = s0.clone();
            step_until(&spec, &mut s, 0, pc::COMPUTE_MAX);
            assert_eq!(s.read(choosing_idx(0)), 1);
            step_until(&spec, &mut s, 0, pc::CS);
            let crashed = spec.crash(&s, 0).expect("crash");
            assert_eq!(crashed.read(choosing_idx(0)), 0);
            assert_eq!(crashed.read(number_idx(2, 0)), 0);
            assert_eq!(crashed.pc(0), pc::NCS);
            // Crashing an idle process is a no-op.
            assert!(spec.crash(&s0, 0).is_none());
        }
        check(BakerySpec::new(2, 3));
        check(BakeryPlusPlusSpec::new(2, 3));
    }

    #[test]
    fn observations_include_tickets_and_cs_boundaries() {
        fn check<const PP: bool>(spec: FlatBakerySpec<PP>) {
            let config = RunConfig::<FlatBakerySpec<PP>>::checked(60);
            let outcome = Simulator::new().run(&spec, &mut RoundRobinScheduler::new(), &config);
            let tickets = outcome.trace.ticket_order();
            assert!(!tickets.is_empty());
            assert!(tickets.iter().all(|&(p, number)| p == 0 && number == 1));
            assert_eq!(
                outcome.trace.cs_entries(),
                outcome.report.total_cs_entries()
            );
        }
        check(BakerySpec::new(1, 10));
        check(BakeryPlusPlusSpec::new(1, 10));
    }

    #[test]
    fn trying_and_cs_predicates() {
        fn check<const PP: bool>(spec: FlatBakerySpec<PP>) {
            let s0 = spec.initial_state();
            assert!(!spec.is_trying(&s0, 0));
            assert!(!spec.in_critical_section(&s0, 0));
            let s1 = spec.successors_vec(&s0, 0)[0].clone();
            assert!(spec.is_trying(&s1, 0));
            assert_eq!(spec.pc_label(pc::SCAN_NUMBER), "L3-scan-number");
            assert_eq!(spec.pc_label(pc::L1_SCAN), "L1-scan");
        }
        check(BakerySpec::new(2, 10));
        check(BakeryPlusPlusSpec::new(2, 10));
    }

    #[test]
    fn registers_line_up_with_state_indices() {
        fn check<const PP: bool>(spec: FlatBakerySpec<PP>) {
            // choosing first, then number.
            assert_eq!(spec.bound(), 9);
            let regs = spec.registers();
            assert_eq!(regs.len(), 6);
            assert_eq!(regs[0].name, "choosing[0]");
            assert_eq!(regs[3].name, "number[0]");
            assert_eq!(regs[5].bound, 9);
            let inv = Invariant::<FlatBakerySpec<PP>>::register_bounds();
            assert!(inv.holds(&spec, &spec.initial_state()));
        }
        check(BakerySpec::new(3, 9));
        check(BakeryPlusPlusSpec::new(3, 9));
    }

    #[test]
    fn bounded_bakery_eventually_overflows_under_alternation() {
        // Random schedules over a tiny bound: the NoOverflow invariant must
        // eventually fail — this is the §3 malfunction.
        let spec = BakerySpec::new(2, 3);
        let saw_overflow = (0..50).any(|seed| {
            let config = RunConfig::<BakerySpec>::checked(5_000);
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            outcome
                .report
                .violations
                .iter()
                .any(|v| v.invariant == "NoOverflow")
        });
        assert!(saw_overflow, "bounded classic Bakery must overflow");
    }

    #[test]
    fn tickets_grow_when_the_bakery_never_empties() {
        let spec = BakerySpec::new(2, 1_000_000);
        let config = RunConfig::<BakerySpec>::checked(20_000);
        let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(7), &config);
        assert!(outcome.report.is_clean());
        assert!(
            outcome.report.max_register_value > 2,
            "under contention tickets should exceed the single-process value"
        );
    }

    #[test]
    fn never_overflows_even_with_tiny_bound() {
        // The headline claim (§6.1): with M = 2 and heavy interleaving the
        // NoOverflow invariant holds on every sampled schedule.
        let spec = BakeryPlusPlusSpec::new(3, 2);
        for seed in 0..30 {
            let config = RunConfig::<BakeryPlusPlusSpec>::checked(5_000);
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            assert!(
                !outcome
                    .report
                    .violations
                    .iter()
                    .any(|v| v.invariant == "NoOverflow"),
                "seed {seed}: Bakery++ must never overflow"
            );
            assert!(outcome.report.max_register_value <= 2, "seed {seed}");
        }
    }

    #[test]
    fn reset_branch_is_reachable_under_contention() {
        // With a tiny bound the overflow-avoidance path must actually fire —
        // otherwise the spec would not be exercising the paper's new code.
        let spec = BakeryPlusPlusSpec::new(3, 2);
        let saw_reset = (0..30).any(|seed| {
            let config = RunConfig::<BakeryPlusPlusSpec>::checked(5_000);
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            outcome.report.overflow_avoidance_resets > 0
        });
        assert!(saw_reset, "the reset branch should fire for M = 2");
    }

    /// The reset branch on one fixed schedule: p2 passes the L1 scan while
    /// every register is below M, then p1 draws the ticket M before p2 reads
    /// the maximum, so p2 observes max = M after admission and resets.
    #[test]
    fn reset_branch_fires_on_a_concurrent_ticket_at_m() {
        let spec = BakeryPlusPlusSpec::new(3, 2);
        let mut s = spec.initial_state();
        step_until(&spec, &mut s, 0, pc::SCAN_CHOOSING);
        assert_eq!(s.read(number_idx(3, 0)), 1, "p0 holds ticket 1");
        step_until(&spec, &mut s, 2, pc::SET_CHOOSING);
        step_until(&spec, &mut s, 1, pc::SCAN_CHOOSING);
        assert_eq!(s.read(number_idx(3, 1)), 2, "p1 holds ticket M");
        step_until(&spec, &mut s, 2, pc::CHECK_BOUND);
        assert_eq!(s.local(2, LOCAL_MAX), 2, "p2 read max = M");
        assert_eq!(
            s.read(number_idx(3, 2)),
            2,
            "p2 wrote the maximum, not max + 1"
        );
        let mut pcs = Vec::new();
        let mut observed = Vec::new();
        while pcs.last() != Some(&pc::L1_SCAN) {
            let next = spec.successors_vec(&s, 2).remove(0);
            observed.extend(spec.observe(&s, &next, 2));
            pcs.push(next.pc(2));
            s = next;
        }
        assert_eq!(pcs, [pc::RESET_NUMBER, pc::RESET_CHOOSING, pc::L1_SCAN]);
        assert_eq!(observed, [Observation::OverflowAvoided { pid: 2 }]);
        assert_eq!(s.read(number_idx(3, 2)), 0);
        assert_eq!(s.read(choosing_idx(2)), 0);
    }

    #[test]
    fn progress_is_comparable_to_classic_bakery_for_large_bounds() {
        // §7: when no overflow machinery triggers, Bakery++ should take about
        // as many steps per CS entry as Bakery (it executes a handful more
        // local steps for the L1 scan).
        fn entries<const PP: bool>(spec: FlatBakerySpec<PP>) -> u64 {
            let config = RunConfig::<FlatBakerySpec<PP>>::checked(20_000);
            Simulator::new()
                .run(&spec, &mut RandomScheduler::new(3), &config)
                .report
                .total_cs_entries()
        }
        let classic = entries(BakerySpec::new(2, 1_000_000));
        let pp = entries(BakeryPlusPlusSpec::new(2, 1_000_000));
        assert!(pp > 0 && classic > 0);
        let ratio = classic as f64 / pp as f64;
        assert!(
            (0.5..=2.5).contains(&ratio),
            "throughput ratio {ratio} out of expected band (classic {classic}, pp {pp})"
        );
    }

    #[test]
    fn observed_tickets_stay_within_bound() {
        let spec = BakeryPlusPlusSpec::new(2, 2);
        let config = RunConfig::<BakeryPlusPlusSpec>::checked(5_000);
        let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(11), &config);
        let tickets = outcome.trace.ticket_order();
        assert!(!tickets.is_empty());
        assert!(tickets.iter().all(|&(_, number)| number <= 2));
        assert_eq!(
            outcome.report.overflow_attempts, 0,
            "Bakery++ never emits an Overflowed observation"
        );
    }
}
