//! Differential conformance test plane.
//!
//! Each lock in the headline family — classic `Bakery`, `BakeryPlusPlus` and
//! the `TreeBakery` composite — exists twice in this repository: as a real
//! atomics-based lock in `bakery-core` and as a step-machine specification in
//! `bakery-spec`.  This suite drives both sides on **identical seeded
//! schedules** and asserts they agree, instead of trusting either by
//! inspection:
//!
//! 1. **Spec plane** — the simulator runs every specification under the same
//!    deterministic seeded schedules with the mutual-exclusion and
//!    register-bound invariants checked after *every* step, and replays each
//!    recorded trace to a bit-identical final state.
//! 2. **Doorway differential** — a seeded sequential schedule of doorway /
//!    serve operations is applied to the real lock (via its split-phase
//!    `try_doorway` / `await_turn` API) and to the specification (by stepping
//!    the same process through the same phases), asserting **step-for-step**
//!    agreement on the outcome kind (`Ticket` / `Blocked` / `Reset` /
//!    `Overflowed`) and on the drawn ticket values.
//! 3. **Tree path differential** — the composite lock's per-level node
//!    tickets are compared against the tree specification's node registers
//!    on the same acquisition schedule, and release must drain both to zero.
//! 4. **Invariant differential under real threads** — the real locks run
//!    under genuine contention and must report exactly the invariant profile
//!    the spec plane establishes (no overflow attempts, tickets within `M`,
//!    mutual exclusion).
//!
//! The real-lock parts run under both [`ScanMode::Packed`] and
//! [`ScanMode::Padded`]; set `BAKERY_SCAN_MODE=packed|padded` to restrict a
//! run to one mode (the CI matrix does).

use std::sync::Arc;

use bakery_suite::locks::raw::DoorwayOutcome;
use bakery_suite::locks::{
    AdaptiveBakery, BakeryLock, BakeryPlusPlusLock, RawMutexAlgorithm, ScanMode,
    SessionPlane, TreeBakery,
};
use bakery_suite::sim::{
    Algorithm, ProgState, RandomScheduler, ReplayScheduler, RunConfig, Simulator,
};
use bakery_suite::spec::{pc, AdaptiveHandoffSpec, BakeryPlusPlusSpec, BakerySpec, TreeBakerySpec};

/// Scan modes the real-lock sides run under (`BAKERY_SCAN_MODE` restricts).
fn scan_modes() -> Vec<ScanMode> {
    match std::env::var("BAKERY_SCAN_MODE").as_deref() {
        Ok("packed") => vec![ScanMode::Packed],
        Ok("padded") => vec![ScanMode::Padded],
        Ok(other) => panic!("BAKERY_SCAN_MODE must be 'packed' or 'padded', got '{other}'"),
        Err(_) => vec![ScanMode::Packed, ScanMode::Padded],
    }
}

/// Small deterministic generator so both sides see the same schedule without
/// depending on the `rand` stub from the root test crate.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Register index of `number[pid]` in the flat Bakery/Bakery++ layout,
/// resolved by name so the test cannot drift from the spec's layout.
fn flat_number_idx<A: Algorithm>(alg: &A, pid: usize) -> usize {
    let name = format!("number[{pid}]");
    alg.registers()
        .iter()
        .position(|r| r.name == name)
        .unwrap_or_else(|| panic!("register {name} not found"))
}

// ---------------------------------------------------------------------------
// 1. Spec plane: seeded schedules, per-step invariants, deterministic replay.
// ---------------------------------------------------------------------------

/// Runs `alg` under seeded random schedules with the paper invariants checked
/// after every step, asserts tickets stay within `ticket_bound`, and replays
/// the recorded schedule to the same final state.
fn spec_plane_holds<A: Algorithm>(alg: &A, ticket_bound: u64, steps: u64) {
    for seed in 0..12 {
        let config = RunConfig::<A>::checked(steps);
        let outcome = Simulator::new().run(alg, &mut RandomScheduler::new(seed), &config);
        assert!(
            outcome.report.violations.is_empty(),
            "{} seed {seed}: {:?}",
            alg.name(),
            outcome.report.violations
        );
        assert!(!outcome.report.deadlocked, "{} seed {seed}", alg.name());
        for (pid, number) in outcome.trace.ticket_order() {
            assert!(
                number >= 1 && number <= ticket_bound,
                "{} seed {seed}: pid {pid} drew ticket {number} outside [1, {ticket_bound}]",
                alg.name()
            );
        }
        // Step-for-step determinism: replaying the recorded schedule must
        // reproduce the exact final state and per-process service counts.
        let mut replay = ReplayScheduler::new(outcome.trace.choices());
        let replayed = Simulator::new().run(alg, &mut replay, &config);
        assert!(!replay.diverged(), "{} seed {seed} diverged", alg.name());
        assert_eq!(
            outcome.final_state,
            replayed.final_state,
            "{} seed {seed}: replay reached a different state",
            alg.name()
        );
        assert_eq!(outcome.report.cs_entries, replayed.report.cs_entries);
    }
}

#[test]
fn spec_plane_bakery() {
    // Unbounded-register regime: tickets stay well under u32::MAX in 3000
    // steps, so the NoOverflow invariant doubles as a sanity check.
    spec_plane_holds(&BakerySpec::new(2, u64::from(u32::MAX)), u64::from(u32::MAX), 3_000);
}

#[test]
fn spec_plane_bakery_pp() {
    spec_plane_holds(&BakeryPlusPlusSpec::new(2, 4), 4, 3_000);
    spec_plane_holds(&BakeryPlusPlusSpec::new(3, 2), 2, 3_000);
}

#[test]
fn spec_plane_tree_bakery() {
    let spec = TreeBakerySpec::new(2, 2);
    spec_plane_holds(&spec, spec.bound(), 6_000);
}

#[test]
fn spec_plane_adaptive_handoff() {
    // The handoff spec draws no tickets (its inner locks are abstracted), so
    // the ticket-bound half of the plane is vacuous; what matters here is
    // per-step invariants, deadlock freedom and bit-identical replay, plus
    // the adaptive-specific invariants checked on every step.
    let spec = AdaptiveHandoffSpec::new(3);
    spec_plane_holds(&spec, 1, 4_000);
    for seed in 0..8 {
        let config = RunConfig::<AdaptiveHandoffSpec>::checked(4_000)
            .with_invariant(AdaptiveHandoffSpec::drained_invariant())
            .with_invariant(AdaptiveHandoffSpec::tree_drained_invariant())
            .with_invariant(AdaptiveHandoffSpec::active_count_invariant())
            .with_invariant(AdaptiveHandoffSpec::no_flap_invariant());
        let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
        assert!(
            outcome.report.violations.is_empty(),
            "seed {seed}: {:?}",
            outcome.report.violations
        );
        assert!(!outcome.report.deadlocked, "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// 2. Doorway differential: real split-phase lock vs spec, same schedule.
// ---------------------------------------------------------------------------

/// Outcome of driving one spec process through the Bakery++ doorway.
#[derive(Debug, PartialEq, Eq)]
enum SpecDoorway {
    Ticket(u64),
    Blocked,
    Reset,
}

/// Steps spec process `pid` through one Bakery++ doorway pass, mirroring the
/// real lock's `try_doorway`.  The process must be idle (NCS) or parked at
/// the L1 scan from an earlier `Blocked`/`Reset`.
fn pp_spec_doorway(
    spec: &BakeryPlusPlusSpec,
    state: &mut ProgState,
    pid: usize,
    n: usize,
) -> SpecDoorway {
    // The L1 guard: with no concurrent movers, a register >= M means the
    // scan can never complete — exactly the lock's `Blocked` return.
    if (0..n).any(|q| state.read(flat_number_idx(spec, q)) >= spec.bound()) {
        return SpecDoorway::Blocked;
    }
    assert!(
        state.pc(pid) == pc::NCS || state.pc(pid) == pc::L1_SCAN,
        "pid {pid} must be outside the doorway, at pc {}",
        state.pc(pid)
    );
    let mut budget = 16 * (n as u32 + 2);
    loop {
        let prev_pc = state.pc(pid);
        let succs = spec.successors_vec(state, pid);
        assert_eq!(succs.len(), 1, "doorway phases are deterministic");
        *state = succs.into_iter().next().unwrap();
        if prev_pc == pc::RESET_CHOOSING && state.pc(pid) == pc::L1_SCAN {
            return SpecDoorway::Reset;
        }
        if prev_pc == pc::CLEAR_CHOOSING && state.pc(pid) == pc::SCAN_CHOOSING {
            return SpecDoorway::Ticket(state.read(flat_number_idx(spec, pid)));
        }
        budget -= 1;
        assert!(budget > 0, "doorway did not terminate for pid {pid}");
    }
}

/// Steps spec process `pid` (holding a ticket, currently eligible) through
/// the L2/L3 scans, the critical section and the release write.
fn spec_serve<A: Algorithm>(spec: &A, state: &mut ProgState, pid: usize) {
    let mut budget = 2_000;
    while !spec.in_critical_section(state, pid) {
        let succs = spec.successors_vec(state, pid);
        assert!(
            !succs.is_empty(),
            "{}: pid {pid} blocked while it should be eligible",
            spec.name()
        );
        *state = succs.into_iter().next().unwrap();
        budget -= 1;
        assert!(budget > 0, "serve did not reach the critical section");
    }
    // Exit the critical section and run any release ladder to completion.
    loop {
        let succs = spec.successors_vec(state, pid);
        *state = succs.into_iter().next().unwrap();
        if state.pc(pid) == pc::NCS {
            return;
        }
        budget -= 1;
        assert!(budget > 0, "release did not return to the noncritical section");
    }
}

#[test]
fn bakery_pp_doorway_agrees_with_spec_step_for_step() {
    let n = 2;
    let bound = 4; // small enough that Blocked and Reset both fire
    for mode in scan_modes() {
        for seed in 0..8u64 {
            let lock = BakeryPlusPlusLock::with_bound_and_mode(n, bound, mode);
            let spec = BakeryPlusPlusSpec::new(n, bound);
            let mut state = spec.initial_state();
            let mut rng = Lcg::new(seed);
            // pids currently holding a ticket, in (number, pid) order.
            let mut holders: Vec<(u64, usize)> = Vec::new();
            let mut saw = [false; 3]; // ticket, blocked, reset

            for step in 0..300 {
                let idle: Vec<usize> =
                    (0..n).filter(|p| !holders.iter().any(|&(_, h)| h == *p)).collect();
                let serve =
                    holders.len() == n || (idle.is_empty() || rng.next().is_multiple_of(3));
                if serve && !holders.is_empty() {
                    holders.sort_unstable();
                    let (_, pid) = holders.remove(0);
                    lock.await_turn(pid);
                    lock.release(pid);
                    spec_serve(&spec, &mut state, pid);
                    assert_eq!(
                        state.read(flat_number_idx(&spec, pid)),
                        lock.registers().read_number(pid),
                        "seed {seed} step {step}: release left different registers"
                    );
                } else {
                    let pid = idle[(rng.next() as usize) % idle.len()];
                    let real = lock.try_doorway(pid);
                    let speced = pp_spec_doorway(&spec, &mut state, pid, n);
                    match (&real, &speced) {
                        (DoorwayOutcome::Ticket(a), SpecDoorway::Ticket(b)) => {
                            assert_eq!(a, b, "seed {seed} step {step}: ticket values differ");
                            holders.push((*a, pid));
                            saw[0] = true;
                        }
                        (DoorwayOutcome::Blocked, SpecDoorway::Blocked) => saw[1] = true,
                        (DoorwayOutcome::Reset, SpecDoorway::Reset) => saw[2] = true,
                        other => panic!(
                            "seed {seed} step {step} ({mode:?}): lock and spec disagree: {other:?}"
                        ),
                    }
                }
            }
            assert_eq!(lock.stats().overflow_attempts(), 0);
            assert!(lock.stats().max_ticket() <= bound);
            assert!(saw[0], "seed {seed}: schedule never drew a ticket");
        }
    }
}

#[test]
fn bakery_pp_cap_outcomes_are_reachable_and_agree() {
    // A targeted §3-style alternation drives tickets to the bound so the cap
    // fires, and lock and spec must agree on every doorway outcome, in both
    // scan modes.  Sequential doorways reach the cap only as `Blocked`: the
    // L1 guard and the maximum scan read the same registers, so `Reset`
    // (a maximum at M observed after admission) needs a concurrent doorway.
    // The spec test `reset_branch_fires_on_a_concurrent_ticket_at_m` in
    // bakery-spec drives that interleaving.
    for mode in scan_modes() {
        let n = 2;
        let bound = 3;
        let lock = BakeryPlusPlusLock::with_bound_and_mode(n, bound, mode);
        let spec = BakeryPlusPlusSpec::new(n, bound);
        let mut state = spec.initial_state();
        let mut pending = 0usize;
        let mut saw_cap = false;
        assert_eq!(
            pp_spec_doorway(&spec, &mut state, 0, n),
            SpecDoorway::Ticket(1)
        );
        assert_eq!(lock.try_doorway(0), DoorwayOutcome::Ticket(1));
        for round in 0..60 {
            let entering = 1 - pending;
            let real = lock.try_doorway(entering);
            let speced = pp_spec_doorway(&spec, &mut state, entering, n);
            let agreed_cap = matches!(
                (&real, &speced),
                (DoorwayOutcome::Blocked, SpecDoorway::Blocked)
                    | (DoorwayOutcome::Reset, SpecDoorway::Reset)
            );
            if let (DoorwayOutcome::Ticket(a), SpecDoorway::Ticket(b)) = (&real, &speced) {
                assert_eq!(a, b, "round {round}");
                lock.await_turn(pending);
                lock.release(pending);
                spec_serve(&spec, &mut state, pending);
                pending = entering;
            } else {
                assert!(agreed_cap, "round {round}: {real:?} vs {speced:?}");
                saw_cap = true;
                lock.await_turn(pending);
                lock.release(pending);
                spec_serve(&spec, &mut state, pending);
                // Bakery drained: the blocked process retries successfully.
                let retry_real = lock.try_doorway(entering);
                let retry_spec = pp_spec_doorway(&spec, &mut state, entering, n);
                assert!(retry_real.took_ticket(), "round {round}: {retry_real:?}");
                assert!(matches!(retry_spec, SpecDoorway::Ticket(_)));
                pending = entering;
            }
        }
        assert!(saw_cap, "M = {bound} must hit the cap ({mode:?})");
        assert_eq!(lock.stats().overflow_attempts(), 0);
    }
}

#[test]
fn classic_bakery_overflows_at_the_same_step_as_its_spec() {
    // The §3 alternation on bounded registers: lock and spec must agree on
    // every drawn ticket and then flag the overflow at the same operation
    // with the same attempted value.  (After the overflow the two diverge by
    // design: the spec stores the M+1 sentinel, the lock wraps.)
    for mode in scan_modes() {
        let bound = 4;
        let lock = BakeryLock::with_config(2, bound, mode);
        let spec = BakerySpec::new(2, bound);
        let mut state = spec.initial_state();

        // Drives the classic spec doorway: NCS -> ... -> SCAN_CHOOSING.
        let classic_doorway = |state: &mut ProgState, pid: usize| -> (u64, u64) {
            assert_eq!(state.pc(pid), pc::NCS);
            let mut attempted = 0;
            loop {
                let prev = state.pc(pid);
                if prev == pc::WRITE_TICKET {
                    attempted = state.local(pid, 1) + 1; // LOCAL_MAX + 1
                }
                let succs = spec.successors_vec(state, pid);
                assert_eq!(succs.len(), 1);
                *state = succs.into_iter().next().unwrap();
                if prev == pc::CLEAR_CHOOSING {
                    return (state.read(flat_number_idx(&spec, pid)), attempted);
                }
            }
        };

        assert!(lock.try_doorway(0).took_ticket());
        let _ = classic_doorway(&mut state, 0);
        let mut overflowed = false;
        for round in 0..40 {
            let (leaving, entering) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
            let real = lock.try_doorway(entering);
            let (spec_stored, spec_attempted) = classic_doorway(&mut state, entering);
            match real {
                DoorwayOutcome::Ticket(number) => {
                    assert!(spec_stored <= bound, "spec overflowed before the lock");
                    assert_eq!(number, spec_stored, "round {round} ({mode:?})");
                }
                DoorwayOutcome::Overflowed { attempted, stored } => {
                    assert!(
                        spec_stored > bound,
                        "lock overflowed at round {round} but the spec did not"
                    );
                    assert_eq!(attempted, spec_attempted, "round {round}");
                    assert!(stored <= bound);
                    overflowed = true;
                    break;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
            lock.await_turn(leaving);
            lock.release(leaving);
            spec_serve(&spec, &mut state, leaving);
        }
        assert!(overflowed, "bounded classic Bakery must overflow ({mode:?})");
        assert!(lock.stats().overflow_attempts() > 0);
    }
}

// ---------------------------------------------------------------------------
// 3. Tree path differential: per-level node tickets, real lock vs spec.
// ---------------------------------------------------------------------------

#[test]
fn tree_bakery_per_level_tickets_agree_with_spec() {
    for mode in scan_modes() {
        for seed in 0..6u64 {
            let lock = TreeBakery::with_config(4, 2, mode);
            let spec = TreeBakerySpec::new(2, 2);
            let mut state = spec.initial_state();
            let mut rng = Lcg::new(seed ^ 0xF00D);

            for step in 0..80 {
                let pid = (rng.next() as usize) % 4;

                // Real side: acquire and read the tickets along the path.
                lock.acquire(pid);
                let real_tickets: Vec<u64> = (0..lock.depth())
                    .map(|level| {
                        let (node, slot) = lock.position(pid, level);
                        lock.node(level, node).current_ticket(slot).number
                    })
                    .collect();

                // Spec side: step the same process into the critical section
                // and read the same node registers.
                let mut budget = 2_000;
                while !spec.in_critical_section(&state, pid) {
                    let succs = spec.successors_vec(&state, pid);
                    assert!(!succs.is_empty(), "lone spec process can never block");
                    state = succs.into_iter().next().unwrap();
                    budget -= 1;
                    assert!(budget > 0, "seed {seed} step {step}: spec never entered CS");
                }
                let spec_tickets: Vec<u64> = (0..spec.levels())
                    .map(|level| {
                        let (node, slot) = spec.position(pid, level);
                        state.read(spec.number_idx(level, node, slot))
                    })
                    .collect();
                assert_eq!(
                    real_tickets, spec_tickets,
                    "seed {seed} step {step} pid {pid} ({mode:?}): path tickets diverged"
                );

                // Release on both sides; all path registers must drain to 0.
                lock.release(pid);
                while state.pc(pid) != pc::NCS {
                    let succs = spec.successors_vec(&state, pid);
                    state = succs.into_iter().next().unwrap();
                }
                for level in 0..lock.depth() {
                    let (node, slot) = lock.position(pid, level);
                    assert_eq!(lock.node(level, node).current_ticket(slot).number, 0);
                    let (snode, sslot) = spec.position(pid, level);
                    assert_eq!(state.read(spec.number_idx(level, snode, sslot)), 0);
                }
            }
            assert_eq!(lock.aggregate_snapshot().overflow_attempts, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Replay determinism of the canonicalized explorer.
// ---------------------------------------------------------------------------

#[test]
fn canonicalized_explorer_replays_deterministically() {
    // The symmetry-compressed explorer must be exactly reproducible: two
    // runs of the same configuration yield the identical canonical state
    // count AND the identical frontier order (pinned by the discovery-order
    // digest).  The CI matrix runs this test under both BAKERY_SCAN_MODE
    // values — the spec-plane exploration must not depend on how the *real*
    // locks scan, so the counts must also agree across the matrix legs.
    use bakery_suite::mc::ModelChecker;

    // The scan-mode env var is the conformance suite's "seed" for the
    // real-lock side; touching it here documents that the spec plane
    // deliberately ignores it.
    let _ = scan_modes();

    for active in [None, Some([0usize, 1]), Some([0, 2])] {
        let spec = match active {
            Some(pids) => TreeBakerySpec::new(2, 2).with_active_processes(&pids),
            None => TreeBakerySpec::new(2, 2),
        };
        let run = || {
            ModelChecker::new(&spec)
                .with_paper_invariants()
                .with_symmetry_reduction(true)
                .with_max_states(60_000)
                .run()
        };
        let (first, second) = (run(), run());
        assert_eq!(first.states, second.states, "active {active:?}");
        assert_eq!(
            first.canonical_states, second.canonical_states,
            "active {active:?}"
        );
        assert_eq!(
            first.frontier_digest, second.frontier_digest,
            "active {active:?}: frontier order must be identical"
        );
        assert_ne!(first.frontier_digest, 0);
        // Scan-mode independence: the counts for the full 4-process prefix
        // are pinned, so the packed and padded matrix legs provably agree.
        if active.is_none() {
            assert_eq!(first.states, 60_000);
            assert_eq!(first.canonical_states, 10_337);
        }
    }
}

// ---------------------------------------------------------------------------
// 5. Invariant differential under real threads.
// ---------------------------------------------------------------------------

use bakery_suite::baselines::testutil::assert_mutual_exclusion as stress;

/// The adaptive lock through the whole conformance lens, in both scan modes:
/// the real migration fires mid-workload (under threads, like the spec's
/// nondeterministic trigger), mutual exclusion and overflow freedom hold
/// across the handoff, and afterwards both planes are quiescently zero.
#[test]
fn adaptive_real_lock_crosses_the_migration_under_threads() {
    for mode in scan_modes() {
        let lock = Arc::new(AdaptiveBakery::with_config(4, mode, 2, u64::MAX));
        let in_cs = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let lock = Arc::clone(&lock);
                let in_cs = Arc::clone(&in_cs);
                scope.spawn(move || {
                    let slot = lock.register().unwrap();
                    for i in 0..250 {
                        if t == 0 && i == 125 {
                            // The threshold crossing, mid-workload.
                            lock.trigger_migration();
                        }
                        let _g = lock.lock(&slot);
                        let inside = in_cs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        assert_eq!(inside, 0, "mutual exclusion across the handoff");
                        in_cs.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(lock.has_migrated(), "{mode:?}");
        assert_eq!(lock.stats().cs_entries(), 1_000, "{mode:?}");

        // The PR 3 facade-only rule survives the flat->tree migration: the
        // aggregate folds both planes' counters but counts entries exactly
        // once, at the adaptive facade — neither zero nor double.
        let aggregate = lock.aggregate_snapshot();
        assert_eq!(aggregate.cs_entries, 1_000, "{mode:?}: facade-only cs_entries");
        assert_eq!(aggregate.overflow_attempts, 0, "{mode:?}");
        assert!(aggregate.max_ticket <= lock.register_bound().unwrap(), "{mode:?}");

        // Quiescence: every register of both planes drained to zero.
        let flat = lock.flat().registers();
        for pid in 0..flat.len() {
            assert_eq!(flat.read_number(pid), 0, "{mode:?}");
            assert!(!flat.read_choosing(pid), "{mode:?}");
        }
        let tree = lock.tree();
        for level in 0..tree.depth() {
            for node in 0..tree.nodes_at(level) {
                let file = tree.node(level, node).registers();
                for slot in 0..file.len() {
                    assert_eq!(file.read_number(slot), 0, "{mode:?}");
                    assert!(!file.read_choosing(slot), "{mode:?}");
                }
            }
        }
    }
}

/// Session churn over the adaptive lock, crossing the capacity threshold
/// mid-workload: the leased-capacity trigger (not the manual one) fires, no
/// recycled slot ever aliases, and the facade-only cs_entries rule is pinned
/// through the handoff in both scan modes.
#[test]
fn adaptive_session_churn_pins_facade_cs_entries_across_migration() {
    for mode in scan_modes() {
        let adaptive = Arc::new(AdaptiveBakery::with_config(4, mode, 4, u64::MAX));
        let plane = SessionPlane::new(
            Arc::clone(&adaptive) as Arc<dyn RawMutexAlgorithm>
        );
        let live = std::sync::Mutex::new(std::collections::HashSet::new());
        let in_cs = std::sync::atomic::AtomicU64::new(0);
        // Rush: all four seats leased at once, so the capacity trigger is
        // guaranteed to fire during these acquisitions; then churn.
        let all_attached = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let plane = &plane;
                let live = &live;
                let in_cs = &in_cs;
                let all_attached = &all_attached;
                scope.spawn(move || {
                    for round in 0..40 {
                        let session = plane.attach();
                        if round == 0 {
                            all_attached.wait();
                        }
                        assert!(
                            live.lock().unwrap().insert(session.pid()),
                            "slot aliasing on pid {}",
                            session.pid()
                        );
                        for _ in 0..5 {
                            let _g = session.lock();
                            assert_eq!(
                                in_cs.fetch_add(1, std::sync::atomic::Ordering::SeqCst),
                                0
                            );
                            in_cs.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                        }
                        assert!(live.lock().unwrap().remove(&session.pid()));
                        drop(session);
                    }
                });
            }
        });
        assert!(
            adaptive.has_migrated(),
            "{mode:?}: the leased-capacity trigger must fire mid-churn"
        );
        let stats = adaptive.stats();
        assert_eq!(stats.attaches(), 160, "{mode:?}");
        assert_eq!(stats.detaches(), 160, "{mode:?}");
        assert_eq!(stats.cs_entries(), 800, "{mode:?}");
        assert_eq!(
            adaptive.aggregate_snapshot().cs_entries,
            800,
            "{mode:?}: cs_entries counted once at the adaptive facade, never doubled during the handoff"
        );
        assert_eq!(plane.live_sessions(), 0, "{mode:?}");
    }
}

/// The full round trip through the conformance lens, in both scan modes: a
/// rush leases every seat (the capacity trigger fires, flat→tree), a churn
/// era holds the lock loud and tree-resident, a subside era drops below the
/// low watermark until the hysteresis band fires the reverse (tree→flat) —
/// with mutual exclusion asserted across both handoffs, the facade-only
/// `cs_entries` rule pinned over the whole cycle, and the post-round-trip
/// flat plane required to agree **step-for-step** with a *fresh* Bakery++
/// specification on doorway outcomes and ticket values (a completed round
/// trip is observationally indistinguishable from a fresh flat lock).
#[test]
fn adaptive_round_trip_pins_facade_cs_entries_and_doorway_agreement() {
    for mode in scan_modes() {
        let quiet_period = 6;
        let adaptive = Arc::new(AdaptiveBakery::with_hysteresis(
            4,
            mode,
            3,
            u64::MAX,
            2,
            quiet_period,
        ));
        let plane = SessionPlane::new(Arc::clone(&adaptive) as Arc<dyn RawMutexAlgorithm>);
        let in_cs = std::sync::atomic::AtomicU64::new(0);
        let cs_done = std::sync::atomic::AtomicU64::new(0);
        // Rush + churn: all four seats leased at once and held for the whole
        // era, so live sessions sit at 4 — above the capacity threshold (the
        // forward trigger must fire) and above the low watermark (the
        // reverse must NOT fire, every release is loud).
        let all_attached = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let plane = &plane;
                let in_cs = &in_cs;
                let cs_done = &cs_done;
                let all_attached = &all_attached;
                scope.spawn(move || {
                    let session = plane.attach();
                    all_attached.wait();
                    for _ in 0..30 {
                        let _g = session.lock();
                        assert_eq!(
                            in_cs.fetch_add(1, std::sync::atomic::Ordering::SeqCst),
                            0,
                            "mutual exclusion across the forward handoff"
                        );
                        cs_done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        in_cs.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                    }
                    drop(session);
                });
            }
        });
        assert_eq!(
            adaptive.stats().migrations_forward(),
            1,
            "{mode:?}: the rush must fire the forward trigger exactly once"
        );
        assert!(
            adaptive.stats().migrations_reverse() <= 1,
            "{mode:?}: at most one reverse (the era's tail may already have gone quiet)"
        );

        // Subside: one client at a time (live = 1, below the low watermark of
        // 2), until the quiet streak arms and completes the reverse handoff.
        // (If the churn era finished unevenly enough that its tail already
        // migrated back, the loop is a no-op — the assertions below hold
        // either way.)
        let mut subside_sessions = 0u64;
        while adaptive.has_migrated() {
            let session = plane.attach();
            let _g = session.lock();
            assert_eq!(in_cs.fetch_add(1, std::sync::atomic::Ordering::SeqCst), 0);
            cs_done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            in_cs.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
            drop(_g);
            drop(session);
            subside_sessions += 1;
            assert!(
                subside_sessions <= 4 * quiet_period,
                "{mode:?}: the reverse migration never fired"
            );
        }
        assert_eq!(adaptive.stats().migrations_reverse(), 1, "{mode:?}");
        assert_eq!(adaptive.cycle(), 1, "{mode:?}: exactly one full round trip");
        assert!(!adaptive.has_migrated(), "{mode:?}: flat-resident again");

        // The facade-only cs_entries rule, pinned across the FULL cycle.
        let total = cs_done.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(total, 120 + subside_sessions, "{mode:?}");
        assert_eq!(adaptive.stats().cs_entries(), total, "{mode:?}");
        assert_eq!(
            adaptive.aggregate_snapshot().cs_entries,
            total,
            "{mode:?}: cs_entries counted once at the facade, never doubled by either handoff"
        );
        assert_eq!(adaptive.aggregate_snapshot().overflow_attempts, 0, "{mode:?}");
        assert_eq!(plane.live_sessions(), 0, "{mode:?}");

        // Doorway differential: the post-round-trip flat plane vs a FRESH
        // Bakery++ spec, step for step.  Any residue the reverse drain left
        // in the flat registers would break the very first outcome.
        let flat = adaptive.flat();
        let spec = BakeryPlusPlusSpec::new(4, flat.bound());
        let mut state = spec.initial_state();
        let mut rng = Lcg::new(0xC1C1E ^ total);
        let mut holders: Vec<(u64, usize)> = Vec::new();
        for step in 0..60 {
            let idle: Vec<usize> =
                (0..4).filter(|p| !holders.iter().any(|&(_, h)| h == *p)).collect();
            let serve = holders.len() == 4 || (idle.is_empty() || rng.next().is_multiple_of(3));
            if serve && !holders.is_empty() {
                holders.sort_unstable();
                let (_, pid) = holders.remove(0);
                flat.await_turn(pid);
                flat.release(pid);
                spec_serve(&spec, &mut state, pid);
            } else {
                let pid = idle[(rng.next() as usize) % idle.len()];
                let real = flat.try_doorway(pid);
                let speced = pp_spec_doorway(&spec, &mut state, pid, 4);
                match (&real, &speced) {
                    (DoorwayOutcome::Ticket(a), SpecDoorway::Ticket(b)) => {
                        assert_eq!(
                            a, b,
                            "{mode:?} step {step}: post-round-trip flat plane drew a \
                             different ticket than a fresh spec"
                        );
                        holders.push((*a, pid));
                    }
                    (DoorwayOutcome::Blocked, SpecDoorway::Blocked)
                    | (DoorwayOutcome::Reset, SpecDoorway::Reset) => {}
                    other => panic!(
                        "{mode:?} step {step}: post-round-trip flat plane and fresh \
                         spec disagree: {other:?}"
                    ),
                }
            }
        }
        holders.sort_unstable();
        for (_, pid) in holders {
            flat.await_turn(pid);
            flat.release(pid);
        }
    }
}

#[test]
fn real_locks_match_the_spec_planes_invariant_profile() {
    // The spec plane established: no overflow attempts, tickets within M,
    // mutual exclusion.  The real locks under genuine contention must report
    // exactly the same profile, in both scan modes.
    for mode in scan_modes() {
        let pp = Arc::new(BakeryPlusPlusLock::with_bound_and_mode(4, 4, mode));
        let total = stress(Arc::clone(&pp), 4, 250);
        assert_eq!(total, 1_000);
        assert_eq!(pp.stats().overflow_attempts(), 0);
        assert!(pp.stats().max_ticket() <= 4);

        let adaptive = Arc::new(AdaptiveBakery::with_config(4, mode, 4, u64::MAX));
        let total = stress(
            Arc::clone(&adaptive) as Arc<dyn RawMutexAlgorithm>,
            4,
            250,
        );
        assert_eq!(total, 1_000);
        let aggregate = adaptive.aggregate_snapshot();
        assert_eq!(aggregate.overflow_attempts, 0);
        assert!(aggregate.max_ticket <= adaptive.register_bound().unwrap());

        let tree = Arc::new(TreeBakery::with_config(4, 2, mode));
        let total = stress(Arc::clone(&tree), 4, 250);
        assert_eq!(total, 1_000);
        let aggregate = tree.aggregate_snapshot();
        assert_eq!(aggregate.overflow_attempts, 0);
        assert!(aggregate.max_ticket <= tree.bound());
        // Every node register is quiescently zero after the run.
        for level in 0..tree.depth() {
            for node in 0..tree.nodes_at(level) {
                let file = tree.node(level, node).registers();
                for slot in 0..file.len() {
                    assert_eq!(file.read_number(slot), 0);
                    assert!(!file.read_choosing(slot));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 5. Crash-rule conformance of the try path (assumptions 1.5–1.7): a failed
//    `try_acquire` must be indistinguishable from a crash that restarted in
//    the noncritical section — registers (and packed-mirror lanes) zero, and
//    the pid's next doorway identical to a brand-new process's.
// ---------------------------------------------------------------------------

/// Asserts pid's `choosing`/`number` registers *and* their packed-mirror
/// lanes read zero on `file`.
fn assert_pid_file_zero(file: &bakery_suite::locks::RegisterFile, pid: usize, ctx: &str) {
    assert_eq!(file.read_number(pid), 0, "{ctx}: number residue");
    assert!(!file.read_choosing(pid), "{ctx}: choosing residue");
    if let Some(packed) = file.packed() {
        assert_eq!(packed.number(pid), 0, "{ctx}: packed number lane residue");
        assert!(!packed.choosing(pid), "{ctx}: packed choosing bit residue");
    }
}

#[test]
fn failed_try_acquire_leaves_no_residue_across_the_registry() {
    use bakery_suite::baselines::registry::{AlgorithmId, LockFactory};
    for mode in scan_modes() {
        let factory = LockFactory::new().with_bound(4).with_scan_mode(mode);
        for &id in AlgorithmId::all() {
            let n = id.entry().exact_n.unwrap_or(2);
            let lock = factory.build(id, n);
            // Algorithms without a real try path keep the conservative
            // always-fail default — detectable as an uncontended failure —
            // and have no backout to test.
            if !lock.try_acquire(0) {
                continue;
            }
            lock.release(0);
            // Contended: pid 1 cannot enter while pid 0 holds the CS, and
            // its failed try must back fully out.
            lock.acquire(0);
            assert!(!lock.try_acquire(1), "{id:?} ({mode:?}): mutual exclusion");
            lock.release(0);
            // No residue in either direction: the failed pid enters freely,
            // and the old holder re-enters freely after it.
            assert!(
                lock.try_acquire(1),
                "{id:?} ({mode:?}): backout residue blocked the retry"
            );
            lock.release(1);
            lock.acquire(0);
            lock.release(0);
        }
    }
}

// ---------------------------------------------------------------------------
// 6. Wait-strategy conformance (PR 7): how a process *waits* must never
//    change what the algorithm *does*.  The same seeded schedule under
//    `Spin`, `Yield` and `Park` must produce bit-identical doorway traces,
//    and the Park strategy must honour the episode policy — a fresh wait
//    episode starts in its spin phase, so uncontended paths never park.
// ---------------------------------------------------------------------------

/// One seeded sequential doorway schedule, recorded as a comparable trace.
fn doorway_trace(lock: &BakeryPlusPlusLock, n: usize, seed: u64) -> Vec<(String, u64)> {
    let mut rng = Lcg::new(seed);
    let mut holders: Vec<(u64, usize)> = Vec::new();
    let mut trace = Vec::new();
    for _ in 0..200 {
        let idle: Vec<usize> =
            (0..n).filter(|p| !holders.iter().any(|&(_, h)| h == *p)).collect();
        let serve = holders.len() == n || (idle.is_empty() || rng.next().is_multiple_of(3));
        if serve && !holders.is_empty() {
            holders.sort_unstable();
            let (_, pid) = holders.remove(0);
            lock.await_turn(pid);
            lock.release(pid);
            trace.push(("serve".into(), pid as u64));
        } else {
            let pid = idle[(rng.next() as usize) % idle.len()];
            match lock.try_doorway(pid) {
                DoorwayOutcome::Ticket(t) => {
                    holders.push((t, pid));
                    trace.push(("ticket".into(), t));
                }
                DoorwayOutcome::Blocked => trace.push(("blocked".into(), 0)),
                DoorwayOutcome::Reset => trace.push(("reset".into(), 0)),
                DoorwayOutcome::Overflowed { attempted, .. } => {
                    trace.push(("overflow".into(), attempted));
                }
            }
        }
    }
    holders.sort_unstable();
    for (_, pid) in holders {
        lock.await_turn(pid);
        lock.release(pid);
    }
    trace
}

#[test]
fn wait_strategies_are_behaviour_invariant() {
    use bakery_suite::locks::wait::strategy_by_name;
    for mode in scan_modes() {
        for seed in 0..6u64 {
            let traces: Vec<Vec<(String, u64)>> = ["spin", "yield", "park"]
                .iter()
                .map(|name| {
                    let strategy =
                        strategy_by_name(name).expect("built-in strategy name");
                    let lock =
                        BakeryPlusPlusLock::with_bound_mode_and_strategy(3, 4, mode, strategy);
                    let trace = doorway_trace(&lock, 3, seed);
                    assert_eq!(lock.stats().overflow_attempts(), 0, "{name} ({mode:?})");
                    assert!(lock.stats().max_ticket() <= 4, "{name} ({mode:?})");
                    trace
                })
                .collect();
            assert_eq!(
                traces[0], traces[1],
                "seed {seed} ({mode:?}): spin and yield traces diverged"
            );
            assert_eq!(
                traces[0], traces[2],
                "seed {seed} ({mode:?}): spin and park traces diverged"
            );
        }
    }
    // Under real contention the strategies must also agree on the observable
    // profile: same entry totals, same overflow freedom, mutual exclusion.
    for name in ["spin", "yield", "park"] {
        let strategy = bakery_suite::locks::wait::strategy_by_name(name).unwrap();
        let lock = Arc::new(BakeryPlusPlusLock::with_bound_mode_and_strategy(
            4,
            8,
            ScanMode::Packed,
            strategy,
        ));
        let total = stress(Arc::clone(&lock), 4, 250);
        assert_eq!(total, 1_000, "{name}");
        assert_eq!(lock.stats().overflow_attempts(), 0, "{name}");
    }
}

#[test]
fn park_episode_policy_uncontended_paths_never_park() {
    use bakery_suite::locks::wait::Park;
    // The episode policy's observable half: every wait episode starts with a
    // fresh token in its spin phase, so a sequential workload — where no
    // predicate ever holds long enough to escalate — must record zero parks
    // and zero wait rounds, under every lock in the headline family.
    let park = Arc::new(Park::new());
    let pp = BakeryPlusPlusLock::with_bound_mode_and_strategy(
        2,
        8,
        ScanMode::Packed,
        park.clone(),
    );
    for _ in 0..50 {
        pp.acquire(0);
        pp.release(0);
        pp.acquire(1);
        pp.release(1);
    }
    assert_eq!(park.parks(), 0, "uncontended bakery++ must not park");
    assert_eq!(park.wait_calls(), 0, "uncontended bakery++ must not wait at all");

    let park = Arc::new(Park::new());
    let adaptive = AdaptiveBakery::with_hysteresis_and_strategy(
        2,
        ScanMode::Packed,
        usize::MAX,
        u64::MAX,
        1,
        1_000_000,
        park.clone(),
    );
    for _ in 0..50 {
        adaptive.acquire(0);
        adaptive.release(0);
    }
    assert_eq!(park.parks(), 0, "uncontended adaptive must not park");
}

#[test]
fn failed_try_acquire_resets_registers_and_matches_a_fresh_spec_doorway() {
    let n = 2;
    let bound = 4;
    for mode in scan_modes() {
        // --- Bakery++: registers + packed mirror zero, then the crashed
        //     pid's next doorway replayed against a FRESH spec.
        let lock = BakeryPlusPlusLock::with_bound_and_mode(n, bound, mode);
        lock.acquire(0);
        assert!(!lock.try_acquire(1), "{mode:?}: contended try must fail");
        assert_pid_file_zero(lock.registers(), 1, &format!("bakery++ {mode:?}"));
        lock.release(0);
        // Assumption 1.5: the backed-out pid restarts "as a new process".
        // Its next doorway on the real lock must agree step-for-step with a
        // fresh spec started from the all-zero initial state — any surviving
        // residue would surface as a diverging ticket value.
        let spec = BakeryPlusPlusSpec::new(n, bound);
        let mut state = spec.initial_state();
        match (lock.try_doorway(1), pp_spec_doorway(&spec, &mut state, 1, n)) {
            (DoorwayOutcome::Ticket(real), SpecDoorway::Ticket(speced)) => {
                assert_eq!(real, speced, "{mode:?}: post-backout doorway diverged");
                assert_eq!(real, 1, "{mode:?}: a fresh doorway draws ticket 1");
            }
            other => panic!("{mode:?}: lock and fresh spec disagree: {other:?}"),
        }
        lock.await_turn(1);
        lock.release(1);

        // --- classic Bakery: same doorway registers, same crash rule.
        let classic = BakeryLock::with_config(n, bound, mode);
        classic.acquire(0);
        assert!(!classic.try_acquire(1), "{mode:?}");
        assert_pid_file_zero(classic.registers(), 1, &format!("bakery {mode:?}"));
        classic.release(0);
        classic.acquire(1);
        classic.release(1);

        // --- TreeBakery: the backout must drain every engaged level of the
        //     loser's path, leaf to root, without touching the holder's.
        let tree = TreeBakery::with_config(4, 2, mode);
        tree.acquire(0);
        assert!(!tree.try_acquire(1), "{mode:?}: sibling blocked at the leaf");
        // The loser's exclusive leaf slot must be clean.  Its *upper*-level
        // slots are shared with the winning sibling — pid 0's root ticket
        // lives in the very slot pid 1 would have used — so they are checked
        // for the holder's ticket instead: the backout must not have wiped
        // a shared slot it never engaged.
        let (leaf_node, leaf_slot) = tree.position(1, 0);
        assert_pid_file_zero(
            tree.node(0, leaf_node).registers(),
            leaf_slot,
            &format!("tree leaf {mode:?}"),
        );
        let (root_node, root_slot) = tree.position(0, tree.depth() - 1);
        assert_ne!(
            tree.node(tree.depth() - 1, root_node)
                .registers()
                .read_number(root_slot),
            0,
            "{mode:?}: backout wiped the holder's root ticket"
        );
        tree.release(0);
        // Quiescent: with the holder gone, the loser's whole path (leaf and
        // the shared upper slots) reads zero.
        for level in 0..tree.depth() {
            let (node, slot) = tree.position(1, level);
            assert_pid_file_zero(
                tree.node(level, node).registers(),
                slot,
                &format!("tree level {level} post-release {mode:?}"),
            );
        }
        tree.acquire(1);
        tree.release(1);

        // --- AdaptiveBakery (flat-resident): the failed try backs out of
        //     the flat plane and withdraws its announcement.
        let adaptive = AdaptiveBakery::with_mode(n, mode);
        adaptive.acquire(0);
        assert!(!adaptive.try_acquire(1), "{mode:?}");
        assert_pid_file_zero(
            adaptive.flat().registers(),
            1,
            &format!("adaptive flat {mode:?}"),
        );
        adaptive.release(0);
        adaptive.acquire(1);
        adaptive.release(1);
    }
}
