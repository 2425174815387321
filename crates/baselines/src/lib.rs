//! # bakery-baselines
//!
//! Every mutual-exclusion algorithm the Bakery++ paper positions itself
//! against, implemented as real, atomics-based locks behind the same
//! object-safe [`RawMutexAlgorithm`] trait as the headline locks in
//! `bakery-core`.  Having the baselines live means the paper's comparative
//! claims (Section 4 and Section 7) can be *measured* rather than quoted:
//!
//! | module | algorithm | paper's framing |
//! |---|---|---|
//! | [`peterson`] | Peterson's 2-process algorithm | uses a shared multi-writer `turn` variable |
//! | [`tournament`] | Peterson tournament tree for N processes | ditto, O(log N) path |
//! | [`filter`] | the Filter lock (Peterson generalisation) | shared multi-writer `victim[]` |
//! | [`szymanski`] | Szymanski's FCFS algorithm | "much more complicated than Bakery++", 2 more shared values per process |
//! | [`black_white`] | Taubenfeld's Black-White Bakery | bounded via an extra shared colour bit (approach 2) |
//! | [`dijkstra`] | Dijkstra's 1965 algorithm | the original solution, not FCFS, all processes write `k` |
//! | [`ticket_lock`] | fetch-and-add ticket lock | "not a true mutual exclusion algorithm": relies on atomic RMW |
//! | [`spin`] | TAS / TTAS spin locks | ditto |
//!
//! The paper's approach 1 — a bounded Bakery on modular tickets with
//! redefined `<` and `maximum` — has no baseline here.  The earlier
//! `modulo-bakery` compared tickets by forward distance `≤ ring / 2`, so two
//! live tickets exactly half a ring apart each preceded the other and both
//! processes waited forever; concurrent doorways do produce such pairs.
//! [`black_white`] is the suite's bounded-bakery baseline.
//!
//! All locks follow the conventions of `bakery-core`: process slots, RAII
//! guards, SeqCst protocol accesses, [`LockStats`] counters and a
//! `shared_word_count()` report used by the spatial-complexity experiment
//! (**E6**).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod black_white;
pub mod dijkstra;
pub mod filter;
pub mod peterson;
pub mod registry;
pub mod spin;
pub mod szymanski;
pub mod ticket_lock;
pub mod tournament;

pub use black_white::BlackWhiteBakeryLock;
pub use dijkstra::DijkstraLock;
pub use filter::FilterLock;
pub use peterson::PetersonLock;
pub use registry::{all_algorithms, AlgorithmId, LockFactory};
pub use spin::{TasLock, TtasLock};
pub use szymanski::SzymanskiLock;
pub use ticket_lock::TicketLock;
pub use tournament::TournamentLock;

// Re-export the traits so downstream users only need one crate in scope.
pub use bakery_core::{LockStats, RawMutexAlgorithm, Slot};

/// Expands to the [`RawMutexAlgorithm`] accessor methods for a lock struct
/// that stores its slot allocator in a field named `slots`, its statistics
/// in `stats` and its [`bakery_core::wait::WaitHandle`] in `waits`.  Invoked
/// *inside* each lock's `impl RawMutexAlgorithm` block, so every algorithm
/// has exactly one trait impl and zero facade boilerplate.
macro_rules! lock_accessors {
    () => {
        fn slot_allocator(&self) -> &std::sync::Arc<bakery_core::slots::SlotAllocator> {
            &self.slots
        }

        fn stats(&self) -> &bakery_core::LockStats {
            &self.stats
        }

        fn wait_handle(&self) -> Option<&bakery_core::wait::WaitHandle> {
            Some(&self.waits)
        }

        fn as_raw(&self) -> &dyn bakery_core::RawMutexAlgorithm {
            self
        }
    };
}
pub(crate) use lock_accessors;

/// Shared test/stress utilities.
///
/// Exposed (hidden from docs) so the workspace-level integration tests and the
/// benchmark harness can reuse the same mutual-exclusion stress routine the
/// unit tests use.
#[doc(hidden)]
pub mod testutil {
    use bakery_core::sync::{AtomicU64, Ordering};
    use std::sync::Arc;

    use bakery_core::RawMutexAlgorithm;

    /// Runs `threads` real threads, each entering the critical section
    /// `iterations` times, and asserts mutual exclusion throughout.
    ///
    /// Returns the total number of critical-section entries observed.
    /// `L` may be unsized (`dyn RawMutexAlgorithm + Send + Sync`), so the
    /// integration suites can stress factory-built locks too.
    pub fn assert_mutual_exclusion<L>(lock: Arc<L>, threads: usize, iterations: u64) -> u64
    where
        L: RawMutexAlgorithm + Send + Sync + ?Sized + 'static,
    {
        let counter = Arc::new(AtomicU64::new(0));
        let in_cs = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                let in_cs = Arc::clone(&in_cs);
                scope.spawn(move || {
                    let slot = lock.register().expect("a free slot");
                    for _ in 0..iterations {
                        let _guard = lock.lock(&slot);
                        let inside = in_cs.fetch_add(1, Ordering::SeqCst); // mem: baseline-seqcst
                        assert_eq!(inside, 0, "mutual exclusion violated");
                        counter.fetch_add(1, Ordering::SeqCst); // mem: baseline-seqcst
                        in_cs.fetch_sub(1, Ordering::SeqCst); // mem: baseline-seqcst
                    }
                });
            }
        });
        counter.load(Ordering::SeqCst) // mem: baseline-seqcst
    }
}
