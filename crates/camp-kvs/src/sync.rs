//! Poison-recovering lock helper and the connection-slot gauge.
//!
//! The server holds shard locks only around store operations that maintain
//! their own invariants, so a thread that panics while holding one (a
//! reactor worker, the persistence thread, the metrics listener) must not
//! wedge every later request on a `PoisonError`. Recovery used to be
//! silent, which made such a panic invisible; every recovery now bumps a
//! process-global counter (exported as
//! `camp_lock_poison_recovered_total` / `STAT lock_poison_recovered`) and
//! logs a warning, so "the cache survived a panic" is observable instead
//! of inferred.
//!
//! [`ConnGauge`] is the single authority for the `max_conns` cap: every
//! reactor worker reserves a slot through the same compare-exchange loop,
//! so the cap is exact under accept bursts spread over several listeners.
//! (Checking the count and incrementing it separately over-admits under a
//! burst — a race the `camp-check` reservation harness below catches in
//! its mutated form.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use camp_check::sync::atomic::AtomicUsize;
use camp_telemetry::{kvlog, LogLevel};

/// Poisoned-mutex recoveries since process start (process-global: a
/// poison event is a property of the process, not of one store).
static POISON_RECOVERED: AtomicU64 = AtomicU64::new(0);

/// Locks `mutex`, recovering the guard if a previous holder panicked.
/// Each recovery is counted and logged.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            // ordering: Relaxed — statistics counter.
            let total = POISON_RECOVERED.fetch_add(1, Ordering::Relaxed) + 1;
            kvlog!(
                LogLevel::Warn,
                "lock_poison_recovered",
                total = total,
                hint = "a thread panicked while holding this lock",
            );
            poisoned.into_inner()
        }
    }
}

/// Poisoned-mutex recoveries since process start.
pub(crate) fn poison_recovered_total() -> u64 {
    // ordering: Relaxed — statistics counter.
    POISON_RECOVERED.load(Ordering::Relaxed)
}

/// The live-connection gauge enforcing `max_conns` (0 = unlimited).
///
/// Admission is a reservation: [`ConnGauge::try_reserve`] atomically
/// claims a slot or refuses, so N threads bursting against a cap of K
/// admit exactly `min(N, K)` — never K+1. Every admitted connection must
/// eventually pair the reservation with one [`ConnGauge::release`].
#[derive(Debug)]
pub(crate) struct ConnGauge {
    live: AtomicUsize,
    cap: usize,
}

impl ConnGauge {
    /// A gauge admitting at most `cap` concurrent connections (0 = no cap).
    pub(crate) const fn new(cap: usize) -> ConnGauge {
        ConnGauge {
            live: AtomicUsize::new(0),
            cap,
        }
    }

    /// Atomically reserves one slot; `false` means the cap is reached and
    /// nothing was reserved.
    pub(crate) fn try_reserve(&self) -> bool {
        if self.cap == 0 {
            // ordering: Relaxed — pure counter when uncapped; connection
            // state is transferred through the accept handoff, not here.
            self.live.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        // ordering: Relaxed(x2) — the CAS only needs atomicity: the gauge
        // carries no payload, it is the payload. Acquire/Release would
        // order nothing that the accept handoff doesn't already order.
        self.live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                (live < self.cap).then_some(live + 1)
            })
            .is_ok()
    }

    /// Returns a reserved slot. Must be called exactly once per successful
    /// [`ConnGauge::try_reserve`].
    pub(crate) fn release(&self) {
        // ordering: Relaxed — counter; see `try_reserve`.
        let prev = self.live.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "release without a matching reserve");
    }

    /// Currently reserved slots.
    pub(crate) fn live(&self) -> usize {
        // ordering: Relaxed — monitoring read; see `try_reserve`.
        self.live.load(Ordering::Relaxed)
    }
}

/// The pre-gauge admission check exactly as the legacy accept loop shipped
/// it: read the count, compare, then increment separately. Kept (model
/// builds only) as the mutation the reservation harness must catch — two
/// racing accepts can both pass the comparison and over-admit.
#[cfg(camp_check)]
impl ConnGauge {
    pub(crate) fn try_reserve_mutated_check_then_add(&self) -> bool {
        // ordering: SeqCst(x2) — the strongest orderings on purpose: the
        // over-admission is a lost-atomicity bug no ordering can fix.
        if self.cap > 0 && self.live.load(Ordering::SeqCst) >= self.cap {
            return false;
        }
        // MUTATION: the check above is not atomic with this increment.
        self.live.fetch_add(1, Ordering::SeqCst);
        true
    }
}

#[cfg(all(test, camp_check))]
mod model_tests {
    use std::sync::atomic::{AtomicUsize as PlainUsize, Ordering as PlainOrdering};
    use std::sync::Arc;

    use camp_check::Checker;

    use super::ConnGauge;

    struct Burst {
        gauge: ConnGauge,
        admitted: PlainUsize, // plain atomic: out-of-band result tally
    }

    fn burst(cap: usize) -> impl Fn() -> Burst {
        move || Burst {
            gauge: ConnGauge::new(cap),
            admitted: PlainUsize::new(0),
        }
    }

    fn accepter(b: &Arc<Burst>) {
        if b.gauge.try_reserve() {
            b.admitted.fetch_add(1, PlainOrdering::Relaxed);
        }
    }

    /// Property: a 3-thread accept burst against a cap of 2 admits
    /// exactly 2, over every interleaving.
    #[test]
    fn burst_against_cap_reserves_exactly_the_cap() {
        Checker::new()
            .preemption_bound(2)
            .check_threads_setup(
                burst(2),
                vec![
                    Box::new(|b: Arc<Burst>| accepter(&b)),
                    Box::new(|b: Arc<Burst>| accepter(&b)),
                    Box::new(|b: Arc<Burst>| accepter(&b)),
                ],
                |b: Arc<Burst>| {
                    assert_eq!(
                        b.admitted.load(PlainOrdering::Relaxed),
                        2,
                        "cap of 2 must admit exactly 2 of the 3-thread burst"
                    );
                    assert_eq!(b.gauge.live(), 2);
                },
            )
            .assert_pass("burst vs cap reservation");
    }

    /// Property: a released slot is immediately reusable — reserve,
    /// release and a racing second accepter never leave the gauge above
    /// the cap.
    #[test]
    fn release_makes_the_slot_reusable_and_never_exceeds_cap() {
        Checker::new()
            .preemption_bound(2)
            .check_threads_setup(
                burst(1),
                vec![
                    Box::new(|b: Arc<Burst>| {
                        if b.gauge.try_reserve() {
                            b.gauge.release();
                        }
                    }),
                    Box::new(|b: Arc<Burst>| accepter(&b)),
                ],
                |b: Arc<Burst>| {
                    assert!(
                        b.gauge.live() <= 1,
                        "gauge above cap after the dust settled"
                    );
                },
            )
            .assert_pass("release then re-reserve");
    }

    /// Mutation: the legacy check-then-add admission must over-admit a
    /// burst, and the counterexample must replay deterministically.
    #[test]
    fn check_then_add_mutation_over_admits_and_replays() {
        let threads = || -> Vec<Box<dyn Fn(Arc<Burst>) + Send + Sync>> {
            let accept = |b: Arc<Burst>| {
                if b.gauge.try_reserve_mutated_check_then_add() {
                    b.admitted.fetch_add(1, PlainOrdering::Relaxed);
                }
            };
            vec![Box::new(accept), Box::new(accept), Box::new(accept)]
        };
        let after = |b: Arc<Burst>| {
            assert!(
                b.admitted.load(PlainOrdering::Relaxed) <= 2,
                "over-admitted past the cap"
            );
        };
        let failure = Checker::new()
            .preemption_bound(2)
            .check_threads_setup(burst(2), threads(), after)
            .expect_fail("check-then-add mutation")
            .clone();
        assert!(
            failure.error.contains("over-admitted"),
            "unexpected failure: {failure}"
        );
        let replayed = Checker::new()
            .replay_threads_setup(&failure.trace, burst(2), threads(), after)
            .expect_fail("replay of over-admission counterexample")
            .clone();
        assert_eq!(replayed.error, failure.error, "replay diverged");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_is_counted() {
        let mutex = std::sync::Arc::new(Mutex::new(0u32));
        let before = poison_recovered_total();
        let poisoner = std::sync::Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            // lint:allow(raw-mutex-lock) — poisoning the mutex is the point.
            let _guard = poisoner.lock().unwrap();
            panic!("poison the mutex on purpose");
        })
        .join();
        assert!(mutex.lock().is_err(), "mutex must actually be poisoned");
        *lock(&mutex) += 1;
        assert!(poison_recovered_total() > before);
        // Recovered: the data is reachable again.
        assert_eq!(*lock(&mutex), 1);
    }
}
