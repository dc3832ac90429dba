//! Model-checks the freeze/overflow/watermark protocol of
//! [`FrozenContext`] under exhaustive bounded-preemption schedules.
//!
//! Run with the seam active so the *production* synchronization code
//! yields to the DFS scheduler at every lock/atomic operation:
//!
//! ```text
//! RUSTFLAGS="--cfg ucq_model_check" cargo test -p ucq-storage --test model_check
//! ```
//!
//! The same tests also pass under a plain `cargo test`: the wrapped types
//! then behave exactly like `std::sync`, the scheduler only interleaves at
//! spawn/join boundaries, and the assertions still hold — they are just
//! checked over far fewer schedules. The mutation test at the bottom uses
//! the shuttle primitives directly (not the seam), so it explores the full
//! schedule space under either configuration.

use std::sync::Arc;
use ucq_storage::{CtxView, FrozenContext, Value};

/// A frozen context whose snapshot holds `{1, 2}`.
fn frozen_with_two_values() -> Arc<FrozenContext> {
    let build = CtxView::new();
    build.intern(Value::Int(1));
    build.intern(Value::Int(2));
    match build.freeze() {
        CtxView::Frozen(f) => f,
        CtxView::Build(_) => unreachable!("freeze returned a build view"),
    }
}

/// Two threads interning the same post-freeze value must observe a single
/// id, and that id must decode back — under every explored schedule.
#[test]
fn overlay_intern_race_yields_one_id() {
    let e = shuttle::explore_with(
        shuttle::Config {
            max_schedules: 50_000,
            max_preemptions: 2,
        },
        || {
            let f = frozen_with_two_values();
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let f = Arc::clone(&f);
                    shuttle::thread::spawn(move || f.intern(Value::Int(77)))
                })
                .collect();
            let ids: Vec<_> = hs.into_iter().map(|h| h.join().unwrap()).collect();
            let decoded = f.decode(ids[0]);
            let looked_up = f.lookup(Value::Int(77));
            (ids, decoded, looked_up)
        },
    );
    assert!(e.schedules > 1, "explored only {} schedules", e.schedules);
    assert!(!e.truncated, "schedule space unexpectedly truncated");
    for (ids, decoded, looked_up) in &e.outcomes {
        assert_eq!(ids[0], ids[1], "racing interns produced distinct ids");
        assert_eq!(*decoded, Value::Int(77), "overlay id failed to decode");
        assert_eq!(*looked_up, Some(ids[0]), "post-quiescence lookup missed");
    }
}

/// The `has_overflowed` flag protocol: a reader racing an interning writer
/// may miss the in-flight value (conservative `None`) but must never
/// observe a wrong id, hang, or panic — and reads of frozen-snapshot ids
/// must stay correct throughout.
#[test]
fn watermark_flag_gates_overlay_reads_consistently() {
    let e = shuttle::explore_with(
        shuttle::Config {
            max_schedules: 50_000,
            max_preemptions: 2,
        },
        || {
            let f = frozen_with_two_values();
            let frozen_id = f.lookup(Value::Int(1)).expect("snapshot value");

            let writer = {
                let f = Arc::clone(&f);
                shuttle::thread::spawn(move || {
                    let id = f.intern(Value::Int(500));
                    // The interning thread itself must immediately be able
                    // to decode its own overlay id.
                    assert_eq!(f.decode(id), Value::Int(500));
                    id
                })
            };
            let reader = {
                let f = Arc::clone(&f);
                shuttle::thread::spawn(move || {
                    let flag = f.has_overflowed();
                    let seen = f.lookup(Value::Int(500));
                    let absent = f.lookup(Value::Int(999));
                    // Frozen ids decode lock-free regardless of the race.
                    let frozen_ok = f.decode(frozen_id) == Value::Int(1);
                    (flag, seen, absent, frozen_ok)
                })
            };
            let written = writer.join().unwrap();
            let (flag, seen, absent, frozen_ok) = reader.join().unwrap();
            (written, flag, seen, absent, frozen_ok)
        },
    );
    assert!(e.schedules > 1, "explored only {} schedules", e.schedules);
    assert!(!e.truncated);
    for (written, flag, seen, absent, frozen_ok) in &e.outcomes {
        assert!(frozen_ok, "frozen-snapshot decode broke during the race");
        assert_eq!(*absent, None, "phantom id for a never-interned value");
        match seen {
            // Conservative miss: the reader ran before the flag/values
            // were published. Allowed.
            None => {}
            // Otherwise it must be exactly the writer's id, and the flag
            // load that *gated* that successful lookup must have been set.
            Some(id) => {
                assert_eq!(id, written, "reader observed a different id");
                let _ = flag; // the flag value itself may predate the write
            }
        }
    }
    // The race must actually be explored in both directions: some
    // schedule observes the overlay value, some schedule misses it.
    let hits = e.outcomes.iter().filter(|o| o.2.is_some()).count();
    assert!(hits > 0, "no schedule observed the published overlay value");
    assert!(
        hits < e.outcomes.len(),
        "no schedule exercised the conservative-miss path"
    );
}

/// `decode_rel`'s invariant (`flag == false` implies the overlay is
/// empty): interning on one thread while another decodes an overlay-id
/// relation through the flag gate.
#[test]
fn decode_rel_during_intern_race_is_complete() {
    let e = shuttle::explore_with(
        shuttle::Config {
            max_schedules: 50_000,
            max_preemptions: 2,
        },
        || {
            let f = frozen_with_two_values();
            // Seed one overlay value *before* the race so the decoded
            // relation spans both the snapshot and the overlay.
            let early = f.intern(Value::Int(300));
            let frozen_id = f.lookup(Value::Int(2)).expect("snapshot value");
            let rel = {
                let mut rel = ucq_storage::IdRel::new(2);
                rel.push_row(&[frozen_id, early]);
                rel
            };
            let writer = {
                let f = Arc::clone(&f);
                shuttle::thread::spawn(move || f.intern(Value::Int(301)))
            };
            let reader = {
                let f = Arc::clone(&f);
                shuttle::thread::spawn(move || f.decode_rel(&rel))
            };
            writer.join().unwrap();
            let decoded = reader.join().unwrap();
            decoded.row(0).to_vec()
        },
    );
    assert!(e.schedules > 1);
    assert!(!e.truncated);
    for row in &e.outcomes {
        assert_eq!(
            row,
            &vec![Value::Int(2), Value::Int(300)],
            "decode_rel dropped or corrupted an overlay value mid-race"
        );
    }
}

/// Satellite equivalence check: the same two-interns-one-id property under
/// *real* concurrency, complementing the model-checked variant above.
#[test]
fn overlay_intern_race_real_threads() {
    const THREADS: usize = 4;
    for round in 0..200 {
        let f = frozen_with_two_values();
        let v = Value::Int(1_000 + round);
        let ids: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS).map(|_| s.spawn(|| f.intern(v))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            ids.windows(2).all(|w| w[0] == w[1]),
            "round {round}: racing interns disagreed: {ids:?}"
        );
        assert_eq!(f.decode(ids[0]), v);
        assert_eq!(f.lookup(v), Some(ids[0]));
    }
}

// ---------------------------------------------------------------------------
// Mutation test: a deliberately broken variant of the protocol.

mod broken_protocol {
    //! A miniature of `FrozenContext`'s overlay publication protocol,
    //! written directly against the shuttle primitives so the checker
    //! explores its full schedule space under any build configuration.
    //!
    //! The *correct* ordering (mirroring `intern_with`) publishes the
    //! value under the lock and only then sets `has_overflow`. The
    //! *broken* ordering sets the flag before the value is published —
    //! exactly the bug class the `Release`-store-last discipline prevents
    //! — and the checker must find the schedule where a reader passes the
    //! flag gate yet finds the overlay empty.

    use shuttle::sync::atomic::{AtomicBool, Ordering};
    use shuttle::sync::{Arc, Mutex};

    struct MiniOverlay {
        values: Mutex<Vec<u32>>,
        has_overflow: AtomicBool,
    }

    impl MiniOverlay {
        fn new() -> Arc<MiniOverlay> {
            Arc::new(MiniOverlay {
                values: Mutex::new(Vec::new()),
                has_overflow: AtomicBool::new(false),
            })
        }

        /// Correct: publish under the lock, then set the flag.
        fn intern_correct(&self, v: u32) {
            let mut g = self.values.lock().unwrap();
            g.push(v);
            self.has_overflow.store(true, Ordering::Release);
        }

        /// Broken mutation: flag first, publish afterwards.
        fn intern_broken(&self, v: u32) {
            self.has_overflow.store(true, Ordering::Release);
            let mut g = self.values.lock().unwrap();
            g.push(v);
        }

        /// Reader through the flag gate, as `decode_rel` does: if the
        /// flag is set, the overlay must already hold the value.
        fn read_gated(&self) -> Option<Option<u32>> {
            if !self.has_overflow.load(Ordering::Acquire) {
                return None; // gate closed: snapshot-only path
            }
            Some(self.values.lock().unwrap().last().copied())
        }
    }

    /// `Some(None)` = the invariant violation: gate open, overlay empty.
    fn explore(broken: bool) -> shuttle::Exploration<Option<Option<u32>>> {
        shuttle::explore_with(
            shuttle::Config {
                max_schedules: 50_000,
                max_preemptions: 2,
            },
            move || {
                let ov = MiniOverlay::new();
                let writer = {
                    let ov = Arc::clone(&ov);
                    shuttle::thread::spawn(move || {
                        if broken {
                            ov.intern_broken(42);
                        } else {
                            ov.intern_correct(42);
                        }
                    })
                };
                let reader = {
                    let ov = Arc::clone(&ov);
                    shuttle::thread::spawn(move || ov.read_gated())
                };
                writer.join().unwrap();
                reader.join().unwrap()
            },
        )
    }

    #[test]
    fn checker_catches_flag_before_publish() {
        let e = explore(true);
        assert!(e.schedules > 1, "explored only {} schedules", e.schedules);
        assert!(!e.truncated);
        assert!(
            e.outcomes.contains(&Some(None)),
            "the seeded flag-before-publish race went undetected \
             across {} schedules",
            e.schedules
        );
    }

    #[test]
    fn correct_protocol_passes_the_same_exploration() {
        let e = explore(false);
        assert!(e.schedules > 1, "explored only {} schedules", e.schedules);
        assert!(!e.truncated);
        assert!(
            !e.outcomes.contains(&Some(None)),
            "correct publish-then-flag ordering flagged as racy"
        );
        // Both sides of the gate must still have been exercised.
        assert!(e.outcomes.contains(&None), "gate-closed path unexplored");
        assert!(
            e.outcomes.contains(&Some(Some(42))),
            "gate-open path unexplored"
        );
    }
}
