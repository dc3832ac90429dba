//! Compile-time thread-safety contract for the serve phase, colocated so
//! every shareability claim the crate makes is checked in one place (the
//! `ucq lint` L4 pass keeps this honest for `Frozen*`/`*Session` types).
//!
//! The whole point of freezing: the serve-phase session is shareable
//! across threads, and every answer stream — including the boxed
//! enumerator chain inside it — can move to the thread that drains it.
//! The build-phase `EvalSession` is shareable too (its memo is a
//! `OnceLock`), though its context still takes locks a frozen one does not.

use crate::engine::{EvalSession, FrozenSession, UcqAnswers};
use ucq_enumerate::Enumerator;

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<EvalSession<'static>>();
    assert_send_sync::<FrozenSession<'static>>();
    assert_send::<UcqAnswers>();
    // The enumerator chain FrozenSession::enumerate boxes into UcqAnswers.
    assert_send::<Box<dyn Enumerator + Send>>();
};
