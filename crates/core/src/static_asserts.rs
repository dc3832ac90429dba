//! Compile-time thread-safety contract for the serve phase, colocated so
//! every shareability claim the crate makes is checked in one place (the
//! `ucq lint` L4 pass keeps this honest for `Frozen*`/`*Session` types).
//!
//! The whole point of freezing: the serve-phase session is shareable
//! across threads, and every answer stream — including the boxed
//! enumerator chain inside it — can move to the thread that drains it.
//! `EvalSession` is deliberately absent: it is a single-threaded
//! build-phase object (see `analysis/allow.toml`).

use crate::engine::{FrozenSession, UcqAnswers};
use ucq_enumerate::Enumerator;

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<FrozenSession<'static>>();
    assert_send::<UcqAnswers>();
    // The enumerator chain FrozenSession::enumerate boxes into UcqAnswers.
    assert_send::<Box<dyn Enumerator + Send>>();
};
