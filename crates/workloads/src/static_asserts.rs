//! Compile-time thread-safety contract for the serving harness,
//! colocated in one place per crate (mirroring `static_asserts` in
//! `ucq-storage` and `ucq-core`).
//!
//! [`LoadReport`](crate::drive::LoadReport) is assembled from what the
//! pool's workers resolved and handed back to whoever launched the run, so
//! it must stay plain shareable data.

use crate::drive::LoadReport;

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LoadReport>();
};
