//! The one sanctioned monotonic clock outside `fairwos-obs`.
//!
//! The serve-side reload circuit breaker needs elapsed time even in builds
//! without the obs feature (`fairwos_obs::monotonic_ns` returns `0` there,
//! which would wedge any time-based cooldown). This module anchors a single
//! `std::time::Instant` at first use, the one read FW005 (clippy's
//! `disallowed_methods`) expects here.

use std::sync::OnceLock;
use std::time::Instant;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the first call in this process. Monotonic,
/// independent of the obs feature, never `0` after the first millisecond
/// of process life.
pub fn monotonic_micros() -> u64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned clock outside fairwos-obs (module docs)"
    )]
    let anchor = ANCHOR.get_or_init(Instant::now);
    anchor.elapsed().as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = monotonic_micros();
        let b = monotonic_micros();
        assert!(b >= a);
    }
}
