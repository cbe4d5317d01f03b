//! Client-side per-server state.
//!
//! For every candidate server a C3 client keeps (§3.1):
//!
//! - `os_s`, the instantaneous count of outstanding requests to `s`,
//! - `q̄_s`, an EWMA of the queue-size feedback,
//! - `μ̄_s⁻¹`, an EWMA of the service-time feedback,
//! - `R̄_s`, an EWMA of the response time the client itself observed.
//!
//! [`ServerTracker`] owns that state; [`TrackerSnapshot`] is a cheap copy
//! handed to the scoring function.
//!
//! The EWMAs only move when the server answers, so a server the client
//! stops choosing keeps the score of its last answers indefinitely. The
//! tracker therefore also remembers when it last heard from the server
//! and how often it has been passed over since, and
//! [`ServerTracker::forget_if_stale`] drops the queue and response-time
//! EWMAs of a server the client keeps avoiding on stale information.

use crate::feedback::Feedback;
use crate::time::Nanos;

/// How long a server may go without answering before its EWMAs count as
/// stale (deliberate deviation from the paper, which never ages them).
///
/// A replica C3 sidelines during a slow spell gets no responses, so
/// without aging it is ranked by its slow-spell feedback long after the
/// spell ends, and is never chosen again while its peers keep up.
/// Forgetting drops its queue-size and response-time averages, the state
/// a silent server has most likely moved away from. With nothing
/// outstanding it then scores 0, like a never-contacted server, so the
/// next selection probes it and the probe's answer re-seeds the
/// averages. Its service-time average is kept: while the probe is out,
/// `q̂³·μ̄⁻¹` prices the outstanding request at the server's last known
/// speed, so a server that was slow is not dogpiled. On a server that
/// stays slow, aging costs one probe per client every 200 ms (ten of the
/// paper's 20 ms rate intervals).
pub const STALE_FEEDBACK_AFTER: Nanos = Nanos::from_millis(200);

/// How many selections in a row must pass a silent server over before its
/// stale averages are forgotten. Silence alone does not make a server
/// sidelined: a client with no traffic for a replica group hears nothing
/// from it either. Only a server the client keeps deciding against is
/// aged, and the count bounds what probing costs: at most one in 257
/// selections that could pick a sidelined server probes it, well under
/// the 1% of requests a p99 looks at.
pub const STALE_FEEDBACK_PASSES: u32 = 256;

/// Per-server client state feeding the C3 scoring function.
///
/// The three EWMAs share one `alpha` and store their averages as plain
/// `f64`s with NaN standing for "no sample yet" (EWMA inputs are finite
/// times and queue sizes, so NaN is free to repurpose). That packs a
/// tracker into a single cache line — `C3State` scores three of these per
/// request, so the per-`Ewma` `Option<f64>` + duplicated-alpha layout
/// (two lines per tracker) was measurable cache pressure.
#[derive(Clone, Debug)]
pub struct ServerTracker {
    alpha: f64,
    outstanding: u32,
    queue_size: f64,
    service_time_ms: f64,
    response_time_ms: f64,
    /// When the server last answered (meaningless before the first
    /// answer, when the EWMAs are empty anyway).
    heard_at: Nanos,
    /// Selections that passed the server over since it was last sent a
    /// request or last answered.
    passes: u32,
}

/// Fold a sample into a NaN-initialized EWMA cell: the first sample
/// initializes, later samples use `α·x + (1−α)·x̄` — bit-identical to the
/// standalone [`crate::Ewma`].
#[inline]
fn fold(alpha: f64, avg: &mut f64, sample: f64) {
    *avg = if avg.is_nan() {
        sample
    } else {
        alpha * sample + (1.0 - alpha) * *avg
    };
}

/// NaN-sentinel → `Option` view used by [`TrackerSnapshot`].
#[inline]
fn cell(avg: f64) -> Option<f64> {
    if avg.is_nan() {
        None
    } else {
        Some(avg)
    }
}

/// A read-only snapshot of a [`ServerTracker`] used for scoring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrackerSnapshot {
    /// Outstanding requests from this client to the server.
    pub outstanding: u32,
    /// Smoothed queue-size feedback `q̄_s` (None before any feedback).
    pub queue_size: Option<f64>,
    /// Smoothed service time `μ̄_s⁻¹` in milliseconds.
    pub service_time_ms: Option<f64>,
    /// Smoothed client-observed response time `R̄_s` in milliseconds.
    pub response_time_ms: Option<f64>,
}

impl ServerTracker {
    /// Create a tracker whose EWMAs use the given new-sample weight.
    ///
    /// # Panics
    ///
    /// Panics if `ewma_alpha` is outside `(0, 1]` or not finite.
    pub fn new(ewma_alpha: f64) -> Self {
        assert!(
            ewma_alpha.is_finite() && ewma_alpha > 0.0 && ewma_alpha <= 1.0,
            "alpha must be in (0, 1], got {ewma_alpha}"
        );
        Self {
            alpha: ewma_alpha,
            outstanding: 0,
            queue_size: f64::NAN,
            service_time_ms: f64::NAN,
            response_time_ms: f64::NAN,
            heard_at: Nanos::ZERO,
            passes: 0,
        }
    }

    /// Record that a request was sent to this server.
    pub fn on_send(&mut self) {
        self.outstanding += 1;
        self.passes = 0;
    }

    /// Record that a selection over a group holding this server chose
    /// another server, or none.
    pub fn on_passed_over(&mut self) {
        self.passes = self.passes.saturating_add(1);
    }

    /// Record a response: decrements the outstanding count and folds the
    /// piggybacked feedback and the observed response time into the EWMAs.
    ///
    /// Responses without feedback (e.g. errors or strategies that do not
    /// piggyback) still decrement the outstanding count and update `R̄_s`.
    /// `now` is when the response arrived.
    pub fn on_response(&mut self, response_time: Nanos, feedback: Option<&Feedback>, now: Nanos) {
        debug_assert!(self.outstanding > 0, "response without outstanding request");
        self.outstanding = self.outstanding.saturating_sub(1);
        self.heard_at = now;
        self.passes = 0;
        fold(
            self.alpha,
            &mut self.response_time_ms,
            response_time.as_millis_f64(),
        );
        if let Some(fb) = feedback {
            fold(self.alpha, &mut self.queue_size, fb.queue_size as f64);
            fold(
                self.alpha,
                &mut self.service_time_ms,
                fb.service_time.as_millis_f64(),
            );
        }
    }

    /// Record a response that never arrived (timeout / connection error):
    /// only releases the outstanding slot.
    pub fn on_abandoned(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Forget the queue-size and response-time averages if the server has
    /// not answered for longer than [`STALE_FEEDBACK_AFTER`] before `now`
    /// and at least [`STALE_FEEDBACK_PASSES`] selections in a row have
    /// passed it over. The service-time average and the outstanding count
    /// are kept. A no-op on fresh or already-forgotten state.
    #[inline]
    pub fn forget_if_stale(&mut self, now: Nanos) {
        if self.passes >= STALE_FEEDBACK_PASSES
            && now.saturating_sub(self.heard_at) > STALE_FEEDBACK_AFTER
        {
            self.queue_size = f64::NAN;
            self.response_time_ms = f64::NAN;
        }
    }

    /// Current outstanding request count `os_s`.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Snapshot for scoring.
    pub fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            outstanding: self.outstanding,
            queue_size: cell(self.queue_size),
            service_time_ms: cell(self.service_time_ms),
            response_time_ms: cell(self.response_time_ms),
        }
    }

    /// The C3 score `Ψ_s` computed straight off the packed fields — the
    /// same arithmetic as [`crate::score`] over [`ServerTracker::snapshot`]
    /// (both call the one scoring core in `score.rs`) without
    /// materializing the `Option`-based snapshot struct. This is the
    /// per-candidate call on the selection hot path.
    #[inline]
    pub fn score(&self, cfg: &crate::config::C3Config) -> f64 {
        let response_time = if self.response_time_ms.is_nan() {
            0.0
        } else {
            self.response_time_ms
        };
        let service_time = if self.service_time_ms.is_nan() {
            crate::score::COLD_START_SERVICE_MS
        } else {
            self.service_time_ms
        };
        let q_bar = if self.queue_size.is_nan() {
            0.0
        } else {
            self.queue_size
        };
        crate::score::score_raw(cfg, self.outstanding, q_bar, service_time, response_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(q: u32, ms: u64) -> Feedback {
        Feedback::new(q, Nanos::from_millis(ms))
    }

    #[test]
    fn outstanding_counts_sends_and_responses() {
        let mut t = ServerTracker::new(0.5);
        t.on_send();
        t.on_send();
        assert_eq!(t.outstanding(), 2);
        t.on_response(Nanos::from_millis(5), Some(&fb(1, 4)), Nanos::ZERO);
        assert_eq!(t.outstanding(), 1);
        t.on_abandoned();
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn feedback_updates_ewmas() {
        let mut t = ServerTracker::new(1.0); // track exactly
        t.on_send();
        t.on_response(Nanos::from_millis(10), Some(&fb(6, 4)), Nanos::ZERO);
        let s = t.snapshot();
        assert_eq!(s.queue_size, Some(6.0));
        assert_eq!(s.service_time_ms, Some(4.0));
        assert_eq!(s.response_time_ms, Some(10.0));
        assert_eq!(s.outstanding, 0);
    }

    #[test]
    fn response_without_feedback_updates_response_time_only() {
        let mut t = ServerTracker::new(1.0);
        t.on_send();
        t.on_response(Nanos::from_millis(8), None, Nanos::ZERO);
        let s = t.snapshot();
        assert_eq!(s.response_time_ms, Some(8.0));
        assert_eq!(s.queue_size, None);
        assert_eq!(s.service_time_ms, None);
    }

    #[test]
    fn ewma_smooths_feedback_sequence() {
        let mut t = ServerTracker::new(0.5);
        for (q, st) in [(0u32, 2u64), (8, 6)] {
            t.on_send();
            t.on_response(Nanos::from_millis(st), Some(&fb(q, st)), Nanos::ZERO);
        }
        let s = t.snapshot();
        assert_eq!(s.queue_size, Some(4.0)); // 0.5·8 + 0.5·0
        assert_eq!(s.service_time_ms, Some(4.0)); // 0.5·6 + 0.5·2
    }

    #[test]
    fn abandoned_never_underflows() {
        let mut t = ServerTracker::new(0.5);
        t.on_abandoned();
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn packed_score_matches_snapshot_score() {
        use crate::config::C3Config;
        use crate::score::score;
        for cfg in [
            C3Config::for_clients(40),
            C3Config::default().without_concurrency_compensation(),
            C3Config::default().with_queue_exponent(2),
        ] {
            let mut t = ServerTracker::new(cfg.ewma_alpha);
            // Cold start, partial state, and fully-warmed state must all
            // agree with the snapshot-based scoring function bit-for-bit.
            assert_eq!(
                t.score(&cfg).to_bits(),
                score(&cfg, &t.snapshot()).to_bits()
            );
            t.on_send();
            assert_eq!(
                t.score(&cfg).to_bits(),
                score(&cfg, &t.snapshot()).to_bits()
            );
            t.on_response(Nanos::from_millis(7), None, Nanos::ZERO);
            assert_eq!(
                t.score(&cfg).to_bits(),
                score(&cfg, &t.snapshot()).to_bits()
            );
            t.on_send();
            t.on_response(Nanos::from_millis(9), Some(&fb(5, 3)), Nanos::ZERO);
            assert_eq!(
                t.score(&cfg).to_bits(),
                score(&cfg, &t.snapshot()).to_bits()
            );
        }
    }

    #[test]
    fn sidelined_server_is_forgotten_but_keeps_its_speed_and_outstanding_count() {
        let cfg = crate::config::C3Config::default();
        let mut t = ServerTracker::new(0.5);
        t.on_send();
        t.on_send();
        let heard = Nanos::from_millis(100);
        t.on_response(Nanos::from_millis(40), Some(&fb(30, 20)), heard);
        let slow = t.snapshot();
        let past = heard + STALE_FEEDBACK_AFTER + Nanos(1);
        // Silent past the horizon but never passed over (an idle group):
        // still remembered.
        t.forget_if_stale(past);
        assert_eq!(t.snapshot(), slow);
        for _ in 0..STALE_FEEDBACK_PASSES {
            t.on_passed_over();
        }
        // Passed over enough, but exactly at the horizon: still remembered.
        t.forget_if_stale(heard + STALE_FEEDBACK_AFTER);
        assert_eq!(t.snapshot(), slow);
        // Both past: queue and response time forgotten; the speed and the
        // one request still out are kept, and price that request:
        // Ψ = 0 − 20 + (1 + 1)³·20.
        t.forget_if_stale(past);
        let forgotten = t.snapshot();
        assert_eq!(forgotten.outstanding, 1);
        assert!(forgotten.queue_size.is_none());
        assert!(forgotten.response_time_ms.is_none());
        assert_eq!(forgotten.service_time_ms, slow.service_time_ms);
        assert_eq!(t.score(&cfg), 140.0);
        // With nothing outstanding it scores like a never-contacted server.
        t.on_abandoned();
        assert_eq!(t.score(&cfg), 0.0);
        // The next answer re-seeds the forgotten averages from scratch and
        // clears the pass count.
        t.on_send();
        let later = heard + STALE_FEEDBACK_AFTER.mul(2);
        t.on_response(Nanos::from_millis(2), Some(&fb(1, 1)), later);
        assert_eq!(t.snapshot().queue_size, Some(1.0));
        assert_eq!(t.snapshot().response_time_ms, Some(2.0));
        t.on_passed_over();
        t.forget_if_stale(later + STALE_FEEDBACK_AFTER.mul(2));
        assert_eq!(t.snapshot().queue_size, Some(1.0));
    }

    #[test]
    fn a_send_clears_the_pass_count() {
        let mut t = ServerTracker::new(0.5);
        t.on_send();
        t.on_response(Nanos::from_millis(40), Some(&fb(30, 20)), Nanos::ZERO);
        for _ in 0..STALE_FEEDBACK_PASSES {
            t.on_passed_over();
        }
        t.on_send();
        t.forget_if_stale(STALE_FEEDBACK_AFTER.mul(2));
        assert_eq!(t.snapshot().queue_size, Some(30.0));
    }

    #[test]
    fn fresh_tracker_snapshot_is_empty() {
        let t = ServerTracker::new(0.5);
        let s = t.snapshot();
        assert_eq!(s.outstanding, 0);
        assert!(s.queue_size.is_none());
        assert!(s.service_time_ms.is_none());
        assert!(s.response_time_ms.is_none());
    }
}
