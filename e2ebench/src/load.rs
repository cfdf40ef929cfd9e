//! Load generation: open loops on a fixed schedule and closed loops.
//!
//! An open loop sends request `i` when it is due, at `start + i·period`,
//! whether or not the system kept up. Each request's latency is timed
//! from its **due** time, so a stall also charges the wait it imposed on
//! the requests queued behind it. One connection carries one open loop,
//! so a request can only go out once the previous reply is in; the time
//! a request spends waiting for the *generator itself* (a late wake-up
//! while the connection was idle) is reported separately as lateness.

use std::time::{Duration, Instant};

/// Slack below which the generator stops sleeping and yields instead, so
/// a timer wake-up overshoot does not show up as request latency.
const SPIN: Duration = Duration::from_micros(200);

/// Blocks until `due`: sleeps for the bulk, yields for the last stretch.
pub fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// What one open loop observed.
#[derive(Clone, Debug, Default)]
pub struct OpenLoop {
    /// Per completed request: microseconds from due time to reply.
    pub due_us: Vec<f64>,
    /// Per completed request: microseconds from actual send to reply.
    pub rtt_us: Vec<f64>,
    /// Per completed request: when its reply arrived.
    pub done: Vec<Instant>,
    /// Per request: ms the generator itself sent late (the connection was
    /// idle, but the send still happened after the due time).
    pub late_ms: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests whose reply failed a check or never came.
    pub failed: u64,
    /// Scheduled requests never sent because the backlog exceeded the
    /// loop's limit (the system could not keep up with the rate).
    pub shed: u64,
}

impl OpenLoop {
    /// True when the loop had to shed requests.
    pub fn overloaded(&self) -> bool {
        self.shed > 0
    }

    /// Merges another loop's observations into this one.
    pub fn absorb(&mut self, other: OpenLoop) {
        self.due_us.extend(other.due_us);
        self.rtt_us.extend(other.rtt_us);
        self.done.extend(other.done);
        self.late_ms.extend(other.late_ms);
        self.sent += other.sent;
        self.failed += other.failed;
        self.shed += other.shed;
    }
}

/// Runs an open loop: request `i` is due at `start + i·period` for every
/// due time before `until`, or until `stop()` turns true. `op(i)`
/// performs request `i` synchronously and reports whether its reply
/// passed the checks. When the loop falls
/// more than `max_backlog` behind schedule, the rest of the schedule is
/// shed (counted, not sent) — the rate is beyond what the system serves.
pub fn open_loop(
    start: Instant,
    period: Duration,
    until: Instant,
    max_backlog: Duration,
    stop: &dyn Fn() -> bool,
    mut op: impl FnMut(u64) -> bool,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let mut prev_done = start;
    let mut i = 0u64;
    loop {
        let due = start + Duration::from_nanos(period.as_nanos() as u64 * i);
        if due >= until || stop() {
            break;
        }
        if prev_done.saturating_duration_since(due) > max_backlog {
            let left = until.saturating_duration_since(due).as_nanos();
            out.shed += left.div_ceil(period.as_nanos()) as u64;
            break;
        }
        wait_until(due);
        let sent_at = Instant::now();
        // Only the part of the delay the connection did not explain.
        let ready = due.max(prev_done);
        out.late_ms
            .push(sent_at.saturating_duration_since(ready).as_secs_f64() * 1e3);
        let ok = op(i);
        let done = Instant::now();
        out.sent += 1;
        if ok {
            out.due_us
                .push(done.duration_since(due).as_secs_f64() * 1e6);
            out.rtt_us
                .push(done.duration_since(sent_at).as_secs_f64() * 1e6);
            out.done.push(done);
        } else {
            out.failed += 1;
        }
        prev_done = done;
        i += 1;
    }
    out
}

/// What one closed loop observed.
#[derive(Clone, Debug, Default)]
pub struct ClosedLoop {
    /// Per passing request: round-trip microseconds.
    pub rtt_us: Vec<f64>,
    /// Per passing request: when its reply arrived.
    pub done: Vec<Instant>,
    /// Requests sent.
    pub sent: u64,
    /// Requests whose reply failed a check or never came.
    pub failed: u64,
}

/// Runs a closed loop until `until`: each request goes out as soon as the
/// previous reply is in.
pub fn closed_loop(until: Instant, mut op: impl FnMut(u64) -> bool) -> ClosedLoop {
    let mut out = ClosedLoop::default();
    while Instant::now() < until {
        let t0 = Instant::now();
        let ok = op(out.sent);
        let done = Instant::now();
        out.sent += 1;
        if ok {
            out.rtt_us.push(done.duration_since(t0).as_secs_f64() * 1e6);
            out.done.push(done);
        } else {
            out.failed += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_time_latency_charges_a_stall_to_the_requests_behind_it() {
        // A mock system that answers in ~0 time, except request 5, which
        // stalls for 40 ms. At a 10 ms period, requests 6, 7 and 8 were
        // due while the stall was in progress and must carry the wait.
        let period = Duration::from_millis(10);
        let stall = Duration::from_millis(40);
        let start = Instant::now() + Duration::from_millis(5);
        let until = start + period * 20;
        let r = open_loop(
            start,
            period,
            until,
            Duration::from_secs(1),
            &|| false,
            |i| {
                if i == 5 {
                    std::thread::sleep(stall);
                }
                true
            },
        );
        assert_eq!((r.sent, r.failed, r.shed), (20, 0, 0));
        let ms: Vec<f64> = r.due_us.iter().map(|us| us / 1e3).collect();
        // The stalled request itself: ~40 ms from its due time.
        assert!(ms[5] >= 40.0, "{ms:?}");
        // Request 6 was due 10 ms into the stall: it waited ~30 ms more.
        assert!(ms[6] >= 30.0 && ms[6] < 40.0, "{ms:?}");
        assert!(ms[7] >= 20.0 && ms[7] < 30.0, "{ms:?}");
        assert!(ms[8] >= 10.0 && ms[8] < 20.0, "{ms:?}");
        // Its round-trip time alone would hide that wait.
        assert!(r.rtt_us[6] < 10_000.0, "{:?}", r.rtt_us);
        // The generator was not late: the connection was busy, not it.
        assert!(r.late_ms[6] < 5.0, "{:?}", r.late_ms);
        // Once caught up, requests are timed from their own due time.
        assert!(ms[12] < 5.0, "{ms:?}");
    }

    #[test]
    fn a_backlog_beyond_the_limit_sheds_the_rest_of_the_schedule() {
        let period = Duration::from_millis(2);
        let start = Instant::now();
        let until = start + period * 50;
        let r = open_loop(
            start,
            period,
            until,
            Duration::from_millis(10),
            &|| false,
            |i| {
                if i == 3 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                true
            },
        );
        assert!(r.overloaded());
        assert_eq!(r.sent, 4);
        assert_eq!(r.sent + r.shed, 50);
    }

    #[test]
    fn failed_replies_are_counted_and_not_timed() {
        let start = Instant::now();
        let r = open_loop(
            start,
            Duration::from_millis(1),
            start + Duration::from_millis(10),
            Duration::from_secs(1),
            &|| false,
            |i| i % 2 == 0,
        );
        assert_eq!(r.sent, 10);
        assert_eq!(r.failed, 5);
        assert_eq!(r.due_us.len(), 5);
        let c = closed_loop(Instant::now() + Duration::from_millis(5), |i| i != 0);
        assert_eq!(c.failed, 1);
        assert_eq!(c.rtt_us.len() as u64, c.sent - 1);
    }
}
