//! Open-loop load generation and its lateness accounting.
//!
//! An open-loop writer sends batch `k` when it is *due* (`k × period` after
//! the schedule starts), whether or not batch `k−1` has been acknowledged.
//! A single writer thread cannot send while it waits for an ack, so a stall
//! delays every later batch; the accounting below therefore times each
//! batch from its due time, not from when it actually started, and reports
//! how late the generator ran.

use std::time::{Duration, Instant};

use crate::stats::Sample;

/// A fixed-rate send schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period_ns: u64,
}

impl Schedule {
    pub fn new(start: Instant, period: Duration) -> Self {
        Schedule { start, period_ns: period.as_nanos() as u64 }
    }

    /// Due time of send `k`, in nanoseconds since the schedule start.
    pub fn due_ns(&self, k: u64) -> u64 {
        k * self.period_ns
    }

    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Blocks until send `k` is due (returns at once when already late).
    /// Sleeps while far from the due time and yields over the last stretch,
    /// which keeps the generator within a few microseconds of schedule
    /// without burning a core.
    pub fn wait_for(&self, k: u64) {
        let due = self.due_ns(k);
        loop {
            let now = self.now_ns();
            if now >= due {
                return;
            }
            let left = due - now;
            if left > 300_000 {
                std::thread::sleep(Duration::from_nanos(left - 200_000));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// One open-loop send, in nanoseconds since the schedule start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Send {
    pub due_ns: u64,
    pub start_ns: u64,
    pub ack_ns: u64,
}

impl Send {
    /// How late the generator started this send.
    pub fn late_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.due_ns)
    }

    /// Acknowledgement latency as the sender experiences it: from when the
    /// send was due, so time spent queued behind a stall counts.
    pub fn ack_ns(&self) -> u64 {
        self.ack_ns.saturating_sub(self.due_ns)
    }
}

/// Lateness summary of an open-loop run.
#[derive(Debug, Clone, Default)]
pub struct Lateness {
    /// Latest start relative to due, milliseconds.
    pub late_max_ms: f64,
    /// Per-send start delay, microseconds.
    pub wait_us: Sample,
    /// Per-send ack latency from due, microseconds.
    pub ack_us: Sample,
}

pub fn lateness(sends: &[Send]) -> Lateness {
    let mut out = Lateness::default();
    for s in sends {
        out.late_max_ms = out.late_max_ms.max(s.late_ns() as f64 / 1e6);
        out.wait_us.push(s.late_ns() as f64 / 1e3);
        out.ack_us.push(s.ack_ns() as f64 / 1e3);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single open-loop sender over known service times: send `k` starts
    /// at `max(due_k, ack_{k-1})` and is acked `service[k]` later.
    fn simulate(period_ns: u64, service_ns: &[u64]) -> Vec<Send> {
        let mut sends = Vec::new();
        let mut free_at = 0;
        for (k, &svc) in service_ns.iter().enumerate() {
            let due_ns = k as u64 * period_ns;
            let start_ns = due_ns.max(free_at);
            free_at = start_ns + svc;
            sends.push(Send { due_ns, start_ns, ack_ns: free_at });
        }
        sends
    }

    #[test]
    fn on_schedule_sends_are_never_late() {
        let l = lateness(&simulate(1_000, &[400; 50]));
        assert_eq!(l.late_max_ms, 0.0);
        assert_eq!(l.ack_us.median(), 0.4);
    }

    #[test]
    fn a_stall_delays_every_later_send_and_counts_from_due() {
        // Period 1 ms; send 2 stalls for 5 ms, the rest take 0.5 ms.
        let mut svc = vec![500_000u64; 10];
        svc[2] = 5_000_000;
        let sends = simulate(1_000_000, &svc);
        // Send 3 was due at 3 ms but could start only at 7 ms.
        assert_eq!(sends[3].late_ns(), 4_000_000);
        // Its ack latency includes that wait: 4 ms late + 0.5 ms service.
        assert_eq!(sends[3].ack_ns(), 4_500_000);
        let l = lateness(&sends);
        assert_eq!(l.late_max_ms, 4.0);
        // The backlog drains by 0.5 ms per period: sends 3..=9 are late.
        let late = sends.iter().filter(|s| s.late_ns() > 0).count();
        assert_eq!(late, 7);
        assert_eq!(sends[9].late_ns(), 1_000_000);
    }

    #[test]
    fn schedule_due_times_are_multiples_of_the_period() {
        let s = Schedule::new(Instant::now(), Duration::from_micros(2500));
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(4), 10_000_000);
        s.wait_for(1);
        assert!(s.now_ns() >= 2_500_000);
    }
}
