//! Order statistics and the list-schedule model the benchmark reports with.

/// A nearest-rank percentile together with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub n: usize,
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`.
///
/// Refuses (returns `Err`) unless at least ten samples lie strictly above
/// the chosen rank: a tail percentile with fewer samples beyond it is one
/// or two observations dressed up as a distribution. The median of a
/// sample of 20 or more always qualifies.
pub fn percentile(samples: &[f64], p: f64) -> Result<Percentile, String> {
    if !(p > 0.0 && p <= 100.0) {
        return Err(format!("percentile {p} is outside (0, 100]"));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < 10 {
        return Err(format!(
            "p{p} of n={n} has {beyond} samples beyond it; at least 10 are needed"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        n,
    })
}

/// Median of a non-empty sample (mean of the two middle values for an even
/// count). Used for repeated host-time measurements, where no tail
/// percentile is claimed.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One admission group of a list schedule: the requests that ran back to
/// back on one slot (a coalition, or a single request).
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// `(arrival_us, service_us)` of each member, in execution order.
    pub members: Vec<(u64, u64)>,
}

/// What list-scheduling a sequence of groups over `cap` slots produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Time at which the last slot went idle (µs).
    pub makespan_us: u64,
    /// Σ service time over all members (µs) — the slots' busy time.
    pub busy_us: u64,
    /// Per member, in group order: time from arrival until its own
    /// execution began (µs).
    pub queue_wait_us: Vec<u64>,
}

impl Schedule {
    /// Share of `cap × makespan` the slots spent serving, in percent.
    pub fn slot_busy_pct(&self, cap: usize) -> f64 {
        if self.makespan_us == 0 {
            return 0.0;
        }
        100.0 * self.busy_us as f64 / (cap.max(1) as f64 * self.makespan_us as f64)
    }
}

/// List-schedules `groups`, in the given (admission) order, over `cap`
/// slots. A group starts at the later of its last member's arrival and the
/// earliest free slot, then holds that slot for the sum of its members'
/// service times: a coalesced pass runs its members back to back on one
/// resident tree. This is the same model as the `virtual_makespan_us`
/// figure of the `scheduler_throughput` bench, extended with queue waits.
/// A closed loop with one client is the special case `cap = 1`, arrivals
/// at zero: the makespan is the sum of the latencies.
pub fn list_schedule(groups: &[Group], cap: usize) -> Schedule {
    let mut slots = vec![0u64; cap.max(1)];
    let mut makespan_us = 0u64;
    let mut busy_us = 0u64;
    let mut queue_wait_us = Vec::new();
    for group in groups {
        let ready = group.members.iter().map(|m| m.0).max().unwrap_or(0);
        let slot = slots.iter_mut().min().expect("cap >= 1 slot");
        let mut at = (*slot).max(ready);
        for &(arrival, service) in &group.members {
            queue_wait_us.push(at - arrival);
            at += service;
            busy_us += service;
        }
        *slot = at;
        makespan_us = makespan_us.max(at);
    }
    Schedule {
        makespan_us,
        busy_us,
        queue_wait_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Deliberately unsorted: 1..=n reversed.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0).unwrap().value, 50.0);
        assert_eq!(percentile(&s, 90.0).unwrap().value, 90.0);
        assert_eq!(percentile(&s, 90.0).unwrap().n, 100);
        // 101 samples: rank ceil(0.9 * 101) = 91.
        assert_eq!(percentile(&ramp(101), 90.0).unwrap().value, 91.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // p90 of 99: rank 90, nine beyond — refused.
        let err = percentile(&ramp(99), 90.0).unwrap_err();
        assert!(err.contains("9 samples beyond"), "{err}");
        assert!(percentile(&ramp(100), 90.0).is_ok());
        // The p99-over-9 the older bench bins print is refused outright.
        assert!(percentile(&ramp(9), 99.0).is_err());
        assert!(percentile(&ramp(1000), 99.0).is_ok());
        assert!(percentile(&ramp(999), 99.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&ramp(100), 0.0).is_err());
        assert!(percentile(&ramp(20), 50.0).is_ok());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn group(members: &[(u64, u64)]) -> Group {
        Group {
            members: members.to_vec(),
        }
    }

    #[test]
    fn single_slot_closed_loop_sums_latencies() {
        let groups: Vec<Group> = [5, 7, 11].iter().map(|&l| group(&[(0, l)])).collect();
        let s = list_schedule(&groups, 1);
        assert_eq!(s.makespan_us, 23);
        assert_eq!(s.busy_us, 23);
        assert_eq!(s.queue_wait_us, vec![0, 5, 12]);
        assert_eq!(s.slot_busy_pct(1), 100.0);
    }

    #[test]
    fn coalitions_run_back_to_back_and_slots_fill_earliest_first() {
        // Two slots. g0 = coalition of two arriving at 0; g1 arrives at 0;
        // g2 arrives at 100 and takes whichever slot frees first.
        let groups = vec![
            group(&[(0, 30), (0, 20)]),
            group(&[(0, 40)]),
            group(&[(100, 10)]),
            group(&[(100, 5)]),
        ];
        let s = list_schedule(&groups, 2);
        // g0 on slot 0: members start at 0 and 30, slot free at 50.
        // g1 on slot 1: start 0, free at 40.
        // g2: earliest free slot is 40, ready 100 -> runs 100..110.
        // g3: earliest free slot is 50 -> runs 100..105.
        assert_eq!(s.queue_wait_us, vec![0, 30, 0, 0, 0]);
        assert_eq!(s.makespan_us, 110);
        assert_eq!(s.busy_us, 105);
        assert!((s.slot_busy_pct(2) - 100.0 * 105.0 / 220.0).abs() < 1e-9);
    }

    #[test]
    fn a_saturated_slot_makes_later_arrivals_wait() {
        let groups = vec![group(&[(0, 100)]), group(&[(10, 100)])];
        let s = list_schedule(&groups, 1);
        assert_eq!(s.queue_wait_us, vec![0, 90]);
        assert_eq!(s.makespan_us, 200);
    }
}
