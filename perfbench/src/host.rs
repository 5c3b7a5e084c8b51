//! A fixed reference loop that measures how fast the host runs right now.
//!
//! On a shared host the same run can take 1.5x longer a few minutes later,
//! because other tenants compete for the core and its caches, and that
//! drift is slower than one invocation, so no statistic over one
//! invocation's runs removes it. The reference loop does not depend on the
//! simulator's code: it is integer arithmetic followed by dependent loads
//! over a working set larger than the core's private caches (the loads
//! take about twice as long as the arithmetic). Its duration, taken
//! between attempts, tells how much slower than nominal the host ran, and
//! the headline speed is scaled by it.
//!
//! Calibration, on a shared 2-vCPU Xeon VM: alternating this loop at twice
//! its length with single `truth-4c` runs for five minutes, the
//! run's time tracked the loop's (correlation 0.92 of their logarithms
//! over 25 s windows, slope 1.07), and the run time over the loop time
//! varied 3x less than the run time alone (coefficient of variation 0.054
//! against 0.161 over those windows).

use std::hint::black_box;
use std::time::Instant;

/// Duration of one [`HostProbe::measure`] on that VM in its faster
/// minutes: the unit of a reference second.
pub const NOMINAL_S: f64 = 0.4;

/// Entries of the pointer-chasing table (4 bytes each: 8 MiB).
const TABLE: usize = 1 << 21;
/// Iterations of the arithmetic part.
const ALU_STEPS: u64 = 50_000_000;
/// Dependent loads of the memory part.
const CHASE_STEPS: usize = 2_000_000;

/// The reference loop's state: a random single-cycle permutation to chase.
pub struct HostProbe {
    next: Vec<u32>,
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl HostProbe {
    /// Builds the table (Sattolo's shuffle, so that the chase visits every
    /// entry before it repeats). The same on every call.
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15;
        for i in (1..TABLE).rev() {
            x = xorshift(x);
            next.swap(i, (x % i as u64) as usize);
        }
        HostProbe { next }
    }

    /// Runs the reference loop once and returns its wall seconds.
    pub fn measure(&self) -> f64 {
        let t0 = Instant::now();
        let mut x = black_box(0x2545_F491_4F6C_DD1D_u64);
        for _ in 0..ALU_STEPS {
            x = xorshift(x);
        }
        let mut p = black_box(x as u32 % TABLE as u32);
        for _ in 0..CHASE_STEPS {
            p = self.next[p as usize];
        }
        black_box((x, p));
        t0.elapsed().as_secs_f64()
    }
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_visits_every_entry_before_it_repeats() {
        let probe = HostProbe::new();
        let mut p = 0u32;
        for step in 1..=TABLE {
            p = probe.next[p as usize];
            assert_eq!(
                p == 0,
                step == TABLE,
                "back at the start after {step} loads"
            );
        }
    }

    #[test]
    fn the_table_is_the_same_on_every_build() {
        assert_eq!(HostProbe::new().next, HostProbe::new().next);
        assert!(HostProbe::new().measure() > 0.0);
    }
}
