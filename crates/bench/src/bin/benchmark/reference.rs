//! The fixed reference workload that timings are normalized by.
//!
//! Host speed on a shared machine drifts by up to 2× over tens of
//! seconds as neighbours come and go, and no statistic taken inside one
//! run removes a slowdown that lasts the whole run. So right before each
//! timed slice (and each set-up build) the benchmark also times this
//! kernel on the calling thread, and rescales the slice to a host on
//! which the kernel runs at [`NOMINAL`] cycles per second. One thread is
//! deliberate: run on two threads at once, the kernel mostly measures
//! how much its two copies contend with each other, and it tracked the
//! two-thread workloads worse than a single copy does.
//!
//! The kernel calls 256 distinct small functions in a fixed scrambled
//! order over a 64-word state. Its large code footprint and small data
//! footprint are what make it slow down by the same factor as the
//! simulators when a neighbour shares the core; compact loops and
//! memory-bound kernels track them worse. It depends on nothing outside
//! this file, so no change to the program moves it.

use std::hint::black_box;
use std::time::Instant;

/// Reference cycles per second of the nominal host that normalized
/// timings are expressed on.
pub const NOMINAL: f64 = 1.0e6;
/// Reference cycles per measurement: about a millisecond.
const CYCLES: u64 = 1_000;
const SLOTS: usize = 64;

type Kernel = fn(&mut [u64; SLOTS]);

/// Instantiation `N` reads three slots and writes one, all picked by
/// `N`, through one of 16 operation pairs also picked by `N`: 256
/// distinct functions.
#[inline(never)]
fn kernel<const N: usize>(s: &mut [u64; SLOTS]) {
    let a = s[N % SLOTS];
    let b = s[(N * 7 + 3) % SLOTS];
    let c = s[(N * 11 + 1) % SLOTS];
    let n = N as u64;
    let x = match N % 4 {
        0 => a.wrapping_add(b ^ n),
        1 => a.rotate_left((N % 63) as u32) ^ b,
        2 => {
            if a & 1 == 1 {
                b.wrapping_mul(n | 1)
            } else {
                a >> 1
            }
        }
        _ => a.max(b).wrapping_sub(n),
    };
    let y = match (N / 4) % 4 {
        0 => x ^ (c << (N % 7)),
        1 => {
            if x > c {
                x - c
            } else {
                c.wrapping_add(n)
            }
        }
        2 => x.wrapping_mul(0x9e37_79b9) >> 5,
        _ => (x | c) & (0xffff ^ n),
    };
    s[(N * 13 + 5) % SLOTS] = y & 0xff_ffff;
}

macro_rules! row {
    ($b:expr) => {
        [
            kernel::<{ $b }>,
            kernel::<{ $b + 1 }>,
            kernel::<{ $b + 2 }>,
            kernel::<{ $b + 3 }>,
            kernel::<{ $b + 4 }>,
            kernel::<{ $b + 5 }>,
            kernel::<{ $b + 6 }>,
            kernel::<{ $b + 7 }>,
            kernel::<{ $b + 8 }>,
            kernel::<{ $b + 9 }>,
            kernel::<{ $b + 10 }>,
            kernel::<{ $b + 11 }>,
            kernel::<{ $b + 12 }>,
            kernel::<{ $b + 13 }>,
            kernel::<{ $b + 14 }>,
            kernel::<{ $b + 15 }>,
        ]
    };
}

const KERNELS: [[Kernel; 16]; 16] = [
    row!(0),
    row!(16),
    row!(32),
    row!(48),
    row!(64),
    row!(80),
    row!(96),
    row!(112),
    row!(128),
    row!(144),
    row!(160),
    row!(176),
    row!(192),
    row!(208),
    row!(224),
    row!(240),
];

pub struct Reference {
    /// The call order: every kernel index once per cycle, scrambled.
    order: Vec<u8>,
    slots: [u64; SLOTS],
}

impl Default for Reference {
    fn default() -> Self {
        let mut order: Vec<u8> = (0..=255).collect();
        let mut x = 0x5851_f42d_4c95_7f2du64;
        for i in (1..order.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        Reference {
            order,
            slots: [1; SLOTS],
        }
    }
}

impl Reference {
    fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            for &k in black_box(&self.order) {
                KERNELS[usize::from(k >> 4)][usize::from(k & 15)](&mut self.slots);
            }
        }
        black_box(&self.slots);
    }

    /// Reference cycles per second, measured now.
    pub fn rate(&mut self) -> f64 {
        let t = Instant::now();
        self.run(CYCLES);
        CYCLES as f64 / t.elapsed().as_secs_f64().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_calls_every_function_once_per_cycle_and_is_deterministic() {
        let (mut a, mut b) = (Reference::default(), Reference::default());
        let mut seen = a.order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..=255).collect::<Vec<u8>>());
        a.run(10);
        b.run(10);
        assert_eq!(a.slots, b.slots);
        assert!(a.slots.iter().any(|s| *s != 1));
        assert!(a.rate() > 0.0);
    }
}
