//! Worker-pool timing: a small wall-clock stopwatch, so the bench and
//! serve crates share one timer instead of each re-rolling `Instant`
//! arithmetic.

use std::time::Instant;

/// A started wall-clock timer; the minimal replacement for the ad-hoc
/// `Instant::now()` pairs that used to be scattered over the bench
/// crates.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_moves_forward() {
        let w = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(w.elapsed_secs() > 0.0);
    }
}
