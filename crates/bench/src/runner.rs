//! Timing utilities for the experiment harness.

use std::time::Instant;

/// Times a single invocation of `f`, returning (seconds, result).
pub fn time_once<T, F: FnOnce() -> T>(f: F) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Times `f` over `runs` invocations and returns the median seconds plus
/// the last result. Used for the fast solvers where run-to-run noise would
/// otherwise dominate.
pub fn time_median<T, F: FnMut() -> T>(runs: usize, mut f: F) -> (f64, T) {
    assert!(runs >= 1);
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let (t, out) = time_once(&mut f);
        times.push(t);
        last = Some(out);
    }
    (crate::report::median(&mut times), last.expect("runs >= 1"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_result() {
        let (t, v) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }

    #[test]
    fn median_of_multiple_runs() {
        let mut calls = 0;
        let (t, v) = time_median(5, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 5);
        assert_eq!(v, 5);
        assert!(t >= 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_runs_panics() {
        time_median(0, || ());
    }
}
