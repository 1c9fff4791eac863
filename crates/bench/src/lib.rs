//! Shared harness utilities for the experiment binaries (`src/bin/exp_*`).
//! Each binary regenerates one experiment from the index in DESIGN.md §4
//! and prints a fixed-width table whose rows are recorded in
//! EXPERIMENTS.md. Times they print are information only: an experiment's
//! exit status never depends on a clock (the `perf/` benchmark owns speed).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Print an experiment header.
pub fn header(id: &str, title: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("==============================================================");
}

/// Print a table row of already-formatted cells with fixed column width.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:<16}")).collect();
    println!("{}", line.join(" "));
}

/// Convenience: format a float with 3 decimals.
pub fn f(x: f64) -> String {
    format!("{x:.3}")
}

/// Convenience: format a duration in microseconds.
pub fn us(d: Duration) -> String {
    format!("{:.1}us", d.as_secs_f64() * 1e6)
}

/// Time a closure, returning (result, elapsed).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Time a closure averaged over `n` runs (result of the last run returned).
pub fn timed_avg<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(n > 0);
    let start = Instant::now();
    let mut out = None;
    for _ in 0..n {
        out = Some(f());
    }
    (out.expect("n > 0"), start.elapsed() / n as u32)
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456), "1.235");
        assert!(us(Duration::from_micros(1500)).starts_with("1500.0"));
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn timed_measures() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        let (v, _) = timed_avg(3, || 7);
        assert_eq!(v, 7);
    }
}
