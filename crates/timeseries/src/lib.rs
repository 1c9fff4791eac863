//! # cda-timeseries
//!
//! Time-series analytics for the CDA reproduction — the machinery behind the
//! Figure-1 conversation's final turn, where the system reports "the best
//! fitted seasonal period is 6 (confidence 90%) … with the trend, seasonality
//! and residual components", *refuses* to analyze stretches without enough
//! data ("I am only reporting data for the last 10 years since there is no
//! sufficient data earlier"), and attaches the code that produced the plot.
//!
//! * [`series`] — the [`TimeSeries`] container plus seeded synthetic
//!   generators (seasonal + trend + noise) for experiment E10;
//! * [`decompose`] — classical additive decomposition (centered moving-
//!   average trend, seasonal means, residual);
//! * [`seasonality`] — autocorrelation-based period detection **with a
//!   confidence score**, the quantity the paper's P4 property surfaces.
//!
//! The seasonal-naive and drift forecast baselines that experiment E10 uses
//! to check a claimed period are experiment apparatus and live in
//! `cda-bench`'s lab (`forecast`).

// DESIGN.md §6: no panic and no stdio on product paths; `#[cfg(test)]` code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod decompose;
pub mod seasonality;
pub mod series;

pub use series::TimeSeries;

use std::fmt;

/// Errors from time-series operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsError {
    /// The series is too short for the requested operation.
    InsufficientData {
        /// Observations required.
        required: usize,
        /// Observations available.
        available: usize,
    },
    /// Invalid parameter (period 0, window 0, …).
    InvalidParameter(String),
    /// Timestamps and values differ in length.
    LengthMismatch,
}

impl fmt::Display for TsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InsufficientData { required, available } => write!(
                f,
                "insufficient data: need at least {required} observations, have {available}"
            ),
            Self::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            Self::LengthMismatch => write!(f, "timestamps and values differ in length"),
        }
    }
}

impl std::error::Error for TsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = TsError::InsufficientData { required: 24, available: 7 };
        assert!(e.to_string().contains("24"));
        assert!(e.to_string().contains('7'));
    }
}
