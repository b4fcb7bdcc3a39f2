//! The crate-wide error types: [`RaceError`] for the gate-level and
//! graph races, [`AlignError`] for the alignment engine's validated
//! entry points.

use std::fmt;

use crate::supervisor::StopReason;

/// Typed errors from the alignment engine's validated entry points
/// (`try_*` constructors, supervised scans). The legacy panicking
/// surface (`AlignConfig::new`, `scan_packed_topk_with`, …) raises the
/// same conditions as panics whose messages match these displays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// A configuration or input was rejected before any racing began:
    /// zero indel weight, a degenerate local scheme, a threshold in a
    /// max-plus mode, `k = 0` or `k` beyond the database, an empty
    /// query or database entry.
    InvalidConfig {
        /// Why the configuration was rejected.
        reason: String,
    },
    /// No kernel word is wide enough for this shape and weight scheme:
    /// even `u64` cannot bound `(n + m + 2) · max_step` without
    /// saturating, so exact scores are unrepresentable.
    EligibilityOverflow {
        /// Query length.
        n: usize,
        /// Longest pattern length.
        m: usize,
        /// The scheme's largest per-step weight.
        max_step: u64,
    },
    /// A supervised run spent its grid-cell budget before completing.
    BudgetExhausted,
    /// A supervised run stopped early for a non-budget reason
    /// (cancellation or an expired deadline).
    Interrupted {
        /// Why the run stopped.
        reason: StopReason,
    },
    /// A worker panicked and at least one pair could not be recovered
    /// by the per-pair fallback kernel.
    WorkerFault {
        /// The failing site (see `docs/ROBUSTNESS.md` for the catalog).
        site: String,
        /// The panic payload.
        message: String,
    },
    /// A store-layer I/O failure (open, read, or commit) — the scan
    /// equivalent of EIO. Carries the [`crate::store::StoreError`]
    /// rendering; retrying may succeed (transient I/O), unlike
    /// [`AlignError::Corrupt`].
    Io {
        /// What the store was doing when the I/O failed.
        context: String,
    },
    /// A persisted shard failed integrity verification: chunk `chunk`
    /// of shard `shard` did not match its manifest checksum. The scan
    /// layer quarantines the shard; see `docs/ROBUSTNESS.md`.
    Corrupt {
        /// The shard whose payload failed verification.
        shard: usize,
        /// The failing chunk within that shard.
        chunk: usize,
    },
}

impl fmt::Display for AlignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlignError::InvalidConfig { reason } => {
                write!(f, "invalid alignment configuration: {reason}")
            }
            AlignError::EligibilityOverflow { n, m, max_step } => write!(
                f,
                "no kernel word fits a {n} x {m} alignment with max step weight {max_step}: \
                 (n + m + 2) * max_step overflows u64"
            ),
            AlignError::BudgetExhausted => write!(f, "cell budget exhausted"),
            AlignError::Interrupted { reason } => write!(f, "scan interrupted: {reason}"),
            AlignError::WorkerFault { site, message } => {
                write!(f, "unrecovered worker fault at {site}: {message}")
            }
            AlignError::Io { context } => write!(f, "store I/O failure: {context}"),
            AlignError::Corrupt { shard, chunk } => write!(
                f,
                "store corruption: shard {shard}, chunk {chunk} failed integrity verification"
            ),
        }
    }
}

impl std::error::Error for AlignError {}

impl From<StopReason> for AlignError {
    fn from(reason: StopReason) -> Self {
        match reason {
            StopReason::BudgetExhausted => AlignError::BudgetExhausted,
            _ => AlignError::Interrupted { reason },
        }
    }
}

impl From<crate::store::StoreError> for AlignError {
    fn from(e: crate::store::StoreError) -> Self {
        match e {
            crate::store::StoreError::Corrupt { shard, chunk } => {
                AlignError::Corrupt { shard, chunk }
            }
            other => AlignError::Io {
                context: other.to_string(),
            },
        }
    }
}

/// Errors from compiling or running races.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaceError {
    /// The underlying gate-level circuit failed to elaborate or simulate.
    Circuit(rl_circuit::CircuitError),
    /// The input graph was malformed (cycle, unknown node, …).
    Graph(rl_dag::GraphError),
    /// An AND-type race was requested on a graph where some node is not
    /// reachable from the source set: an AND gate would starve forever on
    /// a dead input, so the longest-path interpretation breaks down.
    AndInfeasible,
    /// The race did not finish within the given cycle budget.
    RaceTimeout {
        /// The budget that was exhausted.
        limit: u64,
    },
    /// A score matrix could not be converted to race delays (see
    /// [`crate::score_transform::TransformError`] for the specific cause).
    Transform(crate::score_transform::TransformError),
}

impl fmt::Display for RaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceError::Circuit(e) => write!(f, "circuit error: {e}"),
            RaceError::Graph(e) => write!(f, "graph error: {e}"),
            RaceError::AndInfeasible => write!(
                f,
                "AND-type race infeasible: a node is unreachable from the sources"
            ),
            RaceError::RaceTimeout { limit } => {
                write!(f, "race did not finish within {limit} cycles")
            }
            RaceError::Transform(e) => write!(f, "score transform error: {e}"),
        }
    }
}

impl std::error::Error for RaceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RaceError::Circuit(e) => Some(e),
            RaceError::Graph(e) => Some(e),
            RaceError::Transform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rl_circuit::CircuitError> for RaceError {
    fn from(e: rl_circuit::CircuitError) -> Self {
        RaceError::Circuit(e)
    }
}

impl From<rl_dag::GraphError> for RaceError {
    fn from(e: rl_dag::GraphError) -> Self {
        RaceError::Graph(e)
    }
}

impl From<crate::score_transform::TransformError> for RaceError {
    fn from(e: crate::score_transform::TransformError) -> Self {
        RaceError::Transform(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_error_display_and_from_stop() {
        let e = AlignError::InvalidConfig {
            reason: "indel weight must be positive".into(),
        };
        assert!(e.to_string().contains("indel weight must be positive"));
        let e = AlignError::EligibilityOverflow {
            n: 3,
            m: 4,
            max_step: u64::MAX,
        };
        assert!(e.to_string().contains("overflows u64"));
        assert_eq!(
            AlignError::from(StopReason::BudgetExhausted),
            AlignError::BudgetExhausted
        );
        assert_eq!(
            AlignError::from(StopReason::Cancelled),
            AlignError::Interrupted {
                reason: StopReason::Cancelled
            }
        );
    }

    #[test]
    fn store_errors_map_to_typed_align_errors() {
        assert_eq!(
            AlignError::from(crate::store::StoreError::Corrupt { shard: 2, chunk: 5 }),
            AlignError::Corrupt { shard: 2, chunk: 5 }
        );
        let io = AlignError::from(crate::store::StoreError::Truncated {
            context: "manifest region".into(),
        });
        match &io {
            AlignError::Io { context } => assert!(context.contains("manifest region")),
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(io.to_string().contains("store I/O failure"));
        assert!(AlignError::Corrupt { shard: 1, chunk: 0 }
            .to_string()
            .contains("shard 1"));
    }

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = RaceError::RaceTimeout { limit: 12 };
        assert!(e.to_string().contains("12"));
        assert!(e.source().is_none());
        let c: RaceError = rl_circuit::CircuitError::CycleLimitExceeded { limit: 3 }.into();
        assert!(c.source().is_some());
    }
}
