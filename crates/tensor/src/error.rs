use std::error::Error;
use std::fmt;

/// Error type for fallible tensor operations.
///
/// Covers construction-time validation (out-of-bounds points, rank
/// mismatches) and matrix-text parsing. All variants carry enough context to
/// diagnose the offending call without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// A point lies outside the tensor's shape.
    OutOfBounds {
        /// The offending coordinates (one per dimension).
        point: Vec<u32>,
        /// The tensor shape the point was checked against.
        shape: Vec<u32>,
    },
    /// A point had a different number of coordinates than the tensor has
    /// dimensions.
    RankMismatch {
        /// Number of coordinates supplied.
        got: usize,
        /// Number of dimensions expected.
        expected: usize,
    },
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the incompatibility.
        detail: String,
    },
    /// A matrix-market-style text payload could not be parsed.
    ParseMatrix {
        /// 1-based line number of the failure.
        line: usize,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::OutOfBounds { point, shape } => {
                write!(f, "point {point:?} lies outside tensor shape {shape:?}")
            }
            TensorError::RankMismatch { got, expected } => {
                write!(f, "point has {got} coordinates but tensor has {expected} dimensions")
            }
            TensorError::ShapeMismatch { detail } => {
                write!(f, "incompatible operand shapes: {detail}")
            }
            TensorError::ParseMatrix { line, detail } => {
                write!(f, "invalid matrix text at line {line}: {detail}")
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = TensorError::RankMismatch { got: 2, expected: 3 };
        let s = e.to_string();
        assert!(s.starts_with("point has"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn out_of_bounds_mentions_both_sides() {
        let e = TensorError::OutOfBounds { point: vec![5, 1], shape: vec![4, 4] };
        let s = e.to_string();
        assert!(s.contains("[5, 1]"));
        assert!(s.contains("[4, 4]"));
    }
}
