//! The substrate's error type.

/// Errors produced by the `khist-dist` substrate (and propagated by every
/// crate built on top of it).
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A distribution or partition over an empty domain was requested.
    EmptyDomain,
    /// Weights summed to zero (or less), so no distribution exists.
    ZeroTotalMass,
    /// An interval `[lo, hi]` is malformed or escapes the domain `[0, n)`.
    BadInterval {
        /// Requested lower endpoint (inclusive).
        lo: usize,
        /// Requested upper endpoint (inclusive).
        hi: usize,
        /// Domain size the interval must fit in (`0` when no domain is
        /// involved and `lo > hi` is the defect).
        n: usize,
    },
    /// A set of pieces does not tile the domain contiguously.
    BadTiling {
        /// Human-readable description of the violated invariant.
        reason: String,
    },
    /// A numeric or structural parameter is out of its legal range.
    BadParameter {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// One keyed stream failed: its key and its own error.
    Stream {
        /// The failing stream's key.
        key: String,
        /// What went wrong in that stream.
        cause: Box<DistError>,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::EmptyDomain => write!(f, "domain is empty"),
            DistError::ZeroTotalMass => write!(f, "total mass is zero"),
            DistError::BadInterval { lo, hi, n } => {
                write!(f, "bad interval [{lo}, {hi}] for domain size {n}")
            }
            DistError::BadTiling { reason } => write!(f, "bad tiling: {reason}"),
            DistError::BadParameter { reason } => write!(f, "bad parameter: {reason}"),
            DistError::Stream { key, cause } => write!(f, "stream '{key}': {cause}"),
        }
    }
}

impl std::error::Error for DistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(DistError::EmptyDomain.to_string(), "domain is empty");
        let e = DistError::BadInterval { lo: 3, hi: 1, n: 8 };
        assert!(e.to_string().contains("[3, 1]"));
        let e = DistError::BadParameter {
            reason: "k must be ≥ 1".into(),
        };
        assert!(e.to_string().contains("k must be ≥ 1"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(DistError::ZeroTotalMass);
        assert!(e.to_string().contains("zero"));
    }
}
