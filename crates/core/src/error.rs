//! Typed service errors.
//!
//! Fallible data-path operations return [`ServiceError`] instead of
//! panicking; the frontend/proxy turn one into an error completion the
//! shim surfaces as an NCCL-style result code. Panics remain only for
//! true service invariants (state the simulation itself guarantees).

use mccs_ipc::{ErrorCode, ShimCompletion};
use std::fmt;

/// A classified, user-visible service failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceError {
    /// NCCL-style classification.
    pub code: ErrorCode,
    /// Human-readable cause.
    pub message: String,
}

impl ServiceError {
    /// A malformed caller argument (`ncclInvalidArgument`).
    pub fn invalid_argument(message: impl Into<String>) -> Self {
        ServiceError {
            code: ErrorCode::InvalidArgument,
            message: message.into(),
        }
    }

    /// An API usage violation (`ncclInvalidUsage`).
    pub fn invalid_usage(message: impl Into<String>) -> Self {
        ServiceError {
            code: ErrorCode::InvalidUsage,
            message: message.into(),
        }
    }

    /// An unrecoverable fabric/system failure (`ncclSystemError`).
    pub fn system(message: impl Into<String>) -> Self {
        ServiceError {
            code: ErrorCode::SystemError,
            message: message.into(),
        }
    }

    /// A service-internal inconsistency (`ncclInternalError`).
    pub fn internal(message: impl Into<String>) -> Self {
        ServiceError {
            code: ErrorCode::InternalError,
            message: message.into(),
        }
    }

    /// The error completion for request `req`.
    pub fn completion(self, req: u64) -> ShimCompletion {
        ShimCompletion::Error {
            req,
            code: self.code,
            message: self.message,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_classify_and_display() {
        let e = ServiceError::invalid_usage("unknown communicator");
        assert_eq!(e.code, ErrorCode::InvalidUsage);
        assert_eq!(e.to_string(), "InvalidUsage: unknown communicator");
        match e.completion(7) {
            ShimCompletion::Error { req, code, message } => {
                assert_eq!(req, 7);
                assert_eq!(code, ErrorCode::InvalidUsage);
                assert_eq!(message, "unknown communicator");
            }
            other => panic!("unexpected completion {other:?}"),
        }
    }
}
