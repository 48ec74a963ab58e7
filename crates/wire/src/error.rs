//! The typed error surface of the wire protocol.
//!
//! Every way a peer, the network, or a byte stream can misbehave maps to
//! one [`WireError`] variant — malformed frames, short reads, version
//! mismatches, and overload are *values*, never panics. The frame-decoder
//! property tests feed arbitrary byte strings through the decoder to pin
//! exactly that.

use napmon_core::wirefmt::WireDecodeError;
use napmon_registry::RegistryError;
use napmon_serve::ServeError;

/// Error categories a server reports back to a client inside an `Error`
/// response frame. The numeric value is the on-wire code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The monitor rejected the input (dimension mismatch, not
    /// store-backed, store failure…).
    Monitor = 1,
    /// The serving worker lost the request (the monitor panicked on it,
    /// or the pool is shut down); it was not served.
    ShardDown = 2,
    /// The request payload did not decode.
    Malformed = 3,
    /// The request opcode is not one this server serves.
    UnsupportedOpcode = 4,
    /// The frame's protocol version is not the one this server speaks.
    UnsupportedVersion = 5,
    /// The server evicted this connection for stalling past its deadline
    /// (idle between frames, or mid-frame past the frame deadline). The
    /// connection closes after this frame; reconnect to continue.
    Evicted = 6,
    /// The frame's tenant route resolved to no mounted tenant or version
    /// — or a work frame arrived unrouted on a registry server (or routed
    /// on a single-engine server).
    UnknownTenant = 7,
    /// The registry refused an admin operation (version in use, no shadow
    /// attached, invalid tenant id, registry shut down, mount failure…).
    Registry = 8,
}

impl ErrorCode {
    /// Decodes an on-wire error code.
    pub fn from_wire(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::Monitor),
            2 => Some(Self::ShardDown),
            3 => Some(Self::Malformed),
            4 => Some(Self::UnsupportedOpcode),
            5 => Some(Self::UnsupportedVersion),
            6 => Some(Self::Evicted),
            7 => Some(Self::UnknownTenant),
            8 => Some(Self::Registry),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Monitor => "monitor",
            ErrorCode::ShardDown => "shard-down",
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnsupportedOpcode => "unsupported-opcode",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::Evicted => "evicted",
            ErrorCode::UnknownTenant => "unknown-tenant",
            ErrorCode::Registry => "registry",
        };
        f.write_str(name)
    }
}

/// Anything that can go wrong on the wire.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The frame does not start with the protocol magic.
    BadMagic([u8; 4]),
    /// The frame speaks a different protocol version.
    UnsupportedVersion {
        /// Version in the received frame.
        found: u16,
        /// The single version this build speaks.
        supported: u16,
    },
    /// The frame's opcode byte names no known operation.
    UnknownOpcode(u8),
    /// The frame declares a payload larger than the configured limit.
    PayloadTooLarge {
        /// Declared payload length.
        declared: u32,
        /// Configured limit.
        limit: u32,
    },
    /// An outgoing value exceeds what the protocol can represent — a
    /// payload longer than the `u32` length prefix can carry, or a batch
    /// over the per-frame input cap. Refusing to encode beats emitting a
    /// silently wrapped length prefix (a corrupt frame the peer would
    /// misparse).
    TooLarge {
        /// What was oversized (`"frame payload bytes"`, `"batch inputs"`,
        /// `"error message bytes"`).
        what: &'static str,
        /// The actual size, in the unit `what` names.
        len: u64,
        /// The largest size the protocol can carry.
        limit: u64,
    },
    /// The stream ended (or the buffer ran out) mid-frame.
    Truncated,
    /// The frame or payload is structurally invalid.
    Malformed(String),
    /// The server is at its in-flight budget; retry later.
    Busy {
        /// Requests in flight when the server refused.
        in_flight: u32,
        /// The server's configured budget.
        budget: u32,
    },
    /// The server answered with a typed error response.
    Remote {
        /// The error category the server reported.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The server answered with a frame the request cannot accept.
    UnexpectedResponse {
        /// What the client was waiting for.
        expected: &'static str,
        /// The opcode byte that arrived instead.
        got: u8,
    },
    /// A response carried a request id the client never sent (pipelining
    /// desynchronized).
    RequestIdMismatch {
        /// The id the client was waiting on.
        sent: u64,
        /// The id that arrived.
        got: u64,
    },
    /// A client-side deadline expired (connect, read, or write timeout;
    /// see [`ClientConfig`](crate::ClientConfig)). The stream may hold a
    /// partial frame, so the connection must be re-established before
    /// reuse — [`RetryPolicy`](crate::RetryPolicy) does this
    /// automatically for idempotent requests.
    TimedOut,
    /// A [`RetryPolicy`](crate::RetryPolicy) gave up: every attempt
    /// failed and the attempt or time budget ran out.
    RetriesExhausted {
        /// Attempts made, including the first.
        attempts: u32,
        /// The error the final attempt died with.
        last: Box<WireError>,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "peer speaks protocol v{found}, this build speaks v{supported}"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::PayloadTooLarge { declared, limit } => {
                write!(
                    f,
                    "declared payload of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            WireError::TooLarge { what, len, limit } => {
                write!(f, "{what}: {len} exceeds the wire limit of {limit}")
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Busy { in_flight, budget } => {
                write!(
                    f,
                    "server busy: {in_flight} requests in flight (budget {budget})"
                )
            }
            WireError::Remote { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            WireError::UnexpectedResponse { expected, got } => {
                write!(f, "expected a {expected} response, got opcode {got:#04x}")
            }
            WireError::RequestIdMismatch { sent, got } => {
                write!(f, "response for request {got} while waiting on {sent}")
            }
            WireError::TimedOut => write!(f, "client-side deadline expired"),
            WireError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl WireError {
    /// Whether this is a transient *transport* failure — the kind a fresh
    /// connection plus a retry can heal, but one that may have left a
    /// request half-delivered (so only idempotent requests should be
    /// retried across it). `Busy` is not a transport failure: the server
    /// explicitly did *not* admit the request, so retrying is always safe.
    pub fn is_transient_transport(&self) -> bool {
        matches!(
            self,
            WireError::Io(_) | WireError::Truncated | WireError::TimedOut
        )
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<WireDecodeError> for WireError {
    fn from(e: WireDecodeError) -> Self {
        match e {
            WireDecodeError::Truncated => WireError::Truncated,
            WireDecodeError::Malformed(what) => WireError::Malformed(what.to_string()),
            other => WireError::Malformed(other.to_string()),
        }
    }
}

impl WireError {
    /// The error-response code a server uses to report this failure.
    pub(crate) fn as_code(&self) -> ErrorCode {
        match self {
            WireError::UnsupportedVersion { .. } => ErrorCode::UnsupportedVersion,
            WireError::UnknownOpcode(_) => ErrorCode::UnsupportedOpcode,
            _ => ErrorCode::Malformed,
        }
    }
}

/// Maps an engine-side serving failure onto its wire error code.
pub(crate) fn serve_error_code(e: &ServeError) -> ErrorCode {
    match e {
        ServeError::Monitor(_) => ErrorCode::Monitor,
        ServeError::ShardDown => ErrorCode::ShardDown,
    }
}

/// Maps a registry-side failure onto its wire error code. Routing misses
/// get their own code (clients can distinguish "wrong address" from "the
/// operation failed"); engine failures keep the codes the single-engine
/// path uses; everything else is a registry refusal.
pub(crate) fn registry_error_code(e: &RegistryError) -> ErrorCode {
    match e {
        RegistryError::UnknownTenant(_) | RegistryError::UnknownVersion { .. } => {
            ErrorCode::UnknownTenant
        }
        RegistryError::Serve(serve) => serve_error_code(serve),
        RegistryError::Monitor(_) => ErrorCode::Monitor,
        _ => ErrorCode::Registry,
    }
}
