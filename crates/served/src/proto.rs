//! Typed request/response messages and their byte encoding.
//!
//! Messages travel one per [frame](crate::wire). The encoding reuses the
//! core crate's [`ByteWriter`]/[`ByteReader`] helpers: a leading tag
//! byte selects the variant, fixed-width fields follow little-endian,
//! and variable-length payloads carry a bounds-checked `u64` length
//! prefix (`read_len`), so a corrupt inner length is rejected before it
//! can drive an allocation — the same discipline the container parser
//! and snapshot reader follow.

use ccrp::{ByteReader, ByteWriter, SnapshotError};

/// Cap on the syscall output echoed back by [`Response::Ran`].
pub const MAX_RUN_OUTPUT_BYTES: usize = 4096;

/// How a request failed, as reported on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request could not be understood: bad tag, bad field, bad
    /// container header, unassemblable source.
    Malformed,
    /// The server shed the request before running it (queue full).
    /// Retryable.
    Overload,
    /// The request exceeded its deadline or fuel budget.
    Timeout,
    /// The input parsed but its integrity checks failed: CRC mismatch,
    /// line miscompare, attestation over a corrupt image.
    IntegrityFailure,
    /// Execution faulted (emulator machine check, bad memory access).
    Fault,
    /// The handler itself failed (it panicked and the service caught
    /// it).
    Internal,
}

impl ErrorKind {
    /// Every kind, in tag order.
    pub const ALL: [ErrorKind; 6] = [
        ErrorKind::Malformed,
        ErrorKind::Overload,
        ErrorKind::Timeout,
        ErrorKind::IntegrityFailure,
        ErrorKind::Fault,
        ErrorKind::Internal,
    ];

    /// Stable lowercase name (used in reports and traces).
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::Overload => "overload",
            ErrorKind::Timeout => "timeout",
            ErrorKind::IntegrityFailure => "integrity_failure",
            ErrorKind::Fault => "fault",
            ErrorKind::Internal => "internal",
        }
    }

    fn tag(self) -> u8 {
        match self {
            ErrorKind::Malformed => 0,
            ErrorKind::Overload => 1,
            ErrorKind::Timeout => 2,
            ErrorKind::IntegrityFailure => 3,
            ErrorKind::Fault => 4,
            ErrorKind::Internal => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<ErrorKind, SnapshotError> {
        ErrorKind::ALL
            .get(tag as usize)
            .copied()
            .ok_or(SnapshotError::Malformed {
                what: "unknown error kind",
            })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Compress raw text into a container.
    Compress {
        /// Address the text loads at.
        text_base: u32,
        /// Emit a v2 (CRC-carrying) container.
        v2: bool,
        /// The bytes to compress (padded to a 32-byte multiple by the
        /// server).
        text: Vec<u8>,
    },
    /// Parse a container and run its full integrity verification.
    Verify {
        /// The container bytes.
        container: Vec<u8>,
    },
    /// Parse a container and report its geometry without expanding.
    Inspect {
        /// The container bytes.
        container: Vec<u8>,
    },
    /// Expand one 32-byte line of a container.
    ExpandLine {
        /// The container bytes.
        container: Vec<u8>,
        /// Byte address of the line (relative to the text base).
        address: u32,
    },
    /// Assemble and run a program under a fuel budget.
    Run {
        /// Assembly source.
        source: String,
        /// Fuel budget in instructions; `0` means the server default.
        /// Values above the server default are clamped down to it.
        fuel: u64,
    },
    /// Run one cache-simulation cell: assemble, trace, and replay the
    /// trace through both the standard and CCRP system simulators.
    SweepCell {
        /// Assembly source.
        source: String,
        /// Instruction-cache capacity in bytes.
        cache_bytes: u32,
        /// Index into [`ccrp_sim::MemoryModel::ALL`].
        memory: u8,
        /// Fuel budget for the emulation *and* each replay; `0` means
        /// the server default.
        fuel: u64,
    },
    /// Challenge-response attestation: digest nonce-selected lines of a
    /// v2 container.
    Attest {
        /// The v2 container bytes.
        container: Vec<u8>,
        /// The challenge nonce.
        nonce: u64,
        /// Number of lines to sample.
        samples: u32,
    },
    /// Deliberately misbehave inside the handler (testing only; the
    /// server must have chaos enabled).
    Chaos {
        /// Which misbehaviour: `0` panics the handler with
        /// [`CHAOS_PANIC_MESSAGE`](crate::CHAOS_PANIC_MESSAGE); any
        /// other kind is `Malformed`.
        kind: u8,
    },
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The compressed container for a [`Request::Compress`].
    Compressed {
        /// The container bytes.
        container: Vec<u8>,
    },
    /// A container parsed and verified clean.
    Verified {
        /// Number of 32-byte lines.
        lines: u32,
        /// Container format version (1 or 2).
        version: u8,
        /// Total stored bytes (blocks + LAT + code table).
        stored_bytes: u32,
    },
    /// Container geometry for a [`Request::Inspect`].
    Inspected {
        /// Number of 32-byte lines.
        lines: u32,
        /// Container format version (1 or 2).
        version: u8,
        /// Address the text loads at.
        text_base: u32,
        /// Bytes of original text.
        original_bytes: u32,
        /// Total stored bytes (blocks + LAT + code table).
        stored_bytes: u32,
        /// Lines stored uncompressed because compression expanded them.
        bypass_lines: u32,
        /// Compression ratio in thousandths (stored/original × 1000).
        ratio_milli: u32,
    },
    /// One expanded line.
    Line {
        /// The 32 decompressed bytes.
        bytes: [u8; 32],
    },
    /// A program ran to completion.
    Ran {
        /// Dynamic instructions executed.
        steps: u64,
        /// The program's exit code.
        exit_code: i32,
        /// Syscall output, truncated to [`MAX_RUN_OUTPUT_BYTES`].
        output: Vec<u8>,
    },
    /// One simulation cell's result.
    SweptCell {
        /// Standard-processor cycles (rounded).
        standard_cycles: u64,
        /// CCRP-processor cycles (rounded).
        ccrp_cycles: u64,
        /// CCRP/standard cycle ratio in thousandths.
        relative_milli: u32,
    },
    /// An attestation digest.
    Attested {
        /// The challenge digest.
        digest: u64,
        /// Lines actually sampled.
        sampled: u32,
    },
    /// The request failed.
    Error {
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
}

fn put_blob(w: &mut ByteWriter, bytes: &[u8]) {
    w.put_u64(bytes.len() as u64);
    w.put_bytes(bytes);
}

fn read_blob(r: &mut ByteReader<'_>, what: &'static str) -> Result<Vec<u8>, SnapshotError> {
    let len = r.read_len(what)?;
    Ok(r.take(len)?.to_vec())
}

fn read_string(r: &mut ByteReader<'_>, what: &'static str) -> Result<String, SnapshotError> {
    String::from_utf8(read_blob(r, what)?).map_err(|_| SnapshotError::Malformed { what })
}

fn read_bool(r: &mut ByteReader<'_>, what: &'static str) -> Result<bool, SnapshotError> {
    match r.read_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(SnapshotError::Malformed { what }),
    }
}

fn finish<T>(r: &ByteReader<'_>, value: T) -> Result<T, SnapshotError> {
    if r.is_exhausted() {
        Ok(value)
    } else {
        Err(SnapshotError::TrailingBytes {
            extra: r.remaining(),
        })
    }
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Request::Compress {
                text_base,
                v2,
                text,
            } => {
                w.put_u8(1);
                w.put_u32(*text_base);
                w.put_u8(u8::from(*v2));
                put_blob(&mut w, text);
            }
            Request::Verify { container } => {
                w.put_u8(2);
                put_blob(&mut w, container);
            }
            Request::Inspect { container } => {
                w.put_u8(3);
                put_blob(&mut w, container);
            }
            Request::ExpandLine { container, address } => {
                w.put_u8(4);
                w.put_u32(*address);
                put_blob(&mut w, container);
            }
            Request::Run { source, fuel } => {
                w.put_u8(5);
                w.put_u64(*fuel);
                put_blob(&mut w, source.as_bytes());
            }
            Request::SweepCell {
                source,
                cache_bytes,
                memory,
                fuel,
            } => {
                w.put_u8(6);
                w.put_u32(*cache_bytes);
                w.put_u8(*memory);
                w.put_u64(*fuel);
                put_blob(&mut w, source.as_bytes());
            }
            Request::Attest {
                container,
                nonce,
                samples,
            } => {
                w.put_u8(7);
                w.put_u64(*nonce);
                w.put_u32(*samples);
                put_blob(&mut w, container);
            }
            Request::Chaos { kind } => {
                w.put_u8(8);
                w.put_u8(*kind);
            }
        }
        w.into_bytes()
    }

    /// Decodes a request from a frame payload.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncation, an unknown tag, an inner length
    /// exceeding the payload, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Request, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let request = match r.read_u8()? {
            1 => Request::Compress {
                text_base: r.read_u32()?,
                v2: read_bool(&mut r, "compress v2 flag")?,
                text: read_blob(&mut r, "compress text")?,
            },
            2 => Request::Verify {
                container: read_blob(&mut r, "verify container")?,
            },
            3 => Request::Inspect {
                container: read_blob(&mut r, "inspect container")?,
            },
            4 => Request::ExpandLine {
                address: r.read_u32()?,
                container: read_blob(&mut r, "expand-line container")?,
            },
            5 => Request::Run {
                fuel: r.read_u64()?,
                source: read_string(&mut r, "run source")?,
            },
            6 => {
                let cache_bytes = r.read_u32()?;
                let memory = r.read_u8()?;
                let fuel = r.read_u64()?;
                Request::SweepCell {
                    source: read_string(&mut r, "sweep source")?,
                    cache_bytes,
                    memory,
                    fuel,
                }
            }
            7 => {
                let nonce = r.read_u64()?;
                let samples = r.read_u32()?;
                Request::Attest {
                    container: read_blob(&mut r, "attest container")?,
                    nonce,
                    samples,
                }
            }
            8 => Request::Chaos { kind: r.read_u8()? },
            _ => {
                return Err(SnapshotError::Malformed {
                    what: "unknown request tag",
                })
            }
        };
        finish(&r, request)
    }

    /// Stable lowercase name of the endpoint (used in traces/reports).
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::Compress { .. } => "compress",
            Request::Verify { .. } => "verify",
            Request::Inspect { .. } => "inspect",
            Request::ExpandLine { .. } => "expand-line",
            Request::Run { .. } => "run",
            Request::SweepCell { .. } => "sweep-cell",
            Request::Attest { .. } => "attest",
            Request::Chaos { .. } => "chaos",
        }
    }
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Response::Compressed { container } => {
                w.put_u8(1);
                put_blob(&mut w, container);
            }
            Response::Verified {
                lines,
                version,
                stored_bytes,
            } => {
                w.put_u8(2);
                w.put_u32(*lines);
                w.put_u8(*version);
                w.put_u32(*stored_bytes);
            }
            Response::Inspected {
                lines,
                version,
                text_base,
                original_bytes,
                stored_bytes,
                bypass_lines,
                ratio_milli,
            } => {
                w.put_u8(3);
                w.put_u32(*lines);
                w.put_u8(*version);
                w.put_u32(*text_base);
                w.put_u32(*original_bytes);
                w.put_u32(*stored_bytes);
                w.put_u32(*bypass_lines);
                w.put_u32(*ratio_milli);
            }
            Response::Line { bytes } => {
                w.put_u8(4);
                w.put_bytes(bytes);
            }
            Response::Ran {
                steps,
                exit_code,
                output,
            } => {
                w.put_u8(5);
                w.put_u64(*steps);
                w.put_i32(*exit_code);
                put_blob(&mut w, output);
            }
            Response::SweptCell {
                standard_cycles,
                ccrp_cycles,
                relative_milli,
            } => {
                w.put_u8(6);
                w.put_u64(*standard_cycles);
                w.put_u64(*ccrp_cycles);
                w.put_u32(*relative_milli);
            }
            Response::Attested { digest, sampled } => {
                w.put_u8(7);
                w.put_u64(*digest);
                w.put_u32(*sampled);
            }
            Response::Error { kind, detail } => {
                w.put_u8(8);
                w.put_u8(kind.tag());
                put_blob(&mut w, detail.as_bytes());
            }
        }
        w.into_bytes()
    }

    /// Decodes a response from a frame payload.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncation, an unknown tag, an inner length
    /// exceeding the payload, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Response, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let response = match r.read_u8()? {
            1 => Response::Compressed {
                container: read_blob(&mut r, "compressed container")?,
            },
            2 => Response::Verified {
                lines: r.read_u32()?,
                version: r.read_u8()?,
                stored_bytes: r.read_u32()?,
            },
            3 => Response::Inspected {
                lines: r.read_u32()?,
                version: r.read_u8()?,
                text_base: r.read_u32()?,
                original_bytes: r.read_u32()?,
                stored_bytes: r.read_u32()?,
                bypass_lines: r.read_u32()?,
                ratio_milli: r.read_u32()?,
            },
            4 => {
                let mut bytes = [0u8; 32];
                bytes.copy_from_slice(r.take(32)?);
                Response::Line { bytes }
            }
            5 => Response::Ran {
                steps: r.read_u64()?,
                exit_code: r.read_i32()?,
                output: read_blob(&mut r, "run output")?,
            },
            6 => Response::SweptCell {
                standard_cycles: r.read_u64()?,
                ccrp_cycles: r.read_u64()?,
                relative_milli: r.read_u32()?,
            },
            7 => Response::Attested {
                digest: r.read_u64()?,
                sampled: r.read_u32()?,
            },
            8 => Response::Error {
                kind: ErrorKind::from_tag(r.read_u8()?)?,
                detail: read_string(&mut r, "error detail")?,
            },
            _ => {
                return Err(SnapshotError::Malformed {
                    what: "unknown response tag",
                })
            }
        };
        finish(&r, response)
    }

    /// The error kind, when this is an [`Response::Error`].
    pub fn error_kind(&self) -> Option<ErrorKind> {
        match self {
            Response::Error { kind, .. } => Some(*kind),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Compress {
                text_base: 0x1000,
                v2: true,
                text: vec![0x24; 64],
            },
            Request::Verify {
                container: vec![1, 2, 3],
            },
            Request::Inspect { container: vec![] },
            Request::ExpandLine {
                container: vec![9; 8],
                address: 32,
            },
            Request::Run {
                source: "main: li $v0, 10\n syscall\n".to_owned(),
                fuel: 1000,
            },
            Request::SweepCell {
                source: "main: b main".to_owned(),
                cache_bytes: 1024,
                memory: 1,
                fuel: 0,
            },
            Request::Attest {
                container: vec![7; 16],
                nonce: 0xDEAD_BEEF_CAFE_F00D,
                samples: 12,
            },
            Request::Chaos { kind: 0 },
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Compressed {
                container: vec![4; 40],
            },
            Response::Verified {
                lines: 128,
                version: 2,
                stored_bytes: 3200,
            },
            Response::Inspected {
                lines: 128,
                version: 1,
                text_base: 0,
                original_bytes: 4096,
                stored_bytes: 3000,
                bypass_lines: 32,
                ratio_milli: 732,
            },
            Response::Line { bytes: [0xAB; 32] },
            Response::Ran {
                steps: 12345,
                exit_code: -3,
                output: b"55".to_vec(),
            },
            Response::SweptCell {
                standard_cycles: 100_000,
                ccrp_cycles: 113_000,
                relative_milli: 1130,
            },
            Response::Attested {
                digest: 0x0123_4567_89AB_CDEF,
                sampled: 12,
            },
            Response::Error {
                kind: ErrorKind::IntegrityFailure,
                detail: "line 3 CRC mismatch".to_owned(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in all_responses() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            Request::decode(&[0xFF]),
            Err(SnapshotError::Malformed {
                what: "unknown request tag"
            })
        ));
        assert!(matches!(
            Response::decode(&[0xFF]),
            Err(SnapshotError::Malformed {
                what: "unknown response tag"
            })
        ));
    }

    #[test]
    fn corrupt_inner_length_rejected_before_allocation() {
        // A Verify request whose blob length claims far more than the
        // payload holds.
        let mut bytes = vec![2u8];
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        assert!(matches!(
            Request::decode(&bytes),
            Err(SnapshotError::Malformed {
                what: "verify container"
            })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Request::Chaos { kind: 0 }.encode();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn truncated_payload_rejected() {
        let full = Request::Run {
            source: "main: syscall".to_owned(),
            fuel: 9,
        }
        .encode();
        for cut in 0..full.len() {
            assert!(
                Request::decode(&full[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn error_kind_names_are_stable() {
        let names: Vec<_> = ErrorKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "malformed",
                "overload",
                "timeout",
                "integrity_failure",
                "fault",
                "internal"
            ]
        );
        for kind in ErrorKind::ALL {
            assert_eq!(ErrorKind::from_tag(kind.tag()).unwrap(), kind);
        }
    }
}
