//! The length-prefixed JSON wire protocol between coordinator and worker.
//!
//! A **frame** is a 4-byte big-endian length followed by exactly that many
//! bytes of compact JSON (one [`Message`], no newlines). The length covers
//! the JSON bytes only and is capped at [`MAX_FRAME_LEN`]; a corrupt or
//! hostile prefix therefore errors cleanly instead of allocating the moon.
//! The JSON payload reuses the workspace's dependency-free [`Json`] tree
//! (`seer_store::json`), so the protocol inherits the store's exact float
//! round-tripping — the same property that makes disk shards lossless
//! makes wire values lossless.
//!
//! Message flow (one connection = one in-flight work slot):
//!
//! ```text
//! coordinator                         worker
//!     │ ── hello {protocol, fingerprint} ─▶ │   (reject on mismatch)
//!     │ ◀─ hello {protocol, fingerprint} ── │
//!     │ ── work {id, item} ───────────────▶ │
//!     │ ◀─ heartbeat {id} ───────────────── │   (every ~100 ms while computing)
//!     │ ◀─ done {id, checksum, value} ───── │   (or failed {id, error})
//!     │ ── work {id+1, item} ─────────────▶ │   ...
//! ```
//!
//! Decoding is *total*: any byte sequence — truncated frames, bit flips,
//! garbage lengths, well-formed JSON of the wrong shape — produces a
//! [`ProtoError`], never a panic. `crates/remote/tests/proto_props.rs`
//! sweeps corruptions at every offset to pin that.

use std::io::{Read, Write};
use std::time::Duration;

use seer_store::{fnv1a, Json, ToJson};

/// Bumped on any incompatible change to frames or message shapes; the
/// hello handshake rejects mismatches before any work is exchanged.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a frame's JSON payload. The largest real payload (a
/// `done` carrying a full `ScenarioOutcome`) is a few hundred KiB; a
/// length prefix beyond this bound is treated as corruption.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// How often a worker emits `heartbeat` frames while computing.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// Why a frame could not be read or understood.
#[derive(Debug)]
pub enum ProtoError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// An I/O failure (includes read timeouts and mid-frame EOF).
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(u64),
    /// The payload is not valid JSON, or is JSON of the wrong shape.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtoError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// One unit of remote work, as it travels on the wire. Coordinates are
/// carried as the *names* the whole workspace round-trips already
/// (`Benchmark::name`, `PolicyKind::name`, built-in scenario names), and
/// the workload scale travels as raw IEEE-754 bits — the store-key
/// discipline, so a remote result is addressed exactly like a local one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkItem {
    /// One harness cell: a `(benchmark, policy, threads, seed, scale)`
    /// simulation.
    Cell {
        /// Benchmark name (`Benchmark::name`).
        benchmark: String,
        /// Policy name (`PolicyKind::name`).
        policy: String,
        /// Simulated threads.
        threads: usize,
        /// Harness seed.
        seed: u64,
        /// Workload scale factor, as raw `f64` bits.
        scale_bits: u64,
    },
    /// One built-in scenario run.
    Scenario {
        /// Built-in scenario name.
        scenario: String,
        /// Policy name.
        policy: String,
        /// Harness seed.
        seed: u64,
    },
}

impl WorkItem {
    fn to_json(&self) -> Json {
        match self {
            WorkItem::Cell {
                benchmark,
                policy,
                threads,
                seed,
                scale_bits,
            } => Json::object([
                ("kind", "cell".to_json()),
                ("benchmark", benchmark.to_json()),
                ("policy", policy.to_json()),
                ("threads", threads.to_json()),
                ("seed", seed.to_json()),
                ("scale_bits", scale_bits.to_json()),
            ]),
            WorkItem::Scenario {
                scenario,
                policy,
                seed,
            } => Json::object([
                ("kind", "scenario".to_json()),
                ("scenario", scenario.to_json()),
                ("policy", policy.to_json()),
                ("seed", seed.to_json()),
            ]),
        }
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        match json.str_field("kind")? {
            "cell" => Ok(WorkItem::Cell {
                benchmark: json.str_field("benchmark")?.to_string(),
                policy: json.str_field("policy")?.to_string(),
                threads: json.u64_field("threads")? as usize,
                seed: json.u64_field("seed")?,
                scale_bits: json.u64_field("scale_bits")?,
            }),
            "scenario" => Ok(WorkItem::Scenario {
                scenario: json.str_field("scenario")?.to_string(),
                policy: json.str_field("policy")?.to_string(),
                seed: json.u64_field("seed")?,
            }),
            other => Err(format!("unknown work kind {other:?}")),
        }
    }
}

/// Every frame kind the protocol exchanges.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Handshake, sent by the coordinator on connect and echoed by the
    /// worker. Both the protocol version and the kernel fingerprint
    /// (`seer_store::kernel_fingerprint`) must match exactly: a worker
    /// built from a different kernel would compute *different bytes* for
    /// the same key, and determinism is the headline claim.
    Hello {
        /// [`PROTOCOL_VERSION`] of the sender.
        protocol: u64,
        /// Kernel fingerprint of the sender's build.
        fingerprint: String,
    },
    /// A work assignment.
    Work {
        /// Connection-local request id; responses echo it.
        id: u64,
        /// The work.
        item: WorkItem,
    },
    /// Liveness signal while a work item is computing.
    Heartbeat {
        /// Id of the in-flight work item.
        id: u64,
    },
    /// Successful completion.
    Done {
        /// Id of the completed work item.
        id: u64,
        /// FNV-1a 64 over the compact encoding of `value` — the same
        /// checksum the disk store records, verified by the coordinator
        /// before the value is trusted.
        checksum: u64,
        /// The `Persist`-encoded result.
        value: Json,
    },
    /// The computation itself failed on the worker (panic, unknown
    /// coordinates). The connection stays usable.
    Failed {
        /// Id of the failed work item.
        id: u64,
        /// Human-oriented failure description.
        error: String,
    },
    /// Protocol-level failure (handshake rejection, unparsable frame);
    /// the sender closes the connection after this.
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Message {
    /// The message as a JSON tree (the frame payload).
    pub fn to_json(&self) -> Json {
        match self {
            Message::Hello {
                protocol,
                fingerprint,
            } => Json::object([
                ("type", "hello".to_json()),
                ("protocol", protocol.to_json()),
                ("fingerprint", fingerprint.to_json()),
            ]),
            Message::Work { id, item } => Json::object([
                ("type", "work".to_json()),
                ("id", id.to_json()),
                ("item", item.to_json()),
            ]),
            Message::Heartbeat { id } => Json::object([
                ("type", "heartbeat".to_json()),
                ("id", id.to_json()),
            ]),
            Message::Done {
                id,
                checksum,
                value,
            } => Json::object([
                ("type", "done".to_json()),
                ("id", id.to_json()),
                ("checksum", checksum.to_json()),
                ("value", value.clone()),
            ]),
            Message::Failed { id, error } => Json::object([
                ("type", "failed".to_json()),
                ("id", id.to_json()),
                ("error", error.to_json()),
            ]),
            Message::Error { message } => Json::object([
                ("type", "error".to_json()),
                ("message", message.to_json()),
            ]),
        }
    }

    /// Parses a message from a JSON tree, rejecting anything malformed
    /// with a diagnostic (never a panic).
    pub fn from_json(json: &Json) -> Result<Self, String> {
        match json.str_field("type")? {
            "hello" => Ok(Message::Hello {
                protocol: json.u64_field("protocol")?,
                fingerprint: json.str_field("fingerprint")?.to_string(),
            }),
            "work" => Ok(Message::Work {
                id: json.u64_field("id")?,
                item: WorkItem::from_json(json.field("item")?)?,
            }),
            "heartbeat" => Ok(Message::Heartbeat {
                id: json.u64_field("id")?,
            }),
            "done" => Ok(Message::Done {
                id: json.u64_field("id")?,
                checksum: json.u64_field("checksum")?,
                value: json.field("value")?.clone(),
            }),
            "failed" => Ok(Message::Failed {
                id: json.u64_field("id")?,
                error: json.str_field("error")?.to_string(),
            }),
            "error" => Ok(Message::Error {
                message: json.str_field("message")?.to_string(),
            }),
            other => Err(format!("unknown message type {other:?}")),
        }
    }
}

/// The checksum a `done` frame must carry for `value` — FNV-1a 64 over
/// the compact encoding, exactly as the disk store records it.
pub fn value_checksum(value: &Json) -> u64 {
    fnv1a(value.to_string_compact().as_bytes())
}

/// Encodes `msg` as one frame (length prefix + compact JSON).
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let payload = msg.to_json().to_string_compact();
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Writes one frame and flushes.
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> std::io::Result<()> {
    w.write_all(&encode_frame(msg))?;
    w.flush()
}

/// Reads one frame. A clean EOF *between* frames is [`ProtoError::Closed`];
/// everything else that can go wrong — short reads, oversized lengths,
/// non-UTF-8, bad JSON, wrong shapes — is a typed error, never a panic.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Message, ProtoError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Err(ProtoError::Closed),
        Ok(_) => {}
        Err(e) => return Err(ProtoError::Io(e)),
    }
    r.read_exact(&mut len_buf[1..]).map_err(ProtoError::Io)?;
    let len = u32::from_be_bytes(len_buf) as u64;
    if len as usize > MAX_FRAME_LEN {
        return Err(ProtoError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(ProtoError::Io)?;
    let text = String::from_utf8(payload)
        .map_err(|_| ProtoError::Malformed("payload is not valid UTF-8".into()))?;
    let json = Json::parse(&text).map_err(|e| ProtoError::Malformed(format!("bad JSON: {e}")))?;
    Message::from_json(&json).map_err(ProtoError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip(msg: Message) {
        let bytes = encode_frame(&msg);
        let back = read_frame(&mut Cursor::new(&bytes)).expect("decodes");
        assert_eq!(back, msg);
    }

    #[test]
    fn every_message_kind_round_trips() {
        round_trip(Message::Hello {
            protocol: PROTOCOL_VERSION,
            fingerprint: "v0.1.0+k1".into(),
        });
        round_trip(Message::Work {
            id: 7,
            item: WorkItem::Cell {
                benchmark: "genome".into(),
                policy: "seer".into(),
                threads: 4,
                seed: 0,
                scale_bits: 0.08f64.to_bits(),
            },
        });
        round_trip(Message::Work {
            id: 8,
            item: WorkItem::Scenario {
                scenario: "churn-storm".into(),
                policy: "rtm".into(),
                seed: 1,
            },
        });
        round_trip(Message::Heartbeat { id: 9 });
        let value = Json::object([("n", 42u64.to_json())]);
        round_trip(Message::Done {
            id: 10,
            checksum: value_checksum(&value),
            value,
        });
        round_trip(Message::Failed {
            id: 11,
            error: "panicked: boom".into(),
        });
        round_trip(Message::Error {
            message: "fingerprint mismatch".into(),
        });
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut bytes = vec![0xff, 0xff, 0xff, 0xff];
        bytes.extend_from_slice(b"{}");
        match read_frame(&mut Cursor::new(&bytes)) {
            Err(ProtoError::TooLarge(n)) => assert_eq!(n, 0xffff_ffff),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn empty_stream_reads_as_closed() {
        assert!(matches!(
            read_frame(&mut Cursor::new(&[])),
            Err(ProtoError::Closed)
        ));
    }
}
