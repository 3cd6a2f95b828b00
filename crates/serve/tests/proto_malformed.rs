//! Malformed-frame corpus against a live front door (no replica binary
//! required: every frame here is rejected by the connection handler
//! before the admission queue, so the replica slots can sit in their
//! spawn-failure cooldown loop for the duration).
//!
//! The contract under test: a hostile or broken client gets a typed
//! `ErrorReply { code: BadFrame }` (or, for a well-formed request naming
//! a bogus task, `UnknownTask`) and its connection closed — the front
//! door never panics and never leaks the connection.

use mime_serve::proto::{
    read_frame, write_frame, ErrorCode, Frame, ProtoError, RequestInput, NO_REQUEST_ID,
};
use mime_serve::{FrontDoor, FrontDoorConfig, RetryPolicy};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

fn harness() -> FrontDoor {
    FrontDoor::start(FrontDoorConfig {
        listen: "127.0.0.1:0".into(),
        replicas: 1,
        // `cat` never sends Ready, so the slot cycles Spawning → spawn
        // timeout → Cooldown without ever serving; connection handling
        // is independent of replica health.
        replica_cmd: vec!["/bin/cat".into()],
        tasks: 3,
        spawn_timeout: Duration::from_millis(100),
        restart_budget: 100_000,
        restart_backoff: RetryPolicy {
            max_attempts: u32::MAX,
            base: Duration::from_millis(200),
            multiplier: 1,
            max_backoff: Duration::from_millis(200),
        },
        drain_timeout: Duration::from_secs(10),
        ..FrontDoorConfig::default()
    })
    .expect("front door binds")
}

fn connect(door: &FrontDoor) -> TcpStream {
    let s = TcpStream::connect(door.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Reads the one terminal frame the server owes this connection, then
/// expects the connection to close.
fn expect_error_then_close(mut s: TcpStream, want_id: u64, want_code: ErrorCode) {
    match read_frame(&mut s).expect("typed error frame before close") {
        Frame::ErrorReply { id, code, message, .. } => {
            assert_eq!(id, want_id, "error frame id");
            assert_eq!(code, want_code, "error code ({message})");
            assert!(!message.is_empty(), "error frames carry a reason");
        }
        other => panic!("expected ErrorReply, got {other:?}"),
    }
    match read_frame(&mut s) {
        Err(ProtoError::Closed) => {}
        other => panic!("expected the connection closed after the error, got {other:?}"),
    }
}

#[test]
fn malformed_frame_corpus_gets_typed_errors_and_server_survives() {
    let door = harness();
    let stopper = door.stopper();

    // 1. Truncated header: three bytes of a five-byte header, then EOF.
    let mut s = connect(&door);
    s.write_all(&[1u8, 0xFF, 0xFF]).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    expect_error_then_close(s, NO_REQUEST_ID, ErrorCode::BadFrame);

    // 2. Oversized length: a header claiming a payload far beyond
    //    MAX_FRAME_PAYLOAD must be rejected before any allocation.
    let mut s = connect(&door);
    let mut header = vec![1u8];
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    s.write_all(&header).unwrap();
    expect_error_then_close(s, NO_REQUEST_ID, ErrorCode::BadFrame);

    // 3. Unknown frame kind with a junk payload.
    let mut s = connect(&door);
    let mut frame = vec![0xEEu8];
    frame.extend_from_slice(&8u32.to_le_bytes());
    frame.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF]);
    s.write_all(&frame).unwrap();
    expect_error_then_close(s, NO_REQUEST_ID, ErrorCode::BadFrame);

    // 4. Valid Request kind, garbage payload.
    let mut s = connect(&door);
    let mut frame = vec![1u8];
    frame.extend_from_slice(&11u32.to_le_bytes());
    frame.extend_from_slice(b"hello world");
    s.write_all(&frame).unwrap();
    expect_error_then_close(s, NO_REQUEST_ID, ErrorCode::BadFrame);

    // 5-7. The retired request/reply/error kinds 13-15, each with the
    //      payload its old encoder wrote (the bare kind's payload plus
    //      the appended rung fields), are unknown kinds now.
    let mut request = Vec::new();
    request.extend_from_slice(&7u64.to_le_bytes()); // id
    request.extend_from_slice(&0u64.to_le_bytes()); // trace
    request.extend_from_slice(&0u32.to_le_bytes()); // task
    request.extend_from_slice(&1000u32.to_le_bytes()); // deadline
    request.push(0); // probe input
    request.extend_from_slice(&3u32.to_le_bytes());
    request.push(1); // rung
    let mut reply = Vec::new();
    reply.extend_from_slice(&7u64.to_le_bytes()); // id
    reply.extend_from_slice(&0u64.to_le_bytes()); // trace
    reply.push(0); // not degraded
    reply.extend_from_slice(&[0; 8]); // queue_us, compute_us
    reply.extend_from_slice(&1u32.to_le_bytes()); // one logit
    reply.extend_from_slice(&1.0f32.to_bits().to_le_bytes());
    reply.push(1); // rung
    let mut error = Vec::new();
    error.extend_from_slice(&7u64.to_le_bytes()); // id
    error.extend_from_slice(&0u64.to_le_bytes()); // trace
    error.push(0); // Overloaded
    error.extend_from_slice(&0u16.to_le_bytes()); // empty message
    error.push(1); // rung
    error.extend_from_slice(&250u32.to_le_bytes()); // retry-after
    for (kind, payload) in [(13u8, request), (14, reply), (15, error)] {
        let mut s = connect(&door);
        let mut frame = vec![kind];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        s.write_all(&frame).unwrap();
        expect_error_then_close(s, NO_REQUEST_ID, ErrorCode::BadFrame);
    }

    // 8. Well-formed request naming a task the fleet doesn't have: a
    //    typed UnknownTask carrying the request's own id.
    let mut s = connect(&door);
    let req = Frame::Request {
        id: 77,
        trace: 0,
        task: 99,
        deadline_ms: 1000,
        rung: 0,
        input: RequestInput::Probe(0),
    };
    write_frame(&mut s, &req).unwrap();
    match read_frame(&mut s).expect("UnknownTask reply") {
        Frame::ErrorReply { id, code, .. } => {
            assert_eq!(id, 77);
            assert_eq!(code, ErrorCode::UnknownTask);
        }
        other => panic!("expected ErrorReply, got {other:?}"),
    }

    // The server survived the corpus: a fresh connection still speaks
    // the protocol.
    let mut s = connect(&door);
    write_frame(&mut s, &Frame::StatsRequest).unwrap();
    let stats = match read_frame(&mut s).expect("stats reply") {
        Frame::StatsReply { json } => json,
        other => panic!("expected StatsReply, got {other:?}"),
    };
    assert!(stats.contains("\"bad_frames\":7"), "stats count the corpus: {stats}");

    stopper.stop();
    let report = door.wait();
    assert_eq!(report.bad_frames, 7, "seven malformed connections");
    // The UnknownTask rejection happened at admission, before the queue:
    // it is terminal and counted, with nothing left in flight.
    assert_eq!(report.failed, 1);
    assert_eq!(report.requests, 1);
}
