//! Fuzzing the frame parser: no byte string a client can send makes
//! `parse_request` panic, and every frame it accepts is within the
//! server's limits.

use proptest::collection::vec;
use proptest::prelude::*;
use psc_runner::GearSelection;
use psc_serve::proto::{parse_request, Command};
use psc_serve::ProtoLimits;

const LIMITS: ProtoLimits = ProtoLimits { gear_count: 6, max_batch: 3 };

/// Valid frames covering every command and spec field; the mutation
/// corpus.
const VALID: [&str; 7] = [
    r#"{"id":"p","cmd":"ping"}"#,
    r#"{"id":"s","cmd":"stats"}"#,
    r#"{"id":"z","cmd":"shutdown"}"#,
    r#"{"id":"a","cmd":"run","lane":"interactive","specs":[{"bench":"EP","class":"test","nodes":2,"gears":1}]}"#,
    r#"{"id":"b","cmd":"run","lane":"batch","specs":[{"bench":"CG","nodes":2,"gears":[1,4],"fault_seed":7},{"bench":"BT","nodes":4,"gears":6}]}"#,
    r#"{"id":"c","cmd":"run","specs":[{"bench":"Jacobi","nodes":4,"policy":"oracle:0=2,3=5"},{"bench":"LU","class":"B","policy":{"Static":{"gear":3}}},{"bench":"MG"}]}"#,
    r#"{"id":"d","cmd":"run","specs":[{"bench":"FT","nodes":8,"gears":[1,2,3,4,5,6,1,2]}]}"#,
];

/// Parse `bytes` as the server would see them (lossy UTF-8) and check
/// the accepted frame against the limits.
fn check(bytes: &[u8]) {
    let line = String::from_utf8_lossy(bytes);
    let Ok(request) = parse_request(&line, LIMITS) else { return };
    if let Command::Run { specs, .. } = request.cmd {
        assert!((1..=LIMITS.max_batch).contains(&specs.len()), "{line}");
        for spec in &specs {
            let gears = match &spec.gears {
                GearSelection::Uniform(g) => vec![*g],
                GearSelection::PerRank(v) => v.clone(),
            };
            assert!(gears.iter().all(|g| (1..=LIMITS.gear_count).contains(g)), "{line}");
        }
    }
}

/// Pieces of frames to splice in: whole specs, in- and out-of-range
/// fields, and bare JSON punctuation.
const FRAGMENTS: [&str; 12] = [
    r#"{"bench":"EP"},"#,
    r#"{"bench":"CG","nodes":2,"gears":[6,1]},"#,
    r#""gears":7,"#,
    r#""gears":0,"#,
    r#""gears":[1,7],"#,
    r#""nodes":3,"#,
    r#""policy":"static:7","#,
    r#""lane":"interactive","#,
    "null,",
    "[",
    "}",
    "\"",
];

/// Apply one mutation to `frame`: truncate it, flip a byte, splice a
/// fragment in after a `{`, `[` or `,`, or repeat a piece of it.
fn mutate(frame: &mut Vec<u8>, (kind, at, byte): (u8, usize, u8)) {
    let at = at % (frame.len() + 1);
    match kind {
        0 => frame.truncate(at),
        1 if at < frame.len() => frame[at] = byte,
        2 => {
            let boundaries: Vec<usize> = (0..frame.len())
                .filter(|&i| matches!(frame[i], b'{' | b'[' | b','))
                .map(|i| i + 1)
                .collect();
            if let Some(&pos) = boundaries.get(at % boundaries.len().max(1)) {
                let fragment = FRAGMENTS[usize::from(byte) % FRAGMENTS.len()].bytes();
                frame.splice(pos..pos, fragment);
            }
        }
        3 => {
            let end = (at + usize::from(byte) % 32).min(frame.len());
            let piece = frame[at..end].to_vec();
            frame.splice(at..at, piece);
        }
        _ => {}
    }
}

#[test]
fn every_valid_frame_parses() {
    for frame in VALID {
        assert!(parse_request(frame, LIMITS).is_ok(), "{frame}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    #[test]
    fn random_bytes_never_panic(bytes in vec(prop_oneof![
        0u8..=255,
        Just(b'{'), Just(b'}'), Just(b'['), Just(b']'), Just(b'"'), Just(b':'), Just(b','),
    ], 0..128)) {
        check(&bytes);
    }

    #[test]
    fn mutated_valid_frames_never_panic(
        base in 0usize..VALID.len(),
        ops in vec((0u8..=3, 0usize..512, 0u8..=255), 1..5),
    ) {
        let mut frame = VALID[base].as_bytes().to_vec();
        for op in ops {
            mutate(&mut frame, op);
        }
        check(&frame);
    }
}
