//! Codec parity, pinned as two digests taken on the `Value`-tree codec.
//! A seeded corpus holds every `Request` and `Response` variant, with
//! payloads that reach the numeric edges (non-finite coordinates too);
//! the first digest covers their encodings.
//! The second covers the decode outcome (`err`, or the re-encoded bytes)
//! of damaged copies of those frames and of hand-made ones: duplicate and
//! unknown keys, nesting at the depth cap, `1e309`, two-entry enum maps.
//! A byte written, or a frame accepted or refused, differently from that
//! codec moves a digest.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use rl_math::Fnv1a;
use rl_serve::protocol::{batch, stream, LocalizeReply, Request, Response};
use serde::{Deserialize, Serialize};

const DIGESTS: (u64, u64) = (0x5876_b860_5063_c268, 0x2452_63db_b046_00d9);

/// Every variant in its wire form, each placeholder drawn afresh: `#` a
/// `u64`, `%` a `u32`, `~` a finite `f64`, `$` a string, `?` a bool and
/// `@` an error code.
const REQUESTS: [&str; 14] = [
    r#"{"Hello":{"protocol":%}}"#,
    r#"{"Batch":[{"Localize":{"deployment":$,"solver":$,"seed":#,"nodes":null}}]}"#,
    r#"{"Batch":[{"Localize":{"deployment":$,"solver":$,"seed":#,"nodes":[#,#]}}]}"#,
    r#"{"Batch":["Status"]}"#,
    r#"{"Batch":["Shutdown"]}"#,
    r#"{"Stream":[{"OpenStream":{"source":{"Preset":{"name":$}},"tracker":{"preset":$,"steps_per_tick":null,"churn_restart_fraction":null},"seed":#}}]}"#,
    r#"{"Stream":[{"OpenStream":{"source":{"Custom":{"deployment":$,"motion":"Static","churn":{"join_probability":~,"leave_probability":~}}},"tracker":{"preset":$,"steps_per_tick":#,"churn_restart_fraction":~},"seed":#}}]}"#,
    r#"{"Stream":[{"OpenStream":{"source":{"Custom":{"deployment":$,"motion":{"RandomWalk":{"step_m":~}},"churn":{"join_probability":~,"leave_probability":~}}},"tracker":{"preset":$,"steps_per_tick":null,"churn_restart_fraction":~},"seed":#}}]}"#,
    r#"{"Stream":[{"OpenStream":{"source":{"Custom":{"deployment":$,"motion":{"Waypoint":{"speed_m_per_tick":~}},"churn":{"join_probability":~,"leave_probability":~}}},"tracker":{"preset":$,"steps_per_tick":#,"churn_restart_fraction":null},"seed":#}}]}"#,
    r#"{"Stream":[{"PushTicks":{"session":#,"observations":[{"tick":#,"universe":#,"edges":[[#,#,~,~],[#,#,~,~]],"anchors":[[#,~,~]],"active":[#,#],"joined":[#],"left":[],"truth":[[~,~],[~,~]]},{"tick":#,"universe":#,"edges":[],"anchors":[],"active":[],"joined":[],"left":[#],"truth":null}]}}]}"#,
    r#"{"Stream":[{"PushTicks":{"session":#,"observations":[]}}]}"#,
    r#"{"Stream":[{"ReadSolution":{"session":#,"nodes":null}}]}"#,
    r#"{"Stream":[{"ReadSolution":{"session":#,"nodes":[#,#,#]}}]}"#,
    r#"{"Stream":[{"CloseStream":{"session":#}}]}"#,
];

const RESPONSES: [&str; 12] = [
    r#"{"Hello":{"protocol":%,"server":$}}"#,
    r#"{"Batch":[{"Localized":[{"deployment":$,"solver":$,"seed":#,"frame":$,"positions":[[~,~],null,[~,~]],"iterations":#,"residual":~,"converged":?,"mean_error_m":null,"localized":#}]}]}"#,
    r#"{"Batch":[{"Localized":[{"deployment":$,"solver":$,"seed":#,"frame":$,"positions":[],"iterations":#,"residual":null,"converged":null,"mean_error_m":~,"localized":#}]}]}"#,
    r#"{"Batch":[{"Projected":[{"deployment":$,"solver":$,"seed":#,"frame":$,"nodes":[#,#],"positions":[null,[~,~]],"localized":#}]}]}"#,
    r#"{"Batch":[{"Status":[{"protocol":%,"workers":#,"deployments":[$,$],"requests":#,"cache_hits":#,"coalesced":#,"solves_started":#,"solves":#,"errors":#,"cache_entries":#,"cache_capacity":#,"queue_depth":#,"overloaded":#,"sessions_open":#,"sessions_evicted":#,"session_capacity":#,"ticks_served":#,"batch_queued":#}]}]}"#,
    r#"{"Batch":["ShuttingDown"]}"#,
    r#"{"Stream":[{"StreamOpened":{"session":#,"universe":#}}]}"#,
    r#"{"Stream":[{"TicksPushed":[{"session":#,"accepted":#,"ticks":#,"warm_updates":#,"cold_solves":#,"fingerprint":#}]}]}"#,
    r#"{"Stream":[{"Solution":[{"session":#,"ticks":#,"frame":$,"nodes":null,"positions":[[~,~],null],"localized":#,"fingerprint":#}]}]}"#,
    r#"{"Stream":[{"Solution":[{"session":#,"ticks":#,"frame":$,"nodes":[#],"positions":[[~,~]],"localized":#,"fingerprint":#}]}]}"#,
    r#"{"Stream":[{"StreamClosed":{"session":#,"ticks":#}}]}"#,
    r#"{"Error":[{"code":@,"message":$}]}"#,
];

const CODES: &str = "MalformedFrame FrameTooLarge UnsupportedProtocol UnknownDeployment UnknownSolver SolveFailed ShuttingDown Overloaded UnknownSession SessionEvicted UnknownNode InvalidObservation";

fn f64(rng: &mut StdRng) -> f64 {
    const EDGES: [f64; 7] = [-0.0, 5e-324, f64::MAX, -f64::MAX, 0.1, 1.0, 1e-300];
    match rng.gen_range(0..6) {
        0..=2 => EDGES[rng.gen_range(0..EDGES.len())],
        3 => (rng.next_u64() >> 11) as f64,
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4) {
        0 => u64::MAX,
        1 => rng.gen_range(0..10),
        _ => rng.next_u64() >> rng.gen_range(0..64),
    }
}

/// Up to seven characters, escapes and multi-byte ones among them.
fn string(rng: &mut StdRng) -> String {
    let chars = [
        'a', '0', ' ', '"', '\\', '/', '\n', '\u{1}', '\u{7f}', 'é', '😀',
    ];
    let len = rng.gen_range(0..8);
    (0..len)
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

fn fill(template: &str, rng: &mut StdRng) -> String {
    let mut out = String::new();
    for c in template.chars() {
        match c {
            '#' => out += &u64(rng).to_string(),
            '%' => out += &rng.next_u32().to_string(),
            '~' => out += &serde_json::to_string(&f64(rng)).unwrap(),
            '$' => out += &serde_json::to_string(&string(rng)).unwrap(),
            '?' => out += if rng.gen_bool(0.5) { "true" } else { "false" },
            '@' => {
                out += &format!(
                    "\"{}\"",
                    CODES.split(' ').nth(rng.gen_range(0..12)).unwrap()
                )
            }
            c => out.push(c),
        }
    }
    out
}

/// Messages whose coordinates are not finite: they encode as `null`.
fn non_finite(x: f64) -> (Request, Response) {
    let observation = stream::WireObservation {
        tick: 0,
        universe: 2,
        edges: vec![(0, 1, x, -x)],
        anchors: vec![(0, x, 1.0)],
        active: vec![0, 1],
        joined: vec![],
        left: vec![],
        truth: Some(vec![(-x, x)]),
    };
    let reply = LocalizeReply {
        deployment: "d".into(),
        solver: "s".into(),
        seed: 1,
        frame: "absolute".into(),
        positions: vec![Some((x, 1.0)), None, Some((2.0, -x))],
        iterations: 3,
        residual: Some(x),
        converged: None,
        mean_error_m: Some(-x),
        localized: 2,
    };
    let request = stream::Request::PushTicks {
        session: 9,
        observations: vec![observation],
    };
    (
        Request::Stream(request),
        Response::Batch(batch::Response::Localized(reply)),
    )
}

/// Decodes as `T`: `err`, or the re-encoded bytes.
fn outcome<T: Serialize + Deserialize>(frame: &str) -> String {
    serde_json::from_str::<T>(frame).map_or("err".into(), |v| serde_json::to_string(&v).unwrap())
}

/// [`outcome`] for the type a frame is decoded as.
type Decode = fn(&str) -> String;
const REQUEST: Decode = outcome::<Request>;
const RESPONSE: Decode = outcome::<Response>;

/// Hand-made frames, each with the type it is decoded as.
fn handmade() -> Vec<(Decode, String)> {
    let localize = r#"{"Batch":[{"Localize":{"deployment":"town","solver":"lss","seed":7"#;
    let localized = concat!(
        r#"{"Batch":[{"Localized":[{"deployment":"d","solver":"s","seed":1,"#,
        r#""frame":"absolute","positions":[[1.5,-2.0],null"#
    );
    let nest = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
    let requests = [
        format!(r#"{localize},"deployment":"metro","seed":[1,2]}}}}]}}"#),
        format!(r#"{localize},"seed":{{"a":}}}}}}]}}"#),
        format!(r#"{localize},"extra":{{"a":[1,{{"b":null}}],"c":"é"}}}}}}]}}"#),
        format!(r#"{localize},"nodes":[0,-0,+5,18446744073709551615]}}}}]}}"#),
        format!(r#"{localize},"nodes":[18446744073709551616]}}}}]}}"#),
        format!(r#"{localize},"nodes":[1.0]}}}}]}}"#),
        format!(r#"{localize}}}}}]}}x"#),
        r#"{"Hello":{"protocol":4},"Batch":[{"Status":null}]}"#.into(),
        r#"{"Stream":[{"CloseStream":{"session":-1}}]}"#.into(),
        // The unknown field's array opens at depth 3: 125 more levels
        // reach the 128-level cap and 126 pass it.
        format!(r#"{{"Hello":{{"protocol":4,"x":[{}]}}}}"#, nest(125)),
        format!(r#"{{"Hello":{{"protocol":4,"x":[{}]}}}}"#, nest(126)),
    ];
    let tails = [
        r#"],"iterations":3,"residual":1e309,"converged":false,"mean_error_m":-1e309,"#,
        r#",[1e309,1]],"iterations":3,"residual":null,"converged":null,"mean_error_m":null,"#,
        r#",[null,1]],"iterations":3,"residual":null,"converged":null,"mean_error_m":null,"#,
        r#"],"iterations":3,"residual":1E2,"converged":true,"mean_error_m":2,"#,
        r#"],"iterations":3.0,"residual":null,"converged":null,"mean_error_m":null,"#,
    ];
    let responses = tails.map(|tail| format!(r#"{localized}{tail}"localized":1}}]}}]}}"#));
    let requests = requests.map(|f| (REQUEST, f)).into_iter();
    requests.chain(responses.map(|f| (RESPONSE, f))).collect()
}

#[test]
fn codec_bytes_and_decode_outcomes_match_the_pinned_digests() {
    let mut rng = rl_math::rng::seeded(0x00c0_dec5);
    let (mut encodings, mut outcomes) = (Fnv1a::new(), Fnv1a::new());
    let mut frames: Vec<(Decode, String)> = Vec::new();
    for _ in 0..12 {
        let templates = REQUESTS.map(|t| (REQUEST, t)).into_iter();
        for (decode, template) in templates.chain(RESPONSES.map(|t| (RESPONSE, t))) {
            // Every filled template is already in the canonical form.
            let frame = fill(template, &mut rng);
            assert_eq!(decode(&frame), frame);
            frames.push((decode, frame));
        }
    }
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let (request, response) = non_finite(x);
        frames.push((REQUEST, serde_json::to_string(&request).unwrap()));
        frames.push((RESPONSE, serde_json::to_string(&response).unwrap()));
    }
    // Eight truncations and four byte flips within ASCII of every frame;
    // a cut through a character ends in U+FFFD.
    let mut damaged = handmade();
    for (decode, frame) in &frames {
        encodings.write_str(frame);
        let bytes = frame.as_bytes();
        let cuts = (1..=8).map(|k| bytes[..bytes.len() * k / 9].to_vec());
        let flips: Vec<Vec<u8>> = (0..4)
            .map(|_| {
                let mut flipped = bytes.to_vec();
                let at = rng.gen_range(0..flipped.len());
                if flipped[at].is_ascii() {
                    flipped[at] ^= rng.gen_range(1..0x80) as u8;
                }
                flipped
            })
            .collect();
        for cut in cuts.chain(flips) {
            damaged.push((*decode, String::from_utf8_lossy(&cut).into_owned()));
        }
    }
    for (decode, frame) in damaged {
        outcomes.write_str(&decode(&frame));
    }
    let digests = (encodings.finish(), outcomes.finish());
    assert_eq!(digests, DIGESTS, "{:#018x} {:#018x}", digests.0, digests.1);
}
