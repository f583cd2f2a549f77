//! Heap bound on decoding hostile frames: five frames of 1 MB, within the
//! 1 MiB frame cap, each built to make a decoder allocate, must decode to a message
//! or an error while the heap peaks at most 2 MiB above the payload. A
//! counting allocator measures the peak; its own binary keeps other
//! tests' allocations out of the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

use rl_serve::protocol::{decode, Request, DEFAULT_MAX_FRAME};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    // A reallocation counts as its size change: large blocks move by
    // remapping, not by holding both copies.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn hostile_frames_decode_within_two_mib_of_the_payload() {
    let localize = r#"{"Batch":[{"Localize":{"deployment":"town","solver":"lss","seed":7"#;
    // The unknown field's array opens at depth 3: 125 more levels reach
    // the 128-level cap.
    let nests = vec!["[".repeat(125) + &"]".repeat(125); 4_170].join(",");
    let nodes: Vec<String> = (0..250_000).map(|k| (100 + k % 900).to_string()).collect();
    let escapes = [r#"\n\"\\é😀\/"#; 74_000].concat();
    // Past 4,096 elements an array counts the rest before it reserves:
    // a tail that is not observations must fail before anything is
    // reserved for it.
    let observation =
        r#"{"tick":0,"universe":0,"edges":[],"anchors":[],"active":[],"joined":[],"left":[]}"#;
    let observations = [observation; 4_096].join(",") + &",0".repeat(333_000);
    let frames = [
        (
            "depth-128 nests in an unknown field",
            format!(r#"{{"Hello":{{"protocol":4,"x":[{nests}]}}}}"#),
            true,
        ),
        (
            "250k-element nodes array",
            format!(r#"{localize},"nodes":[{}]}}}}]}}"#, nodes.join(",")),
            true,
        ),
        (
            "a string of escapes",
            format!(
                r#"{{"Batch":[{{"Localize":{{"solver":"lss","seed":7,"deployment":"{escapes}"}}}}]}}"#
            ),
            true,
        ),
        (
            "100k duplicate keys",
            format!("{localize},{}}}}}]}}", [r#""seed":1"#; 116_000].join(",")),
            true,
        ),
        (
            "4,096 observations, then 333k numbers",
            format!(
                r#"{{"Stream":[{{"PushTicks":{{"session":1,"observations":[{observations}]}}}}]}}"#
            ),
            false,
        ),
    ];
    for (what, payload, valid) in frames {
        let len = payload.len();
        assert!(
            (1_000_000..=DEFAULT_MAX_FRAME).contains(&len),
            "{what}: {len}"
        );
        let before = LIVE.load(Relaxed);
        PEAK.store(before, Relaxed);
        let start = Instant::now();
        let decoded = decode::<Request>(payload.as_bytes());
        let took = start.elapsed();
        let above = PEAK.load(Relaxed) - before;
        println!("{what}: {len} bytes in {took:?}, peak {above} bytes above the payload");
        assert_eq!(decoded.is_ok(), valid, "{what}: {:?}", decoded.err());
        drop(decoded);
        assert!(above <= 2 << 20, "{what}: {above} bytes");
    }
}
