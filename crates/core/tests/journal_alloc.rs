//! `JournalRecord::bit_identical` runs once per replayed record during
//! crash recovery, so it must not touch the heap. A counting global
//! allocator (counted per thread, so nothing else in the process can
//! perturb the count) checks that comparing two records allocates nothing,
//! whether they match or differ only in their last field.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use yukta_board::{FaultChannel, FaultEvent, FaultKind};
use yukta_core::controllers::{HwSense, OsSense};
use yukta_core::recorder::JournalRecord;
use yukta_core::signals::{HwInputs, HwOutputs, Limits, OsInputs, OsOutputs, SloSense};
use yukta_core::supervisor::SupervisorMode;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both methods forward their arguments unchanged to `System`, so
// `System`'s guarantees hold for every caller. The counter is a
// const-initialised thread-local `Cell` with no destructor: bumping it
// neither allocates nor fails, also while a thread is being torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn record() -> JournalRecord {
    let hw_u = HwInputs {
        big_cores: 3.0,
        little_cores: 4.0,
        f_big: 1.6,
        f_little: 1.2,
    };
    let os_u = OsInputs {
        threads_big: 5.0,
        packing_big: 2.0,
        packing_little: 1.5,
    };
    let system = HwOutputs {
        perf: 3.0,
        p_big: 2.5,
        p_little: 0.2,
        temp: 61.0,
    };
    let slo = SloSense {
        active: true,
        p95_s: 0.5,
        p99_s: 1.1,
        backlog_frac: 0.6,
        drop_frac: 0.05,
    };
    JournalRecord {
        step: 7,
        time: 3.5,
        hw_sense: HwSense {
            outputs: system,
            ext: os_u,
            current: hw_u,
            active_threads: 8,
            slo,
            limits: Limits::default(),
        },
        os_sense: OsSense {
            outputs: OsOutputs {
                perf_little: 0.8,
                perf_big: 2.2,
                spare_diff: -1.0,
            },
            ext: hw_u,
            current: os_u,
            active_threads: 8,
            system,
            slo,
            limits: Limits::default(),
        },
        hw_u,
        os_u,
        mode: Some(SupervisorMode::Fallback),
        fault_events: vec![
            FaultEvent {
                time: 3.2,
                kind: FaultKind::Spike,
                channel: FaultChannel::PowerBig,
                value: 17.5,
            },
            FaultEvent {
                time: 3.4,
                kind: FaultKind::ActuationLag,
                channel: FaultChannel::Actuation,
                value: 0.0,
            },
        ],
    }
}

#[test]
fn bit_identical_allocates_nothing() {
    let (a, b, mut c) = (record(), record(), record());
    c.fault_events[1].value = -0.0;
    let before = allocs();
    let same = black_box(&a).bit_identical(black_box(&b));
    let differ = black_box(&a).bit_identical(black_box(&c));
    let after = allocs();
    assert!(same && !differ);
    assert_eq!(after - before, 0, "bit_identical allocated");
}
