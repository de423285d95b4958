//! Flight recorder: an append-only journal of everything the runtime did.
//!
//! Every controller invocation appends one [`JournalRecord`] capturing the
//! full sensor vector handed to the controllers, the actuation they
//! produced, the supervisor's mode decision, and any fault events injected
//! during that period. Together with the periodic checkpoints taken by
//! [`crate::runtime::Experiment::run_recoverable`], the journal makes a
//! crashed run resumable: restore the latest checkpoint, replay the journal
//! suffix, and continue — bit-identically to a run that never crashed.
//!
//! The journal lives in memory, like the checkpoints, and is never
//! serialized. What makes it trustworthy is two checked invariants: each
//! replayed invocation must be [`JournalRecord::bit_identical`] to the
//! record it re-executes, and feeding the recorded senses to a freshly
//! instantiated controller stack via [`replay_with`] must reproduce the
//! recorded actuation stream exactly (`f64::to_bits`-equal), or the run
//! was not deterministic.

use yukta_board::FaultEvent;
use yukta_linalg::Result;

use crate::controllers::{HwSense, OsSense};
use crate::signals::{HwInputs, Limits, OsInputs, SloSense};
use crate::supervisor::SupervisorMode;

/// Everything the runtime knew and decided at one controller invocation.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// Invocation index (0-based, counted in completed invocations).
    pub step: u64,
    /// Simulated time at the sense instant (s).
    pub time: f64,
    /// The hardware-layer sense vector handed to the controller.
    pub hw_sense: HwSense,
    /// The software-layer sense vector handed to the controller.
    pub os_sense: OsSense,
    /// The hardware actuation the controller produced.
    pub hw_u: HwInputs,
    /// The software actuation the controller produced.
    pub os_u: OsInputs,
    /// Supervisor mode in force for this invocation (`None` for raw,
    /// unsupervised engines).
    pub mode: Option<SupervisorMode>,
    /// Fault events injected during this controller period, in order.
    pub fault_events: Vec<FaultEvent>,
}

impl JournalRecord {
    /// Whether two records are bit-identical: every `f64` compared via
    /// [`f64::to_bits`] (so `-0.0 ≠ +0.0` and NaN payloads count),
    /// discrete fields via equality. Allocates nothing: it runs once per
    /// replayed record during crash recovery.
    pub fn bit_identical(&self, other: &JournalRecord) -> bool {
        self.step == other.step
            && self.time.to_bits() == other.time.to_bits()
            && hw_sense_identical(&self.hw_sense, &other.hw_sense)
            && os_sense_identical(&self.os_sense, &other.os_sense)
            && same_bits(&self.hw_u.to_vec(), &other.hw_u.to_vec())
            && same_bits(&self.os_u.to_vec(), &other.os_u.to_vec())
            && self.mode == other.mode
            && self.fault_events.len() == other.fault_events.len()
            && self
                .fault_events
                .iter()
                .zip(&other.fault_events)
                .all(|(a, b)| fault_event_identical(a, b))
    }
}

fn hw_sense_identical(a: &HwSense, b: &HwSense) -> bool {
    same_bits(&a.outputs.to_vec(), &b.outputs.to_vec())
        && same_bits(&a.ext.to_vec(), &b.ext.to_vec())
        && same_bits(&a.current.to_vec(), &b.current.to_vec())
        && a.active_threads == b.active_threads
        && slo_identical(&a.slo, &b.slo)
        && same_bits(&limit_floats(&a.limits), &limit_floats(&b.limits))
}

fn os_sense_identical(a: &OsSense, b: &OsSense) -> bool {
    same_bits(&a.outputs.to_vec(), &b.outputs.to_vec())
        && same_bits(&a.ext.to_vec(), &b.ext.to_vec())
        && same_bits(&a.current.to_vec(), &b.current.to_vec())
        && a.active_threads == b.active_threads
        && same_bits(&a.system.to_vec(), &b.system.to_vec())
        && slo_identical(&a.slo, &b.slo)
        && same_bits(&limit_floats(&a.limits), &limit_floats(&b.limits))
}

fn slo_identical(a: &SloSense, b: &SloSense) -> bool {
    a.active == b.active && same_bits(&slo_floats(a), &slo_floats(b))
}

// `slo_floats` and `limit_floats` destructure their struct, so a field
// added to it fails to compile here until it is compared.
fn slo_floats(s: &SloSense) -> [f64; 4] {
    let SloSense {
        active: _,
        p95_s,
        p99_s,
        backlog_frac,
        drop_frac,
    } = *s;
    [p95_s, p99_s, backlog_frac, drop_frac]
}

fn limit_floats(l: &Limits) -> [f64; 4] {
    let Limits {
        p_big_max,
        p_little_max,
        temp_max,
        latency_slo_s,
    } = *l;
    [p_big_max, p_little_max, temp_max, latency_slo_s]
}

fn fault_event_identical(a: &FaultEvent, b: &FaultEvent) -> bool {
    a.time.to_bits() == b.time.to_bits()
        && a.kind == b.kind
        && a.channel == b.channel
        && a.value.to_bits() == b.value.to_bits()
}

/// Whether two `f64` slices are equal bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The append-only flight-recorder journal of one run.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    records: Vec<JournalRecord>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Number of recorded invocations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in invocation order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Appends one invocation record.
    pub fn push(&mut self, record: JournalRecord) {
        self.records.push(record);
    }
}

/// The outcome of replaying a journal against a controller stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayOutcome {
    /// Invocations replayed.
    pub steps: u64,
    /// Invocations whose actuation differed from the recorded one by at
    /// least one bit.
    pub divergences: u64,
    /// The first diverging invocation index, if any.
    pub first_divergence: Option<u64>,
}

impl ReplayOutcome {
    /// Whether the replay reproduced every recorded actuation exactly.
    pub fn is_exact(&self) -> bool {
        self.divergences == 0
    }
}

/// Replays every journal record through `invoke`, comparing the produced
/// actuation against the recorded one bit-for-bit. The closure is handed
/// the recorded senses in invocation order — a deterministic controller
/// stack freshly instantiated for the same scheme must reproduce the
/// recorded stream exactly.
///
/// # Errors
///
/// Propagates the first error `invoke` returns.
pub fn replay_with(
    journal: &Journal,
    mut invoke: impl FnMut(&HwSense, &OsSense) -> Result<(HwInputs, OsInputs)>,
) -> Result<ReplayOutcome> {
    let mut outcome = ReplayOutcome::default();
    for r in journal.records() {
        let (hw_u, os_u) = invoke(&r.hw_sense, &r.os_sense)?;
        let same = same_bits(&hw_u.to_vec(), &r.hw_u.to_vec())
            && same_bits(&os_u.to_vec(), &r.os_u.to_vec());
        if !same {
            outcome.divergences += 1;
            if outcome.first_divergence.is_none() {
                outcome.first_divergence = Some(r.step);
            }
        }
        outcome.steps += 1;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{HwOutputs, OsOutputs};
    use yukta_board::{FaultChannel, FaultKind};

    fn record(step: u64) -> JournalRecord {
        let k = step as f64;
        JournalRecord {
            step,
            time: 0.5 * k,
            hw_sense: HwSense {
                outputs: HwOutputs {
                    perf: 3.0 + k,
                    p_big: 2.5,
                    p_little: 0.2,
                    temp: 61.0 + 1e-9 * k,
                },
                ext: OsInputs {
                    threads_big: 4.0,
                    packing_big: 1.5,
                    packing_little: 2.0,
                },
                current: HwInputs {
                    big_cores: 4.0,
                    little_cores: 4.0,
                    f_big: 1.8,
                    f_little: 1.4,
                },
                active_threads: 8,
                slo: SloSense {
                    active: step.is_multiple_of(2),
                    p95_s: 0.4 + 1e-6 * k,
                    p99_s: 0.9 + 1e-6 * k,
                    backlog_frac: 0.25,
                    drop_frac: 0.01,
                },
                limits: Limits::default(),
            },
            os_sense: OsSense {
                outputs: OsOutputs {
                    perf_little: 0.8,
                    perf_big: 2.2 + k,
                    spare_diff: -1.0,
                },
                ext: HwInputs {
                    big_cores: 4.0,
                    little_cores: 4.0,
                    f_big: 1.8,
                    f_little: 1.4,
                },
                current: OsInputs {
                    threads_big: 4.0,
                    packing_big: 1.5,
                    packing_little: 2.0,
                },
                active_threads: 8,
                system: HwOutputs {
                    perf: 3.0,
                    p_big: 2.5,
                    p_little: 0.2,
                    temp: 61.0,
                },
                slo: SloSense {
                    active: true,
                    p95_s: 0.5,
                    p99_s: 1.1 + 1e-9 * k,
                    backlog_frac: 0.6,
                    drop_frac: 0.05,
                },
                limits: Limits::default(),
            },
            hw_u: HwInputs {
                big_cores: 3.0,
                little_cores: 4.0,
                f_big: 1.6 + 1e-12 * k,
                f_little: 1.2,
            },
            os_u: OsInputs {
                threads_big: 5.0,
                packing_big: 2.0,
                packing_little: 1.5,
            },
            mode: if step.is_multiple_of(2) {
                Some(SupervisorMode::Primary)
            } else {
                Some(SupervisorMode::Fallback)
            },
            fault_events: if step == 1 {
                vec![
                    FaultEvent {
                        time: 0.73,
                        kind: FaultKind::Spike,
                        channel: FaultChannel::PowerBig,
                        value: 17.5,
                    },
                    FaultEvent {
                        time: 0.74,
                        kind: FaultKind::ActuationLag,
                        channel: FaultChannel::Actuation,
                        value: 0.0,
                    },
                ]
            } else {
                Vec::new()
            },
        }
    }

    /// Every `f64` of a record, in declaration order.
    fn floats(r: &mut JournalRecord) -> Vec<&mut f64> {
        let (hw, os) = (&mut r.hw_sense, &mut r.os_sense);
        let mut v = vec![&mut r.time];
        v.extend([
            &mut hw.outputs.perf,
            &mut hw.outputs.p_big,
            &mut hw.outputs.p_little,
            &mut hw.outputs.temp,
        ]);
        v.extend(os_inputs(&mut hw.ext));
        v.extend(hw_inputs(&mut hw.current));
        v.extend(slo(&mut hw.slo));
        v.extend(limits(&mut hw.limits));
        v.extend([
            &mut os.outputs.perf_little,
            &mut os.outputs.perf_big,
            &mut os.outputs.spare_diff,
        ]);
        v.extend(hw_inputs(&mut os.ext));
        v.extend(os_inputs(&mut os.current));
        v.extend([
            &mut os.system.perf,
            &mut os.system.p_big,
            &mut os.system.p_little,
            &mut os.system.temp,
        ]);
        v.extend(slo(&mut os.slo));
        v.extend(limits(&mut os.limits));
        v.extend(hw_inputs(&mut r.hw_u));
        v.extend(os_inputs(&mut r.os_u));
        for e in &mut r.fault_events {
            v.extend([&mut e.time, &mut e.value]);
        }
        v
    }

    fn hw_inputs(u: &mut HwInputs) -> [&mut f64; 4] {
        [
            &mut u.big_cores,
            &mut u.little_cores,
            &mut u.f_big,
            &mut u.f_little,
        ]
    }

    fn os_inputs(u: &mut OsInputs) -> [&mut f64; 3] {
        [
            &mut u.threads_big,
            &mut u.packing_big,
            &mut u.packing_little,
        ]
    }

    fn slo(s: &mut SloSense) -> [&mut f64; 4] {
        [
            &mut s.p95_s,
            &mut s.p99_s,
            &mut s.backlog_frac,
            &mut s.drop_frac,
        ]
    }

    fn limits(l: &mut Limits) -> [&mut f64; 4] {
        [
            &mut l.p_big_max,
            &mut l.p_little_max,
            &mut l.temp_max,
            &mut l.latency_slo_s,
        ]
    }

    /// Asserts `a` and `b` are each identical to their clone but not to
    /// each other, in either order.
    fn assert_differ(a: &JournalRecord, b: &JournalRecord, what: &str) {
        assert!(a.bit_identical(&a.clone()) && b.bit_identical(&b.clone()));
        assert!(
            !a.bit_identical(b) && !b.bit_identical(a),
            "{what}: a one-field change went unnoticed"
        );
    }

    #[test]
    fn bit_identical_notices_every_field() {
        // Record 1 carries two fault events, one of them a crash.
        let base = record(1);
        let mut nan = base.clone();
        nan.hw_sense.outputs.p_big = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        nan.mode = None;
        assert!(nan.bit_identical(&nan.clone()), "NaN payload vs its clone");

        // Every float, fault-event times and values included: +0.0 vs
        // −0.0, one ULP apart, two NaN payloads.
        for i in 0..floats(&mut base.clone()).len() {
            let v = *floats(&mut base.clone())[i];
            for (x, y) in [
                (0.0, -0.0),
                (v, f64::from_bits(v.to_bits() + 1)),
                (
                    f64::from_bits(0x7FF8_0000_0000_0001),
                    f64::from_bits(0x7FF8_0000_0000_0002),
                ),
            ] {
                let (mut a, mut b) = (base.clone(), base.clone());
                *floats(&mut a)[i] = x;
                *floats(&mut b)[i] = y;
                assert_differ(&a, &b, &format!("float {i}: {x:?} vs {y:?}"));
            }
        }

        // Every discrete field.
        type Edit = (&'static str, fn(&mut JournalRecord));
        let edits: [Edit; 13] = [
            ("step", |r| r.step += 1),
            ("hw active_threads", |r| r.hw_sense.active_threads += 1),
            ("os active_threads", |r| r.os_sense.active_threads += 1),
            ("hw slo.active", |r| r.hw_sense.slo.active ^= true),
            ("os slo.active", |r| r.os_sense.slo.active ^= true),
            ("mode None", |r| r.mode = None),
            ("mode Safe", |r| r.mode = Some(SupervisorMode::Safe)),
            ("one fault event fewer", |r| {
                r.fault_events.pop();
            }),
            ("no fault events", |r| r.fault_events.clear()),
            ("fault kind", |r| {
                r.fault_events[0].kind = FaultKind::StuckAt
            }),
            ("second fault kind", |r| {
                r.fault_events[1].kind = FaultKind::DvfsRejected
            }),
            ("fault channel", |r| {
                r.fault_events[0].channel = FaultChannel::Temp
            }),
            ("fault order", |r| r.fault_events.reverse()),
        ];
        for (what, edit) in edits {
            let mut b = base.clone();
            edit(&mut b);
            assert_differ(&base, &b, what);
        }
    }

    #[test]
    fn replay_compares_actuations_bit_for_bit() {
        let mut j = Journal::new();
        for s in 0..6 {
            j.push(record(s));
        }
        // Echoing the recorded actuation is an exact replay.
        let exact = replay_with(&j, |hw, _os| {
            // The test record derives hw_u deterministically from the sense,
            // so reproduce it the same way the recorder did.
            let k = (hw.outputs.perf - 3.0).round();
            Ok((
                HwInputs {
                    big_cores: 3.0,
                    little_cores: 4.0,
                    f_big: 1.6 + 1e-12 * k,
                    f_little: 1.2,
                },
                OsInputs {
                    threads_big: 5.0,
                    packing_big: 2.0,
                    packing_little: 1.5,
                },
            ))
        })
        .expect("replay");
        assert_eq!(exact.steps, 6);
        assert!(exact.is_exact(), "{exact:?}");

        // A single-ULP perturbation at step 3 is a divergence.
        let off = replay_with(&j, |hw, _os| {
            let k = (hw.outputs.perf - 3.0).round();
            let mut f_big = 1.6 + 1e-12 * k;
            if k as u64 == 3 {
                f_big = f64::from_bits(f_big.to_bits() + 1);
            }
            Ok((
                HwInputs {
                    big_cores: 3.0,
                    little_cores: 4.0,
                    f_big,
                    f_little: 1.2,
                },
                OsInputs {
                    threads_big: 5.0,
                    packing_big: 2.0,
                    packing_little: 1.5,
                },
            ))
        })
        .expect("replay");
        assert_eq!(off.divergences, 1);
        assert_eq!(off.first_divergence, Some(3));
    }
}
