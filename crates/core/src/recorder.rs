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
//! The journal doubles as a standing determinism proof: feeding its recorded
//! senses to a freshly instantiated controller stack via [`replay_with`]
//! must reproduce the recorded actuation stream exactly
//! (`f64::to_bits`-equal), or the run was not deterministic.
//!
//! Serialization is a hand-rolled little-endian binary format (no type in
//! the workspace derives a serializer); see [`Journal::to_bytes`] for the
//! layout.

use yukta_board::{FaultChannel, FaultEvent, FaultKind};
use yukta_linalg::{Error, Result};

use crate::controllers::{HwSense, OsSense};
use crate::signals::{HwInputs, HwOutputs, Limits, OsInputs, OsOutputs, SloSense};
use crate::supervisor::SupervisorMode;

/// Magic number opening every serialized journal (`"YKTJ"` big-endian).
pub const JOURNAL_MAGIC: u32 = 0x594B_544A;
/// Current journal format version. Version 2 added the request-serving
/// fields: one [`SloSense`] per sense vector and `latency_slo_s` in
/// [`Limits`]. Version-1 journals are rejected rather than migrated — the
/// journal is a per-run crash-recovery artifact, not an archival format.
pub const JOURNAL_VERSION: u32 = 2;

/// Encoded size of one fault event: `time:f64, kind:u8, at_step:u64,
/// channel:u8, value:f64`.
const FAULT_EVENT_BYTES: usize = 26;

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
    /// [`f64::to_bits`], discrete fields via equality. Two records are
    /// bit-identical exactly when their [`Journal::to_bytes`] encodings
    /// are equal, so that is how they are compared.
    pub fn bit_identical(&self, other: &JournalRecord) -> bool {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.encode(&mut a);
        other.encode(&mut b);
        a == b
    }

    /// Appends this record's wire encoding (see [`Journal::to_bytes`]).
    fn encode(&self, out: &mut Vec<u8>) {
        let (hw, os) = (&self.hw_sense, &self.os_sense);
        put_u64(out, self.step);
        put_f64(out, self.time);
        put_f64s(out, &hw.outputs.to_vec());
        put_f64s(out, &hw.ext.to_vec());
        put_f64s(out, &hw.current.to_vec());
        put_limits(out, &hw.limits);
        put_u64(out, hw.active_threads as u64);
        put_slo(out, &hw.slo);
        put_f64s(out, &os.outputs.to_vec());
        put_f64s(out, &os.ext.to_vec());
        put_f64s(out, &os.current.to_vec());
        put_f64s(out, &os.system.to_vec());
        put_limits(out, &os.limits);
        put_u64(out, os.active_threads as u64);
        put_slo(out, &os.slo);
        put_f64s(out, &self.hw_u.to_vec());
        put_f64s(out, &self.os_u.to_vec());
        out.push(mode_code(self.mode));
        put_u32(out, self.fault_events.len() as u32);
        for e in &self.fault_events {
            put_f64(out, e.time);
            let (kind, at_step) = kind_code(e.kind);
            out.push(kind);
            put_u64(out, at_step);
            out.push(channel_code(e.channel));
            put_f64(out, e.value);
        }
    }
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

    /// The record at invocation index `i`, if recorded.
    pub fn get(&self, i: usize) -> Option<&JournalRecord> {
        self.records.get(i)
    }

    /// All records in invocation order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Appends one invocation record.
    pub fn push(&mut self, record: JournalRecord) {
        self.records.push(record);
    }

    /// Serializes the journal to the compact little-endian binary format.
    ///
    /// Layout: header `magic:u32, version:u32, count:u64`, then per record
    /// `step:u64, time:f64`, the hardware sense (15 `f64` in Table II order
    /// — outputs, ext, current, limits — plus `active_threads:u64` and the
    /// SLO sense `active:u8` + 4 `f64`), the software sense (18 `f64` —
    /// outputs, ext, current, system, limits — plus `active_threads:u64`
    /// and the SLO sense), the actuations (4 + 3 `f64`), the mode
    /// byte (0 = raw, 1 = primary, 2 = fallback, 3 = safe), and the fault
    /// events (`count:u32`, then per event `time:f64, kind:u8,
    /// at_step:u64, channel:u8, value:f64`; `at_step` is 0 for non-crash
    /// kinds). All `f64`s are stored as raw IEEE-754 bits, so a decode is
    /// bit-exact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.records.len() * 320);
        put_u32(&mut out, JOURNAL_MAGIC);
        put_u32(&mut out, JOURNAL_VERSION);
        put_u64(&mut out, self.records.len() as u64);
        for r in &self.records {
            r.encode(&mut out);
        }
        out
    }

    /// Decodes a journal serialized by [`Journal::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`Error::NoSolution`] with `op = "journal_decode"` on a bad magic
    /// number, unsupported version, truncated buffer, trailing garbage, or
    /// invalid mode/kind/channel code.
    pub fn from_bytes(bytes: &[u8]) -> Result<Journal> {
        let mut c = Cursor { buf: bytes, pos: 0 };
        if c.u32()? != JOURNAL_MAGIC {
            return Err(decode_err("bad magic number"));
        }
        if c.u32()? != JOURNAL_VERSION {
            return Err(decode_err("unsupported journal version"));
        }
        let count = c.u64()?;
        let mut records = Vec::new();
        for _ in 0..count {
            let step = c.u64()?;
            let time = c.f64()?;
            let hw_outputs = HwOutputs {
                perf: c.f64()?,
                p_big: c.f64()?,
                p_little: c.f64()?,
                temp: c.f64()?,
            };
            let hw_ext = c.os_inputs()?;
            let hw_current = c.hw_inputs()?;
            let hw_limits = c.limits()?;
            let hw_threads = c.u64()? as usize;
            let hw_slo = c.slo()?;
            let os_outputs = OsOutputs {
                perf_little: c.f64()?,
                perf_big: c.f64()?,
                spare_diff: c.f64()?,
            };
            let os_ext = c.hw_inputs()?;
            let os_current = c.os_inputs()?;
            let os_system = HwOutputs {
                perf: c.f64()?,
                p_big: c.f64()?,
                p_little: c.f64()?,
                temp: c.f64()?,
            };
            let os_limits = c.limits()?;
            let os_threads = c.u64()? as usize;
            let os_slo = c.slo()?;
            let hw_u = c.hw_inputs()?;
            let os_u = c.os_inputs()?;
            let mode = mode_decode(c.u8()?)?;
            let n_events = c.u32()?;
            // The count is untrusted: reserve no more events than the
            // bytes left could hold, so a corrupt count fails as a
            // truncated journal instead of a huge allocation.
            let fit = (bytes.len() - c.pos) / FAULT_EVENT_BYTES;
            let mut fault_events = Vec::with_capacity((n_events as usize).min(fit));
            for _ in 0..n_events {
                let time = c.f64()?;
                let kind_byte = c.u8()?;
                let at_step = c.u64()?;
                let kind = kind_decode(kind_byte, at_step)?;
                let channel = channel_decode(c.u8()?)?;
                let value = c.f64()?;
                fault_events.push(FaultEvent {
                    time,
                    kind,
                    channel,
                    value,
                });
            }
            records.push(JournalRecord {
                step,
                time,
                hw_sense: HwSense {
                    outputs: hw_outputs,
                    ext: hw_ext,
                    current: hw_current,
                    active_threads: hw_threads,
                    slo: hw_slo,
                    limits: hw_limits,
                },
                os_sense: OsSense {
                    outputs: os_outputs,
                    ext: os_ext,
                    current: os_current,
                    active_threads: os_threads,
                    system: os_system,
                    slo: os_slo,
                    limits: os_limits,
                },
                hw_u,
                os_u,
                mode,
                fault_events,
            });
        }
        if c.pos != bytes.len() {
            return Err(decode_err("trailing bytes after last record"));
        }
        Ok(Journal { records })
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
        let same = hw_u
            .to_vec()
            .iter()
            .zip(r.hw_u.to_vec())
            .all(|(a, b)| a.to_bits() == b.to_bits())
            && os_u
                .to_vec()
                .iter()
                .zip(r.os_u.to_vec())
                .all(|(a, b)| a.to_bits() == b.to_bits());
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

fn decode_err(why: &'static str) -> Error {
    Error::NoSolution {
        op: "journal_decode",
        why,
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    for &v in vs {
        put_f64(out, v);
    }
}

fn put_limits(out: &mut Vec<u8>, l: &Limits) {
    put_f64s(
        out,
        &[l.p_big_max, l.p_little_max, l.temp_max, l.latency_slo_s],
    );
}

fn put_slo(out: &mut Vec<u8>, s: &SloSense) {
    out.push(u8::from(s.active));
    put_f64s(out, &[s.p95_s, s.p99_s, s.backlog_frac, s.drop_frac]);
}

fn mode_code(mode: Option<SupervisorMode>) -> u8 {
    match mode {
        None => 0,
        Some(SupervisorMode::Primary) => 1,
        Some(SupervisorMode::Fallback) => 2,
        Some(SupervisorMode::Safe) => 3,
    }
}

fn mode_decode(code: u8) -> Result<Option<SupervisorMode>> {
    Ok(match code {
        0 => None,
        1 => Some(SupervisorMode::Primary),
        2 => Some(SupervisorMode::Fallback),
        3 => Some(SupervisorMode::Safe),
        _ => return Err(decode_err("invalid supervisor-mode code")),
    })
}

fn kind_code(kind: FaultKind) -> (u8, u64) {
    match kind {
        FaultKind::StuckAt => (0, 0),
        FaultKind::DroppedSample => (1, 0),
        FaultKind::Spike => (2, 0),
        FaultKind::BiasNoise => (3, 0),
        FaultKind::DelayedRead => (4, 0),
        FaultKind::DvfsRejected => (5, 0),
        FaultKind::HotplugIgnored => (6, 0),
        FaultKind::ActuationLag => (7, 0),
        FaultKind::Crash { at_step } => (8, at_step),
    }
}

fn kind_decode(code: u8, at_step: u64) -> Result<FaultKind> {
    Ok(match code {
        0 => FaultKind::StuckAt,
        1 => FaultKind::DroppedSample,
        2 => FaultKind::Spike,
        3 => FaultKind::BiasNoise,
        4 => FaultKind::DelayedRead,
        5 => FaultKind::DvfsRejected,
        6 => FaultKind::HotplugIgnored,
        7 => FaultKind::ActuationLag,
        8 => FaultKind::Crash { at_step },
        _ => return Err(decode_err("invalid fault-kind code")),
    })
}

fn channel_code(channel: FaultChannel) -> u8 {
    match channel {
        FaultChannel::PowerBig => 0,
        FaultChannel::PowerLittle => 1,
        FaultChannel::Temp => 2,
        FaultChannel::Dvfs => 3,
        FaultChannel::Hotplug => 4,
        FaultChannel::Actuation => 5,
    }
}

fn channel_decode(code: u8) -> Result<FaultChannel> {
    Ok(match code {
        0 => FaultChannel::PowerBig,
        1 => FaultChannel::PowerLittle,
        2 => FaultChannel::Temp,
        3 => FaultChannel::Dvfs,
        4 => FaultChannel::Hotplug,
        5 => FaultChannel::Actuation,
        _ => return Err(decode_err("invalid fault-channel code")),
    })
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        if self.pos + n > self.buf.len() {
            return Err(decode_err("truncated journal"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn hw_inputs(&mut self) -> Result<HwInputs> {
        Ok(HwInputs {
            big_cores: self.f64()?,
            little_cores: self.f64()?,
            f_big: self.f64()?,
            f_little: self.f64()?,
        })
    }

    fn os_inputs(&mut self) -> Result<OsInputs> {
        Ok(OsInputs {
            threads_big: self.f64()?,
            packing_big: self.f64()?,
            packing_little: self.f64()?,
        })
    }

    fn limits(&mut self) -> Result<Limits> {
        Ok(Limits {
            p_big_max: self.f64()?,
            p_little_max: self.f64()?,
            temp_max: self.f64()?,
            latency_slo_s: self.f64()?,
        })
    }

    fn slo(&mut self) -> Result<SloSense> {
        let active = match self.u8()? {
            0 => false,
            1 => true,
            _ => return Err(decode_err("invalid slo-active flag")),
        };
        Ok(SloSense {
            active,
            p95_s: self.f64()?,
            p99_s: self.f64()?,
            backlog_frac: self.f64()?,
            drop_frac: self.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
                        kind: FaultKind::Crash { at_step: 9 },
                        channel: FaultChannel::Actuation,
                        value: 0.0,
                    },
                ]
            } else {
                Vec::new()
            },
        }
    }

    #[test]
    fn serialization_roundtrips_bit_for_bit() {
        let mut j = Journal::new();
        for s in 0..4 {
            j.push(record(s));
        }
        // A raw (mode-less) record and a NaN sense value must survive too.
        let mut raw = record(4);
        raw.mode = None;
        raw.hw_sense.outputs.p_big = f64::from_bits(0x7FF8_0000_DEAD_BEEF); // NaN payload
        j.push(raw);

        let bytes = j.to_bytes();
        let back = Journal::from_bytes(&bytes).expect("decode");
        assert_eq!(back.len(), j.len());
        for (a, b) in j.records().iter().zip(back.records()) {
            assert!(
                a.bit_identical(b),
                "record {} changed across the wire",
                a.step
            );
        }
    }

    #[test]
    fn decode_rejects_corrupt_buffers() {
        let mut j = Journal::new();
        j.push(record(0));
        let bytes = j.to_bytes();

        // Truncated mid-record.
        assert!(Journal::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0xAB);
        assert!(Journal::from_bytes(&long).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(Journal::from_bytes(&bad).is_err());
        // Unsupported version.
        let mut ver = bytes.clone();
        ver[4] = 99;
        assert!(Journal::from_bytes(&ver).is_err());
        // Invalid mode code (mode byte sits right before the event count,
        // 8 + 4 f64 bytes from the end of this single-event-free record).
        let mut j2 = Journal::new();
        let mut r = record(2);
        r.fault_events.clear();
        j2.push(r);
        let mut b2 = j2.to_bytes();
        let mode_at = b2.len() - 4 - 1;
        b2[mode_at] = 9;
        assert!(Journal::from_bytes(&b2).is_err());
    }

    /// The shortest journal whose fault-event count asks for 171 GB: one
    /// event-free record (439 bytes in all) whose count reads
    /// `u32::MAX`. The decoder must report it truncated, not reserve it.
    #[test]
    fn huge_fault_event_count_is_a_truncated_journal() {
        let mut r = record(2);
        r.fault_events.clear();
        let mut j = Journal::new();
        j.push(r);
        let mut bytes = j.to_bytes();
        assert_eq!(bytes.len(), 439);
        let count_at = bytes.len() - 4;
        bytes[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        match Journal::from_bytes(&bytes) {
            Err(Error::NoSolution {
                op: "journal_decode",
                why: "truncated journal",
            }) => {}
            other => panic!("expected a truncated-journal error, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random, truncated and bit-flipped journals decode to `Ok` or
        /// the typed `journal_decode` error, never a panic or an abort.
        #[test]
        fn damaged_journals_decode_to_ok_or_a_typed_error(
            n_records in 0..4u64,
            damage in 0..3u32,
            cut in 0.0..1.0f64,
            flips in prop::collection::vec((0.0..1.0f64, 0..8u32), 1..4),
            noise in prop::collection::vec(0..=255u8, 0..600),
        ) {
            let mut j = Journal::new();
            for s in 0..n_records {
                j.push(record(s));
            }
            let mut bytes = j.to_bytes();
            match damage {
                0 => bytes.truncate((cut * bytes.len() as f64) as usize),
                1 => {
                    for (at, bit) in flips {
                        let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
                        bytes[i] ^= 1 << bit;
                    }
                }
                // A valid magic and version, then random bytes.
                _ => {
                    bytes.truncate(8);
                    bytes.extend(noise);
                }
            }
            match Journal::from_bytes(&bytes) {
                Ok(_) | Err(Error::NoSolution { op: "journal_decode", .. }) => {}
                Err(e) => panic!("untyped decode error {e:?}"),
            }
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
