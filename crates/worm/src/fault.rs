//! Deterministic fault injection for the WORM device.
//!
//! Crash-consistency testing needs a way to kill the write path at an
//! arbitrary byte — in the middle of a posting, between a dictionary
//! record and its first posting, halfway through a DOCMETA record — and
//! then prove that recovery converges to the last fully committed
//! document.  [`FaultPolicy`] supplies that: armed on a [`WormDevice`]
//! (see [`WormDevice::arm_faults`](crate::WormDevice::arm_faults)), it
//! intercepts every `append` and can
//!
//! * **fail the Nth append** outright (no bytes reach the device),
//! * **tear a write**: commit only a prefix of the bytes, then fail —
//!   modelling a power cut mid-sector, and
//! * **error once, then heal** — modelling a transient I/O error that a
//!   retry loop would survive.
//!
//! Policies are deterministic.  The seeded constructor uses the same
//! SplitMix64 stream as the schedule explorer in `tests/sched`, so a
//! failing seed printed by a test harness replays the exact same fault.
//!
//! A fault is an *availability* event, never silent corruption: the torn
//! prefix is committed (WORM bytes cannot be taken back) and the caller
//! gets [`WormError::InjectedFault`](crate::WormError).  Recovery layers
//! treat the residue as a quarantined torn tail, distinct from tampering.

/// What the armed policy does to one `append` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Let the append through untouched.
    Proceed,
    /// Commit only the first `keep` bytes, then report the injected fault.
    /// `keep == 0` models an append that failed before any byte landed.
    Tear {
        /// Bytes of the append that still reach the device.
        keep: usize,
    },
}

/// When the policy fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Fire on the `n`-th append call (0-based), committing `keep` bytes.
    NthAppend { n: u64, keep: usize },
    /// Fire on the append that crosses cumulative device offset `offset`,
    /// committing exactly the bytes below the offset.
    ByteOffset { offset: u64 },
}

/// A deterministic fault-injection policy for [`WormDevice`]
/// (crate::WormDevice) appends.
///
/// After the trigger fires the policy goes into one of two regimes:
///
/// * **crashed** (default): every later append also fails with zero bytes
///   committed — the process is dead, nothing more reaches the device;
/// * **healed** ([`FaultPolicy::healing`]): later appends succeed — the
///   error was transient.
///
/// # Example
///
/// ```
/// use tks_worm::{FaultPolicy, WormDevice, WormError};
///
/// let mut dev = WormDevice::new(64);
/// let b = dev.alloc_block();
/// dev.arm_faults(FaultPolicy::torn_nth_append(1, 3));
/// dev.append(b, b"whole-record").unwrap();
/// let err = dev.append(b, b"torn-record").unwrap_err();
/// assert!(matches!(err, WormError::InjectedFault { committed: 3, .. }));
/// // Only the torn prefix of the second append is on the device.
/// assert_eq!(dev.read_all(b).unwrap(), b"whole-recordtor");
/// ```
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    trigger: Trigger,
    /// `true`: transient error — appends after the trigger succeed.
    /// `false`: crash — every append after the trigger fails.
    heal: bool,
    appends_seen: u64,
    tripped: bool,
}

/// SplitMix64 step — the same generator as `SchedRng` in the race
/// explorer (`tests/sched`), duplicated here so a seed means the same
/// stream in both.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPolicy {
    /// Fail the `n`-th append call (0-based) with nothing committed; every
    /// later append fails too (crash regime).
    pub fn fail_nth_append(n: u64) -> Self {
        Self {
            trigger: Trigger::NthAppend { n, keep: 0 },
            heal: false,
            appends_seen: 0,
            tripped: false,
        }
    }

    /// Tear the `n`-th append call (0-based): its first `keep` bytes
    /// commit, the rest are lost, and the call fails; every later append
    /// fails too (crash regime).
    pub fn torn_nth_append(n: u64, keep: usize) -> Self {
        Self {
            trigger: Trigger::NthAppend { n, keep },
            heal: false,
            appends_seen: 0,
            tripped: false,
        }
    }

    /// Tear the append that crosses cumulative device byte `offset`:
    /// exactly the bytes below the offset commit.  Sweeping `offset` over
    /// the device's byte range kills the write path at every possible
    /// byte boundary — the crash-recovery harness's exhaustive mode.
    pub fn torn_at_offset(offset: u64) -> Self {
        Self {
            trigger: Trigger::ByteOffset { offset },
            heal: false,
            appends_seen: 0,
            tripped: false,
        }
    }

    /// Fail the `n`-th append call with nothing committed, then heal:
    /// later appends succeed (transient-error regime).
    pub fn error_once_then_heal(n: u64) -> Self {
        Self {
            trigger: Trigger::NthAppend { n, keep: 0 },
            heal: true,
            appends_seen: 0,
            tripped: false,
        }
    }

    /// Derive a policy from a seed, deterministically: the SplitMix64
    /// stream picks one of the three fault shapes, an append ordinal
    /// below `horizon`, and (for torn writes) a prefix length.  The same
    /// seed always yields the same policy, so harnesses can log the seed
    /// of a failing run and replay it.
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut state = seed;
        let n = splitmix64(&mut state) % horizon.max(1);
        match splitmix64(&mut state) % 3 {
            0 => Self::fail_nth_append(n),
            1 => Self::torn_nth_append(n, (splitmix64(&mut state) % 16) as usize),
            _ => Self::error_once_then_heal(n),
        }
    }

    /// Switch the post-trigger regime to healing (transient error).
    pub fn healing(mut self) -> Self {
        self.heal = true;
        self
    }

    /// Whether the trigger has fired at least once.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Decide the fate of the next append of `len` bytes, given the
    /// device's cumulative committed byte count.  Called by
    /// [`WormDevice::append`](crate::WormDevice::append) only.
    pub(crate) fn on_append(&mut self, bytes_committed: u64, len: usize) -> FaultAction {
        if self.tripped {
            return if self.heal {
                FaultAction::Proceed
            } else {
                FaultAction::Tear { keep: 0 }
            };
        }
        let fire = match self.trigger {
            Trigger::NthAppend { n, .. } => self.appends_seen == n,
            // Fire on the append whose byte range reaches the offset.
            Trigger::ByteOffset { offset } => bytes_committed + len as u64 > offset,
        };
        self.appends_seen += 1;
        if !fire {
            return FaultAction::Proceed;
        }
        self.tripped = true;
        let keep = match self.trigger {
            Trigger::NthAppend { keep, .. } => keep.min(len),
            Trigger::ByteOffset { offset } => offset.saturating_sub(bytes_committed) as usize,
        };
        FaultAction::Tear { keep }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_append_counts_from_zero() {
        let mut p = FaultPolicy::fail_nth_append(2);
        assert_eq!(p.on_append(0, 4), FaultAction::Proceed);
        assert_eq!(p.on_append(4, 4), FaultAction::Proceed);
        assert_eq!(p.on_append(8, 4), FaultAction::Tear { keep: 0 });
        assert!(p.tripped());
        // Crash regime: everything later fails too.
        assert_eq!(p.on_append(8, 4), FaultAction::Tear { keep: 0 });
    }

    #[test]
    fn torn_keep_clamped_to_len() {
        let mut p = FaultPolicy::torn_nth_append(0, 100);
        assert_eq!(p.on_append(0, 7), FaultAction::Tear { keep: 7 });
    }

    #[test]
    fn byte_offset_tears_mid_append() {
        let mut p = FaultPolicy::torn_at_offset(10);
        assert_eq!(p.on_append(0, 8), FaultAction::Proceed); // bytes 0..8
        assert_eq!(p.on_append(8, 8), FaultAction::Tear { keep: 2 }); // crosses 10
    }

    #[test]
    fn byte_offset_zero_keeps_nothing() {
        let mut p = FaultPolicy::torn_at_offset(0);
        assert_eq!(p.on_append(0, 8), FaultAction::Tear { keep: 0 });
    }

    #[test]
    fn heal_lets_later_appends_through() {
        let mut p = FaultPolicy::error_once_then_heal(1);
        assert_eq!(p.on_append(0, 4), FaultAction::Proceed);
        assert_eq!(p.on_append(4, 4), FaultAction::Tear { keep: 0 });
        assert_eq!(p.on_append(4, 4), FaultAction::Proceed);
        assert_eq!(p.on_append(8, 4), FaultAction::Proceed);
    }

    #[test]
    fn seeded_is_deterministic() {
        for seed in 0..64u64 {
            let mut a = FaultPolicy::seeded(seed, 100);
            let mut b = FaultPolicy::seeded(seed, 100);
            for i in 0..200u64 {
                assert_eq!(a.on_append(i * 4, 4), b.on_append(i * 4, 4), "seed {seed}");
            }
            assert!(a.tripped(), "seed {seed} must fire within the horizon");
        }
    }
}
