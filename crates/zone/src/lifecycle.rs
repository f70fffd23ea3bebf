//! Simulated-time DNSSEC key lifecycle: rollover schedules, signature
//! validity windows, and the re-signing scheduler.
//!
//! A [`KeyTimeline`] turns a [`RolloverPolicy`] (plus an optional
//! [`LifecycleFault`]) into a deterministic sequence of [`ZoneEpoch`]s: at
//! any simulated instant exactly one epoch is active, and publishing a zone
//! at that epoch yields the DNSKEY RRset and RRSIG validity window an
//! authority would have served at that moment. Mistimed variants — a late
//! re-sign, a prematurely removed ZSK, a parent DS that never follows a KSK
//! roll — reproduce the operational failure class that drove operators to
//! bolt DLV onto their resolvers in the first place (the paper's §2
//! motivation).
//!
//! Time here is *zone time*: seconds since the simulation origin, the same
//! clock the RRSIG inception/expiration fields carry. Comparisons against
//! those fields use RFC 4034 §3.1.5 serial-number arithmetic
//! ([`serial_window_contains`]), so windows spanning the 32-bit wraparound
//! behave correctly.

use lookaside_crypto::KeyPair;
use serde::{Deserialize, Serialize};

use crate::nsec3::DenialMode;
use crate::published::{PublishedKey, PublishedZone, SigningKeys, ZoneKeySet};
use crate::zone::Zone;

/// RFC 1982 serial-number "less than" over 32-bit serials (RFC 4034
/// §3.1.5 prescribes this for RRSIG inception/expiration comparisons).
///
/// `a` is before `b` when the forward distance from `a` to `b` is less
/// than half the serial space. The comparison is undefined by the RFC when
/// the distance is exactly `2^31`; this implementation answers `false`
/// for both orderings of such a pair, which makes validity checks fail
/// closed.
pub fn serial_lt(a: u32, b: u32) -> bool {
    (a < b && b - a < 0x8000_0000) || (a > b && a - b > 0x8000_0000)
}

/// Whether `now` falls inside the RRSIG validity window
/// `[inception, expiration]`, boundaries inclusive, using RFC 1982 serial
/// arithmetic so windows spanning the 2038 `u32` wraparound validate.
pub fn serial_window_contains(inception: u32, expiration: u32, now: u32) -> bool {
    !serial_lt(now, inception) && !serial_lt(expiration, now)
}

/// The correct-operation schedule a zone's signer follows.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RolloverPolicy {
    /// Interval between scheduled re-signs (fresh RRSIG windows), seconds.
    pub resign_every_secs: u32,
    /// RRSIG validity: `expiration = inception + validity_secs`.
    pub validity_secs: u32,
    /// ZSK pre-publish rollover activation time, if one is scheduled.
    /// The successor ZSK is published `rollover_lead_secs` earlier and the
    /// predecessor retires `rollover_lead_secs` later.
    pub zsk_rollover_at: Option<u32>,
    /// KSK double-signature rollover activation time, if scheduled. The
    /// successor KSK is published `rollover_lead_secs` earlier; the parent
    /// DS (or trust anchor) follows at activation; the predecessor leaves
    /// the DNSKEY RRset `rollover_lead_secs` after activation.
    pub ksk_rollover_at: Option<u32>,
    /// Pre-publish lead and retire window around each rollover. Must cover
    /// at least one DNSKEY TTL for caches to stay verifiable.
    pub rollover_lead_secs: u32,
    /// Whether the outgoing KSK is published with the RFC 5011 REVOKE bit
    /// during its retire window (as the 2018 root KSK roll did in 2019).
    pub revoke_old_ksk: bool,
}

impl RolloverPolicy {
    /// A steady-state policy: periodic re-signs, no rollovers.
    pub fn steady(resign_every_secs: u32, validity_secs: u32) -> Self {
        RolloverPolicy {
            resign_every_secs,
            validity_secs,
            zsk_rollover_at: None,
            ksk_rollover_at: None,
            rollover_lead_secs: 0,
            revoke_old_ksk: false,
        }
    }
}

/// A mistimed-operation variant layered over the correct schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LifecycleFault {
    /// Correct operation.
    None,
    /// The signer misses scheduled re-sign number `resign_index` (0-based)
    /// and catches up `delay_secs` late. If the delay exceeds the RRSIG
    /// validity margin, the zone serves expired signatures in the gap —
    /// an RRSIG-expiry storm.
    LateResign {
        /// Which scheduled re-sign is missed (0 = the initial signing).
        resign_index: u32,
        /// How late the catch-up re-sign lands, seconds.
        delay_secs: u32,
    },
    /// The outgoing ZSK is dropped from the DNSKEY RRset at activation
    /// instead of after the retire window, stranding still-cached RRSIGs
    /// with no matching key.
    PrematureZskRemoval,
    /// The parent's DS record (or the resolver's static trust anchor) is
    /// never updated after the KSK roll: the chain of trust points at a
    /// key that has left the zone.
    DsDesync,
}

impl LifecycleFault {
    /// Stable label for reports and sharded-output ordering.
    pub fn label(&self) -> &'static str {
        match self {
            LifecycleFault::None => "none",
            LifecycleFault::LateResign { .. } => "late-resign",
            LifecycleFault::PrematureZskRemoval => "premature-zsk-removal",
            LifecycleFault::DsDesync => "ds-desync",
        }
    }
}

/// Which zone a [`KeyTimeline`] takes over. Lifecycle faults are not a
/// root-only phenomenon: a TLD operator can miss a re-sign just as well,
/// and the blast radius differs — a root fault severs every chain, a TLD
/// fault severs only that TLD's children (and only *their* case-2 traffic
/// spikes at the look-aside registry).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LifecycleTarget {
    /// The root zone: the study's original (PR 6) scope.
    Root,
    /// One top-level domain, by label (e.g. `"com"`).
    Tld(String),
}

impl LifecycleTarget {
    /// Stable label for reports and sharded-output ordering.
    pub fn label(&self) -> String {
        match self {
            LifecycleTarget::Root => "root".to_string(),
            LifecycleTarget::Tld(tld) => format!("tld:{tld}"),
        }
    }
}

/// One zone version: the key set, signing window, and parent-side DS
/// target active from `start_secs` until the next epoch begins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ZoneEpoch {
    /// Zone time at which this version starts being served.
    pub start_secs: u32,
    /// RRSIG inception for every signature produced in this epoch.
    pub inception: u32,
    /// RRSIG expiration for every signature produced in this epoch.
    pub expiration: u32,
    /// The full published key set (all generations currently visible).
    pub keyset: ZoneKeySet,
    /// The KSK the parent's DS record (or a correctly managed trust
    /// anchor) designates during this epoch. Under
    /// [`LifecycleFault::DsDesync`] this stays on the original KSK even
    /// after the roll.
    pub ds_public: lookaside_crypto::PublicKey,
}

impl ZoneEpoch {
    /// Signs and publishes `zone` as this epoch's servable version.
    pub fn publish(&self, zone: Zone, denial: DenialMode) -> PublishedZone {
        PublishedZone::signed_with_keyset(
            zone,
            &self.keyset,
            self.inception,
            self.expiration,
            denial,
        )
    }

    /// Whether `now` is inside this epoch's signature validity window.
    pub fn window_contains(&self, now_secs: u32) -> bool {
        serial_window_contains(self.inception, self.expiration, now_secs)
    }
}

/// A deterministic key-lifecycle timeline for one zone.
///
/// Key generations derive from `base_seed` such that generation 0 equals
/// [`SigningKeys::from_seed`]`(base_seed)` — a timeline can therefore take
/// over a zone originally signed via `SigningKeys` without changing its
/// epoch-0 bytes.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KeyTimeline {
    /// Seed from which every key generation derives.
    pub base_seed: u64,
    /// The intended schedule.
    pub policy: RolloverPolicy,
    /// The mistiming (if any) layered over the schedule.
    pub fault: LifecycleFault,
}

/// Seed stride between key generations, chosen so generation `g` never
/// collides with the `SigningKeys::from_seed` derivation of other zones in
/// the study (zone seeds are small; the stride is far outside their range).
const GENERATION_STRIDE: u64 = 0x0001_0000_0000;

impl KeyTimeline {
    /// A timeline with no fault.
    pub fn correct(base_seed: u64, policy: RolloverPolicy) -> Self {
        KeyTimeline { base_seed, policy, fault: LifecycleFault::None }
    }

    /// ZSK of generation `g` (generation 0 matches `SigningKeys::from_seed`).
    pub fn zsk_generation(&self, g: u32) -> KeyPair {
        KeyPair::generate_zsk(
            self.base_seed
                .wrapping_mul(2)
                .wrapping_add(1)
                .wrapping_add(GENERATION_STRIDE.wrapping_mul(g as u64)),
        )
    }

    /// KSK of generation `g` (generation 0 matches `SigningKeys::from_seed`).
    pub fn ksk_generation(&self, g: u32) -> KeyPair {
        KeyPair::generate_ksk(
            self.base_seed
                .wrapping_mul(2)
                .wrapping_add(2)
                .wrapping_add(GENERATION_STRIDE.wrapping_mul(g as u64)),
        )
    }

    /// The generation-0 key pair set, identical to
    /// `SigningKeys::from_seed(self.base_seed)`.
    pub fn initial_keys(&self) -> SigningKeys {
        SigningKeys { zsk: self.zsk_generation(0), ksk: self.ksk_generation(0) }
    }

    /// The epoch sequence covering `[0, horizon_secs)`, sorted by
    /// `start_secs`, first epoch at 0.
    ///
    /// Epoch boundaries are the union of the (possibly fault-shifted)
    /// re-sign schedule and every key-set change point — a real signer
    /// re-signs whenever the DNSKEY RRset changes, so each boundary opens
    /// a fresh validity window *except* in the [`LifecycleFault::LateResign`]
    /// gap, where no boundary exists and the stale window keeps being
    /// served.
    pub fn epochs(&self, horizon_secs: u32) -> Vec<ZoneEpoch> {
        let mut starts = self.resign_times(horizon_secs);
        for t in self.key_event_times() {
            if t < horizon_secs && !starts.contains(&t) {
                starts.push(t);
            }
        }
        starts.sort_unstable();
        starts.dedup();
        starts.iter().map(|&t| self.epoch_at(t)).collect()
    }

    /// The epoch that a correctly operating (or faulted) signer would have
    /// in service at zone time `t`.
    pub fn epoch_at(&self, t: u32) -> ZoneEpoch {
        ZoneEpoch {
            start_secs: t,
            inception: t,
            expiration: t.wrapping_add(self.policy.validity_secs),
            keyset: self.keyset_at(t),
            ds_public: self.ds_target_at(t),
        }
    }

    /// Scheduled re-sign instants in `[0, horizon)`, with the
    /// `LateResign` fault applied: the missed event shifts later and any
    /// regular events overtaken by the outage are dropped (the signer was
    /// down; it catches up once, then resumes the regular cadence).
    fn resign_times(&self, horizon_secs: u32) -> Vec<u32> {
        let step = self.policy.resign_every_secs.max(1);
        let mut times: Vec<u32> =
            (0..).map(|k| k * step).take_while(|&t| t < horizon_secs).collect();
        if times.is_empty() {
            times.push(0);
        }
        if let LifecycleFault::LateResign { resign_index, delay_secs } = self.fault {
            let idx = resign_index as usize;
            if let Some(&at) = times.get(idx) {
                let shifted = at.saturating_add(delay_secs);
                times.truncate(idx);
                times.push(shifted);
                let mut next = shifted - shifted % step + step;
                while next < horizon_secs {
                    times.push(next);
                    next += step;
                }
                times.retain(|&t| t < horizon_secs);
                if times.is_empty() {
                    times.push(0);
                }
            }
        }
        times
    }

    /// Instants at which the published key set changes.
    fn key_event_times(&self) -> Vec<u32> {
        let lead = self.policy.rollover_lead_secs;
        let mut events = Vec::new();
        if let Some(a) = self.policy.zsk_rollover_at {
            events.push(a.saturating_sub(lead));
            events.push(a);
            if self.fault != LifecycleFault::PrematureZskRemoval {
                events.push(a.saturating_add(lead));
            }
        }
        if let Some(a) = self.policy.ksk_rollover_at {
            events.push(a.saturating_sub(lead));
            events.push(a);
            events.push(a.saturating_add(lead));
        }
        events
    }

    /// The published key set at zone time `t`.
    pub fn keyset_at(&self, t: u32) -> ZoneKeySet {
        let lead = self.policy.rollover_lead_secs;

        let mut zsks = Vec::new();
        let mut signer_zsk = 0;
        match self.policy.zsk_rollover_at {
            Some(a) if t >= a.saturating_sub(lead) => {
                let premature = self.fault == LifecycleFault::PrematureZskRemoval;
                let retired = if premature { t >= a } else { t >= a.saturating_add(lead) };
                if !retired {
                    zsks.push(PublishedKey::active(self.zsk_generation(0)));
                }
                zsks.push(PublishedKey::active(self.zsk_generation(1)));
                signer_zsk = if t >= a { zsks.len() - 1 } else { 0 };
            }
            _ => zsks.push(PublishedKey::active(self.zsk_generation(0))),
        }

        let mut ksks = Vec::new();
        let mut signer_ksk = 0;
        match self.policy.ksk_rollover_at {
            Some(a) if t >= a.saturating_sub(lead) => {
                let removed = t >= a.saturating_add(lead);
                if !removed {
                    ksks.push(PublishedKey {
                        pair: self.ksk_generation(0),
                        revoked: self.policy.revoke_old_ksk && t >= a,
                    });
                }
                ksks.push(PublishedKey::active(self.ksk_generation(1)));
                signer_ksk = if t >= a { ksks.len() - 1 } else { 0 };
            }
            _ => ksks.push(PublishedKey::active(self.ksk_generation(0))),
        }

        ZoneKeySet { zsks, ksks, signer_zsk, signer_ksk }
    }

    /// The KSK the parent's DS (or a managed trust anchor) designates at
    /// `t`: generation 1 from KSK activation onward, except under
    /// [`LifecycleFault::DsDesync`] where it never moves off generation 0.
    pub fn ds_target_at(&self, t: u32) -> lookaside_crypto::PublicKey {
        match self.policy.ksk_rollover_at {
            Some(a) if t >= a && self.fault != LifecycleFault::DsDesync => {
                self.ksk_generation(1).public()
            }
            _ => self.ksk_generation(0).public(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_lt_handles_wraparound() {
        assert!(serial_lt(1, 2));
        assert!(!serial_lt(2, 1));
        assert!(!serial_lt(5, 5));
        // Near-wrap: 0xffff_fff6 is *before* 10.
        assert!(serial_lt(0xffff_fff6, 10));
        assert!(!serial_lt(10, 0xffff_fff6));
        // Exactly half the space apart: undefined by RFC 1982, we answer
        // false both ways (fail closed).
        assert!(!serial_lt(0, 0x8000_0000));
        assert!(!serial_lt(0x8000_0000, 0));
    }

    #[test]
    fn window_boundaries_are_inclusive() {
        assert!(serial_window_contains(100, 200, 100));
        assert!(serial_window_contains(100, 200, 200));
        assert!(serial_window_contains(100, 200, 150));
        assert!(!serial_window_contains(100, 200, 99));
        assert!(!serial_window_contains(100, 200, 201));
    }

    #[test]
    fn wrapped_window_validates_across_2038() {
        // Window starting just before wrap, ending just after.
        let inception = u32::MAX - 100;
        let expiration = 100;
        assert!(serial_window_contains(inception, expiration, u32::MAX));
        assert!(serial_window_contains(inception, expiration, 0));
        assert!(serial_window_contains(inception, expiration, 50));
        assert!(!serial_window_contains(inception, expiration, 200));
        assert!(!serial_window_contains(inception, expiration, u32::MAX - 200));
    }

    fn policy_with_zsk_roll() -> RolloverPolicy {
        RolloverPolicy {
            resign_every_secs: 3600,
            validity_secs: 10_000,
            zsk_rollover_at: Some(7200),
            ksk_rollover_at: None,
            rollover_lead_secs: 3600,
            revoke_old_ksk: false,
        }
    }

    #[test]
    fn generation_zero_matches_signing_keys() {
        let tl = KeyTimeline::correct(0x126, RolloverPolicy::steady(3600, 10_000));
        let keys = SigningKeys::from_seed(0x126);
        assert_eq!(tl.zsk_generation(0), keys.zsk);
        assert_eq!(tl.ksk_generation(0), keys.ksk);
        assert_ne!(tl.zsk_generation(1), keys.zsk);
    }

    #[test]
    fn zsk_prepublish_rollover_phases() {
        let tl = KeyTimeline::correct(7, policy_with_zsk_roll());
        let g0 = tl.zsk_generation(0);
        let g1 = tl.zsk_generation(1);

        // Before pre-publish: only g0.
        let ks = tl.keyset_at(0);
        assert_eq!(ks.zsks.len(), 1);
        assert_eq!(*ks.zsk_signer(), g0);

        // Pre-publish window: both published, g0 still signs.
        let ks = tl.keyset_at(3600);
        assert_eq!(ks.zsks.len(), 2);
        assert_eq!(*ks.zsk_signer(), g0);

        // Active + retire window: both published, g1 signs.
        let ks = tl.keyset_at(7200);
        assert_eq!(ks.zsks.len(), 2);
        assert_eq!(*ks.zsk_signer(), g1);

        // After retire: only g1.
        let ks = tl.keyset_at(10_800);
        assert_eq!(ks.zsks.len(), 1);
        assert_eq!(*ks.zsk_signer(), g1);
    }

    #[test]
    fn premature_removal_drops_old_zsk_at_activation() {
        let mut tl = KeyTimeline::correct(7, policy_with_zsk_roll());
        tl.fault = LifecycleFault::PrematureZskRemoval;
        let ks = tl.keyset_at(7200);
        assert_eq!(ks.zsks.len(), 1);
        assert_eq!(*ks.zsk_signer(), tl.zsk_generation(1));
    }

    #[test]
    fn ksk_roll_moves_ds_and_revokes() {
        let policy = RolloverPolicy {
            resign_every_secs: 3600,
            validity_secs: 10_000,
            zsk_rollover_at: None,
            ksk_rollover_at: Some(7200),
            rollover_lead_secs: 3600,
            revoke_old_ksk: true,
        };
        let tl = KeyTimeline::correct(9, policy);

        assert_eq!(tl.ds_target_at(0), tl.ksk_generation(0).public());
        assert_eq!(tl.ds_target_at(7200), tl.ksk_generation(1).public());

        // During retire window the outgoing KSK carries the REVOKE bit.
        let ks = tl.keyset_at(7200);
        assert_eq!(ks.ksks.len(), 2);
        assert!(ks.ksks[0].revoked);
        assert_eq!(*ks.ksk_signer(), tl.ksk_generation(1));

        // After removal only the successor remains.
        let ks = tl.keyset_at(10_800);
        assert_eq!(ks.ksks.len(), 1);
        assert!(!ks.ksks[0].revoked);
    }

    #[test]
    fn ds_desync_pins_parent_on_old_ksk() {
        let mut tl = KeyTimeline::correct(
            9,
            RolloverPolicy {
                ksk_rollover_at: Some(7200),
                rollover_lead_secs: 3600,
                ..RolloverPolicy::steady(3600, 10_000)
            },
        );
        tl.fault = LifecycleFault::DsDesync;
        assert_eq!(tl.ds_target_at(20_000), tl.ksk_generation(0).public());
    }

    #[test]
    fn late_resign_leaves_a_stale_gap() {
        let mut tl = KeyTimeline::correct(3, RolloverPolicy::steady(3600, 5000));
        tl.fault = LifecycleFault::LateResign { resign_index: 1, delay_secs: 3600 };
        let epochs = tl.epochs(14_400);
        let starts: Vec<u32> = epochs.iter().map(|e| e.start_secs).collect();
        // Re-sign 1 (scheduled 3600) lands at 7200; the regular cadence
        // resumes at 10_800.
        assert_eq!(starts, vec![0, 7200, 10_800]);
        // During the gap the only applicable epoch (start 0) has expired.
        assert!(!epochs[0].window_contains(6000));
        assert!(epochs[1].window_contains(7200));
    }

    #[test]
    fn correct_epochs_never_lapse() {
        let tl = KeyTimeline::correct(3, RolloverPolicy::steady(3600, 5000));
        let epochs = tl.epochs(36_000);
        for pair in epochs.windows(2) {
            // Each epoch's window covers until the next epoch starts.
            assert!(pair[0].window_contains(pair[1].start_secs - 1));
        }
    }

    #[test]
    fn epoch_publishes_verifiable_zone() {
        use lookaside_wire::{Name, RData, RrType};
        let tl = KeyTimeline::correct(7, policy_with_zsk_roll());
        let epoch = tl.epoch_at(7200);
        let apex = Name::parse("example.com.").unwrap();
        let mut zone = Zone::new(apex.clone(), Name::parse("ns1.example.com.").unwrap());
        zone.add(apex.clone(), 300, RData::A("192.0.2.1".parse().unwrap()));
        let pz = epoch.publish(zone, DenialMode::Nsec);
        // DNSKEY RRset carries both ZSK generations plus the KSK.
        let dnskeys = pz.dnskeys().expect("signed");
        assert_eq!(dnskeys.rrset.len(), 3);
        // The RRSIG over the apex A set verifies under the new ZSK.
        let crate::Lookup::Answer { answer } = pz.lookup(&apex, RrType::A) else {
            panic!("expected answer");
        };
        let sig = answer.rrsig.as_ref().expect("signed");
        let RData::Rrsig {
            type_covered,
            algorithm,
            labels,
            original_ttl,
            expiration,
            inception,
            key_tag,
            ref signer_name,
            ref signature,
        } = sig.rdata
        else {
            panic!("expected rrsig");
        };
        let input = crate::published::rrsig_signing_input(
            type_covered,
            algorithm,
            labels,
            original_ttl,
            expiration,
            inception,
            key_tag,
            signer_name,
            &answer.rrset,
        );
        assert!(tl.zsk_generation(1).public().verify_bytes(&input, signature));
        assert!(serial_window_contains(inception, expiration, 7200));
    }
}
