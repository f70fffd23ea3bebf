//! Epoch-aware authoritative serving: answer from the zone version active
//! at the simulated query time.
//!
//! A [`KeyTimeline`] produces a sequence of zone epochs; an
//! [`EpochAuthority`] holds one published (signed) zone per epoch and
//! routes each query to the version whose `start` is the latest at or
//! before the query's simulated arrival time. Because it is an ordinary
//! [`DnsHandler`], it composes with the Byzantine fault plane
//! ([`crate::FaultyServer`] wraps any handler) and can stand in anywhere an
//! [`AuthoritativeServer`] does.
//!
//! [`KeyTimeline`]: lookaside_zone::KeyTimeline

// The router refuses an empty version list in `new`, and `active_index`
// clamps into the list, so every index below is in bounds.
#![expect(clippy::indexing_slicing, reason = "the version list is never empty")]

use lookaside_netsim::{DnsHandler, ServerAction, Transport};
use lookaside_wire::{Message, Name};
use lookaside_zone::{DenialMode, PublishedZone, Zone, ZoneEpoch};

use crate::authority::AuthoritativeServer;

/// Nanoseconds per second, for converting zone time (RRSIG seconds) to the
/// simulator's clock.
const NS_PER_SEC: u64 = 1_000_000_000;

/// An epoch router over any [`DnsHandler`]: one handler per zone version.
/// [`EpochAuthority`] routes over statically published zones; a zone
/// fabricated on demand routes the same way, e.g. a
/// [`crate::SyntheticAuthority`] TLD, where each epoch is a whole
/// authority rebuilt with that epoch's signer keys and validity window.
/// Queries route to the version whose start is the latest at or before
/// the simulated arrival time; pre-window queries get the first version.
pub struct EpochRouter<H> {
    /// `(start_ns, handler)` pairs, sorted ascending by start.
    epochs: Vec<(u64, H)>,
}

impl<H: DnsHandler> EpochRouter<H> {
    /// Builds a router from explicit `(start_ns, handler)` pairs.
    pub fn new(mut versions: Vec<(u64, H)>) -> Self {
        assert!(!versions.is_empty(), "an epoch router needs at least one version");
        versions.sort_by_key(|(start, _)| *start);
        EpochRouter { epochs: versions }
    }

    /// Builds a router with one handler per zone-time epoch start (seconds,
    /// as [`ZoneEpoch::start_secs`] carries them).
    pub fn from_starts(
        starts_secs: impl IntoIterator<Item = u32>,
        build: impl Fn(u32) -> H,
    ) -> Self {
        Self::new(
            starts_secs
                .into_iter()
                .map(|start| (u64::from(start) * NS_PER_SEC, build(start)))
                .collect(),
        )
    }

    /// Number of versions held.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    fn active_index(&self, now_ns: u64) -> usize {
        self.epochs.partition_point(|(start, _)| *start <= now_ns).saturating_sub(1)
    }
}

impl<H: DnsHandler> DnsHandler for EpochRouter<H> {
    fn handle(&mut self, query: &Message, now_ns: u64) -> Message {
        let idx = self.active_index(now_ns);
        self.epochs[idx].1.handle(query, now_ns)
    }

    fn handle_faulty(&mut self, query: &Message, now_ns: u64) -> ServerAction {
        let idx = self.active_index(now_ns);
        self.epochs[idx].1.handle_faulty(query, now_ns)
    }

    fn handle_transport(
        &mut self,
        query: &Message,
        now_ns: u64,
        transport: Transport,
    ) -> ServerAction {
        let idx = self.active_index(now_ns);
        self.epochs[idx].1.handle_transport(query, now_ns, transport)
    }
}

impl<H> std::fmt::Debug for EpochRouter<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochRouter")
            .field("epochs", &self.epochs.len())
            .field("starts_ns", &self.epochs.iter().map(|(s, _)| *s).collect::<Vec<_>>())
            .finish()
    }
}

/// An authority that serves the published zone version active at the
/// simulated query time: one pre-signed [`AuthoritativeServer`] per epoch.
pub type EpochAuthority = EpochRouter<AuthoritativeServer>;

impl EpochAuthority {
    /// Publishes `zone` once per timeline epoch and serves each from its
    /// `start_secs` onward — the bridge from [`lookaside_zone::KeyTimeline`]
    /// output to a servable authority.
    pub fn from_epochs(zone: &Zone, epochs: &[ZoneEpoch], denial: DenialMode) -> Self {
        let versions = epochs
            .iter()
            .map(|epoch| {
                let published = epoch.publish(zone.clone(), denial);
                (u64::from(epoch.start_secs) * NS_PER_SEC, AuthoritativeServer::single(published))
            })
            .collect();
        Self::new(versions)
    }

    /// Marks `apex` as DLV-advertised (§6.2.1 Z-bit remedy) in every epoch.
    pub fn advertise_dlv(&mut self, apex: Name) {
        for (_, server) in &mut self.epochs {
            server.advertise_dlv(apex.clone());
        }
    }

    /// The zone version active at `now_ns` (latest start ≤ now, clamped to
    /// the first version for times before the window).
    pub fn active_zone(&self, now_ns: u64) -> &PublishedZone {
        let idx = self.active_index(now_ns);
        #[expect(clippy::expect_used, reason = "from_epochs builds one-zone servers")]
        self.epochs[idx].1.zones().first().expect("epoch servers are built with exactly one zone")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_wire::{RData, RrType};
    use lookaside_zone::{KeyTimeline, RolloverPolicy};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_zone() -> Zone {
        let apex = n("example.com");
        let mut zone = Zone::new(apex.clone(), n("ns1.example.com"));
        zone.add(apex, 300, RData::A("192.0.2.1".parse().unwrap()));
        zone
    }

    fn dnskey_tags(resp: &Message) -> Vec<u16> {
        resp.answers_of(RrType::Rrsig)
            .filter_map(|r| match &r.rdata {
                RData::Rrsig { key_tag, type_covered: RrType::Dnskey, .. } => Some(*key_tag),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn serves_the_version_active_at_query_time() {
        let policy = RolloverPolicy {
            ksk_rollover_at: Some(7200),
            rollover_lead_secs: 3600,
            ..RolloverPolicy::steady(3600, 10_000)
        };
        let tl = KeyTimeline::correct(42, policy);
        let epochs = tl.epochs(14_400);
        let mut auth = EpochAuthority::from_epochs(&sample_zone(), &epochs, DenialMode::Nsec);

        let q = Message::dnssec_query(1, n("example.com"), RrType::Dnskey);
        // Before the roll the DNSKEY RRset is signed by KSK generation 0.
        let early = auth.handle(&q, 0);
        assert_eq!(dnskey_tags(&early), vec![tl.ksk_generation(0).key_tag()]);
        // After activation, generation 1 signs.
        let late = auth.handle(&q, 7200 * NS_PER_SEC);
        assert_eq!(dnskey_tags(&late), vec![tl.ksk_generation(1).key_tag()]);
    }

    #[test]
    fn pre_window_queries_get_the_first_version() {
        let tl = KeyTimeline::correct(42, RolloverPolicy::steady(3600, 10_000));
        let epochs = tl.epochs(7200);
        let mut auth = EpochAuthority::new(
            epochs
                .iter()
                .map(|e| {
                    (
                        u64::from(e.start_secs) * NS_PER_SEC + 1,
                        AuthoritativeServer::single(e.publish(sample_zone(), DenialMode::Nsec)),
                    )
                })
                .collect(),
        );
        let q = Message::dnssec_query(2, n("example.com"), RrType::A);
        assert_eq!(auth.handle(&q, 0).rcode(), lookaside_wire::Rcode::NoError);
        assert_eq!(auth.epoch_count(), 2);
    }

    #[test]
    fn rrsig_windows_follow_the_epoch() {
        let tl = KeyTimeline::correct(42, RolloverPolicy::steady(3600, 5000));
        let epochs = tl.epochs(10_800);
        let mut auth = EpochAuthority::from_epochs(&sample_zone(), &epochs, DenialMode::Nsec);
        let q = Message::dnssec_query(3, n("example.com"), RrType::A);
        let resp = auth.handle(&q, 7200 * NS_PER_SEC);
        let Some(RData::Rrsig { inception, expiration, .. }) =
            resp.answers_of(RrType::Rrsig).map(|r| &r.rdata).next()
        else {
            panic!("expected rrsig");
        };
        assert_eq!((*inception, *expiration), (7200, 12_200));
    }

    #[test]
    fn composes_with_the_fault_plane() {
        let tl = KeyTimeline::correct(42, RolloverPolicy::steady(3600, 5000));
        let auth = EpochAuthority::from_epochs(&sample_zone(), &tl.epochs(3600), DenialMode::Nsec);
        let mut faulty =
            crate::FaultyServer::new(Box::new(auth), 1, lookaside_wire::Rcode::ServFail);
        let q = Message::dnssec_query(4, n("example.com"), RrType::A);
        assert_eq!(faulty.handle(&q, 0).rcode(), lookaside_wire::Rcode::ServFail);
        assert_eq!(faulty.handle(&q, 0).rcode(), lookaside_wire::Rcode::NoError);
    }
}
