//! The recursive resolver: iterative resolution engine, caching, and the
//! behavioural traffic model.
//!
//! Validation and DLV logic live in [`crate::validate`]; this module owns
//! the query loop that walks referrals from the root, chases CNAMEs,
//! resolves glueless name-server hosts (the paper's Table 4 A/AAAA
//! traffic), and feeds every exchange through the network simulator so the
//! packet capture sees exactly what a real wire would.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use lookaside_crypto::PublicKey;
use lookaside_netsim::{NetError, Network};
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::{Message, Name, RData, Rcode, Record, RrSet, RrType, Scratch};

use crate::cache::{AnswerCache, NsecSpanCache, ZoneServerCache};
use crate::config::{EffectiveBehavior, FeatureModel, ResolverConfig};
use crate::harden::{BadCache, Hardening};
use crate::retry::{InfraCache, RetryPolicy, ServfailCache};
use crate::trust::TrustAnchorSet;
use crate::validate::SecurityStatus;

/// Maximum recursion depth across referral chasing, CNAME chains, and
/// glueless NS-host resolution.
pub(crate) const MAX_DEPTH: usize = 24;

/// Errors surfaced by resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResolveError {
    /// The network had no route to a server.
    Net(NetError),
    /// Referral/CNAME/NS-host recursion exceeded the internal depth cap.
    DepthExceeded,
    /// A server answered unhelpfully (REFUSED/SERVFAIL/FORMERR) and no
    /// progress is possible.
    Lame {
        /// The server that answered.
        server: Ipv4Addr,
        /// Its response code.
        rcode: Rcode,
    },
    /// Every transmission in the retry budget went unanswered on every
    /// candidate server.
    Timeout {
        /// The last server tried.
        server: Ipv4Addr,
    },
    /// The failure was answered from the RFC 2308 §7 SERVFAIL cache — no
    /// queries reached the wire.
    ServfailCached {
        /// The cached tuple's name, or the dead zone's apex.
        subject: Name,
    },
    /// A zone cut offered no usable server addresses (an empty referral,
    /// or every hint filtered away). Typed instead of a panic: clippy's
    /// `expect_used` deny holds the resolver to typed errors.
    NoServers {
        /// The zone whose server list was empty.
        zone: Name,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::Net(e) => write!(f, "network error: {e}"),
            ResolveError::DepthExceeded => write!(f, "resolution depth exceeded"),
            ResolveError::Lame { server, rcode } => {
                write!(f, "lame server {server} answered {rcode}")
            }
            ResolveError::Timeout { server } => {
                write!(f, "no response from any server (last tried {server})")
            }
            ResolveError::ServfailCached { subject } => {
                write!(f, "failure cached for {subject} (RFC 2308 servfail cache)")
            }
            ResolveError::NoServers { zone } => {
                write!(f, "zone {zone} has no usable servers")
            }
        }
    }
}

impl std::error::Error for ResolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResolveError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for ResolveError {
    fn from(e: NetError) -> Self {
        ResolveError::Net(e)
    }
}

/// The stub-visible outcome of one resolution.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// Queried name.
    pub qname: Name,
    /// Queried type.
    pub qtype: RrType,
    /// Final response code as the stub would see it (SERVFAIL for bogus).
    pub rcode: Rcode,
    /// Answer records (including CNAME chain entries).
    pub answers: Vec<Record>,
    /// DNSSEC validation status.
    pub status: SecurityStatus,
    /// Whether the chain of trust was completed through a DLV record
    /// rather than the root (Case 1 of the threat model).
    pub secured_via_dlv: bool,
}

impl Resolution {
    /// An inert resolution to pass to [`RecursiveResolver::resolve_into`],
    /// which overwrites every field. Reusing one placeholder across queries
    /// keeps the `answers` capacity and makes the warm path allocation-free.
    pub fn placeholder() -> Self {
        Resolution {
            qname: Name::root(),
            qtype: RrType::A,
            rcode: Rcode::NoError,
            answers: Vec::new(),
            status: SecurityStatus::Indeterminate,
            secured_via_dlv: false,
        }
    }
}

/// Internal counters the experiments assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Resolutions driven through [`RecursiveResolver::resolve`].
    pub resolutions: u64,
    /// DLV queries actually sent to the wire.
    pub dlv_queries_sent: u64,
    /// DLV lookups suppressed by the aggressive NSEC span cache.
    pub dlv_suppressed_by_nsec: u64,
    /// DLV lookups skipped because a remedy signal said "no record
    /// deposited".
    pub dlv_skipped_by_signal: u64,
    /// Resolutions that ended bogus (stub saw SERVFAIL).
    pub bogus: u64,
    /// Off-path forgeries rejected by RFC 5452 qid/source checks.
    pub spoofs_discarded: u64,
    /// Off-path forgeries accepted as answers (hardening off).
    pub spoofs_accepted: u64,
    /// Undecodable (corrupted) responses that triggered a retry.
    pub malformed_retries: u64,
    /// Resolutions answered SERVFAIL straight from the RFC 4035 §4.7 BAD
    /// cache, with no wire traffic.
    pub bad_cache_hits: u64,
    /// Resolutions answered from expired cache entries (RFC 8767).
    pub stale_answers: u64,
    /// Bogus outcomes caused specifically by a cryptographically sound
    /// RRSIG whose validity window had lapsed (late re-sign storms).
    pub expired_rrsig_bogus: u64,
    /// Indeterminate outcomes caused by having no applicable trust anchor
    /// (unconfigured, or an RFC 5011 rollover window missed) — the state
    /// in which lax resolvers reach for DLV.
    pub missing_anchor_indeterminate: u64,
    /// Stale (RFC 8767) cache entries refused because their RRSIG had
    /// expired while validation was enforcing.
    pub stale_rejected_expired_sig: u64,
}

/// Everything the harness supplies to build a resolver.
#[derive(Debug, Clone)]
pub struct ResolverSetup {
    /// The BIND/Unbound configuration in force.
    pub config: ResolverConfig,
    /// Behavioural traffic model.
    pub features: FeatureModel,
    /// Which §6.2 remedy is active.
    pub remedy: RemedyMode,
    /// Address of the root server (the hint file).
    pub root_hint: Ipv4Addr,
    /// Root KSK. Only used when the configuration actually includes the
    /// anchor.
    pub root_anchor: PublicKey,
    /// DLV registry apex (e.g. `dlv.isc.org.`).
    pub dlv_apex: Name,
    /// DLV registry KSK. Only used when the configuration includes it.
    pub dlv_anchor: PublicKey,
    /// Salt for the deterministic behavioural probabilities.
    pub salt: u64,
}

/// An RRset with its covering RRSIG, shared with the answer cache — the
/// unit the iterative loop and the validator pass around.
pub(crate) type SharedRrSet = (Arc<RrSet>, Option<Arc<Record>>);

/// What a referral told us about a child's DS.
#[derive(Debug, Clone)]
pub(crate) enum DsInfo {
    /// DS RRset present (secure delegation).
    Present(Arc<RrSet>, Option<Arc<Record>>),
    /// NSEC proved no DS (insecure delegation).
    ProvenAbsent,
}

/// The outcome of iterative resolution, before validation.
#[derive(Debug, Clone)]
pub(crate) enum IterOutcome {
    /// Got answer RRsets from `zone`.
    Answer {
        /// Data RRsets with their RRSIGs, in answer order. Shared with the
        /// answer cache — cache hits cost two refcount bumps, not a copy.
        rrsets: Vec<SharedRrSet>,
        /// Apex of the answering zone.
        zone: Name,
    },
    /// Negative answer (NODATA has `NoError`, name error `NxDomain`).
    Negative {
        /// Response code.
        rcode: Rcode,
        /// Apex of the answering zone (deepest known cut).
        zone: Name,
        /// Authority-section records (SOA, NSEC, RRSIGs) for proofs.
        authority: Vec<Record>,
    },
}

/// A recursive, validating, DLV-capable resolver.
///
/// One instance models one configured BIND/Unbound installation; drive it
/// against a [`Network`] with [`RecursiveResolver::resolve`].
pub struct RecursiveResolver {
    pub(crate) behavior: EffectiveBehavior,
    pub(crate) features: FeatureModel,
    pub(crate) remedy: RemedyMode,
    pub(crate) dlv_apex: Name,
    pub(crate) root_anchor: Option<PublicKey>,
    pub(crate) dlv_anchor: Option<PublicKey>,
    pub(crate) answers: AnswerCache,
    pub(crate) zones: ZoneServerCache,
    pub(crate) nsec_spans: NsecSpanCache,
    pub(crate) zone_status: BTreeMap<Name, SecurityStatus>,
    pub(crate) secured_via_dlv: BTreeSet<Name>,
    pub(crate) validated_keys: BTreeMap<Name, Vec<PublicKey>>,
    pub(crate) zone_parent: BTreeMap<Name, Name>,
    pub(crate) ds_info: BTreeMap<Name, DsInfo>,
    pub(crate) z_signal: BTreeMap<Name, bool>,
    pub(crate) txt_signal_cache: BTreeMap<Name, Option<bool>>,
    pub(crate) seen_addrs: BTreeSet<Ipv4Addr>,
    pub(crate) validating: BTreeSet<Name>,
    pub(crate) salt: u64,
    pub(crate) retry: RetryPolicy,
    pub(crate) infra: InfraCache,
    pub(crate) servfail: ServfailCache,
    pub(crate) hardening: Hardening,
    pub(crate) bad: BadCache,
    /// RFC 5011 managed trust anchors for the root, when enabled (takes
    /// precedence over the static `root_anchor`).
    pub(crate) trust: Option<TrustAnchorSet>,
    /// Recycled RRset-list buffers for the answer path: cache hits take a
    /// vector here instead of allocating one per query, and
    /// [`RecursiveResolver::resolve`] gives the vector back once the
    /// records have been copied out.
    pub(crate) rrset_scratch: Scratch<SharedRrSet>,
    /// Counters the experiments inspect.
    pub counters: Counters,
}

impl fmt::Debug for RecursiveResolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecursiveResolver")
            .field("behavior", &self.behavior)
            .field("remedy", &self.remedy)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_name(name: &Name) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for label in name.labels() {
        for &b in label.as_bytes() {
            acc = (acc ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        acc = acc.wrapping_mul(0x100_0000_01b3);
    }
    acc
}

impl RecursiveResolver {
    /// Builds a resolver from a setup, honouring the configuration's
    /// effective behaviour (e.g. a missing trust anchor means the supplied
    /// key material is simply not loaded — the paper's §5.2 state).
    pub fn new(setup: ResolverSetup) -> Self {
        let behavior = EffectiveBehavior::from_config(&setup.config);
        RecursiveResolver {
            behavior,
            features: setup.features,
            remedy: setup.remedy,
            dlv_apex: setup.dlv_apex,
            root_anchor: behavior.has_root_anchor.then_some(setup.root_anchor),
            dlv_anchor: behavior.has_dlv_anchor.then_some(setup.dlv_anchor),
            answers: AnswerCache::new(),
            zones: ZoneServerCache::with_root_hint(setup.root_hint),
            nsec_spans: NsecSpanCache::new(),
            zone_status: BTreeMap::new(),
            secured_via_dlv: BTreeSet::new(),
            validated_keys: BTreeMap::new(),
            zone_parent: BTreeMap::new(),
            ds_info: BTreeMap::new(),
            z_signal: BTreeMap::new(),
            txt_signal_cache: BTreeMap::new(),
            seen_addrs: BTreeSet::new(),
            validating: BTreeSet::new(),
            salt: setup.salt,
            retry: RetryPolicy::default(),
            infra: InfraCache::new(),
            servfail: ServfailCache::new(),
            hardening: Hardening::off(),
            bad: BadCache::new(),
            trust: None,
            rrset_scratch: Scratch::new(),
            counters: Counters::default(),
        }
    }

    /// The resolver's effective behaviour.
    pub fn behavior(&self) -> EffectiveBehavior {
        self.behavior
    }

    /// Replaces the retransmission/backoff policy (defaults to
    /// [`RetryPolicy::default`]).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The active retransmission policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Installs a hardening profile (defaults to [`Hardening::off`]).
    /// Also sizes the answer cache's serve-stale window to match.
    pub fn set_hardening(&mut self, hardening: Hardening) {
        self.hardening = hardening;
        let window = if hardening.serve_stale { hardening.stale_window_ns } else { 0 };
        self.answers.set_stale_window(window);
    }

    /// The active hardening profile.
    pub fn hardening(&self) -> Hardening {
        self.hardening
    }

    /// Switches the root trust anchor to RFC 5011 automated management:
    /// the statically configured anchor becomes the initial Valid anchor
    /// and subsequent validated DNSKEY observations drive the AddPend /
    /// hold-down / Revoked state machine. A no-op when the configuration
    /// loaded no root anchor (there is nothing to bootstrap trust from).
    pub fn enable_rfc5011(&mut self, hold_down_ns: u64) {
        if let Some(anchor) = self.root_anchor {
            self.trust = Some(TrustAnchorSet::new(anchor, hold_down_ns));
        }
    }

    /// The RFC 5011 anchor state machine, when management is enabled.
    pub fn trust_anchors(&self) -> Option<&TrustAnchorSet> {
        self.trust.as_ref()
    }

    /// Installs `key` as a trusted root anchor out of band — the RFC 7958
    /// style anchor refresh (or operator intervention) that rescues a
    /// resolver which missed an RFC 5011 rollover window.
    pub fn install_root_anchor(&mut self, key: PublicKey) {
        self.root_anchor = Some(key);
        if let Some(trust) = self.trust.as_mut() {
            trust.install(key);
        }
    }

    /// Drops every cached *validation conclusion* (zone statuses, validated
    /// key sets, DLV attribution, remedy signals) while keeping answer and
    /// infrastructure caches intact. Models the revalidation a real
    /// resolver performs as DNSKEY/DS TTLs expire; the lifecycle sweep
    /// calls this between timeline events so each event is judged against
    /// the zone version then in service.
    pub fn flush_security_state(&mut self) {
        self.zone_status.clear();
        self.validated_keys.clear();
        self.secured_via_dlv.clear();
        self.txt_signal_cache.clear();
    }

    /// The RFC 4035 §4.7 BAD cache (inspection for experiments).
    pub fn bad_cache(&self) -> &BadCache {
        &self.bad
    }

    /// The per-server RTT/holddown cache (inspection for experiments).
    pub fn infra(&self) -> &InfraCache {
        &self.infra
    }

    /// The RFC 2308 §7 SERVFAIL cache (inspection for experiments).
    pub fn servfail_cache(&self) -> &ServfailCache {
        &self.servfail
    }

    /// The aggressive NSEC span cache (inspection for experiments).
    pub fn nsec_spans(&self) -> &NsecSpanCache {
        &self.nsec_spans
    }

    /// Installs a zone cut (servers + parent) as if a referral had been
    /// followed — test/tooling hook for wiring ad-hoc topologies.
    #[doc(hidden)]
    pub fn install_zone_for_test(&mut self, cut: Name, addrs: Vec<Ipv4Addr>, parent: Name) {
        self.zone_parent.insert(cut.clone(), parent);
        self.zones.put(cut, addrs);
    }

    /// Resolves `qname`/`qtype` on behalf of a stub, performing DNSSEC
    /// validation and DLV lookups as configured.
    ///
    /// # Errors
    ///
    /// Returns a [`ResolveError`] on routing failures, lame servers, or
    /// runaway referral chains. Bogus DNSSEC results are *not* errors; they
    /// surface as `rcode == ServFail` in the [`Resolution`].
    pub fn resolve(
        &mut self,
        net: &mut Network,
        qname: &Name,
        qtype: RrType,
    ) -> Result<Resolution, ResolveError> {
        let mut out = Resolution::placeholder();
        self.resolve_into(net, qname, qtype, &mut out)?;
        Ok(out)
    }

    /// [`RecursiveResolver::resolve`] with buffer reuse: the result is
    /// written into `out`, whose `answers` vector keeps its capacity from
    /// query to query. Every field of `out` is overwritten (a prior result
    /// cannot leak through), so driving a warm cache through one reused
    /// [`Resolution`] makes the steady-state query path allocation-free.
    ///
    /// # Errors
    ///
    /// Exactly as [`RecursiveResolver::resolve`]; on error `out` holds no
    /// meaningful result (its answers are cleared).
    pub fn resolve_into(
        &mut self,
        net: &mut Network,
        qname: &Name,
        qtype: RrType,
        out: &mut Resolution,
    ) -> Result<(), ResolveError> {
        out.answers.clear();
        out.qname.clone_from(qname);
        out.qtype = qtype;
        out.secured_via_dlv = false;
        self.counters.resolutions += 1;
        let now = net.now_ns();
        // RFC 4035 §4.7: data that already failed validation is answered
        // SERVFAIL locally — one bogus zone must not cost a full fetch and
        // validation per stub query.
        if self.hardening.bad_cache && self.bad.contains(qname, qtype, now) {
            self.counters.bad_cache_hits += 1;
            self.counters.bogus += 1;
            out.rcode = Rcode::ServFail;
            out.status = SecurityStatus::Bogus;
            return Ok(());
        }
        let from_cache = self.answers.get(qname, qtype, now).is_some()
            || self.answers.get_negative(qname, qtype, now).is_some();
        let outcome = match self.resolve_iterative(net, qname, qtype, 0) {
            Ok(outcome) => outcome,
            Err(err) => {
                // RFC 8767: when every upstream path fails, a stale answer
                // beats no answer. Stale data keeps its original records
                // but is *not* re-validated, so it can never masquerade as
                // Secure.
                if self.hardening.serve_stale {
                    let stale = self
                        .answers
                        .get_stale(qname, qtype, now)
                        .map(|s| (Arc::clone(&s.rrset), s.rrsig.clone()));
                    if let Some((rrset, rrsig)) = stale {
                        // RFC 8767 §4: stale data must still be
                        // DNSSEC-acceptable. An entry whose RRSIG window
                        // has lapsed would fail validation if it were
                        // fetched fresh; an enforcing resolver must not
                        // smuggle it out as a stale answer — it is Bogus.
                        let now_s = (now / 1_000_000_000).min(u64::from(u32::MAX)) as u32;
                        let sig_expired = self.behavior.validate
                            && rrsig.as_ref().is_some_and(|sig| match &sig.rdata {
                                RData::Rrsig { inception, expiration, .. } => {
                                    !lookaside_zone::serial_window_contains(
                                        *inception,
                                        *expiration,
                                        now_s,
                                    )
                                }
                                _ => false,
                            });
                        if sig_expired {
                            self.counters.stale_rejected_expired_sig += 1;
                            self.counters.bogus += 1;
                            self.answers.remove(qname, qtype);
                            out.rcode = Rcode::ServFail;
                            out.status = SecurityStatus::Bogus;
                            return Ok(());
                        }
                        net.note_stale_serve();
                        self.counters.stale_answers += 1;
                        rrset.append_records_into(&mut out.answers);
                        out.rcode = Rcode::NoError;
                        out.status = SecurityStatus::Indeterminate;
                        return Ok(());
                    }
                }
                return Err(err);
            }
        };

        let (status, via_dlv) = if self.behavior.validate {
            self.validate_outcome(net, &outcome)?
        } else {
            (SecurityStatus::Indeterminate, false)
        };

        // Post-answer behavioural traffic: occasional NS re-fetch.
        if let (IterOutcome::Answer { zone, .. }, false) = (&outcome, from_cache) {
            let zone = zone.clone();
            if !zone.is_root()
                && mix(self.salt ^ 0x4e53, hash_name(qname)) % 1000
                    < u64::from(self.features.ns_refetch_milli)
            {
                let _ = self.query_zone(net, &zone, &zone, RrType::Ns)?;
            }
        }

        let rcode = match &outcome {
            IterOutcome::Answer { rrsets, .. } => {
                for (set, _) in rrsets {
                    set.append_records_into(&mut out.answers);
                }
                Rcode::NoError
            }
            IterOutcome::Negative { rcode, .. } => *rcode,
        };
        let rcode = if status == SecurityStatus::Bogus {
            self.counters.bogus += 1;
            // Purge the offending data so it cannot be served (fresh or
            // stale) and — under hardening — remember the failure in the
            // bounded BAD cache (RFC 4035 §4.7).
            self.answers.remove(qname, qtype);
            if self.hardening.bad_cache {
                self.bad.put(
                    qname.clone(),
                    qtype,
                    net.now_ns(),
                    self.hardening.bad_cache_ttl_ns,
                    self.hardening.bad_cache_cap,
                );
            }
            Rcode::ServFail
        } else {
            rcode
        };
        // The records are copied out; recycle the RRset list so the next
        // cache hit takes it back instead of allocating.
        if let IterOutcome::Answer { rrsets, .. } = outcome {
            self.rrset_scratch.give(rrsets);
        }
        out.rcode = rcode;
        out.status = status;
        out.secured_via_dlv = via_dlv;
        Ok(())
    }

    /// One upstream query to a specific zone's servers, with timeout
    /// failover across siblings.
    pub(crate) fn query_zone(
        &mut self,
        net: &mut Network,
        zone: &Name,
        qname: &Name,
        qtype: RrType,
    ) -> Result<Message, ResolveError> {
        let (cut, addrs) = self.zone_servers(zone);
        if self.retry.servfail_ttl_ns.is_some() && self.servfail.zone_dead(&cut, net.now_ns()) {
            return Err(ResolveError::ServfailCached { subject: cut });
        }
        let candidates = self.candidate_servers(addrs, net.now_ns());
        let mut timed_out = None;
        for &addr in &candidates {
            self.ptr_probe(net, addr)?;
            let id = net.allocate_id();
            let query = if self.behavior.validate {
                Message::dnssec_query(id, qname.clone(), qtype)
            } else {
                Message::query(id, qname.clone(), qtype)
            };
            match self.send_to_server(net, addr, &query)? {
                Some(response) => return Ok(response),
                None => {
                    let policy = self.retry;
                    self.infra.hold_down(addr, net.now_ns(), &policy);
                    timed_out = Some(addr);
                }
            }
        }
        let Some(server) = timed_out else {
            return Err(ResolveError::NoServers { zone: cut });
        };
        self.note_all_servers_failed(&cut, qname, qtype, net.now_ns(), true);
        Err(ResolveError::Timeout { server })
    }

    fn zone_servers(&self, qname: &Name) -> (Name, Vec<Ipv4Addr>) {
        let (cut, addrs) = self.zones.deepest_for(qname);
        (cut, addrs.to_vec())
    }

    /// Orders a zone's servers best-SRTT-first and filters out held-down
    /// ones — unless that would leave nothing, in which case the holddowns
    /// are ignored (a resolver with no better option retries dead servers).
    fn candidate_servers(&self, mut addrs: Vec<Ipv4Addr>, now_ns: u64) -> Vec<Ipv4Addr> {
        self.infra.order_by_srtt(&mut addrs);
        let live: Vec<Ipv4Addr> =
            addrs.iter().copied().filter(|&a| !self.infra.is_held_down(a, now_ns)).collect();
        if live.is_empty() {
            addrs
        } else {
            live
        }
    }

    /// Sends one query to one server, retransmitting with exponential
    /// backoff within the policy's attempt budget. `Ok(None)` means the
    /// budget was exhausted without a response (the caller fails over or
    /// gives up); truncated UDP answers are retried over TCP.
    pub(crate) fn send_to_server(
        &mut self,
        net: &mut Network,
        addr: Ipv4Addr,
        query: &Message,
    ) -> Result<Option<Message>, ResolveError> {
        let mut timeout_ns = self.infra.rto_ns(addr, &self.retry);
        for attempt in 0..self.retry.max_attempts.max(1) {
            if attempt > 0 {
                net.note_retransmission();
            }
            match net.exchange_with_opts(addr, query, lookaside_netsim::Transport::Udp, timeout_ns)
            {
                Ok(exchange) => {
                    self.infra.note_rtt(addr, exchange.rtt_ns);
                    self.infra.redeem(addr);
                    // RFC 4035/5452 failure classification, case 1: a
                    // response whose qid or source does not match the
                    // outstanding query is discarded and the resolver
                    // keeps waiting — the genuine answer is still in
                    // flight. A resolver that skips the checks accepts
                    // the forgery (it arrived first) and never sees the
                    // real response.
                    if let Some(spoof) = exchange.spoof {
                        if spoof.detectable(self.hardening.check_qid, self.hardening.check_source) {
                            self.counters.spoofs_discarded += 1;
                        } else {
                            self.counters.spoofs_accepted += 1;
                            return Ok(Some(spoof.response));
                        }
                    }
                    let mut response = exchange.response;
                    if response.header.flags.tc {
                        // Truncated over UDP: retry over TCP (RFC 7766).
                        match net.exchange_with_opts(
                            addr,
                            query,
                            lookaside_netsim::Transport::Tcp,
                            self.retry.backed_off(timeout_ns),
                        ) {
                            Ok(ex) => response = ex.response,
                            Err(NetError::Timeout(_)) => {
                                timeout_ns = self.retry.backed_off(timeout_ns);
                                continue;
                            }
                            Err(e) => return Err(e.into()),
                        }
                    }
                    return Ok(Some(response));
                }
                Err(NetError::Timeout(_)) => {
                    timeout_ns = self.retry.backed_off(timeout_ns);
                }
                Err(NetError::Malformed(_)) => {
                    // RFC 4035/5452 failure classification, case 2: a
                    // response that does not decode is treated like no
                    // response at all — back off and retransmit within
                    // the same attempt budget. Unlike a timeout the
                    // resolver learned this immediately (the datagram
                    // did arrive), so only the RTT was charged.
                    self.counters.malformed_retries += 1;
                    timeout_ns = self.retry.backed_off(timeout_ns);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(None)
    }

    /// Records a resolution failure in the SERVFAIL cache (when enabled):
    /// always the `(qname, qtype)` tuple (§7.1), and additionally the whole
    /// zone as dead when every server went unanswered (§7.2).
    fn note_all_servers_failed(
        &mut self,
        cut: &Name,
        qname: &Name,
        qtype: RrType,
        now_ns: u64,
        all_timed_out: bool,
    ) {
        if let Some(ttl_ns) = self.retry.servfail_ttl_ns {
            self.servfail.put(qname.clone(), qtype, now_ns, ttl_ns);
            if all_timed_out {
                self.servfail.mark_zone_dead(cut.clone(), now_ns, ttl_ns);
            }
        }
    }

    /// The iterative resolution loop.
    pub(crate) fn resolve_iterative(
        &mut self,
        net: &mut Network,
        qname: &Name,
        qtype: RrType,
        depth: usize,
    ) -> Result<IterOutcome, ResolveError> {
        if depth > MAX_DEPTH {
            return Err(ResolveError::DepthExceeded);
        }
        let now = net.now_ns();
        if let Some(cached) = self.answers.get(qname, qtype, now) {
            let hit = (Arc::clone(&cached.rrset), cached.rrsig.clone());
            // Recycled list: `resolve` gives this vector back once the
            // answer records are copied out, so warm hits stay off the heap.
            let mut rrsets = self.rrset_scratch.take();
            rrsets.push(hit);
            let zone = self.zones.deepest_for(qname).0;
            return Ok(IterOutcome::Answer { rrsets, zone });
        }
        if let Some(rcode) = self.answers.get_negative(qname, qtype, now) {
            let zone = self.zones.deepest_for(qname).0;
            return Ok(IterOutcome::Negative { rcode, zone, authority: Vec::new() });
        }
        if self.retry.servfail_ttl_ns.is_some() && self.servfail.contains(qname, qtype, now) {
            return Err(ResolveError::ServfailCached { subject: qname.clone() });
        }

        let current = qname.clone();
        let mut hops = 0usize;
        // RFC 7816: labels revealed so far (grows as cuts deepen or
        // intermediate NODATAs force another step down).
        let mut reveal = 0usize;
        loop {
            hops += 1;
            if hops > MAX_DEPTH {
                return Err(ResolveError::DepthExceeded);
            }
            let (cut, addrs) = self.zone_servers(&current);
            if self.retry.servfail_ttl_ns.is_some() && self.servfail.zone_dead(&cut, net.now_ns()) {
                return Err(ResolveError::ServfailCached { subject: cut });
            }

            // Minimisation: show this server one label below its cut, with
            // a neutral NS qtype until the full name is revealed.
            let full_labels = current.label_count();
            let send_labels = if self.features.qname_minimization {
                reveal = reveal.max(cut.label_count() + 1).min(full_labels);
                reveal
            } else {
                full_labels
            };
            let minimized = send_labels < full_labels;
            let send_name = current.suffix(send_labels);
            let send_type = if minimized { RrType::Ns } else { qtype };

            // Try each server of the zone in turn (best SRTT first); a
            // REFUSED/SERVFAIL from one NS — or a full timeout budget spent
            // on it — must not fail the resolution while siblings work.
            let candidates = self.candidate_servers(addrs, net.now_ns());
            let mut response = None;
            let Some(&first_candidate) = candidates.first() else {
                return Err(ResolveError::NoServers { zone: cut });
            };
            let mut answered_by = first_candidate;
            let mut last_lame = ResolveError::Lame { server: answered_by, rcode: Rcode::ServFail };
            let mut timeouts = 0usize;
            let mut last_timeout = None;
            for &addr in &candidates {
                self.ptr_probe(net, addr)?;
                let id = net.allocate_id();
                let query = if self.behavior.validate {
                    Message::dnssec_query(id, send_name.clone(), send_type)
                } else {
                    Message::query(id, send_name.clone(), send_type)
                };
                match self.send_to_server(net, addr, &query)? {
                    Some(candidate) => match candidate.rcode() {
                        Rcode::NoError | Rcode::NxDomain => {
                            answered_by = addr;
                            response = Some(candidate);
                            break;
                        }
                        other => {
                            // Precedence between the two failure caches:
                            // the SERVFAIL cache (RFC 2308 §7, admission
                            // control keyed by qname/qtype and zone) owns
                            // rcode failures when it is enabled — holding
                            // the *server* down too would double-penalise
                            // one lame delegation by also blacking out the
                            // server for every other zone it serves. The
                            // infra holddown still applies to rcode
                            // failures when no SERVFAIL cache exists, and
                            // to timeouts always (a silent server is a
                            // server-level fact, not a zone-level one).
                            if self.retry.servfail_ttl_ns.is_none() {
                                let policy = self.retry;
                                self.infra.hold_down(addr, net.now_ns(), &policy);
                            }
                            last_lame = ResolveError::Lame { server: addr, rcode: other };
                        }
                    },
                    None => {
                        // Retry budget spent on this server: hold it down
                        // and fail over to a sibling. The zone itself is
                        // only written off if *every* server stays silent.
                        let policy = self.retry;
                        self.infra.hold_down(addr, net.now_ns(), &policy);
                        timeouts += 1;
                        last_timeout = Some(addr);
                    }
                }
            }
            let Some(response) = response else {
                self.note_all_servers_failed(
                    &cut,
                    &current,
                    qtype,
                    net.now_ns(),
                    timeouts == candidates.len(),
                );
                return Err(match last_timeout {
                    Some(server) => ResolveError::Timeout { server },
                    None => last_lame,
                });
            };

            match response.rcode() {
                Rcode::NoError => {}
                Rcode::NxDomain => {
                    // RFC 8020: NXDOMAIN for an ancestor denies the whole
                    // subtree, so a minimised NXDOMAIN concludes the query.
                    let ttl = negative_ttl(&response);
                    self.answers.put_negative(
                        current.clone(),
                        qtype,
                        Rcode::NxDomain,
                        ttl,
                        net.now_ns(),
                    );
                    self.record_z(&cut, &response);
                    return Ok(IterOutcome::Negative {
                        rcode: Rcode::NxDomain,
                        zone: cut,
                        authority: response.authorities.clone(),
                    });
                }
                // Unreachable: the failover loop only accepts these two.
                other => return Err(ResolveError::Lame { server: answered_by, rcode: other }),
            }

            if minimized && response.header.flags.aa {
                // The minimised name exists (NS answer or NODATA at an
                // intermediate label): reveal one more label and continue.
                reveal = (send_labels + 1).min(full_labels);
                continue;
            }

            if !response.answers.is_empty() {
                self.record_z(&cut, &response);
                let (rrsets, cname_target) =
                    self.ingest_answers(&response, &current, qtype, net.now_ns());
                if let Some(target) = cname_target {
                    // Chase the CNAME; the final answer's zone wins.
                    let chased = self.resolve_iterative(net, &target, qtype, depth + 1)?;
                    return Ok(match chased {
                        IterOutcome::Answer { rrsets: mut tail, zone } => {
                            let mut all = rrsets;
                            all.append(&mut tail);
                            IterOutcome::Answer { rrsets: all, zone }
                        }
                        negative => negative,
                    });
                }
                if rrsets.is_empty() {
                    // Answer section had only unrelated records; treat as
                    // NODATA to avoid looping.
                    return Ok(IterOutcome::Negative {
                        rcode: Rcode::NoError,
                        zone: cut,
                        authority: response.authorities.clone(),
                    });
                }
                return Ok(IterOutcome::Answer { rrsets, zone: cut });
            }

            // Referral?
            let is_referral =
                !response.header.flags.aa && response.authorities_of(RrType::Ns).next().is_some();
            if is_referral {
                let child = self.ingest_referral(net, &cut, &response, depth)?;
                if !child.is_subdomain_of(&cut) || child == cut {
                    // No downward progress: lame delegation.
                    return Err(ResolveError::Lame { server: answered_by, rcode: Rcode::NoError });
                }
                continue;
            }

            // Authoritative NODATA.
            let ttl = negative_ttl(&response);
            self.answers.put_negative(current.clone(), qtype, Rcode::NoError, ttl, net.now_ns());
            self.record_z(&cut, &response);
            return Ok(IterOutcome::Negative {
                rcode: Rcode::NoError,
                zone: cut,
                authority: response.authorities.clone(),
            });
        }
    }

    fn record_z(&mut self, zone: &Name, response: &Message) {
        if self.remedy == RemedyMode::ZBit {
            self.z_signal.insert(zone.clone(), response.header.flags.z);
        }
    }

    /// Caches answer RRsets; returns them plus a CNAME target to chase.
    fn ingest_answers(
        &mut self,
        response: &Message,
        qname: &Name,
        qtype: RrType,
        now: u64,
    ) -> (Vec<SharedRrSet>, Option<Name>) {
        let data: Vec<Record> =
            response.answers.iter().filter(|r| r.rrtype != RrType::Rrsig).cloned().collect();
        let sets: Vec<RrSet> = data.into_iter().collect();
        let mut out = Vec::new();
        let mut cname_target = None;
        for set in sets {
            let sig = response
                .answers
                .iter()
                .find(|r| {
                    r.rrtype == RrType::Rrsig
                        && r.name == set.name
                        && matches!(&r.rdata, RData::Rrsig { type_covered, .. } if *type_covered == set.rrtype)
                })
                .cloned()
                .map(Arc::new);
            let set = Arc::new(set);
            self.answers.put(Arc::clone(&set), sig.clone(), now);
            if set.rrtype == RrType::Cname && qtype != RrType::Cname && set.name == *qname {
                if let Some(RData::Cname(target)) = set.rdatas.first() {
                    cname_target = Some(target.clone());
                }
            }
            out.push((set, sig));
        }
        (out, cname_target)
    }

    /// Processes a referral: caches the cut, its DS information, and the
    /// child server addresses (resolving glueless NS hosts as needed).
    fn ingest_referral(
        &mut self,
        net: &mut Network,
        parent: &Name,
        response: &Message,
        depth: usize,
    ) -> Result<Name, ResolveError> {
        let ns_records: Vec<&Record> = response.authorities_of(RrType::Ns).collect();
        let Some(first_ns) = ns_records.first() else {
            return Err(ResolveError::NoServers { zone: parent.clone() });
        };
        let child = first_ns.name.clone();
        self.zone_parent.insert(child.clone(), parent.clone());

        // DS information piggybacked on the referral.
        let ds_sets: Vec<Record> = response.authorities_of(RrType::Ds).cloned().collect();
        if !ds_sets.is_empty() {
            let mut set: Vec<RrSet> = ds_sets.into_iter().collect();
            let sig = response
                .authorities
                .iter()
                .find(|r| {
                    r.rrtype == RrType::Rrsig
                        && r.name == child
                        && matches!(&r.rdata, RData::Rrsig { type_covered, .. } if *type_covered == RrType::Ds)
                })
                .cloned()
                .map(Arc::new);
            self.ds_info.insert(child.clone(), DsInfo::Present(Arc::new(set.swap_remove(0)), sig));
        } else if response.authorities_of(RrType::Nsec).next().is_some() {
            self.ds_info.insert(child.clone(), DsInfo::ProvenAbsent);
        }

        // Glue first.
        let mut addrs: Vec<Ipv4Addr> = Vec::new();
        let ns_hosts: Vec<Name> = ns_records
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Ns(h) => Some(h.clone()),
                _ => None,
            })
            .collect();
        for rec in response.additionals_of(RrType::A) {
            if let RData::A(a) = rec.rdata {
                if ns_hosts.contains(&rec.name) {
                    addrs.push(a);
                }
            }
        }

        let glued = !addrs.is_empty();
        if !glued {
            // Glueless: resolve the NS hosts (A and AAAA — resolvers fetch
            // both for dual-stack operation; this is the bulk of Table 4's
            // A/AAAA ambient traffic).
            for host in ns_hosts.iter().take(2) {
                if let Ok(IterOutcome::Answer { rrsets, .. }) =
                    self.resolve_iterative(net, host, RrType::A, depth + 1)
                {
                    for (set, _) in &rrsets {
                        for rd in &set.rdatas {
                            if let RData::A(a) = rd {
                                addrs.push(*a);
                            }
                        }
                    }
                    if self.behavior.validate {
                        // NS host answers are validated like any other —
                        // which is how hoster zones end up leaking to DLV
                        // too.
                        let outcome = IterOutcome::Answer {
                            rrsets: rrsets.clone(),
                            zone: self.zones.deepest_for(host).0,
                        };
                        let _ = self.validate_outcome(net, &outcome)?;
                    }
                }
                if self.features.ns_host_aaaa {
                    let _ = self.resolve_iterative(net, host, RrType::Aaaa, depth + 1);
                }
            }
        }

        if addrs.is_empty() {
            return Err(ResolveError::Lame {
                server: self
                    .zones
                    .deepest_for(parent)
                    .1
                    .first()
                    .copied()
                    .unwrap_or(Ipv4Addr::UNSPECIFIED),
                rcode: Rcode::ServFail,
            });
        }
        self.zones.put(child.clone(), addrs);

        // Glue carries A records only; dual-stack resolvers still look up
        // the host's AAAA (now that the child cut is installed, this is a
        // single cheap query to the child's own server).
        if glued && self.features.ns_host_aaaa {
            if let Some(host) = ns_hosts.first() {
                let _ = self.resolve_iterative(net, host, RrType::Aaaa, depth + 1);
            }
        }
        Ok(child)
    }

    /// Deterministic PTR probe for newly seen server addresses.
    fn ptr_probe(&mut self, net: &mut Network, addr: Ipv4Addr) -> Result<(), ResolveError> {
        if !self.seen_addrs.insert(addr) {
            return Ok(());
        }
        let roll = mix(self.salt ^ 0x0050_5452, u64::from(u32::from(addr))) % 1000;
        if roll < u64::from(self.features.ptr_probe_milli) {
            let [o0, o1, o2, o3] = addr.octets();
            let Ok(reverse) = Name::parse(&format!("{o3}.{o2}.{o1}.{o0}.in-addr.arpa.")) else {
                return Ok(());
            };
            let (_, root_addrs) = self.zone_servers(&Name::root());
            let Some(&root_server) = root_addrs.first() else {
                return Ok(());
            };
            let id = net.allocate_id();
            let q = Message::query(id, reverse, RrType::Ptr);
            // Fire-and-forget: a lost probe is never retransmitted.
            match net.exchange(root_server, &q) {
                Ok(_) | Err(NetError::Timeout(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}

fn negative_ttl(response: &Message) -> u32 {
    response
        .authorities_of(RrType::Soa)
        .next()
        .map(|rec| match &rec.rdata {
            RData::Soa(soa) => soa.minimum.min(rec.ttl),
            _ => rec.ttl,
        })
        .unwrap_or(60)
}
