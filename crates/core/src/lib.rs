//! Reproduction of *"Look-Aside at Your Own Risk: Privacy Implications of
//! DNSSEC Look-Aside Validation"* (ICDCS'17 / TDSC'18).
//!
//! This facade crate assembles the whole study:
//!
//! * [`internet`] — builds the simulated Internet: a signed root, the 15
//!   synthetic TLDs, the `isc.org` → `dlv.isc.org` registry chain, the DLV
//!   repository (calibrated contents), and a default-route synthetic
//!   authority serving the million-domain tail,
//! * [`leakage`] — the Case-1/Case-2 classifier (§3): [`LeakSink`] folds
//!   each DLV packet into the report as the network emits it, and
//!   [`classify`] computes the same report over a finished capture,
//! * [`experiments`] — one runner per table/figure of the paper's
//!   evaluation (Tables 2–5, Figs. 8–12, plus the §5.1/§5.2/§5.3
//!   headline numbers),
//! * [`chaos`] — the §7.3.2 registry-outage harness: seeded loss/blackhole
//!   sweeps of the DLV link reporting leakage amplification under
//!   retransmission, with and without SERVFAIL caching,
//! * [`attacks`] — §6.2.3 signaling attacks and the §6.2.4 dictionary
//!   attack on hashed DLV,
//! * [`parallel`] — the deterministic sharded execution glue: every sweep
//!   takes the caller's `lookaside-engine` [`Executor`](engine::Executor)
//!   (its worker count, `repro --jobs`) and runs each of its shards once,
//!   on a private Internet replica, folding results in shard-id order so
//!   any worker count is byte-identical,
//! * [`farm`] — the million-stub client plane in front of a resolver
//!   farm: topology-aware (per-resolver / shared-cache / ODoH /
//!   Resolver-Less), cache-hit-aware, per-client case-2 leak accounting
//!   over `lookaside-population`'s synthetic stubs,
//! * [`report`] — plain-text table rendering for the `repro` binary.
//!
//! # Quickstart
//!
//! ```
//! use lookaside::experiments::{run, QuerySet, RunConfig};
//!
//! let config = RunConfig::quick(50);
//! let outcome = run(&config);
//! assert!(outcome.leakage.case2 > 0, "most popular domains leak to DLV");
//! ```

// Typed errors, not panics: clippy holds live code to that, indexing
// included, and every waiver is an `#[expect]` with a reason.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]
#![warn(missing_docs)]

pub mod attacks;
pub mod byzantine;
pub mod chaos;
pub mod client;
pub mod experiments;
pub mod farm;
pub mod internet;
pub mod leakage;
pub mod lifecycle;
pub mod parallel;
pub mod report;

pub use client::Client;
pub use farm::{Farm, FarmConfig, FarmTopology, TopologyReport};
pub use internet::{Internet, InternetParams, VantagePoint};
pub use leakage::{classify, LeakSink, LeakageReport};
pub use parallel::accept;

pub use lookaside_population as population;

pub use lookaside_engine as engine;
pub use lookaside_netsim as netsim;
pub use lookaside_resolver as resolver;
pub use lookaside_server as server;
pub use lookaside_wire as wire;
pub use lookaside_workload as workload;
pub use lookaside_zone as zone;
