//! Synthetic workloads for the DLV privacy study.
//!
//! The paper measures against datasets this environment cannot reach
//! (Alexa's top 1M of 2016, the live ISC DLV repository, a DITL trace), so
//! this crate generates statistically calibrated stand-ins:
//!
//! * [`DomainPopulation`] — a ranked domain universe with a realistic TLD
//!   mix, DNSSEC deployment rates from the paper (§1, §6.1.1), island-of-
//!   security and DLV-deposit densities, and a hosting-provider model that
//!   produces the glueless-NS traffic of Table 4,
//! * repository calibration — the DLV registry's contents are placed so
//!   that the *mechanistic* NSEC-span caching reproduces the decaying leak
//!   proportion of Figs. 8–9 (see [`population::RepoDensity`]),
//! * [`huque45`] — the 45 DNSSEC-secured domains of §4.2/§5.2 (40 with DS,
//!   5 islands of security),
//! * [`DitlTrace`] — a 7-hour, 92.7M-query recursive-resolver trace with
//!   the per-minute rate envelope of Fig. 12,
//! * [`survey`] — the DNS-OARC 2015 operator survey responses of §5.2.

#![warn(missing_docs)]

mod ditl;
mod huque;
mod population;
mod survey;
mod zipf;

pub use ditl::{DitlTrace, DITL_MINUTES, DITL_TOTAL_QUERIES};
pub use huque::{huque45, HuqueDomain};
pub use population::{
    DomainAttrs, DomainPopulation, HosterAttrs, PopEntry, PopulationParams, RepoDensity, TldInfo,
    TLDS,
};
pub use survey::{survey, Survey};
pub use zipf::Zipf;
