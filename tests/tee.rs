//! The tee test: one run feeds both of the network's packet consumers —
//! its built-in [`Capture`](lookaside::netsim::Capture) and an installed
//! [`LeakSink`] observer — and the report [`classify`] computes over the
//! capture must equal the report the sink folded packet by packet.
//!
//! `Network` records into its capture and shows its observer every packet
//! at the same emission points, and `reset_measurement` clears both
//! together, so the two consumers see the same stream. The paper
//! classifies each DLV response on its own, so folding packets as they
//! arrive must give exactly what capture-then-classify gives. Every
//! experiment reports leakage through `LeakSink`; this test keeps it
//! honest against `classify`, the paper's offline pcap analysis, without
//! a second execution path.

use std::cell::RefCell;
use std::rc::Rc;

use lookaside::internet::{Internet, InternetParams};
use lookaside::netsim::CaptureFilter;
use lookaside::resolver::{BindConfig, ResolverConfig};
use lookaside::wire::ext::RemedyMode;
use lookaside::wire::RrType;
use lookaside::workload::PopulationParams;
use lookaside::{classify, LeakSink};
use proptest::prelude::*;

const REMEDIES: [RemedyMode; 4] =
    [RemedyMode::None, RemedyMode::TxtSignal, RemedyMode::ZBit, RemedyMode::HashedDlv];
const FILTERS: [CaptureFilter; 3] =
    [CaptureFilter::All, CaptureFilter::DlvOnly, CaptureFilter::None];

proptest! {
    /// For any seed, workload size, remedy, and retention filter, one run
    /// whose capture and sink share the filter classifies to one report —
    /// including across a mid-run `reset_measurement`, which must discard
    /// the warm-up epoch from both consumers alike.
    #[test]
    fn sink_report_equals_classified_capture_from_one_run(
        seed in 0u64..1_000,
        n in 10usize..40,
        remedy_idx in 0usize..4,
        filter_idx in 0usize..3,
        warmup in 0usize..8,
    ) {
        let (remedy, filter) = (REMEDIES[remedy_idx], FILTERS[filter_idx]);
        let population = PopulationParams { size: 1000, ..PopulationParams::default() };
        let mut params = InternetParams::for_top(n, population, remedy);
        params.seed = seed;
        params.capture = filter;
        let mut internet = Internet::build(params);
        let sink = Rc::new(RefCell::new(LeakSink::new(filter, internet.dlv_apex.clone())));
        internet.net.set_observer(Box::new(Rc::clone(&sink)));
        let mut resolver =
            internet.resolver(ResolverConfig::Bind(BindConfig::correct()), seed ^ 0x5a17);
        for (i, name) in internet.population.top(n).iter().enumerate() {
            if i == warmup {
                internet.net.reset_measurement();
            }
            let _ = resolver.resolve(&mut internet.net, name, RrType::A);
        }

        let classified = classify(internet.net.capture(), &internet.dlv_apex);
        prop_assert_eq!(&classified, &sink.borrow().report);
        if warmup == 0 && filter != CaptureFilter::None && remedy == RemedyMode::None {
            // Not vacuous: an unremedied run leaks to the registry.
            prop_assert!(classified.case2 > 0, "{classified:?}");
        }
    }
}
