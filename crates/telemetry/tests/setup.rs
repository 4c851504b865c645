//! [`alss_telemetry::setup`] without a capture path: `ALSS_TELEMETRY`
//! alone installs the stderr sink, and the guard still emits the final
//! metrics snapshot on drop. A test binary of its own, because it sets the
//! process environment.

use alss_telemetry::{install, setup, CaptureSink, Category, Event};
use std::sync::Arc;

#[test]
fn env_only_setup_emits_the_final_snapshot() {
    std::env::remove_var("ALSS_TELEMETRY");
    assert!(!setup("setup_test", None).is_active());

    std::env::set_var("ALSS_TELEMETRY", "metrics");
    let guard = setup("setup_test", None);
    assert!(guard.is_active());
    // Swap the installed stderr sink for a capturing one to observe the drop.
    let sink = Arc::new(CaptureSink::new());
    install(sink.clone(), Category::Metrics.bit());
    drop(guard);
    let events = sink.take();
    assert!(events.iter().any(|e| matches!(e, Event::Snapshot(_))));
}
