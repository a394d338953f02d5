//! Every injection in the process moves `faultz.triggered`, so the test
//! holding it to an exact delta is the only test in its binary.

use ahntp_faultz::{hit, scoped, Action, FaultSpec};

#[test]
fn triggered_counter_accounts_for_every_injection() {
    ahntp_telemetry::set_enabled(true);
    let before = ahntp_telemetry::counter_get("faultz.triggered");
    let site_before = ahntp_telemetry::counter_get("faultz.tests.counted.triggered");
    let _guard = scoped("tests.counted", FaultSpec::new(Action::Err));
    let n = 4;
    for _ in 0..n {
        assert!(hit("tests.counted").is_some());
    }
    assert_eq!(ahntp_telemetry::counter_get("faultz.triggered"), before + n);
    assert_eq!(
        ahntp_telemetry::counter_get("faultz.tests.counted.triggered"),
        site_before + n
    );
}
