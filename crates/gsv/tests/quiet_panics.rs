//! The quiet panic hook: injected poison panics print nothing, every other
//! panic reaches the hook installed before it. One test, because a panic
//! hook is process-wide.

use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use nbhd_gsv::{quiet_injected_panics, PoisonSchedule};
use nbhd_types::LocationId;

static REACHED_FALLBACK: AtomicUsize = AtomicUsize::new(0);

#[test]
fn only_injected_panics_are_silenced() {
    std::panic::set_hook(Box::new(|_| {
        REACHED_FALLBACK.fetch_add(1, Ordering::SeqCst);
    }));
    quiet_injected_panics();

    let injected = catch_unwind(|| panic!("{}", PoisonSchedule::panic_message(LocationId(9))));
    assert!(injected.is_err());
    assert_eq!(REACHED_FALLBACK.load(Ordering::SeqCst), 0);

    let other = catch_unwind(|| panic!("a real bug at location {}", 9));
    assert!(other.is_err());
    let literal = catch_unwind(|| panic!("a literal message"));
    assert!(literal.is_err());
    let opaque = catch_unwind(|| std::panic::panic_any(42u64));
    assert!(opaque.is_err());
    assert_eq!(REACHED_FALLBACK.load(Ordering::SeqCst), 3);

    drop(std::panic::take_hook());
}
