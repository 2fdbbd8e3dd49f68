//! The exhaustive explorer's driver, tested on a model whose reachable
//! states are known, and on two broken ones.

#[path = "../src/explore.rs"]
mod explore;

use explore::{explore, Key, Model};

/// Counts up to `max` by one or two (or, broken, stays put at `stuck`),
/// and may be reset to zero once.
struct Counter {
    max: u8,
    stuck: Option<u8>,
}

impl Model for Counter {
    /// The count, and whether the reset is spent.
    type State = (u8, bool);
    type Action = u8;

    fn actions(&self, &(n, reset): &(u8, bool)) -> (Vec<u8>, Vec<u8>) {
        let work = [1, 2].into_iter().filter(|s| n + s <= self.max).collect();
        (work, if reset || n == 0 { vec![] } else { vec![0] })
    }

    fn apply(&self, &(n, reset): &(u8, bool), by: u8) -> Option<(u8, bool)> {
        match by {
            0 => Some((0, true)),
            _ if self.stuck == Some(n) => Some((n, reset)),
            _ => Some((n + by, reset)),
        }
    }

    fn key(&self, &(n, reset): &(u8, bool)) -> u128 {
        let mut h = Key::default();
        h.put(u64::from(n) << 1 | u64::from(reset));
        h.finish()
    }

    fn check(&mut self, _: &mut (u8, bool)) {}

    fn terminal(&mut self, &(n, _): &(u8, bool)) {
        assert_eq!(n, self.max, "stopped short");
    }
}

#[test]
fn the_driver_counts_exactly_the_reachable_states() {
    // 0..=4 before the reset and 0..=4 after it.
    let mut model = Counter {
        max: 4,
        stuck: None,
    };
    assert_eq!(explore(&mut model, (0, false), "counter", 10), 10);
}

#[test]
#[should_panic(expected = "changed nothing")]
fn an_action_that_changes_nothing_fails() {
    explore(
        &mut Counter {
            max: 4,
            stuck: Some(2),
        },
        (0, false),
        "stuck",
        1,
    );
}

#[test]
#[should_panic(expected = "only 10 states explored")]
fn an_explorer_short_of_its_floor_fails() {
    explore(
        &mut Counter {
            max: 4,
            stuck: None,
        },
        (0, false),
        "short",
        11,
    );
}
