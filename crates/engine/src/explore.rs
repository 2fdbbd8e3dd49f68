//! One exhaustive explorer for the decided cores' tests: the router's
//! `Engine` here, and the wire crate's multiplexer, processor pipeline
//! and storage core, whose tests include this file.
//!
//! A [`Model`] wraps a core and its world. The driver walks every schedule
//! depth-first over a set of 128-bit state keys, checks each state,
//! asserts that each applied action and no check changed the key and that
//! a state where no work applies is done, and prints the number of states,
//! which must reach a floor. `tests/explore_driver.rs` tests the driver.

use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::{BuildHasherDefault, Hasher};

/// A core and its surroundings, as the explorer drives them.
pub(crate) trait Model {
    type State;
    type Action: Copy + Debug;

    /// What may happen next: the work that moves the schedule along, and
    /// the faults (a kill, a close) it may also suffer.
    fn actions(&self, state: &Self::State) -> (Vec<Self::Action>, Vec<Self::Action>);

    /// The state after `action`, or `None` where the core refused it or
    /// it changed nothing.
    fn apply(&self, state: &Self::State, action: Self::Action) -> Option<Self::State>;

    /// A 128-bit hash of everything that decides what happens next.
    fn key(&self, state: &Self::State) -> u128;

    /// The invariants every reachable state holds. Inputs the core must
    /// refuse may be tried here: the driver asserts they changed nothing.
    fn check(&mut self, state: &mut Self::State);

    /// A state where no work applies: everything must be done.
    fn terminal(&mut self, state: &Self::State);
}

/// Explores every schedule from `root`, prints `name` with the number of
/// distinct states, asserts `floor` and returns the number.
pub(crate) fn explore<M: Model>(model: &mut M, root: M::State, name: &str, floor: usize) -> usize {
    let key = model.key(&root);
    let mut seen: HashSet<u128, BuildHasherDefault<KeyHasher>> = HashSet::default();
    seen.insert(key);
    let mut stack = vec![(key, root)];
    while let Some((key, mut state)) = stack.pop() {
        model.check(&mut state);
        assert_eq!(model.key(&state), key, "a refused input changed the state");
        let (work, faults) = model.actions(&state);
        let mut progressed = false;
        for (i, &action) in work.iter().chain(&faults).enumerate() {
            let Some(next) = model.apply(&state, action) else {
                continue;
            };
            let next_key = model.key(&next);
            assert_ne!(next_key, key, "{action:?} changed nothing");
            progressed |= i < work.len();
            if seen.insert(next_key) {
                stack.push((next_key, next));
            }
        }
        if !progressed {
            model.terminal(&state);
        }
    }
    println!("{name}: {} states", seen.len());
    assert!(seen.len() >= floor, "only {} states explored", seen.len());
    seen.len()
}

/// Two multiply-mix lanes over 64-bit words: how a model builds its key.
#[derive(Default)]
pub(crate) struct Key(u64, u64);

impl Key {
    pub(crate) fn put(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        self.1 = (self.1 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.1 ^= self.1 >> 29;
    }

    pub(crate) fn finish(&self) -> u128 {
        u128::from(self.0) << 64 | u128::from(self.1)
    }
}

/// Passes the explorer's already mixed 128-bit keys through.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u128 keys are hashed")
    }

    fn write_u128(&mut self, key: u128) {
        self.0 = key as u64;
    }
}
