//! The scenario bench measures in virtual time: two runs of the same
//! scenario must report identical numbers, ratio included.

use pacon_bench::scenario::{run, ALL};

#[test]
fn scenarios_repeat_exactly() {
    for s in ALL {
        let first = run(s, 1_000).to_json();
        let second = run(s, 1_000).to_json();
        assert_eq!(first, second, "{} scenario is not deterministic", s.name);
    }
}
