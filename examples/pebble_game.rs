//! Plays the red-white pebble game on the exact CDAG of a small MGS
//! instance, comparing the LRU and farthest-next-use spill policies across
//! red budgets.
//!
//! Run with `cargo run --example pebble_game`.

use hourglass_iolb::cdag::{build_cdag, PebbleGame, SpillPolicy};
use hourglass_iolb::kernels;

fn main() {
    let program = kernels::program("mgs");
    let params = [20i64, 10];
    let g = build_cdag(&program, &params);
    println!(
        "MGS M=20 N=10: CDAG with {} compute nodes, {} inputs, {} edges",
        g.num_computes(),
        g.input_nodes().count(),
        g.num_edges()
    );
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "S", "LRU loads", "MIN loads", "MIN/LRU"
    );
    let smin = g.max_in_degree() + 1;
    for s in [smin, smin + 8, smin + 24, smin + 56, smin + 120] {
        let game = PebbleGame::new(&g, s);
        let lru = game.play_program_order(SpillPolicy::Lru).expect("play");
        let min = game
            .play_program_order(SpillPolicy::MinNextUse)
            .expect("play");
        println!(
            "{:>6} {:>12} {:>12} {:>10.3}",
            s,
            lru.loads,
            min.loads,
            min.loads as f64 / lru.loads as f64
        );
        assert!(min.loads <= lru.loads);
    }
}
