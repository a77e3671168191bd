//! Regenerates Figure 4: sequential-read throughput vs CntrFS threads.

use cntr_phoronix::figure4;

fn main() {
    println!("Figure 4 — IOzone sequential read vs CntrFS worker threads");
    println!("(paper: throughput drops by up to ~8% from 1 to 16 threads)");
    println!("(each point: the worker threads' synchronization, priced per request)");
    println!("{:-<54}", "");
    let rows = figure4();
    let base = rows[0].throughput_mb_s;
    for r in &rows {
        let delta = 100.0 * (r.throughput_mb_s / base - 1.0);
        println!(
            "{:>3} threads: {:>8.0} MB/s  ({:+.1}% vs 1 thread) {}",
            r.threads,
            r.throughput_mb_s,
            delta,
            "#".repeat((r.throughput_mb_s / base * 30.0) as usize)
        );
    }
}
