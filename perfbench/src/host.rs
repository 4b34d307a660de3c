//! Readings of the shared host: CPU time stolen by the hypervisor.

/// CPU time the hypervisor gave to other guests while this one's CPUs
/// wanted to run: the `steal` column of `/proc/stat`, summed over all
/// CPUs, in clock ticks (10 ms each). 0 where it is not reported, which
/// makes every block count as undisturbed.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The values whose steal reading is lowest: all those with none, or, when
/// fewer than a quarter of them had none, the quarter with the least
/// (earlier values first among equals). `steal[i]` belongs to `values[i]`.
///
/// A block during which the hypervisor ran another guest on one of this
/// guest's CPUs can read several times slower than one beside it, and such
/// phases can cover most of a run; the program's cost shows in the blocks
/// it did not touch. Which blocks are kept depends only on the host.
pub fn least_stolen(values: &[f64], steal: &[u64]) -> Vec<f64> {
    assert_eq!(values.len(), steal.len(), "one steal reading per value");
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by_key(|&i| (steal[i], i));
    let clean = steal.iter().filter(|&&s| s == 0).count();
    let keep = clean.max(values.len().div_ceil(4));
    order[..keep].iter().map(|&i| values[i]).collect()
}
