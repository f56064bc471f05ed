//! Peak resident memory from procfs.
//!
//! `VmHWM` in `/proc/self/status` is the process's peak resident set.
//! Writing `5` to `/proc/self/clear_refs` resets it to the current
//! resident set, which lets the traced run attribute the peak to a stage.
//! Where procfs is missing or refuses the reset, the readings are
//! reported as unavailable rather than estimated.

/// Peak resident set of this process, in MiB, or `None` without procfs.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Reset the peak to the current resident set. Returns false when the
/// kernel refused, in which case a later [`peak_rss_mib`] is not a
/// per-stage reading.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the allocator's free memory back to the kernel, so that a peak
/// measured next reflects what is live from then on rather than what
/// earlier work left cached in the heap. Without it a pass's peak on
/// `sweep-grid` grew with the passes before it (58 → 94 MiB over six
/// passes of one process).
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` has no preconditions; it only returns unused
    // heap pages to the kernel and never touches allocated blocks.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
}

/// Run `f` with the peak reset before it; returns `f`'s result and the
/// peak reached while it ran, or `None` when the reset was refused.
pub fn stage_peak<T>(f: impl FnOnce() -> T) -> (T, Option<f64>) {
    let reset = reset_peak();
    let out = f();
    let peak = if reset { peak_rss_mib() } else { None };
    (out, peak)
}
