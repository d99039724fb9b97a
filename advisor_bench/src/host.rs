//! Host fingerprint, worker pinning and resident-memory readings.

/// Logical cores available to this process.
pub fn logical_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve the worker count and pin it for this process and its
/// children: `STENCILMART_THREADS` when set, else 1. One worker leaves
/// the other core to the serving client and halves the exposure to
/// CPU time taken by neighbouring guests; on a 2-core host a second
/// worker does not make training faster. Refuses a worker count above
/// the core count, or one that does not parse, so figures from
/// oversubscribed runs never get reported.
pub fn pin_workers() -> Result<usize, String> {
    let cores = logical_cores();
    let threads = match std::env::var("STENCILMART_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                return Err(format!(
                    "STENCILMART_THREADS={v:?} is not a positive integer"
                ))
            }
        },
        Err(_) => 1,
    };
    if threads > cores {
        return Err(format!(
            "STENCILMART_THREADS={threads} exceeds the {cores} logical cores"
        ));
    }
    std::env::set_var("STENCILMART_THREADS", threads.to_string());
    Ok(threads)
}

/// The SIMD tier the program's kernels dispatch to.
pub fn simd_isa() -> &'static str {
    stencilmart_obs::runtime::simd_isa().name()
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in bytes.
pub fn status_bytes(pid: &str, field: &str) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("no {field} in {path}"))
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every process and thread it starts from
/// now on, to one CPU: the highest one it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the mask buffer is `size` bytes long and outlives the call.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("the affinity mask is empty")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
