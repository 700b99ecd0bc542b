//! Which CPUs the benchmark may run on, and pinning to one of them.
//!
//! On a shared host each CPU is slowed by its neighbours in spells of a
//! second to a minute, by up to half, and the CPUs' spells do not line up.
//! Left alone, the scheduler keeps a single-threaded process on one CPU, so
//! a spell on that CPU can slow a whole run. The timed pass therefore runs
//! its slices on the allowed CPUs in turn, one slice at a time.

/// The CPUs this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status`; empty if it cannot be read.
pub fn allowed() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .and_then(|list| parse_list(list.trim()))
        })
        .unwrap_or_default()
}

/// A kernel CPU list such as `0-3,6,8-9`.
fn parse_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for range in list.split(',') {
        let (first, last): (usize, usize) = match range.split_once('-') {
            Some((a, b)) => (a.parse().ok()?, b.parse().ok()?),
            None => {
                let cpu = range.parse().ok()?;
                (cpu, cpu)
            }
        };
        cpus.extend(first..=last);
    }
    Some(cpus)
}

/// Bits in glibc's `cpu_set_t`.
const CPU_SET_BITS: usize = 1024;

/// Restricts the calling thread, and the threads it starts afterwards, to
/// CPU `cpu`.
///
/// # Errors
///
/// The CPU is out of range or not allowed.
pub fn pin(cpu: usize) -> Result<(), String> {
    if cpu >= CPU_SET_BITS {
        return Err(format!("CPU {cpu} is beyond the affinity mask"));
    }
    let mut mask = [0u64; CPU_SET_BITS / 64];
    mask[cpu / 64] |= 1 << (cpu % 64);
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `mask` is a live, fully initialised buffer of the size
    // passed, laid out as glibc's `cpu_set_t`; pid 0 names this thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "pinning to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_list("0-2,5,7-8"), Some(vec![0, 1, 2, 5, 7, 8]));
        assert_eq!(parse_list("3"), Some(vec![3]));
        assert_eq!(parse_list("x"), None);
    }

    #[test]
    fn this_process_can_pin_to_an_allowed_cpu() {
        let cpus = allowed();
        assert!(!cpus.is_empty());
        // Pinning a test thread leaves the other tests' threads alone.
        std::thread::spawn(move || pin(cpus[0]))
            .join()
            .unwrap()
            .unwrap();
        assert!(pin(CPU_SET_BITS).is_err());
    }
}
