//! CPU placement of the calling thread, through the C library's
//! `sched_getaffinity`/`sched_setaffinity` (Linux; a no-op elsewhere).
//! Threads inherit the placement of the thread that spawns them.

/// A CPU set: bit `c` of word `c / 64` stands for CPU `c`.
pub type Mask = [u64; 16];

/// Where `service_mixed` runs. The service, its read client and every
/// thread they spawn share one CPU; the write client runs on another.
/// The calling thread's own placement comes back when this is dropped.
pub struct Placement {
    original: Mask,
    pub service_cpu: usize,
    pub writer_cpu: usize,
}

impl Placement {
    /// Moves the calling thread onto the first CPU it may use. `None`
    /// (and nothing moved) when the placement cannot be read or set.
    pub fn enter() -> Option<Self> {
        let original = imp::get()?;
        let cpus: Vec<usize> = (0..original.len() * 64)
            .filter(|&c| (original[c / 64] >> (c % 64)) & 1 == 1)
            .collect();
        let service_cpu = *cpus.first()?;
        let writer_cpu = cpus.get(1).copied().unwrap_or(service_cpu);
        pin(service_cpu).then_some(Self {
            original,
            service_cpu,
            writer_cpu,
        })
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        imp::set(&self.original);
    }
}

/// Moves the calling thread onto `cpu` alone; whether that succeeded.
pub fn pin(cpu: usize) -> bool {
    let mut mask: Mask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    imp::set(&mask)
}

#[cfg(target_os = "linux")]
mod imp {
    use super::Mask;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: pid 0 is the calling thread; the kernel writes at most
        // `cpusetsize` bytes, the size of `mask`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: pid 0 is the calling thread; the kernel reads
        // `cpusetsize` bytes, the size of `mask`.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::Mask;

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_mask: &Mask) -> bool {
        false
    }
}
