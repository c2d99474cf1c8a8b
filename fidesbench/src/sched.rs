//! Per-thread CPU and run-queue wait from the Linux scheduler.
//!
//! `/proc/<pid>/task/<tid>/schedstat` holds three numbers: nanoseconds
//! on CPU, nanoseconds waiting on a run queue, and timeslices run. The
//! benchmark groups threads into roles by the names the program gives
//! them (`fides-server-*`, `fides-wal-writer`, `fides-pool-*`) plus its
//! own client threads, and reports each role's CPU and wait time. On a
//! small machine the wait time is where contention between roles shows.

use std::collections::HashMap;

/// Prefix of the benchmark's own client thread names.
pub const CLIENT_THREAD: &str = "bench-client";

/// A thread role, by the name the thread was given.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    Server,
    Wal,
    Pool,
    Client,
}

impl Role {
    pub const ALL: [Role; 4] = [Role::Server, Role::Wal, Role::Pool, Role::Client];

    pub fn name(self) -> &'static str {
        match self {
            Role::Server => "server",
            Role::Wal => "wal",
            Role::Pool => "pool",
            Role::Client => "client",
        }
    }

    /// The role of a thread named `comm`. The kernel truncates thread
    /// names to 15 bytes, so `fides-wal-writer` reads `fides-wal-write`.
    pub fn of(comm: &str) -> Option<Role> {
        let comm = comm.trim();
        if comm.starts_with("fides-server-") {
            Some(Role::Server)
        } else if comm.starts_with("fides-wal-writ") {
            Some(Role::Wal)
        } else if comm.starts_with("fides-pool-") {
            Some(Role::Pool)
        } else if comm.starts_with(CLIENT_THREAD) {
            Some(Role::Client)
        } else {
            None
        }
    }
}

/// Nanoseconds on CPU and waiting for a CPU.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuWait {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

impl CpuWait {
    pub fn add(&mut self, other: CpuWait) {
        self.cpu_ns += other.cpu_ns;
        self.wait_ns += other.wait_ns;
    }

    fn since(self, earlier: CpuWait) -> CpuWait {
        CpuWait {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// Parses one schedstat line: `<cpu ns> <wait ns> <timeslices>`.
pub fn parse_schedstat(line: &str) -> Option<CpuWait> {
    let mut fields = line.split_ascii_whitespace();
    let cpu_ns = fields.next()?.parse().ok()?;
    let wait_ns = fields.next()?.parse().ok()?;
    fields.next()?.parse::<u64>().ok()?;
    Some(CpuWait { cpu_ns, wait_ns })
}

/// The calling thread's own counters (a thread about to exit reads
/// these, since its `/proc` entry disappears with it).
pub fn thread_self() -> Option<CpuWait> {
    parse_schedstat(&std::fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// Every live thread of this process that has a known role, by thread
/// id. Empty where `/proc` is unavailable.
pub fn snapshot() -> HashMap<u64, (Role, CpuWait)> {
    let mut threads = HashMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return threads;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = task.path();
        let Some(role) = std::fs::read_to_string(path.join("comm"))
            .ok()
            .and_then(|comm| Role::of(&comm))
        else {
            continue;
        };
        if let Some(stat) = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|line| parse_schedstat(&line))
        {
            threads.insert(tid, (role, stat));
        }
    }
    threads
}

/// Per-role totals of what each thread used between two snapshots; a
/// thread absent from `before` counts from its start.
pub fn by_role(
    before: &HashMap<u64, (Role, CpuWait)>,
    after: &HashMap<u64, (Role, CpuWait)>,
) -> HashMap<Role, CpuWait> {
    let mut roles: HashMap<Role, CpuWait> = HashMap::new();
    for (tid, (role, now)) in after {
        let start = before.get(tid).map(|(_, s)| *s).unwrap_or_default();
        roles.entry(*role).or_default().add(now.since(start));
    }
    roles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_schedstat_line() {
        assert_eq!(
            parse_schedstat("337221468 1904712 41\n"),
            Some(CpuWait {
                cpu_ns: 337_221_468,
                wait_ns: 1_904_712,
            })
        );
        assert_eq!(parse_schedstat("337221468 1904712"), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn roles_follow_truncated_thread_names() {
        assert_eq!(Role::of("fides-server-3\n"), Some(Role::Server));
        assert_eq!(Role::of("fides-wal-write"), Some(Role::Wal));
        assert_eq!(Role::of("fides-pool-0"), Some(Role::Pool));
        assert_eq!(Role::of("bench-client-1"), Some(Role::Client));
        assert_eq!(Role::of("fidesbench"), None);
    }

    #[test]
    fn differences_start_new_threads_at_zero() {
        let cw = |cpu_ns, wait_ns| CpuWait { cpu_ns, wait_ns };
        let before = HashMap::from([(1, (Role::Server, cw(100, 10)))]);
        let after = HashMap::from([
            (1, (Role::Server, cw(150, 30))),
            (2, (Role::Server, cw(5, 1))),
            (3, (Role::Wal, cw(7, 2))),
        ]);
        let roles = by_role(&before, &after);
        assert_eq!(roles[&Role::Server], cw(55, 21));
        assert_eq!(roles[&Role::Wal], cw(7, 2));
    }
}
