//! Reading CPU time from Linux `/proc` text: a process's own CPU time, which
//! follows the work it does, and the host's steal time, which shows how much
//! of the machine other guests took while a run was measured.

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
pub const USER_HZ: f64 = 100.0;

/// User plus system CPU ticks from the text of `/proc/<pid>/stat`: fields 14
/// and 15, which cover every thread of the process, exited ones included.
/// The command name (field 2) may hold spaces and parentheses, so fields are
/// counted from its closing parenthesis.
pub fn process_ticks(stat: &str) -> Option<u64> {
    let (_, rest) = stat.rsplit_once(')')?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// All and stolen ticks of the machine from the text of `/proc/stat`: the
/// aggregate `cpu` line's first eight values (user through steal; the guest
/// times after them are already inside user), and the eighth alone.
pub fn host_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((values.iter().sum(), *values.get(7)?))
}

/// The machine's ticks so far, as [`host_ticks`] reads them; `None` where
/// `/proc/stat` is missing or unreadable.
pub fn read_host_ticks() -> Option<(u64, u64)> {
    host_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}
