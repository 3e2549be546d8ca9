//! One child process, start to exit: wall time, CPU time and peak RSS from
//! `wait4`'s rusage, so no polling thread competes with the child for the
//! host's cores.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
}

const SIGKILL: i32 = 9;
const RUSAGE_SELF: i32 = 0;

/// How a child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Exited(i32),
    Signaled(i32),
    /// Still running at the timeout; killed.
    TimedOut,
}

/// What one invocation cost.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    pub status: Status,
    /// Spawn to reaped exit.
    pub wall_s: f64,
    /// User + system CPU of the child, all its threads.
    pub cpu_s: f64,
    /// `ru_maxrss`. Linux seeds a child's high-water mark with the
    /// spawning process's own, so the caller must stay small while it
    /// measures (see `e2e`).
    pub peak_rss_mb: f64,
}

fn seconds(tv: [i64; 2]) -> f64 {
    tv[0] as f64 + tv[1] as f64 * 1e-6
}

/// User + system CPU time of this process so far, all threads.
pub fn self_cpu_s() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the platform's
    // layout; `getrusage` writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    seconds(ru.utime) + seconds(ru.stime)
}

/// Run `program args…` with stdout and stderr sent to files, wait for it,
/// and kill it if it outlives `timeout`.
pub fn run(
    program: &Path,
    args: &[String],
    stdout: &Path,
    stderr: &Path,
    timeout: Duration,
) -> io::Result<Exit> {
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(File::create(stdout)?)
        .stderr(File::create(stderr)?)
        .spawn()?;
    let pid = child.id() as i32;

    // The watchdog sleeps on the channel; it wakes once, either because
    // the child was reaped or because the timeout passed.
    let (reaped, watch) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let timed_out = watch.recv_timeout(timeout).is_err();
        if timed_out {
            // SAFETY: plain syscall on a pid this process spawned and has
            // not yet reaped (the main thread signals the channel only
            // after `wait4` returns).
            unsafe { kill(pid, SIGKILL) };
        }
        timed_out
    });

    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `status` and `ru` are live and writable for the call; `pid`
    // is this process's own unreaped child. `child` is never waited on
    // through std, so the pid is reaped exactly once, here.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    let wall_s = start.elapsed().as_secs_f64();
    let wait_err = (rc != pid).then(io::Error::last_os_error);
    let _ = reaped.send(());
    let timed_out = watchdog.join().expect("watchdog thread panicked");
    if let Some(err) = wait_err {
        return Err(err);
    }

    let signal = status & 0x7f;
    let status = if timed_out && signal == SIGKILL {
        Status::TimedOut
    } else if signal == 0 {
        Status::Exited((status >> 8) & 0xff)
    } else {
        Status::Signaled(signal)
    };
    Ok(Exit {
        status,
        wall_s,
        cpu_s: seconds(ru.utime) + seconds(ru.stime),
        peak_rss_mb: ru.maxrss as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, timeout: Duration) -> Exit {
        let dir = std::env::temp_dir();
        let tag = format!(
            "hembench-child-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        );
        let out = dir.join(format!("{tag}.out"));
        let err = dir.join(format!("{tag}.err"));
        let exit = run(
            Path::new("/bin/sh"),
            &["-c".to_string(), script.to_string()],
            &out,
            &err,
            timeout,
        )
        .expect("spawn /bin/sh");
        let _ = std::fs::remove_file(out);
        let _ = std::fs::remove_file(err);
        exit
    }

    #[test]
    fn reports_exit_code_and_resources() {
        let exit = sh("exit 3", Duration::from_secs(10));
        assert_eq!(exit.status, Status::Exited(3));
        assert!(exit.wall_s > 0.0 && exit.peak_rss_mb > 0.0);
    }

    #[test]
    fn kills_a_child_that_outlives_the_timeout() {
        let exit = sh("exec sleep 30", Duration::from_millis(200));
        assert_eq!(exit.status, Status::TimedOut);
        assert!(exit.wall_s < 10.0);
    }

    #[test]
    fn own_cpu_time_advances() {
        let before = self_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(self_cpu_s() >= before && x != 1);
    }
}
