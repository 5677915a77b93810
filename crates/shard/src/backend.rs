//! What a shard runs: the supervisor's view of one backend engine server.
//!
//! Two implementations share the [`Backend`] trait:
//!
//! * [`ThreadBackend`] — an in-process [`staq_serve`] server over real
//!   loopback TCP. The wire path is identical to production (frames,
//!   pools, failover all exercise the same code); only the process
//!   boundary is missing. Used by the integration tests and `staq-e2e`,
//!   where spawning N city builds in N children would be slow and
//!   unobservable.
//! * [`ProcessBackend`] — a spawned `serve` daemon. The child binds port
//!   0 and reports the bound address through `--port-file`; the parent
//!   polls the file. Killing the child is a real SIGKILL, and respawning
//!   rebuilds the city from scratch (scenario edits do not survive a
//!   crash — documented failover semantics).
//!
//! In-process backends share this process's staq-obs registry, which is
//! global; [`Backend::in_process`] lets the Stats scatter-gather know it
//! must not sum per-backend snapshots that are all the same registry.

use staq_core::AccessEngine;
use staq_rt::RtEngine;
use staq_serve::{serve_rt, ServerConfig, ServerHandle};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One supervised shard backend.
pub trait Backend: Send {
    /// Starts (or restarts) the backend and returns the address it
    /// listens on. Blocks until the listener is up — but not necessarily
    /// until the backend is *serving*; the supervisor readiness-probes
    /// before admitting traffic.
    fn start(&mut self) -> io::Result<SocketAddr>;

    /// Whether the backend still looks alive (process not exited, server
    /// not shut down). Advisory: the call path discovers death through
    /// failed connections regardless.
    fn is_alive(&mut self) -> bool;

    /// Hard-stops the backend. Also the test hook for simulated crashes.
    fn kill(&mut self);

    /// True when the backend runs inside this process (shares the global
    /// metrics registry).
    fn in_process(&self) -> bool;
}

/// An in-process staq-serve server, restartable from an engine factory.
///
/// The factory decides respawn semantics: building a fresh engine per
/// start models a real crash (cold cache, edits lost); cloning one
/// `Arc<AccessEngine>` across starts keeps the engine warm and avoids
/// paying a city build per respawn.
///
/// Either way, each start wraps the engine in a **fresh `RtEngine`**, so
/// the backend's sequenced delta log restarts empty across respawns. The
/// supervisor relies on this: after a respawn it replays the fleet log
/// from sequence 1. That replay is only exact for *fresh-engine*
/// factories — a warm engine already carries its applied edits, and a
/// full replay on top would double-apply them. Warm factories are
/// therefore only safe where backends are never killed.
pub struct ThreadBackend {
    factory: Box<dyn Fn() -> Arc<AccessEngine> + Send>,
    cfg: ServerConfig,
    server: Option<ServerHandle>,
}

impl ThreadBackend {
    /// A backend serving engines produced by `factory`, on a free
    /// loopback port with `workers` threads.
    pub fn new(workers: usize, factory: impl Fn() -> Arc<AccessEngine> + Send + 'static) -> Self {
        ThreadBackend {
            factory: Box::new(factory),
            cfg: ServerConfig { addr: "127.0.0.1:0".into(), workers, ..Default::default() },
            server: None,
        }
    }
}

impl Backend for ThreadBackend {
    fn start(&mut self) -> io::Result<SocketAddr> {
        self.kill();
        let handle = serve_rt(Arc::new(RtEngine::new((self.factory)())), &self.cfg)?;
        let addr = handle.addr();
        self.server = Some(handle);
        Ok(addr)
    }

    fn is_alive(&mut self) -> bool {
        self.server.is_some()
    }

    fn kill(&mut self) {
        if let Some(mut s) = self.server.take() {
            s.shutdown();
        }
    }

    fn in_process(&self) -> bool {
        true
    }
}

/// Names a port file that no two backends (or two starts of one backend)
/// share, even across respawns.
static PORT_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A spawned `serve` daemon child process.
pub struct ProcessBackend {
    serve_bin: PathBuf,
    /// Extra daemon args (`--city`, `--scale`, `--seed`, `--workers`...).
    args: Vec<String>,
    child: Option<Child>,
}

/// How long to wait for a child to report its port; covers the city
/// build, which dominates startup.
const START_TIMEOUT: Duration = Duration::from_secs(600);

impl ProcessBackend {
    /// A backend running `serve_bin` with `args` appended after the
    /// addressing flags.
    pub fn new(serve_bin: PathBuf, args: Vec<String>) -> Self {
        ProcessBackend { serve_bin, args, child: None }
    }

    /// The `serve` binary next to the currently running executable —
    /// where cargo puts sibling bin targets.
    pub fn sibling_serve_bin() -> io::Result<PathBuf> {
        let mut p = std::env::current_exe()?;
        p.pop();
        if p.ends_with("deps") {
            p.pop();
        }
        p.push("serve");
        Ok(p)
    }
}

impl Backend for ProcessBackend {
    fn start(&mut self) -> io::Result<SocketAddr> {
        self.kill();
        let port_file = std::env::temp_dir().join(format!(
            "staq-shard-{}-{}.port",
            std::process::id(),
            PORT_FILE_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(&self.serve_bin)
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(&self.args)
            // Keep the child's stdin open: the daemon exits on stdin EOF,
            // so dropping the handle (kill or supervisor drop) is also a
            // graceful stop signal.
            .stdin(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        self.child = Some(child);

        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    let _ = std::fs::remove_file(&port_file);
                    return Ok(addr);
                }
            }
            if !self.is_alive() {
                self.kill();
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "serve child exited before reporting its port",
                ));
            }
            if Instant::now() >= deadline {
                self.kill();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "serve child did not report its port in time",
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn is_alive(&mut self) -> bool {
        match &mut self.child {
            Some(c) => matches!(c.try_wait(), Ok(None)),
            None => false,
        }
    }

    fn kill(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }

    fn in_process(&self) -> bool {
        false
    }
}

impl Drop for ProcessBackend {
    fn drop(&mut self) {
        self.kill();
    }
}
