//! Level-triggered readiness poller over `poll(2)`, declared directly
//! against the libc that std already links (no external crate). The
//! registration table lives in user space and goes to the kernel whole
//! on every wait, so one wait costs O(registered): a reactor here
//! registers its listener, its waker and its open connections.

use std::ffi::{c_int, c_short};
use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// `nfds_t` as `<poll.h>` declares it.
#[cfg(target_os = "linux")]
#[allow(non_camel_case_types)]
type nfds_t = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
#[allow(non_camel_case_types)]
type nfds_t = std::ffi::c_uint;

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

#[repr(C)]
#[derive(Clone, Copy)]
#[allow(non_camel_case_types)]
struct pollfd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
}

/// What a registration wants to hear about.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest { readable: true, writable: false };
}

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
    /// Peer hangup or socket error; the owner should read to EOF / close.
    /// A half-closed peer shows up as `readable` (the read sees EOF).
    pub hup: bool,
}

/// The registration table: `fds[i]` is registered under `tokens[i]`.
#[derive(Default)]
pub struct Poller {
    fds: Vec<pollfd>,
    tokens: Vec<usize>,
}

impl Poller {
    fn slot(&self, fd: RawFd) -> io::Result<usize> {
        self.fds
            .iter()
            .position(|p| p.fd == fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
    }

    fn events_for(interest: Interest) -> c_short {
        let mut e = 0;
        if interest.readable {
            e |= POLLIN;
        }
        if interest.writable {
            e |= POLLOUT;
        }
        e
    }

    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if self.slot(fd).is_ok() {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"));
        }
        self.fds.push(pollfd { fd, events: Self::events_for(interest), revents: 0 });
        self.tokens.push(token);
        Ok(())
    }

    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let i = self.slot(fd)?;
        self.fds[i].events = Self::events_for(interest);
        self.tokens[i] = token;
        Ok(())
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self.slot(fd)?;
        self.fds.swap_remove(i);
        self.tokens.swap_remove(i);
        Ok(())
    }

    /// Blocks until at least one registration is ready or `timeout`
    /// passes, appending to `events` (cleared first).
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms = match timeout {
            // Round up so a 1ns timeout doesn't busy-spin.
            Some(d) => d.as_millis().min(i32::MAX as u128).max(1) as c_int,
            None => -1,
        };
        let n = loop {
            // SAFETY: `fds` is an exclusively borrowed, initialised buffer
            // of `repr(C)` `pollfd`s and `nfds` is its length, so the
            // kernel reads and writes (only `revents`) within it; it keeps
            // no pointer past the return.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as nfds_t, timeout_ms) };
            if n >= 0 {
                break n;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        if n == 0 {
            return Ok(());
        }
        for (p, &token) in self.fds.iter().zip(&self.tokens) {
            if p.revents == 0 {
                continue;
            }
            events.push(Event {
                token,
                readable: p.revents & POLLIN != 0,
                writable: p.revents & POLLOUT != 0,
                hup: p.revents & (POLLERR | POLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn register_wait_reregister_deregister_roundtrip() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (mut b, _) = l.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut poller = Poller::default();
        poller.register(a.as_raw_fd(), 7, Interest::READ).unwrap();
        assert!(poller.register(a.as_raw_fd(), 8, Interest::READ).is_err(), "double register");

        // Nothing to read yet: a short wait times out empty.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "spurious readiness");

        b.write_all(b"ping").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: readiness persists until the bytes are drained.
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 8];
        let n = (&a).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // Write interest on an idle socket reports writable immediately.
        let both = Interest { readable: true, writable: true };
        poller.reregister(a.as_raw_fd(), 7, both).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        // Peer close surfaces as readable (EOF) and/or hup.
        drop(b);
        poller.reregister(a.as_raw_fd(), 7, Interest::READ).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && (e.readable || e.hup)));

        poller.deregister(a.as_raw_fd()).unwrap();
        assert!(poller.deregister(a.as_raw_fd()).is_err(), "double deregister");
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());
    }

    /// Deregistration swaps the last entry into the freed slot; the fd
    /// and token tables must move together or a wait reports readiness
    /// under the wrong token.
    #[test]
    fn churned_table_reports_exactly_the_live_tokens() {
        // splitmix64: a fixed seed replays the same churn everywhere.
        let mut state = 0x5EED_C0FF_EE00_0039u64;
        let mut rand = move |n: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };

        let mut poller = Poller::default();
        // (token, registered end, peer end), in registration order.
        let mut live: Vec<(usize, UnixStream, UnixStream)> = Vec::new();
        let mut next_token = 0;
        let mut add = |poller: &mut Poller, live: &mut Vec<_>| {
            let (ours, peer) = UnixStream::pair().unwrap();
            poller.register(ours.as_raw_fd(), next_token, Interest::READ).unwrap();
            live.push((next_token, ours, peer));
            next_token += 1;
        };
        for _ in 0..64 {
            add(&mut poller, &mut live);
        }
        // Drop a random half in random order, with 16 registrations
        // interleaved among the removals.
        let (mut removed, mut added) = (0, 0);
        while removed < 32 || added < 16 {
            if added < 16 && (removed == 32 || rand(3) == 0) {
                add(&mut poller, &mut live);
                added += 1;
            } else {
                let (_, ours, _) = live.swap_remove(rand(live.len()));
                poller.deregister(ours.as_raw_fd()).unwrap();
                removed += 1;
            }
        }

        for (_, _, peer) in &mut live {
            peer.write_all(&[1]).unwrap();
        }
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        let mut got: Vec<usize> = events.iter().filter(|e| e.readable).map(|e| e.token).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = live.iter().map(|(t, _, _)| *t).collect();
        want.sort_unstable();
        assert_eq!(want.len(), 48);
        assert_eq!(got, want);
        assert_eq!(events.len(), want.len(), "only live registrations report");
    }
}
