//! The accept scaffolding both listeners (data plane and admin) run
//! on: one acceptor thread, one handler thread per connection up to
//! [`MAX_CONNECTIONS`], and a shutdown that joins them all.

use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use adarnet_core::sync;

use crate::frame::{read_frame, FrameError};

/// How often an idle connection handler wakes to check the shutdown
/// flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Live handler threads one listener runs at a time. Each connection
/// costs a thread, so a peer opening connections without bound would
/// otherwise grow the process without bound: past the cap a connection
/// is accepted and closed at once (`net_connections_refused_total`).
pub const MAX_CONNECTIONS: usize = 256;

struct Shared {
    shutdown: AtomicBool,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// A bound socket with its acceptor running.
pub(crate) struct Listener {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
}

impl Listener {
    /// Bind `addr` and run `handle(stream, shutdown_flag)` on a thread
    /// of its own for every accepted connection. The handler must
    /// return soon after the flag turns true; reading through
    /// [`split`] and [`next_frame`] does that.
    pub(crate) fn start(
        addr: &str,
        handle: impl Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(listener, shared, Arc::new(handle)))
        };
        Ok(Listener {
            shared,
            addr,
            acceptor,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection-thread handles held for [`Self::shutdown`] to join:
    /// the live connections plus those that closed since the last
    /// accept.
    pub(crate) fn tracked_connections(&self) -> usize {
        sync::lock(&self.shared.conns).len()
    }

    /// Stop accepting and join every connection thread.
    pub(crate) fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        let conns: Vec<JoinHandle<()>> = sync::lock(&self.shared.conns).drain(..).collect();
        for conn in conns {
            let _ = conn.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    handle: Arc<impl Fn(TcpStream, &AtomicBool) + Send + Sync + 'static>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Handlers of closed connections have nothing left to join;
        // dropping them here bounds the list by the live connections.
        let mut conns = sync::lock(&shared.conns);
        conns.retain(|h| !h.is_finished());
        if conns.len() >= MAX_CONNECTIONS {
            adarnet_obs::counter!("net_connections_refused_total").inc();
            continue; // dropping `stream` closes it
        }
        let (shared, handle) = (shared.clone(), handle.clone());
        conns.push(std::thread::spawn(move || handle(stream, &shared.shutdown)));
    }
}

/// Split an accepted stream into a read half that times out every
/// [`IDLE_POLL`] (turning an idle blocking read into a shutdown-flag
/// poll) and a buffered write half.
pub(crate) fn split(stream: TcpStream) -> std::io::Result<(TcpStream, BufWriter<TcpStream>)> {
    stream.set_read_timeout(Some(IDLE_POLL))?;
    Ok((stream.try_clone()?, BufWriter::new(stream)))
}

/// The next frame on `reader`, waiting across idle timeouts; `None`
/// once `shutdown` turns true with no frame pending.
pub(crate) fn next_frame(
    reader: &mut TcpStream,
    shutdown: &AtomicBool,
) -> Option<Result<Vec<u8>, FrameError>> {
    loop {
        match read_frame(reader) {
            Err(e) if e.is_timeout() => {
                if shutdown.load(Ordering::Acquire) {
                    return None;
                }
            }
            other => return Some(other),
        }
    }
}
