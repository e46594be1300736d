//! `recordd` as a child process, and the plain TCP client that talks to
//! it. The client sends one request line per `write_all` and sets no
//! socket options, so it sees the wire path as any default client does.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `recordd`; dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts `recordd --workers 2 --cache-dir <dir>` on a free port and
    /// returns once it answers a ping.
    pub fn spawn(recordd: &Path, cache_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(recordd)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", recordd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner.trim().strip_prefix("recordd listening on ").map(str::to_string);
        let mut daemon = Daemon { child, _stdout: stdout, addr: addr.clone().unwrap_or_default() };
        if read.is_err() || addr.is_none() {
            return Err(format!("recordd did not start (said `{}`)", banner.trim()));
        }
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            if Conn::connect(&daemon.addr)
                .and_then(|mut c| c.roundtrip("{\"op\":\"ping\",\"id\":\"ping\"}\n"))
                .is_ok_and(|r| r.contains("\"pong\""))
            {
                return Ok(daemon);
            }
            if Instant::now() > give_up {
                return Err("recordd never answered a ping".into());
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("recordd exited: {status}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// The body of `GET path` on the daemon's HTTP façade.
    pub fn http_get(&self, path: &str) -> Result<String, String> {
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut text = String::new();
        stream.read_to_string(&mut text).map_err(|e| e.to_string())?;
        text.split_once("\r\n\r\n")
            .map(|(_, body)| body.to_string())
            .ok_or_else(|| format!("malformed HTTP response to {path}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer: stream, reader })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) if line.ends_with('\n') => Ok(line),
            Ok(_) => Err("truncated response".into()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Writes one request line and reads the whole response line.
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.writer.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        self.read_line()
    }
}
