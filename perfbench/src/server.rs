//! A running `rsk-serve` for the traced run's wire probe: the real binary,
//! or (tests) the same server library in-process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};

use rsk_serve::{Client, ServeConfig, ServerHandle};

/// Dropping a server that was not stopped kills and reaps it, so no error
/// path leaves a process behind.
pub struct Server {
    addr: SocketAddr,
    process: Option<(Child, BufReader<ChildStdout>)>,
    in_process: Option<ServerHandle>,
}

impl Server {
    /// Start a server and wait until it listens (the binary announces its
    /// address on its first stdout line; no connect polling).
    pub fn start(bin: Option<&std::path::Path>) -> Result<Self, String> {
        let Some(bin) = bin else {
            let h = ServerHandle::start(ServeConfig::default())
                .map_err(|e| format!("server start: {e}"))?;
            return Ok(Server {
                addr: h.local_addr(),
                process: None,
                in_process: Some(h),
            });
        };
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            process: Some((child, stdout)),
            in_process: None,
        };
        let mut line = String::new();
        let (_, stdout) = server.process.as_mut().expect("just spawned");
        let _ = stdout.read_line(&mut line);
        server.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("rsk-serve did not announce its address: {line:?}"))?;
        Ok(server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn pid(&self) -> Option<String> {
        self.process.as_ref().map(|(c, _)| c.id().to_string())
    }

    /// Stop over the wire and wait for the process to exit.
    pub fn stop(mut self, mut client: Client) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        if let Some((mut child, mut stdout)) = self.process.take() {
            let mut rest = String::new();
            let _ = std::io::Read::read_to_string(&mut stdout, &mut rest);
            let status = child
                .wait()
                .map_err(|e| format!("waiting for rsk-serve: {e}"))?;
            if !status.success() {
                return Err(format!("rsk-serve exited with {status}"));
            }
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some((mut child, _)) = self.process.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.in_process.take() {
            h.shutdown();
        }
    }
}
