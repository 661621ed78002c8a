//! A raw `faithful-serve/1` frame client:
//! `[type u8][request id u64 BE][length u32 BE][payload]`.
//!
//! It decodes nothing but frame headers, so the latency it measures is
//! the service's, not the client library's result parsing.

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub const HELLO: u8 = 1;
pub const SUBMIT: u8 = 2;
pub const RESULT: u8 = 3;
pub const RESULT_CACHED: u8 = 4;

pub struct Reply {
    pub tag: u8,
    pub id: u64,
    pub payload: Vec<u8>,
}

pub struct FrameClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    next_id: u64,
}

impl FrameClient {
    /// Connects and checks the server's `HELLO` greeting.
    pub fn connect(addr: SocketAddr) -> io::Result<FrameClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = FrameClient {
            writer,
            reader,
            out: Vec::new(),
            next_id: 0,
        };
        let hello = client.recv()?;
        if hello.tag != HELLO || hello.payload != faithful::service::GREETING.as_bytes() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "the server did not greet with faithful-serve/1",
            ));
        }
        Ok(client)
    }

    /// Sends one SUBMIT frame and returns the request id it carries.
    pub fn submit(&mut self, spec: &str) -> io::Result<u64> {
        let len = u32::try_from(spec.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "spec too long"))?;
        let id = self.next_id;
        self.next_id += 1;
        self.out.clear();
        self.out.push(SUBMIT);
        self.out.extend_from_slice(&id.to_be_bytes());
        self.out.extend_from_slice(&len.to_be_bytes());
        self.out.extend_from_slice(spec.as_bytes());
        self.writer.write_all(&self.out)?;
        Ok(id)
    }

    pub fn recv(&mut self) -> io::Result<Reply> {
        let mut header = [0u8; 13];
        self.reader.read_exact(&mut header)?;
        let id = u64::from_be_bytes(header[1..9].try_into().expect("8 header bytes"));
        let len = u32::from_be_bytes(header[9..13].try_into().expect("4 header bytes"));
        let mut payload = vec![0u8; len as usize];
        self.reader.read_exact(&mut payload)?;
        Ok(Reply {
            tag: header[0],
            id,
            payload,
        })
    }
}
