//! One storage server: a locked log store plus access statistics.

use bytes::Bytes;
use parking_lot::{RwLock, RwLockReadGuard};

use crate::log::LogStore;
use crate::Result;

/// A storage server in the tier.
///
/// Thread-safe: the live runtime's processor threads call [`get`] on shared
/// references concurrently. Reads take the read lock; the log store's `get`
/// hands out zero-copy [`Bytes`] slices of sealed segments.
///
/// [`get`]: StorageServer::get
#[derive(Debug)]
pub struct StorageServer {
    id: usize,
    log: RwLock<LogStore>,
    gets: std::sync::atomic::AtomicU64,
    puts: std::sync::atomic::AtomicU64,
}

impl StorageServer {
    /// Creates server `id` with the given segment size.
    pub fn new(id: usize, segment_bytes: usize) -> Self {
        Self {
            id,
            log: RwLock::new(LogStore::new(segment_bytes)),
            gets: std::sync::atomic::AtomicU64::new(0),
            puts: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// This server's id within the tier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Fetches a value.
    pub fn get(&self, key: u64) -> Option<Bytes> {
        self.gets.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.log.read().get(key)
    }

    /// Opens a read session: any number of gets under one acquisition of
    /// the read lock, their count added to [`StorageServer::gets_served`]
    /// when the session drops — what a multi-get pays once per server
    /// instead of once per record. Writers to this server wait while a
    /// session is open, so hold it for a batch, not across other work.
    pub fn reader(&self) -> ServerReader<'_> {
        ServerReader {
            log: self.log.read(),
            gets: &self.gets,
            served: 0,
        }
    }

    /// Stores a value.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::StorageError::ValueTooLarge`].
    pub fn put(&self, key: u64, value: &[u8]) -> Result<()> {
        self.puts.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.log.write().put(key, value)
    }

    /// Deletes a key, returning whether it existed.
    pub fn delete(&self, key: u64) -> bool {
        self.log.write().delete(key)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.log.read().len()
    }

    /// Whether the server stores nothing.
    pub fn is_empty(&self) -> bool {
        self.log.read().is_empty()
    }

    /// Live bytes referenced by the index.
    pub fn live_bytes(&self) -> usize {
        self.log.read().live_bytes()
    }

    /// Total get operations served.
    pub fn gets_served(&self) -> u64 {
        self.gets.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total put operations applied.
    pub fn puts_applied(&self) -> u64 {
        self.puts.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A read session on one [`StorageServer`] (see [`StorageServer::reader`]).
pub struct ServerReader<'a> {
    log: RwLockReadGuard<'a, LogStore>,
    gets: &'a std::sync::atomic::AtomicU64,
    served: u64,
}

impl ServerReader<'_> {
    /// Fetches a value, counted like [`StorageServer::get`].
    pub fn get(&mut self, key: u64) -> Option<Bytes> {
        self.served += 1;
        self.log.get(key)
    }
}

impl Drop for ServerReader<'_> {
    fn drop(&mut self) {
        self.gets
            .fetch_add(self.served, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::DEFAULT_SEGMENT_BYTES;

    #[test]
    fn basic_ops_and_stats() {
        let s = StorageServer::new(3, DEFAULT_SEGMENT_BYTES);
        assert_eq!(s.id(), 3);
        s.put(1, b"abc").unwrap();
        assert_eq!(s.get(1).unwrap().as_ref(), b"abc");
        assert_eq!(s.get(2), None);
        assert_eq!(s.gets_served(), 2);
        assert_eq!(s.puts_applied(), 1);
        assert!(s.delete(1));
        assert!(s.is_empty());
    }

    #[test]
    fn reader_session_counts_its_gets_once_closed() {
        let s = StorageServer::new(0, DEFAULT_SEGMENT_BYTES);
        s.put(1, b"abc").unwrap();
        s.put(2, b"de").unwrap();
        {
            let mut reader = s.reader();
            assert_eq!(reader.get(1).unwrap().as_ref(), b"abc");
            assert_eq!(reader.get(2).unwrap().as_ref(), b"de");
            assert_eq!(reader.get(3), None);
        }
        assert_eq!(s.gets_served(), 3);
        let _ = s.get(1);
        assert_eq!(s.gets_served(), 4);
    }

    #[test]
    fn concurrent_reads() {
        use std::sync::Arc;
        let s = Arc::new(StorageServer::new(0, DEFAULT_SEGMENT_BYTES));
        for i in 0..100u64 {
            s.put(i, &i.to_le_bytes()).unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    assert_eq!(s.get(i).unwrap().as_ref(), &i.to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.gets_served(), 400);
    }
}
