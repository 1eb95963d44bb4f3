//! Offline stand-in for the `crossbeam` crate.
//!
//! Only `crossbeam::channel::bounded` is provided, backed by
//! `std::sync::mpsc::sync_channel`, which has the same blocking-send /
//! disconnect semantics the morsel-parallel gather relies on.

#![warn(missing_docs)]

/// Multi-producer channels (the `crossbeam::channel` subset used here).
pub mod channel {
    /// Sending half of a bounded channel.
    pub struct Sender<T>(std::sync::mpsc::SyncSender<T>);

    /// Receiving half of a bounded channel.
    pub struct Receiver<T>(std::sync::mpsc::Receiver<T>);

    /// Error returned by [`Sender::send`] when the receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Block until the value is enqueued; errors if the receiver
        /// has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value).map_err(|e| SendError(e.0))
        }
    }

    impl<T> Receiver<T> {
        /// Block until a value arrives; errors once the channel is empty
        /// and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, std::sync::mpsc::TryRecvError> {
            self.0.try_recv()
        }

        /// Blocking iterator over received values.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            self.0.iter()
        }
    }

    /// Create a bounded channel buffering up to `cap` values.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(cap);
        (Sender(tx), Receiver(rx))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::bounded;

    #[test]
    fn send_recv_and_disconnect() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn dropped_receiver_fails_send() {
        let (tx, rx) = bounded::<i32>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn producer_thread_streams() {
        let (tx, rx) = bounded(4);
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                if tx.send(i).is_err() {
                    break;
                }
            }
        });
        let got: Vec<i32> = rx.iter().collect();
        h.join().unwrap();
        assert_eq!(got.len(), 100);
    }
}
