//! Offline shim of the `crossbeam` 0.8 API surface the subsum
//! workspace uses: `channel::{unbounded, Sender, Receiver}` with
//! `send`, `recv`, `iter`, `len` and `Clone`
//! (`crates/broker/src/runtime.rs`).
//! A mutex + condvar multi-producer multi-consumer queue — same
//! semantics (FIFO, disconnect on last sender/receiver drop), not the
//! same speed; nothing on the benchmark's serving path uses it.

#![forbid(unsafe_code)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            match self.state.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            }
        }
    }

    /// The sending half.
    pub struct Sender<T>(Arc<Shared<T>>);
    /// The receiving half.
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// The message could not be sent: every receiver is gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);
    /// Every sender is gone and the channel is empty.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }
    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }
    impl<T> std::error::Error for SendError<T> {}
    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }
    impl std::error::Error for RecvError {}

    /// A channel of unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    impl<T> Sender<T> {
        /// Queues `msg`; fails once every receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            st.queue.push_back(msg);
            drop(st);
            self.0.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks for the next message.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = match self.0.not_empty.wait(st) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// Whether nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator; ends when every sender is gone.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter(self)
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.lock().receivers -= 1;
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// See [`Receiver::iter`].
    #[derive(Debug)]
    pub struct Iter<'a, T>(&'a Receiver<T>);
    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_and_disconnect() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            assert_eq!(rx.len(), 2);
            assert_eq!(rx.recv(), Ok(1));
            drop(tx);
            drop(tx2);
            assert_eq!(rx.iter().collect::<Vec<_>>(), vec![2]);
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(3), Err(SendError(3)));
        }

        #[test]
        fn crosses_threads() {
            let (tx, rx) = unbounded();
            let producer = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<i32> = rx.iter().collect();
            producer.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }
    }
}
