//! Model-thread spawning, mirroring `std::thread`.

use crate::rt;
use std::any::Any;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// Handle to a spawned model thread.
pub struct JoinHandle<T> {
    tid: usize,
    slot: Arc<Mutex<Option<T>>>,
    _not_copy: PhantomData<*const ()>,
}

// The handle owns no thread-local state; it is a ticket for the result.
unsafe impl<T: Send> Send for JoinHandle<T> {}

impl<T> JoinHandle<T> {
    /// Wait for the thread to finish and return its result; `Err` carries
    /// a stand-in payload if the thread panicked (in practice a model
    /// thread panic aborts the whole execution first).
    pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
        rt::join_model(self.tid);
        match self.slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
            Some(v) => Ok(v),
            None => Err(Box::new("loom model thread panicked")),
        }
    }
}

/// Spawn a new model thread.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let slot = Arc::new(Mutex::new(None));
    let writer = Arc::clone(&slot);
    let tid = rt::spawn_model(Box::new(move || {
        let v = f();
        *writer.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
    }));
    JoinHandle {
        tid,
        slot,
        _not_copy: PhantomData,
    }
}
