//! Stand-in for `parking_lot`: a `Mutex` whose `lock()` returns the guard
//! directly, over `std::sync::Mutex`. Only test code of the layer crates
//! names it; it is here so their manifests resolve offline.

pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}
